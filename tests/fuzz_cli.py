"""Fuzz the exit-code contract of ``distnewton run``: no input ends in a traceback.

Run from the repository root:

    PYTHONPATH=src python tests/fuzz_cli.py --trials 3000 --seed 1

Each trial starts from a tiny valid synthetic config for a random method and
replaces one or two config fields, or one ``synth`` or ``compressor`` key,
with a value from a fixed pool of awkward values. Half the trials replace
fields the drawn method reads (``fields_read``), so that a failure needing
one method, field and value together, such as cnl with ``"lam": 1e308``,
is drawn often. It runs ``cli.main`` on the config in-process. Every
exception that escapes ``main`` is a broken contract (it would exit 1 with
a traceback): each distinct exception type and raising line prints once,
with the first config that hit it. The exit status is 1 when any was found
and 0 when none was.

The trials stay small: the data holds 2*5*3 values, ``max_iters`` is never
replaced (it stays 3), and every size a pool value can ask for is refused
by the package before it allocates. Nothing starts a thread or a process.
"""

import argparse
import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

from distnewton import cli, harness
from distnewton.harness import COMPRESSED_METHODS, METHOD_NAMES

POOL = [True, False, 0, 1, -1, 2**63, 2**64, 10**400, -10**400, 1e308, -1e308,
        5e-324, float("nan"), float("inf"), float("-inf"), "", "1", "x",
        [], [1.0, 2.0, 3.0], {}, {"kind": "natural"}, None]

COMPRESSORS = [{"kind": "identity"}, {"kind": "random_r", "r": 1},
               {"kind": "dithering", "s": 2}, {"kind": "natural"},
               {"kind": "bernoulli", "p": 0.5, "inner": {"kind": "random_r", "r": 1}}]

# every config field but max_iters, which bounds the run
FIELDS = ["method", "seed", "lam", "loss", "n", "shuffle_seed", "synth", "d_hint",
          "compressor", "eta", "stepsize", "theta", "option", "x0", "bit_budget",
          "target_gap", "diagnostics", "timing", "tag"]
SYNTH_KEYS = ["n", "m", "d", "seed", "mean", "variance"]
COMPRESSOR_KEYS = ["kind", "r", "s", "p", "inner"]


def base_config(rng: random.Random, method: str | None = None) -> dict:
    """A tiny valid synth config for ``method``, or for a method drawn from rng."""
    if method is None:
        method = rng.choice(METHOD_NAMES)
    cfg = {"method": method, "seed": 1, "lam": 1e-2, "n": 2, "max_iters": 3,
           "synth": {"n": 2, "m": 5, "d": 3, "seed": 0}}
    if method in COMPRESSED_METHODS:
        cfg["compressor"] = json.loads(json.dumps(rng.choice(COMPRESSORS)))
    return cfg


def fields_read(method: str) -> list[str]:
    """The config fields that reach the method's own code: the objective's
    lam, the start x0, each rate the method's row of the method table
    defaults, its compressor, and a learner's option."""
    rec = harness._METHODS[method]
    fields = ["lam", "x0"] + [name for name in ("eta", "stepsize", "theta")
                              if getattr(rec, name) is not None]
    if rec.needs_spec:
        fields.append("compressor")
    if rec.eta is not None:         # the learners
        fields.append("option")
    return fields


def mutate(rng: random.Random, cfg: dict) -> dict:
    if rng.random() < 0.5:
        read = fields_read(cfg["method"])
        for name in rng.sample(read, rng.choice((1, 2))):
            cfg[name] = rng.choice(POOL)
        return cfg
    choice = rng.randrange(3)
    if choice == 1:
        cfg["synth"][rng.choice(SYNTH_KEYS)] = rng.choice(POOL)
    elif choice == 2 and "compressor" in cfg:
        cfg["compressor"][rng.choice(COMPRESSOR_KEYS)] = rng.choice(POOL)
    else:
        for name in rng.sample(FIELDS, rng.choice((1, 2))):
            cfg[name] = rng.choice(POOL)
    return cfg


def trial(cfg: dict, workdir: Path):
    """cli.main's exit code on cfg, or the exception it raised."""
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    outdir = workdir / "out"
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["run", "--config", str(path), "--outdir", str(outdir)])
    except Exception as exc:        # the contract maps every error to an exit code
        return exc
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    found, codes = {}, {}
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.trials):
            cfg = mutate(rng, base_config(rng))
            exc = trial(cfg, Path(tmp))
            if not isinstance(exc, Exception):
                codes[exc] = codes.get(exc, 0) + 1
                continue
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            key = (type(exc).__name__, f"{Path(frame.filename).name}:{frame.lineno}")
            if key not in found:
                found[key] = cfg
                print(f"{key[0]} at {key[1]}: {exc}")
                print(f"  config: {json.dumps(cfg)}")
    print(f"exit codes: {dict(sorted(codes.items()))}")
    print(f"{len(found)} distinct failure(s) in {args.trials} trials at seed {args.seed}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
