"""Command-line front end: run experiments, build reference optima, compare runs.

Verbs:
  run       execute one method under a budget, write CSV+JSON traces
  refopt    compute and cache the reference optimum for a problem
  compare   run several configs on the same problem, rank bits-to-gap
  gen-data  synthesize a Gaussian dataset in LIBSVM format

Exit codes: 0 ok, 2 configuration error, 3 numerical error, 4 I/O error
(including an oracle cache file that is corrupt or does not fit the problem).
Output root comes from --outdir or the DISTNEWTON_OUT environment variable
(default ./runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .compressors import CompressorSpec
from .data import (Dataset, load_dataset, partition as make_partition,
                   save_dataset, synth_artificial)
from .errors import (CacheError, ConfigError, DistNewtonError, InputError,
                     NumericalError, ParseError, ReplicaMismatchError,
                     SingularMatrixError)
from .harness import (COMPRESSED_METHODS, METHOD_NAMES, Budget, RunOptions,
                      Trace, bits_to_reach, run_experiment)
from .methods import Oracles, reference_optimum
from .problem import Problem, loss_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

GAP_THRESHOLDS = (1e-4, 1e-7, 1e-10)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one run; echoed into the trace JSON."""

    method: str
    seed: int
    lam: float = 1e-3
    loss: str = "logistic"
    n: int = 2
    shuffle_seed: int = 0
    dataset_path: Optional[str] = None
    synth: Optional[dict] = None
    d_hint: Optional[int] = None
    compressor: Optional[dict] = None
    eta: Optional[float] = None
    gamma: Optional[float] = None
    stepsize: Optional[float] = None
    theta: Optional[float] = None
    h0: str = "h_at_x0"
    option: int = 1
    x0: Optional[list] = None
    max_iters: int = 100
    bit_budget: Optional[int] = None
    target_gap: Optional[float] = None
    newton_ref_iters: int = 20
    diagnostics: bool = True
    timing: bool = False
    tag: str = ""

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("seed is mandatory; wall-clock seeding is not supported")
        if (self.dataset_path is None) == (self.synth is None):
            raise ConfigError("exactly one of dataset_path or synth must be given")
        if self.method not in METHOD_NAMES:
            raise ConfigError(f"unknown method {self.method!r}; "
                              f"choose from {', '.join(METHOD_NAMES)}")
        if self.method in COMPRESSED_METHODS and self.compressor is None:
            raise ConfigError(f"method {self.method!r} requires a compressor")
        if self.method == "nl1" and self.lam <= 0:
            raise ConfigError("nl1 requires lam > 0")
        if self.option not in (1, 2):
            raise ConfigError("option must be 1 or 2")
        loss_model(self.loss)
        if self.compressor is not None:
            CompressorSpec.from_dict(self.compressor)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        try:
            return ExperimentConfig(**d)
        except TypeError as exc:
            raise ConfigError(f"bad config field: {exc}") from None

    # -- derived objects ---------------------------------------------------

    def dataset_name(self) -> str:
        if self.dataset_path is not None:
            name = Path(self.dataset_path).name
            for suffix in (".gz", ".txt", ".libsvm"):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
            return name or "dataset"
        return "artificial"

    def load_data(self) -> Dataset:
        if self.dataset_path is not None:
            return load_dataset(self.dataset_path, d_hint=self.d_hint)
        s = dict(self.synth)
        return synth_artificial(n=s["n"], m=s["m"], d=s["d"], seed=s["seed"],
                                mean=s.get("mean", 10.0),
                                variance=s.get("variance", 10.0))

    def build_problem(self) -> Problem:
        ds = self.load_data()
        part = make_partition(ds, self.n, self.shuffle_seed)
        return Problem(dataset=ds, part=part,
                       loss=loss_model(self.loss), lam=self.lam)

    def compressor_spec(self) -> Optional[CompressorSpec]:
        if self.compressor is None:
            return None
        return CompressorSpec.from_dict(self.compressor)

    def run_options(self) -> RunOptions:
        return RunOptions(
            eta=self.eta, gamma=self.gamma, stepsize=self.stepsize,
            theta=self.theta, h0=self.h0,
            x0=self.x0,
            option=self.option, diagnostics=self.diagnostics,
            timing=self.timing,
        )

    def budget(self) -> Budget:
        return Budget(max_iters=self.max_iters, bit_budget=self.bit_budget,
                      target_gap=self.target_gap)

    def stem(self) -> str:
        tag = f"_{self.tag}" if self.tag else ""
        return f"{self.dataset_name()}_{self.method}{tag}_lmb{self.lam:g}_seed{self.seed}"

    def problem_key(self) -> dict:
        """Fields that must match for two configs to share a reference optimum."""
        return {
            "dataset_path": self.dataset_path, "synth": self.synth,
            "d_hint": self.d_hint, "n": self.n,
            "shuffle_seed": self.shuffle_seed, "loss": self.loss,
            "lam": self.lam, "newton_ref_iters": self.newton_ref_iters,
        }


# ---------------------------------------------------------------------------
# Reference-optimum cache (content addressed)
# ---------------------------------------------------------------------------

# Version of the reference-optimum computation, hashed into the cache key so
# that a file written by an earlier formula is never read back. Keys without
# it were format 1 (whole-matrix products for value and gradient); format 2
# evaluates every iterate through the stacked per-worker margin pass.
ORACLE_FORMAT = 2


def _oracle_cache_key(cfg: ExperimentConfig) -> str:
    h = hashlib.sha256()
    if cfg.dataset_path is not None:
        h.update(Path(cfg.dataset_path).read_bytes())
    key = dict(cfg.problem_key())
    key.pop("dataset_path")
    key["oracle_format"] = ORACLE_FORMAT
    h.update(json.dumps(key, sort_keys=True).encode())
    return h.hexdigest()[:24]


def oracle_path(cfg: ExperimentConfig, outroot: Path) -> Path:
    return outroot / "oracles" / f"{_oracle_cache_key(cfg)}.json"


def oracles_to_json(o: Oracles) -> str:
    payload = {
        "x_star": [float(v) for v in o.x_star],
        "value_star": float(o.value_star),
        "h_star": [[float(v) for v in row] for row in o.h_star],
        "grad_norm": float(o.grad_norm),
    }
    return json.dumps(payload, sort_keys=True)


def oracles_from_json(text: str, p: Problem) -> Oracles:
    d = json.loads(text)
    x_star = np.asarray(d["x_star"], dtype=np.float64)
    h_star = np.asarray(d["h_star"], dtype=np.float64)
    if x_star.shape != (p.d,) or h_star.shape != (p.n, p.m):
        raise InputError(
            f"x_star shape {x_star.shape} and h_star shape {h_star.shape} do not "
            f"match the problem's ({p.d},) and ({p.n}, {p.m})")
    value_star, grad_norm = float(d["value_star"]), float(d["grad_norm"])
    # json reads NaN and Infinity, which no computed optimum holds
    for name, value in (("x_star", x_star), ("value_star", value_star),
                        ("h_star", h_star), ("grad_norm", grad_norm)):
        if not np.all(np.isfinite(value)):
            raise InputError(f"{name} holds a non-finite value")
    hessian_star = p.data_gram(h_star)
    # one pair serves every config of a compare, so no run may write into it
    for a in (x_star, h_star, hessian_star):
        a.setflags(write=False)
    return Oracles(
        x_star=x_star,
        value_star=value_star,
        h_star=h_star,
        hessian_star=hessian_star,
        grad_norm=grad_norm,
    )


def load_or_compute_oracles(cfg: ExperimentConfig, p: Problem,
                            path: Path) -> Oracles:
    """The oracles cached at ``path`` (see ``oracle_path``), computed and
    written there first if the file does not exist."""
    if path.exists():
        try:
            return oracles_from_json(path.read_text(), p)
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheError(f"corrupt oracle cache {path}: "
                             f"{type(exc).__name__}: {exc}") from None
    o = reference_optimum(p, newton_iters=cfg.newton_ref_iters)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write-then-rename, so a reader never sees a partly written cache file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(oracles_to_json(o))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return o


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _outroot(args) -> Path:
    if getattr(args, "outdir", None):
        return Path(args.outdir)
    return Path(os.environ.get("DISTNEWTON_OUT", "runs"))


def _prepare(cfg: ExperimentConfig, outroot: Path) -> tuple[Problem, Oracles]:
    """The config's problem and its oracles, from the cache under outroot."""
    p = cfg.build_problem()
    return p, load_or_compute_oracles(cfg, p, oracle_path(cfg, outroot))


def execute_config(cfg: ExperimentConfig, outroot: Path,
                   prepared: Optional[tuple[Problem, Oracles]] = None) -> Trace:
    """Run one config. ``prepared`` is the ``_prepare`` pair of a config with
    the same ``problem_key``; without it the problem is built here."""
    cfg.validate()
    p, oracles = prepared if prepared is not None else _prepare(cfg, outroot)
    return run_experiment(
        cfg.method, p, cfg.compressor_spec(), cfg.budget(), cfg.seed,
        oracles=oracles, opts=cfg.run_options(), config_echo=cfg.to_dict())


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    outroot = _outroot(args)
    trace = execute_config(cfg, outroot)
    csv_path, json_path = trace.write(outroot, cfg.stem())
    last = trace.final()
    print(f"{cfg.stem()}: iters={last.iteration} gap={last.gap:.6e} "
          f"bits_up={last.bits_up_cum} -> {csv_path} {json_path}")
    return EXIT_OK


def cmd_refopt(args) -> int:
    cfg = _config_from_args(args, method_optional=True)
    outroot = _outroot(args)
    cfg.validate()
    p = cfg.build_problem()
    path = oracle_path(cfg, outroot)
    o = load_or_compute_oracles(cfg, p, path)
    print(f"reference optimum: P*={o.value_star!r} grad_norm={o.grad_norm:.3e} "
          f"-> {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    configs = [ExperimentConfig.from_dict(_read_config_file(f))
               for f in args.configs]
    if not configs:
        raise ConfigError("compare needs at least one config")
    for cfg in configs:
        cfg.validate()
    key0 = configs[0].problem_key()
    for cfg in configs[1:]:
        if cfg.problem_key() != key0:
            raise ConfigError(
                "compare requires identical dataset, partition, loss, and lam "
                f"across configs; {cfg.stem()} differs")
    outroot = _outroot(args)
    thresholds = args.gap_thresholds or list(GAP_THRESHOLDS)

    # equal problem keys give equal problems and oracles: build them once
    prepared = _prepare(configs[0], outroot)
    traces = []
    for cfg in configs:
        trace = execute_config(cfg, outroot, prepared)
        trace.write(outroot, cfg.stem())
        traces.append((cfg, trace))

    combined = ["method,iter,bits_up_cum,gap"]
    for cfg, trace in traces:
        label = f"{cfg.method}{('_' + cfg.tag) if cfg.tag else ''}"
        for r in trace.rows:
            combined.append(f"{label},{r.iteration},{r.bits_up_cum},{r.gap!r}")
    combined_path = outroot / f"compare_{configs[0].dataset_name()}" \
                              f"_lmb{configs[0].lam:g}.csv"
    combined_path.parent.mkdir(parents=True, exist_ok=True)
    combined_path.write_text("\n".join(combined) + "\n")

    header = "method".ljust(18) + "".join(f"bits@gap<={t:g}".rjust(12 + 6)
                                          for t in thresholds)
    print(header)
    table = []
    for cfg, trace in traces:
        label = f"{cfg.method}{('_' + cfg.tag) if cfg.tag else ''}"
        cells = [bits_to_reach(trace, t) for t in thresholds]
        table.append((label, cells))
        print(label.ljust(18) + "".join(
            (str(c) if c is not None else "unreached").rjust(18) for c in cells))
    for t_idx, t in enumerate(thresholds):
        reached = sorted((cells[t_idx], label) for label, cells in table
                         if cells[t_idx] is not None)
        if reached:
            ranking = " < ".join(label for _, label in reached)
            print(f"rank @gap<={t:g}: {ranking}")
    print(f"combined trace -> {combined_path}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    ds = synth_artificial(n=args.n, m=args.m, d=args.d, seed=args.seed,
                          variance=args.variance)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} points (d={ds.d}) -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _add_problem_flags(sp):
    sp.add_argument("--config", help="JSON config file; flags override its fields")
    sp.add_argument("--dataset", help="LIBSVM file (plain or .gz)")
    sp.add_argument("--synth", help="synthetic spec n,m,d (e.g. 100,10,200)")
    sp.add_argument("--synth-seed", type=int, default=0)
    sp.add_argument("--d-hint", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--lam", type=float)
    sp.add_argument("--loss", choices=["logistic", "squared"])
    sp.add_argument("--shuffle-seed", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--newton-ref-iters", type=int)
    sp.add_argument("--outdir")


def _add_method_flags(sp):
    sp.add_argument("--method")
    sp.add_argument("--compressor",
                    help='e.g. identity | random_r:1 | dithering:11 | natural '
                         '| bernoulli:0.05:random_r:1')
    sp.add_argument("--eta", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--stepsize", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--h0", choices=["h_at_x0", "zeros"])
    sp.add_argument("--option", type=int, choices=[1, 2])
    sp.add_argument("--max-iters", type=int)
    sp.add_argument("--bit-budget", type=int)
    sp.add_argument("--target-gap", type=float)
    sp.add_argument("--tag")
    sp.add_argument("--no-diagnostics", action="store_true",
                    help="skip the per-round eigenvalue diagnostics (min_eig_estimate, "
                         "domination_margin); hull, neighborhood and replica checks "
                         "run on every round regardless")
    sp.add_argument("--timing", action="store_true")


def parse_compressor_flag(text: str) -> dict:
    parts = text.split(":")
    kind = parts[0]

    def arg(pos: int, name: str, convert):
        if len(parts) <= pos:
            raise ConfigError(f"compressor flag {text!r} is missing {kind}'s {name}")
        try:
            return convert(parts[pos])
        except ValueError:
            raise ConfigError(f"compressor flag {text!r}: {name}={parts[pos]!r} "
                              f"is not a valid {convert.__name__}") from None

    if kind == "identity":
        return {"kind": "identity"}
    if kind == "natural":
        return {"kind": "natural"}
    if kind == "random_r":
        return {"kind": "random_r", "r": arg(1, "r", int)}
    if kind == "dithering":
        spec = {"kind": "dithering", "s": arg(1, "s", int) if len(parts) > 1 else None}
        spec["q"] = arg(2, "q", float) if len(parts) > 2 else 2.0
        return spec
    if kind == "bernoulli":
        return {"kind": "bernoulli", "p": arg(1, "p", float),
                "inner": parse_compressor_flag(":".join(parts[2:]))}
    raise ConfigError(f"cannot parse compressor flag {text!r}")


def _read_config_file(path: str) -> dict:
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return d


def _config_from_args(args, method_optional: bool = False) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        base = _read_config_file(args.config)

    def override(key, value):
        if value is not None:
            base[key] = value

    override("dataset_path", args.dataset)
    if args.synth:
        try:
            n, m, d = (int(v) for v in args.synth.split(","))
        except ValueError:
            raise ConfigError(f"--synth expects three integers n,m,d, "
                              f"got {args.synth!r}") from None
        base["synth"] = {"n": n, "m": m, "d": d, "seed": args.synth_seed}
    override("d_hint", args.d_hint)
    override("n", args.n)
    override("lam", args.lam)
    override("loss", args.loss)
    override("shuffle_seed", args.shuffle_seed)
    override("seed", args.seed)
    override("newton_ref_iters", args.newton_ref_iters)
    if hasattr(args, "method"):
        override("method", args.method)
        if args.compressor:
            base["compressor"] = parse_compressor_flag(args.compressor)
        for key in ("eta", "gamma", "stepsize", "theta", "h0", "option",
                    "bit_budget", "target_gap", "tag"):
            override(key, getattr(args, key))
        override("max_iters", args.max_iters)
        if args.no_diagnostics:
            base["diagnostics"] = False
        if args.timing:
            base["timing"] = True
    if method_optional:
        base.setdefault("method", "newton")
    if "method" not in base:
        raise ConfigError("a method is required (flag --method or config file)")
    if "seed" not in base or base["seed"] is None:
        raise ConfigError("a seed is required (flag --seed or config file)")
    return ExperimentConfig.from_dict(base)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="distnewton",
        description="Simulated parameter-server runs of distributed "
                    "Newton-type methods with exact bit accounting.")
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("run", help="run one experiment")
    _add_problem_flags(sp)
    _add_method_flags(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("refopt", help="compute/caches the reference optimum")
    _add_problem_flags(sp)
    sp.set_defaults(fn=cmd_refopt)

    sp = sub.add_parser("compare", help="run several configs and rank them")
    sp.add_argument("configs", nargs="+", help="JSON config files")
    sp.add_argument("--gap-thresholds", type=float, nargs="*")
    sp.add_argument("--outdir")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("gen-data", help="synthesize a Gaussian LIBSVM dataset")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--variance", type=float, default=10.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen_data)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ReplicaMismatchError, SingularMatrixError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DistNewtonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
