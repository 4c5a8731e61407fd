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
import numbers
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .compressors import _READS, CompressorSpec
from .data import Dataset, load_dataset, save_dataset, synth_artificial
from .errors import (CacheError, ConfigError, InputError, NumericalError,
                     ParseError, ReplicaMismatchError, SingularMatrixError,
                     _finite_real)
from .harness import (_OPTIONS, Budget, RunOptions, Trace, _admit, bits_to_reach,
                      run_experiment)
from .methods import Oracles, _oracles_at, reference_optimum
from .problem import _LOSSES, Problem, make_problem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

GAP_THRESHOLDS = (1e-4, 1e-7, 1e-10)

# The longest file name, in bytes, that ext4, xfs, btrfs and APFS accept
# (NAME_MAX), checked on a trace stem before any work.
NAME_MAX = 255

# The values a config field of each annotated type accepts. A float field
# takes any real, since JSON may write 1 for 1.0; bool is an int subclass,
# so ``_check_field`` turns it away from the numeric kinds.
_FIELD_KINDS = {int: numbers.Integral, float: numbers.Real, str: str,
                bool: bool, dict: dict, list: list}
# synthetic-data keys: (required, kind)
_SYNTH_KEYS = {"n": (True, int), "m": (True, int), "d": (True, int),
               "seed": (True, int), "mean": (False, float),
               "variance": (False, float)}
# the choices of the flags of fields whose owner dispatches on the value
_CHOICES = {"loss": tuple(_LOSSES), "option": _OPTIONS}


def _check_field(name: str, value, kind: type) -> None:
    """ConfigError naming ``name`` unless ``value`` is of the field kind and
    in the field's range: a float field is finite as a float (json reads NaN,
    Infinity and integers of any size), an int field nonnegative. The rates'
    range, like every run rule, is held by ``harness._admit``."""
    if (not isinstance(value, _FIELD_KINDS[kind])
            or (kind is not bool and isinstance(value, bool))):
        raise ConfigError(f"config field {name} must be {kind.__name__}, "
                          f"not {value!r}")
    if kind is float and not _finite_real(value):
        raise ConfigError(f"config field {name} must be finite, not {value!r}")
    if kind is int and value < 0:
        raise ConfigError(f"config field {name} must be nonnegative, not {value!r}")


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
    stepsize: Optional[float] = None
    theta: Optional[float] = None
    option: int = 1
    x0: Optional[list] = None
    max_iters: int = 100
    bit_budget: Optional[int] = None
    target_gap: Optional[float] = None
    diagnostics: bool = True
    timing: bool = False
    tag: str = ""

    def validate(self) -> None:
        """ConfigError unless each field has its kind and the CLI's range,
        and a d_hint comes with a dataset file; the run rules are checked by
        ``harness._admit`` (see ``_prepare``). The trace file name must fit
        in NAME_MAX bytes; the compare CSV's name is always shorter."""
        if self.seed is None:
            raise ConfigError("seed is mandatory; wall-clock seeding is not supported")
        for name, (kind, optional) in _CONFIG_KINDS.items():
            value = getattr(self, name)
            if not (value is None and optional):
                _check_field(name, value, kind)
        if (self.dataset_path is None) == (self.synth is None):
            raise ConfigError("exactly one of dataset_path or synth must be given")
        if self.d_hint is not None and self.dataset_path is None:
            raise ConfigError("d_hint widens a dataset file; a synth config has none")
        if any(c in self.tag for c in "/\\\0"):     # a tag is part of a file name
            raise ConfigError(f"tag must hold no '/', '\\' or NUL, not {self.tag!r}")
        if self.synth is not None:
            unknown = sorted(set(self.synth) - set(_SYNTH_KEYS))
            if unknown:
                raise ConfigError(f"unknown synth key(s): {', '.join(unknown)}")
            for key, (required, kind) in _SYNTH_KEYS.items():
                if key in self.synth:
                    _check_field(f"synth.{key}", self.synth[key], kind)
                elif required:
                    raise ConfigError(f"synth needs the key {key!r}")
        if self.compressor is not None:
            CompressorSpec.from_dict(self.compressor)
        if len(f"{self.stem()}.json".encode()) > NAME_MAX:
            raise ConfigError(f"trace file name {self.stem()}.json is longer than "
                              f"{NAME_MAX} bytes")

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
        return synth_artificial(**self.synth)    # validate holds its keys

    def build_problem(self) -> Problem:
        return make_problem(self.load_data(), self.n, self.shuffle_seed,
                            self.loss, self.lam)

    def compressor_spec(self) -> Optional[CompressorSpec]:
        if self.compressor is None:
            return None
        return CompressorSpec.from_dict(self.compressor)

    # RunOptions and Budget name their fields as the config does

    def run_options(self) -> RunOptions:
        return RunOptions(**{f.name: getattr(self, f.name) for f in fields(RunOptions)})

    def budget(self) -> Budget:
        return Budget(**{f.name: getattr(self, f.name) for f in fields(Budget)})

    def stem(self) -> str:
        tag = f"_{self.tag}" if self.tag else ""
        return f"{self.dataset_name()}_{self.method}{tag}_lmb{self.lam:g}_seed{self.seed}"

    def problem_key(self) -> dict:
        """Fields that must match for two configs to share a reference optimum."""
        return {
            "dataset_path": self.dataset_path, "synth": self.synth,
            "d_hint": self.d_hint, "n": self.n,
            "shuffle_seed": self.shuffle_seed, "loss": self.loss, "lam": self.lam,
        }


# field name -> (kind, whether None is allowed), read from the annotations:
# Optional[X] has the arguments (X, NoneType)
_CONFIG_KINDS = {name: ((get_args(hint) or (hint,))[0], type(None) in get_args(hint))
                 for name, hint in get_type_hints(ExperimentConfig).items()}


# ---------------------------------------------------------------------------
# Reference-optimum cache (content addressed)
# ---------------------------------------------------------------------------

# Version of the reference-optimum computation and file, hashed into the
# cache key so that a file written by an earlier formula is never read back.
# Keys without it were format 1 (whole-matrix products for value and
# gradient); format 2 evaluates every iterate through the stacked per-worker
# margin pass; format 3 stores x* alone, and every other oracle is derived
# from it on load (``methods._oracles_at``); format 4 stops the Newton loop
# once a step is at rounding level instead of always taking 20 steps.
ORACLE_FORMAT = 4


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
    return json.dumps({"x_star": o.x_star.tolist()})


def oracles_from_json(text: str, p: Problem) -> Oracles:
    x_star = np.asarray(json.loads(text)["x_star"], dtype=np.float64)
    if x_star.shape != (p.d,):
        raise InputError(f"x_star has shape {x_star.shape}, but the problem "
                         f"has d={p.d}")
    # json reads NaN and Infinity, which no computed optimum holds
    if not np.all(np.isfinite(x_star)):
        raise InputError("x_star holds a non-finite value")
    return _oracles_at(p, x_star)


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
    o = reference_optimum(p)
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


def _compare_label(cfg: ExperimentConfig) -> str:
    """A config's row name in compare's table and combined CSV."""
    return f"{cfg.method}{('_' + cfg.tag) if cfg.tag else ''}"


def _prepare(cfgs: list[ExperimentConfig],
             outroot: Path) -> tuple[Problem, Oracles, Path]:
    """The CLI's one admission path: the problem the configs share, its
    oracles and their cache file under outroot. Each config is validated,
    all must have one ``problem_key``, configs that differ must have
    different compare labels, and each is admitted on the problem by
    ``harness._admit`` before the oracles are read or computed."""
    labels: dict[str, ExperimentConfig] = {}
    for cfg in cfgs:
        cfg.validate()
        if cfg.problem_key() != cfgs[0].problem_key():
            raise ConfigError(
                "compare requires identical dataset, partition, loss, and lam "
                f"across configs; {cfg.stem()} differs")
        # a label is one row of compare's output and, with the shared problem
        # key and the seed, one trace stem: a second, different run would
        # make the row ambiguous or overwrite the trace
        label = _compare_label(cfg)
        if labels.setdefault(label, cfg).to_dict() != cfg.to_dict():
            raise ConfigError(f"two different configs share the compare label {label} "
                              f"({cfg.stem()}); give them distinct tags")
    p = cfgs[0].build_problem()
    for cfg in cfgs:
        _admit(cfg.method, p, cfg.compressor_spec(), cfg.run_options())
    path = oracle_path(cfgs[0], outroot)
    return p, load_or_compute_oracles(cfgs[0], p, path), path


def execute_config(cfg: ExperimentConfig, outroot: Path,
                   prepared: Optional[tuple[Problem, Oracles, Path]] = None) -> Trace:
    """Run one config. ``prepared`` is the ``_prepare`` result for a list of
    configs holding this one; without it the config is admitted and the
    problem built here."""
    p, oracles, _ = prepared if prepared is not None else _prepare([cfg], outroot)
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
    _, o, path = _prepare([cfg], _outroot(args))
    print(f"reference optimum: P*={o.value_star!r} grad_norm={o.grad_norm:.3e} "
          f"-> {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    configs = [ExperimentConfig.from_dict(_read_config_file(f))
               for f in args.configs]        # argparse asks for at least one
    outroot = _outroot(args)

    # one problem key gives one problem and its oracles: build them once
    prepared = _prepare(configs, outroot)
    traces = []
    for cfg in configs:
        trace = execute_config(cfg, outroot, prepared)
        trace.write(outroot, cfg.stem())
        traces.append((_compare_label(cfg), trace))

    combined = ["method,iter,bits_up_cum,gap"]
    for label, trace in traces:
        for r in trace.rows:
            combined.append(f"{label},{r.iteration},{r.bits_up_cum},{r.gap!r}")
    combined_path = outroot / f"compare_{configs[0].dataset_name()}" \
                              f"_lmb{configs[0].lam:g}.csv"
    combined_path.parent.mkdir(parents=True, exist_ok=True)
    combined_path.write_text("\n".join(combined) + "\n")

    print("method".ljust(18) + "".join(f"bits@gap<={t:g}".rjust(18)
                                       for t in GAP_THRESHOLDS))
    table = []
    for label, trace in traces:
        cells = [bits_to_reach(trace, t) for t in GAP_THRESHOLDS]
        table.append((label, cells))
        print(label.ljust(18) + "".join(
            (str(c) if c is not None else "unreached").rjust(18) for c in cells))
    for t_idx, t in enumerate(GAP_THRESHOLDS):
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

def _add_field_flags(sp, names) -> None:
    """A flag per config field, named after it (``--d-hint`` sets d_hint),
    of the field's kind and choices."""
    for name in names:
        sp.add_argument("--" + name.replace("_", "-"), type=_CONFIG_KINDS[name][0],
                        choices=_CHOICES.get(name))


def _add_problem_flags(sp):
    sp.add_argument("--config", help="JSON config file; flags override its fields")
    sp.add_argument("--dataset", dest="dataset_path", metavar="DATASET",
                    help="LIBSVM file (plain or .gz)")
    sp.add_argument("--synth", help="synthetic spec n,m,d (e.g. 100,10,200)")
    sp.add_argument("--synth-seed", type=int, default=0)
    _add_field_flags(sp, ("d_hint", "n", "lam", "loss", "shuffle_seed", "seed"))
    sp.add_argument("--outdir")


def _add_method_flags(sp):
    _add_field_flags(sp, ("method",))
    sp.add_argument("--compressor",
                    help='e.g. identity | random_r:1 | dithering:11 | natural '
                         '| bernoulli:0.05:random_r:1')
    _add_field_flags(sp, ("eta", "stepsize", "theta", "option",
                          "max_iters", "bit_budget", "target_gap", "tag"))
    # None unless given, like every field flag, so a config file's value stands
    sp.add_argument("--no-diagnostics", dest="diagnostics", action="store_false",
                    default=None,
                    help="skip the learners' per-round curvature_certificate; hull, "
                         "neighborhood and replica checks run on every round regardless")
    sp.add_argument("--timing", action="store_true", default=None)


# each field's text type; only dithering's s may be left off, as unset
_FLAG_FIELDS = {"r": int, "s": int, "p": float}


def parse_compressor_flag(text: str) -> dict:
    """The spec dict of ``kind:field:...``, fields in ``_READS`` order;
    bernoulli's inner flag takes the rest of the text."""
    kind, *parts = text.split(":")
    if kind not in _READS:
        raise ConfigError(f"cannot parse compressor flag {text!r}")
    spec: dict = {"kind": kind}
    for pos, name in enumerate(_READS[kind]):
        if pos >= len(parts):
            if name != "s":
                raise ConfigError(f"compressor flag {text!r} is missing {kind}'s {name}")
            spec[name] = None
        elif name == "inner":
            spec[name] = parse_compressor_flag(":".join(parts[pos:]))
            return spec
        else:
            convert = _FLAG_FIELDS[name]
            try:
                spec[name] = convert(parts[pos])
            except ValueError:
                raise ConfigError(f"compressor flag {text!r}: {name}={parts[pos]!r} "
                                  f"is not a valid {convert.__name__}") from None
    extra = parts[len(_READS[kind]):]
    if extra:
        raise ConfigError(f"compressor flag {text!r} has field(s) that {kind} "
                          f"does not read: {':'.join(extra)}")
    return spec


def _read_config_file(path: str) -> dict:
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:       # bad JSON or UTF-8, or an int past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return d


def _config_from_args(args, method_optional: bool = False) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        base = _read_config_file(args.config)
    # a flag the verb has and the command line gives sets the field of its
    # name; --synth and --compressor take texts that are parsed below
    for name in _CONFIG_KINDS:
        value = getattr(args, name, None)
        if value is not None and name not in ("synth", "compressor"):
            base[name] = value
    if args.synth:
        try:
            n, m, d = (int(v) for v in args.synth.split(","))
        except ValueError:
            raise ConfigError(f"--synth expects three integers n,m,d, "
                              f"got {args.synth!r}") from None
        base["synth"] = {"n": n, "m": m, "d": d, "seed": args.synth_seed}
    if getattr(args, "compressor", None):
        base["compressor"] = parse_compressor_flag(args.compressor)
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


if __name__ == "__main__":
    sys.exit(main())
