"""Lockstep parameter-server simulation with exact communication accounting.

One global round = every worker produces its messages, then the server
aggregates in fixed worker order, steps the iterate, and broadcasts it.
The ledger charges each payload with the closed-form bit costs (32-bit
scalars by convention) and keeps the full payload log so cumulative totals
can be re-derived independently. A run builds each distinct payload
descriptor once and hands every round references to it, so the ledger
prices a descriptor once, on the first round that charges it, and looks the
price up by identity on every later charge.

Every method is one row of the private table ``_METHODS``: whether it needs
a compressor spec, its default stepsize, shift rate and learning rate,
whether the objective must never increase, and a start function taking the
admitted run and returning the per-round step. Every rule a run must meet
is held once, in ``_admit``, which resolves the row's defaults and the
first iterate x0 and reads no data; ``run_experiment`` and the CLI both
admit a run before any work. The three learners (nl1, nl2, cnl) share one
start function: coefficients start at h(x0), within the loss's bound
gamma, and it mirrors the server's coefficient replicas and records the
hull, neighborhood and curvature diagnostics.

With diagnostics on, a learner's row also holds ``curvature_certificate``,
an O(nm) minimum over arrays the round already has. For nl2 and cnl it is
min w for w = beta * (h + 2*gamma) - 2*gamma - h(x), taken over the
pre-update coefficients h the step's estimate used: the estimate minus
the data Hessian at x is the gram of w, so min w >= 0 proves domination
(up to the incremental gram's drift, reported as ``rebuild_drift``). For
nl1 it is min h of the coefficients whose gram is the next estimate, so
min h >= 0 proves that estimate PSD. ``wall_ms`` includes it.

Traces are deterministic given (config, seed); wall-clock timing is only
recorded when explicitly enabled, because measured times can never be
byte-reproducible.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import methods
from .compressors import CompressorSpec, bit_cost, ceil_log2, omega, SCALAR_BITS
from .errors import (ConfigError, InputError, NumericalError, ReplicaMismatchError,
                     _finite_real)
from .linalg import smallest_eigenvalue
from .methods import Oracles
from .problem import Problem

Array = np.ndarray

HULL_EPS = 1e-10


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerCharge:
    """Declarative description of one worker's upstream payload in one round."""

    grad_floats: int = 0                 # uncompressed gradient entries
    compressed: Optional[tuple] = None   # (CompressorSpec, length, fired)
    beta_scalars: int = 0                # curvature-ratio scalars
    data_vectors: int = 0                # training vectors shipped (Option 1)
    vector_floats: int = 0               # entries per shipped vector
    index_bits: int = 0                  # ceil(log2 nm) id bits per vector
    raw_sym_floats: int = 0              # symmetric-matrix floats (naive baseline)
    coeff_floats: int = 0                # raw coefficient floats (structured baseline)

    def bits(self) -> int:
        total = SCALAR_BITS * (self.grad_floats + self.beta_scalars
                               + self.raw_sym_floats + self.coeff_floats)
        if self.compressed is not None:
            spec, length, fired = self.compressed
            total += bit_cost(spec, length, fired=fired)
        total += self.data_vectors * (SCALAR_BITS * self.vector_floats + self.index_bits)
        return total


@dataclass(frozen=True)
class RoundCharge:
    iteration: int
    per_worker_bits: tuple
    down_bits: int
    charges: tuple

    @property
    def up_bits(self) -> int:
        return sum(self.per_worker_bits)


@dataclass
class CommLedger:
    """Per-round upstream/downstream bit records with exact integer totals."""

    rounds: list = field(default_factory=list)
    up_cum: int = 0
    down_cum: int = 0
    # bits() of every descriptor charged so far, keyed by id(): ``rounds``
    # holds each charged descriptor, so no key outlives its object
    priced: dict = field(default_factory=dict, repr=False, compare=False)


def charge_round(ledger: CommLedger, iteration: int,
                 charges: list[WorkerCharge], broadcast_floats: int) -> RoundCharge:
    priced = ledger.priced
    per_worker = []
    for c in charges:
        bits = priced.get(id(c))
        if bits is None:
            bits = priced[id(c)] = c.bits()
        per_worker.append(bits)
    rec = RoundCharge(iteration=iteration, per_worker_bits=tuple(per_worker),
                      down_bits=SCALAR_BITS * broadcast_floats,
                      charges=tuple(charges))
    ledger.rounds.append(rec)
    ledger.up_cum += rec.up_bits
    ledger.down_cum += rec.down_bits
    return rec


def recompute_ledger_totals(ledger: CommLedger) -> tuple[int, int]:
    """Re-derive cumulative totals from the payload log (exact integers)."""
    up = sum(sum(c.bits() for c in rec.charges) for rec in ledger.rounds)
    down = sum(rec.down_bits for rec in ledger.rounds)
    return up, down


# ---------------------------------------------------------------------------
# Replica consistency
# ---------------------------------------------------------------------------

def verify_replicas(server_h: Array, worker_h: Array) -> bool:
    """True iff the server's coefficient replicas equal worker state bit-for-bit."""
    return bool(np.array_equal(server_h, worker_h))


def replica_mismatches(server_h: Array, worker_h: Array) -> list[tuple[int, int]]:
    bad = np.argwhere(server_h != worker_h)
    return [(int(w), int(j)) for w, j in bad]


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

CSV_HEADER = "iter,gap,grad_norm,bits_up_cum,bits_down_cum,phi,wall_ms"


@dataclass
class TraceRow:
    iteration: int
    gap: float
    grad_norm: float
    bits_up_cum: int
    bits_down_cum: int
    phi: float
    wall_ms: float
    extras: dict = field(default_factory=dict)


@dataclass
class Trace:
    rows: list
    config: dict
    ledger: CommLedger

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.iteration), repr(r.gap), repr(r.grad_norm),
                str(r.bits_up_cum), str(r.bits_down_cum),
                repr(r.phi), repr(r.wall_ms),
            ]))
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v

        payload = {
            "config": self.config,
            "rows": [
                {
                    "iter": r.iteration,
                    "gap": clean(r.gap),
                    "grad_norm": clean(r.grad_norm),
                    "bits_up_cum": r.bits_up_cum,
                    "bits_down_cum": r.bits_down_cum,
                    "phi": clean(r.phi),
                    "wall_ms": clean(r.wall_ms),
                    "extras": {k: clean(v) for k, v in r.extras.items()},
                }
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    def write(self, directory: str | Path, stem: str) -> tuple[Path, Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        csv_path = directory / f"{stem}.csv"
        json_path = directory / f"{stem}.json"
        csv_path.write_text(self.csv_text())
        json_path.write_text(self.json_text())
        return csv_path, json_path

    def final(self) -> TraceRow:
        return self.rows[-1]

    def gaps(self) -> list[float]:
        return [r.gap for r in self.rows]

    def distances(self) -> list[float]:
        return [r.extras["dist"] for r in self.rows]


def bits_to_reach(trace: Trace, gap_threshold: float) -> Optional[int]:
    """Cumulative upstream bits at the first iterate with gap <= threshold."""
    for r in trace.rows:
        if math.isfinite(r.gap) and r.gap <= gap_threshold:
            return r.bits_up_cum
    return None


def tail_ratios(dists: list, count: int = 5, floor: float = 1e-12) -> list:
    """Last ``count`` consecutive distance ratios before the numerical floor."""
    end = len(dists)
    for k, v in enumerate(dists):
        if not math.isfinite(v) or v <= floor:
            end = k
            break
    ratios = [dists[k + 1] / dists[k] for k in range(end - 1)]
    return ratios[-count:]


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

@dataclass
class Budget:
    max_iters: int
    bit_budget: Optional[int] = None
    target_gap: Optional[float] = None


# the values RunOptions.option takes, which configs are checked against
# before any work
_OPTIONS = (1, 2)


@dataclass
class RunOptions:
    eta: Optional[float] = None          # learning rate; default 1/(omega+1)
    stepsize: Optional[float] = None     # first-order stepsize
    theta: Optional[float] = None        # shift learning rate (diana)
    x0: Optional[Array] = None
    option: int = 1                      # 1: ship data vectors; 2: server has data
    diagnostics: bool = True             # per-round curvature certificate only; hull,
                                         # neighborhood and replica checks run regardless
    timing: bool = False                 # measured wall_ms breaks byte-reproducibility


# ---------------------------------------------------------------------------
# Methods: one table row each
# ---------------------------------------------------------------------------

class _Run(NamedTuple):
    """One admitted run (see ``_admit``): stepsize, theta and eta have the
    method's defaults and x0 is the first iterate."""

    p: Problem
    spec: Optional[CompressorSpec]
    opts: RunOptions
    stepsize: Optional[float]
    theta: Optional[float]
    eta: Optional[float]
    x0: Array
    seed: Optional[int] = None           # set by run_experiment
    oracles: Optional[Oracles] = None    # set by run_experiment


# A method's start function takes the admitted run and returns (step, phi):
# step(k) runs round k and returns (x^{k+1}, one WorkerCharge per worker,
# trace extras); phi() is the Lyapunov function at the current state. Equal
# payloads within a run are one WorkerCharge object, which ``charge_round``
# prices once.

def _no_phi() -> float:
    return math.nan


def _grad_charge(p: Problem) -> WorkerCharge:
    return WorkerCharge(grad_floats=p.d)


def _stateless(update, charge):
    """Start function of a step x -> update(run, x); every worker sends charge(p)."""
    def start(run: _Run):
        x = run.x0
        charges = [charge(run.p)] * run.p.n

        def step(k):
            nonlocal x
            x = update(run, x)
            return x, charges, {}
        return step, _no_phi
    return start


def _compressed_charges(run: _Run) -> Callable[[bool], WorkerCharge]:
    """A compressed gradient's descriptor, made once per run for each value
    of whether it fired."""
    return functools.cache(
        lambda fired: WorkerCharge(compressed=(run.spec, run.p.d, fired)))


def _start_dcgd(run: _Run):
    x = run.x0
    charges = _compressed_charges(run)

    def step(k):
        nonlocal x
        x, payload = methods.dcgd_round(run.p, x, run.spec, run.seed, k, run.stepsize)
        return x, list(map(charges, payload.fired.tolist())), {}
    return step, _no_phi


def _start_diana(run: _Run):
    state = methods.diana_init(run.p, run.x0)
    charges = _compressed_charges(run)

    def step(k):
        nonlocal state
        state, payload = methods.diana_round(run.p, state, run.spec, run.seed,
                                             run.stepsize, run.theta)
        return state.x, list(map(charges, payload.fired.tolist())), {}
    return step, _no_phi


def _start_bfgs(run: _Run):
    state = methods.bfgs_init(run.p, run.x0)
    charges = [_grad_charge(run.p)] * run.p.n

    def step(k):
        nonlocal state
        state = methods.bfgs_step(run.p, state)
        return state.x, charges, {"bfgs_skipped": state.skipped}
    return step, _no_phi


class _Learner:
    """One curvature-learning run from h(x0) plus all its runtime diagnostics."""

    def __init__(self, run: _Run, bounded: bool, cubic: bool):
        p = run.p
        self.run = run
        self.state = methods.learn_init(
            p, run.x0, p.loss.gamma if bounded else None,
            p.constants().hessian_lipschitz if cubic else None)
        self.server_h = self.state.h.copy()
        self.hull_lo: Optional[Array] = None
        self.hull_hi: Optional[Array] = None
        self.neighborhood = self._neighborhood_radius_sq()
        c = p.constants()
        try:                            # phi's weight on ||h - h*||^2
            scale = p.m * p.n * run.eta * c.nu ** 2 * c.max_row_norm ** 2
            self.phi_weight = 4.0 / (9.0 * scale) if cubic else 1.0 / (3.0 * scale)
        except ArithmeticError:         # see _neighborhood_radius_sq
            self.phi_weight = math.nan
        # keyed by (fired, data vectors shipped); the bounded variants also
        # send their curvature ratio
        index_bits = ceil_log2(p.n * p.m)
        self.charges = functools.cache(lambda fired, vectors: WorkerCharge(
            grad_floats=p.d, compressed=(run.spec, p.m, fired),
            beta_scalars=int(bounded), data_vectors=vectors,
            vector_floats=p.d, index_bits=index_bits))

    def _neighborhood_radius_sq(self) -> float:
        """Squared radius of the theory's local-convergence region. Like phi's
        weight, NaN where its formula divides by 0 (nu = 0, an underflow) or overflows."""
        p = self.run.p
        c = p.constants()
        try:
            if self.state.gamma is None:
                return p.lam ** 2 / (12.0 * c.nu ** 2 * c.max_row_norm ** 6)
            mu = smallest_eigenvalue(self.run.oracles.hessian_star) + p.lam
            return mu ** 2 / (432.0 * p.m * p.n * c.nu ** 2 * c.max_row_norm ** 6)
        except ArithmeticError:
            return math.nan

    def phi(self) -> float:
        o = self.run.oracles
        dist2 = float(np.sum((self.state.x - o.x_star) ** 2))
        h_err = float(np.sum((self.state.h - o.h_star) ** 2))
        return dist2 + self.phi_weight * h_err

    def step(self, k):
        run, p = self.run, self.run.p
        h = self.state.h                   # the coefficients the step's estimate uses
        out = methods.learn_round(p, self.state, run.spec, run.seed, run.eta)
        self.state = out.state

        extras: dict = {"clamped": out.clamped}
        if out.beta is not None:
            extras["beta"] = out.beta

        # server replica mirror, advanced purely from the wire payloads
        self.server_h = methods.apply_coeff_update(
            self.server_h, out.deltas, run.eta, self.state.gamma)
        if not verify_replicas(self.server_h, self.state.h):
            raise ReplicaMismatchError(replica_mismatches(self.server_h, self.state.h))
        extras["replica_ok"] = True        # kept in the trace as the health flag

        # convex-hull tracking of coefficients against visited h(x^t)
        if self.hull_lo is None:
            self.hull_lo = out.h_at_x.copy()
            self.hull_hi = out.h_at_x.copy()
        else:
            np.minimum(self.hull_lo, out.h_at_x, out=self.hull_lo)
            np.maximum(self.hull_hi, out.h_at_x, out=self.hull_hi)
        pad = HULL_EPS * (1.0 + np.abs(self.hull_hi))
        extras["hull_ok"] = bool(
            np.all(self.state.h >= self.hull_lo - pad)
            and np.all(self.state.h <= self.hull_hi + pad))

        if math.isfinite(self.neighborhood):
            dist2 = float(np.sum((self.state.x - run.oracles.x_star) ** 2))
            extras["in_neighborhood"] = dist2 <= self.neighborhood

        if run.opts.diagnostics:
            # the weights whose gram is the estimate minus the data Hessian
            # (nl2, cnl) or the next estimate (nl1); see the module docstring
            gamma = self.state.gamma
            w = (self.state.h if gamma is None
                 else out.beta * (h + 2.0 * gamma) - 2.0 * gamma - out.h_at_x)
            extras["curvature_certificate"] = float(np.min(w))
        extras["rebuild_drift"] = self.state.rebuild_drift

        # Option 1 ships the data vector of every changed coefficient
        vectors = (out.changed.sum(axis=1).tolist() if run.opts.option == 1
                   else [0] * p.n)
        return self.state.x, list(map(self.charges, out.fired.tolist(), vectors)), extras


@dataclass(frozen=True)
class _Method:
    """One row of the method table.

    ``stepsize``, ``theta`` and ``eta`` give a default, as f(p, spec), for
    the RunOptions field of that name; ``eta`` also marks a method that
    learns coefficients, warned when its rate exceeds that theory default.
    A ``bounded`` learner clamps its coefficients to [-gamma, gamma].
    ``monotone`` methods (the cubic step) must not increase the objective.
    """

    start: Callable
    needs_spec: bool = False
    stepsize: Optional[Callable] = None
    theta: Optional[Callable] = None
    eta: Optional[Callable] = None
    bounded: bool = False
    monotone: bool = False


# defaults call through ``methods`` at run time, so a rebinding of a
# methods function (tests, the benchmark's tracer) is seen
def _first_order_stepsize(p, spec):
    return methods.default_first_order_stepsize(p, spec)


def _theory_eta(p, spec):
    return methods.default_eta(spec, p.m)


def _learner(bounded: bool, cubic: bool) -> _Method:
    """A curvature learner's row; the cubic step never increases P."""
    def start(run: _Run):
        learner = _Learner(run, bounded, cubic)
        return learner.step, learner.phi
    return _Method(start, needs_spec=True, eta=_theory_eta, bounded=bounded,
                   monotone=cubic)


_METHODS = {
    "gd": _Method(_stateless(lambda run, x: methods.gd_step(run.p, x, run.stepsize),
                             _grad_charge),
                  stepsize=lambda p, spec: 1.0 / p.grad_lipschitz_bound()),
    "dcgd": _Method(_start_dcgd, needs_spec=True, stepsize=_first_order_stepsize),
    "diana": _Method(_start_diana, needs_spec=True, stepsize=_first_order_stepsize,
                     theta=lambda p, spec: 1.0 / (omega(spec, p.d) + 1.0)),
    "bfgs": _Method(_start_bfgs),
    "newton": _Method(_stateless(
        lambda run, x: methods.newton_step(run.p, x),
        lambda p: WorkerCharge(grad_floats=p.d, raw_sym_floats=p.d * (p.d + 1) // 2))),
    "newton_coeff": _Method(_stateless(
        lambda run, x: methods.newton_step(run.p, x),
        lambda p: WorkerCharge(grad_floats=p.d, coeff_floats=p.m))),
    "ns": _Method(_stateless(lambda run, x: methods.ns_step(run.p, run.oracles, x),
                             _grad_charge)),
    "mn": _Method(_stateless(lambda run, x: methods.mn_step(run.p, run.oracles, x),
                             lambda p: WorkerCharge(grad_floats=p.d, beta_scalars=1))),
    "nl1": _learner(bounded=False, cubic=False),
    "nl2": _learner(bounded=True, cubic=False),
    "cnl": _learner(bounded=True, cubic=True),
}
METHOD_NAMES = tuple(_METHODS)
COMPRESSED_METHODS = tuple(name for name, rec in _METHODS.items() if rec.needs_spec)


def _is_a(value, kind: type) -> bool:
    """Whether value is of the numeric kind; bool, an int subclass, is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _admit(method: str, p: Problem, spec: Optional[CompressorSpec],
           opts: RunOptions) -> _Run:
    """The run of ``method`` on p, without its seed and oracles, once it
    meets every rule the harness holds; it reads no data. ConfigError: an
    unknown method, a missing spec, a spec or rate the method's row does
    not read, an option (an int) or rate (a real) out of range or a bool,
    nl1 at lam <= 0, or cnl with a cubic coefficient M = nu * max_row_norm**3
    that is not finite. InputError: a spec wider than the vectors it
    compresses (a learner's m coefficients, a first-order method's
    gradient) or an x0 that is not d finite real numbers."""
    rec = _METHODS.get(method)
    if rec is None:
        raise ConfigError(f"unknown method {method!r}; choose from {METHOD_NAMES}")
    if rec.needs_spec:
        if spec is None:
            raise ConfigError(f"method {method!r} requires a compressor spec")
        omega(spec, p.m if rec.eta is not None else p.d)    # raises on r > length
    elif spec is not None:
        raise ConfigError(f"method {method!r} takes no compressor")
    if not _is_a(opts.option, numbers.Integral) or opts.option not in _OPTIONS:
        raise ConfigError(f"option must be 1 or 2, not {opts.option!r}")
    for name in ("eta", "stepsize", "theta"):
        value = getattr(opts, name)
        if value is None:
            continue
        if getattr(rec, name) is None:
            raise ConfigError(f"method {method!r} reads no {name}")
        if not (_finite_real(value) and value > 0):
            raise ConfigError(f"{name} must be a finite number > 0, not {value!r}")
    if opts.x0 is None:
        x0 = np.zeros(p.d)
    else:
        x0 = opts.x0
        if not (np.iterable(x0) and all(_is_a(v, numbers.Real) for v in x0)):
            raise InputError(f"x0 is not an array of numbers: {opts.x0!r}")
        if not all(_finite_real(v) for v in x0):    # before the float conversion
            raise InputError("x0 has non-finite entries")
        x0 = np.array(x0, dtype=np.float64)
        if x0.shape != (p.d,):
            raise InputError(f"x0 has shape {x0.shape}, but the problem has d={p.d}")
    if rec.eta is not None and not rec.bounded and p.lam <= 0:
        raise ConfigError("nonnegative curvature learning requires lam > 0")
    if rec.monotone and not math.isfinite(p.constants().hessian_lipschitz):
        raise ConfigError(f"{method}'s cubic coefficient nu * max_row_norm**3 is not finite")

    def default(value, rule):
        return rule(p, spec) if value is None and rule is not None else value

    return _Run(p, spec, opts, default(opts.stepsize, rec.stepsize),
                default(opts.theta, rec.theta), default(opts.eta, rec.eta), x0)


def run_experiment(method: str, p: Problem, spec: Optional[CompressorSpec],
                   budget: Budget, seed: int, oracles: Oracles,
                   opts: Optional[RunOptions] = None,
                   config_echo: Optional[dict] = None) -> Trace:
    """Run one method under a budget; returns the full convergence trace.

    Stops at the first satisfied budget condition, checked before each
    round, so ``max_iters=0`` yields a single initial row. Gaps and distances
    are taken against ``oracles``, ``reference_optimum(p)``.
    """
    opts = opts or RunOptions()
    run = _admit(method, p, spec, opts)._replace(seed=seed, oracles=oracles)
    rec = _METHODS[method]
    if (rec.eta is not None and opts.eta is not None
            and opts.eta > rec.eta(p, spec) + 1e-15):
        warnings.warn(f"learning rate {opts.eta:.4g} exceeds 1/(omega+1); "
                      "convergence guarantees do not apply", stacklevel=2)
    step, phi = rec.start(run)
    ledger = CommLedger()

    def metrics(x: Array, extras: dict, wall_ms: float, iteration: int) -> TraceRow:
        value, grad = p.value(x), p.grad(x)
        return TraceRow(
            iteration=iteration,
            gap=value - oracles.value_star,
            grad_norm=float(np.linalg.norm(grad)),
            bits_up_cum=ledger.up_cum,
            bits_down_cum=ledger.down_cum,
            phi=phi(),
            wall_ms=wall_ms,
            extras={"value": value, "dist": oracles.distance(x), **extras},
        )

    rows = [metrics(run.x0, {}, math.nan, 0)]
    k = 0
    while True:
        if k >= budget.max_iters:
            break
        if budget.target_gap is not None and rows[-1].gap <= budget.target_gap:
            break
        if budget.bit_budget is not None and ledger.up_cum >= budget.bit_budget:
            break
        start = time.perf_counter() if opts.timing else None
        x, charges, extras = step(k)
        wall = (time.perf_counter() - start) * 1e3 if opts.timing else math.nan
        charge_round(ledger, k, charges, broadcast_floats=p.d)
        k += 1
        row = metrics(x, extras, wall, k)
        if rec.monotone:
            prev = rows[-1].extras["value"]
            row.extras["decrease_ok"] = row.extras["value"] <= prev + 1e-12
            if row.extras["value"] > prev + 1e-9 * (1.0 + abs(prev)):
                raise NumericalError(
                    f"{method} step increased the objective at round {k}: "
                    f"{prev!r} -> {row.extras['value']!r}")
        rows.append(row)

    return Trace(rows=rows, config=config_echo or {"method": method, "seed": seed},
                 ledger=ledger)
