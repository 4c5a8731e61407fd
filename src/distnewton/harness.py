"""Lockstep parameter-server simulation with exact communication accounting.

One global round = every worker produces its messages, then the server
aggregates in fixed worker order, steps the iterate, and broadcasts it.
The ledger charges each payload with the closed-form bit costs (32-bit
scalars by convention) and keeps the full payload log so cumulative totals
can be re-derived independently.

Every method is one row of the private table ``_METHODS``: whether it needs
a compressor spec or oracles, its default stepsize, shift rate and learning
rate, whether the objective must never increase, and a start function
returning the per-round step. ``run_experiment`` reads everything through
that row. The three learners (nl1, nl2, cnl) share one start function,
which also mirrors the server's coefficient replicas and records the
hull, neighborhood and curvature diagnostics.

The learners' eigen diagnostics (``min_eig_estimate`` for nl1,
``domination_margin`` for nl2 and cnl) never feed back into the iterate,
so each round's job runs on one background thread, which can use a second
core, while the next round steps. ``run_experiment`` puts each value in
its row once the next round's step returns, and waits for the last job
before it returns or raises. The job runs the same kernels on the same
arrays, so every trace byte is what computing it inline would give, and
``wall_ms`` times the round's critical path without the diagnostics.

Traces are deterministic given (config, seed); wall-clock timing is only
recorded when explicitly enabled, because measured times can never be
byte-reproducible.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import methods
from .compressors import CompressorSpec, bit_cost, ceil_log2, omega, SCALAR_BITS
from .errors import ConfigError, InputError, NumericalError, ReplicaMismatchError
from .linalg import _weighted_gram, smallest_eigenvalue
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


def charge_round(ledger: CommLedger, iteration: int,
                 charges: list[WorkerCharge], broadcast_floats: int) -> RoundCharge:
    per_worker = tuple(c.bits() for c in charges)
    rec = RoundCharge(iteration=iteration, per_worker_bits=per_worker,
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
        return [r.extras.get("dist", math.nan) for r in self.rows]


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


@dataclass
class RunOptions:
    eta: Optional[float] = None          # learning rate; default 1/(omega+1)
    gamma: Optional[float] = None        # clamp bound; default loss gamma
    stepsize: Optional[float] = None     # first-order stepsize
    theta: Optional[float] = None        # shift learning rate (diana)
    h0: str = "h_at_x0"                  # "h_at_x0" | "zeros"
    x0: Optional[Array] = None
    option: int = 1                      # 1: ship data vectors; 2: server has data
    diagnostics: bool = True             # per-round eigenvalue diagnostics only; hull,
                                         # neighborhood and replica checks run regardless
    timing: bool = False                 # measured wall_ms breaks byte-reproducibility


# ---------------------------------------------------------------------------
# Methods: one table row each
# ---------------------------------------------------------------------------

class _Run(NamedTuple):
    """One run's inputs; stepsize, theta and eta have the method's defaults."""

    p: Problem
    spec: Optional[CompressorSpec]
    seed: int
    oracles: Optional[Oracles]
    opts: RunOptions
    stepsize: Optional[float]
    theta: Optional[float]
    eta: Optional[float]


# A method's start function takes (run, x0) and returns (step, phi): step(k)
# runs round k and returns (x^{k+1}, one WorkerCharge per worker, trace
# extras); phi() is the Lyapunov function at the current state.

def _no_phi() -> float:
    return math.nan


def _grad_charge(p: Problem) -> WorkerCharge:
    return WorkerCharge(grad_floats=p.d)


def _stateless(update, charge):
    """Start function of a step x -> update(run, x); every worker sends charge(p)."""
    def start(run: _Run, x: Array):
        charges = [charge(run.p)] * run.p.n

        def step(k):
            nonlocal x
            x = update(run, x)
            return x, charges, {}
        return step, _no_phi
    return start


def _compressed_charges(run: _Run, fired: Array) -> list[WorkerCharge]:
    return [WorkerCharge(compressed=(run.spec, run.p.d, f)) for f in fired.tolist()]


def _start_dcgd(run: _Run, x: Array):
    def step(k):
        nonlocal x
        x, payload = methods.dcgd_round(run.p, x, run.spec, run.seed, k, run.stepsize)
        return x, _compressed_charges(run, payload.fired), {}
    return step, _no_phi


def _start_diana(run: _Run, x: Array):
    state = methods.diana_init(run.p, x)

    def step(k):
        nonlocal state
        state, payload = methods.diana_round(run.p, state, run.spec, run.seed,
                                             run.stepsize, run.theta)
        return state.x, _compressed_charges(run, payload.fired), {}
    return step, _no_phi


def _start_bfgs(run: _Run, x: Array):
    state = methods.bfgs_init(run.p, x)
    charges = [_grad_charge(run.p)] * run.p.n

    def step(k):
        nonlocal state
        state = methods.bfgs_step(run.p, state)
        return state.x, charges, {"bfgs_skipped": state.skipped}
    return step, _no_phi


# The eigen diagnostics' one background thread. The executor starts it on the
# first submit, so a run with diagnostics off never starts it. A job may take
# only arrays that are never mutated afterwards, and it must call private
# kernels: the problem's evaluation slot is not thread-safe, and the
# benchmark's tracer keeps one span stack.
_DIAGNOSTICS = ThreadPoolExecutor(max_workers=1, thread_name_prefix="distnewton-diagnostics")


def _min_eigenvalue(a: Array) -> float:
    return float(np.linalg.eigvalsh(a)[0])


def _domination_margin(h_est: Array, rows: Array, h_at_x: Array, scale: float) -> float:
    # lam * I sits on both sides and cancels; h_at_x are the true
    # coefficients at the round's iterate, so their gram is the data Hessian
    # there (``Problem.data_gram``'s arithmetic)
    return _min_eigenvalue(h_est - _weighted_gram(rows, h_at_x.reshape(-1), scale))


def _settle(extras: dict) -> None:
    """Replace each diagnostics future in a round's extras by its value."""
    for key, value in extras.items():
        if isinstance(value, Future):
            extras[key] = value.result()


class _Learner:
    """One curvature-learning run plus all its runtime diagnostics."""

    def __init__(self, run: _Run, x: Array, bounded: bool, cubic: bool):
        p, opts = run.p, run.opts
        self.run = run
        if opts.h0 == "h_at_x0":
            h0 = p.h_all(x)
        elif opts.h0 == "zeros":
            h0 = np.zeros((p.n, p.m))
        else:
            raise ConfigError(f"unknown h0 policy {opts.h0!r}")
        gamma = None
        if bounded:
            gamma = opts.gamma if opts.gamma is not None else p.loss.gamma
        self.state = methods.learn_init(
            p, x, h0, gamma, p.constants().hessian_lipschitz if cubic else None)
        self.server_h = self.state.h.copy()
        self.hull_lo: Optional[Array] = None
        self.hull_hi: Optional[Array] = None
        self.neighborhood = self._neighborhood_radius_sq()

    def _neighborhood_radius_sq(self) -> float:
        """Squared radius of the local-convergence region claimed by the theory."""
        p, oracles = self.run.p, self.run.oracles
        c = p.constants()
        if c.nu == 0.0:
            return math.inf
        if self.state.gamma is None:
            return p.lam ** 2 / (12.0 * c.nu ** 2 * c.max_row_norm ** 6)
        if oracles is None or oracles.hessian_star is None:
            return math.nan
        mu = smallest_eigenvalue(oracles.hessian_star) + p.lam
        return mu ** 2 / (432.0 * p.m * p.n * c.nu ** 2 * c.max_row_norm ** 6)

    def phi(self) -> float:
        p, o = self.run.p, self.run.oracles
        c = p.constants()
        if o is None or o.h_star is None or c.nu == 0.0:
            return math.nan
        dist2 = float(np.sum((self.state.x - o.x_star) ** 2))
        h_err = float(np.sum((self.state.h - o.h_star) ** 2))
        scale = p.m * p.n * self.run.eta * c.nu ** 2 * c.max_row_norm ** 2
        cubic = self.state.cubic_coeff is not None
        return dist2 + (4.0 / (9.0 * scale) if cubic else 1.0 / (3.0 * scale)) * h_err

    def step(self, k):
        run, p = self.run, self.run.p
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

        if run.oracles is not None and math.isfinite(self.neighborhood):
            dist2 = float(np.sum((self.state.x - run.oracles.x_star) ** 2))
            extras["in_neighborhood"] = dist2 <= self.neighborhood

        if run.opts.diagnostics:
            if out.betas is None:
                extras["min_eig_estimate"] = _DIAGNOSTICS.submit(
                    _min_eigenvalue, self.state.h_matrix)
            else:
                extras["domination_margin"] = _DIAGNOSTICS.submit(
                    _domination_margin, out.h_est, p.stacked_rows, out.h_at_x,
                    1.0 / (p.n * p.m))
        extras["rebuild_drift"] = self.state.rebuild_drift

        # Option 1 ships the data vector of every changed coefficient
        vectors = (out.changed.sum(axis=1).tolist() if run.opts.option == 1
                   else [0] * p.n)
        betas = 0 if out.betas is None else 1
        index_bits = ceil_log2(p.n * p.m)
        charges = [WorkerCharge(grad_floats=p.d, compressed=(run.spec, p.m, fired),
                                beta_scalars=betas, data_vectors=v,
                                vector_floats=p.d, index_bits=index_bits)
                   for fired, v in zip(out.fired.tolist(), vectors)]
        return self.state.x, charges, extras


def _learner(bounded: bool, cubic: bool):
    def start(run: _Run, x: Array):
        learner = _Learner(run, x, bounded, cubic)
        return learner.step, learner.phi
    return start


@dataclass(frozen=True)
class _Method:
    """One row of the method table.

    ``stepsize``, ``theta`` and ``eta`` give a default, as f(p, spec), for
    the RunOptions field of that name; ``eta`` also marks a method that
    learns coefficients, warned when its rate exceeds that theory default.
    ``monotone`` methods must not increase the objective.
    """

    start: Callable
    needs_spec: bool = False
    needs_oracles: bool = False
    stepsize: Optional[Callable] = None
    theta: Optional[Callable] = None
    eta: Optional[Callable] = None
    monotone: bool = False


# defaults call through ``methods`` at run time, so a rebinding of a
# methods function (tests, the benchmark's tracer) is seen
def _first_order_stepsize(p, spec):
    return methods.default_first_order_stepsize(p, spec)


def _theory_eta(p, spec):
    return methods.default_eta(spec, p.m)


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
                             _grad_charge), needs_oracles=True),
    "mn": _Method(_stateless(lambda run, x: methods.mn_step(run.p, run.oracles, x),
                             lambda p: WorkerCharge(grad_floats=p.d, beta_scalars=1)),
                  needs_oracles=True),
    "nl1": _Method(_learner(bounded=False, cubic=False), needs_spec=True,
                   eta=_theory_eta),
    "nl2": _Method(_learner(bounded=True, cubic=False), needs_spec=True,
                   eta=_theory_eta),
    "cnl": _Method(_learner(bounded=True, cubic=True), needs_spec=True,
                   eta=_theory_eta, monotone=True),
}
METHOD_NAMES = tuple(_METHODS)
COMPRESSED_METHODS = tuple(name for name, rec in _METHODS.items() if rec.needs_spec)


def run_experiment(method: str, p: Problem, spec: Optional[CompressorSpec],
                   budget: Budget, seed: int,
                   oracles: Optional[Oracles] = None,
                   opts: Optional[RunOptions] = None,
                   config_echo: Optional[dict] = None) -> Trace:
    """Run one method under a budget; returns the full convergence trace.

    Stops at the first satisfied budget condition, checked before each
    round, so ``max_iters=0`` yields a single initial row. The gap column
    needs oracles; methods that reuse optimum curvature require them.
    """
    rec = _METHODS.get(method)
    if rec is None:
        raise ConfigError(f"unknown method {method!r}; choose from {METHOD_NAMES}")
    opts = opts or RunOptions()
    if rec.needs_oracles and oracles is None:
        raise ConfigError(f"method {method!r} requires precomputed oracles")
    if budget.target_gap is not None and oracles is None:
        raise ConfigError("a target gap budget requires oracles for gap reporting")
    if rec.needs_spec and spec is None:
        raise ConfigError(f"method {method!r} requires a compressor spec")
    if opts.option not in (1, 2):
        raise ConfigError(f"option must be 1 or 2, not {opts.option!r}")
    try:
        x0 = np.zeros(p.d) if opts.x0 is None else np.array(opts.x0, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"x0 is not an array of numbers: {opts.x0!r}") from None
    if x0.shape != (p.d,):
        raise InputError(f"x0 has shape {x0.shape}, but the problem has d={p.d}")
    if not np.all(np.isfinite(x0)):
        raise InputError("x0 has non-finite entries")

    def default(value, rule):
        return rule(p, spec) if value is None and rule is not None else value

    eta = opts.eta
    if rec.eta is not None:
        theory = rec.eta(p, spec)
        if eta is None:
            eta = theory
        elif eta > theory + 1e-15:
            warnings.warn(f"learning rate {eta:.4g} exceeds 1/(omega+1); "
                          "convergence guarantees do not apply", stacklevel=2)
    run = _Run(p, spec, seed, oracles, opts, default(opts.stepsize, rec.stepsize),
               default(opts.theta, rec.theta), eta)
    step, phi = rec.start(run, x0)
    ledger = CommLedger()

    def metrics(x: Array, extras: dict, wall_ms: float, iteration: int) -> TraceRow:
        value, grad = p.value_and_grad(x)
        gap = value - oracles.value_star if oracles is not None else math.nan
        row_extras = {"value": value}
        if oracles is not None:
            row_extras["dist"] = oracles.distance(x)
        row_extras.update(extras)
        return TraceRow(
            iteration=iteration,
            gap=gap,
            grad_norm=float(np.linalg.norm(grad)),
            bits_up_cum=ledger.up_cum,
            bits_down_cum=ledger.down_cum,
            phi=phi(),
            wall_ms=wall_ms,
            extras=row_extras,
        )

    rows = [metrics(x0, {}, math.nan, 0)]
    extras: dict = {}
    k = 0
    try:
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
            # the previous round's diagnostics ran beside this round's step
            _settle(rows[-1].extras)
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
    finally:
        # no job outlives the run: the last step's extras hold its future
        # even when the run raised before that round's row was appended
        _settle(extras)
        _settle(rows[-1].extras)

    return Trace(rows=rows, config=config_echo or {"method": method, "seed": seed},
                 ledger=ledger)
