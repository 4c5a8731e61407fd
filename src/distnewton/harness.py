"""Lockstep parameter-server simulation with exact communication accounting.

One global round = every worker produces its messages, then the server
aggregates in fixed worker order, steps the iterate, and broadcasts it.
The ledger charges each payload with the closed-form bit costs (32-bit
scalars by convention) and keeps the full payload log so cumulative totals
can be re-derived independently.

Traces are deterministic given (config, seed); wall-clock timing is only
recorded when explicitly enabled, because measured times can never be
byte-reproducible.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import methods
from .compressors import CompressorSpec, bit_cost, ceil_log2, omega, SCALAR_BITS
from .errors import ConfigError, NumericalError, ReplicaMismatchError
from .linalg import SymMatrix, smallest_eigenvalue
from .methods import Oracles
from .problem import Problem

Array = np.ndarray

METHOD_NAMES = ("gd", "dcgd", "diana", "bfgs", "newton", "newton_coeff",
                "ns", "mn", "nl1", "nl2", "cnl")
LEARNING_METHODS = ("nl1", "nl2", "cnl")
ORACLE_METHODS = ("ns", "mn")
COMPRESSED_METHODS = ("dcgd", "diana", "nl1", "nl2", "cnl")

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
    diagnostics: bool = True             # per-round eig checks, hull tracking
    timing: bool = False                 # measured wall_ms breaks byte-reproducibility


class _DriverBase:
    needs_oracles = False

    def __init__(self, p: Problem, spec, seed: int, oracles, opts: RunOptions):
        self.p = p
        self.spec = spec
        self.seed = seed
        self.oracles = oracles
        self.opts = opts
        self.x = opts.x0.copy() if opts.x0 is not None else np.zeros(p.d)

    def worker_h(self):
        return None

    def phi(self) -> float:
        return math.nan

    def round(self, k: int) -> tuple[list[WorkerCharge], dict]:
        raise NotImplementedError


class _PlainGradientDriver(_DriverBase):
    """Methods whose upstream payload is one uncompressed local gradient."""

    def __init__(self, p, spec, seed, oracles, opts, step_fn, extra_beta=0):
        super().__init__(p, spec, seed, oracles, opts)
        self._step_fn = step_fn
        self._extra_beta = extra_beta

    def round(self, k):
        self.x = self._step_fn(self.x)
        charge = WorkerCharge(grad_floats=self.p.d, beta_scalars=self._extra_beta)
        return [charge] * self.p.n, {}


class _NewtonBaselineDriver(_DriverBase):
    """Exact Newton iterates, charged as one of the two naive wire formats."""

    def __init__(self, p, spec, seed, oracles, opts, coefficient_form: bool):
        super().__init__(p, spec, seed, oracles, opts)
        self._coefficient_form = coefficient_form

    def round(self, k):
        self.x = methods.newton_step(self.p, self.x)
        if self._coefficient_form:
            charge = WorkerCharge(grad_floats=self.p.d, coeff_floats=self.p.m)
        else:
            charge = WorkerCharge(grad_floats=self.p.d,
                                  raw_sym_floats=self.p.d * (self.p.d + 1) // 2)
        return [charge] * self.p.n, {}


class _DcgdDriver(_DriverBase):
    def round(self, k):
        self.x, payload = methods.dcgd_round(
            self.p, self.x, self.spec, self.seed, k, self.opts.stepsize)
        charges = [WorkerCharge(compressed=(self.spec, self.p.d, fired))
                   for fired in payload.fired.tolist()]
        return charges, {}


class _DianaDriver(_DriverBase):
    def __init__(self, p, spec, seed, oracles, opts):
        super().__init__(p, spec, seed, oracles, opts)
        self.state = methods.diana_init(p, self.x)

    def round(self, k):
        self.state, payload = methods.diana_round(
            self.p, self.state, self.spec, self.seed,
            self.opts.stepsize, self.opts.theta)
        self.x = self.state.x
        charges = [WorkerCharge(compressed=(self.spec, self.p.d, fired))
                   for fired in payload.fired.tolist()]
        return charges, {}


class _BfgsDriver(_DriverBase):
    def __init__(self, p, spec, seed, oracles, opts):
        super().__init__(p, spec, seed, oracles, opts)
        self.state = methods.bfgs_init(p, self.x)

    def round(self, k):
        self.state = methods.bfgs_step(self.p, self.state)
        self.x = self.state.x
        return ([WorkerCharge(grad_floats=self.p.d)] * self.p.n,
                {"bfgs_skipped": self.state.skipped})


class _LearnDriver(_DriverBase):
    """Curvature-learning methods plus all their runtime diagnostics."""

    def __init__(self, p, spec, seed, oracles, opts, variant: str):
        super().__init__(p, spec, seed, oracles, opts)
        self.variant = variant
        if spec is None:
            raise ConfigError(f"{variant} requires a compressor spec")
        self.eta = opts.eta if opts.eta is not None else methods.default_eta(spec, p.m)
        if self.eta > methods.default_eta(spec, p.m) + 1e-15:
            warnings.warn(
                f"learning rate {self.eta:.4g} exceeds 1/(omega+1); "
                "convergence guarantees do not apply", stacklevel=2)
        if opts.h0 == "h_at_x0":
            h0 = p.h_all(self.x)
        elif opts.h0 == "zeros":
            h0 = np.zeros((p.n, p.m))
        else:
            raise ConfigError(f"unknown h0 policy {opts.h0!r}")

        if variant == "nl1":
            self.state = methods.nl1_init(p, self.x, h0)
            self.rule = "nonneg"
            self.gamma = 0.0
        else:
            self.gamma = opts.gamma if opts.gamma is not None else p.loss.gamma
            init = methods.nl2_init if variant == "nl2" else methods.cnl_init
            self.state = init(p, self.x, h0, self.gamma)
            self.rule = "clamp"
        self.cubic_coeff = (p.constants().hessian_lipschitz
                            if variant == "cnl" else None)
        self.server_h = self.state.h.copy()
        self.hull_lo: Optional[Array] = None
        self.hull_hi: Optional[Array] = None
        self.neighborhood = self._neighborhood_radius_sq()

    def _neighborhood_radius_sq(self) -> float:
        """Squared radius of the local-convergence region claimed by the theory."""
        c = self.p.constants()
        if c.nu == 0.0:
            return math.inf
        if self.variant == "nl1":
            return self.p.lam ** 2 / (12.0 * c.nu ** 2 * c.max_row_norm ** 6)
        if self.oracles is None or self.oracles.hessian_star is None:
            return math.nan
        mu = smallest_eigenvalue(self.oracles.hessian_star) + self.p.lam
        return mu ** 2 / (432.0 * self.p.m * self.p.n
                          * c.nu ** 2 * c.max_row_norm ** 6)

    def worker_h(self):
        return self.state.h

    def phi(self) -> float:
        o = self.oracles
        c = self.p.constants()
        if o is None or o.h_star is None or c.nu == 0.0:
            return math.nan
        dist2 = float(np.sum((self.x - o.x_star) ** 2))
        h_err = float(np.sum((self.state.h - o.h_star) ** 2))
        scale = self.p.m * self.p.n * self.eta * c.nu ** 2 * c.max_row_norm ** 2
        weight = (4.0 / (9.0 * scale)) if self.variant == "cnl" else 1.0 / (3.0 * scale)
        return dist2 + weight * h_err

    def _domination_margin(self, h_est: SymMatrix, h_at_x: Array) -> float:
        # lam * I sits on both sides and cancels; h_at_x are the true
        # coefficients at the round's iterate, so their gram is the data
        # Hessian there
        gap = SymMatrix(h_est.entries - self.p.data_gram(h_at_x).entries)
        return smallest_eigenvalue(gap)

    def round(self, k):
        if self.variant == "nl1":
            out = methods.nl1_round(self.p, self.state, self.spec, self.seed, self.eta)
        elif self.variant == "nl2":
            out = methods.nl2_round(self.p, self.state, self.spec, self.seed, self.eta)
        else:
            out = methods.cnl_round(self.p, self.state, self.spec, self.seed,
                                    self.eta, self.cubic_coeff)
        self.state = out.state
        self.x = out.state.x

        extras: dict = {"clamped": out.clamped}
        if out.beta is not None:
            extras["beta"] = out.beta

        # server replica mirror, advanced purely from the wire messages
        deltas = np.stack([msg.delta for msg in out.messages])
        self.server_h = methods.apply_coeff_update(
            self.server_h, deltas, self.eta, self.rule, self.gamma)
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

        if self.oracles is not None and math.isfinite(self.neighborhood):
            dist2 = float(np.sum((self.x - self.oracles.x_star) ** 2))
            extras["in_neighborhood"] = dist2 <= self.neighborhood

        if self.opts.diagnostics:
            if self.variant == "nl1":
                extras["min_eig_estimate"] = smallest_eigenvalue(self.state.h_matrix)
            else:
                extras["domination_margin"] = self._domination_margin(
                    out.h_est, out.h_at_x)
        extras["rebuild_drift"] = self.state.rebuild_drift

        charges = []
        for msg in out.messages:
            charges.append(WorkerCharge(
                grad_floats=self.p.d,
                compressed=(self.spec, self.p.m, msg.fired),
                beta_scalars=0 if msg.beta is None else 1,
                data_vectors=len(msg.changed) if self.opts.option == 1 else 0,
                vector_floats=self.p.d,
                index_bits=ceil_log2(self.p.n * self.p.m),
            ))
        return charges, extras


def _build_driver(method: str, p: Problem, spec, seed, oracles, opts) -> _DriverBase:
    if method == "gd":
        step = opts.stepsize
        return _PlainGradientDriver(p, spec, seed, oracles, opts,
                                    lambda x: methods.gd_step(p, x, step))
    if method == "bfgs":
        return _BfgsDriver(p, spec, seed, oracles, opts)
    if method == "newton":
        return _NewtonBaselineDriver(p, spec, seed, oracles, opts, coefficient_form=False)
    if method == "newton_coeff":
        return _NewtonBaselineDriver(p, spec, seed, oracles, opts, coefficient_form=True)
    if method == "ns":
        return _PlainGradientDriver(p, spec, seed, oracles, opts,
                                    lambda x: methods.ns_step(p, oracles, x))
    if method == "mn":
        return _PlainGradientDriver(p, spec, seed, oracles, opts,
                                    lambda x: methods.mn_step(p, oracles, x),
                                    extra_beta=1)
    if method == "dcgd":
        return _DcgdDriver(p, spec, seed, oracles, opts)
    if method == "diana":
        return _DianaDriver(p, spec, seed, oracles, opts)
    if method in LEARNING_METHODS:
        return _LearnDriver(p, spec, seed, oracles, opts, variant=method)
    raise ConfigError(f"unknown method {method!r}; choose from {METHOD_NAMES}")


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
    if method not in METHOD_NAMES:
        raise ConfigError(f"unknown method {method!r}; choose from {METHOD_NAMES}")
    opts = opts or RunOptions()
    if method in ORACLE_METHODS and oracles is None:
        raise ConfigError(f"method {method!r} requires precomputed oracles")
    if budget.target_gap is not None and oracles is None:
        raise ConfigError("a target gap budget requires oracles for gap reporting")
    if method in COMPRESSED_METHODS and spec is None:
        raise ConfigError(f"method {method!r} requires a compressor spec")
    if spec is not None and method in ("dcgd", "diana") and opts.stepsize is None:
        opts = RunOptions(**{**opts.__dict__,
                             "stepsize": methods.default_first_order_stepsize(p, spec)})
    if method == "gd" and opts.stepsize is None:
        opts = RunOptions(**{**opts.__dict__,
                             "stepsize": 1.0 / p.grad_lipschitz_bound()})
    if method == "diana" and opts.theta is None:
        opts = RunOptions(**{**opts.__dict__,
                             "theta": 1.0 / (omega(spec, p.d) + 1.0)})

    driver = _build_driver(method, p, spec, seed, oracles, opts)
    ledger = CommLedger()

    def metrics(extras: dict, wall_ms: float, iteration: int) -> TraceRow:
        x = driver.x
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
            phi=driver.phi(),
            wall_ms=wall_ms,
            extras=row_extras,
        )

    rows = [metrics({}, math.nan, 0)]
    k = 0
    while True:
        if k >= budget.max_iters:
            break
        if budget.target_gap is not None and rows[-1].gap <= budget.target_gap:
            break
        if budget.bit_budget is not None and ledger.up_cum >= budget.bit_budget:
            break
        start = time.perf_counter() if opts.timing else None
        charges, extras = driver.round(k)
        wall = (time.perf_counter() - start) * 1e3 if opts.timing else math.nan
        charge_round(ledger, k, charges, broadcast_floats=p.d)
        k += 1
        row = metrics(extras, wall, k)
        if method == "cnl":
            prev = rows[-1].extras["value"]
            row.extras["decrease_ok"] = row.extras["value"] <= prev + 1e-12
            if row.extras["value"] > prev + 1e-9 * (1.0 + abs(prev)):
                raise NumericalError(
                    f"cubic-model step increased the objective at round {k}: "
                    f"{prev!r} -> {row.extras['value']!r}")
        rows.append(row)

    return Trace(rows=rows, config=config_echo or {"method": method, "seed": seed},
                 ledger=ledger)
