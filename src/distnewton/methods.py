"""Optimization methods on the simulated parameter server.

Stateless Newton-type steps (exact Newton, fixed-curvature and max-scaled
variants), one compressed curvature learner, and the first-order and
quasi-Newton baselines. The learner (``learn_init``/``learn_round``) is
NEWTON-LEARN with three choices: the projection (nonnegative cone, or clamp
to [-gamma, gamma]), the estimate (the plain coefficient gram, or its
shift-dominated scaling) and the step (SPD solve, or cubic model). A bound
gamma picks the clamp and the dominated estimate, and a cubic coefficient
picks the cubic step: nl1 has neither, nl2 has gamma, cnl has both.

Round functions are pure: they consume a state and the round's randomness
identity, ``RngStream(seed, iteration)``, and return the successor state
together with what the workers put on the wire, as one (n, ...) array per
payload component. A compressed round makes one compress call over all n
workers' vectors; row i of the round's draw block is worker i's randomness,
which a real worker derives alone by advancing the round stream (see
rngs.RngStream). The harness turns those arrays into ledger charges and
server-side replica updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .compressors import CompressedPayload, CompressorSpec, compress_with_info
from .errors import ConfigError, InputError, NumericalError
from .linalg import SymMatrix, solve_spd, sym_eig
from .problem import Problem
from .rngs import RngStream

Array = np.ndarray

# Incremental curvature matrices are rebuilt from scratch this often to
# stop rank-one rounding drift from accumulating.
REBUILD_PERIOD = 200


# ---------------------------------------------------------------------------
# Reference optimum and the steps that rely on it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Oracles:
    """Quantities at the reference optimum used by oracle-based methods.

    ``h_star`` holds the per-sample curvature coefficients at the optimum
    as an (n, m) array; ``hessian_star`` is the data part of the Hessian
    there (regularizer excluded).
    """

    x_star: Array
    value_star: float
    h_star: Optional[Array] = None
    hessian_star: Optional[SymMatrix] = None
    grad_norm: float = math.nan

    def distance(self, x: Array) -> float:
        return float(np.linalg.norm(x - self.x_star))


def newton_step(p: Problem, x: Array) -> Array:
    """One exact Newton step; raises SingularMatrixError off the PD cone."""
    return x - solve_spd(p.hessian(x), p.grad(x))


def reference_optimum(p: Problem, newton_iters: int = 20) -> Oracles:
    """Optimum proxy: the iterate after ``newton_iters`` Newton steps from 0."""
    x = np.zeros(p.d)
    for _ in range(newton_iters):
        x = newton_step(p, x)
    h_star = p.h_all(x)
    return Oracles(
        x_star=x,
        value_star=p.value(x),
        h_star=h_star,
        hessian_star=p.data_gram(h_star),
        grad_norm=float(np.linalg.norm(p.grad(x))),
    )


def ns_step(p: Problem, oracles: Oracles, x: Array) -> Array:
    """Newton-like step with the curvature matrix frozen at the optimum."""
    if oracles.hessian_star is None:
        raise ConfigError("fixed-curvature step needs the optimum Hessian oracle")
    h_reg = oracles.hessian_star.add_diagonal(p.lam)
    return x - solve_spd(h_reg, p.grad(x))


def ns_rate_constant(p: Problem, mu_star: float) -> float:
    """Quadratic-rate constant nu/(2(mu*+lam)) * mean ||a||^3 of the frozen-curvature step."""
    c = p.constants()
    cube_mean = float(np.mean(np.linalg.norm(p.stacked_rows, axis=1) ** 3))
    return c.nu / (2.0 * (mu_star + p.lam)) * cube_mean


def mn_step(p: Problem, oracles: Oracles, x: Array) -> Array:
    """Newton-like step scaling optimum curvature by per-worker max ratios.

    Each worker reports beta_i = max_j h_ij(x)/h_ij(x*); the server scales
    its stored per-worker optimum curvature by beta_i before stepping.
    Requires strictly positive optimum coefficients.
    """
    if oracles.h_star is None:
        raise ConfigError("max-scaled step needs optimum coefficients")
    h_star = oracles.h_star
    if np.min(h_star) <= 0.0:
        raise ConfigError("max-scaled step needs strictly positive optimum coefficients")
    h_cur = p.h_all(x)
    betas = np.max(h_cur / h_star, axis=1)                     # (n,)
    weights = betas[:, None] * h_star                          # (n, m)
    h_est = p.data_gram(weights)
    return x - solve_spd(h_est.add_diagonal(p.lam), p.grad(x))


def mn_rate_constant(p: Problem, oracles: Oracles) -> float:
    """Quadratic-rate bound of the max-scaled step (positive-curvature case)."""
    c = p.constants()
    h_star = oracles.h_star
    norms = np.linalg.norm(p.stacked_rows, axis=1)
    mu_star = float(np.min(h_star))
    term = norms ** 3 * (h_star.reshape(-1) * c.max_row_norm / (mu_star * norms) + 1.0)
    return c.nu / (2.0 * p.lam) * float(np.mean(term))


# ---------------------------------------------------------------------------
# Cubically regularized model step
# ---------------------------------------------------------------------------

CUBIC_RESIDUAL_RTOL = 1e-9
CUBIC_RHO_RTOL = 1e-12
_BISECT_MAX = 200


def solve_cubic_model(h_reg: SymMatrix, g: Array, m_cubic: float) -> Array:
    """Global minimizer of <g,s> + 0.5 s.T H s + (m_cubic/6) ||s||^3.

    Diagonalize H, then the stationarity condition reduces to a scalar
    equation in rho = ||s||:

        sum_i w_i^2 / (lam_i + m_cubic*rho/2)^2 = rho^2,  w = U g.

    The left side is strictly decreasing in rho past the largest pole, so
    bisection brackets the root; a short Newton polish then drives the
    optimality residual to machine level.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape[0] != h_reg.dim:
        raise InputError("gradient length does not match matrix dimension")
    if m_cubic < 0:
        raise InputError("cubic coefficient must be nonnegative")
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return np.zeros_like(g)
    if m_cubic == 0.0:
        return -solve_spd(h_reg, g)

    eig = sym_eig(h_reg)
    lam = eig.eigenvalues
    w = eig.eigenvectors @ g
    lam_min = float(lam[0])

    def value(rho: float) -> float:
        denom = lam + 0.5 * m_cubic * rho
        return float(np.sum((w / denom) ** 2) - rho * rho)

    def slope(rho: float) -> float:
        denom = lam + 0.5 * m_cubic * rho
        return float(-m_cubic * np.sum(w ** 2 / denom ** 3) - 2.0 * rho)

    if lam_min > 0:
        lo = 0.0
        hi = 2.0 * (gnorm / lam_min + math.sqrt(2.0 * gnorm / m_cubic))
    else:
        # stay strictly right of the pole of the smallest eigenvalue
        pole = -2.0 * lam_min / m_cubic
        lo = pole * (1.0 + 1e-12) + 1e-300
        hi = pole + 2.0 * (math.sqrt(2.0 * gnorm / m_cubic) + 2.0 * abs(lam_min) / m_cubic)
    if value(lo) <= 0.0:
        raise NumericalError(
            f"cubic model root not bracketed from below (value(lo)={value(lo):.3e}); "
            "gradient has no component on the smallest eigenspace")
    doublings = 0
    while value(hi) > 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > _BISECT_MAX:
            raise NumericalError("cubic model root not bracketed within rho_max")

    for _ in range(_BISECT_MAX):
        if hi - lo <= CUBIC_RHO_RTOL * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        if value(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    for _ in range(4):
        step = value(rho) / slope(rho)
        nxt = rho - step
        if not lo <= nxt <= hi:
            break
        rho = nxt

    denom = lam + 0.5 * m_cubic * rho
    s = -(eig.eigenvectors.T @ (w / denom))
    residual = float(np.linalg.norm(
        g + h_reg.entries @ s + 0.5 * m_cubic * np.linalg.norm(s) * s))
    if residual > CUBIC_RESIDUAL_RTOL * (gnorm + 1.0):
        raise NumericalError(
            f"cubic model solve did not converge: residual {residual:.3e} "
            f"exceeds {CUBIC_RESIDUAL_RTOL:.1e}*(||g||+1)")
    return s


# ---------------------------------------------------------------------------
# Compressed curvature learning: one learner, three choices
# ---------------------------------------------------------------------------

@dataclass
class LearnState:
    """Iterate plus learned coefficients and their incremental gram matrix.

    ``gamma`` and ``cubic_coeff`` pick the variant (see ``learn_init``).
    ``h_matrix`` is the running (1/nm)-weighted gram of the coefficients:
    with ``gamma=None`` it is the curvature estimate itself; with a bound
    gamma it accumulates (h + 2*gamma) weights, and ``mean_gram`` holds
    the fixed (1/nm) sum a a^T.
    """

    x: Array
    h: Array                       # (n, m) learned coefficients
    h_matrix: SymMatrix
    gamma: Optional[float] = None
    cubic_coeff: Optional[float] = None
    mean_gram: Optional[SymMatrix] = None
    iteration: int = 0
    rebuild_drift: float = 0.0     # relative drift seen at the last rebuild


@dataclass(frozen=True)
class LearnRound:
    """A learning round's successor state and what the workers sent.

    Row i of each array is worker i's payload: its local gradient, its
    compressed coefficient update, whether a bernoulli wrapper fired, its
    curvature ratio (bounded variants only) and which of its coefficients
    changed.
    """

    state: LearnState
    grads: Array                   # (n, d)
    deltas: Array                  # (n, m)
    fired: Array                   # (n,) bool
    betas: Optional[Array]         # (n,), None for the nonnegative variant
    changed: Array                 # (n, m) bool
    h_at_x: Array                  # fresh coefficients h(x^k), for diagnostics
    h_est: SymMatrix               # the data part of the step's curvature
    beta: Optional[float] = None
    clamped: int = 0


def apply_coeff_update(h_old: Array, delta: Array, eta: float, rule: str,
                       gamma: float = 0.0) -> Array:
    """Coefficient update shared bit-for-bit by workers and server replicas."""
    h_new = h_old + eta * delta
    if rule == "nonneg":
        return np.maximum(h_new, 0.0)
    if rule == "clamp":
        return np.clip(h_new, -gamma, gamma)
    return h_new


def default_eta(spec: CompressorSpec, m: int) -> float:
    """Largest learning rate admitted by the theory: 1/(omega+1)."""
    from .compressors import omega

    return 1.0 / (omega(spec, m) + 1.0)


def learn_init(p: Problem, x0: Array, h0: Array, gamma: Optional[float] = None,
               cubic_coeff: Optional[float] = None) -> LearnState:
    """Start curvature learning at x0 from coefficients h0.

    ``gamma=None`` is the nonnegative variant (nl1, needs lam > 0): updates
    are projected onto the nonnegative cone and the gram of h is the
    estimate. A bound gamma gives the shift-dominated variant (nl2): updates
    are clamped to [-gamma, gamma] and the estimate is scaled to dominate
    the true curvature, so lam = 0 is allowed. ``cubic_coeff`` (cnl, with a
    bound) replaces the Newton step by the cubically regularized model
    step; only the Newton-step variants need h0 >= 0.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    bounded = gamma is not None
    if not bounded and p.lam <= 0:
        raise ConfigError("nonnegative curvature learning requires lam > 0")
    if bounded and gamma <= 0:
        raise ConfigError("curvature bound gamma must be positive")
    if bounded and np.max(np.abs(h0)) > gamma:
        raise ConfigError("initial coefficients must satisfy |h| <= gamma")
    if cubic_coeff is None and np.min(h0) < 0:
        raise ConfigError("initial coefficients must be nonnegative")
    return LearnState(x=x0.copy(), h=h0.copy(),
                      h_matrix=p.data_gram(h0 + 2.0 * gamma if bounded else h0),
                      gamma=gamma, cubic_coeff=cubic_coeff,
                      mean_gram=p.mean_gram() if bounded else None)


def _dominated_estimate(state: LearnState, h_at_x: Array) -> tuple[SymMatrix, float, Array]:
    """Curvature estimate beta * A - 2*gamma*G and the per-worker ratios."""
    gamma = state.gamma
    ratios = (h_at_x + 2.0 * gamma) / (state.h + 2.0 * gamma)
    betas = np.max(ratios, axis=1)
    beta = float(np.max(betas))
    h_est = SymMatrix(beta * state.h_matrix.entries
                      - 2.0 * gamma * state.mean_gram.entries)
    return h_est, beta, betas


def _advance_gram(p: Problem, state: LearnState, h_new: Array) -> tuple[SymMatrix, float]:
    """Accumulate the coefficient gram incrementally; rebuild periodically."""
    flat_change = (h_new - state.h).reshape(-1)
    idx = np.flatnonzero(flat_change)
    entries = state.h_matrix.entries
    if idx.size:
        entries = entries + linalg.weighted_gram(
            p.stacked_rows[idx], flat_change[idx], scale=1.0 / (p.n * p.m)).entries
    if (state.iteration + 1) % REBUILD_PERIOD == 0:
        rebuilt = p.data_gram(h_new + (0.0 if state.gamma is None else 2.0 * state.gamma))
        denom = max(rebuilt.frobenius(), 1e-300)
        return rebuilt, float(np.linalg.norm(entries - rebuilt.entries, "fro")) / denom
    if idx.size == 0:
        return state.h_matrix, state.rebuild_drift
    return SymMatrix(entries), state.rebuild_drift


def learn_round(p: Problem, state: LearnState, spec: CompressorSpec,
                seed: int, eta: float) -> LearnRound:
    """One round of compressed curvature learning.

    Workers all evaluate at the broadcast iterate, so coefficients and
    local gradients come from the problem's one evaluation there (in a
    harness run, the one its metrics row already made), and one compress
    call over the (n, m) differences draws every worker's row of the
    round's stream. The iterate moves with the pre-update estimate: the
    gram of h^k (nonnegative variant, PSD by the projection) or beta times
    the shifted gram minus 2*gamma*G, which upper-bounds the true second
    derivative. With ``cubic_coeff`` = nu * max_row_norm^3 the model step
    upper-bounds P, so the objective can never increase. Then the
    coefficients and their gram advance.
    """
    gamma = state.gamma
    h_at_x = p.h_coeffs(slice(None), state.x)
    grads = p.local_grad(slice(None), state.x)
    payload = compress_with_info(spec, h_at_x - state.h,
                                 RngStream(seed, state.iteration))
    deltas = payload.values
    rule, bound = ("nonneg", 0.0) if gamma is None else ("clamp", gamma)
    h_new = apply_coeff_update(state.h, deltas, eta, rule, bound)
    clamped = int(np.count_nonzero(h_new != state.h + eta * deltas))

    if gamma is None:
        h_est, beta, betas = state.h_matrix, None, None
    else:
        h_est, beta, betas = _dominated_estimate(state, h_at_x)
    g = p.grad(state.x)
    h_reg = h_est.add_diagonal(p.lam)
    if state.cubic_coeff is None:
        x_new = state.x - solve_spd(h_reg, g)
    else:
        x_new = state.x + solve_cubic_model(h_reg, g, state.cubic_coeff)

    gram, drift = _advance_gram(p, state, h_new)
    new_state = LearnState(x=x_new, h=h_new, h_matrix=gram, gamma=gamma,
                           cubic_coeff=state.cubic_coeff, mean_gram=state.mean_gram,
                           iteration=state.iteration + 1, rebuild_drift=drift)
    return LearnRound(state=new_state, grads=grads, deltas=deltas, fired=payload.fired,
                      betas=betas, changed=h_new != state.h, h_at_x=h_at_x,
                      h_est=h_est, beta=beta, clamped=clamped)


# ---------------------------------------------------------------------------
# First-order and quasi-Newton baselines
# ---------------------------------------------------------------------------

def gd_step(p: Problem, x: Array, stepsize: float) -> Array:
    return x - stepsize * p.grad(x)


def default_first_order_stepsize(p: Problem, spec: CompressorSpec) -> float:
    """Conventional 1/((1 + 2*omega/n) * L_hat) compressed-gradient stepsize."""
    from .compressors import omega

    w = omega(spec, p.d)
    return 1.0 / ((1.0 + 2.0 * w / p.n) * p.grad_lipschitz_bound())


def dcgd_round(p: Problem, x: Array, spec: CompressorSpec, seed: int,
               iteration: int, stepsize: float) -> tuple[Array, CompressedPayload]:
    """Compressed gradient descent: average of compressed local gradients."""
    grads = p.local_grad(slice(None), x) + p.lam * x
    payload = compress_with_info(spec, grads, RngStream(seed, iteration))
    return x - stepsize * payload.values.mean(axis=0), payload


@dataclass
class DianaState:
    x: Array
    shifts: Array                  # (n, d) per-worker gradient shifts
    iteration: int = 0


def diana_init(p: Problem, x0: Array, shifts: str = "zero") -> DianaState:
    if shifts == "zero":
        v = np.zeros((p.n, p.d))
    elif shifts == "local_grad":
        v = p.local_grad(slice(None), x0) + p.lam * x0
    else:
        raise ConfigError(f"unknown shift initialization {shifts!r}")
    return DianaState(x=x0.copy(), shifts=v)


def diana_round(p: Problem, state: DianaState, spec: CompressorSpec, seed: int,
                stepsize: float, theta: float) -> tuple[DianaState, CompressedPayload]:
    """Variance-reduced compressed gradient round with learned shifts."""
    diffs = p.local_grad(slice(None), state.x) + p.lam * state.x - state.shifts
    payload = compress_with_info(spec, diffs, RngStream(seed, state.iteration))
    values = payload.values
    ghat = (state.shifts + values).mean(axis=0)
    new_shifts = state.shifts + theta * values
    x_new = state.x - stepsize * ghat
    return DianaState(x=x_new, shifts=new_shifts,
                      iteration=state.iteration + 1), payload


@dataclass
class BfgsState:
    x: Array
    inv_hessian: Array
    grad: Array
    skipped: int = 0


def bfgs_init(p: Problem, x0: Array) -> BfgsState:
    inv0 = linalg.spd_inverse(p.hessian(x0)).entries
    return BfgsState(x=x0.copy(), inv_hessian=inv0, grad=p.grad(x0))


def bfgs_step(p: Problem, state: BfgsState) -> BfgsState:
    """Unit-step BFGS with the standard inverse update; skips on bad curvature."""
    b = state.inv_hessian
    x_new = state.x - b @ state.grad
    g_new = p.grad(x_new)
    s = x_new - state.x
    y = g_new - state.grad
    sy = float(s @ y)
    skipped = state.skipped
    if sy > 0.0:
        rho = 1.0 / sy
        by = b @ y
        b = (b
             - rho * (np.outer(s, by) + np.outer(by, s))
             + (rho * rho * float(y @ by) + rho) * np.outer(s, s))
    else:
        skipped += 1
    return BfgsState(x=x_new, inv_hessian=b, grad=g_new, skipped=skipped)
