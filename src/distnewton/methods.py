"""Optimization methods on the simulated parameter server.

Stateless Newton-type steps (exact Newton, fixed-curvature and max-scaled
variants), one compressed curvature learner, and the first-order and
quasi-Newton baselines. The learner (``learn_init``/``learn_round``) is
NEWTON-LEARN with three choices: the projection (nonnegative cone, or clamp
to [-gamma, gamma]), the estimate (the plain coefficient gram, or its
shift-dominated scaling) and the step (SPD solve, or cubic model). A bound
gamma picks the clamp and the dominated estimate, and a cubic coefficient
picks the cubic step: nl1 has neither, nl2 has gamma, cnl has both. The
compressed first-order baselines share one round too, ``diana_round``:
DCGD is DIANA with theta = 0 and zero shifts.

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
from .compressors import CompressedPayload, CompressorSpec, compress_with_info, omega
from .errors import ConfigError, InputError, NumericalError
from .linalg import add_diagonal, solve_spd, sym_eig
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

    Every field derives from ``x_star`` (see ``_oracles_at``). ``h_star``
    holds the per-sample curvature coefficients at the optimum as an (n, m)
    array; ``hessian_star`` is the data part of the Hessian there
    (regularizer excluded). The arrays are read-only.
    """

    x_star: Array
    value_star: float
    h_star: Array
    hessian_star: Array
    grad_norm: float

    def distance(self, x: Array) -> float:
        return float(np.linalg.norm(x - self.x_star))


def _oracles_at(p: Problem, x: Array) -> Oracles:
    """The oracles at x from p's one evaluation there. One Oracles serves
    every config of a compare, so its arrays are read-only."""
    h_star = p.h_all(x)                      # read-only, like every slot array
    hessian_star = p.data_gram(h_star)
    for a in (x, hessian_star):
        a.setflags(write=False)
    return Oracles(x, p.value(x), h_star, hessian_star,
                   float(np.linalg.norm(p.grad(x))))


def newton_step(p: Problem, x: Array) -> Array:
    """One exact Newton step; raises SingularMatrixError off the PD cone."""
    return x - solve_spd(p.hessian(x), p.grad(x))


def reference_optimum(p: Problem) -> Oracles:
    """Optimum proxy: Newton steps from 0, stopping after the first no longer
    than ``REFOPT_STEP_RTOL`` times the new iterate, or after
    ``REFOPT_MAX_STEPS`` steps if none is."""
    x = np.zeros(p.d)
    for _ in range(REFOPT_MAX_STEPS):
        x, x_old = newton_step(p, x), x
        if np.linalg.norm(x - x_old) <= REFOPT_STEP_RTOL * np.linalg.norm(x):
            break
    return _oracles_at(p, x)


def ns_step(p: Problem, oracles: Oracles, x: Array) -> Array:
    """Newton-like step with the curvature matrix frozen at the optimum."""
    h_reg = add_diagonal(oracles.hessian_star, p.lam)
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
    h_star = oracles.h_star
    if np.min(h_star) <= 0.0:
        raise ConfigError("max-scaled step needs strictly positive optimum coefficients")
    h_cur = p.h_all(x)
    betas = np.max(h_cur / h_star, axis=1)                     # (n,)
    weights = betas[:, None] * h_star                          # (n, m)
    h_est = p.data_gram(weights)
    return x - solve_spd(add_diagonal(h_est, p.lam), p.grad(x))


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
# reference_optimum stops after a Newton step this short relative to x: by
# the quadratic rate the next would be of order its square, far below rounding.
REFOPT_STEP_RTOL = 1e-12
REFOPT_MAX_STEPS = 20
_NEWTON_MAX = 100


def solve_cubic_model(h_reg: Array, g: Array, m_cubic: float) -> Array:
    """Global minimizer of <g,s> + 0.5 s.T H s + (m_cubic/6) ||s||^3.

    Diagonalize H = U^T diag(lam) U and put w = U g. The minimizer is
    s(rho) = -U^T (w / (lam + m_cubic*rho/2)) at the root rho = ||s|| of the
    secular equation

        psi(rho) = 1/||s(rho)|| - 1/rho = 0,

    taken right of the pole -2*lam_min/m_cubic. There psi is increasing and
    concave, so Newton from a point left of the root climbs to it without
    overshooting (Cartis, Gould and Toint, Math. Program. 127, 2011, 6.1;
    Nesterov and Polyak, Math. Program. 108, 2006, 5). It starts at the
    larger of a point just right of the pole and the root of
    rho*(max(lam_max, 0) + m_cubic*rho/2) = ||g||, below the root since
    ||s(rho)|| >= ||g||/(lam_max + m_cubic*rho/2). If psi > 0 already at the
    pole (g has no component on the smallest eigenspace: the hard case),
    NumericalError.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape[0] != h_reg.shape[0]:
        raise InputError("gradient length does not match matrix dimension")
    if not np.all(np.isfinite(g)):
        raise InputError("gradient entries must be finite")
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
    half_m = 0.5 * m_cubic
    top = max(float(lam[-1]), 0.0)
    lower = 2.0 * gnorm / (top + math.sqrt(top * top + 2.0 * m_cubic * gnorm))
    pole = -float(lam[0]) / half_m * (1.0 + 1e-12) + 1e-300
    rho = max(lower, pole)
    try:
        for _ in range(_NEWTON_MAX):
            denom = lam + half_m * rho
            ws = w / denom
            inv_norm = 1.0 / math.sqrt(float(ws @ ws))
            psi = inv_norm - 1.0 / rho
            if psi > 0.0 and rho == pole:
                raise NumericalError(
                    f"cubic model has psi = {psi:.3e} > 0 at the pole; "
                    "gradient has no component on the smallest eigenspace")
            step = psi / (half_m * float(ws @ (ws / denom)) * inv_norm ** 3
                          + 1.0 / rho ** 2)
            rho -= step
            if abs(step) <= CUBIC_RHO_RTOL * rho:
                break
    except ArithmeticError:     # a curvature that dwarfs g: ||s|| leaves the float range
        raise NumericalError("cubic model step leaves the float range") from None

    s = -(eig.eigenvectors.T @ (w / (lam + half_m * rho)))
    residual = float(np.linalg.norm(
        g + h_reg @ s + 0.5 * m_cubic * np.linalg.norm(s) * s))
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
    h_matrix: Array
    gamma: Optional[float] = None
    cubic_coeff: Optional[float] = None
    mean_gram: Optional[Array] = None
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
    h_est: Array                   # the data part of the step's curvature
    beta: Optional[float] = None
    clamped: int = 0


def apply_coeff_update(h_old: Array, delta: Array, eta: float,
                       gamma: Optional[float] = None) -> Array:
    """Coefficient update shared bit-for-bit by workers and server replicas.

    ``gamma=None`` projects onto the nonnegative cone; a bound gamma clamps
    to [-gamma, gamma].
    """
    h_new = h_old + eta * delta
    if gamma is None:
        return np.maximum(h_new, 0.0)
    return np.clip(h_new, -gamma, gamma)


def default_eta(spec: CompressorSpec, m: int) -> float:
    """Largest learning rate admitted by the theory: 1/(omega+1)."""
    return 1.0 / (omega(spec, m) + 1.0)


def learn_init(p: Problem, x0: Array, gamma: Optional[float] = None,
               cubic_coeff: Optional[float] = None) -> LearnState:
    """Start curvature learning at x0 from the coefficients h(x0).

    ``gamma=None`` is the nonnegative variant (nl1): updates are projected
    onto the nonnegative cone and the gram of h is the estimate. A bound
    gamma gives the shift-dominated variant (nl2): updates are clamped to
    [-gamma, gamma] and the estimate is scaled to dominate the true
    curvature, so lam = 0 is allowed. ``cubic_coeff`` (cnl, with a bound)
    replaces the Newton step by the cubically regularized model step.
    The start is where the local theory needs it by construction: phi'' is
    nonnegative and at most the loss's own bound ``LossModel.gamma``, so
    h(x0) >= 0, and |h(x0)| <= gamma for a bound at least the loss's. nl1
    also needs lam > 0, which ``harness._admit`` holds before a run starts.
    """
    h0 = p.h_all(x0)
    return LearnState(x=x0.copy(), h=h0.copy(),
                      h_matrix=p.data_gram(h0 if gamma is None else h0 + 2.0 * gamma),
                      gamma=gamma, cubic_coeff=cubic_coeff,
                      mean_gram=None if gamma is None else p.mean_gram())


def _dominated_estimate(state: LearnState, h_at_x: Array) -> tuple[Array, float, Array]:
    """Curvature estimate beta * A - 2*gamma*G and the per-worker ratios."""
    gamma = state.gamma
    ratios = (h_at_x + 2.0 * gamma) / (state.h + 2.0 * gamma)
    betas = np.max(ratios, axis=1)
    beta = float(np.max(betas))
    h_est = beta * state.h_matrix - 2.0 * gamma * state.mean_gram
    return h_est, beta, betas


def _advance_gram(p: Problem, state: LearnState, h_new: Array) -> tuple[Array, float]:
    """Accumulate the coefficient gram incrementally; rebuild periodically."""
    flat_change = (h_new - state.h).reshape(-1)
    idx = np.flatnonzero(flat_change)
    gram = state.h_matrix
    if idx.size:
        gram = gram + linalg.weighted_gram(
            p.stacked_rows[idx], flat_change[idx], scale=1.0 / (p.n * p.m))
    if (state.iteration + 1) % REBUILD_PERIOD == 0:
        rebuilt = p.data_gram(h_new + (0.0 if state.gamma is None else 2.0 * state.gamma))
        denom = max(float(np.linalg.norm(rebuilt, "fro")), 1e-300)
        return rebuilt, float(np.linalg.norm(gram - rebuilt, "fro")) / denom
    return gram, state.rebuild_drift


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
    h_new = apply_coeff_update(state.h, deltas, eta, gamma)
    clamped = int(np.count_nonzero(h_new != state.h + eta * deltas))

    if gamma is None:
        h_est, beta, betas = state.h_matrix, None, None
    else:
        h_est, beta, betas = _dominated_estimate(state, h_at_x)
    g = p.grad(state.x)
    h_reg = add_diagonal(h_est, p.lam)
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
    w = omega(spec, p.d)
    return 1.0 / ((1.0 + 2.0 * w / p.n) * p.grad_lipschitz_bound())


@dataclass
class DianaState:
    x: Array
    shifts: Array                  # (n, d) per-worker gradient shifts
    iteration: int = 0


def diana_init(p: Problem, x0: Array) -> DianaState:
    """Start DIANA at x0 from zero shifts."""
    return DianaState(x0.copy(), np.zeros((p.n, p.d)))


def diana_round(p: Problem, state: DianaState, spec: CompressorSpec, seed: int,
                stepsize: float, theta: float) -> tuple[DianaState, CompressedPayload]:
    """Variance-reduced compressed gradient round with learned shifts
    (DIANA: Mishchenko et al., arXiv:1901.09269, Alg. 1). Each worker
    compresses its local gradient minus its shift, the server averages shift
    plus message, and each shift moves by theta times the message. From zero
    shifts with theta = 0 the shifts stay zero and the round is compressed
    gradient descent (DCGD: Khirirat et al., arXiv:1806.06573) bit for bit."""
    diffs = p.local_grad(slice(None), state.x) + p.lam * state.x - state.shifts
    payload = compress_with_info(spec, diffs, RngStream(seed, state.iteration))
    values = payload.values
    ghat = (state.shifts + values).mean(axis=0)
    new_shifts = state.shifts + theta * values
    x_new = state.x - stepsize * ghat
    return DianaState(x_new, new_shifts, state.iteration + 1), payload


@dataclass
class BfgsState:
    x: Array
    inv_hessian: Array
    grad: Array
    skipped: int = 0


def bfgs_init(p: Problem, x0: Array) -> BfgsState:
    inv0 = linalg.spd_inverse(p.hessian(x0))
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
