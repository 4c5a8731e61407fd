"""The batched worker pass against a per-worker simulation of the round.

Every worker evaluates at the same broadcast iterate, so one call over a
slice of workers serves a whole round, and one compress call over the
(n, length) block draws every worker's row of the round stream. These tests
pin that the batched rounds equal a simulation in which each worker works
alone, drawing from its own advanced stream, bit for bit, and that short
traces keep pinned bytes.
"""

import hashlib

import numpy as np
import pytest

from distnewton import methods
from distnewton.compressors import (_row_draws, bernoulli, compress_with_info,
                                    random_r)
from distnewton.data import Dataset
from distnewton.harness import Budget, run_experiment
from distnewton.linalg import solve_spd
from distnewton.methods import reference_optimum
from distnewton.problem import make_problem
from distnewton.rngs import RngStream


def dense_problem(n=12, m=6, d=6, lam=1e-2, seed=11):
    g = np.random.default_rng(seed)
    ds = Dataset(features=g.standard_normal((n * m, d)),
                 labels=np.where(g.random(n * m) < 0.5, -1.0, 1.0))
    return make_problem(ds, n=n, shuffle_seed=3, loss_kind="logistic", lam=lam)


def start_point(p, seed=1):
    return 0.3 * np.random.default_rng(seed).standard_normal(p.d) / np.sqrt(p.d)


# -- per-worker reference forms ---------------------------------------------

def legacy_worker(p, i, x):
    """Worker i's coefficients and local gradient, from its own rows."""
    rows = p.stacked_rows[i * p.m:(i + 1) * p.m]
    labels = p.stacked_labels[i * p.m:(i + 1) * p.m]
    t = rows @ x
    return p.loss.ddphi(t, labels), rows.T @ p.loss.dphi(t, labels) / p.m


def worker_compress(spec, vec, seed, iteration, i):
    """Worker i alone: compress with the round stream advanced past rows 0..i-1."""
    gen = RngStream(seed, iteration).generator()
    gen.bit_generator.advance(i * _row_draws(spec, vec.size) // 4)
    return compress_with_info(spec, vec, gen)


def legacy_gather(p, state, spec, seed, eta, rule, gamma):
    h_new = np.empty_like(state.h)
    h_at_x = np.empty_like(state.h)
    grads, deltas, changed, fired = [], [], [], []
    clamped = 0
    for i in range(p.n):
        h_cur, grad = legacy_worker(p, i, state.x)
        h_at_x[i] = h_cur
        payload = worker_compress(spec, h_cur - state.h[i], seed, state.iteration, i)
        updated = methods.apply_coeff_update(state.h[i], payload.values, eta,
                                             rule, gamma)
        clamped += int(np.count_nonzero(updated != state.h[i] + eta * payload.values))
        h_new[i] = updated
        grads.append(grad)
        deltas.append(payload.values)
        changed.append(np.flatnonzero(updated != state.h[i]))
        fired.append(payload.fired)
    return h_new, h_at_x, grads, deltas, changed, clamped, fired


def legacy_learn_round(p, state, spec, seed, eta, variant):
    rule, gamma = ("nonneg", 0.0) if variant == "nl1" else ("clamp", state.gamma)
    h_new, h_at_x, grads, deltas, changed, clamped, fired = legacy_gather(
        p, state, spec, seed, eta, rule, gamma)
    g = np.stack(grads).mean(axis=0) + p.lam * state.x
    if variant == "nl1":
        h_reg, shift = state.h_matrix.add_diagonal(p.lam), 0.0
    else:
        h_est, _, _ = methods._dominated_estimate(state, h_at_x)
        h_reg, shift = h_est.add_diagonal(p.lam), 2.0 * state.gamma
    if variant == "cnl":
        x_new = state.x + methods.solve_cubic_model(
            h_reg, g, p.constants().hessian_lipschitz)
    else:
        x_new = state.x - solve_spd(h_reg, g)
    gram, _ = methods._advance_gram(p, state, h_new, weight_shift=shift)
    return x_new, h_new, gram, h_at_x, grads, deltas, changed, clamped, fired


def legacy_dcgd_round(p, x, spec, seed, iteration, stepsize):
    vecs = []
    for i in range(p.n):
        g_i = legacy_worker(p, i, x)[1] + p.lam * x
        vecs.append(worker_compress(spec, g_i, seed, iteration, i).values)
    return x - stepsize * np.stack(vecs).mean(axis=0)


def legacy_diana_round(p, state, spec, seed, stepsize, theta):
    estimates, sent = [], []
    new_shifts = state.shifts.copy()
    for i in range(p.n):
        g_i = legacy_worker(p, i, state.x)[1] + p.lam * state.x
        values = worker_compress(spec, g_i - state.shifts[i], seed,
                                 state.iteration, i).values
        estimates.append(state.shifts[i] + values)
        new_shifts[i] = state.shifts[i] + theta * values
        sent.append(values)
    x_new = state.x - stepsize * np.stack(estimates).mean(axis=0)
    return x_new, new_shifts, np.stack(sent)


# -- tests ----------------------------------------------------------------

@pytest.fixture(params=["a2a", "dense"])
def problem(request, a2a_1e3):
    return a2a_1e3 if request.param == "a2a" else dense_problem()


def test_slice_calls_equal_stacked_per_worker_calls(problem):
    p = problem
    assert p.n >= 10
    for seed in range(5):
        x = start_point(p, seed)
        h = p.h_coeffs(slice(None), x)
        grads = p.local_grad(slice(None), x)
        assert h.shape == (p.n, p.m) and grads.shape == (p.n, p.d)
        assert np.array_equal(h, np.stack([p.h_coeffs(i, x) for i in range(p.n)]))
        assert np.array_equal(grads, np.stack([p.local_grad(i, x) for i in range(p.n)]))
        legacy = [legacy_worker(p, i, x) for i in range(p.n)]
        assert np.array_equal(h, np.stack([hc for hc, _ in legacy]))
        assert np.array_equal(grads, np.stack([gr for _, gr in legacy]))


def test_worker_views_share_the_stacked_rows(problem):
    p = problem
    assert np.shares_memory(p.worker_rows(slice(None)), p.stacked_rows)
    assert np.array_equal(p.worker_rows(3), p.stacked_rows[3 * p.m:4 * p.m])
    assert np.array_equal(p.worker_labels(slice(2, 4)),
                          p.stacked_labels[2 * p.m:4 * p.m].reshape(2, p.m))


@pytest.mark.parametrize("variant,spec,eta", [("nl1", random_r(2), None),
                                              ("nl2", random_r(2), None),
                                              ("nl2", random_r(2), 0.5),
                                              ("cnl", random_r(2), None),
                                              ("cnl", bernoulli(random_r(2), 0.5), None)],
                         ids=["nl1", "nl2", "nl2-clamping", "cnl", "cnl-bernoulli"])
def test_learn_round_equals_per_worker_loop(a2a_1e3, variant, spec, eta):
    p = a2a_1e3
    if eta is None:
        eta = methods.default_eta(spec, p.m)
    h0 = np.zeros((p.n, p.m))
    if variant == "nl1":
        state = methods.nl1_init(p, start_point(p), h0)
        out = methods.nl1_round(p, state, spec, 4, eta)
    elif variant == "nl2":
        state = methods.nl2_init(p, start_point(p), h0, p.loss.gamma)
        out = methods.nl2_round(p, state, spec, 4, eta)
    else:
        state = methods.cnl_init(p, start_point(p), h0, p.loss.gamma)
        out = methods.cnl_round(p, state, spec, 4, eta,
                                p.constants().hessian_lipschitz)
    x_new, h_new, gram, h_at_x, grads, deltas, changed, clamped, fired = \
        legacy_learn_round(p, state, spec, 4, eta, variant)

    assert np.array_equal(out.state.x, x_new)
    assert np.array_equal(out.state.h, h_new)
    assert np.array_equal(out.state.h_matrix.entries, gram.entries)
    assert np.array_equal(out.h_at_x, h_at_x)
    assert out.clamped == clamped
    if eta == 0.5:
        assert clamped > 0          # the clamp count is exercised
    if spec.kind == "bernoulli":
        assert 0 < sum(fired) < p.n  # both outcomes are exercised
    for msg, grad, delta, idx, sent in zip(out.messages, grads, deltas, changed, fired):
        assert np.array_equal(msg.grad, grad)
        assert np.array_equal(msg.delta, delta)
        assert np.array_equal(msg.changed, idx)
        assert msg.fired is sent


def test_dcgd_round_equals_per_worker_loop(a2a_1e3):
    p = a2a_1e3
    spec, x = random_r(7), start_point(p)
    stepsize = methods.default_first_order_stepsize(p, spec)
    x_new, payload = methods.dcgd_round(p, x, spec, 5, 3, stepsize)
    assert payload.values.shape == (p.n, p.d) and payload.fired.all()
    assert np.array_equal(x_new, legacy_dcgd_round(p, x, spec, 5, 3, stepsize))


def test_diana_round_equals_per_worker_loop(a2a_1e3):
    p = a2a_1e3
    spec, x = random_r(7), start_point(p)
    stepsize = methods.default_first_order_stepsize(p, spec)
    # local-gradient shifts taken at x, and the round taken at a second
    # iterate, so the compressed differences are not zero
    at_x = methods.diana_init(p, x, shifts="local_grad")
    assert np.array_equal(at_x.shifts, np.stack(
        [legacy_worker(p, i, x)[1] + p.lam * x for i in range(p.n)]))
    shifted = methods.DianaState(x=start_point(p, seed=2), shifts=at_x.shifts,
                                 iteration=3)
    zero = methods.diana_init(p, x, shifts="zero")
    for state in (shifted, zero):
        out, payload = methods.diana_round(p, state, spec, 5, stepsize, 0.5)
        x_new, shifts, sent = legacy_diana_round(p, state, spec, 5, stepsize, 0.5)
        assert np.count_nonzero(sent) == p.n * spec.r
        assert np.array_equal(payload.values, sent)
        assert np.array_equal(out.x, x_new)
        assert np.array_equal(out.shifts, shifts)


# SHA-256 of each trace's CSV under the round stream contract: one (n, K)
# draw block per round. The nl2 trace read
# 45cb065421041745f15ad8611fe4ad2fde3d4466f871cf959edd1cf2bd7c129b under the
# earlier per-worker streams keyed by (seed, worker, iteration).
GOLDEN_TRACE_SHA256 = {
    "nl2": "4dddb1d5e8c3d7ed57ec9e295c9a767c4aeb6272a5e20f0299df0b730b306747",
    "dcgd": "986d737d42e0e18ab000472de3c7ead43daaa5e777afb4378a7cbf870f2b719b",
    "cnl": "e0a4fea48a2f255a3767decfc3832323cedcbc9e91364c0b6700ba89f669df15",
}


def golden_trace(method):
    p = dense_problem()
    spec = {"nl2": random_r(2), "dcgd": random_r(3),
            "cnl": bernoulli(random_r(2), 0.5)}[method]
    return run_experiment(method, p, spec, Budget(max_iters=12), seed=9,
                          oracles=reference_optimum(p))


def test_short_nl2_trace_matches_golden_hash():
    trace = golden_trace("nl2")
    assert hashlib.sha256(trace.csv_text().encode()).hexdigest() == \
        GOLDEN_TRACE_SHA256["nl2"]


@pytest.mark.parametrize("method", ["dcgd", "cnl"])
def test_short_compressed_traces_match_golden_hashes(method):
    trace = golden_trace(method)
    assert hashlib.sha256(trace.csv_text().encode()).hexdigest() == \
        GOLDEN_TRACE_SHA256[method]
