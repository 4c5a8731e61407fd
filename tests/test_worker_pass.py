"""The batched worker pass against a per-worker simulation of the round.

Every worker evaluates at the same broadcast iterate, so one call over a
slice of workers serves a whole round, and one compress call over the
(n, length) block draws every worker's row of the round stream. These tests
pin that the batched rounds equal a simulation in which each worker works
alone, drawing from its own advanced stream, bit for bit, that short
traces keep pinned bytes, and that a run evaluates the data once per iterate.
"""

import hashlib

import numpy as np
import pytest

from distnewton import linalg, methods
from distnewton.compressors import (_row_draws, bernoulli, compress_with_info,
                                    random_r)
from distnewton.data import Dataset
from distnewton.harness import (COMPRESSED_METHODS, METHOD_NAMES, Budget,
                               RunOptions, run_experiment)
from distnewton.linalg import solve_spd
from distnewton.methods import reference_optimum
from distnewton.problem import Problem, make_problem
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


def legacy_gather(p, state, spec, seed, eta, gamma):
    h_new = np.empty_like(state.h)
    h_at_x = np.empty_like(state.h)
    grads, deltas, changed, fired = [], [], [], []
    clamped = 0
    for i in range(p.n):
        h_cur, grad = legacy_worker(p, i, state.x)
        h_at_x[i] = h_cur
        payload = worker_compress(spec, h_cur - state.h[i], seed, state.iteration, i)
        updated = methods.apply_coeff_update(state.h[i], payload.values, eta, gamma)
        clamped += int(np.count_nonzero(updated != state.h[i] + eta * payload.values))
        h_new[i] = updated
        grads.append(grad)
        deltas.append(payload.values)
        changed.append(np.flatnonzero(updated != state.h[i]))
        fired.append(payload.fired)
    return h_new, h_at_x, grads, deltas, changed, clamped, fired


def learner_init(p, variant, x0, h0):
    gamma = None if variant == "nl1" else p.loss.gamma
    cubic = p.constants().hessian_lipschitz if variant == "cnl" else None
    return methods.learn_init(p, x0, h0, gamma, cubic)


def legacy_learn_round(p, state, spec, seed, eta, variant):
    h_new, h_at_x, grads, deltas, changed, clamped, fired = legacy_gather(
        p, state, spec, seed, eta, state.gamma)
    g = np.stack(grads).mean(axis=0) + p.lam * state.x
    if variant == "nl1":
        h_reg = linalg.add_diagonal(state.h_matrix, p.lam)
    else:
        h_reg = linalg.add_diagonal(methods._dominated_estimate(state, h_at_x)[0], p.lam)
    if variant == "cnl":
        x_new = state.x + methods.solve_cubic_model(
            h_reg, g, p.constants().hessian_lipschitz)
    else:
        x_new = state.x - solve_spd(h_reg, g)
    gram, _ = methods._advance_gram(p, state, h_new)
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
    state = learner_init(p, variant, start_point(p), np.zeros((p.n, p.m)))
    out = methods.learn_round(p, state, spec, 4, eta)
    x_new, h_new, gram, h_at_x, grads, deltas, changed, clamped, fired = \
        legacy_learn_round(p, state, spec, 4, eta, variant)

    assert np.array_equal(out.state.x, x_new)
    assert np.array_equal(out.state.h, h_new)
    assert np.array_equal(out.state.h_matrix, gram)
    assert np.array_equal(out.h_at_x, h_at_x)
    assert out.clamped == clamped
    if eta == 0.5:
        assert clamped > 0          # the clamp count is exercised
    if spec.kind == "bernoulli":
        assert 0 < sum(fired) < p.n  # both outcomes are exercised
    assert np.array_equal(out.grads, np.stack(grads))
    assert np.array_equal(out.deltas, np.stack(deltas))
    for row, idx in zip(out.changed, changed):
        assert np.array_equal(np.flatnonzero(row), idx)
    assert all(a is b for a, b in zip(out.fired.tolist(), fired, strict=True))
    if variant == "nl1":
        assert out.betas is None
    else:
        assert np.array_equal(out.betas, methods._dominated_estimate(state, h_at_x)[2])


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


# SHA-256 of each trace's CSV under the one-evaluation contract: every
# margin comes from the stacked per-worker pass. The last key is an nl1 run
# with option=2 and h0="zeros". The eight pins beside nl2, dcgd and cnl, and
# every JSON pin, were taken before the method table replaced one class per
# method, a change that kept every byte. Under the round stream
# contract with whole-matrix products for value/grad the three read
#   nl2  4dddb1d5e8c3d7ed57ec9e295c9a767c4aeb6272a5e20f0299df0b730b306747
#   dcgd 986d737d42e0e18ab000472de3c7ead43daaa5e777afb4378a7cbf870f2b719b
#   cnl  e0a4fea48a2f255a3767decfc3832323cedcbc9e91364c0b6700ba89f669df15
# and the nl2 trace read
# 45cb065421041745f15ad8611fe4ad2fde3d4466f871cf959edd1cf2bd7c129b under the
# earlier per-worker streams keyed by (seed, worker, iteration).
GOLDEN_TRACE_SHA256 = {
    "gd": "c05a96f51a40b89ace134e524d87d46013efe1ef0ba1fd733170e8f431d07e35",
    "dcgd": "a5ed19ec15de20afb5f7d0c18e9762bafb30248807e1bf5dc3b7530823ea1a80",
    "diana": "d324602651ccb77c5d94d8c78ff7d88e9b22c6357d60f0970cdaf5363b089285",
    "bfgs": "3ce3e4007e6b7319e1959276dc29625348b2682071e69a2679ba168ee92ae8e0",
    "newton": "ac4cee33a1218a04cee74a7233e0639ebbce30698f80b5c52d6ad6efeae5dbe2",
    "newton_coeff": "94a8ac6e2f026e9b76eb4f591f16f35dc06ee72538f6328293e3d359db4cac96",
    "ns": "96a53a00e15d94600ff1d78ed08f075c17b76dd294131a25344ce51d26c28213",
    "mn": "b9d058977bab96065b521ded180bd57bedaf2d8faf18d06520b4533c46c22519",
    "nl1": "ee728002327226db0d4c469f137e2116ace4e34f9339da115142bab17186b21c",
    "nl2": "c4d713688002211d73c51fb92574f760cd346bff8e567bb0ecdb8ebcae5f164d",
    "cnl": "70096d473543909764924d9b15caf983ff79b52b4fca09c973214ca20d4623ae",
    "nl1-option2-zeros": "7dee0d431c45c50d3dc646011c6f9cda4b1b03c6b0db2815fd32376cd486d8fb",
}

# SHA-256 of the JSON text of the same traces: it also carries the
# extras (decrease_ok, bfgs_skipped, replica_ok, the margins, ...).
GOLDEN_JSON_SHA256 = {
    "gd": "cfeaeac8ebc3191a18bcb2b5a41a5d39efeadab76c0739447c8b82ef1c2d9ec1",
    "dcgd": "c6e8fc353c293bdef28dfdec4586f119adea06eb59f6703caf7972c102b4c07e",
    "diana": "f1b9d3681410afe62ff6c0b0532e214bfee7823bf6a701b4b499a02fee883097",
    "bfgs": "c5e2afd9fd674b4eb77d9913ba383e3a0828bc75f739ede8f91009b1d078ffaa",
    "newton": "f14dbc90a68bf9a70a96aa78544f487c6ec777c621e16e4f7fef3fbca28cc579",
    "newton_coeff": "510b8e6f51039153f40e216f432d4bcfa0df14c3fad621ccaa4a13e26398e51f",
    "ns": "296d9b6aa7c124547ed6b8e8f9d69cedd8ba103d88946e0d448639c1b9c2f109",
    "mn": "5333c5ac976d4eff6fe1a1919e8dfed6fdc261df17158dd0b2d8a4b746d134f7",
    "nl1": "dbfbda86cf7b92c1d41bc7cd82eef685e59004cd1fde370dfa96b706af80fb76",
    "nl2": "fe06265902a1881c688b3515414d4a236573ab15be9b2f1471b383cd35dc25bf",
    "cnl": "2730a0ee7077d5e8895a000f3e9d1b7ba1be3e0134daa30e5783fd4dbd8622ef",
    "nl1-option2-zeros": "d74a68d238110559232301bacf0b9421bca51a37d06e58a6d4bacbfbc026a9a7",
}

# SHA-256 of the iter,bits_up_cum,bits_down_cum columns of the same traces.
# Taken before the one-evaluation change and unchanged by it: sharing the
# margins moves float columns only, never a ledger integer.
GOLDEN_LEDGER_SHA256 = {
    "nl2": "a8906364e16a96a67dc8efe3221486f470a666ad063e9d55fe4b2a0fc846ebc1",
    "dcgd": "a4078681c172732ca2427b49ae71f4e3ff651dc609bb2693e538fb8d0aa4ffda",
    "cnl": "195bc8569c613854bfdf2448acc75d543991170c56b3247d562384bdd745dd8f",
}

# SHA-256 over 12 rounds of the compressed methods' iterates (and learned
# coefficients, h(x^k) or shifts), also taken before the one-evaluation
# change: their workers always read the stacked pass, so nothing moved.
GOLDEN_ITERATES_SHA256 = {
    "nl1": "599d85cc1e4b1c596dd8b95d67ef6a8c0c45cb04ac417d253ed28738d3646391",
    "nl2": "a2c321c3764412827e0ab628a23b03c16a7bde13536c19c09aaaf43f262729da",
    "cnl": "cc5f30e92375fb2ac0a1f31f4e91b1d531fdeb848525ab1094b1cb830f8ecaca",
    "dcgd": "95e02e7f8d759714df5237c2bedb004997afa0edb70df563b5fca9d521f938c3",
    "diana": "b08f581375266a33ae596f6516f1187bf224a2b0d39a58aa7f1c6444da0455e0",
}


GOLDEN_SPECS = {"nl1": random_r(2), "nl2": random_r(2),
                "cnl": bernoulli(random_r(2), 0.5), "dcgd": random_r(3),
                "diana": random_r(3)}


def golden_trace(key):
    method, _, variant = key.partition("-")
    opts = RunOptions(option=2, h0="zeros") if variant else None
    p = dense_problem()
    return run_experiment(method, p, GOLDEN_SPECS.get(method), Budget(max_iters=12),
                          seed=9, oracles=reference_optimum(p), opts=opts)


def ledger_columns(csv_text):
    return "".join(",".join(line.split(",")[i] for i in (0, 3, 4)) + "\n"
                   for line in csv_text.splitlines())


def test_short_nl2_trace_matches_golden_hash():
    trace = golden_trace("nl2")
    assert hashlib.sha256(trace.csv_text().encode()).hexdigest() == \
        GOLDEN_TRACE_SHA256["nl2"]


@pytest.mark.parametrize("method", ["dcgd", "cnl"])
def test_short_compressed_traces_match_golden_hashes(method):
    trace = golden_trace(method)
    assert hashlib.sha256(trace.csv_text().encode()).hexdigest() == \
        GOLDEN_TRACE_SHA256[method]


@pytest.mark.parametrize("key", list(GOLDEN_TRACE_SHA256))
def test_every_method_trace_matches_golden_csv_and_json_hashes(key):
    trace = golden_trace(key)
    assert hashlib.sha256(trace.csv_text().encode()).hexdigest() == \
        GOLDEN_TRACE_SHA256[key]
    assert hashlib.sha256(trace.json_text().encode()).hexdigest() == \
        GOLDEN_JSON_SHA256[key]


@pytest.mark.parametrize("method", ["nl2", "dcgd", "cnl"])
def test_short_trace_ledger_columns_match_golden_hashes(method):
    text = golden_trace(method).csv_text()
    assert ledger_columns(text).startswith("iter,bits_up_cum,bits_down_cum\n")
    assert hashlib.sha256(ledger_columns(text).encode()).hexdigest() == \
        GOLDEN_LEDGER_SHA256[method]


def compressed_iterates_digest(method, rounds=12):
    p = dense_problem()
    x0, h0 = start_point(p), np.zeros((p.n, p.m))
    digest = hashlib.sha256()
    if method in ("dcgd", "diana"):
        spec = random_r(3)
        stepsize = methods.default_first_order_stepsize(p, spec)
        x = x0
        state = methods.diana_init(p, x0, shifts="local_grad")
        for k in range(rounds):
            if method == "dcgd":
                x, _ = methods.dcgd_round(p, x, spec, 9, k, stepsize)
                digest.update(x.tobytes())
            else:
                state, _ = methods.diana_round(p, state, spec, 9, stepsize, 0.5)
                digest.update(state.x.tobytes() + state.shifts.tobytes())
        return digest.hexdigest()
    spec = bernoulli(random_r(2), 0.5) if method == "cnl" else random_r(2)
    eta = methods.default_eta(spec, p.m)
    state = learner_init(p, method, x0, h0)
    for _ in range(rounds):
        out = methods.learn_round(p, state, spec, 9, eta)
        state = out.state
        digest.update(state.x.tobytes() + state.h.tobytes() + out.h_at_x.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("method", list(GOLDEN_ITERATES_SHA256))
def test_compressed_method_iterates_match_golden_hashes(method):
    assert compressed_iterates_digest(method) == GOLDEN_ITERATES_SHA256[method]


def test_server_gradient_is_bitwise_the_mean_of_local_grads(problem):
    # the learners' server step reads p.grad at the broadcast iterate; it
    # must equal the average of what the workers sent, plus lam * x
    p = problem
    for seed in range(5):
        x = start_point(p, seed)
        expected = p.local_grad(slice(None), x).mean(axis=0) + p.lam * x
        assert np.array_equal(p.grad(x), expected)
        assert np.array_equal(p.value_and_grad(x)[1], expected)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_one_margin_pass_per_iterate(method, monkeypatch):
    """A run evaluates the data once per iterate: rounds + 1 margin passes."""
    p = dense_problem()
    oracles = reference_optimum(p)
    spec = random_r(2) if method in COMPRESSED_METHODS else None
    passes = []
    original = Problem.worker_rows

    def counted(self, i):
        passes.append(i)
        return original(self, i)

    monkeypatch.setattr(Problem, "worker_rows", counted)
    rounds = 5
    trace = run_experiment(method, p, spec, Budget(max_iters=rounds), seed=9,
                           oracles=oracles)
    assert trace.final().iteration == rounds
    assert len(passes) == rounds + 1
