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

from distnewton import harness, linalg, methods
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
    """Worker i's coefficients and local gradient, from its own rows and
    the reference loss fields."""
    from test_problem import REFERENCE_LOSS_FIELDS     # test_problem imports this module
    _, dphi, ddphi = REFERENCE_LOSS_FIELDS[p.loss.kind]
    rows = p.stacked_rows[i * p.m:(i + 1) * p.m]
    labels = p.dataset.labels[np.concatenate(p.part.shards)][i * p.m:(i + 1) * p.m]
    t = rows @ x
    return ddphi(t, labels), rows.T @ dphi(t, labels) / p.m


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


def learner_init(p, variant, x0):
    gamma = None if variant == "nl1" else p.loss.gamma
    cubic = p.constants().hessian_lipschitz if variant == "cnl" else None
    return methods.learn_init(p, x0, gamma, cubic)


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
                          p.dataset.labels[np.concatenate(p.part.shards)]
                          [2 * p.m:4 * p.m].reshape(2, p.m))


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
    state = learner_init(p, variant, start_point(p))
    # from h(x0) at x0 the first round changes no coefficient
    for _ in range(3):
        state = methods.learn_round(p, state, spec, 4, eta).state
    out = methods.learn_round(p, state, spec, 4, eta)
    x_new, h_new, gram, h_at_x, grads, deltas, changed, clamped, fired = \
        legacy_learn_round(p, state, spec, 4, eta, variant)

    assert np.array_equal(out.state.x, x_new)
    assert np.array_equal(out.state.h, h_new)
    assert np.array_equal(out.state.h_matrix, gram)
    assert np.array_equal(out.h_at_x, h_at_x)
    assert out.clamped == clamped
    assert np.any(out.changed)      # the update and the gram are exercised
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
    at_x = methods.DianaState(x=x.copy(),
                              shifts=p.local_grad(slice(None), x) + p.lam * x)
    assert np.array_equal(at_x.shifts, np.stack(
        [legacy_worker(p, i, x)[1] + p.lam * x for i in range(p.n)]))
    shifted = methods.DianaState(x=start_point(p, seed=2), shifts=at_x.shifts,
                                 iteration=3)
    zero = methods.diana_init(p, x)
    for state in (shifted, zero):
        out, payload = methods.diana_round(p, state, spec, 5, stepsize, 0.5)
        x_new, shifts, sent = legacy_diana_round(p, state, spec, 5, stepsize, 0.5)
        assert np.count_nonzero(sent) == p.n * spec.r
        assert np.array_equal(payload.values, sent)
        assert np.array_equal(out.x, x_new)
        assert np.array_equal(out.shifts, shifts)


# SHA-256 of each trace's CSV under the one-evaluation contract: every
# margin comes from the stacked per-worker pass. The last key is an nl1 run
# with option=2, from h(x0) like every learner. It replaced the key
# nl1-option2-zeros (CSV 9e914345f6308e4fc64fa2d141cb238bfd09ccac42b497ed
# 19b2c956252e0a01, JSON d7f37c2d38580d69c8d87a6e1897126b7c9c31a6659c01d45b
# 7c657ac01ebc06) when the zeros start was retired; its digests were taken
# before that change and hold after it. Every CSV and JSON pin was re-taken when
# ``solve_cholesky`` moved from two LU solves to LAPACK dpotrs, which moves
# the last bits of Newton-type iterates and of the reference optimum behind
# every gap column (tests/golden_diff.py prints old -> new). They were
# re-taken again when ``reference_optimum`` began to stop at a rounding-level
# step: x* moves in its last bits, and with it the gap and phi columns and
# the ns/mn iterates, never a ledger or a compressed method's iterate.
# Earlier, under the round stream contract with whole-matrix products for
# value/grad, the three read
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
    "bfgs": "9841d1d5e253e2555a9203a9cd69595d8a0c617700fc5b42a3c012b6c491c3dd",
    "newton": "227f2a5bdf8868fffb67da538f8df4d62fd5482ca1d5dad3a850158135647558",
    "newton_coeff": "b8f58cc5342931e4da1d0a666352783dd6abb27e69439a093af02359a0761dd5",
    "ns": "ce2d640971fd8e220460d285a1bd3660140870f6b722b38d8226c67609acfd99",
    "mn": "889e1d617634c76a0e510adf4afa3e37348b13c3bba70ce6d84869db87950470",
    "nl1": "f8faed7fa6f7b663ecd664bde66730f39b676ff064696817794c10f2fdac0b43",
    "nl2": "da4396b9e0c61147b63cc91227f172dd35c1d1df514060242230cf049e40a2fc",
    "cnl": "88c235a2c110fabc5d4bf18aaf9852cbea0fd30e14452567a7b1c0f035677d9e",
    "nl1-option2": "5796d89b36ba72a38ad24033920c38e6b840995d430248206224eda97d340372",
}

# SHA-256 of the JSON text of the same traces: it also carries the
# extras (decrease_ok, bfgs_skipped, replica_ok, curvature_certificate, ...).
GOLDEN_JSON_SHA256 = {
    "gd": "6487caf87869de88371fbc4f0e230541e7b37ae343342721f4674112a7cffb8b",
    "dcgd": "b779d9a62dabd776e77d1fb85ee145b5ca71b4f84272ad16567cb288c16fa0af",
    "diana": "93a9e7d2e75eaf94e4bfad797c29cbded9274cc9d46e29ab974c75e7f0e98710",
    "bfgs": "19be0ba3dfd21f808f1958021c0f3a50328ef29bb1100ae0d80b7cf081735826",
    "newton": "8cb9bf67c5170a60fdf57401d97d353a7c859791d2bbcaf216ab0b4b2248bcb7",
    "newton_coeff": "fe3e3c02f5e2274f1d9074cfc4a45d4c174fe24540a75c498fafa99d130ced5e",
    "ns": "a9cff249bd952a443833a6ca3dc948718696733131cc780a80d830cfb55718a1",
    "mn": "6f6bc7dcf8ebd6e1b2baa020098b573eb653eae40d8a1c7a520b86f2a6fb39fa",
    "nl1": "cd8745b46fd32a662845f61bf82cff17c5a92ebb2c30c694eadce37aca13148e",
    "nl2": "66dbd43fc522e647be3c7b76b06c7c844c7efb5fd028cf42c5480b290b32fa51",
    "cnl": "a4d64d92d5f47ebfb0b91441d673a078ae6ffe2f5321ad3ef40ace584672bb34",
    "nl1-option2": "1a3356a97c41e1e9381110d538de8bd5de942426fa441b184fe223702d1db7f3",
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
# nl1 and nl2 were re-taken with the dpotrs solve, and the first-order
# methods solve nothing. cnl's three pins (CSV, JSON, iterates) were re-taken
# when its cubic step moved from bisection on the secular equation to Newton
# on psi(rho) = 1/||s(rho)|| - 1/rho: the root agrees to about 1e-16
# relative, so only the last bits of cnl's iterates move. Under bisection
# they read
#   CSV      3bca709d89c20561fbb3291b7eae418454ba1865d80b9f24f6bf8cb2fa298f01
#   JSON     9d616689a21d033ca1d7a5157547447b8bf41f3b0ff62e7085d992b6b1579fdb
#   iterates cc5f30e92375fb2ac0a1f31f4e91b1d531fdeb848525ab1094b1cb830f8ecaca
# The learners' three pins were re-taken when ``learn_init`` began to start
# from h(x0) itself; from zero coefficients they read
#   nl1 5c7c92112ef5d4d7db6f5b03ac32791ee1738566258223400a19540169ba6ca3
#   nl2 c97efee8801abbe189ca325fc6c1ed8e1ec1e6868ce8ac831357beec9e06e7e3
#   cnl a84c019681cc6024a2846a27c7fd86f0d9af12a75f941a4fe3bcb5509333aece
GOLDEN_ITERATES_SHA256 = {
    "nl1": "1a1b4925c5a149df583f6b4b89e29435a3785e93258f58eaa10a25024d2509b7",
    "nl2": "ecb5824c013c2119929b42203ed2349a9af696e2dcc31c0d8027488aed907e62",
    "cnl": "14ee1ed9f1978b1213351b1464209523f9c3d0b3641f02250dd27f04a86f6b69",
    "dcgd": "95e02e7f8d759714df5237c2bedb004997afa0edb70df563b5fca9d521f938c3",
    "diana": "b08f581375266a33ae596f6516f1187bf224a2b0d39a58aa7f1c6444da0455e0",
}


GOLDEN_SPECS = {"nl1": random_r(2), "nl2": random_r(2),
                "cnl": bernoulli(random_r(2), 0.5), "dcgd": random_r(3),
                "diana": random_r(3)}


def golden_trace(key):
    method, _, variant = key.partition("-")
    opts = RunOptions(option=2) if variant else None
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
    x0 = start_point(p)
    digest = hashlib.sha256()
    if method in ("dcgd", "diana"):
        spec = random_r(3)
        stepsize = methods.default_first_order_stepsize(p, spec)
        x = x0
        state = methods.DianaState(x=x0.copy(),
                                   shifts=p.local_grad(slice(None), x0) + p.lam * x0)
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
    state = learner_init(p, method, x0)
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


def counted_margin_passes(monkeypatch):
    """The list that every later ``Problem.worker_rows`` call appends to."""
    passes = []
    original = Problem.worker_rows

    def counted(self, i):
        passes.append(i)
        return original(self, i)

    monkeypatch.setattr(Problem, "worker_rows", counted)
    return passes


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_one_margin_pass_per_iterate(method, monkeypatch):
    """A run evaluates the data once per iterate: rounds + 1 margin passes."""
    p = dense_problem()
    oracles = reference_optimum(p)
    spec = random_r(2) if method in COMPRESSED_METHODS else None
    passes = counted_margin_passes(monkeypatch)
    rounds = 5
    trace = run_experiment(method, p, spec, Budget(max_iters=rounds), seed=9,
                           oracles=oracles)
    assert trace.final().iteration == rounds
    assert len(passes) == rounds + 1


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_admission_reads_no_data(method, monkeypatch):
    """``_admit`` makes no margin pass; a learner's h(x0) is its start's."""
    p = dense_problem()
    spec = random_r(2) if method in COMPRESSED_METHODS else None
    passes = counted_margin_passes(monkeypatch)
    harness._admit(method, p, spec, RunOptions(x0=start_point(p)))
    assert passes == []
