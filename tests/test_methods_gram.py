import numpy as np
import pytest

from distnewton import linalg, problem
from distnewton.compressors import random_r
from distnewton.data import Dataset
from distnewton.harness import Budget, run_experiment
from distnewton.methods import REBUILD_PERIOD, default_eta, learn_init, learn_round
from distnewton.problem import make_problem


def small_problem(lam=1e-2, count=40, d=5, n=4, seed=0):
    g = np.random.default_rng(seed)
    ds = Dataset(features=g.standard_normal((count, d)),
                 labels=np.where(g.random(count) < 0.5, -1.0, 1.0))
    return make_problem(ds, n=n, shuffle_seed=seed, loss_kind="logistic", lam=lam)


@pytest.mark.parametrize("variant", ["nl2", "cnl"])
def test_shifted_gram_matches_rebuild_after_50_rounds(variant):
    p = small_problem(seed=31)
    spec = random_r(2)
    eta = default_eta(spec, p.m)
    gamma = p.loss.gamma
    h0 = p.h_all(np.zeros(p.d))
    m_cubic = p.constants().hessian_lipschitz if variant == "cnl" else None
    state = learn_init(p, np.zeros(p.d), h0, gamma, m_cubic)
    for _ in range(50):
        state = learn_round(p, state, spec, seed=4, eta=eta).state
    rebuilt = p.data_gram(state.h + 2.0 * gamma)
    drift = np.linalg.norm(state.h_matrix - rebuilt, "fro")
    assert drift <= 1e-8 * np.linalg.norm(rebuilt, "fro")


@pytest.mark.parametrize("variant", ["nl1", "nl2"])
def test_gram_stays_exactly_symmetric_across_a_rebuild(variant):
    # coefficient changes of both signs take weighted_gram's mixed-sign branch
    p = small_problem(seed=32)
    spec = random_r(2)
    eta = default_eta(spec, p.m)
    gamma = None if variant == "nl1" else p.loss.gamma
    state = learn_init(p, np.zeros(p.d), p.h_all(np.zeros(p.d)), gamma)
    for _ in range(REBUILD_PERIOD + 2):
        state = learn_round(p, state, spec, seed=5, eta=eta).state
        assert np.array_equal(state.h_matrix, state.h_matrix.T)
    assert state.rebuild_drift > 0.0     # the rebuild ran


def test_mean_gram_is_built_once_per_problem(monkeypatch):
    p = small_problem(seed=33)
    calls = []
    gram = linalg.weighted_gram

    def counting(rows, weights, scale=1.0):
        calls[-1] += 1
        return gram(rows, weights, scale)

    monkeypatch.setattr(problem, "weighted_gram", counting)
    monkeypatch.setattr(linalg, "weighted_gram", counting)
    for _ in range(2):
        calls.append(0)
        run_experiment("nl2", p, random_r(1), Budget(max_iters=3), seed=0)
    # the two runs are the same run, but the second reuses the mean gram
    assert calls[0] == calls[1] + 1


def test_mean_gram_is_read_only():
    g = small_problem(seed=34).mean_gram()
    with pytest.raises(ValueError):
        g[0, 0] = 1.0
