import numpy as np
import pytest

from distnewton import linalg, methods, problem
from distnewton.compressors import random_r
from distnewton.data import Dataset
from distnewton.harness import Budget, run_experiment
from distnewton.methods import REBUILD_PERIOD, default_eta, learn_init, learn_round
from distnewton.problem import make_problem
from stand_ins import cached_optimum


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
    m_cubic = p.constants().hessian_lipschitz if variant == "cnl" else None
    state = learn_init(p, np.zeros(p.d), gamma, m_cubic)
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
    state = learn_init(p, np.zeros(p.d), gamma)
    for _ in range(REBUILD_PERIOD + 2):
        state = learn_round(p, state, spec, seed=5, eta=eta).state
        assert np.array_equal(state.h_matrix, state.h_matrix.T)
    assert state.rebuild_drift > 0.0     # the rebuild ran


@pytest.mark.parametrize("variant", ["nl1", "nl2"])
def test_gram_is_rebuilt_every_rebuild_period_rounds(variant, monkeypatch):
    # after REBUILD_PERIOD rounds, and not one round earlier, the gram is the
    # rebuild from the coefficients (shifted by 2*gamma for nl2) bit for bit,
    # and rebuild_drift is its relative distance from the incremental gram
    p = small_problem(seed=32)
    spec = random_r(2)
    eta = default_eta(spec, p.m)
    gamma = None if variant == "nl1" else p.loss.gamma
    shift = 0.0 if gamma is None else 2.0 * gamma

    def states():
        state = learn_init(p, np.zeros(p.d), gamma)
        for _ in range(REBUILD_PERIOD):
            state = learn_round(p, state, spec, seed=5, eta=eta).state
            yield state

    *_, early, at_period = states()
    assert not np.array_equal(early.h_matrix, p.data_gram(early.h + shift))
    rebuilt = p.data_gram(at_period.h + shift)
    assert np.array_equal(at_period.h_matrix, rebuilt)
    monkeypatch.setattr(methods, "REBUILD_PERIOD", 2 * REBUILD_PERIOD)
    *_, incremental = states()
    assert np.array_equal(incremental.h, at_period.h)
    drift = np.linalg.norm(incremental.h_matrix - rebuilt) / np.linalg.norm(rebuilt)
    assert at_period.rebuild_drift > 0.0
    assert at_period.rebuild_drift == pytest.approx(drift, rel=1e-12, abs=0.0)


def test_mean_gram_is_built_once_per_problem(monkeypatch):
    p = small_problem(seed=33)
    o = cached_optimum(p)        # before the count: x*'s Hessian is a gram too
    calls = []
    gram = linalg.weighted_gram

    def counting(rows, weights, scale=1.0):
        calls[-1] += 1
        return gram(rows, weights, scale)

    monkeypatch.setattr(problem, "weighted_gram", counting)
    monkeypatch.setattr(linalg, "weighted_gram", counting)
    for _ in range(2):
        calls.append(0)
        run_experiment("nl2", p, random_r(1), Budget(max_iters=3), seed=0, oracles=o)
    # the two runs are the same run, but the second reuses the mean gram
    assert calls[0] == calls[1] + 1


def test_mean_gram_is_read_only():
    g = small_problem(seed=34).mean_gram()
    with pytest.raises(ValueError):
        g[0, 0] = 1.0
