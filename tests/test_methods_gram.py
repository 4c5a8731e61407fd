import numpy as np
import pytest

from distnewton.compressors import random_r
from distnewton.data import Dataset
from distnewton.methods import default_eta, learn_init, learn_round
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
    drift = np.linalg.norm(state.h_matrix.entries - rebuilt.entries, "fro")
    assert drift <= 1e-8 * rebuilt.frobenius()
