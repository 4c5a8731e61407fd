import dataclasses
import math

import numpy as np
import pytest

from distnewton.compressors import bernoulli, identity, random_r
from distnewton.data import Dataset
from distnewton.errors import ConfigError, InputError, NumericalError
from distnewton import linalg, methods
from distnewton.linalg import smallest_eigenvalue
from distnewton.methods import (DianaState, bfgs_init, bfgs_step, dcgd_round,
                                default_eta, diana_init, diana_round, gd_step,
                                learn_init, learn_round, mn_step, newton_step,
                                ns_step, reference_optimum, solve_cubic_model)
from distnewton.problem import make_problem
from stand_ins import (a2a_shaped_problem, cached_a2a, phishing_shaped_problem,
                       small_problem)

EPS = np.finfo(np.float64).eps


class TestNewton:
    def test_squared_loss_one_step(self):
        p = small_problem("squared", lam=0.1)
        x1 = newton_step(p, np.zeros(p.d))
        assert np.linalg.norm(p.grad(x1)) <= 1e-12

    def test_fixed_point(self):
        p = small_problem("logistic", lam=1e-2)
        star = reference_optimum(p).x_star
        moved = newton_step(p, star)
        assert np.linalg.norm(moved - star) <= 1e-12 * (1 + np.linalg.norm(star))

    def test_local_quadratic_contraction(self):
        p = small_problem("logistic", lam=1e-2, count=60, seed=3)
        o = reference_optimum(p)
        g = np.random.default_rng(1)
        delta = g.standard_normal(p.d)
        x = o.x_star + 1e-3 * delta / np.linalg.norm(delta)
        e0 = np.linalg.norm(x - o.x_star)
        e1 = np.linalg.norm(newton_step(p, x) - o.x_star)
        assert e1 <= 1e-3 * e0  # quadratic regime: error drops by orders


def counted_reference_optimum(monkeypatch, p):
    """reference_optimum(p) and the number of Newton steps it took."""
    steps = 0

    def counting(p, x):
        nonlocal steps
        steps += 1
        return newton_step(p, x)

    monkeypatch.setattr(methods, "newton_step", counting)
    return reference_optimum(p), steps


def twenty_newton_steps(p):
    x = np.zeros(p.d)
    for _ in range(20):
        x = newton_step(p, x)
    return x


STOP_PROBLEMS = {"a2a": lambda: cached_a2a(1e-3),
                 "phishing": lambda: phishing_shaped_problem(1e-4),
                 "a2a-squared": lambda: a2a_shaped_problem(1e-3, "squared")}


class TestReferenceOptimum:
    def test_squared_loss_grad_floor(self):
        p = small_problem("squared", lam=0.1)
        o = reference_optimum(p)
        assert o.grad_norm <= 1e-13

    def test_logistic_grad_floor(self):
        p = small_problem("logistic", lam=1e-3)
        o = reference_optimum(p)
        assert o.grad_norm <= 1e-8

    def test_oracle_shapes(self):
        p = small_problem()
        o = reference_optimum(p)
        assert o.h_star.shape == (p.n, p.m)
        assert o.hessian_star.shape == (p.d, p.d)
        assert math.isfinite(o.value_star)

    @pytest.mark.parametrize("name", list(STOP_PROBLEMS))
    def test_stops_at_rounding_level_on_the_fixed_loops_optimum(self, monkeypatch, name):
        p = STOP_PROBLEMS[name]()
        o, steps = counted_reference_optimum(monkeypatch, p)
        assert steps <= 2 if name.endswith("squared") else steps < 20
        x = twenty_newton_steps(p)
        assert np.linalg.norm(o.x_star - x) <= 4 * EPS * np.linalg.norm(x)
        assert o.value_star == p.value(x)

    def test_max_steps_caps_the_steps(self, monkeypatch, a2a_1e3):
        monkeypatch.setattr(methods, "REFOPT_MAX_STEPS", 3)
        _, steps = counted_reference_optimum(monkeypatch, a2a_1e3)
        assert steps == 3


class TestNewtonStar:
    def test_matches_newton_on_squared(self):
        p = small_problem("squared", lam=0.1)
        o = reference_optimum(p)
        x = np.full(p.d, 0.7)
        assert np.allclose(ns_step(p, o, x), newton_step(p, x), atol=1e-12)

    def test_fixed_point(self):
        p = small_problem("logistic", lam=1e-2)
        o = reference_optimum(p)
        assert np.linalg.norm(ns_step(p, o, o.x_star) - o.x_star) <= 1e-12


class TestMaxNewton:
    def test_beta_one_at_optimum(self):
        p = small_problem("logistic", lam=1e-2)
        o = reference_optimum(p)
        a = mn_step(p, o, o.x_star)
        b = ns_step(p, o, o.x_star)
        assert np.allclose(a, b, atol=1e-12)

    def test_squared_loss_one_step(self):
        p = small_problem("squared", lam=0.1)
        o = reference_optimum(p)
        x1 = mn_step(p, o, np.full(p.d, 0.3))
        assert np.linalg.norm(p.grad(x1)) <= 1e-12

    def test_rejects_nonpositive_coefficients(self):
        p = small_problem("logistic", lam=1e-2)
        o = reference_optimum(p)
        bad = dataclasses.replace(o, h_star=np.zeros_like(o.h_star))
        with pytest.raises(ConfigError):
            mn_step(p, bad, np.zeros(p.d))

    def test_quadratic_ratio_within_rate_bound(self, a2a_1e3, a2a_1e3_oracles):
        from distnewton.methods import mn_rate_constant
        p, o = a2a_1e3, a2a_1e3_oracles
        bound = mn_rate_constant(p, o)
        g = np.random.default_rng(77)
        delta = g.standard_normal(p.d)
        x = o.x_star + 1e-2 * delta / np.linalg.norm(delta)
        ratios = []
        for _ in range(3):
            x_new = mn_step(p, o, x)
            e_old = np.linalg.norm(x - o.x_star)
            e_new = np.linalg.norm(x_new - o.x_star)
            if e_old >= 1e-7 and e_new >= 1e-14:
                ratios.append(e_new / e_old ** 2)
            x = x_new
        assert ratios and all(r <= bound for r in ratios)


class TestCubicModel:
    def test_zero_gradient(self):
        h = np.eye(3)
        assert np.array_equal(solve_cubic_model(h, np.zeros(3), 2.0), np.zeros(3))

    def test_scalar_closed_form(self):
        # 1 + s + 3|s|s = 0 -> negative root of 3s^2 - s - 1
        s = solve_cubic_model(np.array([[1.0]]), np.array([1.0]), 6.0)
        assert s[0] == pytest.approx((1.0 - math.sqrt(13.0)) / 6.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            solve_cubic_model(np.eye(2), np.array([bad, 1.0]), 1.0)

    def test_zero_cubic_coefficient_is_spd_solve(self):
        g = np.random.default_rng(0)
        h = np.diag([2.0, 5.0])
        rhs = g.standard_normal(2)
        s = solve_cubic_model(h, rhs, 0.0)
        assert np.allclose(h @ s, -rhs, atol=1e-12)

    @pytest.mark.parametrize("family, seed", [
        *(pytest.param("indefinite", seed, id=str(seed)) for seed in range(30)),
        *(pytest.param("spd", seed, id=f"spd-{seed}") for seed in range(30))])
    def test_residual_on_random_instances(self, family, seed):
        g = np.random.default_rng(seed)
        if family == "indefinite":
            d = int(g.integers(1, 8))
            a = g.standard_normal((d, d))
            h = 0.5 * (a + a.T)
            rhs = g.standard_normal(d)
            m_cubic = float(g.uniform(0.1, 10.0))
        else:
            # like cnl's: eigenvalues from 1e-8 to 1e2, ||g|| and M over decades
            d = int(g.integers(1, 41))
            q, _ = np.linalg.qr(g.standard_normal((d, d)))
            h = (q * 10.0 ** g.uniform(-8.0, 2.0, d)) @ q.T
            h = 0.5 * (h + h.T)
            rhs = g.standard_normal(d) * 10.0 ** g.uniform(-6.0, 3.0)
            m_cubic = float(10.0 ** g.uniform(-3.0, 3.0))
        s = solve_cubic_model(h, rhs, m_cubic)
        res = np.linalg.norm(rhs + h @ s
                             + 0.5 * m_cubic * np.linalg.norm(s) * s)
        assert res <= 1e-9 * (np.linalg.norm(rhs) + 1.0)

    def test_hard_case(self):
        # the pole is at rho = 8/3; g needs a component on the -2 eigenvector
        h = np.diag([-2.0, 1.0])
        for g0 in (0.0, 1e-12):
            with pytest.raises(NumericalError, match="smallest eigenspace"):
                solve_cubic_model(h, np.array([g0, 1.0]), 1.5)
        rhs = np.array([1e-3, 1.0])
        s = solve_cubic_model(h, rhs, 1.5)
        res = np.linalg.norm(rhs + h @ s + 0.75 * np.linalg.norm(s) * s)
        assert res <= 1e-9 * (np.linalg.norm(rhs) + 1.0)

    # a curvature that dwarfs g: 1/||s||**3 overflows from lam ~1e102, the start
    # rho is 0 past lam ~1e154, and ||s||**2 underflows to 0 at 1e200
    @pytest.mark.parametrize("lam", [1e150, 1e160, 1e200, 1e308])
    def test_step_past_the_float_range_raises_numerical_error(self, lam):
        with pytest.raises(NumericalError, match="leaves the float range"):
            solve_cubic_model(lam * np.eye(3), np.full(3, 0.1), 0.1)

    def test_second_order_condition(self):
        # global minimizer needs H + (M/2)||s|| I psd even for indefinite H
        g = np.random.default_rng(5)
        h = np.diag([-2.0, 1.0])
        rhs = g.standard_normal(2)
        m_cubic = 1.5
        s = solve_cubic_model(h, rhs, m_cubic)
        shifted = h + 0.5 * m_cubic * np.linalg.norm(s) * np.eye(2)
        assert smallest_eigenvalue(shifted) >= -1e-9


def tiny_scalar_problem():
    ds = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
    return make_problem(ds, n=1, shuffle_seed=0, loss_kind="logistic", lam=0.1)


class TestNl1:
    def test_scalar_arithmetic_oracle(self):
        # single sample a=1, b=+1, lam=0.1, h(0)=0.25: x1 = 0.5/0.35
        p = tiny_scalar_problem()
        state = learn_init(p, np.zeros(1))
        assert state.h[0, 0] == 0.25
        out = learn_round(p, state, identity(), seed=0, eta=1.0)
        assert out.state.x[0] == pytest.approx(0.5 / 0.35, rel=1e-12)
        assert out.state.h[0, 0] == pytest.approx(0.25)

    def test_squared_loss_identity_eta_one_is_newton(self):
        p = small_problem("squared", lam=0.1)
        x0 = np.zeros(p.d)
        state = learn_init(p, x0)
        out = learn_round(p, state, identity(), seed=0, eta=1.0)
        assert np.allclose(out.state.x, newton_step(p, x0), atol=1e-12)
        assert np.linalg.norm(p.grad(out.state.x)) <= 1e-12

    def test_non_fire_keeps_coefficients(self):
        p = small_problem("logistic", lam=1e-2)
        x0 = np.zeros(p.d)
        state = learn_init(p, x0)
        spec = bernoulli(identity(), 1e-12)     # never fires in practice
        out = learn_round(p, state, spec, seed=1, eta=1.0)
        assert np.array_equal(out.state.h, state.h)
        # the step still moved using the stale estimate
        assert not np.array_equal(out.state.x, state.x)

    def test_cone_invariant_and_psd(self):
        p = small_problem("logistic", lam=1e-2, seed=9)
        spec = random_r(2)
        eta = default_eta(spec, p.m)
        state = learn_init(p, np.zeros(p.d))
        for k in range(30):
            state = learn_round(p, state, spec, seed=5, eta=eta).state
            assert np.min(state.h) >= 0.0
        assert smallest_eigenvalue(state.h_matrix) >= -1e-10

    def test_incremental_matches_full_rebuild(self):
        p = small_problem("logistic", lam=1e-2, seed=11)
        spec = random_r(3)
        eta = default_eta(spec, p.m)
        state = learn_init(p, np.zeros(p.d))
        for _ in range(50):
            state = learn_round(p, state, spec, seed=6, eta=eta).state
        rebuilt = p.data_gram(state.h)
        drift = np.linalg.norm(state.h_matrix - rebuilt, "fro")
        assert drift <= 1e-8 * np.linalg.norm(rebuilt, "fro")

    def test_option1_changed_indices_match_coefficient_change(self):
        p = small_problem("logistic", lam=1e-2, seed=12)
        spec = random_r(1)
        state = learn_init(p, np.zeros(p.d))
        out = learn_round(p, state, spec, seed=7, eta=default_eta(spec, p.m))
        for i, sent in enumerate(out.changed):
            changed = np.flatnonzero(out.state.h[i] != state.h[i])
            assert np.array_equal(np.flatnonzero(sent), changed)
            assert np.count_nonzero(sent) <= 1


class TestNl2:
    def test_fresh_coefficients_give_newton_step(self):
        p = small_problem("logistic", lam=1e-2)
        x0 = np.zeros(p.d)
        state = learn_init(p, x0, gamma=p.loss.gamma)
        out = learn_round(p, state, identity(), seed=0, eta=1.0)
        assert out.beta == pytest.approx(1.0)
        assert np.allclose(out.state.x, newton_step(p, x0), atol=1e-10)

    def test_squared_loss_one_step(self):
        p = small_problem("squared", lam=0.1)
        x0 = np.zeros(p.d)
        state = learn_init(p, x0, gamma=1.0)
        out = learn_round(p, state, identity(), seed=0, eta=1.0)
        assert np.linalg.norm(p.grad(out.state.x)) <= 1e-11

    def test_domination_every_round(self):
        from distnewton.methods import _dominated_estimate
        p = small_problem("logistic", lam=1e-2, seed=13)
        spec = random_r(2)
        eta = default_eta(spec, p.m)
        state = learn_init(p, np.zeros(p.d), gamma=p.loss.gamma)
        for _ in range(25):
            h_at_x = p.h_all(state.x)
            h_est, beta, _ = _dominated_estimate(state, h_at_x)
            gap = linalg.add_diagonal(h_est, p.lam) - p.hessian(state.x)
            assert smallest_eigenvalue(gap) >= -1e-8
            assert beta > 0
            state = learn_round(p, state, spec, seed=8, eta=eta).state
            assert np.max(np.abs(state.h)) <= p.loss.gamma + 1e-15

    def test_works_with_zero_lambda(self):
        p = small_problem("logistic", lam=0.0, count=60, seed=14)
        state = learn_init(p, np.zeros(p.d), gamma=p.loss.gamma)
        out = learn_round(p, state, identity(), seed=0, eta=1.0)
        assert np.all(np.isfinite(out.state.x))


class TestCnl:
    def test_reduces_to_nl2_when_cubic_term_vanishes(self):
        p = small_problem("squared", lam=0.1, seed=15)
        x0 = np.zeros(p.d)
        a = learn_round(p, learn_init(p, x0, gamma=1.0), random_r(2), seed=3, eta=0.25)
        b = learn_round(p, learn_init(p, x0, gamma=1.0, cubic_coeff=0.0),
                        random_r(2), seed=3, eta=0.25)
        assert np.array_equal(a.state.x, b.state.x)
        assert np.array_equal(a.state.h, b.state.h)

    def test_monotone_decrease(self):
        p = small_problem("logistic", lam=1e-3, count=60, seed=16)
        m_cubic = p.constants().hessian_lipschitz
        spec = bernoulli(random_r(1), 0.25)
        eta = default_eta(spec, p.m)
        state = learn_init(p, np.zeros(p.d), gamma=p.loss.gamma, cubic_coeff=m_cubic)
        values = [p.value(state.x)]
        for _ in range(40):
            state = learn_round(p, state, spec, seed=9, eta=eta).state
            values.append(p.value(state.x))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_converges_toward_optimum(self):
        p = small_problem("logistic", lam=1e-2, count=60, seed=17)
        o = reference_optimum(p)
        m_cubic = p.constants().hessian_lipschitz
        state = learn_init(p, np.zeros(p.d), gamma=p.loss.gamma, cubic_coeff=m_cubic)
        for _ in range(60):
            state = learn_round(p, state, identity(), seed=10, eta=1.0).state
        assert p.value(state.x) - o.value_star <= 1e-10


class TestFirstOrder:
    def test_gd_decreases_value(self):
        p = small_problem("logistic", lam=1e-2)
        x0 = np.zeros(p.d)
        x1 = gd_step(p, x0, 1.0 / p.grad_lipschitz_bound())
        assert p.value(x1) < p.value(x0)

    def test_dcgd_identity_equals_gd(self):
        p = small_problem("logistic", lam=1e-2)
        x0 = np.full(p.d, 0.2)
        alpha = 0.5 / p.grad_lipschitz_bound()
        x_dcgd, _ = dcgd_round(p, x0, identity(), seed=0, iteration=0,
                               stepsize=alpha)
        assert np.allclose(x_dcgd, gd_step(p, x0, alpha), atol=1e-14)

    def test_diana_with_grad_shifts_and_identity_equals_gd(self):
        p = small_problem("logistic", lam=1e-2)
        x0 = np.full(p.d, -0.1)
        alpha = 0.5 / p.grad_lipschitz_bound()
        state = DianaState(x=x0.copy(),
                           shifts=p.local_grad(slice(None), x0) + p.lam * x0)
        state, _ = diana_round(p, state, identity(), seed=0,
                               stepsize=alpha, theta=1.0)
        assert np.allclose(state.x, gd_step(p, x0, alpha), atol=1e-13)

    def test_diana_shift_learning_reduces_shift_error(self):
        p = small_problem("logistic", lam=1e-2, seed=19)
        state = diana_init(p, np.zeros(p.d))
        spec = random_r(2)
        theta = 1.0 / (p.d / 2)
        err0 = None
        for k in range(200):
            g_all = np.stack([p.local_grad(i, state.x) + p.lam * state.x
                              for i in range(p.n)])
            err = float(np.linalg.norm(state.shifts - g_all))
            if err0 is None:
                err0 = err
            state, _ = diana_round(p, state, spec, seed=11,
                                   stepsize=1e-3, theta=theta)
        assert err < err0


class TestBfgs:
    def test_squared_loss_one_step(self):
        p = small_problem("squared", lam=0.1)
        state = bfgs_init(p, np.zeros(p.d))
        state = bfgs_step(p, state)
        assert np.linalg.norm(p.grad(state.x)) <= 1e-12

    def test_zero_curvature_skip_recorded(self):
        from distnewton.methods import BfgsState
        p = small_problem("squared", lam=0.1)
        init = bfgs_init(p, np.zeros(p.d))
        # exactly stationary state: s = 0 so s.y = 0 and the update must skip
        state = BfgsState(x=init.x, inv_hessian=init.inv_hessian,
                          grad=np.zeros(p.d))
        state = bfgs_step(p, state)
        assert state.skipped == 1
        assert np.array_equal(state.inv_hessian, init.inv_hessian)

    def test_converges_on_logistic(self):
        p = small_problem("logistic", lam=1e-2, count=60, seed=21)
        o = reference_optimum(p)
        state = bfgs_init(p, np.zeros(p.d))
        for _ in range(60):
            state = bfgs_step(p, state)
        assert p.value(state.x) - o.value_star <= 1e-8
