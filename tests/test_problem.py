import math

import numpy as np
import pytest

from distnewton import linalg
from distnewton.data import Dataset, partition, synth_artificial
from distnewton.errors import InputError
from distnewton.linalg import smallest_eigenvalue
from distnewton.problem import LOGISTIC_NU, loss_model, make_problem

from stand_ins import phishing_shaped_problem
from test_worker_pass import dense_problem, legacy_worker, start_point


def tiny_problem(loss="logistic", lam=0.0, n=2, count=10, d=3, seed=0):
    g = np.random.default_rng(seed)
    ds = Dataset(features=g.standard_normal((count, d)),
                 labels=np.where(g.random(count) < 0.5, -1.0, 1.0))
    return make_problem(ds, n=n, shuffle_seed=seed, loss_kind=loss, lam=lam)


# Reference loss fields, one function per derivative: the fused kernel
# ``LossModel.derivs`` is pinned to them bit for bit.

def reference_sigmoid(z):
    # exp of a nonpositive argument never overflows; for z < 0, e == exp(z)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_softplus(z):
    # log(1 + exp(z)) without overflow for large positive z
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


REFERENCE_LOSS_FIELDS = {      # kind -> (phi, dphi, ddphi)
    "logistic": (lambda t, b: reference_softplus(-b * t),
                 lambda t, b: -b * reference_sigmoid(-b * t),
                 lambda t, b: ((b * b) * reference_sigmoid(b * t)
                               * reference_sigmoid(-b * t))),
    "squared": (lambda t, b: 0.5 * (t - b) ** 2,
                lambda t, b: t - b,
                lambda t, b: np.ones_like(t)),
}


def fd_gradient(p, x, step):
    out = np.empty_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = step
        out[j] = (p.value(x + e) - p.value(x - e)) / (2 * step)
    return out


def fd_hessian(p, x, step):
    d = len(x)
    out = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        out[:, j] = (p.grad(x + e) - p.grad(x - e)) / (2 * step)
    return 0.5 * (out + out.T)


class TestLossModels:
    def test_logistic_constants(self):
        lm = loss_model("logistic")
        assert lm.gamma == 0.25
        assert lm.nu == pytest.approx(1.0 / (6.0 * math.sqrt(3.0)))

    def test_squared_constants(self):
        lm = loss_model("squared")
        assert lm.gamma == 1.0 and lm.nu == 0.0

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            loss_model("hinge")

    def test_logistic_nu_from_grid_search(self):
        # independent oracle: max |phi'''| via dense differentiation of phi''
        lm = loss_model("logistic")
        t = np.linspace(-20, 20, 400001)
        b = np.ones_like(t)
        dd = lm.derivs(t, b)[2]
        third = np.abs(np.diff(dd) / np.diff(t))
        assert np.max(third) == pytest.approx(LOGISTIC_NU, rel=1e-6)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_second_derivative_bounded_by_gamma(self, kind):
        lm = loss_model(kind)
        t = np.linspace(-50, 50, 10001)
        for b in (-1.0, 1.0):
            dd = lm.derivs(t, np.full_like(t, b))[2]
            assert np.max(np.abs(dd)) <= lm.gamma + 1e-12

    def test_logistic_second_derivative_lipschitz(self):
        lm = loss_model("logistic")
        g = np.random.default_rng(0)
        t = g.uniform(-30, 30, 2000)
        s = g.uniform(-30, 30, 2000)
        b = np.where(g.random(2000) < 0.5, -1.0, 1.0)
        lhs = np.abs(lm.derivs(t, b)[2] - lm.derivs(s, b)[2])
        assert np.all(lhs <= lm.nu * np.abs(t - s) + 1e-12)

    def test_logistic_value_is_overflow_safe(self):
        lm = loss_model("logistic")
        t = np.array([-1e4, 1e4])
        b = np.array([1.0, 1.0])
        vals = lm.derivs(t, b)[0]
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(1e4)
        assert vals[1] == pytest.approx(0.0, abs=1e-300)


class TestCoefficients:
    def test_logistic_at_zero(self):
        p = tiny_problem("logistic")
        for i in range(p.n):
            assert np.allclose(p.h_coeffs(i, np.zeros(p.d)), 0.25, atol=1e-15)

    def test_squared_everywhere(self):
        p = tiny_problem("squared")
        x = np.random.default_rng(1).standard_normal(p.d)
        assert np.array_equal(p.h_coeffs(0, x), np.ones(p.m))

    def test_logistic_known_sigmoid_point(self):
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        p = make_problem(ds, n=1, shuffle_seed=0, loss_kind="logistic")
        h = p.h_coeffs(0, np.array([math.log(3.0)]))
        assert h[0] == pytest.approx(0.1875, abs=1e-15)

    def test_logistic_range(self):
        p = tiny_problem("logistic")
        x = np.random.default_rng(2).standard_normal(p.d) * 3
        h = p.h_all(x)
        assert np.all(h > 0) and np.all(h <= 0.25)

    def test_h_lipschitz_in_x(self):
        p = tiny_problem("logistic", seed=5)
        c = p.constants()
        g = np.random.default_rng(3)
        for _ in range(20):
            x, y = g.standard_normal(p.d), g.standard_normal(p.d)
            for i in range(p.n):
                lhs = np.abs(p.h_coeffs(i, x) - p.h_coeffs(i, y))
                norms = np.linalg.norm(p.worker_rows(i), axis=1)
                assert np.all(lhs <= c.nu * norms * np.linalg.norm(x - y) + 1e-12)


def masked_sigmoid(z):
    """The two-branch reference form: each side exponentiates a nonpositive value."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bitwise_the_masked_form():
    tiny = np.finfo(np.float64).smallest_subnormal
    normal = np.finfo(np.float64).tiny
    special = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 709.79, -709.79,
                        np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                        normal, -normal, 1e308, -1e308])
    z = np.concatenate([special, np.linspace(-745.0, 745.0, 200_001),
                        np.random.default_rng(0).standard_normal(10_000) * 30.0])
    fast, ref = reference_sigmoid(z), masked_sigmoid(z)
    assert np.array_equal(fast.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("kind", ["logistic", "squared"])
def test_fused_derivs_are_bitwise_the_separate_fields(kind):
    lm = loss_model(kind)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0,
                        5e-324, -5e-324, np.inf, -np.inf])
    t = np.concatenate([special, np.random.default_rng(1).standard_normal(5000) * 20.0])
    for b_value in (1.0, -1.0):
        b = np.full_like(t, b_value)
        fused = lm.derivs(t, b)
        for got, field_fn in zip(fused, REFERENCE_LOSS_FIELDS[kind]):
            assert np.array_equal(got.view(np.uint64), field_fn(t, b).view(np.uint64))


class TestEvaluationSlot:
    @pytest.mark.parametrize("i", [0, 5, slice(None), slice(2, 7), slice(3, 4)])
    def test_worker_terms_equal_the_per_worker_formula(self, i):
        p = dense_problem()
        x = start_point(p)
        workers = range(p.n)[i] if isinstance(i, slice) else [i]
        legacy = [legacy_worker(p, w, x) for w in workers]
        h, grads = p.h_coeffs(i, x), p.local_grad(i, x)
        if isinstance(i, slice):
            assert h.shape == (len(workers), p.m) and grads.shape == (len(workers), p.d)
        else:
            h, grads = h[None], grads[None]
        assert np.array_equal(h, np.stack([hc for hc, _ in legacy]))
        assert np.array_equal(grads, np.stack([gr for _, gr in legacy]))

    def test_mutating_x_in_place_gives_fresh_results(self):
        p = dense_problem()
        x = start_point(p)
        before = (p.value(x), p.grad(x), p.h_all(x).copy(), p.hessian(x))
        x *= 2.0
        fresh = dense_problem()
        assert p.value(x) == fresh.value(x) != before[0]
        assert np.array_equal(p.grad(x), fresh.grad(x))
        assert not np.array_equal(p.grad(x), before[1])
        assert np.array_equal(p.h_all(x), fresh.h_all(x))
        assert not np.array_equal(p.h_all(x), before[2])
        assert np.array_equal(p.hessian(x), fresh.hessian(x))
        assert np.array_equal(p.local_grad(slice(None), x),
                              fresh.local_grad(slice(None), x))

    def test_changing_lam_gives_fresh_results(self):
        p = dense_problem(lam=1e-2)
        x = start_point(p)
        value, grad, hess = p.value(x), p.grad(x), p.hessian(x)
        p.lam = 0.5
        fresh = dense_problem(lam=0.5)
        assert p.value(x) == fresh.value(x) != value
        assert np.array_equal(p.grad(x), fresh.grad(x))
        assert not np.array_equal(p.grad(x), grad)
        assert np.array_equal(p.hessian(x), fresh.hessian(x))
        assert not np.array_equal(p.hessian(x), hess)
        assert np.array_equal(p.value_and_grad(x)[1], fresh.grad(x))

    def test_returned_arrays_cannot_change_a_later_call(self):
        p = dense_problem()
        x = start_point(p)
        h, grads, g = p.h_all(x), p.local_grad(slice(None), x), p.grad(x)
        ref = (h.copy(), grads.copy(), g.copy(), p.value(x))
        for view in (h, grads, p.h_coeffs(1, x), p.local_grad(2, x)):
            with pytest.raises(ValueError):
                view[...] = 7.0
        g[:] = 7.0                       # a fresh array, owned by the caller
        _, g_again = p.value_and_grad(x)
        g_again[:] = 9.0
        assert np.array_equal(p.h_all(x), ref[0])
        assert np.array_equal(p.local_grad(slice(None), x), ref[1])
        assert np.array_equal(p.grad(x), ref[2])
        assert p.value(x) == ref[3]


class TestValueAndGradient:
    def test_logistic_value_at_zero(self):
        p = tiny_problem("logistic", lam=0.0)
        assert p.value(np.zeros(p.d)) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_logistic_gradient_at_zero(self):
        p = tiny_problem("logistic", lam=0.0)
        expected = -(p.stacked_labels[:, None] * p.stacked_rows).mean(axis=0) / 2.0
        assert np.allclose(p.grad(np.zeros(p.d)), expected, atol=1e-14)

    def test_squared_gradient_closed_form(self):
        p = tiny_problem("squared", lam=0.0)
        x = np.random.default_rng(4).standard_normal(p.d)
        resid = p.stacked_rows @ x - p.stacked_labels
        expected = p.stacked_rows.T @ resid / len(resid)
        assert np.allclose(p.grad(x), expected, atol=1e-13)

    def test_grad_is_mean_of_local_grads_plus_reg(self):
        p = tiny_problem("logistic", lam=0.05)
        x = np.random.default_rng(5).standard_normal(p.d)
        local = np.mean([p.local_grad(i, x) for i in range(p.n)], axis=0)
        assert np.allclose(p.grad(x), local + p.lam * x, atol=1e-14)

    @pytest.mark.parametrize("shape", ["a2a", "phishing", "tiny-squared"])
    def test_value_and_grad_is_bitwise_the_separate_calls(self, shape, a2a_1e3):
        if shape == "a2a":
            p = a2a_1e3
        elif shape == "phishing":
            p = phishing_shaped_problem(1e-4)
        else:
            p = tiny_problem("squared", lam=0.05)
        g = np.random.default_rng(3)
        for scale in (0.0, 0.3, 3.0):
            x = scale * g.standard_normal(p.d)
            value, grad = p.value_and_grad(x)
            assert value == p.value(x)
            assert np.array_equal(grad, p.grad(x))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        g = np.random.default_rng(seed)
        loss = "logistic" if seed % 2 == 0 else "squared"
        p = tiny_problem(loss, lam=float(g.random() * 0.1), n=2,
                         count=12, d=4, seed=seed)
        x = g.standard_normal(p.d)
        step = 1e-5 * (1.0 + np.linalg.norm(x))
        fd = fd_gradient(p, x, step)
        grad = p.grad(x)
        assert np.linalg.norm(fd - grad) <= 1e-5 * (1.0 + np.linalg.norm(grad))


class TestHessian:
    def test_squared_loss_constant(self):
        p = tiny_problem("squared", lam=0.01)
        g = np.random.default_rng(6)
        h1 = p.hessian(g.standard_normal(p.d))
        h2 = p.hessian(g.standard_normal(p.d))
        assert np.array_equal(h1, h2)

    def test_single_point_logistic(self):
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        p = make_problem(ds, n=1, shuffle_seed=0, loss_kind="logistic", lam=0.0)
        assert p.hessian(np.zeros(1))[0, 0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_hessian_matches_finite_differences(self, seed):
        g = np.random.default_rng(seed + 100)
        p = tiny_problem("logistic", lam=0.02, n=2, count=12, d=4, seed=seed)
        x = g.standard_normal(p.d)
        step = 1e-5 * (1.0 + np.linalg.norm(x))
        fd = fd_hessian(p, x, step)
        h = p.hessian(x)
        assert np.array_equal(h, h.T)
        assert np.linalg.norm(fd - h, "fro") <= 1e-4 * (1.0 + np.linalg.norm(h, "fro"))

    def test_logistic_data_part_is_psd(self):
        p = tiny_problem("logistic", lam=0.3, seed=8)
        x = np.random.default_rng(9).standard_normal(p.d)
        data_part = linalg.add_diagonal(p.hessian(x), -p.lam)
        assert smallest_eigenvalue(data_part) >= -1e-10


class TestConstants:
    def test_unit_rows(self):
        feats = np.eye(4)
        ds = Dataset(features=feats, labels=np.array([1.0, -1.0, 1.0, -1.0]))
        p = make_problem(ds, n=2, shuffle_seed=0)
        assert p.constants().max_row_norm == pytest.approx(1.0)

    def test_squared_loss_kills_cubic_term(self):
        p = tiny_problem("squared")
        c = p.constants()
        assert c.nu == 0.0 and c.hessian_lipschitz == 0.0

    def test_radius_over_partitioned_points_only(self):
        # 3 points, n=2 -> one dropped; radius must reflect assigned rows
        feats = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        ds = Dataset(features=feats, labels=np.array([1.0, -1.0, 1.0]))
        p = make_problem(ds, n=2, shuffle_seed=0)
        norms = np.linalg.norm(p.stacked_rows, axis=1)
        assert p.constants().max_row_norm == pytest.approx(np.max(norms))

    def test_hessian_lipschitz_product(self):
        p = tiny_problem("logistic", seed=11)
        c = p.constants()
        assert c.hessian_lipschitz == pytest.approx(c.nu * c.max_row_norm ** 3)

    def test_computed_once_and_matches_the_rows(self):
        p = tiny_problem("logistic", count=20, d=5, seed=3)
        c = p.constants()
        assert p.constants() is c
        radius = float(np.max(np.linalg.norm(p.stacked_rows, axis=1)))
        assert c.max_row_norm == radius
        assert c.hessian_lipschitz == LOGISTIC_NU * radius ** 3

    def test_negative_lambda_rejected(self):
        ds = synth_artificial(2, 2, 2, seed=0)
        with pytest.raises(InputError):
            make_problem(ds, n=2, shuffle_seed=0, lam=-1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        ds = synth_artificial(2, 2, 2, seed=0)
        with pytest.raises(InputError, match="regularization"):
            make_problem(ds, n=2, shuffle_seed=0, lam=lam)
