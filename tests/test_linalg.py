import ctypes

import numpy as np
import pytest

from distnewton import linalg
from distnewton.errors import InputError, SingularMatrixError
from distnewton.linalg import (PD_PIVOT_RTOL, cholesky_spd,
                               rank1_accumulate, solve_cholesky, solve_spd,
                               spd_inverse, sym_eig, weighted_gram)

EPS = np.finfo(np.float64).eps


def random_symmetric(seed):
    g = np.random.default_rng(seed)
    d = int(g.integers(2, 51))
    a = g.standard_normal((d, d))
    return 0.5 * (a + a.T), g


def random_spd(g, d, cond=1e8):
    q, _ = np.linalg.qr(g.standard_normal((d, d)))
    eigs = np.logspace(-np.log10(cond), 0, d)
    a = q @ np.diag(eigs) @ q.T
    return 0.5 * (a + a.T)


class TestSymEig:
    def test_identity(self):
        e = sym_eig(np.eye(3))
        assert np.allclose(e.eigenvalues, [1, 1, 1], atol=1e-14)

    def test_two_by_two(self):
        # roots of x^2 - 4x + 3
        e = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(e.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        e = sym_eig(np.diag([5.0, -2.0, 0.0]))
        assert np.allclose(e.eigenvalues, [-2.0, 0.0, 5.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(100))
    def test_reconstruction_and_orthonormality(self, seed):
        a, _ = random_symmetric(seed)
        e = sym_eig(a)
        scale = np.linalg.norm(a, "fro")
        assert np.linalg.norm(e.reconstruct() - a, "fro") <= 1e-10 * scale
        u = e.eigenvectors
        assert np.linalg.norm(u @ u.T - np.eye(a.shape[0]), "fro") <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_add_diagonal_equals_fancy_indexing_bitwise(seed):
    a, g = random_symmetric(seed)
    value = float(g.standard_normal())
    want = a.copy()
    want[np.diag_indices_from(want)] += value
    a.setflags(write=False)                 # the input is left alone
    assert linalg.add_diagonal(a, value).tobytes() == want.tobytes()


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_spd(np.diag([4.0, 9.0]), np.array([8.0, 27.0]))
        assert np.allclose(x, [2.0, 3.0], atol=1e-14)

    def test_two_by_two(self):
        x = solve_spd(np.array([[2.0, 1.0], [1.0, 2.0]]),
                      np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(30))
    def test_recovery_at_high_condition(self, seed):
        g = np.random.default_rng(seed + 1000)
        a = random_spd(g, int(g.integers(2, 40)), cond=1e8)
        x = g.standard_normal(a.shape[0])
        xh = solve_spd(a, a @ x)
        assert np.linalg.norm(xh - x) <= 1e-8 * np.linalg.norm(x)

    def test_residual_bound(self):
        g = np.random.default_rng(7)
        a = random_spd(g, 25, cond=1e6)
        b = g.standard_normal(25)
        x = solve_spd(a, b)
        res = np.linalg.norm(a @ x - b)
        assert res <= 1e-8 * (np.linalg.norm(a, "fro") * np.linalg.norm(x)
                              + np.linalg.norm(b))

    def test_non_pd_names_pivot(self):
        with pytest.raises(SingularMatrixError) as exc:
            cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot_index == 1

    def test_zero_matrix_fails_at_first_pivot(self):
        with pytest.raises(SingularMatrixError) as exc:
            cholesky_spd(np.zeros((3, 3)))
        assert exc.value.pivot_index == 0

    def test_inverse(self):
        g = np.random.default_rng(3)
        a = random_spd(g, 12, cond=1e4)
        inv = spd_inverse(a)
        assert np.allclose(inv @ a, np.eye(12), atol=1e-9)
        assert np.array_equal(inv, inv.T)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(InputError):
            solve_spd(np.zeros((2, 3)), np.ones(2))

    def test_many_rhs_match_one_at_a_time(self):
        g = np.random.default_rng(4)
        a = random_spd(g, 9, cond=1e3)
        lower = cholesky_spd(a)
        b = g.standard_normal((9, 3))
        x = solve_cholesky(lower, b)
        assert x.shape == (9, 3)
        for k in range(3):
            assert np.allclose(x[:, k], solve_cholesky(lower, b[:, k]),
                               rtol=0, atol=1e-12 * np.linalg.norm(x[:, k]))


requires_binding = pytest.mark.skipif(
    linalg._LAPACK is None, reason="numpy's LAPACK could not be bound")


def test_an_exported_dpotrs_is_bound():
    # a probe that rejects the library would otherwise only skip the binding
    # tests and move the golden hashes with no stated cause
    from numpy.linalg import _umath_linalg
    lib = ctypes.CDLL(_umath_linalg.__file__)
    exported = any(hasattr(lib, name.format("dpotrs"))
                   for name, _ in linalg._LAPACK_SYMBOLS)
    assert (linalg._LAPACK is not None) == exported


def test_the_probe_system_is_solved_exactly_without_the_binding():
    lower = linalg._PROBE_LOWER
    for x in (linalg._PROBE_X[:, 0], linalg._PROBE_X):
        rhs = lower @ (lower.T @ x)
        assert np.array_equal(np.linalg.solve(lower.T, np.linalg.solve(lower, rhs)), x)


@requires_binding
class TestLapackBinding:
    """The ctypes kernel against numpy's own calls."""

    def test_input_is_left_alone(self):
        g = np.random.default_rng(9)
        lower = cholesky_spd(random_spd(g, 9, cond=1e3))
        kept = lower.copy()
        for b in (g.standard_normal(9), g.standard_normal((9, 2))):
            rhs = b.copy()
            linalg._LAPACK.cho_solve(lower, rhs)
            assert np.array_equal(lower, kept) and np.array_equal(rhs, b)

    def test_probe_mismatch_keeps_numpy(self, monkeypatch):
        # a library whose solves are one ulp off, or that reports a failure
        cho_solve = linalg._Lapack.cho_solve
        for broken in (lambda x: np.nextafter(x, np.inf), lambda x: None):
            monkeypatch.setattr(linalg._Lapack, "cho_solve",
                                lambda self, lower, b: broken(cho_solve(self, lower, b)))
            assert linalg._bind_lapack() is None
            monkeypatch.undo()
            assert isinstance(linalg._bind_lapack(), linalg._Lapack)

    @pytest.mark.parametrize("d", [1, 2, 9, 68, 123])
    def test_solve_agrees_with_the_two_lu_form(self, monkeypatch, d):
        g = np.random.default_rng(d + 700)
        lower = cholesky_spd(random_spd(g, d, cond=1e3))
        for b in (g.standard_normal(d), g.standard_normal((d, 4))):
            fast = solve_cholesky(lower, b)
            lu = np.linalg.solve(lower.T, np.linalg.solve(lower, b))
            assert fast.shape == b.shape and fast.flags.c_contiguous
            assert np.linalg.norm(fast - lu) <= 1e-12 * np.linalg.norm(lu)
            with monkeypatch.context() as m:
                m.setattr(linalg, "_LAPACK", None)
                assert np.array_equal(solve_cholesky(lower, b), lu)

    @pytest.mark.parametrize("d", [2, 17, 123])
    def test_inverse_stays_exactly_symmetric(self, d):
        g = np.random.default_rng(d + 800)
        inv = spd_inverse(random_spd(g, d, cond=1e4))
        assert np.array_equal(inv, inv.T)

    def test_solve_shape_mismatch_still_raises(self):
        lower = cholesky_spd(np.eye(3))
        with pytest.raises(ValueError):
            solve_cholesky(lower, np.ones(4))


def pivot_tol(a):
    return PD_PIVOT_RTOL * max(float(np.max(np.diagonal(a))), 0.0)


class TestCholeskyAgainstLoop:
    """LAPACK factor against the column loop kept for naming failed pivots."""

    # |dL| / |L| <= c * cond(A) * eps; the matrices below have cond <= 1e4
    RTOL = 1e4 * 1e3 * EPS

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_loop(self, seed):
        g = np.random.default_rng(seed + 500)
        a = random_spd(g, int(g.integers(1, 60)), cond=1e4)
        fast = cholesky_spd(a)
        loop = linalg._cholesky_pivoted(a, pivot_tol(a))
        assert np.array_equal(np.tril(fast), fast)
        assert np.linalg.norm(fast - loop) <= self.RTOL * np.linalg.norm(loop)

    def test_lapack_success_below_tolerance_names_loop_pivot(self):
        # LAPACK accepts the tiny positive pivot at index 2; the relative
        # tolerance does not, and the loop names it
        a = np.array([[4.0, 2.0, 2.0, 0.0],
                                [2.0, 5.0, 1.0, 0.0],
                                [2.0, 1.0, 1.0 + 1e-13, 0.0],
                                [0.0, 0.0, 0.0, 3.0]])
        assert np.all(np.diagonal(np.linalg.cholesky(a)) > 0)
        with pytest.raises(SingularMatrixError) as exc:
            cholesky_spd(a)
        with pytest.raises(SingularMatrixError) as ref:
            linalg._cholesky_pivoted(a, pivot_tol(a))
        assert exc.value.pivot_index == ref.value.pivot_index == 2
        assert exc.value.pivot == ref.value.pivot
        assert exc.value.tol == pytest.approx(5.0 * PD_PIVOT_RTOL)

    def test_lapack_failure_names_loop_pivot(self):
        a = np.array([[2.0, 1.0, 0.0, 0.0, 0.0],
                                [1.0, 2.0, 0.0, 0.0, 0.0],
                                [0.0, 0.0, 1.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0, 1.0, 3.0],
                                [0.0, 0.0, 0.0, 3.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        with pytest.raises(SingularMatrixError) as exc:
            cholesky_spd(a)
        assert exc.value.pivot_index == 4
        assert exc.value.pivot == pytest.approx(-8.0)


class TestRank1:
    def test_basis_vector(self):
        e1 = np.array([1.0, 0.0, 0.0])
        out = rank1_accumulate(np.zeros((3, 3)), 1.0, e1)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(out, expected)

    def test_negative_coefficient(self):
        out = rank1_accumulate(np.eye(2), -1.0, np.array([1.0, 1.0]))
        assert np.array_equal(out, np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_zero_coefficient_is_identity_op(self):
        a, g = random_symmetric(5)
        out = rank1_accumulate(a, 0.0, g.standard_normal(a.shape[0]))
        assert np.array_equal(out, a)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            rank1_accumulate(np.eye(2), 1.0, np.ones(3))

    @pytest.mark.parametrize("seed", range(20))
    def test_preserves_symmetry_exactly(self, seed):
        a, g = random_symmetric(seed)
        out = rank1_accumulate(a, float(g.standard_normal()), g.standard_normal(a.shape[0]))
        assert np.array_equal(out, out.T)


def test_weighted_gram_matches_rank1_sum():
    g = np.random.default_rng(11)
    rows = g.standard_normal((6, 4))
    w = g.standard_normal(6)
    acc = np.zeros((4, 4))
    for row, c in zip(rows, w):
        acc = rank1_accumulate(acc, 0.5 * c, row)
    batched = weighted_gram(rows, w, scale=0.5)
    assert np.allclose(acc, batched, atol=1e-12)


def general_gram(rows, w, scale):
    return (rows * (scale * w)[:, None]).T @ rows


@pytest.mark.parametrize("seed", range(10))
def test_weighted_gram_nonnegative_weights_take_the_symmetric_product(seed):
    g = np.random.default_rng(seed)
    rows = g.standard_normal((200, 17))
    w = g.random(200) * 0.25
    w[::7] = 0.0
    gram = weighted_gram(rows, w, scale=1.0 / 200)
    x = rows * np.sqrt((1.0 / 200) * w)[:, None]
    # bitwise equal to X.T @ X: that product is exactly symmetric already
    assert np.array_equal(gram, x.T @ x)
    assert np.array_equal(gram, gram.T)
    ref = general_gram(rows, w, 1.0 / 200)
    assert np.linalg.norm(gram - ref) <= 1e3 * EPS * np.linalg.norm(ref)


def test_weighted_gram_mixed_signs_take_the_general_product():
    g = np.random.default_rng(12)
    rows = g.standard_normal((50, 8))
    w = g.standard_normal(50)
    assert np.min(w) < 0 < np.max(w)
    gram = weighted_gram(rows, w, scale=0.1)
    ref = general_gram(rows, w, 0.1)
    assert np.array_equal(gram, 0.5 * (ref + ref.T))
    assert np.array_equal(gram, gram.T)
