"""Dense symmetric linear algebra kernels.

Everything here is sized for a few thousand dimensions at most: curvature
matrices of GLM problems are dense and small, so we keep exact, deterministic
LAPACK/BLAS routines (eigendecomposition, Cholesky followed by an explicit
relative pivot check, solves against the two triangular factors, grams
shaped for a symmetric rank-k update) rather than anything sparse or
iterative. Only the LAPACK and BLAS bundled with numpy are used.

One kernel calls that LAPACK directly, through ``ctypes``: the two
triangular solves of ``solve_cholesky`` (``dpotrs``, O(d^2) per right-hand
side). The library is found through numpy's own linalg extension and bound
once, at import, only if its ``dpotrs`` solves a small integer system
exactly; otherwise, as on numpy builds without a bundled OpenBLAS, two
general LU solves of numpy's do the work.

A curvature matrix is a plain (d, d) float64 array that is exactly
(bitwise) symmetric. Sums, scalings, rank-one terms and diagonal shifts of
such arrays stay exact, so only the two producers whose arithmetic can round
the two triangles differently symmetrize their result with (A + A.T)/2:
the mixed-sign branch of ``weighted_gram`` and ``spd_inverse``. Finiteness
is checked where data enters the program (dataset parsing and construction,
the oracle cache), not on every matrix.

All operations are pure: inputs are never mutated, results are fresh arrays.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, SingularMatrixError

# Relative pivot tolerance for positive-definite factorizations.
PD_PIVOT_RTOL = 1e-12


def zeros(dim: int) -> np.ndarray:
    return np.zeros((dim, dim))


def identity(dim: int) -> np.ndarray:
    return np.eye(dim)


def add_diagonal(a: np.ndarray, value: float) -> np.ndarray:
    """Return A + value * I."""
    out = a.copy()
    out.flat[::len(out) + 1] += value
    return out


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral factorization A = U.T @ diag(eigenvalues) @ U.

    ``eigenvalues`` are ascending; rows of ``eigenvectors`` are the
    orthonormal eigenvectors (so ``eigenvectors @ x`` maps into the
    eigenbasis).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return u.T @ (self.eigenvalues[:, None] * u)


def sym_eig(a: np.ndarray) -> EigDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    w, v = np.linalg.eigh(a)
    return EigDecomposition(eigenvalues=w, eigenvectors=v.T)


def smallest_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0])


def cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == A, or SingularMatrixError.

    The pivot test is relative to the largest diagonal entry; a pivot at or
    below tolerance identifies the failing index exactly, which is the
    diagnostic callers want (the optimizers maintain positive definiteness
    by construction, so a failure here is a logic error upstream). LAPACK
    does the factorization; the pivots L[j, j]**2 are then checked against
    the tolerance, and only a failure reruns the elimination in Python to
    name the offending pivot.
    """
    tol = PD_PIVOT_RTOL * max(float(np.max(np.diagonal(a))), 0.0)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return _cholesky_pivoted(a, tol)
    if np.all(np.diagonal(lower) ** 2 > tol):
        return lower
    return _cholesky_pivoted(a, tol)


def _cholesky_pivoted(m: np.ndarray, tol: float) -> np.ndarray:
    """Column-by-column Cholesky raising at the first pivot not above tol."""
    d = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(d):
        pivot = m[j, j] - lower[j, :j] @ lower[j, :j]
        if not pivot > tol:
            raise SingularMatrixError(j, float(pivot), tol)
        ljj = math.sqrt(pivot)
        lower[j, j] = ljj
        if j + 1 < d:
            lower[j + 1:, j] = (m[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / ljj
    return lower


def solve_cholesky(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L @ L.T) x = b for one RHS vector or a matrix of columns.

    LAPACK ``dpotrs`` does the two triangular solves; without the binding
    (or for shapes it does not take) two general LU solves do.
    """
    b = np.asarray(b, dtype=np.float64)
    if (_LAPACK is not None and lower.ndim == 2 and b.ndim in (1, 2)
            and lower.shape == (b.shape[0], b.shape[0]) and b.shape[0] > 0):
        x = _LAPACK.cho_solve(np.ascontiguousarray(lower, dtype=np.float64), b)
        if x is not None:
            return np.ascontiguousarray(x)
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A."""
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (b.shape[0], b.shape[0]):
        raise InputError(f"matrix shape {a.shape} does not match rhs length {b.shape[0]}")
    if not np.all(np.isfinite(b)):
        raise InputError("rhs entries must be finite")
    return solve_cholesky(cholesky_spd(a), b)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Explicit inverse of an SPD matrix (used for quasi-Newton seeding).

    The column solves round mirrored entries apart, so the result is
    symmetrized.
    """
    inv = solve_cholesky(cholesky_spd(a), np.eye(a.shape[0]))
    return 0.5 * (inv + inv.T)


def rank1_accumulate(a: np.ndarray, c: float, v: np.ndarray) -> np.ndarray:
    """Return A + c * outer(v, v)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != a.shape[0]:
        raise InputError(f"vector length {v.shape} does not match dim {a.shape[0]}")
    return a + c * np.outer(v, v)


def weighted_gram(rows: np.ndarray, weights: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * rows.T @ diag(weights) @ rows, exactly symmetric.

    This is the batched form of accumulating one rank-one term per row and
    is how curvature matrices are assembled from data rows. With every
    scaled weight nonnegative it is X.T @ X for X = rows * sqrt(scale * w),
    which BLAS computes as a symmetric rank-k update at half the flops
    and returns exactly symmetric; mixed signs take the general product,
    whose triangles can round apart, and symmetrize it.
    """
    rows = np.asarray(rows, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if rows.shape[0] != weights.shape[0]:
        raise InputError("row count and weight count differ")
    scaled = scale * weights
    if np.all(scaled >= 0.0):
        x = rows * np.sqrt(scaled)[:, None]
        return x.T @ x
    g = (rows * scaled[:, None]).T @ rows
    return 0.5 * (g + g.T)


class _Lapack:
    """``dpotrs`` of the LAPACK numpy loaded, called through ctypes.

    ``fint`` is the library's Fortran integer: ILP64 symbols (suffix
    ``64_``) take 64-bit integers. The character argument is followed by
    its hidden length, as gfortran passes it.
    """

    def __init__(self, lib, name, fint):
        self.fint = fint
        self.potrs = getattr(lib, name.format("dpotrs"))
        ref, ptr = ctypes.POINTER(fint), ctypes.c_void_p
        self.potrs.argtypes = [ctypes.c_char_p, ref, ref, ptr, ref, ptr, ref, ref,
                               ctypes.c_size_t]
        self.potrs.restype = None

    def cho_solve(self, lower: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
        """Solve (L @ L.T) x = b for a C-ordered lower factor L, which
        column-major LAPACK reads as the upper factor L.T. None if LAPACK
        reports a failure."""
        f, info = self.fint, self.fint(0)
        n = f(lower.shape[0])
        x = np.array(b, order="F")                     # dpotrs overwrites x
        self.potrs(b"U", n, f(1 if x.ndim == 1 else x.shape[1]), lower.ctypes.data, n,
                   x.ctypes.data, n, info, 1)
        return x if info.value == 0 else None


# symbol pattern and Fortran integer of the LAPACK builds numpy ships with
_LAPACK_SYMBOLS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
                   ("scipy_{}_", ctypes.c_int32))

# The probe system (L @ L.T) x = L @ (L.T @ x): every value a triangular solve
# passes through is an integer, or one over a power of two where it multiplies
# by reciprocal diagonals, so a correct solve returns x bit for bit. Each
# diagonal entry of L dominates its column, so the two LU solves of the
# fallback pivot nowhere and are exact too.
_PROBE_LOWER = np.array([[4.0, 0.0, 0.0, 0.0, 0.0],
                         [-3.0, 2.0, 0.0, 0.0, 0.0],
                         [1.0, 1.0, 8.0, 0.0, 0.0],
                         [2.0, -1.0, -5.0, 4.0, 0.0],
                         [-1.0, 0.0, 3.0, -2.0, 1.0]])
_PROBE_X = np.arange(-7.0, 8.0).reshape(5, 3)


def _bind_lapack() -> Optional[_Lapack]:
    """The binding, or None unless its ``cho_solve`` returns the probe
    solution bit for bit, for a vector and for a matrix right-hand side."""
    try:
        from numpy.linalg import _umath_linalg
        # dlsym on the extension's handle also searches the libraries it loaded
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for name, fint in _LAPACK_SYMBOLS:
        try:
            lapack = _Lapack(lib, name, fint)
        except AttributeError:
            continue
        low = _PROBE_LOWER
        exact = all(np.array_equal(lapack.cho_solve(low, low @ (low.T @ x)), x)
                    for x in (_PROBE_X[:, 0], _PROBE_X))
        return lapack if exact else None
    return None


_LAPACK = _bind_lapack()
