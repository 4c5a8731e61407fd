"""Dense symmetric linear algebra kernels.

Everything here is sized for a few thousand dimensions at most: curvature
matrices of GLM problems are dense and small, so we keep exact, deterministic
LAPACK/BLAS routines (eigendecomposition, Cholesky followed by an explicit
relative pivot check, solves against the two triangular factors, grams
shaped for a symmetric rank-k update) rather than anything sparse or
iterative. Only the LAPACK and BLAS bundled with numpy are used.

All operations are pure: inputs are never mutated, results are fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularMatrixError

# Relative pivot tolerance for positive-definite factorizations.
PD_PIVOT_RTOL = 1e-12


class SymMatrix:
    """Dense symmetric matrix with exact (bitwise) symmetry.

    Construction symmetrizes via (A + A.T)/2, which is exact for inputs that
    are symmetric up to floating-point noise and makes downstream equality
    checks on mirrored entries reliable.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        a = np.asarray(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InputError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise InputError("matrix entries must be finite")
        self.entries = 0.5 * (a + a.T)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def add_diagonal(self, value: float) -> "SymMatrix":
        out = self.entries.copy()
        out[np.diag_indices_from(out)] += value
        return SymMatrix(out)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries, "fro"))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SymMatrix(dim={self.dim})"


def zeros(dim: int) -> SymMatrix:
    return SymMatrix(np.zeros((dim, dim)))


def identity(dim: int) -> SymMatrix:
    return SymMatrix(np.eye(dim))


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


def sym_eig(a: SymMatrix) -> EigDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    w, v = np.linalg.eigh(a.entries)
    return EigDecomposition(eigenvalues=w, eigenvectors=v.T)


def smallest_eigenvalue(a: SymMatrix) -> float:
    return float(np.linalg.eigvalsh(a.entries)[0])


def cholesky_spd(a: SymMatrix) -> np.ndarray:
    """Lower-triangular L with L @ L.T == A, or SingularMatrixError.

    The pivot test is relative to the largest diagonal entry; a pivot at or
    below tolerance identifies the failing index exactly, which is the
    diagnostic callers want (the optimizers maintain positive definiteness
    by construction, so a failure here is a logic error upstream). LAPACK
    does the factorization; the pivots L[j, j]**2 are then checked against
    the tolerance, and only a failure reruns the elimination in Python to
    name the offending pivot.
    """
    m = a.entries
    tol = PD_PIVOT_RTOL * max(float(np.max(np.diagonal(m))), 0.0)
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return _cholesky_pivoted(m, tol)
    if np.all(np.diagonal(lower) ** 2 > tol):
        return lower
    return _cholesky_pivoted(m, tol)


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


def solve_spd(a: SymMatrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.dim:
        raise InputError(f"rhs length {b.shape[0]} does not match dim {a.dim}")
    if not np.all(np.isfinite(b)):
        raise InputError("rhs entries must be finite")
    return solve_cholesky(cholesky_spd(a), b)


def spd_inverse(a: SymMatrix) -> SymMatrix:
    """Explicit inverse of an SPD matrix (used for quasi-Newton seeding)."""
    return SymMatrix(solve_cholesky(cholesky_spd(a), np.eye(a.dim)))


def rank1_accumulate(a: SymMatrix, c: float, v: np.ndarray) -> SymMatrix:
    """Return A + c * outer(v, v)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != a.dim:
        raise InputError(f"vector length {v.shape} does not match dim {a.dim}")
    return SymMatrix(a.entries + c * np.outer(v, v))


def weighted_gram(rows: np.ndarray, weights: np.ndarray, scale: float = 1.0) -> SymMatrix:
    """scale * rows.T @ diag(weights) @ rows, as a SymMatrix.

    This is the batched form of accumulating one rank-one term per row and
    is how curvature matrices are assembled from data rows. With every
    scaled weight nonnegative it is X.T @ X for X = rows * sqrt(scale * w),
    which BLAS computes as a symmetric rank-k update at half the flops;
    mixed signs take the general product.
    """
    rows = np.asarray(rows, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if rows.shape[0] != weights.shape[0]:
        raise InputError("row count and weight count differ")
    scaled = scale * weights
    if np.all(scaled >= 0.0):
        x = rows * np.sqrt(scaled)[:, None]
        return SymMatrix(x.T @ x)
    return SymMatrix((rows * scaled[:, None]).T @ rows)
