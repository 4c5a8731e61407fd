"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical failures exit 3, and I/O problems exit 4.
"""

from __future__ import annotations

import math
import numbers


def _finite_real(value) -> bool:
    """Whether value is a real number, not a bool, whose float is finite."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:       # an int too large for a float, yet < math.inf
        return False


class DistNewtonError(Exception):
    """Base class for all package-specific errors."""


class InputError(DistNewtonError, ValueError):
    """Malformed or inconsistent input values (dimension mismatch, NaN, ...)."""


class ParseError(DistNewtonError, ValueError):
    """Dataset text could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(DistNewtonError, ValueError):
    """Invalid or incompatible experiment configuration."""


class SingularMatrixError(DistNewtonError, RuntimeError):
    """SPD factorization hit a non-positive (or below-tolerance) pivot."""

    def __init__(self, pivot_index: int, pivot: float, tol: float):
        self.pivot_index = pivot_index
        self.pivot = pivot
        self.tol = tol
        super().__init__(
            f"matrix is not positive definite: pivot {pivot:.6e} at index "
            f"{pivot_index} is below tolerance {tol:.6e}"
        )


class CacheError(DistNewtonError, OSError):
    """A cached artifact on disk is unreadable or does not fit the problem."""


class NumericalError(DistNewtonError, RuntimeError):
    """An iterative numerical procedure failed to converge or verify."""


class ReplicaMismatchError(DistNewtonError, RuntimeError):
    """Server-side coefficient replicas diverged from worker state."""

    def __init__(self, mismatches: list[tuple[int, int]]):
        self.mismatches = mismatches
        preview = ", ".join(f"(worker {w}, index {j})" for w, j in mismatches[:8])
        more = "" if len(mismatches) <= 8 else f" and {len(mismatches) - 8} more"
        super().__init__(f"replica mismatch at {preview}{more}")
