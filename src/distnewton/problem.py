"""Regularized GLM objective over partitioned data.

The objective is an average of per-worker averages of scalar losses applied
to inner products, plus an L2 term:

    P(x) = (1/n) sum_i (1/m) sum_j loss(a_ij . x, b_ij) + (lam/2) ||x||^2

The second derivative of the scalar loss at each sample (the "h coefficient")
is the central quantity: together with the rank-one matrices a a^T it
assembles the full Hessian, and the Newton-type methods in this package
learn or reuse these coefficients instead of shipping matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .data import Dataset, Partition, partition
from .errors import InputError
from .linalg import add_diagonal, weighted_gram

Array = np.ndarray


@dataclass(frozen=True)
class LossModel:
    """Scalar loss phi(t, b) with first/second derivatives in t.

    ``derivs(t, b)`` returns ``(phi, dphi, ddphi)`` elementwise from one
    kernel. ``gamma`` bounds |phi''| everywhere; ``nu`` is a Lipschitz
    constant of phi''. Both are closed-form per loss kind, not estimated
    from data.
    """

    kind: str
    derivs: Callable[[Array, Array], tuple[Array, Array, Array]]
    gamma: float
    nu: float


# max |d^3/dt^3 log(1+exp(-t))| = max |s(1-s)(1-2s)| over s in (0,1)
LOGISTIC_NU = 1.0 / (6.0 * math.sqrt(3.0))


def _logistic_derivs(t: Array, b: Array) -> tuple[Array, Array, Array]:
    # phi = log(1 + exp(-bt)), dphi = -b s(-bt) and ddphi = b^2 s(bt) s(-bt)
    # for the sigmoid s, from one exp: e = exp(-|bt|) <= 1 never overflows.
    # s(z) is 1/(1 + e) for z >= 0 and e/(1 + e) below, and max(step, e)
    # picks that numerator without a data-dependent branch.
    bt = b * t
    e = np.exp(-np.abs(bt))
    denom = 1.0 + e
    step = (bt >= 0).astype(np.float64)
    sig_pos = np.maximum(step, e) / denom           # s(bt)
    sig_neg = np.maximum(1.0 - step, e) / denom     # s(-bt)
    phi = np.maximum(-bt, 0.0) + np.log1p(e)
    return phi, -b * sig_neg, (b * b) * sig_pos * sig_neg


def _squared_derivs(t: Array, b: Array) -> tuple[Array, Array, Array]:
    r = t - b
    return 0.5 * r ** 2, r, np.ones_like(t)


_LOGISTIC = LossModel(
    kind="logistic",
    derivs=_logistic_derivs,
    gamma=0.25,
    nu=LOGISTIC_NU,
)

_SQUARED = LossModel(
    kind="squared",
    derivs=_squared_derivs,
    gamma=1.0,
    nu=0.0,
)


_LOSSES = {"logistic": _LOGISTIC, "squared": _SQUARED}


def loss_model(kind: str) -> LossModel:
    try:
        return _LOSSES[kind]
    except KeyError:
        raise InputError(f"unknown loss kind {kind!r}") from None


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness data of a concrete problem instance."""

    gamma: float
    nu: float
    max_row_norm: float          # largest feature-row norm over assigned points
    hessian_lipschitz: float     # nu * max_row_norm**3


class _Point(NamedTuple):
    """The data terms of P at one iterate; arrays are read-only."""

    key: bytes                  # x.tobytes()
    loss: LossModel
    value: float                # (1/nm) sum_ij loss(a_ij . x, b_ij)
    grads: Array                # (n, d) local data gradients
    grad: Array                 # (d,) their mean
    h: Array                    # (n, m) second derivatives


@dataclass
class Problem:
    """Dataset + partition + loss + regularizer, with cached worker views.

    Everything the methods read from the data at an iterate x comes from
    one evaluation: one stacked per-worker margin pass ``worker_rows @ x``
    and one fused loss kernel. The last evaluation is kept in a one-slot
    cache keyed by the bytes of x, so the metrics row at x^k, the worker
    pass of round k and a Newton step's ``hessian`` plus ``grad`` share it.
    The slot holds only the lam-free data terms, and lam enters on read.
    """

    dataset: Dataset
    part: Partition
    loss: LossModel
    lam: float

    # worker-major stacked copies, built once, with (n, m, d) / (n, m) views
    _rows: Array = field(init=False, repr=False)
    _labels: Array = field(init=False, repr=False)
    _worker_rows: Array = field(init=False, repr=False)
    _worker_labels: Array = field(init=False, repr=False)
    _constants: ProblemConstants = field(init=False, repr=False)
    _slot: Optional[_Point] = field(init=False, repr=False, compare=False,
                                    default=None)

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise InputError(f"regularization parameter must be finite and "
                             f"nonnegative, not {self.lam!r}")
        if self.d < 1:
            raise InputError("the dataset has no features (d = 0)")
        count = len(self.dataset)
        for shard in self.part.shards:
            if np.max(shard) >= count:
                raise InputError("partition references rows outside the dataset")
        order = np.concatenate(self.part.shards)
        self._rows = self.dataset.features[order]
        self._labels = self.dataset.labels[order]
        self._worker_rows = self._rows.reshape(self.n, self.m, self.d)
        self._worker_labels = self._labels.reshape(self.n, self.m)
        radius = float(np.max(np.linalg.norm(self._rows, axis=1)))
        self._constants = ProblemConstants(
            gamma=self.loss.gamma,
            nu=self.loss.nu,
            max_row_norm=radius,
            hessian_lipschitz=self.loss.nu * radius ** 3,
        )

    @property
    def n(self) -> int:
        return self.part.n

    @property
    def m(self) -> int:
        return self.part.m

    @property
    def d(self) -> int:
        return self.dataset.d

    @property
    def stacked_rows(self) -> Array:
        """All assigned feature rows, worker-major: row i*m+j belongs to worker i."""
        return self._rows

    @property
    def stacked_labels(self) -> Array:
        return self._labels

    def worker_rows(self, i: int | slice) -> Array:
        """Rows of worker i as (m, d), or of a slice of workers as (k, m, d)."""
        return self._worker_rows[i]

    def worker_labels(self, i: int | slice) -> Array:
        """Labels of worker i as (m,), or of a slice of workers as (k, m)."""
        return self._worker_labels[i]

    # -- values and derivatives -------------------------------------------

    def _point(self, x: Array) -> _Point:
        """The evaluation at x, from the slot when x's bytes match it.

        The stacked matmul runs one BLAS product per worker, so every
        worker's margins, coefficients and local gradient are bitwise what
        that worker computes from its own rows alone.
        """
        x = np.asarray(x, dtype=np.float64)
        key = x.tobytes()
        slot = self._slot
        if slot is not None and slot.key == key and slot.loss is self.loss:
            return slot
        rows = self.worker_rows(slice(None))
        phi, dphi, h = self.loss.derivs(rows @ x, self.worker_labels(slice(None)))
        grads = (np.swapaxes(rows, -1, -2) @ dphi[..., None])[..., 0] / self.m
        grad = grads.mean(axis=0)
        for a in (grads, grad, h):
            a.setflags(write=False)
        self._slot = _Point(key, self.loss, float(np.mean(phi)), grads, grad, h)
        return self._slot

    def value(self, x: Array) -> float:
        return self._point(x).value + 0.5 * self.lam * float(x @ x)

    def grad(self, x: Array) -> Array:
        """Mean of the local gradients plus lam * x."""
        return self._point(x).grad + self.lam * x

    def value_and_grad(self, x: Array) -> tuple[float, Array]:
        """``(value(x), grad(x))`` from one evaluation, bitwise the separate calls."""
        point = self._point(x)
        return (point.value + 0.5 * self.lam * float(x @ x),
                point.grad + self.lam * x)

    def local_grad(self, i: int | slice, x: Array) -> Array:
        """Data gradient of worker i at x, (d,); a slice of workers gives (k, d).

        Row i is bitwise worker i's own ``rows_i.T @ dphi / m``. The result
        is a read-only view of the evaluation slot.
        """
        return self._point(x).grads[i]

    def h_coeffs(self, i: int | slice, x: Array) -> Array:
        """Per-sample second derivatives of worker i at x, (m,); a slice gives (k, m).

        Read-only, like every array the evaluation slot hands out.
        """
        return self._point(x).h[i]

    def h_all(self, x: Array) -> Array:
        """All h coefficients at x as a read-only (n, m) array."""
        return self._point(x).h

    def hessian(self, x: Array) -> Array:
        """Full second derivative of P at x (regularizer included)."""
        gram = weighted_gram(self._rows, self._point(x).h.reshape(-1),
                             scale=1.0 / (self.n * self.m))
        return add_diagonal(gram, self.lam)

    def data_gram(self, weights: Array) -> Array:
        """(1/nm) sum_ij weights_ij a_ij a_ij^T for an (n, m) weight array."""
        return weighted_gram(self._rows, np.asarray(weights).reshape(-1),
                             scale=1.0 / (self.n * self.m))

    def mean_gram(self) -> Array:
        """(1/nm) sum_ij a_ij a_ij^T (unit weights)."""
        return self.data_gram(np.ones(self.n * self.m))

    def constants(self) -> ProblemConstants:
        """Smoothness constants, computed once from the stacked rows."""
        return self._constants

    def grad_lipschitz_bound(self) -> float:
        """Upper bound gamma * max_row_norm^2 + lam on the gradient Lipschitz constant."""
        c = self.constants()
        return c.gamma * c.max_row_norm ** 2 + self.lam


def make_problem(dataset: Dataset, n: int, shuffle_seed: int,
                 loss_kind: str = "logistic", lam: float = 0.0) -> Problem:
    """Convenience constructor: partition the dataset and wrap everything up."""
    part = partition(dataset, n, shuffle_seed)
    return Problem(dataset=dataset, part=part, loss=loss_model(loss_kind), lam=lam)
