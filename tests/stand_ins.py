"""Desk-scale problems shaped like the benchmark datasets.

The benchmark LIBSVM files (a2a: 2265x123 binary rows, ~14 active features
each; phishing: 11000x68) are not vendored, so the suite builds synthetic
stand-ins with the same shape and the same qualitative structure: sparse
binary feature rows and labels drawn from a planted logistic model. All
acceptance properties are shape/behavior claims, so they transfer.
"""

import weakref

import numpy as np

from distnewton.data import Dataset, partition
from distnewton.methods import reference_optimum
from distnewton.problem import Problem, loss_model


def sparse_binary_dataset(count: int, d: int, nnz: int, seed: int,
                          logit_scale: float = 1.0) -> Dataset:
    """Binary feature rows with planted-model logistic labels."""
    g = np.random.default_rng(seed)
    feats = np.zeros((count, d))
    for k in range(count):
        feats[k, g.choice(d, size=nnz, replace=False)] = 1.0
    w_true = g.standard_normal(d) * (logit_scale / np.sqrt(nnz))
    probs = 1.0 / (1.0 + np.exp(-(feats @ w_true)))
    labels = np.where(g.random(count) < probs, 1.0, -1.0)
    return Dataset(features=feats, labels=labels)


def a2a_shaped_problem(lam: float, loss: str = "logistic") -> Problem:
    ds = sparse_binary_dataset(count=2265, d=123, nnz=14, seed=20240601)
    part = partition(ds, n=15, shuffle_seed=7)
    return Problem(dataset=ds, part=part, loss=loss_model(loss), lam=lam)


def phishing_shaped_problem(lam: float) -> Problem:
    ds = sparse_binary_dataset(count=11000, d=68, nnz=20, seed=20240602)
    part = partition(ds, n=100, shuffle_seed=7)
    return Problem(dataset=ds, part=part, loss=loss_model("logistic"), lam=lam)


_PROBLEM_CACHE = {}
_OPTIMUM_CACHE = {}


def cached_a2a(lam: float) -> Problem:
    if lam not in _PROBLEM_CACHE:
        _PROBLEM_CACHE[lam] = a2a_shaped_problem(lam)
    return _PROBLEM_CACHE[lam]


def cached_optimum(p: Problem):
    """reference_optimum(p), computed once per problem object; the entry
    goes when p does, so a later problem at the same id gets its own."""
    key = id(p)
    if key not in _OPTIMUM_CACHE:
        _OPTIMUM_CACHE[key] = reference_optimum(p)
        weakref.finalize(p, _OPTIMUM_CACHE.pop, key, None)
    return _OPTIMUM_CACHE[key]


def cached_a2a_oracles(lam: float):
    return cached_optimum(cached_a2a(lam))
