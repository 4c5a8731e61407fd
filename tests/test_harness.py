import functools
import itertools
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from distnewton import harness, linalg, methods
from distnewton.compressors import (bernoulli, bit_cost, ceil_log2, identity, natural,
                                    omega, random_r)
from distnewton.data import Dataset
from distnewton.errors import ConfigError, InputError, ReplicaMismatchError
from distnewton.harness import (_METHODS, Budget, RunOptions, WorkerCharge,
                                bits_to_reach, recompute_ledger_totals,
                                replica_mismatches, run_experiment, tail_ratios,
                                verify_replicas)
from distnewton.linalg import smallest_eigenvalue
from distnewton.methods import reference_optimum
from distnewton.problem import make_problem
from stand_ins import a2a_shaped_problem, cached_optimum, small_problem

NOT_NUMBERS = "x0 is not an array of numbers"


def wide_problem(n=15, m=1, d=123, loss="logistic", lam=1e-3):
    g = np.random.default_rng(42)
    count = n * m
    ds = Dataset(features=g.standard_normal((count, d)) / math.sqrt(d),
                 labels=np.where(g.random(count) < 0.5, -1.0, 1.0))
    return make_problem(ds, n=n, shuffle_seed=0, loss_kind=loss, lam=lam)


class TestBudgets:
    def test_zero_iterations_gives_initial_row_only(self):
        p = small_problem()
        trace = run_experiment("gd", p, None, Budget(max_iters=0), seed=0,
                               oracles=cached_optimum(p))
        assert len(trace.rows) == 1
        assert trace.rows[0].bits_up_cum == 0

    def test_target_gap_stops_early(self):
        p = small_problem("squared", lam=0.1)
        o = reference_optimum(p)
        trace = run_experiment("newton", p, None,
                               Budget(max_iters=50, target_gap=1e-12),
                               seed=0, oracles=o)
        assert len(trace.rows) <= 3
        assert trace.final().gap <= 1e-12

    def test_bit_budget_stops(self):
        p = small_problem()
        trace = run_experiment("gd", p, None,
                               Budget(max_iters=100, bit_budget=2 * 32 * p.d * p.n),
                               seed=0, oracles=cached_optimum(p))
        assert len(trace.rows) == 3  # two rounds charge past the budget

    def test_ns_squared_loss_converges_first_round(self):
        p = small_problem("squared", lam=0.1)
        o = reference_optimum(p)
        trace = run_experiment("ns", p, None, Budget(max_iters=1), seed=0, oracles=o)
        assert trace.rows[1].gap <= 1e-20


class TestConfigValidation:
    def test_unknown_method(self):
        p = small_problem()
        with pytest.raises(ConfigError):
            run_experiment("sgd", p, None, Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p))

    def test_nl1_requires_positive_lambda(self):
        p = small_problem(lam=0.0)
        with pytest.raises(ConfigError):
            run_experiment("nl1", p, random_r(1), Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p))

    @pytest.mark.parametrize("method", [m for m, rec in _METHODS.items()
                                        if rec.needs_spec])
    def test_compressed_methods_require_spec(self, method):
        p = small_problem()
        with pytest.raises(ConfigError, match="compressor spec"):
            run_experiment(method, p, None, Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p))

    def test_eta_above_theory_warns(self):
        p = small_problem(lam=1e-2)
        with pytest.warns(UserWarning) as record:
            for _ in range(2):
                run_experiment("nl1", p, random_r(1), Budget(max_iters=1), seed=0,
                               oracles=cached_optimum(p),
                               opts=RunOptions(eta=1.0, diagnostics=False))
        # once per call, attributed to the caller of run_experiment, not to
        # the harness
        assert [w.filename for w in record] == [__file__] * 2

    @pytest.mark.parametrize("excess, warns", [(0.9e-15, False), (1.1e-15, True)])
    def test_eta_warning_edge(self, excess, warns):
        # the default 1/(omega+1) is a rounded quotient, so a rate 1e-15 above
        # it still counts as the default
        p = small_problem(lam=1e-2)
        eta = 1.0 / (omega(random_r(1), p.m) + 1.0) + excess
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run_experiment("nl1", p, random_r(1), Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p),
                           opts=RunOptions(eta=eta, diagnostics=False))
        assert [str(w.message).startswith("learning rate") for w in record] == [True] * warns

    @pytest.mark.parametrize("method, name, value", [
        ("gd", "stepsize", -1.0), ("nl1", "eta", -0.5), ("nl2", "eta", math.nan),
        ("diana", "theta", 0.0), ("nl1", "eta", True), ("gd", "stepsize", "0.1"),
        ("diana", "theta", [0.5]), ("dcgd", "stepsize", 1j),
        pytest.param("nl1", "eta", 10**400, id="nl1-eta-huge-int")])
    def test_rate_outside_the_positive_reals_rejected(self, method, name, value):
        p, spec = small_problem(), random_r(1) if _METHODS[method].needs_spec else None
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            run_experiment(method, p, spec, Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p),
                           opts=RunOptions(**{name: value}))

    @pytest.mark.parametrize("method, name", [
        (method, name) for method, rec in _METHODS.items()
        for name in ("eta", "stepsize", "theta") if getattr(rec, name) is None])
    def test_rate_the_method_does_not_read_rejected(self, method, name):
        p, spec = small_problem(), random_r(1) if _METHODS[method].needs_spec else None
        with pytest.raises(ConfigError, match=f"reads no {name}$"):
            run_experiment(method, p, spec, Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p),
                           opts=RunOptions(**{name: 0.5}))

    @pytest.mark.parametrize("method", [m for m, rec in _METHODS.items()
                                        if not rec.needs_spec])
    def test_uncompressed_methods_reject_a_spec(self, method):
        p = small_problem()
        with pytest.raises(ConfigError, match="takes no compressor"):
            run_experiment(method, p, random_r(1), Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p))

    @pytest.mark.parametrize("loss, gamma", [("logistic", 0.25), ("squared", 1.0)])
    def test_learners_bound_is_the_loss_gamma(self, loss, gamma):
        p = small_problem(loss=loss)
        x0 = np.random.default_rng(3).standard_normal(p.d)
        assert p.loss.gamma == gamma
        for method, bounded, cubic in (("nl1", False, False), ("nl2", True, False),
                                       ("cnl", True, True)):
            run = harness._admit(method, p, random_r(1), RunOptions(x0=x0))._replace(
                oracles=cached_optimum(p))
            state = harness._Learner(run, bounded, cubic).state
            assert state.gamma == (p.loss.gamma if bounded else None)
            # the coefficients start at h(x0), bit for bit
            assert state.h.tobytes() == p.h_all(x0).tobytes()

    @pytest.mark.parametrize("method", ["gd", "nl1", "bfgs"])
    @pytest.mark.parametrize("x0, message", [
        ([0.1, 0.2], "x0 has shape"), ([0.0, 0.0, math.nan, 0.0, 0.0], "non-finite"),
        ([[0.0] * 5], NOT_NUMBERS), (["a", 0.0, 0.0, 0.0, 0.0], NOT_NUMBERS),
        ([True, False, True, False, True], NOT_NUMBERS),
        (["1.5", "2", "0", "0", "0"], NOT_NUMBERS),
        ([None, 0.0, 0.0, 0.0, 0.0], NOT_NUMBERS),
        ([True, 1.5, 0.0, 0.0, 0.0], NOT_NUMBERS),
        (np.ones(5, dtype=bool), NOT_NUMBERS), (0.0, NOT_NUMBERS),
        ([10**400, 0.0, 0.0, 0.0, 0.0], "non-finite")],     # too large for a float
        ids=["short", "nan", "nested", "text", "bool", "numeric-text", "none",
             "mixed-bool", "bool-array", "scalar", "huge-int"])
    def test_bad_x0_raises_input_error(self, method, x0, message):
        p = small_problem()
        spec = random_r(1) if method == "nl1" else None
        with pytest.raises(InputError, match=message):
            run_experiment(method, p, spec, Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p),
                           opts=RunOptions(x0=x0))

    @pytest.mark.parametrize("x0", [[0, 1, 2, 3, 4], np.arange(5, dtype=np.int8),
                                    np.arange(5, dtype=np.float32),
                                    np.arange(5, dtype=np.uint64)],
                             ids=["int-list", "int8", "float32", "uint64"])
    def test_numeric_x0_of_any_dtype_accepted(self, x0):
        run = harness._admit("gd", small_problem(), None, RunOptions(x0=x0))
        assert run.x0.dtype == np.float64
        assert np.array_equal(run.x0, np.arange(5.0))

    @pytest.mark.parametrize("option", [0, 3, 7, True, 1.0, 2.0, "1"])
    def test_option_outside_1_2_rejected(self, option):
        p = small_problem()
        with pytest.raises(ConfigError, match="option"):
            run_experiment("nl1", p, random_r(1), Budget(max_iters=1), seed=0,
                           oracles=cached_optimum(p),
                           opts=RunOptions(option=option))


class TestLedger:
    def test_ns_round_charge(self):
        p = wide_problem(n=15, d=123)
        o = reference_optimum(p)
        trace = run_experiment("ns", p, None, Budget(max_iters=1), seed=0, oracles=o)
        rec = trace.ledger.rounds[0]
        assert rec.up_bits == 15 * 32 * 123
        assert rec.down_bits == 32 * 123

    def test_naive_newton_round_charge(self):
        p = wide_problem(n=2, d=123)
        trace = run_experiment("newton", p, None, Budget(max_iters=1), seed=0,
                               oracles=cached_optimum(p))
        per_worker = trace.ledger.rounds[0].charges[0].bits()
        assert per_worker == 32 * 123 + 32 * (123 * 124) // 2

    def test_coefficient_newton_round_charge(self):
        p = small_problem(count=40, d=5, n=4)
        trace = run_experiment("newton_coeff", p, None, Budget(max_iters=1), seed=0,
                               oracles=cached_optimum(p))
        per_worker = trace.ledger.rounds[0].charges[0].bits()
        assert per_worker == 32 * 5 + 32 * p.m

    def test_nl2_option2_round_charge(self):
        p = small_problem(count=302, d=7, n=2, lam=1e-2)  # m = 151
        trace = run_experiment(
            "nl2", p, random_r(1), Budget(max_iters=1), seed=0, oracles=cached_optimum(p),
            opts=RunOptions(option=2, diagnostics=False))
        per_worker = trace.ledger.rounds[0].charges[0].bits()
        assert p.m == 151
        assert per_worker == 32 * 7 + (32 + ceil_log2(151)) + 32

    def test_nl1_option1_charges_changed_vectors(self):
        p = small_problem(lam=1e-2)
        trace = run_experiment("nl1", p, random_r(1), Budget(max_iters=3), seed=0,
                               oracles=cached_optimum(p),
                               opts=RunOptions(diagnostics=False))
        for rec in trace.ledger.rounds:
            for charge in rec.charges:
                base = 32 * p.d + (32 + ceil_log2(p.m))
                per_vector = 32 * p.d + ceil_log2(p.n * p.m)
                assert (charge.bits() - base) % per_vector == 0
                assert charge.data_vectors <= 1

    def test_bernoulli_non_fire_costs_one_bit(self):
        spec = bernoulli(random_r(1), 1e-12)
        p = small_problem(lam=1e-2)
        trace = run_experiment("nl1", p, spec, Budget(max_iters=1), seed=0,
                               oracles=cached_optimum(p),
                               opts=RunOptions(diagnostics=False))
        charge = trace.ledger.rounds[0].charges[0]
        assert charge.bits() == 32 * p.d + 1   # no change -> no vectors either

    def test_dcgd_gradient_compression_cost(self):
        p = small_problem(d=5)
        trace = run_experiment("dcgd", p, natural(), Budget(max_iters=1), seed=0,
                               oracles=cached_optimum(p))
        assert trace.ledger.rounds[0].charges[0].bits() == 9 * 5

    def test_nested_bernoulli_charges_one_bit_per_zero_row(self, monkeypatch):
        spec = bernoulli(bernoulli(random_r(1), 0.1), 0.9)
        p = small_problem(lam=1e-2, count=60, n=6)
        original, payloads = methods.dcgd_round, []

        def captured(*args):
            x, payload = original(*args)
            payloads.append(payload)
            return x, payload

        monkeypatch.setattr(methods, "dcgd_round", captured)
        trace = run_experiment("dcgd", p, spec, Budget(max_iters=12), seed=5,
                               oracles=cached_optimum(p))
        zero_rows = 0
        for rec, payload in zip(trace.ledger.rounds, payloads, strict=True):
            for charge, row in zip(rec.charges, payload.values, strict=True):
                zero_rows += not row.any()
                assert charge.bits() == (32 + ceil_log2(p.d) if row.any() else 1)
        assert 0 < zero_rows < 12 * p.n

    def test_cumulative_equals_recomputation(self):
        p = small_problem(lam=1e-2)
        trace = run_experiment("nl2", p, random_r(2), Budget(max_iters=20), seed=3,
                               oracles=cached_optimum(p),
                               opts=RunOptions(diagnostics=False))
        up, down = recompute_ledger_totals(trace.ledger)
        assert up == trace.ledger.up_cum == trace.final().bits_up_cum
        assert down == trace.ledger.down_cum == trace.final().bits_down_cum

    # one payload of each kind: bernoulli wrappers that fire or not, Option 1
    # data vectors and Option 2, with and without the curvature ratio
    DESCRIPTOR_RUNS = [("dcgd", bernoulli(random_r(2), 0.5), 1),
                       ("diana", bernoulli(natural(), 0.5), 1),
                       ("nl1", random_r(1), 1),
                       ("nl2", bernoulli(random_r(1), 0.5), 1),
                       ("cnl", random_r(2), 1),
                       ("nl1", bernoulli(random_r(1), 0.5), 2)]

    @staticmethod
    def _descriptor_run(method, spec, option, seed=5):
        p = small_problem(lam=1e-2, count=60, n=6)
        return run_experiment(method, p, spec, Budget(max_iters=12), seed=seed,
                              oracles=cached_optimum(p),
                              opts=RunOptions(option=option, diagnostics=False))

    @pytest.mark.parametrize("method, spec, option", DESCRIPTOR_RUNS)
    def test_equal_payloads_are_one_object(self, method, spec, option):
        trace = self._descriptor_run(method, spec, option)
        first: dict = {}
        charges = [c for rec in trace.ledger.rounds for c in rec.charges]
        for c in charges:
            assert first.setdefault(c, c) is c
        assert len({id(c) for c in charges}) == len(first)
        if isinstance(spec.p, float):
            assert {c.compressed[2] for c in first} == {False, True}

    @pytest.mark.parametrize("method, spec, option", DESCRIPTOR_RUNS)
    def test_bit_cost_runs_once_per_distinct_payload_per_ledger(
            self, method, spec, option, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bit_cost(*args, **kwargs)

        monkeypatch.setattr(harness, "bit_cost", counted)
        for seed in (5, 6):
            before = len(calls)
            trace = self._descriptor_run(method, spec, option, seed)
            distinct = {c for rec in trace.ledger.rounds for c in rec.charges}
            assert len(calls) - before == len(distinct)

    @pytest.mark.parametrize("method, spec, option", DESCRIPTOR_RUNS)
    def test_ledger_equals_a_per_worker_recomputation(self, method, spec, option):
        trace = self._descriptor_run(method, spec, option)
        up = 0
        for rec in trace.ledger.rounds:
            assert [c.price for c in rec.charges] == [c.bits() for c in rec.charges]
            assert len(rec.charges) == 6
            assert rec.up_bits == sum(c.bits() for c in rec.charges)
            up += rec.up_bits
        assert up == trace.ledger.up_cum == trace.final().bits_up_cum
        assert recompute_ledger_totals(trace.ledger) == (
            trace.ledger.up_cum, trace.ledger.down_cum)

    def test_worker_charge_formula(self):
        spec = random_r(1)
        wc = WorkerCharge(grad_floats=10, compressed=(spec, 20, True),
                          beta_scalars=1, data_vectors=2, vector_floats=10,
                          index_bits=5)
        expect = 32 * 10 + (32 + ceil_log2(20)) + 32 + 2 * (32 * 10 + 5)
        assert wc.bits() == expect


class TestReplicas:
    def test_verify_and_mismatch_listing(self):
        a = np.arange(6.0).reshape(2, 3)
        b = a.copy()
        assert verify_replicas(a, b)
        b[1, 2] += 1e-16  # still a different bit pattern? ensure actual change
        b[1, 2] = 99.0
        assert not verify_replicas(a, b)
        assert replica_mismatches(a, b) == [(1, 2)]

    @pytest.mark.parametrize("spec", [identity(), random_r(1),
                                      bernoulli(random_r(1), 0.3)],
                             ids=["identity", "random1", "bernoulli"])
    def test_replicas_hold_over_rounds(self, spec):
        p = small_problem(lam=1e-2, seed=5)
        trace = run_experiment("nl1", p, spec, Budget(max_iters=50), seed=11,
                               oracles=cached_optimum(p),
                               opts=RunOptions(diagnostics=False))
        assert all(r.extras["replica_ok"] for r in trace.rows[1:])

    def test_diverged_server_update_raises_and_names_entry(self, monkeypatch):
        p = small_problem(lam=1e-2, seed=5)
        apply = methods.apply_coeff_update
        calls = []

        def perturbed(h_old, delta, *args):
            h_new = apply(h_old, delta, *args)
            calls.append(1)
            # each round updates the workers first, then the server mirror;
            # the fourth call is the server's update in round 1
            if len(calls) == 4:
                h_new[2, 1] = np.nextafter(h_new[2, 1], np.inf)
            return h_new

        monkeypatch.setattr(methods, "apply_coeff_update", perturbed)
        with pytest.raises(ReplicaMismatchError) as info:
            run_experiment("nl2", p, random_r(1), Budget(max_iters=3), seed=0,
                           oracles=cached_optimum(p))
        assert len(calls) == 4
        assert info.value.mismatches == [(2, 1)]
        assert "(worker 2, index 1)" in str(info.value)


def recorded_rounds(monkeypatch) -> list:
    """Make ``methods.learn_round`` keep (state in, round out) of every call."""
    learn_round = methods.learn_round
    calls = []

    def recording_round(p, state, *args):
        calls.append((state, learn_round(p, state, *args)))
        return calls[-1][1]

    monkeypatch.setattr(methods, "learn_round", recording_round)
    return calls


def oracle_margin(p, out) -> float:
    """The eigen margin the certificate stands for: the smallest eigenvalue
    of the step's estimate minus the data Hessian at its iterate (nl2, cnl),
    or of the next estimate (nl1); lam * I cancels or only adds."""
    if out.beta is None:
        return smallest_eigenvalue(out.state.h_matrix)
    return smallest_eigenvalue(out.h_est - p.data_gram(out.h_at_x))


def certificate_formula(state, out) -> float:
    """min w for the round that ``state`` entered, in the harness's arithmetic."""
    gamma = state.gamma
    if gamma is None:
        return float(np.min(out.state.h))
    return float(np.min(out.beta * (state.h + 2.0 * gamma) - 2.0 * gamma - out.h_at_x))


class TestDiagnostics:
    def test_nl2_domination_margin_recorded(self, monkeypatch):
        p = small_problem(lam=1e-2)
        calls = recorded_rounds(monkeypatch)
        trace = run_experiment("nl2", p, random_r(1), Budget(max_iters=10), seed=0,
                               oracles=cached_optimum(p))
        margins = [oracle_margin(p, out) for _, out in calls]
        assert len(margins) == 10 and all(m >= -1e-8 for m in margins)
        assert all(r.extras["curvature_certificate"] >= -1e-12 for r in trace.rows[1:])

    @pytest.mark.parametrize("variant", ["nl2", "cnl"])
    def test_domination_margin_matches_full_hessian_form(self, variant):
        # estimate + lam*I - hessian(x), with the regularizer on both sides
        p = small_problem(lam=1e-2, seed=3)
        trace = run_experiment(variant, p, random_r(1), Budget(max_iters=5), seed=0,
                               oracles=cached_optimum(p))
        cubic = p.constants().hessian_lipschitz if variant == "cnl" else None
        x0 = np.zeros(p.d)
        state = methods.learn_init(p, x0, p.loss.gamma, cubic)
        eta = methods.default_eta(random_r(1), p.m)
        for row in trace.rows[1:]:
            out = methods.learn_round(p, state, random_r(1), 0, eta)
            h_est, _, _ = methods._dominated_estimate(state, out.h_at_x)
            full = smallest_eigenvalue(
                linalg.add_diagonal(h_est, p.lam) - p.hessian(state.x))
            margin = oracle_margin(p, out)
            assert margin == pytest.approx(full, rel=1e-9, abs=1e-12)
            certificate = row.extras["curvature_certificate"]
            assert certificate == certificate_formula(state, out) and certificate >= -1e-12
            state = out.state
            assert row.extras["value"] == p.value(state.x)   # the run's own iterate

    def test_nl1_psd_margin_recorded(self, monkeypatch):
        p = small_problem(lam=1e-2)
        calls = recorded_rounds(monkeypatch)
        trace = run_experiment("nl1", p, random_r(1), Budget(max_iters=10), seed=0,
                               oracles=cached_optimum(p))
        eigs = [oracle_margin(p, out) for _, out in calls]
        assert len(eigs) == 10 and all(e >= -1e-10 for e in eigs)
        assert all(r.extras["curvature_certificate"] >= -1e-12 for r in trace.rows[1:])

    def test_hull_tracking_with_theory_settings(self):
        p = small_problem(lam=1e-2, seed=6)
        trace = run_experiment("nl1", p, random_r(2), Budget(max_iters=60), seed=2,
                               oracles=cached_optimum(p))
        assert all(r.extras["hull_ok"] for r in trace.rows[1:])

    def test_cnl_decrease_flag(self):
        p = small_problem(lam=1e-3, count=60, seed=7)
        trace = run_experiment("cnl", p, bernoulli(random_r(1), 0.25),
                               Budget(max_iters=30), seed=4, oracles=cached_optimum(p))
        assert all(r.extras["decrease_ok"] for r in trace.rows[1:])

    def test_phi_finite_for_learning_methods_with_oracles(self):
        p = small_problem(lam=1e-2, seed=8)
        o = reference_optimum(p)
        x0, c = np.zeros(p.d), p.constants()
        eta = methods.default_eta(random_r(1), p.m)
        scale = p.m * p.n * eta * c.nu ** 2 * c.max_row_norm ** 2
        # Phi = ||x - x*||^2 + w ||h - h*||^2, with cnl's weight 4/9 where
        # nl1's and nl2's is 1/3
        for method, weight in (("nl1", 1 / 3), ("nl2", 1 / 3), ("cnl", 4 / 9)):
            trace = run_experiment(method, p, random_r(1), Budget(max_iters=5), seed=0,
                                   oracles=o)
            assert all(math.isfinite(r.phi) for r in trace.rows)
            want = (float(np.sum((x0 - o.x_star) ** 2))
                    + weight / scale * float(np.sum((p.h_all(x0) - o.h_star) ** 2)))
            assert trace.rows[0].phi == pytest.approx(want, rel=1e-14)


class TestBackgroundDiagnostics:
    """The curvature certificate: its closed form, computed inline in each
    learner step, and a check that fails when domination does."""

    @pytest.mark.parametrize("method,spec,rounds", [
        ("nl1", random_r(1), 30), ("nl2", random_r(1), 30), ("cnl", random_r(1), 30),
        ("cnl", bernoulli(random_r(1), 0.25), 30),
        ("nl2", random_r(1), methods.REBUILD_PERIOD + 5),    # across a gram rebuild
    ], ids=["nl1", "nl2", "cnl", "cnl-bernoulli", "nl2-rebuild"])
    def test_values_equal_the_synchronous_formula_bitwise(self, monkeypatch, method,
                                                          spec, rounds):
        p = small_problem(lam=1e-3, count=60, d=6, seed=4)
        calls = recorded_rounds(monkeypatch)
        trace = run_experiment(method, p, spec, Budget(max_iters=rounds), seed=3,
                               oracles=cached_optimum(p))
        assert len(calls) == rounds
        got = [r.extras["curvature_certificate"] for r in trace.rows[1:]]
        want = [certificate_formula(state, out) for state, out in calls]
        assert [type(v) for v in got] == [float] * rounds
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("method", ["nl2", "cnl"])
    def test_a_shrunk_beta_fails_the_certificate_and_the_margin(self, monkeypatch,
                                                                 method):
        # nm = 8 rows in d = 10 are linearly independent, so the gram of w has
        # a negative eigenvalue exactly when some weight w is negative
        p = small_problem(lam=1e-3, count=8, d=10, n=4, seed=5)

        def run():
            calls = recorded_rounds(monkeypatch)
            trace = run_experiment(method, p, random_r(1), Budget(max_iters=5), seed=0,
                                   oracles=cached_optimum(p))
            certificates = [r.extras["curvature_certificate"] for r in trace.rows[1:]]
            return certificates, [oracle_margin(p, out) for _, out in calls]

        certificates, margins = run()
        assert min(certificates) >= -1e-12 and min(margins) >= -1e-8
        dominated = methods._dominated_estimate

        def shrunk(state, h_at_x):
            _, beta, betas = dominated(state, h_at_x)
            beta *= 1.0 - 1e-6
            return beta * state.h_matrix - 2.0 * state.gamma * state.mean_gram, beta, betas

        monkeypatch.setattr(methods, "_dominated_estimate", shrunk)
        certificates, margins = run()
        assert len(certificates) == len(margins) == 5
        assert max(certificates) < -1e-12 and max(margins) < -1e-8

    def test_a_run_with_diagnostics_starts_no_thread(self):
        # a fresh interpreter, so no thread an earlier test left running can
        # stand in for one the run starts
        code = textwrap.dedent("""
            import threading
            import numpy as np
            from distnewton.compressors import random_r
            from distnewton.data import Dataset
            from distnewton.harness import Budget, run_experiment
            from distnewton.methods import reference_optimum
            from distnewton.problem import make_problem

            g = np.random.default_rng(0)
            ds = Dataset(features=g.standard_normal((40, 5)),
                         labels=np.where(g.random(40) < 0.5, -1.0, 1.0))
            p = make_problem(ds, n=4, shuffle_seed=0, loss_kind="logistic", lam=1e-2)
            o = reference_optimum(p)
            before = threading.enumerate()
            for method in ("nl1", "nl2", "cnl"):
                trace = run_experiment(method, p, random_r(1), Budget(max_iters=5), seed=0,
                                       oracles=o)
                assert "curvature_certificate" in trace.rows[-1].extras
            print(threading.enumerate() == before)
        """)
        src = str(Path(harness.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True\n"

    def test_concurrent_runs_keep_their_bytes(self):
        # more runs than cores, each on its own problem (the evaluation slot
        # is per problem), with thread switches forced as often as possible
        names = ["nl1", "nl2", "cnl", "nl2"]

        def text(s, m):
            p = small_problem(seed=s)
            return run_experiment(m, p, random_r(1), Budget(max_iters=15), seed=s,
                                  oracles=cached_optimum(p)).json_text()

        serial = [text(s, m) for s, m in enumerate(names)]
        texts = [None] * len(names)

        def run(s, m):
            texts[s] = text(s, m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(s, m))
                       for s, m in enumerate(names)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert texts == serial

    @pytest.mark.parametrize("method", ["nl1", "nl2", "cnl"])
    def test_runs_without_the_lapack_binding_keep_the_margins_bitwise(
            self, monkeypatch, method):
        # numpy's LU solves are the fallback where numpy ships no OpenBLAS
        p = small_problem(lam=1e-3, count=60, d=6, seed=4)
        calls = recorded_rounds(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(linalg, "_LAPACK", None)
            trace = run_experiment(method, p, random_r(1), Budget(max_iters=20), seed=3,
                                   oracles=cached_optimum(p))
        assert trace.final().iteration == 20 and len(calls) == 20
        got = [r.extras["curvature_certificate"] for r in trace.rows[1:]]
        assert got == [certificate_formula(state, out) for state, out in calls]

    def test_diagnostics_off_records_no_certificate(self):
        # and the certificate never touches the CSV bytes
        for method in ("nl1", "nl2", "cnl"):
            p = small_problem()
            on = run_experiment(method, p, random_r(1), Budget(max_iters=3), seed=0,
                                oracles=cached_optimum(p))
            off = run_experiment(method, p, random_r(1), Budget(max_iters=3), seed=0,
                                 oracles=cached_optimum(p),
                                 opts=RunOptions(diagnostics=False))
            assert all("curvature_certificate" in r.extras for r in on.rows[1:])
            assert not any("curvature_certificate" in r.extras for r in off.rows)
            assert off.csv_text() == on.csv_text()


class TestTraceOutput:
    def test_csv_shape_and_header(self, tmp_path):
        p = small_problem()
        o = reference_optimum(p)
        trace = run_experiment("gd", p, None, Budget(max_iters=3), seed=0, oracles=o)
        csv_path, json_path = trace.write(tmp_path, "run")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "iter,gap,grad_norm,bits_up_cum,bits_down_cum,phi,wall_ms"
        assert len(lines) == 5
        assert json_path.exists()

    def test_determinism_bit_identical(self):
        p = small_problem(lam=1e-2, seed=9)
        kwargs = dict(budget=Budget(max_iters=25), seed=123, oracles=cached_optimum(p))
        a = run_experiment("nl2", p, bernoulli(random_r(1), 0.5), **kwargs)
        b = run_experiment("nl2", p, bernoulli(random_r(1), 0.5), **kwargs)
        assert a.csv_text() == b.csv_text()
        for ra, rb in zip(a.rows, b.rows):
            assert ra.extras["value"] == rb.extras["value"]

    def test_timing_opt_in(self):
        p = small_problem()
        trace = run_experiment("gd", p, None, Budget(max_iters=2), seed=0,
                               oracles=cached_optimum(p),
                               opts=RunOptions(timing=True))
        assert all(r.wall_ms > 0 for r in trace.rows[1:])
        silent = run_experiment("gd", p, None, Budget(max_iters=2), seed=0,
                                oracles=cached_optimum(p))
        assert all(math.isnan(r.wall_ms) for r in silent.rows)

    def test_wall_ms_sum_is_within_the_elapsed_time(self):
        p = small_problem()
        o = cached_optimum(p)
        start = time.perf_counter()
        trace = run_experiment("nl2", p, random_r(1), Budget(max_iters=20), seed=0,
                               oracles=o, opts=RunOptions(timing=True))
        elapsed_ms = (time.perf_counter() - start) * 1e3
        walls = [r.wall_ms for r in trace.rows[1:]]
        assert all(w > 0 for w in walls)
        assert sum(walls) <= elapsed_ms

    def test_wall_ms_is_each_round_in_milliseconds(self, monkeypatch):
        # a clock that moves a quarter second per reading: each round reads
        # it once before and once after its step
        clock = itertools.count(step=0.25)
        monkeypatch.setattr(harness, "time",
                            types.SimpleNamespace(perf_counter=lambda: next(clock)))
        p = small_problem()
        trace = run_experiment("nl2", p, random_r(1), Budget(max_iters=4), seed=0,
                               oracles=cached_optimum(p), opts=RunOptions(timing=True))
        assert [r.wall_ms for r in trace.rows[1:]] == [250.0] * 4


class TestSuperlinearDiagnostic:
    """Converging learning runs show a decreasing distance-ratio tail."""

    @pytest.mark.parametrize("method", ["nl2", "cnl"])
    def test_tail_ratios_decrease(self, method, a2a_1e3, a2a_1e3_oracles):
        trace = run_experiment(method, a2a_1e3, random_r(1),
                               Budget(max_iters=200), seed=2,
                               oracles=a2a_1e3_oracles,
                               opts=RunOptions(diagnostics=False))
        ratios = tail_ratios(trace.distances(), count=5, floor=1e-12)
        assert len(ratios) == 5
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_learning_neighborhood_flag_eventually_true(self, a2a_1e3,
                                                        a2a_1e3_oracles):
        p, o = a2a_1e3, a2a_1e3_oracles
        c = p.constants()
        mu = smallest_eigenvalue(o.hessian_star) + p.lam
        # the squared radius of each learner's local-convergence region
        bounded = mu ** 2 / (432 * p.m * p.n * c.nu ** 2 * c.max_row_norm ** 6)
        for method, radius_sq in (
                ("nl1", p.lam ** 2 / (12 * c.nu ** 2 * c.max_row_norm ** 6)),
                ("nl2", bounded), ("cnl", bounded)):
            trace = run_experiment(method, p, random_r(1), Budget(max_iters=60), seed=1,
                                   oracles=o, opts=RunOptions(diagnostics=False))
            flags = [r.extras["in_neighborhood"] for r in trace.rows[1:]]
            assert not flags[0] and flags[-1], method
            assert flags == [r.extras["dist"] ** 2 <= radius_sq for r in trace.rows[1:]]


@functools.cache
def squared_a2a(lam):
    p = a2a_shaped_problem(lam, loss="squared")
    return p, cached_optimum(p)


class TestTheoryConstants:
    """A learner's neighborhood radius and phi's weight never raise: where
    their formula divides by 0 or leaves the float range they are NaN, so
    phi reads NaN and no row carries in_neighborhood. cnl's step reads M,
    so admission rejects a cnl run whose M is not finite."""

    # h is constant on the squared loss (nu = 0), so the start h(x0) is exact
    @pytest.mark.parametrize("lam, method", [(1e-3, "nl1"), (1e-3, "nl2"), (1e-3, "cnl"),
                                             (0.0, "nl2"), (0.0, "cnl")])
    def test_squared_loss_learner_is_exact_from_round_1(self, lam, method):
        p, o = squared_a2a(lam)
        trace = run_experiment(method, p, random_r(1), Budget(max_iters=3), seed=1,
                               oracles=o)
        assert trace.rows[0].gap > 0.0
        assert [r.gap for r in trace.rows[1:]] == [0.0] * 3
        assert all(math.isnan(r.phi) for r in trace.rows)
        assert not any("in_neighborhood" in r.extras for r in trace.rows)

    @pytest.mark.parametrize("scale, eta", [(1.0, 5e-324), (1e-200, None)],
                             ids=["eta-underflows", "features-1e-200"])
    def test_constant_past_the_float_range_reads_nan(self, scale, eta):
        p = small_problem(lam=1e-2, seed=4)
        p = make_problem(Dataset(p.dataset.features * scale, p.dataset.labels),
                         n=p.n, shuffle_seed=4, loss_kind="logistic", lam=p.lam)
        for method in ("nl1", "nl2", "cnl"):
            trace = run_experiment(method, p, random_r(1), Budget(max_iters=2), seed=0,
                                   oracles=cached_optimum(p), opts=RunOptions(eta=eta))
            assert all(math.isnan(r.phi) for r in trace.rows), method
            if scale != 1.0:
                assert not any("in_neighborhood" in r.extras for r in trace.rows)

    @pytest.mark.parametrize("method", ["nl1", "nl2", "cnl"])
    def test_neighborhood_radius_matches_its_closed_form(self, method):
        # nl1: lam^2 / (12 nu^2 R^6); nl2 and cnl: mu^2 / (432 m n nu^2 R^6),
        # mu = lambda_min(H*) + lam = the smallest eigenvalue of P's Hessian at x*
        p = small_problem(lam=0.1, seed=2)
        o = cached_optimum(p)
        c = p.constants()
        if method == "nl1":
            want = p.lam ** 2 / (12 * c.nu ** 2 * c.max_row_norm ** 6)
        else:
            mu = np.linalg.eigvalsh(p.hessian(o.x_star))[0]
            want = mu ** 2 / (432 * p.m * p.n * c.nu ** 2 * c.max_row_norm ** 6)
        run = harness._admit(method, p, random_r(1), RunOptions())._replace(oracles=o)
        learner = harness._Learner(run, _METHODS[method].bounded, method == "cnl")
        assert learner.neighborhood == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cnl_rejects_an_infinite_cubic_coefficient(self):
        p = small_problem()
        p = make_problem(Dataset(p.dataset.features * 1e120, p.dataset.labels),
                         n=p.n, shuffle_seed=0, loss_kind="logistic", lam=p.lam)
        assert p.constants().hessian_lipschitz == math.inf
        with pytest.raises(ConfigError, match="cubic coefficient"):
            harness._admit("cnl", p, random_r(1), RunOptions())
        harness._admit("nl2", p, random_r(1), RunOptions())     # reads no M


class TestLearningGramConsistency:
    def test_periodic_rebuild_reports_negligible_drift(self):
        p = small_problem(lam=1e-2, seed=23)
        trace = run_experiment("nl2", p, random_r(3), Budget(max_iters=220),
                               seed=6, oracles=cached_optimum(p),
                               opts=RunOptions(diagnostics=False))
        drifts = [r.extras["rebuild_drift"] for r in trace.rows[1:]]
        assert max(drifts) > 0.0          # a rebuild actually happened
        assert max(drifts) <= 1e-8


class TestPairedRunExample:
    def test_nl1_reaches_tight_gap_with_tenth_of_newton_bits(self, a2a_1e3,
                                                             a2a_1e3_oracles):
        nl1 = run_experiment("nl1", a2a_1e3, random_r(1),
                             Budget(max_iters=400, target_gap=1e-11), seed=1,
                             oracles=a2a_1e3_oracles,
                             opts=RunOptions(diagnostics=False))
        newton = run_experiment("newton", a2a_1e3, None,
                                Budget(max_iters=12, target_gap=1e-11), seed=1,
                                oracles=a2a_1e3_oracles)
        nl1_bits = bits_to_reach(nl1, 1e-10)
        newton_bits = bits_to_reach(newton, 1e-10)
        assert nl1_bits is not None and newton_bits is not None
        assert 10 * nl1_bits <= newton_bits


class TestHelpers:
    def test_bits_to_reach(self):
        p = small_problem("squared", lam=0.1)
        o = reference_optimum(p)
        trace = run_experiment("newton", p, None, Budget(max_iters=3), seed=0,
                               oracles=o)
        bits = bits_to_reach(trace, 1e-10)
        assert bits == trace.rows[1].bits_up_cum
        assert bits_to_reach(trace, -1.0) is None

    def test_tail_ratios(self):
        dists = [1.0, 0.5, 0.2, 0.05, 1e-3, 1e-6, 1e-13, 1e-15]
        ratios = tail_ratios(dists, count=5, floor=1e-12)
        assert len(ratios) == 5
        assert ratios[-1] == pytest.approx(1e-6 / 1e-3)
