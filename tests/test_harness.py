import math
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from distnewton import harness, linalg, methods
from distnewton.compressors import bernoulli, ceil_log2, identity, natural, random_r
from distnewton.data import Dataset
from distnewton.errors import ConfigError, InputError, ReplicaMismatchError
from distnewton.harness import (_METHODS, Budget, RunOptions, TraceRow, WorkerCharge,
                                bits_to_reach, recompute_ledger_totals,
                                replica_mismatches, run_experiment, tail_ratios,
                                verify_replicas)
from distnewton.linalg import smallest_eigenvalue
from distnewton.methods import reference_optimum
from distnewton.problem import make_problem


def small_problem(loss="logistic", lam=1e-2, count=40, d=5, n=4, seed=0):
    g = np.random.default_rng(seed)
    ds = Dataset(features=g.standard_normal((count, d)),
                 labels=np.where(g.random(count) < 0.5, -1.0, 1.0))
    return make_problem(ds, n=n, shuffle_seed=seed, loss_kind=loss, lam=lam)


def wide_problem(n=15, m=1, d=123, loss="logistic", lam=1e-3):
    g = np.random.default_rng(42)
    count = n * m
    ds = Dataset(features=g.standard_normal((count, d)) / math.sqrt(d),
                 labels=np.where(g.random(count) < 0.5, -1.0, 1.0))
    return make_problem(ds, n=n, shuffle_seed=0, loss_kind=loss, lam=lam)


class TestBudgets:
    def test_zero_iterations_gives_initial_row_only(self):
        p = small_problem()
        trace = run_experiment("gd", p, None, Budget(max_iters=0), seed=0)
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
                               seed=0)
        assert len(trace.rows) == 3  # two rounds charge past the budget

    def test_ns_squared_loss_converges_first_round(self):
        p = small_problem("squared", lam=0.1)
        o = reference_optimum(p)
        trace = run_experiment("ns", p, None, Budget(max_iters=1), seed=0, oracles=o)
        assert trace.rows[1].gap <= 1e-20


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            run_experiment("sgd", small_problem(), None, Budget(max_iters=1), seed=0)

    def test_nl1_requires_positive_lambda(self):
        p = small_problem(lam=0.0)
        with pytest.raises(ConfigError):
            run_experiment("nl1", p, random_r(1), Budget(max_iters=1), seed=0)

    @pytest.mark.parametrize("method", [m for m, rec in _METHODS.items()
                                        if rec.needs_oracles])
    def test_oracle_methods_require_oracles(self, method):
        with pytest.raises(ConfigError, match="oracles"):
            run_experiment(method, small_problem(), None, Budget(max_iters=1), seed=0)

    @pytest.mark.parametrize("method", [m for m, rec in _METHODS.items()
                                        if rec.needs_spec])
    def test_compressed_methods_require_spec(self, method):
        with pytest.raises(ConfigError, match="compressor spec"):
            run_experiment(method, small_problem(), None, Budget(max_iters=1), seed=0)

    def test_target_gap_requires_oracles(self):
        with pytest.raises(ConfigError):
            run_experiment("gd", small_problem(), None,
                           Budget(max_iters=1, target_gap=1e-3), seed=0)

    def test_eta_above_theory_warns(self):
        p = small_problem(lam=1e-2)
        with pytest.warns(UserWarning) as record:
            run_experiment("nl1", p, random_r(1), Budget(max_iters=1), seed=0,
                           opts=RunOptions(eta=1.0, diagnostics=False))
        # attributed to the caller of run_experiment, not to the harness
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("method", ["gd", "nl1", "bfgs"])
    @pytest.mark.parametrize("x0", [[0.1, 0.2], [0.0, 0.0, math.nan, 0.0, 0.0],
                                    [[0.0] * 5], ["a", 0.0, 0.0, 0.0, 0.0]],
                             ids=["short", "nan", "nested", "text"])
    def test_bad_x0_raises_input_error(self, method, x0):
        p = small_problem()
        spec = random_r(1) if method == "nl1" else None
        with pytest.raises(InputError, match="x0"):
            run_experiment(method, p, spec, Budget(max_iters=1), seed=0,
                           opts=RunOptions(x0=x0))

    @pytest.mark.parametrize("option", [0, 3, 7])
    def test_option_outside_1_2_rejected(self, option):
        with pytest.raises(ConfigError, match="option"):
            run_experiment("nl1", small_problem(), random_r(1), Budget(max_iters=1),
                           seed=0, opts=RunOptions(option=option))


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
        trace = run_experiment("newton", p, None, Budget(max_iters=1), seed=0)
        per_worker = trace.ledger.rounds[0].per_worker_bits[0]
        assert per_worker == 32 * 123 + 32 * (123 * 124) // 2

    def test_coefficient_newton_round_charge(self):
        p = small_problem(count=40, d=5, n=4)
        trace = run_experiment("newton_coeff", p, None, Budget(max_iters=1), seed=0)
        per_worker = trace.ledger.rounds[0].per_worker_bits[0]
        assert per_worker == 32 * 5 + 32 * p.m

    def test_nl2_option2_round_charge(self):
        p = small_problem(count=302, d=7, n=2, lam=1e-2)  # m = 151
        trace = run_experiment(
            "nl2", p, random_r(1), Budget(max_iters=1), seed=0,
            opts=RunOptions(option=2, diagnostics=False))
        per_worker = trace.ledger.rounds[0].per_worker_bits[0]
        assert p.m == 151
        assert per_worker == 32 * 7 + (32 + ceil_log2(151)) + 32

    def test_nl1_option1_charges_changed_vectors(self):
        p = small_problem(lam=1e-2)
        trace = run_experiment("nl1", p, random_r(1), Budget(max_iters=3), seed=0,
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
                               opts=RunOptions(diagnostics=False))
        charge = trace.ledger.rounds[0].charges[0]
        assert charge.bits() == 32 * p.d + 1   # no change -> no vectors either

    def test_dcgd_gradient_compression_cost(self):
        p = small_problem(d=5)
        trace = run_experiment("dcgd", p, natural(), Budget(max_iters=1), seed=0)
        assert trace.ledger.rounds[0].per_worker_bits[0] == 9 * 5

    def test_cumulative_equals_recomputation(self):
        p = small_problem(lam=1e-2)
        trace = run_experiment("nl2", p, random_r(2), Budget(max_iters=20), seed=3,
                               opts=RunOptions(diagnostics=False))
        up, down = recompute_ledger_totals(trace.ledger)
        assert up == trace.ledger.up_cum == trace.final().bits_up_cum
        assert down == trace.ledger.down_cum == trace.final().bits_down_cum

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
            run_experiment("nl2", p, random_r(1), Budget(max_iters=3), seed=0)
        assert len(calls) == 4
        assert info.value.mismatches == [(2, 1)]
        assert "(worker 2, index 1)" in str(info.value)


class TestDiagnostics:
    def test_nl2_domination_margin_recorded(self):
        p = small_problem(lam=1e-2)
        trace = run_experiment("nl2", p, random_r(1), Budget(max_iters=10), seed=0)
        margins = [r.extras["domination_margin"] for r in trace.rows[1:]]
        assert all(m >= -1e-8 for m in margins)

    @pytest.mark.parametrize("variant", ["nl2", "cnl"])
    def test_domination_margin_matches_full_hessian_form(self, variant):
        # estimate + lam*I - hessian(x), with the regularizer on both sides
        p = small_problem(lam=1e-2, seed=3)
        trace = run_experiment(variant, p, random_r(1), Budget(max_iters=5), seed=0)
        cubic = p.constants().hessian_lipschitz if variant == "cnl" else None
        x0 = np.zeros(p.d)
        state = methods.learn_init(p, x0, p.h_all(x0), p.loss.gamma, cubic)
        eta = methods.default_eta(random_r(1), p.m)
        for row in trace.rows[1:]:
            out = methods.learn_round(p, state, random_r(1), 0, eta)
            h_est, _, _ = methods._dominated_estimate(state, out.h_at_x)
            full = smallest_eigenvalue(
                linalg.add_diagonal(h_est, p.lam) - p.hessian(state.x))
            margin = row.extras["domination_margin"]
            assert margin == pytest.approx(full, rel=1e-9, abs=1e-12)
            state = out.state
            assert row.extras["value"] == p.value(state.x)   # the run's own iterate

    def test_nl1_psd_margin_recorded(self):
        p = small_problem(lam=1e-2)
        trace = run_experiment("nl1", p, random_r(1), Budget(max_iters=10), seed=0)
        eigs = [r.extras["min_eig_estimate"] for r in trace.rows[1:]]
        assert all(e >= -1e-10 for e in eigs)

    def test_hull_tracking_with_theory_settings(self):
        p = small_problem(lam=1e-2, seed=6)
        trace = run_experiment("nl1", p, random_r(2), Budget(max_iters=60), seed=2)
        assert all(r.extras["hull_ok"] for r in trace.rows[1:])

    def test_cnl_decrease_flag(self):
        p = small_problem(lam=1e-3, count=60, seed=7)
        trace = run_experiment("cnl", p, bernoulli(random_r(1), 0.25),
                               Budget(max_iters=30), seed=4)
        assert all(r.extras["decrease_ok"] for r in trace.rows[1:])

    def test_phi_finite_for_learning_methods_with_oracles(self):
        p = small_problem(lam=1e-2, seed=8)
        o = reference_optimum(p)
        trace = run_experiment("nl1", p, random_r(1), Budget(max_iters=5), seed=0,
                               oracles=o)
        assert all(math.isfinite(r.phi) for r in trace.rows)


class TestBackgroundDiagnostics:
    """The eigen diagnostics run on a background thread and settle later."""

    @staticmethod
    def record(monkeypatch, futures, rows):
        """Record every submitted diagnostics job and every row the run makes."""
        class RecordingPool:
            def submit(self, fn, *args):
                futures.append(pool.submit(fn, *args))
                return futures[-1]

        class RecordedRow(TraceRow):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rows.append(self)

        pool = harness._DIAGNOSTICS
        monkeypatch.setattr(harness, "_DIAGNOSTICS", RecordingPool())
        monkeypatch.setattr(harness, "TraceRow", RecordedRow)

    @pytest.mark.parametrize("method,spec,rounds", [
        ("nl1", random_r(1), 30), ("nl2", random_r(1), 30), ("cnl", random_r(1), 30),
        ("cnl", bernoulli(random_r(1), 0.25), 30),
        ("nl2", random_r(1), methods.REBUILD_PERIOD + 5),    # across a gram rebuild
    ], ids=["nl1", "nl2", "cnl", "cnl-bernoulli", "nl2-rebuild"])
    def test_values_equal_the_synchronous_formula_bitwise(self, monkeypatch, method,
                                                          spec, rounds):
        p = small_problem(lam=1e-3, count=60, d=6, seed=4)
        learn_round = methods.learn_round
        outs = []

        def recording_round(*args):
            outs.append(learn_round(*args))
            return outs[-1]

        monkeypatch.setattr(methods, "learn_round", recording_round)
        trace = run_experiment(method, p, spec, Budget(max_iters=rounds), seed=3)
        assert len(outs) == rounds
        if method == "nl1":
            got = [r.extras["min_eig_estimate"] for r in trace.rows[1:]]
            want = [smallest_eigenvalue(out.state.h_matrix) for out in outs]
        else:
            got = [r.extras["domination_margin"] for r in trace.rows[1:]]
            want = [smallest_eigenvalue(out.h_est - p.data_gram(out.h_at_x))
                    for out in outs]
        assert [type(v) for v in got] == [float] * rounds
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("method", ["nl1", "nl2"])
    @pytest.mark.parametrize("failing_call", [1, 4], ids=["mid-run", "last-round"])
    def test_job_exception_surfaces_with_its_own_type(self, monkeypatch, method,
                                                      failing_call):
        class JobFailed(Exception):
            pass

        calls = []
        min_eigenvalue = harness._min_eigenvalue

        def failing(a):
            calls.append(1)
            if len(calls) == failing_call:
                raise JobFailed("eigenvalue job failed")
            return min_eigenvalue(a)

        monkeypatch.setattr(harness, "_min_eigenvalue", failing)
        with pytest.raises(JobFailed):
            run_experiment(method, small_problem(), random_r(1), Budget(max_iters=4),
                           seed=0)

    def test_no_job_outlives_a_run_that_returns(self, monkeypatch):
        futures, rows = [], []
        self.record(monkeypatch, futures, rows)
        trace = run_experiment("nl2", small_problem(), random_r(1), Budget(max_iters=6),
                               seed=0)
        assert len(futures) == 6 and all(f.done() for f in futures)
        assert list(map(id, rows)) == list(map(id, trace.rows))
        assert not any(isinstance(v, Future) for r in rows for v in r.extras.values())

    def test_no_job_outlives_a_run_that_raises(self, monkeypatch):
        futures, rows = [], []
        self.record(monkeypatch, futures, rows)
        apply = methods.apply_coeff_update
        calls = []

        def perturbed(h_old, delta, *args):
            h_new = apply(h_old, delta, *args)
            calls.append(1)
            if len(calls) == 6:          # the server's update in round 2
                h_new[0, 0] = np.nextafter(h_new[0, 0], np.inf)
            return h_new

        monkeypatch.setattr(methods, "apply_coeff_update", perturbed)
        with pytest.raises(ReplicaMismatchError):
            run_experiment("nl2", small_problem(), random_r(1), Budget(max_iters=5),
                           seed=0)
        assert len(futures) == 2 and all(f.done() for f in futures)
        assert len(rows) == 3
        assert not any(isinstance(v, Future) for r in rows for v in r.extras.values())

    def test_concurrent_runs_share_the_thread_and_keep_their_bytes(self):
        # more runs than cores, each on its own problem (the evaluation slot
        # is per problem), with thread switches forced as often as possible
        names = ["nl1", "nl2", "cnl", "nl2"]
        serial = [run_experiment(m, small_problem(seed=s), random_r(1),
                                 Budget(max_iters=15), seed=s).json_text()
                  for s, m in enumerate(names)]
        texts = [None] * len(names)

        def run(s, m):
            texts[s] = run_experiment(m, small_problem(seed=s), random_r(1),
                                      Budget(max_iters=15), seed=s).json_text()

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

    def test_diagnostics_off_submits_no_job(self, monkeypatch):
        monkeypatch.setattr(harness, "_DIAGNOSTICS", None)     # any submit would raise
        trace = run_experiment("nl2", small_problem(), random_r(1), Budget(max_iters=3),
                               seed=0, opts=RunOptions(diagnostics=False))
        assert "domination_margin" not in trace.rows[-1].extras


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
        kwargs = dict(budget=Budget(max_iters=25), seed=123)
        a = run_experiment("nl2", p, bernoulli(random_r(1), 0.5), **kwargs)
        b = run_experiment("nl2", p, bernoulli(random_r(1), 0.5), **kwargs)
        assert a.csv_text() == b.csv_text()
        for ra, rb in zip(a.rows, b.rows):
            assert ra.extras["value"] == rb.extras["value"]

    def test_timing_opt_in(self):
        p = small_problem()
        trace = run_experiment("gd", p, None, Budget(max_iters=2), seed=0,
                               opts=RunOptions(timing=True))
        assert all(r.wall_ms > 0 for r in trace.rows[1:])
        silent = run_experiment("gd", p, None, Budget(max_iters=2), seed=0)
        assert all(math.isnan(r.wall_ms) for r in silent.rows)


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
        trace = run_experiment("nl1", a2a_1e3, random_r(1),
                               Budget(max_iters=60), seed=1,
                               oracles=a2a_1e3_oracles)
        flags = [r.extras["in_neighborhood"] for r in trace.rows[1:]]
        assert not flags[0] and flags[-1]


class TestLearningGramConsistency:
    def test_periodic_rebuild_reports_negligible_drift(self):
        p = small_problem(lam=1e-2, seed=23)
        trace = run_experiment("nl2", p, random_r(3), Budget(max_iters=220),
                               seed=6, opts=RunOptions(diagnostics=False))
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
