"""Tests of the benchmark itself: metric names and units, the correctness
gate's negative controls, tracer coverage and the command's contract."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import tracer
import workloads
from distnewton import harness, linalg, methods

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# Public functions and methods no workload reaches. A rename shows up here as
# a name that is no longer wrapped or a new one that is never called.
NEVER_CALLED = {
    "cli.cmd_gen_data", "cli.cmd_run", "cli.parse_compressor_flag",
    "compressors.CompressorSpec.to_dict", "compressors.bernoulli",
    "compressors.compress", "compressors.dithering", "compressors.identity",
    "compressors.natural", "compressors.random_r",
    "data.dumps_libsvm", "data.save_dataset", "data.synth_artificial",
    "harness.Trace.distances", "harness.Trace.final", "harness.Trace.gaps",
    "harness.recompute_ledger_totals", "harness.replica_mismatches",
    "harness.tail_ratios",
    "linalg.EigDecomposition.reconstruct", "linalg.identity",
    "linalg.rank1_accumulate", "linalg.zeros",
    "methods.mn_rate_constant", "methods.mn_step", "methods.ns_rate_constant",
    "methods.ns_step",
    "rngs.standard_normals",
}


def test_benchmark_json_matches_the_command():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result, lines = bench.run_benchmark(workload, 1, 0, bool(trace), tiny=True,
                                        out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
        assert any(name in line for line in lines)


def _flip_nth_csv(monkeypatch, nth):
    original = harness.Trace.csv_text
    calls = []

    def flipped(self):
        text = original(self)
        calls.append(1)
        return text.replace("\n0,", "\n1,", 1) if len(calls) == nth else text

    monkeypatch.setattr(harness.Trace, "csv_text", flipped)


def _skew_nth_charge(monkeypatch, nth):
    original = harness.charge_round
    calls = []

    def skewed(ledger, *args, **kwargs):
        rec = original(ledger, *args, **kwargs)
        calls.append(1)
        if len(calls) == nth:
            ledger.up_cum += 1
        return rec

    monkeypatch.setattr(harness, "charge_round", skewed)


@pytest.mark.parametrize("tamper", [_flip_nth_csv, _skew_nth_charge])
@pytest.mark.parametrize("workload", ["a2a_learn", "cli_sweep"])
def test_negative_controls_show_in_fail_ratio(workload, tamper, monkeypatch, tmp_path):
    tamper(monkeypatch, 2)
    result, lines = bench.run_benchmark(workload, 1, 0, False, tiny=True, out_dir=tmp_path)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert any(line.startswith("FAILED") for line in lines)


def test_traced_run_calls_every_wrapped_function(tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        for name in WORKLOAD_NAMES:
            work = workloads.make_workload(name, 1, True, tmp_path / name)
            work.setup(tr.run)
            bench.measure(work, workloads.Tally(), 0, tr.run, reference_pass=True)
    finally:
        tr.uninstall()
    called = tr.called()
    assert set(tracer.REQUIRED) <= called
    assert {name.split(".")[0] for name in called} == set(tracer.LAYERS)
    assert set(tr.names) - called == NEVER_CALLED


def test_uninstall_restores_every_binding():
    tr = tracer.Tracer()
    tr.install()
    assert hasattr(methods.solve_spd, "__wrapped__")
    tr.uninstall()
    assert methods.solve_spd is linalg.solve_spd
    assert not hasattr(linalg.solve_spd, "__wrapped__")
    assert not hasattr(harness.Trace.write, "__wrapped__")


def test_install_fails_loudly_on_a_missing_function(monkeypatch):
    monkeypatch.setattr(tracer, "REQUIRED", tracer.REQUIRED + ("linalg.renamed_away",))
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError, match="linalg.renamed_away"):
        tr.install()
    assert not hasattr(linalg.solve_spd, "__wrapped__")


def test_generator_is_seeded_and_shaped():
    a = workloads.sparse_binary_dataset(workloads.A2A, 3, 0)
    b = workloads.sparse_binary_dataset(workloads.A2A, 3, 0)
    c = workloads.sparse_binary_dataset(workloads.A2A, 3, 1)
    assert a.features.shape == (2265, 123)
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)
    assert np.all(a.features.sum(axis=1) == 14)
    assert set(np.unique(a.features)) == {0.0, 1.0}


def test_generator_output_is_pinned():
    """Inputs must not drift across numpy versions or platforms."""
    ds = workloads.sparse_binary_dataset(workloads.TINY_A2A, 1, 0)
    digest = hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest()
    assert digest == "f58454a238a78cf63ae49a120093340564763cf578057a2559504e8882ef73cb"


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "phishing_workers",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("environment: ")
    env = json.loads(lines[0].split(": ", 1)[1])
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc",
            "git_commit", "seed"} <= set(env)
    result = json.loads(lines[-1])
    assert result["correct"] and set(result["metrics"]) == {
        m["name"] for m in SPEC["end_to_end"]}


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "a2a_learn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
