"""distnewton benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload a2a_learn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` repeats the untraced measurement, then measures again with
every layer wrapped and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads, the metrics and the span file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / ".out"

SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_tail", "ms"),
    ("bits_to_gap", "bit"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

RUN_METHODS = ("nl1", "nl2", "cnl", "dcgd", "diana", "newton", "newton_coeff",
               "bfgs", "gd")

PER_LAYER = (
    tuple((f"{layer}.self_ms_per_round", "ms") for layer in (
        "data", "problem", "rngs", "compressors", "linalg", "methods",
        "harness", "cli"))
    + (
        ("linalg.solve_ms_per_round", "ms"),
        ("linalg.eig_ms_per_round", "ms"),
        ("linalg.gram_ms_per_round", "ms"),
        ("linalg.gram_rows_per_round", "count"),
        ("linalg.gram_mflop_per_round_computed", "Mflop"),
        ("problem.worker_calls_per_round", "count"),
        ("problem.full_passes_per_round", "count"),
        ("problem.constants_calls_per_round", "count"),
        ("rngs.streams_per_round", "count"),
        ("compressors.calls_per_round", "count"),
        ("compressors.fired_ratio", "ratio"),
        ("methods.cubic_ms_per_round", "ms"),
        ("methods.refopt_s", "s"),
    )
    + tuple((f"harness.{m}.ms_per_round", "ms") for m in RUN_METHODS)
    + (
        ("harness.trace_write_ms", "ms"),
        ("data.parse_ms", "ms"),
        ("data.parse_calls", "count"),
        ("data.partition_ms", "ms"),
        ("cli.self_ms", "ms"),
        ("cli.oracle_cache_hit_ratio", "ratio"),
        ("tracing_overhead", "ratio"),
    )
)

# Tail percentile: the highest of these with at least ten samples beyond it
# in one timing pass. The per-pass count is fixed by the sweep and the seed,
# not by speed, so the percentile a workload reports does not change when
# the program gets faster and more passes fit in the run.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

NOTES = (
    "The simulator is lockstep and in-process: no layer waits on another or "
    "retries, so no wait or retry metrics are reported.",
    "Per-round figures are totals over the traced sweep divided by the "
    "simulated rounds it completed; set-up runs are excluded from them.",
    "A per-layer figure of 0 means the workload does not exercise that "
    "function (for example harness.cnl on phishing_workers).",
)


def limit_blas_threads() -> int:
    """Pin BLAS to one thread before numpy is imported; returns ``nproc``.

    The matrices here are at most 123 x 123, too small to gain from BLAS
    threads, and on a shared machine a second BLAS thread that waits for a
    busy core turns into stalls of tens of milliseconds in the round tail.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads_in_effect() -> str:
    """Threads OpenBLAS reports, read through ctypes from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return f"{fn()} (openblas_get_num_threads)"
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (OPENBLAS_NUM_THREADS)"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": blas_threads_in_effect(),
        "nproc": nproc,
        "git_commit": commit,
        "seed": seed,
    }


def _untimed(kind: str):
    """Stand-in for ``Tracer.run`` when nothing is traced."""
    return contextlib.nullcontext()


def measure(work, tally, seconds: float, timer, reference_pass: bool) -> None:
    """Closed loop: whole passes of the sweep, one run after another, until
    ``seconds`` have passed, after the timing-off reference pass if asked
    for. At least one timing pass always runs."""
    start = time.perf_counter()
    if reference_pass:
        work.run_pass(tally, timer, reference_pass=True)
    while True:
        work.run_pass(tally, timer, reference_pass=False)
        if time.perf_counter() - start >= seconds:
            break


def tail_percentile(samples_per_pass: int) -> float:
    for q in TAIL_LADDER:
        if samples_per_pass * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def end_to_end_metrics(tally, setups: list[float]) -> tuple[dict, list[str]]:
    import numpy as np

    walls = np.concatenate(tally.pass_walls)
    per_pass = len(tally.pass_walls[0])
    q = tail_percentile(per_pass)
    values = {
        "setup_s": statistics.median(setups),
        # The guards keep a result printable when every run failed.
        "rounds_per_s": tally.rounds / tally.busy_s if tally.busy_s else 0.0,
        "round_ms_p50": float(np.median(walls)) if walls.size else 0.0,
        "round_ms_tail": float(np.percentile(walls, q)) if walls.size else 0.0,
        "bits_to_gap": tally.bits_to_gap,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups",
        f"rounds_per_s: {tally.rounds} rounds in {tally.busy_s:.3f} s of measured "
        f"calls over {tally.passes} passes",
        f"round_ms_tail: p{q:g} of {walls.size} wall_ms samples over "
        f"{len(tally.pass_walls)} timing passes ({per_pass} per pass); "
        "round_ms_p50 from the same samples",
        "bits_to_gap: summed upstream bits at gap <= 1e-10 over the target-gap runs",
        f"pass_ratio: 1 - fail_ratio; fail_ratio = {tally.failed}/{tally.attempted}",
    ]
    return {name: values[name] for name, _ in END_TO_END}, notes


def per_layer_metrics(tr, tally, untraced_rate: float) -> dict:
    import numpy as np
    from tracer import (CLI_MAIN, COMPRESS, CONSTANTS, CUBIC, EIG, FULL_PASSES,
                        GRAM, ORACLE_LOOKUP, PARSE, PARTITION, REFOPT, RUN, SOLVE,
                        STREAMS, TRACE_WRITE, WORKER_CALLS)

    a = tr.arrays()
    rounds = max(tally.rounds, 1)
    passes = max(tally.passes, 1)
    sweep = "sweep"

    def ms(mask):
        return float(a["dur"][mask].sum()) * 1e3

    def count(names, kind=sweep):
        return int(tr.mask(a, names, kind).sum())

    def mean_ms(names, kind=None):
        m = tr.mask(a, names, kind)
        return ms(m) / m.sum() if m.any() else 0.0

    out = {}
    for layer in ("data", "problem", "rngs", "compressors", "linalg", "methods",
                  "harness", "cli"):
        m = tr.layer_mask(a, layer, sweep)
        out[f"{layer}.self_ms_per_round"] = float(a["self"][m].sum()) * 1e3 / rounds

    out["linalg.solve_ms_per_round"] = ms(tr.outermost(a, SOLVE, sweep)) / rounds
    out["linalg.eig_ms_per_round"] = ms(tr.outermost(a, EIG, sweep)) / rounds
    gram = tr.outermost(a, GRAM, sweep)
    out["linalg.gram_ms_per_round"] = ms(gram) / rounds
    shapes = [tr.details[i] for i in np.flatnonzero(gram)]
    out["linalg.gram_rows_per_round"] = sum(s[0] for s in shapes) / rounds
    out["linalg.gram_mflop_per_round_computed"] = (
        sum(2.0 * s[0] * s[1] ** 2 for s in shapes) / 1e6 / rounds)
    out["problem.worker_calls_per_round"] = count(WORKER_CALLS) / rounds
    out["problem.full_passes_per_round"] = count(FULL_PASSES) / rounds
    out["problem.constants_calls_per_round"] = count(CONSTANTS) / rounds
    out["rngs.streams_per_round"] = count(STREAMS) / rounds
    out["compressors.calls_per_round"] = count(COMPRESS) / rounds
    out["compressors.fired_ratio"] = tally.fired / tally.sent if tally.sent else 0.0
    out["methods.cubic_ms_per_round"] = ms(tr.outermost(a, CUBIC, sweep)) / rounds
    refopt = a["dur"][tr.mask(a, REFOPT)]
    out["methods.refopt_s"] = float(np.median(refopt)) if refopt.size else 0.0

    run_spans = np.flatnonzero(tr.mask(a, RUN, sweep))
    for method in RUN_METHODS:
        spans = [i for i in run_spans if tr.details[i][0] == method]
        method_rounds = sum(tr.details[i][1] for i in spans)
        out[f"harness.{method}.ms_per_round"] = (
            float(a["dur"][spans].sum()) * 1e3 / method_rounds if method_rounds else 0.0)
    out["harness.trace_write_ms"] = mean_ms(TRACE_WRITE, sweep)

    out["data.parse_ms"] = mean_ms(PARSE)
    out["data.parse_calls"] = count(PARSE) / passes
    out["data.partition_ms"] = mean_ms(PARTITION)
    mains = count(CLI_MAIN)
    cli_self = float(a["self"][tr.layer_mask(a, "cli", sweep)].sum()) * 1e3
    out["cli.self_ms"] = cli_self / mains if mains else 0.0
    lookups = tr.mask(a, ORACLE_LOOKUP, sweep)
    refopt_parents = a["parent"][tr.mask(a, REFOPT, sweep)]
    misses = int(lookups[refopt_parents[refopt_parents >= 0]].sum())
    out["cli.oracle_cache_hit_ratio"] = (
        1.0 - misses / lookups.sum() if lookups.any() else 0.0)
    traced_rate = tally.rounds / tally.busy_s if tally.busy_s else 0.0
    out["tracing_overhead"] = traced_rate / untraced_rate if untraced_rate else 0.0
    return {name: out[name] for name, _ in PER_LAYER}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, out_dir: Path = OUT_DIR) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    import workloads
    from tracer import Tracer

    run_dir = out_dir / f"{workload}_seed{seed}"
    work = workloads.make_workload(workload, seed, tiny, run_dir / "work")
    w = workloads.WORKLOADS[workload]
    lines = [f"workload {workload} (seed {seed}): {w.why}",
             "loop: closed; one process, one client, runs issued one after another"]

    setups = [t for _ in range(1 if trace else SETUP_REPEATS) for t in work.setup(_untimed)]
    tally = workloads.Tally()
    measure(work, tally, seconds, _untimed, reference_pass=True)
    metrics, notes = end_to_end_metrics(tally, setups)
    units = dict(END_TO_END)
    attempted, failed, problems = tally.attempted, tally.failed, list(tally.problems)

    if trace:
        untraced_rate = metrics["rounds_per_s"]
        tr = Tracer()
        tr.install()
        try:
            work.setup(tr.run)
            traced = workloads.Tally(fired=tally.fired, sent=tally.sent)
            measure(work, traced, seconds, tr.run, reference_pass=False)
        finally:
            tr.uninstall()
        metrics = per_layer_metrics(tr, traced, untraced_rate)
        units = dict(PER_LAYER)
        spans_path = run_dir / "spans.csv.gz"
        tr.write(spans_path)
        attempted += traced.attempted
        failed += traced.failed
        problems += traced.problems
        notes = [f"traced: {traced.rounds} rounds over {traced.passes} passes; "
                 f"{len(tr.start)} spans -> {spans_path}", *NOTES]
    shutil.rmtree(run_dir / "work", ignore_errors=True)

    lines += notes
    lines += [f"  {name:<42} {value:>16.6g} {units[name]}" for name, value in metrics.items()]
    lines += [f"FAILED {p}" for p in problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shapes and sweeps, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "distnewton" / "__init__.py").is_file():
        print(f"error: no distnewton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(args.seed, nproc), sort_keys=True))
    result, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace), tiny=args.smoke)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
