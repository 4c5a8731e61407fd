"""Workloads of the distnewton benchmark.

Each workload is a fixed sweep of simulator runs built from the workload
seed. One pass executes the sweep once, runs issued one after another by a
single client (closed loop). The first pass runs with timing off and is the
byte reference; later passes run with the opt-in ``wall_ms`` column on and
must reproduce the reference bytes once that column is masked. Every run,
in every pass, goes through the correctness gate in ``check_trace``.

The program only ever receives the generated data: datasets are built here
from raw Philox uniforms, and the CLI workload gets them as a gzip LIBSVM
file.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from distnewton import cli, compressors, data, harness, methods, problem, rngs

LAM = 1e-4
LOSS = "logistic"
TARGET_GAP = 1e-10
# Generous cap for target-gap runs: at the benchmark shapes they stop after
# 4 to 70 rounds, and a run that hits the cap fails the gate.
TARGET_CAP = 2000

R1 = {"kind": "random_r", "r": 1}
R7 = {"kind": "random_r", "r": 7}
BERN_R1 = {"kind": "bernoulli", "p": 1.0 / 20.0, "inner": R1}


@dataclass(frozen=True)
class Shape:
    """Stand-in dataset shape: ``count`` binary rows of ``d`` features with
    ``nnz`` active each, split over ``n`` workers."""

    count: int
    d: int
    nnz: int
    n: int


A2A = Shape(count=2265, d=123, nnz=14, n=15)
PHISHING = Shape(count=11000, d=68, nnz=20, n=100)
# Smoke-test shapes: same structure, small enough for a unit test.
TINY_A2A = Shape(count=96, d=16, nnz=4, n=4)
TINY_PHISHING = Shape(count=120, d=12, nnz=4, n=10)


def sparse_binary_dataset(shape: Shape, seed: int, index: int) -> data.Dataset:
    """Binary feature rows with labels drawn from a planted logistic model.

    The structure matches the test-suite stand-ins: ``nnz`` distinct active
    features per row and normal planted weights of per-entry scale
    1/sqrt(nnz), here rescaled to exactly that expected norm. The planted
    weights belong to the workload and are keyed by the dataset ``index``
    alone; ``seed`` draws the sample (rows and labels). With the weights
    drawn per seed as well, rounds to the target gap on phishing-shaped data
    spread by about 18 % across seeds; with them fixed, by under 5 %.

    Every draw comes from raw Philox uniforms: a partial Fisher-Yates shuffle
    picks the active set and Box-Muller gives the planted weights. numpy
    keeps raw uniform streams stable across versions, unlike
    ``Generator.choice``.
    """
    count, d, nnz = shape.count, shape.d, shape.nnz
    picks = rngs.seeded_generator(seed, index, 0).random((count, nnz))
    perm = np.tile(np.arange(d), (count, 1))
    rows = np.arange(count)
    for j in range(nnz):
        other = j + (picks[:, j] * (d - j)).astype(np.int64)
        perm[rows, j], perm[rows, other] = perm[rows, other], perm[rows, j]
    features = np.zeros((count, d))
    features[rows[:, None], perm[:, :nnz]] = 1.0

    g = rngs.seeded_generator(index, 1)
    u1 = 1.0 - g.random(d)
    u2 = g.random(d)
    w_true = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    w_true *= math.sqrt(d / nnz) / np.linalg.norm(w_true)
    probs = 1.0 / (1.0 + np.exp(-(features @ w_true)))
    labels = np.where(rngs.seeded_generator(seed, index, 2).random(count) < probs,
                      1.0, -1.0)
    return data.Dataset(features=features, labels=labels)


def write_libsvm_gz(ds: data.Dataset, path: Path) -> None:
    """Write a binary-feature dataset as gzip LIBSVM text (mtime pinned)."""
    lines = []
    for row, label in zip(ds.features, ds.labels):
        active = "".join(f" {j + 1}:1" for j in np.flatnonzero(row))
        lines.append(("+1" if label > 0 else "-1") + active)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# Run specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One simulator run: method, compressor (dict form), seed and budget."""

    method: str
    compressor: Optional[dict]
    seed: int
    max_iters: int
    target_gap: Optional[float] = None
    diagnostics: bool = True

    @property
    def label(self) -> str:
        comp = "" if self.compressor is None else "+" + _compressor_label(self.compressor)
        return f"{self.method}{comp}@{self.seed}"


def _compressor_label(c: dict) -> str:
    if c["kind"] == "bernoulli":
        return f"bernoulli({_compressor_label(c['inner'])},{c['p']:g})"
    if c["kind"] == "random_r":
        return f"random_r({c['r']})"
    return c["kind"]


def a2a_sweep(seed: int, datasets: int, tiny: bool) -> list[tuple[int, RunSpec]]:
    """On each dataset: nl1, nl2, cnl and cnl+bernoulli to the target gap.
    On the first: one fixed-budget nl2+bernoulli run long enough to cross
    three gram rebuilds (one every ``methods.REBUILD_PERIOD`` rounds)."""
    runs = []
    for k in range(datasets):
        s = 1000 * seed + k
        runs += [(k, RunSpec("nl1", R1, s, TARGET_CAP, TARGET_GAP)),
                 (k, RunSpec("nl2", R1, s, TARGET_CAP, TARGET_GAP)),
                 (k, RunSpec("cnl", R1, s, TARGET_CAP, TARGET_GAP)),
                 (k, RunSpec("cnl", BERN_R1, s, TARGET_CAP, TARGET_GAP))]
    long_rounds = methods.REBUILD_PERIOD * (1 if tiny else 3) + 1
    runs.append((0, RunSpec("nl2", BERN_R1, 1000 * seed + 999, long_rounds)))
    return runs


def phishing_sweep(seed: int, datasets: int, tiny: bool) -> list[tuple[int, RunSpec]]:
    """On each dataset: nl2 and nl1 (diagnostics off) to the target gap, and
    dcgd and diana with random_r(7) for a fixed round budget."""
    budget = 10 if tiny else 40
    runs = []
    for k in range(datasets):
        s = 1000 * seed + k
        runs += [(k, RunSpec("nl2", R1, s, TARGET_CAP, TARGET_GAP, diagnostics=False)),
                 (k, RunSpec("nl1", R1, s, TARGET_CAP, TARGET_GAP, diagnostics=False)),
                 (k, RunSpec("dcgd", R7, s, budget)),
                 (k, RunSpec("diana", R7, s, budget))]
    return runs


def cli_sweep(seed: int, datasets: int, tiny: bool) -> list[tuple[int, list[RunSpec]]]:
    """On each dataset file: two ``distnewton compare`` calls over newton,
    newton_coeff, bfgs, gd, nl1 and nl2, each call with its own run seed."""
    calls = []
    for k in range(datasets):
        for j in range(1 if tiny else 2):
            s = 1000 * seed + 10 * k + j
            calls.append((k, [RunSpec("newton", None, s, 50, TARGET_GAP),
                              RunSpec("newton_coeff", None, s, 50, TARGET_GAP),
                              RunSpec("bfgs", None, s, 500, TARGET_GAP),
                              RunSpec("gd", None, s, 10),
                              RunSpec("nl1", R1, s, TARGET_CAP, TARGET_GAP),
                              RunSpec("nl2", R1, s, TARGET_CAP, TARGET_GAP)]))
    return calls


@dataclass(frozen=True)
class Workload:
    """A named sweep over ``datasets`` independent stand-ins of one shape.

    Rounds to the target gap still vary from one sample to the next (by
    about eight percent for cnl on a2a-shaped data), so each sweep spreads
    over several datasets to keep that out of the run-to-run spread. a2a_learn uses two: with
    its long run that keeps one pass under 1000 rounds, so its tail
    percentile rests on one stable choice (p95) for every seed.
    """

    name: str
    why: str
    shape: Shape
    tiny_shape: Shape
    datasets: int
    sweep: Callable
    uses_cli: bool = False

    def dataset_count(self, tiny: bool) -> int:
        return 1 if tiny else self.datasets


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="a2a_learn",
            why="d=123 with 15 workers: the server side (Cholesky solve, eigvalsh "
                "diagnostics, eigh + cubic bisection, gram updates and rebuilds) "
                "dominates a round",
            shape=A2A, tiny_shape=TINY_A2A, datasets=2, sweep=a2a_sweep),
        Workload(
            name="phishing_workers",
            why="100 workers: the per-worker Python loop (h_coeffs, local_grad, "
                "Philox set-up, compress) dominates a round and the solve is cheap",
            shape=PHISHING, tiny_shape=TINY_PHISHING, datasets=3, sweep=phishing_sweep),
        Workload(
            name="cli_sweep",
            why="distnewton refopt then compare on a gzip LIBSVM file: the only "
                "workload parsing files, reloading the oracle cache and writing traces",
            shape=A2A, tiny_shape=TINY_A2A, datasets=3, sweep=cli_sweep, uses_cli=True),
    )
}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def mask_wall_ms(csv_text: str) -> str:
    """The CSV with every ``wall_ms`` cell (last column) replaced by nan."""
    lines = csv_text.split("\n")
    masked = [lines[0]]
    for line in lines[1:]:
        masked.append(line.rsplit(",", 1)[0] + ",nan" if line else line)
    return "\n".join(masked)


def csv_rows(csv_text: str) -> list[list[str]]:
    return [line.split(",") for line in csv_text.split("\n")[1:] if line]


def check_trace(spec: RunSpec, csv_text: str, reference: Optional[str],
                timing: bool, flags: list[dict],
                ledger: Optional[harness.CommLedger]) -> list[str]:
    """Problems found in one run; an empty list means the run passes.

    ``reference`` is the timing-off CSV of the same run from the reference
    pass (None while that pass runs). ``flags`` are the per-row extras.
    ``ledger`` is checked against its own payload log and the last row.
    """
    problems = []
    rows = csv_rows(csv_text)
    if not rows:
        return ["empty trace"]
    if reference is None:
        if timing:
            problems.append("reference run had timing on")
        if any(r[-1] != "nan" for r in rows):
            problems.append("wall_ms is not NaN with timing off")
    elif mask_wall_ms(csv_text) != reference:
        problems.append("CSV differs from the reference run")
    if ledger is not None:
        up, down = harness.recompute_ledger_totals(ledger)
        last = rows[-1]
        if (up, down) != (ledger.up_cum, ledger.down_cum):
            problems.append(f"ledger log gives {(up, down)}, totals say "
                            f"{(ledger.up_cum, ledger.down_cum)}")
        if (up, down) != (int(last[3]), int(last[4])):
            problems.append(f"ledger log gives {(up, down)}, last row says "
                            f"{(last[3], last[4])}")
    for key in ("replica_ok", "hull_ok"):
        bad = [k for k, extras in enumerate(flags) if extras.get(key) is False]
        if bad:
            problems.append(f"{key} false at rows {bad[:5]}")
    if spec.target_gap is not None and not float(rows[-1][1]) <= spec.target_gap:
        problems.append(f"missed gap {spec.target_gap:g}: final gap {rows[-1][1]}")
    return problems


def bits_spent(spec: RunSpec, csv_text: str) -> int:
    """Upstream bits at the first row with gap <= target (the last row if the
    run missed the target, which the gate reports as a failure)."""
    rows = csv_rows(csv_text)
    for r in rows:
        gap = float(r[1])
        if math.isfinite(gap) and gap <= spec.target_gap:
            return int(r[3])
    return int(rows[-1][3])


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Everything one measurement phase observed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    busy_s: float = 0.0            # wall time inside the measured calls
    rounds: int = 0                # simulated rounds those calls completed
    passes: int = 0
    pass_walls: list = field(default_factory=list)  # wall_ms samples, each timing pass
    bits_to_gap: int = 0           # summed over target-gap runs, reference pass
    fired: int = 0                 # compressed payloads that fired (ledger)
    sent: int = 0                  # compressed payloads charged (ledger)

    def close_pass(self, walls: list, timing: bool) -> None:
        self.passes += 1
        if timing:
            self.pass_walls.append(walls)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def _count_fired(tally: Tally, ledger: harness.CommLedger) -> None:
    for rec in ledger.rounds:
        for charge in rec.charges:
            if charge.compressed is not None:
                tally.sent += 1
                tally.fired += int(charge.compressed[2])


class LibraryWorkload:
    """a2a_learn / phishing_workers: ``run_experiment`` called directly."""

    def __init__(self, workload: Workload, seed: int, tiny: bool):
        self.shape = workload.tiny_shape if tiny else workload.shape
        self.seed = seed
        count = workload.dataset_count(tiny)
        self.datasets = [sparse_binary_dataset(self.shape, seed, k) for k in range(count)]
        self.runs = workload.sweep(seed, count, tiny)
        self.references: list[Optional[str]] = [None] * len(self.runs)
        self.problems: list = [None] * len(self.datasets)
        self.oracles: list = [None] * len(self.datasets)

    def setup(self, timer) -> list[float]:
        """Problem construction plus reference optimum for each dataset;
        returns the seconds each took."""
        times = []
        for k, ds in enumerate(self.datasets):
            with timer("setup"):
                t0 = time.perf_counter()
                p = problem.make_problem(ds, self.shape.n, self.seed,
                                         loss_kind=LOSS, lam=LAM)
                o = methods.reference_optimum(p)
                times.append(time.perf_counter() - t0)
            self.problems[k], self.oracles[k] = p, o
        return times

    def run_pass(self, tally: Tally, timer, reference_pass: bool) -> None:
        timing = not reference_pass
        walls = []
        for i, (k, spec) in enumerate(self.runs):
            comp = (None if spec.compressor is None
                    else compressors.CompressorSpec.from_dict(spec.compressor))
            budget = harness.Budget(max_iters=spec.max_iters, target_gap=spec.target_gap)
            opts = harness.RunOptions(diagnostics=spec.diagnostics, timing=timing)
            try:
                with timer("sweep"):
                    t0 = time.perf_counter()
                    trace = harness.run_experiment(
                        spec.method, self.problems[k], comp, budget, spec.seed,
                        oracles=self.oracles[k], opts=opts)
                    elapsed = time.perf_counter() - t0
            except Exception as exc:  # a failing run is counted; the sweep goes on
                tally.record(spec.label, [f"raised {type(exc).__name__}: {exc}"])
                continue
            tally.busy_s += elapsed
            tally.rounds += trace.final().iteration
            csv_text = trace.csv_text()
            reference = None if reference_pass else self.references[i]
            if not reference_pass and reference is None:
                tally.record(spec.label, ["no reference run to compare with"])
                continue
            tally.record(spec.label, check_trace(
                spec, csv_text, reference, timing,
                [r.extras for r in trace.rows], trace.ledger))
            if reference_pass:
                self.references[i] = csv_text
                _count_fired(tally, trace.ledger)
                if spec.target_gap is not None:
                    tally.bits_to_gap += bits_spent(spec, csv_text)
            else:
                walls += [r.wall_ms for r in trace.rows[1:] if math.isfinite(r.wall_ms)]
        tally.close_pass(walls, timing)


class CliWorkload:
    """cli_sweep: ``distnewton refopt`` cold, then ``distnewton compare`` calls."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, workdir: Path):
        self.shape = workload.tiny_shape if tiny else workload.shape
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        count = workload.dataset_count(tiny)
        self.files = []
        for k in range(count):
            path = workdir / f"a2a_standin{k}.libsvm.gz"
            write_libsvm_gz(sparse_binary_dataset(self.shape, seed, k), path)
            self.files.append(path)
        self.outdirs = [workdir / f"runs{k}" for k in range(len(self.files))]
        self.calls = workload.sweep(seed, count, tiny)
        self.references: list[list[Optional[str]]] = [[None] * len(specs)
                                                      for _, specs in self.calls]

    def _problem_flags(self, k: int) -> dict:
        return {"dataset_path": str(self.files[k]), "d_hint": self.shape.d,
                "n": self.shape.n, "lam": LAM, "loss": LOSS,
                "shuffle_seed": self.seed}

    def _config(self, k: int, spec: RunSpec, timing: bool) -> dict:
        cfg = {"method": spec.method, "seed": spec.seed, "max_iters": spec.max_iters,
               "target_gap": spec.target_gap, "compressor": spec.compressor,
               "diagnostics": spec.diagnostics, "timing": timing}
        cfg.update(self._problem_flags(k))
        return cfg

    def setup(self, timer) -> list[float]:
        """A cold ``refopt`` (parse, partition, reference optimum, cache write)
        per dataset file, each into a fresh output root that the compare calls
        then reuse; returns the seconds each took."""
        times = []
        for k, outdir in enumerate(self.outdirs):
            fresh = self.workdir / "refopt_cold"
            shutil.rmtree(fresh, ignore_errors=True)
            flags = self._problem_flags(k)
            argv = ["refopt", "--dataset", flags["dataset_path"],
                    "--d-hint", str(flags["d_hint"]), "--n", str(flags["n"]),
                    "--lam", repr(LAM), "--loss", LOSS,
                    "--shuffle-seed", str(self.seed), "--seed", "1",
                    "--outdir", str(fresh)]
            with timer("setup"):
                t0 = time.perf_counter()
                rc = _quiet_main(argv)
                times.append(time.perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"distnewton refopt exited with {rc}")
            shutil.rmtree(outdir, ignore_errors=True)
            fresh.rename(outdir)
        return times

    def run_pass(self, tally: Tally, timer, reference_pass: bool) -> None:
        timing = not reference_pass
        walls = []
        cfgdir = self.workdir / "configs"
        cfgdir.mkdir(exist_ok=True)
        for c, (k, specs) in enumerate(self.calls):
            paths = []
            for spec in specs:
                path = cfgdir / f"{spec.method}_{spec.seed}.json"
                path.write_text(json.dumps(self._config(k, spec, timing)))
                paths.append(str(path))
            argv = ["compare", *paths, "--outdir", str(self.outdirs[k])]
            try:
                with timer("sweep"):
                    t0 = time.perf_counter()
                    rc = _quiet_main(argv)
                    elapsed = time.perf_counter() - t0
                if rc != 0:
                    raise RuntimeError(f"distnewton compare exited with {rc}")
            except Exception as exc:  # a failing call fails each of its runs
                for spec in specs:
                    tally.record(spec.label, [f"raised {type(exc).__name__}: {exc}"])
                continue
            tally.busy_s += elapsed
            for j, spec in enumerate(specs):
                walls += self._check_run(tally, c, j, k, spec, timing, reference_pass)
        tally.close_pass(walls, timing)

    def _check_run(self, tally: Tally, c: int, j: int, k: int, spec: RunSpec,
                   timing: bool, reference_pass: bool) -> list[float]:
        """Gate one run of a compare call; returns its wall_ms samples."""
        cfg = cli.ExperimentConfig.from_dict(self._config(k, spec, timing))
        outdir = self.outdirs[k]
        stem = cfg.stem()
        try:
            csv_text = (outdir / f"{stem}.csv").read_text()
            rows_json = json.loads((outdir / f"{stem}.json").read_text())["rows"]
        except (OSError, ValueError, KeyError) as exc:
            tally.record(spec.label, [f"trace unreadable: {exc}"])
            return []
        rows = csv_rows(csv_text)
        if not rows:
            tally.record(spec.label, ["empty trace"])
            return []
        tally.rounds += int(rows[-1][0])
        flags = [r.get("extras", {}) for r in rows_json]
        if reference_pass:
            # The CLI keeps its ledger in memory, so the gate reruns the same
            # config through the library path: its CSV must match the file
            # byte for byte, and its ledger must match its own payload log.
            try:
                rerun = cli.execute_config(cfg, outdir)
            except Exception as exc:  # counted as a failed run
                tally.record(spec.label, [f"rerun raised {type(exc).__name__}: {exc}"])
                return []
            problems = check_trace(spec, csv_text, None, timing, flags, rerun.ledger)
            if rerun.csv_text() != csv_text:
                problems.append("CSV differs from a rerun")
            tally.record(spec.label, problems)
            self.references[c][j] = csv_text
            _count_fired(tally, rerun.ledger)
            if spec.target_gap is not None:
                tally.bits_to_gap += bits_spent(spec, csv_text)
            return []
        reference = self.references[c][j]
        if reference is None:
            tally.record(spec.label, ["no reference run to compare with"])
            return []
        tally.record(spec.label, check_trace(spec, csv_text, reference, timing, flags, None))
        return [float(r[-1]) for r in rows[1:] if math.isfinite(float(r[-1]))]


def _quiet_main(argv: list[str]) -> int:
    """``cli.main`` with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def make_workload(name: str, seed: int, tiny: bool, workdir: Path):
    w = WORKLOADS[name]
    if w.uses_cli:
        return CliWorkload(w, seed, tiny, workdir)
    return LibraryWorkload(w, seed, tiny)
