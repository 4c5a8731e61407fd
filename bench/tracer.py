"""Outside-in layer tracing for the benchmark.

``Tracer.install`` wraps every public function of the eight distnewton
modules and every public method of the classes they define, then rebinds
every module-level name in the package that refers to one of those
functions (``methods`` imports ``solve_spd`` by name, ``cli`` imports
``run_experiment``, and so on), so calls made through either name are seen.
Nothing inside the package changes on disk; ``uninstall`` restores every
binding.

A span is (name, start, end, parent span, run id). Spans are recorded only
while a benchmark run is open (``Tracer.run``), kept in flat arrays in
memory and written once at the end. A span's self time is its duration minus
the durations of its direct children; private helpers such as
``_gather_messages`` are not wrapped, so their time is self time of the
public function of their own module that called them.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("data", "problem", "rngs", "compressors", "linalg", "methods",
          "harness", "cli")

SOLVE = ("linalg.solve_spd", "linalg.spd_inverse", "linalg.cholesky_spd",
         "linalg.solve_cholesky")
EIG = ("linalg.sym_eig", "linalg.smallest_eigenvalue")
GRAM = ("linalg.weighted_gram",)
WORKER_CALLS = ("problem.Problem.h_coeffs", "problem.Problem.local_grad")
FULL_PASSES = ("problem.Problem.value", "problem.Problem.grad",
               "problem.Problem.hessian", "problem.Problem.h_all")
CONSTANTS = ("problem.Problem.constants",)
STREAMS = ("rngs.seeded_generator",)
COMPRESS = ("compressors.compress_with_info",)
CUBIC = ("methods.solve_cubic_model",)
REFOPT = ("methods.reference_optimum",)
RUN = ("harness.run_experiment",)
TRACE_WRITE = ("harness.Trace.write",)
PARSE = ("data.parse_libsvm",)
PARTITION = ("data.partition",)
CLI_MAIN = ("cli.main",)
ORACLE_LOOKUP = ("cli.load_or_compute_oracles",)

# Every function a per-layer metric reads. A rename in the package makes
# ``install`` fail loudly instead of letting the metric read zero.
REQUIRED = (SOLVE + EIG + GRAM + WORKER_CALLS + FULL_PASSES + CONSTANTS
            + STREAMS + COMPRESS + CUBIC + REFOPT + RUN + TRACE_WRITE + PARSE
            + PARTITION + CLI_MAIN + ORACLE_LOOKUP)


def _run_detail(args, kwargs, result):
    method = args[0] if args else kwargs["method"]
    return method, result.rows[-1].iteration


def _gram_detail(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return rows.shape


# Extra facts kept for some spans: the method and round count of a run, the
# shape of the rows a gram is assembled from.
DETAILS = {"harness.run_experiment": _run_detail,
           "linalg.weighted_gram": _gram_detail}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.details: dict[int, object] = {}
        self.run_kinds: list[str] = []
        self._stack: list[int] = []
        self._run = -1
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def run(self, kind: str):
        """Open a benchmark run; spans are recorded only inside one."""
        self.run_kinds.append(kind)
        self._run = len(self.run_kinds) - 1
        try:
            yield
        finally:
            self._run = -1

    def _wrap(self, qualname: str, fn):
        nid = self._name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        detail = DETAILS.get(qualname)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._run < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run_id.append(tracer._run)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if detail is not None:
                tracer.details[idx] = detail(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"distnewton.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "distnewton"
                                   or mod_name.startswith("distnewton.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        missing = sorted(set(REQUIRED) - set(self.names))
        if missing:
            self.uninstall()
            raise RuntimeError("benchmark metrics read functions the package no "
                               f"longer defines: {', '.join(missing)}")

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(f"{prefix}.{attr}", raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def called(self) -> set[str]:
        """Names of the wrapped functions that ran inside a benchmark run."""
        ids = np.unique(np.array(self.name_id, dtype=np.int32))
        return {self.names[i] for i in ids}

    def arrays(self) -> dict:
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        names = np.array(self.name_id, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        kinds = np.array(self.run_kinds, dtype=object)
        runs = np.array(self.run_id, dtype=np.int32)
        return {"dur": dur, "self": dur - child, "parent": parent, "name": names,
                "kind": kinds[runs]}

    def mask(self, a: dict, qualnames, kind: str | None = None) -> np.ndarray:
        ids = [self._name_ids[q] for q in qualnames if q in self._name_ids]
        m = np.isin(a["name"], ids)
        if kind is not None:
            m &= a["kind"] == kind
        return m

    def outermost(self, a: dict, qualnames, kind: str | None = None) -> np.ndarray:
        """Spans of these functions not nested in another span of them."""
        m = self.mask(a, qualnames, kind)
        parent_in = np.zeros_like(m)
        has_parent = a["parent"] >= 0
        parent_in[has_parent] = m[a["parent"][has_parent]]
        return m & ~parent_in

    def layer_mask(self, a: dict, layer: str, kind: str | None = None) -> np.ndarray:
        return self.mask(a, [q for q in self.names if q.split(".", 1)[0] == layer], kind)

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: span,name,start_s,end_s,parent,run,run_kind."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent,run,run_kind\n")
            for i in range(len(self.start)):
                run = self.run_id[i]
                fh.write(f"{i},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - self.t0:.9f},{self.end[i] - self.t0:.9f},"
                         f"{self.parent[i]},{run},{self.run_kinds[run]}\n")
