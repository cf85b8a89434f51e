"""Outside-in tracer: spans around dickelab's public functions, patched where they are looked up.

``sweep`` and ``diagnostics`` import ``converge_cutoff``,
``build_full_hamiltonian`` and ``solve_lowest`` by name, so those names are
replaced in the importing modules; ``solve_lowest`` finds
``dense_spectrum`` and ``lanczos_lowest`` as globals of ``solvers``, so
they are replaced there.  Nothing inside ``src/`` changes.  A name that a
later refactor removes is skipped and its metrics read 0 calls.

Each span records name, start, end, parent and thread.  A span opened on
a worker thread with nothing open on that thread takes as parent the
innermost span open on the thread that installed the tracer (the pool
threads inside ``run_sweep``).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) -> span name; the attribute is replaced in that module
PATCH_SITES = (
    ("dickelab.cli", "run_sweep", "sweep.run"),
    ("dickelab.cli", "emit_results", "sweep.emit"),
    ("dickelab.cli", "landscape_grid", "semiclassics.landscape"),
    ("dickelab.sweep", "landscape_grid", "semiclassics.landscape"),
    ("dickelab.sweep", "converge_cutoff", "diagnostics.cutoff"),
    ("dickelab.sweep", "build_full_hamiltonian", "model.build"),
    ("dickelab.sweep", "solve_lowest", "sweep.resolve"),
    ("dickelab.sweep", "polaron_spin_hamiltonian", "model.spin_h"),
    ("dickelab.sweep", "splitting_and_gap", "diagnostics.observables"),
    ("dickelab.sweep", "degeneracy_classes", "diagnostics.observables"),
    ("dickelab.diagnostics", "build_full_hamiltonian", "model.build"),
    ("dickelab.diagnostics", "solve_lowest", "diagnostics.search_solve"),
    ("dickelab.solvers", "dense_spectrum", "solvers.dense"),
    ("dickelab.solvers", "lanczos_lowest", "solvers.lanczos"),
)


def _dim(H) -> int:
    dim = getattr(H, "dim", None)
    return int(dim) if dim is not None else int(np.asarray(H).shape[0])


def _attrs(name: str, args, result) -> dict:
    """The counts each span keeps, read from arguments and return values."""
    if name == "model.build":
        return {"dim": int(result.dim)}
    if name in ("solvers.dense", "solvers.lanczos"):
        return {"dim": _dim(args[0]), "iters": int(result.iterations),
                "converged": bool(result.converged)}
    if name == "diagnostics.cutoff":
        N = args[0].N
        return {"dims": [(M + 1) * (N + 1) for M, *_ in result.history],
                "dim_star": (result.M_star + 1) * (N + 1)}
    if name == "sweep.run":
        return {"point_s": [row.wall_time_seconds for row in result]}
    if name == "sweep.emit":
        return {"bytes": sum(os.path.getsize(p) for p in result)}
    if name == "semiclassics.landscape":
        return {"points": len(result)}
    return {}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = self._stack()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(Span(sid, name, start, time.perf_counter(), parent,
                                       threading.get_ident(), {"error": True}))
                raise
            finally:
                stack.pop()
            span = Span(sid, name, start, time.perf_counter(), parent, threading.get_ident())
            span.attrs = _attrs(name, args, result)
            self.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, span_name in PATCH_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(span_name, original))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals (children on any thread)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union_length([c for c in clipped if c[1] > c[0]])
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (units in BENCHMARK.json).

    ``semiclassics.minima_missing`` and ``trace.overhead_s`` need the output
    checks and an untraced run, so the parent adds them.
    """
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def calls(name):
        return len(by.get(name, ()))

    def busy(name):
        return sum(s.end - s.start for s in by.get(name, ()))

    def self_s(name):
        return sum(own[s.id] for s in by.get(name, ()))

    def attr(name, key):  # spans of calls that raised carry no counts
        return [s.attrs[key] for s in by.get(name, ()) if key in s.attrs]

    dense_dims = attr("solvers.dense", "dim")
    solves = by.get("solvers.dense", []) + by.get("solvers.lanczos", [])
    tried = [d for dims in attr("diagnostics.cutoff", "dims") for d in dims]
    accepted = attr("diagnostics.cutoff", "dim_star")
    point_s = [t for ts in attr("sweep.run", "point_s") for t in ts]
    return {
        "model.build_calls": calls("model.build"),
        "model.build_s": busy("model.build"),
        "model.build_dim_max": max(attr("model.build", "dim"), default=0),
        "model.spin_h_calls": calls("model.spin_h"),
        "model.spin_h_s": busy("model.spin_h"),
        "solvers.dense_calls": calls("solvers.dense"),
        "solvers.dense_s": busy("solvers.dense"),
        "solvers.dense_dim_max": max(dense_dims, default=0),
        # Householder tridiagonalisation, 4/3 n^3 flops per call; computed, not counted
        "solvers.dense_gflop_computed": sum(4.0 / 3.0 * float(n) ** 3 for n in dense_dims) / 1e9,
        "solvers.lanczos_calls": calls("solvers.lanczos"),
        "solvers.lanczos_s": busy("solvers.lanczos"),
        "solvers.lanczos_iters": sum(attr("solvers.lanczos", "iters")),
        "solvers.unconverged": sum(1 for s in solves if not s.attrs.get("converged")),
        "diagnostics.cutoff_calls": calls("diagnostics.cutoff"),
        "diagnostics.cutoff_s": busy("diagnostics.cutoff"),
        "diagnostics.cutoff_self_s": self_s("diagnostics.cutoff"),
        "diagnostics.cutoffs_tried": len(tried),
        # dense-equivalent work (dim^3) of every search solve over that at the accepted M*
        "diagnostics.search_work_ratio": (
            sum(float(d) ** 3 for d in tried) / sum(float(d) ** 3 for d in accepted)
            if accepted else 0.0),
        "diagnostics.observables_s": busy("diagnostics.observables"),
        "semiclassics.minima_calls": calls("semiclassics.minima"),
        "semiclassics.minima_s": busy("semiclassics.minima"),
        "semiclassics.landscape_s": busy("semiclassics.landscape"),
        "semiclassics.landscape_points": sum(attr("semiclassics.landscape", "points")),
        "sweep.run_s": busy("sweep.run"),
        "sweep.self_s": self_s("sweep.run"),
        "sweep.resolve_s": busy("sweep.resolve"),
        "sweep.point_p50_s": float(np.median(point_s)) if point_s else 0.0,
        "sweep.point_max_s": max(point_s, default=0.0),
        "sweep.emit_s": busy("sweep.emit"),
        "sweep.bytes_written": sum(attr("sweep.emit", "bytes")),
        "cli.self_s": self_s("cli.main"),
    }
