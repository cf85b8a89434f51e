"""Parameter-sweep engine: config parsing, grid execution, table emission.

A sweep evaluates the grid N_list x g_list x v_list (or one circuit-derived
point), optionally shared among forked worker processes, and renders the
rows in grid order to CSV or JSON lines with 17-significant-digit numbers
so the files round-trip 64-bit floats losslessly.  Grid order is
deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import pickle
import signal
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .circuit import derive_model_params, read_device_file
from .diagnostics import (
    DEFAULT_MAX_DIM,
    ConvergenceReport,
    converge_cutoff,
    degeneracy_classes,
    resolution_floor,
    spin_ladder_levels,
    spin_model_spectrum,
    splitting_and_gap,
)
from .errors import ConfigError, DickeLabError, ResourceError, SweepAborted, ValidationError
from .errors import parse_number, read_sections
from .model import ModelParams
from .semiclassics import splitting_scaling_fit

CSV_HEADER = (
    "N,S,omega,g,v,u,M_star,E0,E1,E2,d,Delta,pairing_ok,oracle_deviation,"
    "converged,wall_time_seconds"
)
EMIT_CHOICES = ("spectrum", "splitting", "degeneracy", "landscape", "scaling-fit")

# A forked sweep first runs points serially and forks its workers only once
# the mean time of the points done projects the rest of the grid above this
# many seconds.  Where two CPUs run at once the fork pays on long grids (a
# 50-point full grid, N = 16..40: 0.31-0.36 s against 0.53-0.70 s serial on a
# 2-vCPU VM).  A fork costs 10-15 ms of CPU, mostly copy-on-write page faults,
# and where the CPUs are shared a forced fork slowed the 20 ms full-parity
# benchmark grid in 6 of 6 runs; the projection keeps such grids serial.
FORK_WORTH_S = 0.2

# the least value of each integer engine and output key
_INT_MINIMUM = dict(k=1, seed=0, max_dim=1, budget_dim_total=1,
                    landscape_theta_points=2, landscape_phi_points=2)
# the least value of each entry of a model axis that has one
_AXIS_MINIMUM = dict(N_list=1, v_list=0)
# each table format a config or the --format flag may name, and the format it names
TABLE_FORMATS = {"csv": "csv", "json-lines": "json-lines", "jsonl": "json-lines"}


@dataclass
class ModelGrid:
    N_list: tuple[int, ...] = ()
    omega: float = 1.0
    g_list: tuple[float, ...] = ()
    v_list: tuple[float, ...] = ()
    circuit_file: str | None = None


@dataclass
class EngineConfig:
    mode: str = "full"  # full | spin-only
    k: int = 6
    tol: float = 1e-10
    seed: int = 0
    max_dim: int = DEFAULT_MAX_DIM
    budget_dim_total: int = 5_000_000


@dataclass
class OutputConfig:
    path: str | None = None
    format: str = "csv"  # csv | json-lines
    emit: tuple[str, ...] = ("splitting", "degeneracy")
    landscape_theta_points: int = 61
    landscape_phi_points: int = 120


@dataclass
class SweepConfig:
    model: ModelGrid
    engine: EngineConfig
    outputs: OutputConfig

    def grid_points(self) -> list[ModelParams]:
        if self.model.circuit_file is not None:
            params, _ = derive_model_params(read_device_file(self.model.circuit_file))
            return [params]
        return [
            ModelParams(N=N, omega=self.model.omega, g=g, v=v)
            for N, g, v in itertools.product(
                self.model.N_list, self.model.g_list, self.model.v_list
            )
        ]


@dataclass
class SweepRow:
    """One record of a sweep; field order matches the CSV header."""

    N: int
    S: float
    omega: float
    g: float
    v: float
    u: float
    M_star: int
    E0: float
    E1: float
    E2: float
    d: float
    Delta: float
    pairing_ok: bool
    oracle_deviation: float | None
    converged: bool
    wall_time_seconds: float
    eigenvalues: tuple[float, ...] = field(default=(), repr=False)  # for spectrum emit
    solver: str = field(default="", repr=False)  # for the spectrum command, not the table
    convergence: ConvergenceReport | None = field(default=None, repr=False)  # full mode only


def parse_config(text: str) -> SweepConfig:
    """Parse the line-oriented config format, read by :func:`~dickelab.errors.read_sections`.

    Sections [model], [engine], [outputs]; 'key = value' entries; list
    values use commas.  Unknown sections or keys are errors with the
    offending line number (fail closed).
    """
    sections = read_sections(text, {name: tuple(f.name for f in fields(cls)) for name, cls in (
        ("model", ModelGrid), ("engine", EngineConfig), ("outputs", OutputConfig))})
    model_sec = sections["model"]
    engine_sec = sections.get("engine", {})
    out_sec = sections.get("outputs", {})

    model = ModelGrid()
    if "circuit_file" in model_sec:
        extra = [k for k in ("N_list", "g_list", "v_list", "omega") if k in model_sec]
        if extra:
            raise ConfigError(
                f"circuit_file excludes explicit model keys ({', '.join(extra)})",
                line=model_sec["circuit_file"][1],
            )
        model.circuit_file = model_sec["circuit_file"][0]
    else:
        for key, kind in (("N_list", int), ("omega", float), ("g_list", float), ("v_list", float)):
            if key not in model_sec:
                raise ConfigError(f"missing required model key {key!r}")
            val, lineno = model_sec[key]
            if key == "omega":
                model.omega = parse_number(val, key, lineno)
                if model.omega <= 0:
                    raise ConfigError(f"omega must be > 0, got {model.omega}", lineno)
                continue
            items = [s.strip() for s in val.split(",") if s.strip()]
            if not items:
                raise ConfigError(f"empty sweep axis {key!r}", line=lineno)
            values = tuple(parse_number(s, key, lineno, kind) for s in items)
            if min(values) < _AXIS_MINIMUM.get(key, -math.inf):
                raise ConfigError(f"{key} entries must be >= {_AXIS_MINIMUM[key]}, got {min(values)}", lineno)
            setattr(model, key, values)

    engine, outputs = EngineConfig(), OutputConfig()
    if "mode" in engine_sec:
        mode, lineno = engine_sec["mode"]
        if mode not in ("full", "spin-only"):
            raise ConfigError(f"mode must be 'full' or 'spin-only', got {mode!r}", line=lineno)
        engine.mode = mode
    for target, sec in ((engine, engine_sec), (outputs, out_sec)):
        for key, (val, lineno) in sec.items():
            if key in _INT_MINIMUM:
                n = parse_number(val, key, lineno, int)
                if n < _INT_MINIMUM[key]:
                    raise ConfigError(f"{key} must be >= {_INT_MINIMUM[key]}, got {n}", lineno)
                setattr(target, key, n)
    if "tol" in engine_sec:
        val, lineno = engine_sec["tol"]
        engine.tol = parse_number(val, "tol", lineno)
        if engine.tol <= 0:
            raise ConfigError(f"tol must be finite and > 0, got {engine.tol}", lineno)

    if "path" in out_sec:
        outputs.path = out_sec["path"][0]
    if "format" in out_sec:
        fmt, lineno = out_sec["format"]
        if fmt not in TABLE_FORMATS:
            raise ConfigError(f"format must be one of {', '.join(map(repr, TABLE_FORMATS))}, got {fmt!r}", line=lineno)
        outputs.format = TABLE_FORMATS[fmt]
    if "emit" in out_sec:
        val, lineno = out_sec["emit"]
        tokens = tuple(s.strip() for s in val.split(",") if s.strip())
        if not tokens:
            raise ConfigError("emit list is empty", line=lineno)
        for tok in tokens:
            if tok not in EMIT_CHOICES:
                raise ConfigError(f"unknown emit target {tok!r}", line=lineno)
        outputs.emit = tokens

    if "splitting" in outputs.emit and engine.k < 3:
        raise ConfigError("k must be >= 3 when splitting is requested", engine_sec["k"][1])

    if "landscape" in outputs.emit and model.circuit_file is None:
        n_points = len(model.N_list) * len(model.g_list) * len(model.v_list)
        if n_points != 1:  # fail here, before any solve, as for scaling-fit
            raise ConfigError(
                f"landscape emit needs a single grid point, config has {n_points}",
                line=out_sec["emit"][1],
            )

    if "scaling-fit" in outputs.emit:
        # the fit needs 3 even-N rows: a grid without them fails here, before any solve
        n_even = 0  # a circuit_file config is one point
        if model.circuit_file is None:
            n_even = sum(N % 2 == 0 for N in model.N_list) * len(model.g_list) * len(model.v_list)
        if n_even < 3:
            raise ConfigError(
                f"scaling-fit needs at least 3 even-N grid points, the grid has {n_even}",
                line=out_sec["emit"][1],
            )

    cfg = SweepConfig(model=model, engine=engine, outputs=outputs)
    if model.circuit_file is None and not (model.N_list and model.g_list and model.v_list):
        raise ConfigError("sweep grid is empty")
    return cfg


class Budget:
    """Cumulative dimension budget of one command's points (a sweep, spectrum or convergence).

    ``refused`` is the charge that breached it, None until one does.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.refused: int | None = None

    def charge(self, amount: int) -> None:
        if self.used + amount > self.limit:
            self.refused = amount
            raise SweepAborted(
                f"global dimension budget exceeded ({self.used + amount} > {self.limit})"
            )
        self.used += amount


def _point_row(
    p: ModelParams, wall_time_seconds: float, *, M_star: int = 0,
    E0: float = math.nan, E1: float = math.nan, E2: float = math.nan,
    d: float = math.nan, Delta: float = math.nan, pairing_ok: bool = False,
    oracle_deviation: float | None = None, converged: bool = False, **extra,
) -> SweepRow:
    """A row for point p; fields left out read as a failed point's (NaN levels, not converged)."""
    return SweepRow(
        N=p.N, S=p.S, omega=p.omega, g=p.g, v=p.v, u=p.u, M_star=M_star,
        E0=E0, E1=E1, E2=E2, d=d, Delta=Delta, pairing_ok=pairing_ok,
        oracle_deviation=oracle_deviation, converged=converged,
        wall_time_seconds=wall_time_seconds, **extra,
    )


def _search_rows(p: ModelParams, history) -> int:
    """The rows of every solve of a cutoff search, (M + 1)(N + 1) for each M of its history."""
    return sum((M + 1) * (p.N + 1) for M, *_ in history)


def evaluate_point(
    p: ModelParams, engine: EngineConfig, seed: int, budget: Budget
) -> SweepRow:
    """Solve one grid point and derive its row; the one evaluation path of every solving command.

    Spin-only mode charges N + 1 to the budget, full mode every solve of
    the cutoff search (whose report is the row's ``convergence``), the
    solves of a search refused at a later cutoff included.  Solve
    errors (``DickeLabError``, ``numpy.linalg.LinAlgError``) propagate;
    :func:`run_sweep` records them as failed rows.
    """
    t0 = time.perf_counter()
    if engine.mode == "spin-only":
        budget.charge(p.N + 1)
        eigs = spin_model_spectrum(p, engine.k)
        M_star, oracle_dev, converged, solver, conv = 0, None, True, "tridiagonal", None
    else:
        try:
            conv = converge_cutoff(p, engine.tol, k=3, levels=engine.k, seed=seed, max_dim=engine.max_dim)
        except ResourceError as exc:  # a search refused at some cutoff did its earlier solves too
            budget.charge(_search_rows(p, exc.history))
            raise
        M_star = conv.M_star
        budget.charge(_search_rows(p, conv.history))
        eigs = conv.spectrum.eigenvalues[: engine.k]
        oracle_dev = float(np.max(np.abs(eigs - spin_ladder_levels(p, eigs.size))))
        converged = conv.spectrum.converged and conv.converged
        solver = conv.spectrum.solver

    values = eigs.tolist()  # the row is derived from plain floats
    levels = dict(zip(("E0", "E1", "E2"), values))
    if len(values) >= 3:
        sg = splitting_and_gap(values[:3])
        levels.update(d=sg.d, Delta=sg.Delta)
    E0 = levels.get("E0", math.nan)
    return _point_row(
        p,
        time.perf_counter() - t0,
        M_star=M_star,
        oracle_deviation=oracle_dev,
        converged=bool(converged),
        pairing_ok=degeneracy_classes(values, resolution_floor(E0)).pairing_ok,
        eigenvalues=tuple(values),
        solver=solver,
        convergence=conv,
        **levels,
    )


def _evaluate_share(
    points: list[ModelParams], engine: EngineConfig, indices: Iterable[int]
) -> dict[int, tuple[SweepRow | None, int]]:
    """(row, budget charge) of the points ``indices`` names, taken in increasing order.

    The share runs on a budget of its own and ends at its first breach
    with (None, the refused charge).  A point's charge is the change in
    ``budget.used`` across it; a point whose solve fails (``DickeLabError``,
    ``numpy.linalg.LinAlgError``) gets a failed row.
    """
    budget = Budget(engine.budget_dim_total)
    share: dict[int, tuple[SweepRow | None, int]] = {}
    for i in indices:
        used, t0 = budget.used, time.perf_counter()
        try:
            row = evaluate_point(points[i], engine, engine.seed + i, budget)
        except SweepAborted:
            share[i] = (None, budget.refused)
            break
        except (DickeLabError, np.linalg.LinAlgError):
            row = _point_row(points[i], time.perf_counter() - t0)
        share[i] = (row, budget.used - used)
    return share


def _claimed(counter: tuple[int, int], n: int) -> Iterator[int]:
    """Indices below n from the counter pipe, each to whichever process sharing it asks first.

    The pipe holds the next unclaimed index as 8 bytes, and only while no
    process holds it: reading takes it, writing puts back its successor
    (n stays n).  Writes of 8 bytes are atomic, so a read never splits one.
    """
    read_fd, write_fd = counter
    while True:
        i = int.from_bytes(os.read(read_fd, 8), "little")
        os.write(write_fd, min(i + 1, n).to_bytes(8, "little"))
        if i == n:
            return
        yield i


def _parent_indices(
    points: list[ModelParams], engine: EngineConfig, counter: tuple[int, int], workers: int,
    forked: list,
) -> Iterator[int]:
    """The caller's points: grid order until the rest is worth a fork, then claimed.

    After each point, the mean time per point so far projects the rest of
    the grid; once that passes FORK_WORTH_S, the counter starts at the
    next point and ``workers - 1`` workers fork (appended to ``forked``).
    """
    n, t0 = len(points), time.perf_counter()
    for i in range(n):
        yield i
        if (time.perf_counter() - t0) / (i + 1) * (n - i - 1) > FORK_WORTH_S:
            break
    else:
        return
    os.write(counter[1], (i + 1).to_bytes(8, "little"))
    for _ in range(1, workers):
        forked.append(_fork_share(points, engine, counter))
    yield from _claimed(counter, n)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_share(points: list[ModelParams], engine: EngineConfig, counter: tuple[int, int]):
    """Evaluate claimed points in a forked worker; returns its pid and the read end of its pipe.

    The worker sends ``(True, share)``, or ``(False, exception)`` for any
    exception its share raises, pickled, and leaves through ``os._exit``:
    it never flushes the parent's stdio buffers or runs its cleanup.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        try:
            payload = (True, _evaluate_share(points, engine, _claimed(counter, len(points))))
        except BaseException as exc:  # KeyboardInterrupt too: the parent re-raises it
            payload = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _receive_share(pipe) -> dict[int, tuple[SweepRow | None, int]]:
    """A worker's share, read to the end of its pipe; a worker's exception is raised here.

    A worker that dies before it sends anything raises ChildProcessError,
    an OSError, which the CLI reports as a run error (exit 2).
    """
    data = pipe.read()
    if not data:
        raise ChildProcessError("a sweep worker exited without a result")
    ok, share = pickle.loads(data)
    if not ok:
        raise share
    return share


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """Evaluate every grid point and return the rows in grid order.

    Per-point failures are recorded in-row with converged=False.  A breach
    of the global dimension budget aborts the sweep with the completed
    rows attached to the SweepAborted exception.

    With W = min(workers, points, usable CPUs) above 1 (and ``os.fork``
    available), the caller's process and W - 1 forked workers evaluate
    the points, processes because the LAPACK calls hold the interpreter
    lock and threads cannot overlap them.  The workers fork only once the
    points done serially project the rest of the grid above FORK_WORTH_S
    seconds, so a short sweep never forks.  From then on each process
    takes the next unclaimed point from a counter shared through a pipe,
    so points of unequal cost keep every process busy until the grid
    runs out.  Seeds
    stay ``engine.seed + i``, so the rows are those of a serial run.  Each
    process charges a budget of its own and stops at its own first
    breach; it takes its points in grid order, so its total never exceeds
    the grid-order total, and a point it leaves after its breach lies past
    the grid-order breach.  The charges are then replayed in grid order, which
    gives the serial run's first breach, message and partial rows; the
    work actually done before an abort is at most W x ``budget_dim_total``.
    Any other exception in a worker is re-raised here.  When the parent or
    a worker fails, the workers still running get SIGKILL; every worker is
    reaped before this returns or raises.

    dickelab starts no thread of its own, but a multithreaded BLAS does:
    forking then relies on the BLAS's own fork handlers.  OpenBLAS, which
    numpy wheels ship, has them (it stops its thread pool before a fork).
    With a BLAS that lacks them, workers above 1 need a single-threaded
    BLAS (``OPENBLAS_NUM_THREADS=1`` or its equivalent).
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    points = cfg.grid_points()
    if not points:
        raise ValidationError("sweep grid is empty")
    W = min(workers, len(points), _usable_cpus()) if hasattr(os, "fork") else 1
    if W == 1:
        done = _evaluate_share(points, cfg.engine, range(len(points)))
    else:
        counter = os.pipe()
        forked: list = []  # (pid, read end of its pipe) of each worker
        try:
            indices = _parent_indices(points, cfg.engine, counter, W, forked)
            done = _evaluate_share(points, cfg.engine, indices)
            for _, pipe in forked:
                done.update(_receive_share(pipe))
        except BaseException:
            for pid, _ in forked:  # a worker may still be running
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, pipe in forked:
                pipe.close()
                os.waitpid(pid, 0)
            os.close(counter[0])
            os.close(counter[1])

    budget = Budget(cfg.engine.budget_dim_total)
    rows: list[SweepRow] = []
    for i in range(len(points)):
        row, charge = done[i]
        try:
            budget.charge(charge)
        except SweepAborted as exc:
            raise SweepAborted(str(exc), rows=rows) from exc
        rows.append(row)
    return rows


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


_TABLE_FIELDS = tuple(CSV_HEADER.split(","))
_table_values = operator.attrgetter(*_TABLE_FIELDS)
# how each column's cell is written: integers, true/false, or 17-digit floats
_CELL_FORMATS = tuple(
    "%d" if n in ("N", "M_star") else "bool" if n in ("pairing_ok", "converged") else "%.17g"
    for n in _TABLE_FIELDS
)


def render_rows(rows: list[SweepRow], fmt: str, *, include_timing: bool = True) -> str:
    """The table of ``rows`` in fmt, csv or json-lines, one line a row, in the CSV header's column order.

    A missing value is an empty cell in CSV and null in JSON, which has no
    NaN or inf either, so a non-finite value is null there too.  With
    include_timing False every wall time is written as 0.
    """
    if fmt not in ("csv", "json-lines"):
        raise ValidationError(f"unknown output format {fmt!r}")
    missing = "" if fmt == "csv" else "null"
    finite_only = fmt == "json-lines"
    lines = [CSV_HEADER] if fmt == "csv" else []
    for row in rows:
        values = _table_values(row)
        if not include_timing:
            values = (*values[:-1], 0.0)
        cells = [
            missing if value is None or (finite_only and not math.isfinite(value))
            else ("true" if value else "false") if cell == "bool"
            else cell % value
            for cell, value in zip(_CELL_FORMATS, values)
        ]
        if fmt == "csv":
            lines.append(",".join(cells))
        else:
            lines.append("{" + ", ".join(f'"{n}": {c}' for n, c in zip(_TABLE_FIELDS, cells)) + "}")
    return "\n".join(lines) + "\n"


def _extra_path(main: Path, tag: str) -> Path:
    return main.parent / f"{main.stem}.{tag}.csv"


def landscape_grid(p: ModelParams, theta_points: int, phi_points: int) -> np.ndarray:
    """Reduced-surface samples on a regular (theta, phi) grid, one (theta, phi, energy) row per point.

    Rows run theta-major, theta in [0, pi] and phi in [0, 2 pi).  The
    energies equal :func:`~dickelab.semiclassics.reduced_surface` bit for
    bit: each axis value's squared cosine or sine is the same Python
    expression reduced_surface evaluates (numpy's ``cos`` and ``** 2`` can
    each differ from it by an ulp), and the broadcast keeps its operation
    order.
    """
    thetas = np.linspace(0.0, math.pi, theta_points)
    phis = np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False)
    ct2 = np.array([math.cos(t) ** 2 for t in thetas.tolist()])
    st2 = np.array([math.sin(t) ** 2 for t in thetas.tolist()])
    cp2 = np.array([math.cos(f) ** 2 for f in phis.tolist()])
    S = p.S
    energy = (-p.u * S**2 * ct2)[:, None] - (p.v * S**2 * st2)[:, None] * cp2[None, :]
    return np.column_stack(
        [np.repeat(thetas, phi_points), np.tile(phis, theta_points), energy.ravel()]
    )


def write_landscape(
    p: ModelParams, theta_points: int, phi_points: int, path: str | Path
) -> None:
    """Write :func:`landscape_grid` as ``theta,phi,energy`` CSV with 17-digit numbers.

    Each distinct energy is formatted once.  Distinct means a distinct bit
    pattern: 0.0 == -0.0, and a g = 0 grid prints -0 cells.  The file is
    written one theta row at a time, so the whole body is never held.
    """
    grid = landscape_grid(p, theta_points, phi_points)
    thetas = [_fmt_float(t) for t in grid[::phi_points, 0].tolist()]
    tails = [f",{_fmt_float(f)},%s\n" for f in grid[:phi_points, 1].tolist()]
    keys, inverse = np.unique(grid[:, 2].copy().view(np.int64), return_inverse=True)
    unique = keys.view(np.float64).tolist()
    cells = np.array(("%.17g\n" * len(unique) % tuple(unique)).split("\n")[:-1], dtype=object)
    energy_rows = cells[inverse].reshape(theta_points, phi_points).tolist()
    with open(path, "w", encoding="utf-8") as out:
        out.write("theta,phi,energy\n")
        # one %-template per theta row, "t,phi,%s\n" for every phi, fills in
        # that row's formatted energies in a single call
        out.writelines((t + t.join(tails)) % tuple(row) for t, row in zip(thetas, energy_rows))


def emit_results(
    rows: list[SweepRow],
    cfg: SweepConfig,
    *,
    include_timing: bool = False,
    out_override: str | None = None,
) -> list[Path]:
    """Write the main table plus any extra emit targets; returns the paths.

    Timing is zeroed in the files unless include_timing is set, so that
    identical configs reproduce byte-identical output.
    """
    if not rows:
        raise ValidationError("no rows to emit")
    path_str = out_override or cfg.outputs.path
    if not path_str:
        raise ValidationError("no output path configured (set outputs.path or --out)")
    main = Path(path_str)  # unwritable paths surface as OSError from write_text

    written: list[Path] = []
    main.write_text(
        render_rows(rows, cfg.outputs.format, include_timing=include_timing), encoding="utf-8"
    )
    written.append(main)

    if "spectrum" in cfg.outputs.emit:
        # one %-template per row, the row's prefix and "level,%.17g" for each
        # level, fills in all its energies in a single call
        tails = [f"{level},%.17g\n" for level in range(max(len(row.eigenvalues) for row in rows))]
        parts = ["point,N,omega,g,v,u,level,energy\n"]
        for i, row in enumerate(rows):
            if row.eigenvalues:  # a failed point has none
                prefix = "%d,%d,%.17g,%.17g,%.17g,%.17g," % (i, row.N, row.omega, row.g, row.v, row.u)
                parts.append((prefix + prefix.join(tails[: len(row.eigenvalues)])) % row.eigenvalues)
        path = _extra_path(main, "spectrum")
        path.write_text("".join(parts), encoding="utf-8")
        written.append(path)

    if "landscape" in cfg.outputs.emit:
        points = cfg.grid_points()
        if len(points) != 1:
            raise ValidationError(
                f"landscape emit needs a single grid point, config has {len(points)}"
            )
        path = _extra_path(main, "landscape")
        write_landscape(
            points[0], cfg.outputs.landscape_theta_points, cfg.outputs.landscape_phi_points, path
        )
        written.append(path)

    if "scaling-fit" in cfg.outputs.emit:
        even = [
            row for row in rows if row.converged and row.N % 2 == 0 and not math.isnan(row.d)
        ]
        # a d at or below the floor (0 included) is not resolved, as for pairing_ok
        pts = [(row.N, row.d) for row in even if row.d > resolution_floor(row.E0)]
        if len(pts) < 3:
            raise ValidationError(
                f"scaling-fit needs at least 3 even-N splittings above the resolution "
                f"floor, got {len(pts)} ({len(even) - len(pts)} dropped as below the floor)"
            )
        fit = splitting_scaling_fit(pts)
        lines = ["N,d,ln_d"]
        for N, d in fit.points:
            lines.append(f"{N},{_fmt_float(d)},{_fmt_float(math.log(d))}")
        path = _extra_path(main, "scaling")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
        fit_path = _extra_path(main, "fit")
        fit_path.write_text(
            "slope,intercept,r_squared\n"
            f"{_fmt_float(fit.slope)},{_fmt_float(fit.intercept)},{_fmt_float(fit.r_squared)}\n",
            encoding="utf-8",
        )
        written.append(fit_path)

    return written
