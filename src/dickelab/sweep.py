"""Parameter-sweep engine: config parsing, grid execution, table emission.

A sweep evaluates the grid N_list x g_list x v_list (or one circuit-derived
point) one point after another, and renders the rows to CSV or JSON lines
with 17-significant-digit numbers so the files round-trip 64-bit floats
losslessly.  Grid order is deterministic.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .circuit import derive_model_params, read_device_file
from .diagnostics import (
    converge_cutoff,
    degeneracy_classes,
    resolution_floor,
    spin_ladder_levels,
    spin_model_spectrum,
    splitting_and_gap,
)
from .errors import ConfigError, DickeLabError, SweepAborted, ValidationError
from .model import ModelParams
from .semiclassics import splitting_scaling_fit
from .solvers import SolverOptions

CSV_HEADER = (
    "N,S,omega,g,v,u,M_star,E0,E1,E2,d,Delta,pairing_ok,oracle_deviation,"
    "converged,wall_time_seconds"
)
EMIT_CHOICES = ("spectrum", "splitting", "degeneracy", "landscape", "scaling-fit")

_MODEL_KEYS = ("N_list", "omega", "g_list", "v_list", "circuit_file")
_ENGINE_KEYS = ("mode", "k", "tol", "seed", "max_dim", "budget_dim_total")
_OUTPUT_KEYS = ("path", "format", "emit", "landscape_theta_points", "landscape_phi_points")


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
    max_dim: int = 200_000
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


def _parse_scalar(val: str, key: str, lineno: int, kind):
    try:
        if kind is int:
            f = float(val)
            if abs(f - round(f)) > 1e-9:
                raise ValueError
            return int(round(f))
        return kind(val)
    except ValueError:
        raise ConfigError(f"malformed number for {key!r}: {val!r}", line=lineno) from None


def _parse_list(val: str, key: str, lineno: int, kind) -> tuple:
    items = [s.strip() for s in val.split(",")]
    items = [s for s in items if s]
    if not items:
        raise ConfigError(f"empty sweep axis {key!r}", line=lineno)
    return tuple(_parse_scalar(s, key, lineno, kind) for s in items)


def parse_config(text: str) -> SweepConfig:
    """Parse the line-oriented config format.

    Sections [model], [engine], [outputs]; 'key = value' entries; list
    values use commas.  Unknown sections or keys are errors with the
    offending line number (fail closed).
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in ("model", "engine", "outputs"):
                raise ConfigError(f"unknown section [{current}]", line=lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            current = "model"  # bare keys before any header belong to the model
            sections.setdefault(current, {})
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        allowed = {"model": _MODEL_KEYS, "engine": _ENGINE_KEYS, "outputs": _OUTPUT_KEYS}[current]
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        sections[current][key] = (val, lineno)

    model_sec = sections.get("model", {})
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
        for key in ("N_list", "omega", "g_list", "v_list"):
            if key not in model_sec:
                raise ConfigError(f"missing required model key {key!r}")
        model.N_list = _parse_list(model_sec["N_list"][0], "N_list", model_sec["N_list"][1], int)
        model.omega = _parse_scalar(model_sec["omega"][0], "omega", model_sec["omega"][1], float)
        model.g_list = _parse_list(model_sec["g_list"][0], "g_list", model_sec["g_list"][1], float)
        model.v_list = _parse_list(model_sec["v_list"][0], "v_list", model_sec["v_list"][1], float)

    engine = EngineConfig()
    if "mode" in engine_sec:
        mode, lineno = engine_sec["mode"]
        if mode not in ("full", "spin-only"):
            raise ConfigError(f"mode must be 'full' or 'spin-only', got {mode!r}", line=lineno)
        engine.mode = mode
    for key, kind in (("k", int), ("seed", int), ("max_dim", int), ("budget_dim_total", int), ("tol", float)):
        if key in engine_sec:
            setattr(engine, key, _parse_scalar(engine_sec[key][0], key, engine_sec[key][1], kind))
    if engine.k < 1:
        raise ConfigError("k must be >= 1")
    if engine.tol <= 0:
        raise ConfigError("tol must be > 0")

    outputs = OutputConfig()
    if "path" in out_sec:
        outputs.path = out_sec["path"][0]
    if "format" in out_sec:
        fmt, lineno = out_sec["format"]
        fmt = {"jsonl": "json-lines"}.get(fmt, fmt)
        if fmt not in ("csv", "json-lines"):
            raise ConfigError(f"format must be 'csv' or 'json-lines', got {fmt!r}", line=lineno)
        outputs.format = fmt
    if "emit" in out_sec:
        val, lineno = out_sec["emit"]
        tokens = tuple(s.strip() for s in val.split(",") if s.strip())
        if not tokens:
            raise ConfigError("emit list is empty", line=lineno)
        for tok in tokens:
            if tok not in EMIT_CHOICES:
                raise ConfigError(f"unknown emit target {tok!r}", line=lineno)
        outputs.emit = tokens
    for key in ("landscape_theta_points", "landscape_phi_points"):
        if key in out_sec:
            n = _parse_scalar(out_sec[key][0], key, out_sec[key][1], int)
            if n < 2:
                raise ConfigError(f"{key} must be >= 2", line=out_sec[key][1])
            setattr(outputs, key, n)

    if "splitting" in outputs.emit and engine.k < 3:
        raise ConfigError("k must be >= 3 when splitting is requested")

    cfg = SweepConfig(model=model, engine=engine, outputs=outputs)
    if model.circuit_file is None and not (model.N_list and model.g_list and model.v_list):
        raise ConfigError("sweep grid is empty")
    return cfg


def _evaluate_point(
    p: ModelParams, engine: EngineConfig, seed: int, budget: "_Budget"
) -> SweepRow:
    t0 = time.perf_counter()
    base = dict(
        N=p.N, S=p.S, omega=p.omega, g=p.g, v=p.v, u=p.u,
        M_star=0, E0=math.nan, E1=math.nan, E2=math.nan,
        d=math.nan, Delta=math.nan, pairing_ok=False,
        oracle_deviation=None, converged=False,
    )
    try:
        opts = SolverOptions(k=engine.k, seed=seed)
        if engine.mode == "spin-only":
            budget.charge(p.N + 1)
            eigs = spin_model_spectrum(p)[: engine.k]
            M_star = 0
            oracle_dev = None
            solver_ok = True
        else:
            conv = converge_cutoff(
                p, engine.tol, k=3, options=opts, max_dim=engine.max_dim
            )
            M_star = conv.M_star
            # every solve of the cutoff search, not only the accepted one
            budget.charge(sum((M + 1) * (p.N + 1) for M, *_ in conv.history))
            eigs = conv.spectrum.eigenvalues[: engine.k]
            oracle_dev = float(np.max(np.abs(eigs - spin_ladder_levels(p, eigs.size))))
            solver_ok = conv.spectrum.converged and conv.converged

        base["M_star"] = M_star
        base["oracle_deviation"] = oracle_dev
        base["converged"] = bool(solver_ok)
        for name, i in (("E0", 0), ("E1", 1), ("E2", 2)):
            if i < eigs.size:
                base[name] = float(eigs[i])
        if eigs.size >= 3:
            sg = splitting_and_gap(eigs[:3])
            base["d"], base["Delta"] = sg.d, sg.Delta
        base["pairing_ok"] = degeneracy_classes(eigs, resolution_floor(base["E0"])).pairing_ok
        row = SweepRow(
            wall_time_seconds=time.perf_counter() - t0,
            eigenvalues=tuple(float(x) for x in eigs),
            **base,
        )
    except SweepAborted:
        raise
    except (DickeLabError, np.linalg.LinAlgError):
        row = SweepRow(wall_time_seconds=time.perf_counter() - t0, **base)
    return row


class _Budget:
    """Cumulative dimension budget of one sweep."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int) -> None:
        if self.used + amount > self.limit:
            raise SweepAborted(
                f"global dimension budget exceeded ({self.used + amount} > {self.limit})"
            )
        self.used += amount


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> list[SweepRow]:
    """Evaluate every grid point in grid order, one after another.

    Per-point failures are recorded in-row with converged=False.  A breach
    of the global dimension budget aborts the sweep with the completed
    rows attached to the SweepAborted exception.  ``workers`` is accepted
    and has no effect: a thread pool made sweeps slower (the evaluation is
    mostly Python under the interpreter lock) and put waiting time into
    each row's wall_time_seconds.
    """
    points = cfg.grid_points()
    if not points:
        raise ValidationError("sweep grid is empty")
    budget = _Budget(cfg.engine.budget_dim_total)
    rows: list[SweepRow] = []
    try:
        for i, p in enumerate(points):
            rows.append(_evaluate_point(p, cfg.engine, seed=cfg.engine.seed + i, budget=budget))
    except SweepAborted as exc:
        raise SweepAborted(str(exc), rows=rows) from exc
    return rows


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _render_value_csv(name: str, value) -> str:
    if value is None:
        return ""
    if name in ("N", "M_star"):
        return str(int(value))
    if name in ("pairing_ok", "converged"):
        return "true" if value else "false"
    return _fmt_float(float(value))


def _render_value_json(name: str, value) -> str:
    if value is None:
        return "null"
    if name in ("N", "M_star"):
        return str(int(value))
    if name in ("pairing_ok", "converged"):
        return "true" if value else "false"
    f = float(value)
    if math.isnan(f) or math.isinf(f):
        return "null"
    return _fmt_float(f)


def render_rows(rows: list[SweepRow], fmt: str) -> str:
    names = CSV_HEADER.split(",")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(",".join(_render_value_csv(n, getattr(row, n)) for n in names))
        return "\n".join(lines) + "\n"
    if fmt == "json-lines":
        lines = []
        for row in rows:
            fields = ", ".join(
                f'"{n}": {_render_value_json(n, getattr(row, n))}' for n in names
            )
            lines.append("{" + fields + "}")
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown output format {fmt!r}")


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
    """Write :func:`landscape_grid` as ``theta,phi,energy`` CSV with 17-digit numbers."""
    grid = landscape_grid(p, theta_points, phi_points)
    thetas = [_fmt_float(t) for t in grid[::phi_points, 0].tolist()]
    phis = [_fmt_float(f) for f in grid[:phi_points, 1].tolist()]
    energy_rows = grid[:, 2].reshape(theta_points, phi_points).tolist()
    # one %-template per theta row formats that row's energies in a single call
    body = "".join(
        "".join(f"{t},{f},%.17g\n" for f in phis) % tuple(row)
        for t, row in zip(thetas, energy_rows)
    )
    Path(path).write_text("theta,phi,energy\n" + body, encoding="utf-8")


def emit_results(
    rows: list[SweepRow],
    cfg: SweepConfig,
    *,
    include_timing: bool = False,
    out_override: str | None = None,
    format_override: str | None = None,
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
    fmt = format_override or cfg.outputs.format
    main = Path(path_str)  # unwritable paths surface as OSError from write_text

    emit_rows = rows
    if not include_timing:
        emit_rows = [
            SweepRow(**{**row.__dict__, "wall_time_seconds": 0.0}) for row in rows
        ]

    written: list[Path] = []
    main.write_text(render_rows(emit_rows, fmt), encoding="utf-8")
    written.append(main)

    if "spectrum" in cfg.outputs.emit:
        lines = ["point,N,omega,g,v,u,level,energy"]
        for i, row in enumerate(rows):
            for level, energy in enumerate(row.eigenvalues):
                lines.append(
                    f"{i},{row.N},{_fmt_float(row.omega)},{_fmt_float(row.g)},"
                    f"{_fmt_float(row.v)},{_fmt_float(row.u)},{level},{_fmt_float(energy)}"
                )
        path = _extra_path(main, "spectrum")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        pts = [
            (row.N, row.d)
            for row in rows
            if row.converged and row.N % 2 == 0 and not math.isnan(row.d) and row.d > 0
        ]
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
