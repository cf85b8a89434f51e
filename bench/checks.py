"""Output checks: every sweep row, find_minima call and landscape file against references.

An operation is a sweep row or a find_minima call; it fails when any of
its checks fails, and ``failed / attempted`` is the benchmark's failed
fraction.  A failure is *hard* when the numbers themselves are wrong or
missing (energies off the reference, a malformed or non-reproducible
file): a hard failure marks the whole result incorrect.  Flag and
classification defects (``converged``, ``pairing_ok``, an odd-N doublet
above 1e-10 |E0|, a missing semiclassical minimum) fail their operation
without doing so.  Known defects stay in the grids and count.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

HEADER = ("N,S,omega,g,v,u,M_star,E0,E1,E2,d,Delta,pairing_ok,oracle_deviation,"
          "converged,wall_time_seconds")
EPS = float(np.finfo(float).eps)
MATCH_RTOL = 1e-8  # E0, E1, E2, d, Delta vs the reference, relative to |E0|
DOUBLET_RTOL = 1e-10  # odd-N d, relative to |E0|
EXACT_RTOL = 1e-12  # spin-only levels at u = v, relative to |E0|
D_FLOOR = 100 * EPS  # reference d below D_FLOOR * |E0| is unresolved: skip the d checks
ANGLE_TOL = 1e-6


@dataclass
class Failure:
    op: str
    check: str
    detail: str
    hard: bool


@dataclass
class Report:
    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)

    def fail(self, op: str, check: str, detail: str = "", *, hard: bool) -> None:
        self.failures.append(Failure(op, check, detail, hard))

    @property
    def failed(self) -> int:
        return len({f.op for f in self.failures if not f.op.startswith("file:")})

    @property
    def correct(self) -> bool:
        return not any(f.hard for f in self.failures)


def _num(text: str) -> float:
    return float(text) if text else math.nan


def _exact_spin_levels(N: int, v: float) -> list[float]:
    """-v (Sz^2 + Sx^2) = -v S(S+1) + v Sy^2: levels v m^2 above -v S(S+1)."""
    S = N / 2
    return sorted(-v * S * (S + 1) + v * m * m for m in -S + np.arange(N + 1))[:3]


def check_sweep(report: Report, label: str, table: str, spectrum: str | None,
                points: list[tuple[int, float, float]], refs: list[list[float]],
                *, spin_only: bool, k: int) -> None:
    """Rows of one sweep in grid order against reference levels (omega = 1)."""
    lines = table.splitlines()
    if not lines or lines[0] != HEADER:
        report.fail(f"file:{label}", "header", lines[0] if lines else "empty", hard=True)
        lines = lines[:1]
    rows = [dict(zip(HEADER.split(","), line.split(","))) for line in lines[1:]]
    if len(rows) != len(points):
        report.fail(f"file:{label}", "row_count", f"{len(rows)} rows for {len(points)} points",
                    hard=True)
    levels: dict[int, list[str]] = {}
    if spectrum is not None:
        for line in spectrum.splitlines()[1:]:
            cells = line.split(",")
            levels.setdefault(int(cells[0]), []).append(cells[7])

    for i, ((N, g, v), ref) in enumerate(zip(points, refs)):
        report.attempted += 1
        op = f"{label} N={N} g={g!r}"
        if i >= len(rows):
            report.fail(op, "missing_row", hard=True)
            continue
        row = rows[i]
        if int(row["N"]) != N or float(row["g"]) != g or float(row["v"]) != v:
            report.fail(op, "grid_order", f"row has N={row['N']} g={row['g']}", hard=True)
            continue
        if row["converged"] != "true":
            report.fail(op, "converged", row["converged"], hard=False)
        got = {key: _num(row[key]) for key in ("E0", "E1", "E2", "d", "Delta")}
        E0, E1, E2 = ref
        scale = abs(E0)
        want = {"E0": E0, "E1": E1, "E2": E2, "d": E1 - E0, "Delta": E2 - E1}
        d_resolved = N % 2 == 1 or want["d"] > D_FLOOR * scale
        for key in want:
            if key == "d" and not d_resolved:
                continue
            if not abs(got[key] - want[key]) <= MATCH_RTOL * scale:
                report.fail(op, f"{key}_vs_reference",
                            f"{got[key]!r} vs {want[key]!r}", hard=True)
        if N % 2 == 1 and not got["d"] <= DOUBLET_RTOL * scale:
            report.fail(op, "odd_N_doublet", f"d={got['d']!r} > {DOUBLET_RTOL}|E0|", hard=False)
        if N % 2 == 0 and d_resolved and row["pairing_ok"] != "false":
            report.fail(op, "even_N_pairing_ok",
                        f"pairing_ok={row['pairing_ok']} with reference d={want['d']:.3e}",
                        hard=False)
        if spin_only and g * g == v:
            exact = _exact_spin_levels(N, v)
            dev = max(abs(got[key] - e) for key, e in zip(("E0", "E1", "E2"), exact))
            if not dev <= EXACT_RTOL * scale:
                report.fail(op, "solvable_point", f"max deviation {dev:.3e}", hard=True)
        if spectrum is not None:
            spec = levels.get(i, [])
            n_levels = min(k, N + 1) if spin_only else k  # the spin-only space has N + 1 states
            if len(spec) != n_levels or spec[:3] != [row["E0"], row["E1"], row["E2"]]:
                report.fail(op, "spectrum_file", f"{len(spec)} levels", hard=True)


def missing_minima(minima: list[dict]) -> int:
    """How many of the two expected minima (theta = pi/2, phi = 0 and pi, cavity at rest) are absent."""
    found = set()
    for m in minima:
        on_equator = abs(m["theta"] - math.pi / 2) < ANGLE_TOL
        at_rest = math.hypot(m["x"], m["y"]) < ANGLE_TOL
        phi = m["phi"] % (2 * math.pi)
        if on_equator and at_rest:
            if min(phi, 2 * math.pi - phi) < ANGLE_TOL:
                found.add(0)
            elif abs(phi - math.pi) < ANGLE_TOL:
                found.add(1)
    return 2 - len(found)


def check_minima(report: Report, calls, results) -> int:
    """Each find_minima call must return exactly the two equatorial minima; returns minima missed.

    A result that is a string is the message of a DescentError the call raised.
    """
    total_missing = 0
    for (N, _omega, g, _v), minima in zip(calls, results):
        report.attempted += 1
        if isinstance(minima, str):
            total_missing += 2
            report.fail(f"find_minima N={N} g={g!r}", "descent_error", minima, hard=False)
            continue
        missing = missing_minima(minima)
        total_missing += missing
        if missing or len(minima) != 2:
            where = ", ".join(f"(theta={m['theta']:.4f}, phi={m['phi']:.4f})" for m in minima)
            report.fail(f"find_minima N={N} g={g!r}", "two_equatorial_minima",
                        f"{len(minima)} returned: {where}", hard=False)
    return total_missing


def check_landscape(report: Report, text: str, N: int, g: float, v: float,
                    theta_points: int, phi_points: int) -> None:
    """Reduced surface -u S^2 cos^2(theta) - v S^2 sin^2(theta) cos^2(phi) on the grid (omega = 1)."""
    if not text.startswith("theta,phi,energy\n"):
        report.fail("file:landscape", "header", text[:40], hard=True)
        return
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (theta_points * phi_points, 3):
        report.fail("file:landscape", "shape", str(data.shape), hard=True)
        return
    th, ph = np.meshgrid(np.linspace(0.0, math.pi, theta_points),
                         np.linspace(0.0, 2 * math.pi, phi_points, endpoint=False),
                         indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    S2 = (N / 2) ** 2
    energy = -g * g * S2 * np.cos(th) ** 2 - v * S2 * np.sin(th) ** 2 * np.cos(ph) ** 2
    if not (np.array_equal(data[:, 0], th) and np.array_equal(data[:, 1], ph)):
        report.fail("file:landscape", "grid", "theta/phi grid differs", hard=True)
    dev = float(np.max(np.abs(data[:, 2] - energy)))
    if not dev <= 1e-12 * v * S2:
        report.fail("file:landscape", "energy", f"max deviation {dev:.3e}", hard=True)
