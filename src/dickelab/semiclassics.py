"""Semiclassical energy landscape and tunnel-splitting scaling analysis.

The coherent-state energy surface over the cavity quadratures (x, y) and
the collective-spin direction (theta, phi) is

    E = omega (x^2 + y^2) + 2 S g x cos(theta) - v S^2 sin^2(theta) cos^2(phi).

It reduces exactly over the cavity (x = -S g cos(theta) / omega, y = 0),
so find_minima enumerates its stationary points in closed form: the two
poles and the equator at phi in {0, pi/2, pi, 3 pi/2}, with flat rings on
the special lines u = v, u = 0 and v = 0.  For u = g^2/omega < v the two
degenerate minima sit on the equator at phi = 0 and phi = pi with the
cavity in vacuum; for u > v they move to the poles with a displaced
cavity.  The parity factor |cos(N pi / 2)| decides whether tunneling
between the equatorial minima interferes destructively (odd N) or not
(even N).  In the spin model -u Sz^2 - v Sx^2 the even-N splitting
decays like exp(-c N), the rate splitting_scaling_fit extracts from
diagonalization data; the full model's splitting falls faster than one
exponential (its rate per atom grows with N), so a fit to full-model rows
gives an average rate over its N range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import ModelParams


@dataclass(frozen=True)
class PhasePoint:
    """Cavity quadratures (x, y) plus spin angles theta in [0, pi], phi in [0, 2 pi)."""

    x: float
    y: float
    theta: float
    phi: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.theta, self.phi)):
            raise ValidationError("phase-space coordinates must be finite")
        if not (-1e-12 <= self.theta <= math.pi + 1e-12):
            raise ValidationError(f"theta must lie in [0, pi], got {self.theta}")
        if not (-1e-12 <= self.phi < 2 * math.pi + 1e-12):
            raise ValidationError(f"phi must lie in [0, 2 pi), got {self.phi}")


@dataclass(frozen=True)
class StationaryPoint:
    point: PhasePoint
    energy: float
    gradient_norm: float
    classification: str  # minimum | degenerate


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (N, ln d); slope is the decay rate per atom."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[int, float], ...]


def energy_surface(p: ModelParams, pt: PhasePoint) -> float:
    """Coherent-state energy at one phase-space point."""
    S = p.S
    return (
        p.omega * (pt.x**2 + pt.y**2)
        + 2.0 * S * p.g * pt.x * math.cos(pt.theta)
        - p.v * S**2 * math.sin(pt.theta) ** 2 * math.cos(pt.phi) ** 2
    )


def _energy(p: ModelParams, z: np.ndarray) -> float:
    x, y, th, ph = z
    S = p.S
    return (
        p.omega * (x * x + y * y)
        + 2.0 * S * p.g * x * np.cos(th)
        - p.v * S * S * np.sin(th) ** 2 * np.cos(ph) ** 2
    )


def surface_gradient(p: ModelParams, z) -> np.ndarray:
    """Analytic gradient of the energy surface w.r.t. (x, y, theta, phi)."""
    x, y, th, ph = np.asarray(z, dtype=float)
    S = p.S
    sin_th, cos_th = np.sin(th), np.cos(th)
    return np.array(
        [
            2.0 * p.omega * x + 2.0 * S * p.g * cos_th,
            2.0 * p.omega * y,
            -2.0 * S * p.g * x * sin_th
            - 2.0 * p.v * S * S * sin_th * cos_th * np.cos(ph) ** 2,
            p.v * S * S * sin_th**2 * np.sin(2.0 * ph),
        ]
    )


def reduced_surface(p: ModelParams, theta: float, phi: float) -> float:
    """Energy minimized over the quadratures: -u S^2 cos^2(theta) - v S^2 sin^2(theta) cos^2(phi).

    The (x, y) dependence is an exact quadratic with minimum at
    x = -S g cos(theta) / omega, y = 0.
    """
    S = p.S
    return -p.u * S**2 * math.cos(theta) ** 2 - p.v * S**2 * math.sin(theta) ** 2 * math.cos(phi) ** 2


def interference_factor(N: int) -> float:
    """|cos(N pi / 2)| evaluated exactly from N mod 4: 1 for even N, 0 for odd.

    This is the phase factor weighing the two opposite-sense tunneling
    paths between the equatorial minima; its zero at odd N is what locks
    the ground doublet degenerate.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ValidationError(f"N must be a positive integer, got {N!r}")
    return 0.0 if N % 2 else 1.0


def splitting_scaling_fit(points) -> ScalingFit:
    """Fit ln d = slope * N + intercept over even-N splittings, all d > 0."""
    pts = [(int(N), float(d)) for N, d in points]
    if len(pts) < 3:
        raise ValidationError(f"need at least 3 points, got {len(pts)}")
    for N, d in pts:
        if N % 2:
            raise ValidationError(f"odd N = {N} not allowed in the scaling fit")
        if d <= 0:
            raise ValidationError(f"non-positive splitting d = {d} at N = {N}")
    Ns = np.array([N for N, _ in pts], dtype=float)
    ln_d = np.log([d for _, d in pts])
    A = np.vstack([Ns, np.ones_like(Ns)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ln_d, rcond=None)
    fitted = A @ np.array([slope, intercept])
    ss_res = float(np.sum((ln_d - fitted) ** 2))
    ss_tot = float(np.sum((ln_d - ln_d.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return ScalingFit(
        slope=float(slope), intercept=float(intercept), r_squared=r2, points=tuple(pts)
    )


def find_minima(p: ModelParams, *, seed: int = 2024) -> list[StationaryPoint]:
    """The minima (and flat points) of the surface, enumerated in closed form.

    The surface is an exact quadratic in (x, y) with minimum at
    x = -S g cos(theta) / omega, y = 0, so its stationary points are those
    of the reduced surface -S^2 (u cos^2 theta + v sin^2 theta cos^2 phi):
    the two poles and the equatorial points phi in {0, pi/2, pi, 3 pi/2}.
    On the special lines the surface is flat along a ring through some of
    them: the phi in {0, pi} meridian when u = v, the phi in {pi/2, 3 pi/2}
    meridian when u = 0, the whole equator when v = 0, and the whole
    sphere when u = v = 0.  A ring is represented by the enumerated points
    on it.

    Each point is classified from the analytic Hessian.  The (x, y) block
    is 2 omega times the identity, so by Haynsworth inertia the full
    Hessian has two positive eigenvalues plus the signs of the reduced
    Hessian (the Schur complement).  That Hessian is diagonal: at the
    equator, in (theta, phi), it is (2 S^2 (v cos^2 phi - u), 2 v S^2 cos 2 phi);
    at a pole, in the tangent coordinates (sin theta cos phi,
    sin theta sin phi), where phi is gauge, it is (2 S^2 (u - v), 2 S^2 u).
    A point is kept as "minimum" when both entries are positive and as
    "degenerate" when one is zero (within rounding of u) and neither is
    negative.  The result is sorted by (energy, theta, phi).  ``seed`` is
    accepted for compatibility and unused: nothing is random.
    """
    S2, u, v = p.S**2, p.u, p.v
    zero_tol = 8 * np.finfo(float).eps * 2 * S2 * max(u, v)
    pole = (2 * S2 * (u - v), 2 * S2 * u)
    # equator with the spin along +-x (phi = 0, pi) and along +-y (phi = pi/2, 3 pi/2)
    x_axis, y_axis = (2 * S2 * (v - u), 2 * v * S2), (-2 * S2 * u, -2 * v * S2)
    x_pole = p.S * p.g / p.omega
    candidates = [  # (x, theta, phi, reduced Hessian diagonal)
        (-x_pole, 0.0, 0.0, pole),
        (x_pole, math.pi, 0.0, pole),
        (0.0, math.pi / 2, 0.0, x_axis),
        (0.0, math.pi / 2, math.pi / 2, y_axis),
        (0.0, math.pi / 2, math.pi, x_axis),
        (0.0, math.pi / 2, 3 * math.pi / 2, y_axis),
    ]
    out = []
    for x, theta, phi, curvatures in candidates:
        if min(curvatures) < -zero_tol:
            continue
        z = np.array([x, 0.0, theta, phi])
        out.append(
            StationaryPoint(
                point=PhasePoint(*map(float, z)),
                energy=float(_energy(p, z)),
                gradient_norm=float(np.linalg.norm(surface_gradient(p, z))),
                classification="degenerate" if min(curvatures) <= zero_tol else "minimum",
            )
        )
    out.sort(key=lambda s: (s.energy, s.point.theta, s.point.phi))
    return out
