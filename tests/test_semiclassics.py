import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import dickelab
from dickelab import (
    ModelParams,
    PhasePoint,
    ValidationError,
    energy_surface,
    find_minima,
    interference_factor,
    reduced_surface,
    splitting_scaling_fit,
    surface_gradient,
)
from dickelab.semiclassics import _energy


def test_surface_equatorial_well():
    p = ModelParams(N=2, omega=1.0, g=0.2, v=1.0)
    e = energy_surface(p, PhasePoint(x=0.0, y=0.0, theta=math.pi / 2, phi=0.0))
    assert e == pytest.approx(-1.0, abs=1e-14)  # -v S^2 with S = 1


def test_surface_vanishes_on_phi_quarter_turn():
    p = ModelParams(N=3, omega=1.0, g=0.2, v=2.5)
    e = energy_surface(p, PhasePoint(x=0.0, y=0.0, theta=math.pi / 2, phi=math.pi / 2))
    assert e == pytest.approx(0.0, abs=1e-14)


def test_surface_polar_completing_the_square():
    # at theta = 0 the x-minimum sits at x = -S g / omega with value -u S^2
    p = ModelParams(N=4, omega=1.3, g=0.6, v=0.4)
    S = p.S
    x_star = -S * p.g / p.omega
    e_min = energy_surface(p, PhasePoint(x=x_star, y=0.0, theta=0.0, phi=0.0))
    assert e_min == pytest.approx(-p.u * S**2, rel=1e-14)
    for dx in (-0.1, 0.1):
        assert energy_surface(p, PhasePoint(x=x_star + dx, y=0.0, theta=0.0, phi=0.0)) > e_min


def test_reduced_surface_anchors():
    p = ModelParams(N=2, omega=1.0, g=0.5, v=1.0)
    assert reduced_surface(p, math.pi / 2, 0.0) == pytest.approx(-p.v * p.S**2, abs=1e-14)
    assert reduced_surface(p, 0.0, 0.3) == pytest.approx(-p.u * p.S**2, abs=1e-14)


def test_reduced_surface_matches_nested_minimization():
    p = ModelParams(N=3, omega=1.0, g=0.4, v=1.0)
    worst = 0.0
    for th in np.linspace(0.0, math.pi, 20):
        for ph in np.linspace(0.0, 2 * math.pi, 20, endpoint=False):
            res = minimize(
                lambda z: _energy(p, np.array([z[0], z[1], th, ph])),
                [0.3, -0.2],
                method="BFGS",
                options={"gtol": 1e-12},
            )
            worst = max(worst, abs(res.fun - reduced_surface(p, th, ph)))
    assert worst < 1e-10


def test_gradient_matches_central_differences():
    p = ModelParams(N=3, omega=1.3, g=0.7, v=0.9)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(100):
        z = np.array(
            [
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                rng.uniform(0.05, math.pi - 0.05),
                rng.uniform(0, 2 * math.pi),
            ]
        )
        grad = surface_gradient(p, z)
        fd = np.zeros(4)
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (_energy(p, zp) - _energy(p, zm)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / scale < 1e-6


def test_find_minima_two_equatorial_wells():
    p = ModelParams(N=2, omega=1.0, g=0.3, v=1.0)  # u = 0.09 < v
    minima = find_minima(p)
    assert len(minima) == 2
    assert all(m.classification == "minimum" for m in minima)
    phis = sorted(m.point.phi for m in minima)
    assert phis[0] == pytest.approx(0.0, abs=1e-8)
    assert phis[1] == pytest.approx(math.pi, abs=1e-8)
    for m in minima:
        assert abs(m.point.x) < 1e-8 and abs(m.point.y) < 1e-8
        assert m.point.theta == pytest.approx(math.pi / 2, abs=1e-8)
        assert m.energy == pytest.approx(-p.v * p.S**2, abs=1e-10)
        assert m.gradient_norm <= 1e-10


def test_find_minima_polar_wells():
    p = ModelParams(N=2, omega=1.0, g=2.0, v=1.0)  # u = 4 > v
    minima = find_minima(p)
    assert len(minima) == 2
    disp = p.S * p.g / p.omega
    thetas = sorted(m.point.theta for m in minima)
    assert thetas[0] == pytest.approx(0.0, abs=1e-6)
    assert thetas[1] == pytest.approx(math.pi, abs=1e-6)
    for m in minima:
        assert m.classification == "minimum"
        assert m.energy == pytest.approx(-p.u * p.S**2, rel=1e-10)
        assert abs(m.point.x) == pytest.approx(disp, abs=1e-8)
    xs = sorted(m.point.x for m in minima)
    assert xs[0] == pytest.approx(-disp, abs=1e-8)
    assert xs[1] == pytest.approx(disp, abs=1e-8)


def test_find_minima_flat_surface_degenerate():
    p = ModelParams(N=2, omega=1.0, g=0.0, v=0.0)
    points = find_minima(p)
    assert points
    assert all(s.classification == "degenerate" for s in points)
    assert all(s.energy == pytest.approx(0.0, abs=1e-12) for s in points)


def test_find_minima_degenerate_ring_at_u_equals_v():
    p = ModelParams(N=3, omega=1.0, g=1.0, v=1.0)
    points = find_minima(p)
    assert points
    assert all(s.classification == "degenerate" for s in points)
    assert all(s.energy == pytest.approx(-p.u * p.S**2, rel=1e-9) for s in points)


@pytest.mark.parametrize("seed", [0, 1, 2, 2024])
@pytest.mark.parametrize("ratio", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("N", [10, 11, 20, 21, 40, 41, 80, 81])
def test_find_minima_returns_both_equatorial_wells_on_benchmark_grid(N, ratio, seed):
    p = ModelParams(N=N, omega=1.0, g=math.sqrt(ratio), v=1.0)
    minima = find_minima(p, seed=seed)
    assert len(minima) == 2
    assert all(m.classification == "minimum" for m in minima)
    phis = sorted(m.point.phi for m in minima)
    assert phis[0] == pytest.approx(0.0, abs=1e-8)
    assert phis[1] == pytest.approx(math.pi, abs=1e-8)
    vS2 = p.v * p.S**2
    for m in minima:
        assert m.point.theta == pytest.approx(math.pi / 2, abs=1e-8)
        assert abs(m.point.x) < 1e-8 and abs(m.point.y) < 1e-8
        assert abs(m.energy + vS2) <= 1e-10 * vS2


def test_find_minima_isolated_equatorial_wells_at_zero_coupling():
    # u = 0: the phi = pi/2 meridian is a ring of maxima, phi = 0 and pi stay isolated minima
    p = ModelParams(N=5, omega=1.0, g=0.0, v=1.0)
    minima = find_minima(p)
    assert [m.classification for m in minima] == ["minimum", "minimum"]
    assert [m.point.phi for m in minima] == pytest.approx([0.0, math.pi], abs=1e-12)
    for m in minima:
        assert m.point.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert m.energy == pytest.approx(-p.v * p.S**2, rel=1e-14)


def test_find_minima_polar_wells_without_interaction():
    # v = 0: the equator is a ring of saddles, so only the two displaced poles remain
    p = ModelParams(N=5, omega=1.0, g=1.5, v=0.0)
    minima = find_minima(p)
    assert [m.classification for m in minima] == ["minimum", "minimum"]
    assert [m.point.theta for m in minima] == [0.0, math.pi]
    disp = p.S * p.g / p.omega
    assert [m.point.x for m in minima] == pytest.approx([-disp, disp], rel=1e-14)
    for m in minima:
        assert m.energy == pytest.approx(-p.u * p.S**2, rel=1e-14)


def test_find_minima_ring_survives_rounding_of_u():
    # g = sqrt(v omega) gives u = v + 1 ulp; the phi in {0, pi} meridian is still one flat ring
    p = ModelParams(N=3, omega=1.0, g=math.sqrt(0.7), v=0.7)
    assert p.u != p.v
    points = find_minima(p)
    assert len(points) == 4
    assert all(s.classification == "degenerate" for s in points)
    assert all(s.energy == pytest.approx(-p.v * p.S**2, rel=1e-14) for s in points)


def test_find_minima_gradient_at_rounding_level_for_large_n():
    p = ModelParams(N=2001, omega=1.0, g=math.sqrt(0.5), v=1.0)
    minima = find_minima(p)
    assert len(minima) == 2
    for m in minima:
        assert m.gradient_norm <= 1e-14 * (p.u + p.v) * p.S**2


def test_package_import_leaves_scipy_optimize_out():
    src = Path(dickelab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, dickelab, dickelab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_surface_symmetries_in_phi():
    p = ModelParams(N=3, omega=1.1, g=0.5, v=0.8)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = rng.uniform(-1, 1, size=2)
        th = rng.uniform(0, math.pi)
        ph = rng.uniform(0, math.pi)
        e = energy_surface(p, PhasePoint(x=x, y=y, theta=th, phi=ph))
        e_neg = _energy(p, np.array([x, y, th, -ph]))
        e_mirror = _energy(p, np.array([x, y, th, math.pi - ph]))
        assert abs(e - e_neg) <= 1e-14 * max(1.0, abs(e))
        assert abs(e - e_mirror) <= 1e-14 * max(1.0, abs(e))


def test_barrier_heights_along_paths():
    p = ModelParams(N=3, omega=1.0, g=0.4, v=1.0)  # u = 0.16 < v
    S2 = p.S**2
    phis = np.linspace(0.0, math.pi, 2001)
    equator = np.array([reduced_surface(p, math.pi / 2, ph) for ph in phis])
    barrier_eq = equator.max() - equator.min()
    assert barrier_eq == pytest.approx(p.v * S2, rel=1e-10)
    thetas = np.linspace(0.0, math.pi, 2001)
    meridian = np.array([reduced_surface(p, th, 0.0) for th in thetas])
    barrier_pole = meridian.max() - meridian.min()
    assert barrier_pole == pytest.approx((p.v - p.u) * S2, rel=1e-10)


def test_interference_factor_parity():
    assert [interference_factor(n) for n in range(1, 9)] == [0.0, 1.0] * 4


def test_interference_factor_rejects_bad_n():
    for bad in (0, -3, 2.5, True):
        with pytest.raises(ValidationError):
            interference_factor(bad)


def test_scaling_fit_exact_synthetic_line():
    pts = [(N, math.exp(-0.7 * N)) for N in (4, 6, 8)]
    fit = splitting_scaling_fit(pts)
    assert fit.slope == pytest.approx(-0.7, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_scaling_fit_rejects_bad_input():
    with pytest.raises(ValidationError):
        splitting_scaling_fit([(4, 1e-2), (6, 1e-3)])  # two points
    with pytest.raises(ValidationError):
        splitting_scaling_fit([(4, 1e-2), (6, 0.0), (8, 1e-4)])  # d <= 0
    with pytest.raises(ValidationError):
        splitting_scaling_fit([(4, 1e-2), (5, 1e-3), (8, 1e-4)])  # odd N


def test_phase_point_validation():
    with pytest.raises(ValidationError):
        PhasePoint(x=0.0, y=0.0, theta=-0.5, phi=0.0)
    with pytest.raises(ValidationError):
        PhasePoint(x=0.0, y=0.0, theta=0.5, phi=7.0)
    with pytest.raises(ValidationError):
        PhasePoint(x=math.nan, y=0.0, theta=0.5, phi=0.0)
