"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criterion 5 fails by design of the model itself: the displaced-frame spin
model plus boson ladder is not an identity of the full spectrum (the
displacement dresses the Sx^2 term), so the stated 1e-8 equivalence cannot
hold away from g = 0 or v = 0.  The test states the requirement verbatim
and reports the honest deviation.
"""

import math
import time

import numpy as np
import pytest

from dickelab import (
    ModelParams,
    SparseOperator,
    build_full_hamiltonian,
    converge_cutoff,
    dense_spectrum,
    derive_model_params,
    find_minima,
    interference_factor,
    lanczos_lowest,
    oracle_spectrum_equivalence,
    parse_config,
    run_sweep,
    splitting_and_gap,
    splitting_scaling_fit,
    spin_model_spectrum,
    surface_gradient,
    validate_regime,
)
from dickelab.circuit import CircuitParams
from dickelab.cli import main as cli_main
from dickelab.semiclassics import _energy
from oracles import random_sparse_symmetric

SPIN_SWEEP_CFG = """
[model]
N_list = 4, 6, 8, 10, 12
omega = 1.0
g_list = 0.44721359549995793
v_list = 1.0

[engine]
mode = spin-only
k = 6
seed = 0

[outputs]
path = {out}
format = csv
"""


def _full_splitting(N: int, ratio: float, k: int = 3):
    p = ModelParams(N=N, omega=1.0, g=float(math.sqrt(ratio)), v=1.0)
    conv = converge_cutoff(p, 1e-10)
    eigs = dense_spectrum(build_full_hamiltonian(p, conv.M_star), k).eigenvalues
    return p, eigs


def test_criterion_1_odd_n_exact_degeneracy():
    t0 = time.perf_counter()
    worst = 0.0
    for N in (3, 5, 7):
        for ratio in (0.1, 0.5, 0.9):
            _, eigs = _full_splitting(N, ratio)
            d = splitting_and_gap(eigs).d
            bound = 1e-10 * abs(eigs[0])
            worst = max(worst, d / bound)
            assert d < bound, (N, ratio, d, bound)
    dt = time.perf_counter() - t0
    print(f"criterion 1: PASS - odd-N ground doublets exact "
          f"(worst d at {worst:.1e} of the 1e-10*|E0| bound; {dt:.1f} s)")
    assert dt < 60


def test_criterion_2_even_n_exponential_splitting(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "even.csv"
    cfg = parse_config(SPIN_SWEEP_CFG.format(out=out))
    rows = run_sweep(cfg)
    assert all(row.d > 0 for row in rows), [(r.N, r.d) for r in rows]
    fit = splitting_scaling_fit([(row.N, row.d) for row in rows])
    assert fit.slope < 0
    assert fit.r_squared > 0.99
    dt = time.perf_counter() - t0
    print(f"criterion 2: PASS - even-N splittings all positive, "
          f"ln d vs N fit r^2 = {fit.r_squared:.5f}, slope = {fit.slope:.3f} ({dt:.1f} s)")
    assert dt < 5


def test_criterion_3_parity_alternation():
    pattern = {}
    for N in range(3, 9):
        factor = interference_factor(N)
        assert factor == (0.0 if N % 2 else 1.0)
        if N % 2:
            _, eigs = _full_splitting(N, 0.2)
            d = splitting_and_gap(eigs).d
            assert d < 1e-10 * abs(eigs[0])
            pattern[N] = (factor, "d~0")
        else:
            p = ModelParams(N=N, omega=1.0, g=float(math.sqrt(0.2)), v=1.0)
            d = splitting_and_gap(spin_model_spectrum(p)).d
            assert d > 0
            pattern[N] = (factor, "d>0")
    print(f"criterion 3: PASS - |cos(N pi/2)| matches the splitting pattern: {pattern}")


def test_criterion_4_gap_growth_and_solvable_point():
    t0 = time.perf_counter()
    gaps = []
    for N in range(3, 16, 2):
        p = ModelParams(N=N, omega=1.0, g=float(math.sqrt(0.2)), v=1.0)
        gaps.append(splitting_and_gap(spin_model_spectrum(p)).Delta)
    assert all(b > a for a, b in zip(gaps, gaps[1:])), gaps
    u = 0.2
    solvable = []
    for N in (3, 5, 7, 9):
        p = ModelParams(N=N, omega=1.0, g=float(math.sqrt(u)), v=u)
        solvable.append(splitting_and_gap(spin_model_spectrum(p)).Delta)
    for Delta in solvable:
        assert Delta == pytest.approx(2 * u, rel=1e-12)
    spread = max(solvable) - min(solvable)
    assert spread <= 1e-12 * 2 * u
    dt = time.perf_counter() - t0
    print(f"criterion 4: PASS - Delta strictly increasing over odd N "
          f"({gaps[0]:.3f} -> {gaps[-1]:.3f}); at u = v: Delta = 2u with spread {spread:.1e} ({dt:.1f} s)")
    assert dt < 5


def test_criterion_5_polaron_oracle_equivalence():
    t0 = time.perf_counter()
    deviations = {}
    for N in (2, 3, 4):
        for ratio in (0.2, 0.8):
            p = ModelParams(N=N, omega=1.0, g=float(math.sqrt(ratio)), v=1.0)
            rep = oracle_spectrum_equivalence(p, k=6, tol=1e-8)
            deviations[(N, ratio)] = rep.max_abs_deviation
    worst = max(deviations.values())
    dt = time.perf_counter() - t0
    status = "PASS" if worst < 1e-8 else "FAIL"
    detail = ", ".join(f"N={N} u/v={r}: {d:.3e}" for (N, r), d in deviations.items())
    print(f"criterion 5: {status} - max |full - (spin + ladder)| = {worst:.3e} "
          f"vs tol 1e-8 ({detail}; {dt:.1f} s)")
    assert dt < 120
    assert worst < 1e-8, (
        "the displaced-frame reduction is not an identity of the full model: "
        f"max deviation {worst:.3e} across {deviations}. Removing the "
        "g(a^dag + a)Sz coupling by an Sz-conditioned displacement dresses the "
        "Sx^2 term with displacement operators, so {eps_i + omega n} matches "
        "the full spectrum only on the g = 0 or v = 0 lines (where the "
        "deviation is < 1e-12, see test_diagnostics)."
    )


def test_criterion_6_semiclassical_minima_and_gradient():
    t0 = time.perf_counter()
    p = ModelParams(N=3, omega=1.0, g=0.4, v=1.0)  # u = 0.16 < v
    minima = find_minima(p)
    assert len(minima) == 2
    phis = sorted(m.point.phi for m in minima)
    assert phis[0] == pytest.approx(0.0, abs=1e-8)
    assert phis[1] == pytest.approx(math.pi, abs=1e-8)
    for m in minima:
        assert m.classification == "minimum"
        assert abs(m.point.x) < 1e-8 and abs(m.point.y) < 1e-8
        assert m.point.theta == pytest.approx(math.pi / 2, abs=1e-8)
        assert m.energy == pytest.approx(-p.v * p.S**2, abs=1e-9)

    rng = np.random.default_rng(606)
    h = 1e-5
    worst = 0.0
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
        rel = np.max(np.abs(grad - fd)) / max(1.0, float(np.max(np.abs(grad))))
        worst = max(worst, rel)
        assert rel < 1e-6
    dt = time.perf_counter() - t0
    print(f"criterion 6: PASS - two minima at (0,0,pi/2,0) and (0,0,pi/2,pi) with "
          f"E = -v S^2; gradient vs finite differences worst {worst:.1e} ({dt:.1f} s)")
    assert dt < 5


def test_criterion_7_circuit_regime():
    t0 = time.perf_counter()
    circuit = CircuitParams(
        E_c=2 * math.pi * 5e9,
        E_J=2 * math.pi * 1e9,
        n_g=0.5,
        Phi_x=math.pi / 2,
        Phi_e=math.pi / 2,
        L=10e-9,
        I_c=3.64e-9,
        omega=2 * math.pi * 6e9,
        g=2 * math.pi * 5.8e6,
        N=3,
    )
    model, derived = derive_model_params(circuit)
    direct = circuit.g**2 / circuit.omega
    assert model.u == pytest.approx(direct, rel=1e-6)
    u_mhz_linear = model.u / (2 * math.pi) / 1e6
    assert u_mhz_linear == pytest.approx(5.607e-3, rel=1e-3)
    report = validate_regime(model, derived)
    assert report.u_lt_v
    assert model.u < model.v / (2 * math.pi)  # u < v under the linear reading too
    dt = time.perf_counter() - t0
    print(f"criterion 7: PASS - u/2pi = {u_mhz_linear:.4e} MHz, "
          f"v/2pi = {model.v / (2 * math.pi) / 1e6:.1f} MHz, u < v under both conventions ({dt:.1f} s)")
    assert dt < 1


def test_criterion_8_solver_cross_validation():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        dim = int(rng.integers(60, 501))
        H = SparseOperator(dim, *random_sparse_symmetric(rng, dim))
        lan = lanczos_lowest(H, 6, seed=trial)
        ref = dense_spectrum(H, 6)
        scale = max(float(np.max(np.abs(ref.eigenvalues))), 1e-12)
        dev = float(np.max(np.abs(lan.eigenvalues - ref.eigenvalues))) / scale
        worst = max(worst, dev)
        assert lan.converged and dev <= 1e-9, (trial, dim, dev)

    instances = [
        (2, 0.4, 1.0, 40),
        (3, 0.3, 1.0, 60),
        (4, 0.5, 0.8, 50),
        (5, 0.35, 1.0, 30),
        (3, 0.6, 0.7, 200),
    ]
    for N, g, v, M in instances:
        H = build_full_hamiltonian(ModelParams(N=N, omega=1.0, g=g, v=v), M)
        lan = lanczos_lowest(H, 6, seed=N)
        ref = dense_spectrum(H, 6, dense_threshold=5000)
        scale = float(np.max(np.abs(ref.eigenvalues)))
        dev = float(np.max(np.abs(lan.eigenvalues - ref.eigenvalues))) / scale
        worst = max(worst, dev)
        assert dev <= 1e-9, (N, g, v, M, dev)
        if N % 2:  # Kramers doublets must come out with both members
            e = lan.eigenvalues
            for i in (0, 2, 4):
                assert abs(e[i + 1] - e[i]) <= 1e-9 * scale
    dt = time.perf_counter() - t0
    print(f"criterion 8: PASS - block Lanczos vs dense on 50 random + 5 model "
          f"instances, worst relative deviation {worst:.1e} ({dt:.1f} s)")
    assert dt < 60


def test_criterion_9_byte_identical_output(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    cfg_path.write_text(SPIN_SWEEP_CFG.format(out=out1))
    assert cli_main(["sweep", str(cfg_path), "--workers", "1"]) == 0
    assert cli_main(["sweep", str(cfg_path), "--workers", "8", "--out", str(out8)]) == 0
    b1, b8 = out1.read_bytes(), out8.read_bytes()
    assert b1 == b8
    print(f"criterion 9: PASS - workers 1 vs 8 produce byte-identical CSV ({len(b1)} bytes)")
