import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from dickelab import (
    ModelParams,
    ResourceError,
    ValidationError,
    build_full_hamiltonian,
    cat_overlap,
    converge_cutoff,
    degeneracy_classes,
    dense_spectrum,
    lowest_levels,
    oracle_spectrum_equivalence,
    polaron_spin_hamiltonian,
    spin_model_spectrum,
    splitting_and_gap,
    symmetry_commutator_norm,
    symmetry_operator,
)
import dickelab.diagnostics as diagnostics
import dickelab.solvers as solvers
from dickelab.diagnostics import initial_cutoff
from dickelab.model import spin_blocks, spin_skeleton, symmetry_block
from dickelab.reference import _embed_block, ground_pair, level_vectors
from dickelab.sweep import CSV_HEADER, Budget, EngineConfig, evaluate_point
from oracles import dense_from_band, dense_spin_xz


def test_splitting_from_polaron_levels():
    sg = splitting_and_gap([-1.5, -1.0, -0.5])
    assert sg.d == pytest.approx(0.5, abs=1e-15)
    assert sg.Delta == pytest.approx(0.5, abs=1e-15)


def test_splitting_paired_spectrum():
    # N = 3 spin model at u = v = 1: levels -u S(S+1) + u m_y^2
    sg = splitting_and_gap([-3.5, -3.5, -1.5, -1.5])
    assert sg.d == 0.0
    assert sg.Delta == pytest.approx(2.0, abs=1e-15)


def test_splitting_degenerate_zeros():
    sg = splitting_and_gap([0.0, 0.0, 0.0])
    assert sg.d == 0.0 and sg.Delta == 0.0


def test_splitting_requires_three():
    with pytest.raises(ValidationError):
        splitting_and_gap([1.0, 2.0])


def test_splitting_rejects_descending():
    with pytest.raises(ValidationError):
        splitting_and_gap([0.0, -1.0, 2.0])


def test_splitting_clips_solver_noise():
    sg = splitting_and_gap([0.0, -1e-13, 1.0])
    assert sg.d == 0.0


def test_degeneracy_clustering_mechanics():
    rep = degeneracy_classes([1.0, 1.0 + 1e-15, 2.0], 1e-12)
    assert rep.classes == ((1.0, 2), (2.0, 1))
    assert not rep.pairing_ok
    assert rep.max_intra_class_spread <= 2e-15


def test_degeneracy_all_paired():
    rep = degeneracy_classes([0.0, 1e-14, 1.0, 1.0 + 2e-14], 1e-12)
    assert rep.pairing_ok
    assert sum(m for _, m in rep.classes) == 4


def test_odd_n_pairing_full_model():
    # Kramers pairing of the lowest 8 levels for half-integer total spin
    for N in (1, 3):
        for ratio in (0.1, 0.5, 0.9):
            p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(ratio)), v=1.0)
            conv = converge_cutoff(p, 1e-10)
            H = build_full_hamiltonian(p, conv.M_star)
            eigs = dense_spectrum(H, 8).eigenvalues
            rep = degeneracy_classes(eigs, 1e-10 * max(abs(eigs[0]), 1e-3))
            assert rep.pairing_ok, (N, ratio, rep.classes)


def test_even_n_ground_pair_split():
    p = ModelParams(N=4, omega=1.0, g=float(np.sqrt(0.2)), v=1.0)
    conv = converge_cutoff(p, 1e-10)
    eigs = dense_spectrum(build_full_hamiltonian(p, conv.M_star), 8).eigenvalues
    rep = degeneracy_classes(eigs, 1e-10 * abs(eigs[0]))
    assert not rep.pairing_ok
    sg = splitting_and_gap(eigs)
    assert sg.d > 0


def test_even_n_splitting_above_noise_floor():
    # full model, u/v = 0.2: tunneling is small but far above solver noise
    for N in (2, 4, 6):
        p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(0.2)), v=1.0)
        conv = converge_cutoff(p, 1e-10)
        eigs = dense_spectrum(build_full_hamiltonian(p, conv.M_star), 3).eigenvalues
        sg = splitting_and_gap(eigs)
        assert sg.d > 1e-6 * sg.Delta, (N, sg)


def test_commutator_identity_is_zero():
    H = np.diag([1.0, 2.0, 3.0])
    assert symmetry_commutator_norm(H, np.eye(3)) == 0.0


def test_commutator_model_parity():
    p = ModelParams(N=3, omega=1.0, g=np.sqrt(0.2), v=1.0)
    H = build_full_hamiltonian(p, 20)
    R = symmetry_operator(p, 20)
    assert symmetry_commutator_norm(H, R) < 1e-12


def test_commutator_random_matrix_does_not_commute():
    p = ModelParams(N=2, omega=1.0, g=0.4, v=1.0)
    H = build_full_hamiltonian(p, 8).toarray()
    rng = np.random.default_rng(17)
    R = rng.standard_normal(H.shape)
    R = (R + R.T) / 2
    assert symmetry_commutator_norm(H, R) > 1e-3


def test_commutator_dimension_mismatch():
    with pytest.raises(ValidationError):
        symmetry_commutator_norm(np.eye(3), np.eye(4))


def test_converge_decoupled_boson_immediate():
    p = ModelParams(N=2, omega=1.0, g=0.0, v=1.0)
    rep = converge_cutoff(p, 1e-10)
    assert rep.converged
    assert rep.M_star == initial_cutoff(p) == 10
    # eigenvalues independent of M when the boson decouples
    first, second = rep.history[0], rep.history[1]
    np.testing.assert_allclose(first[1:], second[1:], atol=1e-12)


def test_converge_history_doubles():
    # g = 0.3 is certified at its first cutoff, 11; g = 1.0 solves 19 and 38
    # and accepts 19 by comparison
    for g, certified in ((0.3, True), (1.0, False)):
        p = ModelParams(N=3, omega=1.0, g=g, v=1.0)
        rep = converge_cutoff(p, 1e-10)
        assert rep.converged
        Ms = [h[0] for h in rep.history]
        assert Ms[0] == initial_cutoff(p)
        for a, b in zip(Ms, Ms[1:]):
            assert b == 2 * a
        assert math.isnan(rep.bound) != certified
        assert rep.M_star == (Ms[-1] if certified else Ms[-2])
        assert len(Ms) == (1 if certified else 2)


def test_converge_strong_displacement_grows():
    # g S / omega = 2: occupation estimate 4 (g S/omega)^2 = 16 sets the start
    p = ModelParams(N=2, omega=1.0, g=2.0, v=0.1)
    rep = converge_cutoff(p, 1e-10)
    assert rep.M_star >= 16
    assert rep.converged


def test_converge_resource_error_carries_history():
    p = ModelParams(N=3, omega=1.0, g=0.3, v=1.0)
    with pytest.raises(ResourceError) as err:
        converge_cutoff(p, 1e-30, max_dim=200)
    assert err.value.history  # partial history attached


def test_negative_seed_is_a_validation_error():
    p = ModelParams(N=12, omega=1.0, g=0.9487, v=1.0)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        converge_cutoff(p, seed=-1)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        lowest_levels(p, 20, 6, seed=-1)


def test_converge_rejects_bad_tolerance():
    p = ModelParams(N=2, omega=1.0, g=0.1, v=1.0)
    # nan would search to max_dim, inf would accept the first pair of cutoffs
    for tol in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            converge_cutoff(p, tol)


def test_oracle_equivalence_exact_at_g_zero():
    p = ModelParams(N=3, omega=1.0, g=0.0, v=1.0)
    rep = oracle_spectrum_equivalence(p, k=6, tol=1e-8)
    assert rep.passed
    assert rep.max_abs_deviation < 1e-12


def test_oracle_equivalence_exact_at_v_zero():
    p = ModelParams(N=3, omega=1.0, g=0.6, v=0.0)
    rep = oracle_spectrum_equivalence(p, k=6, tol=1e-8)
    assert rep.passed, rep.max_abs_deviation


def test_oracle_equivalence_reports_dressing_shift():
    # with g != 0 and v != 0 the displacement dresses Sx^2: the merge is
    # not the true spectrum, and the deviation must be reported honestly
    p = ModelParams(N=3, omega=1.0, g=0.3, v=1.0)
    rep = oracle_spectrum_equivalence(p, k=6, tol=1e-8)
    assert not rep.passed
    assert rep.max_abs_deviation > 1e-3


def test_cat_overlap_decoupled_limit_exact():
    p = ModelParams(N=2, omega=1.0, g=0.0, v=1.0)
    x0, x1, _ = ground_pair(p, 8)
    res = cat_overlap((x0, x1), p, 8)
    assert res.f_plus == pytest.approx(1.0, abs=1e-10)
    assert res.f_minus == pytest.approx(1.0, abs=1e-10)


def test_cat_overlap_deep_two_well_regime():
    p = ModelParams(N=3, omega=1.0, g=float(np.sqrt(0.05)), v=1.0)
    conv = converge_cutoff(p, 1e-10)
    x0, x1, _ = ground_pair(p, conv.M_star)
    res = cat_overlap((x0, x1), p, conv.M_star)
    assert res.f_plus > 0.9 and res.f_minus > 0.9


def test_cat_overlap_shrinks_towards_u_equals_v():
    deep = ModelParams(N=3, omega=1.0, g=float(np.sqrt(0.05)), v=1.0)
    edge = ModelParams(N=3, omega=1.0, g=float(np.sqrt(0.99)), v=1.0)
    out = {}
    for key, p in (("deep", deep), ("edge", edge)):
        conv = converge_cutoff(p, 1e-10)
        x0, x1, _ = ground_pair(p, conv.M_star)
        out[key] = cat_overlap((x0, x1), p, conv.M_star)
    assert out["edge"].f_plus < out["deep"].f_plus
    assert out["edge"].f_minus < out["deep"].f_minus


@pytest.mark.parametrize("N", range(2, 9))
def test_cat_overlap_labels_its_cats_by_the_stated_convention(N):
    # x0 = (|+Sx> + |-Sx>)/sqrt(2) (x) |0>, with <m|+Sx> > 0 and
    # <m|-Sx> = (-1)^(S-m) <m|+Sx>; x1 = |n = 1, m = -S> lies outside both cats
    p, M = ModelParams(N=N, omega=1.0, g=0.3, v=1.0), 2
    plus = np.abs(np.linalg.eigh(dense_spin_xz(N)[0])[1][:, -1])  # Sx >= 0: its Perron vector
    minus = (-1.0) ** (N - np.arange(N + 1)) * plus
    x0, x1 = np.zeros((2, (M + 1) * (N + 1)))
    x0[: N + 1] = (plus + minus) / np.sqrt(2)
    x1[N + 1] = 1.0
    res = cat_overlap((x0, x1), p, M)
    assert res.f_plus == pytest.approx(1.0, abs=1e-12)
    assert res.f_minus == pytest.approx(0.0, abs=1e-12)


def test_cat_overlap_validates_inputs():
    p = ModelParams(N=2, omega=1.0, g=0.0, v=1.0)
    dim = (8 + 1) * 3
    v0 = np.zeros(dim)
    v0[0] = 2.0  # not normalized
    v1 = np.zeros(dim)
    v1[1] = 1.0
    with pytest.raises(ValidationError):
        cat_overlap((v0, v1), p, 8)
    with pytest.raises(ValidationError):
        cat_overlap((v1, v1), p, 8)  # not orthogonal


def test_observables_invariant_under_energy_shift():
    p = ModelParams(N=3, omega=1.0, g=0.4, v=1.0)
    eigs = dense_spectrum(build_full_hamiltonian(p, 20), 5).eigenvalues
    sg = splitting_and_gap(eigs)
    shifted = splitting_and_gap(eigs + 17.25)
    assert abs(sg.d - shifted.d) < 1e-12
    assert abs(sg.Delta - shifted.Delta) < 1e-12


def test_solvable_point_gap_law():
    # at u = v the spin model levels are -u S(S+1) + u m_y^2: for odd N the
    # gap is exactly 2u, independent of N
    u = 0.37
    for N in (3, 5, 7, 9):
        p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(u)), v=u)
        sg = splitting_and_gap(spin_model_spectrum(p))
        assert sg.Delta == pytest.approx(2 * u, rel=1e-12)
        assert sg.d < 1e-13


def test_gap_grows_with_system_size():
    prev = 0.0
    for N in range(3, 16, 2):
        p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(0.2)), v=1.0)
        sg = splitting_and_gap(spin_model_spectrum(p))
        assert sg.Delta > prev
        prev = sg.Delta


def test_spin_model_spectrum_matches_dense_reference():
    p = ModelParams(N=4, omega=1.0, g=0.5, v=0.8)
    np.testing.assert_allclose(
        spin_model_spectrum(p),
        np.linalg.eigvalsh(polaron_spin_hamiltonian(p)),
        atol=1e-14,
    )


SPIN_UV = ((0.2, 1.0), (0.5, 1.0), (0.9, 1.0), (1.0, 1.0), (0.0, 1.0), (0.7, 0.0), (0.37, 0.37))


def _sector_levels(p, s):
    """All levels of the spin model's parity sector s, from the sector's own tridiagonal matrix."""
    sector = spin_blocks(p.N, p.v, s)[0]
    return diagnostics._tridiagonal_levels(sector.diagonal(p.u), sector.off)


def test_spin_model_sectors_match_dense_eigvalsh():
    for N in range(1, 61):
        for u, v in SPIN_UV:
            p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(u)), v=v)
            levels = spin_model_spectrum(p)
            ref = np.linalg.eigvalsh(polaron_spin_hamiltonian(p))
            assert levels.shape == (N + 1,)
            dev = np.max(np.abs(levels - ref))
            assert dev <= 1e-12 * max(1.0, abs(ref[0])), (N, u, v, dev)
            if N % 2:  # doublets exact by construction
                assert np.array_equal(levels[0::2], levels[1::2]), (N, u, v)



def test_spin_sector_levels_are_those_of_eigvalsh_tridiagonal_bit_for_bit():
    for N in range(1, 61):  # N = 1 has a 1-row sector
        for u, v in SPIN_UV:
            p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(u)), v=v)
            for s in (0, 1):
                sector = spin_blocks(N, v, s)[0]
                ref = scipy.linalg.eigvalsh_tridiagonal(sector.diagonal(p.u), sector.off)
                assert np.array_equal(_sector_levels(p, s), ref), (N, u, v, s)


def test_even_n_j_halves_give_the_levels_of_the_unsplit_sectors():
    for N in range(2, 299, 2):
        for u, v in SPIN_UV:
            p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(u)), v=v)
            levels = spin_model_spectrum(p)
            unsplit = np.sort(np.concatenate([_sector_levels(p, s) for s in (0, 1)]))
            assert levels.shape == (N + 1,)
            dev = np.max(np.abs(levels - unsplit))
            assert dev <= 1e-13 * max(1.0, abs(unsplit[0])), (N, u, v, dev)


def test_spin_sector_nonconvergence_is_a_linalg_error(monkeypatch):
    monkeypatch.setattr(diagnostics.lapack, "dsterf", lambda d, e: (d, 2))
    with pytest.raises(np.linalg.LinAlgError):
        spin_model_spectrum(ModelParams(N=6, omega=1.0, g=0.5, v=1.0))


def test_k_lowest_spin_levels_are_the_head_of_the_whole_spectrum():
    for N in range(1, 300):
        for u, v in SPIN_UV:
            p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(u)), v=v)
            whole = spin_model_spectrum(p)
            for k in (1, 2, 3, 6, N + 1, N + 5):
                levels = spin_model_spectrum(p, k)
                assert levels.shape == (min(k, N + 1),), (N, u, v, k)
                dev = np.max(np.abs(levels - whole[:k]))
                assert dev <= 1e-13 * max(1.0, abs(whole[0])), (N, u, v, k, dev)
                if N % 2 == 0:
                    continue
                pairs = levels[: levels.size // 2 * 2]  # doublets exact by construction
                assert np.array_equal(pairs[0::2], pairs[1::2]), (N, u, v, k)


def _fresh_spin_levels(p, k):
    """spin_model_spectrum's levels from the blocks of spin_blocks, built anew."""
    if p.N % 2:
        sector = spin_blocks(p.N, p.v, 0)[0]
        half = None if k is None else -(-k // 2)
        return np.repeat(diagnostics._tridiagonal_levels(sector.diagonal(p.u), sector.off, half), 2)[:k]
    blocks = [spin_blocks(p.N, p.v, s) for s in (0, 1)]
    halves = [(b[r].diagonal(p.u), b[r].off) for b in blocks for r in (1, -1) if b[r].m.size]
    diag = np.concatenate([d for d, _ in halves])
    off = np.concatenate([np.append(o, 0.0) for _, o in halves])[:-1]
    return diagnostics._tridiagonal_levels(diag, off, k)


def test_cached_spin_skeleton_gives_the_fresh_levels_bit_for_bit():
    # u/v from 0 to 3 at v = 1, then the v = 0 line; v = -0.0 right after 0.0
    # would take 0.0's cache entry, and its signed zeros, if the key ignored the sign
    uv = [(r, 1.0) for r in (0.0, 0.2, 0.5, 0.9, 1.0, 1.5, 3.0)]
    uv += [(u, v) for u in (0.0, 0.7) for v in (0.0, -0.0)]
    hits = spin_skeleton.cache_info().hits
    for N in range(1, 161):
        for u, v in uv:
            p = ModelParams(N=N, omega=1.0, g=math.sqrt(u), v=v)
            for k in (1, 3, 6, None):
                cached = spin_model_spectrum(p, k)
                assert cached.tobytes() == _fresh_spin_levels(p, k).tobytes(), (N, u, v, k)
    assert spin_skeleton.cache_info().hits > hits  # the levels came through the cache


def test_spin_levels_need_k_of_at_least_one():
    for N in (6, 7):
        with pytest.raises(ValidationError):
            spin_model_spectrum(ModelParams(N=N, omega=1.0, g=0.5, v=1.0), 0)


@pytest.mark.parametrize("found, info", [(3, 1), (2, 0)])
def test_spin_bisection_failure_is_a_linalg_error(monkeypatch, found, info):
    # N = 21: 3 of the 11 sector levels go to dstebz, which fails or finds too few
    monkeypatch.setattr(
        diagnostics.lapack, "dstebz", lambda d, e, *args: (found, d.copy(), None, None, info)
    )
    with pytest.raises(np.linalg.LinAlgError):
        spin_model_spectrum(ModelParams(N=21, omega=1.0, g=0.5, v=1.0), 6)

def test_converge_with_lanczos_path(monkeypatch):
    # force the iterative solver inside the cutoff search
    p = ModelParams(N=3, omega=1.0, g=0.3, v=1.0)
    dense_rep = converge_cutoff(p, 1e-9)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    rep = converge_cutoff(p, 1e-9, seed=1)
    assert rep.converged
    np.testing.assert_allclose(
        rep.history[-1][1:], dense_rep.history[-1][1:], atol=1e-8
    )


SECTOR_GRID = [(N, float(np.sqrt(r)), 1.0) for N in range(1, 9) for r in (0, 0.2, 0.5, 0.9, 1.0)] + [
    (N, g, 0.0) for N in range(1, 9) for g in (float(np.sqrt(0.5)), 0.0)
]
# the lines on which a sector splits: g = 0 (spin blocks), v = 0 (boson chains), both
SPLIT_LINES = [(N, g, v) for N, g, v in SECTOR_GRID if g == 0 or v == 0]
FORCE_ARPACK = [{}, {"DENSE_SOLVE_MAX_DIM": 10}]  # the default crossover, then all to ARPACK


def _patch_solvers(monkeypatch, extra):
    for name, value in extra.items():
        monkeypatch.setattr(solvers, name, value)


@pytest.mark.parametrize("extra", FORCE_ARPACK)
def test_lowest_levels_match_unsplit_dense(extra, monkeypatch):
    M, k = 30, 6
    _patch_solvers(monkeypatch, extra)
    for N, g, v in SECTOR_GRID:
        p = ModelParams(N=N, omega=1.0, g=g, v=v)
        res = lowest_levels(p, M, k, seed=3)
        ref = dense_spectrum(build_full_hamiltonian(p, M), k).eigenvalues
        assert res.converged
        dev = np.max(np.abs(res.eigenvalues - ref))
        assert dev <= 1e-12 * abs(ref[0]), (N, g, v, dev)
        if N % 2:
            assert res.eigenvalues[1] == res.eigenvalues[0]


@pytest.mark.parametrize("extra", FORCE_ARPACK)
def test_split_line_vectors_are_orthonormal_eigenvectors_of_full_h(extra, monkeypatch):
    _patch_solvers(monkeypatch, extra)
    cases = [(N, g, v, 30, 6) for N, g, v in SPLIT_LINES]
    # every level at g = 0, even N: the J-odd vectors of the J-symmetric pieces among them
    cases += [(4, 0.0, 1.0, 0, 5), (6, 0.0, 1.0, 0, 7), (8, 0.0, 1.0, 1, 18), (6, 0.0, 0.7, 2, 21)]
    for N, g, v, M, k in cases:
        p = ModelParams(N=N, omega=1.0, g=g, v=v)
        V, res = level_vectors(p, M, k, seed=3)
        H = build_full_hamiltonian(p, M)
        np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-12)
        resid = np.linalg.norm(H @ V - V * res.eigenvalues, axis=0)
        assert np.all(resid <= 1e-10 * scipy.sparse.linalg.norm(H)), (N, g, v, M, k, resid)


@pytest.mark.parametrize("extra", FORCE_ARPACK)
def test_odd_n_ground_pair_is_an_exact_doublet(extra, monkeypatch):
    M = 30
    _patch_solvers(monkeypatch, extra)
    for N in (1, 3, 5, 7):
        p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(0.5)), v=1.0)
        x0, x1, res = ground_pair(p, M)
        H = build_full_hamiltonian(p, M)
        X = np.column_stack([x0, x1])
        np.testing.assert_allclose(X.T @ X, np.eye(2), atol=1e-12)
        e = res.eigenvalues[:2]
        assert e[1] == e[0]
        resid = np.linalg.norm(H @ X - X * e, axis=0)
        assert np.all(resid <= 1e-10 * scipy.sparse.linalg.norm(H)), (N, resid)


@pytest.mark.parametrize("extra", FORCE_ARPACK)
def test_even_n_vectors_are_orthonormal_eigenvectors_of_full_h(extra, monkeypatch):
    M, k = 30, 6
    _patch_solvers(monkeypatch, extra)
    for N in (4, 6, 8):
        for ratio in (0.5, 0.9):
            p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(ratio)), v=1.0)
            V, res = level_vectors(p, M, k)  # ground_pair's: k = 6, seed 0
            H = build_full_hamiltonian(p, M)
            np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-12)
            resid = np.linalg.norm(H @ V - V * res.eigenvalues, axis=0)
            assert np.all(resid <= 1e-10 * scipy.sparse.linalg.norm(H)), (N, ratio, resid)
            # each vector lies in its labelled block: parity s, and (-1)^n J x = r x,
            # where symmetry_operator is (-1)^n J times the sign (-1)^S
            R = symmetry_operator(p, M)
            parity = np.arange(V.shape[0]) % (N + 1) % 2
            for x, (s, r) in zip(V.T, res.labels):
                assert not np.any(x[parity != s]), (N, ratio, s, r)
                np.testing.assert_allclose(R.op @ x, R.spin_sign * r * x, atol=1e-12)
            x0, x1, pair = ground_pair(p, M)
            np.testing.assert_array_equal(np.column_stack([x0, x1]), V[:, :2])
            assert pair.labels == res.labels


# u/v = 0.2 .. 1.5, then the g = 0 and v = 0 lines, where the sector is split
MIRROR_GV = [(float(np.sqrt(r)), 1.0) for r in (0.2, 0.5, 0.9, 1.5)] + [
    (0.0, 1.0), (float(np.sqrt(0.5)), 0.0)
]


def test_odd_n_mirror_vectors_are_the_joint_parity_images():
    M, k = 12, 8
    for N in range(1, 16, 2):
        for g, v in MIRROR_GV:
            p = ModelParams(N=N, omega=1.0, g=g, v=v)
            V, res = level_vectors(p, M, k, seed=3)
            # the stable sort keeps each sector's vectors in one order, so the
            # i-th s = 1 vector is the mirror of the i-th s = 0 vector
            s = np.array([label[0] for label in res.labels])
            V0, V1 = V[:, s == 0], V[:, s == 1]
            n = V1.shape[1]
            assert n >= 3, (N, g, v)
            np.testing.assert_array_equal(V1, symmetry_operator(p, M).op @ V0[:, :n])


def test_lowest_levels_at_the_smallest_cutoffs():
    # M = 0 at N = 2 leaves the (1, -) block empty; k = dim asks for every level
    for N in (2, 4):
        for M in (0, 1, 2):
            p = ModelParams(N=N, omega=1.0, g=0.8, v=1.0)
            dim = (M + 1) * (N + 1)
            V, res = level_vectors(p, M, dim)
            ref = np.linalg.eigvalsh(build_full_hamiltonian(p, M).toarray())
            np.testing.assert_allclose(res.eigenvalues, ref, rtol=0, atol=1e-13 * max(1.0, abs(ref[0])))
            np.testing.assert_allclose(V.T @ V, np.eye(dim), atol=1e-13)


# the (s, r) blocks of the ground pair at the converged cutoff, and its d
GROUND_PAIR_BLOCKS = [(12, ((0, 1), (0, -1)), 1.79e-7), (16, ((0, 1), (1, 1)), 4.06e-5)]


@pytest.mark.parametrize("N, blocks, d", GROUND_PAIR_BLOCKS)
def test_even_n_ground_pair_carries_its_block_labels(N, blocks, d):
    p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(0.9)), v=1.0)
    row = evaluate_point(p, EngineConfig(), 0, Budget(10**7))
    spectrum = row.convergence.spectrum
    assert spectrum.labels[:2] == blocks
    assert len(spectrum.labels) == spectrum.eigenvalues.size
    assert row.d == pytest.approx(d, rel=5e-3)
    assert "labels" not in CSV_HEADER


def test_labels_leave_r_out_where_no_solve_resolves_it():
    # odd N: each level and its mirror in the other sector; g = 0, v = 0: sector pieces
    res = lowest_levels(ModelParams(N=5, omega=1.0, g=0.7, v=1.0), 10, 6)
    assert res.labels == ((0, 0), (1, 0)) * 3
    for g, v in ((0.0, 1.0), (0.7, 0.0)):
        res = lowest_levels(ModelParams(N=6, omega=1.0, g=g, v=v), 10, 6)
        assert {r for _, r in res.labels} == {0}, (g, v)


def _pole_cutoff(p):
    """The search start that assumes the full displacement g S / omega."""
    return math.ceil(4.0 * (p.g * p.S / p.omega) ** 2) + 10


START_GRID = [
    ModelParams(N=N, omega=omega, g=float(np.sqrt(r * omega * v)), v=v)
    for N in (1, 2, 3, 7, 16, 41, 200)
    for omega in (0.5, 1.0, 3.0)
    for v in (0.3, 1.0)
    for r in (0.0, 0.2, 0.5, 0.9, 0.99, 1.0, 1.5, 4.0)
] + [ModelParams(N=N, omega=1.0, g=g, v=0.0) for N in (1, 2, 16) for g in (0.0, 0.5, 2.0)]


def test_initial_cutoff_at_the_poles_is_the_full_displacement():
    for p in START_GRID:
        assert initial_cutoff(p) <= _pole_cutoff(p), p
        if p.u >= p.v:
            assert initial_cutoff(p) == _pole_cutoff(p), p


def test_initial_cutoff_on_the_equator_is_the_harmonic_fluctuation():
    for p in START_GRID:
        if p.u < p.v:
            sz2 = min(p.S**2, p.S / 2 * math.sqrt(p.v / (p.v - p.u)))
            assert initial_cutoff(p) == math.ceil(4.0 * (p.g * math.sqrt(sz2) / p.omega) ** 2) + 10, p
    # 4 u (S/2) sqrt(v / (v - u)) photons: 4 * 0.5 * 4 sqrt(2) = 11.3 at N = 16, u/v = 0.5
    # (against 4 * 0.5 * 64 = 128), and 4 * 0.9 * 3 sqrt(10) = 34.2 at N = 12, u/v = 0.9
    assert initial_cutoff(ModelParams(N=16, omega=1.0, g=float(np.sqrt(0.5)), v=1.0)) == 22
    assert initial_cutoff(ModelParams(N=12, omega=1.0, g=float(np.sqrt(0.9)), v=1.0)) == 45


SEARCH_GRID = [
    ModelParams(N=N, omega=1.0, g=float(np.sqrt(r)), v=1.0)
    for N in range(1, 13)
    for r in (0.0, 0.2, 0.5, 0.9, 0.99, 1.0, 1.5)
] + [ModelParams(N=N, omega=1.0, g=g, v=v) for N in range(1, 13) for g, v in ((0.0, 0.5), (0.5, 0.0))]


def test_search_from_the_semiclassical_start_reaches_the_same_levels(monkeypatch):
    tol = 1e-10
    compared = 0
    for p in SEARCH_GRID:
        if initial_cutoff(p) == _pole_cutoff(p):
            continue  # same start (u >= v, g = 0, v = 0): the same search, bit for bit
        rep = converge_cutoff(p, tol)
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "initial_cutoff", _pole_cutoff)
            ref = converge_cutoff(p, tol)
        assert rep.history[0][0] < ref.history[0][0]
        e, e_ref = rep.spectrum.eigenvalues[:3], ref.spectrum.eigenvalues[:3]
        assert np.max(np.abs(e - e_ref)) <= 2 * tol, (p, rep.M_star, ref.M_star)
        if p.N % 2:
            assert e[1] == e[0] and e_ref[1] == e_ref[0]
        compared += 1
    # of the 48 points with 0 < u < v, 16 keep the old start: the cap S^2 binds
    # (N <= 10 at u/v = 0.99) or the ceiling hides the difference (N <= 3)
    assert compared == 32


def test_lowest_levels_sums_arpack_operator_applications(monkeypatch):
    sector_results = []
    solve_lowest = diagnostics.solve_lowest

    def spy(*args, **kwargs):
        sector_results.append(solve_lowest(*args, **kwargs))
        return sector_results[-1]

    monkeypatch.setattr(diagnostics, "solve_lowest", spy)
    # N = 16, M = 100: (s, r) blocks of 51 * 9 - 4 = 455, 51 * 9 - 5 = 454
    # and 51 * 8 - 4 = 404 rows, all past DENSE_SOLVE_MAX_DIM
    p = ModelParams(N=16, omega=1.0, g=float(np.sqrt(0.5)), v=1.0)
    res = lowest_levels(p, 100, 3)
    assert [r.solver for r in sector_results] == ["shift-invert"] * 4
    assert all(r.iterations > 0 for r in sector_results)
    assert res.iterations == sum(r.iterations for r in sector_results)


# odd and even N; g = 0 (the floor's spin level is attained), u < v, u = v,
# u > v, and v = 0; three cavity frequencies
FLOOR_POINTS = [
    ModelParams(N=N, omega=omega, g=float(np.sqrt(ratio * omega)), v=v)
    for N in (1, 2, 3, 4, 5, 8, 9, 12)
    for omega in (0.5, 1.0, 4.0)
    for ratio, v in ((0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (3.0, 1.0), (0.5, 0.0))
]


def test_shift_floor_lies_below_every_block():
    # H = omega b^dag b - u Sz^2 - v Sx^2 with b = a + (g / omega) Sz, so no
    # truncated block lies below the spin model's ground level eps0
    for p in FLOOR_POINTS:
        eps0 = float(spin_model_spectrum(p, 1)[0])
        floor = diagnostics._shift_floor(p)
        assert floor == eps0 - 1e-3 * max(1.0, abs(eps0))
        lowest = math.inf
        for M in (0, 1, 2, 7, 24):
            for label, _, ab in diagnostics._blocks(p, M):
                if not ab.shape[1]:
                    continue
                E0 = scipy.linalg.eigvals_banded(ab, lower=True, select="i", select_range=(0, 0))[0]
                assert floor < E0, (p, M, label)
                assert eps0 <= E0 + 1e-12 * max(1.0, abs(eps0)), (p, M, label, E0 - eps0)
                lowest = min(lowest, E0)
        if p.g == 0:  # attained by the n = 0 piece that holds the spin ground state
            assert abs(lowest - eps0) <= 1e-12 * max(1.0, abs(eps0)), p


def test_first_solve_of_a_point_shifts_at_the_spin_model_floor(monkeypatch):
    # N = 24, u/v = 0.9 starts its search at M = 79, where all four (s, r)
    # blocks exceed DENSE_SOLVE_MAX_DIM; with no hint they shift at the
    # floor
    p = ModelParams(N=24, omega=1.0, g=float(np.sqrt(0.9)), v=1.0)
    floor = diagnostics._shift_floor(p)
    solves, factored = [], []
    solve, dpbtrf = diagnostics.solve_lowest, solvers.lapack.dpbtrf

    def solve_spy(ab, *args, **kwargs):
        solves.append((ab, kwargs["guess"], kwargs["floor"]))
        return solve(ab, *args, **kwargs)

    def dpbtrf_spy(ab, *args, **kwargs):
        factored.append(np.array(ab[0]))  # dpbtrf factors in place
        return dpbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "solve_lowest", solve_spy)
    monkeypatch.setattr(solvers.lapack, "dpbtrf", dpbtrf_spy)
    rep = converge_cutoff(p, 1e-10)
    first = [(ab, f) for ab, guess, f in solves if guess is None]
    assert len(first) == 4 and rep.history[0][0] == initial_cutoff(p) == 79
    for (ab, f), diagonal in zip(first, factored):
        assert ab.shape[1] > solvers.DENSE_SOLVE_MAX_DIM
        assert f == floor
        np.testing.assert_array_equal(diagonal, ab[0] - floor)
    assert all(f == floor for _, _, f in solves)  # every block of this point is past the crossover


def test_search_shift_hint_keeps_every_cutoff(monkeypatch):
    # each solve after the first cutoff takes the previous E0 as its shift
    # hint; the search must try and accept the same cutoffs as without it
    hints = []
    solve, solve_blocks = diagnostics.solve_lowest, diagnostics._solve_blocks

    def spy(*args, guess=None, **kwargs):
        hints.append(guess)
        return solve(*args, guess=guess, **kwargs)

    monkeypatch.setattr(diagnostics, "solve_lowest", spy)
    for N in range(6, 17):
        for r in (0.5, 0.9):
            p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(r)), v=1.0)
            hints.clear()
            rep = converge_cutoff(p, 1e-10)
            blocks = 1 if N % 2 else 4  # one sector at odd N, four (s, r) blocks at even N
            expected = [None] + [E0 for _, E0, _, _ in rep.history[:-1]]
            assert hints == [h for h in expected for _ in range(blocks)]
            with monkeypatch.context() as m:
                m.setattr(diagnostics, "_solve_blocks", lambda *a, guess=None, **kw: solve_blocks(*a, **kw))
                ref = converge_cutoff(p, 1e-10)
            assert rep.M_star == ref.M_star, (N, r)
            assert [h[0] for h in rep.history] == [h[0] for h in ref.history], (N, r)
            e, e_ref = rep.spectrum.eigenvalues, ref.spectrum.eigenvalues
            assert np.max(np.abs(e - e_ref)) <= 1e-12 * abs(e_ref[0]), (N, r)


# N = 1..24 at nine ratios u/v (g = 0 the first), plus the v = 0 line
CERTIFY_RATIOS = (0.0, 0.2, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0, 1.5)


@pytest.mark.parametrize("N", range(1, 25))
def test_certified_search_accepts_what_the_doubling_alone_accepts(N, monkeypatch):
    # the doubling alone is the search with no bound; the bound may only cut
    # it short, at the cutoff the comparison accepts, and must hold at 2M*
    points = [ModelParams(N=N, omega=1.0, g=float(np.sqrt(r)), v=1.0) for r in CERTIFY_RATIOS]
    points.append(ModelParams(N=N, omega=1.0, g=float(np.sqrt(0.5)), v=0.0))
    tried = tried_ref = 0
    for p in points:
        rep = converge_cutoff(p, 1e-10)
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "_temple_bound", lambda *args: math.inf)
            ref = converge_cutoff(p, 1e-10)
        assert rep.M_star == ref.M_star, p
        assert np.array_equal(rep.spectrum.eigenvalues, ref.spectrum.eigenvalues), p
        assert rep.spectrum.labels == ref.spectrum.labels, p
        assert rep.history == ref.history[: len(rep.history)], p
        tried, tried_ref = tried + len(rep.history), tried_ref + len(ref.history)
        if math.isnan(rep.bound):
            continue
        assert p.g != 0 and p.v != 0, p  # the split lines keep the doubling
        assert rep.history[-1][0] == rep.M_star and ref.history[-1][0] == 2 * rep.M_star, p
        moved = np.max(np.abs(np.array(ref.history[-1][1:]) - rep.spectrum.eigenvalues[:3]))
        assert moved <= rep.bound < 1e-10, (p, moved, rep.bound)
    assert tried < tried_ref


def _padded_residual_bound(p, M, k=3):
    """max_i ||r_i||^2 / gap_i + resolution_floor(E0) of lowest_levels at M, with r_i from the uncut H.

    Level i's vector x_i is that of dense eigh on its expanded (s, r) block
    (the j-th where it is the block's j-th level), in the flat basis and
    padded with the level n = M + 1, the only one the uncut H reaches from
    n <= M; r_i = (H - E_i) x_i there, and gap_i as in _temple_bound.
    Computed for every level, odd-N mirrors included: their sector s = 1
    is a block of its own.
    """
    res = lowest_levels(p, M, 6)
    e, labels = res.eigenvalues, res.labels
    X = np.zeros(((M + 2) * (p.N + 1), k))
    for i, label in enumerate(labels[:k]):
        j = labels[:i].count(label)
        x = np.linalg.eigh(dense_from_band(symmetry_block(p, M, *label)))[1][:, j : j + 1]
        X[: (M + 1) * (p.N + 1), i] = _embed_block(p, M, *label, slice(None), x)[:, 0]
    rho = np.linalg.norm(build_full_hamiltonian(p, M + 1) @ X - X * e[:k], axis=0)
    bound = 0.0
    for i in range(k):
        later = [j for j in range(i + 1, e.size) if labels[j] == labels[i]]
        gap = e[later[0] if later else -1] - e[i]
        if rho[i] >= gap:
            return math.inf
        bound = max(bound, rho[i] ** 2 / gap)
    return bound + diagnostics.resolution_floor(e[0])


@pytest.mark.parametrize("N", [2, 3, 6, 9, 12, 13])
def test_temple_bound_is_that_of_the_padded_vectors_residual(N):
    # at half the start cutoff the photon tail is far above the float64 floor
    for r in (0.2, 0.5, 0.9, 1.5):
        p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(r)), v=1.0)
        M = initial_cutoff(p) // 2
        got = diagnostics._temple_bound(p, M, *diagnostics._solve_blocks(p, M, 6), 3)
        want = _padded_residual_bound(p, M)
        if math.isinf(want):
            assert math.isinf(got), (p, got)
        else:
            assert want > 1e3 * diagnostics.resolution_floor(-p.u * p.S**2), p
            assert got == pytest.approx(want, rel=1e-6), p


@pytest.mark.parametrize("M", [64, 68, 72])
def test_temple_bound_is_that_of_the_padded_vectors_residual_on_shift_invert_blocks(M):
    # N = 13, u/v = 0.9: the sector has 455 to 511 rows, past DENSE_SOLVE_MAX_DIM
    p = ModelParams(N=13, omega=1.0, g=float(np.sqrt(0.9)), v=1.0)
    res, blocks = diagnostics._solve_blocks(p, M, 6)
    assert res.solver == "shift-invert"
    got = diagnostics._temple_bound(p, M, res, blocks, 3)
    want = _padded_residual_bound(p, M)
    assert 1e-5 < want < 1e-1, want
    assert got == pytest.approx(want, rel=1e-6)


def test_each_cutoff_builds_each_block_once(monkeypatch):
    # the Temple bound takes its vectors from the blocks the solve built
    built = []

    def spy(p, M, s, r):
        built.append((p, M, s, r))
        return symmetry_block(p, M, s, r)

    monkeypatch.setattr(diagnostics, "symmetry_block", spy)
    for N in (6, 7, 12, 13, 16):
        for ratio in (0.5, 0.9):
            p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(ratio)), v=1.0)
            built.clear()
            rep = converge_cutoff(p, 1e-10)
            blocks = 1 if N % 2 else 4
            assert len(built) == len(set(built)) == blocks * len(rep.history), (N, ratio)


def test_certified_cutoff_needs_no_room_for_twice_its_dimension():
    # N = 3, g = 0.3 is certified at M = 11 (48 rows); g = 1.0 is accepted
    # at M = 19 (80 rows) by comparison with M = 38 (156 rows)
    certified = converge_cutoff(ModelParams(N=3, omega=1.0, g=0.3, v=1.0), 1e-10, max_dim=60)
    assert certified.M_star == 11 and certified.bound < 1e-10
    with pytest.raises(ResourceError) as err:
        converge_cutoff(ModelParams(N=3, omega=1.0, g=1.0, v=1.0), 1e-10, max_dim=100)
    assert [h[0] for h in err.value.history] == [19]
