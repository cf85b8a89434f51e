import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from dickelab import (
    ModelParams,
    ResourceError,
    SparseOperator,
    ValidationError,
    build_full_hamiltonian,
    dense_spectrum,
    lanczos_lowest,
    lowest_levels,
    solve_lowest,
)
import dickelab.solvers as solvers
from dickelab.diagnostics import _shift_floor
from dickelab.model import symmetry_block
from oracles import dense_from_band, lower_band, random_sparse_symmetric


def test_dense_diagonal():
    res = dense_spectrum(np.diag([3.0, 1.0, 2.0]), 2)
    np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0], atol=1e-14)
    assert res.converged and res.solver == "dense"


def test_dense_hand_diagonalized_matrix():
    H = np.array([[-1.0, 0.0, -0.5], [0.0, -1.0, 0.0], [-0.5, 0.0, -1.0]])
    res = dense_spectrum(H, 3)
    np.testing.assert_allclose(res.eigenvalues, [-1.5, -1.0, -0.5], atol=1e-14)


def test_dense_zero_matrix():
    res = dense_spectrum(np.zeros((4, 4)), 4)
    np.testing.assert_array_equal(res.eigenvalues, np.zeros(4))


def test_dense_threshold_and_override():
    H = np.diag(np.arange(10.0))
    with pytest.raises(ResourceError):
        dense_spectrum(H, 2, dense_threshold=5)
    res = dense_spectrum(H, 2, dense_threshold=10)
    np.testing.assert_allclose(res.eigenvalues, [0.0, 1.0], atol=1e-14)


def test_dense_invalid_k():
    with pytest.raises(ValidationError):
        dense_spectrum(np.eye(3), 4)
    with pytest.raises(ValidationError):
        dense_spectrum(np.eye(3), 0)


def test_lanczos_diagonal_100():
    H = np.diag(np.arange(100.0))
    res = lanczos_lowest(H, 3, seed=1)
    np.testing.assert_allclose(res.eigenvalues, [0.0, 1.0, 2.0], atol=1e-9)
    assert res.converged


def test_lanczos_matches_dense_on_model():
    p = ModelParams(N=3, omega=1.0, g=0.3, v=1.0)
    H = build_full_hamiltonian(p, 40)
    lan = lanczos_lowest(H, 4, seed=7)
    ref = dense_spectrum(H, 4)
    scale = np.max(np.abs(ref.eigenvalues))
    assert np.max(np.abs(lan.eigenvalues - ref.eigenvalues)) <= 1e-9 * scale


def test_lanczos_blockdiag_degenerate_pair():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.zeros((4, 4))
    B[:2, :2] = A
    B[2:, 2:] = A
    res = lanczos_lowest(B, 2, seed=5)
    np.testing.assert_allclose(res.eigenvalues, [-1.0, -1.0], atol=1e-10)


@pytest.mark.parametrize("half_dim", [10, 30, 75])
def test_lanczos_blockdiag_full_multiplicity(half_dim):
    rng = np.random.default_rng(42 + half_dim)
    A = rng.standard_normal((half_dim, half_dim))
    A = (A + A.T) / 2
    B = np.zeros((2 * half_dim, 2 * half_dim))
    B[:half_dim, :half_dim] = A
    B[half_dim:, half_dim:] = A
    res = lanczos_lowest(B, 6, seed=0)
    e = res.eigenvalues
    scale = np.max(np.abs(e))
    for i in (0, 2, 4):  # every level appears twice
        assert abs(e[i + 1] - e[i]) <= 1e-9 * scale


def test_lanczos_saturates_small_space():
    # k = dim forces the Krylov basis to fill the whole space; the last
    # block is ragged (10 = 4 + 4 + 2) and the projection becomes exact
    rng = np.random.default_rng(5)
    A = rng.standard_normal((10, 10))
    A = (A + A.T) / 2
    res = lanczos_lowest(A, 10, seed=1)
    ref = np.linalg.eigvalsh(A)
    assert res.converged
    np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-10 * np.max(np.abs(ref)))


def test_lanczos_k_exceeds_dim():
    with pytest.raises(ValidationError):
        lanczos_lowest(np.eye(3), 4)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        lanczos_lowest(np.eye(3), 2, seed=-1)


def test_lanczos_refills_a_closed_krylov_space():
    # H = diag(0, 0, 1 x 98) is a projector, so the Krylov space of a
    # 4-column start X is span{X, HX}, 6-dimensional: H X adds two new
    # directions, the other two columns of the next block are refilled at
    # random, and without them the 1-levels would never be found
    H = np.diag([0.0, 0.0] + [1.0] * 98)
    res = lanczos_lowest(H, 6, seed=0)
    assert res.converged
    np.testing.assert_allclose(res.eigenvalues, [0, 0, 1, 1, 1, 1], atol=1e-10)


def test_lanczos_random_oracle_agreement():
    for trial in range(12):
        rng = np.random.default_rng(100 + trial)
        dim = int(rng.integers(40, 401))
        H = SparseOperator(dim, *random_sparse_symmetric(rng, dim))
        lan = lanczos_lowest(H, 6, seed=trial)
        ref = dense_spectrum(H, 6)
        scale = max(np.max(np.abs(ref.eigenvalues)), 1e-12)
        assert lan.converged
        assert np.max(np.abs(lan.eigenvalues - ref.eigenvalues)) <= 1e-9 * scale


def test_lanczos_identical_seed_identical_bits():
    p = ModelParams(N=2, omega=1.0, g=0.5, v=0.3)
    H = build_full_hamiltonian(p, 30)
    r1 = lanczos_lowest(H, 5, seed=11)
    r2 = lanczos_lowest(H, 5, seed=11)
    np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)
    np.testing.assert_array_equal(r1.eigenvectors, r2.eigenvectors)
    assert r1.iterations == r2.iterations


def test_lanczos_vector_quality():
    p = ModelParams(N=3, omega=1.0, g=0.4, v=0.8)
    H = build_full_hamiltonian(p, 25)
    res = lanczos_lowest(H, 6, seed=3)
    V = res.eigenvectors
    np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-10)
    resid = np.linalg.norm(H @ V - V * res.eigenvalues, axis=0)
    assert np.all(resid <= 1e-10 * scipy.sparse.linalg.norm(H))
    np.testing.assert_array_equal(resid, res.residual_norms)


def test_lanczos_nonconvergence_reports_best_effort():
    rng = np.random.default_rng(9)
    dim = 300
    H = SparseOperator(dim, *random_sparse_symmetric(rng, dim))
    res = lanczos_lowest(H, 6, seed=0, max_iterations=1)
    assert not res.converged
    assert res.residual_norms.size == 6
    assert np.all(np.isfinite(res.eigenvalues))


def _spy(monkeypatch, name):
    """Calls of the solver module's loaded LAPACK routine ``name``: (band diagonal on entry, info)."""
    calls = []
    routine = getattr(solvers.lapack, name)

    def spy(ab, *args, **kwargs):
        diagonal = np.array(ab[0])  # dpbtrf factors in place
        out = routine(ab, *args, **kwargs)
        calls.append((diagonal, out[-1]))
        return out

    monkeypatch.setattr(solvers.lapack, name, spy)
    return calls


def _factored_shifts(ab, calls):
    """The shift sigma of each successful dpbtrf call on H - sigma I, H the band array ab."""
    return [ab[0, 0] - diagonal[0] for diagonal, info in calls if info == 0]


def _floor_below(H) -> float:
    """A shift floor for a generic matrix: its dense reference's E0 less 1e-2 max(1, |E0|)."""
    e0 = float(np.linalg.eigvalsh(H)[0])
    return e0 - 1e-2 * max(1.0, abs(e0))


def test_solve_lowest_dispatch(monkeypatch):
    p = ModelParams(N=2, omega=1.0, g=0.2, v=0.5)
    H = build_full_hamiltonian(p, 10)
    assert solve_lowest(lower_band(H), 3).solver == "dense"
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    res = solve_lowest(lower_band(H), 3, seed=2, floor=_shift_floor(p))
    assert res.solver == "shift-invert"
    ref = dense_spectrum(H, 3)
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues, atol=1e-9)


def test_solve_lowest_checks_k_and_seed_on_both_paths():
    p = ModelParams(N=16, omega=1.0, g=0.7, v=1.0)
    floor = _shift_floor(p)
    for M, solver in ((20, "dense"), (50, "shift-invert")):  # 189 and 459 rows
        ab = symmetry_block(p, M, 0, 0)
        assert solve_lowest(ab, 6, floor=floor).solver == solver
        bad = [(6, -1, "seed must be >= 0"), (0, 0, "k must be in"), (ab.shape[1] + 1, 0, "k must be in")]
        for k, seed, message in bad:
            with pytest.raises(ValidationError, match=message):
                solve_lowest(ab, k, seed=seed, floor=floor)


def test_shift_invert_nonconvergence_reports_best_effort(monkeypatch):
    # the Lanczos steps run out: the best Ritz pairs come back, flagged
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    H = build_full_hamiltonian(p, 200)
    ref = dense_spectrum(H, 6).eigenvalues
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 100)
    floor = _shift_floor(p)
    cap = solvers.LANCZOS_MAX_STEPS
    for steps, size in ((1, 1), (8, 6)):
        monkeypatch.setattr(solvers, "LANCZOS_MAX_STEPS", steps)
        res = solve_lowest(lower_band(H), 6, seed=0, floor=floor)
        assert res.solver == "shift-invert"
        assert not res.converged
        assert res.iterations == steps
        assert res.eigenvalues.size == size
        assert np.all(np.diff(res.eigenvalues) >= 0)
        assert np.all(res.eigenvalues >= ref[:size] - 1e-12 * abs(ref[0]))  # Ritz values: upper bounds
    monkeypatch.setattr(solvers, "LANCZOS_MAX_STEPS", cap)
    res = solve_lowest(lower_band(H), 6, seed=0, floor=floor)
    assert res.converged and res.iterations > 8


def test_solve_lowest_near_full_k_goes_dense(monkeypatch):
    # Lanczos would need nearly the whole space
    H = lower_band(np.diag(np.arange(12.0)))
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 5)
    res = solve_lowest(H, 11)
    assert res.solver == "dense"
    np.testing.assert_allclose(res.eigenvalues, np.arange(11.0), atol=1e-14)


def _diag_with_decoupled_zero(dim: int, seed: int) -> np.ndarray:
    # diag(-1, 0, 1, ...) plus a weak random symmetric coupling that spares
    # the zero level, which stays an exactly decoupled basis state
    rng = np.random.default_rng(seed)
    C = 1e-2 * rng.standard_normal((dim, dim))
    C = (C + C.T) / 2
    np.fill_diagonal(C, 0.0)
    C[1, :] = C[:, 1] = 0.0
    return np.diag(np.arange(dim) - 1.0) + C


def test_shift_invert_returns_every_level_of_an_unsplit_operator(monkeypatch):
    A = _diag_with_decoupled_zero(80, seed=4)
    ref = np.linalg.eigvalsh(A)[:6]
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    res = solve_lowest(lower_band(A), 6, seed=1, floor=_floor_below(A))
    assert res.solver == "shift-invert" and res.converged
    assert abs(ref[1]) <= 1e-12  # the decoupled zero level is among those compared
    assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12


def test_shift_invert_sigma_lies_below_the_spectrum(monkeypatch):
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    unsplit = _diag_with_decoupled_zero(80, seed=4)
    # the model's floor is proved for the whole truncated H; the generic one is set from its E0
    for H, floor in ((build_full_hamiltonian(p, 60), _shift_floor(p)), (unsplit, _floor_below(unsplit))):
        calls = _spy(monkeypatch, "dpbtrf")
        ab = lower_band(H)
        solve_lowest(ab, 4, floor=floor)
        (sigma,) = _factored_shifts(ab, calls)
        assert sigma == floor < dense_spectrum(H, 1).eigenvalues[0]


def test_shift_invert_iterations_count_inverse_applications(monkeypatch):
    calls = _spy(monkeypatch, "dpbtrs")
    p = ModelParams(N=16, omega=1.0, g=0.7, v=1.0)
    H = symmetry_block(p, 50, 0, 0)  # 459 rows: past DENSE_SOLVE_MAX_DIM
    res = solve_lowest(H, 6, seed=1, floor=_shift_floor(p))
    assert res.solver == "shift-invert" and res.converged
    assert res.iterations == len(calls) > 0
    assert all(info == 0 for _, info in calls)
    ref = dense_spectrum(dense_from_band(H), 6).eigenvalues
    assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12 * abs(ref[0])


def test_shift_above_the_ground_level_fails_the_band_factorization(monkeypatch):
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    H = symmetry_block(p, 60, 0, 0)
    e0 = dense_spectrum(dense_from_band(H), 1).eigenvalues[0]
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    with pytest.raises(np.linalg.LinAlgError):  # a floor is trusted no further
        solve_lowest(H, 4, floor=e0 + 0.5)


def test_shift_invert_needs_a_floor(monkeypatch):
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    H = symmetry_block(p, 60, 0, 0)  # 183 rows
    ref = dense_spectrum(dense_from_band(H), 4).eigenvalues
    assert solve_lowest(H, 4).solver == "dense"  # the dense path needs none
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    with pytest.raises(ValidationError, match="needs a floor"):
        solve_lowest(H, 4, guess=ref[0])
    res = solve_lowest(H, 4, floor=_shift_floor(p))
    assert res.solver == "shift-invert"
    assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12 * abs(ref[0])


def _strong_block_and_hint():
    """N = 12, u/v = 0.9: the s = 0 block at M = 180 (1267 rows), E0 at M = 90 and the spin-model floor."""
    p = ModelParams(N=12, omega=1.0, g=float(np.sqrt(0.9)), v=1.0)
    return symmetry_block(p, 180, 0, 0), float(lowest_levels(p, 90, 3).eigenvalues[0]), _shift_floor(p)


def test_guess_from_the_smaller_cutoff_cuts_inverse_applications():
    ab, guess, floor = _strong_block_and_hint()
    ref = solve_lowest(ab, 6, seed=1, floor=floor)
    res = solve_lowest(ab, 6, seed=1, guess=guess, floor=floor)
    assert ref.solver == res.solver == "shift-invert" and res.converged
    assert res.iterations <= 40 < ref.iterations  # 32 against 52 (floor shift)
    assert guess >= res.eigenvalues[0]  # interlacing: E0 only falls as M grows
    assert np.max(np.abs(res.eigenvalues - ref.eigenvalues)) <= 1e-12 * abs(ref.eigenvalues[0])


def test_guess_above_the_ground_level_retries_below_it(monkeypatch):
    ab, _, floor = _strong_block_and_hint()
    ref = solve_lowest(ab, 6, seed=1, floor=floor)
    e0 = ref.eigenvalues[0]
    calls = _spy(monkeypatch, "dpbtrf")
    # delta = 1e-3 |guess| is about 0.037: guess - delta lies above E0, guess - 10 delta below
    res = solve_lowest(ab, 6, seed=1, guess=e0 + 0.1, floor=floor)
    assert calls[0][1] > 0 and calls[-1][1] == 0  # failed, then factored
    (sigma,) = _factored_shifts(ab, calls)
    assert floor < sigma < e0  # a widened guess, not the floor
    assert np.max(np.abs(res.eigenvalues - ref.eigenvalues)) <= 1e-12 * abs(e0)


def test_guess_below_the_floor_is_not_taken(monkeypatch):
    # a hint far below a block's spectrum (say, E0 of the whole point for a
    # higher v = 0 chain) would shift further off than the floor the caller passes
    ab, _, floor = _strong_block_and_hint()
    calls = _spy(monkeypatch, "dpbtrf")
    solve_lowest(ab, 6, seed=1, guess=floor - 10.0, floor=floor)
    assert _factored_shifts(ab, calls) == [floor]
    assert len(calls) == 1

BANDED_BLOCKS = [  # (N, u/v, M, s): 93 to 378 rows
    (4, 0.5, 30, 0), (7, 0.9, 40, 0), (10, 0.5, 40, 1), (12, 0.9, 53, 0), (16, 0.5, 41, 1),
]


def test_banded_lapack_matches_dense_spectrum_of_the_expanded_block():
    for N, r, M, s in BANDED_BLOCKS:
        p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(r)), v=1.0)
        ab = symmetry_block(p, M, s, 0)
        assert ab.shape[1] <= solvers.DENSE_SOLVE_MAX_DIM
        res = solve_lowest(ab, 6)
        H = dense_from_band(ab)
        ref = dense_spectrum(H, 6)
        e0 = abs(ref.eigenvalues[0])
        assert res.solver == "dense" and res.converged and res.iterations == 0
        assert res.eigenvectors is None and res.residual_norms is None
        assert np.max(np.abs(res.eigenvalues - ref.eigenvalues)) <= 1e-12 * e0, (N, r, M, s)


def test_dense_path_is_eig_banded_bit_for_bit():
    # one dsbevx call with the arguments scipy.linalg.eig_banded passes it
    for N, r, M, s in BANDED_BLOCKS:
        p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(r)), v=1.0)
        ab = symmetry_block(p, M, s, 0)
        res = solve_lowest(ab, 6)
        ref = scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True, select="i", select_range=(0, 5))
        np.testing.assert_array_equal(res.eigenvalues, ref)


def test_level_vector_is_the_eigenvector_of_the_expanded_block():
    # inverse iteration against dense eigh, up to sign, on blocks of the dense and
    # the shift-invert path: an (s, r) block at even N, a sector at odd N
    for N, M, r, solver in ((16, 20, 1, "dense"), (16, 100, 1, "shift-invert"), (13, 64, 0, "shift-invert")):
        p = ModelParams(N=N, omega=1.0, g=0.7, v=1.0)
        ab = symmetry_block(p, M, 0, r)
        res = solve_lowest(ab, 6, seed=1, floor=_shift_floor(p))
        assert res.solver == solver
        ref = np.linalg.eigh(dense_from_band(ab))[1][:, :6]
        for x, y in zip((solvers.level_vector(ab, E) for E in res.eigenvalues), ref.T):
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
            assert np.max(np.abs(x * np.sign(x @ y) - y)) <= 1e-10, (N, M)


@pytest.mark.parametrize("vectors", [True, False])
def test_banded_lapack_serves_requests_that_arpack_cannot(vectors, monkeypatch):
    p = ModelParams(N=5, omega=1.0, g=0.8, v=1.0)
    ab = symmetry_block(p, 3, 0, 0)  # 4 boson states x 3 spin states
    H = dense_from_band(ab)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 5)
    for k in (11, 12):  # k >= dim - 1
        res = solve_lowest(ab, k)
        ref = dense_spectrum(H, k).eigenvalues
        assert res.solver == "dense"
        assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12 * abs(ref[0])
        if vectors:  # level_vector's, of every level, the top ones included
            V = np.column_stack([solvers.level_vector(ab, E) for E in res.eigenvalues])
            assert np.all(np.linalg.norm(H @ V - V * res.eigenvalues, axis=0) <= 1e-10 * abs(ref[0]))
    with pytest.raises(ValidationError):
        solve_lowest(ab, 13)
