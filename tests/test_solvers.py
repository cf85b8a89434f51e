import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from dickelab import (
    ModelParams,
    ResourceError,
    SolverOptions,
    SparseOperator,
    ValidationError,
    build_full_hamiltonian,
    dense_spectrum,
    lanczos_lowest,
    lowest_levels,
    solve_lowest,
)
import dickelab.solvers as solvers
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
    res = dense_spectrum(H, 2, dense_threshold=5, override=True)
    np.testing.assert_allclose(res.eigenvalues, [0.0, 1.0], atol=1e-14)


def test_dense_invalid_k():
    with pytest.raises(ValidationError):
        dense_spectrum(np.eye(3), 4)
    with pytest.raises(ValidationError):
        dense_spectrum(np.eye(3), 0)


def test_lanczos_diagonal_100():
    H = np.diag(np.arange(100.0))
    res = lanczos_lowest(H, SolverOptions(k=3, seed=1))
    np.testing.assert_allclose(res.eigenvalues, [0.0, 1.0, 2.0], atol=1e-9)
    assert res.converged


def test_lanczos_matches_dense_on_model():
    p = ModelParams(N=3, omega=1.0, g=0.3, v=1.0)
    H = build_full_hamiltonian(p, 40)
    lan = lanczos_lowest(H, SolverOptions(k=4, seed=7))
    ref = dense_spectrum(H, 4)
    scale = np.max(np.abs(ref.eigenvalues))
    assert np.max(np.abs(lan.eigenvalues - ref.eigenvalues)) <= 1e-9 * scale


def test_lanczos_blockdiag_degenerate_pair():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.zeros((4, 4))
    B[:2, :2] = A
    B[2:, 2:] = A
    res = lanczos_lowest(B, SolverOptions(k=2, seed=5))
    np.testing.assert_allclose(res.eigenvalues, [-1.0, -1.0], atol=1e-10)


@pytest.mark.parametrize("half_dim", [10, 30, 75])
def test_lanczos_blockdiag_full_multiplicity(half_dim):
    rng = np.random.default_rng(42 + half_dim)
    A = rng.standard_normal((half_dim, half_dim))
    A = (A + A.T) / 2
    B = np.zeros((2 * half_dim, 2 * half_dim))
    B[:half_dim, :half_dim] = A
    B[half_dim:, half_dim:] = A
    res = lanczos_lowest(B, SolverOptions(k=6, seed=0))
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
    res = lanczos_lowest(A, SolverOptions(k=10, seed=1))
    ref = np.linalg.eigvalsh(A)
    assert res.converged
    np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-10 * np.max(np.abs(ref)))


def test_lanczos_k_exceeds_dim():
    with pytest.raises(ValidationError):
        lanczos_lowest(np.eye(3), SolverOptions(k=4))


def test_block_size_floor():
    with pytest.raises(ValidationError):
        lanczos_lowest(np.eye(8), SolverOptions(k=2), block_size=1)


def test_lanczos_random_oracle_agreement():
    for trial in range(12):
        rng = np.random.default_rng(100 + trial)
        dim = int(rng.integers(40, 401))
        H = SparseOperator(dim, *random_sparse_symmetric(rng, dim))
        lan = lanczos_lowest(H, SolverOptions(k=6, seed=trial))
        ref = dense_spectrum(H, 6)
        scale = max(np.max(np.abs(ref.eigenvalues)), 1e-12)
        assert lan.converged
        assert np.max(np.abs(lan.eigenvalues - ref.eigenvalues)) <= 1e-9 * scale


def test_lanczos_identical_seed_identical_bits():
    p = ModelParams(N=2, omega=1.0, g=0.5, v=0.3)
    H = build_full_hamiltonian(p, 30)
    r1 = lanczos_lowest(H, SolverOptions(k=5, seed=11))
    r2 = lanczos_lowest(H, SolverOptions(k=5, seed=11))
    np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)
    np.testing.assert_array_equal(r1.eigenvectors, r2.eigenvectors)
    assert r1.iterations == r2.iterations


def test_lanczos_vector_quality():
    p = ModelParams(N=3, omega=1.0, g=0.4, v=0.8)
    H = build_full_hamiltonian(p, 25)
    res = lanczos_lowest(H, SolverOptions(k=6, seed=3))
    V = res.eigenvectors
    np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-10)
    resid = np.linalg.norm(H @ V - V * res.eigenvalues, axis=0)
    assert np.all(resid <= 1e-10 * scipy.sparse.linalg.norm(H))
    np.testing.assert_array_equal(resid, res.residual_norms)


def test_lanczos_nonconvergence_reports_best_effort():
    rng = np.random.default_rng(9)
    dim = 300
    H = SparseOperator(dim, *random_sparse_symmetric(rng, dim))
    res = lanczos_lowest(H, SolverOptions(k=6, seed=0, max_iterations=1))
    assert not res.converged
    assert res.residual_norms.size == 6
    assert np.all(np.isfinite(res.eigenvalues))


def test_solve_lowest_dispatch(monkeypatch):
    p = ModelParams(N=2, omega=1.0, g=0.2, v=0.5)
    H = build_full_hamiltonian(p, 10)
    assert solve_lowest(lower_band(H), SolverOptions(k=3)).solver == "dense"
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    res = solve_lowest(lower_band(H), SolverOptions(k=3, seed=2))
    assert res.solver == "eigsh"
    ref = dense_spectrum(H, 3)
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues, atol=1e-9)


def test_eigsh_nonconvergence_reports_best_effort(monkeypatch):
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    H = build_full_hamiltonian(p, 200)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 100)
    res = solve_lowest(lower_band(H), SolverOptions(k=6, seed=0, max_iterations=1))
    assert res.solver == "eigsh"
    assert not res.converged
    assert res.eigenvalues.size == res.residual_norms.size <= 6


def test_solve_lowest_near_full_k_goes_dense(monkeypatch):
    # ARPACK needs k < dim - 1
    H = lower_band(np.diag(np.arange(12.0)))
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 5)
    res = solve_lowest(H, SolverOptions(k=11))
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
    res = solve_lowest(lower_band(A), SolverOptions(k=6, seed=1))
    assert res.solver == "eigsh" and res.converged
    assert abs(ref[1]) <= 1e-12  # the decoupled zero level is among those compared
    assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12


def test_shift_invert_sigma_lies_below_the_spectrum(monkeypatch):
    shifts = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(A, *args, **kwargs):
        shifts.append(kwargs["sigma"])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    unsplit = _diag_with_decoupled_zero(80, seed=4)
    for H in (build_full_hamiltonian(p, 60), unsplit):
        solve_lowest(lower_band(H), SolverOptions(k=4))
        assert shifts[-1] < dense_spectrum(H, 1).eigenvalues[0]
    assert len(shifts) == 2


def test_eigsh_iterations_count_inverse_applications(monkeypatch):
    calls = []
    cho_solve_banded = scipy.linalg.cho_solve_banded

    def spy(*args, **kwargs):
        calls.append(1)
        return cho_solve_banded(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", spy)
    p = ModelParams(N=16, omega=1.0, g=0.7, v=1.0)
    H = symmetry_block(p, 50, 0, 0)  # 459 rows: past DENSE_SOLVE_MAX_DIM
    res = solve_lowest(H, SolverOptions(k=6, seed=1))
    assert res.solver == "eigsh" and res.converged
    assert res.iterations == len(calls) > 0
    ref = dense_spectrum(dense_from_band(H), 6, override=True).eigenvalues
    assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12 * abs(ref[0])


def test_shift_above_the_ground_level_fails_the_band_factorization(monkeypatch):
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    H = symmetry_block(p, 60, 0, 0)
    e0 = dense_spectrum(dense_from_band(H), 1).eigenvalues[0]
    monkeypatch.setattr(solvers, "_gershgorin_shift", lambda ab: e0 + 0.5)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 10)
    with pytest.raises(np.linalg.LinAlgError):
        solve_lowest(H, SolverOptions(k=4))


def _strong_block_and_hint():
    """N = 12, u/v = 0.9: the s = 0 block at M = 180 (1267 rows) and E0 at M = 90."""
    p = ModelParams(N=12, omega=1.0, g=float(np.sqrt(0.9)), v=1.0)
    return symmetry_block(p, 180, 0, 0), float(lowest_levels(p, 90, 3).eigenvalues[0])


def test_guess_from_the_smaller_cutoff_cuts_inverse_applications():
    ab, guess = _strong_block_and_hint()
    opts = SolverOptions(k=6, seed=1)
    ref = solve_lowest(ab, opts)
    res = solve_lowest(ab, opts, guess=guess)
    assert ref.solver == res.solver == "eigsh" and res.converged
    assert res.iterations <= 50 < ref.iterations  # 42 against 99 (Gershgorin shift)
    assert guess >= res.eigenvalues[0]  # interlacing: E0 only falls as M grows
    assert np.max(np.abs(res.eigenvalues - ref.eigenvalues)) <= 1e-12 * abs(ref.eigenvalues[0])


def test_guess_above_the_ground_level_retries_below_it(monkeypatch):
    ab, _ = _strong_block_and_hint()
    ref = solve_lowest(ab, SolverOptions(k=6, seed=1))
    e0 = ref.eigenvalues[0]
    outcomes, shifts = [], []
    cholesky_banded, eigsh = scipy.linalg.cholesky_banded, scipy.sparse.linalg.eigsh

    def factor_spy(*args, **kwargs):
        try:
            out = cholesky_banded(*args, **kwargs)
        except np.linalg.LinAlgError:
            outcomes.append("failed")
            raise
        outcomes.append("factored")
        return out

    def eigsh_spy(A, *args, **kwargs):
        shifts.append(kwargs["sigma"])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", factor_spy)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh_spy)
    res = solve_lowest(ab, SolverOptions(k=6, seed=1), guess=e0 + 1.0)
    assert outcomes[0] == "failed" and outcomes[-1] == "factored"
    assert solvers._gershgorin_shift(ab) < shifts[0] < e0  # a widened guess, not the fallback
    assert np.max(np.abs(res.eigenvalues - ref.eigenvalues)) <= 1e-12 * abs(e0)



def test_guess_below_the_gershgorin_shift_is_not_taken(monkeypatch):
    # a hint far below a block's spectrum (say, E0 of the whole point for a
    # higher v = 0 chain) would shift further off than the Gershgorin bound
    ab, _ = _strong_block_and_hint()
    floor = solvers._gershgorin_shift(ab)
    shifts = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(A, *args, **kwargs):
        shifts.append(kwargs["sigma"])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    solve_lowest(ab, SolverOptions(k=6, seed=1), guess=floor - 10.0)
    assert shifts == [floor]

BANDED_BLOCKS = [  # (N, u/v, M, s): 93 to 378 rows
    (4, 0.5, 30, 0), (7, 0.9, 40, 0), (10, 0.5, 40, 1), (12, 0.9, 53, 0), (16, 0.5, 41, 1),
]


@pytest.mark.parametrize("want_vectors", [True, False])
def test_banded_lapack_matches_dense_spectrum_of_the_expanded_block(want_vectors):
    for N, r, M, s in BANDED_BLOCKS:
        p = ModelParams(N=N, omega=1.0, g=float(np.sqrt(r)), v=1.0)
        ab = symmetry_block(p, M, s, 0)
        assert ab.shape[1] <= solvers.DENSE_SOLVE_MAX_DIM
        res = solve_lowest(ab, SolverOptions(k=6), want_vectors=want_vectors)
        H = dense_from_band(ab)
        ref = dense_spectrum(H, 6)
        e0 = abs(ref.eigenvalues[0])
        assert res.solver == "dense" and res.converged and res.iterations == 0
        assert np.max(np.abs(res.eigenvalues - ref.eigenvalues)) <= 1e-12 * e0, (N, r, M, s)
        if want_vectors:
            V = res.eigenvectors
            np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-12)
            resid = np.linalg.norm(H @ V - V * res.eigenvalues, axis=0)
            np.testing.assert_allclose(res.residual_norms, resid, rtol=0, atol=1e-12 * e0)
            assert np.all(res.residual_norms <= 1e-10 * e0)
        else:
            assert res.eigenvectors is None
            np.testing.assert_array_equal(res.residual_norms, np.zeros(6))


@pytest.mark.parametrize("want_vectors", [True, False])
def test_banded_lapack_serves_requests_that_arpack_cannot(want_vectors, monkeypatch):
    p = ModelParams(N=5, omega=1.0, g=0.8, v=1.0)
    ab = symmetry_block(p, 3, 0, 0)  # 4 boson states x 3 spin states
    H = dense_from_band(ab)
    monkeypatch.setattr(solvers, "DENSE_SOLVE_MAX_DIM", 5)
    for k in (11, 12):  # k >= dim - 1
        res = solve_lowest(ab, SolverOptions(k=k), want_vectors=want_vectors)
        ref = dense_spectrum(H, k).eigenvalues
        assert res.solver == "dense"
        assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12 * abs(ref[0])
        if want_vectors:
            assert np.all(res.residual_norms <= 1e-10 * abs(ref[0]))
    with pytest.raises(ValidationError):
        solve_lowest(ab, SolverOptions(k=13))
