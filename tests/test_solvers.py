import numpy as np
import pytest
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
    solve_lowest,
)
from oracles import random_sparse_symmetric


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
    H = SparseOperator.from_scipy(np.diag(np.arange(100.0)))
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
    res = lanczos_lowest(SparseOperator.from_scipy(B), SolverOptions(k=2, seed=5))
    np.testing.assert_allclose(res.eigenvalues, [-1.0, -1.0], atol=1e-10)


@pytest.mark.parametrize("half_dim", [10, 30, 75])
def test_lanczos_blockdiag_full_multiplicity(half_dim):
    rng = np.random.default_rng(42 + half_dim)
    A = rng.standard_normal((half_dim, half_dim))
    A = (A + A.T) / 2
    B = np.zeros((2 * half_dim, 2 * half_dim))
    B[:half_dim, :half_dim] = A
    B[half_dim:, half_dim:] = A
    res = lanczos_lowest(SparseOperator.from_scipy(B), SolverOptions(k=6, seed=0))
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
    res = lanczos_lowest(SparseOperator.from_scipy(A), SolverOptions(k=10, seed=1))
    ref = np.linalg.eigvalsh(A)
    assert res.converged
    np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-10 * np.max(np.abs(ref)))


def test_lanczos_k_exceeds_dim():
    with pytest.raises(ValidationError):
        lanczos_lowest(SparseOperator.from_scipy(np.eye(3)), SolverOptions(k=4))


def test_block_size_floor():
    with pytest.raises(ValidationError):
        lanczos_lowest(
            SparseOperator.from_scipy(np.eye(8)), SolverOptions(k=2, block_size=1)
        )


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
    resid = np.linalg.norm(H.matmat(V) - V * res.eigenvalues, axis=0)
    assert np.all(resid <= 1e-10 * H.frobenius_norm())
    np.testing.assert_array_equal(resid, res.residual_norms)


def test_lanczos_nonconvergence_reports_best_effort():
    rng = np.random.default_rng(9)
    dim = 300
    H = SparseOperator(dim, *random_sparse_symmetric(rng, dim))
    res = lanczos_lowest(H, SolverOptions(k=6, seed=0, max_iterations=1))
    assert not res.converged
    assert res.residual_norms.size == 6
    assert np.all(np.isfinite(res.eigenvalues))


def test_solve_lowest_dispatch():
    p = ModelParams(N=2, omega=1.0, g=0.2, v=0.5)
    H = build_full_hamiltonian(p, 10)
    assert solve_lowest(H, SolverOptions(k=3)).solver == "dense"
    res = solve_lowest(H, SolverOptions(k=3, dense_threshold=10, seed=2))
    assert res.solver == "eigsh"
    ref = dense_spectrum(H, 3)
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues, atol=1e-9)


def test_eigsh_nonconvergence_reports_best_effort():
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    H = build_full_hamiltonian(p, 200)
    opts = SolverOptions(k=6, seed=0, max_iterations=1, dense_threshold=100)
    res = solve_lowest(H, opts)
    assert res.solver == "eigsh"
    assert not res.converged
    assert res.eigenvalues.size == res.residual_norms.size <= 6


def test_solve_lowest_near_full_k_goes_dense():
    # ARPACK needs k < dim - 1
    H = SparseOperator.from_scipy(np.diag(np.arange(12.0)))
    res = solve_lowest(H, SolverOptions(k=11, dense_threshold=5))
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


def test_shift_invert_returns_every_level_of_an_unsplit_operator():
    A = _diag_with_decoupled_zero(80, seed=4)
    ref = np.linalg.eigvalsh(A)[:6]
    opts = SolverOptions(k=6, dense_threshold=10, seed=1)
    res = solve_lowest(SparseOperator.from_scipy(A), opts)
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
    p = ModelParams(N=4, omega=1.0, g=0.7, v=1.0)
    unsplit = SparseOperator.from_scipy(_diag_with_decoupled_zero(80, seed=4))
    for H in (build_full_hamiltonian(p, 60), unsplit):
        solve_lowest(H, SolverOptions(k=4, dense_threshold=10))
        assert shifts[-1] < dense_spectrum(H, 1).eigenvalues[0]
    assert len(shifts) == 2
