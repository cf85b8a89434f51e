import numpy as np
import pytest
import scipy.sparse

from dickelab import (
    ModelParams,
    ResourceError,
    SparseOperator,
    ValidationError,
    build_full_hamiltonian,
    collective_spin_matrices,
    polaron_spin_hamiltonian,
    symmetry_operator,
)
from dickelab.model import spin_blocks, symmetry_block, symmetry_block_basis
from oracles import dense_from_band, dense_hamiltonian


def test_spin_half_is_pauli_over_two():
    ops = collective_spin_matrices(0.5)
    np.testing.assert_array_equal(ops.sx, [[0.0, 0.5], [0.5, 0.0]])
    np.testing.assert_array_equal(ops.sz, np.diag([-0.5, 0.5]))


def test_spin_one_matches_ladder_formula():
    ops = collective_spin_matrices(1.0)
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(ops.sx, [[0, r, 0], [r, 0, r], [0, r, 0]], atol=1e-15)
    np.testing.assert_array_equal(ops.sz, np.diag([-1.0, 0.0, 1.0]))


def test_spin_three_halves_dimension_and_diagonal():
    ops = collective_spin_matrices(1.5)
    assert ops.sx.shape == (4, 4)
    np.testing.assert_array_equal(ops.sz, np.diag([-1.5, -0.5, 0.5, 1.5]))


@pytest.mark.parametrize("bad", [0, -1, 0.3, 1.26])
def test_invalid_spin_rejected(bad):
    with pytest.raises(ValidationError):
        collective_spin_matrices(bad)


@pytest.mark.parametrize("S", [0.5, 1.0, 1.5, 2.0, 3.5, 5.0])
def test_angular_momentum_algebra(S):
    ops = collective_spin_matrices(S)
    np.testing.assert_allclose(ops.sp @ ops.sm - ops.sm @ ops.sp, 2 * ops.sz, atol=1e-12)
    # Sy = i K stored real: [Sx, i K] = i Sz  <=>  Sx K - K Sx = Sz
    np.testing.assert_allclose(
        ops.sx @ ops.sy_imag - ops.sy_imag @ ops.sx, ops.sz, atol=1e-12
    )
    np.testing.assert_allclose(np.diag(ops.sz), -S + np.arange(int(2 * S) + 1))


def test_model_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(N=0, omega=1.0, g=0.1, v=1.0)
    with pytest.raises(ValidationError):
        ModelParams(N=2, omega=0.0, g=0.1, v=1.0)
    with pytest.raises(ValidationError):
        ModelParams(N=2, omega=1.0, g=0.1, v=-0.5)
    p = ModelParams(N=3, omega=2.0, g=-0.4, v=1.0)  # g may be negative
    assert p.S == 1.5
    assert p.u == pytest.approx(0.08, rel=1e-12)


def test_free_boson_idle_spin_diagonal():
    p = ModelParams(N=1, omega=1.0, g=0.0, v=0.0)
    H = build_full_hamiltonian(p, 2).toarray()
    np.testing.assert_array_equal(H, np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 2.0]))


def test_sparse_operator_sums_duplicates_into_a_csr_array():
    A = SparseOperator(3, [0, 2, 0, 1], [1, 2, 1, 1], [1.5, -2.0, 0.5, 4.0])
    assert isinstance(A, scipy.sparse.csr_array) and A.shape == (3, 3)
    np.testing.assert_array_equal(A.toarray(), [[0.0, 2.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, -2.0]])
    assert A.nnz == 3


@pytest.mark.parametrize(
    "dim, rows, cols",
    [(3, [0, -1], [0, 1]), (3, [0, 1], [0, -1]), (3, [0, 3], [0, 1]), (3, [0, 1], [3, 1]), (0, [], [])],
)
def test_sparse_operator_rejects_indices_outside_the_dimension(dim, rows, cols):
    with pytest.raises(ValidationError):
        SparseOperator(dim, rows, cols, np.ones(len(rows)))


def test_total_dimension():
    p = ModelParams(N=2, omega=1.0, g=0.1, v=0.05)
    assert build_full_hamiltonian(p, 3).shape[0] == 12


def test_kronecker_oracle_single_point():
    p = ModelParams(N=2, omega=1.0, g=0.1, v=0.05)
    H = build_full_hamiltonian(p, 1).toarray()
    ref = dense_hamiltonian(2, 1.0, 0.1, 0.05, 1)
    np.testing.assert_allclose(H, ref, atol=1e-14)


def test_kronecker_oracle_grid():
    for N in (1, 2, 3):
        for M in (0, 1, 2, 3):
            p = ModelParams(N=N, omega=0.8, g=0.37, v=0.61)
            H = build_full_hamiltonian(p, M).toarray()
            ref = dense_hamiltonian(N, 0.8, 0.37, 0.61, M)
            assert np.max(np.abs(H - ref)) < 1e-14


def test_hermiticity_is_bitwise():
    p = ModelParams(N=3, omega=1.3, g=0.45, v=0.9)
    H = build_full_hamiltonian(p, 12)
    assert (H - H.T).count_nonzero() == 0
    dense = H.toarray()
    np.testing.assert_array_equal(dense, dense.T)


def test_block_structure():
    p = ModelParams(N=4, omega=1.0, g=0.3, v=0.7)
    M = 6
    H = build_full_hamiltonian(p, M)
    coo = H.tocoo()
    (rows, cols), vals = coo.coords, coo.data
    for r, c, val in zip(rows, cols, vals):
        if val == 0:
            continue
        n1, m1 = divmod(int(r), p.N + 1)
        n2, m2 = divmod(int(c), p.N + 1)
        dn, dm = n1 - n2, m1 - m2
        assert (dn, dm) in {(0, 0), (0, 2), (0, -2), (1, 0), (-1, 0)}


def test_nonzero_budget_enforced():
    p = ModelParams(N=3, omega=1.0, g=0.3, v=1.0)
    with pytest.raises(ResourceError):
        build_full_hamiltonian(p, 100, max_nonzeros=100)


@pytest.mark.parametrize("N", range(1, 10))
def test_sector_hamiltonian_is_the_parity_block_of_full_h(N):
    # the Hamiltonian of a whole sector is the block (s, 0), at odd and even N
    for g, v in ((0.0, 1.0), (0.7, 0.0), (0.7, 1.0)):
        for M in (0, 1, 7):
            p = ModelParams(N=N, omega=1.0, g=g, v=v)
            full = build_full_hamiltonian(p, M).toarray()
            tol = 4 * np.finfo(float).eps * np.max(np.abs(full))
            parity = np.arange(full.shape[0]) % (N + 1) % 2
            for s in (0, 1):
                flat = np.nonzero(parity == s)[0]
                rest = np.nonzero(parity != s)[0]
                ab = symmetry_block(p, M, s, 0)
                w = ab.shape[0] - 1
                assert ab.shape[1] == flat.size
                # rows n (N + 1) + m + S, half-integer m at odd N
                n, col = symmetry_block_basis(p, M, s, 0)
                np.testing.assert_array_equal(n * (N + 1) + col, flat)
                # the all-zero rows that lowest_levels splits a sector on
                if g == 0:
                    assert not np.any(ab[w]), (N, v, M, s)
                if v == 0 and w > 1:
                    assert not np.any(ab[1]), (N, g, M, s)
                dev = np.max(np.abs(dense_from_band(ab) - full[np.ix_(flat, flat)]))
                assert dev <= tol, (N, g, v, M, s, dev)
                assert not np.any(full[np.ix_(flat, rest)]), (N, g, v, M, s)


# (u, v) on the u = 0, v = 0 and u = v lines, with u below and above v
HALF_UV = ((0.0, 1.0), (0.7, 0.0), (0.37, 0.37), (0.5, 1.0), (1.5, 1.0))


def _tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("u, v", HALF_UV)
def test_spin_sector_halves_are_the_j_projected_sector(u, v):
    eps = np.finfo(float).eps
    for N in range(2, 41, 2):
        for s in (0, 1):
            blocks = spin_blocks(N, v, s)
            m, off = blocks[0].m, blocks[0].off
            T = _tridiagonal(blocks[0].diagonal(u), off)
            tol = 4 * eps * np.max(np.abs(T))
            col = {mj: j for j, mj in enumerate(m)}
            halves = [(blocks[r].m, blocks[r].diagonal(u), blocks[r].off) for r in (1, -1)]
            assert sum(h[0].size for h in halves) == m.size, (N, s)
            for r, (hm, hdiag, hoff) in zip((1, -1), halves):
                assert np.all(hm >= 0) and np.all(np.diff(hm) == 2), (N, s, r)
                # columns |0> or (|m> + r |-m>)/sqrt(2), m > 0
                P = np.zeros((m.size, hm.size))
                for c, mj in enumerate(hm):
                    if mj == 0:
                        P[col[0.0], c] = 1.0
                    else:
                        P[col[mj], c] = 1 / np.sqrt(2)
                        P[col[-mj], c] = r / np.sqrt(2)
                dev = np.max(np.abs(_tridiagonal(hdiag, hoff) - P.T @ T @ P), initial=0.0)
                assert dev <= tol, (N, u, v, s, r, dev)
    blocks = spin_blocks(2, v, 1)  # the sector m = 0 alone
    plus_m, minus_m = blocks[1].m, blocks[-1].m
    assert plus_m.tolist() == [0.0] and minus_m.size == 0


def test_j_half_blocks_need_even_n():
    p = ModelParams(N=3, omega=1.0, g=0.3, v=1.0)
    for build in (symmetry_block, symmetry_block_basis):
        for r in (1, -1):
            with pytest.raises(ValidationError, match="even N"):
                build(p, 2, 0, r)
        # an invalid s is reported before an invalid r or an odd-N half
        for r in (1, 5):
            with pytest.raises(ValidationError, match="sector s"):
                build(p, 2, 2, r)


def test_symmetry_block_levels_hold_the_spin_blocks_bit_for_bit():
    for N in range(2, 41, 2):
        for g, v in ((0.7, 1.0), (0.3, 2.5), (0.0, 1.0), (0.7, 0.0)):
            p = ModelParams(N=N, omega=1.3, g=g, v=v)
            for s in (0, 1):
                blocks = spin_blocks(N, v, s)
                for r in (1, -1, 0):
                    ab = symmetry_block(p, 1, s, r)
                    _, col = symmetry_block_basis(p, 1, s, r)
                    levels = (blocks[r], blocks[-r])  # level n holds the half r (-1)^n
                    assert ab.shape[1] == sum(b.m.size for b in levels), (N, s, r)
                    start = 0
                    for n, b in enumerate(levels):
                        rows = slice(start, start + b.m.size)
                        assert np.array_equal(col[rows], b.m + p.S), (N, s, r, n)
                        diag = p.omega * n + b.diagonal(0.0)
                        assert ab[0, rows].tobytes() == diag.tobytes(), (N, g, v, s, r, n)
                        # + 0.0 makes -0.0 into 0.0: at v = 0 a coupling row that is
                        # row 1 adds its 0.0 to the off-diagonal's -0.0
                        off = ab[1, start : start + b.off.size]
                        assert (off + 0.0).tobytes() == (b.off + 0.0).tobytes(), (N, g, v, s, r, n)
                        start = rows.stop


def _block_projector(p, M, s, r):
    """Flat-basis columns of the (s, r) block's rows: (|m> + r (-1)^n |-m>)/sqrt(2), or |0>."""
    n, col = symmetry_block_basis(p, M, s, r)
    P = np.zeros(((M + 1) * (p.N + 1), n.size))
    flat = n * (p.N + 1) + col
    mirror = n * (p.N + 1) + p.N - col  # (n, -m)
    for c in range(n.size):
        if 2 * col[c] == p.N:
            P[flat[c], c] = 1.0
        else:
            P[flat[c], c] = 1 / np.sqrt(2)
            P[mirror[c], c] = r * (-1) ** n[c] / np.sqrt(2)
    return P


@pytest.mark.parametrize("N", range(2, 13, 2))
def test_symmetry_block_is_the_r_projected_parity_block_of_full_h(N):
    for g, v in ((0.7, 1.0), (0.3, 2.5), (0.0, 1.0), (0.7, 0.0)):
        for M in (0, 1, 2, 5, 8):
            p = ModelParams(N=N, omega=1.3, g=g, v=v)
            full = build_full_hamiltonian(p, M).toarray()
            tol = 4 * np.finfo(float).eps * np.max(np.abs(full))
            parity = np.arange(full.shape[0]) % (N + 1) % 2
            columns = []
            for s in (0, 1):
                for r in (1, -1):
                    ab = symmetry_block(p, M, s, r)
                    P = _block_projector(p, M, s, r)
                    assert ab.shape[1] == P.shape[1]
                    assert not np.any(P[parity != s]), (N, M, s, r)
                    dev = np.max(np.abs(dense_from_band(ab) - P.T @ full @ P), initial=0.0)
                    assert dev <= tol, (N, g, v, M, s, r, dev)
                    # past the block's edge the band array holds zeros
                    for i in range(1, ab.shape[0]):
                        assert not np.any(ab[i, ab.shape[1] - i :]), (N, M, s, r, i)
                    columns.append(P)
            # the four blocks together are an orthonormal basis of the whole space
            Q = np.hstack(columns)
            np.testing.assert_allclose(Q.T @ Q, np.eye(full.shape[0]), atol=1e-15)


@pytest.mark.parametrize("N", (2, 4, 6, 10))
@pytest.mark.parametrize("M", (0, 1, 2, 5))
def test_symmetry_block_spectra_are_those_of_the_parity_sectors(N, M):
    p = ModelParams(N=N, omega=1.0, g=0.8, v=1.0)
    blocks = [symmetry_block(p, M, s, r) for s in (0, 1) for r in (1, -1)]
    sectors = [symmetry_block(p, M, s, 0) for s in (0, 1)]
    levels = np.sort(np.concatenate([np.linalg.eigvalsh(dense_from_band(ab)) for ab in blocks]))
    ref = np.sort(np.concatenate([np.linalg.eigvalsh(dense_from_band(ab)) for ab in sectors]))
    assert levels.size == ref.size == (M + 1) * (N + 1)
    np.testing.assert_allclose(levels, ref, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))


def test_symmetry_block_edge_cases():
    # N = 2, s = 1 is the sector m = 0 alone: the r = -1 half at n = 0 is empty
    p = ModelParams(N=2, omega=1.0, g=0.8, v=1.0)
    assert symmetry_block(p, 0, 1, -1).shape[1] == 0
    assert symmetry_block(p, 0, 1, 1).shape[1] == 1
    # n = 0, 2, 4 of (s, r) = (1, +) and n = 1, 3 of (1, -): |n> (x) |0>, uncoupled
    ab = symmetry_block(p, 4, 1, 1)
    np.testing.assert_allclose(ab[0], np.array([0.0, 2.0, 4.0]) - p.v, rtol=1e-15)  # omega n - v S(S+1)/2
    assert not np.any(ab[1:])
    np.testing.assert_array_equal(symmetry_block_basis(p, 4, 1, -1)[0], [1, 3])
    # N = 2, s = 0: halves of width 1, so row 1 is the coupling row and holds no off-diagonal
    ab = symmetry_block(p, 3, 0, 1)
    assert ab.shape == (2, 4)
    np.testing.assert_allclose(ab[1], [0.8, 0.8 * np.sqrt(2), 0.8 * np.sqrt(3), 0.0], rtol=1e-15)
    # N = 4, s = 0: halves {0, 2} and {2}; row 1 holds the (0, 2) off-diagonal of the
    # even levels and the coupling from their m = 2 row, in different columns
    ab = symmetry_block(ModelParams(N=4, omega=1.0, g=0.8, v=1.0), 2, 0, 1)
    assert ab.shape == (3, 5)
    assert ab[1, 0] != 0 and ab[1, 1] != 0 and ab[1, 2] == 0


def test_symmetry_block_needs_even_n_and_r_of_one():
    with pytest.raises(ValidationError):
        symmetry_block(ModelParams(N=3, omega=1.0, g=0.3, v=1.0), 2, 0, 1)
    with pytest.raises(ValidationError):
        symmetry_block(ModelParams(N=4, omega=1.0, g=0.3, v=1.0), 2, 0, 2)
    with pytest.raises(ValidationError):
        symmetry_block(ModelParams(N=4, omega=1.0, g=0.3, v=1.0), 2, 2, 1)
    with pytest.raises(ResourceError):
        symmetry_block(ModelParams(N=4, omega=1.0, g=0.3, v=1.0), 2 * 10**6, 0, 1)


def test_block_budget_counts_the_band_not_the_whole_h():
    # N = 2, block (0, +): one row per level and a 2-row band, 2 x 600,001
    # entries, where the whole H would hold about 5.4e6 nonzeros
    ab = symmetry_block(ModelParams(N=2, omega=1.0, g=0.3, v=1.0), 600_000, 0, 1)
    assert ab.shape == (2, 600_001)


def test_sector_hamiltonian_keeps_the_nonzero_budget():
    # the block (s, 0) at odd N, where no r = +/-1 block exists
    p = ModelParams(N=3, omega=1.0, g=0.3, v=1.0)
    with pytest.raises(ResourceError):
        symmetry_block(p, 10**6, 0, 0)


def test_polaron_decoupled_limit():
    p = ModelParams(N=2, omega=1.0, g=0.0, v=1.0)
    spin = collective_spin_matrices(1.0)
    np.testing.assert_allclose(
        polaron_spin_hamiltonian(p), -spin.sx @ spin.sx, atol=1e-15
    )


def test_polaron_n2_hand_diagonalization():
    # u = 0.5, v = 1 with S = 1: H = [[-1, 0, -0.5], [0, -1, 0], [-0.5, 0, -1]]
    p = ModelParams(N=2, omega=1.0, g=np.sqrt(0.5), v=1.0)
    H = polaron_spin_hamiltonian(p)
    np.testing.assert_allclose(
        H, [[-1.0, 0.0, -0.5], [0.0, -1.0, 0.0], [-0.5, 0.0, -1.0]], atol=1e-15
    )
    np.testing.assert_allclose(np.linalg.eigvalsh(H), [-1.5, -1.0, -0.5], atol=1e-14)


def test_polaron_spin_half_is_scalar():
    p = ModelParams(N=1, omega=1.0, g=0.6, v=0.8)
    expected = -(p.u + p.v) / 4 * np.eye(2)
    np.testing.assert_allclose(polaron_spin_hamiltonian(p), expected, atol=1e-15)


def test_polaron_ground_energy_identity_at_g_zero():
    p = ModelParams(N=3, omega=1.0, g=0.0, v=0.8)
    full = np.linalg.eigvalsh(build_full_hamiltonian(p, 6).toarray())
    spin = np.linalg.eigvalsh(polaron_spin_hamiltonian(p))
    assert abs(full[0] - spin[0]) < 1e-13


def test_parity_boson_factor():
    # boson blocks carry (-1)^n = (+1, -1, +1) over n = 0, 1, 2
    p = ModelParams(N=1, omega=1.0, g=0.1, v=0.0)
    R = symmetry_operator(p, 2)
    dense = R.op.toarray()
    exchange = np.fliplr(np.eye(2))
    for n, expected in enumerate([1.0, -1.0, 1.0]):
        block = dense[2 * n : 2 * n + 2, 2 * n : 2 * n + 2]
        np.testing.assert_array_equal(block, expected * R.spin_sign * exchange)


def test_parity_spin_eigenvalues_integer_spin():
    # N = 2: eigenvalues of exp(-i pi Sx) per m_x = (1, 0, -1) are (-1, +1, -1)
    p = ModelParams(N=2, omega=1.0, g=0.1, v=0.1)
    R = symmetry_operator(p, 0)  # M = 0: the matrix is the spin factor itself
    assert R.phase == 1.0
    spin = collective_spin_matrices(1.0)
    w, U = np.linalg.eigh(spin.sx)  # ascending: m_x = -1, 0, +1
    Rm = R.op.toarray()
    for col, expected in ((2, -1.0), (1, 1.0), (0, -1.0)):
        vec = U[:, col]
        np.testing.assert_allclose(Rm @ vec, expected * vec, atol=1e-12)


def test_parity_phase_half_integer():
    p = ModelParams(N=3, omega=1.0, g=0.1, v=0.1)
    R = symmetry_operator(p, 1)
    assert R.phase == -1j
    # the real part squares to the identity (signed exchange)
    dense = R.op.toarray()
    np.testing.assert_allclose(dense @ dense, np.eye(dense.shape[0]), atol=1e-15)


def test_parity_commutes_with_hamiltonian():
    p = ModelParams(N=3, omega=1.0, g=np.sqrt(0.2), v=1.0)
    M = 20
    H = build_full_hamiltonian(p, M).toarray()
    R = symmetry_operator(p, M).op.toarray()
    comm = np.linalg.norm(H @ R - R @ H)
    assert comm <= 1e-12 * np.linalg.norm(H)
