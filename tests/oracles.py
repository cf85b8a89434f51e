"""Independent brute-force constructions used as test oracles.

Everything here is assembled through dense Kronecker products, a different
route than the package's per-element sparse assembly, so agreement between
the two is a real cross-check.
"""

import numpy as np


def dense_spin_xz(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Sx and Sz for S = N/2 in the ascending-m basis, via the ladder formula."""
    S = N / 2
    dim = N + 1
    m = -S + np.arange(dim)
    sp = np.zeros((dim, dim))
    sp[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(S * (S + 1) - m[:-1] * (m[:-1] + 1))
    sx = (sp + sp.T) / 2
    sz = np.diag(m)
    return sx, sz


def dense_boson(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation operator and number operator truncated at occupation M."""
    dim = M + 1
    a = np.zeros((dim, dim))
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    return a, a.T @ a


def dense_hamiltonian(N: int, omega: float, g: float, v: float, M: int) -> np.ndarray:
    """omega a^dag a (x) 1 + g (a^dag + a) (x) Sz - v 1 (x) Sx^2, boson-major."""
    sx, sz = dense_spin_xz(N)
    a, num = dense_boson(M)
    eye_b = np.eye(M + 1)
    eye_s = np.eye(N + 1)
    return (
        omega * np.kron(num, eye_s)
        + g * np.kron(a + a.T, sz)
        - v * np.kron(eye_b, sx @ sx)
    )


def random_sparse_symmetric(rng: np.random.Generator, dim: int, density: float = 0.05):
    """Seeded random real-symmetric COO triplets (rows, cols, vals)."""
    nnz = max(1, int(density * dim * dim / 2))
    rows = rng.integers(0, dim, size=nnz)
    cols = rng.integers(0, dim, size=nnz)
    vals = rng.standard_normal(nnz)
    all_rows = np.concatenate([rows, cols, np.arange(dim)])
    all_cols = np.concatenate([cols, rows, np.arange(dim)])
    diag = rng.standard_normal(dim)
    all_vals = np.concatenate([vals / 2, vals / 2, diag])
    return all_rows, all_cols, all_vals


def lower_band(A) -> np.ndarray:
    """Lower band storage ab[i, c] = A[c + i, c] of a symmetric dense array or SparseOperator.

    The bandwidth is the largest i - c of a nonzero entry.
    """
    A = np.asarray(A.to_dense() if hasattr(A, "to_dense") else A, dtype=float)
    rows, cols = np.nonzero(np.tril(A))
    width = int(np.max(rows - cols, initial=0))
    return np.array([np.pad(np.diagonal(A, -i), (0, i)) for i in range(width + 1)])


def dense_from_band(ab: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band storage is ab (band rows past the last column ignored)."""
    dim = ab.shape[1]
    A = np.zeros((dim, dim))
    for i in range(min(ab.shape[0], dim)):
        A += np.diag(ab[i, : dim - i], -i)
    return A + np.tril(A, -1).T
