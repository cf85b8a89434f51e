"""Independent references that tests check the solve path against.

Nothing here runs in a sweep: the solve path (``model.symmetry_block``,
``solvers.solve_lowest``, ``diagnostics.lowest_levels`` and
``diagnostics.spin_model_spectrum``) never builds the whole H, a parity
operator or a Krylov basis.  This module imports from the solve modules;
none of them imports it.

- :func:`build_full_hamiltonian` assembles the whole truncated H as a
  ``scipy.sparse.csr_array`` in the boson-major flat basis
  n (N + 1) + (m + S), and :func:`symmetry_operator` the joint parity.
- :func:`polaron_spin_hamiltonian` is the dense spin model -u Sz^2 - v Sx^2,
  from the :func:`collective_spin_matrices`.
- :func:`dense_spectrum` (full ``eigh``) and :func:`lanczos_lowest` (block
  Lanczos with full reorthogonalization, run as Rayleigh-Ritz on its
  orthogonal block Krylov basis) take a scipy sparse matrix or a dense
  array, converted once by :func:`as_matrix`, and always return vectors.
- :func:`level_vectors` gives the vector checks the solve path's levels'
  vectors in the flat basis, and :func:`ground_pair` the lowest two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .diagnostics import _solve_blocks
from .errors import ResourceError, ValidationError
from .model import DEFAULT_MAX_NONZEROS, ModelParams, symmetry_block_basis
from .solvers import SpectrumResult, check_request, level_vector

DEFAULT_DENSE_THRESHOLD = 4000  # dense_spectrum's guard: larger matrices need a larger dense_threshold
LANCZOS_BLOCK = 4  # lanczos_lowest's block width; >= 2 keeps degenerate doublets
LANCZOS_RESIDUAL_TOL = 1e-10  # lanczos_lowest's residual tolerance, relative to ||H||_F


def SparseOperator(dim: int, rows, cols, vals) -> sparse.csr_array:
    """The dim x dim CSR array with entries vals at (rows, cols); duplicate entries are summed."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim):
        raise ValidationError("entry index outside [0, dim)")
    vals = np.asarray(vals, dtype=np.float64)
    return sparse.coo_array((vals, (rows, cols)), shape=(dim, dim)).tocsr()


@dataclass(frozen=True)
class SpinOperatorSet:
    """Collective spin matrices of dimension 2S+1 in the ascending-m basis.

    sy_imag holds the real matrix K with Sy = i*K, so all storage is real.
    """

    S: float
    sx: np.ndarray
    sz: np.ndarray
    sy_imag: np.ndarray
    sp: np.ndarray
    sm: np.ndarray


def collective_spin_matrices(S: float) -> SpinOperatorSet:
    """Standard angular-momentum matrices for spin quantum number S.

    Ladder convention: S+|S,m> = sqrt(S(S+1) - m(m+1)) |S,m+1>.
    """
    twoS = 2 * S
    if twoS <= 0 or abs(twoS - round(twoS)) > 1e-12:
        raise ValidationError(f"S must be a positive half-integer, got {S!r}")
    dim = int(round(twoS)) + 1
    m = -S + np.arange(dim)
    c = np.sqrt(S * (S + 1) - m[:-1] * (m[:-1] + 1))
    sp = np.zeros((dim, dim))
    sp[np.arange(1, dim), np.arange(dim - 1)] = c
    sm = sp.T.copy()
    sx = (sp + sm) / 2
    sy_imag = (sm - sp) / 2
    sz = np.diag(m)
    return SpinOperatorSet(S=S, sx=sx, sz=sz, sy_imag=sy_imag, sp=sp, sm=sm)


def _estimate_nonzeros(N: int, M: int, g: float, v: float) -> int:
    diag = (M + 1) * (N + 1)
    spin_off = 2 * (M + 1) * max(N - 1, 0) if v != 0 else 0
    # g couplings vanish on m = 0 (present only for even N)
    m_nonzero = N + 1 - (1 if N % 2 == 0 else 0)
    boson = 2 * M * m_nonzero if g != 0 else 0
    return diag + spin_off + boson


def build_full_hamiltonian(
    p: ModelParams, M: int, max_nonzeros: int = DEFAULT_MAX_NONZEROS
) -> sparse.csr_array:
    """Assemble H = omega a^dag a + g (a^dag + a) Sz - v Sx^2, truncated at n <= M.

    Couplings to n > M are dropped.  Nonzero pattern: the diagonal, the
    |m' - m| = 2 elements of Sx^2 within each boson block, and the
    g sqrt(n+1) m elements between (n, m) and (n+1, m).
    """
    if M < 0:
        raise ValidationError(f"fock cutoff M must be >= 0, got {M}")
    if _estimate_nonzeros(p.N, M, p.g, p.v) > max_nonzeros:
        raise ResourceError(
            f"Hamiltonian for N={p.N}, M={M} needs more than {max_nonzeros} nonzeros"
        )
    ns = p.N + 1
    spin = collective_spin_matrices(p.S)
    sx2 = spin.sx @ spin.sx
    m_vals = -p.S + np.arange(ns)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    # diagonal: omega*n - v*(Sx^2)_{mm}
    all_idx = np.arange((M + 1) * ns)
    n_of = all_idx // ns
    col_of = all_idx % ns
    rows.append(all_idx)
    cols.append(all_idx)
    vals.append(p.omega * n_of - p.v * np.diag(sx2)[col_of])

    # -v (Sx^2)_{m+2, m} within each boson block, both triangles
    if p.v != 0 and ns >= 3:
        ms = np.arange(ns - 2)
        elem = -p.v * sx2[ms + 2, ms]
        for n in range(M + 1):
            base = n * ns
            rows.append(base + ms + 2)
            cols.append(base + ms)
            vals.append(elem)
            rows.append(base + ms)
            cols.append(base + ms + 2)
            vals.append(elem)

    # g sqrt(n+1) m between (n, m) and (n+1, m), both triangles
    if p.g != 0 and M >= 1:
        live = np.nonzero(m_vals != 0)[0]
        for n in range(M):
            coef = p.g * np.sqrt(n + 1) * m_vals[live]
            lo = n * ns + live
            hi = (n + 1) * ns + live
            rows.append(hi)
            cols.append(lo)
            vals.append(coef)
            rows.append(lo)
            cols.append(hi)
            vals.append(coef)

    return SparseOperator(
        all_idx.size,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def polaron_spin_hamiltonian(p: ModelParams) -> np.ndarray:
    """Displaced-frame spin Hamiltonian H_spin = -u Sz^2 - v Sx^2, u = g^2/omega.

    Obtained by displacing the cavity conditioned on Sz, which removes the
    g (a^dag + a) Sz coupling, and dropping the displacement dressing that
    the same transform applies to the Sx^2 term.  The reduction is exact
    when g = 0 or v = 0; otherwise the dressing shifts the spectrum, so
    treat this as the reference spin model, not an identity.  The solve
    path, :func:`~dickelab.diagnostics.spin_model_spectrum`, takes its
    levels from tridiagonal symmetry blocks without building it.
    """
    spin = collective_spin_matrices(p.S)
    return -p.u * (spin.sz @ spin.sz) - p.v * (spin.sx @ spin.sx)


@dataclass(frozen=True)
class ParityOperator:
    """R = exp(i pi a^dag a) (x) exp(-i pi Sx), stored real.

    ``op`` is the real signed-permutation part; ``phase`` is the global
    factor (1 for integer S, -1j for half-integer S) so that
    phase * op equals the full complex operator.  The phase drops out of
    commutators and eigenvalue-pairing checks.
    """

    op: sparse.csr_array
    phase: complex
    spin_sign: int = 1


def symmetry_operator(p: ModelParams, M: int) -> ParityOperator:
    """Joint parity: flips the cavity quadratures (a -> -a) and Sz -> -Sz.

    In the Sz basis, exp(-i pi Sx) is (global phase) * sign * J with J the
    m -> -m exchange matrix; sign = (-1)^S for integer S and (-1)^(S-1/2)
    for half-integer S.  The boson factor is diag((-1)^n).  R commutes
    with the Hamiltonian built by :func:`build_full_hamiltonian`.
    """
    ns = p.N + 1
    if p.N % 2 == 0:
        sign = -1 if int(round(p.S)) % 2 else 1
        phase: complex = 1.0
    else:
        sign = -1 if int(round(p.S - 0.5)) % 2 else 1
        phase = -1j

    idx = np.arange((M + 1) * ns)
    n_of = idx // ns
    col_of = idx % ns
    flipped = n_of * ns + (ns - 1 - col_of)
    vals = sign * np.where(n_of % 2 == 0, 1.0, -1.0)
    op = SparseOperator(idx.size, idx, flipped, vals)
    return ParityOperator(op=op, phase=phase, spin_sign=sign)


def as_matrix(H):
    """H as a scipy CSR matrix (from any scipy sparse matrix) or a float ndarray.

    Every reference solver converts its operator here, once; a dense
    array stays dense.  Raises ValidationError unless H is square.
    """
    if sparse.issparse(H):
        A = H.tocsr()
    else:
        A = np.asarray(H, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    return A


def frobenius_norm(A) -> float:
    """Frobenius norm of a sparse or dense matrix."""
    return float(np.linalg.norm(A.data if sparse.issparse(A) else A))


def symmetry_commutator_norm(H, R) -> float:
    """||HR - RH||_F / ||H||_F for same-dimension operators."""
    if isinstance(R, ParityOperator):
        R = R.op
    A, B = as_matrix(H), as_matrix(R)
    if A.shape != B.shape:
        raise ValidationError(f"dimension mismatch: {A.shape} vs {B.shape}")
    den = frobenius_norm(A)
    if den == 0:
        return 0.0
    return frobenius_norm(A @ B - B @ A) / den


def dense_spectrum(H, k: int, *, dense_threshold: int = DEFAULT_DENSE_THRESHOLD) -> SpectrumResult:
    """First k eigenpairs from a full symmetric eigendecomposition, refused above dense_threshold rows."""
    A = as_matrix(H)
    if sparse.issparse(A):
        A = A.toarray()
    dim = A.shape[0]
    if k < 1 or k > dim:
        raise ValidationError(f"k must be in [1, {dim}], got {k}")
    if dim > dense_threshold:
        raise ResourceError(f"dense path refused: dim {dim} > threshold {dense_threshold}")
    evals, evecs = scipy.linalg.eigh(A, subset_by_index=(0, k - 1))
    return SpectrumResult(
        eigenvalues=np.asarray(evals),
        eigenvectors=evecs,
        solver="dense",
        iterations=0,
        residual_norms=np.linalg.norm(A @ evecs - evecs * evals, axis=0),
        converged=True,
    )


def _orthonormal_block(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The columns of X made orthonormal and orthogonal to Q's orthonormal columns (two passes)."""
    for _ in range(2):
        X, _ = np.linalg.qr(X - Q @ (Q.T @ X))
    return X


def lanczos_lowest(H, k: int = 6, *, seed: int = 0, max_iterations: int | None = None) -> SpectrumResult:
    """Lowest-k eigenpairs via block Lanczos with full reorthogonalization.

    Under full reorthogonalization block Lanczos is Rayleigh-Ritz on the
    block Krylov space, so that is how it runs: from a seeded random start
    of ``LANCZOS_BLOCK`` columns (at least 2, so degenerate doublets stay),
    each step multiplies the newest block by H, orthogonalizes it twice
    against the whole basis Q and appends it, and diagonalizes the grown
    projection T = Q^T H Q.  A column that falls inside span(Q) is refilled
    with a fresh random direction, so the basis keeps expanding until the k
    lowest Ritz pairs have residuals <= ``LANCZOS_RESIDUAL_TOL`` times the
    Frobenius norm of H or Q fills the space (never on Ritz-value
    stagnation, which false-positives on clusters).  max_iterations caps
    the block steps (default 10 * dim) but is checked only once k Ritz
    pairs exist; running out returns converged=False with the best
    residuals.
    """
    H = as_matrix(H)
    dim = H.shape[0]
    check_request(k, seed, dim)
    rng = np.random.default_rng(seed)
    scale = frobenius_norm(H) or 1.0
    resid_tol = LANCZOS_RESIDUAL_TOL * scale
    max_iter = max_iterations if max_iterations is not None else 10 * dim

    Q, T = np.zeros((dim, 0)), np.zeros((0, 0))
    X = _orthonormal_block(rng.standard_normal((dim, min(LANCZOS_BLOCK, dim))), Q)
    iterations = 0
    while True:
        iterations += 1
        HX = H @ X
        C, D = Q.T @ HX, X.T @ HX
        T = np.block([[T, C], [C.T, 0.5 * (D + D.T)]])
        Q = np.hstack([Q, X])
        room = dim - Q.shape[1]
        if Q.shape[1] >= k:  # always so once Q fills the space, as k <= dim
            theta, S = np.linalg.eigh(T)
            theta, vectors = theta[:k], Q @ S[:, :k]
            resid = np.linalg.norm(H @ vectors - vectors * theta, axis=0)
            if room == 0 or np.all(resid <= resid_tol) or iterations >= max_iter:
                break
        W = HX
        for _ in range(2):
            W = W - Q @ (Q.T @ W)
        X, R = np.linalg.qr(W)
        width = min(X.shape[1], room)
        X = X[:, :width]
        weak = np.abs(np.diag(R)[:width]) <= 1e-13 * scale
        if np.any(weak):  # directions inside span(Q): refill them at random
            X[:, weak] = rng.standard_normal((dim, int(weak.sum())))
            X = _orthonormal_block(X, Q)

    return SpectrumResult(
        eigenvalues=theta,
        eigenvectors=vectors,
        solver="lanczos",
        iterations=iterations,
        residual_norms=resid,
        converged=bool(np.all(resid <= resid_tol)),
    )


def _embed_block(p: ModelParams, M: int, s: int, r: int, rows, X: np.ndarray) -> np.ndarray:
    """Vectors X on rows ``rows`` of the (s, r) block in the flat basis.

    A row is |m>, or (|m> + r (-1)^n |-m>)/sqrt(2) and |0> where r != 0:
    the plain scatter plus r times its image under the joint parity R of
    :func:`symmetry_operator`, whose ``spin_sign`` drops out.
    """
    n, col = (a[rows] for a in symmetry_block_basis(p, M, s, r))
    flat = n * (p.N + 1) + col
    V = np.zeros(((M + 1) * (p.N + 1), X.shape[1]))
    if r == 0:
        V[flat] = X
        return V
    V[flat] = np.where(2 * col == p.N, 0.5, math.sqrt(0.5))[:, None] * X  # m = 0 gets both halves
    R = symmetry_operator(p, M)
    return V + r * R.spin_sign * (R.op @ V)


def level_vectors(p: ModelParams, M: int, k: int, *, seed: int = 0) -> tuple[np.ndarray, SpectrumResult]:
    """Orthonormal flat-basis vectors of the k lowest levels of ``diagnostics.lowest_levels``, and that solve.

    Column i is level i's: ``solvers.level_vector`` on the band array it
    was solved on, orthogonalized against its block's lower levels (they
    overlap by up to about 3e-11) and mapped by :func:`_embed_block`.  At
    odd N a level's copy in the sector s = 1 is R times the original, R the
    joint parity of :func:`symmetry_operator`.
    """
    res, blocks = _solve_blocks(p, M, k, seed=seed)
    vectors = []
    for label, rows, ab, levels in blocks:
        Q, R = np.linalg.qr(np.column_stack([level_vector(ab, E) for E in levels]))
        vectors.append(_embed_block(p, M, *label, rows, Q * np.sign(np.diag(R))))
    values = [levels for *_, levels in blocks]
    if p.N % 2:
        R = symmetry_operator(p, M).op
        vectors, values = vectors + [R @ V for V in vectors], values * 2
    return np.hstack(vectors)[:, np.argsort(np.concatenate(values), kind="stable")[:k]], res


def ground_pair(p: ModelParams, M: int) -> tuple[np.ndarray, np.ndarray, SpectrumResult]:
    """Lowest two eigenvectors of the full model at cutoff M, and the solve they come from.

    They are the first two of :func:`level_vectors` of six levels; at odd N
    the second is R x0, so the pair spans the exact doublet.
    """
    V, res = level_vectors(p, M, 6)
    return V[:, 0], V[:, 1], res
