"""Lowest-eigenpair solvers for real-symmetric operators.

:func:`solve_lowest` is the production route: dense LAPACK up to
``dense_threshold`` and ARPACK (``scipy.sparse.linalg.eigsh``) above it.
ARPACK runs in shift-invert mode, with the shift sigma just below the
operator's Gershgorin lower bound.  No eigenvalue lies below that bound,
so H - sigma I is positive definite, its LU factorization is nonsingular,
and the k largest 1 / (lambda - sigma) belong to exactly the k lowest
lambda: the low end of the spectrum, slow to converge as extremal Ritz
values of H, becomes the well-separated top of the inverted spectrum.
It is meant for one symmetry block of the model at a time (see
``diagnostics.lowest_levels``), which holds no degenerate low levels.
:func:`lanczos_lowest`, a block Lanczos iteration with full
reorthogonalization whose block size >= 2 keeps degenerate doublets in
the unsplit space, remains as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ResourceError, ValidationError
from .model import SparseOperator

DEFAULT_DENSE_THRESHOLD = 4000


@dataclass
class SolverOptions:
    """Knobs for the iterative solver; defaults suit the model's spectra.

    residual_tol and block_size apply to block Lanczos only; residual_tol
    is relative to the Frobenius norm of the operator.  max_iterations
    caps Lanczos block steps (default 10 * dim) and ARPACK restarts
    (ARPACK's default when None).  Operators up to dense_threshold go to
    LAPACK, larger ones to ARPACK; 400 is about where shift-invert ARPACK
    overtakes LAPACK on the model's parity blocks.
    """

    k: int = 6
    residual_tol: float = 1e-10
    max_iterations: int | None = None
    block_size: int = 4
    dense_threshold: int = 400
    seed: int = 0

    def validate(self, dim: int) -> None:
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.k > dim:
            raise ValidationError(f"k = {self.k} exceeds operator dimension {dim}")
        if self.block_size < 2:
            raise ValidationError(f"block_size must be >= 2, got {self.block_size}")

    def with_k(self, k: int) -> "SolverOptions":
        return replace(self, k=k)


@dataclass
class SpectrumResult:
    """Ascending low-lying eigenvalues plus solver metadata."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    solver: str
    iterations: int
    residual_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    converged: bool = True


def _as_dense(H) -> np.ndarray:
    if isinstance(H, SparseOperator):
        return H.to_dense()
    arr = np.asarray(H, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def dense_spectrum(
    H,
    k: int,
    *,
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
    override: bool = False,
    want_vectors: bool = True,
) -> SpectrumResult:
    """First k eigenpairs from a full symmetric eigendecomposition."""
    A = _as_dense(H)
    dim = A.shape[0]
    if k < 1 or k > dim:
        raise ValidationError(f"k must be in [1, {dim}], got {k}")
    if dim > dense_threshold and not override:
        raise ResourceError(
            f"dense path refused: dim {dim} > threshold {dense_threshold} (pass override)"
        )
    if want_vectors:
        evals, evecs = scipy.linalg.eigh(A, subset_by_index=(0, k - 1))
        residuals = np.linalg.norm(A @ evecs - evecs * evals, axis=0)
    else:
        evals = scipy.linalg.eigh(A, subset_by_index=(0, k - 1), eigvals_only=True)
        evecs = None
        residuals = np.zeros(k)
    return SpectrumResult(
        eigenvalues=np.asarray(evals),
        eigenvectors=evecs,
        solver="dense",
        iterations=0,
        residual_norms=residuals,
        converged=True,
    )


def _operator_scale(H) -> float:
    if isinstance(H, SparseOperator):
        s = H.frobenius_norm()
    else:
        s = float(np.linalg.norm(np.asarray(H)))
    return s if s > 0 else 1.0


def _orthonormal_block(
    rng: np.random.Generator, dim: int, width: int, against: np.ndarray | None
) -> np.ndarray:
    X = rng.standard_normal((dim, width))
    for _ in range(2):
        if against is not None and against.size:
            X -= against @ (against.T @ X)
        X, _ = np.linalg.qr(X)
    return X


def lanczos_lowest(
    H, opts: SolverOptions | None = None, *, want_vectors: bool = True
) -> SpectrumResult:
    """Lowest-k eigenpairs via block Lanczos with full reorthogonalization.

    The Krylov basis is grown block by block from a seeded random start;
    every step the block-tridiagonal projection is diagonalized and
    convergence is declared on residual norms of the k lowest Ritz pairs
    (never on Ritz-value stagnation, which false-positives on clusters).
    Rank-deficient blocks are refilled with fresh random directions, so
    the basis keeps expanding until the spectrum resolves or the space
    saturates.  Non-convergence within the iteration budget returns
    converged=False with the best residuals.
    """
    if opts is None:
        opts = SolverOptions()
    dim = H.dim if isinstance(H, SparseOperator) else np.asarray(H).shape[0]
    opts.validate(dim)
    k = opts.k
    rng = np.random.default_rng(opts.seed)
    scale = _operator_scale(H)
    tol_abs = opts.residual_tol * scale
    breakdown = 1e-13 * scale
    max_iter = opts.max_iterations if opts.max_iterations is not None else 10 * dim

    b = min(opts.block_size, dim)
    blocks = [_orthonormal_block(rng, dim, b, against=None)]
    Qmat = blocks[0]
    A_blocks: list[np.ndarray] = []
    B_blocks: list[np.ndarray] = []
    iterations = 0

    def projection() -> np.ndarray:
        total = sum(blk.shape[1] for blk in blocks[: len(A_blocks)])
        T = np.zeros((total, total))
        off = 0
        for j, Aj in enumerate(A_blocks):
            w = Aj.shape[0]
            T[off : off + w, off : off + w] = Aj
            if j < len(B_blocks):
                nxt = B_blocks[j].shape[0]
                T[off + w : off + w + nxt, off : off + w] = B_blocks[j]
                T[off : off + w, off + w : off + w + nxt] = B_blocks[j].T
            off += w
        return T

    while True:
        iterations += 1
        Qj = blocks[-1]
        W = H @ Qj
        if B_blocks:
            W = W - blocks[-2] @ B_blocks[-1].T
        Aj = Qj.T @ W
        Aj = 0.5 * (Aj + Aj.T)
        A_blocks.append(Aj)
        W = W - Qj @ Aj
        for _ in range(2):
            W = W - Qmat @ (Qmat.T @ W)

        used = Qmat.shape[1]
        room = dim - used
        if room == 0:
            break

        width = min(Qj.shape[1], room)
        Qn, R = np.linalg.qr(W)
        Qn = Qn[:, :width].copy()
        R = R[:width, :].copy()
        weak = np.abs(np.diag(R)[:width]) <= breakdown
        if np.any(weak):
            # locked directions: refill with random vectors, drop their recurrence rows
            R[weak, :] = 0.0
            fresh = _orthonormal_block(
                rng, dim, int(weak.sum()), against=np.hstack([Qmat, Qn[:, ~weak]])
            )
            Qn[:, weak] = fresh

        T = projection()
        theta, Svec = np.linalg.eigh(T)
        if T.shape[0] >= k:
            bottom = Svec[-Qj.shape[1] :, :k]
            res = np.linalg.norm(R @ bottom, axis=0)
            if np.all(res <= tol_abs):
                break
            if iterations >= max_iter:  # budget bounds convergence effort only
                break

        B_blocks.append(R)
        blocks.append(Qn)
        Qmat = np.hstack([Qmat, Qn])

    T = projection()
    theta, Svec = np.linalg.eigh(T)
    n_out = min(k, T.shape[0])
    vectors = Qmat @ Svec[:, :n_out]
    ritz = theta[:n_out]
    resid = np.linalg.norm(H @ vectors - vectors * ritz, axis=0)
    converged = bool(n_out == k and np.all(resid <= tol_abs))
    return SpectrumResult(
        eigenvalues=ritz,
        eigenvectors=vectors if want_vectors else None,
        solver="lanczos",
        iterations=iterations,
        residual_norms=resid,
        converged=converged,
    )


def _gershgorin_shift(A) -> float:
    """A shift strictly below the spectrum of symmetric A.

    Every eigenvalue lies in a Gershgorin disc, so none is below
    min_i(a_ii - sum_{j != i} |a_ij|); the shift sits a further 1 % of
    max(1, |bound|) below that bound.
    """
    diag = A.diagonal()
    radius = np.ravel(abs(A).sum(axis=1)) - np.abs(diag)
    bound = float(np.min(diag - radius))
    return bound - 1e-2 * max(1.0, abs(bound))


def solve_lowest(
    H, opts: SolverOptions | None = None, *, want_vectors: bool = True
) -> SpectrumResult:
    """Lowest opts.k eigenpairs: LAPACK up to ``dense_threshold``, else ARPACK.

    ARPACK runs in shift-invert mode (``which="LM"`` around sigma from
    :func:`_gershgorin_shift`): sigma lies below every eigenvalue, so
    H - sigma I factorizes without meeting a singular matrix and the k
    eigenvalues nearest sigma are the k lowest.  ARPACK starts from a
    vector drawn from ``seed`` and iterates to machine precision; it also
    needs k < dim - 1, so larger requests go dense.  If it runs out of
    restarts, the Ritz pairs that did converge come back with
    converged=False.  Plain Lanczos keeps one copy of each eigenvalue,
    so H should have no degenerate low levels: pass one symmetry sector.
    """
    if opts is None:
        opts = SolverOptions()
    dim = H.dim if isinstance(H, SparseOperator) else np.asarray(H).shape[0]
    if dim <= opts.dense_threshold or opts.k >= dim - 1:
        return dense_spectrum(H, opts.k, override=True, want_vectors=want_vectors)
    opts.validate(dim)
    A = H.to_csr() if isinstance(H, SparseOperator) else np.asarray(H, dtype=float)
    rng = np.random.default_rng(opts.seed)
    converged = True
    try:
        evals, evecs = scipy.sparse.linalg.eigsh(
            A, k=opts.k, sigma=_gershgorin_shift(A), which="LM", tol=0,
            maxiter=opts.max_iterations, v0=rng.uniform(-1.0, 1.0, dim), rng=rng,
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        evals, evecs = exc.eigenvalues, exc.eigenvectors
        converged = False
    order = np.argsort(evals)
    evals, evecs = evals[order], evecs[:, order]
    return SpectrumResult(
        eigenvalues=evals,
        eigenvectors=evecs if want_vectors else None,
        solver="eigsh",
        iterations=0,
        residual_norms=np.linalg.norm(A @ evecs - evecs * evals, axis=0),
        converged=converged,
    )
