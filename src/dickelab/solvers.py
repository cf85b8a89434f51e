"""Lowest-eigenpair solvers for real-symmetric operators.

:func:`solve_lowest` is the production route.  It takes one symmetry
block of the model (see ``diagnostics.lowest_levels``) as the lower band
array that ``model.symmetry_block`` builds, and solves it with banded
LAPACK (``scipy.linalg.eig_banded``) up to ``DENSE_SOLVE_MAX_DIM`` rows,
above with ARPACK (``scipy.sparse.linalg.eigsh``) in shift-invert mode
through a banded Cholesky factor, shifted just below a caller's estimate
of the lowest level when there is one (the cutoff search passes the
previous cutoff's E0), else below the Gershgorin bound.
:func:`dense_spectrum` and :func:`lanczos_lowest` (block Lanczos with full
reorthogonalization, whose block size >= 2 keeps degenerate doublets)
remain as references; they take a ``SparseOperator``, a scipy sparse
matrix or a dense array, converted once by :func:`as_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ResourceError, ValidationError
from .model import SparseOperator

DEFAULT_DENSE_THRESHOLD = 4000  # dense_spectrum's guard: larger matrices need override=True
DENSE_SOLVE_MAX_DIM = 400
"""Path choice, not a guard: :func:`solve_lowest` runs ``eig_banded`` up to this many rows, ARPACK above.

Median ms for k = 6 on sector blocks (N = 16, u/v = 0.5 and N = 12,
u/v = 0.9; 2-vCPU Xeon VM, OpenBLAS on one thread); the hint is E0 at
half the cutoff:

    rows   eig_banded   ARPACK, Gershgorin shift   ARPACK, hinted shift
     207       1.7                4.5                       2.9
     324       3.8                4.9                       3.0
     405       5.8                5.2                       3.7
     637      10.7                8.7                       4.0
    1267        42               13.7                       6.5

The first solve of a point has no hint, and for it the crossover lies
near 400 rows; hinted solves would cross over lower, near 300.

On the even-N (s, r) blocks, about half the bandwidth of a sector, banded
LAPACK is cheaper per row (N = 16, u/v = 0.5 and 0.9, N = 12, u/v = 0.9,
block (0, +); same machine, median of 15):

    rows   eig_banded   ARPACK, Gershgorin shift   ARPACK, hinted shift
     161       0.8                4.3                       3.1
     319       2.1                5.1                       2.7
     401       2.7                3.5                       2.7
     509       6.3                6.5                       2.4
     635       6.1                3.9                       3.2
    1013      17.4               11.6                       3.9

There the first solve crosses over near 500-600 rows and hinted solves
near 350-400, so one constant of 400 still serves both kinds of block.
"""


@dataclass
class SolverOptions:
    """Knobs for the iterative solver; defaults suit the model's spectra.

    residual_tol and block_size apply to block Lanczos only; residual_tol
    is relative to the Frobenius norm of the operator.  max_iterations
    caps Lanczos block steps (default 10 * dim) and ARPACK restarts
    (ARPACK's default when None).  Which solver :func:`solve_lowest` runs
    is not an option: it follows ``DENSE_SOLVE_MAX_DIM``.
    """

    k: int = 6
    residual_tol: float = 1e-10
    max_iterations: int | None = None
    block_size: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def validate(self, dim: int) -> None:
        if not 1 <= self.k <= dim:
            raise ValidationError(f"k must be in [1, {dim}], got {self.k}")


@dataclass
class SpectrumResult:
    """Ascending low-lying eigenvalues plus solver metadata.

    labels, when a caller knows them, give each level's symmetry block
    (s, r): s the parity sector m + S = s (mod 2), and r the eigenvalue of
    R = (-1)^n J, J|m> = |-m>, or 0 where R is not resolved
    (``diagnostics.lowest_levels`` fills them in).  For odd S this r is
    minus the eigenvalue of ``model.symmetry_operator``, which carries the
    spin factor's sign (-1)^S: tables labelled by that operator show r
    flipped at N = 14, 18, ....
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    solver: str
    iterations: int
    residual_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    converged: bool = True
    labels: tuple[tuple[int, int], ...] = ()


def as_matrix(H):
    """H as a scipy CSR matrix (from a SparseOperator or any scipy sparse matrix) or a float ndarray.

    Every solver entry point converts its operator here, once; a dense
    array stays dense.  Raises ValidationError unless H is square.
    """
    if isinstance(H, SparseOperator):
        A = H.to_csr()
    elif scipy.sparse.issparse(H):
        A = H.tocsr()
    else:
        A = np.asarray(H, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    return A


def frobenius_norm(A) -> float:
    """Frobenius norm of a sparse or dense matrix."""
    return float(np.linalg.norm(A.data if scipy.sparse.issparse(A) else A))


def dense_spectrum(
    H,
    k: int,
    *,
    dense_threshold: int = DEFAULT_DENSE_THRESHOLD,
    override: bool = False,
    want_vectors: bool = True,
) -> SpectrumResult:
    """First k eigenpairs from a full symmetric eigendecomposition."""
    A = as_matrix(H)
    if scipy.sparse.issparse(A):
        A = A.toarray()
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
    H = as_matrix(H)
    dim = H.shape[0]
    opts.validate(dim)
    if opts.block_size < 2:
        raise ValidationError(f"block_size must be >= 2, got {opts.block_size}")
    k = opts.k
    rng = np.random.default_rng(opts.seed)
    scale = frobenius_norm(H) or 1.0
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


def _gershgorin_shift(ab: np.ndarray) -> float:
    """A shift strictly below the spectrum of the symmetric matrix with lower band array ab.

    No eigenvalue is below min_i(a_ii - sum_{j != i} |a_ij|) (Gershgorin);
    the shift sits a further 1 % of max(1, |bound|) below that bound.  Band
    row k holds the entries k left of the diagonal and, mirrored, k right.
    """
    dim = ab.shape[1]
    radius = np.zeros(dim)
    for k, row in enumerate(np.abs(ab[1:]), start=1):
        radius[k:] += row[: dim - k]
        radius[: dim - k] += row[: dim - k]
    bound = float(np.min(ab[0] - radius))
    return bound - 1e-2 * max(1.0, abs(bound))


def _no_matvec(x: np.ndarray) -> np.ndarray:
    raise AssertionError("shift-invert eigsh applies OPinv only")


def _shift_and_factor(ab: np.ndarray, guess: float | None) -> tuple[float, tuple]:
    """A shift sigma below the spectrum of ab and the ``cho_solve_banded`` factor of H - sigma I.

    Given a guess at or above the lowest level, sigma = guess - delta with
    delta = 1e-3 max(1, |guess|), widened x10 while ``cholesky_banded``
    fails, three tries at most and never past :func:`_gershgorin_shift`,
    which is the fallback.  A factor that succeeds proves sigma below the
    spectrum, so no guess can give a wrong level; a failing fallback raises
    ``numpy.linalg.LinAlgError``.
    """

    def factor(sigma: float) -> tuple:
        shifted = np.vstack([ab[:1] - sigma, ab[1:]])
        return scipy.linalg.cholesky_banded(shifted, lower=True, check_finite=False), True

    floor = _gershgorin_shift(ab)
    shifts = []
    if guess is not None:
        delta = 1e-3 * max(1.0, abs(guess))
        shifts = [guess - delta * 10.0**i for i in range(3)]
    for sigma in [x for x in shifts if x > floor]:
        try:
            return sigma, factor(sigma)
        except np.linalg.LinAlgError:
            pass
    return floor, factor(floor)


def solve_lowest(
    ab: np.ndarray, opts: SolverOptions | None = None, *,
    want_vectors: bool = True, guess: float | None = None,
) -> SpectrumResult:
    """Lowest opts.k eigenpairs: banded LAPACK up to ``DENSE_SOLVE_MAX_DIM`` rows, else ARPACK.

    ab is the lower band array ab[i, c] = H[c + i, c] of symmetric H.  The
    small blocks, and requests of k >= dim - 1 (ARPACK needs k < dim - 1),
    go to ``scipy.linalg.eig_banded`` for the k lowest pairs (solver
    "dense").  ARPACK runs in shift-invert mode around sigma from
    :func:`_shift_and_factor`, below the spectrum, so the k eigenvalues
    nearest sigma are the k lowest; guess, an upper estimate of the lowest
    level such as the cutoff search's previous E0, moves sigma up to it.
    ARPACK sees H only through its shape and ``OPinv``, which applies the
    banded Cholesky factor of H - sigma I by ``cho_solve_banded``, as often
    as ``iterations`` counts.  It starts from a vector drawn from ``seed``
    and iterates to machine precision; if it runs out of restarts, the Ritz
    pairs that did converge come back with converged=False.  Residuals
    come from BLAS ``dsbmv`` (zeros for dense eigenvalues without vectors).
    Plain Lanczos keeps one copy of each eigenvalue: pass one sector.
    """
    if opts is None:
        opts = SolverOptions()
    ab = np.asarray(ab, dtype=float)
    dim, k = ab.shape[1], opts.k
    opts.validate(dim)
    applied, converged = 0, True
    if dim <= DENSE_SOLVE_MAX_DIM or k >= dim - 1:
        out = scipy.linalg.eig_banded(
            ab, lower=True, eigvals_only=not want_vectors, select="i",
            select_range=(0, k - 1), check_finite=False,
        )
        evals, evecs = out if want_vectors else (out, None)
        solver = "dense"
    else:
        sigma, factor = _shift_and_factor(ab, guess)

        def apply_inverse(x: np.ndarray) -> np.ndarray:
            nonlocal applied
            applied += 1
            return scipy.linalg.cho_solve_banded(factor, x, check_finite=False)

        shape_only = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=_no_matvec, dtype=float)
        inverse = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=apply_inverse, dtype=float)
        rng = np.random.default_rng(opts.seed)
        try:
            evals, evecs = scipy.sparse.linalg.eigsh(
                shape_only, k=k, sigma=sigma, which="LM", tol=0, OPinv=inverse,
                maxiter=opts.max_iterations, v0=rng.uniform(-1.0, 1.0, dim), rng=rng,
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            evals, evecs = exc.eigenvalues, exc.eigenvectors
            converged = False
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        solver = "eigsh"
    residuals = np.zeros(evals.size)
    if evecs is not None:
        Hv = np.empty_like(evecs)
        for j, x in enumerate(evecs.T):
            Hv[:, j] = scipy.linalg.blas.dsbmv(ab.shape[0] - 1, 1.0, ab, x, lower=1)
        residuals = np.linalg.norm(Hv - evecs * evals, axis=0)
    return SpectrumResult(
        eigenvalues=evals,
        eigenvectors=evecs if want_vectors else None,
        solver=solver,
        iterations=applied,
        residual_norms=residuals,
        converged=converged,
    )
