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
reorthogonalization, run as Rayleigh-Ritz on its orthogonal block Krylov
basis) remain as references; they take a scipy sparse matrix or a dense
array, converted once by :func:`as_matrix`, and always return vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ResourceError, ValidationError

DEFAULT_DENSE_THRESHOLD = 4000  # dense_spectrum's guard: larger matrices need a larger dense_threshold
LANCZOS_BLOCK = 4  # lanczos_lowest's block width; >= 2 keeps degenerate doublets
LANCZOS_RESIDUAL_TOL = 1e-10  # lanczos_lowest's residual tolerance, relative to ||H||_F
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
    """How many levels to solve for, the iteration budget and the start-vector seed.

    max_iterations caps Lanczos block steps (default 10 * dim) and ARPACK
    restarts (ARPACK's default when None).  Which solver
    :func:`solve_lowest` runs is not an option: it follows
    ``DENSE_SOLVE_MAX_DIM``; Lanczos's block width and residual tolerance
    are the constants ``LANCZOS_BLOCK`` and ``LANCZOS_RESIDUAL_TOL``.
    """

    k: int = 6
    max_iterations: int | None = None
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
    """H as a scipy CSR matrix (from any scipy sparse matrix) or a float ndarray.

    Every solver entry point converts its operator here, once; a dense
    array stays dense.  Raises ValidationError unless H is square.
    """
    if scipy.sparse.issparse(H):
        A = H.tocsr()
    else:
        A = np.asarray(H, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    return A


def frobenius_norm(A) -> float:
    """Frobenius norm of a sparse or dense matrix."""
    return float(np.linalg.norm(A.data if scipy.sparse.issparse(A) else A))


def dense_spectrum(H, k: int, *, dense_threshold: int = DEFAULT_DENSE_THRESHOLD) -> SpectrumResult:
    """First k eigenpairs from a full symmetric eigendecomposition, refused above dense_threshold rows."""
    A = as_matrix(H)
    if scipy.sparse.issparse(A):
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


def lanczos_lowest(H, opts: SolverOptions | None = None) -> SpectrumResult:
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
    the block steps but is checked only once k Ritz pairs exist; running
    out returns converged=False with the best residuals.
    """
    if opts is None:
        opts = SolverOptions()
    H = as_matrix(H)
    dim = H.shape[0]
    opts.validate(dim)
    k = opts.k
    rng = np.random.default_rng(opts.seed)
    scale = frobenius_norm(H) or 1.0
    tol_abs = LANCZOS_RESIDUAL_TOL * scale
    max_iter = opts.max_iterations if opts.max_iterations is not None else 10 * dim

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
            if room == 0 or np.all(resid <= tol_abs) or iterations >= max_iter:
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
        converged=bool(np.all(resid <= tol_abs)),
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
