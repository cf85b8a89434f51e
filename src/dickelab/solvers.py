"""Lowest-eigenpair solvers for real-symmetric operators.

:func:`solve_lowest` is the production route.  It takes one symmetry
block of the model (see ``diagnostics.lowest_levels``) as the lower band
array that ``model.symmetry_block`` builds, and solves it with banded
LAPACK (``scipy.linalg.eig_banded``) up to ``DENSE_SOLVE_MAX_DIM`` rows,
above with ARPACK (``scipy.sparse.linalg.eigsh``) in shift-invert mode
through a banded Cholesky factor, shifted just below a caller's estimate
of the lowest level when there is one (the cutoff search passes the
previous cutoff's E0), else below the Gershgorin bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ValidationError

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

    max_iterations caps ARPACK restarts (ARPACK's default when None) and
    the block steps of ``reference.lanczos_lowest``.  Which solver
    :func:`solve_lowest` runs is not an option: it follows
    ``DENSE_SOLVE_MAX_DIM``.
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
    minus the eigenvalue of ``reference.symmetry_operator``, which carries
    the spin factor's sign (-1)^S: tables labelled by that operator show r
    flipped at N = 14, 18, ....
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    solver: str
    iterations: int
    residual_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    converged: bool = True
    labels: tuple[tuple[int, int], ...] = ()


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
