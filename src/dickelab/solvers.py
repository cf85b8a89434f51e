"""Lowest levels of real-symmetric band matrices, and the vector of one level.

:func:`solve_lowest` is the production route.  It takes one symmetry
block of the model (see ``diagnostics.lowest_levels``) as the lower band
array that ``model.symmetry_block`` builds, and solves it with LAPACK
``dsbevx`` up to ``DENSE_SOLVE_MAX_DIM`` rows, above by Lanczos on
(H - sigma)^-1 (spectral transformation, Ericsson & Ruhe, Math. Comp. 35,
1251 (1980)) through a banded Cholesky factor of H - sigma.  sigma sits
just below a caller's estimate of the lowest level when there is one
(the cutoff search passes the previous cutoff's E0), else at the caller's
proved floor (``lowest_levels`` passes one from the spin model).

It returns levels only: :func:`level_vector` is the one way to a level's
vector, by inverse iteration on the band array the level was solved on.

The LAPACK routines come from scipy's ``_flapack`` extension module,
loaded from its file so that the ``scipy.linalg`` package, whose import
costs about 0.3 s, is never imported; where that load fails they come
from ``scipy.linalg.lapack``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _load_lapack():
    """scipy's ``_flapack`` module, loaded without importing ``scipy.linalg``.

    It is loaded from its file under its own name and entered in
    ``sys.modules``, so a later ``import scipy.linalg`` takes the same
    module object.  Where scipy's layout differs, ``scipy.linalg.lapack``
    is imported instead; it re-exports the same routines.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    dirs = (scipy.submodule_search_locations or [])[:1] if scipy else []  # none where scipy is no package
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    files = [os.path.join(d, "linalg", "_flapack" + suffix) for d in dirs for suffix in suffixes]
    try:
        path = next(f for f in files if os.path.isfile(f))
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
    except (StopIteration, ImportError, OSError):
        from scipy.linalg import lapack

        return lapack
    sys.modules[name] = module
    return module


lapack = _load_lapack()

DENSE_SOLVE_MAX_DIM = 400
"""Path choice, not a guard: :func:`solve_lowest` runs ``dsbevx`` up to this many rows, Lanczos above.

Median ms of 15 calls for k = 6 levels without vectors on sector blocks
(N = 16, u/v = 0.5 and N = 12, u/v = 0.9; 2-vCPU Xeon VM, OpenBLAS on one
thread).  The floor is the spin-model shift that ``lowest_levels`` passes
for a point's first solve; the hint is E0 at half the cutoff:

    rows   dsbevx   Lanczos, floor shift   Lanczos, hinted shift
     207     1.6            3.1                    2.3
     324     3.7            3.9                    3.6
     405     5.8            3.7                    2.7
     637    10.5            8.2                    3.1
    1267    39.8           12.0                    4.6

On the even-N (s, r) blocks, about half the bandwidth of a sector,
``dsbevx`` is cheaper per row (N = 16, u/v = 0.5 and 0.9, N = 12,
u/v = 0.9, block (0, +); same machine):

    rows   dsbevx   Lanczos, floor shift   Lanczos, hinted shift
     162     0.9            2.9                    2.4
     320     2.4            3.2                    2.8
     401     3.4            5.5                    2.2
     509     4.9            5.7                    2.3
     634     6.8            4.3                    2.3
    1013    18.0            7.7                    3.2

First solves cross over near 400 rows on sectors and 500-600 on (s, r)
blocks, hinted solves near 300-400, so one constant of 400 serves both.
"""

LANCZOS_MAX_STEPS = 400
"""Lanczos steps :func:`solve_lowest` takes at most before it returns its best values unconverged."""

RITZ_CHECK_EVERY = 2
"""Lanczos steps between two Ritz checks of :func:`solve_lowest`."""


def check_request(k: int, seed: int, dim: int) -> None:
    """Raise ``ValidationError`` unless 1 <= k <= dim and seed >= 0."""
    if not 1 <= k <= dim:
        raise ValidationError(f"k must be in [1, {dim}], got {k}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


@dataclass
class SpectrumResult:
    """Ascending low-lying eigenvalues plus solver metadata.

    labels, when a caller knows them, give each level's symmetry block
    (s, r): s the parity sector m + S = s (mod 2), and r the eigenvalue of
    R = (-1)^n J, J|m> = |-m>, or 0 where R is not resolved
    (``diagnostics.lowest_levels`` fills them in).  For odd S this r is
    minus the eigenvalue of ``reference.symmetry_operator``, which carries
    the spin factor's sign (-1)^S: tables labelled by that operator show r
    flipped at N = 14, 18, ....  Only the reference solvers of ``reference``
    set eigenvectors and their residual_norms.
    """

    eigenvalues: np.ndarray
    solver: str
    iterations: int
    converged: bool = True
    labels: tuple[tuple[int, int], ...] = ()
    eigenvectors: np.ndarray | None = None
    residual_norms: np.ndarray | None = None


def _shift_and_factor(ab: np.ndarray, guess: float | None, floor: float) -> tuple[float, np.ndarray]:
    """A shift sigma below the spectrum of ab and the ``dpbtrf`` factor of H - sigma I.

    floor is a caller's proved lower bound, below the spectrum.  Given a
    guess at or above the lowest level, sigma = guess - delta with
    delta = 1e-3 max(1, |guess|), widened x10 once if ``dpbtrf`` fails, two
    tries at most and never past the floor, which is the last shift tried.
    A factor that succeeds proves sigma below the spectrum, so no guess can
    give a wrong level; a failing floor raises ``numpy.linalg.LinAlgError``.
    """

    def factor(sigma: float) -> np.ndarray:
        shifted = np.array(ab, order="F")
        shifted[0] -= sigma
        c, info = lapack.dpbtrf(shifted, lower=1, overwrite_ab=1)
        if info:
            raise np.linalg.LinAlgError(f"{info}-th leading minor of H - sigma not positive definite")
        return c

    shifts = []
    if guess is not None:
        delta = 1e-3 * max(1.0, abs(guess))
        shifts = [guess - delta, guess - 10.0 * delta]
    for sigma in [x for x in shifts if x > floor]:
        try:
            return sigma, factor(sigma)
        except np.linalg.LinAlgError:
            pass
    return floor, factor(floor)


def _uniform_vector(rng: random.Random, dim: int) -> np.ndarray:
    """dim values uniform on [-1, 1) from rng, the standard library's generator.

    Importing numpy's generator costs about 13 ms.  This is the start-vector
    rule of both hand-written iterations: a fixed start such as all ones is
    orthogonal to whole symmetry classes of vectors.
    """
    return np.frombuffer(rng.randbytes(8 * dim), np.uint64) * 2.0**-63 - 1.0


def _lanczos_largest(apply, dim: int, k: int, rng: random.Random) -> tuple[np.ndarray, bool]:
    """The k largest Ritz values (descending) of the positive definite operator ``apply``.

    Plain Lanczos from a random vector, :func:`_uniform_vector` of rng,
    each new vector orthogonalized twice against the whole basis
    (classical Gram-Schmidt twice, as ARPACK's dsaitr does).  Where the
    second pass leaves less than 0.717 of what the first left, the Krylov
    space is invariant: its coupling beta is set to 0, and, with fewer
    than k Ritz pairs, the recurrence goes on from a new random vector.
    Every ``RITZ_CHECK_EVERY`` steps from the k-th on, at an invariant
    space and at the last step, LAPACK ``dstemr`` (MRRR, O(m k) for k of
    the m levels, against O(m^3) for all of them by ``dstev``) finds the k
    largest eigenpairs (theta_i, s_i) of the tridiagonal T; the Ritz
    values have converged once |beta s_last,i| <= eps |theta_i|, the rule
    ARPACK applies at tol = 0.
    At most min(``LANCZOS_MAX_STEPS``, dim) steps (one at least); if they
    run out, the largest min(k, steps taken) values come back with
    converged False.
    """
    cap = max(1, min(LANCZOS_MAX_STEPS, dim))
    eps = lapack.dlamch("e")
    Q = np.empty((min(cap, 32), dim))  # the basis, one vector a row
    alpha, beta = np.zeros(cap), np.zeros(cap)

    def fresh(basis: np.ndarray) -> np.ndarray:
        q = _uniform_vector(rng, dim)
        for _ in range(2):
            q -= (basis @ q) @ basis
        return q / np.linalg.norm(q)

    def ritz(m: int) -> tuple[np.ndarray, np.ndarray]:
        # dstemr overwrites its inputs and reads only the first m - 1 couplings
        found, theta, S, info = lapack.dstemr(
            alpha[:m].copy(), beta[:m].copy(), 2, 0.0, 0.0, max(m - k, 0) + 1, m, compute_v=1
        )
        if info:
            raise np.linalg.LinAlgError(f"dstemr failed on the Lanczos tridiagonal (info {info})")
        return theta[found - 1 :: -1], np.abs(beta[m - 1] * S[-1, found - 1 :: -1])

    Q[0] = fresh(Q[:0])
    m = 0  # steps taken
    while True:
        basis = Q[: m + 1]
        w = apply(basis[m])
        h = basis @ w
        w -= h @ basis
        first = np.linalg.norm(w)
        c = basis @ w
        w -= c @ basis
        alpha[m], beta[m] = h[m] + c[m], np.linalg.norm(w)
        invariant = beta[m] <= 0.717 * first
        if invariant:
            beta[m] = 0.0
        m += 1
        if m == cap or (m >= k and (invariant or (m - k) % RITZ_CHECK_EVERY == 0)):
            theta, estimate = ritz(m)
            converged = m >= k and bool(np.all(estimate <= eps * theta))
            if converged or m == cap:
                return theta, converged
        if m == Q.shape[0]:
            Q = np.concatenate([Q, np.empty((min(cap, 2 * m) - m, dim))])
        Q[m] = fresh(Q[:m]) if invariant else w / beta[m - 1]


def solve_lowest(
    ab: np.ndarray, k: int = 6, *, seed: int = 0, guess: float | None = None, floor: float | None = None
) -> SpectrumResult:
    """Lowest k eigenvalues: LAPACK ``dsbevx`` up to ``DENSE_SOLVE_MAX_DIM`` rows, else shift-invert Lanczos.

    ab is the lower band array ab[i, c] = H[c + i, c] of symmetric H.  The
    small blocks, and requests of k >= dim - 1 (for which Lanczos would
    span nearly the whole space), go to ``dsbevx`` for the k lowest levels
    (solver "dense"), called with the arguments ``scipy.linalg.eig_banded``
    passes it for eigenvalues only.  Above, Lanczos runs on (H - sigma)^-1 (solver
    "shift-invert") around sigma from :func:`_shift_and_factor`, below the
    spectrum, so the k largest eigenvalues theta of the inverse give the
    k lowest levels sigma + 1/theta.  guess, an upper estimate of the
    lowest level such as the cutoff search's previous E0, moves sigma up to
    it; floor, a proved lower bound, is where sigma goes without a usable
    guess, and a block that goes to Lanczos without one raises
    ``ValidationError`` (the dense path needs none).  The inverse is
    applied by LAPACK ``dpbtrs`` on the banded Cholesky factor of
    H - sigma I, as often as ``iterations`` counts, starting from a vector
    drawn from ``seed``, until the Ritz values are converged to machine
    precision or ``LANCZOS_MAX_STEPS`` steps run out; then the best values
    come back with converged=False.  k outside [1, dim] or a negative seed
    raises ``ValidationError`` on either path.  Plain Lanczos keeps one
    copy of each eigenvalue: pass one sector.
    """
    ab = np.asarray(ab, dtype=float)
    dim = ab.shape[1]
    check_request(k, seed, dim)
    applied, converged = 0, True
    if dim <= DENSE_SOLVE_MAX_DIM or k >= dim - 1:
        evals, _, found, _, info = lapack.dsbevx(
            ab, 0.0, 1.0, 1, k, compute_v=0, mmax=1, range=2, lower=1, abstol=2 * lapack.dlamch("s")
        )
        if info:
            raise np.linalg.LinAlgError(f"dsbevx failed to converge ({info})")
        evals = evals[:found]
        solver = "dense"
    else:
        if floor is None:
            raise ValidationError(f"shift-invert on {dim} rows needs a floor: a proved lower bound on H")
        sigma, factor = _shift_and_factor(ab, guess, floor)

        def apply_inverse(x: np.ndarray) -> np.ndarray:
            nonlocal applied
            applied += 1
            y, info = lapack.dpbtrs(factor, x, lower=1)
            if info:
                raise ValueError(f"illegal value in argument {-info} of dpbtrs")
            return y

        theta, converged = _lanczos_largest(apply_inverse, dim, k, random.Random(seed))
        evals = sigma + 1.0 / theta
        solver = "shift-invert"
    return SpectrumResult(eigenvalues=evals, solver=solver, iterations=applied, converged=converged)


def level_vector(ab: np.ndarray, level: float) -> np.ndarray:
    """The unit vector of ``level``, as :func:`solve_lowest` found it in the band array ab, by inverse iteration.

    O(n b^2) with no eigensolve: one LAPACK ``dgbtrf`` factor of
    H - (level - delta) I, delta = 1e-9 max(1, |level|), in general band
    storage (kl = ku = b, the bandwidth), then two ``dgbtrs`` solves from
    :func:`_uniform_vector` of a fixed seed, normalised after each.  Each
    solve shrinks another level's component by delta over its distance, so
    levels of ab a small multiple of delta apart are not resolved.  A singular factor raises
    ``numpy.linalg.LinAlgError``.
    """
    b, dim = ab.shape[0] - 1, ab.shape[1]
    gb = np.zeros((3 * b + 1, dim), order="F")  # H[i, j] at row 2b + i - j; rows < b take the fill-in
    gb[2 * b :] = ab
    gb[2 * b] -= level - 1e-9 * max(1.0, abs(level))
    for d in range(1, b + 1):
        gb[2 * b - d, d:] = ab[d, : dim - d]
    lu, piv, info = lapack.dgbtrf(gb, b, b, overwrite_ab=1)
    if info:
        raise np.linalg.LinAlgError(f"H - sigma is singular at pivot {info}")
    x = _uniform_vector(random.Random(0), dim)[:, None]
    for _ in range(2):
        x, _ = lapack.dgbtrs(lu, b, b, x, piv, overwrite_b=1)
        x /= np.linalg.norm(x)
    return x[:, 0]
