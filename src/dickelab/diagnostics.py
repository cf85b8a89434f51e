"""Spectrum observables and verification checks.

Turns raw eigenvalues into the two observables of interest, the tunnel
splitting d = E1 - E0 and the gap Delta = E2 - E1, classifies spectral
degeneracies (the even/odd atom-number parity effect shows up as exact
pairing for odd N), controls the Fock truncation, and cross-checks the
full diagonalization against the displaced-frame spin model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solvers
from .errors import ResourceError, ValidationError
from .model import ModelParams, spin_skeleton, symmetry_block, symmetry_block_basis
from .solvers import SpectrumResult, lapack, level_vector, solve_lowest

_NEG_CLIP = 1e-12
DEFAULT_MAX_DIM = 200_000
# float64 spacings of |E0| below which two computed levels are not resolved
RESOLUTION_FLOOR_ULPS = 32
_EPS = float(np.finfo(float).eps)


def resolution_floor(E0: float) -> float:
    """Smallest level spacing float64 resolves at energy scale E0: 32 eps |E0|, at least 1e-15."""
    return max(RESOLUTION_FLOOR_ULPS * _EPS * abs(E0), 1e-15)


@dataclass(frozen=True)
class SplittingGap:
    """Tunnel splitting d = E1 - E0 and gap Delta = E2 - E1."""

    d: float
    Delta: float


def _level_list(eigs) -> list[float]:
    """eigs as a list of Python floats: a list of floats as it is, anything else through numpy.

    The levels must be one-dimensional, else ValidationError.
    """
    if type(eigs) is list and all(type(x) is float for x in eigs):
        return eigs
    e = np.asarray(eigs, dtype=float)
    if e.ndim != 1:
        raise ValidationError(f"eigenvalues must be one-dimensional, got shape {e.shape}")
    return e.tolist()


def splitting_and_gap(eigs) -> SplittingGap:
    """Observables from an ascending spectrum; needs at least 3 values.

    Negative differences within solver noise (1e-12) are clipped to 0.
    """
    e = _level_list(eigs)
    if len(e) < 3:
        raise ValidationError(f"need at least 3 ascending eigenvalues, got {len(e)}")
    d = e[1] - e[0]
    Delta = e[2] - e[1]
    if d < -_NEG_CLIP or Delta < -_NEG_CLIP:
        raise ValidationError("eigenvalues are not ascending")
    return SplittingGap(d=max(d, 0.0), Delta=max(Delta, 0.0))


@dataclass(frozen=True)
class DegeneracyReport:
    """Greedy clustering of a spectrum into near-degenerate classes."""

    classes: tuple[tuple[float, int], ...]
    pairing_ok: bool
    max_intra_class_spread: float


def degeneracy_classes(eigs, cluster_tol: float) -> DegeneracyReport:
    """Cluster ascending eigenvalues: a gap > cluster_tol starts a new class.

    pairing_ok is True iff every class has even multiplicity.
    """
    e = _level_list(eigs)
    if not e:
        return DegeneracyReport(classes=(), pairing_ok=True, max_intra_class_spread=0.0)
    if any(b - a < -_NEG_CLIP for a, b in zip(e, e[1:])):
        raise ValidationError("eigenvalues must be ascending")
    classes: list[tuple[float, int]] = []
    start = 0
    spread = 0.0
    for i in range(1, len(e) + 1):
        if i == len(e) or e[i] - e[i - 1] > cluster_tol:
            classes.append((e[start], i - start))
            spread = max(spread, e[i - 1] - e[start])
            start = i
    pairing_ok = all(mult % 2 == 0 for _, mult in classes)
    return DegeneracyReport(
        classes=tuple(classes), pairing_ok=pairing_ok, max_intra_class_spread=spread
    )


def _sector_pieces(ab: np.ndarray) -> list[tuple[slice, np.ndarray]]:
    """(rows, band array) of each uncoupled piece of a sector, the block (s, 0), by first row.

    A zero coupling row w (g = 0) leaves a spin block per n, rows n w ..
    n w + w - 1; a zero spin row 1 (v = 0) a chain per m_j, rows j, j + w,
    ...; both leave no piece holding a level twice: one row each.
    """
    w = ab.shape[0] - 1
    if not ab[1:].any():
        return [(slice(c, c + 1), ab[:1, c : c + 1]) for c in range(ab.shape[1])]
    if not ab[w].any():
        return [(slice(c, c + w), ab[:2, c : c + w]) for c in range(0, ab.shape[1], w)]
    if not ab[1].any():
        return [(slice(j, None, w), ab[[0, w], j::w]) for j in range(w)]
    return [(slice(None), ab)]


def _blocks(p: ModelParams, M: int):
    """(label, rows, band array) of each piece :func:`lowest_levels` solves.

    The label is (s, r): the sector m + S = s (mod 2), and the eigenvalue
    r of R = (-1)^n J where the block has one, else 0.  A block (s, 0) is
    solved one uncoupled piece, rows ``rows`` of the block, at a time.
    """
    if p.N % 2 == 0 and p.g != 0 and p.v != 0:
        for s in (0, 1):
            for r in (1, -1):
                yield (s, r), slice(None), symmetry_block(p, M, s, r)
        return
    for s in (0,) if p.N % 2 else (0, 1):
        for rows, piece in _sector_pieces(symmetry_block(p, M, s, 0)):
            yield (s, 0), rows, piece


def _shift_floor(p: ModelParams) -> float:
    """A shift below the spectrum of every block :func:`_blocks` yields, at any cutoff: eps0 - 1e-3 max(1, |eps0|).

    eps0 is the spin model's ground level, ``spin_model_spectrum(p, 1)[0]``.
    With b = a + (g / omega) Sz, which commutes with Sz,
    omega a^dag a + g (a^dag + a) Sz = omega b^dag b - u Sz^2, so
    H = omega b^dag b - u Sz^2 - v Sx^2 exactly.  Truncating to n <= M
    compresses omega b^dag b, which stays positive semidefinite, while the
    spin part acts inside the truncated space and maps each block (and
    each uncoupled piece) onto itself; so no block level lies below eps0.
    The bound is attained at g = 0, by the n = 0 piece that holds the spin
    ground state, hence the margin, which also covers eps0's rounding.
    """
    eps0 = float(spin_model_spectrum(p, 1)[0])
    return eps0 - 1e-3 * max(1.0, abs(eps0))


def lowest_levels(p: ModelParams, M: int, k: int, *, seed: int = 0) -> SpectrumResult:
    """Lowest k levels of the full model at Fock cutoff M, solved block by block.

    H conserves (-1)^(m+S), so each parity sector m + S = s (mod 2) is
    solved on its own, never the whole H.  At even N, with g and v nonzero,
    the joint parity R = (-1)^n J (J|m> = |-m>) maps each sector onto
    itself, so the solves are the four (s, r = +/-1) blocks of
    :func:`~dickelab.model.symmetry_block`, each about half the rows and
    half the bandwidth of a sector.  Otherwise each sector is the block
    (s, 0) of the same function, solved one uncoupled piece at a time
    (:func:`_sector_pieces`: g = 0 or v = 0); keeping
    degenerate and decoupled levels in separate solves keeps the Lanczos
    solve, which finds one copy of each level, from missing them.  For
    odd N, R swaps the two sectors, so only s = 0 is solved and each level
    is reported twice: the odd-N doublet is exact by construction.  The
    result's ``labels`` give each level's (s, r), r = 0 where the solve
    does not resolve R (odd N, g = 0, v = 0).
    Each block above ``DENSE_SOLVE_MAX_DIM`` rows shifts at
    :func:`_shift_floor`, a proved floor; this function takes no shift
    hint (:func:`_solve_blocks` does).  seed draws each Lanczos start
    vector; k outside [1, dim] or a negative seed raises
    ``ValidationError``.
    """
    return _solve_blocks(p, M, k, seed=seed)[0]


def _solve_blocks(
    p: ModelParams, M: int, k: int, *, seed: int = 0, guess: float | None = None
) -> tuple[SpectrumResult, list[tuple[tuple[int, int], slice, np.ndarray, np.ndarray]]]:
    """:func:`lowest_levels`, and (label, rows, band array, levels) of each block it solved, in solve order.

    guess, an upper estimate of E0 such as :func:`converge_cutoff`'s E0
    at the previous cutoff, goes to every :func:`~dickelab.solvers.solve_lowest`
    as its shift hint; a solve without a usable one, such as a point's
    first, shifts at the floor, computed once a call.  The band arrays go
    to the callers that need a level's vector, never onto the result,
    which every sweep row keeps.
    """
    dim = (M + 1) * (p.N + 1)
    if k < 1 or k > dim:
        raise ValidationError(f"k must be in [1, {dim}], got {k}")
    odd = p.N % 2 == 1
    k_block = -(-k // 2) if odd else k
    results, solved = [], []
    floor = None
    for label, rows, ab in _blocks(p, M):
        if not ab.shape[1]:
            continue  # the empty block (1, -1) of N = 2 at M = 0
        if floor is None and ab.shape[1] > solvers.DENSE_SOLVE_MAX_DIM:
            floor = _shift_floor(p)  # only the Lanczos path shifts
        results.append(solve_lowest(ab, min(k_block, ab.shape[1]), seed=seed, guess=guess, floor=floor))
        solved.append((label, rows, ab, results[-1].eigenvalues))
    values = [levels for *_, levels in solved]
    labels = [label for label, *_, levels in solved for _ in levels]
    if odd:  # the unsolved s = 1 sector holds the mirror images
        values *= 2
        labels += [(1, 0)] * len(labels)

    # stable sort: an odd-N mirror lands right after its original
    order = np.argsort(np.concatenate(values), kind="stable")[:k]
    spectrum = SpectrumResult(
        eigenvalues=np.concatenate(values)[order],
        solver="+".join(dict.fromkeys(r.solver for r in results)),
        iterations=sum(r.iterations for r in results),
        converged=all(r.converged for r in results),
        labels=tuple(labels[i] for i in order),
    )
    return spectrum, solved


@dataclass(frozen=True)
class ConvergenceReport:
    """Accepted Fock cutoff, the search history that justified it, and the solve at M*.

    converged reports whether the solve that accepted M* converged: the
    one at 2M* where the comparison accepted it, the one at M* where the
    Kato-Temple bound certified it.  bound is that certified bound on how
    far the compared levels at M* sit above the uncut model's, NaN where
    the comparison accepted M*.
    """

    M_star: int
    history: tuple[tuple[int, float, float, float], ...]
    converged: bool
    spectrum: SpectrumResult
    bound: float


def initial_cutoff(p: ModelParams) -> int:
    """Start value for the cutoff search: ceil(4 g^2 <Sz^2>* / omega^2) + 10.

    The cavity holds about g^2 <Sz^2> / omega^2 photons, with <Sz^2>*
    the semiclassical estimate of <Sz^2> in the ground state.  For u >= v
    the wells sit at the poles, Sz = +/-S, and <Sz^2>* = S^2.  For u < v
    they sit on the equator, Sz = 0, and <Sz^2>* is the harmonic
    (Holstein-Primakoff) fluctuation (S/2) sqrt(v / (v - u)) about it,
    capped at S^2.  The factor 4 and the +10 floor are margin.
    """
    sz2 = p.S**2
    if p.u < p.v:
        sz2 = min(sz2, p.S / 2 * math.sqrt(p.v / (p.v - p.u)))
    # sqrt(S^2) == S exactly, so u >= v gives ceil(4 (g S / omega)^2) + 10 bit for bit
    return math.ceil(4.0 * (p.g * math.sqrt(sz2) / p.omega) ** 2) + 10


def _temple_bound(p: ModelParams, M: int, res: SpectrumResult, blocks, k: int) -> float:
    """Kato-Temple bound on how far the k lowest levels of ``res``, the :func:`lowest_levels` solve at M, sit above the uncut model's.

    res and blocks are as :func:`_solve_blocks` returns them.  Level E_i of
    block (s, r) (its label) has the block vector x,
    :func:`~dickelab.solvers.level_vector` on the block's band array, padded
    with zeros past n = M.  In the uncut H its only residual is the coupling
    out of the top level, rho_i = |g| sqrt(M + 1) ||m x(n = M)||, with m the
    Sz value of each top-level row.  gap_i is the next level of the same
    block in ``res``, or the highest level of ``res`` where the block has
    none there (a lower value).  Temple's bound (Proc. R. Soc. A 119, 276
    (1928); Kato, J. Phys. Soc. Jpn. 4, 334 (1949)) then puts the uncut
    level within rho_i^2 / gap_i below E_i, provided gap_i is no more than
    the exact next level's distance.  The computed next level is only an
    upper bound on the exact one (Cauchy interlacing), so the bound is
    stated, not proved.  Returns max_i rho_i^2 / gap_i plus
    :func:`resolution_floor` of E0, the float64 rounding of the levels
    themselves; inf where some rho_i >= gap_i, where a factor is singular,
    and on the g = 0 and v = 0 lines, whose blocks (s, 0) are solved as
    pieces the labels do not name.  Odd-N mirrors, label (1, 0), share their
    original's bound and are skipped.
    """
    if p.g == 0 or p.v == 0:
        return math.inf
    e, labels = res.eigenvalues, res.labels
    bands = {label: ab for label, _, ab, _ in blocks}  # one block a label off the g = 0 and v = 0 lines
    bound = 0.0
    for i in range(min(k, e.size)):
        label, E = labels[i], float(e[i])
        if label == (1, 0):
            continue
        above = next((j for j in range(i + 1, e.size) if labels[j] == label), -1)
        gap = float(e[above]) - E
        try:
            x = level_vector(bands[label], E)
        except np.linalg.LinAlgError:
            return math.inf
        n, col = symmetry_block_basis(p, M, *label)
        top = n == M
        rho = abs(p.g) * math.sqrt(M + 1) * float(np.linalg.norm((col[top] - p.S) * x[top]))
        if not rho < gap:
            return math.inf
        bound = max(bound, rho**2 / gap)
    return bound + resolution_floor(float(e[0]))


def converge_cutoff(
    p: ModelParams,
    tol: float = 1e-10,
    k: int = 3,
    *,
    levels: int = 6,
    seed: int = 0,
    max_dim: int = DEFAULT_MAX_DIM,
) -> ConvergenceReport:
    """Double the Fock cutoff until the lowest k levels are accepted, on a bound or on a comparison.

    After each solve at M the levels are first compared with those at
    M / 2, and M / 2 is accepted once they agree within tol.  Otherwise
    M itself is accepted when :func:`_temple_bound`, computed from the M
    solve alone, is below tol; that bound is stated, not proved (it takes
    the computed next level of each block for the exact one), and the
    doubling stays the fallback.  So the search never solves more cutoffs
    than doubling alone, and a certified M* needs no solve at 2M*, nor
    dim(2M*) <= max_dim.  The accepted M is returned with the full history
    (which ends at M* where the bound accepted it, at 2M* where the
    comparison did), the bound (NaN for a comparison) and the
    :func:`lowest_levels` solve at M*, so callers need not solve again.
    k counts the levels compared and bounded, levels those the caller
    needs: each cutoff solves max(k, 3, levels) of them, with Lanczos
    start vectors drawn from seed.  Each solve after the first takes the
    previous E0 as its shift hint: by Cauchy interlacing E0(2M) <= E0(M).
    Breaching max_dim before acceptance, or a block at M refused for its
    band entries (:func:`~dickelab.model.symmetry_block`), raises a
    ResourceError carrying the history of the cutoffs solved before M.
    """
    if not 0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and > 0, got {tol}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    history: list[tuple[int, float, float, float]] = []
    M = initial_cutoff(p)
    prev: SpectrumResult | None = None
    while True:
        dim = (M + 1) * (p.N + 1)
        if dim > max_dim:
            raise ResourceError(
                f"cutoff search for N={p.N} exceeded max dimension {max_dim} at M={M}",
                history=tuple(history),
            )
        guess = None if prev is None else float(prev.eigenvalues[0])
        try:
            res, blocks = _solve_blocks(p, M, min(max(k, 3, levels), dim), seed=seed, guess=guess)
        except ResourceError as exc:  # a block refused for its band entries
            exc.history = tuple(history)
            raise
        e = res.eigenvalues
        e3 = tuple(float(e[i]) if i < e.size else math.nan for i in range(3))
        history.append((M, *e3))
        if prev is not None:
            n_cmp = min(k, prev.eigenvalues.size, e.size)
            if n_cmp and np.max(np.abs(e[:n_cmp] - prev.eigenvalues[:n_cmp])) < tol:
                M_star, spectrum, bound = M // 2, prev, math.nan
                break
        bound = _temple_bound(p, M, res, blocks, k)
        if bound < tol:
            M_star, spectrum = M, res
            break
        prev = res
        M *= 2
    return ConvergenceReport(
        M_star=M_star, history=tuple(history), converged=res.converged, spectrum=spectrum, bound=bound
    )


def _tridiagonal_levels(diag: np.ndarray, off: np.ndarray, k: int | None = None) -> np.ndarray:
    """The k lowest eigenvalues (all where k is None) of a symmetric tridiagonal matrix, ascending.

    All n come from LAPACK dsterf, O(n^2); fewer than n from dstebz,
    Sturm-count bisection (Barth, Martin & Wilkinson 1967), O(n k).
    """
    if k is None or k >= diag.size:
        if diag.size <= 1:
            return diag
        levels, info = lapack.dsterf(diag, off)
        if info:
            raise np.linalg.LinAlgError(f"dsterf failed to converge ({info} off-diagonals nonzero)")
        return levels
    found, levels, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, k, 0.0, "E")
    if info or found < k:
        raise np.linalg.LinAlgError(f"dstebz found {found} of {k} levels (info {info})")
    return levels[:k]


def spin_model_spectrum(p: ModelParams, k: int | None = None) -> np.ndarray:
    """The k lowest eigenvalues (all N+1 where k is None) of the spin model -u Sz^2 - v Sx^2, ascending.

    The model conserves (-1)^(m+S), so it is solved as tridiagonal blocks
    (``reference.polaron_spin_hamiltonian`` is the dense reference), and a
    k above N + 1 gives all N + 1 levels.  For odd N the joint parity
    maps one parity sector onto the other, so only m + S even is solved,
    its ceil(k/2) lowest levels by LAPACK dstebz bisection (dsterf where
    that is the whole sector), and each level is reported twice: the
    odd-N doublets are exact by construction.  For even N the m -> -m
    exchange J maps each sector onto itself, so the four blocks are the J
    halves of the two sectors (:func:`~dickelab.model.spin_blocks`),
    each about N/4 rows, joined into one tridiagonal matrix with a zero
    coupling between halves.  Its k lowest levels come from one dstebz
    call: for 6 levels a call took 0.21-0.28 ms against 0.65-0.68 ms with
    dsterf on each half at N = 298, and 0.09-0.14 against 0.16 ms at
    N = 100 (2-vCPU Xeon VM, OpenBLAS on one thread).  All of them come
    from dsterf, which splits the matrix at the zero couplings.  Everything
    but the -u m^2 of the diagonal depends only on (N, v) and comes from the
    cached :func:`~dickelab.model.spin_skeleton`, so a sweep over u builds
    it once per (N, v).
    """
    if k is not None and k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    skeleton = spin_skeleton(p.N, p.v, math.copysign(1.0, p.v))
    diag = skeleton.diagonal(p.u)
    if p.N % 2:
        half = None if k is None else -(-k // 2)
        return np.repeat(_tridiagonal_levels(diag, skeleton.off, half), 2)[:k]
    return _tridiagonal_levels(diag, skeleton.off, k)


def spin_ladder_levels(p: ModelParams, n: int) -> np.ndarray:
    """Lowest n values of {eps_i + omega j}: spin-model levels plus a free boson ladder.

    Only the n lowest eps_i can take part, so only those are solved.
    """
    ladder = np.arange(n + 2) * p.omega
    return np.sort((spin_model_spectrum(p, n)[:, None] + ladder[None, :]).ravel())[:n]


@dataclass(frozen=True)
class OracleEquivalence:
    """Comparison of the full spectrum against spin levels plus boson ladder."""

    max_abs_deviation: float
    passed: bool
    full_eigenvalues: tuple[float, ...]
    merged_eigenvalues: tuple[float, ...]
    M_star: int


def oracle_spectrum_equivalence(
    p: ModelParams,
    k: int = 6,
    tol: float = 1e-8,
) -> OracleEquivalence:
    """Lowest-k full eigenvalues vs the merge {eps_i + omega*n} of the spin model.

    The merge is exact for g = 0 or v = 0; away from those lines the
    displacement dressing of the Sx^2 term shifts the true spectrum, and
    the returned deviation measures that shift honestly.
    """
    conv = converge_cutoff(p, 1e-10, k=k)
    full = conv.spectrum.eigenvalues[:k]
    merged = spin_ladder_levels(p, full.size)
    dev = float(np.max(np.abs(full - merged)))
    return OracleEquivalence(
        max_abs_deviation=dev,
        passed=dev < tol,
        full_eigenvalues=tuple(float(x) for x in full),
        merged_eigenvalues=tuple(float(x) for x in merged),
        M_star=conv.M_star,
    )


@dataclass(frozen=True)
class CatOverlap:
    """Ground-pair weights on the symmetric/antisymmetric cat references."""

    f_plus: float
    f_minus: float


def cat_overlap(ground_pair, p: ModelParams, M: int) -> CatOverlap:
    """Project the ground doublet onto (|+Sx> +/- |-Sx>)/sqrt(2) (x) |vac>.

    ground_pair: two orthonormal vectors in the (M, N) flat basis.  The
    references are the extreme Sx eigenstates with the cavity in vacuum,
    in closed form <m|+/-Sx> = 2^-S (+/-1)^(S-m) sqrt(C(2S, S+m)), so
    f_plus/f_minus approach 1 deep in the two-well regime.
    """
    x0, x1 = (np.asarray(v, dtype=float).ravel() for v in ground_pair)
    dim = (M + 1) * (p.N + 1)
    if x0.size != dim or x1.size != dim:
        raise ValidationError(f"vectors must have length {dim}")
    for v in (x0, x1):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValidationError("ground-pair vectors must be normalized")
    if abs(float(x0 @ x1)) > 1e-8:
        raise ValidationError("ground-pair vectors must be orthogonal")

    # both cats have entries sqrt(2) |<m|+Sx>|, the + cat where S - m is even
    cat = np.sqrt([2 * math.comb(p.N, j) / 2**p.N for j in range(p.N + 1)])
    even = (p.N - np.arange(p.N + 1)) % 2 == 0  # S - m, with column j = m + S
    vac = np.stack([x0[: p.N + 1], x1[: p.N + 1]])  # the n = 0 components
    f_plus = float(np.sum((vac[:, even] @ cat[even]) ** 2))
    f_minus = float(np.sum((vac[:, ~even] @ cat[~even]) ** 2))
    return CatOverlap(f_plus=f_plus, f_minus=f_minus)
