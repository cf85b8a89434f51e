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
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.csgraph import connected_components

from .errors import ResourceError, ValidationError
from .model import (
    DEFAULT_MAX_NONZEROS,
    ModelParams,
    ParityOperator,
    SparseOperator,
    build_full_hamiltonian,
    collective_spin_matrices,
    symmetry_operator,
)
from .solvers import SolverOptions, SpectrumResult, solve_lowest

_NEG_CLIP = 1e-12
DEFAULT_MAX_DIM = 200_000
# float64 spacings of |E0| below which two computed levels are not resolved
RESOLUTION_FLOOR_ULPS = 32


def resolution_floor(E0: float) -> float:
    """Smallest level spacing float64 resolves at energy scale E0: 32 eps |E0|, at least 1e-15."""
    return max(RESOLUTION_FLOOR_ULPS * np.finfo(float).eps * abs(E0), 1e-15)


@dataclass(frozen=True)
class SplittingGap:
    """Tunnel splitting d = E1 - E0 and gap Delta = E2 - E1."""

    d: float
    Delta: float


def splitting_and_gap(eigs) -> SplittingGap:
    """Observables from an ascending spectrum; needs at least 3 values.

    Negative differences within solver noise (1e-12) are clipped to 0.
    """
    e = np.asarray(eigs, dtype=float)
    if e.ndim != 1 or e.size < 3:
        raise ValidationError(f"need at least 3 ascending eigenvalues, got {e.size}")
    d = float(e[1] - e[0])
    Delta = float(e[2] - e[1])
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
    e = np.asarray(eigs, dtype=float)
    if e.size == 0:
        return DegeneracyReport(classes=(), pairing_ok=True, max_intra_class_spread=0.0)
    if np.any(np.diff(e) < -_NEG_CLIP):
        raise ValidationError("eigenvalues must be ascending")
    classes: list[tuple[float, int]] = []
    start = 0
    spread = 0.0
    for i in range(1, e.size + 1):
        if i == e.size or e[i] - e[i - 1] > cluster_tol:
            classes.append((float(e[start]), i - start))
            spread = max(spread, float(e[i - 1] - e[start]))
            start = i
    pairing_ok = all(mult % 2 == 0 for _, mult in classes)
    return DegeneracyReport(
        classes=tuple(classes), pairing_ok=pairing_ok, max_intra_class_spread=spread
    )


def _frobenius(mat) -> float:
    if isinstance(mat, SparseOperator):
        return mat.frobenius_norm()
    return float(np.linalg.norm(np.asarray(mat)))


def _as_csr_or_dense(mat):
    if isinstance(mat, SparseOperator):
        return mat.to_csr()
    return np.asarray(mat, dtype=float)


def symmetry_commutator_norm(H, R) -> float:
    """||HR - RH||_F / ||H||_F for same-dimension operators."""
    if isinstance(R, ParityOperator):
        R = R.op
    A = _as_csr_or_dense(H)
    B = _as_csr_or_dense(R)
    if A.shape != B.shape:
        raise ValidationError(f"dimension mismatch: {A.shape} vs {B.shape}")
    C = A @ B - B @ A
    num = float(np.sqrt((C.multiply(C)).sum())) if hasattr(C, "multiply") else float(np.linalg.norm(C))
    den = _frobenius(H)
    if den == 0:
        return 0.0
    return num / den


def lowest_levels(
    p: ModelParams,
    M: int,
    k: int,
    opts: SolverOptions | None = None,
    *,
    want_vectors: bool = False,
    max_nonzeros: int = DEFAULT_MAX_NONZEROS,
) -> SpectrumResult:
    """Lowest k levels of the full model at Fock cutoff M, solved block by block.

    H conserves (-1)^(m+S), the parity of the column flat % (N+1), so its
    connected blocks never mix parities: two blocks for g, v != 0, more on
    the lines g = 0 (n conserved) and v = 0 (m conserved), where the finer
    split keeps degenerate and decoupled levels, which ARPACK can miss, out
    of any one solve.  For odd N the joint parity R swaps even and odd
    columns, so only even-column blocks are solved and each level is
    reported twice, the copy's vector being R times the original: the
    odd-N doublet is exact by construction.  Vectors are in the flat basis.
    """
    opts = opts or SolverOptions()
    H = build_full_hamiltonian(p, M, max_nonzeros=max_nonzeros)
    if k < 1 or k > H.dim:
        raise ValidationError(f"k must be in [1, {H.dim}], got {k}")
    odd = p.N % 2 == 1
    csr = H.to_csr()
    n_blocks, block_of = connected_components(csr != 0, directed=False)
    results: list[SpectrumResult] = []
    vectors: list[np.ndarray] = []
    for b in range(n_blocks):
        idx = np.nonzero(block_of == b)[0]
        if odd and idx[0] % (p.N + 1) % 2:
            continue  # the mirror image of an even-column block
        block = SparseOperator.from_scipy(csr[idx][:, idx])
        k_block = min(-(-k // 2) if odd else k, idx.size)
        res = solve_lowest(block, opts.with_k(k_block), want_vectors=want_vectors)
        results.append(res)
        if want_vectors:
            V = np.zeros((H.dim, res.eigenvalues.size))
            V[idx] = res.eigenvectors
            vectors.append(V)
    values = [r.eigenvalues for r in results]
    residuals = [r.residual_norms for r in results]
    if odd:  # the skipped odd-column blocks hold the mirror images
        values, residuals = values * 2, residuals * 2
        if want_vectors:
            R = symmetry_operator(p, M).op
            vectors += [R @ V for V in vectors]

    # stable sort: an odd-N mirror lands right after its original
    order = np.argsort(np.concatenate(values), kind="stable")[:k]
    return SpectrumResult(
        eigenvalues=np.concatenate(values)[order],
        eigenvectors=np.hstack(vectors)[:, order] if want_vectors else None,
        solver="+".join(dict.fromkeys(r.solver for r in results)),
        iterations=sum(r.iterations for r in results),
        residual_norms=np.concatenate(residuals)[order],
        converged=all(r.converged for r in results),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Accepted Fock cutoff, the doubling history that justified it, and the solve at M*.

    converged reports whether the solve that confirmed M* converged.
    """

    M_star: int
    history: tuple[tuple[int, float, float, float], ...]
    converged: bool
    tol: float
    spectrum: SpectrumResult


def initial_cutoff(p: ModelParams) -> int:
    """Start value for the cutoff search: ceil(4 (g S / omega)^2) + 10.

    The displacement per Sz sector scales like g m / omega, so occupation
    scales as its square; the factor 4 and the +10 floor are margin.
    """
    return math.ceil(4.0 * (p.g * p.S / p.omega) ** 2) + 10


def converge_cutoff(
    p: ModelParams,
    tol: float = 1e-10,
    k: int = 3,
    *,
    options: SolverOptions | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
    max_nonzeros: int = DEFAULT_MAX_NONZEROS,
) -> ConvergenceReport:
    """Double the Fock cutoff until the lowest k eigenvalues stop moving.

    M is accepted once the eigenvalues at M and at 2M agree within tol;
    the accepted (smaller) M is returned with the full history and with
    the :func:`lowest_levels` solve at M (max(k, 3, options.k) levels), so
    callers need not solve again.  Breaching max_dim before convergence
    raises a ResourceError carrying the history.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    opts = options or SolverOptions()
    history: list[tuple[int, float, float, float]] = []
    M = initial_cutoff(p)
    prev: SpectrumResult | None = None
    prev_M = M
    while True:
        dim = (M + 1) * (p.N + 1)
        if dim > max_dim:
            raise ResourceError(
                f"cutoff search for N={p.N} exceeded max dimension {max_dim} at M={M}",
                history=tuple(history),
            )
        res = lowest_levels(
            p, M, min(max(k, 3, opts.k), dim), opts, max_nonzeros=max_nonzeros
        )
        e = res.eigenvalues
        e3 = tuple(float(e[i]) if i < e.size else math.nan for i in range(3))
        history.append((M, *e3))
        if prev is not None:
            n_cmp = min(k, prev.eigenvalues.size, e.size)
            if n_cmp and np.max(np.abs(e[:n_cmp] - prev.eigenvalues[:n_cmp])) < tol:
                return ConvergenceReport(
                    M_star=prev_M,
                    history=tuple(history),
                    converged=res.converged,
                    tol=tol,
                    spectrum=prev,
                )
        prev, prev_M = res, M
        M *= 2


def _spin_sector_levels(p: ModelParams, s: int) -> np.ndarray:
    """Eigenvalues of -u Sz^2 - v Sx^2 on the sector m + S = s (mod 2), ascending.

    In the Sz basis the sector is tridiagonal: diagonal
    -u m^2 - v (S(S+1) - m^2)/2 and (m, m+2) element
    -v sqrt(S(S+1) - m(m+1)) sqrt(S(S+1) - (m+1)(m+2)) / 4.
    """
    S = p.S
    m = -S + np.arange(s, p.N + 1, 2)
    ss = S * (S + 1)
    diag = -p.u * m**2 - p.v * (ss - m**2) / 2
    lo = m[:-1]
    off = -p.v * np.sqrt(ss - lo * (lo + 1)) * np.sqrt(ss - (lo + 1) * (lo + 2)) / 4
    return eigvalsh_tridiagonal(diag, off)


def spin_model_spectrum(p: ModelParams) -> np.ndarray:
    """All N+1 eigenvalues of the displaced-frame spin model -u Sz^2 - v Sx^2, ascending.

    The model conserves (-1)^(m+S), so it is solved as two tridiagonal
    parity sectors (:func:`polaron_spin_hamiltonian` stays the dense
    reference).  For odd N the joint parity maps one sector onto the
    other, so only m + S even is solved and each level is reported twice:
    the odd-N doublets are exact by construction.
    """
    if p.N % 2:
        return np.repeat(_spin_sector_levels(p, 0), 2)
    return np.sort(np.concatenate([_spin_sector_levels(p, 0), _spin_sector_levels(p, 1)]))


def spin_ladder_levels(p: ModelParams, n: int) -> np.ndarray:
    """Lowest n values of {eps_i + omega j}: spin-model levels plus a free boson ladder."""
    ladder = np.arange(n + 2) * p.omega
    return np.sort((spin_model_spectrum(p)[:, None] + ladder[None, :]).ravel())[:n]


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
    *,
    conv_tol: float = 1e-10,
    options: SolverOptions | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> OracleEquivalence:
    """Lowest-k full eigenvalues vs the merge {eps_i + omega*n} of the spin model.

    The merge is exact for g = 0 or v = 0; away from those lines the
    displacement dressing of the Sx^2 term shifts the true spectrum, and
    the returned deviation measures that shift honestly.
    """
    opts = options or SolverOptions()
    conv = converge_cutoff(p, conv_tol, k=k, options=opts, max_dim=max_dim)
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
    so f_plus/f_minus approach 1 deep in the two-well regime.
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

    spin = collective_spin_matrices(p.S)
    _, U = np.linalg.eigh(spin.sx)
    lo, hi = U[:, 0], U[:, -1]  # m_x = -S, +S
    vac = np.zeros(M + 1)
    vac[0] = 1.0
    ref_plus = np.kron(vac, hi)
    ref_minus = np.kron(vac, lo)
    cat_p = (ref_plus + ref_minus) / np.sqrt(2.0)
    cat_m = (ref_plus - ref_minus) / np.sqrt(2.0)
    f_plus = float((x0 @ cat_p) ** 2 + (x1 @ cat_p) ** 2)
    f_minus = float((x0 @ cat_m) ** 2 + (x1 @ cat_m) ** 2)
    return CatOverlap(f_plus=f_plus, f_minus=f_minus)


def ground_pair(
    p: ModelParams, M: int, *, options: SolverOptions | None = None
) -> tuple[np.ndarray, np.ndarray, SpectrumResult]:
    """Lowest two eigenvectors of the full model at cutoff M, via :func:`lowest_levels`.

    For odd N the second vector is the mirror R x0 of the first, so the
    pair spans the exact doublet.
    """
    opts = options or SolverOptions()
    res = lowest_levels(p, M, max(opts.k, 3), opts, want_vectors=True)
    return res.eigenvectors[:, 0], res.eigenvectors[:, 1], res
