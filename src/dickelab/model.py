"""Operator construction for the extended Dicke model.

N two-level atoms act as one collective spin S = N/2 coupled to a single
cavity mode,

    H = omega * a^dag a + g (a^dag + a) Sz - v Sx^2,

with all energies in angular-frequency units (hbar = 1).  The product
basis is boson-major: flat index = n * (N + 1) + (m + S), where n <= M is
the boson occupation and m is the Sz eigenvalue, ascending from -S.  In
this basis H is real symmetric, so everything here stays in real
arithmetic; the one operator that is intrinsically complex for odd N (the
parity operator) is stored as a real matrix plus a global phase.

Both H and the spin model -u Sz^2 - v Sx^2 conserve the parity (-1)^(m+S),
so they are built sector by sector (:func:`spin_sector`).  At even N the
m -> -m exchange J also maps each spin-model sector onto itself, which
splits the spin model into four tridiagonal blocks
(:func:`spin_sector_halves`), and the joint parity R = (-1)^n J maps each
sector of H onto itself, which splits H into four banded blocks (s, r) of
about half the rows and half the bandwidth of a sector.
:func:`symmetry_block` builds every block of H as a band array: the
(s, +/-1) blocks from those halves, and a whole sector, at any N, as the
block (s, 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import ResourceError, ValidationError

DEFAULT_MAX_NONZEROS = 5_000_000


@dataclass(frozen=True)
class ModelParams:
    """The physical quadruple (N, omega, g, v) of one simulation run.

    N: atom count; omega: cavity frequency; g: atom-field coupling;
    v: collective atom-atom interaction strength.  Derived quantities:
    S = N/2 and u = g**2/omega.
    """

    N: int
    omega: float
    g: float
    v: float

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValidationError(f"N must be a positive integer, got {self.N!r}")
        if not (self.omega > 0) or not math.isfinite(self.omega):
            raise ValidationError(f"omega must be positive and finite, got {self.omega!r}")
        if self.v < 0 or not math.isfinite(self.v):
            raise ValidationError(f"v must be >= 0 and finite, got {self.v!r}")
        if not math.isfinite(self.g):
            raise ValidationError(f"g must be finite, got {self.g!r}")

    @property
    def S(self) -> float:
        return self.N / 2

    @property
    def u(self) -> float:
        return self.g**2 / self.omega


@dataclass(frozen=True)
class BasisIndex:
    """Flat indexing of the truncated |n> (x) |S, m> product basis.

    flat = n * (N + 1) + (m + S); the map is a bijection between
    [0, total_dim) and pairs (n, m) with 0 <= n <= fock_cutoff and
    m in {-S, -S+1, ..., S}.
    """

    N: int
    fock_cutoff: int

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")
        if self.fock_cutoff < 0:
            raise ValidationError(f"fock_cutoff must be >= 0, got {self.fock_cutoff}")

    @property
    def spin_dim(self) -> int:
        return self.N + 1

    @property
    def total_dim(self) -> int:
        return (self.fock_cutoff + 1) * (self.N + 1)

    def flat(self, n: int, m: float) -> int:
        col = int(round(m + self.N / 2))
        if not 0 <= n <= self.fock_cutoff:
            raise ValidationError(f"boson number {n} outside [0, {self.fock_cutoff}]")
        if not 0 <= col <= self.N or abs(col - (m + self.N / 2)) > 1e-9:
            raise ValidationError(f"m = {m} is not a valid Sz eigenvalue for N = {self.N}")
        return n * self.spin_dim + col

    def unflat(self, i: int) -> tuple[int, float]:
        if not 0 <= i < self.total_dim:
            raise ValidationError(f"flat index {i} outside [0, {self.total_dim})")
        n, col = divmod(i, self.spin_dim)
        return n, col - self.N / 2


class SparseOperator:
    """Real-symmetric sparse operator with both triangles stored.

    Duplicate (row, col) entries are summed during assembly, so the
    canonical storage has none; products act as the full symmetric matrix.
    """

    def __init__(self, dim: int, rows, cols, vals):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size and (rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim):
            raise ValidationError("entry index outside [0, dim)")
        coo = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
        coo.sum_duplicates()
        self._csr = coo.tocsr()
        self.dim = dim

    @classmethod
    def from_scipy(cls, mat) -> "SparseOperator":
        coo = sparse.coo_matrix(mat)
        return cls(coo.shape[0], coo.row, coo.col, coo.data)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        return self._csr @ X

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def to_csr(self):
        return self._csr

    def coo_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coo = self._csr.tocoo()
        return coo.row, coo.col, coo.data

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(self._csr.data**2)))

    def is_symmetric(self) -> bool:
        diff = self._csr - self._csr.T
        return diff.nnz == 0 or not np.any(diff.data)

    def __matmul__(self, other):
        if isinstance(other, SparseOperator):
            return self._csr @ other._csr
        return self._csr @ other

    def __rmatmul__(self, other):
        return other @ self._csr


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
) -> SparseOperator:
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
    basis = BasisIndex(p.N, M)
    ns = basis.spin_dim
    spin = collective_spin_matrices(p.S)
    sx2 = spin.sx @ spin.sx
    m_vals = -p.S + np.arange(ns)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    # diagonal: omega*n - v*(Sx^2)_{mm}
    all_idx = np.arange(basis.total_dim)
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
        basis.total_dim,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def spin_sector(
    p: ModelParams, s: int, u: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sz values, diagonal and off-diagonal of -u Sz^2 - v Sx^2 on the sector m + S = s (mod 2).

    In the ascending Sz basis the sector is tridiagonal: diagonal
    -u m^2 - v (S(S+1) - m^2)/2 and (m, m+2) element
    -v sqrt(S(S+1) - m(m+1)) sqrt(S(S+1) - (m+1)(m+2)) / 4.
    """
    m = -p.S + np.arange(s, p.N + 1, 2)
    return (m, *_spin_entries(p, m, u))


def _spin_entries(p: ModelParams, m: np.ndarray, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal at each m and (m, m+2) off-diagonal of -u Sz^2 - v Sx^2, for m ascending by 2."""
    ss = p.S * (p.S + 1)
    diag = -u * m**2 - p.v * (ss - m**2) / 2
    lo = m[:-1]
    off = -p.v * np.sqrt(ss - lo * (lo + 1)) * np.sqrt(ss - (lo + 1) * (lo + 2)) / 4
    return diag, off


def spin_sector_halves(
    p: ModelParams, s: int, u: float
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The J = +1 and J = -1 halves of :func:`spin_sector` at even N, each as (m, diagonal, off-diagonal).

    For integer S the m -> -m exchange J commutes with -u Sz^2 - v Sx^2
    and maps the sector m + S = s (mod 2) onto itself, so the sector
    splits into two halves, tridiagonal in the basis (|m> + r |-m>)/sqrt(2)
    over the sector's m >= 0.  If the sector holds m = 0, the r = +1 half
    also holds |0>, with sqrt(2) times the sector's (0, 2) off-diagonal,
    and the r = -1 half starts at m = 2.  Otherwise both halves start at
    m = 1, with D_1 + r O_{-1,1} in place of the diagonal D_1.  A half may
    be empty (N = 2, s = 1, r = -1).
    """
    if p.N % 2:
        raise ValidationError(f"J halves need even N (integer S), got N = {p.N}")
    # the sector's Sz values from m = 0, or from m = -1 when it has no m = 0
    m = np.arange(-((p.N // 2 + s) % 2), p.S + 1, 2)
    diag, off = _spin_entries(p, m, u)
    if m[0] < 0:  # fold O_{-1,1} into D_1
        plus = diag[1:].copy()
        plus[0] += off[0]
        minus = diag[1:]
        minus[0] -= off[0]
        return (m[1:], plus, off[1:]), (m[1:], minus, off[1:])
    minus = (m[1:], diag[1:], off[1:])  # m = 0 belongs to the + half only
    off[:1] *= math.sqrt(2.0)
    return (m, diag, off), minus


def _check_block(p: ModelParams, M: int, s: int) -> None:
    """The cutoff, sector and nonzero-budget checks shared by the block constructors."""
    if M < 0:
        raise ValidationError(f"fock cutoff M must be >= 0, got {M}")
    if s not in (0, 1):
        raise ValidationError(f"sector s must be 0 or 1, got {s!r}")
    if _estimate_nonzeros(p.N, M, p.g, p.v) > DEFAULT_MAX_NONZEROS:
        raise ResourceError(
            f"Hamiltonian for N={p.N}, M={M} needs more than {DEFAULT_MAX_NONZEROS} nonzeros"
        )


@functools.lru_cache(maxsize=8)
def _block_pair(p: ModelParams, s: int, r: int) -> tuple[np.ndarray, int, int]:
    """Boson levels n = 0 and 1 of the (s, r) block: rows m + S, spin diagonal, off-diagonal, g m, n.

    Level n holds the J half r (-1)^n, or the whole sector where r = 0, so
    the block's rows repeat with period w = w_even + w_odd over each pair
    of levels (2k, 2k + 1); the cutoff search builds one point's blocks at
    several M from this one pair.  Also returns w_even and w_odd.  The
    array is read-only.
    """
    if r not in (0, 1, -1):
        raise ValidationError(f"R eigenvalue r must be 1, -1 or 0, got {r!r}")
    # the J halves are (plus, minus): level 0 takes minus first where r = -1
    halves = [spin_sector(p, s, 0.0)] * 2 if r == 0 else spin_sector_halves(p, s, 0.0)[::r]
    (m_a, diag_a, off_a), (m_b, diag_b, off_b) = halves
    wa, wb = m_a.size, m_b.size
    m = np.concatenate([m_a, m_b])
    pair = np.zeros((5, wa + wb))  # a level's last row has no off-diagonal
    pair[0] = m + p.S
    pair[1] = np.concatenate([diag_a, diag_b])
    pair[2, : off_a.size], pair[2, wa : wa + off_b.size] = off_a, off_b
    pair[3] = p.g * m
    pair[4, wa:] = 1.0
    pair.flags.writeable = False
    return pair, wa, wb


def _block_levels(pair: np.ndarray, M: int) -> np.ndarray:
    """Boson level n of each row of a block, for whole pairs of levels (2k, 2k + 1), one pair a row."""
    return pair[4] + np.arange(0.0, M + 1, 2)[:, None]


def symmetry_block(p: ModelParams, M: int, s: int, r: int) -> np.ndarray:
    """The block (s, r) of H, truncated at n <= M, as a lower band array ab[i, c] = H[c + i, c].

    s is the parity sector m + S = s (mod 2), which H conserves.  r = 0
    takes the whole sector, at any N: boson level n holds the Sz values of
    :func:`spin_sector`.  At even N the joint parity R = (-1)^n J, with
    J|m> = |-m>, also maps each sector onto itself, and r = +/-1 takes its
    eigenspace: level n holds the J half r (-1)^n of
    :func:`spin_sector_halves` at u = 0, (|m> +/- |-m>)/sqrt(2) over m > 0
    and |0> in the + half, so about half the rows and half the bandwidth
    of a sector.  The levels follow each other, n ascending.  Row 0 holds
    omega n plus the spin diagonal, row 1 the spin off-diagonal.  Sz maps
    element m of one level to element m of the next, with value m, so the
    coupling g sqrt(n+1) m from level n to n + 1 sits on the row of level
    n + 1's width: w_odd from an even level, w_even from an odd one (both
    the sector's width for r = 0).  Row 1 and a coupling row are one row
    when a level has width 1; their entries never meet.  Entries past the
    block's edge are 0, and a block may be empty (N = 2, s = 1, r = -1,
    M = 0).  The nonzero budget is that of the whole H, as in
    :func:`build_full_hamiltonian`.
    """
    _check_block(p, M, s)
    pair, wa, wb = _block_pair(p, s, r)
    n = _block_levels(pair, M)
    pairs, w = n.shape
    # built for whole pairs of levels; at even M level M + 1 is cut off
    ab = np.zeros((max(wa, wb, 1) + 1, pairs, w))
    np.add(p.omega * n, pair[1], out=ab[0])
    ab[1] = pair[2]
    root = np.sqrt(np.arange(1.0, 2 * pairs + 1))  # sqrt(n + 1)
    root[M] = 0.0  # level M couples to nothing
    ab[wb, :, :wa] += root[0::2, None] * pair[3, :wa]
    ab[wa, :, wa:] += root[1::2, None] * pair[3, wa:]
    return ab.reshape(-1, pairs * w)[:, : pairs * w - (0 if M % 2 else wb)]


def symmetry_block_basis(p: ModelParams, M: int, s: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Boson level n and spin column m + S of each row of :func:`symmetry_block`, as integer arrays.

    The row's flat index is n (N + 1) + m + S.  For r = 0 the row is the
    state |n> (x) |m>.  For r = +/-1, m >= 0, and row (n, m) is the state
    |n> (x) (|m> + r (-1)^n |-m>)/sqrt(2) for m > 0, and |n> (x) |0> for m = 0.
    """
    _check_block(p, M, s)
    pair, wa, wb = _block_pair(p, s, r)
    n = _block_levels(pair, M).astype(np.int64)
    dim = n.size - (0 if M % 2 else wb)
    return n.ravel()[:dim], np.tile(pair[0].astype(np.int64), n.shape[0])[:dim]


def polaron_spin_hamiltonian(p: ModelParams) -> np.ndarray:
    """Displaced-frame spin Hamiltonian H_spin = -u Sz^2 - v Sx^2, u = g^2/omega.

    Obtained by displacing the cavity conditioned on Sz, which removes the
    g (a^dag + a) Sz coupling, and dropping the displacement dressing that
    the same transform applies to the Sx^2 term.  The reduction is exact
    when g = 0 or v = 0; otherwise the dressing shifts the spectrum, so
    treat this as the reference spin model, not an identity.

    This dense (N+1) x (N+1) matrix is the reference that tests check
    against; :func:`~dickelab.diagnostics.spin_model_spectrum` computes the
    spectrum from tridiagonal symmetry blocks without building it: one
    parity sector at odd N and the four J halves of the two sectors at
    even N, their lowest levels by LAPACK dstebz bisection.
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

    op: SparseOperator
    phase: complex
    spin_sign: int = 1


def symmetry_operator(p: ModelParams, M: int) -> ParityOperator:
    """Joint parity: flips the cavity quadratures (a -> -a) and Sz -> -Sz.

    In the Sz basis, exp(-i pi Sx) is (global phase) * sign * J with J the
    m -> -m exchange matrix; sign = (-1)^S for integer S and (-1)^(S-1/2)
    for half-integer S.  The boson factor is diag((-1)^n).  R commutes
    with the Hamiltonian built by :func:`build_full_hamiltonian`.
    """
    basis = BasisIndex(p.N, M)
    ns = basis.spin_dim
    if p.N % 2 == 0:
        sign = -1 if int(round(p.S)) % 2 else 1
        phase: complex = 1.0
    else:
        sign = -1 if int(round(p.S - 0.5)) % 2 else 1
        phase = -1j

    idx = np.arange(basis.total_dim)
    n_of = idx // ns
    col_of = idx % ns
    flipped = n_of * ns + (ns - 1 - col_of)
    vals = sign * np.where(n_of % 2 == 0, 1.0, -1.0)
    op = SparseOperator(basis.total_dim, idx, flipped, vals)
    return ParityOperator(op=op, phase=phase, spin_sign=sign)
