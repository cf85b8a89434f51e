"""Operator construction for the extended Dicke model.

N two-level atoms act as one collective spin S = N/2 coupled to a single
cavity mode,

    H = omega * a^dag a + g (a^dag + a) Sz - v Sx^2,

with all energies in angular-frequency units (hbar = 1).  The product
basis is boson-major: flat index = n * (N + 1) + (m + S), where n <= M is
the boson occupation and m is the Sz eigenvalue, ascending from -S.  In
this basis H is real symmetric, so everything here stays in real
arithmetic.

Both H and the spin model -u Sz^2 - v Sx^2 conserve the parity (-1)^(m+S),
so they are built sector by sector.  At even N the m -> -m exchange J
also maps each spin-model sector onto itself, which splits it into two
tridiagonal J halves; :func:`spin_blocks` gives a sector and its halves,
each a :class:`SpinBlock`.  The joint parity R = (-1)^n J maps each sector
of H onto itself, which splits H into four banded blocks (s, r) of about
half the rows and half the bandwidth of a sector.
:func:`symmetry_block` builds every block of H as a band array: the
(s, +/-1) blocks from those halves, and a whole sector, at any N, as the
block (s, 0).  :func:`spin_skeleton` caches the spin model's blocks, joined,
for every u at one (N, v).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def _spin_parts(S: float, v: float, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m^2, the v part v (S(S+1) - m^2)/2 and the (m, m+2) off-diagonal of -u Sz^2 - v Sx^2, for m ascending by 2.

    The diagonal at u is -u m^2 minus the v part; the (m, m+2) element is
    -v sqrt(S(S+1) - m(m+1)) sqrt(S(S+1) - (m+1)(m+2)) / 4.
    """
    ss = S * (S + 1)
    msq = m**2
    vpart = v * (ss - msq) / 2
    lo = m[:-1]
    off = -v * np.sqrt(ss - lo * (lo + 1)) * np.sqrt(ss - (lo + 1) * (lo + 2)) / 4
    return msq, vpart, off


class SpinBlock(NamedTuple):
    """One tridiagonal block of -u Sz^2 - v Sx^2, by its parts that do not depend on u.

    m holds each row's Sz value, msq m^2, vpart v (S(S+1) - m^2)/2, off
    the off-diagonal, and folds the (row, value) pairs added to the
    diagonal last.  A tuple, so the few built per (N, v) cost little.
    """

    m: np.ndarray
    msq: np.ndarray
    vpart: np.ndarray
    off: np.ndarray
    folds: tuple[tuple[int, float], ...]

    def diagonal(self, u: float) -> np.ndarray:
        """The diagonal at u: -u m^2 - vpart, then the folds (adding a fold first would round differently)."""
        diag = -u * self.msq - self.vpart
        for row, value in self.folds:
            diag[row] += value
        return diag


def spin_blocks(N: int, v: float, s: int) -> dict[int, SpinBlock]:
    """The tridiagonal blocks of -u Sz^2 - v Sx^2 on the parity sector m + S = s (mod 2), keyed by r.

    r = 0 is the whole sector, Sz ascending from -S.  For integer S (even
    N) the m -> -m exchange J commutes with the model and maps the sector
    onto itself, so it splits into the J halves r = +/-1, tridiagonal in
    the basis (|m> + r |-m>)/sqrt(2) over the sector's m >= 0: tail
    slices of the sector's arrays.  If the sector holds m = 0, the r = +1
    half also holds |0>, with sqrt(2) times the sector's (0, 2)
    off-diagonal, and the r = -1 half starts at m = 2.  Otherwise both
    halves start at m = 1 and fold r O_{-1,1} into their first diagonal
    entry.  A half may be empty (N = 2, s = 1, r = -1).
    """
    S = N / 2
    m = -S + np.arange(s, N + 1, 2)
    sector = SpinBlock(m, *_spin_parts(S, v, m), ())
    if N % 2:
        return {0: sector}
    i = m.size // 2  # the sector's first m >= 0
    tail = [a[i:] for a in (m, sector.msq, sector.vpart, sector.off)]
    if m[i]:  # fold O_{-1,1} into D_1
        fold = float(sector.off[i - 1])
        return {0: sector, 1: SpinBlock(*tail, ((0, fold),)), -1: SpinBlock(*tail, ((0, -fold),))}
    plus_off = tail[3].copy()
    plus_off[:1] *= math.sqrt(2.0)
    minus = SpinBlock(*[a[1:] for a in tail], ())  # m = 0 belongs to the + half only
    return {0: sector, 1: SpinBlock(*tail[:3], plus_off, ()), -1: minus}


@functools.lru_cache(maxsize=64)
def spin_skeleton(N: int, v: float, v_sign: float) -> SpinBlock:
    """The one tridiagonal matrix of -u Sz^2 - v Sx^2 that ``spin_model_spectrum`` solves, by its u-free parts.

    At odd N it is the block r = 0 of :func:`spin_blocks` at s = 0.  At
    even N it is the four J halves, sector s = 0's (r = +1, -1) then
    s = 1's, empty halves left out, joined with a zero coupling between
    halves.  Cached by (N, v): a sweep solves each (N, v) at several
    couplings u.  v_sign, which is ``math.copysign(1.0, v)``, only keys
    the cache: v = -0.0 equals 0.0 but gives other signed zeros, so it
    gets an entry of its own.  The arrays are read-only.
    """
    if N % 2:
        skeleton = spin_blocks(N, v, 0)[0]
    else:
        sectors = [spin_blocks(N, v, s) for s in (0, 1)]
        halves = [blocks[r] for blocks in sectors for r in (1, -1) if blocks[r].m.size]
        starts = itertools.accumulate([h.m.size for h in halves], initial=0)
        skeleton = SpinBlock(
            m=np.concatenate([h.m for h in halves]),
            msq=np.concatenate([h.msq for h in halves]),
            vpart=np.concatenate([h.vpart for h in halves]),
            off=np.concatenate([a for h in halves for a in (h.off, (0.0,))])[:-1],
            folds=tuple((start + row, value) for start, h in zip(starts, halves) for row, value in h.folds),
        )
    for a in (skeleton.m, skeleton.msq, skeleton.vpart, skeleton.off):
        a.flags.writeable = False
    return skeleton


@functools.lru_cache(maxsize=8)
def _block_pair(p: ModelParams, s: int, r: int) -> tuple[np.ndarray, int, int]:
    """Boson levels n = 0 and 1 of the (s, r) block: rows m + S, spin diagonal, off-diagonal, g m, n.

    Level n holds the J half r (-1)^n of :func:`spin_blocks` at u = 0, or
    the whole sector where r = 0, so the block's rows repeat with period
    w = w_even + w_odd over each pair of levels (2k, 2k + 1); the cutoff
    search builds one point's blocks at several M from this one pair.
    Also returns w_even and w_odd.  The array is read-only.
    """
    if r not in (0, 1, -1):
        raise ValidationError(f"R eigenvalue r must be 1, -1 or 0, got {r!r}")
    if r and p.N % 2:
        raise ValidationError(f"J halves need even N (integer S), got N = {p.N}")
    blocks = spin_blocks(p.N, p.v, s)
    a, b = blocks[r], blocks[-r]
    wa, wb = a.m.size, b.m.size
    m = np.concatenate([a.m, b.m])
    pair = np.zeros((5, wa + wb))  # a level's last row has no off-diagonal
    pair[0] = m + p.S
    pair[1] = np.concatenate([a.diagonal(0.0), b.diagonal(0.0)])
    pair[2, : a.off.size], pair[2, wa : wa + b.off.size] = a.off, b.off
    pair[3] = p.g * m
    pair[4, wa:] = 1.0
    pair.flags.writeable = False
    return pair, wa, wb


def _checked_pair(p: ModelParams, M: int, s: int, r: int) -> tuple[np.ndarray, int, int, int]:
    """:func:`_block_pair` and the block's row count, after the checks shared by the block constructors.

    The cutoff and sector must be valid, and the band array's entries,
    (band rows) x (block rows), at most ``DEFAULT_MAX_NONZEROS``.
    """
    if M < 0:
        raise ValidationError(f"fock cutoff M must be >= 0, got {M}")
    if s not in (0, 1):
        raise ValidationError(f"sector s must be 0 or 1, got {s!r}")
    pair, wa, wb = _block_pair(p, s, r)
    dim = (M // 2 + 1) * (wa + wb) - (0 if M % 2 else wb)  # at even M level M + 1 is cut off
    if (max(wa, wb, 1) + 1) * dim > DEFAULT_MAX_NONZEROS:
        raise ResourceError(
            f"block ({s}, {r}) for N={p.N}, M={M} needs more than {DEFAULT_MAX_NONZEROS} band entries"
        )
    return pair, wa, wb, dim


def _block_levels(pair: np.ndarray, M: int) -> np.ndarray:
    """Boson level n of each row of a block, for whole pairs of levels (2k, 2k + 1), one pair a row."""
    return pair[4] + np.arange(0.0, M + 1, 2)[:, None]


def symmetry_block(p: ModelParams, M: int, s: int, r: int) -> np.ndarray:
    """The block (s, r) of H, truncated at n <= M, as a lower band array ab[i, c] = H[c + i, c].

    s is the parity sector m + S = s (mod 2), which H conserves.  r = 0
    takes the whole sector, at any N: boson level n holds the block r = 0
    of :func:`spin_blocks`.  At even N the joint parity R = (-1)^n J, with
    J|m> = |-m>, also maps each sector onto itself, and r = +/-1 takes its
    eigenspace: level n holds the J half r (-1)^n of :func:`spin_blocks`
    at u = 0, (|m> +/- |-m>)/sqrt(2) over m > 0 and |0> in the + half, so
    about half the rows and half the bandwidth of a sector.  The levels
    follow each other, n ascending.  Row 0 holds omega n plus the spin
    diagonal, row 1 the spin off-diagonal.  Sz maps element m of one level
    to element m of the next, with value m, so the coupling g sqrt(n+1) m
    from level n to n + 1 sits on the row of level n + 1's width: w_odd
    from an even level, w_even from an odd one (both the sector's width
    for r = 0).  Row 1 and a coupling row are one row when a level has
    width 1; their entries never meet.  Entries past the block's edge are
    0, and a block may be empty (N = 2, s = 1, r = -1, M = 0).  A band
    array of more than ``DEFAULT_MAX_NONZEROS`` entries raises
    ResourceError.
    """
    pair, wa, wb, dim = _checked_pair(p, M, s, r)
    n = _block_levels(pair, M)
    pairs, w = n.shape
    # built for whole pairs of levels, then cut to dim rows
    ab = np.zeros((max(wa, wb, 1) + 1, pairs, w))
    np.add(p.omega * n, pair[1], out=ab[0])
    ab[1] = pair[2]
    root = np.sqrt(np.arange(1.0, 2 * pairs + 1))  # sqrt(n + 1)
    root[M] = 0.0  # level M couples to nothing
    ab[wb, :, :wa] += root[0::2, None] * pair[3, :wa]
    ab[wa, :, wa:] += root[1::2, None] * pair[3, wa:]
    return ab.reshape(-1, pairs * w)[:, :dim]


def symmetry_block_basis(p: ModelParams, M: int, s: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Boson level n and spin column m + S of each row of :func:`symmetry_block`, as integer arrays.

    The row's flat index is n (N + 1) + m + S.  For r = 0 the row is the
    state |n> (x) |m>.  For r = +/-1, m >= 0, and row (n, m) is the state
    |n> (x) (|m> + r (-1)^n |-m>)/sqrt(2) for m > 0, and |n> (x) |0> for m = 0.
    """
    pair, _, _, dim = _checked_pair(p, M, s, r)
    n = _block_levels(pair, M).astype(np.int64)
    return n.ravel()[:dim], np.tile(pair[0].astype(np.int64), n.shape[0])[:dim]
