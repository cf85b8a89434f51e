"""Independent reference levels for the output checks.

Nothing here imports dickelab.  The Hamiltonian conserves the Sz parity
(-1)^(m+S): Sx^2 moves m by 0 or +-2 and g (a^dag + a) Sz keeps m.  Each
parity sector is built separately, the full model as ``scipy.sparse.kron``
of the boson ladder and the sector's spin matrices and solved by
shift-invert ``eigsh``, the spin-only model as a tridiagonal matrix.
Solving the sectors apart keeps exact odd-N doublets apart as well.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

LEVELS = 3  # E0, E1, E2
CUTOFF_RTOL = 1e-12  # the reference accepts M when the next M moves no level by more
MAX_CUTOFF = 4000


def _spin_sector(N: int, sector: int):
    """m values, diag(Sx^2) and the (m, m+2) element of Sx^2 on one parity sector."""
    S = N / 2
    m = -S + np.arange(sector, N + 1, 2)
    raise_m = np.sqrt(np.maximum(S * (S + 1) - m * (m + 1), 0.0))  # <m+1|S+|m>
    raise_next = np.sqrt(np.maximum(S * (S + 1) - (m + 1) * (m + 2), 0.0))  # <m+2|S+|m+1>
    sx2_diag = (S * (S + 1) - m**2) / 2
    sx2_up = (raise_m * raise_next)[:-1] / 4
    return m, sx2_diag, sx2_up


def spin_only_levels(N: int, g: float, v: float, omega: float = 1.0) -> list[float]:
    """Lowest levels of -u Sz^2 - v Sx^2 (u = g^2 / omega), from both sectors."""
    u = g**2 / omega
    levels = []
    for sector in (0, 1):
        m, sx2_diag, sx2_up = _spin_sector(N, sector)
        if m.size == 0:
            continue
        d = -u * m**2 - v * sx2_diag
        e = -v * sx2_up
        hi = min(LEVELS, m.size) - 1
        levels.extend(scipy.linalg.eigh_tridiagonal(
            d, e, eigvals_only=True, select="i", select_range=(0, hi)))
    return sorted(float(x) for x in levels)[:LEVELS]


def _full_sector_levels(N, g, v, omega, M, sector, sigma):
    m, sx2_diag, sx2_up = _spin_sector(N, sector)
    n = np.arange(M + 1)
    boson_n = sp.diags(n.astype(float))
    boson_x = sp.diags(np.sqrt(n[1:].astype(float)), 1)
    boson_x = boson_x + boson_x.T
    spin_sx2 = sp.diags([sx2_diag, sx2_up, sx2_up], [0, 1, -1])
    H = (omega * sp.kron(boson_n, sp.identity(m.size))
         + g * sp.kron(boson_x, sp.diags(m))
         - v * sp.kron(sp.identity(M + 1), spin_sx2)).tocsc()
    k = min(LEVELS, H.shape[0] - 1)
    vals = eigsh(H, k=k, sigma=sigma, which="LM", v0=np.ones(H.shape[0]),
                 return_eigenvectors=False)
    return np.sort(vals)


def full_levels(N: int, g: float, v: float, omega: float = 1.0) -> list[float]:
    """Lowest levels of the full model at a Fock cutoff the reference verified itself.

    The cutoff grows by 1.5x until no level of either sector moves by more
    than CUTOFF_RTOL * |E0|; the levels at the larger cutoff are returned.
    """
    S = N / 2
    u = g**2 / omega
    sigma = -(u + v) * S * S - 1.0  # below the spectrum: H >= -(u + v) S^2
    M = 16
    prev = None
    while M <= MAX_CUTOFF:
        cur = np.concatenate([_full_sector_levels(N, g, v, omega, M, s, sigma) for s in (0, 1)])
        if prev is not None and np.max(np.abs(cur - prev)) <= CUTOFF_RTOL * abs(cur.min()):
            return sorted(float(x) for x in cur)[:LEVELS]
        prev = cur
        M = math.ceil(1.5 * M) + 4
    raise RuntimeError(f"reference cutoff did not converge for N={N}, g={g}, v={v}")
