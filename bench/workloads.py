"""Seeded workload specs: the configs and call lists each workload hands to dickelab.

A spec is plain data (config texts plus a find_minima call list) derived
only from the workload name and ``--seed``, so a claim measured on one
seed can be re-checked on another.  The seed drives the engine seed
(Lanczos start vectors), the find_minima seed and a small relative jitter
of u/v off each nominal ratio; the solvable point u = v stays exact.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# relative jitter of u/v; small enough that no point changes solver path or
# moves its cutoff-search work by more than ~1 %
U_JITTER = 2e-3

WORKLOADS = ("full-parity", "full-strong", "spin-landscape")

_SWEEP_CFG = """\
[model]
N_list = {N_list}
omega = 1.0
g_list = {g_list}
v_list = 1.0

[engine]
mode = {mode}
k = 6
tol = 1e-10
seed = {seed}

[outputs]
path = {path}
format = csv
emit = splitting, degeneracy, spectrum
"""

_LANDSCAPE_CFG = """\
[model]
N_list = 20
omega = 1.0
g_list = {g}
v_list = 1.0

[engine]
mode = spin-only

[outputs]
path = {path}
landscape_theta_points = 361
landscape_phi_points = 720
"""

MINIMA_N = (10, 11, 20, 21, 40, 41, 80, 81)
MINIMA_RATIOS = (0.2, 0.5, 0.9)


def _couplings(rng: np.random.Generator, ratios) -> dict[float, float]:
    """g for each nominal u/v (omega = v = 1); u = v is kept exact."""
    out = {}
    for r in ratios:
        u = r if r == 1.0 else r * (1.0 + rng.uniform(-U_JITTER, U_JITTER))
        out[r] = math.sqrt(u)
    return out


def _join(values) -> str:
    return ", ".join(repr(v) for v in values)


def make_spec(workload: str, seed: int, out_dir: str) -> dict:
    """Everything one run of ``workload`` feeds the program, as plain data.

    ``out_dir`` is where the program writes its tables (relative to the
    checkout root).  ``sweeps`` are config texts run through
    ``dickelab sweep`` with explicit ``--workers``; ``landscape`` goes
    through ``dickelab landscape``; ``minima`` are (N, omega, g, v)
    tuples for ``find_minima``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    engine_seed = int(rng.integers(0, 2**31 - 1))
    spec = {"workload": workload, "seed": seed, "sweeps": [], "landscape": None,
            "minima": [], "minima_seed": None}

    def sweep(Ns, g: dict, mode: str, workers: int) -> None:
        table = f"{out_dir}/{workload}.csv"
        spec["sweeps"].append({
            "config": _SWEEP_CFG.format(N_list=_join(Ns), g_list=_join(g.values()),
                                        mode=mode, seed=engine_seed, path=table),
            "workers": workers,
            "mode": mode,
            "k": 6,
            "table": table,
            "spectrum": f"{out_dir}/{workload}.spectrum.csv",
            "points": [[N, gv, 1.0] for N in Ns for gv in g.values()],  # grid order
        })

    if workload == "full-parity":
        # heaviest N first: N = 16 and 15 start together on the two workers,
        # so which dense solves overlap (and so peak memory) does not hinge
        # on how the lighter points before them happened to be scheduled
        sweep(range(16, 5, -1), _couplings(rng, (0.5,)), "full", 2)
    elif workload == "full-strong":
        sweep((12, 13), _couplings(rng, (0.9,)), "full", 1)
    else:
        g = _couplings(rng, (0.2, 0.5, 0.9, 1.0))
        sweep(range(2, 300), g, "spin-only", 2)
        spec["landscape"] = {
            "config": _LANDSCAPE_CFG.format(g=repr(g[0.5]), path=f"{out_dir}/landscape.csv"),
            "table": f"{out_dir}/landscape.csv",
            "point": [20, g[0.5], 1.0],
            "grid": [361, 720],
        }
        spec["minima"] = [[N, 1.0, g[r], 1.0] for N in MINIMA_N for r in MINIMA_RATIOS]
        spec["minima_seed"] = int(rng.integers(0, 2**31 - 1))
    return spec


def spec_digest(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]
