"""What dickelab imports: the solve path loads LAPACK without scipy's packages, and never numpy.random.

Also that every dickelab name the benchmark's child process uses still
exists and runs, so a cleanup cannot silently break the benchmark.

Each check runs in a fresh interpreter, since the test process has
imported scipy.linalg and scipy.sparse long before.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import dickelab

SRC = Path(dickelab.__file__).resolve().parent.parent

SPIN_SWEEP = """
[model]
N_list = 4, 5, 8
omega = 1.0
g_list = 0.44721359549995793
v_list = 1.0
[engine]
mode = spin-only
k = 6
[outputs]
path = spin.csv
emit = splitting, degeneracy, spectrum
"""

# u/v = 0.9: the N = 13 search solves its 679-row sector at M = 96, above
# DENSE_SOLVE_MAX_DIM
FULL_SWEEP = """
[model]
N_list = 12, 13
omega = 1.0
g_list = 0.9487
v_list = 1.0
[engine]
mode = full
k = 6
[outputs]
path = full.csv
emit = splitting, degeneracy, spectrum
"""

SWEEPS = """
import sys
import dickelab.cli
from dickelab import solvers

applied = []
dpbtrs = solvers.lapack.dpbtrs
solvers.lapack.dpbtrs = lambda *a, **kw: applied.append(1) or dpbtrs(*a, **kw)
before = set(sys.modules)
codes = [dickelab.cli.main(["sweep", name, "--workers", "1"]) for name in ("spin.cfg", "full.cfg")]
print({"codes": codes, "applied": len(applied), "new": sorted(set(sys.modules) - before),
       "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
       "numpy.random": "numpy.random" in sys.modules})
"""

# levels from every LAPACK route: dsbevx, dpbtrf/dpbtrs, dstebz, dsterf and
# (in the Temple bound) dgbtrf/dgbtrs
LEVELS = """
import json, sys
import numpy as np
from dickelab import ModelParams, converge_cutoff, lowest_levels, spin_model_spectrum
from dickelab import solvers

out = {"lapack": solvers.lapack.__name__, "linalg": "scipy.linalg" in sys.modules, "levels": []}
for N in (12, 13):
    p = ModelParams(N=N, omega=1.0, g=0.9487, v=1.0)
    rep = converge_cutoff(p, 1e-10)
    out["levels"] += [float(x) for x in rep.spectrum.eigenvalues] + [rep.bound]
    res = lowest_levels(p, 60, 6)
    out["levels"] += [float(x) for x in res.eigenvalues]
    out["solvers"] = out.get("solvers", []) + [rep.spectrum.solver, res.solver]
    out["levels"] += [float(x) for x in spin_model_spectrum(p)] + [float(x) for x in spin_model_spectrum(p, 3)]
print(json.dumps(out))
"""

# no extension suffix matches, as where scipy's file layout differs
BREAK_THE_LOADER = """
import importlib.machinery

importlib.machinery.EXTENSION_SUFFIXES = []
"""


def _run(code: str, cwd: Path | None = None) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    ).stdout


def test_sweeps_load_no_scipy_package_and_nothing_new(tmp_path):
    (tmp_path / "spin.cfg").write_text(SPIN_SWEEP)
    (tmp_path / "full.cfg").write_text(FULL_SWEEP)
    out = eval(_run(SWEEPS, cwd=tmp_path).splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert out["applied"] > 0  # the full sweep ran the shift-invert solver
    # whatever the solve path needs loads with dickelab.cli, not inside a run
    assert out["new"] == []
    assert out["scipy"] == ["scipy.linalg._flapack"]
    assert not out["numpy.random"]  # Lanczos start vectors come from the stdlib generator
    assert (tmp_path / "full.csv").is_file() and (tmp_path / "spin.csv").is_file()


def test_loader_fallback_gives_identical_levels():
    direct = json.loads(_run(LEVELS))
    fallback = json.loads(_run(BREAK_THE_LOADER + LEVELS))
    assert direct["lapack"] == "scipy.linalg._flapack" and not direct["linalg"]
    assert fallback["lapack"] == "scipy.linalg.lapack" and fallback["linalg"]
    assert "shift-invert" in direct["solvers"] and "dense" in direct["solvers"]
    assert direct["solvers"] == fallback["solvers"]
    assert direct["levels"] == fallback["levels"]  # bit for bit


def test_references_load_on_first_use():
    code = """
import sys
import dickelab
print("dickelab.reference" in sys.modules, "scipy.sparse" in sys.modules)
from dickelab import build_full_hamiltonian, lanczos_lowest
import dickelab.reference as reference
print(lanczos_lowest is reference.lanczos_lowest, build_full_hamiltonian is reference.build_full_hamiltonian)
print(all(hasattr(dickelab, name) for name in dickelab.__all__), len(dickelab.__all__))
"""
    assert _run(code).splitlines() == ["False False", "True True", "True 54"]


BENCH_CHILD = SRC.parent / "bench" / "child.py"


def test_every_dickelab_name_the_bench_child_uses_runs(tmp_path, monkeypatch):
    # the names come from the child's own imports, so a new one is checked too
    tree = ast.parse(BENCH_CHILD.read_text(encoding="utf-8"))
    names = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dickelab")
        for alias in node.names
    }
    assert {("dickelab", "cli"), ("dickelab.errors", "DescentError"), ("dickelab.model", "ModelParams"),
            ("dickelab.semiclassics", "find_minima"), ("dickelab.sweep", "parse_config")} <= names
    found = {name: getattr(importlib.import_module(module), name) for module, name in names}
    assert issubclass(found["DescentError"], Exception)
    # the calls the child makes: parse a config, run the CLI on it, find minima with a seed
    (tmp_path / "spin.cfg").write_text(SPIN_SWEEP)
    found["parse_config"](SPIN_SWEEP).grid_points()
    monkeypatch.chdir(tmp_path)
    assert found["cli"].main(["sweep", "spin.cfg", "--workers", "2"]) == 0
    p = found["ModelParams"](N=20, omega=1.0, g=float(0.5**0.5), v=1.0)
    assert len(found["find_minima"](p, seed=12345)) == 2
