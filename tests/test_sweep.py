import ast
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dickelab
import dickelab.model as model
import dickelab.reference as reference
import dickelab.sweep as sweep
from dickelab import (
    CSV_HEADER,
    ConfigError,
    ModelParams,
    ResourceError,
    SweepAborted,
    ValidationError,
    converge_cutoff,
    emit_results,
    parse_config,
    run_sweep,
)
from dickelab.cli import main
from dickelab.diagnostics import initial_cutoff, resolution_floor
from dickelab.sweep import render_rows

MINIMAL = """
N_list = 3
omega = 1
g_list = 0.3
v_list = 1
"""

SPIN_EVEN = """
[model]
N_list = 4, 6, 8
omega = 1.0
g_list = 0.44721359549995793
v_list = 1.0

[engine]
mode = spin-only
k = 6
seed = 0

[outputs]
path = rows.csv
"""


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.model.N_list == (3,)
    assert cfg.model.g_list == (0.3,)
    assert cfg.engine.mode == "full"
    assert cfg.engine.k == 6
    assert cfg.engine.tol == 1e-10
    assert cfg.outputs.format == "csv"
    assert set(cfg.outputs.emit) == {"splitting", "degeneracy"}
    assert len(cfg.grid_points()) == 1


def test_parse_grid_is_product():
    cfg = parse_config(
        "[model]\nN_list = 2, 3\nomega = 1\ng_list = 0.1, 0.2\nv_list = 1, 2\n"
    )
    pts = cfg.grid_points()
    assert len(pts) == 8
    assert (pts[0].N, pts[0].g, pts[0].v) == (2, 0.1, 1.0)
    assert (pts[-1].N, pts[-1].g, pts[-1].v) == (3, 0.2, 2.0)


def test_parse_unknown_key_reports_line():
    text = "[model]\nN_list = 3\nomega = 1\nfoo = 1\ng_list = 0.1\nv_list = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "foo" in str(err.value)
    assert err.value.line == 4


def test_parse_unknown_section():
    with pytest.raises(ConfigError) as err:
        parse_config("[banana]\nx = 1\n")
    assert err.value.line == 1


def test_parse_malformed_number_reports_line():
    text = "[model]\nN_list = 3\nomega = abc\ng_list = 0.1\nv_list = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "omega" in str(err.value)
    assert err.value.line == 3
    # a number that is not finite is malformed, for int and float keys alike
    model = "[model]\nN_list = {N}\nomega = {omega}\ng_list = 0.1\nv_list = {v}\n"
    cases = [(model.format(N=3, omega=1, v=1) + f"[engine]\n{key} = {value}\n", key, 7)
             for key in ("k", "seed", "max_dim", "budget_dim_total", "tol") for value in ("inf", "-inf", "1e400", "nan")]
    cases += [(model.format(N=3, omega=1, v=1) + f"[outputs]\n{key} = inf\n", key, 7)
              for key in ("landscape_theta_points", "landscape_phi_points")]
    cases += [(model.format(N="3, inf", omega=1, v=1), "N_list", 2), (model.format(N=3, omega="nan", v=1), "omega", 3),
              (model.format(N=3, omega=1, v="1, -inf"), "v_list", 5)]
    for text, key, line in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert f"malformed number for {key!r}" in str(err.value), text
        assert err.value.line == line


@pytest.mark.parametrize("key", ["landscape_theta_points", "landscape_phi_points"])
def test_parse_rejects_a_single_landscape_point(key):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"[outputs]\n{key} = 1\n")
    assert f"{key} must be >= 2" in str(err.value)
    assert err.value.line == 7


def test_parse_empty_axis_rejected():
    text = "[model]\nN_list = 3\nomega = 1\ng_list = \nv_list = 1\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_parse_missing_model_key():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nN_list = 3\nomega = 1\ng_list = 0.1\n")
    assert "v_list" in str(err.value)


def test_parse_small_k_with_splitting_rejected():
    text = MINIMAL + "[engine]\nk = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "splitting" in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_parse_rejects_tol_that_is_not_finite_and_positive(value):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"[engine]\nk = 6\ntol = {value}\n")
    assert "tol" in str(err.value)
    assert err.value.line == 8


def test_parse_rejects_negative_seed():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "[engine]\nseed = -1\n")
    assert "seed" in str(err.value)
    assert err.value.line == 7


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[model]\nN_list = 3\nN_list = 4\nomega = 1\ng_list = 1\nv_list = 1\n")


def test_parse_bad_emit_token():
    text = MINIMAL + "[outputs]\nemit = splitting, plots\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "plots" in str(err.value)


def test_parse_format_alias_jsonl():
    cfg = parse_config(MINIMAL + "[outputs]\nformat = jsonl\n")
    assert cfg.outputs.format == "json-lines"


def test_unknown_format_error_names_every_accepted_spelling():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "[outputs]\nformat = xml\n")
    assert err.value.line == 7
    for name in ("xml", *sweep.TABLE_FORMATS):
        assert repr(name) in str(err.value), name


def test_parse_circuit_file_excludes_explicit_model():
    text = "[model]\ncircuit_file = dev.txt\nN_list = 3\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_spin_only_odd_row():
    cfg = parse_config(
        "[model]\nN_list = 3\nomega = 1\ng_list = 0.44721359549995793\nv_list = 1\n"
        "[engine]\nmode = spin-only\nk = 4\n"
    )
    rows = run_sweep(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.M_star == 0
    assert row.oracle_deviation is None
    assert row.converged
    assert row.d < 1e-10 * abs(row.E0)
    assert row.Delta > 0
    assert row.pairing_ok


def test_parity_alternation_across_n():
    cfg = parse_config(
        "[model]\nN_list = 3, 4, 5, 6\nomega = 1\ng_list = 0.44721359549995793\nv_list = 1\n"
        "[engine]\nmode = full\nk = 3\nseed = 0\n"
        "[outputs]\nemit = splitting\n"
    )
    rows = run_sweep(cfg)
    splittings = {row.N: row.d for row in rows}
    for N in (3, 5):
        assert splittings[N] < 1e-10 * abs(rows[0].E0), N
    for N in (4, 6):
        assert splittings[N] > 1e-8, N


def test_row_self_consistency():
    cfg = parse_config(SPIN_EVEN)
    rows = run_sweep(cfg)
    for row in rows:
        assert row.u == pytest.approx(row.g**2 / row.omega, rel=1e-14)
        assert row.d == row.E1 - row.E0 or row.d == 0.0
        assert row.Delta == row.E2 - row.E1 or row.Delta == 0.0
        assert row.S == row.N / 2


def test_full_mode_row_records_oracle_deviation():
    cfg = parse_config(MINIMAL + "[engine]\nmode = full\nk = 6\n")
    row = run_sweep(cfg)[0]
    assert row.M_star > 0
    assert row.oracle_deviation is not None and row.oracle_deviation > 0
    assert row.converged


def test_per_point_failure_isolated():
    # second point exceeds max_dim at its starting cutoff; first still succeeds
    cfg = parse_config(
        "[model]\nN_list = 1, 7\nomega = 1\ng_list = 0.5\nv_list = 0.5\n"
        "[engine]\nmode = full\nk = 3\nmax_dim = 120\n"
    )
    rows = run_sweep(cfg)
    assert len(rows) == 2
    assert rows[0].converged
    assert not rows[1].converged
    assert math.isnan(rows[1].E0)


def test_negative_seed_built_in_code_fails_its_row_only():
    # parse_config rejects seed = -1; an EngineConfig built in code reaches solve_lowest
    cfg = parse_config("[model]" + MINIMAL + "[engine]\nmode = full\n")
    cfg.engine.seed = -1
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert not rows[0].converged
    assert math.isnan(rows[0].E0)


def test_global_budget_aborts_with_partial_rows():
    cfg = parse_config(
        "[model]\nN_list = 3, 3, 3\nomega = 1\ng_list = 0.3, 0.31, 0.32\nv_list = 1\n"
        "[engine]\nmode = full\nbudget_dim_total = 100\n"
    )
    with pytest.raises(SweepAborted) as err:
        run_sweep(cfg)
    assert len(err.value.rows) < 9


def test_budget_charges_every_cutoff_search_solve():
    # N = 3, g = 1.0 solves at M = 19 and M = 38 and accepts M* = 19: the
    # search costs 20*4 + 39*4 = 236, the accepted cutoff alone 80
    text = (
        "[model]\nN_list = 3\nomega = 1\ng_list = {g}\nv_list = 1\n"
        "[engine]\nmode = full\nbudget_dim_total = {limit}\n"
    )
    assert run_sweep(parse_config(text.format(g=1.0, limit=236)))[0].M_star == 19
    with pytest.raises(SweepAborted) as err:
        run_sweep(parse_config(text.format(g=1.0, limit=200)))
    assert err.value.rows == []
    # g = 0.3 is certified at M = 11 without a solve at 22: it costs 12*4 = 48
    assert run_sweep(parse_config(text.format(g=0.3, limit=48)))[0].M_star == 11


def test_budget_charges_the_solves_of_a_search_that_breaches_max_dim():
    # at max_dim = 100 the N = 3, g = 1.0 search solves M = 19 (80 rows) and
    # stops at M = 38 (156 rows): the failed row costs 80
    text = (
        "[model]\nN_list = {N}\nomega = 1\ng_list = {g}\nv_list = 1\n"
        "[engine]\nmode = full\nmax_dim = {max_dim}\nbudget_dim_total = {limit}\n"
    )
    rows = run_sweep(parse_config(text.format(N=3, g="1.0", max_dim=100, limit=80)))
    assert not rows[0].converged and math.isnan(rows[0].E0)
    with pytest.raises(SweepAborted) as err:
        run_sweep(parse_config(text.format(N=3, g="1.0", max_dim=100, limit=79)))
    assert str(err.value) == "global dimension budget exceeded (80 > 79)"
    assert err.value.rows == []
    # two such points cost 160; the second breaches a budget of 159
    with pytest.raises(SweepAborted) as err:
        run_sweep(parse_config(text.format(N=3, g="1.0, 1.0", max_dim=100, limit=159)))
    assert [row.converged for row in err.value.rows] == [False]
    # at N = 400, g = 2 the first cutoff, M = 640010, is refused for its band
    # entries before any solve, by a ResourceError with an empty history: it costs 0
    rows = run_sweep(parse_config(text.format(N=400, g="2.0", max_dim=10**9, limit=1)))
    assert not rows[0].converged and math.isnan(rows[0].E0)


def test_budget_charges_the_solves_before_a_block_refused_for_its_band_entries(monkeypatch):
    # N = 6, u/v = 0.5 solves M = 15, then M = 30: a band guard that just
    # admits the blocks of M = 15 refuses those of M = 30
    p = ModelParams(N=6, omega=1.0, g=math.sqrt(0.5), v=1.0)
    M0 = initial_cutoff(p)
    limit = max(model.symmetry_block(p, M0, s, r).size for s in (0, 1) for r in (1, -1))
    monkeypatch.setattr(model, "DEFAULT_MAX_NONZEROS", limit)
    with pytest.raises(ResourceError, match="band entries") as err:
        converge_cutoff(p)
    assert [M for M, *_ in err.value.history] == [M0] == [15]
    budget = sweep.Budget(10**6)
    with pytest.raises(ResourceError, match="band entries"):
        sweep.evaluate_point(p, sweep.EngineConfig(), 0, budget)
    assert budget.used == (M0 + 1) * (p.N + 1)  # the solve at M = 15


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.model.N_list == (3, 4, 5, 6, 8) and cfg.engine.budget_dim_total == 5_000_000
    assert cfg.outputs.emit == ("splitting", "degeneracy", "spectrum", "scaling-fit")


def test_emit_csv_exact_header_and_digits(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(SPIN_EVEN.replace("path = rows.csv", f"path = {out}"))
    rows = run_sweep(cfg)
    emit_results(rows, cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    # 17-significant-digit rendering round-trips the stored floats exactly
    fields = lines[1].split(",")
    names = CSV_HEADER.split(",")
    e0 = float(fields[names.index("E0")])
    assert e0 == rows[0].E0
    assert fields[names.index("oracle_deviation")] == ""  # omitted in spin-only mode
    assert fields[names.index("pairing_ok")] in ("true", "false")
    assert fields[names.index("wall_time_seconds")] == "0"


def test_emit_jsonl_keys_match_header(tmp_path):
    out = tmp_path / "rows.jsonl"
    cfg = parse_config(
        SPIN_EVEN.replace("path = rows.csv", f"path = {out}").replace(
            "[outputs]", "[outputs]\nformat = json-lines"
        )
    )
    rows = run_sweep(cfg)
    emit_results(rows, cfg)
    lines = out.read_text().splitlines()
    assert len(lines) == len(rows)
    for line in lines:
        obj = json.loads(line)
        assert list(obj.keys()) == CSV_HEADER.split(",")
    first = json.loads(lines[0])
    assert first["oracle_deviation"] is None
    assert first["E0"] == rows[0].E0


def test_emit_timing_zeroed_by_default(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(SPIN_EVEN.replace("path = rows.csv", f"path = {out}"))
    rows = run_sweep(cfg)
    assert any(row.wall_time_seconds > 0 for row in rows)  # measured in memory
    emit_results(rows, cfg)
    body = out.read_text()
    emit_results(rows, cfg, include_timing=True)
    timed = out.read_text()
    assert body != timed  # opt-in flag records the real times


def test_emit_scaling_fit_files(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(
        SPIN_EVEN.replace("path = rows.csv", f"path = {out}").replace(
            "[outputs]", "[outputs]\nemit = splitting, scaling-fit"
        )
    )
    rows = run_sweep(cfg)
    paths = emit_results(rows, cfg)
    scaling = tmp_path / "rows.scaling.csv"
    fit = tmp_path / "rows.fit.csv"
    assert scaling in paths and fit in paths
    assert scaling.read_text().splitlines()[0] == "N,d,ln_d"
    header, values = fit.read_text().splitlines()
    assert header == "slope,intercept,r_squared"
    slope, _, r2 = (float(x) for x in values.split(","))
    assert slope < 0
    assert r2 > 0.99


SPIN_FLOOR = """
[model]
N_list = {N_list}
omega = 1.0
g_list = 0.70710678118654757
v_list = 1.0

[engine]
mode = spin-only

[outputs]
path = {out}
emit = splitting, scaling-fit
"""


def test_scaling_fit_leaves_out_splittings_below_the_floor(tmp_path):
    # u/v = 0.5: d falls below 32 eps |E0| between N = 36 and N = 40
    out = tmp_path / "rows.csv"
    cfg = parse_config(SPIN_FLOOR.format(N_list=", ".join(map(str, range(8, 61, 4))), out=out))
    rows = run_sweep(cfg)
    emit_results(rows, cfg)
    resolved = [(row.N, row.d) for row in rows if row.d > resolution_floor(row.E0)]
    assert 3 <= len(resolved) < len(rows) - 3, resolved
    lines = (tmp_path / "rows.scaling.csv").read_text().splitlines()[1:]
    assert [(int(N), float(d)) for N, d, _ in (line.split(",") for line in lines)] == resolved


def test_scaling_fit_error_counts_the_splittings_below_the_floor(tmp_path):
    cfg = parse_config(SPIN_FLOOR.format(N_list="36, 40, 44, 48, 52", out=tmp_path / "rows.csv"))
    rows = run_sweep(cfg)
    with pytest.raises(ValidationError) as err:
        emit_results(rows, cfg)
    assert "got 1 (4 dropped as below the floor)" in str(err.value)


@pytest.mark.parametrize(
    "model",
    [
        "N_list = 3, 5\nomega = 1\ng_list = 0.3\nv_list = 1\n",
        "N_list = 3, 4, 5, 6\nomega = 1\ng_list = 0.3\nv_list = 1\n",
        "circuit_file = device.txt\n",
    ],
    ids=["odd-N", "two-even-N", "circuit"],
)
def test_parse_rejects_scaling_fit_without_three_even_points(model):
    text = "[model]\n" + model + "[outputs]\npath = rows.csv\nemit = splitting, scaling-fit\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "scaling-fit needs at least 3 even-N grid points" in str(err.value)
    assert err.value.line == text.splitlines().index("emit = splitting, scaling-fit") + 1


def test_parse_counts_every_even_grid_point_for_scaling_fit():
    # two even N times two couplings are four rows to fit
    cfg = parse_config(
        "[model]\nN_list = 4, 5, 6\nomega = 1\ng_list = 0.3, 0.4\nv_list = 1\n"
        "[outputs]\nemit = scaling-fit\n"
    )
    assert cfg.outputs.emit == ("scaling-fit",)


def test_spectrum_file_equals_a_reference_written_one_level_at_a_time(tmp_path, monkeypatch):
    solve = sweep.spin_model_spectrum

    def fail_at_n7(p, k=None):
        if p.N == 7:
            raise np.linalg.LinAlgError("dsterf failed to converge")
        return solve(p, k)

    monkeypatch.setattr(sweep, "spin_model_spectrum", fail_at_n7)
    out = tmp_path / "rows.csv"
    cfg = parse_config(
        "[model]\nN_list = 2, 6, 7, 8\nomega = 1.3\ng_list = 0.1, 0.70710678118654757\n"
        "v_list = 1.0, 0.3\n[engine]\nmode = spin-only\nk = 6\n"
        f"[outputs]\npath = {out}\nemit = splitting, spectrum\n"
    )
    rows = run_sweep(cfg)
    assert [row.converged for row in rows].count(False) == 4  # N = 7
    emit_results(rows, cfg)
    reference = ["point,N,omega,g,v,u,level,energy"]
    for i, row in enumerate(rows):
        N, omega, g, v, u = row.N, row.omega, row.g, row.v, row.u
        for level, E in enumerate(row.eigenvalues):
            reference.append(f"{i},{N},{omega:.17g},{g:.17g},{v:.17g},{u:.17g},{level},{E:.17g}")
    spectrum = (tmp_path / "rows.spectrum.csv").read_bytes()
    assert spectrum == ("\n".join(reference) + "\n").encode()


def test_landscape_writer_keys_energies_by_bit_pattern(tmp_path, monkeypatch):
    # 0.0 == -0.0, so a writer that dedups on float values prints one for the other
    grid = sweep.landscape_grid(ModelParams(N=4, omega=1.0, g=0.5, v=1.0), 3, 4)
    grid[:, 2] = [0.0, -0.0, -1.5, -0.0, 0.0, 0.0, -1.5, -0.0, 2.0 / 3.0, -0.0, 0.0, -1.5]
    monkeypatch.setattr(sweep, "landscape_grid", lambda p, theta_points, phi_points: grid)
    path = tmp_path / "grid.csv"
    sweep.write_landscape(None, 3, 4, path)
    expected = "".join(f"{t:.17g},{f:.17g},{e:.17g}\n" for t, f, e in grid.tolist())
    assert path.read_text() == "theta,phi,energy\n" + expected
    assert ",0\n" in expected and ",-0\n" in expected


def test_emit_landscape_requires_single_point(tmp_path):
    out = tmp_path / "rows.csv"
    text = SPIN_EVEN.replace("path = rows.csv", f"path = {out}")
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("[outputs]", "[outputs]\nemit = landscape"))
    assert "landscape emit needs a single grid point, config has 3" in str(err.value)
    assert err.value.line == text.splitlines().index("[outputs]") + 2
    # a config built in code skips parse_config; emit_results checks it too
    cfg = parse_config(text)
    cfg = replace(cfg, outputs=replace(cfg.outputs, emit=("landscape",)))
    with pytest.raises(ValidationError, match="single grid point"):
        emit_results(run_sweep(cfg), cfg)


def test_emit_landscape_grid(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(
        f"[model]\nN_list = 3\nomega = 1\ng_list = 0.4\nv_list = 1\n"
        f"[engine]\nmode = spin-only\n"
        f"[outputs]\npath = {out}\nemit = landscape\n"
        f"landscape_theta_points = 5\nlandscape_phi_points = 8\n"
    )
    rows = run_sweep(cfg)
    emit_results(rows, cfg)
    lines = (tmp_path / "rows.landscape.csv").read_text().splitlines()
    assert lines[0] == "theta,phi,energy"
    assert len(lines) == 1 + 5 * 8
    th, ph, e = (float(x) for x in lines[1].split(","))
    assert (th, ph) == (0.0, 0.0)
    assert e == pytest.approx(-0.16 * 2.25, rel=1e-12)  # -u S^2 at the pole


# u/v = 0.9: N = 13 accepts its cutoff on a 665-row block, above
# DENSE_SOLVE_MAX_DIM, solved by shift-invert Lanczos; N = 12 stays dense
FULL_SHIFT_INVERT = """
[model]
N_list = 12, 13
omega = 1.0
g_list = 0.9486832980505138
v_list = 1.0

[engine]
mode = full
k = 6
seed = 0

[outputs]
path = rows.csv
emit = splitting, degeneracy, spectrum
"""


def test_reruns_give_the_same_bytes(tmp_path):
    for name, text in (("spin", SPIN_EVEN), ("full", FULL_SHIFT_INVERT)):
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}.csv"
            cfg = parse_config(text.replace("path = rows.csv", f"path = {out}"))
            rows = run_sweep(cfg)
            blobs.append(b"".join(path.read_bytes() for path in emit_results(rows, cfg)))
        assert blobs[0] == blobs[1], name


def test_point_wall_times_do_not_overlap():
    # each point's wall time is its own work: the times of a sweep's points
    # add up to no more than the sweep took
    n_list = ", ".join(str(N) for N in range(2, 400))
    cfg = parse_config(SPIN_EVEN.replace("N_list = 4, 6, 8", f"N_list = {n_list}"))
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 398
    assert sum(row.wall_time_seconds for row in rows) <= 1.05 * elapsed + 1e-3


def _check_full_rows(rows):
    assert [row.N for row in rows] == [12, 13]
    assert all(row.converged for row in rows)
    assert rows[0].d > 0
    assert rows[1].d == 0.0
    assert "shift-invert" in {row.solver for row in rows}  # the grid reaches the Lanczos path


def _imports_reference(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any("reference" in alias.name.split(".") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return "reference" in (node.module or "").split(".") or any(
            alias.name == "reference" for alias in node.names
        )
    return False


def test_full_sweep_never_calls_block_lanczos(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("block Lanczos is a cross-check only")

    monkeypatch.setattr("dickelab.reference.lanczos_lowest", refuse)
    monkeypatch.setattr("dickelab.lanczos_lowest", refuse)
    _check_full_rows(run_sweep(parse_config(FULL_SHIFT_INVERT)))


def test_full_sweep_never_assembles_full_hamiltonian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full H is a test reference only")

    monkeypatch.setattr("dickelab.reference.build_full_hamiltonian", refuse)
    monkeypatch.setattr("dickelab.build_full_hamiltonian", refuse)
    _check_full_rows(run_sweep(parse_config(FULL_SHIFT_INVERT)))


def test_the_solve_path_never_uses_the_references(monkeypatch):
    # (a) only the package's re-exports import the reference module
    for path in Path(reference.__file__).parent.glob("*.py"):
        if path.name not in ("reference.py", "__init__.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert not any(_imports_reference(node) for node in ast.walk(tree)), path.name

    # (b) full-mode and spin-only sweeps run with every reference callable refusing
    def refuse(*args, **kwargs):
        raise AssertionError("the references are for tests only")

    public = [
        name for name, obj in vars(reference).items()
        if not name.startswith("_") and callable(obj) and obj.__module__ == reference.__name__
    ]
    assert {"build_full_hamiltonian", "dense_spectrum", "lanczos_lowest"} <= set(public)
    for name in public:
        monkeypatch.setattr(reference, name, refuse)
        monkeypatch.setattr(dickelab, name, refuse, raising=False)
    _check_full_rows(run_sweep(parse_config(FULL_SHIFT_INVERT)))
    rows = run_sweep(parse_config(SPIN_EVEN))
    assert [row.N for row in rows] == [4, 6, 8]
    assert all(row.d > 0 for row in rows)


def test_emit_rejects_missing_directory(tmp_path):
    cfg = parse_config(SPIN_EVEN.replace("path = rows.csv", f"path = {tmp_path}/nope/rows.csv"))
    rows = run_sweep(cfg)
    with pytest.raises(Exception):
        emit_results(rows, cfg)


DEVICE_TEXT = """
units = angular
E_c = 3.0e10
E_J = 5.0e9
n_g = 0.5
Phi_x = 1.5707963267948966
Phi_e = 1.5707963267948966
L = 1.0e-8
I_c = 3.64e-9
omega = 3.7699111843077517e10
g = 3.6442474781615398e7
N = 3
"""


def test_sweep_from_circuit_file(tmp_path):
    dev = tmp_path / "device.txt"
    dev.write_text(DEVICE_TEXT)
    cfg = parse_config(
        f"[model]\ncircuit_file = {dev}\n[engine]\nmode = spin-only\nk = 4\n"
    )
    rows = run_sweep(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.N == 3
    assert row.u == pytest.approx(row.g**2 / row.omega, rel=1e-14)
    assert row.u < row.v  # deep two-well regime for these device values
    assert row.d == 0.0  # odd N: exact Kramers doublet of the spin model
    assert row.pairing_ok


# ---------------------------------------------------------------- forked workers

WORKER_GRIDS = {
    "spin-only": SPIN_EVEN.replace("N_list = 4, 6, 8", "N_list = 2, 3, 4, 5, 6, 7, 8, 9, 40, 41")
    .replace("[outputs]", "[outputs]\nemit = splitting, degeneracy, spectrum"),
    "full even and odd N": FULL_SHIFT_INVERT.replace("N_list = 12, 13", "N_list = 6, 7, 12, 13"),
    "a failing point": (
        "[model]\nN_list = 1, 7, 2, 3, 8\nomega = 1\ng_list = 0.5\nv_list = 0.5\n"
        "[engine]\nmode = full\nk = 3\nmax_dim = 120\n"
        "[outputs]\npath = rows.csv\nemit = splitting, degeneracy, spectrum\n"
    ),
}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forking(monkeypatch):
    # the workers fork after the first point, and W = 3 really runs three
    # processes on a machine with fewer CPUs
    monkeypatch.setattr(sweep, "FORK_WORTH_S", 0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


@pytest.mark.parametrize("grid", WORKER_GRIDS)
def test_workers_give_the_same_bytes(tmp_path, forking, grid):
    blobs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.csv"
        cfg = parse_config(WORKER_GRIDS[grid].replace("path = rows.csv", f"path = {out}"))
        rows = run_sweep(cfg, workers)
        _no_child_left()
        if grid == "a failing point":
            assert [row.converged for row in rows] == [True, False, True, True, False]
        blobs.append([path.read_bytes() for path in emit_results(rows, cfg)])
    assert len(blobs[0]) == 2  # the table and the .spectrum.csv
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize(
    "text, n_rows, message",
    [
        # spin-only charges N + 1: 11, 21, 31, 41, 51 against 70 breaks at the
        # fourth point, which a share of W = 2 or 3 reaches under its own budget
        (
            "[model]\nN_list = 10, 20, 30, 40, 50\nomega = 1\ng_list = 0.5\nv_list = 1\n"
            "[engine]\nmode = spin-only\nbudget_dim_total = 70\n",
            3,
            "(104 > 70)",
        ),
        # full mode charges every cutoff solve: 236 at g = 1.0, 248 at g = 1.01
        (
            "[model]\nN_list = 3\nomega = 1\ng_list = 1.0, 1.01, 1.02, 0.3\nv_list = 1\n"
            "[engine]\nmode = full\nbudget_dim_total = 300\n",
            1,
            "(484 > 300)",
        ),
    ],
)
def test_budget_breach_is_the_same_at_every_worker_count(forking, text, n_rows, message):
    partial = []
    for workers in (1, 2, 3):
        with pytest.raises(SweepAborted) as err:
            run_sweep(parse_config(text), workers)
        _no_child_left()
        assert str(err.value) == f"global dimension budget exceeded {message}"
        assert len(err.value.rows) == n_rows
        partial.append(
            render_rows([replace(row, wall_time_seconds=0.0) for row in err.value.rows], "csv")
        )
    assert partial[0] == partial[1] == partial[2]


@pytest.mark.parametrize("exc_type", [ValueError, KeyboardInterrupt])
def test_worker_exception_reaches_the_parent(tmp_path, monkeypatch, forking, exc_type):
    parent = os.getpid()
    evaluate = sweep.evaluate_point
    failed = tmp_path / "failed"

    def fail_in_worker(p, *args):
        if os.getpid() != parent:
            failed.touch()
            raise exc_type(f"worker failed at N = {p.N}")
        deadline = time.monotonic() + 30
        while p.N != 4 and not failed.exists() and time.monotonic() < deadline:
            time.sleep(0.01)  # after the fork, leave the worker a point
        return evaluate(p, *args)

    monkeypatch.setattr(sweep, "evaluate_point", fail_in_worker)
    with pytest.raises(exc_type, match="worker failed at N = [68]$"):
        run_sweep(parse_config(SPIN_EVEN), 2)
    _no_child_left()


def test_a_slow_point_does_not_hold_up_the_others(monkeypatch, forking):
    # after the fork the points go to whichever process is free, not to fixed
    # shares: while the parent sleeps on its next point, the worker takes the rest
    parent = os.getpid()
    evaluate = sweep.evaluate_point

    def slow_second_point_in_parent(p, engine, seed, budget):
        row = evaluate(p, engine, seed, budget)
        if os.getpid() != parent:
            return replace(row, wall_time_seconds=0.0)
        if p.N != 2 and not slept:
            slept.append(p.N)
            time.sleep(1.0)
        return replace(row, wall_time_seconds=1.0)

    slept = []
    monkeypatch.setattr(sweep, "evaluate_point", slow_second_point_in_parent)
    cfg = parse_config(SPIN_EVEN.replace("N_list = 4, 6, 8", "N_list = 2, 3, 4, 5, 6, 7, 8, 9"))
    rows = run_sweep(cfg, 2)
    _no_child_left()
    assert [row.N for row in rows] == list(range(2, 10))
    assert [row.N for row in rows if row.wall_time_seconds] == [2] + slept


def test_a_failing_parent_kills_and_reaps_its_workers(monkeypatch, forking):
    parent = os.getpid()
    evaluate = sweep.evaluate_point

    def slow_in_worker_failing_in_parent(p, *args):
        if os.getpid() != parent:
            time.sleep(60)
        if p.N == 4:  # the point before the fork
            return evaluate(p, *args)
        raise ValueError("parent failed")

    monkeypatch.setattr(sweep, "evaluate_point", slow_in_worker_failing_in_parent)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="parent failed"):
        run_sweep(parse_config(SPIN_EVEN), 2)
    assert time.perf_counter() - t0 < 30
    _no_child_left()


def test_a_dead_worker_is_a_run_error(tmp_path, monkeypatch, capsys, forking):
    # a worker that exits without sending its share is an OSError: the CLI
    # prints one error line and exits 2, the code of a run error
    parent = os.getpid()
    evaluate = sweep.evaluate_point
    reached = tmp_path / "reached"

    def die_in_worker(p, *args):
        if os.getpid() != parent:
            reached.touch()
            os._exit(3)
        deadline = time.monotonic() + 30
        while p.N != 4 and not reached.exists() and time.monotonic() < deadline:
            time.sleep(0.01)  # after the fork, leave the worker a point
        return evaluate(p, *args)

    monkeypatch.setattr(sweep, "evaluate_point", die_in_worker)
    with pytest.raises(ChildProcessError, match="exited without a result"):
        run_sweep(parse_config(SPIN_EVEN), 2)
    _no_child_left()
    reached.unlink()

    path = tmp_path / "sweep.ini"
    path.write_text(SPIN_EVEN.replace("path = rows.csv", f"path = {tmp_path / 'rows.csv'}"))
    assert main(["sweep", str(path), "--workers", "2"]) == 2
    _no_child_left()
    assert capsys.readouterr().err == "error: a sweep worker exited without a result\n"


@pytest.mark.parametrize("point_s, forks", [(0.0, 0), (0.15, 1)])
def test_workers_fork_only_for_a_grid_worth_it(monkeypatch, point_s, forks):
    # three points: after the first, the other two project 2 x point_s of work
    # against FORK_WORTH_S = 0.2 s
    calls = []
    real_fork, evaluate = os.fork, sweep.evaluate_point

    def counted_fork():
        calls.append(1)
        return real_fork()

    def timed(p, *args):
        time.sleep(point_s)
        return evaluate(p, *args)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sweep, "evaluate_point", timed)
    rows = run_sweep(parse_config(SPIN_EVEN), 2)
    _no_child_left()
    assert [row.N for row in rows] == [4, 6, 8]
    assert len(calls) == forks


def test_workers_never_flush_the_parents_stdio(tmp_path, monkeypatch, forking):
    path = tmp_path / "stdout.txt"
    with open(path, "w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        out.write("written once\n")  # still in the buffer when the workers fork
        run_sweep(parse_config(SPIN_EVEN), 2)
    _no_child_left()
    assert path.read_text(encoding="utf-8") == "written once\n"


def test_each_point_keeps_its_seed_at_every_worker_count(monkeypatch, forking):
    evaluate = sweep.evaluate_point

    def record_seed(p, engine, seed, budget):
        return replace(evaluate(p, engine, seed, budget), wall_time_seconds=float(seed))

    monkeypatch.setattr(sweep, "evaluate_point", record_seed)
    cfg = parse_config(SPIN_EVEN.replace("seed = 0", "seed = 5"))
    for workers in (1, 2, 3):
        assert [row.wall_time_seconds for row in run_sweep(cfg, workers)] == [5.0, 6.0, 7.0]
        _no_child_left()


@pytest.mark.parametrize(
    "workers, n_points, cpus, forks",
    [(8, 3, 64, 2), (8, 5, 2, 1), (2, 5, 64, 1), (1, 5, 64, 0), (8, 1, 64, 0), (8, 5, None, 2)],
)
def test_worker_count_is_capped_by_points_and_cpus(monkeypatch, workers, n_points, cpus, forks, forking):
    calls = []
    real_fork = os.fork

    def counted_fork():
        calls.append(1)
        if len(calls) > forks:  # never fork past the expected count
            raise OSError("more workers than the cap allows")
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    if cpus is None:  # no affinity call: fall back to os.cpu_count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    n_list = ", ".join(str(N) for N in range(4, 4 + n_points))
    rows = run_sweep(parse_config(SPIN_EVEN.replace("N_list = 4, 6, 8", f"N_list = {n_list}")), workers)
    assert len(rows) == n_points
    assert len(calls) == forks
    _no_child_left()


def test_sweep_runs_serially_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    rows = run_sweep(parse_config(SPIN_EVEN), 4)
    assert [row.N for row in rows] == [4, 6, 8]


@pytest.mark.parametrize("workers", [0, -2])
def test_run_sweep_rejects_workers_below_one(workers):
    with pytest.raises(ValidationError, match="workers must be >= 1"):
        run_sweep(parse_config(SPIN_EVEN), workers)
