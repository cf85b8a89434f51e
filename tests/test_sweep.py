import json
import math
import time

import pytest

from dickelab import (
    CSV_HEADER,
    ConfigError,
    SweepAborted,
    emit_results,
    parse_config,
    run_sweep,
)

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


def test_parse_circuit_file_excludes_explicit_model():
    text = "[model]\ncircuit_file = dev.txt\nN_list = 3\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_spin_only_odd_row():
    cfg = parse_config(
        "[model]\nN_list = 3\nomega = 1\ng_list = 0.44721359549995793\nv_list = 1\n"
        "[engine]\nmode = spin-only\nk = 4\n"
    )
    rows = run_sweep(cfg, workers=1)
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
    rows = run_sweep(cfg, workers=2)
    splittings = {row.N: row.d for row in rows}
    for N in (3, 5):
        assert splittings[N] < 1e-10 * abs(rows[0].E0), N
    for N in (4, 6):
        assert splittings[N] > 1e-8, N


def test_row_self_consistency():
    cfg = parse_config(SPIN_EVEN)
    rows = run_sweep(cfg, workers=2)
    for row in rows:
        assert row.u == pytest.approx(row.g**2 / row.omega, rel=1e-14)
        assert row.d == row.E1 - row.E0 or row.d == 0.0
        assert row.Delta == row.E2 - row.E1 or row.Delta == 0.0
        assert row.S == row.N / 2


def test_full_mode_row_records_oracle_deviation():
    cfg = parse_config(MINIMAL + "[engine]\nmode = full\nk = 6\n")
    row = run_sweep(cfg, workers=1)[0]
    assert row.M_star > 0
    assert row.oracle_deviation is not None and row.oracle_deviation > 0
    assert row.converged


def test_per_point_failure_isolated():
    # second point exceeds max_dim at its starting cutoff; first still succeeds
    cfg = parse_config(
        "[model]\nN_list = 1, 7\nomega = 1\ng_list = 0.5\nv_list = 0.5\n"
        "[engine]\nmode = full\nk = 3\nmax_dim = 120\n"
    )
    rows = run_sweep(cfg, workers=1)
    assert len(rows) == 2
    assert rows[0].converged
    assert not rows[1].converged
    assert math.isnan(rows[1].E0)


def test_global_budget_aborts_with_partial_rows():
    cfg = parse_config(
        "[model]\nN_list = 3, 3, 3\nomega = 1\ng_list = 0.3, 0.31, 0.32\nv_list = 1\n"
        "[engine]\nmode = full\nbudget_dim_total = 100\n"
    )
    with pytest.raises(SweepAborted) as err:
        run_sweep(cfg, workers=1)
    assert len(err.value.rows) < 9


def test_budget_charges_every_cutoff_search_solve():
    # N = 3, g = 0.3 solves at M = 11 and M = 22 and accepts M* = 11: the
    # search costs 12*4 + 23*4 = 140, the accepted cutoff alone 48
    text = (
        "[model]\nN_list = 3\nomega = 1\ng_list = 0.3\nv_list = 1\n"
        "[engine]\nmode = full\nbudget_dim_total = {limit}\n"
    )
    assert run_sweep(parse_config(text.format(limit=140)), workers=1)[0].M_star == 11
    with pytest.raises(SweepAborted) as err:
        run_sweep(parse_config(text.format(limit=100)), workers=1)
    assert err.value.rows == []


def test_emit_csv_exact_header_and_digits(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(SPIN_EVEN.replace("path = rows.csv", f"path = {out}"))
    rows = run_sweep(cfg, workers=1)
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
    rows = run_sweep(cfg, workers=1)
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
    rows = run_sweep(cfg, workers=1)
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
    rows = run_sweep(cfg, workers=1)
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


def test_emit_landscape_requires_single_point(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(
        SPIN_EVEN.replace("path = rows.csv", f"path = {out}").replace(
            "[outputs]", "[outputs]\nemit = landscape"
        )
    )
    rows = run_sweep(cfg, workers=1)
    with pytest.raises(Exception) as err:
        emit_results(rows, cfg)
    assert "single grid point" in str(err.value)


def test_emit_landscape_grid(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(
        f"[model]\nN_list = 3\nomega = 1\ng_list = 0.4\nv_list = 1\n"
        f"[engine]\nmode = spin-only\n"
        f"[outputs]\npath = {out}\nemit = landscape\n"
        f"landscape_theta_points = 5\nlandscape_phi_points = 8\n"
    )
    rows = run_sweep(cfg, workers=1)
    emit_results(rows, cfg)
    lines = (tmp_path / "rows.landscape.csv").read_text().splitlines()
    assert lines[0] == "theta,phi,energy"
    assert len(lines) == 1 + 5 * 8
    th, ph, e = (float(x) for x in lines[1].split(","))
    assert (th, ph) == (0.0, 0.0)
    assert e == pytest.approx(-0.16 * 2.25, rel=1e-12)  # -u S^2 at the pole


# the cutoff search's 2M solves have blocks of 738, 615 (N = 10) and 858
# (N = 11), above dense_threshold, so they run ARPACK
FULL_ARPACK = """
[model]
N_list = 10, 11
omega = 1.0
g_list = 0.70710678118654757
v_list = 1.0

[engine]
mode = full
k = 6
seed = 0

[outputs]
path = rows.csv
emit = splitting, degeneracy, spectrum
"""


def test_workers_do_not_change_bytes(tmp_path):
    for name, text in (("spin", SPIN_EVEN), ("full", FULL_ARPACK)):
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"{name}_{workers}.csv"
            cfg = parse_config(text.replace("path = rows.csv", f"path = {out}"))
            rows = run_sweep(cfg, workers=workers)
            blobs.append(b"".join(path.read_bytes() for path in emit_results(rows, cfg)))
        assert blobs[0] == blobs[1], name


def test_point_wall_times_do_not_overlap():
    # each point's wall time is its own work: the times of a sweep's points
    # add up to no more than the sweep took, whatever the worker count
    n_list = ", ".join(str(N) for N in range(2, 400))
    cfg = parse_config(SPIN_EVEN.replace("N_list = 4, 6, 8", f"N_list = {n_list}"))
    t0 = time.perf_counter()
    rows = run_sweep(cfg, workers=2)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 398
    assert sum(row.wall_time_seconds for row in rows) <= 1.05 * elapsed + 1e-3


def test_full_sweep_never_calls_block_lanczos(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("block Lanczos is a cross-check only")

    monkeypatch.setattr("dickelab.solvers.lanczos_lowest", refuse)
    rows = run_sweep(parse_config(FULL_ARPACK), workers=1)
    assert [row.N for row in rows] == [10, 11]
    assert all(row.converged for row in rows)
    assert rows[0].d > 0
    assert rows[1].d == 0.0


def test_emit_rejects_missing_directory(tmp_path):
    cfg = parse_config(SPIN_EVEN.replace("path = rows.csv", f"path = {tmp_path}/nope/rows.csv"))
    rows = run_sweep(cfg, workers=1)
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
    rows = run_sweep(cfg, workers=1)
    assert len(rows) == 1
    row = rows[0]
    assert row.N == 3
    assert row.u == pytest.approx(row.g**2 / row.omega, rel=1e-14)
    assert row.u < row.v  # deep two-well regime for these device values
    assert row.d == 0.0  # odd N: exact Kramers doublet of the spin model
    assert row.pairing_ok
