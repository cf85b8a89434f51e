import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dickelab import ModelParams
from dickelab.cli import main
from dickelab.semiclassics import reduced_surface
from dickelab.sweep import TABLE_FORMATS

SWEEP_CFG = """
[model]
N_list = 3
omega = 1.0
g_list = 0.3
v_list = 1.0

[engine]
mode = full
k = 6
seed = 0

[outputs]
path = {out}
"""

DEVICE = """
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


@pytest.fixture
def cfg_file(tmp_path):
    out = tmp_path / "rows.csv"
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_CFG.format(out=out))
    return path, out


def test_spectrum_prints_eigenvalues(cfg_file, capsys):
    path, _ = cfg_file
    assert main(["spectrum", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# N=3")
    values = [float(x) for x in lines[1:7]]
    assert values == sorted(values)
    assert values[0] == pytest.approx(-2.2736319771065, rel=1e-12)
    assert lines[7].startswith("# d=")


def test_spectrum_spin_only_reports_tridiagonal_solver(tmp_path, capsys):
    cfg = tmp_path / "spin.cfg"
    cfg.write_text(
        "[model]\nN_list = 4\nomega = 1\ng_list = 0.5\nv_list = 1\n"
        "[engine]\nmode = spin-only\n"
    )
    assert main(["spectrum", str(cfg)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.endswith(" M_star=0 solver=tridiagonal")



def test_spectrum_charges_the_dimension_budget(tmp_path, capsys):
    # N = 3, g = 1.0 solves at M = 19 and M = 38: the cutoff search costs 236
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(
        "[model]\nN_list = 3\nomega = 1\ng_list = 1.0\nv_list = 1\n"
        "[engine]\nmode = full\nbudget_dim_total = 100\n"
    )
    assert main(["spectrum", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "budget" in lines[0]


@pytest.mark.parametrize(
    "point",
    [
        "N_list = 6\nomega = 1\ng_list = 0.7071\nv_list = 1\n[engine]\nmode = full\nseed = 3\n",
        "N_list = 11\nomega = 1\ng_list = 0.9\nv_list = 1\n[engine]\nmode = spin-only\n",
    ],
    ids=["full", "spin-only"],
)
def test_spectrum_prints_the_sweep_row(tmp_path, capsys, point):
    out = tmp_path / "rows.csv"
    cfg = tmp_path / "point.cfg"
    cfg.write_text(f"[model]\n{point}[outputs]\npath = {out}\nemit = splitting, spectrum\n")
    assert main(["spectrum", str(cfg)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert main(["sweep", str(cfg)]) == 0
    header, values = out.read_text().splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    spectrum = (tmp_path / "rows.spectrum.csv").read_text().splitlines()[1:]
    levels = [line.rsplit(",", 1)[1] for line in spectrum]

    assert f"M_star={row['M_star']}" in printed[0].split()
    assert printed[1:-1] == levels
    assert levels[:3] == [row["E0"], row["E1"], row["E2"]]
    assert printed[-1] == f"# d={row['d']} Delta={row['Delta']}"

@pytest.mark.parametrize(
    "argv", [["spectrum", "x.cfg", "--timing"], ["map-circuit", "dev.txt", "--seed", "1"]]
)
def test_flags_only_on_the_commands_that_read_them(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_writes_table(cfg_file, capsys):
    path, out = cfg_file
    assert main(["sweep", str(path), "--workers", "2"]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
    header = out.read_text().splitlines()[0]
    assert header.startswith("N,S,omega")


def test_sweep_out_and_format_overrides(cfg_file, tmp_path):
    path, _ = cfg_file
    target = tmp_path / "other.jsonl"
    assert main(["sweep", str(path), "--out", str(target), "--format", "jsonl"]) == 0
    obj = json.loads(target.read_text().splitlines()[0])
    assert obj["N"] == 3


def test_format_flag_takes_every_spelling_the_config_takes(cfg_file, tmp_path):
    path, _ = cfg_file
    written = {}
    for fmt in TABLE_FORMATS:
        target = tmp_path / f"rows.{fmt}"
        assert main(["sweep", str(path), "--out", str(target), "--format", fmt]) == 0
        written[fmt] = target.read_bytes()
    assert written["json-lines"] == written["jsonl"] != written["csv"]


def test_landscape_subcommand(cfg_file, tmp_path):
    path, _ = cfg_file
    target = tmp_path / "grid.csv"
    assert main(["landscape", str(path), "--out", str(target)]) == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "theta,phi,energy"
    assert len(lines) == 1 + 61 * 120


def _landscape_reference(p, theta_points, phi_points):
    """The landscape file as a per-point reduced_surface loop writes it."""
    lines = ["theta,phi,energy"]
    for th in np.linspace(0.0, math.pi, theta_points).tolist():
        for ph in np.linspace(0.0, 2.0 * math.pi, phi_points, endpoint=False).tolist():
            lines.append(f"{th:.17g},{ph:.17g},{reduced_surface(p, th, ph):.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("N, g", [(20, 0.70710678118654757), (7, 0.44721359549995793)])
def test_landscape_command_and_emit_write_reference_bytes(tmp_path, N, g):
    rows = tmp_path / "rows.csv"
    cfg = tmp_path / "landscape.cfg"
    cfg.write_text(
        f"[model]\nN_list = {N}\nomega = 1.0\ng_list = {g!r}\nv_list = 1.0\n"
        f"[engine]\nmode = spin-only\n"
        f"[outputs]\npath = {rows}\nemit = landscape\n"
        f"landscape_theta_points = 37\nlandscape_phi_points = 72\n"
    )
    direct = tmp_path / "direct.csv"
    assert main(["landscape", str(cfg), "--out", str(direct)]) == 0
    assert main(["sweep", str(cfg)]) == 0
    reference = _landscape_reference(ModelParams(N=N, omega=1.0, g=g, v=1.0), 37, 72)
    assert direct.read_bytes() == reference.encode()
    assert (tmp_path / "rows.landscape.csv").read_bytes() == reference.encode()


@pytest.mark.parametrize("g, v", [(0.0, 1.0), (0.70710678118654757, 0.0)])
def test_landscape_on_the_g_and_v_zero_lines_writes_reference_bytes(tmp_path, g, v):
    # g = 0 prints -0 cells; v = 0 a surface flat in phi
    cfg = tmp_path / "landscape.cfg"
    cfg.write_text(
        f"[model]\nN_list = 20\nomega = 1.0\ng_list = {g!r}\nv_list = {v!r}\n"
        f"[outputs]\nlandscape_theta_points = 37\nlandscape_phi_points = 72\n"
    )
    direct = tmp_path / "direct.csv"
    assert main(["landscape", str(cfg), "--out", str(direct)]) == 0
    reference = _landscape_reference(ModelParams(N=20, omega=1.0, g=g, v=v), 37, 72)
    assert (",-0\n" in reference) == (g == 0.0)
    assert direct.read_bytes() == reference.encode()


def test_convergence_subcommand(cfg_file, capsys):
    path, _ = cfg_file
    assert main(["convergence", str(path)]) == 0
    out = capsys.readouterr().out
    assert "M,E0,E1,E2" in out
    assert "M_star=" in out


def test_convergence_prints_the_levels_of_each_sweep_row(tmp_path, capsys):
    # the sweep seeds point i with seed + i; at seed 6 the N = 13 levels at
    # M* differ in their last digits between seeds 6 and 7
    out = tmp_path / "rows.csv"
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "[model]\nN_list = 12, 13\nomega = 1\ng_list = 0.9486832980505138\nv_list = 1\n"
        f"[outputs]\npath = {out}\n"
    )
    assert main(["convergence", str(cfg), "--seed", "6"]) == 0
    blocks = capsys.readouterr().out.split("# N=")[1:]
    assert main(["sweep", str(cfg), "--seed", "6"]) == 0
    header, *values = out.read_text().splitlines()
    assert len(blocks) == len(values) == 2
    for block, line in zip(blocks, values):
        row = dict(zip(header.split(","), line.split(",")))
        history = {h.split(",")[0]: h.split(",")[1:] for h in block.splitlines()[2:-1]}
        assert history[row["M_star"]] == [row["E0"], row["E1"], row["E2"]]


def _budget_cfg(tmp_path, g_list, budget, mode="full"):
    cfg = tmp_path / f"budget-{budget}-{mode}.cfg"
    cfg.write_text(
        f"[model]\nN_list = 3\nomega = 1\ng_list = {g_list}\nv_list = 1\n"
        f"[engine]\nmode = {mode}\nbudget_dim_total = {budget}\n"
    )
    return str(cfg)


def test_convergence_charges_the_dimension_budget(tmp_path, capsys):
    # the config of test_spectrum_charges_the_dimension_budget: the search costs 236
    assert main(["convergence", _budget_cfg(tmp_path, "1.0", 100)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "budget" in lines[0]


def test_convergence_shares_one_budget_across_points(tmp_path, capsys):
    # the searches cost 236 (g = 1.0: M = 19, 38) and 248 (g = 1.01: M = 20,
    # 40), so a budget of 300 covers the first only
    assert main(["convergence", _budget_cfg(tmp_path, "1.0", 10_000)]) == 0
    first = capsys.readouterr().out
    assert main(["convergence", _budget_cfg(tmp_path, "1.0, 1.01", 10_000)]) == 0
    assert capsys.readouterr().out.startswith(first)
    assert main(["convergence", _budget_cfg(tmp_path, "1.0, 1.01", 300)]) == 2
    captured = capsys.readouterr()
    assert captured.out == first
    assert captured.err == "error: global dimension budget exceeded (484 > 300)\n"


def test_convergence_prints_the_certified_bound(tmp_path, capsys):
    # g = 0.3 is certified at its first cutoff; g = 1.0 is accepted by comparison
    assert main(["convergence", _budget_cfg(tmp_path, "0.3, 1.0", 10_000)]) == 0
    tails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# M_star=")]
    certified, compared = (line.split() for line in tails)
    assert certified[1:3] == ["M_star=11", "converged=true"]
    assert certified[3].startswith("bound=") and 0 < float(certified[3][6:]) < 1e-10
    assert compared[1:] == ["M_star=19", "converged=true", "bound=nan"]


def test_convergence_runs_the_full_search_in_spin_only_mode(tmp_path, capsys):
    outputs = []
    for mode in ("full", "spin-only"):
        assert main(["convergence", _budget_cfg(tmp_path, "0.3, 0.5", 10_000, mode)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("M,E0,E1,E2") == 2


SHIFT_INVERT_POINT = "[model]\nN_list = 12\nomega = 1\ng_list = 0.9487\nv_list = 1\n[engine]\n"


@pytest.mark.parametrize(
    "engine, flags, message",
    [
        ("seed = -1\n", [], "error: line 7: seed must be >= 0, got -1\n"),
        ("seed = 0\n", ["--seed", "-1"], "error: --seed must be >= 0, got -1\n"),
        ("max_dim = -5\n", [], "error: line 7: max_dim must be >= 1, got -5\n"),
        ("max_dim = 0\n", [], "error: line 7: max_dim must be >= 1, got 0\n"),
        ("budget_dim_total = 0\n", [], "error: line 7: budget_dim_total must be >= 1, got 0\n"),
        ("k = 0\n", [], "error: line 7: k must be >= 1, got 0\n"),
        ("k = 2\n", [], "error: line 7: k must be >= 3 when splitting is requested\n"),
        ("k = inf\n", [], "error: line 7: malformed number for 'k': 'inf'\n"),
    ],
    ids=["config", "flag", "max_dim-negative", "max_dim-zero", "budget-zero", "k-zero", "k-splitting", "k-inf"],
)
def test_bad_engine_value_exits_one_with_one_line(tmp_path, capsys, engine, flags, message):
    # each value is refused before any solve, so nothing reaches stdout
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(SHIFT_INVERT_POINT + engine)
    assert main(["spectrum", str(cfg), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_cli_import_loads_no_graph_search():
    code = "import sys, dickelab.cli; print(sorted(m for m in sys.modules if 'csgraph' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    ).stdout
    assert out == "[]\n"


def test_map_circuit_reports(tmp_path, capsys):
    dev = tmp_path / "device.txt"
    dev.write_text(DEVICE)
    assert main(["map-circuit", str(dev)]) == 0
    out = capsys.readouterr().out
    assert "u < v         : yes" in out
    assert "optimal point : yes" in out


def test_map_circuit_non_finite_value_exits_one_with_its_line(tmp_path, capsys):
    dev = tmp_path / "device.txt"
    dev.write_text(DEVICE.replace("E_c = 3.0e10", "E_c = nan"))
    assert main(["map-circuit", str(dev)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: malformed number for 'E_c': 'nan'\n"


def test_map_circuit_linear_display(tmp_path, capsys):
    dev = tmp_path / "device.txt"
    dev.write_text(DEVICE)
    assert main(["map-circuit", str(dev), "--freq-display", "linear"]) == 0
    out = capsys.readouterr().out
    omega_line = next(line for line in out.splitlines() if line.startswith("omega"))
    assert float(omega_line.split("=")[1].split()[0]) == pytest.approx(6e9, rel=1e-9)


def test_validation_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("junk = 1\n")
    assert main(["sweep", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_scaling_fit_without_three_even_points_fails_before_any_solve(
    tmp_path, monkeypatch, capsys
):
    def no_solve(*args):
        raise AssertionError("a point was solved")

    monkeypatch.setattr("dickelab.cli.run_sweep", no_solve)
    rows = tmp_path / "rows.csv"
    cfg = tmp_path / "odd.cfg"
    cfg.write_text(
        "[model]\nN_list = 3, 5\nomega = 1\ng_list = 0.3\nv_list = 1\n"
        f"[engine]\nmode = spin-only\n[outputs]\npath = {rows}\nemit = splitting, scaling-fit\n"
    )
    assert main(["sweep", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: line 10: scaling-fit needs at least 3 even-N grid points, the grid has 0\n"
    )
    assert not rows.exists()


def test_landscape_on_a_multi_point_grid_fails_before_any_table(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    cfg = tmp_path / "multi.cfg"
    cfg.write_text(
        "[model]\nN_list = 4, 5\nomega = 1\ng_list = 0.3\nv_list = 1\n"
        f"[engine]\nmode = spin-only\n[outputs]\npath = {rows}\nemit = landscape\n"
    )
    assert main(["sweep", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error: line 10: landscape emit needs a single grid point, config has 2\n"
    )
    assert not rows.exists()


def test_spectrum_rejects_multi_point_config(tmp_path, capsys):
    cfg = tmp_path / "multi.cfg"
    cfg.write_text(
        "[model]\nN_list = 2, 3\nomega = 1\ng_list = 0.2\nv_list = 1\n"
    )
    assert main(["spectrum", str(cfg)]) == 1
    assert "single grid point" in capsys.readouterr().err


def test_resource_error_exits_two(tmp_path, capsys):
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text(
        "[model]\nN_list = 7\nomega = 1\ng_list = 0.5\nv_list = 1\n"
        "[engine]\nmax_dim = 50\n"
    )
    assert main(["convergence", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_seed_override_changes_engine(cfg_file):
    path, out = cfg_file
    assert main(["sweep", str(path), "--seed", "7", "--workers", "1"]) == 0
    first = out.read_bytes()
    assert main(["sweep", str(path), "--seed", "7", "--workers", "4"]) == 0
    assert out.read_bytes() == first  # same seed, any worker count: same bytes


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(cfg_file, capsys, workers):
    path, out = cfg_file
    assert main(["sweep", str(path), "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert err == f"error: workers must be >= 1, got {workers}\n"
    assert not out.exists()


def test_sweep_missing_output_path(tmp_path, capsys):
    cfg = tmp_path / "nopath.cfg"
    cfg.write_text("[model]\nN_list = 3\nomega = 1\ng_list = 0.3\nv_list = 1\n[engine]\nmode = spin-only\n")
    assert main(["sweep", str(cfg)]) == 1
    assert "output path" in capsys.readouterr().err


def test_sweep_budget_breach_flushes_partial_rows(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(
        f"[model]\nN_list = 3\nomega = 1\ng_list = 1.0, 1.01, 1.02\nv_list = 1\n"
        f"[engine]\nmode = full\nbudget_dim_total = 300\n"
        f"[outputs]\npath = {out}\n"
    )
    assert main(["sweep", str(cfg), "--workers", "1"]) == 2
    captured = capsys.readouterr()
    assert "budget" in captured.err
    assert out.exists()  # completed rows flushed before exiting
    assert "partial" in captured.err
    assert len(out.read_text().splitlines()) >= 2  # header + at least one row


@pytest.mark.parametrize("command", ["spectrum", "convergence"])
def test_failed_factorization_exits_two_with_one_line(cfg_file, monkeypatch, capsys, command):
    import dickelab.diagnostics as diagnostics

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("2-th leading minor not positive definite")

    monkeypatch.setattr(diagnostics, "solve_lowest", fail)
    path, _ = cfg_file
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 2-th leading minor not positive definite\n"
