"""Command-line front end.

Subcommands: spectrum, sweep, landscape, map-circuit, convergence.
Exit codes: 0 success, 1 validation/config error, 2 resource or runtime
error (with partial sweep results flushed when available).
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401  argparse's gettext imports it at the first parse; it loads here instead
import math
import sys
from pathlib import Path

import numpy as np

from .circuit import derive_model_params, read_device_file, validate_regime
from .errors import ResourceError, SweepAborted, ValidationError
from .sweep import (
    TABLE_FORMATS,
    Budget,
    SweepConfig,
    emit_results,
    evaluate_point,
    parse_config,
    run_sweep,
    write_landscape,
)

_FMT = "{:.17g}".format


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickelab",
        description="Exact diagonalization and semiclassics for the extended Dicke model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, helptext in (
        ("spectrum", "solve one grid point and print its eigenvalues"),
        ("sweep", "run the configured parameter sweep and write tables"),
        ("landscape", "export the reduced energy surface on a (theta, phi) grid"),
        ("convergence", "print the Fock-cutoff search history, M* and its bound per grid point"),
    ):
        commands[name] = sub.add_parser(name, help=helptext)
        commands[name].add_argument("config", help="path to a sweep config file")
    # each flag goes only on the subcommands that read it
    for name in ("sweep", "landscape"):
        commands[name].add_argument("--out", help="output path (overrides the config)")
    for name in ("spectrum", "sweep", "convergence"):
        commands[name].add_argument("--seed", type=int, help="solver seed (overrides the config)")
    sweep = commands["sweep"]
    sweep.add_argument("--format", choices=list(TABLE_FORMATS), help="table format")
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="evaluate grid points in up to N processes (capped at the points and usable CPUs, "
        "forked only for a grid that takes long enough; the tables do not depend on it)",
    )
    sweep.add_argument(
        "--timing",
        action="store_true",
        help="record real wall times in output files (breaks byte-identical reruns)",
    )
    s = sub.add_parser("map-circuit", help="derive model parameters from a device file")
    s.add_argument("device", help="path to a key = value device-parameter file")
    s.add_argument(
        "--freq-display",
        choices=["angular", "linear"],
        default="angular",
        help="report frequencies as angular (rad/s) or linear (value / 2 pi)",
    )
    return parser


def _load_config(args) -> SweepConfig:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        cfg.engine.seed = args.seed
    if getattr(args, "format", None):
        cfg.outputs.format = TABLE_FORMATS[args.format]
    if getattr(args, "out", None):
        cfg.outputs.path = args.out
    if hasattr(args, "out") and not cfg.outputs.path:  # a command that writes: fail before any solve
        raise ValidationError("no output path configured (set outputs.path or --out)")
    return cfg


def _freq(value: float, display: str) -> float:
    return value / (2 * math.pi) if display == "linear" else value


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    p = cfg.single_point("this command")
    row = evaluate_point(p, cfg.engine, cfg.engine.seed, Budget(cfg.engine.budget_dim_total))
    print(
        f"# N={p.N} omega={_FMT(p.omega)} g={_FMT(p.g)} v={_FMT(p.v)} "
        f"u={_FMT(p.u)} M_star={row.M_star} solver={row.solver}"
    )
    for e in row.eigenvalues:
        print(_FMT(e))
    if len(row.eigenvalues) >= 3:
        print(f"# d={_FMT(row.d)} Delta={_FMT(row.Delta)}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        rows = run_sweep(cfg, args.workers)
    except SweepAborted as exc:
        if exc.rows:
            try:
                written = emit_results(exc.rows, cfg, include_timing=args.timing)
            except ValidationError as err:  # a scaling fit the completed rows cannot support
                print(f"not written: {err}", file=sys.stderr)
                cfg.outputs.emit = tuple(tok for tok in cfg.outputs.emit if tok != "scaling-fit")
                written = emit_results(exc.rows, cfg, include_timing=args.timing)
            for path in written:
                print(f"wrote {path} ({len(exc.rows)} rows, partial)", file=sys.stderr)
        raise
    written = emit_results(rows, cfg, include_timing=args.timing)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_landscape(args) -> int:
    cfg = _load_config(args)
    p = cfg.single_point("this command")
    write_landscape(
        p, cfg.outputs.landscape_theta_points, cfg.outputs.landscape_phi_points, cfg.outputs.path
    )
    print(f"wrote {cfg.outputs.path}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _load_config(args)
    cfg.engine.mode = "full"  # the cutoff search is the full model's, whatever the mode
    budget = Budget(cfg.engine.budget_dim_total)
    for i, p in enumerate(cfg.grid_points()):  # seeded as the sweep seeds its row i
        rep = evaluate_point(p, cfg.engine, cfg.engine.seed + i, budget).convergence
        print(f"# N={p.N} omega={_FMT(p.omega)} g={_FMT(p.g)} v={_FMT(p.v)}")
        print("M,E0,E1,E2")
        for M, e0, e1, e2 in rep.history:
            print(f"{M},{_FMT(e0)},{_FMT(e1)},{_FMT(e2)}")
        print(
            f"# M_star={rep.M_star} converged={'true' if rep.converged else 'false'} "
            f"bound={_FMT(rep.bound)}"
        )
    return 0


def _cmd_map_circuit(args) -> int:
    circuit = read_device_file(args.device)
    model, derived = derive_model_params(circuit)
    report = validate_regime(model, derived)
    disp = args.freq_display
    unit = "rad/s" if disp == "angular" else "Hz"
    print(f"N       = {model.N}")
    for name, value in (
        ("omega", model.omega),
        ("g", model.g),
        ("v", model.v),
        ("u", model.u),
        ("epsilon", derived.epsilon),
        ("eta", derived.eta),
    ):
        print(f"{name:7s} = {_FMT(_freq(value, disp))} {unit}")
    print(f"kappa   = {_FMT(derived.kappa)}")
    print(f"u < v         : {'yes' if report.u_lt_v else 'NO'}")
    print(f"optimal point : {'yes' if report.optimal_point else 'NO'}")
    print(f"eta = 0       : {'yes' if report.eta_zero else 'NO'}")
    for msg in report.messages:
        print(f"warning: {msg}")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "landscape": _cmd_landscape,
    "convergence": _cmd_convergence,
    "map-circuit": _cmd_map_circuit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:  # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ResourceError, SweepAborted, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
