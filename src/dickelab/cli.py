"""Command-line front end.

Subcommands: spectrum, sweep, landscape, map-circuit, convergence.
Exit codes: 0 success, 1 validation/config error, 2 resource or runtime
error (with partial sweep results flushed when available).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .circuit import derive_model_params, read_device_file, validate_regime
from .diagnostics import converge_cutoff, spin_model_spectrum, splitting_and_gap
from .errors import ResourceError, SweepAborted, ValidationError
from .solvers import SolverOptions
from .sweep import SweepConfig, emit_results, parse_config, run_sweep, write_landscape

_FMT = "{:.17g}".format


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output path (overrides the config)")
    sub.add_argument("--format", choices=["csv", "jsonl"], help="table format")
    sub.add_argument(
        "--workers",
        type=int,
        help="accepted for compatibility; has no effect (sweep points run serially)",
    )
    sub.add_argument("--seed", type=int, help="solver seed (overrides the config)")
    sub.add_argument(
        "--freq-display",
        choices=["angular", "linear"],
        default="angular",
        help="report frequencies as angular (rad/s) or linear (value / 2 pi)",
    )
    sub.add_argument(
        "--timing",
        action="store_true",
        help="record real wall times in output files (breaks byte-identical reruns)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickelab",
        description="Exact diagonalization and semiclassics for the extended Dicke model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("spectrum", "solve one grid point and print its eigenvalues"),
        ("sweep", "run the configured parameter sweep and write tables"),
        ("landscape", "export the reduced energy surface on a (theta, phi) grid"),
        ("convergence", "print the Fock-cutoff doubling history per grid point"),
    ):
        s = sub.add_parser(name, help=helptext)
        s.add_argument("config", help="path to a sweep config file")
        _add_common(s)
    s = sub.add_parser("map-circuit", help="derive model parameters from a device file")
    s.add_argument("device", help="path to a key = value device-parameter file")
    _add_common(s)
    return parser


def _load_config(args) -> SweepConfig:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        cfg.engine.seed = args.seed
    if args.format:
        cfg.outputs.format = {"jsonl": "json-lines"}.get(args.format, args.format)
    return cfg


def _single_point(cfg: SweepConfig):
    points = cfg.grid_points()
    if len(points) != 1:
        raise ValidationError(
            f"this command needs a single grid point, config has {len(points)}"
        )
    return points[0]


def _freq(value: float, display: str) -> float:
    return value / (2 * math.pi) if display == "linear" else value


def _cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    p = _single_point(cfg)
    opts = SolverOptions(k=cfg.engine.k, seed=cfg.engine.seed)
    if cfg.engine.mode == "spin-only":
        eigs = spin_model_spectrum(p)[: cfg.engine.k]
        m_star = 0
        solver = "dense"
    else:
        conv = converge_cutoff(p, cfg.engine.tol, k=3, options=opts, max_dim=cfg.engine.max_dim)
        m_star = conv.M_star
        eigs = conv.spectrum.eigenvalues[: cfg.engine.k]
        solver = conv.spectrum.solver
    print(
        f"# N={p.N} omega={_FMT(p.omega)} g={_FMT(p.g)} v={_FMT(p.v)} "
        f"u={_FMT(p.u)} M_star={m_star} solver={solver}"
    )
    for e in eigs:
        print(_FMT(float(e)))
    if eigs.size >= 3:
        sg = splitting_and_gap(eigs[:3])
        print(f"# d={_FMT(sg.d)} Delta={_FMT(sg.Delta)}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        rows = run_sweep(cfg, workers=args.workers)
    except SweepAborted as exc:
        if exc.rows:
            written = emit_results(
                exc.rows, cfg, include_timing=args.timing, out_override=args.out
            )
            for path in written:
                print(f"wrote {path} ({len(exc.rows)} rows, partial)", file=sys.stderr)
        raise
    written = emit_results(rows, cfg, include_timing=args.timing, out_override=args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_landscape(args) -> int:
    cfg = _load_config(args)
    p = _single_point(cfg)
    out = args.out or cfg.outputs.path
    if not out:
        raise ValidationError("no output path configured (set outputs.path or --out)")
    write_landscape(p, cfg.outputs.landscape_theta_points, cfg.outputs.landscape_phi_points, out)
    print(f"wrote {out}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _load_config(args)
    opts = SolverOptions(k=cfg.engine.k, seed=cfg.engine.seed)
    for p in cfg.grid_points():
        rep = converge_cutoff(p, cfg.engine.tol, k=3, options=opts, max_dim=cfg.engine.max_dim)
        print(f"# N={p.N} omega={_FMT(p.omega)} g={_FMT(p.g)} v={_FMT(p.v)}")
        print("M,E0,E1,E2")
        for M, e0, e1, e2 in rep.history:
            print(f"{M},{_FMT(e0)},{_FMT(e1)},{_FMT(e2)}")
        print(f"# M_star={rep.M_star} converged={'true' if rep.converged else 'false'}")
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
    except (ResourceError, SweepAborted, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
