"""One workload run in a fresh interpreter.

Usage: python3 bench/child.py SPEC_JSON [--trace SPANS_JSONL]

Set-up (imports, config parsing, grid generation) ends with ``ready`` on
stdout.  The parent then writes ``go`` or ``exit`` to stdin.  On ``go``
the workload runs through dickelab's public entry points, and one JSON
line with wall, CPU and peak-memory figures (plus per-layer metrics
when traced) goes to stdout.  Output of the CLI itself is swallowed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = ap.parse_args()
    proto = sys.stdout

    import dickelab
    from dickelab import cli
    from dickelab.errors import DescentError
    from dickelab.model import ModelParams
    from dickelab.semiclassics import find_minima
    from dickelab.sweep import parse_config

    src = Path.cwd() / "src"
    if Path(dickelab.__file__).resolve().parent.parent != src.resolve():
        print(f"dickelab imported from {dickelab.__file__}, not from {src}", file=sys.stderr)
        return 2

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    for sweep in spec["sweeps"]:
        parse_config(Path(sweep["path"]).read_text(encoding="utf-8")).grid_points()
    if spec["landscape"]:
        parse_config(Path(spec["landscape"]).read_text(encoding="utf-8")).grid_points()
    minima_params = [ModelParams(N=N, omega=om, g=g, v=v) for N, om, g, v in spec["minima"]]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap("cli.main", cli.main)
        minima_fn = tracer.wrap("semiclassics.minima", find_minima)
    else:
        cli_main, minima_fn = cli.main, find_minima

    print("ready", file=proto, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    exit_codes = []
    minima = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for sweep in spec["sweeps"]:
            exit_codes.append(cli_main(["sweep", sweep["path"], "--workers", str(sweep["workers"])]))
        if spec["landscape"]:
            exit_codes.append(cli_main(["landscape", spec["landscape"]]))
        for p in minima_params:
            try:
                minima.append(minima_fn(p, seed=spec["minima_seed"]))
            except DescentError as exc:  # a failed operation, counted by the parent
                minima.append(str(exc))
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_codes": exit_codes,
        "minima": [found if isinstance(found, str) else
                   [{"x": s.point.x, "y": s.point.y, "theta": s.point.theta, "phi": s.point.phi}
                    for s in found] for found in minima],
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        tracer.dump(args.trace)
        result["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
