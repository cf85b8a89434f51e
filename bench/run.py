"""dickelab benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 bench/run.py --workload full-parity --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``.
Each workload run is a fresh child interpreter with BLAS and OpenMP
pinned to one thread; runs repeat while the next one is expected to end
within ``--seconds`` (at least one).  Set-up is timed in every child plus
extra children that only set up, and reported as a median.  Outputs are
checked against references built here without dickelab.  The last line
of stdout is the result as JSON; lines before it are a readable summary
and the run environment.  See bench/README.md.
"""

from __future__ import annotations

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads its BLAS in this process

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, make_spec, spec_digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
TIME_LIMIT_S = 170.0  # the whole run, set-up and checks included
SETUP_ONLY_CHILDREN = 8  # half before the timed runs, half after
MAX_PRINTED_FAILURES = 40  # the results file lists them all


class BenchError(RuntimeError):
    pass


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return ""


# ---------------------------------------------------------------- children


class Children:
    """Spawns child.py runs against one deadline and reaps every process it starts."""

    def __init__(self, child_spec: Path, deadline: float):
        self.child_spec = child_spec
        self.deadline = deadline

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def _read_line(self, proc) -> str:
        ready, _, _ = select.select([proc.stdout], [], [], self._remaining())
        if not ready:
            raise BenchError("child did not answer before the time limit")
        return proc.stdout.readline().strip()

    def _spawn(self, trace_path: Path | None):
        cmd = [sys.executable, str(ROOT / "bench" / "child.py"), str(self.child_spec)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(ROOT / "src")}
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            if self._read_line(proc) != "ready":
                raise BenchError(f"child failed during set-up (exit {proc.wait()})")
        except BaseException:
            self._reap(proc)
            raise
        return proc, time.perf_counter() - t0

    def _reap(self, proc) -> None:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()

    def setup_only(self) -> float:
        proc, setup_s = self._spawn(None)
        try:
            proc.stdin.write("exit\n")
            proc.stdin.flush()
            proc.wait(timeout=self._remaining())
        finally:
            self._reap(proc)
        return setup_s

    def run(self, trace_path: Path | None = None) -> tuple[dict, float]:
        proc, setup_s = self._spawn(trace_path)
        steal0 = _steal_s()
        try:
            proc.stdin.write("go\n")
            proc.stdin.flush()
            line = self._read_line(proc)
            code = proc.wait(timeout=self._remaining())
        finally:
            self._reap(proc)
        if code != 0 or not line:
            raise BenchError(f"workload child exited with {code}")
        result = json.loads(line)
        result["steal_s"] = _steal_s() - steal0
        return result, setup_s


# -------------------------------------------------------------- references


def _references(spec: dict, digest: str) -> list[list[list[float]]]:
    """Reference levels per sweep point, cached per spec digest (so per seed)."""
    cache = WORK / "ref" / f"{spec['workload']}-{digest}.json"
    if cache.is_file():
        return json.loads(cache.read_text(encoding="utf-8"))
    refs = []
    for sweep in spec["sweeps"]:
        if sweep["mode"] == "full":
            refs.append([reference.full_levels(N, g, v) for N, g, v in sweep["points"]])
        else:
            refs.append([reference.spin_only_levels(N, g, v) for N, g, v in sweep["points"]])
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(refs), encoding="utf-8")
    return refs


def _materialise(spec: dict, out_dir: Path) -> Path:
    """Write the configs the program reads and the child's spec; returns the latter."""
    out_dir.mkdir(parents=True, exist_ok=True)
    child = {"sweeps": [], "landscape": None, "minima": spec["minima"],
             "minima_seed": spec["minima_seed"]}
    for i, sweep in enumerate(spec["sweeps"]):
        cfg = out_dir / f"sweep{i}.cfg"
        cfg.write_text(sweep["config"], encoding="utf-8")
        child["sweeps"].append({"path": cfg.relative_to(ROOT).as_posix(),
                                "workers": sweep["workers"]})
    if spec["landscape"]:
        cfg = out_dir / "landscape.cfg"
        cfg.write_text(spec["landscape"]["config"], encoding="utf-8")
        child["landscape"] = cfg.relative_to(ROOT).as_posix()
    path = out_dir / "child-spec.json"
    path.write_text(json.dumps(child), encoding="utf-8")
    return path


def _output_files(spec: dict) -> list[Path]:
    files = [ROOT / p for s in spec["sweeps"] for p in (s["table"], s["spectrum"])]
    if spec["landscape"]:
        files.append(ROOT / spec["landscape"]["table"])
    return files


def _check_outputs(spec: dict, refs, result: dict, report: checks.Report) -> int:
    """Full output checks of one workload run; returns the number of minima missed."""
    for i, (sweep, ref) in enumerate(zip(spec["sweeps"], refs)):
        checks.check_sweep(report, f"sweep{i}", _read(ROOT / sweep["table"]),
                           _read(ROOT / sweep["spectrum"]), sweep["points"], ref,
                           spin_only=sweep["mode"] == "spin-only", k=sweep["k"])
    if spec["landscape"]:
        land = spec["landscape"]
        checks.check_landscape(report, _read(ROOT / land["table"]), *land["point"], *land["grid"])
    return checks.check_minima(report, spec["minima"], result["minima"])


# ------------------------------------------------------------- environment


def _environment(spec: dict, source: str) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            git_rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            caches.append("L{} {} {}".format(*(Path(index, f).read_text().strip()
                                                for f in ("level", "type", "size"))))
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_rev": git_rev,
        "source_sha256": source,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas": blas,
        "threads": PINNED_THREADS,
        "workers": [s["workers"] for s in spec["sweeps"]],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _measure(spec, refs, children: Children, trace_path, seconds: float, started: float):
    """Timed (or alternating untraced/traced) runs for ``seconds``, set-up samples and checks."""
    half = SETUP_ONLY_CHILDREN // 2
    setups = [children.setup_only() for _ in range(half)]
    runs, baseline = [], []  # baseline: untraced runs alternating with traced ones
    report = checks.Report()
    window_start = time.monotonic()
    last = 0.0
    while not runs or (time.monotonic() - window_start) + last <= seconds:
        t0 = time.monotonic()
        if trace_path is not None:
            result, setup_s = children.run()
            baseline.append(result)
            setups.append(setup_s)
        result, setup_s = children.run(trace_path)
        last = time.monotonic() - t0
        runs.append(result)
        setups.append(setup_s)
        if len(runs) == 1:
            first_digests = {p: _file_digest(p) for p in _output_files(spec) if p.is_file()}
            minima_missing = _check_outputs(spec, refs, result, report)
        elif {p: _file_digest(p) for p in first_digests} != first_digests:
            report.fail("file:outputs", "byte_identical_within_run",
                        f"run {len(runs)} wrote different bytes", hard=True)
        if time.monotonic() - started + last > TIME_LIMIT_S - 10:
            break
    for result in runs + baseline:
        if any(code != 0 for code in result["exit_codes"]):
            report.fail("file:exit", "exit_code", str(result["exit_codes"]), hard=True)
    setups += [children.setup_only() for _ in range(SETUP_ONLY_CHILDREN - half)]
    return runs, baseline, setups, report, minima_missing


# -------------------------------------------------------------------- main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "dickelab" / "__init__.py").is_file():
        print(f"error: no dickelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    out_dir = WORK / "out" / f"{args.workload}-{os.getpid()}"
    spec = make_spec(args.workload, args.seed, out_dir.relative_to(ROOT).as_posix())
    digest = spec_digest(make_spec(args.workload, args.seed, ""))  # independent of out_dir
    source = _source_digest()
    refs = _references(spec, digest)
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        children = Children(_materialise(spec, out_dir), started + TIME_LIMIT_S)
        runs, baseline, setups, report, minima_missing = _measure(
            spec, refs, children, trace_path, args.seconds, started)
        # every run of one seed (and one program) must write the same main table
        for sweep in spec["sweeps"]:
            table = ROOT / sweep["table"]
            if not table.is_file():
                continue
            seen = WORK / "tables" / f"{digest}-{source}-{table.name}.sha256"
            table_digest = _file_digest(table)
            if seen.is_file():
                if seen.read_text().strip() != table_digest:
                    report.fail("file:outputs", "byte_identical_across_runs", table.name,
                                hard=True)
            else:
                seen.parent.mkdir(parents=True, exist_ok=True)
                seen.write_text(table_digest + "\n")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    med = lambda key, rs: statistics.median(r[key] for r in rs)  # noqa: E731
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in runs)
                  for name in runs[0]["layers"]}
        layers["semiclassics.minima_missing"] = minima_missing
        layers["trace.overhead_s"] = med("wall_s", runs) - med("wall_s", baseline)
        values = layers
    else:
        values = {
            "wall_s": med("wall_s", runs),
            "setup_s": statistics.median(setups),
            "cpu_s": med("cpu_s", runs),
            "peak_rss_mb": med("peak_rss_mb", runs),
            "pass_frac": (report.attempted - report.failed) / report.attempted,
        }
    missing = [name for name in wanted if name not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    env = _environment(spec, source)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "runs": len(runs), "setup_samples": len(setups), "env": env,
        "attempted": report.attempted, "failed": report.failed,
        "failed_frac": report.failed / report.attempted,
        "failures": [f.__dict__ for f in report.failures],
        "metrics": values,
        "per_run": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "steal_s")}
                    for r in runs],
        "setups": setups,
    }
    results_file = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(runs)} run(s), "
          f"{len(setups)} set-ups, median of each")
    for name in wanted:
        print(f"#   {name:34s} {values[name]:.6g} {units[name]}")
    print(f"#   failed_frac = {report.failed}/{report.attempted} = "
          f"{report.failed / report.attempted:.6g} (correct={report.correct})")
    for f in report.failures[:MAX_PRINTED_FAILURES]:
        print(f"#   FAIL {f.op}: {f.check} {f.detail}{' [hard]' if f.hard else ''}")
    if len(report.failures) > MAX_PRINTED_FAILURES:
        print(f"#   ... {len(report.failures) - MAX_PRINTED_FAILURES} more in {results_file}")
    print("# env " + json.dumps(env))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
