"""Benchmark for the brqst tomography toolkit.

Usage, from the root of a brqst checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload for S seconds in this process (the CLI
workload runs one ``brqst`` subprocess at a time), checks the program's
outputs, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a separate traced run
reports per-layer metrics and writes its spans to ``perfbench/out/``.

BLAS is pinned to one thread for this process and every child it starts:
with the default two threads on two cores, the same Table-1 cell took 1.3 to
2.8 s from one repeat to the next when other load shared the machine, and
1.7 to 2.2 s with one thread.  The thread count found is printed on the info
line; ``reference.py`` measures the unpinned default for comparison.

The timed metrics are CPU seconds, of this process and of the children it
waited for (the CLI commands, the set-up probes), scaled to a reference
speed by a fixed calibration kernel timed before and after each round or
probe: the machine's speed changes by itself, by a factor of two within a
minute (see "End-to-end metrics" in README.md).  Raw CPU and wall times
are on the info line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
OVERHEAD_PAIRS = 2
WORKLOAD_NAMES = ("fig2-goyeneche-d8", "table1-haar-d11-r2", "cli-pipeline-d8")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and prepare the workload, then exit (set-up probe)")
    return ap.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(cpus_allowed: int) -> dict:
    import numpy as np

    return {"blas_threads": blas_threads(), "cpu_count": os.cpu_count(),
            "cpus_allowed": cpus_allowed, "cpu_pinned": sorted(os.sched_getaffinity(0)),
            "numpy": np.__version__, "python": platform.python_version()}


def setup_probe(args):
    """Elapsed time of a fresh interpreter that imports brqst and prepares the inputs."""
    import workloads

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    lap = workloads.stopwatch()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = lap()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return elapsed


def make_workload(name: str, seed: int, workdir: Path):
    if name == "cli-pipeline-d8":
        import brqst.cli  # noqa: F401  (what every CLI command imports)
    import workloads

    return workloads.WORKLOADS[name](seed, workdir)


def timed_rounds(wl, seconds: float) -> tuple[list, list[float]]:
    """Rounds until time is up, and the calibration times before, between and after them."""
    import workloads

    times, cal = [], [workloads.calibration_cpu_s()]
    t_start = time.perf_counter()
    while True:
        times.append(wl.round(len(times)))
        cal.append(workloads.calibration_cpu_s())
        if time.perf_counter() - t_start >= seconds:
            return times, cal


def setup_probes(args) -> tuple[list, list[float]]:
    """SETUP_PROBES set-up probes, and the calibration times around them."""
    import workloads

    setup, cal = [], [workloads.calibration_cpu_s()]
    for _ in range(SETUP_PROBES):
        setup.append(setup_probe(args))
        cal.append(workloads.calibration_cpu_s())
    return setup, cal


def at_reference_speed(times, cal: list[float]) -> list[float]:
    import workloads

    return [workloads.at_reference_speed(t.cpu, cal[i], cal[i + 1]) for i, t in enumerate(times)]


def traced_rounds(wl, seconds: float, trace_path: Path) -> dict:
    """Traced rounds until time is up; the first OVERHEAD_PAIRS also run untraced.

    The paired rounds have the same inputs, alternate which side runs first,
    and give the tracing overhead.
    """
    import tracing

    tracer = tracing.Tracer()

    def traced(i: int) -> float:
        """Wall seconds of traced round i (the spans are wall times too)."""
        tracer.round = i
        if wl.traced_modules:
            tracer.install(wl.traced_modules)
        span = tracer.open("benchmark.round")
        try:
            elapsed = wl.round(i, tracer).wall
        finally:
            tracer.close(span)
            tracer.uninstall()
        return elapsed

    t_start = time.perf_counter()
    times, untraced = [], []
    while True:
        i = len(times)
        if i < OVERHEAD_PAIRS and i % 2 == 0:
            untraced.append(wl.round(i).wall)
            times.append(traced(i))
        elif i < OVERHEAD_PAIRS:
            times.append(traced(i))
            untraced.append(wl.round(i).wall)
        else:
            times.append(traced(i))
        if time.perf_counter() - t_start >= seconds:
            break
    summary = tracing.layer_summary(tracer.spans, len(times))
    metrics = dict(summary["metrics"])
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(times[:len(untraced)]) / sum(untraced) - 1.0), "%")
    shares = {k: v / sum(times) for k, v in summary["layer_totals_s"].items()}
    tracer.dump(trace_path, {"rounds": len(times), "round_s": times, "untraced_round_s": untraced,
                             "summary": summary, "share_of_wall": shares})
    return {"metrics": metrics, "rounds": len(times), "share_of_wall": shares}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARIABLES:  # before numpy is first imported
        os.environ[var] = "1"
    # one CPU for this process and its children: the machine's CPUs can run
    # at different speeds, and the calibration must run where the work does
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    root = Path.cwd()
    if not (root / "src" / "brqst" / "__init__.py").is_file():
        print("perfbench: ./src/brqst not found; run from the root of a brqst checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, workdir)
            return 0
        wl = make_workload(args.workload, args.seed, workdir)
        info: dict = {"workload": args.workload, "seed": args.seed, "env": environment(len(cpus))}
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            traced = traced_rounds(wl, args.seconds, trace_path)
            metrics = traced["metrics"]
            info.update(rounds=traced["rounds"], trace_file=str(trace_path.relative_to(root)),
                        share_of_wall=traced["share_of_wall"])
        else:
            times, cal = timed_rounds(wl, args.seconds)
            # read before the set-up probes run, so that the children measured
            # on the CLI workload are the brqst commands only
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline-d8" \
                else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
            setup, setup_cal = setup_probes(args)
            rounds_s = at_reference_speed(times, cal)
            setups_s = at_reference_speed(setup, setup_cal)
            metrics = {
                "setup_s": (statistics.median(setups_s), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "round_s": (statistics.median(rounds_s), "s"),
            }
            info.update(rounds=len(times), round_s=rounds_s, setup_s=setups_s,
                        calibration_cpu_s=cal + setup_cal,
                        round_cpu_p50_s=statistics.median(t.cpu for t in times),
                        round_cpu_s=[t.cpu for t in times],
                        round_wall_s=[t.wall for t in times],
                        round_wall_p50_s=statistics.median(t.wall for t in times),
                        setup_cpu_s=[s.cpu for s in setup], setup_wall_s=[s.wall for s in setup],
                        ops_per_cpu_s=wl.attempted / sum(t.cpu for t in times))
        wl.finish()
        info.update(wl.info)
        info["problems"] = wl.problems[:20]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}, default=float))
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
