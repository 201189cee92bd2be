"""Regenerate the reference figures quoted in perfbench/README.md.

Usage, from the root of a brqst checkout:

    python3 perfbench/reference.py

Prints the environment, the Fig-2 median and interquartile range per
estimator and basis count, the Table-1 minimal count, and the median round
time of the Fig-2 and Table-1 workloads with one BLAS thread (as the
benchmark pins it) and with the unpinned default.  Takes about five minutes
on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import BLAS_THREAD_VARIABLES, environment

HERE = Path(__file__).resolve().parent
SEED = 2066
FIG2_STATES = 24
TABLE1_STATES = 12


def round_p50(workload: str, seed: int, rounds: int, pinned: bool) -> float:
    """Median round time of a workload in a child with or without one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    if pinned:
        env.update({k: "1" for k in BLAS_THREAD_VARIABLES})
    code = (f"import statistics, sys; sys.path[:0] = [{str(HERE)!r}, 'src']\n"
            f"from pathlib import Path; import workloads\n"
            f"wl = workloads.WORKLOADS[{workload!r}]({seed}, Path({str(HERE / 'out' / 'ref')!r}))\n"
            f"print(statistics.median(wl.round(i).wall for i in range({rounds})))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return float(proc.stdout.split()[-1])


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    os.environ.update({k: "1" for k in BLAS_THREAD_VARIABLES})  # as the benchmark runs

    from brqst import NoiseModel, RandomStream, run_robustness_sweep, run_strictness_sweep
    from workloads import FIG2_CONFIG, TABLE1_CONFIG

    print("environment:", json.dumps(environment(len(os.sched_getaffinity(0)))))
    t0 = time.perf_counter()
    fig2 = run_robustness_sweep(
        FIG2_CONFIG["dims"], FIG2_CONFIG["family"], FIG2_STATES,
        NoiseModel(FIG2_CONFIG["q"], FIG2_CONFIG["shots_per_basis"]),
        [5, 6, 7, 8, 9], rng=RandomStream(SEED))[0]
    print(f"Fig-2, d=8 paired bases, {FIG2_STATES} states, seed {SEED} "
          f"({time.perf_counter() - t0:.0f} s):")
    print("| estimator | b | median | IQR (25%, 75%) |\n| --- | --- | --- | --- |")
    for est in ("ls", "trace", "mle"):
        for b in fig2.basis_counts:
            lo, hi = fig2.iqr[est][b]
            print(f"| {est} | {b} | {fig2.medians[est][b]:.2e} | ({lo:.2e}, {hi:.2e}) |")
    print("failures:", fig2.failures)
    t0 = time.perf_counter()
    table1 = run_strictness_sweep(
        TABLE1_CONFIG["dims"], TABLE1_CONFIG["ranks"], TABLE1_CONFIG["family"],
        states_per_dim=TABLE1_STATES, threshold=TABLE1_CONFIG["threshold"],
        max_bases=TABLE1_CONFIG["max_bases"], rng=RandomStream(SEED))[0]
    print(f"Table-1, d=11 rank 2 Haar bases, {TABLE1_STATES} states: minimal count "
          f"{table1.minimal_sufficient} ({time.perf_counter() - t0:.0f} s)")
    for workload in ("fig2-goyeneche-d8", "table1-haar-d11-r2"):
        pinned = round_p50(workload, SEED, 10, pinned=True)
        default = round_p50(workload, SEED, 10, pinned=False)
        print(f"{workload} median round over rounds 0-9, seed {SEED}: one BLAS thread "
              f"{pinned:.3f} s, default threads {default:.3f} s")
    shutil.rmtree(HERE / "out" / "ref", ignore_errors=True)


if __name__ == "__main__":
    main()
