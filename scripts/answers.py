"""Compare the answers of two brqst checkouts on fixed records.

Usage, from anywhere:

    python3 scripts/answers.py --parent PATH --change PATH [--out FILE]

PATH is the root of a checkout (the directory holding ``src/brqst``).  Each
checkout runs in its own child process, with ``PYTHONPATH`` set to its
``src`` and one BLAS thread, on two fixed sets of records:

* **fig2**: 40 noisy d = 8 Goyeneche records drawn by :func:`fig2_record`,
  which ``tests/test_estimators.py`` draws its Fig-2 records with (seeds 777
  and 4242, states 0-9, b = 5 and 9), each estimated by least squares, trace
  minimisation and maximum likelihood with
  ``SolverConfig(max_iterations=20000, relative_tolerance=1e-10)``;
* **table1**: the 70 Table-1 cells (d = 11, rank 2, Haar bases, 4 states)
  that the benchmark draws for its seeds 181 (rounds 0-9) and 182 (rounds
  0-59), with the configuration and seeds of ``perfbench/workloads.py``, run
  through ``experiments.run_strictness_sweep``.

Per call it records the objective (least squares 0.5 ||r||^2, trace
minimisation Tr X, maximum likelihood the NLL), the residual norm and its
excess over the radius, the estimate, the convergence flag, the error kind
of a raise, and the core iterations and ``numpy.linalg.eigh`` /
``numpy.linalg.solve`` calls.  It prints, or writes to FILE, one JSON object
with the comparison: objective drift, estimate drift (Frobenius), counts per
call, raises and convergence on both sides; minimal counts, moved
infidelities and flipped verdicts of the Table-1 cells.  Only numpy is
needed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIG2_SEEDS = (777, 4242)
FIG2_STATES = range(10)
FIG2_BASES = (5, 9)
# (benchmark seed, rounds) of the Table-1 cells
TABLE1_ROUNDS = ((181, 10), (182, 60))
ESTIMATORS = ("ls", "trace", "mle")


class Counter:
    """Counts the calls of numpy.linalg.eigh and numpy.linalg.solve."""

    def __init__(self):
        self.calls = {"eigh": 0, "solve": 0}
        for name in self.calls:
            setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def take(self) -> dict:
        out = dict(self.calls)
        for name in self.calls:
            self.calls[name] = 0
        return out


def fig2_record(seed: int, state: int, b: int, d: int = 8, q: float = 1e-3, shots: int = 2400):
    """The record of one Fig-2 state at b bases, drawn as ``run_robustness_sweep`` draws it."""
    from brqst import MeasurementVector, RandomStream, default_epsilon, random_mixed_hs, random_pure_state
    from brqst.experiments import _basis_frequencies, measurement_prefixes
    from brqst.linalg import hermitianize

    stream = RandomStream(seed).derive(d, state)
    psi = random_pure_state(d, stream.derive(0))
    tau = random_mixed_hs(d, stream.derive(1))
    sigma = hermitianize((1 - q) * np.outer(psi, psi.conj()) + q * tau.mat)
    povms = measurement_prefixes("goyeneche", d, [b, 9], stream.derive(2))
    blocks = _basis_frequencies(povms[9], sigma, shots, stream.derive(3).generator())
    f = MeasurementVector(np.concatenate(blocks[:b]) / b, kind="empirical_frequencies",
                          total_shots=b * shots)
    return povms[b], f, default_epsilon(b, d, shots) / b


def collect_fig2() -> list[dict]:
    from brqst import InfeasibleError, SolverConfig, estimate_ls, estimate_mle, estimate_trace_min

    cfg = SolverConfig(max_iterations=20_000, relative_tolerance=1e-10)
    counter = Counter()
    rows = []
    for seed in FIG2_SEEDS:
        for state in FIG2_STATES:
            for b in FIG2_BASES:
                povm, f, eps = fig2_record(seed, state, b)
                calls = {"ls": lambda: estimate_ls(povm, f, cfg),
                         "trace": lambda: estimate_trace_min(povm, f, eps, cfg),
                         "mle": lambda: estimate_mle(povm, f, eps, cfg)}
                for name in ESTIMATORS:
                    row = {"record": [seed, state, b], "estimator": name, "eps": eps}
                    counter.take()
                    try:
                        rep = calls[name]()
                    except InfeasibleError as exc:
                        row["raised"] = exc.kind
                        rows.append(row)
                        continue
                    raw = rep.raw.mat
                    r = np.einsum("mij,ji->m", povm.stack, raw).real - f.values
                    objective = {"ls": 0.5 * float(r @ r), "trace": float(np.trace(raw).real),
                                 "mle": rep.objective}[name]
                    row.update(raised=None, objective=objective, residual=float(np.linalg.norm(r)),
                               converged=bool(rep.converged), iterations=int(rep.iterations),
                               estimate=[rep.estimate.mat.real.tolist(), rep.estimate.mat.imag.tolist()],
                               **counter.take())
                    rows.append(row)
    return rows


def collect_table1() -> list[dict]:
    from brqst import RandomStream, experiments

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import TABLE1_CONFIG, Table1, round_seed

    counter = Counter()
    cells = []
    for seed, rounds in TABLE1_ROUNDS:
        for i in range(rounds):
            counter.take()
            c0 = time.process_time()
            (res,) = experiments.run_strictness_sweep(
                **TABLE1_CONFIG, rng=RandomStream(round_seed(Table1.tag, seed, i)), threads=1)
            cells.append({"cell": [seed, i], "minimal": res.minimal_sufficient,
                          "threshold": res.threshold,
                          "ls_calls": res.states * len(res.basis_counts),
                          "infidelities": {str(b): v.tolist() for b, v in res.infidelities.items()},
                          "cpu_s": time.process_time() - c0, **counter.take()})
    return cells


def collect(which: str) -> list[dict]:
    return {"fig2": collect_fig2, "table1": collect_table1}[which]()


def run_checkout(root: Path, which: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect", which],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _spread(values: list[float]) -> dict:
    moved = [v for v in values if v != 0.0]
    return {"min": min(values, default=0.0), "max": max(values, default=0.0), "moved": len(moved)}


def _per_call(rows: list[dict], key: str) -> float:
    return round(float(np.mean([r[key] for r in rows])), 2) if rows else float("nan")


def compare_fig2(parent: list[dict], change: list[dict]) -> dict:
    out = {"raises": {}, "converged": {}}
    for side, rows in (("parent", parent), ("change", change)):
        out["raises"][side] = sum(r["raised"] is not None for r in rows)
        out["converged"][side] = sum(bool(r.get("converged")) for r in rows)
    for name in ESTIMATORS:
        pairs = [(p, c) for p, c in zip(parent, change)
                 if p["estimator"] == name and p["raised"] is None and c["raised"] is None]
        rel = [(c["objective"] - p["objective"]) / abs(p["objective"]) for p, c in pairs]
        drift = [float(np.linalg.norm(np.array(c["estimate"]) - np.array(p["estimate"])))
                 for p, c in pairs]
        worst = pairs[int(np.argmax(drift))][0]["record"] if pairs else None
        entry = {
            "raises": [sum(r["estimator"] == name and r["raised"] is not None for r in rows)
                       for rows in (parent, change)],
            "converged": [sum(r["estimator"] == name and bool(r.get("converged")) for r in rows)
                          for rows in (parent, change)],
            "objective_relative_change": _spread(rel),
            "estimate_frobenius": {"max": max(drift, default=0.0),
                                   "median": float(np.median(drift)) if drift else 0.0,
                                   "moved": sum(v > 0 for v in drift), "worst_record": worst},
            "bitwise_equal": all(p["objective"] == c["objective"] and p["estimate"] == c["estimate"]
                                 for p, c in pairs),
        }
        for key in ("iterations", "eigh", "solve"):
            entry[f"per_call_{key}"] = [_per_call([p for p, _ in pairs], key),
                                        _per_call([c for _, c in pairs], key)]
        if name != "ls":
            entry["max_residual_minus_eps"] = [
                max((r["residual"] - r["eps"] for r, _ in pairs), default=0.0),
                max((r["residual"] - r["eps"] for _, r in pairs), default=0.0)]
        out[name] = entry
    return out


def compare_table1(parent: list[dict], change: list[dict]) -> dict:
    moved = flips = calls = 0
    recovered = unrecovered = 0.0
    bitwise = True
    for p, c in zip(parent, change):
        for b, vp in p["infidelities"].items():
            vc = c["infidelities"].get(b)
            if vc is None:
                continue
            vp, vc = np.array(vp), np.array(vc)
            calls += vp.size
            diff = np.abs(vc - vp)
            moved += int((diff > 0).sum())
            bitwise &= bool((diff == 0).all())
            thr = p["threshold"]
            flips += int(((vp < thr) != (vc < thr)).sum())
            ok = (vp < thr) & (vc < thr)
            recovered = max(recovered, float(diff[ok].max(initial=0.0)))
            unrecovered = max(unrecovered, float(diff[~ok].max(initial=0.0)))
    return {
        "cells": len(parent),
        "minimal_counts_equal": sum(p["minimal"] == c["minimal"] for p, c in zip(parent, change)),
        "ls_calls_compared": calls,
        "infidelities_moved": moved,
        "bitwise_equal": bitwise,
        "verdicts_flipped": flips,
        "recovered_max_abs_change": recovered,
        "unrecovered_max_abs_change": unrecovered,
        "cpu_s": {side: round(sum(r["cpu_s"] for r in rows), 2)
                  for side, rows in (("parent", parent), ("change", change))},
        "per_ls_call": {key: {side: round(sum(r[key] for r in rows) / sum(r["ls_calls"] for r in rows), 2)
                              for side, rows in (("parent", parent), ("change", change))}
                        for key in ("eigh", "solve")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--collect", choices=("fig2", "table1"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        json.dump(collect(args.collect), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    result = {}
    for which, compare in (("fig2", compare_fig2), ("table1", compare_table1)):
        result[which] = compare(run_checkout(args.parent.resolve(), which),
                                run_checkout(args.change.resolve(), which))
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
