"""Numerical campaigns: noiseless strictness sweeps and noisy robustness sweeps.

The strictness sweep samples bounded-rank states, measures them noiselessly
with a growing number of bases, reconstructs with constrained least squares,
and reports the smallest basis count at which every sampled state is
recovered below an infidelity threshold.  The robustness sweep perturbs pure
targets with a full-rank admixture, simulates multinomial counts, and
compares the three convex estimators on the same records.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BrqstError
from .estimators import SolverConfig, default_epsilon, estimate_ls, estimate_mle, \
    estimate_trace_min
from .io import dump_json as write_json
from .linalg import HermitianMatrix, fidelity_pure, hermitianize, infidelity, \
    random_mixed_hs, random_pure_state, random_rank_r_state
from .povm import BasisSet, MeasurementVector, Povm, bases_to_povm, \
    build_flammia_sequential, build_goyeneche_bases, build_local_random_bases, \
    build_random_bases
from .rng import RandomStream

FAMILIES = ("haar_global", "haar_local_qubits", "goyeneche", "flammia")


@dataclass(frozen=True)
class NoiseModel:
    """Full-rank admixture weight and multinomial shots per basis.

    ``shots_per_basis`` of None means the default 300 d; zero disables
    sampling entirely (ideal probabilities, the infinite-shot limit).
    """

    q: float = 1e-3
    shots_per_basis: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.shots_per_basis is not None and self.shots_per_basis < 0:
            raise ValueError("shots_per_basis must be nonnegative")

    def shots(self, d: int) -> int:
        return self.shots_per_basis if self.shots_per_basis is not None else 300 * d


@dataclass
class SweepResult:
    """Per-(dimension, rank) record of a strictness sweep."""

    dimension: int
    rank: int
    basis_family: str
    threshold: float
    states: int
    basis_counts: list[int]
    infidelities: dict[int, np.ndarray]
    state_seeds: list[int]
    minimal_sufficient: int | None


@dataclass
class RobustnessResult:
    """Per-dimension record of a noisy three-estimator sweep."""

    dimension: int
    basis_family: str
    q: float
    shots_per_basis: int
    basis_counts: list[int]
    infidelities: dict[str, dict[int, np.ndarray]]
    state_seeds: list[int]
    medians: dict[str, dict[int, float]] = field(default_factory=dict)
    iqr: dict[str, dict[int, tuple[float, float]]] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    # per estimator, how many cells failed with each InfeasibleError kind or
    # other error class
    failure_kinds: dict[str, dict[str, int]] = field(default_factory=dict)

    def summarize(self):
        for est, per_b in self.infidelities.items():
            self.medians[est] = {}
            self.iqr[est] = {}
            fails = 0
            for b, arr in per_b.items():
                ok = arr[np.isfinite(arr)]
                fails += int(arr.size - ok.size)
                if ok.size:
                    self.medians[est][b] = float(np.median(ok))
                    self.iqr[est][b] = (float(np.percentile(ok, 25)),
                                        float(np.percentile(ok, 75)))
                else:
                    self.medians[est][b] = float("nan")
                    self.iqr[est][b] = (float("nan"), float("nan"))
            self.failures[est] = fails


# ---------------------------------------------------------------------------
# Data simulation
# ---------------------------------------------------------------------------

def _basis_frequencies(povm: Povm, rho: np.ndarray, n_shots: int,
                       gen: np.random.Generator) -> list[np.ndarray]:
    """Outcome frequencies of each basis group of a union POVM, one block per group.

    Each block is one multinomial sample of ``n_shots`` from the group's
    outcome probabilities, or those probabilities themselves when
    ``n_shots`` is zero (the infinite-shot limit).  The elements of a union
    of b groups carry weight 1/b, so the probabilities are b Tr(E_mu rho).
    """
    groups = povm.basis_grouping()
    blocks = []
    for lo, hi in groups:
        vals = np.einsum("mij,ji->m", povm.stack[lo:hi], rho).real * len(groups)
        if vals.min() < -1e-10:
            raise ValueError(f"negative outcome probability {vals.min():.3e}")
        p = np.maximum(vals, 0.0)
        p = p / p.sum()
        blocks.append(gen.multinomial(n_shots, p) / n_shots if n_shots > 0 else p)
    return blocks


def simulate_counts(bs: BasisSet, rho, n_shots: int,
                    rng: RandomStream | np.random.Generator) -> MeasurementVector:
    """Empirical frequencies from one multinomial sample of n_shots per basis.

    Frequencies are divided by the basis count so the vector aligns with the
    1/b element weighting of :func:`brqst.povm.bases_to_povm`; each per-basis
    block therefore sums to exactly 1/b.
    """
    m = np.asarray(rho, dtype=np.complex128)
    tr = np.trace(m).real
    w = np.linalg.eigvalsh(hermitianize(m))
    if abs(tr - 1.0) > 1e-8 or w[0] < -1e-8:
        raise ValueError("rho must be PSD with unit trace to 1e-8")
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    gen = rng.generator() if isinstance(rng, RandomStream) else rng
    b = len(bs.bases)
    freqs = np.concatenate(_basis_frequencies(bases_to_povm(bs), m, n_shots, gen)) / b
    return MeasurementVector(freqs, kind="empirical_frequencies", total_shots=b * n_shots)


# ---------------------------------------------------------------------------
# Measurement construction per family (nested across basis counts)
# ---------------------------------------------------------------------------

def _draw(family: str, d: int, b: int, stream: RandomStream) -> BasisSet | list[Povm]:
    """The first b measurements of a family: a basis set, or the probe POVMs."""
    if family == "flammia":
        if b > d - 1:
            raise ValueError(f"at most d-1 = {d - 1} sequential probe measurements exist")
        return build_flammia_sequential(d, b)
    if family == "haar_global":
        return build_random_bases(d, b, stream)
    if family == "haar_local_qubits":
        n = int(round(math.log2(d)))
        if 2**n != d:
            raise ValueError(f"dimension {d} is not a power of two")
        return build_local_random_bases(n, b, stream)
    if family == "goyeneche":
        r_need = max(1, math.ceil((b - 1) / 4))
        if r_need > d // 2:
            raise ValueError(f"basis count {b} exceeds the paired-basis family at d={d}")
        full = build_goyeneche_bases(d, r_need)
        return BasisSet(d, full.bases[:b], dict(full.provenance))
    raise ValueError(f"unknown basis family {family!r}")


def _union(drawn: BasisSet | list[Povm], b: int) -> Povm:
    """Union POVM of the first b drawn measurements, each weighted 1/b."""
    if isinstance(drawn, BasisSet):
        return bases_to_povm(BasisSet(drawn.dim, drawn.bases[:b], drawn.provenance))
    elements = []
    grouping = []
    lo = 0
    for p in drawn[:b]:
        elements.extend(HermitianMatrix(e.mat / b) for e in p.elements)
        grouping.append([lo, lo + len(p)])
        lo += len(p)
    provenance = {"construction": "probe_union", "n_groups": b,
                  "basis_grouping": grouping}
    return Povm(drawn[0].dim, tuple(elements), provenance)


def measurement_for(family: str, d: int, b: int, stream: RandomStream) -> Povm:
    """Union POVM for the first b measurements of a family (nested in b)."""
    return _union(_draw(family, d, b, stream), b)


def measurement_prefixes(family: str, d: int, basis_counts: list[int],
                         stream: RandomStream) -> dict[int, Povm]:
    """``measurement_for`` at every count in ``basis_counts``, from one draw.

    Every family is a nested prefix in b, so the largest draw holds the
    measurements of each smaller count.
    """
    drawn = _draw(family, d, max(basis_counts), stream)
    return {b: _union(drawn, b) for b in basis_counts}


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

def _one_blas_thread():
    """Run this process's OpenBLAS on one thread; do nothing if it is not found.

    Looks for the OpenBLAS that numpy bundles.  Each sweep task is a chain
    of small dense solves, so BLAS threads in several workers only
    oversubscribe the cores.
    """
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


def _pool(threads: int):
    """One process pool for a whole sweep, or, for one thread, None: run in this process."""
    if threads <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=threads, initializer=_one_blas_thread)


# ---------------------------------------------------------------------------
# Strictness sweep
# ---------------------------------------------------------------------------

def _strictness_task(args) -> tuple[int, float]:
    family, d, r, b, stream, cfg = args
    state_stream = stream.derive(0)
    rho = random_rank_r_state(d, r, state_stream)
    povm = measurement_for(family, d, b, stream.derive(1))
    probs = MeasurementVector(
        np.maximum(np.einsum("mij,ji->m", povm.stack, rho.mat).real, 0.0),
        kind="ideal_probabilities",
    )
    report = estimate_ls(povm, probs, cfg)
    return stream.stream_id, infidelity(rho, report.estimate)


def run_strictness_sweep(dims: list[int], ranks: list[int], family: str,
                         states_per_dim: int | None = None,
                         threshold: float = 1e-5,
                         max_bases: int = 12,
                         rng: RandomStream = RandomStream(0),
                         cfg: SolverConfig | None = None,
                         threads: int = 1) -> list[SweepResult]:
    """Smallest basis count recovering every sampled rank-r state noiselessly.

    For each (dimension, rank) pair, ``states_per_dim`` (default 5 d) random
    rank-r states are drawn; basis counts grow until constrained least
    squares reconstructs every state below ``threshold`` infidelity, and that
    count is recorded as ``minimal_sufficient``.  Each state carries its own
    independent measurement draw, so cells are reproducible in isolation.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    cfg = cfg or SolverConfig(max_iterations=30_000, relative_tolerance=1e-12)
    results = []
    with _pool(threads) as pool:
        for d in dims:
            n_states = states_per_dim if states_per_dim is not None else 5 * d
            for r in ranks:
                streams = [rng.derive(d, r, s) for s in range(n_states)]
                infids: dict[int, np.ndarray] = {}
                scanned: list[int] = []
                minimal = None
                for b in range(1, max_bases + 1):
                    tasks = [(family, d, r, b, st, cfg) for st in streams]
                    if pool is not None:
                        out = list(pool.map(_strictness_task, tasks))
                    else:
                        out = [_strictness_task(t) for t in tasks]
                    arr = np.array([v for _, v in out])
                    infids[b] = arr
                    scanned.append(b)
                    if bool((arr < threshold).all()):
                        minimal = b
                        break
                results.append(SweepResult(
                    dimension=d, rank=r, basis_family=family, threshold=threshold,
                    states=n_states, basis_counts=scanned, infidelities=infids,
                    state_seeds=[st.stream_id for st in streams],
                    minimal_sufficient=minimal,
                ))
    return results


# ---------------------------------------------------------------------------
# Robustness sweep
# ---------------------------------------------------------------------------

ESTIMATORS = ("ls", "trace", "mle")


def _union_radius(b: int, d: int, n_shots: int | None) -> float:
    """Residual-ball radius of a union-POVM record of b bases, n_shots per basis.

    The heuristic radius is the multinomial noise norm for per-basis blocks
    summing to one; union-POVM records carry a 1/b weight.  Ideal
    probabilities (no shots) get the radius 1e-9.
    """
    return default_epsilon(b, d, n_shots) / b if n_shots else 1e-9


def _robustness_task(args) -> tuple[int, dict[str, dict[int, float]], dict[str, list[str]]]:
    family, d, basis_counts, q, n_shots, stream, cfg = args
    gen_state = stream.derive(0)
    psi = random_pure_state(d, gen_state)
    tau = random_mixed_hs(d, stream.derive(1))
    sigma = hermitianize((1.0 - q) * np.outer(psi, psi.conj()) + q * tau.mat)
    povms = measurement_prefixes(family, d, basis_counts, stream.derive(2))
    per_group_freq = _basis_frequencies(povms[max(basis_counts)], sigma, n_shots,
                                        stream.derive(3).generator())
    out: dict[str, dict[int, float]] = {est: {} for est in ESTIMATORS}
    why: dict[str, list[str]] = {est: [] for est in ESTIMATORS}
    for b in basis_counts:
        povm = povms[b]
        freqs = np.concatenate(per_group_freq[:b]) / b
        if n_shots > 0:
            f = MeasurementVector(freqs, kind="empirical_frequencies",
                                  total_shots=b * n_shots)
        else:
            f = MeasurementVector(freqs, kind="ideal_probabilities")
        eps = _union_radius(b, d, n_shots)
        runs = {
            "ls": lambda: estimate_ls(povm, f, cfg),
            "trace": lambda: estimate_trace_min(povm, f, eps, cfg),
            "mle": lambda: estimate_mle(povm, f, eps, cfg),
        }
        for est, call in runs.items():
            try:
                report = call()
                out[est][b] = 1.0 - fidelity_pure(psi, report.estimate)
            except BrqstError as exc:
                out[est][b] = float("nan")
                why[est].append(getattr(exc, "kind", None) or type(exc).__name__)
    return stream.stream_id, out, why


def run_robustness_sweep(dims: list[int], family: str, n_states: int,
                         noise: NoiseModel, basis_range: list[int],
                         rng: RandomStream = RandomStream(0),
                         cfg: SolverConfig | None = None,
                         threads: int = 1) -> list[RobustnessResult]:
    """Median and interquartile infidelity of the three estimators on noisy data.

    Each state is a Haar-random pure target mixed with weight ``noise.q`` of
    a Hilbert-Schmidt random full-rank state; counts are simulated per basis
    and shared across growing basis counts, mirroring an incremental
    measurement session.  Estimator failures are recorded as NaN cells, and
    ``failure_kinds`` counts them per estimator by the raise's
    :class:`InfeasibleError` kind, or by the error class for other failures.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not basis_range:
        raise ValueError("basis_range must be nonempty")
    cfg = cfg or SolverConfig(max_iterations=20_000, relative_tolerance=1e-10)
    basis_counts = sorted(set(int(b) for b in basis_range))
    results = []
    with _pool(threads) as pool:
        for d in dims:
            n_shots = noise.shots(d)
            streams = [rng.derive(d, s) for s in range(n_states)]
            tasks = [(family, d, basis_counts, noise.q, n_shots, st, cfg) for st in streams]
            if pool is not None:
                out = list(pool.map(_robustness_task, tasks))
            else:
                out = [_robustness_task(t) for t in tasks]
            infids = {est: {b: np.array([res[est][b] for _, res, _ in out])
                            for b in basis_counts} for est in ESTIMATORS}
            kinds = {est: dict(sorted(Counter(k for _, _, why in out for k in why[est]).items()))
                     for est in ESTIMATORS}
            result = RobustnessResult(
                dimension=d, basis_family=family, q=noise.q,
                shots_per_basis=n_shots, basis_counts=basis_counts,
                infidelities=infids, state_seeds=[st.stream_id for st in streams],
                failure_kinds=kinds,
            )
            result.summarize()
            results.append(result)
    return results


# ---------------------------------------------------------------------------
# Tabular output
# ---------------------------------------------------------------------------

CSV_HEADER = ["dim", "rank", "family", "b", "seed", "infidelity", "estimator"]


def strictness_rows(results: list[SweepResult]) -> list[list]:
    rows = []
    for res in results:
        for b in res.basis_counts:
            for seed, infid in zip(res.state_seeds, res.infidelities[b]):
                rows.append([res.dimension, res.rank, res.basis_family, b,
                             seed, float(infid), "ls"])
    return rows


def robustness_rows(results: list[RobustnessResult]) -> list[list]:
    rows = []
    for res in results:
        for est in ESTIMATORS:
            for b in res.basis_counts:
                for seed, infid in zip(res.state_seeds, res.infidelities[est][b]):
                    rows.append([res.dimension, 1, res.basis_family, b,
                                 seed, float(infid), est])
    return rows


def write_csv(path, rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def strictness_summary(results: list[SweepResult]) -> dict:
    return {
        "kind": "strictness_sweep",
        "cells": [
            {
                "dim": res.dimension,
                "rank": res.rank,
                "family": res.basis_family,
                "threshold": res.threshold,
                "states": res.states,
                "minimal_sufficient": res.minimal_sufficient,
                "per_basis_count": {
                    str(b): {
                        "max_infidelity": float(res.infidelities[b].max()),
                        "n_above_threshold": int((res.infidelities[b] >= res.threshold).sum()),
                    }
                    for b in res.basis_counts
                },
            }
            for res in results
        ],
    }


def robustness_summary(results: list[RobustnessResult]) -> dict:
    return {
        "kind": "robustness_sweep",
        "cells": [
            {
                "dim": res.dimension,
                "family": res.basis_family,
                "q": res.q,
                "shots_per_basis": res.shots_per_basis,
                "estimators": {
                    est: {
                        str(b): {
                            "median": res.medians[est][b],
                            "iqr": list(res.iqr[est][b]),
                        }
                        for b in res.basis_counts
                    }
                    for est in ESTIMATORS
                },
                "failures": res.failures,
                "failure_kinds": res.failure_kinds,
            }
            for res in results
        ],
    }

