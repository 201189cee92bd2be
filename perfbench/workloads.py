"""The three benchmark workloads.

Each workload draws its inputs from the benchmark seed, runs whole rounds
(``round``), checks what the program produced, and keeps the problems it
found.  A round is the unit of ``round_s``:

* ``fig2-goyeneche-d8``: one noisy Fig-2 state, estimated at b = 5 and b = 9
  by LS, trace minimisation and MLE (one ``run_robustness_sweep`` with one
  state);
* ``table1-haar-d11-r2``: one reduced Table-1 cell of ``TABLE1_STATES``
  states, scanned upward in basis count until all are recovered;
* ``cli-pipeline-d8``: the documented CLI chain for one d = 8 rank-2 state,
  build -> measure (noisy, ideal) -> complete -> estimate ls|trace|mle, one
  subprocess at a time.

The sweeps run in this process through the library calls that
``brqst sweep`` makes (load the JSON config, sweep, write ``rows.csv`` and
``summary.json``), serially (``threads=1``).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks

HERE = Path(__file__).resolve().parent

# b = 5 and 9 only, the two counts criterion 6c compares: with b = 5..9 a
# state costs 2.5 times as much, a run holds about 7 states, and its
# median wall time spread 0.23 (interquartile range over median) over 7 seeds
FIG2_CONFIG = {"dims": [8], "family": "goyeneche", "n_states": 1, "q": 1e-3,
               "shots_per_basis": 2400, "basis_counts": [5, 9]}
TABLE1_STATES = 4
TABLE1_CONFIG = {"dims": [11], "ranks": [2], "family": "haar_global",
                 "states_per_dim": TABLE1_STATES, "threshold": 1e-5, "max_bases": 11}
# own targets recovered at the run's minimal count; a fresh state needs more
# bases than the count now and then (2 of 1100 measured needed 8 where the
# count was 7), so a majority must recover rather than all
TABLE1_OWN_TARGETS = 3
CLI_DIM, CLI_RANK, CLI_SHOTS = 8, 2, 2400
CLI_TIMEOUT_S = 120


class Elapsed(NamedTuple):
    wall: float
    cpu: float


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def stopwatch():
    """Start a timer; calling the result gives the ``Elapsed`` time since.

    CPU time counts this process and the children it has waited for.  On a
    virtual machine whose host takes the CPU away at times (steal time),
    it stays with the work done while wall time grows with the steal.
    """
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    return lambda: Elapsed(time.perf_counter() - wall0, _cpu_s() - cpu0)


# the unit of the scaled times: the median CPU seconds of calibration_cpu_s()
# over 30 back-to-back calls on the machine the README describes
CALIBRATION_REFERENCE_S = 0.05
_CAL_GEN = np.random.default_rng(0)
_CAL_H = _CAL_GEN.standard_normal((8, 8)) + 1j * _CAL_GEN.standard_normal((8, 8))
_CAL_H = _CAL_H + _CAL_H.conj().T
_CAL_A = _CAL_GEN.standard_normal((66, 66)) + 66.0 * np.eye(66)
_CAL_B = _CAL_GEN.standard_normal(66)


def calibration_cpu_s() -> float:
    """CPU seconds of a fixed kernel of the kind of work the workloads do.

    A Python loop around 8x8 ``eigh`` and 66x66 ``solve`` calls on inputs
    that never change.  Timed between rounds, it measures how fast the
    machine runs at the moment.
    """
    c0 = _cpu_s()
    acc = 0.0
    for i in range(500):
        w, _ = np.linalg.eigh(_CAL_H)
        x = np.linalg.solve(_CAL_A, _CAL_B)
        table = {k: k * i for k in range(60)}
        acc += float(w[0]) + float(x[0]) + len(table)
    return _cpu_s() - c0


def at_reference_speed(cpu_s: float, cal_before: float, cal_after: float) -> float:
    """CPU seconds scaled to the reference machine by the calibrations around them."""
    return cpu_s * CALIBRATION_REFERENCE_S / (0.5 * (cal_before + cal_after))


def round_seed(tag: int, seed: int, i: int) -> int:
    """Program seed for round i of a workload, derived from the benchmark seed."""
    return int(np.random.SeedSequence([tag, seed, i]).generate_state(1)[0])


class Workload:
    name = ""
    tag = 0
    traced_modules: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}

    def problem(self, message: str | None):
        if message:
            self.problems.append(message)

    def round(self, i: int, tracer=None) -> Elapsed:
        """Run round i; returns its timed wall and CPU seconds."""
        raise NotImplementedError

    def finish(self):
        """Checks that need every round of the run."""


class _Sweep(Workload):
    traced_modules = ("brqst.experiments", "brqst.io")
    config: dict = {}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        import brqst  # noqa: F401  (set-up: the import is part of it)

        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.out = workdir / "out"
        self.out.mkdir(exist_ok=True)

    def _write(self, rows, summary):
        from brqst import experiments

        experiments.write_csv(self.out / "rows.csv", rows)
        experiments.write_json(self.out / "summary.json", summary)


ESTIMATOR_OF = {"estimate_ls": "ls", "estimate_trace_min": "trace", "estimate_mle": "mle"}


@contextlib.contextmanager
def recorded_calls(module, names):
    """Record (name, args, kwargs, result or exception) of each call to ``module.<name>``.

    The wrappers add a list append to calls that take milliseconds to
    seconds; the originals are restored on exit.
    """
    calls: list[tuple] = []
    originals = {name: getattr(module, name) for name in names}

    def recorder(name, fn):
        def recorded(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                calls.append((name, args, kwargs, exc))
                raise
            calls.append((name, args, kwargs, out))
            return out

        return recorded

    for name, fn in originals.items():
        setattr(module, name, recorder(name, fn))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class Fig2(_Sweep):
    name = "fig2-goyeneche-d8"
    tag = 2
    config = FIG2_CONFIG

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.estimators = ("ls", "trace", "mle")
        # infidelities per round index; a traced run repeats rounds 0 and 1 untraced
        self.inf: dict[int, dict] = {}
        self.info["raised"] = {"certified_infeasible": 0, "uncertified": 0}
        self.info["worst"] = {"ball_excess": -np.inf, "kkt_lambda_min": np.inf,
                              "kkt_compl": 0.0, "trace_gap": -np.inf, "infidelity_diff": 0.0}

    def round(self, i: int, tracer=None) -> Elapsed:
        from brqst import NoiseModel, RandomStream, experiments, io

        # the sweep's targets and estimator calls are recorded for the checks
        with recorded_calls(experiments, ("random_pure_state", *ESTIMATOR_OF)) as calls:
            lap = stopwatch()
            cfg = io.load_json(self.config_path)
            results = experiments.run_robustness_sweep(
                dims=cfg["dims"], family=cfg["family"], n_states=cfg["n_states"],
                noise=NoiseModel(q=cfg["q"], shots_per_basis=cfg["shots_per_basis"]),
                basis_range=cfg["basis_counts"],
                rng=RandomStream(round_seed(self.tag, self.seed, i)), threads=1)
            self._write(experiments.robustness_rows(results),
                        experiments.robustness_summary(results))
            elapsed = lap()
        res = results[0]
        self.attempted += len(res.state_seeds)
        self.inf[i] = {e: {b: float(res.infidelities[e][b][0]) for b in res.basis_counts}
                       for e in self.estimators}
        self._check(i, self.inf[i], calls)
        return elapsed

    def _check(self, i: int, cells: dict, calls: list[tuple]):
        """Checks on every estimator call of round i, against the sweep's infidelities.

        An estimate must be a density matrix; trace-min and MLE points must
        lie in the ball; the LS point must meet its KKT conditions; the trace
        minimum must not exceed the trace of an LS point in the ball; and the
        reported infidelity must equal 1 - <psi|rho|psi> recomputed from the
        target.  A call that raised must show as NaN and must come with a
        certificate of infeasibility (``checks.infeasibility_certificate``).
        """
        worst, raised = self.info["worst"], self.info["raised"]
        psi = x_ls = x_trace = None
        n_est = 0
        for key, args, kwargs, out in calls:
            if key == "random_pure_state":
                psi = out
                continue
            n_est += 1
            povm, f = args[0], args[1]
            stack, fv = povm.stack, f.values
            b = povm.provenance["n_bases"]
            est = ESTIMATOR_OF[key]
            what = f"round {i} {est} b={b}"
            eps = None if est == "ls" else (args[2] if len(args) > 2 else kwargs["eps"])
            if est == "ls":
                x_ls = x_trace = None
            if isinstance(out, Exception):
                if not np.isnan(cells[est][b]):
                    self.problem(f"{what}: raised, but the sweep reports {cells[est][b]}")
                why = None if est == "ls" else checks.infeasibility_certificate(
                    key, stack, fv, eps, x_ls, x_trace)
                if why is None:
                    raised["uncertified"] += 1
                    self.problem(f"{what}: raised {type(out).__name__} ({out}) on a "
                                 f"feasible program")
                else:
                    raised["certified_infeasible"] += 1
                continue
            x = out.raw.mat
            self.problem(checks.check_density(out.estimate.mat, what))
            if est == "ls":
                x_ls = x
                lmin, compl = checks.ls_kkt(stack, fv, x)
                worst["kkt_lambda_min"] = min(worst["kkt_lambda_min"], lmin)
                worst["kkt_compl"] = max(worst["kkt_compl"], compl)
                self.problem(checks.check_ls_kkt(stack, fv, x, what))
            else:
                worst["ball_excess"] = max(worst["ball_excess"],
                                           checks.ball_excess(stack, fv, x, eps))
                self.problem(checks.check_ball(stack, fv, x, eps, what))
            if est == "trace":
                x_trace = x
                if x_ls is not None and checks.ball_excess(stack, fv, x_ls, eps) <= 0:
                    # the LS point is feasible, so the trace minimum cannot exceed its trace
                    gap = np.trace(x).real / np.trace(x_ls).real - 1.0
                    worst["trace_gap"] = max(worst["trace_gap"], float(gap))
                    self.problem(checks.check_trace_gap(x, x_ls, what))
            self.problem(checks.check_infidelities([cells[est][b]], what))
            if psi is not None:
                diff = abs(checks.pure_infidelity(psi, out.estimate.mat) - cells[est][b])
                worst["infidelity_diff"] = max(worst["infidelity_diff"], diff)
                if not diff <= checks.INFIDELITY_AGREE_TOL:
                    self.problem(f"{what}: reported infidelity {cells[est][b]:.3e} differs "
                                 f"from the recomputed one by {diff:.2e}")
        expected = len(self.estimators) * len(FIG2_CONFIG["basis_counts"])
        if psi is None or n_est != expected:
            self.problem(f"round {i}: recorded {n_est} estimator calls (expected {expected})"
                         f"{'' if psi is not None else ' and no target'}")

    def finish(self):
        lo, hi = min(FIG2_CONFIG["basis_counts"]), max(FIG2_CONFIG["basis_counts"])
        self.info["criterion_6c"] = {}
        for e in self.estimators:
            pairs = [(r[e][lo], r[e][hi]) for r in self.inf.values()
                     if np.isfinite([r[e][lo], r[e][hi]]).all()]
            problem, detail = checks.check_more_bases_help(
                [p[0] for p in pairs], [p[1] for p in pairs], f"criterion 6c, {e}")
            self.problem(problem)
            self.info["criterion_6c"][e] = detail


class Table1(_Sweep):
    name = "table1-haar-d11-r2"
    tag = 1
    config = TABLE1_CONFIG

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.counts: list = []

    def round(self, i: int, tracer=None) -> Elapsed:
        from brqst import RandomStream, experiments, io

        lap = stopwatch()
        cfg = io.load_json(self.config_path)
        results = experiments.run_strictness_sweep(
            dims=cfg["dims"], ranks=cfg["ranks"], family=cfg["family"],
            states_per_dim=cfg["states_per_dim"], threshold=cfg["threshold"],
            max_bases=cfg["max_bases"],
            rng=RandomStream(round_seed(self.tag, self.seed, i)), threads=1)
        self._write(experiments.strictness_rows(results), experiments.strictness_summary(results))
        elapsed = lap()
        for res in results:
            self.attempted += res.states * len(res.basis_counts)  # LS solves
            self.counts.append(res.minimal_sufficient)
            self.problem(checks.check_minimal_count(res.minimal_sufficient, res.dimension,
                                                    res.rank))
            for b in res.basis_counts:
                self.problem(checks.check_infidelities(res.infidelities[b], f"cell {i} b={b}"))
        return elapsed

    def finish(self):
        from brqst import BasisSet, MeasurementVector, SolverConfig, bases_to_povm, estimate_ls

        self.info["cell_minimal_counts"] = self.counts
        if not self.counts or any(c is None for c in self.counts):
            return
        d, r = TABLE1_CONFIG["dims"][0], TABLE1_CONFIG["ranks"][0]
        count = max(self.counts)  # every state of the run is recovered from here on
        gen = np.random.default_rng(round_seed(self.tag + 100, self.seed, 0))
        cfg = SolverConfig(max_iterations=30_000, relative_tolerance=1e-12)
        infids = []
        for _ in range(TABLE1_OWN_TARGETS):
            rho = checks.protocol_rank_r(d, r, gen)
            bases = [checks.haar_unitary(d, gen) for _ in range(count)]
            p = checks.basis_union_probabilities(bases, rho)
            povm = bases_to_povm(BasisSet(d, tuple(bases), {}))
            report = estimate_ls(povm, MeasurementVector(np.maximum(p, 0.0), "ideal_probabilities"),
                                 cfg)
            infids.append(1.0 - checks.uhlmann_fidelity(rho, report.estimate.mat))
        recovered = sum(v < checks.RECOVERY_THRESHOLD for v in infids)
        self.info["run_minimal_count"] = count
        self.info["own_target_infidelities"] = infids
        if 2 * recovered <= TABLE1_OWN_TARGETS:
            self.problem(f"only {recovered} of {TABLE1_OWN_TARGETS} own targets recovered "
                         f"below {checks.RECOVERY_THRESHOLD} at the minimal count {count}")


def _state_to_json(rho: np.ndarray) -> dict:
    return {"kind": "state", "dim": int(rho.shape[0]),
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


class CliPipeline(Workload):
    name = "cli-pipeline-d8"
    tag = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        root = Path.cwd()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.command_s: dict[str, list[float]] = {}
        self._state(0)

    def _state(self, i: int) -> np.ndarray:
        gen = np.random.default_rng(round_seed(self.tag, self.seed, i))
        rho = checks.protocol_rank_r(CLI_DIM, CLI_RANK, gen)
        (self.workdir / "state.json").write_text(json.dumps(_state_to_json(rho)))
        return rho

    def _chain(self, i: int) -> list[tuple[str, list[str]]]:
        seed = str(round_seed(self.tag + 100, self.seed, i))
        est = [("estimate", ["estimate", "--bases", "bases.json", "--record", "noisy.json",
                             "--method", m, "-o", f"est_{m}.json"]) for m in ("ls", "trace", "mle")]
        return [
            ("build", ["build", "--family", "goyeneche", "-d", str(CLI_DIM), "-r", str(CLI_RANK),
                       "-o", "bases.json"]),
            ("measure", ["--seed", seed, "measure", "--bases", "bases.json", "--state",
                         "state.json", "--shots", str(CLI_SHOTS), "-o", "noisy.json"]),
            ("measure", ["measure", "--bases", "bases.json", "--state", "state.json",
                         "-o", "ideal.json"]),
            ("complete", ["complete", "--bases", "bases.json", "--record", "ideal.json",
                          "-r", str(CLI_RANK), "-o", "completed.json"]),
            *est,
        ]

    def round(self, i: int, tracer=None) -> Elapsed:
        rho = self._state(i)
        codes = []
        lap = stopwatch()
        for sub, args in self._chain(i):
            if tracer is None:
                cmd = [sys.executable, "-m", "brqst.cli", *args]
            else:
                spans_path = self.workdir / "spans.json"
                cmd = [sys.executable, str(HERE / "cli_shim.py"), str(spans_path), *args]
                span = tracer.open("cli.command")
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            self.command_s.setdefault(sub, []).append(time.perf_counter() - t)
            if tracer is not None:
                tracer.close(span)
                if spans_path.exists():
                    tracer.add_foreign(json.loads(spans_path.read_text())["spans"], span)
                    spans_path.unlink()
            codes.append(proc.returncode)
            self.attempted += 1
            if proc.returncode != 0:
                self.failed += 1
                self.info.setdefault("stderr", []).append(proc.stderr[-500:])
        elapsed = lap()
        if all(c == 0 for c in codes):
            self._check_artifacts(rho, i)
        return elapsed

    def _load(self, name: str, kind: str) -> dict | None:
        try:
            obj = json.loads((self.workdir / name).read_text())
        except (OSError, ValueError) as exc:
            self.problem(f"{name}: unreadable ({exc})")
            return None
        if obj.get("kind") != kind:
            self.problem(f"{name}: kind {obj.get('kind')!r}, expected {kind!r}")
            return None
        return obj

    def _check_artifacts(self, rho: np.ndarray, i: int):
        what = f"chain {i}"
        bases_obj = self._load("bases.json", "basis_set")
        if bases_obj is None:
            return
        bases = [_matrix_from_json(u) for u in bases_obj["bases"]]
        if len(bases) != 4 * CLI_RANK + 1:
            self.problem(f"{what}: {len(bases)} bases, expected {4 * CLI_RANK + 1}")
        for u in bases:
            if np.abs(u.conj().T @ u - np.eye(CLI_DIM)).max() > 1e-12:
                self.problem(f"{what}: a basis in bases.json is not unitary")
        expected = checks.basis_union_probabilities(bases, rho)
        for name, rec_kind in (("noisy.json", "empirical_frequencies"),
                               ("ideal.json", "ideal_probabilities")):
            rec = self._load(name, "record")
            if rec is None:
                continue
            values = np.array(rec["values"], dtype=float)
            if rec.get("record_kind") != rec_kind or values.size != expected.size:
                self.problem(f"{what}: {name} holds {rec.get('record_kind')} with "
                             f"{values.size} values")
                continue
            if rec_kind == "ideal_probabilities":
                err = float(np.abs(values - expected).max())
                if err > 1e-12:
                    self.problem(f"{what}: ideal record differs from Tr(E rho) by {err:.2e}")
            else:
                sums = values.reshape(len(bases), -1).sum(axis=1) * len(bases)
                if np.abs(sums - 1.0).max() > 1e-12:
                    self.problem(f"{what}: noisy record blocks do not sum to 1/b")
        completed = self._load("completed.json", "state")
        if completed is not None:
            self.problem(checks.check_completion(_matrix_from_json(completed["matrix"]), rho))
        for m in ("ls", "trace", "mle"):
            rep = self._load(f"est_{m}.json", "estimate_report")
            if rep is not None:
                self.problem(checks.check_density(_matrix_from_json(rep["estimate"]),
                                                  f"{what} estimate {m}"))
        for name in ("bases.json", "noisy.json", "ideal.json", "completed.json",
                     "est_ls.json", "est_trace.json", "est_mle.json"):
            self._load(name + ".manifest.json", "run_manifest")

    def finish(self):
        self.info["command_p50_s"] = {k: float(np.median(v)) for k, v in self.command_s.items()}


WORKLOADS = {w.name: w for w in (Fig2, Table1, CliPipeline)}
