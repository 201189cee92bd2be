"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q

Each check must reject a deliberately wrong input and accept a right one,
and one round of every workload must pass its own checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _exact_problem(d=4, b=3, seed=0):
    """A rank-2 state, b Haar bases as an (m, d, d) element stack, and exact data."""
    gen = np.random.default_rng(seed)
    rho = checks.protocol_rank_r(d, 2, gen)
    bases = [checks.haar_unitary(d, gen) for _ in range(b)]
    stack = np.concatenate([np.einsum("ik,jk->kij", u, u.conj()) / b for u in bases])
    return rho, stack, checks.basis_union_probabilities(bases, rho)


def test_measurement_map_matches_basis_probabilities():
    rho, stack, f = _exact_problem()
    assert np.allclose(checks.measurement_map(stack, rho), f, atol=1e-14)


def test_density_check():
    rho, _, _ = _exact_problem()
    assert checks.check_density(rho, "ok") is None
    w, v = np.linalg.eigh(rho)
    w[0] = -1e-3
    w[-1] += 1e-3
    assert "density" in checks.check_density((v * w) @ v.conj().T, "non-PSD")
    assert checks.check_density(1.01 * rho, "trace") is not None


def test_ball_check():
    rho, stack, f = _exact_problem()
    assert checks.check_ball(stack, f, rho, 1e-3, "inside") is None
    outside = rho + 1e-2 * np.eye(rho.shape[0])
    assert "ball" in checks.check_ball(stack, f, outside, 1e-3, "outside")


def test_ls_kkt_check():
    rho, stack, f = _exact_problem()
    assert checks.check_ls_kkt(stack, f, rho, "optimum") is None
    # X = 0: the gradient -sum f E has a negative eigenvalue
    assert "KKT" in checks.check_ls_kkt(stack, f, np.zeros_like(rho), "zero")
    # X = 2 rho: Z = sum f E >= 0 but Tr(XZ) > 0
    lmin, compl = checks.ls_kkt(stack, f, 2 * rho)
    assert lmin >= -1e-12 and compl > 1e-3
    assert "KKT" in checks.check_ls_kkt(stack, f, 2 * rho, "scaled")


def test_trace_gap_check():
    rho, _, _ = _exact_problem()
    assert checks.check_trace_gap(0.9 * rho, rho, "below") is None
    assert checks.check_trace_gap(1.1 * rho, rho, "above") is not None


def test_completion_check():
    rho, _, _ = _exact_problem()
    assert checks.check_completion(rho.copy(), rho) is None
    corrupted = rho.copy()
    corrupted[0, 1] += 1e-6
    assert "completion" in checks.check_completion(corrupted, rho)


def test_infidelity_range_check():
    assert checks.check_infidelities([0.0, 0.5, 1.0], "ok") is None
    assert checks.check_infidelities([0.1, np.nan], "nan") is not None
    assert checks.check_infidelities([-1e-3], "negative") is not None


def test_infeasibility_certificate():
    rho, stack, f = _exact_problem()
    # the ball around the data holds rho; a ball around shifted data holds no PSD point
    assert checks.infeasibility_certificate("estimate_trace_min", stack, f, 1e-3, rho,
                                            None) is None
    far = f - 1.0
    x_ls = np.zeros_like(rho)  # the least residual over X >= 0 for data below zero
    assert checks.infeasibility_certificate("estimate_trace_min", stack, far, 1e-3, x_ls,
                                            None) is not None
    # MLE: a trace minimum above one leaves no density matrix in the ball
    assert checks.infeasibility_certificate("estimate_mle", stack, f, 1e-3, rho,
                                            0.9 * rho) is None
    assert checks.infeasibility_certificate("estimate_mle", stack, f, 1e-3, rho,
                                            1.1 * rho) is not None


def test_fig2_round_rejects_an_estimator_that_raises_on_feasible_data(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    from brqst import InfeasibleError, experiments

    def refuse(*args, **kwargs):
        raise InfeasibleError("refused")

    monkeypatch.setattr(experiments, "estimate_mle", refuse)
    wl = workloads.Fig2(5, tmp_path)
    wl.round(0)
    assert any("feasible program" in p for p in wl.problems), wl.problems


def test_more_bases_help_check():
    low = np.full(9, 1e-2)
    assert checks.check_more_bases_help(low, low / 3, "better")[0] is None
    # two of nine worse is ordinary noise; all nine worse is not
    mixed = low / 3
    mixed[:2] = 1.0
    assert checks.check_more_bases_help(low, mixed, "mixed")[0] is None
    assert checks.check_more_bases_help(low, low * 3, "worse")[0] is not None
    assert checks.check_more_bases_help([], [], "no pairs")[0] is not None


def test_minimal_count_check():
    assert checks.parameter_count_bound(11, 2) == 4
    assert checks.check_minimal_count(7, 11, 2) is None
    assert checks.check_minimal_count(3, 11, 2) is not None
    assert checks.check_minimal_count(10, 11, 2) is not None
    assert checks.check_minimal_count(None, 11, 2) is not None


def test_uhlmann_fidelity_of_low_rank_target():
    rho, _, _ = _exact_problem(d=6)
    assert abs(checks.uhlmann_fidelity(rho, rho) - 1.0) < 1e-12
    mixed = 0.5 * rho + 0.5 * np.eye(6) / 6
    assert checks.uhlmann_fidelity(rho, mixed) < 1.0 - 1e-3


def _run(workload, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload,trace", [
    ("fig2-goyeneche-d8", 1),
    ("table1-haar-d11-r2", 0),
    ("cli-pipeline-d8", 0),
])
def test_one_round_passes_its_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout.splitlines()[-2])["info"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("table1-haar-d11-r2", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
