import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brqst
from brqst import (
    BasisSet,
    DegenerateEstimateError,
    HermitianMatrix,
    InfeasibleError,
    NoiseModel,
    RandomStream,
    SolverConfig,
    build_random_bases,
    random_mixed_hs,
    random_pure_state,
    run_robustness_sweep,
    run_strictness_sweep,
    simulate_counts,
)
from brqst.experiments import (
    _pool,
    measurement_for,
    measurement_prefixes,
    robustness_rows,
    robustness_summary,
    strictness_rows,
    strictness_summary,
    write_csv,
)
from brqst.povm import validate_povm


def test_noise_model_defaults():
    nm = NoiseModel()
    assert nm.q == 1e-3
    assert nm.shots(8) == 2400
    assert NoiseModel(shots_per_basis=100).shots(8) == 100
    with pytest.raises(ValueError):
        NoiseModel(q=1.5)


# ---------------------------------------------------------------------------
# count simulation
# ---------------------------------------------------------------------------

def test_simulate_counts_deterministic_distribution():
    rho = np.zeros((3, 3), complex)
    rho[0, 0] = 1.0
    bs = BasisSet(3, (np.eye(3, dtype=complex),))
    mv = simulate_counts(bs, rho, 500, RandomStream(1))
    assert mv.values[0] == pytest.approx(1.0)
    assert mv.values[1] == mv.values[2] == 0.0
    assert mv.total_shots == 500
    assert mv.kind == "empirical_frequencies"


def test_simulate_counts_law_of_large_numbers():
    # binomial 5-sigma bound at N = 1e6 keeps |freq - p| below 5e-3
    d = 2
    bs = build_random_bases(d, 1, RandomStream(2))
    psi = random_pure_state(d, RandomStream(3))
    rho = np.outer(psi, psi.conj())
    p = np.abs(bs.bases[0].conj().T @ psi) ** 2
    for s in range(5):
        mv = simulate_counts(bs, rho, 1_000_000, RandomStream(4, s))
        assert np.abs(mv.values - p).max() < 5e-3


def test_simulate_counts_blocks_sum_exactly():
    d, b, n = 3, 4, 123
    bs = build_random_bases(d, b, RandomStream(5))
    rho = np.eye(d) / d
    mv = simulate_counts(bs, rho, n, RandomStream(6))
    for i in range(b):
        block = mv.values[i * d : (i + 1) * d]
        assert block.sum() * b == pytest.approx(1.0, abs=1e-15)
        assert (block >= 0).all()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=1, max_value=8), b=st.integers(min_value=1, max_value=9),
       shots=st.integers(min_value=1, max_value=5000),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_simulate_counts_blocks_sum_property(d, b, shots, seed):
    # every block holds counts / (b shots) whose counts sum to exactly shots,
    # so the block sums to 1 / b up to the rounding of its float sum (one ulp
    # off in a fifth of 15000 blocks sampled)
    bs = build_random_bases(d, b, RandomStream(seed))
    rho = random_mixed_hs(d, RandomStream(seed, 1)).mat
    mv = simulate_counts(bs, rho, shots, RandomStream(seed, 2))
    assert mv.values.shape == (b * d,) and mv.total_shots == b * shots
    for i in range(b):
        block = mv.values[i * d : (i + 1) * d]
        counts = block * b * shots
        assert (block >= 0).all()
        assert np.abs(counts - np.rint(counts)).max() <= 1e-9
        assert int(np.rint(counts).sum()) == shots
        assert abs(block.sum() * b - 1.0) <= 4 * np.finfo(float).eps


def test_simulate_counts_independent_blocks_for_identical_bases():
    d = 4
    u = build_random_bases(d, 1, RandomStream(7)).bases[0]
    bs = BasisSet(d, (u, u))
    rho = np.eye(d) / d
    mv = simulate_counts(bs, rho, 1000, RandomStream(8))
    assert not np.array_equal(mv.values[:d], mv.values[d:])


def test_simulate_counts_rejects_nonstate():
    bs = build_random_bases(2, 1, RandomStream(9))
    with pytest.raises(ValueError):
        simulate_counts(bs, np.diag([2.0, 0.0]), 10, RandomStream(10))


def test_simulate_counts_determinism():
    bs = build_random_bases(3, 2, RandomStream(11))
    rho = np.eye(3) / 3
    a = simulate_counts(bs, rho, 100, RandomStream(12))
    b = simulate_counts(bs, rho, 100, RandomStream(12))
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# measurement families for sweeps
# ---------------------------------------------------------------------------

def test_measurement_for_nested_prefix():
    # basis unions for growing counts share their common prefix
    p3 = measurement_for("haar_global", 4, 3, RandomStream(13))
    p5 = measurement_for("haar_global", 4, 5, RandomStream(13))
    assert np.allclose(p3.stack[:8] * 3, p5.stack[:8] * 5)


def test_measurement_for_goyeneche_prefix():
    povm = measurement_for("goyeneche", 8, 5, RandomStream(14))
    assert len(povm) == 5 * 8
    assert validate_povm(povm).is_valid


def test_measurement_for_flammia_union():
    povm = measurement_for("flammia", 6, 2, RandomStream(15))
    assert validate_povm(povm).is_valid
    assert povm.basis_grouping() == [(0, 12), (12, 22)]


@pytest.mark.parametrize("family", ["haar_global", "haar_local_qubits", "goyeneche", "flammia"])
def test_measurement_prefixes_equal_separate_draws(family):
    # the robustness sweep draws once and slices; that must equal drawing per count
    counts = [1, 3, 5, 6]
    prefixes = measurement_prefixes(family, 8, counts, RandomStream(17))
    assert sorted(prefixes) == counts
    for b in counts:
        alone = measurement_for(family, 8, b, RandomStream(17))
        np.testing.assert_array_equal(prefixes[b].stack, alone.stack)
        for key in ("n_bases", "n_groups", "basis_grouping"):
            assert prefixes[b].provenance.get(key) == alone.provenance.get(key)


# ---------------------------------------------------------------------------
# strictness sweep
# ---------------------------------------------------------------------------

def test_strictness_sweep_tiny_and_deterministic():
    kwargs = dict(dims=[4], ranks=[1], family="haar_global", states_per_dim=4,
                  threshold=1e-5, max_bases=6, rng=RandomStream(16),
                  cfg=SolverConfig(max_iterations=8000, relative_tolerance=1e-12))
    res1 = run_strictness_sweep(**kwargs)[0]
    res2 = run_strictness_sweep(**kwargs)[0]
    assert res1.minimal_sufficient is not None
    assert res1.minimal_sufficient == res2.minimal_sufficient
    for b in res1.basis_counts:
        assert np.array_equal(res1.infidelities[b], res2.infidelities[b])
    final = res1.infidelities[res1.minimal_sufficient]
    assert (final < res1.threshold).all()
    assert ((final >= 0) & (final <= 1)).all()


def test_strictness_sweep_rows_and_summary():
    res = run_strictness_sweep([4], [1], "haar_global", states_per_dim=3,
                               max_bases=6, rng=RandomStream(17))
    rows = strictness_rows(res)
    assert all(len(r) == 7 for r in rows)
    assert {r[3] for r in rows} == set(res[0].basis_counts)
    summary = strictness_summary(res)
    assert summary["cells"][0]["minimal_sufficient"] == res[0].minimal_sufficient


def test_strictness_sweep_threads_match_serial():
    kwargs = dict(dims=[4], ranks=[1], family="haar_global", states_per_dim=4,
                  max_bases=5, rng=RandomStream(18))
    serial = run_strictness_sweep(threads=1, **kwargs)[0]
    parallel = run_strictness_sweep(threads=2, **kwargs)[0]
    assert serial.minimal_sufficient == parallel.minimal_sufficient
    for b in serial.basis_counts:
        assert np.array_equal(serial.infidelities[b], parallel.infidelities[b])


def _blas_threads(_=None):
    # thread count of the OpenBLAS bundled with numpy, or None if not found
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return int(getter())
    return None


def test_sweep_workers_run_one_blas_thread():
    if _blas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    with _pool(2) as pool:
        assert set(pool.map(_blas_threads, range(4))) == {1}


def test_cli_import_leaves_process_pool_unloaded():
    # only a sweep with more than one thread opens a pool, so starting any
    # command must not import multiprocessing and its dependencies
    src = str(Path(brqst.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = ("import sys, brqst.cli; "
             "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# robustness sweep
# ---------------------------------------------------------------------------

def test_robustness_sweep_noiseless_limit():
    # q = 0 with sampling disabled reduces to the exact-recovery regime
    res = run_robustness_sweep(
        dims=[4], family="haar_global", n_states=4,
        noise=NoiseModel(q=0.0, shots_per_basis=0),
        basis_range=[6], rng=RandomStream(19),
    )[0]
    for est in ("ls", "trace", "mle"):
        assert res.medians[est][6] < 1e-6


def test_robustness_sweep_shapes_and_determinism():
    kwargs = dict(dims=[4], family="haar_global", n_states=3,
                  noise=NoiseModel(q=1e-3, shots_per_basis=400),
                  basis_range=[3, 5], rng=RandomStream(20))
    res1 = run_robustness_sweep(**kwargs)[0]
    res2 = run_robustness_sweep(**kwargs)[0]
    assert res1.basis_counts == [3, 5]
    for est in ("ls", "trace", "mle"):
        for b in (3, 5):
            assert res1.infidelities[est][b].shape == (3,)
            assert np.array_equal(res1.infidelities[est][b], res2.infidelities[est][b])
            q25, q75 = res1.iqr[est][b]
            assert q25 <= res1.medians[est][b] <= q75


def test_robustness_sweep_threads_match_serial():
    kwargs = dict(dims=[4], family="haar_global", n_states=4,
                  noise=NoiseModel(q=1e-3, shots_per_basis=400),
                  basis_range=[3, 5], rng=RandomStream(22))
    serial = run_robustness_sweep(threads=1, **kwargs)[0]
    parallel = run_robustness_sweep(threads=2, **kwargs)[0]
    assert serial.failures == parallel.failures
    assert serial.failure_kinds == parallel.failure_kinds
    for est in ("ls", "trace", "mle"):
        for b in (3, 5):
            np.testing.assert_allclose(parallel.infidelities[est][b], serial.infidelities[est][b],
                                       rtol=0, atol=1e-10)


def test_robustness_rows_and_summary(tmp_path):
    res = run_robustness_sweep(
        dims=[4], family="haar_global", n_states=2,
        noise=NoiseModel(q=1e-3, shots_per_basis=300),
        basis_range=[4], rng=RandomStream(21),
    )
    rows = robustness_rows(res)
    assert len(rows) == 3 * 1 * 2
    path = tmp_path / "rows.csv"
    write_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == "dim,rank,family,b,seed,infidelity,estimator"
    assert len(text) == 7
    summary = robustness_summary(res)
    cell = summary["cells"][0]
    assert set(cell["estimators"].keys()) == {"ls", "trace", "mle"}


def test_robustness_sweep_keeps_failure_kinds(tmp_path, monkeypatch):
    # a failed estimate stays a NaN cell, and the summary says why it failed:
    # the InfeasibleError kind, or the class of any other domain error
    def infeasible(*args, **kwargs):
        raise InfeasibleError("no density matrix in the ball",
                              kind="density_residual_exceeds_radius")

    def degenerate(*args, **kwargs):
        raise DegenerateEstimateError("zero matrix")

    monkeypatch.setattr(brqst.experiments, "estimate_mle", infeasible)
    monkeypatch.setattr(brqst.experiments, "estimate_trace_min", degenerate)
    res = run_robustness_sweep(
        dims=[4], family="haar_global", n_states=2,
        noise=NoiseModel(q=1e-3, shots_per_basis=300),
        basis_range=[3, 4], rng=RandomStream(21),
    )
    assert res[0].failures == {"ls": 0, "trace": 4, "mle": 4}
    assert res[0].failure_kinds == {"ls": {}, "trace": {"DegenerateEstimateError": 4},
                                    "mle": {"density_residual_exceeds_radius": 4}}
    for b in (3, 4):
        assert np.isnan(res[0].infidelities["mle"][b]).all()
        assert np.isnan(res[0].medians["mle"][b])
        assert np.isfinite(res[0].infidelities["ls"][b]).all()
    path = tmp_path / "rows.csv"
    write_csv(path, robustness_rows(res))
    text = path.read_text().splitlines()
    assert text[0] == "dim,rank,family,b,seed,infidelity,estimator"
    assert sum(line.endswith(",nan,mle") for line in text) == 4
    cell = robustness_summary(res)["cells"][0]
    assert cell["failures"] == res[0].failures
    assert cell["failure_kinds"] == res[0].failure_kinds
