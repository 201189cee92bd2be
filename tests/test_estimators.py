import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brqst import (
    BasisSet,
    DegenerateEstimateError,
    HermitianMatrix,
    InfeasibleError,
    MeasurementVector,
    Povm,
    RandomStream,
    SolverConfig,
    apply_measurement_map,
    bases_to_povm,
    build_flammia_rankr,
    build_goyeneche_bases,
    build_random_bases,
    default_epsilon,
    estimate_ls,
    estimate_mle,
    estimate_trace_min,
    fidelity,
    fidelity_pure,
    infidelity,
    random_mixed_hs,
    random_pure_state,
    random_rank_r_state,
    simulate_counts,
)
from brqst import estimators

# the Fig-2 records that scripts/answers.py compares two checkouts on
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from answers import fig2_record  # noqa: E402

TIGHT = SolverConfig(max_iterations=30_000, relative_tolerance=1e-12)


def _pauli_povm():
    zb = np.eye(2, dtype=complex)
    xb = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    yb = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
    return bases_to_povm(BasisSet(2, (zb, xb, yb)))


def _computational_povm(d):
    eye = np.eye(d, dtype=complex)
    return Povm(d, tuple(HermitianMatrix(np.outer(eye[k], eye[k])) for k in range(d)))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(relative_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# constrained least squares
# ---------------------------------------------------------------------------

def test_ls_pauli_recovery():
    povm = _pauli_povm()
    target = np.diag([0.75, 0.25]).astype(complex)
    f = apply_measurement_map(povm, HermitianMatrix(target))
    report = estimate_ls(povm, f, TIGHT)
    assert np.abs(report.estimate.mat - target).max() < 1e-7
    assert report.converged


def test_ls_rank1_strict_recovery():
    povm = build_flammia_rankr(8, 1)
    for s in range(5):
        psi = random_pure_state(8, RandomStream(100, s))
        rho = HermitianMatrix(np.outer(psi, psi.conj()))
        report = estimate_ls(povm, apply_measurement_map(povm, rho), TIGHT)
        assert 1.0 - fidelity_pure(psi, report.estimate) < 1e-6


def test_ls_maximally_mixed_under_ic_povm():
    povm = _pauli_povm()
    f = apply_measurement_map(povm, HermitianMatrix(np.eye(2) / 2))
    report = estimate_ls(povm, f, TIGHT)
    assert np.abs(report.estimate.mat - np.eye(2) / 2).max() < 1e-8


def test_ls_trace_emerges_without_constraint():
    povm = build_flammia_rankr(8, 1)
    psi = random_pure_state(8, RandomStream(101))
    rho = HermitianMatrix(np.outer(psi, psi.conj()))
    report = estimate_ls(povm, apply_measurement_map(povm, rho), TIGHT)
    assert np.trace(report.raw.mat).real == pytest.approx(1.0, abs=1e-6)


def test_ls_raw_is_psd():
    povm = _pauli_povm()
    gen = np.random.default_rng(5)
    vals = gen.uniform(0.0, 0.4, len(povm))
    f = MeasurementVector(vals / vals.sum(), kind="empirical_frequencies", total_shots=100)
    report = estimate_ls(povm, f, TIGHT)
    assert np.linalg.eigvalsh(report.raw.mat)[0] >= -1e-9


def test_ls_monotone_objective():
    povm = build_flammia_rankr(4, 1)
    psi = random_pure_state(4, RandomStream(102))
    f = apply_measurement_map(povm, HermitianMatrix(np.outer(psi, psi.conj())))
    report = estimate_ls(povm, f, TIGHT, keep_history=True)
    assert report.objective_history is not None
    assert (np.diff(report.objective_history) <= 0).all()


def test_ls_table1_record_polishes_early():
    # a noiseless Table-1 record (d=11, rank 2, 7 Haar bases): the polish after
    # the short FISTA warm start reaches round-off, so the solve takes 100
    # iterations; with the polish only after 500-iteration chunks it took 533
    rho = random_rank_r_state(11, 2, RandomStream(116))
    povm = bases_to_povm(build_random_bases(11, 7, RandomStream(216)))
    report = estimate_ls(povm, apply_measurement_map(povm, rho), TIGHT)
    assert infidelity(rho, report.estimate) < 1e-5
    assert report.converged
    assert report.iterations <= 264


def test_ls_stops_at_round_off_fit():
    # the same record: the first polish fits the data to round-off, and the
    # solve ends there; another chunk and polish would only choose between
    # exact fits on round-off (without this stop: 32 more iterations and a
    # second polish)
    rho = random_rank_r_state(11, 2, RandomStream(116))
    povm = bases_to_povm(build_random_bases(11, 7, RandomStream(216)))
    report = estimate_ls(povm, apply_measurement_map(povm, rho), TIGHT)
    assert report.converged
    assert report.iterations == estimators._WARM_START
    assert 0.5 * report.residual_norm ** 2 < estimators._ROUND_OFF


def _first_polish_input(monkeypatch, run, name="_lm_residual_polish"):
    # the arguments of the first polish of run(): the iterate after the warm start
    inputs = []
    polish = getattr(estimators, name)

    def recording(stack, a, fv, x, *args, **kwargs):
        inputs.append((stack, a, fv, x.copy()))
        return polish(stack, a, fv, x, *args, **kwargs)

    monkeypatch.setattr(estimators, name, recording)
    run()
    monkeypatch.undo()
    return inputs[0]


def _polish_steps(monkeypatch, stack, a, fv, x, kind="empirical_frequencies"):
    # one uncapped LM polish of a record of the given kind: its output, its
    # Jacobians and its calls that add the curvature
    jacobian, curvature = estimators._factor_jacobian, estimators._factor_curvature
    steps, curved = [], []

    def jac(*args, **kwargs):
        steps.append(1)
        return jacobian(*args, **kwargs)

    def curv(*args, **kwargs):
        curved.append(1)
        return curvature(*args, **kwargs)

    monkeypatch.setattr(estimators, "_factor_jacobian", jac)
    monkeypatch.setattr(estimators, "_factor_curvature", curv)
    out = estimators._lm_residual_polish(stack, a, fv, x, kind=kind)
    monkeypatch.undo()
    return out, len(steps), len(curved)


def test_solve_accelerates_on_ill_conditioned_quadratic():
    # 0.5 x^T D x with D = diag(logspace(0, -4, 40)), no constraint and no
    # polish: with momentum the core reaches its streak in about 1600
    # iterations.  A restart test evaluated at the extrapolated point fired
    # on every step and left plain gradient descent, which took about 41 000
    diag = np.logspace(0, -4, 40)

    def value(x):
        return 0.5 * float(x @ (diag * x))

    x, f_x, iters, converged, _ = estimators._solve(
        lambda x: (value(x), diag * x), value, lambda x: x, np.ones(40), 1.0,
        SolverConfig(max_iterations=100_000, relative_tolerance=1e-8), False,
        lambda x: None, estimators._WARM_START)
    assert converged
    assert iters <= 5_000
    assert f_x < 1e-12


def test_solve_without_warm_start_polishes_first():
    # a warm start of 0 polishes the starting point before any core
    # iteration.  On 0.5 ||x - c||^2 a polish that returns c ends the solve
    # there, after 0 iterations; a polish that finds nothing hands over to a
    # full chunk.  Either way the history records the starting objective
    # once.  Telling the first chunk by its iteration count instead looped
    # on empty chunks, so the polish calls are capped here
    c = np.linspace(-1.0, 1.0, 12)
    x0 = np.zeros(12)
    cfg = SolverConfig(max_iterations=1_000, relative_tolerance=1e-12)

    def value(x):
        return 0.5 * float((x - c) @ (x - c))

    def solve(result):
        calls = []

        def polish(x):
            calls.append(1)
            assert len(calls) <= 3, "the solve keeps polishing without iterating"
            return result

        return estimators._solve(lambda x: (value(x), x - c), value, lambda x: x, x0, 1.0,
                                 cfg, True, polish, 0)

    x, f_x, iters, converged, hist = solve(c.copy())
    assert converged and iters == 0 and f_x == 0.0
    assert np.array_equal(x, c)
    assert list(hist) == [value(x0), 0.0]
    x, f_x, iters, converged, hist = solve(None)
    assert converged and iters > 0 and f_x < estimators._ROUND_OFF
    assert list(hist).count(value(x0)) == 1 and len(hist) == iters + 1


def test_ls_polish_trims_spare_columns(monkeypatch):
    # the record above: the warm start has five eigenvalues above 1e-3 of the
    # largest, so the factor starts at rank 6.  The polish drops the spare
    # columns as they die and ends on the target's rank 2 at round-off in 70
    # solves; without the trim it ran all 150 iterations at rank 6 (159
    # solves) to a residual of 3e-13.  The record is noiseless, so every step
    # is Gauss-Newton
    rho = random_rank_r_state(11, 2, RandomStream(116))
    povm = bases_to_povm(build_random_bases(11, 7, RandomStream(216)))
    f = apply_measurement_map(povm, rho)
    stack, a, fv, x = _first_polish_input(monkeypatch, lambda: estimate_ls(povm, f, TIGHT))
    solve, jacobian = np.linalg.solve, estimators._factor_jacobian
    shapes, sizes = [], []

    def recording_jacobian(*args, **kwargs):
        j = jacobian(*args, **kwargs)
        shapes.append(j.shape)
        return j

    def recording(m, rhs):
        sizes.append((len(rhs), shapes[-1]))
        return solve(m, rhs)

    monkeypatch.setattr(estimators, "_factor_jacobian", recording_jacobian)
    monkeypatch.setattr(np.linalg, "solve", recording)
    out = estimators._lm_residual_polish(stack, a, fv, x, kind=f.kind)
    # the Jacobian's columns are the real view of the d x r factor
    assert shapes[0][1] == 2 * 11 * 6 and shapes[-1][1] == 2 * 11 * 2
    # every step is Gauss-Newton, solved in the smaller of outcome and factor space
    assert all(size == min(shape) for size, shape in sizes)
    assert np.linalg.norm(a @ out - fv) <= 1e-12
    assert len(sizes) <= 120


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       log_mu=st.floats(min_value=-12.0, max_value=0.0))
def test_outcome_space_step_is_the_factor_space_step(data, d, seed, log_mu):
    # push-through: -J^T (J J^T + mu I)^-1 w = -(J^T J + mu I)^-1 J^T w, the
    # polish's Gauss-Newton step when J has fewer rows m = b d than columns
    # n = 2 d r.  Each basis block of J sums to the gradient of Tr X / b, so
    # J J^T is singular on b - 1 directions, along which w = M[X - rho] has
    # no component.  b is kept where the rank of M, b (d - 1) + 1, is below
    # the tangent dimension r (2 d - r) of the rank-r factor, so J has no
    # other row dependence; at equality (b = d + 1 = r + 1, say) J's least
    # singular value is small and both forms lose digits to it.  The right
    # side is taken from the SVD of J: a solve with J^T J + mu I, singular on
    # the r^2 gauge directions V -> V U, carries a round-off error of order
    # 1e-16 / mu there
    r = data.draw(st.integers(min_value=1, max_value=d))
    b_max = min(2 * r - 1, (r * (2 * d - r) - 2) // (d - 1))
    b = data.draw(st.integers(min_value=1, max_value=b_max))
    povm = bases_to_povm(build_random_bases(d, b, RandomStream(seed)))
    a = estimators._measurement_map(povm)
    fv = apply_measurement_map(povm, random_rank_r_state(d, r, RandomStream(seed, 1))).values
    gen = np.random.default_rng(seed)
    v = gen.standard_normal((d, r)) + 1j * gen.standard_normal((d, r))
    v /= np.linalg.norm(v)
    p = a @ estimators._vec(v @ v.conj().T)
    j = estimators._factor_jacobian(povm.stack, v, p)
    w, mu = p - fv, 10.0 ** log_mu
    m, n = j.shape
    assert m < n
    outcome = -(j.T @ np.linalg.solve(j @ j.T + mu * np.eye(m), w))
    u, s, vt = np.linalg.svd(j, full_matrices=False)
    factor = -(vt.T @ (s / (s * s + mu) * (u.T @ w)))
    assert np.linalg.norm(outcome - factor) <= 1e-10 * np.linalg.norm(factor)


def test_ls_polish_stops_at_noisy_stationary_point(monkeypatch):
    # a noisy Fig-2 record: the fit stalls at the noise floor, and the polish
    # stops there instead of running to its 150-iteration cap (16 iterations
    # here; 114 with the Gauss-Newton model alone), returning a point no worse
    # than the iterate it was given
    povm, f, _ = fig2_record(777, 1, 5)
    stack, a, fv, x = _first_polish_input(monkeypatch, lambda: estimate_ls(povm, f, SWEEP_CFG))
    out, steps, _ = _polish_steps(monkeypatch, stack, a, fv, x)
    r0, r1 = a @ x - fv, a @ out - fv
    assert steps < 150
    assert r1 @ r1 <= r0 @ r0


def test_ls_noisy_record_solves(monkeypatch):
    # LS on a noisy Fig-2 record: once the fit stops falling fast, the LM
    # polish adds the residual's curvature and converges in 32 LM solves; the
    # Gauss-Newton model alone converged linearly and took 409, for a fit no
    # better than this one
    povm, f, _ = fig2_record(777, 2, 5)
    solve = np.linalg.solve
    calls = []

    def recording(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", recording)
    report = estimate_ls(povm, f, SWEEP_CFG)
    assert len(calls) <= 60
    assert report.objective <= 4.944640730727e-03 * (1 + 1e-12)


def test_ls_polish_takes_newton_steps_only_when_slow(monkeypatch):
    # the first LS polish of the noisy record above switches to Newton steps
    # where its fit falls slowly and ends in 23 Jacobians (Gauss-Newton alone
    # ran its 150-iteration cap); the noiseless Table-1 record's polish stays
    # Gauss-Newton throughout, as its kind says the optimum fits exactly
    povm, f, _ = fig2_record(777, 2, 5)
    noisy = _first_polish_input(monkeypatch, lambda: estimate_ls(povm, f, SWEEP_CFG))
    _, steps, curved = _polish_steps(monkeypatch, *noisy)
    assert steps < 40
    assert curved > 0
    rho = random_rank_r_state(11, 2, RandomStream(116))
    povm = bases_to_povm(build_random_bases(11, 7, RandomStream(216)))
    f = apply_measurement_map(povm, rho)
    noiseless = _first_polish_input(monkeypatch, lambda: estimate_ls(povm, f, TIGHT))
    assert _polish_steps(monkeypatch, *noiseless, kind=f.kind)[2] == 0


def test_ls_polish_stops_on_flat_step(monkeypatch):
    # the LS polish of the noisy record above, from its iterate after 100 FISTA
    # iterations, ends on an accepted step that lowers its fit by less than
    # _LM_FLAT relative, at the first try, so the stall test, which needs a
    # rejected smaller damping, does not fire.  Without that stop the polish
    # takes one more Jacobian (20 against 19) for a fit 3e-16 relative lower.
    # (From the 20-iteration warm start the record now gets, both take 23.)
    povm, f, _ = fig2_record(777, 2, 5)
    monkeypatch.setattr(estimators, "_BALL_WARM_START", estimators._WARM_START)
    stack, a, fv, x = _first_polish_input(monkeypatch, lambda: estimate_ls(povm, f, SWEEP_CFG))
    out, steps, _ = _polish_steps(monkeypatch, stack, a, fv, x)
    monkeypatch.setattr(estimators, "_LM_FLAT", 0.0)
    longer, longer_steps, _ = _polish_steps(monkeypatch, stack, a, fv, x)
    r, r_longer = a @ out - fv, a @ longer - fv
    assert steps < longer_steps
    assert r @ r <= (r_longer @ r_longer) * (1 + 1e-14)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(min_value=2, max_value=5), b=st.integers(min_value=1, max_value=5),
       rank=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_ls_gap_bounds_excess_over_ls_fit(d, b, rank, seed):
    # weak duality: at any X >= 0 the gap is at least the objective's excess
    # over its minimum, so over the objective at the LS estimate
    bs = build_random_bases(d, b, RandomStream(seed))
    povm = bases_to_povm(bs)
    f = simulate_counts(bs, random_mixed_hs(d, RandomStream(seed, 1)).mat, 50, RandomStream(seed, 2))
    a = estimators._measurement_map(povm)
    gap = estimators._ls_gap(povm, a, f.values)
    _, best = gap(estimators._vec(estimate_ls(povm, f, TIGHT).raw.mat))
    gen = np.random.default_rng(seed)
    v = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    g, value = gap(estimators._vec(gen.uniform(0.1, 2.0) * v @ v.conj().T / d))
    assert g >= value - best - 1e-12


def test_ls_certificate_stops_noisy_record():
    # the noisy Fig-2 record: the first polish ends at the optimum, where the
    # gap reads 8.2e-13 of the objective, and the solve stops on it after the
    # 20-iteration warm start; without the certificate it ran a chunk and a
    # polish more
    povm, f, _ = fig2_record(777, 2, 5)
    report = estimate_ls(povm, f, SWEEP_CFG)
    gap, value = estimators._ls_gap(povm, estimators._measurement_map(povm), f.values)(
        estimators._vec(report.raw.mat))
    assert report.converged
    assert gap <= estimators._LS_GAP * value
    assert report.iterations <= 100


def test_ls_gap_needs_identity_sum():
    # the duplicate-projector POVM of test_trace_min_certified_infeasible sums
    # to 2 |0><0|, not to a multiple of I: no cheap dual point, no certificate
    p0 = HermitianMatrix(np.diag([1.0, 0.0]).astype(complex))
    povm = Povm(2, (p0, p0))
    assert estimators._ls_gap(povm, estimators._measurement_map(povm), np.array([0.6, 0.2])) is None
    pauli = _pauli_povm()
    assert estimators._ls_gap(pauli, estimators._measurement_map(pauli), np.full(6, 1 / 6)) is not None


def test_ls_short_warm_start_only_when_certified(monkeypatch):
    # the first polish comes after _BALL_WARM_START iterations only on a noisy
    # record whose POVM has the duality gap that certifies the answer
    solve = estimators._solve
    warm_starts = []

    def recording(*args, **kwargs):
        warm_starts.append(args[8])
        return solve(*args, **kwargs)

    monkeypatch.setattr(estimators, "_solve", recording)
    p0 = HermitianMatrix(np.diag([1.0, 0.0]).astype(complex))
    values = np.array([0.5, 0.1, 0.7, 0.3, 0.45, 0.55])
    for povm, kind in ((_pauli_povm(), "empirical_frequencies"),
                       (_pauli_povm(), "ideal_probabilities"),
                       (Povm(2, (p0, p0)), "empirical_frequencies")):
        f = MeasurementVector(values[:len(povm.elements)] / 3, kind=kind, total_shots=300)
        estimate_ls(povm, f, TIGHT)
    assert warm_starts == [estimators._BALL_WARM_START, estimators._WARM_START,
                           estimators._WARM_START]


def test_ls_length_mismatch():
    povm = _pauli_povm()
    with pytest.raises(ValueError):
        estimate_ls(povm, MeasurementVector(np.ones(3) / 3, kind="ideal_probabilities"))


# ---------------------------------------------------------------------------
# trace minimization
# ---------------------------------------------------------------------------

def test_trace_min_matches_ls_noiseless():
    povm = build_flammia_rankr(6, 1)
    psi = random_pure_state(6, RandomStream(103))
    f = apply_measurement_map(povm, HermitianMatrix(np.outer(psi, psi.conj())))
    rep_ls = estimate_ls(povm, f, TIGHT)
    rep_tr = estimate_trace_min(povm, f, 1e-9, TIGHT)
    assert 1.0 - fidelity(rep_ls.estimate, rep_tr.estimate) < 1e-6
    assert 1.0 - fidelity_pure(psi, rep_tr.estimate) < 1e-6
    assert rep_tr.converged


def test_trace_min_huge_eps_degenerates():
    povm = _pauli_povm()
    f = apply_measurement_map(povm, HermitianMatrix(np.eye(2) / 2))
    with pytest.raises(DegenerateEstimateError):
        estimate_trace_min(povm, f, 10.0, TIGHT)


def _random_basis_record():
    d, b, shots = 4, 5, 1200
    bs = build_random_bases(d, b, RandomStream(104))
    psi = random_pure_state(d, RandomStream(105))
    f = simulate_counts(bs, np.outer(psi, psi.conj()), shots, RandomStream(106))
    return bases_to_povm(bs), f, default_epsilon(b, d, shots)


def _goyeneche_fig2_record():
    # one d=8 Fig-2 record: b=5 paired bases, q=1e-3 admixture, 2400 shots per basis
    d, b, shots, q = 8, 5, 2400, 1e-3
    bs = build_goyeneche_bases(d, 1)
    psi = random_pure_state(d, RandomStream(113))
    sigma = (1 - q) * np.outer(psi, psi.conj()) + q * random_mixed_hs(d, RandomStream(114)).mat
    f = simulate_counts(bs, sigma, shots, RandomStream(115))
    return bases_to_povm(bs), f, default_epsilon(b, d, shots) / b


def test_trace_min_noisy_constraint_active():
    povm, f, eps = _random_basis_record()
    report = estimate_trace_min(povm, f, eps, TIGHT)
    assert report.residual_norm <= eps + 1e-9
    assert report.converged


@pytest.mark.parametrize("record", [
    _random_basis_record,
    _goyeneche_fig2_record,
    pytest.param(lambda: fig2_record(777, 0, 9), id="sweep-777-state0-b9"),
    pytest.param(lambda: fig2_record(777, 1, 5), id="sweep-777-state1-b5"),
])
def test_trace_min_kkt_certificate(record):
    # at the optimum of min Tr X s.t. ||M[X] - f|| <= eps, X >= 0 with the ball
    # active, S = I + M^dagger[r] / theta is PSD and complementary to X, where
    # r = M[X] - f and theta = lambda_max(-M^dagger[r])
    povm, f, eps = record()
    report = estimate_trace_min(povm, f, eps, TIGHT)
    x = report.raw.mat
    r = np.einsum("mij,ji->m", povm.stack, x).real - f.values
    g = np.einsum("m,mij->ij", r, povm.stack)
    theta = -np.linalg.eigvalsh(g)[0]
    s = np.eye(povm.dim) + g / theta
    tr_x = np.trace(x).real
    assert np.linalg.eigvalsh(s)[0] >= -1e-6
    assert abs(np.trace(x @ s).real) / tr_x <= 1e-6
    assert abs(np.linalg.norm(r) - eps) <= 1e-9
    ls = estimate_ls(povm, f, TIGHT)
    if ls.residual_norm <= eps:
        assert tr_x <= np.trace(ls.raw.mat).real * (1 + 1e-6)


@pytest.mark.parametrize("seed,state,b", [(777, 5, 5), (4242, 6, 5), (777, 4, 9)])
def test_trace_min_lands_on_certified_optimum(seed, state, b):
    # weak duality at y = -r / theta, r = M[X] - f and
    # theta = lambda_max(-M^dagger[r]), bounds the least trace in the ball of
    # radius eps + 1e-9 from below by (-<r, f> - (eps + 1e-9) ||r||) / theta.
    # The answer's trace sits within 1e-8 relative of that bound here (2.1e-7
    # at most over the 40 recorded programs).  With 20 FISTA iterations
    # restarted after each Newton step the answer sat up to 5.2e-6 above it
    povm, f, eps = fig2_record(seed, state, b)
    report = estimate_trace_min(povm, f, eps, SWEEP_CFG)
    x = report.raw.mat
    r = np.einsum("mij,ji->m", povm.stack, x).real - f.values
    theta = np.linalg.eigvalsh(-np.einsum("m,mij->ij", r, povm.stack))[-1]
    lower = (-float(r @ f.values) - (eps + 1e-9) * np.linalg.norm(r)) / theta
    tr_x = np.trace(x).real
    assert report.converged
    assert 0.0 <= (tr_x - lower) / tr_x <= 1e-6


@pytest.mark.parametrize("record", [
    _goyeneche_fig2_record,
    pytest.param(lambda: fig2_record(777, 0, 9), id="sweep-777-state0-b9"),
])
def test_trace_min_caps_rise_to_the_answer(record, monkeypatch):
    # each Newton step projects onto {X >= 0, Tr X <= cap} with its own cap;
    # steps taken from the dual lower bound never pass the optimal trace, so
    # the caps rise and the last one is the trace of the answer
    caps = []
    project = estimators._project_psd

    def recording(d, cap=None):
        if cap is not None:
            caps.append(cap)
        return project(d, cap)

    monkeypatch.setattr(estimators, "_project_psd", recording)
    povm, f, eps = record()
    report = estimate_trace_min(povm, f, eps, SWEEP_CFG)
    tr_x = np.trace(report.raw.mat).real
    assert report.converged and len(caps) > 1
    assert (np.diff(caps) >= 0).all()
    assert abs(caps[-1] - tr_x) <= 1e-8 * tr_x


@pytest.mark.parametrize("seed,state,b", [(777, 0, 5), (777, 1, 9)])
def test_trace_min_decomposes_each_matrix_once(seed, state, b, monkeypatch):
    # the stop test that ends a capped solve and the Newton step after it
    # read the same Pareto point; it must be evaluated only once
    eigh = np.linalg.eigh
    inputs = []

    def recording(m, *args, **kwargs):
        if np.any(m):
            inputs.append(np.ascontiguousarray(m).tobytes())
        return eigh(m, *args, **kwargs)

    povm, f, eps = fig2_record(seed, state, b)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    estimate_trace_min(povm, f, eps, SWEEP_CFG)
    repeats = len(inputs) - len(set(inputs))
    assert inputs and repeats == 0, f"{repeats} matrices decomposed more than once"


@pytest.mark.parametrize("seed,state,b", [(777, 0, 5), (777, 1, 9)])
def test_mle_decomposes_start_matrix_once(seed, state, b, monkeypatch):
    # the plain solve starts from I / d, which the density projection returns
    # unchanged; the start is projected once, not again at the first chunk
    eigh = np.linalg.eigh
    start = np.eye(8, dtype=np.complex128) / 8
    hits = []

    def recording(m, *args, **kwargs):
        hits.append(np.array_equal(m, start))
        return eigh(m, *args, **kwargs)

    povm, f, eps = fig2_record(seed, state, b)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    estimate_mle(povm, f, eps, SWEEP_CFG)
    assert sum(hits) == 1


def test_trace_min_noiseless_goyeneche_reaches_slack():
    # noiseless rank-1 d=8 record at eps = 1e-9: an inexact stop must not leave
    # the last capped solve stalled between the radius and its slack
    povm = bases_to_povm(build_goyeneche_bases(8, 1))
    psi = random_pure_state(8, RandomStream(117))
    f = apply_measurement_map(povm, HermitianMatrix(np.outer(psi, psi.conj())))
    report = estimate_trace_min(povm, f, 1e-9, SWEEP_CFG)
    assert report.converged
    assert report.residual_norm <= 2e-9
    assert 1.0 - fidelity_pure(psi, report.estimate) < 1e-6


def test_trace_min_polish_solves(monkeypatch):
    # one trace-min call on a noisy Fig-2 record: its polishes on the face
    # Tr X = tau are Newton steps and take 48 LM solves (33 after a
    # 20-iteration warm start at every cap, which cost 73 more
    # eigendecompositions); with the Gauss-Newton model alone they took 212
    povm, f, eps = fig2_record(777, 2, 5)
    solve = np.linalg.solve
    calls = []

    def recording(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", recording)
    report = estimate_trace_min(povm, f, eps, SWEEP_CFG)
    assert report.converged
    assert len(calls) <= 60


def test_ball_programs_polish_after_short_warm_start():
    # the noisy Fig-2 record: trace minimization and the likelihood polish
    # after 20 FISTA iterations, and the plain MLE then stops on its
    # Frank-Wolfe gap; trace minimization then polishes each new cap before
    # any iteration and takes 10 in all.  With a warm start of 100 and no
    # certificate they took 230 and 110 iterations
    povm, f, eps = fig2_record(777, 2, 5)
    trace = estimate_trace_min(povm, f, eps, SWEEP_CFG)
    mle = estimate_mle(povm, f, eps, SWEEP_CFG)
    assert trace.converged and mle.converged
    assert trace.iterations <= 120
    assert mle.iterations <= 40


def test_trace_min_certified_infeasible():
    # the same projector listed twice with frequencies 0.6 and 0.2: every X
    # gives equal entries, so the least residual is 0.2 sqrt(2) > eps
    p0 = HermitianMatrix(np.diag([1.0, 0.0]).astype(complex))
    povm = Povm(2, (p0, p0))
    f = MeasurementVector(np.array([0.6, 0.2]), kind="empirical_frequencies", total_shots=10)
    with pytest.raises(InfeasibleError) as info:
        estimate_trace_min(povm, f, 1e-3, TIGHT)
    assert info.value.kind == "ls_residual_exceeds_radius"
    assert "2.828427e-01" in str(info.value) and "1.000000e-03" in str(info.value)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

def test_mle_computational_basis_state():
    povm = _computational_povm(3)
    rho = np.zeros((3, 3), complex)
    rho[0, 0] = 1.0
    f = apply_measurement_map(povm, HermitianMatrix(rho))
    report = estimate_mle(povm, f, 1e-9, TIGHT)
    assert np.abs(report.estimate.mat - rho).max() < 1e-6
    assert abs(np.trace(report.estimate.mat).real - 1.0) < 1e-9


def test_mle_uniform_single_basis_matches_diagonal():
    povm = _computational_povm(4)
    f = MeasurementVector(np.full(4, 0.25), kind="empirical_frequencies", total_shots=400)
    report = estimate_mle(povm, f, 1e-6, TIGHT)
    assert np.abs(np.diag(report.estimate.mat).real - 0.25).max() < 1e-6


def test_mle_matches_ls_on_strict_record():
    povm = build_flammia_rankr(6, 1)
    psi = random_pure_state(6, RandomStream(107))
    f = apply_measurement_map(povm, HermitianMatrix(np.outer(psi, psi.conj())))
    rep_ls = estimate_ls(povm, f, TIGHT)
    rep_ml = estimate_mle(povm, f, 1e-9, TIGHT)
    assert 1.0 - fidelity(rep_ls.estimate, rep_ml.estimate) < 1e-5


def test_mle_monotone_objective():
    povm = _pauli_povm()
    f = apply_measurement_map(povm, HermitianMatrix(np.diag([0.8, 0.2]).astype(complex)))
    report = estimate_mle(povm, f, 1e-9, TIGHT, keep_history=True)
    assert (np.diff(report.objective_history) <= 1e-12).all()


def test_mle_infeasible_ball():
    povm = Povm(2, (HermitianMatrix.identity(2),))
    f = MeasurementVector(np.array([0.5]), kind="empirical_frequencies", total_shots=10)
    # any density matrix maps to exactly 1.0, so a ball of radius 1e-3 around
    # 0.5 cannot be reached
    with pytest.raises(InfeasibleError) as info:
        estimate_mle(povm, f, 1e-3, SolverConfig(max_iterations=2000))
    assert info.value.kind == "density_residual_exceeds_radius"


SWEEP_CFG = SolverConfig(max_iterations=20_000, relative_tolerance=1e-10)


def _mle_lower_bounds(povm, f, eps, rho):
    # For mu >= 0 and L_mu = NLL + (mu / 2)(||M[.] - f||^2 - eps^2), every density
    # matrix sigma in the ball has NLL(sigma) >= L_mu(sigma) >= L_mu(rho) +
    # Tr(G_mu (sigma - rho)) >= L_mu(rho) + lambda_min(G_mu) - Tr(G_mu rho), with
    # G_mu the gradient of L_mu at rho (convexity).  Returns NLL(rho) and that
    # lower bound as a function of mu.
    fv = f.values
    p = np.einsum("mij,ji->m", povm.stack, rho).real
    r = p - fv
    nll = -float(fv[fv > 0] @ np.log(p[fv > 0]))
    g0 = np.einsum("m,mij->ij", np.where(fv > 0, -fv / np.maximum(p, 1e-300), 0.0), povm.stack)
    g1 = np.einsum("m,mij->ij", r, povm.stack)

    def bound(mu):
        g = g0 + mu * g1
        return (nll + 0.5 * mu * (r @ r - eps * eps) + np.linalg.eigvalsh(g)[0]
                - np.trace(g @ rho).real)

    return nll, bound


def _mle_duality_gap(povm, f, eps, rho):
    # NLL(rho) minus the largest lower bound of _mle_lower_bounds over mu,
    # mu = 0 included, relative to NLL(rho)
    nll, bound = _mle_lower_bounds(povm, f, eps, rho)
    # the bound is concave in mu: scan, then golden-section search in log mu
    grid = np.linspace(np.log(1e-3), np.log(1e8), 221)
    i = int(np.argmax([bound(np.exp(t)) for t in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    for _ in range(60):
        m1, m2 = lo + 0.382 * (hi - lo), hi - 0.382 * (hi - lo)
        if bound(np.exp(m1)) < bound(np.exp(m2)):
            lo = m1
        else:
            hi = m2
    # the scan starts at mu = 1e-3; with the ball inactive the best bound is at
    # mu = 0, nll + lambda_min(G_0) - Tr(G_0 rho)
    return (nll - max(bound(0.0), bound(np.exp(0.5 * (lo + hi))))) / abs(nll)


@pytest.mark.parametrize("seed,state,b", [(12, 11, 5), (12, 26, 8), (21, 41, 5)])
def test_mle_active_ball_duality_gap(seed, state, b):
    # d=8 Fig-2 records where the plain MLE misses the ball, which still holds
    # density matrices, so the ball is active.  The last two have large
    # multipliers (mu ~ 477 on the first); there a Fisher polish without the
    # curvature of the trace-normalized factor left a gradient near 1e-7, and
    # this bound read 2.7e-8 and 2.6e-8
    povm, f, eps = fig2_record(seed, state, b)
    assert estimate_mle(povm, f, 1.0, SWEEP_CFG).residual_norm > eps
    report = estimate_mle(povm, f, eps, SWEEP_CFG)
    rho = report.raw.mat
    assert report.converged
    assert eps * (1 - 1e-4) <= report.residual_norm <= eps + 1e-9
    assert abs(np.trace(rho).real - 1.0) <= 1e-9
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert _mle_duality_gap(povm, f, eps, rho) <= 1e-8


def test_mle_density_residual_solve_stops_on_certificate(monkeypatch):
    # the active-ball record (12, 11, 5): the least-residual density solve
    # (rho_inf, the second solve) stops after its warm start and first polish
    # on its Frank-Wolfe gap <r, p> - lambda_min(M^dagger[r]); without that
    # certificate it ran a 10-iteration chunk and a polish more, for the same
    # final NLL
    povm, f, eps = fig2_record(12, 11, 5)
    solve = estimators._solve
    solves = []

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        solves.append(out)
        return out

    monkeypatch.setattr(estimators, "_solve", recording)
    estimate_mle(povm, f, eps, SWEEP_CFG)
    x_inf, half_r2, iters, converged, _ = solves[1]
    a = estimators._measurement_map(povm)
    gap, value = estimators._frank_wolfe_gap(a, estimators._ls_fit(f.values), povm.dim)(x_inf)
    assert converged
    assert iters == estimators._BALL_WARM_START
    assert value == pytest.approx(half_r2, rel=1e-14)
    assert gap <= estimators._FW_GAP * value


def test_mle_inactive_ball_reaches_optimum():
    # seed 11, state 10, b=5: the plain MLE lies inside the ball and is the
    # answer.  With a Gauss-Newton Fisher model the polish crawled, the solve
    # stopped after 1565 iterations 2.3e-7 relative above this NLL, and the
    # bound read 1.65e-6.  The bound at mu = 0 reads 7.4e-13 here, where the
    # solve stops on its Frank-Wolfe gap (1.6e-14 with a 100-iteration warm
    # start and no Frank-Wolfe stop); from mu = 1e-3 upward the best one read
    # 4.2e-8
    povm, f, eps = fig2_record(11, 10, 5)
    report = estimate_mle(povm, f, eps, SWEEP_CFG)
    assert report.converged
    assert report.residual_norm < eps
    assert _mle_duality_gap(povm, f, eps, report.raw.mat) <= 1e-12


def test_mle_frank_wolfe_gap_is_mu_zero_bound():
    # the stop test of the likelihood solves, <w, p> - lambda_min(M^dagger[w]),
    # is NLL minus the mu = 0 lower bound above, here at 2e-16 of the NLL apart
    povm, f, eps = fig2_record(11, 10, 5)
    rho = estimate_mle(povm, f, eps, SWEEP_CFG).raw.mat
    a = estimators._measurement_map(povm)
    fw = estimators._frank_wolfe_gap(a, estimators._likelihood_fit(f.values, 0.0), povm.dim)
    gap, value = fw(estimators._vec(rho))
    nll, bound = _mle_lower_bounds(povm, f, eps, rho)
    assert value == pytest.approx(nll, rel=1e-14)
    assert abs(gap - (nll - bound(0.0))) <= 1e-14 * nll


def test_mle_fisher_polish_converges_fast(monkeypatch):
    # the first likelihood polish, that of the plain MLE (mu = 0), on a noisy
    # Fig-2 record: with the curvature of the trace-normalized factor it ends
    # in 16 iterations after the 20-iteration warm start (39 after one of 100);
    # the Fisher model alone converged linearly and ran to its cap of 120
    povm, f, eps = fig2_record(777, 0, 5)
    stack, a, fv, x = _first_polish_input(
        monkeypatch, lambda: estimate_mle(povm, f, eps, SWEEP_CFG), "_fisher_polish_nll")
    jacobian = estimators._factor_jacobian
    steps = []

    def recording(*args, **kwargs):
        steps.append(1)
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(estimators, "_factor_jacobian", recording)
    out = estimators._fisher_polish_nll(stack, a, fv, x)
    nll, _ = estimators._likelihood(a, fv, 0.0)
    assert len(steps) <= 60
    assert nll(out) <= nll(x)


def test_mle_inactive_ball_respects_iteration_budget():
    # with the ball inactive the plain MLE is the answer, and its one solve
    # stops at the configured budget
    povm, f, eps = fig2_record(12, 0, 9)
    cfg = SolverConfig(max_iterations=50, relative_tolerance=1e-10)
    report = estimate_mle(povm, f, eps, cfg)
    assert report.residual_norm < eps
    assert report.iterations <= cfg.max_iterations


# ---------------------------------------------------------------------------
# estimator equivalence on strictly-complete noiseless records
# ---------------------------------------------------------------------------

def test_three_estimators_agree_noiseless():
    d = 4
    povm_fl = build_flammia_rankr(d, 1)
    povm_go = bases_to_povm(build_goyeneche_bases(d, 1))
    povm_rb = bases_to_povm(build_random_bases(d, 6, RandomStream(108)))
    for povm in (povm_fl, povm_go, povm_rb):
        for s in range(3):
            psi = random_pure_state(d, RandomStream(109, s))
            f = apply_measurement_map(povm, HermitianMatrix(np.outer(psi, psi.conj())))
            reps = [
                estimate_ls(povm, f, TIGHT),
                estimate_trace_min(povm, f, 1e-9, TIGHT),
                estimate_mle(povm, f, 1e-9, TIGHT),
            ]
            for rep in reps:
                assert 1.0 - fidelity_pure(psi, rep.estimate) < 1e-5
            for i in range(3):
                for j in range(i + 1, 3):
                    assert 1.0 - fidelity(reps[i].estimate, reps[j].estimate) < 1e-5


def test_noise_halving_does_not_hurt():
    # property form of the robustness corollary: doubling the shot count must
    # not raise the median error by more than sampling noise
    d, b = 4, 5
    bs = build_random_bases(d, b, RandomStream(110))
    povm = bases_to_povm(bs)
    psi = random_pure_state(d, RandomStream(111))
    rho = np.outer(psi, psi.conj())
    errors = {}
    for shots in (800, 1600):
        errs = []
        for s in range(20):
            f = simulate_counts(bs, rho, shots, RandomStream(112, s))
            rep = estimate_ls(povm, f, TIGHT)
            errs.append(np.linalg.norm(rep.raw.mat - rho))
        errors[shots] = float(np.median(errs))
    assert errors[1600] <= 1.2 * errors[800]


# ---------------------------------------------------------------------------
# epsilon heuristic
# ---------------------------------------------------------------------------

def test_default_epsilon_values():
    # direct evaluation of sqrt(b (1 - 1/d) / N)
    assert default_epsilon(6, 11, 3300) == pytest.approx(0.040655781409087086, rel=1e-12)
    assert default_epsilon(1, 1, 5) == 0.0
    assert default_epsilon(1, 2, 2) == pytest.approx(0.5, rel=1e-12)


def test_default_epsilon_validates():
    with pytest.raises(ValueError):
        default_epsilon(0, 2, 2)
    with pytest.raises(ValueError):
        default_epsilon(1, 2, 0)
