"""Property tests for the matrix-space measurement map of the estimator core.

The core works on the real view of a complex d x d matrix and applies the
measurement map as the real view of the stacked POVM elements.  These tests
tie that map to the Hermitian coordinates of ``hvec`` and to the trace
formula, and check the projections and the polish built on it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from brqst import RandomStream, bases_to_povm, build_random_bases, project_density, project_psd
from brqst.estimators import (
    _apply_elements,
    _factor_curvature,
    _factor_jacobian,
    _fisher_polish_nll,
    _likelihood,
    _lm_residual_polish,
    _mat,
    _measurement_map,
    _project_density,
    _project_psd,
    _vec,
)
from brqst.linalg import hvec, project_simplex

SETTINGS = settings(max_examples=40, deadline=None)
dims = st.integers(min_value=2, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scales = st.sampled_from([1e-3, 1.0, 1e3])


def _hermitian(d, gen, scale=1.0):
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2


def _povm(d, seed, n_bases=3):
    return bases_to_povm(build_random_bases(d, n_bases, RandomStream(seed)))


@SETTINGS
@given(d=dims, seed=seeds, scale=scales)
def test_map_matches_hermitian_coordinates_and_trace(d, seed, scale):
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    x = _hermitian(d, gen, scale)
    p = _measurement_map(povm) @ _vec(x)
    tol = 1e-12 * scale
    np.testing.assert_allclose(p, povm.coefficient_matrix @ hvec(x), rtol=0, atol=tol)
    traces = np.array([np.trace(e.mat @ x).real for e in povm.elements])
    np.testing.assert_allclose(p, traces, rtol=0, atol=tol)


@SETTINGS
@given(d=dims, seed=seeds, scale=scales)
def test_adjoint_is_real_view_of_hermitian_sum(d, seed, scale):
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    r = scale * gen.standard_normal(len(povm))
    g = _mat(_measurement_map(povm).T @ r, d)
    expected = np.einsum("m,mij->ij", r, povm.stack)
    np.testing.assert_allclose(g, expected, rtol=0, atol=1e-12 * scale)
    np.testing.assert_array_equal(g, g.conj().T)


@SETTINGS
@given(d=dims, seed=seeds, scale=scales)
def test_psd_projection_idempotent_nonexpansive(d, seed, scale):
    gen = np.random.default_rng(seed)
    proj = _project_psd(d)
    x, y = _hermitian(d, gen, scale), _hermitian(d, gen, scale)
    px, py = proj(_vec(x)), proj(_vec(y))
    tol = 1e-12 * scale
    np.testing.assert_allclose(_mat(px, d), project_psd(x).mat, rtol=0, atol=tol)
    np.testing.assert_allclose(proj(px), px, rtol=0, atol=tol)
    assert np.linalg.eigvalsh(_mat(px, d))[0] >= -tol
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + tol


@SETTINGS
@given(d=dims, seed=seeds, scale=scales, cap=st.floats(min_value=1e-3, max_value=1e3))
def test_capped_psd_projection(d, seed, scale, cap):
    # projection onto {X >= 0, Tr X <= cap}, the feasible set of one Pareto-curve point
    gen = np.random.default_rng(seed)
    proj = _project_psd(d, cap)
    x, y = _hermitian(d, gen, scale), _hermitian(d, gen, scale)
    px, py = proj(_vec(x)), proj(_vec(y))
    tol = 1e-12 * max(scale, cap)
    xp = _mat(px, d)
    assert np.linalg.eigvalsh(xp)[0] >= -tol
    assert np.trace(xp).real <= cap + tol
    np.testing.assert_allclose(proj(px), px, rtol=0, atol=tol)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + tol
    clipped = project_psd(x).mat
    if np.trace(clipped).real <= cap:
        expected = clipped
    else:
        expected = cap * project_density(x / cap).mat
    np.testing.assert_allclose(xp, expected, rtol=0, atol=tol)


def _project_simplex_reference(w):
    # project_simplex before it took a total
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, w.size + 1)
    valid = u - css / ks > 0
    k = int(ks[valid][-1])
    theta = css[k - 1] / k
    return np.maximum(w - theta, 0.0)


@SETTINGS
@given(d=dims, seed=seeds, scale=scales)
def test_project_simplex_default_total_unchanged(d, seed, scale):
    w = scale * np.random.default_rng(seed).standard_normal(d)
    np.testing.assert_array_equal(project_simplex(w), _project_simplex_reference(w))


@SETTINGS
@given(d=dims, seed=seeds, scale=scales)
def test_density_projection_idempotent_nonexpansive(d, seed, scale):
    gen = np.random.default_rng(seed)
    proj = _project_density(d)
    x, y = _hermitian(d, gen, scale), _hermitian(d, gen, scale)
    px, py = proj(_vec(x)), proj(_vec(y))
    tol = 1e-12 * max(1.0, scale)
    rho = _mat(px, d)
    np.testing.assert_allclose(rho, project_density(x).mat, rtol=0, atol=tol)
    np.testing.assert_allclose(proj(px), px, rtol=0, atol=tol)
    assert abs(np.trace(rho).real - 1.0) <= tol
    assert np.linalg.eigvalsh(rho)[0] >= -tol
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + tol


@SETTINGS
@given(d=dims, seed=seeds, rank=st.integers(min_value=1, max_value=4))
def test_reshaped_product_jacobian_matches_einsum(d, seed, rank):
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    v = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    np.testing.assert_allclose(_apply_elements(povm.stack, v),
                               np.einsum("mij,jr->mir", povm.stack, v),
                               rtol=0, atol=1e-13)


@SETTINGS
@given(d=dims, seed=seeds, rank=st.integers(min_value=1, max_value=4))
def test_real_view_jacobian_is_derivative_of_data_fit(d, seed, rank):
    # the polish reads the real view of E_mu V as the Jacobian of
    # V -> [Tr(E_mu V V^dagger)] acting on the real view of a step dV
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    a = _measurement_map(povm)
    v = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    dv = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    jac = _factor_jacobian(povm.stack, v, None)

    def fit(w):
        return a @ _vec(w @ w.conj().T)

    # central differences are exact for the quadratic map
    central = (fit(v + dv) - fit(v - dv)) / 2.0
    np.testing.assert_allclose(jac @ _vec(dv), central, rtol=0, atol=1e-11)


def _low_rank(d, rank, gen, scale=1.0):
    v = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    return scale * (v @ v.conj().T)


@SETTINGS
@given(d=dims, seed=seeds, rank=st.integers(min_value=1, max_value=4), cap=scales)
def test_capped_jacobian_matches_central_difference(d, seed, rank, cap):
    # on the face Tr X = cap the polish fits X = cap V V^dagger / ||V||_F^2
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    a = _measurement_map(povm)
    v = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    dv = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))

    def fit(w):
        return a @ _vec(cap * (w @ w.conj().T) / np.linalg.norm(w) ** 2)

    jac = _factor_jacobian(povm.stack, v, fit(v), cap)
    h = 1e-5
    central = (fit(v + h * dv) - fit(v - h * dv)) / (2 * h)
    scale = cap * np.linalg.norm(dv) / np.linalg.norm(v)
    np.testing.assert_allclose(jac @ _vec(dv), central, rtol=0, atol=1e-7 * scale)


@SETTINGS
@given(d=dims, seed=seeds, rank=st.integers(min_value=1, max_value=3),
       cap=st.one_of(st.none(), scales))
def test_factor_curvature_matches_central_difference(d, seed, rank, cap):
    # the Hessian of sum_mu w_mu p_mu, at X = V V^dagger or on the face
    # Tr X = cap, is the derivative of the gradient J^T w, column by column
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    a = _measurement_map(povm)
    v = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    w = gen.standard_normal(len(povm))

    def gradient(x):
        u = x.view(np.complex128).reshape(d, rank)
        xx = u @ u.conj().T
        p = a @ _vec(xx if cap is None else cap * xx / np.linalg.norm(u) ** 2)
        return _factor_jacobian(povm.stack, u, p, cap).T @ w

    x = _vec(v)
    h = 1e-5
    steps = h * np.eye(x.size)
    central = np.column_stack([(gradient(x + e) - gradient(x - e)) / (2 * h) for e in steps])
    hess = _factor_curvature(povm.stack, v, w, cap)
    scale = np.abs(central).max()
    np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(hess, central, rtol=0, atol=1e-6 * scale)


@SETTINGS
@given(d=st.integers(min_value=1, max_value=8), seed=seeds,
       rank=st.integers(min_value=1, max_value=8))
def test_factor_curvature_block_writes_match_kron_form(d, seed, rank):
    # 2 R(G (x) I_r), written block by block, against its definition through
    # np.kron and the interleaved real view: equal bit for bit, except that a
    # zero entry may carry the other sign.  The capped form adds its terms to
    # the same matrix
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    v = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    w = gen.standard_normal(len(povm))
    k = np.kron(np.tensordot(w, povm.stack, 1), np.eye(rank))
    n = k.shape[0]
    h = np.empty((2 * n, 2 * n))
    h[0::2, 0::2] = h[1::2, 1::2] = k.real
    h[0::2, 1::2] = -k.imag
    h[1::2, 0::2] = k.imag
    got, expected = _factor_curvature(povm.stack, v, w), 2.0 * h
    same_bits = got.view(np.uint64) == expected.view(np.uint64)
    assert (same_bits | ((got == 0) & (expected == 0))).all()


@SETTINGS
@given(d=dims, seed=seeds, rank=st.integers(min_value=1, max_value=3), cap=scales)
def test_capped_polish_stays_on_face(d, seed, rank, cap):
    # an iterate on the cap is refined to a PSD matrix of trace exactly cap
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    a = _measurement_map(povm)
    target = _low_rank(d, rank, gen)
    fv = a @ _vec(cap * target / np.trace(target).real) + 1e-3 * cap * gen.standard_normal(len(povm))
    start = _low_rank(d, d, gen)
    x = _vec(cap * start / np.trace(start).real)
    out = _lm_residual_polish(povm.stack, a, fv, x, cap=cap)
    xp = _mat(out, d)
    np.testing.assert_allclose(xp, xp.conj().T, rtol=0, atol=1e-14 * cap)
    assert np.linalg.eigvalsh(xp)[0] >= -1e-12 * cap
    assert abs(np.trace(xp).real - cap) <= 1e-12 * cap
    r0, r1 = a @ x - fv, a @ out - fv
    assert r1 @ r1 <= r0 @ r0


@SETTINGS
@given(d=dims, seed=seeds, rank=st.integers(min_value=1, max_value=3),
       mu=st.sampled_from([0.0, 1.0, 100.0]))
def test_likelihood_polish_returns_better_density_matrix(d, seed, rank, mu):
    # the likelihood polish refines a density matrix to a density matrix whose
    # penalized NLL, NLL + (mu / 2) ||M[rho] - f||^2, is no higher
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    a = _measurement_map(povm)
    target = _low_rank(d, rank, gen)
    fv = np.maximum(a @ _vec(target / np.trace(target).real)
                    + 1e-2 * gen.standard_normal(len(povm)) / d, 0.0)
    start = _low_rank(d, d, gen)
    x = _vec(start / np.trace(start).real)
    out = _fisher_polish_nll(povm.stack, a, fv, x, mu=mu)
    rho = _mat(out, d)
    np.testing.assert_allclose(rho, rho.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    value, _ = _likelihood(a, fv, mu)
    assert value(out) <= value(x)


@SETTINGS
@given(d=dims, seed=seeds, rank=st.integers(min_value=1, max_value=3),
       noise=st.sampled_from([0.0, 1e-3]))
def test_inactive_cap_polish_is_uncapped_polish(d, seed, rank, noise):
    # a cap the iterate stays below is inactive: the polish is the plain one bit for bit
    gen = np.random.default_rng(seed)
    povm = _povm(d, seed)
    a = _measurement_map(povm)
    fv = a @ _vec(_low_rank(d, rank, gen)) + noise * gen.standard_normal(len(povm))
    x = _vec(_low_rank(d, d, gen))
    cap = 2.0 * np.trace(_mat(x, d)).real
    np.testing.assert_array_equal(_lm_residual_polish(povm.stack, a, fv, x, cap=cap),
                                  _lm_residual_polish(povm.stack, a, fv, x))
