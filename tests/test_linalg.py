import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brqst import (
    HermitianMatrix,
    RandomStream,
    eig_hermitian,
    fidelity,
    fidelity_pure,
    inertia,
    numerical_rank,
    project_density,
    project_psd,
    random_haar_unitary,
    random_mixed_hs,
    random_pure_state,
    random_rank_r_state,
    schur_complement,
)
from brqst.errors import FailureSetError
from brqst.linalg import hunvec, hvec, hvec_stack


def test_hermitian_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        HermitianMatrix(np.ones((2, 3)))


def test_hermitian_matrix_is_immutable():
    h = HermitianMatrix.identity(3)
    with pytest.raises(ValueError):
        h.mat[0, 0] = 2.0


def test_eig_identity():
    w, v = eig_hermitian(HermitianMatrix.identity(3))
    assert np.allclose(w, 1.0)
    assert np.allclose(v @ v.conj().T, np.eye(3), atol=1e-12)


def test_eig_diagonal_sorted_ascending():
    w, _ = eig_hermitian(np.diag([2.0, -1.0]))
    assert np.allclose(w, [-1.0, 2.0])


def test_eig_pauli_x():
    w, _ = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_reconstruction_random():
    gen = np.random.default_rng(3)
    for d in (2, 5, 9):
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        w, v = eig_hermitian(h)
        scale = max(1.0, np.abs(w).max())
        assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-10 * scale


def test_inertia_examples():
    assert inertia(np.diag([2.0, 0.0, -1.0]), tol=1e-10) == (1, 1, 1)
    assert inertia(HermitianMatrix.identity(4)) == (0, 0, 4)
    # traceless matrices must carry at least one negative eigenvalue
    assert inertia(np.diag([1.0, -1.0])) == (1, 0, 1)


def test_numerical_rank_examples():
    proj = np.zeros((5, 5), dtype=complex)
    proj[0, 0] = 1.0
    assert numerical_rank(proj) == 1
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_numerical_rank_known_factor_rank():
    gen = np.random.default_rng(11)
    d, r = 8, 3
    psi = gen.standard_normal((d, r)) + 1j * gen.standard_normal((d, r))
    rho = psi @ psi.conj().T
    rho /= np.trace(rho).real
    assert numerical_rank(rho) == r


def test_schur_rank_one_forces_zero_complement():
    out = schur_complement(np.array([[1.0, 1.0], [1.0, 1.0]]), 1)
    assert np.allclose(out.mat, [[0.0]], atol=1e-14)


def test_schur_block_diagonal():
    out = schur_complement(np.diag([2.0, 3.0]), 1)
    assert np.allclose(out.mat, [[3.0]])


def test_schur_pure_state_matches_direct_formula():
    psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    a = rho[:1, :1]
    b = rho[1:, :1]
    c = rho[1:, 1:]
    oracle = c - b @ np.linalg.inv(a) @ b.conj().T
    out = schur_complement(rho, 1)
    assert np.abs(out.mat - oracle).max() < 1e-14
    assert np.abs(out.mat).max() < 1e-14


def test_schur_singular_leading_block():
    with pytest.raises(FailureSetError):
        schur_complement(np.diag([0.0, 1.0]), 1)


def test_schur_additivity_random():
    gen = np.random.default_rng(5)
    done = 0
    while done < 100:
        d = int(gen.integers(2, 9))
        r = int(gen.integers(1, d))
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        m = (g + g.conj().T) / 2
        sv = np.linalg.svd(m[:r, :r], compute_uv=False)
        if sv[-1] < 1e-3 * sv[0]:
            continue
        comp = schur_complement(m, r)
        assert inertia(m, 1e-8) == tuple(np.add(inertia(m[:r, :r], 1e-8), inertia(comp, 1e-8)))
        assert numerical_rank(m, 1e-8) == numerical_rank(m[:r, :r], 1e-8) + numerical_rank(comp, 1e-8)
        done += 1


def test_project_psd_examples():
    assert np.allclose(project_psd(np.diag([1.0, -1.0])).mat, np.diag([1.0, 0.0]))
    assert np.allclose(project_psd(np.diag([3.0, -2.0, 0.5])).mat, np.diag([3.0, 0.0, 0.5]))


def test_project_psd_fixed_point_and_idempotent():
    gen = np.random.default_rng(7)
    g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    psd = g @ g.conj().T
    assert np.abs(project_psd(psd).mat - psd).max() < 1e-10
    h = (g + g.conj().T) / 2
    once = project_psd(h)
    assert np.abs(project_psd(once).mat - once.mat).max() < 1e-12


def _simplex_projection_oracle(v):
    # exhaustive search over active sets; independent of the implementation
    best = None
    n = v.size
    for k in range(1, n + 1):
        for active in itertools.combinations(range(n), k):
            idx = list(active)
            theta = (v[idx].sum() - 1.0) / k
            x = np.zeros(n)
            x[idx] = v[idx] - theta
            if (x >= -1e-12).all() and abs(x.sum() - 1.0) < 1e-9:
                dist = float(((x - v) ** 2).sum())
                if best is None or dist < best[0]:
                    best = (dist, x)
    return best[1]


def test_project_density_examples():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.abs(project_density(rho).mat - rho).max() < 1e-12
    assert np.allclose(project_density(np.diag([2.0, 0.0])).mat, np.diag([1.0, 0.0]))
    oracle = _simplex_projection_oracle(np.array([0.9, 0.9, -0.2]))
    assert np.allclose(oracle, [0.5, 0.5, 0.0])
    out = project_density(np.diag([0.9, 0.9, -0.2]))
    assert np.allclose(np.diag(out.mat).real, oracle, atol=1e-12)


def test_project_density_random_matches_oracle():
    gen = np.random.default_rng(13)
    for _ in range(25):
        d = int(gen.integers(2, 5))
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        out = project_density(h)
        w = np.linalg.eigvalsh(out.mat)
        assert w.min() >= -1e-12
        assert abs(np.trace(out.mat).real - 1.0) <= 1e-12
        win = np.linalg.eigvalsh(h)
        assert np.allclose(np.sort(w), np.sort(_simplex_projection_oracle(win)), atol=1e-9)


def test_fidelity_pure_examples():
    e0 = np.array([1.0, 0.0])
    assert fidelity_pure(e0, np.diag([1.0, 0.0])) == pytest.approx(1.0)
    assert fidelity_pure(e0, np.diag([0.0, 1.0])) == pytest.approx(0.0)
    e0_4 = np.array([1.0, 0.0, 0.0, 0.0])
    assert fidelity_pure(e0_4, np.eye(4) / 4) == pytest.approx(0.25)


def test_fidelity_pure_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fidelity_pure(np.array([1.0, 1.0]), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        fidelity_pure(np.array([1.0, 0.0]), np.diag([2.0, 0.0]))


def test_fidelity_reduces_to_overlap_for_pure_states():
    # rank-deficient inputs leave a sqrt(machine eps) floor in the matrix root
    psi = random_pure_state(5, RandomStream(1))
    rho = random_mixed_hs(5, RandomStream(2))
    assert fidelity(np.outer(psi, psi.conj()), rho.mat) == pytest.approx(
        fidelity_pure(psi, rho), abs=1e-7
    )


def test_haar_unitary_dimension_one():
    u = random_haar_unitary(1, RandomStream(4))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_is_unitary():
    for d in (2, 6, 11):
        u = random_haar_unitary(d, RandomStream(d))
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12


def test_haar_first_entry_moment():
    # Haar moment: E|U_00|^2 = 1/d
    gen = RandomStream(99).generator()
    vals = [abs(random_haar_unitary(4, gen)[0, 0]) ** 2 for _ in range(10_000)]
    assert np.mean(vals) == pytest.approx(0.25, abs=0.02)


def test_hs_measure_moments():
    # E Tr(rho^2) = 2d / (d^2 + 1) under the Hilbert-Schmidt measure; 0.8 at d=2
    gen = RandomStream(7).generator()
    purity = []
    for _ in range(10_000):
        rho = random_mixed_hs(2, gen).mat
        purity.append(np.trace(rho @ rho).real)
    assert np.mean(purity) == pytest.approx(0.8, abs=0.02)


def test_random_mixed_hs_shape_and_rank():
    rho = random_mixed_hs(5, RandomStream(21))
    w = np.linalg.eigvalsh(rho.mat)
    assert w.min() > 0
    assert abs(np.trace(rho.mat).real - 1.0) < 1e-12
    assert numerical_rank(rho) == 5


def test_random_rank_r_state_rank():
    for r in (1, 2, 3):
        rho = random_rank_r_state(6, r, RandomStream(30 + r))
        assert numerical_rank(rho) == r
        assert abs(np.trace(rho.mat).real - 1.0) < 1e-12


def test_dimension_one_samplers():
    psi = random_pure_state(1, RandomStream(8))
    assert abs(abs(psi[0]) - 1.0) < 1e-12
    rho = random_mixed_hs(1, RandomStream(8))
    assert np.allclose(rho.mat, [[1.0]])


def test_seeded_determinism():
    a = random_haar_unitary(5, RandomStream(123, 7))
    b = random_haar_unitary(5, RandomStream(123, 7))
    assert np.array_equal(a, b)
    c = random_haar_unitary(5, RandomStream(123, 8))
    assert not np.array_equal(a, c)
    s = RandomStream(5).derive(1, 2)
    t = RandomStream(5).derive(1, 2)
    assert s == t
    assert RandomStream(5).derive(2, 1) != s


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_hvec_isometry_and_inverse_property(d, seed, scale):
    # hunvec inverts hvec and hvec preserves the Frobenius norm, to round-off
    gen = np.random.default_rng(seed)
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    h = scale * (g + g.conj().T) / 2
    x = hvec(h)
    tol = 1e-15 * np.linalg.norm(h, "fro")
    assert np.abs(hunvec(x, d) - h).max() <= tol
    assert abs(np.linalg.norm(x) - np.linalg.norm(h, "fro")) <= 4 * tol


def test_hvec_isometry_and_inverse():
    gen = np.random.default_rng(2)
    for d in (1, 3, 6):
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        x = hvec(h)
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(h, "fro"), rel=1e-12)
        assert np.abs(hunvec(x, d) - h).max() < 1e-12
    stack = np.stack([np.eye(3, dtype=complex), np.diag([1.0, 2.0, 3.0]).astype(complex)])
    rows = hvec_stack(stack)
    assert np.allclose(rows[0], hvec(stack[0]))
    assert np.allclose(rows[1], hvec(stack[1]))
