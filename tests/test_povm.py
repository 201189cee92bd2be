import numpy as np
import pytest

from brqst import (
    BasisSet,
    HermitianMatrix,
    MeasurementVector,
    Povm,
    RandomStream,
    apply_measurement_map,
    bases_to_povm,
    build_flammia_rankr,
    build_flammia_sequential,
    build_goyeneche_bases,
    build_local_random_bases,
    build_random_bases,
    kernel_basis,
    random_mixed_hs,
    split_by_basis,
    validate_povm,
)
from brqst.io import basis_set_from_dict, basis_set_to_dict, povm_from_dict, povm_to_dict
from brqst.linalg import hvec_stack
from brqst.povm import flammia_probe_index, goyeneche_pair_layout, measurement_values


def _pauli_povm():
    zb = np.eye(2, dtype=complex)
    xb = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    yb = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
    return bases_to_povm(BasisSet(2, (zb, xb, yb)))


def _computational_povm(d):
    eye = np.eye(d, dtype=complex)
    return Povm(d, tuple(HermitianMatrix(np.outer(eye[k], eye[k])) for k in range(d)))


# ---------------------------------------------------------------------------
# measurement map
# ---------------------------------------------------------------------------

def test_apply_single_element_identity():
    povm = Povm(3, (HermitianMatrix.identity(3),))
    rho = random_mixed_hs(3, RandomStream(0))
    mv = apply_measurement_map(povm, rho)
    assert mv.values == pytest.approx([1.0], abs=1e-12)
    assert mv.kind == "ideal_probabilities"


def test_apply_computational_basis_on_maximally_mixed():
    d = 5
    mv = apply_measurement_map(_computational_povm(d), HermitianMatrix(np.eye(d) / d))
    assert np.allclose(mv.values, 1.0 / d)


def test_apply_flammia_first_element():
    # first element is the weighted |0><0| projector, so p_0 = a * rho_00
    povm = build_flammia_rankr(4, 1)
    a = povm.provenance["a"][0]
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    mv = apply_measurement_map(povm, HermitianMatrix(rho))
    assert mv.values[0] == pytest.approx(a, abs=1e-12)


def test_map_linearity_and_sum_rule():
    povm = _pauli_povm()
    gen = np.random.default_rng(1)
    for _ in range(20):
        g1 = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        g2 = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        x = (g1 + g1.conj().T) / 2
        y = (g2 + g2.conj().T) / 2
        al, be = gen.standard_normal(2)
        lhs = measurement_values(povm, al * x + be * y)
        rhs = al * measurement_values(povm, x) + be * measurement_values(povm, y)
        assert np.abs(lhs - rhs).max() < 1e-10
        assert measurement_values(povm, x).sum() == pytest.approx(np.trace(x).real, abs=1e-10)


def test_norm_sq_bound_is_cached_and_tight():
    # the estimators' step size: ||S||^2 from power iteration, padded by 5%,
    # computed once per POVM
    for povm in (build_flammia_rankr(8, 2), bases_to_povm(build_random_bases(11, 7, RandomStream(216)))):
        top = np.linalg.svd(povm.coefficient_matrix, compute_uv=False)[0] ** 2
        bound = povm.norm_sq_bound
        assert top <= bound <= 1.05 * top * (1 + 1e-12)
        assert povm.norm_sq_bound is bound


def test_measurement_vector_invariants():
    with pytest.raises(ValueError):
        MeasurementVector(np.array([0.5, -1e-6]), kind="ideal_probabilities")
    with pytest.raises(ValueError):
        MeasurementVector(np.array([0.5, 0.5]), kind="nonsense")


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        apply_measurement_map(_pauli_povm(), HermitianMatrix.identity(3))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_computational_basis():
    assert validate_povm(_computational_povm(3)).is_valid


def test_validate_rejects_double_identity():
    povm = Povm(2, (HermitianMatrix.identity(2), HermitianMatrix.identity(2)))
    rep = validate_povm(povm)
    assert not rep.is_valid
    assert rep.identity_residual == pytest.approx(1.0)


def test_validate_flammia_families():
    for d, r in ((2, 1), (8, 2), (5, 3)):
        rep = validate_povm(build_flammia_rankr(d, r))
        assert rep.is_valid, (d, r, rep)


# ---------------------------------------------------------------------------
# diagonal-probing family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,r,count", [(4, 1, 8), (8, 2, 29), (2, 1, 4), (8, 1, 16)])
def test_flammia_element_counts(d, r, count):
    povm = build_flammia_rankr(d, r)
    assert len(povm) == count == (2 * d - r) * r + 1


def test_flammia_rejects_bad_rank():
    with pytest.raises(ValueError):
        build_flammia_rankr(4, 4)
    with pytest.raises(ValueError):
        build_flammia_rankr(4, 0)


def test_flammia_probe_weights_maximal():
    # the residual element must be PSD but only barely: pushing the common
    # weight up by 1% must break positivity (unless capped at 1/(2d))
    d, r = 6, 2
    povm = build_flammia_rankr(d, r)
    b = povm.provenance["b"][0]
    assert b <= 1.0 / (2 * d) + 1e-12
    residual = povm.elements[-1].mat
    assert np.linalg.eigvalsh(residual)[0] >= -1e-12
    if b < 1.0 / (2 * d) - 1e-9:
        bumped = np.eye(d) - (np.eye(d) - residual) * 1.01
        assert np.linalg.eigvalsh(bumped)[0] < 0


def test_flammia_sequential_sizes():
    povms = build_flammia_sequential(8, 3)
    assert [len(p) for p in povms] == [16, 14, 12]
    for p in povms:
        assert validate_povm(p).is_valid
    assert len(build_flammia_sequential(8, 1)) == 1
    assert len(build_flammia_sequential(8, 1)[0]) == 16


def test_flammia_probe_index_layout():
    d, r = 5, 2
    povm = build_flammia_rankr(d, r)
    # probe (k, n) of the real kind must be 1 + |k><n| + |n><k| (times b)
    b = povm.provenance["b"][0]
    for k in range(r):
        for n in range(k + 1, d):
            e = povm.elements[flammia_probe_index(d, r, k, n, imag=False)].mat
            expected = np.eye(d, dtype=complex)
            expected[k, n] += 1.0
            expected[n, k] += 1.0
            assert np.abs(e - b * expected).max() < 1e-12
            et = povm.elements[flammia_probe_index(d, r, k, n, imag=True)].mat
            expected_t = np.eye(d, dtype=complex)
            expected_t[k, n] += -1j
            expected_t[n, k] += 1j
            assert np.abs(et - b * expected_t).max() < 1e-12


# ---------------------------------------------------------------------------
# paired-basis family
# ---------------------------------------------------------------------------

def test_goyeneche_counts_and_unitarity():
    bs = build_goyeneche_bases(4, 1)
    assert len(bs.bases) == 5
    bs2 = build_goyeneche_bases(8, 2)
    assert len(bs2.bases) == 9
    for u in bs2.bases:
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-12


def test_goyeneche_rank1_matches_published_pattern():
    # the four non-computational bases at d=4, written out entry by entry
    s = 1 / np.sqrt(2)
    bs = build_goyeneche_bases(4, 1)

    def col(m, n, phase):
        v = np.zeros(4, dtype=complex)
        v[m] = s
        v[n] = s * phase
        return v

    expected = [
        np.column_stack([col(0, 1, 1), col(0, 1, -1), col(2, 3, 1), col(2, 3, -1)]),
        np.column_stack([col(1, 2, 1), col(1, 2, -1), col(3, 0, 1), col(3, 0, -1)]),
        np.column_stack([col(0, 1, 1j), col(0, 1, -1j), col(2, 3, 1j), col(2, 3, -1j)]),
        np.column_stack([col(1, 2, 1j), col(1, 2, -1j), col(3, 0, 1j), col(3, 0, -1j)]),
    ]
    assert np.allclose(bs.bases[0], np.eye(4))
    for got, want in zip(bs.bases[1:], expected):
        assert np.abs(got - want).max() < 1e-15


def test_goyeneche_pair_layout_partitions():
    for d in (4, 8, 16):
        for r in range(1, d // 2 + 1):
            layout = goyeneche_pair_layout(d, r)
            assert len(layout) == 4 * r
            for entry in layout:
                touched = sorted(i for pair in entry["pairs"] for i in pair)
                assert touched == list(range(d))


def test_goyeneche_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        build_goyeneche_bases(6, 1)
    with pytest.raises(ValueError):
        build_goyeneche_bases(8, 5)


# ---------------------------------------------------------------------------
# random bases
# ---------------------------------------------------------------------------

def test_random_bases_shapes_and_determinism():
    bs = build_random_bases(5, 1, RandomStream(3))
    assert len(bs.bases) == 1 and bs.bases[0].shape == (5, 5)
    again = build_random_bases(5, 1, RandomStream(3))
    assert np.array_equal(bs.bases[0], again.bases[0])


def _kron_factor_error(u, dims):
    # largest deviation of u from a tensor product, found greedily by SVD splits
    err = 0.0
    rest = u
    for dl in dims[:-1]:
        dr = rest.shape[0] // dl
        m = rest.reshape(dl, dr, dl, dr).transpose(0, 2, 1, 3).reshape(dl * dl, dr * dr)
        uu, ss, vv = np.linalg.svd(m)
        err = max(err, float(ss[1]) if ss.size > 1 else 0.0)
        a = (uu[:, 0] * np.sqrt(ss[0])).reshape(dl, dl)
        rest = (vv[0] * np.sqrt(ss[0])).reshape(dr, dr)
        scale = a[np.unravel_index(np.abs(a).argmax(), a.shape)]
        rest = rest * scale / abs(scale)
    return err


def test_local_bases_are_tensor_products():
    bs = build_local_random_bases(3, 2, RandomStream(9))
    assert len(bs.bases) == 2
    for u in bs.bases:
        assert u.shape == (8, 8)
        assert _kron_factor_error(u, (2, 2, 2)) < 1e-12


def test_bases_to_povm_single_basis_gives_projectors():
    u = np.eye(3, dtype=complex)
    povm = bases_to_povm(BasisSet(3, (u,)))
    assert len(povm) == 3
    for k, e in enumerate(povm.elements):
        want = np.zeros((3, 3))
        want[k, k] = 1.0
        assert np.allclose(e.mat, want)


def test_bases_to_povm_two_bases():
    bs = build_random_bases(2, 2, RandomStream(6))
    povm = bases_to_povm(bs)
    assert len(povm) == 4
    for e in povm.elements:
        assert np.trace(e.mat).real == pytest.approx(0.5, abs=1e-12)
    assert np.abs(povm.stack.sum(axis=0) - np.eye(2)).max() < 1e-12
    assert validate_povm(povm).is_valid


def test_split_by_basis_recovers_unit_blocks():
    bs = build_random_bases(3, 4, RandomStream(10))
    povm = bases_to_povm(bs)
    rho = random_mixed_hs(3, RandomStream(11))
    mv = apply_measurement_map(povm, rho)
    blocks = split_by_basis(mv, povm)
    assert len(blocks) == 4
    for blk in blocks:
        assert blk.sum() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_empty_for_informationally_complete():
    assert kernel_basis(_pauli_povm()) == []


def test_kernel_of_trivial_povm():
    povm = Povm(2, (HermitianMatrix.identity(2),))
    kernel = kernel_basis(povm)
    assert len(kernel) == 3
    for k in kernel:
        assert abs(np.trace(k.mat)) < 1e-10


def test_kernel_dimension_flammia():
    # independent oracle: rank of the explicit coefficient matrix by SVD
    povm = build_flammia_rankr(4, 1)
    s = hvec_stack(povm.stack)
    rank = np.linalg.matrix_rank(s, tol=1e-10)
    assert rank == 8
    kernel = kernel_basis(povm)
    assert len(kernel) == 16 - rank == 8
    for k in kernel:
        assert np.abs(measurement_values(povm, k)).max() < 1e-8


def test_kernel_orthonormal():
    kernel = kernel_basis(build_flammia_rankr(4, 1))
    for i, ki in enumerate(kernel):
        for j, kj in enumerate(kernel):
            inner = np.trace(ki.mat @ kj.mat).real
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_povm_json_round_trip_exact():
    povm = build_flammia_rankr(5, 2)
    back = povm_from_dict(povm_to_dict(povm))
    assert back.dim == povm.dim
    assert len(back) == len(povm)
    for a, b in zip(back.elements, povm.elements):
        assert np.array_equal(a.mat, b.mat)
    assert back.provenance == povm.provenance


def test_basis_set_json_round_trip_exact():
    bs = build_random_bases(4, 3, RandomStream(77))
    back = basis_set_from_dict(basis_set_to_dict(bs))
    for a, b in zip(back.bases, bs.bases):
        assert np.array_equal(a, b)
    assert back.provenance == bs.provenance
