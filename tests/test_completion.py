import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brqst import (
    BasisSet,
    FailureSetError,
    HermitianMatrix,
    PartialMatrix,
    RandomStream,
    apply_measurement_map,
    bases_to_povm,
    build_flammia_rankr,
    build_goyeneche_bases,
    check_proposition1,
    complete_rankr,
    default_plan,
    extract_flammia,
    extract_goyeneche,
    falsify_strictness,
    inertia,
    numerical_rank,
    random_rank_r_state,
)
from brqst.povm import goyeneche_pair_layout, measurement_values


def _basis_probs(u, rho):
    return np.real(np.einsum("ik,ij,jk->k", u.conj(), rho, u))


def _goyeneche_probs(bs, rho):
    return [_basis_probs(u, rho) for u in bs.bases]


def _goyeneche_mask(d, r, with_diagonal=True):
    mask = np.zeros((d, d), dtype=bool)
    if with_diagonal:
        np.fill_diagonal(mask, True)
    for entry in goyeneche_pair_layout(d, r):
        for m, n in entry["pairs"]:
            mask[m, n] = mask[n, m] = True
    return mask


# ---------------------------------------------------------------------------
# PartialMatrix
# ---------------------------------------------------------------------------

def test_partial_matrix_validates_mask_symmetry():
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 1] = True
    with pytest.raises(ValueError):
        PartialMatrix(2, np.zeros((2, 2), complex), mask)


def test_partial_matrix_validates_hermitian_values():
    mask = np.ones((2, 2), dtype=bool)
    vals = np.array([[1.0, 1.0j], [1.0j, 0.0]])
    with pytest.raises(ValueError):
        PartialMatrix(2, vals, mask)


# ---------------------------------------------------------------------------
# extraction: diagonal-probing family
# ---------------------------------------------------------------------------

def test_extract_flammia_basis_state():
    povm = build_flammia_rankr(2, 1)
    rho = np.zeros((2, 2), complex)
    rho[0, 0] = 1.0
    part = extract_flammia(povm, apply_measurement_map(povm, HermitianMatrix(rho)))
    assert part.measured[0, 0] and part.measured[0, 1]
    assert part.values[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(part.values[0, 1]) < 1e-12


def test_extract_flammia_plus_state():
    povm = build_flammia_rankr(2, 1)
    plus = np.full((2, 2), 0.5, dtype=complex)
    part = extract_flammia(povm, apply_measurement_map(povm, HermitianMatrix(plus)))
    assert part.values[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert part.values[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_extract_flammia_row_pattern():
    # for a pure state with c_0 != 0 the first column is c_n * conj(c_0)
    gen = RandomStream(40).generator()
    d = 6
    c = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    c /= np.linalg.norm(c)
    rho = np.outer(c, c.conj())
    povm = build_flammia_rankr(d, 1)
    part = extract_flammia(povm, apply_measurement_map(povm, HermitianMatrix(rho)))
    for n in range(1, d):
        assert part.values[n, 0] == pytest.approx(c[n] * np.conj(c[0]), abs=1e-10)


def test_extract_flammia_mask_covers_first_rows():
    d, r = 6, 2
    povm = build_flammia_rankr(d, r)
    rho = random_rank_r_state(d, r, RandomStream(41))
    part = extract_flammia(povm, apply_measurement_map(povm, rho))
    expected = np.zeros((d, d), dtype=bool)
    expected[:r, :] = True
    expected[:, :r] = True
    assert np.array_equal(part.measured, expected)


def test_extract_flammia_rejects_wrong_provenance():
    povm = build_flammia_rankr(3, 1)
    bs = build_goyeneche_bases(4, 1)
    union = bases_to_povm(bs)
    mv = apply_measurement_map(union, HermitianMatrix.identity(4))
    with pytest.raises(ValueError):
        extract_flammia(union, mv)


# ---------------------------------------------------------------------------
# extraction: paired-basis family
# ---------------------------------------------------------------------------

def test_extract_goyeneche_basis_state():
    bs = build_goyeneche_bases(4, 1)
    rho = np.zeros((4, 4), complex)
    rho[0, 0] = 1.0
    part = extract_goyeneche(bs, _goyeneche_probs(bs, rho))
    assert part.values[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert part.values[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_extract_goyeneche_qubit_pair():
    # |+> on the first qubit pair embedded in d=4: rho_01 = 0.5
    psi = np.zeros(4, complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    bs = build_goyeneche_bases(4, 1)
    part = extract_goyeneche(bs, _goyeneche_probs(bs, rho))
    assert part.values[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_extract_goyeneche_recovers_complex_entries():
    rho = random_rank_r_state(8, 2, RandomStream(42)).mat
    bs = build_goyeneche_bases(8, 2)
    part = extract_goyeneche(bs, _goyeneche_probs(bs, rho))
    where = part.measured
    assert np.abs(np.where(where, part.values - rho, 0.0)).max() < 1e-12


def test_extract_goyeneche_mask_diagonals():
    d, r = 8, 2
    bs = build_goyeneche_bases(d, r)
    rho = random_rank_r_state(d, r, RandomStream(43)).mat
    part = extract_goyeneche(bs, _goyeneche_probs(bs, rho))
    diffs = sorted({(j - i) % d for i in range(d) for j in range(d) if part.measured[i, j]})
    assert diffs == [0, 1, 2, 6, 7]


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def test_default_plan_flammia():
    plan = default_plan("flammia", 4, 1)
    assert len(plan.members) == 1
    assert plan.members[0].indices == (0, 1, 2, 3)
    assert plan.members[0].a_indices == (0,)
    assert plan.alternates == ()


def test_default_plan_goyeneche_rank1():
    plan = default_plan("goyeneche", 8, 1)
    first = plan.members[:7]
    assert all(len(m.indices) == 3 for m in first)
    assert [m.indices[0] for m in first] == list(range(7))
    sizes = sorted({len(m.indices) for m in plan.members})
    assert sizes == [3, 4, 5, 6, 7]
    assert all(len(m.a_indices) == 1 for m in plan.members)


def test_default_plan_goyeneche_rank2_first_size():
    plan = default_plan("goyeneche", 8, 2)
    assert len(plan.members[0].indices) == 4
    assert all(len(m.a_indices) == 2 for m in plan.members)


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_complete_flammia_uniform_superposition():
    psi = np.ones(3, complex) / np.sqrt(3)
    rho = np.outer(psi, psi.conj())
    povm = build_flammia_rankr(3, 1)
    part = extract_flammia(povm, apply_measurement_map(povm, HermitianMatrix(rho)))
    out = complete_rankr(part, 1, default_plan("flammia", 3, 1))
    assert np.abs(out.mat - rho).max() < 1e-12


def test_complete_goyeneche_failure_on_basis_state():
    rho = np.zeros((4, 4), complex)
    rho[0, 0] = 1.0
    bs = build_goyeneche_bases(4, 1)
    part = extract_goyeneche(bs, _goyeneche_probs(bs, rho))
    with pytest.raises(FailureSetError):
        complete_rankr(part, 1, default_plan("goyeneche", 4, 1))


def test_complete_goyeneche_alternate_rescues_single_zero():
    # one vanishing interior diagonal is rescued by the wrap-around members
    psi = np.array([1.0, 0.0, 1.0, 1.0], complex) / np.sqrt(3)
    rho = np.outer(psi, psi.conj())
    bs = build_goyeneche_bases(4, 1)
    part = extract_goyeneche(bs, _goyeneche_probs(bs, rho))
    out = complete_rankr(part, 1, default_plan("goyeneche", 4, 1))
    assert np.abs(out.mat - rho).max() < 1e-12


def test_complete_goyeneche_two_nonadjacent_zeros_fail():
    psi = np.array([1.0, 0.0, 1.0, 0.0], complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    bs = build_goyeneche_bases(4, 1)
    part = extract_goyeneche(bs, _goyeneche_probs(bs, rho))
    with pytest.raises(FailureSetError):
        complete_rankr(part, 1, default_plan("goyeneche", 4, 1))


def test_complete_rank2_flammia_mixture():
    gen = RandomStream(50)
    d = 8
    rho = random_rank_r_state(d, 2, gen)
    povm = build_flammia_rankr(d, 2)
    part = extract_flammia(povm, apply_measurement_map(povm, rho))
    out = complete_rankr(part, 2, default_plan("flammia", d, 2))
    assert np.abs(out.mat - rho.mat).max() < 1e-10


def test_complete_preserves_measured_entries():
    rho = random_rank_r_state(8, 2, RandomStream(51))
    bs = build_goyeneche_bases(8, 2)
    part = extract_goyeneche(bs, _goyeneche_probs(bs, rho.mat))
    out = complete_rankr(part, 2, default_plan("goyeneche", 8, 2))
    assert np.abs(np.where(part.measured, out.mat - part.values, 0.0)).max() == 0.0
    assert np.abs(out.mat - out.mat.conj().T).max() < 1e-15


def test_round_trip_both_families():
    # smaller version of the acceptance harness: 40 states across cells
    rng = RandomStream(60)
    cases = [(4, 1), (8, 1), (8, 2), (8, 3)]
    for d, r in cases:
        for s in range(10):
            stream = rng.derive(d, r, s)
            rho = random_rank_r_state(d, r, stream)
            povm = build_flammia_rankr(d, r)
            part = extract_flammia(povm, apply_measurement_map(povm, rho))
            out = complete_rankr(part, r, default_plan("flammia", d, r))
            assert np.linalg.norm(out.mat - rho.mat) < 1e-8
            if r <= d // 2:
                bs = build_goyeneche_bases(d, r)
                part2 = extract_goyeneche(bs, _goyeneche_probs(bs, rho.mat))
                out2 = complete_rankr(part2, r, default_plan("goyeneche", d, r))
                assert np.linalg.norm(out2.mat - rho.mat) < 1e-8


def _complete_record(family, d, r, rho):
    # complete_rankr on the noiseless record of rho by the family's probes
    if family == "flammia":
        povm = build_flammia_rankr(d, r)
        part = extract_flammia(povm, apply_measurement_map(povm, HermitianMatrix(rho)))
    else:
        bs = build_goyeneche_bases(d, r)
        part = extract_goyeneche(bs, _goyeneche_probs(bs, rho))
    return complete_rankr(part, r, default_plan(family, d, r))


_FAMILY_CELLS = st.tuples(st.sampled_from(["flammia", "goyeneche"]), st.sampled_from([4, 8]))


@settings(max_examples=40, deadline=None)
@given(cell=_FAMILY_CELLS, data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_completion_round_trip_generic_state(cell, data, seed):
    # a random rank-r state lies outside every failure set: completion
    # returns it, and never raises
    family, d = cell
    r = data.draw(st.integers(min_value=1, max_value=d // 2))
    rho = random_rank_r_state(d, r, RandomStream(seed)).mat
    assert np.linalg.norm(_complete_record(family, d, r, rho).mat - rho) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(cell=_FAMILY_CELLS, data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_completion_is_exact_or_raises(cell, data, seed):
    # the same states with some coordinates zeroed, which puts many of them
    # in a failure set: completion either returns the state or raises, and
    # never returns another matrix
    family, d = cell
    r = data.draw(st.integers(min_value=1, max_value=d // 2))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    assume(keep.any())
    rho = random_rank_r_state(d, r, RandomStream(seed)).mat * np.outer(keep, keep)
    rho /= np.trace(rho).real
    try:
        out = _complete_record(family, d, r, rho)
    except FailureSetError:
        return
    assert np.linalg.norm(out.mat - rho) <= 1e-8


def test_complete_flammia_raises_on_state_off_measured_rows():
    # a state supported on the rows the probes do not reach: every measured
    # entry is round-off, and so is the A block.  It is well conditioned
    # against itself, and completion used to invert it and return a wrong
    # matrix at Frobenius distance 0.95 (where the round-off is not exactly zero)
    rho = random_rank_r_state(4, 2, RandomStream(78)).mat.copy()
    rho[:2, :] = rho[:, :2] = 0.0
    rho /= np.trace(rho).real
    with pytest.raises(FailureSetError):
        _complete_record("flammia", 4, 2, rho)


# ---------------------------------------------------------------------------
# strictness classification
# ---------------------------------------------------------------------------

def test_proposition1_requires_diagonal():
    assert not check_proposition1(_goyeneche_mask(4, 1, with_diagonal=False), True)
    assert check_proposition1(_goyeneche_mask(4, 1, with_diagonal=True), True)


def test_proposition1_flammia_mask_lacks_diagonal():
    d, r = 6, 2
    mask = np.zeros((d, d), dtype=bool)
    mask[:r, :] = True
    mask[:, :r] = True
    assert not check_proposition1(mask, True)
    povm = build_flammia_rankr(d, r)
    assert povm.provenance["strictness"] == "inertia-argument"


def test_proposition1_monotone_under_added_diagonal():
    mask = _goyeneche_mask(4, 1, with_diagonal=False)
    before = check_proposition1(mask, True)
    mask2 = mask.copy()
    np.fill_diagonal(mask2, True)
    after = check_proposition1(mask2, True)
    assert after or not before


def test_sigma_construction_sanity():
    # adding a traceless nonzero block to the unmeasured corner of a rank-1
    # state always introduces a negative eigenvalue
    gen = np.random.default_rng(70)
    d = 5
    for _ in range(50):
        c = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        c[0] += 2.0  # keep rho_00 away from zero
        c /= np.linalg.norm(c)
        rho = np.outer(c, c.conj())
        g = gen.standard_normal((d - 1, d - 1)) + 1j * gen.standard_normal((d - 1, d - 1))
        v = (g + g.conj().T) / 2
        v -= np.trace(v) / (d - 1) * np.eye(d - 1)
        sigma = rho.copy()
        sigma[1:, 1:] += v
        assert inertia(sigma, 1e-10).n_minus >= 1


def test_falsify_four_bases_only():
    bs = build_goyeneche_bases(4, 1)
    four = bases_to_povm(BasisSet(4, bs.bases[1:]))
    report = falsify_strictness(four, 1, trials=2000, rng=RandomStream(80))
    assert report.falsified
    assert report.kernel_dim == 5
    assert report.witness is not None
    rho, sigma = report.witness
    assert numerical_rank(sigma) > 1
    assert np.linalg.eigvalsh(sigma.mat)[0] > 0
    assert np.abs(measurement_values(four, sigma) - measurement_values(four, rho)).max() < 1e-8


def test_falsify_flammia_negative():
    povm = build_flammia_rankr(4, 1)
    report = falsify_strictness(povm, 1, trials=2000, rng=RandomStream(81))
    assert not report.falsified
    assert report.witness is None and report.kernel_violation is None


def test_falsify_trivial_for_informationally_complete():
    zb = np.eye(2, dtype=complex)
    xb = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    yb = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
    povm = bases_to_povm(BasisSet(2, (zb, xb, yb)))
    report = falsify_strictness(povm, 1, trials=10, rng=RandomStream(82))
    assert not report.falsified
    assert report.kernel_dim == 0
