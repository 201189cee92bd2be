"""Density-matrix completion for element-probing measurements.

The probe families determine a subset of matrix entries directly; a rank-r
state is then recovered by solving C = B A^{-1} B^dagger on a sweep of
principal submatrices.  This module extracts measured entries from
measurement vectors, builds and executes submatrix plans, detects
failure-set membership, and runs strictness diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FailureSetError
from .linalg import HermitianMatrix, hermitianize, random_rank_r_state
from .povm import (
    BasisSet,
    MeasurementVector,
    Povm,
    flammia_probe_index,
    goyeneche_pair_layout,
    kernel_basis,
)
from .rng import RandomStream

_NAN = complex(np.nan, np.nan)


@dataclass(frozen=True)
class PartialMatrix:
    """A d x d complex grid with a Hermitian-symmetric measured mask.

    Unmeasured entries hold NaN and must never be read; measured entries are
    Hermitian-consistent (value[i, j] = conj(value[j, i])).
    """

    dim: int
    values: np.ndarray
    measured: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128)
        m = np.array(self.measured, dtype=bool)
        if v.shape != (self.dim, self.dim) or m.shape != (self.dim, self.dim):
            raise ValueError("values and mask must both be dim x dim")
        if not np.array_equal(m, m.T):
            raise ValueError("measured mask must be Hermitian-symmetric")
        defect = np.abs(np.where(m, v - v.conj().T, 0.0)).max(initial=0.0)
        if defect > 1e-10:
            raise ValueError(f"measured values are not Hermitian (defect {defect:.3e})")
        v[~m] = _NAN
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "measured", m)


@dataclass(frozen=True)
class PlanMember:
    """Principal submatrix with a designated r-subset for the A block."""

    indices: tuple[int, ...]
    a_indices: tuple[int, ...]


@dataclass(frozen=True)
class SubmatrixPlan:
    """Ordered submatrix sweep plus an alternate family used on failure."""

    members: tuple[PlanMember, ...]
    alternates: tuple[PlanMember, ...] = field(default=())


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def measured_mask(construction: str, d: int, r: int) -> np.ndarray:
    """The d x d entries a rank-r probe family measures directly.

    The diagonal-probing family (``"flammia_rankr"``) measures the first r
    rows and columns; the paired-basis family (``"goyeneche"``) the
    principal diagonal and the pairs of its layout, the first r diagonals.
    """
    mask = np.zeros((d, d), dtype=bool)
    if construction == "flammia_rankr":
        mask[:r, :] = True
        mask[:, :r] = True
    elif construction == "goyeneche":
        np.fill_diagonal(mask, True)
        for entry in goyeneche_pair_layout(d, r):
            for m, n in entry["pairs"]:
                mask[m, n] = mask[n, m] = True
    else:
        raise ValueError(f"no measured mask for construction {construction!r}")
    return mask


def extract_flammia(povm: Povm, p: MeasurementVector) -> PartialMatrix:
    """Measured entries (first r rows and columns) from a diagonal-probing record.

    Inverts p_k = a_k rho_kk and the probe relations
    p_{k,n} = b_k (tr + 2 Re rho_nk), with the trace read off the sum rule
    tr = sum_mu p_mu.  Works for ideal probabilities and for empirical
    frequencies alike.
    """
    prov = povm.provenance
    if prov.get("construction") != "flammia_rankr":
        raise ValueError("POVM provenance is not the rank-r diagonal-probing construction")
    d, r = prov["dim"], prov["rank"]
    a_k, b_k = prov["a"], prov["b"]
    vals = p.values
    if vals.size != len(povm):
        raise ValueError("measurement vector length does not match the POVM")
    tr = float(vals.sum())
    grid = np.full((d, d), _NAN, dtype=np.complex128)
    for k in range(r):
        grid[k, k] = vals[k] / a_k[k]
    for k in range(r):
        for n in range(k + 1, d):
            re = (vals[flammia_probe_index(d, r, k, n, imag=False)] / b_k[k] - tr) / 2
            im = (vals[flammia_probe_index(d, r, k, n, imag=True)] / b_k[k] - tr) / 2
            grid[n, k] = re + 1j * im
            grid[k, n] = re - 1j * im
    return PartialMatrix(d, grid, measured_mask("flammia_rankr", d, r))


def extract_goyeneche(bs: BasisSet, per_basis_probs: list[np.ndarray]) -> PartialMatrix:
    """Measured diagonals (principal plus the probed off-diagonals) from basis data.

    ``per_basis_probs`` must hold, in basis order, one probability (or
    frequency) vector per basis; each vector is normalized over its d
    outcomes.  An x/y pair of bases determines Re and Im of each probed
    entry through the differences of the paired outcome values.
    """
    prov = bs.provenance
    if prov.get("construction") != "goyeneche":
        raise ValueError("basis set provenance is not the paired-basis construction")
    d, r = prov["dim"], prov["rank"]
    if len(per_basis_probs) != 4 * r + 1:
        raise ValueError(f"expected {4 * r + 1} probability vectors, got {len(per_basis_probs)}")
    probs = [np.asarray(v, dtype=float).reshape(-1) for v in per_basis_probs]
    if any(v.size != d for v in probs):
        raise ValueError("each per-basis vector must have one entry per outcome")
    grid = np.full((d, d), _NAN, dtype=np.complex128)
    np.fill_diagonal(grid, probs[0].astype(np.complex128))
    layout = goyeneche_pair_layout(d, r)
    for k in range(1, r + 1):
        base = 1 + 4 * (k - 1)
        for half in (0, 1):
            x_probs = probs[base + half]
            y_probs = probs[base + 2 + half]
            pairs = layout[4 * (k - 1) + half]["pairs"]
            for t, (m, n) in enumerate(pairs):
                re = (x_probs[2 * t] - x_probs[2 * t + 1]) / 2
                im = -(y_probs[2 * t] - y_probs[2 * t + 1]) / 2
                grid[m, n] = re + 1j * im
                grid[n, m] = re - 1j * im
    return PartialMatrix(d, grid, measured_mask("goyeneche", d, r))


# ---------------------------------------------------------------------------
# Plans and completion
# ---------------------------------------------------------------------------

def default_plan(kind: str, d: int, r: int) -> SubmatrixPlan:
    """Standard completion plan for a probe family.

    For the diagonal-probing family the whole matrix is one member with the
    leading r x r block as A.  For the paired-basis family the plan sweeps
    contiguous index runs of growing length: run size r+2 reconstructs the
    (r+1)st diagonal, and so on; wrap-around runs form the alternate family
    that rescues isolated singular blocks.
    """
    if kind == "flammia":
        if not 1 <= r < d:
            raise ValueError(f"rank r={r} must satisfy 1 <= r < d={d}")
        member = PlanMember(tuple(range(d)), tuple(range(r)))
        return SubmatrixPlan((member,))
    if kind != "goyeneche":
        raise ValueError(f"unknown plan kind {kind!r}")
    if not 1 <= r <= d // 2:
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= d/2 = {d // 2}")
    members: list[PlanMember] = []
    alternates: list[PlanMember] = []
    for delta in range(r + 1, d - r):
        for i in range(d):
            run = tuple((i + off) % d for off in range(delta + 1))
            a_block = tuple((i + 1 + off) % d for off in range(r))
            target = members if i <= d - delta else alternates
            target.append(PlanMember(run, a_block))
    return SubmatrixPlan(tuple(members), tuple(alternates))


def _solve_member(work: np.ndarray, known: np.ndarray, member: PlanMember,
                  r: int, tol: float) -> tuple[bool, bool]:
    """Attempt one plan member in place; returns (progressed, failed_singular)."""
    idx = member.indices
    a_idx = list(member.a_indices)
    targets = [
        (i, j)
        for ii, i in enumerate(idx)
        for j in idx[ii:]
        if not known[i, j]
    ]
    if not targets:
        return False, False
    if not all(known[i, j] for i in a_idx for j in a_idx):
        return False, False
    ready = [
        (i, j)
        for (i, j) in targets
        if all(known[i, a] and known[a, j] for a in a_idx)
    ]
    if not ready:
        return False, False
    a_block = work[np.ix_(a_idx, a_idx)]
    sv = np.linalg.svd(a_block, compute_uv=False)
    # the entries of a state are at most 1 in modulus: a block of round-off
    # against that is singular however well it is conditioned
    if sv.size < r or sv[-1] <= tol * max(sv[0], 1.0):
        return False, True
    a_inv = np.linalg.inv(a_block)
    progressed = False
    for i, j in ready:
        value = work[i, a_idx] @ a_inv @ work[a_idx, j]
        work[i, j] = value
        work[j, i] = np.conj(value)
        known[i, j] = known[j, i] = True
        progressed = True
    return progressed, False


def complete_rankr(partial: PartialMatrix, r: int, plan: SubmatrixPlan,
                   tol: float = 1e-8) -> HermitianMatrix:
    """Fill the unmeasured entries of a rank-r state by the Schur rank condition.

    Executes the plan in order, permuting each member so its measured A block
    leads, and writes C = B A^{-1} B^dagger entries back.  Alternate members
    are consulted when a designated A block is numerically singular: its
    smallest singular value is below ``tol`` times its largest, or below
    ``tol`` itself.  Raises
    :class:`FailureSetError` when unmeasured entries remain unrecoverable.
    """
    d = partial.dim
    work = np.array(partial.values, dtype=np.complex128)
    known = np.array(partial.measured, dtype=bool)
    # empirical records may leave tiny asymmetries; average with the adjoint
    both = known & known.T
    sym = (work + work.conj().T) / 2
    work[both] = sym[both]
    failed_members: list[int] = []
    all_members = list(plan.members) + list(plan.alternates)
    progressed = True
    while progressed and not known.all():
        progressed = False
        for mi, member in enumerate(all_members):
            did, singular = _solve_member(work, known, member, r, tol)
            if singular and mi not in failed_members:
                failed_members.append(mi)
            progressed = progressed or did
    if not known.all():
        if failed_members:
            first = failed_members[0]
            raise FailureSetError(
                f"completion failed: singular A block in plan member {first} "
                f"(indices {all_members[first].indices}) and no alternate covered its entries",
                member_index=first,
            )
        raise ValueError("plan does not cover all unmeasured entries")
    return HermitianMatrix(hermitianize(work))


def check_proposition1(partial_mask: np.ndarray, rank_complete: bool) -> bool:
    """Sufficient strictness test: rank completeness plus a fully measured diagonal."""
    mask = np.asarray(partial_mask, dtype=bool)
    return bool(rank_complete and np.diagonal(mask).all())


# ---------------------------------------------------------------------------
# Randomized strictness falsification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrictnessReport:
    falsified: bool
    witness: tuple[HermitianMatrix, HermitianMatrix] | None
    kernel_violation: HermitianMatrix | None
    kernel_dim: int
    trials_run: int


def _inertia_probe(kmats: np.ndarray, coeffs: np.ndarray, r: int,
                   tol: float = 1e-8) -> np.ndarray | None:
    """Return a kernel combination violating min(n-, n+) >= r + 1, if any."""
    combos = np.tensordot(coeffs, kmats, axes=(1, 0))
    norms = np.sqrt(np.sum(np.abs(combos) ** 2, axis=(1, 2)))
    ok = norms > 1e-12
    combos = combos[ok] / norms[ok, None, None]
    if combos.size == 0:
        return None
    w = np.linalg.eigvalsh(combos)
    cut = tol * np.maximum(1.0, np.abs(w).max(axis=1))
    n_minus = (w < -cut[:, None]).sum(axis=1)
    n_plus = (w > cut[:, None]).sum(axis=1)
    n_zero = w.shape[1] - n_minus - n_plus
    # draws with eigenvalues in the dead zone are inconclusive; skip them
    conclusive = n_zero == 0
    bad = conclusive & (np.minimum(n_minus, n_plus) <= r)
    if bad.any():
        return combos[int(np.argmax(bad))]
    return None


def _witness_ascent(rho: np.ndarray, kmats: np.ndarray, iters: int = 1500,
                    step: float = 0.5) -> tuple[float, np.ndarray]:
    """Projected subgradient ascent on c -> lambda_min(rho + sum c_i K_i)."""
    nk = kmats.shape[0]
    c = np.zeros(nk)
    best_val = -np.inf
    best_c = c.copy()
    for it in range(iters):
        sigma = rho + np.tensordot(c, kmats, axes=(0, 0))
        w, v = np.linalg.eigh(sigma)
        if w[0] > best_val:
            best_val = w[0]
            best_c = c.copy()
        vmin = v[:, 0]
        grad = np.real(np.einsum("i,kij,j->k", vmin.conj(), kmats, vmin))
        c = c + step / np.sqrt(it + 1.0) * grad
    return best_val, best_c


def falsify_strictness(povm: Povm, r: int, trials: int,
                       rng: RandomStream) -> StrictnessReport:
    """Randomized search for evidence that a POVM is not rank-r strictly-complete.

    Two attacks are run: (i) random kernel combinations are tested against the
    eigenvalue-count condition min(n-, n+) >= r + 1 that strict completeness
    imposes on every nonzero kernel element; (ii) for random rank-r states a
    PSD matrix sigma = rho + K with K in the kernel is sought by maximizing
    the smallest eigenvalue.  Either finding falsifies; finding nothing is
    evidence, not proof.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    kernel = kernel_basis(povm, tol=1e-8)
    if not kernel:
        return StrictnessReport(False, None, None, 0, 0)
    kmats = np.stack([k.mat for k in kernel])
    nk, d = kmats.shape[0], povm.dim
    gen = rng.generator()

    violation = None
    run = 0
    batch = min(trials, nk)
    coeffs = np.eye(nk)[:batch]
    violation = _inertia_probe(kmats, coeffs, r)
    run += batch
    while violation is None and run < trials:
        batch = min(trials - run, 2048)
        coeffs = gen.standard_normal((batch, nk))
        violation = _inertia_probe(kmats, coeffs, r)
        run += batch

    witness = None
    restarts = 16
    for _ in range(restarts):
        rho = random_rank_r_state(d, r, gen).mat
        best_val, best_c = _witness_ascent(rho, kmats)
        if best_val > 1e-8:
            sigma = hermitianize(rho + np.tensordot(best_c, kmats, axes=(0, 0)))
            witness = (HermitianMatrix(rho), HermitianMatrix(sigma))
            break

    falsified = violation is not None or witness is not None
    kviol = HermitianMatrix(hermitianize(violation)) if violation is not None else None
    return StrictnessReport(falsified, witness, kviol, nk, run)
