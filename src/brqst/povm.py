"""Measurement families and the measurement map.

Builds the rank-r diagonal-probing POVM family, the 4r+1 paired-basis family
(for power-of-two dimensions), Haar-random global bases, and tensor-product
local bases; applies and validates measurements; computes the kernel of the
measurement map over the real space of Hermitian matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np

from .linalg import (
    HermitianMatrix,
    as_hermitian_array,
    hermitianize,
    hunvec,
    hvec_stack,
    random_haar_unitary,
)
from .rng import RandomStream

MeasurementKind = Literal["ideal_probabilities", "empirical_frequencies"]


@dataclass(frozen=True)
class MeasurementVector:
    """Outcome probabilities or empirical frequencies, one entry per POVM element."""

    values: np.ndarray
    kind: MeasurementKind
    total_shots: int | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("values must be a one-dimensional real vector")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        if v.min(initial=0.0) < -1e-12:
            raise ValueError(f"negative entry {v.min():.3e} in measurement vector")
        if self.kind not in ("ideal_probabilities", "empirical_frequencies"):
            raise ValueError(f"unknown kind {self.kind!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Povm:
    """Ordered POVM elements with provenance metadata.

    Construction only guarantees each element is Hermitian; use
    :func:`validate_povm` to check positivity and the identity sum.
    ``provenance`` records which construction produced the POVM plus any
    parameters needed to invert it (e.g. probe weights, basis grouping).
    """

    dim: int
    elements: tuple[HermitianMatrix, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        els = tuple(
            e if isinstance(e, HermitianMatrix) else HermitianMatrix(np.asarray(e))
            for e in self.elements
        )
        if not els:
            raise ValueError("a POVM needs at least one element")
        for e in els:
            if e.dim != self.dim:
                raise ValueError("element dimension does not match POVM dimension")
        object.__setattr__(self, "elements", els)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def stack(self) -> np.ndarray:
        """Elements as one read-only (m, d, d) array."""
        s = np.stack([e.mat for e in self.elements])
        s.setflags(write=False)
        return s

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """Real (m, d^2) matrix of the measurement map over the Hermitian basis."""
        s = hvec_stack(self.stack)
        s.setflags(write=False)
        return s

    @cached_property
    def norm_sq_bound(self) -> float:
        """||S||^2 of the coefficient matrix S, from 40 power iterations on S^T S, plus 5%.

        Its reciprocal is the first step size of the estimators' gradient
        core.  The constant start vector is a Hermitian matrix in the
        coordinates of S.  Computed once per POVM.
        """
        s = self.coefficient_matrix
        n = s.shape[1]
        v = np.full(n, 1.0 / math.sqrt(n))
        lam = 1.0
        for _ in range(40):
            w = s.T @ (s @ v)
            lam = np.linalg.norm(w)
            if lam <= 0:
                return 1.0
            v = w / lam
        return float(lam) * 1.05

    def basis_grouping(self) -> list[tuple[int, int]]:
        """Element index ranges that each form one orthonormal basis (may be empty)."""
        return [tuple(g) for g in self.provenance.get("basis_grouping", [])]


@dataclass(frozen=True)
class BasisSet:
    """A list of orthonormal bases, each stored as a unitary (columns are states)."""

    dim: int
    bases: tuple[np.ndarray, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        frozen = []
        for u in self.bases:
            u = np.array(u, dtype=np.complex128)
            if u.shape != (self.dim, self.dim):
                raise ValueError("each basis must be a dim x dim matrix")
            defect = np.abs(u.conj().T @ u - np.eye(self.dim)).max()
            if defect > 1e-12:
                raise ValueError(f"basis is not unitary (defect {defect:.3e})")
            u.setflags(write=False)
            frozen.append(u)
        if not frozen:
            raise ValueError("a basis set needs at least one basis")
        object.__setattr__(self, "bases", tuple(frozen))

    def __len__(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class PovmValidation:
    is_valid: bool
    min_eigenvalue: float
    identity_residual: float


def measurement_values(povm: Povm, x) -> np.ndarray:
    """Raw linear-map values Tr(E_mu X) as a real vector (no positivity check)."""
    m = as_hermitian_array(x)
    if m.shape[0] != povm.dim:
        raise ValueError(f"dimension mismatch: POVM dim {povm.dim}, matrix dim {m.shape[0]}")
    vals = np.einsum("mij,ji->m", povm.stack, m)
    resid = float(np.abs(vals.imag).max(initial=0.0))
    if resid > 1e-10:
        raise ValueError(f"imaginary residual {resid:.3e} in measurement values")
    return vals.real.copy()


def apply_measurement_map(povm: Povm, x) -> MeasurementVector:
    """Ideal measurement vector p_mu = Tr(E_mu X)."""
    vals = measurement_values(povm, x)
    return MeasurementVector(np.maximum(vals, 0.0) if vals.min() > -1e-12 else vals,
                             kind="ideal_probabilities")


def validate_povm(povm: Povm, tol: float = 1e-8) -> PovmValidation:
    """Check positivity of every element and that the elements sum to identity."""
    min_eig = min(float(np.linalg.eigvalsh(e.mat)[0]) for e in povm.elements)
    resid = float(np.abs(povm.stack.sum(axis=0) - np.eye(povm.dim)).max())
    return PovmValidation(min_eig >= -tol and resid <= tol, min_eig, resid)


def split_by_basis(mv: MeasurementVector, povm: Povm) -> list[np.ndarray]:
    """Per-basis probability vectors, undoing the 1/b weighting of a basis union."""
    groups = povm.basis_grouping()
    if not groups:
        raise ValueError("POVM provenance carries no basis grouping")
    b = len(groups)
    return [mv.values[lo:hi] * b for lo, hi in groups]


# ---------------------------------------------------------------------------
# Diagonal-probing family (rank-r, single POVM and sequential variant)
# ---------------------------------------------------------------------------

def _flammia_parts(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-coefficient probe operators for row k: returns (real stack, imag stack)."""
    eye = np.eye(d, dtype=np.complex128)
    real_parts = []
    imag_parts = []
    for n in range(k + 1, d):
        kn = np.zeros((d, d), dtype=np.complex128)
        kn[k, n] = 1.0
        real_parts.append(eye + kn + kn.conj().T)
        imag_parts.append(eye - 1j * kn + 1j * kn.conj().T)
    return np.array(real_parts), np.array(imag_parts)


def _largest_psd_weight(w: np.ndarray, d: int) -> float:
    """Largest b in (0, 1/(2d)] with I - b W positive semidefinite, by bisection."""
    hi = 1.0 / (2 * d)
    if np.linalg.eigvalsh(np.eye(d) - hi * w)[0] >= 0:
        return hi
    lo = 0.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if np.linalg.eigvalsh(np.eye(d) - mid * w)[0] >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def build_flammia_rankr(d: int, r: int) -> Povm:
    """Rank-r diagonal-probing POVM with (2d - r) r + 1 elements.

    Element order: the r weighted diagonal projectors, then all real-part
    probes (k ascending, n ascending), then all imaginary-part probes, then
    the residual element making the family sum to identity.  All probe
    weights are set equal to the largest value keeping the residual PSD.
    """
    if not 1 <= r < d:
        raise ValueError(f"rank r={r} must satisfy 1 <= r < d={d}")
    eye = np.eye(d, dtype=np.complex128)
    reals, imags = [], []
    w = np.zeros((d, d), dtype=np.complex128)
    for k in range(r):
        w[k, k] += 1.0
        re_k, im_k = _flammia_parts(d, k)
        reals.append(re_k)
        imags.append(im_k)
        w += re_k.sum(axis=0) + im_k.sum(axis=0)
    w = hermitianize(w)
    b = _largest_psd_weight(w, d)
    elements: list[np.ndarray] = [b * eye[k, None].T @ eye[k, None] for k in range(r)]
    for re_k in reals:
        elements.extend(b * re_k)
    for im_k in imags:
        elements.extend(b * im_k)
    elements.append(eye - b * w)
    provenance = {
        "construction": "flammia_rankr",
        "dim": d,
        "rank": r,
        "a": [b] * r,
        "b": [b] * r,
        "strictness": "inertia-argument",
    }
    return Povm(d, tuple(HermitianMatrix(hermitianize(e)) for e in elements), provenance)


def build_flammia_sequential(d: int, r: int) -> list[Povm]:
    """Sequential variant: r separate POVMs, the k-th with 2(d - k) elements."""
    if not 1 <= r < d:
        raise ValueError(f"rank r={r} must satisfy 1 <= r < d={d}")
    eye = np.eye(d, dtype=np.complex128)
    povms = []
    for k in range(r):
        re_k, im_k = _flammia_parts(d, k)
        w = np.zeros((d, d), dtype=np.complex128)
        w[k, k] = 1.0
        w += re_k.sum(axis=0) + im_k.sum(axis=0)
        w = hermitianize(w)
        b = _largest_psd_weight(w, d)
        proj = np.zeros((d, d), dtype=np.complex128)
        proj[k, k] = b
        els = [proj, *(b * re_k), *(b * im_k), eye - b * w]
        provenance = {
            "construction": "flammia_sequential",
            "dim": d,
            "rank": r,
            "k": k,
            "a": b,
            "b": b,
        }
        povms.append(Povm(d, tuple(HermitianMatrix(hermitianize(e)) for e in els), provenance))
    return povms


def flammia_probe_index(d: int, r: int, k: int, n: int, imag: bool) -> int:
    """Flat element index of the (k, n) probe in :func:`build_flammia_rankr` order."""
    per_k = [d - 1 - kk for kk in range(r)]
    base = r + (sum(per_k) if imag else 0)
    return base + sum(per_k[:k]) + (n - k - 1)


# ---------------------------------------------------------------------------
# Paired-basis family (4r + 1 bases, power-of-two dimensions)
# ---------------------------------------------------------------------------

def _is_power_of_two(d: int) -> bool:
    return d >= 1 and (d & (d - 1)) == 0


def goyeneche_pair_layout(d: int, r: int) -> list[dict]:
    """Pair structure of the 4r non-computational bases.

    For each k in 1..r the d ordered pairs (m, (m+k) mod d) are split into two
    interleaved halves by blocks of length 2^Z (Z the 2-adic valuation of k);
    each half yields one x-type and one y-type basis.  Returns one descriptor
    per basis in emission order: for each k, x-half1, x-half2, y-half1,
    y-half2.
    """
    layout = []
    for k in range(1, r + 1):
        pairs = [(m, (m + k) % d) for m in range(d)]
        ell = k & (-k)
        halves: tuple[list, list] = ([], [])
        for block_start in range(0, d, ell):
            which = (block_start // ell) % 2
            halves[which].extend(pairs[block_start : block_start + ell])
        for half in halves:
            touched = sorted(i for pair in half for i in pair)
            if touched != list(range(d)):
                raise ValueError(f"pair grouping for k={k} does not partition the basis")
        for kind in ("x", "y"):
            for j, half in enumerate(halves):
                layout.append({"k": k, "kind": kind, "half": j + 1, "pairs": list(half)})
    return layout


def _paired_basis(d: int, pairs: list[tuple[int, int]], kind: str) -> np.ndarray:
    u = np.zeros((d, d), dtype=np.complex128)
    s = 1.0 / np.sqrt(2.0)
    phase = 1.0 if kind == "x" else 1.0j
    for t, (m, n) in enumerate(pairs):
        u[m, 2 * t] = s
        u[n, 2 * t] = s * phase
        u[m, 2 * t + 1] = s
        u[n, 2 * t + 1] = -s * phase
    return u


def build_goyeneche_bases(d: int, r: int) -> BasisSet:
    """4r + 1 orthonormal bases probing the principal and first r diagonals.

    Basis 0 is the computational basis; for each k in 1..r four paired bases
    follow (x-type then y-type, two interleaved halves each).  Requires d a
    power of two and 1 <= r <= d/2.
    """
    if not _is_power_of_two(d):
        raise ValueError(f"dimension {d} is not a power of two")
    if not 1 <= r <= d // 2:
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= d/2 = {d // 2}")
    bases = [np.eye(d, dtype=np.complex128)]
    for entry in goyeneche_pair_layout(d, r):
        bases.append(_paired_basis(d, entry["pairs"], entry["kind"]))
    provenance = {
        "construction": "goyeneche",
        "dim": d,
        "rank": r,
        "strictness": "proposition1",
    }
    return BasisSet(d, tuple(bases), provenance)


# ---------------------------------------------------------------------------
# Random bases
# ---------------------------------------------------------------------------

def build_random_bases(d: int, b: int, rng: RandomStream) -> BasisSet:
    """b independent Haar-random orthonormal bases on a d-dimensional system."""
    if b < 1:
        raise ValueError("need at least one basis")
    gen = rng.generator()
    bases = tuple(random_haar_unitary(d, gen) for _ in range(b))
    return BasisSet(d, bases, {"construction": "haar_global", "dim": d, "n_bases": b})


def build_local_random_bases(n_qubits: int, b: int, rng: RandomStream) -> BasisSet:
    """b local Haar-random bases on n qubits: each a tensor product of 2 x 2 unitaries."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if b < 1:
        raise ValueError("need at least one basis")
    gen = rng.generator()
    d = 2**n_qubits
    bases = []
    for _ in range(b):
        u = random_haar_unitary(2, gen)
        for _ in range(n_qubits - 1):
            u = np.kron(u, random_haar_unitary(2, gen))
        bases.append(u)
    prov = {"construction": "haar_local_qubits", "dim": d, "n_qubits": n_qubits, "n_bases": b}
    return BasisSet(d, tuple(bases), prov)


def bases_to_povm(bs: BasisSet) -> Povm:
    """Single POVM from a basis set: element (i, k) is |i-th basis, column k>< | / b.

    The uniform 1/b weighting makes the union a valid POVM; the original
    per-basis probability vectors are recoverable through the basis grouping
    recorded in provenance (see :func:`split_by_basis`).
    """
    b = len(bs.bases)
    d = bs.dim
    elements = []
    for u in bs.bases:
        proj = u.T[:, :, None] * u.conj().T[:, None, :]
        elements.extend(HermitianMatrix(hermitianize(p / b)) for p in proj)
    provenance = {
        "construction": "basis_union",
        "n_bases": b,
        "basis_grouping": [[i * d, (i + 1) * d] for i in range(b)],
        "bases": dict(bs.provenance),
    }
    return Povm(d, tuple(elements), provenance)


# ---------------------------------------------------------------------------
# Kernel of the measurement map
# ---------------------------------------------------------------------------

def kernel_basis(povm: Povm, tol: float = 1e-8) -> list[HermitianMatrix]:
    """Orthonormal (Hilbert-Schmidt) basis of {X Hermitian : Tr(E_mu X) = 0 for all mu}.

    Computed over the real d^2-dimensional parametrization of Hermitian
    matrices; directions with singular value below 1e-10 times the largest
    are taken as null.  Every returned element is traceless to ``tol``.
    """
    s = povm.coefficient_matrix
    _, sv, vt = np.linalg.svd(s, full_matrices=True)
    cut = 1e-10 * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > cut))
    out = []
    for row in vt[rank:]:
        k = HermitianMatrix(hermitianize(hunvec(row, povm.dim)))
        vals = measurement_values(povm, k)
        if np.abs(vals).max(initial=0.0) > tol or abs(np.trace(k.mat).real) > tol:
            raise ArithmeticError("null-space vector fails the kernel residual check")
        out.append(k)
    return out
