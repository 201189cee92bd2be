"""Dense complex Hermitian linear algebra.

Eigendecompositions, inertia and numerical rank, Schur complements, cone and
simplex projections, fidelities, and seeded Haar / Hilbert-Schmidt sampling.
All functions accept either a :class:`HermitianMatrix` or a plain ndarray that
is Hermitian to within ``HERMITICITY_ATOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import FailureSetError
from .rng import RandomStream

# Absolute Hermiticity defect allowed at construction.
HERMITICITY_ATOL = 1e-12
# Default relative eigenvalue cutoff for zero classification.
DEFAULT_ZERO_TOL = 1e-10

_RT2 = np.sqrt(2.0)


class Inertia(NamedTuple):
    """Counts of negative, zero, and positive eigenvalues."""

    n_minus: int
    n_zero: int
    n_plus: int


@dataclass(frozen=True)
class HermitianMatrix:
    """Immutable dense d x d complex Hermitian matrix.

    Construction verifies Hermiticity to ``HERMITICITY_ATOL`` (absolute) and
    freezes the underlying buffer, so values are safe to share across tasks.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        defect = np.abs(m - m.conj().T).max()
        if defect > HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        m = (m + m.conj().T) / 2
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)

    @staticmethod
    def identity(d: int) -> "HermitianMatrix":
        return HermitianMatrix(np.eye(d, dtype=np.complex128))


def as_hermitian_array(h) -> np.ndarray:
    """Coerce ``h`` (HermitianMatrix or array) to a validated complex ndarray."""
    if isinstance(h, HermitianMatrix):
        return h.mat
    return HermitianMatrix(np.asarray(h)).mat


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2."""
    return (a + a.conj().T) / 2


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = V diag(w) V^dagger with ascending eigenvalues."""
    m = as_hermitian_array(h)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed to converge on a {m.shape[0]} x {m.shape[0]} Hermitian matrix"
        ) from exc
    return w, v


def inertia(h, tol: float = DEFAULT_ZERO_TOL) -> Inertia:
    """Eigenvalue sign counts; |w| <= tol * max(1, |w|_max) counts as zero."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    w, _ = eig_hermitian(h)
    cut = tol * max(1.0, float(np.abs(w).max(initial=0.0)))
    n_minus = int(np.sum(w < -cut))
    n_plus = int(np.sum(w > cut))
    return Inertia(n_minus, w.size - n_minus - n_plus, n_plus)


def numerical_rank(h, tol: float = DEFAULT_ZERO_TOL) -> int:
    """Number of eigenvalues classified nonzero by :func:`inertia`."""
    ine = inertia(h, tol)
    return ine.n_minus + ine.n_plus


def schur_complement(m, r: int, tol: float = DEFAULT_ZERO_TOL) -> HermitianMatrix:
    """Schur complement M/A = C - B A^{-1} B^dagger w.r.t. the leading r x r block.

    Callers needing a different block reorder with a symmetric permutation
    first.  Raises :class:`FailureSetError` when A is numerically singular.
    """
    mm = as_hermitian_array(m)
    d = mm.shape[0]
    if not 1 <= r < d:
        raise ValueError(f"block size r={r} must satisfy 1 <= r < dim={d}")
    a = mm[:r, :r]
    if numerical_rank(a, tol) < r:
        raise FailureSetError(
            f"leading {r} x {r} block is numerically singular; Schur complement undefined"
        )
    b = mm[r:, :r]
    c = mm[r:, r:]
    comp = c - b @ np.linalg.solve(a, b.conj().T)
    return HermitianMatrix(hermitianize(comp))


def _mat(x: np.ndarray, d: int) -> np.ndarray:
    """The d x d complex matrix whose real view is ``x`` (no copy)."""
    return x.view(np.complex128).reshape(d, d)


def _vec(m: np.ndarray) -> np.ndarray:
    """Real view of a complex matrix, length 2 d^2 (no copy when C-contiguous)."""
    return m.reshape(-1).view(np.float64)


def _project_psd(d: int, cap: float | None = None):
    """Projection onto {X >= 0}, or onto {X >= 0, Tr X <= cap} given a cap.

    Acts on real views (see :func:`_vec`).  The eigenvalues are clipped at
    zero; under a cap, if their sum still exceeds it they are projected onto
    the simplex of total ``cap`` instead.  The uncapped projection skips the
    rebuild of a PSD input; least squares runs it hundreds of times a call,
    so it carries no trace test.
    """
    def proj(x: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(_mat(x, d))
        if w[0] >= 0.0:
            return x
        w = np.maximum(w, 0.0)
        return _vec((v * w) @ v.conj().T)

    def proj_capped(x: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(_mat(x, d))
        w = np.maximum(w, 0.0)
        if w.sum() > cap:
            w = project_simplex(w, cap)
        return _vec((v * w) @ v.conj().T)

    return proj if cap is None else proj_capped


def project_psd(h) -> HermitianMatrix:
    """Nearest (Frobenius) positive semidefinite matrix: clip eigenvalues at 0."""
    m = as_hermitian_array(h)
    d = m.shape[0]
    return HermitianMatrix(hermitianize(_mat(_project_psd(d)(_vec(m)), d)))


def project_simplex(w: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Euclidean projection of a real vector onto the simplex {w >= 0, sum w = total}."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, w.size + 1)
    valid = u - css / ks > 0
    k = int(ks[valid][-1])
    theta = css[k - 1] / k
    return np.maximum(w - theta, 0.0)


def _project_density(d: int):
    """Projection of real views onto the density matrices {X >= 0, Tr X = 1}."""
    def proj(x: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(_mat(x, d))
        w = project_simplex(w)
        return _vec((v * w) @ v.conj().T)

    return proj


def project_density(h) -> HermitianMatrix:
    """Nearest (Frobenius) trace-one PSD matrix via eigenvalue simplex projection."""
    m = as_hermitian_array(h)
    d = m.shape[0]
    return HermitianMatrix(hermitianize(_mat(_project_density(d)(_vec(m)), d)))


def fidelity_pure(psi: np.ndarray, rho) -> float:
    """Overlap <psi|rho|psi> of a unit vector with a density matrix."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"psi is not normalized (|psi| = {norm!r})")
    m = as_hermitian_array(rho)
    if m.shape[0] != psi.size:
        raise ValueError("dimension mismatch between psi and rho")
    w = np.linalg.eigvalsh(m)
    if w[0] < -1e-8 or abs(np.trace(m).real - 1.0) > 1e-8:
        raise ValueError("rho is not a density matrix (PSD, trace one) at 1e-8")
    val = float(np.real(psi.conj() @ m @ psi))
    return min(max(val, 0.0), 1.0)


def sqrtm_psd(h) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (eigenvalues clipped at 0)."""
    w, v = eig_hermitian(h)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped to [0, 1]."""
    a = as_hermitian_array(rho)
    b = as_hermitian_array(sigma)
    sq = sqrtm_psd(a)
    w = np.linalg.eigvalsh(hermitianize(sq @ b @ sq))
    val = float(np.sum(np.sqrt(np.maximum(w, 0.0))) ** 2)
    return min(max(val, 0.0), 1.0)


def infidelity(target, estimate) -> float:
    """1 - fidelity, with the cheap pure-state overlap when the target is rank one."""
    t = as_hermitian_array(target)
    w, v = np.linalg.eigh(t)
    if np.sum(w > 1e-12 * max(1.0, w[-1])) == 1:
        return 1.0 - fidelity_pure(v[:, -1], estimate)
    return 1.0 - fidelity(t, estimate)


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

def _haar_from_generator(d: int, gen: np.random.Generator) -> np.ndarray:
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / _RT2
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_haar_unitary(d: int, rng: RandomStream | np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary (Ginibre draw, QR, R-diagonal phase fix)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    gen = rng.generator() if isinstance(rng, RandomStream) else rng
    return _haar_from_generator(d, gen)


def random_pure_state(d: int, rng: RandomStream | np.random.Generator) -> np.ndarray:
    """Haar-random unit vector (first column of a Haar unitary)."""
    return random_haar_unitary(d, rng)[:, 0]


def random_mixed_hs(d: int, rng: RandomStream | np.random.Generator) -> HermitianMatrix:
    """Full-rank density matrix from the Hilbert-Schmidt measure: GG^dagger normalized."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    gen = rng.generator() if isinstance(rng, RandomStream) else rng
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    w = g @ g.conj().T
    return HermitianMatrix(hermitianize(w / np.trace(w).real))


def random_rank_r_state(d: int, r: int, rng: RandomStream | np.random.Generator) -> HermitianMatrix:
    """Random rank-r density matrix with a generic spectrum.

    Takes the first r columns of a Haar unitary, weights them with i.i.d.
    uniform(0.2, 1) factors so the spectrum is bounded away from degeneracy,
    and normalizes the Gram matrix to unit trace.  For r = 1 this is exactly a
    Haar-random pure state.
    """
    if not 1 <= r <= d:
        raise ValueError(f"rank r={r} must satisfy 1 <= r <= d={d}")
    gen = rng.generator() if isinstance(rng, RandomStream) else rng
    u = _haar_from_generator(d, gen)
    w = gen.uniform(0.2, 1.0, r)
    g = u[:, :r] * w
    rho = g @ g.conj().T
    return HermitianMatrix(hermitianize(rho / np.trace(rho).real))


# ---------------------------------------------------------------------------
# Real parametrization of the Hermitian matrix space
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(d, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def hvec(x: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian matrix in the orthonormal real operator basis.

    Layout: d diagonal entries, then sqrt(2) * Re of the upper triangle, then
    sqrt(2) * Im of the upper triangle (row-major triangle order).  This is an
    isometry: ||hvec(X)||_2 = ||X||_F.
    """
    d = x.shape[0]
    iu, ju = _triu(d)
    out = np.empty(d * d)
    out[:d] = np.real(np.diagonal(x))
    off = x[iu, ju]
    n = iu.size
    out[d : d + n] = _RT2 * off.real
    out[d + n :] = _RT2 * off.imag
    return out


def hunvec(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hvec`."""
    iu, ju = _triu(d)
    x = np.zeros((d, d), dtype=np.complex128)
    idx = np.arange(d)
    x[idx, idx] = coeffs[:d]
    n = iu.size
    off = (coeffs[d : d + n] + 1j * coeffs[d + n :]) / _RT2
    x[iu, ju] = off
    x[ju, iu] = off.conj()
    return x


def hvec_stack(mats: np.ndarray) -> np.ndarray:
    """Apply :func:`hvec` to a stack of matrices, shape (m, d, d) -> (m, d*d)."""
    m, d, _ = mats.shape
    iu, ju = _triu(d)
    out = np.empty((m, d * d))
    out[:, :d] = np.real(np.diagonal(mats, axis1=1, axis2=2))
    off = mats[:, iu, ju]
    n = iu.size
    out[:, d : d + n] = _RT2 * off.real
    out[:, d + n :] = _RT2 * off.imag
    return out
