"""Independent correctness checks, written with plain numpy.

Nothing here calls brqst: the checks recompute measurement maps from the
POVM element stack, fidelities and optimality conditions from their
definitions, and draw their own target states.  Each function returns a
problem description (a string) or None, so a run can report every failed
check instead of stopping at the first.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances.  Observed on working code (d = 8 Fig-2 cells, 300 LS calls):
# relative LS KKT eigenvalue >= -3.4e-7, relative ball excess <= 1.6e-7 (the
# estimators accept eps + 1e-9), trace gap < 0.
DENSITY_TOL = 1e-8
BALL_REL_TOL = 1e-6
KKT_REL_TOL = 1e-5
TRACE_GAP_REL_TOL = 1e-6
INFIDELITY_AGREE_TOL = 1e-9
COMPLETION_TOL = 1e-8
RECOVERY_THRESHOLD = 1e-5
SIGN_TEST_ALPHA = 0.01

# Table 1 of the paper: d = 11, rank 2, Haar-random global bases needs 7
# bases; the repository's acceptance criterion 1 accepts 7 +- 1.
TABLE1_RANGE = {(11, 2): (6, 8)}


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------

def measurement_map(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tr(E_mu X) for every element of the (m, d, d) stack."""
    return np.einsum("mij,ji->m", stack, x).real


def adjoint_map(stack: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_mu r_mu E_mu."""
    return np.einsum("m,mij->ij", r, stack)


def pure_infidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    return 1.0 - float(np.real(psi.conj() @ rho @ psi))


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, computed on the support of rho.

    With rho = V diag(w) V^dagger restricted to w > 0, the inner operator is
    unitarily equivalent to diag(sqrt w) V^dagger sigma V diag(sqrt w), so a
    low-rank target needs no square root of numerically zero eigenvalues.
    """
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    keep = w > 1e-12 * w[-1]
    a = v[:, keep] * np.sqrt(w[keep])
    inner = a.conj().T @ sigma @ a
    lam = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(np.sum(np.sqrt(np.clip(lam, 0.0, None))) ** 2)


def haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def protocol_rank_r(d: int, r: int, gen: np.random.Generator) -> np.ndarray:
    """Rank-r state as in the Table-1 protocol: Haar columns with uniform(0.2, 1) weights."""
    g = haar_unitary(d, gen)[:, :r] * gen.uniform(0.2, 1.0, r)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def basis_union_probabilities(bases: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of the uniform union of bases, each weighted 1/b."""
    b = len(bases)
    return np.concatenate([np.real(np.einsum("ik,ij,jk->k", u.conj(), rho, u)) / b
                           for u in bases])


def parameter_count_bound(d: int, r: int) -> int:
    """Fewest bases whose d - 1 independent outcomes each can fix 2dr - r^2 - 1 parameters."""
    return math.ceil((2 * d * r - r * r - 1) / (d - 1))


def sign_test_p(n_worse: int, n: int) -> float:
    """One-sided binomial tail P(X >= n_worse) for X ~ Bin(n, 1/2)."""
    return sum(math.comb(n, k) for k in range(n_worse, n + 1)) / 2**n


# ---------------------------------------------------------------------------
# Checks (None when the property holds)
# ---------------------------------------------------------------------------

def check_density(rho: np.ndarray, what: str) -> str | None:
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > DENSITY_TOL:
        return f"{what}: not Hermitian ({herm:.2e})"
    lmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    tr = float(np.trace(rho).real)
    if lmin < -DENSITY_TOL or abs(tr - 1.0) > DENSITY_TOL:
        return f"{what}: not a density matrix (min eig {lmin:.2e}, trace {tr:.12f})"
    return None


def ball_excess(stack: np.ndarray, f: np.ndarray, x: np.ndarray, eps: float) -> float:
    """(||M[X] - f|| - eps) / eps; positive means X lies outside the ball."""
    return (float(np.linalg.norm(measurement_map(stack, x) - f)) - eps) / eps


def check_ball(stack, f, x, eps, what: str) -> str | None:
    excess = ball_excess(stack, f, x, eps)
    if not excess <= BALL_REL_TOL:
        return f"{what}: residual exceeds the ball radius by {excess:.2e} (relative)"
    return None


def ls_kkt(stack: np.ndarray, f: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Relative first-order conditions of min ||M[X] - f|| over X >= 0.

    With Z = sum_mu (M[X] - f)_mu E_mu, optimality is Z >= 0 and Tr(XZ) = 0.
    Returns (lambda_min(Z), |Tr XZ| / Tr X), both divided by ||sum f_mu E_mu||.
    """
    z = adjoint_map(stack, measurement_map(stack, x) - f)
    scale = float(np.linalg.norm(adjoint_map(stack, f), 2))
    lmin = float(np.linalg.eigvalsh((z + z.conj().T) / 2)[0])
    compl = abs(float(np.trace(x @ z).real)) / max(float(np.trace(x).real), 1e-300)
    return lmin / scale, compl / scale


def check_ls_kkt(stack, f, x, what: str) -> str | None:
    lmin, compl = ls_kkt(stack, f, x)
    if not (lmin >= -KKT_REL_TOL and compl <= KKT_REL_TOL):
        return f"{what}: KKT violated (lambda_min {lmin:.2e}, |Tr XZ| {compl:.2e})"
    return None


def check_trace_gap(x_trace: np.ndarray, x_ls: np.ndarray, what: str) -> str | None:
    """Trace minimisation never ends above the trace of an LS point inside the ball."""
    t_tr = float(np.trace(x_trace).real)
    t_ls = float(np.trace(x_ls).real)
    if not t_tr <= t_ls * (1.0 + TRACE_GAP_REL_TOL):
        return f"{what}: Tr X_trace {t_tr:.9f} > Tr X_ls {t_ls:.9f}"
    return None


def infeasibility_certificate(key: str, stack, f, eps: float, x_ls, x_trace) -> str | None:
    """Why a ball-constrained estimator may rightly raise on this record, or None.

    If the LS point (the least residual over X >= 0) lies outside the ball,
    the ball holds no PSD matrix, and trace minimisation and MLE are both
    infeasible.  MLE also needs trace one: if the trace minimum over the ball
    exceeds one, no density matrix lies in the ball.  Without either, a
    raise is a fault.  The LS point is then a PSD point in the ball, and a
    trace-one point lies there too: X_ls + (1 - Tr X_ls) I/d when
    Tr X_ls <= 1 (the union POVM sums to the identity with equal element
    traces, so that shift only shrinks the residual), and otherwise the
    point of trace one on the segment from X_ls to X_trace (trace
    minimisation cannot rightly raise on such a record).
    """
    if x_ls is not None and ball_excess(stack, f, x_ls, eps) > 0:
        return "the LS point lies outside the ball"
    if key == "estimate_mle" and x_trace is not None and np.trace(x_trace).real > 1.0:
        return "the trace minimum over the ball exceeds one"
    return None


def check_infidelities(values, what: str) -> str | None:
    arr = np.asarray(values, dtype=float)
    bad = ~np.isfinite(arr) | (arr < 0.0) | (arr > 1.0)
    if bad.any():
        return f"{what}: {int(bad.sum())} infidelities not finite or outside [0, 1]"
    return None


def check_more_bases_help(inf_low, inf_high, what: str) -> tuple[str | None, dict]:
    """Criterion 6c on the states of one run: more bases give lower infidelity.

    The per-state chance that b = 9 beats b = 5 is about 0.75-0.8 (40 states
    measured), so the sample medians of the ~19 states a run holds reverse by
    chance on about one run in 16.  The check therefore fails only when the
    states that got worse are too many for a fair coin (one-sided sign test,
    p < 0.01); on working code that happens on fewer than 1e-6 of runs.  The
    medians are reported.
    """
    low = np.asarray(inf_low, dtype=float)
    high = np.asarray(inf_high, dtype=float)
    if low.size == 0:
        return f"{what}: no state has an infidelity at both basis counts", {"states": 0}
    n_worse = int((high >= low).sum())
    p = sign_test_p(n_worse, low.size)
    detail = {"median_low": float(np.median(low)), "median_high": float(np.median(high)),
              "states": int(low.size), "worse": n_worse, "sign_p": p}
    if p < SIGN_TEST_ALPHA:
        return f"{what}: {n_worse} of {low.size} states worse with more bases (p={p:.1e})", detail
    return None, detail


def check_minimal_count(count, d: int, r: int) -> str | None:
    if count is None:
        return f"d={d} r={r}: no basis count up to the cap recovered every state"
    bound = parameter_count_bound(d, r)
    lo, hi = TABLE1_RANGE[(d, r)]
    if count < bound:
        return f"d={d} r={r}: minimal count {count} is below the parameter bound {bound}"
    if not lo <= count <= hi:
        return f"d={d} r={r}: minimal count {count} outside the paper's range [{lo}, {hi}]"
    return None


def check_completion(completed: np.ndarray, saved: np.ndarray) -> str | None:
    err = float(np.abs(completed - saved).max())
    if not err <= COMPLETION_TOL:
        return f"completion differs from the saved state by {err:.2e}"
    return None
