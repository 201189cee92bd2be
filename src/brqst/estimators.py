"""PSD-constrained convex state estimation.

Three programs on one accelerated projected-gradient core (monotone FISTA
with backtracking; the momentum restarts when the projected step from the
extrapolated point y to z opposes the last step, (y - z) . (z - x) > 0):
constrained least squares, trace minimization inside a residual ball, and
trace-one maximum likelihood inside a residual ball.  Trace minimization is
a root find on the Pareto curve phi(tau) = min ||M[X] - f|| over
{X >= 0, Tr X <= tau}: Newton steps on tau solve phi(tau) = eps, each
phi(tau) being the least-squares program with a trace cap (van den Berg &
Friedlander, SIAM J. Sci. Comput. 31, 890 (2008)).  Each capped program is solved only until its duality gap,
read off the same eigendecomposition the Newton step needs, is small
against phi - eps, and the step is taken from the dual lower bound, so the
caps approach the optimal trace from below.  Maximum likelihood first
solves the plain trace-one program (Shang, Zhang & Ng, Phys. Rev. A 95,
062336 (2017)); only when that point misses the ball does it certify the
ball nonempty, with the least-residual density matrix, and then root-find
the ball's Lagrange multiplier until the Lagrangian duality gap closes.

Every solve polishes the iterate on a low-rank factor X = V V^dagger: first
after a warm start of accelerated iterations, 100 for least squares and 20
for trace minimization and the likelihood, then after every 500.  After a
polish a solve also stops on a certificate of optimality where its program
has a cheap one: least squares on its duality gap when the POVM elements
sum to a multiple of I, the likelihood and the least-residual density
matrix on their Frank-Wolfe gaps.  One polish
serves all programs (:func:`_factor_polish`).  A program is
described once, by its objective in the outcome vector p = M[X]: its value,
its gradient w in p and its Gauss-Newton weights (:func:`_ls_fit`,
:func:`_likelihood_fit`), and the projected-gradient core reads the same
description.  The polish takes damped Newton steps on the factor, on the face
Tr X = tau, X = tau V V^dagger / ||V||_F^2, when the iterate meets its trace
cap (tau = 1 for the likelihood), so its candidate stays feasible and can be
adopted.  The model is the Gauss-Newton or Fisher matrix plus
sum_mu w_mu Hess p_mu(V) (:func:`_factor_curvature`).  On the face w is
never zero at the optimum (the residual is at least eps on a Pareto point,
and -f/p does not vanish), and without that term the polish converges only
linearly (Nocedal & Wright, Numerical Optimization, 2nd ed., section 10.3).
Off the face the model is a hybrid (Fletcher & Xu, IMA J. Numer. Anal. 7,
371 (1987)): it starts on Gauss-Newton, exact where the fit reaches zero, and
adds the term after an accepted step that lowered the objective by less than
``_LM_SLOW`` relative (the term at every step cost 26% more iterations on 115
noiseless polish inputs of the strictness sweep).  A record of ideal
probabilities has a zero-residual optimum, and its least-squares polish stays
on Gauss-Newton throughout.  On a noiseless record
that fixes the state the least-squares polish sheds its spare columns and
typically ends on the state's rank at round-off; on noisy records it stops
where the fit stalls.  A Gauss-Newton step of least squares on a factor with
more real unknowns than the record has outcomes is solved in the smaller,
outcome space (the push-through identity).

The core runs in matrix space.  An iterate is the real view
(``X.reshape(-1).view(np.float64)``, length 2 d^2) of a C-contiguous complex
d x d matrix X, so turning it back into a matrix for an eigendecomposition is
a free ``view``.  The measurement map acts on that view as the real
(m, 2 d^2) view of the stacked POVM elements, because
p_mu = Re sum_ij conj(E_mu,ij) X_ij = Tr(E_mu X) for Hermitian E_mu.  This is
the Frobenius geometry of the orthonormal Hermitian coordinates of
:func:`brqst.linalg.hvec`: the map annihilates anti-Hermitian parts, and its
adjoint sends r to the real view of the Hermitian matrix sum_mu r_mu E_mu.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateEstimateError, InfeasibleError
from .linalg import HermitianMatrix, _mat, _project_density, _project_psd, _vec, hermitianize
from .povm import MeasurementKind, MeasurementVector, Povm


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the projected-gradient core."""

    max_iterations: int = 50_000
    relative_tolerance: float = 1e-9

    def __post_init__(self):
        if self.relative_tolerance <= 0:
            raise ValueError("relative_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class EstimateReport:
    """Solver output: trace-normalized estimate plus the raw optimizer iterate."""

    estimate: HermitianMatrix
    raw: HermitianMatrix
    objective: float
    residual_norm: float
    iterations: int
    converged: bool
    objective_history: np.ndarray | None = None


_CONSECUTIVE_OK = 10
# iterations between two checks of a solve's optional stop test
_STOP_EVERY = 10
# backtracking factor of the step size, and its growth after a step that needed none
_SHRINK = 0.5
_GROWTH = 1.1


def _measurement_map(povm: Povm) -> np.ndarray:
    """Real (m, 2 d^2) matrix A with A @ _vec(X) = [Tr(E_mu X)] for Hermitian X."""
    return povm.stack.reshape(len(povm), -1).view(np.float64)


def _apply_elements(stack: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The stack of products E_mu V, shape (m, d, r), as one matrix product."""
    m, d, _ = stack.shape
    return (stack.reshape(m * d, d) @ v).reshape(m, d, -1)


def _factor_jacobian(stack: np.ndarray, v: np.ndarray, p: np.ndarray,
                     cap: float | None = None) -> np.ndarray:
    """Real Jacobian of V -> [Tr(E_mu X)] at X = V V^dagger, or X = cap V V^dagger / ||V||_F^2.

    ``p`` holds Tr(E_mu X) at V; only the capped map needs it.  Its columns
    interleave Re and Im of each entry of V, as the real view of V does.
    Under a cap, d p_mu = (2 cap / ||V||^2) Re <E_mu V - (p_mu / cap) V, dV>.
    """
    m = stack.shape[0]
    if cap is None:
        return 2.0 * _apply_elements(stack, v).reshape(m, -1).view(np.float64)
    ev = _apply_elements(stack, v) - (p / cap)[:, None, None] * v[None, :, :]
    return (2.0 * cap / float(np.sum((v.conj() * v).real))) * ev.reshape(m, -1).view(np.float64)


def _factor_curvature(stack: np.ndarray, v: np.ndarray, w: np.ndarray,
                      cap: float | None = None) -> np.ndarray:
    """Real Hessian of V -> sum_mu w_mu Tr(E_mu X), X = V V^dagger or cap V V^dagger / ||V||_F^2.

    The term that a Gauss-Newton or Fisher model of an objective with gradient
    ``w`` in p leaves out.  With G = sum_mu w_mu E_mu it is 2 R(G (x) I_r)
    without a cap, where R(K) is the real symmetric matrix with
    x^T R(K) x = Re z^dagger K z.  Under a cap, with x the real view of V,
    t = ||V||_F^2, q = Re Tr(V^dagger G V) / t and u = realview(G V) - q x,
    it is (2 cap / t) [R(G (x) I_r) - q I - (2 / t)(x u^T + u x^T)].  Rows and
    columns interleave Re and Im of each entry of V, as
    :func:`_factor_jacobian` does.
    """
    g = np.tensordot(w, stack, 1)
    d, r = v.shape
    n = d * r
    # R(G (x) I_r) written block by block: row (i, a, Re/Im), column (j, a, Re/Im)
    h = np.zeros((2 * n, 2 * n))
    blocks = h.reshape(d, r, 2, d, r, 2)
    diag = np.arange(r)
    blocks[:, diag, 0, :, diag, 0] = blocks[:, diag, 1, :, diag, 1] = g.real
    blocks[:, diag, 0, :, diag, 1] = -g.imag
    blocks[:, diag, 1, :, diag, 0] = g.imag
    if cap is None:
        return 2.0 * h
    x = v.reshape(-1).view(np.float64)
    t = float(x @ x)
    gx = (g @ v).reshape(-1).view(np.float64)
    q = float(x @ gx) / t
    u = gx - q * x
    h -= (2.0 / t) * (np.outer(x, u) + np.outer(u, x))
    h[np.diag_indices(2 * n)] -= q
    return (2.0 * cap / t) * h


def _norm(r: np.ndarray) -> float:
    return math.sqrt(float(r @ r))


# an objective below this is zero to machine precision: the polish and the solve stop there
_ROUND_OFF = 1e-28
# iteration cap, damping floor and retries per iteration of the factor polish
_POLISH_ITERS = 150
_LM_MU_FLOOR = 1e-12
_LM_RETRIES = 30
# the factor polish stops once an accepted step lowers its objective by less than
# _LM_STALL relative although a smaller damping had just been rejected, or by
# less than _LM_FLAT relative at all
_LM_STALL = 1e-11
_LM_FLAT = 1e-14
# off the trace face, the factor polish adds the curvature once an accepted step
# lowers its objective by less than this relative amount
_LM_SLOW = 1e-2
# factor columns whose Gram eigenvalue is below this fraction of the largest are dropped
_LM_TRIM = 1e-10
# model probabilities are clamped below at this inside the log of the likelihood
_LOG_CLAMP = 1e-12

# a program's objective as a function of the outcome vector p: fit(p) returns
# its value, its gradient w in p and its Gauss-Newton weights (None for unit
# weights); fit(p, False), for the core's value calls, may leave the last two out
_Fit = Callable[..., tuple]


def _ls_fit(fv: np.ndarray) -> _Fit:
    """0.5 ||p - f||^2: w = p - f, unit weights."""
    def fit(p: np.ndarray, grad: bool = True):
        r = p - fv
        return 0.5 * float(r @ r), r, None

    return fit


def _likelihood_fit(fv: np.ndarray, mu: float) -> _Fit:
    """NLL(p) + (mu / 2) ||p - f||^2: w = mu r - f / p, weights f / p^2 + mu.

    NLL(p) = -sum_mu f_mu log p_mu over the outcomes with f_mu > 0, with p
    clamped below at ``_LOG_CLAMP``.
    """
    active = fv > 0
    fa = fv[active]

    def fit(p: np.ndarray, grad: bool = True):
        r = p - fv
        pc = np.maximum(p, _LOG_CLAMP)
        value = -float(fa @ np.log(pc[active])) + 0.5 * mu * float(r @ r)
        if not grad:
            return value, None, None
        return value, mu * r - fv / pc, fv / (pc * pc) + mu

    return fit


def _objective(a: np.ndarray, fit: _Fit):
    """Value and value-and-gradient in x of a program's objective fit(A x)."""
    def value(x: np.ndarray) -> float:
        return fit(a @ x, False)[0]

    def value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        val, w, _ = fit(a @ x)
        return val, a.T @ w

    return value, value_grad


def _lambda_min(a: np.ndarray, w: np.ndarray, d: int) -> float:
    """lambda_min(M^dagger[w]), the least eigenvalue of sum_mu w_mu E_mu."""
    return float(np.linalg.eigh(_mat(a.T @ w, d))[0][0])


def _ls_gap(povm: Povm, a: np.ndarray, fv: np.ndarray):
    """Duality gap of min 0.5 ||M[X] - f||^2 over X >= 0, or None when no cheap dual point exists.

    Returns x -> (gap, objective) at the iterate x.  The dual program is
    max -0.5 ||y||^2 - <y, f> over M^dagger[y] >= 0.  When sum_mu E_mu = k I
    (k = 1 for a union of bases weighted 1/b), M^dagger[1] = k I, so with
    r = M[X] - f the point y = r + max(-lambda_min(M^dagger[r]), 0) / k 1 is
    dual feasible, and the gap is 0.5 ||r||^2 + 0.5 ||y||^2 + <y, f>.  At an
    optimum M^dagger[r] >= 0 and y = r, and the gap is <M^dagger[r], X> = 0.
    On a noiseless record f = M[rho], <y, f> = Tr(M^dagger[y] rho) >= 0 and
    the gap is at least the objective.
    """
    d = povm.dim
    total = povm.stack.sum(axis=0)
    k = float(np.trace(total).real) / d
    if k <= 0 or np.abs(total - k * np.eye(d)).max() > 1e-12 * k:
        return None

    def gap(x: np.ndarray) -> tuple[float, float]:
        r = a @ x - fv
        y = r + max(-_lambda_min(a, r, d), 0.0) / k
        half = 0.5 * float(r @ r)
        return half + 0.5 * float(y @ y) + float(y @ fv), half

    return gap


def _frank_wolfe_gap(a: np.ndarray, fit: _Fit, d: int):
    """Frank-Wolfe gap of a program fit(M[rho]) over density matrices: x -> (gap, objective).

    With w the gradient in p, G = M^dagger[w] is the gradient in rho, and the
    gap <w, p> - lambda_min(G) = max over density matrices sigma of
    Tr(G (rho - sigma)) bounds the objective's excess over its minimum
    (Jaggi, ICML 2013).  For the plain likelihood G = -M^dagger[f / p], and
    the gap vanishes where R rho = rho with R = M^dagger[f / p] (Hradil,
    Phys. Rev. A 55, R1561 (1997)).
    """
    def gap(x: np.ndarray) -> tuple[float, float]:
        p = a @ x
        value, w, _ = fit(p)
        return float(w @ p) - _lambda_min(a, w, d), value

    return gap


def _certificate(gap, tolerance: float) -> Callable[[np.ndarray], bool] | None:
    """Test that a gap function's gap is at most ``tolerance`` of |objective|."""
    if gap is None:
        return None

    def certified(x: np.ndarray) -> bool:
        g, value = gap(x)
        return g <= tolerance * abs(value)

    return certified


def _factor_polish(stack: np.ndarray, a: np.ndarray, x: np.ndarray, fit: _Fit,
                   cap: float | None, cut: float, spare: int,
                   damping: float, hybrid: bool = True) -> np.ndarray | None:
    """Damped Newton steps for fit(M[X]) on a low-rank spectral factor of the iterate.

    Projected gradient crawls when the optimum sits on a degenerate face of
    the PSD cone (small probe families have recovery constants of order
    10^3, so certifying 1e-5 infidelity needs residuals near 1e-9); steps on
    a factor V are immune to the cone geometry.  V keeps the eigenvalues
    above ``cut`` of the largest, plus ``spare`` columns.  Given a ``cap``
    that the iterate's trace meets, the polish runs on the face Tr X = cap,
    on X = cap V V^dagger / ||V||_F^2 (Burer & Monteiro, Math. Program. 95,
    329 (2003)), so the refined matrix stays inside {X >= 0, Tr X <= cap}.
    The model is J^T diag(weights) J plus, on the face or, when ``hybrid``,
    after an accepted step that lowered the objective by less than
    ``_LM_SLOW`` relative, the curvature weighted by w
    (:func:`_factor_curvature`; see the module docstring), and its
    Levenberg-Marquardt damping starts at ``damping``.
    A Gauss-Newton step of least squares (unit weights, no curvature) whose
    Jacobian J has fewer rows m than columns n is solved in outcome space,
    (J J^T + mu I) z = w and delta = -J^T z: by the push-through identity the
    step of (J^T J + mu I) delta = -J^T w, from m x m instead of n x n.  For
    a union of b bases J J^T is singular on the b - 1 differences of the
    basis blocks (each block of J sums to the gradient of Tr X / b); the
    damping floor keeps it nonsingular, and w = p - f has no component there
    when the blocks of f have equal sums.  The weighted and curved models
    have no outcome-space form and stay n x n.

    Once its spare columns shrink, an over-parameterized factor converges
    slowly (Zhuo, Kwon, Ho & Caramanis, arXiv:2102.02756), so after an
    accepted step that leaves the damping at its floor the Gram V^dagger V is
    decomposed and its directions below ``_LM_TRIM`` of the largest
    eigenvalue are dropped.  The polish stops at round-off, after
    ``_POLISH_ITERS`` iterations, when no damping lowers the objective, or
    at a stationary point: an accepted step that lowers it by less than
    ``_LM_FLAT`` relative, or by less than ``_LM_STALL`` although a smaller
    damping had just been rejected.  It returns the real view of the best
    matrix it visited (a trim can raise the objective slightly), or None
    when the iterate is essentially zero.
    """
    d = stack.shape[1]
    lam, vecs = np.linalg.eigh(_mat(x, d))
    lmax = float(lam[-1])
    if lmax <= 1e-12:
        return None
    if cap is not None and float(lam.sum()) < cap * (1.0 - 1e-9):
        cap = None  # below the cap, which is then inactive
    r_hat = min(d, int((lam > cut * lmax).sum()) + spare)
    idx = np.argsort(lam)[::-1][:r_hat]
    v = vecs[:, idx] * np.sqrt(np.maximum(lam[idx], 0.0))

    def evaluate(vv: np.ndarray):
        xx = vv @ vv.conj().T
        if cap is not None:
            xx = cap * xx / float(np.sum((vv.conj() * vv).real))
        p = a @ _vec(xx)
        return (*fit(p), xx, p)

    obj, w, weights, xx, p = evaluate(v)
    best_x, best_obj = xx, obj
    mu = damping
    slow = False
    for _ in range(_POLISH_ITERS):
        j = _factor_jacobian(stack, v, p, cap)
        curved = cap is not None or slow
        # (J J^T + mu I) z = w, delta = -J^T z: see the docstring
        outcome = weights is None and not curved and j.shape[0] < j.shape[1]
        if outcome:
            h = j @ j.T
        else:
            g = j.T @ w
            h = j.T @ j if weights is None else (j * weights[:, None]).T @ j
            if curved:
                h += _factor_curvature(stack, v, w, cap)
        h_diag = h.diagonal().copy()
        accepted = False
        for attempt in range(_LM_RETRIES):
            # damp h in place, with no second array per retry
            np.fill_diagonal(h, h_diag + mu)
            try:
                delta = -(j.T @ np.linalg.solve(h, w)) if outcome else np.linalg.solve(h, -g)
            except np.linalg.LinAlgError:
                mu *= 4.0
                continue
            v_new = v + delta.view(np.complex128).reshape(v.shape)
            new = evaluate(v_new)
            if new[0] < obj:
                accepted = True
                mu = max(mu * 0.3, _LM_MU_FLOOR)
                break
            mu *= 4.0
        if not accepted:
            break
        # a stationary point, unless the step was merely overdamped: a small
        # decrease counts only when a smaller damping had just been rejected,
        # a decrease at round-off always
        drop, scale = obj - new[0], abs(obj)
        stalled = drop < _LM_FLAT * scale or (drop < _LM_STALL * scale and attempt > 0)
        slow = hybrid and drop < _LM_SLOW * scale
        v, (obj, w, weights, xx, p) = v_new, new
        if obj < best_obj:
            best_x, best_obj = xx, obj
        if stalled or obj < _ROUND_OFF:
            break
        if mu <= _LM_MU_FLOOR and v.shape[1] > 1:
            # curvature below the damping floor may be a dying column: drop
            # the Gram directions that carry no weight
            gw, gu = np.linalg.eigh(v.conj().T @ v)
            keep = gw > _LM_TRIM * gw[-1]
            if not keep.all():
                v = v @ gu[:, keep]
                obj, w, weights, xx, p = evaluate(v)
    return _vec(best_x)


def _lm_residual_polish(stack: np.ndarray, a: np.ndarray, fv: np.ndarray,
                        x: np.ndarray, cap: float | None = None,
                        kind: MeasurementKind = "empirical_frequencies") -> np.ndarray | None:
    """The factor polish of 0.5 ||M[X] - f||^2, on the face Tr X = ``cap`` if the iterate meets it.

    The factor starts one column above the iterate's numerical rank at 1e-3,
    and the damping at 1e-3.  Off the face, a record of ``kind``
    ``"ideal_probabilities"`` keeps Gauss-Newton steps throughout: its
    optimum fits the data exactly, where the curvature term vanishes, and a
    slow fall there comes from a degenerate factor, not from the residual.
    """
    return _factor_polish(stack, a, x, _ls_fit(fv), cap, 1e-3, 1, 1e-3,
                          hybrid=kind != "ideal_probabilities")


def _fisher_polish_nll(stack: np.ndarray, a: np.ndarray, fv: np.ndarray,
                       x: np.ndarray, mu: float = 0.0) -> np.ndarray | None:
    """The factor polish of NLL + (mu / 2) ||M[rho] - f||^2 on rho = V V^dagger / ||V||_F^2.

    The factor starts at the iterate's numerical rank at 1e-6, and the
    damping at 1e-2: with least squares' 1e-3 and 1e-3, the 40 Fig-2 records
    of seeds 777 and 4242 at b = 5 and 9 took 22% more likelihood solves.
    """
    return _factor_polish(stack, a, x, _likelihood_fit(fv, mu), 1.0, 1e-6, 0, 1e-2)


_CHUNK = 500
# FISTA iterations before the first least-squares polish: on noiseless records
# the polish reaches round-off from here, and later chunks are _CHUNK long.  A
# warm start of 30 moved 1192 of the 1896 Table-1 infidelities of seeds 181 and
# 182 and flipped 2 recovery verdicts, as the records that do not fix the state
# follow the solve's path
_WARM_START = 100
# FISTA iterations before the first polish of trace minimization and of every
# likelihood solve, whose polish on the trace face does the work.  From a warm
# start of 10 or 30 the plain MLE of the Fig-2 record (11, 10, 5) ends 1.4e-12
# or 1.2e-12 relative above its lower bound, and from 50 an active-ball MLE
# (21, 41, 5) ends 1.1e-8 above; from 20 they end within 1e-15 and 8.4e-9
_BALL_WARM_START = 20
# a least-squares solve stops once its duality gap is this fraction of its objective
_LS_GAP = 1e-8
# a likelihood solve stops once its Frank-Wolfe gap is this fraction of its objective
_FW_GAP = 1e-12
# residual-ball slack accepted by the ball-constrained programs
_BALL_SLACK = 1e-9
# cap on Newton steps along the Pareto curve; Fig-2 records take 5 to 17
_NEWTON_STEPS = 100
# an inexact capped solve stops once its dual gap is this fraction of phi - eps
_GAP_FRACTION = 0.5
# cap on the solves of MLE's multiplier search; Fig-2 records with an active ball take 11 to 18
_MULTIPLIER_SOLVES = 60
# MLE's multiplier search stops at this relative duality gap
_GAP_TOL = 1e-8


def _solve(value_grad, value, project, x0, step0, cfg: SolverConfig,
           keep_history: bool,
           polish: Callable[[np.ndarray], np.ndarray | None],
           warm_start: int,
           stop: Callable[[np.ndarray], bool] | None = None,
           certificate: Callable[[np.ndarray], bool] | None = None,
           ) -> tuple[np.ndarray, float, int, bool, np.ndarray | None]:
    """Monotone FISTA with backtracking and gradient restart, interleaved with a polish.

    Runs at most ``cfg.max_iterations`` iterations in chunks: a warm start of
    ``warm_start`` iterations, then chunks ``_CHUNK`` long.  Each
    chunk restarts the momentum, the step size ``step0`` and the convergence
    streak from the incumbent, projected (the first chunk projects ``x0``,
    once).  Each iteration takes the projected gradient step
    z = P(y - t grad f(y)) from the extrapolated point y, backtracking t
    (Beck & Teboulle, SIAM J. Imaging Sci. 2, 183 (2009)).  Within a chunk
    the objective sequence is non-increasing: a candidate that does not
    improve on the incumbent x is rejected (the incumbent is kept) and the
    momentum restarts.  An accepted z restarts the momentum, y = z, when the
    gradient-mapping test (y - z) . (z - x) > 0 fires at the y the step was
    taken from, i.e. when the step opposes the direction just travelled
    (O'Donoghue & Candes, Found. Comput. Math. 15, 715 (2015)); otherwise
    the next point is y = z + ((theta_k - 1) / theta_k+1) (z - x).
    A chunk converges after ``_CONSECUTIVE_OK`` consecutive iterations whose
    relative objective change falls below ``cfg.relative_tolerance``.

    After every chunk ``polish`` maps the iterate to a candidate, or to None.
    A candidate is projected back onto the feasible set and adopted only when
    it lowers the program objective, so the reported objective sequence stays
    non-increasing and the result remains a solution of the convex program,
    never merely of the factored surrogate.  The solve has converged once a
    chunk converges and the polish does not halve the objective, once the
    objective falls below ``_ROUND_OFF`` (a data fit that small is exact to
    machine precision, and another chunk and polish would choose between
    exact fits on round-off alone), or once the program's optional
    ``certificate`` holds: a test, one eigendecomposition each, that the
    iterate is optimal to a tolerance (:func:`_ls_gap`,
    :func:`_frank_wolfe_gap`).  It is tested after each polish only, where
    it can hold; it adds a reason to stop and does not replace the streak.
    ``keep_history`` records the starting objective, the incumbent's after
    every iteration and each adopted polish.

    ``stop`` is an optional test of the iterate for callers that need the
    program solved only until it holds.  It is checked every
    ``_STOP_EVERY`` iterations of a chunk and after each polish; once it
    holds the solve returns at once, reported as converged, with no further
    iterations or polish.
    """
    x = np.asarray(x0, dtype=float)
    history = [] if keep_history else None
    total = 0
    converged = False
    while not converged and total < cfg.max_iterations:
        budget = min(warm_start if total == 0 else _CHUNK, cfg.max_iterations - total)
        x = project(x)
        f_x = value(x)
        if history is not None and total == 0:
            history.append(f_x)
        y = x.copy()
        theta, t, streak = 1.0, step0, 0
        for it in range(1, budget + 1):
            f_y, g_y = value_grad(y)
            shrunk = False
            while True:
                z = project(y - t * g_y)
                dz = z - y
                f_z = value(z)
                bound = f_y + g_y @ dz + (dz @ dz) / (2 * t) + 1e-18 * max(1.0, abs(f_y))
                if f_z <= bound or t < 1e-20:
                    break
                t *= _SHRINK
                shrunk = True
            if not shrunk:
                t *= _GROWTH
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            if f_z <= f_x:
                x_next, f_next = z, f_z
                # restart where the gradient step from y opposes the step z - x
                if (y - z) @ (z - x) > 0:
                    y = z.copy()
                    theta_next = 1.0
                else:
                    y = z + ((theta - 1.0) / theta_next) * (z - x)
            else:
                x_next, f_next = x, f_x
                y = x.copy()
                theta_next = 1.0
            rel = abs(f_x - f_next) / max(abs(f_x), abs(f_next), 1e-300)
            streak = streak + 1 if rel < cfg.relative_tolerance else 0
            x, f_x, theta = x_next, f_next, theta_next
            if history is not None:
                history.append(f_x)
            if streak >= _CONSECUTIVE_OK:
                break
            if stop is not None and it % _STOP_EVERY == 0 and stop(x):
                converged = True
                break
        total += it
        if converged:
            break
        improved = False
        xp = polish(x)
        if xp is not None:
            xp = project(xp)
            f_p = value(xp)
            if f_p < f_x:
                # keep alternating only while the polish still pays off
                improved = f_p < 0.5 * f_x
                x, f_x = xp, f_p
                if history is not None:
                    history.append(f_x)
        converged = ((streak >= _CONSECUTIVE_OK and not improved) or f_x < _ROUND_OFF
                     or (stop is not None and stop(x))
                     or (certificate is not None and certificate(x)))
    hist = np.array(history) if history is not None else None
    return x, f_x, total, converged, hist


def _check_lengths(povm: Povm, f: MeasurementVector):
    if len(f) != len(povm):
        raise ValueError(
            f"measurement vector has {len(f)} entries but the POVM has {len(povm)} elements"
        )


def _finish(x: np.ndarray, d: int, objective: float, residual: float,
            iterations: int, converged: bool, history) -> EstimateReport:
    raw = HermitianMatrix(hermitianize(_mat(x, d)))
    tr = float(np.trace(raw.mat).real)
    if tr <= 1e-12:
        raise DegenerateEstimateError(
            f"optimizer returned a matrix with trace {tr:.3e}; no state can be formed"
        )
    return EstimateReport(HermitianMatrix(raw.mat / tr), raw, objective, residual, iterations,
                          converged, history)


def _data_fit(povm: Povm, f: MeasurementVector):
    """Value, value-and-gradient and LM polish of 0.5 ||A x - f||^2."""
    a = _measurement_map(povm)
    value, value_grad = _objective(a, _ls_fit(f.values))

    def polish(x: np.ndarray, cap: float | None = None) -> np.ndarray | None:
        return _lm_residual_polish(povm.stack, a, f.values, x, cap=cap, kind=f.kind)

    return a, value, value_grad, polish


def estimate_ls(povm: Povm, f: MeasurementVector,
                cfg: SolverConfig = SolverConfig(),
                keep_history: bool = False) -> EstimateReport:
    """Constrained least squares: minimize ||M[X] - f||_2 over X >= 0.

    The solve also stops once its duality gap is at most ``_LS_GAP`` of
    0.5 ||M[X] - f||^2, when the POVM elements sum to a multiple of I
    (:func:`_ls_gap`); on a noiseless record the gap is never that small
    before the fit reaches round-off.
    """
    _check_lengths(povm, f)
    d = povm.dim
    a, value, value_grad, polish = _data_fit(povm, f)
    # ||A|| = ||S||, the map in the d^2 Hermitian coordinates
    lip = povm.norm_sq_bound
    x, f_x, iters, conv, hist = _solve(
        value_grad, value, _project_psd(d), np.zeros(2 * d * d), 1.0 / lip, cfg,
        keep_history, polish, _WARM_START,
        certificate=_certificate(_ls_gap(povm, a, f.values), _LS_GAP),
    )
    residual = math.sqrt(2.0 * max(f_x, 0.0))
    return _finish(x, d, residual, residual, iters, conv, hist)


def estimate_trace_min(povm: Povm, f: MeasurementVector, eps: float,
                       cfg: SolverConfig = SolverConfig(),
                       keep_history: bool = False) -> EstimateReport:
    """Trace minimization: minimize Tr(X) s.t. ||M[X] - f||_2 <= eps, X >= 0.

    Solves phi(tau) = eps on the Pareto curve phi(tau) = min ||M[X] - f||
    over {X >= 0, Tr X <= tau}.  phi is convex and decreasing.  Each phi(tau)
    is the least-squares program with a trace cap, warm-started from the
    previous point, whose polish runs on the face Tr X = tau whenever the
    iterate meets the cap.

    The capped programs are solved only as far as the Newton step needs.  At
    an iterate X with r = M[X] - f, phi~ = ||r|| and
    theta = lambda_max(-M^dagger[r]), weak duality with y = -r / phi~ gives
    the dual line l(tau') = (-<r, f> - tau' max(theta, 0)) / phi~, a lower
    bound on phi(tau') for every cap tau'.  A solve stops once phi~ is
    within the ball slack of eps, or once theta > 0 and the gap at its own
    cap is small against the distance to the radius,
    l(tau) - eps >= ``_GAP_FRACTION`` (phi~ - eps) (van den Berg & Friedlander,
    SIAM J. Sci. Comput. 31, 890 (2008), section 3).  The Newton step goes
    to the root of the dual line, tau += (l(tau) - eps) phi~ / theta, not of
    the tangent through phi~: as phi >= l, the new cap never passes the
    optimal trace, so the caps rise to it from below and the returned X, in
    the ball, has Tr X <= the last cap <= the optimal trace.  A solve whose
    gap stays open runs to full tolerance.  There phi~ is phi(tau) to the
    solve's accuracy, and the step is the exact Newton step from phi~, which
    by the convexity of phi also stays below the optimal trace up to that
    accuracy.  The gap is first order in the iterate's error where phi~ is
    second order, so this happens near the root, where phi~ - eps is tiny.
    ``keep_history`` records phi~ after each Newton step.

    Raises :class:`InfeasibleError` of kind ``"ls_residual_exceeds_radius"``
    when no X >= 0 reaches the ball.  With theta <= 0 the dual line is flat,
    and -<r, f> / phi~ bounds the least residual over all X >= 0 from below:
    a solve stops as soon as that bound exceeds the radius, and the call
    raises.  After a full-tolerance solve, theta <= 0 or an iterate below its
    cap means the least residual is phi~, above the radius.  Below its cap,
    an inexact iterate proves nothing and the Newton steps go on.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_lengths(povm, f)
    d = povm.dim
    fv = f.values
    a, value, value_grad, polish = _data_fit(povm, f)
    # Re X_ii sits at 2 i (d + 1) in the real view of X
    diag = slice(None, None, 2 * (d + 1))
    step0 = 1.0 / povm.norm_sq_bound
    radius = eps + _BALL_SLACK

    last = None, None, None

    def pareto_point(x: np.ndarray, tau: float) -> tuple[float, float, float]:
        """phi~, theta and the dual bound l(tau) at the iterate x of the cap tau.

        The last evaluation is kept, so the Newton loop reads the one the stop
        test made on the iterate a solve returns; iterates are never modified
        in place, so the iterate's identity and the cap identify it.
        """
        nonlocal last
        if last[0] is x and last[1] == tau:
            return last[2]
        r = a @ x - fv
        phi = _norm(r)
        if phi <= radius:
            point = phi, 0.0, phi
        else:
            theta = -_lambda_min(a, r, d)
            point = phi, theta, (-float(r @ fv) - tau * max(theta, 0.0)) / phi
        last = x, tau, point
        return point

    def gap_closed(phi: float, theta: float, lower: float) -> bool:
        return theta > 0.0 and lower - eps >= _GAP_FRACTION * (phi - eps)

    def settled(x: np.ndarray, tau: float) -> bool:
        # in the ball, ready for a step from the dual line, or certified infeasible
        phi, theta, lower = pareto_point(x, tau)
        return phi <= radius or gap_closed(phi, theta, lower) or (theta <= 0.0 and lower > radius)

    x = np.zeros(2 * d * d)
    tau = 0.0
    phi, theta, lower = pareto_point(x, tau)
    total = 0
    conv = True
    history = [phi] if keep_history else None
    for _ in range(_NEWTON_STEPS):
        if phi <= radius:
            break
        closed = gap_closed(phi, theta, lower)
        if theta <= 0.0 or (not closed and float(x[diag].sum()) < tau * (1.0 - 1e-9)):
            raise InfeasibleError(
                f"least residual {phi:.6e} over X >= 0 exceeds the ball radius {eps:.6e}",
                kind="ls_residual_exceeds_radius",
            )
        tau += ((lower if closed else phi) - eps) * phi / theta
        x, _, iters, conv, _ = _solve(
            value_grad, value, _project_psd(d, tau), x, step0, cfg, False,
            functools.partial(polish, cap=tau), _BALL_WARM_START,
            functools.partial(settled, tau=tau))
        total += iters
        phi, theta, lower = pareto_point(x, tau)
        if history is not None:
            history.append(phi)
    hist = np.array(history) if history is not None else None
    return _finish(x, d, float(x[diag].sum()), phi, total, conv and phi <= radius, hist)


def _likelihood(a: np.ndarray, fv: np.ndarray, mu: float):
    """Value and value-and-gradient in x of the likelihood program :func:`_likelihood_fit`."""
    return _objective(a, _likelihood_fit(fv, mu))


def estimate_mle(povm: Povm, f: MeasurementVector, eps: float,
                 cfg: SolverConfig = SolverConfig(),
                 keep_history: bool = False) -> EstimateReport:
    """Trace-one maximum likelihood inside a residual ball.

    Minimizes NLL(rho) = -sum_mu f_mu log Tr(E_mu rho) over density matrices
    rho with ||M[rho] - f||_2 <= eps, model probabilities clamped below at
    1e-12 inside the log.  Every solve runs on the shared core, the
    likelihood ones with the Newton polish of the likelihood, in three steps:

    1. The plain MLE rho_0 over density matrices.  If it lies in the ball,
       the ball is inactive and rho_0 is optimal.  Like every likelihood
       solve, it stops once its Frank-Wolfe gap is at most ``_FW_GAP`` of
       its objective (:func:`_frank_wolfe_gap`).
    2. Otherwise the least-residual density matrix rho_inf (least squares
       over density matrices, polished on the face Tr X = 1, stopped on its
       Frank-Wolfe gap <r, p> - lambda_min(M^dagger[r]) like the likelihood
       solves).  If even its residual exceeds eps, no density matrix lies in
       the ball:
       :class:`InfeasibleError` of kind ``"density_residual_exceeds_radius"``.
    3. Otherwise the ball is active.  rho(mu) minimizes
       NLL + (mu / 2) ||M[rho] - f||^2, and the multiplier mu is bracketed
       from 1 / ||r_0||^2 by factors of 4, then bisected in log mu, each
       solve warm-started.  A solve that lands in the ball gives a feasible
       point and, with its mu, the Lagrangian lower bound
       NLL(rho_mu) + (mu / 2)(||r_mu||^2 - eps^2) on the optimum.  The search
       stops when this pair's duality gap (mu / 2)(eps^2 - ||r_mu||^2) falls
       below ``_GAP_TOL`` relative, and returns the last feasible point
       (rho_inf, the end mu = infinity, if no solve lands in the ball).

    ``iterations`` counts the core iterations of every solve.
    ``keep_history`` records the NLL along the plain solve, or, when the ball
    is active, the NLL of the last feasible point after each multiplier solve.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_lengths(povm, f)
    d = povm.dim
    fv = f.values
    a, fit_value, fit_grad, fit_polish = _data_fit(povm, f)
    s2 = povm.norm_sq_bound
    lip = s2 * max(1.0, 1.0 / max(fv.max(), _LOG_CLAMP))
    density = _project_density(d)
    nll, _ = _likelihood(a, fv, 0.0)
    radius = eps + _BALL_SLACK

    def solve(mu: float, x0: np.ndarray, history: bool = False):
        fit = _likelihood_fit(fv, mu)
        value, value_grad = _objective(a, fit)
        polish = functools.partial(_fisher_polish_nll, povm.stack, a, fv, mu=mu)
        x, _, iters, conv, hist = _solve(
            value_grad, value, density, x0, 1.0 / (lip + mu * s2), cfg, history, polish,
            _BALL_WARM_START, certificate=_certificate(_frank_wolfe_gap(a, fit, d), _FW_GAP))
        return x, a @ x - fv, iters, conv, hist

    x0, r0, total, conv, hist = solve(0.0, _vec(np.eye(d, dtype=np.complex128) / d), keep_history)
    if _norm(r0) <= radius:
        return _finish(x0, d, nll(x0), _norm(r0), total, conv, hist)

    x_inf, _, iters, _, _ = _solve(
        fit_grad, fit_value, density, x0, 1.0 / s2, cfg, False,
        functools.partial(fit_polish, cap=1.0), _BALL_WARM_START,
        certificate=_certificate(_frank_wolfe_gap(a, _ls_fit(fv), d), _FW_GAP))
    total += iters
    r_inf = a @ x_inf - fv
    if _norm(r_inf) > radius:
        raise InfeasibleError(
            f"least residual {_norm(r_inf):.6e} over density matrices exceeds the ball "
            f"radius {eps:.6e}",
            kind="density_residual_exceeds_radius",
        )

    x_ball, r_ball, nll_ball = x_inf, r_inf, nll(x_inf)
    gap = math.inf
    mu_lo, mu_hi = 0.0, math.inf
    mu = 1.0 / float(r0 @ r0)
    x = x0
    history = [nll_ball] if keep_history else None
    for _ in range(_MULTIPLIER_SOLVES):
        x, r, iters, _, _ = solve(mu, x)
        total += iters
        rr = float(r @ r)
        if math.sqrt(rr) <= radius:
            mu_hi, x_ball, r_ball, nll_ball = mu, x, r, nll(x)
            gap = 0.5 * mu * (eps * eps - rr)
        else:
            mu_lo = mu
        if history is not None:
            history.append(nll_ball)
        if gap <= _GAP_TOL * abs(nll_ball):
            break
        if mu_hi == math.inf:
            mu *= 4.0
        elif mu_lo == 0.0:
            mu /= 4.0
        else:
            mu = math.sqrt(mu_lo * mu_hi)
    hist = np.array(history) if history is not None else None
    return _finish(x_ball, d, nll_ball, _norm(r_ball), total,
                   gap <= _GAP_TOL * abs(nll_ball), hist)


def default_epsilon(b: int, d: int, n_shots: int) -> float:
    """Residual-ball radius sqrt(b (1 - 1/d) / N) from multinomial variance at I/d."""
    if b < 1 or d < 1 or n_shots < 1:
        raise ValueError("b, d, and N must all be at least 1")
    return math.sqrt(b * (1.0 - 1.0 / d) / n_shots)
