"""PSD-constrained convex state estimation.

Three programs on one accelerated projected-gradient core: constrained least
squares, trace minimization inside a residual ball, and trace-one maximum
likelihood inside a residual ball.  Trace minimization is a root find on the
Pareto curve phi(tau) = min ||M[X] - f|| over {X >= 0, Tr X <= tau}: Newton
steps on tau solve phi(tau) = eps, each phi(tau) being the least-squares
program with a trace cap (van den Berg & Friedlander, SIAM J. Sci. Comput.
31, 890 (2008)).  Maximum likelihood handles its ball by a squared-hinge
penalty whose weight doubles until the ball is met.

Least squares and each point of the Pareto curve polish the iterate by
Levenberg-Marquardt on a low-rank factor X = V V^dagger: first after a short
warm start of 100 accelerated iterations, then after every 500.  On
noiseless records the first polish already reaches round-off.  When the
iterate sits on its trace cap the polish runs on the face Tr X = tau, on
X = tau V V^dagger / ||V||_F^2, so its candidate stays feasible and can be
adopted.  The penalty rounds of maximum likelihood have no polish and run
chunks of 500.

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
from .linalg import HermitianMatrix, hermitianize, project_simplex
from .povm import MeasurementVector, Povm


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the projected-gradient core."""

    max_iterations: int = 50_000
    relative_tolerance: float = 1e-9
    shrink: float = 0.5
    growth: float = 1.1
    restart: bool = True

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


def _operator_norm_sq(s: np.ndarray, iters: int = 40) -> float:
    """Squared spectral norm of S by power iteration on S^T S (deterministic start)."""
    n = s.shape[1]
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 1.0
    for _ in range(iters):
        w = s.T @ (s @ v)
        lam = np.linalg.norm(w)
        if lam <= 0:
            return 1.0
        v = w / lam
    return float(lam) * 1.05


def _fista(value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
           value: Callable[[np.ndarray], float],
           project: Callable[[np.ndarray], np.ndarray],
           x0: np.ndarray,
           step0: float,
           cfg: SolverConfig,
           keep_history: bool = False) -> tuple[np.ndarray, float, int, bool, np.ndarray | None]:
    """Monotone FISTA with backtracking line search and gradient restart.

    The reported objective sequence is non-increasing: a candidate that does
    not improve on the incumbent is rejected (the incumbent is kept) and the
    momentum sequence restarts.  Convergence is declared after
    ``_CONSECUTIVE_OK`` consecutive iterations whose relative objective
    change falls below the configured tolerance.
    """
    x = project(x0)
    y = x.copy()
    theta = 1.0
    f_x = value(x)
    t = step0
    streak = 0
    history = [f_x] if keep_history else None
    it = 0
    converged = False
    for it in range(1, cfg.max_iterations + 1):
        f_y, g_y = value_grad(y)
        shrunk = False
        while True:
            z = project(y - t * g_y)
            dz = z - y
            f_z = value(z)
            bound = f_y + g_y @ dz + (dz @ dz) / (2 * t) + 1e-18 * max(1.0, abs(f_y))
            if f_z <= bound or t < 1e-20:
                break
            t *= cfg.shrink
            shrunk = True
        if not shrunk:
            t *= cfg.growth
        accepted = f_z <= f_x
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        if accepted:
            x_next, f_next = z, f_z
            y = z + ((theta - 1.0) / theta_next) * (z - x)
            if cfg.restart and (y - z) @ (z - x) > 0:
                y = z.copy()
                theta_next = 1.0
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
            converged = True
            break
    hist = np.array(history) if history is not None else None
    return x, f_x, it, converged, hist


def _mat(x: np.ndarray, d: int) -> np.ndarray:
    """The d x d complex matrix whose real view is ``x`` (no copy)."""
    return x.view(np.complex128).reshape(d, d)


def _vec(m: np.ndarray) -> np.ndarray:
    """Real view of a complex matrix, length 2 d^2 (no copy when C-contiguous)."""
    return m.reshape(-1).view(np.float64)


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


def _norm(r: np.ndarray) -> float:
    return math.sqrt(float(r @ r))


def _project_psd(d: int, cap: float | None = None):
    """Projection onto {X >= 0}, or onto {X >= 0, Tr X <= cap} given a cap.

    The eigenvalues are clipped at zero; under a cap, if their sum still
    exceeds it they are projected onto the simplex of total ``cap`` instead.
    The uncapped projection skips the rebuild of a PSD input; LS runs it
    hundreds of times a call, so it carries no trace test.
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


def _lm_residual_polish(stack: np.ndarray, a: np.ndarray, fv: np.ndarray,
                        x: np.ndarray, iters: int = 150,
                        cap: float | None = None) -> np.ndarray | None:
    """Refine the data fit on a low-rank spectral factor of the iterate.

    Projected gradient crawls when the optimum sits on a degenerate face of
    the PSD cone (small probe families have recovery constants of order
    10^3, so certifying 1e-5 infidelity needs residuals near 1e-9).  This
    stage factors the iterate as X = V V^dagger at its numerical rank and
    drives ||M[V V^dagger] - f|| down by Levenberg-Marquardt, which is
    immune to the cone geometry.  Given a ``cap`` that the iterate's trace
    meets, the fit runs on the face Tr X = cap instead, on
    X = cap V V^dagger / ||V||_F^2 (Burer & Monteiro, Math. Program. 95, 329
    (2003)), so the refined matrix stays inside {X >= 0, Tr X <= cap}.
    Returns the real view of the refined matrix, or None when the iterate
    is essentially zero.
    """
    d = stack.shape[1]
    w, vecs = np.linalg.eigh(_mat(x, d))
    lmax = float(w[-1])
    if lmax <= 1e-12:
        return None
    if cap is not None and float(w.sum()) < cap * (1.0 - 1e-9):
        cap = None  # below the cap, which is then inactive
    r_hat = min(d, int((w > 1e-3 * lmax).sum()) + 1)
    idx = np.argsort(w)[::-1][:r_hat]
    v = vecs[:, idx] * np.sqrt(np.maximum(w[idx], 0.0))

    def matrix(vv: np.ndarray) -> np.ndarray:
        xx = vv @ vv.conj().T
        return xx if cap is None else (cap / float(np.sum((vv.conj() * vv).real))) * xx

    def residual(vv: np.ndarray) -> np.ndarray:
        return a @ _vec(matrix(vv)) - fv

    r = residual(v)
    obj = 0.5 * float(r @ r)
    mu = 1e-3
    eye = np.eye(2 * v.size)
    for _ in range(iters):
        j = _factor_jacobian(stack, v, r + fv, cap)
        g = j.T @ r
        a_lm = j.T @ j
        accepted = False
        for _ in range(30):
            try:
                delta = np.linalg.solve(a_lm + mu * eye, -g)
            except np.linalg.LinAlgError:
                mu *= 4.0
                continue
            v_new = v + delta.view(np.complex128).reshape(v.shape)
            r_new = residual(v_new)
            obj_new = 0.5 * float(r_new @ r_new)
            if obj_new < obj:
                accepted = True
                mu = max(mu * 0.3, 1e-12)
                break
            mu *= 4.0
        if not accepted:
            break
        v, r, obj = v_new, r_new, obj_new
        if obj < 1e-28:
            break
    return _vec(matrix(v))


def _project_density(d: int):
    def proj(x: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(_mat(x, d))
        w = project_simplex(w)
        return _vec((v * w) @ v.conj().T)

    return proj


def _fisher_polish_nll(stack: np.ndarray, a: np.ndarray, fv: np.ndarray,
                       x: np.ndarray, iters: int = 120) -> np.ndarray | None:
    """Damped Fisher scoring for the log-likelihood on a trace-normalized factor.

    Likelihood surfaces near flat directions leave first-order methods with
    large state error at tiny objective error; scoring with the Fisher
    information metric removes that.  Returns the real view of the refined
    density matrix, or None when the iterate is essentially zero.
    """
    d = stack.shape[1]
    w, vecs = np.linalg.eigh(_mat(x, d))
    lmax = float(w[-1])
    if lmax <= 1e-12:
        return None
    active = fv > 0
    fa = fv[active]
    r_hat = min(d, int((w > 1e-6 * lmax).sum()))
    idx = np.argsort(w)[::-1][:r_hat]
    v = vecs[:, idx] * np.sqrt(np.maximum(w[idx], 1e-15))

    def nll_of(vv: np.ndarray) -> tuple[float, np.ndarray]:
        tau = float(np.sum((vv.conj() * vv).real))
        rho = (vv @ vv.conj().T) / tau
        p = np.maximum(a @ _vec(rho), _LOG_CLAMP)
        return -float(fa @ np.log(p[active])), p

    obj, p = nll_of(v)
    mu = 1e-2
    eye = np.eye(2 * v.size)
    for _ in range(iters):
        # the likelihood sees rho = V V^dagger / ||V||^2, the factor map with cap 1
        jac = _factor_jacobian(stack, v, p, 1.0)
        weights = np.where(active, fv / (p * p), 0.0)
        grad = -jac.T @ np.where(active, fv / p, 0.0)
        fisher = (jac * weights[:, None]).T @ jac
        accepted = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(fisher + mu * eye, -grad)
            except np.linalg.LinAlgError:
                mu *= 4.0
                continue
            v_new = v + delta.view(np.complex128).reshape(v.shape)
            obj_new, p_new = nll_of(v_new)
            if obj_new < obj:
                accepted = True
                mu = max(mu * 0.3, 1e-10)
                break
            mu *= 4.0
        if not accepted:
            break
        rel = (obj - obj_new) / max(abs(obj), 1e-300)
        v, obj, p = v_new, obj_new, p_new
        if rel < 1e-14:
            break
    rho = (v @ v.conj().T) / float(np.sum((v.conj() * v).real))
    return _vec(rho)


_CHUNK = 500
# FISTA iterations before the first polish: on noiseless records the polish
# reaches round-off from here, and later chunks are _CHUNK long
_WARM_START = 100
# residual-ball slack accepted by the ball-constrained programs
_BALL_SLACK = 1e-9
# cap on Newton steps along the Pareto curve; Fig-2 records take 4 to 7
_NEWTON_STEPS = 100


def _solve(value_grad, value, project, x0, step0, cfg: SolverConfig,
           keep_history: bool,
           polish: Callable[[np.ndarray], np.ndarray | None] | None = None,
           ) -> tuple[np.ndarray, float, int, bool, np.ndarray | None]:
    """Accelerated projected gradient interleaved with an optional polish.

    After every chunk of iterations ``polish`` (when given) maps the iterate
    to a candidate, or to None.  The first chunk is a short warm start of
    ``_WARM_START`` iterations, the later ones ``_CHUNK`` long; without a
    polish every chunk is ``_CHUNK`` long.  A candidate is projected back
    onto the feasible set and adopted only when it lowers the program
    objective, so the reported objective sequence stays non-increasing and
    the result remains a solution of the convex program, never merely of
    the factored surrogate.
    """
    x = project(np.asarray(x0, dtype=float))
    f_x = value(x)
    total = 0
    converged = False
    history = [f_x] if keep_history else None
    while total < cfg.max_iterations:
        chunk = _WARM_START if polish is not None and total == 0 else _CHUNK
        budget = min(chunk, cfg.max_iterations - total)
        chunk_cfg = SolverConfig(max_iterations=budget,
                                 relative_tolerance=cfg.relative_tolerance,
                                 shrink=cfg.shrink, growth=cfg.growth,
                                 restart=cfg.restart)
        x, f_x, used, chunk_conv, hist = _fista(value_grad, value, project, x,
                                                step0, chunk_cfg, keep_history)
        total += used
        if history is not None and hist is not None:
            history.extend(hist[1:])
        improved = False
        if polish is not None:
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
        if chunk_conv and not improved:
            converged = True
            break
    hist_arr = np.array(history) if history is not None else None
    return x, f_x, total, converged, hist_arr


def _check_lengths(povm: Povm, f: MeasurementVector):
    if len(f) != len(povm):
        raise ValueError(
            f"measurement vector has {len(f)} entries but the POVM has {len(povm)} elements"
        )


def _finish(x: np.ndarray, d: int, objective: float, residual: float,
            iterations: int, converged: bool, history,
            normalize: bool = True) -> EstimateReport:
    raw = HermitianMatrix(hermitianize(_mat(x, d)))
    tr = float(np.trace(raw.mat).real)
    if tr <= 1e-12:
        raise DegenerateEstimateError(
            f"optimizer returned a matrix with trace {tr:.3e}; no state can be formed"
        )
    estimate = HermitianMatrix(raw.mat / tr) if normalize else raw
    return EstimateReport(estimate, raw, objective, residual, iterations, converged, history)


def _data_fit(povm: Povm, fv: np.ndarray):
    """Value, value-and-gradient and LM polish of 0.5 ||A x - f||^2."""
    a = _measurement_map(povm)

    def value(x: np.ndarray) -> float:
        r = a @ x - fv
        return 0.5 * float(r @ r)

    def value_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        r = a @ x - fv
        return 0.5 * float(r @ r), a.T @ r

    def polish(x: np.ndarray, cap: float | None = None) -> np.ndarray | None:
        return _lm_residual_polish(povm.stack, a, fv, x, cap=cap)

    return a, value, value_grad, polish


def estimate_ls(povm: Povm, f: MeasurementVector,
                cfg: SolverConfig = SolverConfig(),
                keep_history: bool = False) -> EstimateReport:
    """Constrained least squares: minimize ||M[X] - f||_2 over X >= 0."""
    _check_lengths(povm, f)
    d = povm.dim
    _, value, value_grad, polish = _data_fit(povm, f.values)
    # ||A|| = ||S||; the power iteration runs in the d^2 Hermitian coordinates
    # of S, where its constant start vector is a Hermitian matrix
    lip = _operator_norm_sq(povm.coefficient_matrix)
    x, f_x, iters, conv, hist = _solve(
        value_grad, value, _project_psd(d), np.zeros(2 * d * d), 1.0 / lip, cfg,
        keep_history, polish,
    )
    residual = math.sqrt(2.0 * max(f_x, 0.0))
    return _finish(x, d, residual, residual, iters, conv, hist)


def _penalized(povm: Povm, f: MeasurementVector, eps: float, cfg: SolverConfig,
               base_value: Callable, base_grad: Callable,
               project, x0: np.ndarray, step0: float,
               keep_history: bool) -> tuple[np.ndarray, float, int, bool, np.ndarray | None, float]:
    """Solve min base(x) s.t. ||Ax - f|| <= eps via a squared-hinge penalty.

    The penalty weight doubles until the ball constraint is met.  At each
    weight the penalized value of the inner iterate lower-bounds the true
    optimum, so a running feasible incumbent (from the data-fit polish) can
    be returned as soon as its base value matches that bound; this is what
    terminates the loop on degenerate instances where the plain iterate
    approaches feasibility only as the weight diverges.
    """
    a = _measurement_map(povm)
    fv = f.values
    lam = 1.0
    x = x0
    total_iters = 0
    lam_max = 1e16
    # later rounds are warm-started; give each a bounded slice of the budget
    round_budget = max(200, min(cfg.max_iterations, 600))
    round_cfg = SolverConfig(max_iterations=round_budget,
                             relative_tolerance=cfg.relative_tolerance,
                             shrink=cfg.shrink, growth=cfg.growth, restart=cfg.restart)
    incumbent = None
    incumbent_base = np.inf
    best_fit = None
    best_fit_resid = np.inf
    while True:
        def value(xx: np.ndarray) -> float:
            r = a @ xx - fv
            gap = max(_norm(r) - eps, 0.0)
            return base_value(xx, r) + lam * gap * gap

        def value_grad(xx: np.ndarray) -> tuple[float, np.ndarray]:
            r = a @ xx - fv
            nrm = _norm(r)
            gap = max(nrm - eps, 0.0)
            val = base_value(xx, r) + lam * gap * gap
            grad = base_grad(xx, r)
            if gap > 0.0 and nrm > 0.0:
                grad = grad + (2.0 * lam * gap / nrm) * (a.T @ r)
            return val, grad

        x, f_x, iters, conv, hist = _solve(value_grad, value, project, x, step0,
                                           round_cfg, keep_history)
        total_iters += iters
        resid = _norm(a @ x - fv)
        if resid <= eps + _BALL_SLACK:
            return x, f_x, total_iters, conv, hist, resid
        # refine the raw data fit, chaining from the best fit found so far
        xc = _lm_residual_polish(povm.stack, a, fv,
                                 best_fit if best_fit is not None else x, iters=400)
        if xc is not None:
            rc_raw = _norm(a @ xc - fv)
            if rc_raw < best_fit_resid:
                best_fit, best_fit_resid = xc, rc_raw
            xcp = project(xc)
            rc = a @ xcp - fv
            if _norm(rc) <= eps + _BALL_SLACK:
                bc = base_value(xcp, rc)
                if bc < incumbent_base:
                    incumbent, incumbent_base = xcp, bc
        if incumbent is not None and (conv or lam >= 64.0):
            # the (near-)converged iterate's base value lower-bounds the optimum
            base_x = base_value(x, a @ x - fv)
            if incumbent_base <= base_x + 1e-5 * max(1.0, abs(incumbent_base)):
                resid_inc = _norm(a @ incumbent - fv)
                return incumbent, incumbent_base, total_iters, True, hist, resid_inc
        lam *= 2.0
        if lam > lam_max:
            raise InfeasibleError(
                f"residual {resid:.3e} cannot be brought inside the ball of radius {eps:.3e}"
            )


def estimate_trace_min(povm: Povm, f: MeasurementVector, eps: float,
                       cfg: SolverConfig = SolverConfig(),
                       keep_history: bool = False) -> EstimateReport:
    """Trace minimization: minimize Tr(X) s.t. ||M[X] - f||_2 <= eps, X >= 0.

    Solves phi(tau) = eps on the Pareto curve phi(tau) = min ||M[X] - f||
    over {X >= 0, Tr X <= tau}.  phi is convex and decreasing, with
    phi'(tau) = -theta / phi where theta = lambda_max(-M^dagger[r]) and
    r = M[X] - f at the capped optimum, so Newton steps from tau = 0 approach
    eps from above.  Each phi(tau) is the least-squares program with a trace
    cap, warm-started from the previous point; its polish runs on the face
    Tr X = tau whenever the iterate meets the cap.  ``keep_history`` records
    phi after each Newton step.

    Raises :class:`InfeasibleError` of kind ``"ls_residual_exceeds_radius"``
    when the cap goes inactive while phi is still above the radius: the
    least residual over X >= 0 then exceeds eps.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_lengths(povm, f)
    d = povm.dim
    fv = f.values
    a, value, value_grad, polish = _data_fit(povm, fv)
    # Re X_ii sits at 2 i (d + 1) in the real view of X
    diag = slice(None, None, 2 * (d + 1))
    step0 = 1.0 / _operator_norm_sq(povm.coefficient_matrix)
    x = np.zeros(2 * d * d)
    r = -fv
    phi = _norm(r)
    tau = 0.0
    total = 0
    conv = True
    history = [phi] if keep_history else None
    for _ in range(_NEWTON_STEPS):
        if phi <= eps + _BALL_SLACK:
            break
        theta = -float(np.linalg.eigh(_mat(a.T @ r, d))[0][0])
        if theta <= 0.0 or float(x[diag].sum()) < tau * (1.0 - 1e-9):
            raise InfeasibleError(
                f"least residual {phi:.6e} over X >= 0 exceeds the ball radius {eps:.6e}",
                kind="ls_residual_exceeds_radius",
            )
        tau += (phi - eps) * phi / theta
        x, _, iters, conv, _ = _solve(value_grad, value, _project_psd(d, tau), x, step0,
                                      cfg, False, functools.partial(polish, cap=tau))
        total += iters
        r = a @ x - fv
        phi = _norm(r)
        if history is not None:
            history.append(phi)
    hist = np.array(history) if history is not None else None
    return _finish(x, d, float(x[diag].sum()), phi, total,
                   conv and phi <= eps + _BALL_SLACK, hist)


_LOG_CLAMP = 1e-12


def estimate_mle(povm: Povm, f: MeasurementVector, eps: float,
                 cfg: SolverConfig = SolverConfig(),
                 keep_history: bool = False) -> EstimateReport:
    """Trace-one maximum likelihood inside a residual ball.

    Minimizes -sum_mu f_mu log Tr(E_mu rho) over density matrices, with model
    probabilities clamped below at 1e-12 inside the log and the same
    penalty scheme enforcing ||M[rho] - f||_2 <= eps.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_lengths(povm, f)
    d = povm.dim
    a = _measurement_map(povm)
    fv = np.maximum(f.values, 0.0)
    active = fv > 0

    def base_value(x: np.ndarray, r: np.ndarray) -> float:
        p = np.maximum(r + fv, _LOG_CLAMP)
        return -float(fv[active] @ np.log(p[active]))

    def base_grad(x: np.ndarray, r: np.ndarray) -> np.ndarray:
        p = np.maximum(r + fv, _LOG_CLAMP)
        w = np.where(active, fv / p, 0.0)
        return -(a.T @ w)

    lip = _operator_norm_sq(povm.coefficient_matrix) * max(1.0, 1.0 / max(fv.max(), _LOG_CLAMP))
    x0 = _vec(np.eye(d, dtype=np.complex128) / d)
    project = _project_density(d)
    x, f_x, iters, conv, hist, resid = _penalized(
        povm, f, eps, cfg, base_value, base_grad, project, x0, 1.0 / lip, keep_history,
    )

    def nll_at(xx: np.ndarray) -> float:
        p = np.maximum(a @ xx, _LOG_CLAMP)
        return -float(fv[active] @ np.log(p[active]))

    # likelihood refinement: keep only if it improves the program, feasibility included
    xp = _fisher_polish_nll(povm.stack, a, fv, x)
    if xp is not None:
        xp = project(xp)
        resid_p = _norm(a @ xp - fv)
        if resid_p <= eps + _BALL_SLACK and nll_at(xp) < nll_at(x):
            x, resid = xp, resid_p
            conv = True  # scoring stalls only at a stationary likelihood point
    objective = nll_at(x)
    return _finish(x, d, objective, resid, iters, conv and resid <= eps + _BALL_SLACK, hist,
                   normalize=True)


def default_epsilon(b: int, d: int, n_shots: int) -> float:
    """Residual-ball radius sqrt(b (1 - 1/d) / N) from multinomial variance at I/d."""
    if b < 1 or d < 1 or n_shots < 1:
        raise ValueError("b, d, and N must all be at least 1")
    return math.sqrt(b * (1.0 - 1.0 / d) / n_shots)
