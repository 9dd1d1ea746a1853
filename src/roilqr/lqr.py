"""Quadratic cost machinery, the Riccati-style backward pass, and the
dense stacked form of the perturbed quadratic (the backward pass's test
oracle, and the exact minimizer for bound verification).

Cost convention: J = sum_t [ 0.5 (x_t - g)^T Q (x_t - g) + 0.5 u_t^T R u_t ]
+ 0.5 (x_T - g)^T Q_T (x_T - g).  State weights may be scalar, diagonal
(1-D) or full matrices; large grids should use diagonal weights.

The backward pass works in whatever coordinates the supplied LTV model
lives in (reduced or full; full order is the identity-basis special
case).  Gains follow the convention du_t = -k_t - K_t dz_t, so k, K are
the positive-form products of the inverted control Hessian.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


class BackwardPassError(RuntimeError):
    """Control Hessian stayed non-PD at the regularization ceiling."""


class IndefiniteHessianError(RuntimeError):
    """Stacked dense Hessian is not positive definite."""


def _weight_matvec(w, x):
    w = np.asarray(w)
    if w.ndim == 0:
        return w * x
    if w.ndim == 1:
        return (x.T * w).T if x.ndim > 1 else w * x
    return w @ x


def _weight_project(w, phi):
    """phi^T W phi for scalar / diagonal / dense W."""
    w = np.asarray(w)
    if w.ndim == 0:
        return float(w) * (phi.T @ phi)
    if w.ndim == 1:
        return phi.T @ (w[:, None] * phi)
    return phi.T @ w @ phi


class CostModel:
    """Quadratic tracking cost toward a goal state."""

    def __init__(self, q, r, q_terminal, goal):
        self.goal = np.asarray(goal, dtype=np.float64)
        self.q = self._check_state_weight(q, "q")
        self.q_terminal = self._check_state_weight(q_terminal, "q_terminal")
        r = np.asarray(r, dtype=np.float64)
        if r.ndim == 0:
            r = np.atleast_2d(r)
        elif r.ndim == 1:
            r = np.diag(r)
        try:
            np.linalg.cholesky(0.5 * (r + r.T))
        except np.linalg.LinAlgError:
            raise ValueError("control weight R must be positive definite")
        self.r = 0.5 * (r + r.T)

    @staticmethod
    def _check_state_weight(w, name):
        w = np.asarray(w, dtype=np.float64)
        if w.ndim == 0:
            if w < 0:
                raise ValueError(f"{name} must be PSD")
        elif w.ndim == 1:
            if np.any(w < 0):
                raise ValueError(f"{name} must be PSD")
        else:
            w = 0.5 * (w + w.T)
            if np.min(np.linalg.eigvalsh(w)) < -1e-10 * max(
                1.0, float(np.max(np.abs(w)))
            ):
                raise ValueError(f"{name} must be PSD")
        return w

    @property
    def n_u(self):
        return self.r.shape[0]

    def state_cost(self, x, terminal=False):
        d = x - self.goal
        w = self.q_terminal if terminal else self.q
        return 0.5 * float(d @ _weight_matvec(w, d))

    def control_cost(self, u):
        return 0.5 * float(u @ (self.r @ u))

    def state_grad(self, x, terminal=False):
        w = self.q_terminal if terminal else self.q
        return _weight_matvec(w, x - self.goal)

    def trajectory_cost(self, traj):
        total = sum(
            self.state_cost(traj.states[t]) + self.control_cost(traj.controls[t])
            for t in range(traj.horizon)
        )
        return total + self.state_cost(traj.states[-1], terminal=True)


@dataclass
class ReducedCostTerms:
    """Cost expansion along a nominal trajectory, in model coordinates.

    ``lin_state[t]`` is the projected gradient (terminal row included),
    ``quad_state`` / ``quad_terminal`` the projected Hessians, and
    ``lin_control[t] = R u_t`` the control-linear terms.
    """

    lin_state: np.ndarray    # (T+1, d)
    quad_state: np.ndarray   # (d, d)
    quad_terminal: np.ndarray
    lin_control: np.ndarray  # (T, n_u)
    r: np.ndarray            # (n_u, n_u)

    @property
    def horizon(self):
        return self.lin_control.shape[0]

    @property
    def dim(self):
        return self.lin_state.shape[1]


def reduce_cost(cost, nominal, basis=None):
    """Project the cost expansion along the nominal onto the basis.

    With ``basis=None`` (identity) the terms are the full-order expansion.
    """
    horizon = nominal.horizon
    grads = np.empty((horizon + 1, nominal.states.shape[1]))
    for t in range(horizon):
        grads[t] = cost.state_grad(nominal.states[t])
    grads[horizon] = cost.state_grad(nominal.states[horizon], terminal=True)
    lin_control = nominal.controls @ cost.r.T

    if basis is None:
        n = nominal.states.shape[1]
        q = cost.q if np.ndim(cost.q) == 2 else np.diag(
            np.broadcast_to(np.atleast_1d(cost.q), (n,)).astype(float))
        qt = cost.q_terminal if np.ndim(cost.q_terminal) == 2 else np.diag(
            np.broadcast_to(np.atleast_1d(cost.q_terminal), (n,)).astype(float))
        return ReducedCostTerms(
            lin_state=grads, quad_state=np.asarray(q, dtype=float),
            quad_terminal=np.asarray(qt, dtype=float),
            lin_control=lin_control, r=cost.r,
        )
    return ReducedCostTerms(
        lin_state=grads @ basis.phi,
        quad_state=_weight_project(cost.q, basis.phi),
        quad_terminal=_weight_project(cost.q_terminal, basis.phi),
        lin_control=lin_control,
        r=cost.r,
    )


@dataclass
class Regularizer:
    """Levenberg-style damping schedule for the control Hessian."""

    mu: float = 1e-6
    grow: float = 10.0
    shrink: float = 0.5
    mu_min: float = 1e-9
    mu_max: float = 1e6

    def __post_init__(self):
        if not (0.0 <= self.mu_min <= self.mu <= self.mu_max):
            raise ValueError("need 0 <= mu_min <= mu <= mu_max")

    def increase(self):
        self.mu = max(self.mu * self.grow, self.mu_min, 1e-9)

    def decrease(self):
        self.mu = max(self.mu * self.shrink, self.mu_min)


@dataclass
class GainSchedule:
    """Feedback law du_t = -k_t - K_t dz_t plus the value recursion.

    ``sum_k_qu`` and ``sum_k_quu_k`` accumulate k^T Q_u and k^T Q_uu k
    over the horizon; the predicted cost decrease of a step scaled by
    ``alpha`` is alpha * sum_k_qu - alpha^2/2 * sum_k_quu_k.
    """

    k: np.ndarray            # (T, n_u)
    K: np.ndarray            # (T, n_u, d)
    v: np.ndarray            # (T+1, d)
    V: np.ndarray            # (T+1, d, d)
    sum_k_qu: float
    sum_k_quu_k: float

    def expected_improvement(self, alpha):
        return alpha * self.sum_k_qu - 0.5 * alpha * alpha * self.sum_k_quu_k


def backward_pass(ltv, terms, reg=None):
    """Backward-in-time value recursion producing the gain schedule.

    Q-function form: at each step the control Hessian gets mu*I damping
    through the next-step value Hessian (damping enters Q_uu and Q_uz
    only, never the stored value function).  A non-PD control Hessian
    bumps mu and retries the same timestep; exceeding the ceiling raises
    :class:`BackwardPassError`.  A clean sweep relaxes mu once.
    """
    if reg is None:
        reg = Regularizer()
    horizon, dim = ltv.horizon, ltv.dim
    n_u = ltv.n_u
    if terms.dim != dim or terms.horizon != horizon:
        raise ValueError("cost terms and LTV model disagree on dimensions")

    k_all = np.empty((horizon, n_u))
    big_k = np.empty((horizon, n_u, dim))
    v = np.empty((horizon + 1, dim))
    big_v = np.empty((horizon + 1, dim, dim))
    v[horizon] = terms.lin_state[horizon]
    big_v[horizon] = 0.5 * (terms.quad_terminal + terms.quad_terminal.T)

    sum_k_qu = 0.0
    sum_k_quu_k = 0.0
    bumped = False
    eye = np.eye(dim)
    for t in range(horizon - 1, -1, -1):
        a_t, b_t = ltv.A[t], ltv.B[t]
        while True:
            v_next = big_v[t + 1]
            v_damped = v_next + reg.mu * eye
            q_z = terms.lin_state[t] + a_t.T @ v[t + 1]
            q_u = terms.lin_control[t] + b_t.T @ v[t + 1]
            q_zz = terms.quad_state + a_t.T @ v_next @ a_t
            q_uz = b_t.T @ v_damped @ a_t
            q_uu = terms.r + b_t.T @ v_damped @ b_t
            q_uu = 0.5 * (q_uu + q_uu.T)
            try:
                chol = sla.cho_factor(q_uu, lower=True)
            except np.linalg.LinAlgError:
                if reg.mu >= reg.mu_max:
                    raise BackwardPassError(
                        f"control Hessian non-PD at timestep {t} with "
                        f"mu at ceiling {reg.mu_max:g}"
                    )
                reg.increase()
                bumped = True
                continue
            break
        k_t = sla.cho_solve(chol, q_u)
        big_k_t = sla.cho_solve(chol, q_uz)
        k_all[t] = k_t
        big_k[t] = big_k_t
        v[t] = q_z + big_k_t.T @ (q_uu @ k_t) - big_k_t.T @ q_u - q_uz.T @ k_t
        vt = q_zz + big_k_t.T @ (q_uu @ big_k_t) - big_k_t.T @ q_uz \
            - q_uz.T @ big_k_t
        big_v[t] = 0.5 * (vt + vt.T)
        sum_k_qu += float(k_t @ q_u)
        sum_k_quu_k += float(k_t @ (q_uu @ k_t))
    if not bumped:
        reg.decrease()
    return GainSchedule(k=k_all, K=big_k, v=v, V=big_v,
                        sum_k_qu=sum_k_qu, sum_k_quu_k=sum_k_quu_k)


def stack_quadratic(ltv, terms):
    """Dense stacked form of the perturbed objective.

    Returns (H, g) with objective(dU) = 0.5 dU^T H dU + g^T dU over the
    flattened control perturbation of length T*n_u.
    """
    horizon, dim, n_u = ltv.horizon, ltv.dim, ltv.n_u
    m = horizon * n_u
    f_maps = np.zeros((horizon + 1, dim, m))
    for t in range(horizon):
        f_maps[t + 1] = ltv.A[t] @ f_maps[t]
        f_maps[t + 1][:, t * n_u:(t + 1) * n_u] += ltv.B[t]
    h = np.zeros((m, m))
    g = np.zeros(m)
    for t in range(horizon + 1):
        w = terms.quad_terminal if t == horizon else terms.quad_state
        wf = w @ f_maps[t]
        h += f_maps[t].T @ wf
        g += f_maps[t].T @ terms.lin_state[t]
    for t in range(horizon):
        sl = slice(t * n_u, (t + 1) * n_u)
        h[sl, sl] += terms.r
        g[sl] += terms.lin_control[t]
    return 0.5 * (h + h.T), g


def quad_objective(ltv, terms, du):
    """Perturbed objective at a control perturbation ``du`` (T, n_u).

    Returns ``(value, deviations)`` with the (T+1, d) deviation states
    the perturbation drives the LTV model through.
    """
    dz = np.zeros(ltv.dim)
    devs = np.empty((ltv.horizon + 1, ltv.dim))
    devs[0] = dz
    val = 0.0
    for t in range(ltv.horizon):
        val += float(terms.lin_state[t] @ dz)
        val += 0.5 * float(dz @ (terms.quad_state @ dz))
        val += float(terms.lin_control[t] @ du[t])
        val += 0.5 * float(du[t] @ (terms.r @ du[t]))
        dz = ltv.A[t] @ dz + ltv.B[t] @ du[t]
        devs[t + 1] = dz
    val += float(terms.lin_state[-1] @ dz)
    val += 0.5 * float(dz @ (terms.quad_terminal @ dz))
    return val, devs


def lqr_solve_dense(ltv, terms, max_size=500):
    """Exact minimizer of the perturbed objective by one dense solve.

    Independent oracle for the backward pass; restricted to small
    stacked problems (T*n_u <= ``max_size``).
    """
    m = ltv.horizon * ltv.n_u
    if m > max_size:
        raise ValueError(f"stacked size {m} exceeds oracle limit {max_size}")
    h, g = stack_quadratic(ltv, terms)
    try:
        chol = sla.cho_factor(h, lower=True)
    except np.linalg.LinAlgError:
        raise IndefiniteHessianError("stacked Hessian is not positive definite")
    du = -sla.cho_solve(chol, g)
    return du.reshape(ltv.horizon, ltv.n_u)

