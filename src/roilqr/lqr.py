"""Quadratic cost machinery, the Riccati-style backward pass, and the
dense stacked form of the perturbed quadratic (the backward pass's test
oracle, and the exact minimizer for bound verification).

Cost convention: J = sum_t [ 0.5 (x_t - g)^T Q (x_t - g) + 0.5 u_t^T R u_t ]
+ 0.5 (x_T - g)^T Q_T (x_T - g), Q = q I, Q_T = q_T I.  The expansion
:class:`ReducedCostTerms` and all below it stay general over a symmetric
state Hessian: scalar, diagonal or dense weights build the terms directly.

The backward pass works in whatever coordinates the supplied LTV model
lives in (reduced or full; full order is the identity-basis special
case).  Gains follow the convention du_t = -k_t - K_t dz_t, so k, K are
the positive-form products of the inverted control Hessian.  Both the
backward pass and the dense oracle solve through one Cholesky factor
(``np.linalg.cholesky``) and forward and back substitution; numpy is the
only numerical dependency.
"""

from dataclasses import dataclass

import numpy as np


class BackwardPassError(RuntimeError):
    """Control Hessian stayed non-PD at the regularization ceiling."""


class IndefiniteHessianError(RuntimeError):
    """Stacked dense Hessian is not positive definite."""


class CostModel:
    """Tracking cost toward ``goal``: scalars q, q_T >= 0 and SPD R."""

    def __init__(self, q, r, q_terminal, goal):
        self.goal = np.asarray(goal, dtype=np.float64)
        for name, w in (("q", q), ("q_terminal", q_terminal)):
            if np.ndim(w) != 0 or not 0.0 <= float(w) < np.inf:
                raise ValueError(f"{name} must be a finite scalar >= 0")
        self.q, self.q_terminal = float(q), float(q_terminal)
        r = np.asarray(r, dtype=np.float64)
        if r.ndim != 2:
            raise ValueError("control weight R must be an (n_u, n_u) matrix")
        try:
            np.linalg.cholesky(0.5 * (r + r.T))
        except np.linalg.LinAlgError:
            raise ValueError("control weight R must be positive definite")
        self.r = 0.5 * (r + r.T)

    @property
    def n_u(self):
        return self.r.shape[0]

    def state_cost(self, x, terminal=False):
        d = x - self.goal
        w = self.q_terminal if terminal else self.q
        return 0.5 * float(d @ (w * d))

    def control_cost(self, u):
        return 0.5 * float(u @ (self.r @ u))

    def state_grads(self, states):
        """Gradients Q (x_t - g) of the ``(T+1, n_x)`` state rows; the
        last row is terminal and takes ``q_terminal``."""
        grads = self.q * (states - self.goal)
        grads[-1] = self.q_terminal * (states[-1] - self.goal)
        return grads

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
    grads = cost.state_grads(nominal.states)
    if basis is None:
        gram = np.eye(grads.shape[1])
    else:
        grads = grads @ basis.phi
        gram = basis.phi.T @ basis.phi
    return ReducedCostTerms(
        lin_state=grads,
        quad_state=cost.q * gram,
        quad_terminal=cost.q_terminal * gram,
        lin_control=nominal.controls @ cost.r.T,
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


def _cho_solve(chol, rhs):
    """Solve L L^T X = ``rhs`` for the lower Cholesky factor L = ``chol``
    by forward and back substitution; ``rhs`` is (n,) or (n, k)."""
    x = np.array(rhs, dtype=np.float64)
    n = chol.shape[0]
    for i in range(n):
        x[i] = (x[i] - chol[i, :i] @ x[:i]) / chol[i, i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - chol[i + 1:, i] @ x[i + 1:]) / chol[i, i]
    return x


def backward_pass(ltv, terms, reg=None):
    """Backward-in-time value recursion producing the gain schedule.

    Q-function form: at each step the control Hessian gets mu*I damping
    through the next-step value Hessian (damping enters Q_uu and Q_uz
    only, never the stored value function).  A non-PD control Hessian
    bumps mu and retries the same timestep; exceeding the ceiling raises
    :class:`BackwardPassError`, as does a non-finite control Hessian or
    gain (damping cannot repair those).  A clean sweep relaxes mu once.
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
            if not np.isfinite(q_uu).all():
                raise BackwardPassError(
                    f"control Hessian not finite at timestep {t}")
            try:
                chol = np.linalg.cholesky(q_uu)
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
        gains_t = _cho_solve(chol, np.column_stack((q_u, q_uz)))
        if not np.isfinite(gains_t).all():
            raise BackwardPassError(f"gains not finite at timestep {t}")
        k_t, big_k_t = gains_t[:, 0], gains_t[:, 1:]
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
    stacked problems (T*n_u <= ``max_size``).  A non-finite stacked
    Hessian or gradient is a ``ValueError``.
    """
    m = ltv.horizon * ltv.n_u
    if m > max_size:
        raise ValueError(f"stacked size {m} exceeds oracle limit {max_size}")
    h, g = stack_quadratic(ltv, terms)
    if not (np.isfinite(h).all() and np.isfinite(g).all()):
        raise ValueError("stacked Hessian or gradient is not finite")
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise IndefiniteHessianError("stacked Hessian is not positive definite")
    du = -_cho_solve(chol, g)
    return du.reshape(ltv.horizon, ltv.n_u)

