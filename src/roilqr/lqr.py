"""Quadratic cost machinery, the Riccati-style backward pass, and the
dense stacked form of the perturbed quadratic: its one evaluator, from
which bound verification reads every value, deviation and exact
minimizer, and the backward pass's test oracle.

Cost convention: J = sum_t [ 0.5 (x_t - g)^T Q (x_t - g) + 0.5 u_t^T R u_t ]
+ 0.5 (x_T - g)^T Q_T (x_T - g), Q = q I, Q_T = q_T I.  The expansion
:class:`ReducedCostTerms` and all below it stay general over a symmetric
state Hessian: scalar, diagonal or dense weights build the terms directly.
A state weight is a (d, d) array or a scalar meaning scalar * I; the
full-order expansion keeps q and q_T as scalars, so no (d, d) weight
exists at full order, and every reader applies a weight through
:func:`apply_weight`.

The backward pass works in whatever coordinates the supplied LTV model
lives in (reduced or full; full order is the identity-basis special
case).  Neither it nor the stacked form reads A: the sensitivity maps
and the products A_t^T X and X^T A_t are the model's
(:class:`roilqr.sysid.LtvModel`), and B and the dims are all else they
read.  Gains follow the convention du_t = -k_t - K_t dz_t, so k, K are
the positive-form products of the inverted control Hessian.  The
backward pass never forms a d x d value Hessian: O(T^2 d^2 n_u) work in
place of the O(T d^3) of the V-forming sweep.  Both it and
:func:`stacked_minimizer` solve through one Cholesky factor
(``np.linalg.cholesky``) and forward and back substitution; numpy is
the only numerical dependency.
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
    ``quad_state`` / ``quad_terminal`` the projected Hessians, each a
    (d, d) array or a scalar meaning scalar * I (read them through
    :func:`apply_weight`), and ``lin_control[t] = R u_t`` the
    control-linear terms.
    """

    lin_state: np.ndarray    # (T+1, d)
    quad_state: np.ndarray   # (d, d), or a scalar meaning scalar * I
    quad_terminal: np.ndarray
    lin_control: np.ndarray  # (T, n_u)
    r: np.ndarray            # (n_u, n_u)

    @property
    def horizon(self):
        return self.lin_control.shape[0]

    @property
    def dim(self):
        return self.lin_state.shape[1]


def apply_weight(w, f):
    """The state weight ``w`` applied to ``f`` ((d,) or (d, k)): ``w * f``
    for a scalar weight (scalar * I), ``w @ f`` for a (d, d) one."""
    return w * f if np.ndim(w) == 0 else w @ f


def reduce_cost(cost, nominal, basis=None):
    """Project the cost expansion along the nominal onto the basis.

    With ``basis=None`` (identity) the terms are the full-order expansion,
    whose state weights are the scalars q and q_T (meaning q I, q_T I).
    """
    grads = cost.state_grads(nominal.states)
    if basis is None:
        gram = 1.0   # the identity, as a scalar weight
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


_MU_GROW = 10.0     # damping factor after a failed factorization
_MU_SHRINK = 0.5    # and after a backward pass without one


@dataclass
class Regularizer:
    """Levenberg-style damping schedule for the control Hessian."""

    mu: float = 1e-6
    mu_min: float = 1e-9
    mu_max: float = 1e6

    def __post_init__(self):
        if not (0.0 <= self.mu_min <= self.mu <= self.mu_max):
            raise ValueError("need 0 <= mu_min <= mu <= mu_max")

    def increase(self):
        self.mu = max(self.mu * _MU_GROW, self.mu_min, 1e-9)

    def decrease(self):
        self.mu = max(self.mu * _MU_SHRINK, self.mu_min)


@dataclass
class GainSchedule:
    """Feedback law du_t = -k_t - K_t dz_t plus the value recursion.

    ``v`` holds the value gradients of every timestep; no value Hessian
    is kept (the backward pass never forms one).  ``sum_k_qu`` and
    ``sum_k_quu_k`` accumulate k^T Q_u and k^T Q_uu k over the horizon;
    the predicted cost decrease of a step scaled by ``alpha`` is
    alpha * sum_k_qu - alpha^2/2 * sum_k_quu_k.
    """

    k: np.ndarray            # (T, n_u)
    K: np.ndarray            # (T, n_u, d)
    v: np.ndarray            # (T+1, d)
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

    V_{t+1} is needed only through V_{t+1} B_t and V_{t+1} A_t, so the
    sweep carries G_t = V_t F_t, where the (d, t n_u) sensitivity F_t
    maps u_0..u_{t-1} to z_t (F_0 empty, F_{t+1} = [A_t F_t | B_t]): the
    last block of G_{t+1} is V_{t+1} B_t, the rest is V_{t+1} A_t F_t.
    The maps and the A products are the model's
    (``ltv.sensitivity_maps()``, ``ltv.a_transpose_times`` and
    ``ltv.transpose_times_a``); the pass reads no A of its own.

    Q-function form: at each step the control Hessian gets mu*I damping
    through the next-step value Hessian (damping enters Q_uu and Q_uz
    only, never the value function carried on).  A non-PD control
    Hessian bumps mu and retries the same timestep; exceeding the
    ceiling raises :class:`BackwardPassError`, as does a non-finite
    control Hessian or gain (damping cannot repair those).  A clean sweep
    relaxes mu once.
    """
    if reg is None:
        reg = Regularizer()
    horizon, dim, n_u = ltv.horizon, ltv.dim, ltv.n_u
    if terms.dim != dim or terms.horizon != horizon:
        raise ValueError("cost terms and LTV model disagree on dimensions")

    sens = ltv.sensitivity_maps()
    k_all = np.empty((horizon, n_u))
    big_k = np.empty((horizon, n_u, dim))
    v = np.empty((horizon + 1, dim))
    v[horizon] = terms.lin_state[horizon]
    q_t = terms.quad_terminal
    g_next = apply_weight(0.5 * (q_t + np.transpose(q_t)), sens[-1])

    sum_k_qu = 0.0
    sum_k_quu_k = 0.0
    bumped = False
    for t in range(horizon - 1, -1, -1):
        b_t = ltv.B[t]
        m = t * n_u
        v_b = g_next[:, m:]
        q_z = terms.lin_state[t] + ltv.a_transpose_times(t, v[t + 1])
        q_u = terms.lin_control[t] + b_t.T @ v[t + 1]
        while True:
            q_uz = ltv.transpose_times_a(t, v_b) \
                + reg.mu * ltv.transpose_times_a(t, b_t)
            q_uu = terms.r + b_t.T @ v_b + reg.mu * (b_t.T @ b_t)
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
        # G_t = V_t F_t, V_t = Q + A^T V' A + K^T Q_uu K - K^T Q_uz - Q_uz^T K
        f_t = sens[t]
        kf = big_k_t @ f_t
        g_next = apply_weight(terms.quad_state, f_t) \
            + ltv.a_transpose_times(t, g_next[:, :m]) \
            + big_k_t.T @ (q_uu @ kf - q_uz @ f_t) - q_uz.T @ kf
        sum_k_qu += float(k_t @ q_u)
        sum_k_quu_k += float(k_t @ (q_uu @ k_t))
    if not bumped:
        reg.decrease()
    return GainSchedule(k=k_all, K=big_k, v=v,
                        sum_k_qu=sum_k_qu, sum_k_quu_k=sum_k_quu_k)


# Largest stacked size T*n_u that is ever stacked: the desk scale that
# bound verification accepts.
DENSE_ORACLE_LIMIT = 200


def stack_quadratic(ltv, terms):
    """Dense stacked form of the perturbed objective, the one evaluator
    of the perturbed quadratic.

    Returns (H, g, F) over the flattened control perturbation dU of
    length T*n_u: objective(dU) = 0.5 dU^T H dU + g^T dU, and the
    (T+1, d, T*n_u) sensitivity maps F, with F[t] @ dU the deviation
    state z_t that dU drives the LTV model to: the model's own maps
    (``ltv.sensitivity_maps()``), zero-padded to the horizon's width.
    Stacked sizes above :data:`DENSE_ORACLE_LIMIT` are a ``ValueError``,
    raised before anything is stacked.
    """
    horizon, dim, n_u = ltv.horizon, ltv.dim, ltv.n_u
    m = horizon * n_u
    if m > DENSE_ORACLE_LIMIT:
        raise ValueError(f"stacked size {m} exceeds oracle limit "
                         f"{DENSE_ORACLE_LIMIT}")
    f_maps = np.zeros((horizon + 1, dim, m))
    for f_t, narrow in zip(f_maps, ltv.sensitivity_maps()):
        f_t[:, :narrow.shape[1]] = narrow
    h = np.zeros((m, m))
    g = np.zeros(m)
    for t in range(horizon + 1):
        w = terms.quad_terminal if t == horizon else terms.quad_state
        h += f_maps[t].T @ apply_weight(w, f_maps[t])
        g += f_maps[t].T @ terms.lin_state[t]
    for t in range(horizon):
        sl = slice(t * n_u, (t + 1) * n_u)
        h[sl, sl] += terms.r
        g[sl] += terms.lin_control[t]
    return 0.5 * (h + h.T), g, f_maps


def stacked_minimizer(h, g):
    """The flat dU* = -H^-1 g minimizing 0.5 dU^T H dU + g^T dU, by one
    Cholesky factor.  A non-finite ``h`` or ``g`` is a ``ValueError``."""
    if not (np.isfinite(h).all() and np.isfinite(g).all()):
        raise ValueError("stacked Hessian or gradient is not finite")
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        raise IndefiniteHessianError("stacked Hessian is not positive definite")
    return -_cho_solve(chol, g)

