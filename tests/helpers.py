"""Shared test fixtures: exactly-linear plants used as analytic oracles,
the one-row model step, and reference recursions for the backward pass."""

import numpy as np

from roilqr.pde import DivergenceError


class LinearModel:
    """x_{t+1} = A x + B u; duck-types a PDE model for the solver/sysid."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.n_x = self.a.shape[0]
        self.n_u = self.b.shape[1]

    def step_batch(self, states, controls):
        states = np.atleast_2d(states)
        controls = np.atleast_2d(controls)
        return states @ self.a.T + controls @ self.b.T


def random_stable_linear(n_x, n_u, rng, radius=0.9):
    a = rng.standard_normal((n_x, n_x))
    a *= radius / max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((n_x, n_u))
    return LinearModel(a, b)


def step(model, state, control):
    """One control step of one state; non-finite output raises."""
    out = model.step_batch(state[None, :], np.asarray(control)[None, :])[0]
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"{type(model).__name__} step produced "
                              f"non-finite values")
    return out


def value_recursion_direct(ltv, terms):
    """Closed-form value recursion (no Q-function intermediates).

    Test reference for the backward pass: v_t and V_t computed directly
    from the one-step-ahead optimality conditions,

        v_t = l_z + A^T v' - A^T V' B (R + B^T V' B)^{-1} (B^T v' + R u),
        V_t = l_zz + A^T V' A - A^T V' B (R + B^T V' B)^{-1} B^T V' A.
    """
    horizon, dim = ltv.horizon, ltv.dim
    v = np.empty((horizon + 1, dim))
    big_v = np.empty((horizon + 1, dim, dim))
    v[horizon] = terms.lin_state[horizon]
    big_v[horizon] = terms.quad_terminal
    for t in range(horizon - 1, -1, -1):
        a_t, b_t = ltv.A[t], ltv.B[t]
        v_next = big_v[t + 1]
        inner = terms.r + b_t.T @ v_next @ b_t
        gain = np.linalg.solve(inner, np.column_stack(
            [b_t.T @ v[t + 1] + terms.lin_control[t], b_t.T @ v_next @ a_t]))
        v[t] = terms.lin_state[t] + a_t.T @ v[t + 1] \
            - a_t.T @ v_next @ b_t @ gain[:, 0]
        big_v[t] = terms.quad_state + a_t.T @ v_next @ a_t \
            - a_t.T @ v_next @ b_t @ gain[:, 1:]
    return v, big_v


def simulate_feedback(ltv, gains, alpha=1.0):
    """Open-loop perturbation produced by the feedback law on the LTV model."""
    dz = np.zeros(ltv.dim)
    du = np.empty((ltv.horizon, ltv.n_u))
    for t in range(ltv.horizon):
        du[t] = -alpha * gains.k[t] - gains.K[t] @ dz
        dz = ltv.A[t] @ dz + ltv.B[t] @ du[t]
    return du
