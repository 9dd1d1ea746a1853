"""Shared test fixtures: exactly-linear plants used as analytic oracles,
random LQ problems, the rollout of the perturbed quadratic that its
stacked form must equal, the dense solve of that form that the backward
pass must equal, the one-row model step, reference recursions
for the backward pass (the V-forming Riccati sweep among them, which
gives every value Hessian), the one-step-size-at-a-time line search and
a solve on it, the recorded last line search of a solve, and
the Allen-Cahn central-difference units whose light cones are smaller
than their grid, with the stepped rows they must equal."""

import numpy as np
import pytest
from hypothesis import strategies as st

from roilqr import solver
from roilqr._kernels import central_numpy
from roilqr.harness import build_problem, gaussian_guess, preset
from roilqr.lqr import (BackwardPassError, GainSchedule, ReducedCostTerms,
                        Regularizer, _cho_solve, apply_weight,
                        stack_quadratic, stacked_minimizer)
from roilqr.pde import (AllenCahnModel, DivergenceError, Grid, PdeParams,
                        Trajectory)
from roilqr.solver import STEP_SIZES, LineSearchResult, forward_pass, solve
from roilqr.sysid import LtvModel


class LinearModel:
    """x_{t+1} = A x + B u; duck-types a PDE model for the solver/sysid,
    its identification units stepped by ``central_numpy`` over its own
    ``step_batch`` (so over a subclass's)."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.n_x = self.a.shape[0]
        self.n_u = self.b.shape[1]

    def step_batch(self, states, controls):
        states = np.atleast_2d(states)
        controls = np.atleast_2d(controls)
        return states @ self.a.T + controls @ self.b.T

    def central(self, states, controls, design_x, design_u, out):
        return central_numpy(self.step_batch, states, controls, design_x,
                             design_u, out)


def random_stable_linear(n_x, n_u, rng, radius=0.9):
    a = rng.standard_normal((n_x, n_x))
    a *= radius / max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((n_x, n_u))
    return LinearModel(a, b)


def random_ltv(rng, dim, n_u, horizon, radius=0.9):
    a = rng.standard_normal((horizon, dim, dim))
    for t in range(horizon):
        a[t] *= radius / max(np.abs(np.linalg.eigvals(a[t])))
    b = rng.standard_normal((horizon, dim, n_u))
    return LtvModel(A=a, B=b)


def state_weight(rng, dim, form):
    """A symmetric PSD state Hessian in one of the forms the cost terms
    take: ``"scalar"`` (a float meaning float * I, as at full order),
    ``"diagonal"`` or ``"dense"``."""
    if form == "scalar":
        return rng.uniform(0.0, 3.0)
    if form == "diagonal":
        return np.diag(rng.uniform(0.0, 3.0, dim))
    m = rng.standard_normal((dim, dim))
    return m @ m.T + 0.1 * np.eye(dim)


# hypothesis strategies for ``lq_case``: dim up to 12 so that both
# dim < horizon * n_u and dim > horizon * n_u are drawn
LQ_CASE = dict(horizon=st.integers(1, 8), dim=st.integers(1, 12),
               n_u=st.integers(1, 4),
               form=st.sampled_from(["scalar", "diagonal", "dense"]),
               seed=st.integers(0, 2**32 - 1))


def lq_case(horizon, dim, n_u, form, seed):
    """A random stable LTV model and cost terms whose state weights take
    the given ``form``; returns (ltv, terms)."""
    rng = np.random.default_rng(seed)
    ltv = random_ltv(rng, dim, n_u, horizon)
    m = rng.standard_normal((n_u, n_u))
    terms = ReducedCostTerms(
        lin_state=rng.standard_normal((horizon + 1, dim)),
        quad_state=state_weight(rng, dim, form),
        quad_terminal=state_weight(rng, dim, form),
        lin_control=rng.standard_normal((horizon, n_u)),
        r=0.2 * m @ m.T + 0.5 * np.eye(n_u),
    )
    return ltv, terms


def quad_objective(ltv, terms, du):
    """Perturbed objective at a control perturbation ``du`` (T, n_u), by
    rolling the LTV model forward: the oracle of the stacked form.

    Returns ``(value, deviations)`` with the (T+1, d) deviation states
    the perturbation drives the LTV model through.
    """
    dz = np.zeros(ltv.dim)
    devs = np.empty((ltv.horizon + 1, ltv.dim))
    devs[0] = dz
    val = 0.0
    for t in range(ltv.horizon):
        val += float(terms.lin_state[t] @ dz)
        val += 0.5 * float(dz @ apply_weight(terms.quad_state, dz))
        val += float(terms.lin_control[t] @ du[t])
        val += 0.5 * float(du[t] @ (terms.r @ du[t]))
        dz = ltv.A[t] @ dz + ltv.B[t] @ du[t]
        devs[t + 1] = dz
    val += float(terms.lin_state[-1] @ dz)
    val += 0.5 * float(dz @ apply_weight(terms.quad_terminal, dz))
    return val, devs


def lqr_solve_dense(ltv, terms):
    """Exact minimizer dU* (T, n_u) of the perturbed objective by one
    dense solve of its stacked form: the backward pass's independent
    oracle, for stacked sizes up to :data:`roilqr.lqr.DENSE_ORACLE_LIMIT`.
    """
    h, g, _ = stack_quadratic(ltv, terms)
    return stacked_minimizer(h, g).reshape(ltv.horizon, ltv.n_u)


def dense_weight(w, dim):
    """The (dim, dim) matrix of the state weight ``w``: ``w`` itself, or
    w * I for a scalar weight."""
    return apply_weight(w, np.eye(dim))


def step(model, state, control):
    """One control step of one state; non-finite output raises."""
    out = model.step_batch(state[None, :], np.asarray(control)[None, :])[0]
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"{type(model).__name__} step produced "
                              f"non-finite values")
    return out


def value_recursion_direct(ltv, terms):
    """Closed-form value recursion (no Q-function intermediates).

    Test reference for the undamped backward pass: k_t, K_t, v_t and V_t
    computed directly from the one-step-ahead optimality conditions,

        [k_t | K_t] = (R + B^T V' B)^{-1} [B^T v' + R u | B^T V' A],
        v_t = l_z + A^T v' - A^T V' B k_t,
        V_t = l_zz + A^T V' A - A^T V' B K_t.

    Returns (k, K, v, V) with V the (T+1, d, d) value Hessians.
    """
    horizon, dim = ltv.horizon, ltv.dim
    k = np.empty((horizon, ltv.n_u))
    big_k = np.empty((horizon, ltv.n_u, dim))
    v = np.empty((horizon + 1, dim))
    big_v = np.empty((horizon + 1, dim, dim))
    v[horizon] = terms.lin_state[horizon]
    big_v[horizon] = dense_weight(terms.quad_terminal, dim)
    q_state = dense_weight(terms.quad_state, dim)
    for t in range(horizon - 1, -1, -1):
        a_t, b_t = ltv.A[t], ltv.B[t]
        v_next = big_v[t + 1]
        inner = terms.r + b_t.T @ v_next @ b_t
        gain = np.linalg.solve(inner, np.column_stack(
            [b_t.T @ v[t + 1] + terms.lin_control[t], b_t.T @ v_next @ a_t]))
        k[t], big_k[t] = gain[:, 0], gain[:, 1:]
        v[t] = terms.lin_state[t] + a_t.T @ v[t + 1] \
            - a_t.T @ v_next @ b_t @ gain[:, 0]
        big_v[t] = q_state + a_t.T @ v_next @ a_t \
            - a_t.T @ v_next @ b_t @ gain[:, 1:]
    return k, big_k, v, big_v


def riccati_backward_pass(ltv, terms, reg):
    """The V-forming Riccati sweep: test reference for ``backward_pass``.

    The same Q-function form, mu*I damping of V_{t+1} in Q_uu and Q_uz,
    bump-and-retry and mu relaxation as the production pass, but it
    carries the (d, d) value Hessian itself, O(T d^3).  Returns the
    ``GainSchedule`` and the (T+1, d, d) value Hessians V_t.
    """
    horizon, dim, n_u = ltv.horizon, ltv.dim, ltv.n_u
    k_all = np.empty((horizon, n_u))
    big_k = np.empty((horizon, n_u, dim))
    v = np.empty((horizon + 1, dim))
    big_v = np.empty((horizon + 1, dim, dim))
    v[horizon] = terms.lin_state[horizon]
    q_terminal = dense_weight(terms.quad_terminal, dim)
    big_v[horizon] = 0.5 * (q_terminal + q_terminal.T)
    q_state = dense_weight(terms.quad_state, dim)
    sum_k_qu = sum_k_quu_k = 0.0
    bumped = False
    for t in range(horizon - 1, -1, -1):
        a_t, b_t = ltv.A[t], ltv.B[t]
        while True:
            v_damped = big_v[t + 1] + reg.mu * np.eye(dim)
            q_z = terms.lin_state[t] + a_t.T @ v[t + 1]
            q_u = terms.lin_control[t] + b_t.T @ v[t + 1]
            q_zz = q_state + a_t.T @ big_v[t + 1] @ a_t
            q_uz = b_t.T @ v_damped @ a_t
            q_uu = terms.r + b_t.T @ v_damped @ b_t
            q_uu = 0.5 * (q_uu + q_uu.T)
            try:
                chol = np.linalg.cholesky(q_uu)
            except np.linalg.LinAlgError:
                if reg.mu >= reg.mu_max:
                    raise BackwardPassError(f"non-PD at timestep {t}")
                reg.increase()
                bumped = True
                continue
            break
        gains_t = _cho_solve(chol, np.column_stack((q_u, q_uz)))
        k_t, big_k_t = gains_t[:, 0], gains_t[:, 1:]
        k_all[t], big_k[t] = k_t, big_k_t
        v[t] = q_z + big_k_t.T @ (q_uu @ k_t) - big_k_t.T @ q_u - q_uz.T @ k_t
        v_t = q_zz + big_k_t.T @ (q_uu @ big_k_t) - big_k_t.T @ q_uz \
            - q_uz.T @ big_k_t
        big_v[t] = 0.5 * (v_t + v_t.T)
        sum_k_qu += float(k_t @ q_u)
        sum_k_quu_k += float(k_t @ (q_uu @ k_t))
    if not bumped:
        reg.decrease()
    gains = GainSchedule(k=k_all, K=big_k, v=v, sum_k_qu=sum_k_qu,
                         sum_k_quu_k=sum_k_quu_k)
    return gains, big_v


def value_hessians(ltv, terms, **reg):
    """The (T+1, d, d) value Hessians V_t of the Riccati reference swept
    with ``Regularizer(**reg)``."""
    return riccati_backward_pass(ltv, terms, Regularizer(**reg))[1]


def gains_match(got, ref, rtol=1e-9):
    """Whether the gain schedule ``got`` equals ``ref``: k, K and v each
    within ``rtol`` of the reference array's largest entry, and both
    predicted-improvement sums within ``rtol`` relative."""
    arrays = all(np.max(np.abs(getattr(got, f) - getattr(ref, f)))
                 <= rtol * np.max(np.abs(getattr(ref, f)))
                 for f in ("k", "K", "v"))
    sums = all(abs(getattr(got, f) - getattr(ref, f))
               <= rtol * abs(getattr(ref, f))
               for f in ("sum_k_qu", "sum_k_quu_k"))
    return arrays and sums


def simulate_feedback(ltv, gains, alpha=1.0):
    """Open-loop perturbation produced by the feedback law on the LTV model."""
    dz = np.zeros(ltv.dim)
    du = np.empty((ltv.horizon, ltv.n_u))
    for t in range(ltv.horizon):
        du[t] = -alpha * gains.k[t] - gains.K[t] @ dz
        dz = ltv.A[t] @ dz + ltv.B[t] @ du[t]
    return du


def forward_pass_one_row(model, cost, prev, gains, basis, alpha):
    """Reference for ``solver.forward_pass``: the rollout of one step
    size, one single-row simulator call per timestep, that stops at the
    first non-finite state.  Returns (trajectory_or_None, realized_cost,
    predicted_improvement)."""
    horizon = prev.horizon
    predicted = gains.expected_improvement(alpha)
    states = np.empty_like(prev.states)
    controls = np.empty_like(prev.controls)
    states[0] = prev.states[0]
    x = states[0]
    for t in range(horizon):
        dev = x - prev.states[t]
        dz = basis.phi.T @ dev if basis is not None else dev
        controls[t] = prev.controls[t] - alpha * gains.k[t] - gains.K[t] @ dz
        x = model.step_batch(x[None, :], controls[t][None, :])[0]
        if not np.all(np.isfinite(x)):
            return None, float("inf"), predicted
        states[t + 1] = x
    traj = Trajectory(states=states, controls=controls)
    realized = cost.trajectory_cost(traj)
    if not np.isfinite(realized):
        return None, float("inf"), predicted
    return traj, realized, predicted


def cost_increase(costs):
    """Largest rise between consecutive costs, 0.0 if none rises: the
    monotone-descent check passes a run exactly when this is 0.0."""
    return max([0.0] + [b - a for a, b in zip(costs, costs[1:])])


def line_search_one_row(model, cost, prev, prev_cost, gains, basis, cfg):
    """Reference for ``solver.line_search``: one rollout per step size, in
    ladder order, until one passes the sigma1 test.  It has no stop rule:
    a search that accepts nothing judges the whole ladder."""
    ratio = None
    for trials, alpha in enumerate(STEP_SIZES, 1):
        traj, realized, predicted = forward_pass_one_row(
            model, cost, prev, gains, basis, alpha)
        if traj is not None and predicted > 0.0:
            ratio = (prev_cost - realized) / predicted
            if ratio >= cfg.sigma1:
                return LineSearchResult(traj, realized, alpha, trials, True,
                                        ratio)
    return LineSearchResult(None, prev_cost, 0.0, trials, False, ratio)


def allen_cahn_small_problem(seed=0):
    """(config, problem) of the ``allen_cahn_small`` preset from its
    Gaussian guess at ``seed``."""
    cfg = preset("allen_cahn_small")
    return cfg, build_problem(
        cfg, u_init=gaussian_guess(cfg, seed, cfg.run.guess_std))


def one_row_solve(problem, cfg):
    """``solve`` with :func:`line_search_one_row` as its line search."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "line_search", lambda *args, checkpoint=None:
                   line_search_one_row(*args))
        return solve(problem, cfg)


def same_steps(report, ref):
    """Whether two solves took the same steps: status, costs, step sizes,
    trials and the final controls' bits."""
    return report.status == ref.status and report.costs == ref.costs \
        and [(it.alpha, it.trials) for it in report.iterations] \
        == [(it.alpha, it.trials) for it in ref.iterations] \
        and np.array_equal(bits(report.controls), bits(ref.controls))


def last_search(problem, cfg):
    """(report, args) of a solve and of the last ``line_search`` it ran."""
    calls = []
    line_search = solver.line_search

    def record(*args, checkpoint=None):
        calls.append(args)
        return line_search(*args, checkpoint=checkpoint)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "line_search", record)
        report = solve(problem, cfg)
    return report, calls[-1]


def search_rollouts(args):
    """(result, step size of each rollout) of ``solver.line_search`` on
    ``args``."""
    alphas = []

    def forward(model, cost, prev, gains, basis, alpha):
        alphas.append(alpha)
        return forward_pass(model, cost, prev, gains, basis, alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "forward_pass", forward)
        return solver.line_search(*args), alphas


# The line of _kernels.c that builds the kernels as clones where the
# loader dispatches them; a test build replaces it with "#if 0" to build
# each kernel once, for the compiler flags' target.
CLONE_GUARD = "#if defined(__x86_64__) && defined(__GLIBC__)"


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def stepped_differences(model, states, controls, design_x, design_u):
    """(k, n_x, m) halved differences of the + and - rows built one by
    one and stepped in one step_batch call."""
    k, m = len(states), len(design_u)
    xs, us = [], []
    for x, u in zip(states, controls):
        for side in (np.add, np.subtract):
            for j in range(m):
                xs.append(side(x, design_x[:, j]))
                us.append(side(u, design_u[j]))
    f = model.step_batch(np.array(xs), np.array(us))
    f = f.reshape(k, 2, m, model.n_x)
    return ((f[:, 0] - f[:, 1]) * 0.5).transpose(0, 2, 1)


def cone_model(rng, npts, nsub):
    """An Allen-Cahn model on an npts x npts grid with a random mask, whose
    stencil weight k = dt*M*gamma/dx^2 = 0.05 carries a move of 1e-2 to
    every point of its light cone above rounding."""
    mask = np.where(rng.random(npts * npts) < 0.5, 1, -1).astype(np.int8)
    return AllenCahnModel(Grid(ndim=2, points=npts, dx=1.0 / npts),
                          PdeParams(dt=0.1, substeps=nsub), mask)


def state_design(model, samples, move=1e-2):
    """The design of the full-order samples ``samples``: sample i < n_x
    moves state point i by ``move``, sample n_x + c control c."""
    n_x, n_u = model.n_x, model.n_u
    design = np.zeros((n_x + n_u, len(samples)))
    design[samples, np.arange(len(samples))] = move
    return design[:n_x].copy(), np.ascontiguousarray(design[n_x:].T)


def cone_cases(rng, npts, nsub):
    """Allen-Cahn central units on an npts x npts grid stepped nsub times,
    where nsub is below npts / 2, so that the light cone of a moved point
    is smaller than the grid: ``(name, model, states, controls, design_x,
    design_u)``.  Two are stepped in light cones, one timestep each whose
    samples all move one state point: moved points at the corners and the
    wraps, and a run of consecutive state samples across a grid row up to
    the grid's end.  The rest are stepped whole: the corner samples over
    two timesteps, a timestep whose nominal states and controls hold -0.0,
    state and control samples mixed in one unit, and a dense design."""
    model = cone_model(rng, npts, nsub)
    n, n_x = npts, model.n_x
    corners = [0, n - 1, n * (n - 1), n_x - 1, n + 1, n_x // 2 + 3]

    def nominal(k):
        return (0.3 * rng.standard_normal((k, n_x)),
                0.3 * rng.standard_normal((k, model.n_u)))

    # -0.0 in a zero state and in one control, where x + 0.0 and x - 0.0
    # differ and zeros keep their signs through the steps
    negative = nominal(1)
    negative[0][0] = 0.0
    negative[0][0, ::3] = -0.0
    negative[1][0] = [0.3, -0.0, -0.2, 0.1]
    return [
        ("corners", model, *nominal(1), *state_design(model, corners)),
        ("run", model, *nominal(1),
         *state_design(model, list(range(n_x - n - 5, n_x)))),
        ("timesteps", model, *nominal(2), *state_design(model, corners)),
        ("-0.0", model, *negative, *state_design(model, corners)),
        ("mixed", model, *nominal(2),
         *state_design(model, [n_x, 0, n_x + 2, n - 1, n_x - 1, n_x + 1,
                               n * (n - 1), n_x + 3])),
        ("dense", model, *nominal(2), 1e-2 * rng.standard_normal((n_x, 5)),
         1e-2 * rng.standard_normal((5, model.n_u))),
    ]


def cone_reaches(model, design_x, ref):
    """Whether the differences ``ref`` of the samples of ``design_x`` that
    move one point are nonzero at torus distance exactly nsub from it, the
    rim of its light cone, for every such sample: so that a cone one
    point short would change them."""
    npts, nsub = model.grid.points, model.params.substeps
    y, x = np.divmod(np.arange(model.n_x), npts)
    for j in range(design_x.shape[1]):
        moved = np.flatnonzero(design_x[:, j])
        if moved.size != 1:
            continue
        dy, dx = np.abs(y - moved // npts), np.abs(x - moved % npts)
        rim = (np.minimum(dy, npts - dy) + np.minimum(dx, npts - dx)) == nsub
        if not np.all(np.any(ref[:, rim, j] != 0.0, axis=1)):
            return False
    return True
