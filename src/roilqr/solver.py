"""Outer trajectory-optimization loop.

Each iteration: refresh the snapshot basis from the currently accepted
trajectory (reduced mode only), fit a local LTV model around it,
run the backward pass for gains, and accept a new trajectory through a
backtracking line search on the nonlinear model.  Terminates when the
relative cost improvement of an accepted iteration falls below the
convergence coefficient, when no descent step can be found, or at the
iteration/time budget.

``mode="full"`` runs the identical loop with the identity basis, which
is the standard full-order algorithm and serves as the benchmark
baseline.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lqr import BackwardPassError, Regularizer, backward_pass, reduce_cost
from .pde import DivergenceError, Trajectory, rollout
from .pod import DegenerateSnapshotsError, method_of_snapshots, projection_residual
from .sysid import PerturbationConfig, RankDeficientError, fit_ltv, \
    generate_rollout_data


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop settings.

    ``gamma`` is the convergence coefficient (terminate when an accepted
    iteration improves the cost by less than this fraction), ``sigma1``
    the line-search acceptance threshold on the realized-to-predicted
    improvement ratio.
    """

    gamma: float = 1e-4
    max_iterations: int = 60
    sigma1: float = 0.3
    alpha_init: float = 1.0
    alpha_shrink: float = 0.5
    alpha_min: float = 1e-8
    energy_cutoff: float = 0.99999
    mode: str = "reduced"
    seed: int = 0
    mu_init: float = 1e-6
    time_budget_s: float | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 < self.sigma1 < 1.0:
            raise ValueError("sigma1 must be in (0, 1)")
        if not 0.0 < self.alpha_shrink < 1.0:
            raise ValueError("alpha_shrink must be in (0, 1)")
        if not 0.0 < self.alpha_min <= self.alpha_init:
            # alpha_min <= 0 never stops the backtracking: alpha underflows
            # to 0.0, which still satisfies alpha >= alpha_min
            raise ValueError("need 0 < alpha_min <= alpha_init")
        Regularizer(mu=self.mu_init)   # raises unless mu_init is in range
        if self.mode not in ("reduced", "full"):
            raise ValueError("mode must be 'reduced' or 'full'")
        if not 0.0 < self.energy_cutoff <= 1.0:
            raise ValueError("energy_cutoff must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class ControlProblem:
    """Model + cost + initial state + horizon (+ optional initial guess)."""

    model: object
    cost: object
    x0: np.ndarray
    horizon: int
    u_init: np.ndarray | None = None

    def initial_controls(self):
        if self.u_init is not None:
            u = np.asarray(self.u_init, dtype=np.float64)
            if u.shape != (self.horizon, self.model.n_u):
                raise ValueError(
                    f"u_init shape {u.shape} != ({self.horizon}, "
                    f"{self.model.n_u})"
                )
            return u.copy()
        return np.zeros((self.horizon, self.model.n_u))


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    n_modes: int
    projection_eps: float
    alpha: float
    trials: int
    sysid_samples: int
    t_basis: float = 0.0
    t_sysid: float = 0.0
    t_backward: float = 0.0
    t_forward: float = 0.0

    @property
    def elapsed(self):
        return self.t_basis + self.t_sysid + self.t_backward + self.t_forward


@dataclass
class SolveReport:
    """Full outcome of one solve, including per-iteration history."""

    mode: str
    seed: int
    initial_cost: float
    iterations: list = field(default_factory=list)
    converged: bool = False
    status: str = "max_iterations"
    trajectory: Trajectory | None = None
    controls: np.ndarray | None = None
    iterate_controls: list = field(default_factory=list)
    error: str | None = None
    wall_time_s: float = 0.0

    @property
    def final_cost(self):
        return self.iterations[-1].cost if self.iterations else self.initial_cost

    @property
    def costs(self):
        return [self.initial_cost] + [it.cost for it in self.iterations]

    def phase_times(self):
        keys = ("t_basis", "t_sysid", "t_backward", "t_forward")
        return {k: sum(getattr(it, k) for it in self.iterations) for k in keys}

    def total_sysid_samples(self):
        return sum(it.sysid_samples for it in self.iterations)


def forward_pass(model, cost, prev, gains, basis, alpha):
    """Roll the nonlinear model under the feedback law.

    Controls: u_t = u_prev_t - alpha*k_t - K_t * P(x_t - x_prev_t) with P
    the basis projection (identity when ``basis`` is None).  A divergent
    rollout yields an infinite cost so the line search backs off.
    Returns (trajectory_or_None, realized_cost, predicted_improvement).
    """
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


@dataclass
class LineSearchResult:
    trajectory: Trajectory | None
    cost: float
    alpha: float
    trials: int
    accepted: bool


def line_search(model, cost, prev, prev_cost, gains, basis, cfg):
    """Backtrack on alpha until realized/predicted improvement >= sigma1.

    Every accepted step strictly decreases the cost (z*predicted > 0).
    Returns an unaccepted result when alpha underflows without a valid
    step (no-descent termination).
    """
    alpha = cfg.alpha_init
    trials = 0
    while alpha >= cfg.alpha_min:
        trials += 1
        traj, realized, predicted = forward_pass(
            model, cost, prev, gains, basis, alpha)
        if traj is not None and predicted > 0.0:
            z = (prev_cost - realized) / predicted
            if z >= cfg.sigma1:
                return LineSearchResult(traj, realized, alpha, trials, True)
        alpha *= cfg.alpha_shrink
    return LineSearchResult(None, prev_cost, alpha, trials, False)


def solve(problem, cfg=None, perturb=None):
    """Run the full iteration loop; always returns a report, recording a
    numerical failure in ``status`` rather than raising."""
    cfg = cfg or SolverConfig()
    perturb = perturb or PerturbationConfig()
    model, cost = problem.model, problem.cost
    start = time.perf_counter()

    controls = problem.initial_controls()
    try:
        traj = rollout(model, problem.x0, controls)
    except DivergenceError as exc:
        report = SolveReport(mode=cfg.mode, seed=cfg.seed,
                             initial_cost=float("inf"))
        report.status = "numerical_failure"
        report.error = str(exc)
        return report
    current_cost = cost.trajectory_cost(traj)

    report = SolveReport(mode=cfg.mode, seed=cfg.seed,
                         initial_cost=current_cost)
    report.trajectory = traj
    report.controls = traj.controls
    report.iterate_controls.append(traj.controls.copy())
    reg = Regularizer(mu=cfg.mu_init)

    if current_cost == 0.0:
        report.converged = True
        report.status = "converged"
        report.wall_time_s = time.perf_counter() - start
        return report

    for it in range(1, cfg.max_iterations + 1):
        t0 = time.perf_counter()
        try:
            if cfg.mode == "reduced":
                basis = method_of_snapshots(
                    traj.states.T, energy_cutoff=cfg.energy_cutoff)
                eps = projection_residual(basis, traj)
                n_modes = basis.n_modes
            else:
                basis = None
                eps = 0.0
                n_modes = model.n_x
            t1 = time.perf_counter()

            it_seed = cfg.seed * 100003 + it
            data = generate_rollout_data(
                model, traj, basis=basis,
                cfg=replace(perturb, seed=it_seed))
            ltv = fit_ltv(data)
            t2 = time.perf_counter()

            terms = reduce_cost(cost, traj, basis)
            gains = backward_pass(ltv, terms, reg)
            t3 = time.perf_counter()
        except (DivergenceError, RankDeficientError, BackwardPassError,
                DegenerateSnapshotsError) as exc:
            report.status = "numerical_failure"
            report.error = f"iteration {it}: {exc}"
            break

        if gains.expected_improvement(1.0) <= 1e-15 * max(1.0, current_cost):
            # gradient numerically zero: already stationary
            report.converged = True
            report.status = "converged"
            break

        ls = line_search(model, cost, traj, current_cost, gains, basis, cfg)
        t4 = time.perf_counter()
        if not ls.accepted:
            report.status = "no_descent"
            break

        record = IterationRecord(
            iteration=it, cost=ls.cost, n_modes=n_modes,
            projection_eps=eps, alpha=ls.alpha, trials=ls.trials,
            sysid_samples=data.n_samples,
            t_basis=t1 - t0, t_sysid=t2 - t1, t_backward=t3 - t2,
            t_forward=t4 - t3,
        )
        report.iterations.append(record)
        report.trajectory = ls.trajectory
        report.controls = ls.trajectory.controls
        report.iterate_controls.append(ls.trajectory.controls.copy())
        improved_below_gamma = ls.cost >= (1.0 - cfg.gamma) * current_cost
        traj = ls.trajectory
        current_cost = ls.cost
        if improved_below_gamma:
            report.converged = True
            report.status = "converged"
            break
        if (cfg.time_budget_s is not None
                and time.perf_counter() - start > cfg.time_budget_s):
            report.status = "timeout"
            break

    report.wall_time_s = time.perf_counter() - start
    return report
