"""Outer trajectory-optimization loop.

Each iteration: refresh the snapshot basis from the currently accepted
trajectory (reduced mode only), fit a local LTV model around it,
run the backward pass for gains, and accept a new trajectory through a
backtracking line search on the nonlinear model.  The line search walks
one fixed ladder of step sizes, 1, 1/2, ..., 2^-26 (:data:`STEP_SIZES`):
it tries 1 alone, then rolls out the rest of the ladder in doubling
batches (2, 4, 8, ... step sizes, at most ``pde.items_per_call(n_x)``
per batch), one row per step size and one simulator call per timestep;
every row is bit-identical to a rollout of its step size alone, so the
first step size in ladder order that passes is the one a
one-at-a-time search would accept.  Terminates when the
relative cost improvement of an accepted iteration falls below the
convergence coefficient, when the gradient is numerically zero, when no
descent step can be found, or at the iteration/time budget (see
:func:`solve` for where the budget is checked).

``mode="full"`` runs the identical loop with the identity basis, which
is the standard full-order algorithm and serves as the benchmark
baseline.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .lqr import BackwardPassError, Regularizer, backward_pass, reduce_cost
from .pde import DivergenceError, Trajectory, items_per_call, rollout
from .pod import (DEFAULT_ENERGY_CUTOFF, DegenerateSnapshotsError,
                  method_of_snapshots, projection_residual)
from .sysid import fit_ltv, generate_rollout_data


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop settings.

    ``gamma`` is the convergence coefficient (terminate when an accepted
    iteration improves the cost by less than this fraction), ``sigma1``
    the line-search acceptance threshold on the realized-to-predicted
    improvement ratio; the step sizes it is tried on are the fixed ladder
    :data:`STEP_SIZES`, and the backward pass's damping starts at the
    :class:`~roilqr.lqr.Regularizer` default.  ``energy_cutoff`` is the
    share of snapshot energy each reduced basis keeps.  Identification
    takes no setting: its perturbation scales follow from each nominal
    (:func:`roilqr.sysid.perturbation_scales`).  ``seed`` labels the run:
    the harness draws the Gaussian initial guess from it, and the solve
    itself draws nothing.
    """

    gamma: float = 1e-4
    max_iterations: int = 60
    sigma1: float = 0.3
    energy_cutoff: float = DEFAULT_ENERGY_CUTOFF
    mode: str = "reduced"
    seed: int = 0
    time_budget_s: float | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.sigma1 < 1.0:
            raise ValueError("sigma1 must be in (0, 1)")
        if self.mode not in ("reduced", "full"):
            raise ValueError("mode must be 'reduced' or 'full'")
        if not 0.0 < self.energy_cutoff <= 1.0:
            raise ValueError("energy_cutoff must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.time_budget_s is not None and not self.time_budget_s > 0:
            # the first iteration always reaches its line search, so a
            # budget <= 0 would still run one and then report a timeout
            raise ValueError("time_budget_s must be positive")


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


# The line search's step sizes in backtracking order: 2^0 ... 2^-26, the
# halvings of 1 down to the last one above 1e-8.  Powers of two, so each
# is exact.
STEP_SIZES = tuple(2.0 ** -k for k in range(27))

PHASES = ("t_basis", "t_sysid", "t_backward", "t_forward")


def _phase_split(marks):
    """Time between successive ``perf_counter`` marks, by phase; phases
    not reached take 0.0."""
    spans = [b - a for a, b in zip(marks, marks[1:])]
    return dict(zip(PHASES, spans + [0.0] * (len(PHASES) - len(spans))))


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
    status: str = "max_iterations"
    trajectory: Trajectory | None = None
    iterate_controls: list = field(default_factory=list)
    error: str | None = None
    wall_time_s: float = 0.0
    # the initial rollout and its cost, part of the forward phase
    initial_rollout_s: float = 0.0
    # phase times of the iteration that ended the solve without being
    # accepted (zero gradient, no descent, numerical failure, budget out)
    terminal_phase_times: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def completed(self):   # ended on a usable trajectory and cost
        return self.status in ("converged", "no_descent", "max_iterations")

    @property
    def controls(self):
        return None if self.trajectory is None else self.trajectory.controls

    @property
    def final_cost(self):
        return self.iterations[-1].cost if self.iterations else self.initial_cost

    @property
    def costs(self):
        return [self.initial_cost] + [it.cost for it in self.iterations]

    def phase_times(self):
        """Per-phase time summed over every iteration run, the terminal
        unaccepted one included; the initial rollout counts as forward
        time."""
        times = {k: sum(getattr(it, k) for it in self.iterations)
                 + self.terminal_phase_times.get(k, 0.0) for k in PHASES}
        times["t_forward"] += self.initial_rollout_s
        return times

    def total_sysid_samples(self):
        return sum(it.sysid_samples for it in self.iterations)


def forward_pass(model, cost, prev, gains, basis, alphas, buffers=None):
    """Roll the nonlinear model under the feedback law, one row per step
    size, all rows stepped by one ``step_batch`` call per timestep.

    Row j's controls: u_t = u_prev_t - alphas[j]*k_t - K_t * P(x_t -
    x_prev_t) with P the basis projection (identity when ``basis`` is
    None).  The projection and the feedback are matrix-vector products
    row by row and the kernels act on each row alone, so every row is
    bit-identical to a rollout of its step size by itself.  Every row is
    stepped to the horizon; one that diverges carries inf/NaN to its
    cost and is rejected by that non-finite cost, so the line search
    backs off; the other rows are unaffected.

    ``buffers`` is a ``(states, controls)`` pair of shapes ``(T+1, B,
    n_x)`` and ``(T, B, n_u)`` with ``B >= len(alphas)``, overwritten;
    fresh ones are allocated when it is None.  Returns one
    (trajectory_or_None, realized_cost, predicted_improvement) per step
    size; the trajectories are views into the buffers.
    """
    n = len(alphas)
    if buffers is None:
        buffers = _rollout_buffers(model, prev.horizon, n)
    states, controls = buffers
    states[0, :n] = prev.states[0]
    # a diverged row's inf/NaN runs on through its feedback and its cost
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(prev.horizon):
            for j in range(n):
                dev = states[t, j] - prev.states[t]
                dz = basis.phi.T @ dev if basis is not None else dev
                controls[t, j] = (prev.controls[t] - alphas[j] * gains.k[t]
                                  - gains.K[t] @ dz)
            states[t + 1, :n] = model.step_batch(states[t, :n],
                                                 controls[t, :n])
        results = []
        for j, alpha in enumerate(alphas):
            row = Trajectory(states=states[:, j], controls=controls[:, j])
            realized = cost.trajectory_cost(row)
            predicted = gains.expected_improvement(alpha)
            results.append((row, realized, predicted)
                           if np.isfinite(realized)
                           else (None, float("inf"), predicted))
    return results


def _rollout_buffers(model, horizon, rows):
    return (np.empty((horizon + 1, rows, model.n_x)),
            np.empty((horizon, rows, model.n_u)))


def _ladder_batches(count, max_rows):
    """``(lo, hi)`` bounds of the rollouts of a ladder of ``count`` step
    sizes: the first alone, then 2, 4, 8, ... at a time, at most
    ``max_rows`` each."""
    batches = []
    lo = 0
    size = 1
    while lo < count:
        hi = min(lo + size, count)
        batches.append((lo, hi))
        lo = hi
        size = min(2 * size, max_rows)
    return batches


@dataclass
class LineSearchResult:
    trajectory: Trajectory | None
    cost: float
    alpha: float
    trials: int
    accepted: bool


def line_search(model, cost, prev, prev_cost, gains, basis, cfg,
                checkpoint=None):
    """Backtrack on alpha along :data:`STEP_SIZES` until the realized /
    predicted improvement is >= sigma1.

    The ladder is rolled out in the batches of :func:`_ladder_batches`
    into one pair of buffers sized to the largest batch; the first step
    size in ladder order that passes is accepted and its rollout copied
    out, and ``trials`` is its position in the ladder.  Every accepted
    step strictly decreases the cost (z*predicted > 0).  Returns an
    unaccepted result, with alpha 0.0, when no step size of the ladder
    passes (no-descent termination).  ``checkpoint``, if given, is called
    before every rollout after the first and may raise to abandon the
    search.
    """
    batches = _ladder_batches(len(STEP_SIZES), items_per_call(model.n_x))
    buffers = _rollout_buffers(model, prev.horizon,
                               max(hi - lo for lo, hi in batches))
    for lo, hi in batches:
        if checkpoint is not None and lo > 0:
            checkpoint()
        results = forward_pass(model, cost, prev, gains, basis,
                               STEP_SIZES[lo:hi], buffers)
        for trial, (traj, realized, predicted) in enumerate(results, lo + 1):
            if traj is not None and predicted > 0.0:
                z = (prev_cost - realized) / predicted
                if z >= cfg.sigma1:
                    accepted = Trajectory(states=traj.states.copy(),
                                          controls=traj.controls.copy())
                    return LineSearchResult(accepted, realized,
                                            STEP_SIZES[trial - 1], trial,
                                            True)
    return LineSearchResult(None, prev_cost, 0.0, len(STEP_SIZES), False)


class _Stop(Exception):
    """Ends the solve inside an iteration; ``args[0]`` is the status."""


def solve(problem, cfg=None):
    """Run the full iteration loop; always returns a report, recording a
    numerical failure or an expired budget in ``status`` rather than
    raising.

    The time budget is one checkpoint, called before every line-search
    rollout after the first and, from the second iteration on, before
    every identification simulator call after the first (so also between
    the units of one full-order timestep) and before the backward pass
    (so every budgeted solve tries a step); it is also read after each
    accepted iteration.  A stop inside an iteration records that
    iteration's phases in ``terminal_phase_times``.
    """
    cfg = cfg or SolverConfig()
    model, cost = problem.model, problem.cost
    start = time.perf_counter()

    def budget_expired():
        return cfg.time_budget_s is not None \
            and time.perf_counter() - start > cfg.time_budget_s

    def check_budget():
        if budget_expired():
            raise _Stop("timeout")

    if cfg.mode == "reduced" and problem.horizon + 1 > model.n_x:
        # the snapshot basis needs at least as many states as snapshots
        return SolveReport(
            mode=cfg.mode, seed=cfg.seed, initial_cost=float("inf"),
            status="numerical_failure",
            error=f"reduced mode needs horizon + 1 <= n_x: "
                  f"{problem.horizon + 1} snapshots of {model.n_x} states",
            wall_time_s=time.perf_counter() - start)

    controls = problem.initial_controls()
    try:
        traj = rollout(model, problem.x0, controls)
    except DivergenceError as exc:
        elapsed = time.perf_counter() - start
        return SolveReport(mode=cfg.mode, seed=cfg.seed,
                           initial_cost=float("inf"),
                           status="numerical_failure", error=str(exc),
                           wall_time_s=elapsed, initial_rollout_s=elapsed)
    current_cost = cost.trajectory_cost(traj)

    report = SolveReport(mode=cfg.mode, seed=cfg.seed,
                         initial_cost=current_cost, trajectory=traj,
                         initial_rollout_s=time.perf_counter() - start)
    report.iterate_controls.append(traj.controls.copy())
    reg = Regularizer()

    if current_cost == 0.0:
        report.status = "converged"
        report.wall_time_s = time.perf_counter() - start
        return report

    for it in range(1, cfg.max_iterations + 1):
        marks = [time.perf_counter()]
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
            marks.append(time.perf_counter())

            data = generate_rollout_data(
                model, traj, basis=basis,
                checkpoint=check_budget if it > 1 else None)
            n_samples = data.n_samples
            ltv = fit_ltv(data)   # in place: ltv and data share one array
            del data
            marks.append(time.perf_counter())
            if it > 1:
                check_budget()

            gains = backward_pass(ltv, reduce_cost(cost, traj, basis), reg)
            del ltv   # held by neither the line search nor the next fit
            if gains.expected_improvement(1.0) \
                    <= 1e-15 * max(1.0, current_cost):
                # gradient numerically zero: already stationary
                raise _Stop("converged")
            marks.append(time.perf_counter())

            ls = line_search(model, cost, traj, current_cost, gains, basis,
                             cfg, checkpoint=check_budget)
            if not ls.accepted:
                raise _Stop("no_descent")
            marks.append(time.perf_counter())
        except (_Stop, DivergenceError, BackwardPassError,
                DegenerateSnapshotsError) as exc:
            marks.append(time.perf_counter())
            report.terminal_phase_times = _phase_split(marks)
            if isinstance(exc, _Stop):
                report.status = exc.args[0]
            else:
                report.status = "numerical_failure"
                report.error = f"iteration {it}: {exc}"
            break

        record = IterationRecord(
            iteration=it, cost=ls.cost, n_modes=n_modes,
            projection_eps=eps, alpha=ls.alpha, trials=ls.trials,
            sysid_samples=n_samples, **_phase_split(marks),
        )
        report.iterations.append(record)
        report.trajectory = ls.trajectory
        report.iterate_controls.append(ls.trajectory.controls.copy())
        # its phases are in the record: terminal_phase_times stays empty
        if ls.cost >= (1.0 - cfg.gamma) * current_cost:
            report.status = "converged"
            break
        if budget_expired():
            report.status = "timeout"
            break
        traj, current_cost = ls.trajectory, ls.cost

    report.wall_time_s = time.perf_counter() - start
    return report
