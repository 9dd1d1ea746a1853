"""Outer-loop behavior: exactness on LQ problems, line-search guarantees,
monotone descent and determinism on the PDE problems."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import (LinearModel, allen_cahn_small_problem,
                     forward_pass_one_row, last_search, line_search_one_row,
                     one_row_solve, random_stable_linear, same_steps,
                     search_rollouts)
from hypothesis import given, settings
from hypothesis import strategies as st

from roilqr import pde, solver
from roilqr.harness import build_problem, gaussian_guess, preset
from roilqr.lqr import CostModel, GainSchedule, Regularizer, backward_pass, \
    reduce_cost
from roilqr.pde import rollout
from roilqr.pod import method_of_snapshots
from roilqr.solver import (PHASES, STEP_SIZES, ControlProblem, SolverConfig,
                           forward_pass, line_search, solve)
from roilqr.sysid import fit_ltv, generate_rollout_data


@pytest.fixture
def lq_setup():
    rng = np.random.default_rng(0)
    model = random_stable_linear(5, 2, rng)
    cost = CostModel(q=1.0, r=0.5 * np.eye(2), q_terminal=3.0,
                     goal=rng.standard_normal(5))
    x0 = rng.standard_normal(5)
    horizon = 7
    nominal = rollout(model, x0, 0.3 * rng.standard_normal((horizon, 2)))
    ltv = fit_ltv(generate_rollout_data(model, nominal))
    terms = reduce_cost(cost, nominal, None)
    gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    return model, cost, nominal, gains


def test_forward_alpha_zero_zero_feedforward_is_identity(lq_setup):
    model, cost, nominal, gains = lq_setup
    base = cost.trajectory_cost(nominal)
    traj, realized, _ = forward_pass(model, cost, nominal, gains, None, 0.0)
    # alpha=0 keeps the feedforward off; feedback sees zero deviation
    np.testing.assert_allclose(traj.states, nominal.states, atol=1e-12)
    assert realized == pytest.approx(base, rel=1e-12)


def test_forward_zero_gains_replays_controls(lq_setup):
    model, cost, nominal, _ = lq_setup
    zero_gains = GainSchedule(
        k=np.zeros_like(nominal.controls),
        K=np.zeros((nominal.horizon, 2, 5)),
        v=np.zeros((nominal.horizon + 1, 5)),
        sum_k_qu=0.0, sum_k_quu_k=0.0)
    traj, _, _ = forward_pass(model, cost, nominal, zero_gains, None, 1.0)
    np.testing.assert_array_equal(traj.controls, nominal.controls)
    np.testing.assert_allclose(traj.states, nominal.states, atol=1e-12)


def test_lq_realized_equals_predicted(lq_setup):
    model, cost, nominal, gains = lq_setup
    base = cost.trajectory_cost(nominal)
    _, realized, predicted = forward_pass(model, cost, nominal, gains, None,
                                          1.0)
    assert base - realized == pytest.approx(predicted, abs=1e-8)


def test_line_search_accepts_first_trial_on_lq(lq_setup):
    model, cost, nominal, gains = lq_setup
    base = cost.trajectory_cost(nominal)
    res = line_search(model, cost, nominal, base, gains, None,
                      SolverConfig(mode="full"))
    assert res.accepted and res.alpha == 1.0 and res.trials == 1
    assert res.cost < base


def test_inverted_gains_terminate_no_descent(lq_setup):
    model, cost, nominal, gains = lq_setup
    bad = GainSchedule(k=-gains.k, K=gains.K, v=gains.v,
                       sum_k_qu=gains.sum_k_qu,
                       sum_k_quu_k=gains.sum_k_quu_k)
    base = cost.trajectory_cost(nominal)
    res = line_search(model, cost, nominal, base, bad, None,
                      SolverConfig(mode="full"))
    assert not res.accepted


def test_accepted_costs_strictly_decrease(lq_setup):
    model, cost, nominal, gains = lq_setup
    base = cost.trajectory_cost(nominal)
    res = line_search(model, cost, nominal, base, gains, None,
                      SolverConfig(mode="full"))
    assert res.cost < base


def test_optimum_at_start_converges_fast():
    rng = np.random.default_rng(1)
    model = random_stable_linear(4, 2, rng)
    goal = np.zeros(4)
    cost = CostModel(q=0.0, r=np.eye(2), q_terminal=5.0, goal=goal)
    problem = ControlProblem(model=model, cost=cost, x0=goal, horizon=5)
    report = solve(problem, SolverConfig(mode="full", seed=0))
    assert report.converged
    assert len(report.iterations) <= 2
    assert report.final_cost <= 1e-12


def test_full_mode_converges_on_lq_in_one_step():
    rng = np.random.default_rng(2)
    model = random_stable_linear(5, 2, rng)
    cost = CostModel(q=1.0, r=np.eye(2), q_terminal=2.0,
                     goal=rng.standard_normal(5))
    problem = ControlProblem(model=model, cost=cost,
                             x0=rng.standard_normal(5), horizon=6)
    report = solve(problem, SolverConfig(mode="full", seed=3))
    assert report.converged
    assert len(report.iterations) <= 2
    assert report.iterations[0].alpha == 1.0


@pytest.fixture(scope="module")
def burgers_small_reports():
    from roilqr.harness import build_problem, gaussian_guess, preset

    cfg = preset("burgers_small")
    u0 = gaussian_guess(cfg, 0, cfg.run.guess_std)
    problem = build_problem(cfg, u_init=u0)
    out = {}
    for mode in ("reduced", "full"):
        out[mode] = solve(problem,
                          SolverConfig(mode=mode, seed=0, max_iterations=40))
    return out


def test_pde_solve_converges(burgers_small_reports):
    for mode, rep in burgers_small_reports.items():
        assert rep.status in ("converged", "no_descent"), mode
        assert rep.final_cost < rep.initial_cost


def test_pde_solve_monotone_descent(burgers_small_reports):
    for rep in burgers_small_reports.values():
        costs = rep.costs
        assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_mode_trace_recorded(burgers_small_reports):
    red = burgers_small_reports["reduced"]
    assert all(1 <= it.n_modes <= 11 for it in red.iterations)
    assert all(it.projection_eps >= 0.0 for it in red.iterations)
    full = burgers_small_reports["full"]
    assert all(it.n_modes == 32 for it in full.iterations)
    assert all(it.projection_eps == 0.0 for it in full.iterations)


def test_reduced_matches_full_on_small_problem(burgers_small_reports):
    red = burgers_small_reports["reduced"].final_cost
    full = burgers_small_reports["full"].final_cost
    assert red <= 1.14 * full


def test_solve_determinism():
    from roilqr.harness import build_problem, gaussian_guess, preset

    cfg = preset("burgers_small")
    u0 = gaussian_guess(cfg, 5, cfg.run.guess_std)
    problem = build_problem(cfg, u_init=u0)
    scfg = SolverConfig(mode="reduced", seed=5, max_iterations=10)
    rep1 = solve(problem, scfg)
    rep2 = solve(problem, scfg)
    assert rep1.costs == rep2.costs
    np.testing.assert_array_equal(rep1.controls, rep2.controls)
    assert [it.n_modes for it in rep1.iterations] == \
        [it.n_modes for it in rep2.iterations]


def test_divergent_initial_guess_reports_failure():
    from roilqr.harness import build_problem, preset

    cfg = preset("burgers_small")
    u0 = np.tile([200.0, -200.0], (cfg.problem.horizon, 1))
    problem = build_problem(cfg, u_init=u0)
    report = solve(problem, cfg.solver)
    assert report.status == "numerical_failure"
    assert report.error is not None
    assert report.wall_time_s > 0


def test_reduced_mode_with_more_snapshots_than_states_reports_failure():
    # 7 snapshots of a 4-dimensional state: no snapshot basis exists
    rng = np.random.default_rng(4)
    model = random_stable_linear(4, 1, rng)
    cost = CostModel(q=1.0, r=np.eye(1), q_terminal=1.0, goal=np.zeros(4))
    problem = ControlProblem(model=model, cost=cost,
                             x0=rng.standard_normal(4), horizon=6)
    report = solve(problem, SolverConfig(mode="reduced"))
    assert report.status == "numerical_failure" and not report.completed
    assert "7" in report.error and "4" in report.error
    assert report.iterations == []
    # full order has no snapshot basis and solves it
    assert solve(problem, SolverConfig(mode="full")).completed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["reduced", "full"]), n_x=st.integers(3, 10),
       n_u=st.integers(1, 3), q=st.floats(0.0, 5.0),
       q_terminal=st.floats(0.0, 5.0), r=st.floats(0.05, 2.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_accepted_costs_strictly_decrease_on_random_lq(mode, n_x, n_u, q,
                                                       q_terminal, r, seed,
                                                       data):
    horizon = data.draw(st.integers(1, min(6, n_x - 1)), label="horizon")
    rng = np.random.default_rng(seed)
    model = random_stable_linear(n_x, n_u, rng)
    cost = CostModel(q=q, r=r * np.eye(n_u), q_terminal=q_terminal,
                     goal=rng.standard_normal(n_x))
    problem = ControlProblem(model=model, cost=cost,
                             x0=rng.standard_normal(n_x), horizon=horizon,
                             u_init=0.5 * rng.standard_normal((horizon, n_u)))
    report = solve(problem, SolverConfig(mode=mode, seed=seed % 1000,
                                         max_iterations=20))
    assert report.completed, (report.status, report.error)
    costs = report.costs
    assert all(b < a for a, b in zip(costs, costs[1:])), costs


def test_burgers_optimum_at_start():
    # zero field, zero goal, zero controls: exact fixed point, zero cost
    from roilqr.harness import build_problem, preset
    from dataclasses import replace

    cfg = preset("burgers_small")
    cfg = replace(cfg, problem=replace(cfg.problem, goal_value=0.0,
                                       init_shape="zero"))
    problem = build_problem(cfg)
    report = solve(problem, cfg.solver)
    assert report.converged and len(report.iterations) == 0
    assert report.final_cost == 0.0


def test_time_budget_reports_timeout():
    from roilqr.harness import build_problem, gaussian_guess, preset

    cfg = preset("burgers_small")
    problem = build_problem(cfg, u_init=gaussian_guess(cfg, 0, 0.3))
    report = solve(problem,
                   SolverConfig(mode="reduced", seed=0, time_budget_s=1e-9))
    assert report.status == "timeout"
    assert len(report.iterations) >= 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(sigma1=1.5)
    with pytest.raises(ValueError):
        SolverConfig(mode="hybrid")
    with pytest.raises(ValueError):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError, match="max_iterations"):
        SolverConfig(max_iterations=0)
    # the budget is checked only once an iteration reaches its line
    # search: a budget <= 0 would run one and then report a timeout
    for budget in (0.0, -1.0):
        with pytest.raises(ValueError, match="time_budget_s"):
            SolverConfig(time_budget_s=budget)


def test_initial_guess_shape_validation():
    rng = np.random.default_rng(4)
    model = LinearModel(np.eye(4), rng.standard_normal((4, 2)))
    cost = CostModel(q=1.0, r=np.eye(2), q_terminal=1.0, goal=np.zeros(4))
    problem = ControlProblem(model=model, cost=cost, x0=np.zeros(4),
                             horizon=5, u_init=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        problem.initial_controls()


# ---------------------------------------------------------------------------
# The line search against the reference search that steps every rollout
# until it diverges and judges the whole ladder.
# ---------------------------------------------------------------------------


def _gains_with_prediction(shape, s, h, rng):
    """Random (T, n_u, d) ``shape`` gains whose predicted improvement is
    alpha*s - alpha^2*h/2: it is positive exactly for alpha < 2*s/h,
    which fixes the first step size a search with a huge previous cost
    accepts."""
    horizon, n_u, dim = shape
    k = 0.3 * rng.standard_normal((horizon, n_u))
    big_k = rng.standard_normal((horizon, n_u, dim)) / (4.0 * dim)
    return GainSchedule(k=k, K=big_k, v=np.zeros((horizon + 1, dim)),
                        sum_k_qu=s, sum_k_quu_k=h)


# (s, h) of the predicted improvement: accepted at trial 1, at trial 6
# (alpha = 1/32), and never (predicted improvement negative for every
# step size)
PREDICTIONS = {"trial_1": (1.0, 0.0), "trial_6": (0.75 / 32, 1.0),
               "no_descent": (-1.0, 0.0)}
EXPECTED_TRIALS = {"trial_1": 1, "trial_6": 6, "no_descent": 27}


def _assert_same_search(res, ref):
    assert (res.accepted, res.alpha, res.trials, res.cost) == \
        (ref.accepted, ref.alpha, ref.trials, ref.cost)
    if ref.accepted:
        np.testing.assert_array_equal(res.trajectory.states.view(np.uint64),
                                      ref.trajectory.states.view(np.uint64))
        np.testing.assert_array_equal(
            res.trajectory.controls.view(np.uint64),
            ref.trajectory.controls.view(np.uint64))


@pytest.fixture(scope="module")
def pde_nominals():
    from roilqr.harness import build_problem, gaussian_guess, preset

    out = {}
    for name in ("burgers_small", "allen_cahn_small", "cahn_hilliard"):
        cfg = preset(name)
        problem = build_problem(
            cfg, u_init=gaussian_guess(cfg, 0, cfg.run.guess_std))
        nominal = rollout(problem.model, problem.x0, problem.u_init)
        out[name] = (problem, nominal)
    return out


@pytest.mark.parametrize("case", sorted(PREDICTIONS))
@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("name", ["burgers_small", "allen_cahn_small",
                                  "cahn_hilliard"])
def test_batched_line_search_is_bit_identical(pde_nominals, name, mode,
                                              case):
    problem, nominal = pde_nominals[name]
    model = problem.model
    basis = method_of_snapshots(nominal.states.T) if mode == "reduced" \
        else None
    dim = basis.n_modes if basis is not None else model.n_x
    gains = _gains_with_prediction((nominal.horizon, model.n_u, dim),
                                   *PREDICTIONS[case],
                                   rng=np.random.default_rng(7))
    cfg = SolverConfig(mode=mode)
    prev_cost = 1e12   # any finite rollout passes once predicted > 0
    res = line_search(model, problem.cost, nominal, prev_cost, gains, basis,
                      cfg)
    ref = line_search_one_row(model, problem.cost, nominal, prev_cost, gains,
                              basis, cfg)
    _assert_same_search(res, ref)
    assert res.trials == EXPECTED_TRIALS[case]


# (status, largest accepted trial) of allen_cahn_small's solves, whose
# searches reject step sizes on the realized improvement: seed 0 ends in a
# no-descent search; at seed 3 one search creeps up to sigma1 and accepts
# at trial 16 (alpha = 2^-15), after trials 5-7 at z = 0.26437, 0.28248,
# 0.29132, whose z3 + |d2| = 0.300162 holds the stop rule off by 1.6e-4
ONE_ROW_SOLVES = {0: ("no_descent", 2), 3: ("converged", 16)}


@pytest.mark.parametrize("seed", sorted(ONE_ROW_SOLVES))
def test_solve_matches_the_one_row_line_search(seed):
    cfg, problem = allen_cahn_small_problem(seed)
    batched = solve(problem, cfg.solver)
    ref = one_row_solve(problem, cfg.solver)
    assert (ref.status, max(it.trials for it in ref.iterations)) == \
        ONE_ROW_SOLVES[seed]
    assert same_steps(batched, ref)


def test_settled_search_steps_three_rows_and_no_later_row_passes():
    # allen_cahn_small at seed 0 ends in a search whose ratios at 1, 1/2
    # and 1/4 (-1.484, -0.412, -0.106) have settled: z3 + |d2| = 0.199 <
    # sigma1, so it stops after those three rollouts.  Judged over the
    # whole ladder, no step size passes.
    cfg, problem = allen_cahn_small_problem()
    report, args = last_search(problem, cfg.solver)
    res, alphas = search_rollouts(args)
    assert report.status == "no_descent" and not res.accepted
    assert (res.trials, alphas) == (3, list(STEP_SIZES[:3]))
    model, cost, prev, prev_cost, gains, basis, _ = args
    _, realized, predicted = forward_pass_one_row(model, cost, prev, gains,
                                                  basis, STEP_SIZES[2])
    assert res.ratio == (prev_cost - realized) / predicted
    assert report.terminal_search == {"trials": 3, "ratio": res.ratio}
    ref = line_search_one_row(*args)
    assert not ref.accepted and ref.trials == len(STEP_SIZES)


def test_search_stops_at_its_first_settled_step_size():
    # reduced allen_cahn at seed 0 ends in a search whose ratios first
    # settle at 1/2, 1/4 and 1/8 (-2.663, -1.077, -0.543): z3 + |d2| =
    # -0.009 < sigma1, where 1, 1/2 and 1/4 give 0.509.  It stops after
    # those four rollouts, and no later step size of the ladder passes.
    cfg = preset("allen_cahn")
    problem = build_problem(
        cfg, u_init=gaussian_guess(cfg, 0, cfg.run.guess_std))
    report, args = last_search(problem, cfg.solver)
    model, cost, prev, prev_cost, gains, basis, _ = args
    ratios = []
    for alpha in STEP_SIZES:
        _, realized, predicted = forward_pass_one_row(model, cost, prev,
                                                      gains, basis, alpha)
        ratios.append((prev_cost - realized) / predicted)
    first = next(k for k in range(1, len(ratios) + 1)
                 if solver._ratio_settled(ratios[:k], cfg.solver.sigma1))
    res, alphas = search_rollouts(args)
    assert first == 4 and not res.accepted
    assert (res.trials, alphas, res.ratio) == \
        (first, list(STEP_SIZES[:first]), ratios[first - 1])
    assert report.terminal_search == {"trials": first, "ratio": res.ratio}
    ref = line_search_one_row(*args)
    assert not ref.accepted and ref.trials == len(STEP_SIZES)


@pytest.mark.parametrize("ratios,settled", [
    ([-1.4843, -0.41186, -0.10611], True),     # z3 + |d2| = 0.199
    ([0.26437, 0.28248, 0.29132], False),      # z3 + |d2| = 0.300162
    ([0.1, 0.1, 0.1], False),                  # no difference: d1 d2 = 0
    ([0.0, 0.2, 0.1], False),                  # the differences change sign
    ([-1.0, -0.5, -0.2], False),               # |d2| > |d1|/2
    ([math.nan, -0.5, -0.25], False),          # a step size without a ratio
    ([-0.5, -0.25], False),                    # fewer than three ratios
    ([9.0, -1.0, -0.5, -0.25], True),          # only the last three count
])
def test_ratio_settled(ratios, settled):
    assert solver._ratio_settled(ratios, 0.3) is settled


class _Abandon(Exception):
    pass


@pytest.mark.parametrize("k", [1, 2, 3])
def test_line_search_checkpoint_stops_after_rollout_k(lq_setup, k):
    # a no-descent sweep of 27 step sizes, one rollout each; a checkpoint
    # raising on its k-th call stops the search after rollout k
    model, cost, nominal, _ = lq_setup
    plant = _Counting(model)
    gains = _gains_with_prediction((nominal.horizon, model.n_u, model.n_x),
                                   *PREDICTIONS["no_descent"],
                                   rng=np.random.default_rng(5))
    done = []   # rollouts finished at each checkpoint call

    def checkpoint():
        done.append(len(plant.rows) // nominal.horizon)
        if len(done) == k:
            raise _Abandon

    with pytest.raises(_Abandon):
        line_search(plant, cost, nominal, 1e12, gains, None,
                    SolverConfig(mode="full"), checkpoint=checkpoint)
    assert done == list(range(1, k + 1))
    assert len(plant.rows) == k * nominal.horizon


@pytest.mark.parametrize("case", sorted(PREDICTIONS))
def test_quiet_checkpoint_leaves_the_search_unchanged(lq_setup, case):
    model, cost, nominal, _ = lq_setup
    gains = _gains_with_prediction((nominal.horizon, model.n_u, model.n_x),
                                   *PREDICTIONS[case],
                                   rng=np.random.default_rng(5))
    cfg = SolverConfig(mode="full")
    calls = []
    res = line_search(model, cost, nominal, 1e12, gains, None, cfg,
                      checkpoint=lambda: calls.append(None))
    ref = line_search(model, cost, nominal, 1e12, gains, None, cfg)
    _assert_same_search(res, ref)
    assert res.trials == EXPECTED_TRIALS[case]
    assert len(calls) == res.trials - 1


class _DivergesAbove:
    """Wraps a model; a row whose first control exceeds ``limit`` steps to
    infinity."""

    def __init__(self, model, limit):
        self.model = model
        self.limit = limit
        self.n_x, self.n_u = model.n_x, model.n_u

    def step_batch(self, states, controls):
        out = self.model.step_batch(states, controls)
        out[np.atleast_2d(controls)[:, 0] > self.limit] = np.inf
        return out


def test_diverging_rollout_is_rejected_and_the_search_backs_off(
        pde_nominals):
    problem, nominal = pde_nominals["burgers_small"]
    gains = _gains_with_prediction((nominal.horizon, 2, problem.model.n_x),
                                   1.0, 0.0, rng=np.random.default_rng(3))
    gains.k[:, 0] = -10.0    # the first control grows by about 10*alpha
    plant = _DivergesAbove(problem.model, nominal.controls[:, 0].max() + 1.0)
    cfg = SolverConfig(mode="full")
    res = line_search(plant, problem.cost, nominal, 1e12, gains, None, cfg)
    ref = line_search_one_row(plant, problem.cost, nominal, 1e12, gains,
                              None, cfg)
    _assert_same_search(res, ref)
    # alpha = 1, ..., 1/8 (trials 1-4) diverge, alpha = 1/16 is accepted
    assert res.accepted and res.trials == 5
    for alpha in STEP_SIZES[:4]:
        assert forward_pass(plant, problem.cost, nominal, gains, None,
                            alpha)[:2] == (None, float("inf"))


@pytest.mark.parametrize("weights", ["preset", "q=0"])
def test_diverged_row_is_stepped_to_the_horizon(pde_nominals, weights):
    # the first control is pushed by 10*alpha from mid-horizon on: the
    # alpha = 1 rollout steps past the plant's limit there, alpha = 1/16
    # never
    problem, nominal = pde_nominals["burgers_small"]
    model, horizon = problem.model, nominal.horizon
    cost = problem.cost
    if weights == "q=0":   # the diverged rollout's cost meets 0 * inf
        cost = CostModel(q=0.0, r=cost.r, q_terminal=0.0, goal=cost.goal)
    gains = _gains_with_prediction((horizon, 2, model.n_x), 1.0, 0.0,
                                   rng=np.random.default_rng(3))
    gains.k[:, 0] = 0.0
    gains.k[horizon // 2:, 0] = -10.0
    plant = _Counting(
        _DivergesAbove(model, nominal.controls[:, 0].max() + 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diverged = forward_pass(plant, cost, nominal, gains, None, 1.0)
        kept = forward_pass(plant, cost, nominal, gains, None, 0.0625)
    assert plant.rows == [1] * (2 * horizon)
    assert diverged == (None, float("inf"), gains.expected_improvement(1.0))
    # the reference stops at the first non-finite state, mid-horizon
    plant.rows.clear()
    assert forward_pass_one_row(plant, cost, nominal, gains, None,
                                1.0)[:2] == (None, float("inf"))
    assert plant.rows == [1] * (horizon // 2 + 1)
    ref = forward_pass_one_row(model, cost, nominal, gains, None, 0.0625)
    assert kept[1:] == ref[1:]
    for got, want in ((kept[0].states, ref[0].states),
                      (kept[0].controls, ref[0].controls)):
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


class _Counting:
    """Wraps a model and records the row count of every simulator call."""

    def __init__(self, model):
        self.model = model
        self.n_x, self.n_u = model.n_x, model.n_u
        self.rows = []

    def step_batch(self, states, controls):
        self.rows.append(np.atleast_2d(states).shape[0])
        return self.model.step_batch(states, controls)


@pytest.mark.parametrize("cap", [1, 3, 4, 16, None])
@pytest.mark.parametrize("case", sorted(PREDICTIONS))
def test_line_search_rollout_and_row_counts(lq_setup, monkeypatch, cap,
                                            case):
    # one rollout per step size judged, one single-row simulator call per
    # timestep, whatever identification's cell cap
    model, cost, nominal, _ = lq_setup
    if cap is not None:
        monkeypatch.setattr(pde, "MAX_CHUNK_CELLS", cap * model.n_x)
    plant = _Counting(model)
    gains = _gains_with_prediction((nominal.horizon, model.n_u, model.n_x),
                                   *PREDICTIONS[case],
                                   rng=np.random.default_rng(5))
    res, alphas = search_rollouts((plant, cost, nominal, 1e12, gains, None,
                                   SolverConfig(mode="full")))
    assert res.trials == EXPECTED_TRIALS[case]
    assert alphas == list(STEP_SIZES[:res.trials])
    assert plant.rows == [1] * (nominal.horizon * res.trials)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_time_budget_stops_a_sweep_mid_search(monkeypatch):
    # this solve ends in a no-descent sweep whose ratio settles after 3
    # step sizes.  The clock stands still until the sweep's first rollout
    # returns, then jumps past the budget: the sweep must stop before its
    # second rollout
    from roilqr.cli import EXIT_NUMERICAL, _status_exit

    _, problem = allen_cahn_small_problem()
    unbounded = solve(problem, SolverConfig(seed=0))
    assert unbounded.status == "no_descent"
    searches = len(unbounded.iterations) + 1

    clock = _FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    alphas = []

    def forward(model, cost, prev, gains, basis, alpha):
        alphas.append(alpha)
        out = forward_pass(model, cost, prev, gains, basis, alpha)
        if alphas.count(1.0) == searches:   # each search starts at 1
            clock.now = 10.0
        return out

    monkeypatch.setattr(solver, "forward_pass", forward)
    report = solve(problem, SolverConfig(seed=0, time_budget_s=1.0))
    assert report.status == "timeout"
    assert _status_exit(report.status) == EXIT_NUMERICAL == 3
    assert alphas.count(1.0) == searches and alphas[-1] == 1.0
    assert report.costs == unbounded.costs
    assert set(report.terminal_phase_times) == set(PHASES)
    assert report.terminal_phase_times["t_forward"] == 10.0
    assert report.wall_time_s == 10.0


def test_stops_after_an_accept_leave_no_terminal_phases(monkeypatch):
    # gamma-convergence and a budget found expired after an accepted
    # step end the solve on that iteration, whose phases are in its record
    cfg, problem = allen_cahn_small_problem()
    converged = solve(problem, SolverConfig(seed=0, gamma=0.99))
    assert converged.status == "converged"
    assert len(converged.iterations) == 1
    assert converged.terminal_phase_times == {}

    clock = _FakeClock()
    monkeypatch.setattr(solver, "time", clock)

    def search(*args, **kwargs):
        ls = line_search(*args, **kwargs)
        clock.now = 10.0
        return ls

    monkeypatch.setattr(solver, "line_search", search)
    report = solve(problem, SolverConfig(seed=0, time_budget_s=1.0))
    assert report.status == "timeout"
    assert report.costs == converged.costs
    assert report.terminal_phase_times == {}
    assert report.iterations[0].t_forward == 10.0
    assert sum(report.phase_times().values()) == report.wall_time_s == 10.0


@pytest.mark.parametrize("status,completed", [
    ("converged", True), ("no_descent", True), ("max_iterations", True),
    ("timeout", False), ("numerical_failure", False)])
def test_completed_statuses_end_on_a_usable_cost(status, completed):
    report = solver.SolveReport(mode="full", seed=0, initial_cost=1.0,
                                status=status)
    assert report.completed is completed


def test_time_budget_stops_identification_between_groups(monkeypatch):
    # reduced allen_cahn_small identifies each iteration in several
    # simulator calls of 2-3 timesteps.  The clock stands still until the
    # first call of the second iteration's identification returns, then
    # jumps past the budget: no further call of that identification runs
    from roilqr.cli import EXIT_NUMERICAL, _status_exit

    cfg, problem = allen_cahn_small_problem()
    unbounded = solve(problem, SolverConfig(seed=0))
    assert len(unbounded.iterations) >= 2

    clock = _FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    calls = []   # simulator calls of each identification
    inside = [False]

    def identify(*args, **kwargs):
        calls.append(0)
        inside[0] = True
        try:
            return generate_rollout_data(*args, **kwargs)
        finally:
            inside[0] = False

    central = problem.model.central

    def counting_unit(*args):
        bad = central(*args)
        if inside[0]:
            calls[-1] += 1
            if len(calls) == 2:
                clock.now = 10.0
        return bad

    monkeypatch.setattr(solver, "generate_rollout_data", identify)
    monkeypatch.setattr(problem.model, "central", counting_unit)
    report = solve(problem, SolverConfig(seed=0, time_budget_s=1.0))
    assert report.status == "timeout"
    assert _status_exit(report.status) == EXIT_NUMERICAL == 3
    rows = 2 * unbounded.iterations[0].sysid_samples
    groups = len(pde.aligned_runs(problem.horizon, rows,
                                  problem.model.n_x))
    assert groups >= 2
    assert calls == [groups, 1]
    assert report.costs == unbounded.costs[:2]
    assert report.terminal_phase_times == {
        "t_basis": 0.0, "t_sysid": 10.0, "t_backward": 0.0,
        "t_forward": 0.0}
    assert report.wall_time_s == 10.0


def test_time_budget_stops_before_the_backward_pass(monkeypatch):
    cfg, problem = allen_cahn_small_problem()
    unbounded = solve(problem, SolverConfig(seed=0))
    assert len(unbounded.iterations) >= 2

    clock = _FakeClock()
    monkeypatch.setattr(solver, "time", clock)
    fits, passes = [], []

    def fit(data):
        fits.append(data)
        if len(fits) == 2:
            clock.now = 10.0
        return fit_ltv(data)

    def backward(*args):
        passes.append(args)
        return backward_pass(*args)

    monkeypatch.setattr(solver, "fit_ltv", fit)
    monkeypatch.setattr(solver, "backward_pass", backward)
    report = solve(problem, SolverConfig(seed=0, time_budget_s=1.0))
    assert report.status == "timeout"
    assert (len(fits), len(passes)) == (2, 1)
    assert report.costs == unbounded.costs[:2]
    assert report.terminal_phase_times["t_sysid"] == 10.0
    assert report.terminal_phase_times["t_backward"] == 0.0
    assert report.terminal_phase_times["t_forward"] == 0.0


class _DivergesOnCall(LinearModel):
    """Linear plant whose ``fail_on``-th batch of more than one row comes
    back with a non-finite last row."""

    def __init__(self, plant, fail_on):
        super().__init__(plant.a, plant.b)
        self.fail_on = fail_on
        self.batches = 0

    def step_batch(self, states, controls):
        out = super().step_batch(states, controls)
        if len(out) > 1:
            self.batches += 1
            if self.batches == self.fail_on:
                out[-1] = np.nan
        return out


def test_divergence_mid_identification_is_a_numerical_failure(monkeypatch):
    from roilqr.cli import EXIT_NUMERICAL, _status_exit

    rng = np.random.default_rng(9)
    model = _DivergesOnCall(random_stable_linear(4, 2, rng), fail_on=3)
    cost = CostModel(q=1.0, r=np.eye(2), q_terminal=2.0,
                     goal=rng.standard_normal(4))
    problem = ControlProblem(model=model, cost=cost,
                             x0=rng.standard_normal(4), horizon=5)
    # one timestep of 2 * (4 + 2) rows per simulator call
    monkeypatch.setattr(pde, "MAX_CHUNK_CELLS", 2 * 6 * 4)
    report = solve(problem, SolverConfig(mode="full", seed=0))
    assert report.status == "numerical_failure"
    assert _status_exit(report.status) == EXIT_NUMERICAL == 3
    # the last row of a timestep's call is the minus side of its last
    # sample
    assert report.error == \
        "iteration 1: perturbation rollout 5 diverged at timestep 2"
    assert report.iterations == [] and model.batches == 3
    assert report.terminal_phase_times["t_sysid"] > 0.0
    assert report.terminal_phase_times["t_forward"] == 0.0


def test_mu_at_its_ceiling_is_a_numerical_failure(monkeypatch):
    # a concave terminal term keeps the control Hessian indefinite however
    # far the regularizer damps it
    from dataclasses import replace

    from roilqr.cli import EXIT_NUMERICAL, _status_exit

    rng = np.random.default_rng(10)
    model = random_stable_linear(4, 2, rng)
    cost = CostModel(q=1.0, r=np.eye(2), q_terminal=2.0,
                     goal=rng.standard_normal(4))
    problem = ControlProblem(model=model, cost=cost,
                             x0=rng.standard_normal(4), horizon=5)

    def concave(cost, nominal, basis=None):
        terms = reduce_cost(cost, nominal, basis)
        return replace(terms, quad_terminal=-1e9 * np.eye(terms.dim))

    monkeypatch.setattr(solver, "reduce_cost", concave)
    report = solve(problem, SolverConfig(mode="full", seed=0))
    assert report.status == "numerical_failure"
    assert _status_exit(report.status) == EXIT_NUMERICAL == 3
    assert report.error.startswith("iteration 1: control Hessian non-PD")
    assert "mu at ceiling" in report.error
    assert report.iterations == []
    assert report.terminal_phase_times["t_backward"] > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_control_hessian_is_a_numerical_failure(monkeypatch):
    # an identified B of 1e200 overflows B^T V B; the run ends typed, not
    # in a traceback
    from roilqr.cli import EXIT_NUMERICAL, _status_exit

    rng = np.random.default_rng(11)
    model = random_stable_linear(4, 2, rng)
    cost = CostModel(q=1.0, r=np.eye(2), q_terminal=2.0,
                     goal=rng.standard_normal(4))
    problem = ControlProblem(model=model, cost=cost,
                             x0=rng.standard_normal(4), horizon=5)

    def overflowing(data):
        ltv = fit_ltv(data)
        ltv.B[:] = 1e200
        return ltv

    monkeypatch.setattr(solver, "fit_ltv", overflowing)
    report = solve(problem, SolverConfig(mode="full", seed=0))
    assert report.status == "numerical_failure"
    assert _status_exit(report.status) == EXIT_NUMERICAL == 3
    assert report.error == \
        "iteration 1: control Hessian not finite at timestep 4"
    assert report.iterations == []
    assert report.terminal_phase_times["t_backward"] > 0.0


def test_full_order_solve_holds_one_ltv_model():
    # a solve holds at most one (T, d, d + n_u) array: the fit overwrites
    # the regression data, data and model are dropped once the gains
    # exist, and the backward pass keeps one value Hessian; keeping the
    # previous iteration's data, model and value-Hessian stack into the
    # next identification peaks at about 5 such arrays
    cfg = preset("allen_cahn_small")
    problem = build_problem(cfg, u_init=gaussian_guess(cfg, 1000, 0.3))
    n_x, n_u = problem.model.n_x, problem.model.n_u
    model_bytes = problem.horizon * n_x * (n_x + n_u) * 8
    tracemalloc.start()
    try:
        report = solve(problem, SolverConfig(mode="full", seed=1000,
                                             max_iterations=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.iterations) == 2
    assert peak < 2.5 * model_bytes, \
        f"traced peak {peak / model_bytes:.2f} LTV models"
