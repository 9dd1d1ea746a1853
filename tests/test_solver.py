"""Outer-loop behavior: exactness on LQ problems, line-search guarantees,
monotone descent and determinism on the PDE problems."""

import numpy as np
import pytest
from helpers import LinearModel, random_stable_linear

from roilqr.lqr import CostModel, GainSchedule, Regularizer, backward_pass, \
    reduce_cost
from roilqr.pde import rollout
from roilqr.solver import (ControlProblem, SolverConfig, forward_pass,
                           line_search, solve)
from roilqr.sysid import PerturbationConfig, fit_ltv, generate_rollout_data


@pytest.fixture
def lq_setup():
    rng = np.random.default_rng(0)
    model = random_stable_linear(5, 2, rng)
    cost = CostModel(q=1.0, r=0.5 * np.eye(2), q_terminal=3.0,
                     goal=rng.standard_normal(5))
    x0 = rng.standard_normal(5)
    horizon = 7
    nominal = rollout(model, x0, 0.3 * rng.standard_normal((horizon, 2)))
    ltv = fit_ltv(generate_rollout_data(model, nominal,
                                        cfg=PerturbationConfig(seed=1)))
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
        V=np.zeros((nominal.horizon + 1, 5, 5)),
        sum_k_qu=0.0, sum_k_quu_k=0.0)
    traj, _, _ = forward_pass(model, cost, nominal, zero_gains, None, 1.0)
    np.testing.assert_array_equal(traj.controls, nominal.controls)
    np.testing.assert_allclose(traj.states, nominal.states, atol=1e-12)


def test_lq_realized_equals_predicted(lq_setup):
    model, cost, nominal, gains = lq_setup
    base = cost.trajectory_cost(nominal)
    traj, realized, predicted = forward_pass(model, cost, nominal, gains,
                                             None, 1.0)
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
    bad = GainSchedule(k=-gains.k, K=gains.K, v=gains.v, V=gains.V,
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
    report = solve(problem, SolverConfig(mode="full", seed=0),
                   PerturbationConfig(sigma_x=1e-6, sigma_u=1e-6))
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
    report = solve(problem, SolverConfig(mode="full", seed=3),
                   PerturbationConfig(sigma_x=1e-5, sigma_u=1e-5))
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
                          SolverConfig(mode=mode, seed=0, max_iterations=40),
                          cfg.perturb)
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
    rep1 = solve(problem, scfg, cfg.perturb)
    rep2 = solve(problem, scfg, cfg.perturb)
    assert rep1.costs == rep2.costs
    np.testing.assert_array_equal(rep1.controls, rep2.controls)
    assert [it.n_modes for it in rep1.iterations] == \
        [it.n_modes for it in rep2.iterations]


def test_divergent_initial_guess_reports_failure():
    from roilqr.harness import build_problem, preset

    cfg = preset("burgers_small")
    u0 = np.tile([200.0, -200.0], (cfg.problem.horizon, 1))
    problem = build_problem(cfg, u_init=u0)
    report = solve(problem, cfg.solver, cfg.perturb)
    assert report.status == "numerical_failure"
    assert report.error is not None


def test_burgers_optimum_at_start():
    # zero field, zero goal, zero controls: exact fixed point, zero cost
    from roilqr.harness import build_problem, preset
    from dataclasses import replace

    cfg = preset("burgers_small")
    cfg = replace(cfg, problem=replace(cfg.problem, goal_value=0.0,
                                       init_shape="zero"))
    problem = build_problem(cfg)
    report = solve(problem, cfg.solver, cfg.perturb)
    assert report.converged and len(report.iterations) == 0
    assert report.final_cost == 0.0


def test_time_budget_reports_timeout():
    from roilqr.harness import build_problem, gaussian_guess, preset

    cfg = preset("burgers_small")
    problem = build_problem(cfg, u_init=gaussian_guess(cfg, 0, 0.3))
    report = solve(problem,
                   SolverConfig(mode="reduced", seed=0, time_budget_s=0.0),
                   cfg.perturb)
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
    # at alpha_min <= 0 a no-descent sweep never ends: alpha underflows to
    # 0.0, which still satisfies alpha >= alpha_min
    for alpha_min in (0.0, -1e-8, 2.0):
        with pytest.raises(ValueError, match="alpha_min"):
            SolverConfig(alpha_min=alpha_min)
    for mu_init in (0.0, -1.0, 1e7):
        with pytest.raises(ValueError, match="mu"):
            SolverConfig(mu_init=mu_init)


def test_smallest_alpha_min_still_ends_the_sweep(lq_setup):
    model, cost, nominal, gains = lq_setup
    bad = GainSchedule(k=-gains.k, K=gains.K, v=gains.v, V=gains.V,
                       sum_k_qu=gains.sum_k_qu,
                       sum_k_quu_k=gains.sum_k_quu_k)
    res = line_search(model, cost, nominal, cost.trajectory_cost(nominal),
                      bad, None, SolverConfig(mode="full", alpha_min=5e-324))
    # alpha = 2^0 ... 2^-1074 (the smallest positive double), then 0.0
    assert not res.accepted and res.trials == 1075


def test_initial_guess_shape_validation():
    rng = np.random.default_rng(4)
    model = LinearModel(np.eye(4), rng.standard_normal((4, 2)))
    cost = CostModel(q=1.0, r=np.eye(2), q_terminal=1.0, goal=np.zeros(4))
    problem = ControlProblem(model=model, cost=cost, x0=np.zeros(4),
                             horizon=5, u_init=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        problem.initial_controls()
