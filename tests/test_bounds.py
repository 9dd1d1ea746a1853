"""Bound inequalities on synthetic exact cases, a scalar hand-check, and
identified PDE instances."""

import numpy as np
import pytest
from helpers import LinearModel

from roilqr.bounds import (LqrPair, build_lqr_pair, check_objective_gap,
                           check_minimizer_distance, trace_limit_set,
                           verify_bounds)
from roilqr.lqr import CostModel, ReducedCostTerms, reduce_cost
from roilqr.pde import Trajectory, rollout
from roilqr.pod import ReducedBasis, method_of_snapshots
from roilqr.solver import SolverConfig, solve
from roilqr.sysid import LtvModel, PerturbationConfig


def _invariant_subspace_pair(seed=0, n=10, l=3, n_u=2, horizon=5):
    """Linear plant whose dynamics and nominal live exactly in span(phi):
    the projection loses nothing, so both quadratics coincide."""
    rng = np.random.default_rng(seed)
    phi, _ = np.linalg.qr(rng.standard_normal((n, l)))
    a_red = 0.8 * rng.standard_normal((l, l))
    b_red = rng.standard_normal((l, n_u))
    a_full = phi @ a_red @ phi.T
    b_full = phi @ b_red
    model = LinearModel(a_full, b_full)
    x0 = phi @ rng.standard_normal(l)
    controls = 0.3 * rng.standard_normal((horizon, n_u))
    nominal = rollout(model, x0, controls)
    basis = ReducedBasis(phi=phi, eigenvalues=np.ones(l), captured_energy=1.0)
    cost = CostModel(q=1.0, r=0.5 * np.eye(n_u), q_terminal=2.0,
                     goal=phi @ rng.standard_normal(l))
    fo_ltv = LtvModel(A=np.broadcast_to(a_full, (horizon, n, n)).copy(),
                      B=np.broadcast_to(b_full, (horizon, n, n_u)).copy())
    ro_ltv = LtvModel(A=np.broadcast_to(a_red, (horizon, l, l)).copy(),
                      B=np.broadcast_to(b_red, (horizon, l, n_u)).copy())
    return LqrPair(
        fo_ltv=fo_ltv, fo_terms=reduce_cost(cost, nominal, None),
        ro_ltv=ro_ltv, ro_terms=reduce_cost(cost, nominal, basis),
        basis=basis, nominal=nominal, cost=cost,
    )


def test_exact_basis_gap_vanishes():
    pair = _invariant_subspace_pair()
    frag = check_objective_gap(pair, samples=50, seed=0)
    assert frag["eps"] <= 1e-8
    assert frag["max_objective_gap"] <= 1e-8
    assert frag["holds"]


def test_exact_basis_minimizers_coincide():
    pair = _invariant_subspace_pair(seed=1)
    frag = check_minimizer_distance(pair, samples=20, seed=1)
    assert frag["minimizer_distance"] <= 1e-8
    assert frag["minima_gap_ok"] and frag["distance_ok"]


def test_zero_input_gap_within_bound():
    pair = _invariant_subspace_pair(seed=2)
    frag = check_objective_gap(pair, samples=1, seed=2, sigma=1e-12)
    # delta-U ~ 0: gap reduces to the nominal linear-term difference
    assert frag["max_objective_gap"] <= frag["gap_bound"] + 1e-8


def test_scalar_toy_hand_computable():
    # one state, one control, one step: everything solvable by hand
    a = np.ones((1, 1, 1))
    b = np.ones((1, 1, 1))
    fo = LtvModel(A=a, B=b)
    ro = LtvModel(A=a.copy(), B=b.copy())
    terms = ReducedCostTerms(
        lin_state=np.array([[1.0], [2.0]]), quad_state=np.eye(1),
        quad_terminal=np.eye(1), lin_control=np.array([[0.5]]), r=np.eye(1))
    basis = ReducedBasis(phi=np.eye(1), eigenvalues=np.ones(1),
                         captured_energy=1.0)
    nominal = Trajectory(states=np.array([[1.0], [1.0]]),
                         controls=np.array([[0.5]]))
    cost = CostModel(q=1.0, r=np.eye(1), q_terminal=1.0, goal=np.zeros(1))
    pair = LqrPair(fo_ltv=fo, fo_terms=terms, ro_ltv=ro, ro_terms=terms,
                   basis=basis, nominal=nominal, cost=cost)
    frag = check_minimizer_distance(pair, samples=10, seed=0)
    # identical problems: minimizers coincide; hand value du* = -(g/h)
    # objective: 0.5 du^2 (R) + lin 0.5 du + terminal 2(du) + 0.5 du^2
    # => h = 1 + 2 = 3 hmm avoid hand slip: verify consistency instead
    assert frag["minimizer_distance"] <= 1e-10
    du_star = -(0.5 + 2.0 * 1.0) / (1.0 + 1.0)
    from roilqr.lqr import lqr_solve_dense

    np.testing.assert_allclose(lqr_solve_dense(fo, terms)[0, 0], du_star,
                               atol=1e-12)


@pytest.fixture(scope="module")
def burgers_pair():
    from roilqr.harness import build_problem, gaussian_guess, preset

    cfg = preset("burgers_small")
    problem = build_problem(cfg, u_init=gaussian_guess(cfg, 0, 0.3))
    report = solve(problem, SolverConfig(mode="reduced", seed=0), cfg.perturb)
    nominal = report.trajectory
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=0.99999)
    pair = build_lqr_pair(problem.model, problem.cost, nominal, basis,
                          PerturbationConfig(seed=11))
    return problem, report, pair


def test_objective_gap_on_identified_instance(burgers_pair):
    _, _, pair = burgers_pair
    frag = check_objective_gap(pair, samples=100, seed=3)
    assert frag["holds"]
    assert frag["max_objective_gap"] <= frag["gap_bound"]


def test_minimizer_distance_on_identified_instance(burgers_pair):
    _, _, pair = burgers_pair
    frag = check_minimizer_distance(pair, samples=50, seed=4)
    assert frag["uniformity_ok"]
    assert frag["minima_gap_ok"] and frag["distance_ok"]
    assert frag["looseness"] >= 1.0


def test_report_assembly(burgers_pair):
    _, _, pair = burgers_pair
    report = verify_bounds(pair, samples=60, seed=5)
    assert report.cbar1 == 7.0 * (pair.horizon + 1) * report.cbar
    assert report.objective_gap_ok and report.minima_gap_ok and report.distance_ok
    payload = report.to_dict()
    assert set(payload) >= {"eps", "cbar", "cbar1", "sigma_min", "delta",
                            "max_objective_gap", "minimizer_distance"}


def test_limit_set_trace(burgers_pair):
    problem, report, _ = burgers_pair
    trace, consistent = trace_limit_set(problem, report, samples=20, seed=6)
    assert len(trace) == len(report.iterate_controls)
    assert consistent
    # converged run: final iterate inside the limit set
    assert trace[-1]["member"]
    # accepted iterations strictly decrease cost while outside the set
    costs = [e["cost"] for e in trace]
    for prev, nxt in zip(trace, trace[1:]):
        if not prev["member"]:
            assert nxt["cost"] < prev["cost"]
    assert costs[0] >= costs[-1]


def test_far_start_first_iterate_outside_set():
    # probing at a small perturbation scale with a full-span basis makes
    # delta tight; a far-from-optimal start then has a Newton step far
    # larger than delta
    from roilqr.harness import build_problem, gaussian_guess, preset

    cfg = preset("burgers_small")
    problem = build_problem(cfg, u_init=3.0 * gaussian_guess(cfg, 2, 0.3))
    report = solve(problem,
                   SolverConfig(mode="reduced", seed=2, max_iterations=6,
                                energy_cutoff=1.0 - 1e-12),
                   cfg.perturb)
    trace, _ = trace_limit_set(problem, report,
                                energy_cutoff=1.0 - 1e-12,
                                samples=20, seed=7, sigma=1e-3)
    assert not trace[0]["member"]
