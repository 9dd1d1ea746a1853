"""Bound inequalities on synthetic exact cases, a scalar hand-check, and
identified PDE instances."""

from types import SimpleNamespace

import numpy as np
import pytest
from helpers import LinearModel, lqr_solve_dense, random_stable_linear
from hypothesis import given, settings
from hypothesis import strategies as st

import roilqr.bounds
from roilqr.bounds import (LqrPair, build_lqr_pair, verify_bounds,
                           verify_iterates)
from roilqr.lqr import (DENSE_ORACLE_LIMIT, CostModel, ReducedCostTerms,
                        reduce_cost, stack_quadratic)
from roilqr.pde import Trajectory, rollout
from roilqr.pod import ReducedBasis, method_of_snapshots
from roilqr.solver import SolverConfig, solve
from roilqr.sysid import LtvModel


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
    report = verify_bounds(pair, samples=50, seed=0)
    assert report.eps <= 1e-8
    assert report.max_objective_gap <= 1e-8
    assert report.objective_gap_ok


def test_exact_basis_minimizers_coincide():
    pair = _invariant_subspace_pair(seed=1)
    # minimizer draws: max(20, 40 // 2) = 20 from seed 0 + 1
    report = verify_bounds(pair, samples=40, seed=0)
    assert report.minimizer_distance <= 1e-8
    assert report.minima_gap_ok and report.distance_ok


def test_zero_input_gap_within_bound():
    pair = _invariant_subspace_pair(seed=2)
    report = verify_bounds(pair, samples=1, seed=2, sigma=1e-12)
    # delta-U ~ 0: gap reduces to the nominal linear-term difference
    assert report.max_objective_gap <= report.gap_bound + 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_x=st.integers(3, 11), n_u=st.integers(1, 3),
       cutoff=st.sampled_from([0.9, 0.99, 0.999999]),
       q=st.floats(0.0, 5.0), q_terminal=st.floats(0.0, 5.0),
       r=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_bounds_hold_on_random_linear_plants(n_x, n_u, cutoff, q,
                                             q_terminal, r, seed, data):
    # identified models of a linear plant around a random nominal,
    # truncated to a snapshot basis that may lose energy
    horizon = data.draw(st.integers(1, min(6, n_x - 1)), label="horizon")
    rng = np.random.default_rng(seed)
    model = random_stable_linear(n_x, n_u, rng)
    nominal = rollout(model, rng.standard_normal(n_x),
                      0.5 * rng.standard_normal((horizon, n_u)))
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=cutoff)
    cost = CostModel(q=q, r=r * np.eye(n_u), q_terminal=q_terminal,
                     goal=rng.standard_normal(n_x))
    pair = build_lqr_pair(model, cost, nominal, basis)
    report = verify_bounds(pair, samples=40, seed=seed)
    assert report.objective_gap_ok
    assert report.minima_gap_ok
    assert report.distance_ok


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
    report = verify_bounds(pair, samples=20, seed=0)
    # identical problems: minimizers coincide.  With dz_1 = du the
    # objective is 0.5 du^2 (R) + 0.5 du + 2 du + 0.5 du^2 (terminal),
    # so du* = -g / h = -2.5 / 2
    assert report.minimizer_distance <= 1e-10
    du_star = -(0.5 + 2.0 * 1.0) / (1.0 + 1.0)
    np.testing.assert_allclose(lqr_solve_dense(fo, terms)[0, 0], du_star,
                               atol=1e-12)


@pytest.fixture(scope="module")
def burgers_pair():
    from roilqr.harness import build_problem, gaussian_guess, preset

    cfg = preset("burgers_small")
    problem = build_problem(cfg, u_init=gaussian_guess(cfg, 0, 0.3))
    report = solve(problem, SolverConfig(mode="reduced", seed=0))
    nominal = report.trajectory
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=0.99999)
    pair = build_lqr_pair(problem.model, problem.cost, nominal, basis)
    return problem, report, pair


@pytest.fixture(scope="module")
def burgers_bounds(burgers_pair):
    # objective-gap draws: 100 from seed 3; minimizer draws: 50 from seed 4
    return verify_bounds(burgers_pair[2], samples=100, seed=3)


def test_objective_gap_on_identified_instance(burgers_bounds):
    assert burgers_bounds.objective_gap_ok
    assert burgers_bounds.max_objective_gap <= burgers_bounds.gap_bound


def test_minimizer_distance_on_identified_instance(burgers_bounds):
    assert burgers_bounds.uniformity_ok
    assert burgers_bounds.minima_gap_ok and burgers_bounds.distance_ok
    assert burgers_bounds.distance_looseness >= 1.0


def test_report_assembly(burgers_pair):
    _, _, pair = burgers_pair
    report = verify_bounds(pair, samples=60, seed=5)
    assert report.cbar1 == 7.0 * (pair.horizon + 1) * report.cbar
    assert report.objective_gap_ok and report.minima_gap_ok and report.distance_ok
    payload = report.to_dict()
    assert set(payload) >= {"eps", "cbar", "cbar1", "sigma_min", "delta",
                            "max_objective_gap", "gap_bound", "minima_gap",
                            "minima_gap_bound", "minimizer_distance"}


@pytest.fixture(scope="module")
def burgers_walk(burgers_pair):
    # checks: 60 draws from seed 5, 30 from seed 6; trace iterate idx:
    # max(20, 60 // 10) = 20 draws from seed 7 + idx
    problem, report, _ = burgers_pair
    return verify_iterates(problem, report, samples=60, seed=5)


def test_limit_set_trace(burgers_pair, burgers_walk):
    _, report, _ = burgers_pair
    trace = burgers_walk.limit_set_trace
    assert len(trace) == len(report.iterate_controls)
    assert burgers_walk.limit_set_consistent
    # converged run: final iterate inside the limit set
    assert trace[-1]["member"]
    # accepted iterations strictly decrease cost while outside the set
    costs = [e["cost"] for e in trace]
    for prev, nxt in zip(trace, trace[1:]):
        if not prev["member"]:
            assert nxt["cost"] < prev["cost"]
    assert costs[0] >= costs[-1]


def test_walk_checks_the_last_iterate(burgers_pair, burgers_walk):
    # the last iterate re-rolled is the solve's trajectory bit for bit,
    # so the walk's checks are those of the pair built around it
    _, report, pair = burgers_pair
    walk = burgers_walk.to_dict()
    checks = verify_bounds(pair, samples=60, seed=5).to_dict()
    for key in ("limit_set_trace", "limit_set_consistent"):
        del walk[key], checks[key]
    assert walk == checks
    assert burgers_walk.limit_set_trace[-1]["cost"] == report.final_cost


def test_walk_stacks_each_model_once(burgers_pair, monkeypatch):
    # every value, deviation, minimizer, sigma_min and Newton step of a
    # walk is read from each LTV model's one stacked form, the last
    # pair's included, which the walk's checks read again
    problem, report, _ = burgers_pair
    stacked = []

    def counting(ltv, terms):
        stacked.append(ltv)
        return stack_quadratic(ltv, terms)

    monkeypatch.setattr(roilqr.bounds, "stack_quadratic", counting)
    verify_iterates(problem, report, samples=20, seed=5)
    assert len(stacked) == 2 * len(report.iterate_controls)
    assert len({id(ltv) for ltv in stacked}) == len(stacked)


def test_dense_limit_holds_for_verification():
    # 101 timesteps of 2 controls stack to 202 > DENSE_ORACLE_LIMIT
    pair = _invariant_subspace_pair(horizon=101)
    assert pair.horizon * 2 > DENSE_ORACLE_LIMIT
    with pytest.raises(ValueError, match="stacked size 202 exceeds oracle"):
        verify_bounds(pair, samples=2, seed=0)


def test_far_start_first_iterate_outside_set():
    # probing at a small perturbation scale with a full-span basis makes
    # delta tight; a far-from-optimal start then has a Newton step far
    # larger than delta
    from roilqr.harness import build_problem, gaussian_guess, preset

    cfg = preset("burgers_small")
    problem = build_problem(cfg, u_init=3.0 * gaussian_guess(cfg, 2, 0.3))
    report = solve(problem,
                   SolverConfig(mode="reduced", seed=2, max_iterations=6,
                                energy_cutoff=1.0 - 1e-12))
    # trace iterate idx: 20 draws from seed 8 + idx
    walk = verify_iterates(problem, report, energy_cutoff=1.0 - 1e-12,
                           samples=20, seed=6, sigma=1e-3)
    assert not walk.limit_set_trace[0]["member"]


def test_walk_needs_an_iterate():
    with pytest.raises(ValueError, match="no iterate"):
        verify_iterates(None, SimpleNamespace(iterate_controls=[]))
