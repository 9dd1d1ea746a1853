"""Acceptance gate: every exit criterion at its frozen tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion.  The heavy artifacts (three benchmark pairs, the
repeatability sweep, three bound-verification instances) are shared
module-scoped fixtures, so the whole gate runs in about a minute.
"""

import numpy as np
import pytest
from helpers import random_stable_linear, simulate_feedback, step

from roilqr.bounds import build_lqr_pair, verify_bounds
from roilqr.harness import (build_problem, gaussian_guess, preset,
                            run_benchmark, run_repeatability)
from roilqr.lqr import Regularizer, backward_pass, lqr_solve_dense, reduce_cost
from roilqr.pde import rollout
from roilqr.pod import method_of_snapshots
from roilqr.solver import SolverConfig, solve
from roilqr.sysid import PerturbationConfig, fit_ltv, generate_rollout_data

BENCH_PRESETS = ("burgers", "allen_cahn_small", "cahn_hilliard")


def _criterion(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def benchmarks():
    return {name: run_benchmark(preset(name)) for name in BENCH_PRESETS}


@pytest.fixture(scope="module")
def repeatability():
    from dataclasses import replace

    cfg = preset("burgers")
    cfg = replace(cfg, run=replace(cfg.run, repeats=10))
    return run_repeatability(cfg)


@pytest.fixture(scope="module")
def bound_instances():
    results = []
    cfg = preset("burgers_small")
    for seed in (0, 1, 2):
        problem = build_problem(
            cfg, u_init=gaussian_guess(cfg, seed, cfg.run.guess_std))
        report = solve(problem, SolverConfig(mode="reduced", seed=seed),
                       cfg.perturb)
        nominal = report.trajectory
        basis = method_of_snapshots(nominal.states.T, energy_cutoff=0.99999)
        pair = build_lqr_pair(problem.model, problem.cost, nominal, basis,
                              PerturbationConfig(seed=100 + seed))
        results.append(verify_bounds(pair, samples=150, seed=seed))
    return results


@pytest.fixture(scope="module")
def all_reports(benchmarks, repeatability):
    reports = []
    for record in benchmarks.values():
        reports.extend([record.reduced_report, record.full_report])
    reports.extend(repeatability[1])
    return reports


def test_optimality_gap(benchmarks):
    gaps = {name: benchmarks[name].cost_gap
            for name in ("burgers", "allen_cahn_small")}
    ok = all(g is not None and g <= 0.14 for g in gaps.values())
    detail = ", ".join(f"{n}: {g:+.3%}" for n, g in gaps.items())
    _criterion("optimality gap (reduced <= 1.14x full)", ok, detail)


def test_reduction_scale(benchmarks):
    counts = {}
    for name, record in benchmarks.items():
        red = record.reduced_report
        counts[name] = red.iterations[-1].n_modes
        converged_full = record.full_report.trajectory
        basis = method_of_snapshots(converged_full.states.T,
                                    energy_cutoff=0.99999)
        counts[name] = max(counts[name], basis.n_modes)
    ok = all(c <= 10 for c in counts.values())
    detail = ", ".join(f"{n}: l={c}" for n, c in counts.items())
    _criterion("reduction scale (l <= 10 at 99.999% cutoff)", ok, detail)


def test_speedup(benchmarks):
    ratios = {}
    for name, record in benchmarks.items():
        if record.full["status"] in ("converged", "no_descent",
                                     "max_iterations"):
            ratios[name] = record.speedup
    ok = len(ratios) > 0 and all(r > 1.0 for r in ratios.values())
    detail = ", ".join(f"{n}: {r:.1f}x" for n, r in ratios.items())
    _criterion("speedup (reduced faster wherever full completes)", ok, detail)


def test_burgers_task_success(benchmarks):
    traj = benchmarks["burgers"].reduced_report.trajectory
    err = float(np.max(np.abs(traj.states[-1] - (-0.5))))
    _criterion("Burgers task (terminal Linf to -0.5 <= 0.1)", err <= 0.1,
               f"Linf={err:.4f}")


def test_monotone_descent(all_reports, bound_instances):
    worst = 0.0
    count = 0
    for rep in all_reports:
        costs = rep.costs
        count += 1
        for a, b in zip(costs, costs[1:]):
            worst = max(worst, b - a)
    _criterion("monotone descent (non-increasing accepted costs)",
               worst <= 0.0, f"{count} runs, worst increase {worst:.3g}")


def test_bound_verification(bound_instances):
    ok = all(r.objective_gap_ok and r.minima_gap_ok and r.distance_ok
             and r.uniformity_ok for r in bound_instances)
    detail = "; ".join(
        f"inst{i}: gap {r.max_objective_gap:.3g}<=bound "
        f"{r.cbar1 * r.eps:.3g}, dist {r.minimizer_distance:.3g}<=delta "
        f"{r.delta:.3g} (loose {r.distance_looseness:.0f}x)"
        for i, r in enumerate(bound_instances))
    _criterion("bound verification (objective gap / minima gap / "
               "minimizer distance on 3 seeded instances)", ok, detail)


def test_oracle_backward_vs_dense():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        model = random_stable_linear(3 + seed % 3, 1 + seed % 2, rng)
        horizon = 4 + seed % 3
        x0 = rng.standard_normal(model.n_x)
        nominal = rollout(model, x0,
                          0.4 * rng.standard_normal((horizon, model.n_u)))
        from roilqr.lqr import CostModel

        cost = CostModel(q=1.0, r=0.5 * np.eye(model.n_u), q_terminal=2.0,
                         goal=rng.standard_normal(model.n_x))
        ltv = fit_ltv(generate_rollout_data(
            model, nominal, cfg=PerturbationConfig(seed=seed)))
        terms = reduce_cost(cost, nominal, None)
        gains = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
        du_bp = simulate_feedback(ltv, gains)
        du_dense = lqr_solve_dense(ltv, terms)
        worst = max(worst, float(np.max(np.abs(du_bp - du_dense))))
    _criterion("oracle (a): backward pass vs dense QP on 10 instances",
               worst <= 1e-8, f"max error {worst:.3g}")


def test_oracle_ltv_recovery():
    rng = np.random.default_rng(300)
    model = random_stable_linear(5, 2, rng)
    nominal = rollout(model, rng.standard_normal(5),
                      0.3 * rng.standard_normal((6, 2)))
    ltv = fit_ltv(generate_rollout_data(
        model, nominal, cfg=PerturbationConfig(n_rollouts=20, seed=1)))
    err = max(float(np.max(np.abs(ltv.A - model.a))),
              float(np.max(np.abs(ltv.B - model.b))))
    _criterion("oracle (b): noiseless LTV plant recovery", err <= 1e-8,
               f"max error {err:.3g}")


def test_oracle_galerkin_projection():
    rng = np.random.default_rng(301)
    model = random_stable_linear(12, 3, rng)
    nominal = rollout(model, rng.standard_normal(12),
                      0.3 * rng.standard_normal((5, 3)))
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=1.0)
    data = generate_rollout_data(model, nominal, basis,
                                 PerturbationConfig(seed=2))
    ltv = fit_ltv(data)
    phi = basis.phi
    err = 0.0
    for t in range(5):
        err = max(err,
                  float(np.max(np.abs(ltv.A[t] - phi.T @ model.a @ phi))),
                  float(np.max(np.abs(ltv.B[t] - phi.T @ model.b))))
    _criterion("oracle (c): reduced fit equals Galerkin projection",
               err <= 1e-6, f"max error {err:.3g}")


def test_oracle_snapshots_vs_svd():
    rng = np.random.default_rng(302)
    x = rng.standard_normal((60, 12))
    basis = method_of_snapshots(x, energy_cutoff=1.0)
    u_svd = np.linalg.svd(x, full_matrices=False)[0][:, :basis.n_modes]
    signs = np.sign(np.sum(u_svd * basis.phi, axis=0))
    err = float(np.max(np.abs(basis.phi - u_svd * signs)))
    _criterion("oracle (d): method of snapshots vs dense SVD",
               err <= 1e-8, f"max error {err:.3g}")


def test_conservation_and_properties(benchmarks):
    details = []
    # Cahn-Hilliard mass conservation along the accepted trajectory and
    # under fresh random controls
    ch = benchmarks["cahn_hilliard"].reduced_report.trajectory
    n_x = ch.states.shape[1]
    drift = float(np.max(np.abs(np.diff(ch.states.sum(axis=1)))))
    problem = build_problem(preset("cahn_hilliard"))
    rng = np.random.default_rng(7)
    state = problem.x0
    for _ in range(5):
        nxt = step(problem.model, state, 0.5 * rng.standard_normal(4))
        drift = max(drift, abs(nxt.sum() - state.sum()))
        state = nxt
    mass_ok = drift <= 1e-10 * n_x
    details.append(f"mass drift {drift:.3g} (tol {1e-10 * n_x:.3g})")

    # basis orthonormality and the truncation-energy identity on the
    # converged benchmark trajectories
    ortho = 0.0
    energy_mismatch = 0.0
    for record in benchmarks.values():
        snaps = record.reduced_report.trajectory.states.T
        basis = method_of_snapshots(snaps, energy_cutoff=0.99999)
        gram = basis.phi.T @ basis.phi
        ortho = max(ortho, float(np.max(np.abs(gram - np.eye(basis.n_modes)))))
        resid = np.linalg.norm(
            snaps - basis.phi @ (basis.phi.T @ snaps), "fro") ** 2
        tail = float(np.sum(basis.eigenvalues[basis.n_modes:]))
        energy_mismatch = max(
            energy_mismatch,
            abs(resid - tail) / float(np.sum(basis.eigenvalues)))
    ortho_ok = ortho <= 1e-10
    energy_ok = energy_mismatch <= 1e-8
    details.append(f"orthonormality {ortho:.3g}")
    details.append(f"energy identity rel {energy_mismatch:.3g}")

    # value-Hessian symmetry on an identified instance
    cfg = preset("burgers_small")
    prob = build_problem(cfg, u_init=gaussian_guess(cfg, 0, 0.3))
    nominal = rollout(prob.model, prob.x0, prob.u_init)
    basis = method_of_snapshots(nominal.states.T)
    data = generate_rollout_data(prob.model, nominal, basis,
                                 PerturbationConfig(seed=9))
    gains = backward_pass(fit_ltv(data),
                          reduce_cost(prob.cost, nominal, basis),
                          Regularizer())
    asym = max(float(np.max(np.abs(vt - vt.T))) for vt in gains.V)
    sym_ok = asym <= 1e-10
    details.append(f"value-Hessian asymmetry {asym:.3g}")

    _criterion("conservation/property suite",
               mass_ok and ortho_ok and energy_ok and sym_ok,
               "; ".join(details))


def test_repeatability(repeatability):
    aggregate, _ = repeatability
    spread = aggregate["final_cost_rel_spread"]
    ok = not aggregate["partial"] and spread <= 0.05
    _criterion("repeatability (10 seeded guesses, spread <= 5%)", ok,
               f"spread {spread:.3%}, cv {aggregate['final_cost_cv']:.3%}")
