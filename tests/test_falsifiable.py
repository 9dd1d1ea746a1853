"""Each paper check must be able to fail: a named mutant of the claim it
guards, written here, is rejected by that check."""

import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import (CLONE_GUARD, LQ_CASE, allen_cahn_small_problem, bits,
                     cone_cases, cost_increase, gains_match, last_search,
                     lq_case, one_row_solve, riccati_backward_pass,
                     same_steps, search_rollouts, stepped_differences)
from hypothesis import given, settings
from hypothesis import strategies as st

from roilqr import _kernels, solver
from roilqr.harness import build_problem, gaussian_guess, preset
from roilqr.lqr import Regularizer, backward_pass
from roilqr.pde import rollout
from roilqr.solver import (STEP_SIZES, LineSearchResult, forward_pass,
                           solve)
from roilqr.sysid import fit_ltv, generate_rollout_data, perturbation_scales

_TIMESTEPS = (0, 1, 2)


def _coordinate_moves(model, h_x, h_u):
    """(states, controls) moves of the p = n_x + n_u coordinate samples."""
    n_x, n_u = model.n_x, model.n_u
    dx = np.vstack([h_x * np.eye(n_x), np.zeros((n_u, n_x))])
    du = np.vstack([np.zeros((n_x, n_u)), h_u * np.eye(n_u)])
    return dx, du, np.repeat([h_x, h_u], [n_x, n_u])


def _reference_jacobian(model, x, u, h=1e-6):
    """[A | B] at (x, u) by an h-step coordinate central difference."""
    dx, du, _ = _coordinate_moves(model, h, h)
    f_plus = model.step_batch(x + dx, u + du)
    f_minus = model.step_batch(x - dx, u - du)
    return ((f_plus - f_minus) / (2 * h)).T


def _central(model, nominal, s_x, s_u):
    ltv = fit_ltv(generate_rollout_data(model, nominal, scales=(s_x, s_u)))
    return np.concatenate([ltv.A, ltv.B], axis=2)


def _one_sided(model, nominal, s_x, s_u):
    # mutant: f(x+) - f(x_bar) in place of (f(x+) - f(x-)) / 2
    dx, du, scale = _coordinate_moves(model, s_x, s_u)
    theta = np.empty((nominal.horizon, model.n_x, len(scale)))
    for t in range(nominal.horizon):
        x, u = nominal.states[t], nominal.controls[t]
        f_plus = model.step_batch(x + dx, u + du)
        f_bar = model.step_batch(x[None], u[None])
        theta[t] = ((f_plus - f_bar) / scale[:, None]).T
    return theta


@pytest.fixture(scope="module")
def burgers_nominal():
    """The seed-0 guess nominal of ``burgers_small``, cut to the first
    timesteps, and its default perturbation scales."""
    cfg = preset("burgers_small")
    problem = build_problem(
        cfg, u_init=gaussian_guess(cfg, 0, cfg.run.guess_std))
    nominal = rollout(problem.model, problem.x0,
                      problem.u_init[:len(_TIMESTEPS)])
    references = [_reference_jacobian(problem.model, nominal.states[t],
                                      nominal.controls[t])
                  for t in _TIMESTEPS]
    return problem.model, nominal, references, \
        perturbation_scales(nominal)


def _error_ratios(identify, burgers_nominal):
    """Max relative Jacobian errors at sigma, sigma/2, sigma/4 and the
    ratios of consecutive ones."""
    model, nominal, references, (s_x, s_u) = burgers_nominal
    errors = []
    for k in range(3):
        theta = identify(model, nominal, s_x / 2**k, s_u / 2**k)
        errors.append(max(np.max(np.abs(theta[t] - ref)) / np.max(np.abs(ref))
                          for t, ref in zip(_TIMESTEPS, references)))
    return errors, [errors[0] / errors[1], errors[1] / errors[2]]


def _second_order(ratios):
    """The order check: halving sigma cuts the error 4x (O(sigma^2))."""
    return all(3.5 <= r <= 4.5 for r in ratios)


def test_identification_error_is_second_order_in_sigma(burgers_nominal):
    errors, ratios = _error_ratios(_central, burgers_nominal)
    assert errors[-1] > 1e-9, "error at the reference's noise floor"
    assert _second_order(ratios), (errors, ratios)


def test_order_check_rejects_one_sided_differences(burgers_nominal):
    errors, ratios = _error_ratios(_one_sided, burgers_nominal)
    assert not _second_order(ratios), (errors, ratios)
    assert all(1.5 <= r <= 2.5 for r in ratios), (errors, ratios)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mu=st.sampled_from([1e-6, 1e-2, 1.0]), **LQ_CASE)
def test_gain_comparison_rejects_undamped_gains(mu, horizon, dim, n_u, form,
                                                seed):
    # mutant: a backward pass that ignores mu, offered as the damped answer
    # to the comparison the damped reference test makes
    ltv, terms = lq_case(horizon, dim, n_u, form, seed)
    ref, _ = riccati_backward_pass(ltv, terms, Regularizer(mu=mu, mu_min=0.0))
    undamped = backward_pass(ltv, terms, Regularizer(mu=0.0, mu_min=0.0))
    assert not gains_match(undamped, ref)


def _accept_first_finite(model, cost, prev, prev_cost, gains, basis, cfg,
                         checkpoint=None):
    # mutant: the line search without its z >= sigma1 test, accepting the
    # first step size whose rollout stays finite
    for trial, alpha in enumerate(STEP_SIZES, 1):
        traj, realized, _ = forward_pass(model, cost, prev, gains, basis,
                                         alpha)
        if traj is not None:
            return LineSearchResult(traj, realized, alpha, trial, True, None)
    return LineSearchResult(None, prev_cost, 0.0, len(STEP_SIZES), False,
                            None)


def test_descent_check_rejects_a_search_without_the_sigma1_test(monkeypatch):
    cfg = preset("allen_cahn_small")
    problem = build_problem(
        cfg, u_init=gaussian_guess(cfg, 0, cfg.run.guess_std))
    real = solve(problem, cfg.solver)
    assert real.status == "no_descent"
    assert cost_increase(real.costs) == 0.0
    # From the guess the mutant's full steps happen to descend.  At the
    # real solve's endpoint every step size fails the sigma1 test, and
    # the full step the mutant takes there ascends.
    monkeypatch.setattr(solver, "line_search", _accept_first_finite)
    mutant = solve(replace(problem, u_init=real.controls),
                   replace(cfg.solver, max_iterations=1))
    assert [it.alpha for it in mutant.iterations] == [1.0]
    assert cost_increase(mutant.costs) > 0.0


def _stop_at_first_miss(ratios, sigma1):
    # mutant: a search stops at its first ratio below sigma1, as if no
    # smaller step size could pass
    return ratios[-1] < sigma1


def _geometric_tail(ratios, sigma1):
    # mutant: the later ratios bounded by z3 + |d2| q / (1 - q), q = d2/d1,
    # the sum of a geometric tail, in place of the rule's z3 + |d2|
    if len(ratios) < 3 or not all(map(math.isfinite, ratios[-3:])):
        return False
    z1, z2, z3 = ratios[-3:]
    q = (z3 - z2) / (z2 - z1) if z2 != z1 else 0.0
    return 0.0 < q <= 0.5 and z3 + abs(z3 - z2) * q / (1.0 - q) < sigma1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_check_rejects_a_stop_at_the_first_miss(monkeypatch, seed):
    # at each of these seeds one search accepts at trial 2 or 4 after a
    # full step whose ratio is below sigma1 (seed 0: 0.170, then 0.674)
    cfg, problem = allen_cahn_small_problem(seed)
    ref = one_row_solve(problem, cfg.solver)
    assert same_steps(solve(problem, cfg.solver), ref)
    monkeypatch.setattr(solver, "_ratio_settled", _stop_at_first_miss)
    assert not same_steps(solve(problem, cfg.solver), ref)


def test_search_check_rejects_a_geometric_tail_bound(monkeypatch):
    # seed 3's search that accepts at trial 16 creeps up to sigma1: after
    # trials 1-3 the geometric tail bounds the later ratios by 0.226, and
    # after trials 5-7 (z = 0.26437, 0.28248, 0.29132) by 0.299746, so it
    # stops the search; the rule's z3 + |d2| is 0.354, then 0.300162
    cfg, problem = allen_cahn_small_problem(3)
    ref = one_row_solve(problem, cfg.solver)
    assert same_steps(solve(problem, cfg.solver), ref)
    monkeypatch.setattr(solver, "_ratio_settled", _geometric_tail)
    mutant = solve(problem, cfg.solver)
    assert not same_steps(mutant, ref)
    assert mutant.status == "no_descent"
    assert mutant.terminal_search["trials"] == 3


def test_row_count_check_rejects_a_search_that_never_settles(monkeypatch):
    # mutant: no stop rule; allen_cahn_small's seed-0 no-descent search
    # then rolls out all 27 step sizes of the ladder, not three
    cfg, problem = allen_cahn_small_problem()
    _, args = last_search(problem, cfg.solver)
    assert search_rollouts(args)[1] == list(STEP_SIZES[:3])
    monkeypatch.setattr(solver, "_ratio_settled", lambda ratios, sigma1:
                        False)
    res, alphas = search_rollouts(args)
    assert (res.accepted, res.trials) == (False, len(STEP_SIZES))
    assert alphas == list(STEP_SIZES)


@pytest.fixture(scope="module")
def cone_one_point_short(tmp_path_factory):
    """The C kernels built with an Allen-Cahn light cone one point short:
    substep s steps a moved point's lanes within s * rho - 1 of it.  Built
    without clones, as ``unclone_build`` builds them: every clone gives
    the same bits, and a cloned build takes about three times as long."""
    exact = "return s * STENCIL_REACH;"
    source = Path(_kernels._C_SOURCE).read_text()
    assert source.count(exact) == 1 and source.count(CLONE_GUARD) == 1
    directory = tmp_path_factory.mktemp("cone")
    (directory / "_kernels.c").write_text(
        source.replace(exact, "return s * STENCIL_REACH - 1;")
        .replace(CLONE_GUARD, "#if 0"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_C_SOURCE", str(directory / "_kernels.c"))
        kernels = _kernels.load_compiled(directory / "cache",
                                         shutil.which("cc"))
    if kernels is None:
        pytest.skip("no C compiler to build the C kernels with")
    return kernels


@pytest.mark.parametrize("npts,nsub", [(30, 10), (20, 3)])
def test_cone_check_rejects_a_cone_one_point_short(cone_one_point_short,
                                                   npts, nsub):
    # mutant: the light cone of test_allen_cahn_central_cones_bit_identical
    # one point short; its bit-equality check fails on every unit stepped
    # in cones, one timestep whose samples all move one state point, and
    # holds on the units stepped as whole rows: two timesteps, -0.0 in the
    # nominal, state and control samples mixed, and a dense design
    rng = np.random.default_rng(42)
    for name, model, *inputs in cone_cases(rng, npts, nsub):
        ref = stepped_differences(model, *inputs)
        out = np.empty((len(inputs[0]), model.n_x, len(inputs[3])))
        assert cone_one_point_short.allen_cahn_central(
            *inputs, out, *model._params) == -1
        assert np.array_equal(bits(out), bits(ref)) == (
            name not in ("corners", "run")), name


def test_preset_identification_takes_the_cone_path(cone_one_point_short,
                                                   monkeypatch):
    # The bit-equality checks cannot see a kernel that steps every unit as
    # whole rows.  The full-order identification of allen_cahn_small's
    # seed-0 guess is cut into units of 48 state samples, stepped in
    # cones, and a last unit of 16 state samples and the 4 controls,
    # stepped whole: the one-point-short cone changes the differences of
    # samples 0-383 at every timestep, and only theirs.
    cfg = preset("allen_cahn_small")
    problem = build_problem(
        cfg, u_init=gaussian_guess(cfg, 0, cfg.run.guess_std))
    nominal = rollout(problem.model, problem.x0, problem.u_init)
    real = generate_rollout_data(problem.model, nominal).outputs
    monkeypatch.setattr(_kernels, "allen_cahn_central",
                        cone_one_point_short.allen_cahn_central)
    mutant = generate_rollout_data(problem.model, nominal).outputs
    assert np.all(np.any(bits(real[:, :, :384]) != bits(mutant[:, :, :384]),
                         axis=(1, 2)))
    np.testing.assert_array_equal(bits(real[:, :, 384:]),
                                  bits(mutant[:, :, 384:]))
