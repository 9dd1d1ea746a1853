"""Identification checks against analytic plants and finite differences."""

import numpy as np
import pytest
from helpers import LinearModel, random_stable_linear, step

from roilqr.pde import BurgersModel, DivergenceError, Grid, PdeParams, rollout
from roilqr.pod import method_of_snapshots
from roilqr.sysid import (PerturbationConfig, RankDeficientError,
                          RegressionData, fit_ltv, generate_rollout_data)


def _nominal(model, horizon, rng, scale=0.5):
    controls = scale * rng.standard_normal((horizon, model.n_u))
    x0 = rng.standard_normal(model.n_x)
    return rollout(model, x0, controls)


def test_linear_plant_data_is_exact():
    rng = np.random.default_rng(0)
    model = random_stable_linear(6, 2, rng)
    nominal = _nominal(model, 5, rng)
    data = generate_rollout_data(model, nominal, None,
                                 PerturbationConfig(seed=1))
    block = np.hstack([model.a, model.b])
    for t in range(5):
        np.testing.assert_allclose(data.outputs[t], block @ data.inputs[t],
                                   atol=1e-12)


def test_fit_recovers_linear_plant():
    rng = np.random.default_rng(1)
    model = random_stable_linear(5, 2, rng)
    nominal = _nominal(model, 6, rng)
    ltv = fit_ltv(generate_rollout_data(
        model, nominal, cfg=PerturbationConfig(n_rollouts=20, seed=2)))
    for t in range(6):
        np.testing.assert_allclose(ltv.A[t], model.a, atol=1e-8)
        np.testing.assert_allclose(ltv.B[t], model.b, atol=1e-8)


def test_fit_independent_of_sigma_on_linear_plant():
    rng = np.random.default_rng(2)
    model = random_stable_linear(4, 2, rng)
    nominal = _nominal(model, 4, rng)
    fits = []
    for sigma in (1e-4, 1e-2, 1.0):
        cfg = PerturbationConfig(sigma_x=sigma, sigma_u=sigma, seed=3)
        fits.append(fit_ltv(generate_rollout_data(model, nominal, cfg=cfg)))
    for ltv in fits[1:]:
        np.testing.assert_allclose(ltv.A, fits[0].A, atol=1e-9)
        np.testing.assert_allclose(ltv.B, fits[0].B, atol=1e-9)


def test_identity_plant():
    model = LinearModel(np.eye(4), np.zeros((4, 2)))
    rng = np.random.default_rng(3)
    nominal = _nominal(model, 3, rng)
    ltv = fit_ltv(generate_rollout_data(model, nominal,
                                        cfg=PerturbationConfig(seed=4)))
    np.testing.assert_allclose(ltv.A, np.broadcast_to(np.eye(4), (3, 4, 4)),
                               atol=1e-8)
    np.testing.assert_allclose(ltv.B, 0.0, atol=1e-8)


def test_zero_dynamics_plant():
    model = LinearModel(np.zeros((4, 4)), np.zeros((4, 2)))
    nominal = _nominal(model, 3, np.random.default_rng(4))
    ltv = fit_ltv(generate_rollout_data(model, nominal,
                                        cfg=PerturbationConfig(seed=5)))
    np.testing.assert_allclose(ltv.A, 0.0, atol=1e-10)
    np.testing.assert_allclose(ltv.B, 0.0, atol=1e-10)


def test_reduced_fit_equals_galerkin_projection():
    rng = np.random.default_rng(5)
    model = random_stable_linear(12, 3, rng)
    nominal = _nominal(model, 5, rng)
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=1.0)
    data = generate_rollout_data(model, nominal, basis,
                                 PerturbationConfig(seed=6))
    ltv = fit_ltv(data)
    phi = basis.phi
    for t in range(5):
        np.testing.assert_allclose(ltv.A[t], phi.T @ model.a @ phi, atol=1e-6)
        np.testing.assert_allclose(ltv.B[t], phi.T @ model.b, atol=1e-6)


def test_full_order_matches_finite_difference_jacobian():
    grid = Grid(ndim=1, points=20, dx=2.0 / 19)
    model = BurgersModel(grid, PdeParams(dt=2e-3, substeps=5, nu=0.05))
    rng = np.random.default_rng(6)
    nominal = rollout(model, 0.5 * rng.standard_normal(20),
                      0.2 * rng.standard_normal((4, 2)))
    cfg = PerturbationConfig(sigma_x=1e-4, sigma_u=1e-4, seed=7)
    ltv = fit_ltv(generate_rollout_data(model, nominal, cfg=cfg))
    # central finite-difference Jacobian oracle, column by column
    h = 1e-5
    for t in (0, 3):
        x, u = nominal.states[t], nominal.controls[t]
        jac_a = np.empty((20, 20))
        for j in range(20):
            e = np.zeros(20)
            e[j] = h
            jac_a[:, j] = (step(model, x + e, u) - step(model, x - e, u)) / (2 * h)
        jac_b = np.empty((20, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            jac_b[:, j] = (step(model, x, u + e) - step(model, x, u - e)) / (2 * h)
        np.testing.assert_allclose(ltv.A[t], jac_a, atol=1e-4)
        np.testing.assert_allclose(ltv.B[t], jac_b, atol=1e-4)


def test_vanishing_perturbations_give_vanishing_data():
    rng = np.random.default_rng(7)
    model = random_stable_linear(4, 2, rng)
    nominal = _nominal(model, 3, rng)
    cfg = PerturbationConfig(sigma_x=1e-12, sigma_u=1e-12, seed=8)
    data = generate_rollout_data(model, nominal, None, cfg)
    assert np.max(np.abs(data.inputs)) < 1e-10
    assert np.max(np.abs(data.outputs)) < 1e-10


def test_seeded_data_is_byte_identical():
    rng = np.random.default_rng(8)
    model = random_stable_linear(5, 2, rng)
    nominal = _nominal(model, 4, rng)
    cfg = PerturbationConfig(seed=99)
    d1 = generate_rollout_data(model, nominal, None, cfg)
    d2 = generate_rollout_data(model, nominal, None, cfg)
    np.testing.assert_array_equal(d1.inputs, d2.inputs)
    np.testing.assert_array_equal(d1.outputs, d2.outputs)


def test_identifiability_floor():
    rng = np.random.default_rng(9)
    model = random_stable_linear(6, 2, rng)
    nominal = _nominal(model, 3, rng)
    with pytest.raises(ValueError, match="identifiability"):
        generate_rollout_data(model, nominal, None,
                              PerturbationConfig(n_rollouts=7))


def test_rank_deficiency_fails_loudly():
    rng = np.random.default_rng(10)
    # duplicated sample columns make X X^T singular
    col = rng.standard_normal(5)
    inputs = np.tile(col[None, :, None], (2, 1, 8))
    outputs = rng.standard_normal((2, 3, 8))
    data = RegressionData(inputs=inputs, outputs=outputs, n_u=2)
    with pytest.raises(RankDeficientError, match="rollouts"):
        fit_ltv(data)


def test_sample_count_scaling():
    rng = np.random.default_rng(11)
    grid = Grid(ndim=1, points=100, dx=2.0 / 99)
    model = BurgersModel(grid, PdeParams(dt=1e-3, substeps=2, nu=0.05))
    nominal = rollout(model, 0.3 * rng.standard_normal(100),
                      0.1 * rng.standard_normal((6, 2)))
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=0.99999)
    cfg = PerturbationConfig(seed=12)
    n_red = cfg.resolved(basis.n_modes, 2, nominal)[0]
    n_full = cfg.resolved(100, 2, nominal)[0]
    slack = 2
    assert n_red / n_full <= (basis.n_modes + 2 + slack) / (100 + 2)


def test_full_order_needs_dimension_plus_one_samples():
    # 100 states + 2 controls: identifiability floor is 103 samples
    cfg = PerturbationConfig(n_rollouts=103)
    grid = Grid(ndim=1, points=100, dx=2.0 / 99)
    model = BurgersModel(grid, PdeParams(dt=1e-3, substeps=2, nu=0.05))
    nominal = rollout(model, np.zeros(100), 0.1 * np.ones((2, 2)))
    n_r, _, _ = cfg.resolved(100, 2, nominal)
    assert n_r == 103
    with pytest.raises(ValueError):
        PerturbationConfig(n_rollouts=102).resolved(100, 2, nominal)


def _two_call_rollout_data(model, nominal, basis, cfg):
    """Reference sampler: separate simulator calls for the + and - rows."""
    dim = basis.n_modes if basis is not None else model.n_x
    n_r, s_x, s_u = cfg.resolved(dim, model.n_u, nominal)
    rng = np.random.default_rng(cfg.seed)
    inputs = np.empty((nominal.horizon, dim + model.n_u, n_r))
    outputs = np.empty((nominal.horizon, dim, n_r))
    for t in range(nominal.horizon):
        dz = s_x * rng.standard_normal((n_r, dim))
        du = s_u * rng.standard_normal((n_r, model.n_u))
        dx = dz @ basis.phi.T if basis is not None else dz
        f_plus = model.step_batch(nominal.states[t] + dx,
                                  nominal.controls[t] + du)
        f_minus = model.step_batch(nominal.states[t] - dx,
                                   nominal.controls[t] - du)
        dy = 0.5 * (f_plus - f_minus)
        if basis is not None:
            dy = dy @ basis.phi
        inputs[t, :dim] = dz.T
        inputs[t, dim:] = du.T
        outputs[t] = dy.T
    return inputs, outputs


@pytest.mark.parametrize("reduced", [False, True])
def test_stacked_samples_bit_identical_to_two_calls(reduced):
    rng = np.random.default_rng(13)
    grid = Grid(ndim=1, points=24, dx=2.0 / 23)
    model = BurgersModel(grid, PdeParams(dt=2e-3, substeps=20, nu=0.05))
    nominal = rollout(model, 0.5 * rng.standard_normal(24),
                      0.2 * rng.standard_normal((4, 2)))
    basis = (method_of_snapshots(nominal.states.T, energy_cutoff=0.9999)
             if reduced else None)
    cfg = PerturbationConfig(seed=14)
    data = generate_rollout_data(model, nominal, basis, cfg)
    inputs, outputs = _two_call_rollout_data(model, nominal, basis, cfg)
    np.testing.assert_array_equal(data.inputs.view(np.uint64),
                                  inputs.view(np.uint64))
    np.testing.assert_array_equal(data.outputs.view(np.uint64),
                                  outputs.view(np.uint64))


class _BlowsUpNear(LinearModel):
    """Linear plant whose step is non-finite for states near ``center``
    whose first coordinate lies beyond ``center[0] + offset`` (on the side
    of the sign of ``offset``)."""

    def __init__(self, plant, center, offset):
        super().__init__(plant.a, plant.b)
        self.center = center
        self.offset = offset

    def step_batch(self, states, controls):
        out = super().step_batch(states, controls)
        near = np.all(np.abs(states[:, 1:] - self.center[1:]) < 1e-3, axis=1)
        beyond = np.sign(self.offset) * (states[:, 0] - self.center[0]) \
            > abs(self.offset)
        out[near & beyond] = np.inf
        return out


def test_minus_side_divergence_names_timestep_and_rollout():
    rng = np.random.default_rng(15)
    plant = random_stable_linear(5, 2, rng)
    nominal = _nominal(plant, 4, rng)
    cfg = PerturbationConfig(sigma_x=1e-5, sigma_u=1e-5, seed=16)
    n_r = cfg.resolved(5, 2, nominal)[0]
    t_bad = 2
    # the sample with the largest |dx_0| at t_bad is the only one that
    # reaches past the threshold, and only on its minus side
    dx0 = generate_rollout_data(plant, nominal, None, cfg).inputs[t_bad, 0]
    r_bad = int(np.argmax(np.abs(dx0)))
    runner_up = np.sort(np.abs(dx0))[-2]
    offset = -np.sign(dx0[r_bad]) * 0.5 * (runner_up + abs(dx0[r_bad]))
    model = _BlowsUpNear(plant, nominal.states[t_bad], offset)
    with pytest.raises(DivergenceError) as err:
        generate_rollout_data(model, nominal, None, cfg)
    assert err.value.timestep == t_bad
    assert err.value.rollout == r_bad < n_r
