"""Forward-model checks against independently coded reference steppers."""

import numpy as np
import pytest
from helpers import step

from roilqr.pde import (AllenCahnModel, BurgersModel, CahnHilliardModel,
                        DivergenceError, Grid, PdeParams, StabilityError,
                        Trajectory, mask_from_goal, rollout)


def reference_burgers(u, left, right, nu, dx, dt, nsub):
    """Straight-line scalar reimplementation of the scheme (oracle)."""
    u = [float(v) for v in u]
    n = len(u)
    for _ in range(nsub):
        u[0] = left
        u[n - 1] = right
        new = list(u)
        for i in range(1, n - 1):
            adv = u[i] * (u[i + 1] - u[i - 1]) / (2 * dx)
            dif = nu * (u[i + 1] - 2 * u[i] + u[i - 1]) / dx**2
            new[i] = u[i] + dt * (-adv + dif)
        u = new
    return np.array(u)


def reference_phase_field(phi, temp, h, mob, gamma, dx, dt, nsub, conserved):
    """Point-by-point stencil oracle for both phase-field equations."""
    p = phi.shape[0]

    def lap(f):
        out = np.zeros_like(f)
        for j in range(p):
            for i in range(p):
                out[j, i] = (f[(j - 1) % p, i] + f[(j + 1) % p, i]
                             + f[j, (i - 1) % p] + f[j, (i + 1) % p]
                             - 4 * f[j, i]) / dx**2
        return out

    f = phi.copy()
    for _ in range(nsub):
        bulk = 4 * f**3 + 2 * temp * f + h
        if conserved:
            mu = bulk - gamma * lap(f)
            f = f + dt * mob * lap(mu)
        else:
            f = f - dt * mob * (bulk - gamma * lap(f))
    return f


@pytest.fixture
def burgers():
    grid = Grid(ndim=1, points=100, dx=2.0 / 99)
    return BurgersModel(grid, PdeParams(dt=1e-4, substeps=10, nu=0.01))


@pytest.fixture
def phase_grid():
    return Grid(ndim=2, points=8, dx=0.125)


def test_burgers_zero_fixed_point(burgers):
    out = step(burgers, np.zeros(100), np.zeros(2))
    np.testing.assert_array_equal(out, np.zeros(100))


def test_burgers_constant_field(burgers):
    out = step(burgers, np.full(100, 0.7), np.array([0.7, 0.7]))
    np.testing.assert_allclose(out, 0.7, rtol=0, atol=1e-14)


def test_burgers_matches_reference(burgers):
    x = np.linspace(-1.0, 1.0, 100)
    u0 = np.sin(np.pi * x)
    got = step(burgers, u0, np.array([0.2, -0.3]))
    want = reference_burgers(u0, 0.2, -0.3, 0.01, 2.0 / 99, 1e-4, 10)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_burgers_dissipation(burgers):
    x = np.linspace(-1.0, 1.0, 100)
    u = np.sin(np.pi * x)
    for _ in range(20):
        nxt = step(burgers, u, np.zeros(2))
        assert np.sum(nxt**2) <= np.sum(u**2) + 1e-12
        u = nxt


def test_burgers_stability_guard():
    grid = Grid(ndim=1, points=100, dx=2.0 / 99)
    with pytest.raises(StabilityError):
        BurgersModel(grid, PdeParams(dt=0.5, substeps=1, nu=0.01))


def test_allen_cahn_zero_fixed_point(phase_grid):
    model = AllenCahnModel(phase_grid, PdeParams(dt=1e-4, substeps=5),
                           np.ones(64, dtype=np.int8))
    out = step(model, np.zeros(64), np.array([1.3, 0.0, -0.7, 0.0]))
    np.testing.assert_array_equal(out, np.zeros(64))


def test_allen_cahn_equilibrium_at_one(phase_grid):
    # bulk derivative 4 + 2T + h vanishes at phi=1 for T=-2, h=0
    model = AllenCahnModel(phase_grid, PdeParams(dt=1e-4, substeps=5),
                           np.ones(64, dtype=np.int8))
    out = step(model, np.ones(64), np.array([-2.0, 0.0, -2.0, 0.0]))
    np.testing.assert_allclose(out, 1.0, rtol=0, atol=1e-14)


def test_allen_cahn_matches_reference(phase_grid):
    rng = np.random.default_rng(3)
    phi = 0.4 * rng.standard_normal(64)
    mask = mask_from_goal(rng.standard_normal(64))
    model = AllenCahnModel(phase_grid, PdeParams(dt=1e-4, substeps=3), mask)
    u = np.array([0.5, -0.2, -1.0, 0.4])
    temp = np.where(mask.reshape(8, 8) > 0, u[0], u[2])
    h = np.where(mask.reshape(8, 8) > 0, u[1], u[3])
    want = reference_phase_field(phi.reshape(8, 8), temp, h, 1.0,
                                 model.gamma, 0.125, 1e-4, 3, False)
    got = step(model, phi, u)
    np.testing.assert_allclose(got, want.ravel(), rtol=0, atol=1e-12)


def test_cahn_hilliard_matches_reference(phase_grid):
    rng = np.random.default_rng(4)
    phi = 0.4 * rng.standard_normal(64)
    mask = mask_from_goal(rng.standard_normal(64))
    model = CahnHilliardModel(phase_grid, PdeParams(dt=1e-7, substeps=3), mask)
    u = np.array([0.5, -0.2, -1.0, 0.4])
    temp = np.where(mask.reshape(8, 8) > 0, u[0], u[2])
    h = np.where(mask.reshape(8, 8) > 0, u[1], u[3])
    want = reference_phase_field(phi.reshape(8, 8), temp, h, 1.0,
                                 model.gamma, 0.125, 1e-7, 3, True)
    got = step(model, phi, u)
    np.testing.assert_allclose(got, want.ravel(), rtol=0, atol=1e-12)


def test_cahn_hilliard_zero_with_zero_h(phase_grid):
    model = CahnHilliardModel(phase_grid, PdeParams(dt=1e-7, substeps=5),
                              np.ones(64, dtype=np.int8))
    out = step(model, np.zeros(64), np.array([0.9, 0.0, 0.4, 0.0]))
    np.testing.assert_array_equal(out, np.zeros(64))


def test_cahn_hilliard_mass_conservation(phase_grid):
    rng = np.random.default_rng(5)
    mask = mask_from_goal(rng.standard_normal(64))
    model = CahnHilliardModel(phase_grid, PdeParams(dt=1e-7, substeps=10), mask)
    phi = 0.5 * rng.standard_normal(64)
    for _ in range(10):
        u = rng.standard_normal(4)
        nxt = step(model, phi, u)
        assert abs(nxt.sum() - phi.sum()) <= 1e-10 * 64
        phi = nxt


def test_rollout_empty_horizon(burgers):
    traj = rollout(burgers, np.zeros(100), np.zeros((0, 2)))
    assert traj.horizon == 0
    assert traj.states.shape == (1, 100)


def test_rollout_zero_everything(burgers):
    traj = rollout(burgers, np.zeros(100), np.zeros((20, 2)))
    np.testing.assert_array_equal(traj.states, 0.0)


def test_rollout_composes_steps(burgers):
    x = np.linspace(-1.0, 1.0, 100)
    u0 = np.sin(np.pi * x)
    traj = rollout(burgers, u0, np.zeros((5, 2)))
    state = u0
    for t in range(5):
        state = step(burgers, state, np.zeros(2))
        np.testing.assert_array_equal(traj.states[t + 1], state)


def test_rollout_divergence_names_timestep():
    grid = Grid(ndim=1, points=50, dx=2.0 / 49)
    model = BurgersModel(grid, PdeParams(dt=3e-2, substeps=10, nu=0.01))
    controls = np.tile([50.0, -50.0], (10, 1))
    with pytest.raises(DivergenceError) as err:
        rollout(model, np.zeros(50), controls)
    assert err.value.timestep is not None
    assert str(err.value.timestep) in str(err.value)


def test_trajectory_shape_validation():
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros((3, 4)), controls=np.zeros((3, 2)))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(ndim=3, points=4, dx=0.1)
    with pytest.raises(ValueError):
        Grid(ndim=1, points=3, dx=0.1)
    with pytest.raises(ValueError):
        Grid(ndim=1, points=10, dx=-0.1)


def test_mask_validation(phase_grid):
    with pytest.raises(ValueError):
        AllenCahnModel(phase_grid, PdeParams(dt=1e-4),
                       np.zeros(64, dtype=np.int8))
    with pytest.raises(ValueError):
        AllenCahnModel(phase_grid, PdeParams(dt=1e-4),
                       np.ones(63, dtype=np.int8))


def test_step_batch_rejects_mismatched_row_counts(burgers, phase_grid):
    mask = np.where(np.arange(64) % 2 == 0, 1, -1)
    for model in (burgers,
                  AllenCahnModel(phase_grid, PdeParams(dt=1e-4), mask),
                  CahnHilliardModel(phase_grid, PdeParams(dt=1e-6), mask)):
        states = np.zeros((3, model.n_x))
        with pytest.raises(ValueError, match="3 state rows but 1 control"):
            model.step_batch(states, np.zeros((1, model.n_u)))
        with pytest.raises(ValueError, match="1 state rows but 2 control"):
            model.step_batch(states[0], np.zeros((2, model.n_u)))
        assert model.step_batch(states, np.zeros((3, model.n_u))).shape \
            == states.shape
