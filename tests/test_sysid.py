"""Identification checks against analytic plants and finite differences."""

import tracemalloc

import numpy as np
import pytest
from helpers import (LinearModel, bits, cone_model, cone_reaches,
                     random_stable_linear, step)
from hypothesis import given, settings
from hypothesis import strategies as st

from roilqr import _kernels, pde
from roilqr.harness import (build_problem, config_from_dict, gaussian_guess,
                            preset, run_solve)
from roilqr.pde import (BurgersModel, DivergenceError, Grid, PdeParams,
                        Trajectory, rollout)
from roilqr.pod import ReducedBasis, method_of_snapshots
from roilqr.solver import solve
from roilqr.sysid import fit_ltv, generate_rollout_data, perturbation_scales


def _nominal(model, horizon, rng, scale=0.5):
    controls = scale * rng.standard_normal((horizon, model.n_u))
    x0 = rng.standard_normal(model.n_x)
    return rollout(model, x0, controls)


def test_linear_plant_data_is_exact():
    rng = np.random.default_rng(0)
    model = random_stable_linear(6, 2, rng)
    nominal = _nominal(model, 5, rng)
    data = generate_rollout_data(model, nominal)
    block = np.hstack([model.a, model.b])
    for t in range(5):
        np.testing.assert_allclose(data.outputs[t], block * data.scale,
                                   atol=1e-12)


def test_fit_recovers_linear_plant():
    rng = np.random.default_rng(1)
    model = random_stable_linear(5, 2, rng)
    nominal = _nominal(model, 6, rng)
    ltv = fit_ltv(generate_rollout_data(model, nominal))
    for t in range(6):
        np.testing.assert_allclose(ltv.A[t], model.a, atol=1e-8)
        np.testing.assert_allclose(ltv.B[t], model.b, atol=1e-8)


def test_fit_independent_of_sigma_on_linear_plant():
    rng = np.random.default_rng(2)
    model = random_stable_linear(4, 2, rng)
    nominal = _nominal(model, 4, rng)
    fits = []
    for sigma in (1e-4, 1e-2, 1.0):
        fits.append(fit_ltv(generate_rollout_data(
            model, nominal, scales=(sigma, sigma))))
    for ltv in fits[1:]:
        np.testing.assert_allclose(ltv.A, fits[0].A, atol=1e-9)
        np.testing.assert_allclose(ltv.B, fits[0].B, atol=1e-9)


def test_identity_plant():
    model = LinearModel(np.eye(4), np.zeros((4, 2)))
    rng = np.random.default_rng(3)
    nominal = _nominal(model, 3, rng)
    ltv = fit_ltv(generate_rollout_data(model, nominal))
    np.testing.assert_allclose(ltv.A, np.broadcast_to(np.eye(4), (3, 4, 4)),
                               atol=1e-8)
    np.testing.assert_allclose(ltv.B, 0.0, atol=1e-8)


def test_zero_dynamics_plant():
    model = LinearModel(np.zeros((4, 4)), np.zeros((4, 2)))
    nominal = _nominal(model, 3, np.random.default_rng(4))
    ltv = fit_ltv(generate_rollout_data(model, nominal))
    np.testing.assert_allclose(ltv.A, 0.0, atol=1e-10)
    np.testing.assert_allclose(ltv.B, 0.0, atol=1e-10)


def test_reduced_fit_equals_galerkin_projection():
    rng = np.random.default_rng(5)
    model = random_stable_linear(12, 3, rng)
    nominal = _nominal(model, 5, rng)
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=1.0)
    data = generate_rollout_data(model, nominal, basis)
    ltv = fit_ltv(data)
    phi = basis.phi
    for t in range(5):
        np.testing.assert_allclose(ltv.A[t], phi.T @ model.a @ phi, atol=1e-6)
        np.testing.assert_allclose(ltv.B[t], phi.T @ model.b, atol=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_x=st.integers(3, 12), n_u=st.integers(1, 3),
       cutoff=st.sampled_from([0.9, 0.99, 0.999999, 1.0]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reduced_fit_equals_galerkin_projection_on_random_plants(
        n_x, n_u, cutoff, seed, data):
    # a linear plant's reduced fit is exact for any basis, truncated or not
    horizon = data.draw(st.integers(1, min(6, n_x - 1)), label="horizon")
    rng = np.random.default_rng(seed)
    model = random_stable_linear(n_x, n_u, rng)
    nominal = _nominal(model, horizon, rng)
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=cutoff)
    ltv = fit_ltv(generate_rollout_data(model, nominal, basis))
    phi = basis.phi
    for t in range(horizon):
        np.testing.assert_allclose(ltv.A[t], phi.T @ model.a @ phi, atol=1e-6)
        np.testing.assert_allclose(ltv.B[t], phi.T @ model.b, atol=1e-6)


def test_full_order_matches_finite_difference_jacobian():
    grid = Grid(ndim=1, points=20, dx=2.0 / 19)
    model = BurgersModel(grid, PdeParams(dt=2e-3, substeps=5, nu=0.05))
    rng = np.random.default_rng(6)
    nominal = rollout(model, 0.5 * rng.standard_normal(20),
                      0.2 * rng.standard_normal((4, 2)))
    ltv = fit_ltv(generate_rollout_data(model, nominal, scales=(1e-4, 1e-4)))
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


@pytest.mark.parametrize("reduced", [False, True])
def test_fit_overwrites_outputs_bit_identical_to_one_product(reduced):
    # the fit writes theta into the outputs buffer; A and B are views of
    # it, and theta equals the outputs scaled column by column to the last
    # bit
    rng = np.random.default_rng(25)
    grid = Grid(ndim=1, points=40, dx=2.0 / 39)
    model = BurgersModel(grid, PdeParams(dt=2e-3, substeps=5, nu=0.05))
    nominal = rollout(model, 0.5 * rng.standard_normal(40),
                      0.2 * rng.standard_normal((6, 2)))
    basis = (method_of_snapshots(nominal.states.T, energy_cutoff=0.9999)
             if reduced else None)
    data = generate_rollout_data(model, nominal, basis)
    theta = data.outputs / data.scale
    ltv = fit_ltv(data)
    assert np.shares_memory(ltv.A, data.outputs)
    assert np.shares_memory(ltv.B, data.outputs)
    np.testing.assert_array_equal(data.outputs.view(np.uint64),
                                  theta.view(np.uint64))
    np.testing.assert_array_equal(
        np.concatenate([ltv.A, ltv.B], axis=2).view(np.uint64),
        theta.view(np.uint64))


def test_vanishing_perturbations_give_vanishing_data():
    rng = np.random.default_rng(7)
    model = random_stable_linear(4, 2, rng)
    nominal = _nominal(model, 3, rng)
    data = generate_rollout_data(model, nominal, scales=(1e-12, 1e-12))
    assert np.max(data.scale) < 1e-10
    assert np.max(np.abs(data.outputs)) < 1e-10


def test_repeated_data_is_byte_identical():
    rng = np.random.default_rng(8)
    model = random_stable_linear(5, 2, rng)
    nominal = _nominal(model, 4, rng)
    d1 = generate_rollout_data(model, nominal)
    d2 = generate_rollout_data(model, nominal)
    np.testing.assert_array_equal(d1.scale.view(np.uint64),
                                  d2.scale.view(np.uint64))
    np.testing.assert_array_equal(d1.outputs.view(np.uint64),
                                  d2.outputs.view(np.uint64))


def test_sample_count_scaling():
    rng = np.random.default_rng(11)
    grid = Grid(ndim=1, points=100, dx=2.0 / 99)
    model = BurgersModel(grid, PdeParams(dt=1e-3, substeps=2, nu=0.05))
    nominal = rollout(model, 0.3 * rng.standard_normal(100),
                      0.1 * rng.standard_normal((6, 2)))
    basis = method_of_snapshots(nominal.states.T, energy_cutoff=0.99999)
    n_red = generate_rollout_data(model, nominal, basis).n_samples
    n_full = generate_rollout_data(model, nominal, None).n_samples
    assert (n_red, n_full) == (basis.n_modes + 2, 100 + 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.integers(1, 9), n_u=st.integers(1, 3),
       s_x=st.floats(1e-4, 1e2), s_u=st.floats(1e-4, 1e2),
       seed=st.integers(0, 2**32 - 1), reduced=st.booleans())
def test_coordinate_design_is_exactly_determined(dim, n_u, s_x, s_u, seed,
                                                 reduced):
    rng = np.random.default_rng(seed)
    n_x = dim + 4 if reduced else dim
    model = random_stable_linear(n_x, n_u, rng)
    nominal = _nominal(model, 3, rng)
    basis = None
    a_red, b_red = model.a, model.b
    if reduced:
        phi = np.linalg.qr(rng.standard_normal((n_x, dim)))[0]
        basis = ReducedBasis(phi=phi, eigenvalues=np.ones(dim),
                             captured_energy=1.0)
        a_red, b_red = phi.T @ model.a @ phi, phi.T @ model.b
    data = generate_rollout_data(model, nominal, basis, scales=(s_x, s_u))

    assert data.n_samples == dim + n_u
    # precondition of the closed-form fit: sample i moves coordinate i by
    # s_x (state) or s_u (control)
    np.testing.assert_array_equal(data.scale,
                                  np.repeat([s_x, s_u], [dim, n_u]))
    ltv = fit_ltv(data)
    np.testing.assert_allclose(ltv.A, np.broadcast_to(a_red, ltv.A.shape),
                               atol=1e-8)
    np.testing.assert_allclose(ltv.B, np.broadcast_to(b_red, ltv.B.shape),
                               atol=1e-8)


def test_perturbation_scales_follow_the_burgers_nominals():
    # 1% of the largest state and control magnitudes, floored at 1e-2:
    # burgers' seed-0 guess keeps both within 1, and its solve converges
    # to states and controls down to -2.229 (the boundary nodes are pinned
    # to the controls)
    cfg = preset("burgers")
    problem = build_problem(
        cfg, u_init=gaussian_guess(cfg, 0, cfg.run.guess_std))
    guess = rollout(problem.model, problem.x0, problem.u_init)
    solved = solve(problem, cfg.solver).trajectory
    assert perturbation_scales(guess) == (1e-2, 1e-2)
    peak = -float(solved.states.min())
    assert peak == -float(solved.controls.min()) == pytest.approx(2.229,
                                                                 abs=1e-3)
    assert perturbation_scales(solved) == (1e-2 * peak, 1e-2 * peak)


@pytest.mark.parametrize("states,controls,scales", [
    ([[0.5, -3.0], [0.1, 0.2]], [[0.4]], (1e-2 * 3.0, 1e-2)),
    ([[0.5, -0.2], [0.1, 0.2]], [[-1.5]], (1e-2, 1e-2 * 1.5)),
    ([[0.5, -0.2], [0.1, 0.2]], [[0.4]], (1e-2, 1e-2)),
    ([[-4.0, 0.2]], np.zeros((0, 1)), (1e-2 * 4.0, 1e-2)),   # no controls
])
def test_perturbation_scales_floor_each_magnitude_at_one(states, controls,
                                                         scales):
    nominal = Trajectory(states=np.array(states, dtype=np.float64),
                         controls=np.array(controls, dtype=np.float64))
    assert perturbation_scales(nominal) == scales


def _two_call_rollout_data(model, nominal, basis):
    """Reference sampler: one timestep at a time, separate simulator calls
    for the + and - rows, one coordinate per sample."""
    dim = basis.n_modes if basis is not None else model.n_x
    n_x, n_u = model.n_x, model.n_u
    n_s = dim + n_u
    s_x, s_u = perturbation_scales(nominal)
    modes = basis.phi.T if basis is not None else np.eye(n_x)
    dx = np.vstack([s_x * modes, np.zeros((n_u, n_x))])
    du = np.vstack([np.zeros((dim, n_u)), s_u * np.eye(n_u)])
    scale = np.repeat([s_x, s_u], [dim, n_u])
    outputs = np.empty((nominal.horizon, dim, n_s))
    for t in range(nominal.horizon):
        f_plus = model.step_batch(nominal.states[t] + dx,
                                  nominal.controls[t] + du)
        f_minus = model.step_batch(nominal.states[t] - dx,
                                   nominal.controls[t] - du)
        dy = 0.5 * (f_plus - f_minus)
        if basis is not None:
            dy = dy @ basis.phi
        outputs[t] = dy.T
    return scale, outputs


@pytest.mark.parametrize("reduced", [False, True])
def test_stacked_samples_bit_identical_to_two_calls(reduced):
    rng = np.random.default_rng(13)
    grid = Grid(ndim=1, points=24, dx=2.0 / 23)
    model = BurgersModel(grid, PdeParams(dt=2e-3, substeps=20, nu=0.05))
    nominal = rollout(model, 0.5 * rng.standard_normal(24),
                      0.2 * rng.standard_normal((4, 2)))
    basis = (method_of_snapshots(nominal.states.T, energy_cutoff=0.9999)
             if reduced else None)
    data = generate_rollout_data(model, nominal, basis)
    scale, outputs = _two_call_rollout_data(model, nominal, basis)
    np.testing.assert_array_equal(data.scale.view(np.uint64),
                                  scale.view(np.uint64))
    np.testing.assert_array_equal(data.outputs.view(np.uint64),
                                  outputs.view(np.uint64))


# (name, cap in cells given one timestep's cells c): the whole horizon
# of 5 timesteps in one group, groups of 1, 2 and 2 timesteps, one
# timestep per group, and three caps that cut each timestep into units
# of consecutive samples: all samples but one fit (full order: 16 and 10
# of 26 samples), a third fit (8, 8, 8 and 2), and fewer than 4 fit
# (full order: 2 samples per unit; reduced: 1)
_CAPS = [("whole", lambda c: 5 * c), ("uneven", lambda c: 2 * c + c // 2),
         ("single", lambda c: c), ("split", lambda c: c - 1),
         ("over", lambda c: c // 3), ("tiny", lambda c: c // 9)]


@pytest.mark.parametrize("cap", [f for _, f in _CAPS],
                         ids=[name for name, _ in _CAPS])
@pytest.mark.parametrize("reduced", [False, True])
def test_grouped_timesteps_bit_identical_to_per_timestep(monkeypatch, cap,
                                                         reduced):
    rng = np.random.default_rng(19)
    grid = Grid(ndim=1, points=24, dx=2.0 / 23)
    model = BurgersModel(grid, PdeParams(dt=2e-3, substeps=20, nu=0.05))
    nominal = rollout(model, 0.5 * rng.standard_normal(24),
                      0.2 * rng.standard_normal((5, 2)))
    basis = (method_of_snapshots(nominal.states.T, energy_cutoff=0.9999)
             if reduced else None)
    scale, outputs = _two_call_rollout_data(model, nominal, basis)
    n_s = (basis.n_modes if reduced else 24) + 2
    monkeypatch.setattr(pde, "MAX_CHUNK_CELLS", cap(2 * n_s * 24))
    data = generate_rollout_data(model, nominal, basis)
    np.testing.assert_array_equal(data.scale.view(np.uint64),
                                  scale.view(np.uint64))
    np.testing.assert_array_equal(data.outputs.view(np.uint64),
                                  outputs.view(np.uint64))


class _Counting(LinearModel):
    """Linear plant that records the row count of every simulator call."""

    def __init__(self, plant):
        super().__init__(plant.a, plant.b)
        self.calls = []

    def step_batch(self, states, controls):
        self.calls.append(len(states))
        return super().step_batch(states, controls)


# (cap in cells, rows of each simulator call) for 7 timesteps of a plant
# with n_x = 6 and 6 + 2 samples: one timestep's +/- rows are 16 rows of
# 96 cells, one sample's pair 2 rows of 12 cells.  Whole timesteps fit in
# the first four caps and go in equal runs and a shorter last one; below
# 96 cells each timestep is cut into sample ranges of a multiple of 4
# pairs (8 rows) and a shorter last one, or of as many pairs as fit if
# fewer than 4 do.
_UNIT_CAPS = [
    (10**6, [112]),
    (3 * 96, [48, 48, 16]),
    (2 * 96, [32, 32, 32, 16]),
    (96, [16] * 7),
    (95, [8, 8] * 7),
    (50, [8, 8] * 7),
    (40, [6, 6, 4] * 7),
    (12, [2] * 56),
]


@pytest.mark.parametrize("cap,calls", _UNIT_CAPS,
                         ids=[str(cap) for cap, _ in _UNIT_CAPS])
def test_one_simulator_call_per_group_within_cap(monkeypatch, cap, calls):
    rng = np.random.default_rng(21)
    model = _Counting(random_stable_linear(6, 2, rng))
    nominal = _nominal(model, 7, rng)
    model.calls.clear()
    monkeypatch.setattr(pde, "MAX_CHUNK_CELLS", cap)
    generate_rollout_data(model, nominal)
    assert model.calls == calls
    assert max(model.calls) * 6 <= cap


def test_zero_horizon_makes_no_simulator_call():
    rng = np.random.default_rng(21)
    model = _Counting(random_stable_linear(6, 2, rng))
    nominal = _nominal(model, 0, rng)
    data = generate_rollout_data(model, nominal)
    assert model.calls == []
    assert data.outputs.shape == (0, 6, 8)


class _Abandon(Exception):
    pass


def test_budget_checkpoint_runs_between_the_units_of_a_timestep(
        monkeypatch):
    rng = np.random.default_rng(31)
    model = _Counting(random_stable_linear(6, 2, rng))
    nominal = _nominal(model, 3, rng)
    # 3 pairs of 12 cells fit: samples 0-2, 3-5 and 6-7 of each timestep
    monkeypatch.setattr(pde, "MAX_CHUNK_CELLS", 40)
    model.calls.clear()
    seen = []
    generate_rollout_data(model, nominal,
                          checkpoint=lambda: seen.append(len(model.calls)))
    # called units - 1 times, before every unit after the first
    assert model.calls == [6, 6, 4] * 3
    assert seen == list(range(1, 9))
    for k in (1, 2, 5):
        # raising at unit k (0-based) abandons the identification there,
        # within a timestep (k = 1, 2) or at a timestep's first unit
        model.calls.clear()

        def stop():
            if len(model.calls) == k:
                raise _Abandon

        with pytest.raises(_Abandon):
            generate_rollout_data(model, nominal, checkpoint=stop)
        assert len(model.calls) == k


def _allen_cahn_small_nominal():
    cfg = preset("allen_cahn_small")
    problem = build_problem(cfg, u_init=gaussian_guess(cfg, 0, 0.3))
    return problem.model, rollout(problem.model, problem.x0, problem.u_init)


def _unit_rows(states, design_u):
    # a central-difference unit steps a + and a - row per sample and
    # timestep
    return 2 * len(states) * len(design_u)


def test_full_order_units_fit_one_kernel_call(monkeypatch):
    # step_batch and central step whatever they are given in one kernel
    # call, so the callers keep every call small: identification's units
    # within pde.MAX_CHUNK_CELLS cells, rollouts to one row
    model, nominal = _allen_cahn_small_nominal()
    rows = []
    central = model.central

    def recording(states, controls, design_x, design_u, out):
        rows.append(_unit_rows(states, design_u))
        return central(states, controls, design_x, design_u, out)

    monkeypatch.setattr(model, "central", recording)
    generate_rollout_data(model, nominal)
    # 404 samples of 2 rows of 400 cells: 48-sample units, then 20
    assert rows == ([96] * 8 + [40]) * nominal.horizon

    # every call of one solver iteration: the rollouts and the line search
    # step one row per step_batch call, and identification keeps its
    # units (central) within the cap
    steps, units = [], []
    for cls in (pde.BurgersModel, pde.AllenCahnModel, pde.CahnHilliardModel):
        def recording_cls(self, states, controls, step_batch=cls.step_batch):
            steps.append(len(states))
            return step_batch(self, states, controls)

        def recording_unit(self, states, controls, design_x, design_u, out,
                           central=cls.central):
            units.append((_unit_rows(states, design_u), self.n_x))
            return central(self, states, controls, design_x, design_u, out)

        monkeypatch.setattr(cls, "step_batch", recording_cls)
        monkeypatch.setattr(cls, "central", recording_unit)
    cap = pde.MAX_CHUNK_CELLS
    for name, mode in [("burgers", "full"), ("allen_cahn", "reduced"),
                       ("allen_cahn_small", "full"),
                       ("cahn_hilliard", "full")]:
        cfg = config_from_dict({"solver": {"mode": mode, "seed": 0,
                                           "max_iterations": 1}},
                               base=preset(name))
        steps.clear()
        units.clear()
        run_solve(cfg)
        assert steps and set(steps) == {1}, (name, mode)
        if name == "allen_cahn":
            # identification steps each timestep's 9 samples (5 modes, 4
            # controls) whole: 18 rows of 2500 cells, one item above the
            # cap
            assert units == [(18, 2500)] * 10
            continue
        # one sample's pair of rows fits, so every unit fits
        assert units and all(2 * n_x <= cap and r * n_x <= cap
                             for r, n_x in units), (name, mode)


class _StepOnly:
    """A model whose identification units step whole rows with its
    step_batch, through _kernels.central_numpy, and never in cones."""

    def __init__(self, model):
        self.n_x, self.n_u = model.n_x, model.n_u
        self.step_batch = model.step_batch

    def central(self, *unit):
        return _kernels.central_numpy(self.step_batch, *unit)


@pytest.mark.parametrize("npts,nsub", [(24, 5), (20, 4)])
def test_full_order_light_cones_equal_the_stepped_composition(npts, nsub):
    # The light cone of a moved point (radius nsub) is smaller than the
    # grid.  At 24x24 a timestep's 580 samples are cut into units of 32
    # samples (64 rows of 576 cells), all state samples, and a last one of
    # the 4 controls.  At 20x20 its 404 samples are cut into units of 48,
    # and the last unit, samples 384-403, mixes 16 state samples with the
    # 4 controls, so it is stepped as whole rows.
    rng = np.random.default_rng(3)
    model = cone_model(rng, npts, nsub)
    nominal = rollout(model, 0.3 * rng.standard_normal(model.n_x),
                      0.3 * rng.standard_normal((3, model.n_u)))
    data = generate_rollout_data(model, nominal)
    ref = generate_rollout_data(_StepOnly(model), nominal)
    # every state sample's differences reach the rim of its cone
    assert cone_reaches(model, np.eye(model.n_x),
                        ref.outputs[:, :, :model.n_x])
    np.testing.assert_array_equal(bits(data.scale), bits(ref.scale))
    np.testing.assert_array_equal(bits(data.outputs), bits(ref.outputs))


def test_full_order_identification_holds_its_output_and_one_unit():
    model, nominal = _allen_cahn_small_nominal()
    n_s = model.n_x + model.n_u
    output = nominal.horizon * model.n_x * n_s * 8
    # Bound on everything but the output, in units of one full unit's
    # state rows, MAX_CHUNK_CELLS float64 values.  Kept for the whole
    # identification are the design rows (1/2).  On the numpy path a
    # unit's call holds its state rows (1) while the Allen-Cahn kernel
    # adds its block of five node-major workspaces (field, linear
    # coefficient, bulk term, neighbour sum, scratch: 5) and its row-major
    # result (1): 7.5 units.  The central differences are computed in
    # place in the result, which is freed before the next unit.  The C
    # path allocates its workspace in C, where tracemalloc does not see
    # it, and writes the differences straight into the output.  Half a
    # unit more covers the control rows (1/100 of the state rows here),
    # the workspaces' cache-line padding and the small per-call arrays.
    bound = 8 * pde.MAX_CHUNK_CELLS * 8
    tracemalloc.start()
    try:
        data = generate_rollout_data(model, nominal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.outputs.nbytes == output
    assert peak <= output + bound


class _Recording(LinearModel):
    """Linear plant that keeps a copy of every state batch it steps."""

    def __init__(self, plant):
        super().__init__(plant.a, plant.b)
        self.batches = []

    def step_batch(self, states, controls):
        self.batches.append((states.copy(), controls.copy()))
        return super().step_batch(states, controls)


@pytest.mark.parametrize("reduced", [False, True])
def test_one_design_per_identification(monkeypatch, reduced):
    # every timestep's sample i < d is the nominal moved by +/- s_x along
    # state coordinate i (mode i if reduced), and sample d + j the nominal
    # moved by +/- s_u along control j, to the last bit
    rng = np.random.default_rng(23)
    model = _Recording(random_stable_linear(8, 2, rng))
    nominal = _nominal(model, 6, rng)
    modes = np.eye(8)
    basis = None
    if reduced:
        phi = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        basis = ReducedBasis(phi=phi, eigenvalues=np.ones(3),
                             captured_energy=1.0)
        modes = phi.T
    dim = len(modes)
    s_x, s_u = perturbation_scales(nominal)
    # timesteps of 2 * 5 * 8 cells (reduced) or 2 * 10 * 8: groups of two
    n_s = dim + 2
    monkeypatch.setattr(pde, "MAX_CHUNK_CELLS", 2 * (2 * n_s * 8))
    model.batches.clear()
    generate_rollout_data(model, nominal, basis)
    assert len(model.batches) == 3
    batches = model.batches[:]
    states = np.concatenate([x for x, _ in batches]).reshape(6, 2, n_s, 8)
    controls = np.concatenate([u for _, u in batches]).reshape(6, 2, n_s, 2)
    for t in range(6):
        x_bar, u_bar = nominal.states[t], nominal.controls[t]
        for i in range(dim):
            np.testing.assert_array_equal(states[t, 0, i],
                                          x_bar + s_x * modes[i])
            np.testing.assert_array_equal(states[t, 1, i],
                                          x_bar - s_x * modes[i])
        for j in range(2):
            e_j = np.eye(2)[j]
            np.testing.assert_array_equal(controls[t, 0, dim + j],
                                          u_bar + s_u * e_j)
            np.testing.assert_array_equal(controls[t, 1, dim + j],
                                          u_bar - s_u * e_j)
        # a state sample keeps the nominal control, and a control sample
        # the nominal state
        np.testing.assert_array_equal(controls[t, :, :dim],
                                      np.broadcast_to(u_bar, (2, dim, 2)))
        np.testing.assert_array_equal(states[t, :, dim:],
                                      np.broadcast_to(x_bar, (2, 2, 8)))
    # a second identification issues the same queries
    model.batches.clear()
    generate_rollout_data(model, nominal, basis)
    for (x1, u1), (x2, u2) in zip(batches, model.batches, strict=True):
        np.testing.assert_array_equal(x1.view(np.uint64), x2.view(np.uint64))
        np.testing.assert_array_equal(u1.view(np.uint64), u2.view(np.uint64))


class _BlowsUpNear(LinearModel):
    """Linear plant whose step is non-finite for states near a region's
    ``center`` whose coordinate ``k`` lies beyond ``center[k] + offset``
    (on the side of the sign of ``offset``), for each
    ``(center, k, offset)`` region."""

    def __init__(self, plant, *regions):
        super().__init__(plant.a, plant.b)
        self.regions = regions

    def step_batch(self, states, controls):
        out = super().step_batch(states, controls)
        for center, k, offset in self.regions:
            near = np.all(np.abs(states - center) < 1e-3, axis=1)
            beyond = np.sign(offset) * (states[:, k] - center[k]) \
                > abs(offset)
            out[near & beyond] = np.inf
        return out


def test_minus_side_divergence_names_timestep_and_rollout():
    rng = np.random.default_rng(15)
    plant = random_stable_linear(5, 2, rng)
    nominal = _nominal(plant, 4, rng)
    s_x = 1e-5
    t_bad, r_bad = 2, 3
    # only sample r_bad moves coordinate r_bad, and only its minus side
    # reaches past -s_x / 2
    model = _BlowsUpNear(plant, (nominal.states[t_bad], r_bad, -0.5 * s_x))
    with pytest.raises(DivergenceError) as err:
        generate_rollout_data(model, nominal, scales=(s_x, 1e-5))
    assert err.value.timestep == t_bad
    assert err.value.rollout == r_bad


def test_earliest_diverged_timestep_of_a_group_is_reported():
    rng = np.random.default_rng(17)
    plant = random_stable_linear(5, 2, rng)
    nominal = _nominal(plant, 5, rng)
    s_x = 1e-5
    n_s = 5 + 2
    assert pde.aligned_runs(5, 2 * n_s, 5) == [(0, 5)]   # one group
    t_early, t_late, r_bad = 1, 3, 2
    # at t_early only sample r_bad diverges (its minus side); at t_late
    # sample 0 does (its plus side), which comes first in sample order
    model = _BlowsUpNear(plant, (nominal.states[t_early], r_bad, -0.5 * s_x),
                         (nominal.states[t_late], 0, 1e-300))
    with pytest.raises(DivergenceError) as err:
        generate_rollout_data(model, nominal, scales=(s_x, 1e-5))
    assert err.value.timestep == t_early
    assert err.value.rollout == r_bad


def test_divergence_in_a_later_unit_names_its_global_sample(monkeypatch):
    rng = np.random.default_rng(33)
    plant = random_stable_linear(10, 2, rng)
    nominal = _nominal(plant, 5, rng)
    s_x = 1e-5
    # 12 samples of 2 rows of 10 cells: units of samples 0-3, 4-7, 8-11
    monkeypatch.setattr(pde, "MAX_CHUNK_CELLS", 4 * 2 * 10)
    t_early, t_late, r_bad = 2, 3, 9
    # at t_early sample r_bad diverges (its minus side), in the third unit
    # of the timestep; at t_late sample 0 does (its plus side)
    model = _BlowsUpNear(plant, (nominal.states[t_early], r_bad, -0.5 * s_x),
                         (nominal.states[t_late], 0, 1e-300))
    with pytest.raises(DivergenceError) as err:
        generate_rollout_data(model, nominal, scales=(s_x, 1e-5))
    assert err.value.timestep == t_early
    assert err.value.rollout == r_bad
    assert str(err.value) == \
        "perturbation rollout 9 diverged at timestep 2"
