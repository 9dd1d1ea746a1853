"""The numba and numpy kernel paths must agree; steps must be local and
deterministic."""

import numpy as np
import pytest
from helpers import step

from roilqr import _kernels, pde
from roilqr.pde import (AllenCahnModel, BurgersModel, CahnHilliardModel, Grid,
                        PdeParams)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def burgers_batch_rowwise(u, left, right, nu, dx, dt, nsub):
    """Row-major Burgers step, one whole-array expression per substep: the
    bit-exact reference for the node-major numpy kernel."""
    u = u.copy()
    c_adv = dt / (2.0 * dx)
    c_dif = nu * dt / (dx * dx)
    u[:, 0] = left
    u[:, -1] = right
    for _ in range(nsub):
        um = u[:, :-2]
        uc = u[:, 1:-1]
        up = u[:, 2:]
        u[:, 1:-1] = uc - c_adv * uc * (up - um) \
            + c_dif * (up - 2.0 * uc + um)
    return u


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("rows", [1, 2, 22, 44, 97])
def test_burgers_numpy_bit_identical_to_rowwise(rng, rows):
    # the burgers preset's grid and substeps
    u = 0.5 * rng.standard_normal((rows, 100))
    args = (u, rng.standard_normal(rows), rng.standard_normal(rows),
            0.08, 2.0 / 99, 1e-3, 250)
    out = _kernels.burgers_batch_numpy(*args)
    assert out.shape == (rows, 100) and out.flags.c_contiguous
    np.testing.assert_array_equal(_bits(out), _bits(burgers_batch_rowwise(*args)))


def test_burgers_paths_agree(rng):
    u = rng.standard_normal((7, 50))
    left = rng.standard_normal(7)
    right = rng.standard_normal(7)
    args = (u, left, right, 0.05, 0.04, 1e-4, 12)
    out_np = _kernels.burgers_batch_numpy(*args)
    out_nb = _kernels.burgers_batch_numba(*args)
    np.testing.assert_allclose(out_nb, out_np, rtol=0, atol=1e-13)
    # same operations in the same order as the loop kernel run as Python
    np.testing.assert_array_equal(
        _bits(out_np), _bits(_kernels._burgers_batch_loops(*args)))


@pytest.mark.parametrize("kind", ["allen_cahn", "cahn_hilliard"])
def test_phase_field_paths_agree(rng, kind):
    p = 12
    phi = 0.5 * rng.standard_normal((4, p * p))
    temp = rng.standard_normal((4, p * p))
    h = rng.standard_normal((4, p * p))
    if kind == "allen_cahn":
        args = (phi, temp, h, 1.0, 1e-3, 0.1, 1e-4, 6, p)
        out_np = _kernels.allen_cahn_batch_numpy(*args)
        out_nb = _kernels.allen_cahn_batch_numba(*args)
    else:
        args = (phi, temp, h, 1.0, 1e-3, 0.1, 1e-6, 6, p)
        out_np = _kernels.cahn_hilliard_batch_numpy(*args)
        out_nb = _kernels.cahn_hilliard_batch_numba(*args)
    np.testing.assert_allclose(out_nb, out_np, rtol=0, atol=1e-12)


def test_kernels_do_not_mutate_inputs(rng):
    # one row matters: u.T of a (1, n) array is already contiguous, so a
    # kernel that transposes without copying would write into the caller's
    # state
    p = 6
    for kind in ("burgers", "allen_cahn", "cahn_hilliard"):
        for name in (f"{kind}_batch", f"{kind}_batch_numpy"):
            for rows in (1, 3):
                if kind == "burgers":
                    inputs = [rng.standard_normal((rows, 20)),
                              rng.standard_normal(rows),
                              rng.standard_normal(rows)]
                    params = (0.05, 0.1, 1e-4, 5)
                else:
                    inputs = [0.5 * rng.standard_normal((rows, p * p))
                              for _ in range(3)]
                    params = (1.0, 1e-3, 0.1, 1e-6, 5, p)
                saved = [a.copy() for a in inputs]
                getattr(_kernels, name)(*inputs, *params)
                for a, b in zip(inputs, saved):
                    np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("cls,name", [(AllenCahnModel, "allen_cahn_batch"),
                                      (CahnHilliardModel,
                                       "cahn_hilliard_batch")])
def test_chunked_step_batch_bit_identical_to_one_kernel_call(rng, cls, name,
                                                             monkeypatch):
    p = 20
    grid = Grid(ndim=2, points=p, dx=1.0 / p)
    mask = np.where(rng.random(p * p) < 0.5, 1, -1)
    model = cls(grid, PdeParams(dt=1e-7, substeps=2), mask)
    kernel = getattr(_kernels, name)
    calls = []

    def recording(states, *args):
        calls.append(states.shape[0])
        return kernel(states, *args)

    monkeypatch.setattr(_kernels, name, recording)
    chunk = pde.MAX_CHUNK_CELLS // model.n_x
    for rows in (chunk - 1, chunk, chunk + 1, 3 * chunk + 1):
        states = 0.5 * rng.standard_normal((rows, model.n_x))
        controls = rng.standard_normal((rows, model.n_u))
        whole = kernel(states, *model._kernel_args(controls))
        calls.clear()
        np.testing.assert_array_equal(
            _bits(model.step_batch(states, controls)), _bits(whole))
        # the fewest chunks that fit, of sizes at most one row apart
        assert sum(calls) == rows and len(calls) == -(-rows // chunk)
        assert max(calls) <= chunk and max(calls) - min(calls) <= 1


def test_step_determinism(rng):
    grid = Grid(ndim=1, points=40, dx=0.05)
    model = BurgersModel(grid, PdeParams(dt=1e-3, substeps=7, nu=0.02))
    x = rng.standard_normal(40)
    u = np.array([0.3, -0.1])
    first = step(model, x, u)
    second = step(model, x, u)
    np.testing.assert_array_equal(first, second)


def _locality_radius(model, x, u, point):
    base = step(model, x, u)
    xp = x.copy()
    xp[point] += 1e-3
    return np.nonzero(np.abs(step(model, xp, u) - base) > 0)[0]


def test_burgers_locality(rng):
    grid = Grid(ndim=1, points=30, dx=0.1)
    model = BurgersModel(grid, PdeParams(dt=1e-4, substeps=1, nu=0.02))
    changed = _locality_radius(model, rng.standard_normal(30), np.zeros(2), 15)
    assert set(changed) <= {14, 15, 16}


@pytest.mark.parametrize("cls,radius", [(AllenCahnModel, 1),
                                        (CahnHilliardModel, 2)])
def test_phase_field_locality(rng, cls, radius):
    p = 10
    grid = Grid(ndim=2, points=p, dx=0.1)
    mask = np.ones(p * p, dtype=np.int8)
    model = cls(grid, PdeParams(dt=1e-7, substeps=1), mask)
    point = 5 * p + 5
    changed = _locality_radius(model, 0.3 * rng.standard_normal(p * p),
                               np.array([0.1, 0.2, -0.1, 0.3]), point)
    for c in changed:
        dj = abs(c // p - 5)
        di = abs(c % p - 5)
        assert min(dj, p - dj) + min(di, p - di) <= radius
