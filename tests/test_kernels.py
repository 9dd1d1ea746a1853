"""The numpy and C kernel paths must agree with each other and with the
loop oracles kept here; steps must be local and deterministic."""

import platform
import shutil
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from helpers import bits as _bits
from helpers import (CLONE_GUARD, cone_cases, cone_model, cone_reaches,
                     state_design, step, stepped_differences)
from hypothesis import given, settings
from hypothesis import strategies as st

from roilqr import _kernels, pde
from roilqr.harness import build_problem, preset
from roilqr.pde import (AllenCahnModel, BurgersModel, CahnHilliardModel, Grid,
                        PdeParams)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The C kernels: the active ones on the C path, else built into a
    fresh cache, so that a run on the numpy path checks them too."""
    if _kernels.KERNEL_PATH == "c":
        return _kernels._compiled
    kernels = _kernels.load_compiled(tmp_path_factory.mktemp("cache"),
                                     shutil.which("cc"))
    if kernels is None:
        pytest.skip("no C compiler to build the C kernels with")
    return kernels


def burgers_batch_rowwise(u, controls, nu, dx, dt, nsub):
    """Row-major Burgers step in the folded form, one whole-array
    expression per substep: the bit-exact reference for the node-major
    numpy kernel."""
    u = u.copy()
    c_adv = dt / (2.0 * dx)
    c_dif = nu * dt / (dx * dx)
    k = 1.0 - 2.0 * c_dif
    u[:, 0] = controls[:, 0]
    u[:, -1] = controls[:, 1]
    for _ in range(nsub):
        um = u[:, :-2]
        uc = u[:, 1:-1]
        up = u[:, 2:]
        u[:, 1:-1] = uc * (k - c_adv * (up - um)) + c_dif * (up + um)
    return u


def _neighbours_rolled(a):
    # the four periodic neighbours, summed in the kernels' order
    return (np.roll(a, 1, axis=2) + np.roll(a, -1, axis=2)) \
        + (np.roll(a, 1, axis=1) + np.roll(a, -1, axis=1))


def _fields(phi, controls, mask, npts):
    """The state and the per-point (temp, h) fields as ``(B, npts, npts)``
    arrays, the controls routed by label row-major."""
    nb = phi.shape[0]
    plus = np.asarray(mask)[None, :] > 0
    temp = np.where(plus, controls[:, 0:1], controls[:, 2:3])
    h = np.where(plus, controls[:, 1:2], controls[:, 3:4])
    return [a.reshape(nb, npts, npts) for a in (phi, temp, h)]


def allen_cahn_batch_rolled(phi, controls, mask, mob, gamma, dx, dt, nsub,
                            npts):
    """Row-major Allen-Cahn step in the folded form with per-point
    coefficient fields and a rolled neighbour sum: the bit-exact reference
    for the node-major numpy kernel."""
    f, tf, hf = _fields(phi, controls, mask, npts)
    c = dt * mob
    k = c * gamma / (dx * dx)
    a = (1.0 - 4.0 * k) - 2.0 * c * tf
    hc = -c * hf
    for _ in range(nsub):
        f = f * (a - 4.0 * c * (f * f)) + k * _neighbours_rolled(f) + hc
    return f.reshape(phi.shape)


def cahn_hilliard_batch_rolled(phi, controls, mask, mob, gamma, dx, dt, nsub,
                               npts):
    """Row-major Cahn-Hilliard step in the folded form with per-point
    coefficient fields and rolled neighbour sums: the bit-exact reference
    for the node-major numpy kernel."""
    f, tf, hf = _fields(phi, controls, mask, npts)
    s = dt * mob / (dx * dx)
    k = s * gamma / (dx * dx)
    bc = 2.0 * s * tf + 4.0 * k
    hs = s * hf
    for _ in range(nsub):
        mu = f * (bc + 4.0 * s * (f * f)) - k * _neighbours_rolled(f) + hs
        f = f - 4.0 * mu + _neighbours_rolled(mu)
    return f.reshape(phi.shape)


# The loop oracles: each kernel as plain Python loops over rows, substeps
# and points, evaluating the numpy kernels' expressions in the same
# order.  The numpy kernels are bit-identical to them.


def _burgers_batch_loops(u, controls, nu, dx, dt, nsub):
    nb, n = u.shape
    out = u.copy()
    buf = np.empty(n)
    c_adv = dt / (2.0 * dx)
    c_dif = nu * dt / (dx * dx)
    k = 1.0 - 2.0 * c_dif
    for b in range(nb):
        row = out[b]
        row[0] = controls[b, 0]
        row[n - 1] = controls[b, 1]
        for _ in range(nsub):
            for i in range(1, n - 1):
                buf[i] = (
                    row[i] * (k - c_adv * (row[i + 1] - row[i - 1]))
                    + c_dif * (row[i + 1] + row[i - 1])
                )
            for i in range(1, n - 1):
                row[i] = buf[i]
    return out


def _allen_cahn_loops(phi, controls, mask, mob, gamma, dx, dt, nsub, npts):
    nb, n = phi.shape
    out = phi.copy()
    buf = np.empty(n)
    a = np.empty(n)
    hc = np.empty(n)
    c = dt * mob
    k = c * gamma / (dx * dx)
    c4 = 4.0 * c
    a0 = 1.0 - 4.0 * k
    for b in range(nb):
        f = out[b]
        a_plus = a0 - 2.0 * c * controls[b, 0]
        a_minus = a0 - 2.0 * c * controls[b, 2]
        h_plus = -c * controls[b, 1]
        h_minus = -c * controls[b, 3]
        for p in range(n):
            if mask[p] > 0:
                a[p] = a_plus
                hc[p] = h_plus
            else:
                a[p] = a_minus
                hc[p] = h_minus
        for _ in range(nsub):
            for j in range(npts):
                jm = j - 1 if j > 0 else npts - 1
                jp = j + 1 if j < npts - 1 else 0
                for i in range(npts):
                    im = i - 1 if i > 0 else npts - 1
                    ip = i + 1 if i < npts - 1 else 0
                    p = j * npts + i
                    v = f[p]
                    nsum = (f[j * npts + im] + f[j * npts + ip]) \
                        + (f[jm * npts + i] + f[jp * npts + i])
                    buf[p] = v * (a[p] - c4 * (v * v)) + k * nsum + hc[p]
            f[:] = buf
    return out


def _cahn_hilliard_loops(phi, controls, mask, mob, gamma, dx, dt, nsub, npts):
    nb, n = phi.shape
    out = phi.copy()
    mu = np.empty(n)
    buf = np.empty(n)
    bc = np.empty(n)
    hs = np.empty(n)
    s = dt * mob / (dx * dx)
    k = s * gamma / (dx * dx)
    s4 = 4.0 * s
    for b in range(nb):
        f = out[b]
        bc_plus = 2.0 * s * controls[b, 0] + 4.0 * k
        bc_minus = 2.0 * s * controls[b, 2] + 4.0 * k
        hs_plus = s * controls[b, 1]
        hs_minus = s * controls[b, 3]
        for p in range(n):
            if mask[p] > 0:
                bc[p] = bc_plus
                hs[p] = hs_plus
            else:
                bc[p] = bc_minus
                hs[p] = hs_minus
        for _ in range(nsub):
            for j in range(npts):
                jm = j - 1 if j > 0 else npts - 1
                jp = j + 1 if j < npts - 1 else 0
                for i in range(npts):
                    im = i - 1 if i > 0 else npts - 1
                    ip = i + 1 if i < npts - 1 else 0
                    p = j * npts + i
                    v = f[p]
                    nsum = (f[j * npts + im] + f[j * npts + ip]) \
                        + (f[jm * npts + i] + f[jp * npts + i])
                    mu[p] = v * (bc[p] + s4 * (v * v)) - k * nsum + hs[p]
            for j in range(npts):
                jm = j - 1 if j > 0 else npts - 1
                jp = j + 1 if j < npts - 1 else 0
                for i in range(npts):
                    im = i - 1 if i > 0 else npts - 1
                    ip = i + 1 if i < npts - 1 else 0
                    p = j * npts + i
                    nsum = (mu[j * npts + im] + mu[j * npts + ip]) \
                        + (mu[jm * npts + i] + mu[jp * npts + i])
                    buf[p] = f[p] - 4.0 * mu[p] + nsum
            f[:] = buf
    return out


# The schemes as written before their constants are folded: the folded
# kernels agree with these to rounding.


def burgers_scheme(u, controls, nu, dx, dt, nsub):
    u = u.copy()
    c_adv = dt / (2.0 * dx)
    c_dif = nu * dt / (dx * dx)
    u[:, 0] = controls[:, 0]
    u[:, -1] = controls[:, 1]
    for _ in range(nsub):
        um = u[:, :-2]
        uc = u[:, 1:-1]
        up = u[:, 2:]
        u[:, 1:-1] = uc - c_adv * uc * (up - um) \
            + c_dif * (up - 2.0 * uc + um)
    return u


def _lap2_rolled(a, dx):
    return (
        np.roll(a, 1, axis=1)
        + np.roll(a, -1, axis=1)
        + np.roll(a, 1, axis=2)
        + np.roll(a, -1, axis=2)
        - 4.0 * a
    ) / (dx * dx)


def allen_cahn_scheme(phi, controls, mask, mob, gamma, dx, dt, nsub, npts):
    f, tf, hf = _fields(phi, controls, mask, npts)
    for _ in range(nsub):
        bulk = 4.0 * f * f * f + 2.0 * tf * f + hf
        f = f - dt * mob * (bulk - gamma * _lap2_rolled(f, dx))
    return f.reshape(phi.shape)


def cahn_hilliard_scheme(phi, controls, mask, mob, gamma, dx, dt, nsub,
                         npts):
    f, tf, hf = _fields(phi, controls, mask, npts)
    for _ in range(nsub):
        mu = 4.0 * f * f * f + 2.0 * tf * f + hf \
            - gamma * _lap2_rolled(f, dx)
        f = f + dt * mob * _lap2_rolled(mu, dx)
    return f.reshape(phi.shape)


def _random_mask(rng, npts):
    return np.where(rng.random(npts * npts) < 0.5, 1, -1).astype(np.int8)


@pytest.mark.parametrize("rows", [1, 2, 22, 44, 97])
def test_burgers_numpy_bit_identical_to_rowwise(rng, rows):
    # the burgers preset's grid and substeps
    u = 0.5 * rng.standard_normal((rows, 100))
    args = (u, rng.standard_normal((rows, 2)), 0.08, 2.0 / 99, 1e-3, 250)
    out = _kernels.burgers_batch_numpy(*args)
    assert out.shape == (rows, 100) and out.flags.c_contiguous
    np.testing.assert_array_equal(_bits(out), _bits(burgers_batch_rowwise(*args)))


@pytest.mark.parametrize("kernel,reference,dt", [
    (_kernels.allen_cahn_batch_numpy, allen_cahn_batch_rolled, 1e-4),
    (_kernels.cahn_hilliard_batch_numpy, cahn_hilliard_batch_rolled, 1e-6),
], ids=["allen_cahn", "cahn_hilliard"])
@pytest.mark.parametrize("rows", [1, 2, 16, 33])
# 2 points is the smallest grid: there both neighbours along an axis are
# the same point
@pytest.mark.parametrize("npts", [2, 3, 20, 50])
def test_phase_field_numpy_bit_identical_to_rolled(rng, kernel, reference, dt,
                                                   rows, npts):
    phi = 0.5 * rng.standard_normal((rows, npts * npts))
    args = (phi, rng.standard_normal((rows, 4)), _random_mask(rng, npts),
            1.0, 1e-3, 0.1, dt, 5, npts)
    out = kernel(*args)
    assert out.shape == phi.shape and out.flags.c_contiguous
    np.testing.assert_array_equal(_bits(out), _bits(reference(*args)))


# Largest difference between a folded kernel and the unfolded scheme,
# relative to the largest magnitude of the scheme's result.
SCHEME_RTOL = 1e-13


LOOPS = {"burgers": _burgers_batch_loops,
         "allen_cahn": _allen_cahn_loops,
         "cahn_hilliard": _cahn_hilliard_loops}


def _preset_case(name, points, rng):
    """The preset's model and initial state, or its model on a grid of
    ``points`` per axis with a random mask and a zero state."""
    problem = build_problem(preset(name))
    model = problem.model
    if points == model.grid.points:
        return model, problem.x0
    grid = Grid(ndim=2, points=points, dx=1.0 / points)
    mask = np.where(rng.random(points**2) < 0.5, 1, -1)
    return type(model)(grid, model.params, mask), np.zeros(points**2)


@pytest.mark.parametrize("name,points,scheme", [
    ("burgers", 100, burgers_scheme),
    ("allen_cahn", 50, allen_cahn_scheme),
    ("allen_cahn", 2, allen_cahn_scheme),
    ("allen_cahn", 3, allen_cahn_scheme),
    ("cahn_hilliard", 20, cahn_hilliard_scheme),
    ("cahn_hilliard", 2, cahn_hilliard_scheme),
    ("cahn_hilliard", 3, cahn_hilliard_scheme),
])
def test_folded_kernels_agree_with_scheme(rng, name, points, scheme):
    # preset steps (Burgers 250 substeps, Allen-Cahn 10, Cahn-Hilliard 40)
    # from perturbed initial states under random controls
    model, x0 = _preset_case(name, points, rng)
    states = x0 + 0.1 * rng.standard_normal((3, model.n_x))
    controls = 0.3 * rng.standard_normal((3, model.n_u))
    args = (states, controls, *model._params)
    ref = scheme(*args)
    for kernel in (getattr(_kernels, f"{name}_batch_numpy"), LOOPS[name]):
        err = np.max(np.abs(kernel(*args) - ref))
        assert err <= SCHEME_RTOL * np.max(np.abs(ref)), (kernel.__name__, err)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(npts=st.integers(2, 20), rows=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_cahn_hilliard_kernel_conserves_mass(npts, rows, seed):
    # the cahn_hilliard preset's time step on random grids, masks, fields
    # and controls
    rng = np.random.default_rng(seed)
    grid = Grid(ndim=2, points=npts, dx=1.0 / npts)
    mask = np.where(rng.random(npts * npts) < 0.5, 1, -1)
    model = CahnHilliardModel(grid, PdeParams(dt=5e-5, substeps=40), mask)
    phi = rng.uniform(-1.0, 1.0, (rows, model.n_x))
    args = (phi, rng.standard_normal((rows, 4)), *model._params)
    for kernel in (_kernels.cahn_hilliard_batch_numpy,
                   _kernels.cahn_hilliard_batch):
        out = kernel(*args)
        assert np.all(np.isfinite(out))
        drift = np.abs(out.sum(axis=1) - phi.sum(axis=1))
        assert np.all(drift <= 1e-10 * model.n_x), (kernel.__name__, drift)


def test_burgers_paths_agree(rng):
    args = (rng.standard_normal((7, 50)), rng.standard_normal((7, 2)), 0.05,
            0.04, 1e-4, 12)
    out_np = _kernels.burgers_batch_numpy(*args)
    # the active kernel (C, or numpy itself) bit for bit
    np.testing.assert_array_equal(_bits(_kernels.burgers_batch(*args)),
                                  _bits(out_np))
    # same operations in the same order as the loop kernel run as Python
    np.testing.assert_array_equal(
        _bits(out_np), _bits(_burgers_batch_loops(*args)))


@pytest.mark.parametrize("kind", ["allen_cahn", "cahn_hilliard"])
def test_phase_field_paths_agree(rng, kind):
    p = 12
    phi = 0.5 * rng.standard_normal((4, p * p))
    dt = 1e-4 if kind == "allen_cahn" else 1e-6
    args = (phi, rng.standard_normal((4, 4)), _random_mask(rng, p),
            1.0, 1e-3, 0.1, dt, 6, p)
    out_np = getattr(_kernels, f"{kind}_batch_numpy")(*args)
    # the active kernel (C, or numpy itself) bit for bit
    np.testing.assert_array_equal(
        _bits(getattr(_kernels, f"{kind}_batch")(*args)), _bits(out_np))
    # same operations in the same order as the loop kernel run as Python
    np.testing.assert_array_equal(_bits(out_np), _bits(LOOPS[kind](*args)))


# Batch sizes below, at and above one cache line of rows, every row count
# modulo 8 (so every remainder of a vector of 2, 4 or 8 doubles) and the
# unit sizes identification issues; grid sizes down to 2 points per axis, where both
# neighbours along an axis are the same point and a grid row has no
# interior columns (3: one).
C_ROWS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 31, 33, 40, 96]
C_POINTS = [2, 3, 20, 50]


def _c_case(rng, kind, rows, points):
    """Arguments of a ``kind`` kernel call: the preset's time step and
    coefficients, on ``points`` nodes (Burgers) or points per axis."""
    if kind == "burgers":
        return (0.5 * rng.standard_normal((rows, points)),
                rng.standard_normal((rows, 2)), 0.08, 2.0 / 99, 1e-3, 250)
    dt = 1e-4 if kind == "allen_cahn" else 1e-6
    return (0.5 * rng.standard_normal((rows, points * points)),
            rng.standard_normal((rows, 4)), _random_mask(rng, points),
            1.0, 1e-3, 0.1, dt, 5, points)


@pytest.mark.parametrize("kind", ["burgers", "allen_cahn", "cahn_hilliard"])
@pytest.mark.parametrize("rows", C_ROWS)
@pytest.mark.parametrize("points", C_POINTS)
def test_c_kernel_bit_identical_to_numpy(rng, compiled, kind, rows, points):
    args = _c_case(rng, kind, rows, points)
    out = getattr(compiled, f"{kind}_batch")(*args)
    assert out.shape == args[0].shape and out.flags.c_contiguous
    np.testing.assert_array_equal(
        _bits(out), _bits(getattr(_kernels, f"{kind}_batch_numpy")(*args)))


def _cpu_flags():
    """The instruction-set flags ``/proc/cpuinfo`` lists (none where it
    lists no x86 ``flags`` line)."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines
                 if line.startswith("flags")), set())


# Where the C source builds its kernels as clones (x86-64 with glibc,
# whose loader dispatches them)
CLONES = platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc"


def test_kernel_isa_names_the_host_clone(compiled):
    # the first clone target, in the source's order, that the CPU has
    flags = _cpu_flags() if CLONES else set()
    expected = next((isa for isa in ("avx512f", "avx2") if isa in flags),
                    "baseline")
    assert compiled.isa == expected
    assert _kernels.KERNEL_ISA == (
        expected if _kernels.KERNEL_PATH == "c" else None)


@pytest.fixture(scope="module", params=["", "-mavx2", "-mavx512f"])
def unclone_build(request, tmp_path_factory):
    """The C kernels built without clones, with the flags alone (as on a
    host without them) and with each clone's target added where the CPU
    has it: every code path a clone stands for, whichever one the loader
    picks here."""
    target = request.param
    if target and not (platform.machine() == "x86_64"
                       and target[2:] in _cpu_flags()):
        pytest.skip(f"the CPU runs no {target[2:]} code")
    source = Path(_kernels._C_SOURCE).read_text()
    assert source.count(CLONE_GUARD) == 1
    directory = tmp_path_factory.mktemp("unclone")
    (directory / "_kernels.c").write_text(
        source.replace(CLONE_GUARD, "#if 0"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_C_SOURCE", str(directory / "_kernels.c"))
        mp.setattr(_kernels, "CFLAGS",
                   _kernels.CFLAGS + ((target,) if target else ()))
        kernels = _kernels.load_compiled(directory / "cache",
                                         shutil.which("cc"))
    if kernels is None:
        pytest.skip("no C compiler to build the C kernels with")
    assert kernels.isa == "baseline"
    return kernels


@pytest.mark.parametrize("kind", ["burgers", "allen_cahn", "cahn_hilliard"])
def test_unclone_build_bit_identical_to_numpy(rng, unclone_build, kind):
    for rows in C_ROWS:
        for points in C_POINTS:
            args = _c_case(rng, kind, rows, points)
            np.testing.assert_array_equal(
                _bits(getattr(unclone_build, f"{kind}_batch")(*args)),
                _bits(getattr(_kernels, f"{kind}_batch_numpy")(*args)),
                err_msg=f"{rows} rows, {points} points")


@pytest.mark.parametrize("kind", ["burgers", "allen_cahn", "cahn_hilliard"])
def test_c_kernel_diverging_row(rng, compiled, kind):
    # one row of 9 blows up (to inf, then nan); the others stay finite
    args = list(_c_case(rng, kind, 9, 20))
    args[0][4] *= 1e120
    out = getattr(compiled, f"{kind}_batch")(*args)
    ref = getattr(_kernels, f"{kind}_batch_numpy")(*args)
    finite = np.isfinite(ref)
    assert not finite[4].all() and finite[np.arange(9) != 4].all()
    np.testing.assert_array_equal(np.isfinite(out), finite)
    np.testing.assert_array_equal(_bits(out[finite]), _bits(ref[finite]))


@pytest.mark.parametrize("kind,arg,bad", [
    ("burgers", 1, np.zeros(2)),              # controls: not rows
    ("burgers", 1, np.zeros((3, 1))),         # controls: 1 per row
    ("allen_cahn", 1, np.zeros((3, 3))),      # controls: 3 per row
    ("allen_cahn", 2, np.ones(8)),            # mask: 8 labels for 9 points
    ("cahn_hilliard", 0, np.zeros((3, 10))),  # phi: 10 values per row
    ("cahn_hilliard", 8, 1),                  # npts below 2
    ("burgers", 1, np.zeros((3, 3))),         # controls: 3 per row
    ("burgers", 1, np.zeros((4, 2))),         # controls: 4 rows for 3
])
def test_c_kernel_rejects_mismatched_arguments(rng, compiled, kind, arg,
                                               bad):
    # sizes are checked before any pointer is handed to C
    args = list(_c_case(rng, kind, 3, 3))
    args[arg] = bad
    with pytest.raises(ValueError):
        getattr(compiled, f"{kind}_batch")(*args)


def test_kernels_do_not_mutate_inputs(rng):
    # one row matters: u.T of a (1, n) array is already contiguous, so a
    # kernel that transposes without copying would write into the caller's
    # state
    p = 6
    for kind in ("burgers", "allen_cahn", "cahn_hilliard"):
        for name in (f"{kind}_batch", f"{kind}_batch_numpy"):
            for rows in (1, 3):
                if kind == "burgers":
                    inputs = {"u": rng.standard_normal((rows, 20)),
                              "controls": rng.standard_normal((rows, 2))}
                    params = (0.05, 0.1, 1e-4, 5)
                else:
                    inputs = {"phi": 0.5 * rng.standard_normal((rows, p * p)),
                              "controls": rng.standard_normal((rows, 4)),
                              "mask": _random_mask(rng, p)}
                    params = (1.0, 1e-3, 0.1, 1e-6, 5, p)
                saved = {arg: a.copy() for arg, a in inputs.items()}
                getattr(_kernels, name)(*inputs.values(), *params)
                for arg, a in inputs.items():
                    np.testing.assert_array_equal(
                        a, saved[arg], err_msg=f"{name}: {arg}, {rows} rows")


# Central-difference units: <pde>_central on the C path and on numpy, the
# model's central, and the generic composition over step_batch, all
# against the halved differences of the 2 k m rows stepped by step_batch,
# bit for bit.

KINDS = ["burgers", "allen_cahn", "cahn_hilliard"]


def _central_model(rng, kind, nsub=5):
    """A small model of ``kind``: 24 Burgers nodes or a 6x6 phase-field
    grid with a random mask."""
    if kind == "burgers":
        return BurgersModel(Grid(ndim=1, points=24, dx=2.0 / 23),
                            PdeParams(dt=2e-3, substeps=nsub, nu=0.05))
    cls = AllenCahnModel if kind == "allen_cahn" else CahnHilliardModel
    return cls(Grid(ndim=2, points=6, dx=1.0 / 6),
               PdeParams(dt=1e-4, substeps=nsub), _random_mask(rng, 6))


def _centrals(compiled, kind, model):
    """Every way to run a unit of ``model``, of ``kind``, by name, each
    called as ``(states, controls, design_x, design_u, out)``."""
    params = model._params
    return {
        "c": lambda *a: getattr(compiled, f"{kind}_central")(*a, *params),
        "numpy": lambda *a: getattr(_kernels, f"{kind}_central_numpy")(
            *a, *params),
        "model": model.central,
        "composition": partial(_kernels.central_numpy, model.step_batch),
    }


def _unit_design(rng, model, m, dense):
    """A design of m samples, the state moves node-major (n_x, m): as a
    full-order unit of the last m samples of a timestep (identity columns
    of 1e-2, then one control moved by 1e-2 per sample), or dense random
    moves of every state and control coordinate."""
    n_x, n_u = model.n_x, model.n_u
    if dense:
        return (1e-2 * rng.standard_normal((n_x, m)),
                1e-2 * rng.standard_normal((m, n_u)))
    design = np.zeros((n_x + n_u, m))
    design[n_x + n_u - m + np.arange(m), np.arange(m)] = 1e-2
    return design[:n_x], np.ascontiguousarray(design[n_x:].T)


def _unit(rng, model, k):
    # k random nominal states and controls
    return (0.3 * rng.standard_normal((k, model.n_x)),
            0.3 * rng.standard_normal((k, model.n_u)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense"])
@pytest.mark.parametrize("k", [1, 3])
def test_central_bit_identical_to_stepped_rows(rng, compiled, kind, dense,
                                               k):
    model = _central_model(rng, kind)
    # every sample count mod 8, below, at and above one cache line of rows
    for m in range(1, 18):
        states, controls = _unit(rng, model, k)
        design_x, design_u = _unit_design(rng, model, m, dense)
        inputs = (states, controls, design_x, design_u)
        saved = [a.copy() for a in inputs]
        ref = stepped_differences(model, *inputs)
        assert np.all(np.isfinite(ref))
        for name, central in _centrals(compiled, kind, model).items():
            out = np.full((k, model.n_x, m), np.nan)
            assert central(*inputs, out) == -1
            np.testing.assert_array_equal(_bits(out), _bits(ref),
                                          err_msg=f"{name}, m = {m}")
            for a, b in zip(inputs, saved):
                np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("kind", KINDS)
def test_central_writes_through_strided_views(rng, compiled, kind):
    model = _central_model(rng, kind)
    n_x, n_u = model.n_x, model.n_u
    k, m = 2, 11
    states, controls = _unit(rng, model, k)
    design_x, design_u = _unit_design(rng, model, m, True)
    ref = stepped_differences(model, states, controls, design_x, design_u)
    for name, central in _centrals(compiled, kind, model).items():
        # into timesteps 1-2, samples 3-13, of a (T, d, N) output, as a
        # full-order unit writes; the rest of it is left as it was
        outputs = np.full((5, n_x, n_x + n_u), 7.0)
        assert central(states, controls, design_x, design_u,
                       outputs[1:3, :, 3:14]) == -1
        np.testing.assert_array_equal(_bits(outputs[1:3, :, 3:14]),
                                      _bits(ref), err_msg=name)
        outputs[1:3, :, 3:14] = 7.0
        assert np.all(outputs == 7.0), name
        # through the transposed view of a (k, m, n_x) buffer, as a
        # reduced unit writes before it projects
        buf = np.full((k, m, n_x), 7.0)
        assert central(states, controls, design_x, design_u,
                       buf.transpose(0, 2, 1)) == -1
        np.testing.assert_array_equal(_bits(buf),
                                      _bits(ref.transpose(0, 2, 1)),
                                      err_msg=name)


def test_burgers_central_pinned_boundary_columns_are_zero(rng, compiled):
    # the boundary nodes hold the controls, so moving one of them moves
    # no next state: its samples' differences are +0.0 throughout
    model = _central_model(rng, "burgers")
    n_x, n_u = model.n_x, model.n_u
    states, controls = _unit(rng, model, 2)
    design_x, design_u = _unit_design(rng, model, n_x + n_u, False)
    for name, central in _centrals(compiled, "burgers", model).items():
        out = np.full((2, n_x, n_x + n_u), np.nan)
        assert central(states, controls, design_x, design_u, out) == -1
        for j in (0, n_x - 1):
            np.testing.assert_array_equal(_bits(out[:, :, j]),
                                          _bits(np.zeros((2, n_x))),
                                          err_msg=name)
        # while moving an interior node moves its own next state
        inner = out[:, 1:n_x - 1, 1:n_x - 1]
        assert np.all(np.diagonal(inner, axis1=1, axis2=2) != 0.0), name


def _overflow_scale(model):
    """A value T such that, over one substep, a node of magnitude 1.1 T
    overflows and one of 0.6 T or less stays finite everywhere: the
    largest double for Burgers (the x +/- d of a row overflows), and
    for the phase-field kernels the magnitude whose cubic bulk term
    reaches it."""
    big = np.finfo(np.float64).max
    if isinstance(model, BurgersModel):
        return big
    p = model.params
    cubic = 4.0 * p.dt * p.mobility
    if isinstance(model, CahnHilliardModel):
        cubic /= model.grid.dx**2
    return big ** (1.0 / 3.0) / cubic ** (1.0 / 3.0)


@pytest.mark.parametrize("kind", KINDS)
def test_central_reports_a_diverging_minus_side(rng, compiled, kind):
    # at timestep 2 of 3, only the minus side of sample 5 of 9 diverges:
    # node 7 is 0.6 T there and sample 5 moves it by -0.5 T, so its plus
    # side is 0.1 T and its minus side 1.1 T; every other row stays
    # below 0.6 T
    model = _central_model(rng, kind, nsub=1)
    scale = _overflow_scale(model)
    k, m, t_bad, j_bad, node = 3, 9, 2, 5, 7
    states, controls = _unit(rng, model, k)
    design_x, design_u = _unit_design(rng, model, m, True)
    states[t_bad, node] = 0.6 * scale
    design_x[node, j_bad] = -0.5 * scale
    inputs = (states, controls, design_x, design_u)
    with np.errstate(over="ignore", invalid="ignore"):
        for name, central in _centrals(compiled, kind, model).items():
            out = np.full((k, model.n_x, m), 7.0)
            assert central(*inputs, out) == t_bad * m + j_bad, name
            assert np.all(out == 7.0), name   # not written
        # the same unit stepped whole: the reported sample's minus side,
        # and only it, is not finite
        xs = np.array([side(x, design_x[:, j]) for x in states
                       for side in (np.add, np.subtract) for j in range(m)])
        us = np.array([side(u, design_u[j]) for u in controls
                       for side in (np.add, np.subtract) for j in range(m)])
        f = model.step_batch(xs, us).reshape(k, 2, m, model.n_x)
    bad = ~np.all(np.isfinite(f), axis=3)
    assert bad[t_bad, 1, j_bad] and bad.sum() == 1


@pytest.mark.parametrize("kind", KINDS)
def test_unclone_build_central_bit_identical(rng, unclone_build, kind):
    model = _central_model(rng, kind)
    central = _centrals(unclone_build, kind, model)["c"]
    for m in range(1, 18):
        states, controls = _unit(rng, model, 2)
        inputs = (states, controls, *_unit_design(rng, model, m, True))
        out = np.empty((2, model.n_x, m))
        assert central(*inputs, out) == -1
        np.testing.assert_array_equal(
            _bits(out), _bits(stepped_differences(model, *inputs)),
            err_msg=f"m = {m}")


# Light cones: allen_cahn_central steps a sample that moves one point only
# within the points its move reaches, on grids larger than that cone.


@pytest.mark.parametrize("npts,nsub", [(30, 10), (20, 3)])
def test_allen_cahn_central_cones_bit_identical(rng, compiled, npts, nsub):
    for name, model, *inputs in cone_cases(rng, npts, nsub):
        ref = stepped_differences(model, *inputs)
        assert np.all(np.isfinite(ref))
        # the moves reach the rim of their cones, so a cone one point
        # short would change the differences of a unit stepped in cones
        assert name == "dense" or cone_reaches(model, inputs[2], ref), name
        saved = [a.copy() for a in inputs]
        for path, central in _centrals(compiled, "allen_cahn", model).items():
            out = np.full((len(inputs[0]), model.n_x, len(inputs[3])), np.nan)
            assert central(*inputs, out) == -1
            np.testing.assert_array_equal(_bits(out), _bits(ref),
                                          err_msg=f"{name}, {path}")
            for a, b in zip(inputs, saved):
                np.testing.assert_array_equal(_bits(a), _bits(b))


def _first_diverged(model, states, controls, design_x, design_u):
    """The first sample t * m + j of which a row, stepped whole, is not
    finite, or -1."""
    m = len(design_u)
    xs = [side(x, design_x[:, j]) for x in states
          for side in (np.add, np.subtract) for j in range(m)]
    us = [side(u, design_u[j]) for u in controls
          for side in (np.add, np.subtract) for j in range(m)]
    f = model.step_batch(np.array(xs), np.array(us))
    bad = ~np.all(np.isfinite(f.reshape(len(states), 2, m, -1)), axis=(1, 3))
    return int(np.flatnonzero(bad)[0]) if bad.any() else -1


def test_allen_cahn_central_divergence_outside_a_cone(rng, compiled):
    # One substep on a 20x20 grid: a sample's cone is its moved point and
    # the four around it.  Each unit is one timestep whose samples all
    # move one state point, so it is stepped in cones.  In the first the
    # nominal holds a point P of 1.1 T, which overflows.  Samples 0, 1, 3,
    # 4, 6 and 7 move points far from P, so only their nominal row
    # diverges, outside their cones; sample 2 moves a neighbour of P,
    # inside whose cone P diverges.  In the second sample 5 moves a point
    # Q of 0.6 T by -0.5 T, so that only its minus side diverges, inside
    # its cone, while the nominal stays finite.
    model = cone_model(rng, 20, 1)
    scale = _overflow_scale(model)
    n_x, p, q = model.n_x, 5 * 20 + 5, 12 * 20 + 3
    controls = 0.3 * rng.standard_normal((1, model.n_u))
    for hazard, first in (("nominal", 0), ("sample", 5)):
        states = 0.3 * rng.standard_normal((1, n_x))
        design_x, design_u = state_design(
            model, [15 * 20 + 15, 10 * 20 + 15, p + 1, 17 * 20 + 10, 7, q,
                    2 * 20 + 14, 0])
        if hazard == "nominal":
            states[0, p] = 1.1 * scale
        else:
            states[0, q] = 0.6 * scale
            design_x[q, 5] = -0.5 * scale
        inputs = (states, controls, design_x, design_u)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _first_diverged(model, *inputs) == first, hazard
            for path, central in _centrals(compiled, "allen_cahn",
                                           model).items():
                out = np.full((1, n_x, 8), 7.0)
                assert central(*inputs, out) == first, (hazard, path)
                assert np.all(out == 7.0), (hazard, path)   # not written


@pytest.mark.parametrize("arg,bad", [
    (1, np.zeros((2, 3))),         # controls: 3 per timestep
    (2, np.zeros((5, 36))),        # design_x: not node-major
    (3, np.zeros((36, 4))),        # design_u: (n_x, n_u)
    (4, np.zeros((2, 36, 5), dtype=np.float32)),
    (4, np.zeros((2, 5, 36)).transpose(0, 2, 1)[:, :, :4]),
    (4, np.broadcast_to(np.zeros(1), (2, 36, 5))),    # read-only
])
def test_c_central_rejects_mismatched_arguments(rng, compiled, arg, bad):
    # sizes, the output's type and writeability are checked before any
    # pointer is handed to C
    model = _central_model(rng, "allen_cahn")
    states, controls = _unit(rng, model, 2)
    args = [states, controls, *_unit_design(rng, model, 5, True),
            np.empty((2, 36, 5)), *model._params]
    args[arg] = bad
    with pytest.raises(ValueError):
        compiled.allen_cahn_central(*args)


@pytest.mark.parametrize("rows,n_x,chunks", [
    (0, 400, []),
    (100, 400, [(0, 100)]),                     # fits: one call
    (101, 400, [(0, 56), (56, 101)]),
    (808, 400, [(i, i + 96) for i in range(0, 768, 96)] + [(768, 808)]),
    # two chunks of 100 would fit, but 100 is no multiple of 8
    (200, 400, [(0, 96), (96, 192), (192, 200)]),
    (20, 2500, [(0, 16), (16, 20)]),
    # fewer than 8 rows fit: as many as fit
    (20, 9000, [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20)]),
    (21, 9000, [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 21)]),
])
def test_row_chunks(rows, n_x, chunks):
    assert pde.aligned_runs(rows, 1, n_x) == chunks


@pytest.mark.parametrize("count,item_rows,n_x,sizes", [
    # reduced burgers: 11 samples of 2 rows per timestep; 18 timesteps
    # fit, 4 of them fill whole cache lines (88 rows)
    (20, 22, 100, [12, 8]),
    # reduced allen_cahn_small at 9 samples: 5 timesteps fit, 4 are
    # the fewest that fill whole lines (72 rows)
    (10, 18, 400, [4, 4, 2]),
    (20, 12, 400, [8, 8, 4]),     # 2 timesteps (24 rows) fill whole lines
    (10, 28, 400, [2, 2, 2, 2, 2]),
    (9, 28, 400, [2, 2, 2, 2, 1]),
    (20, 28, 100, [10, 10]),      # already a multiple of 2 timesteps
    # fewer timesteps fit than fill whole lines: as many as fit
    (5, 22, 500, [3, 2]),
    (7, 18, 1000, [2, 2, 2, 1]),
])
def test_whole_timestep_runs(count, item_rows, n_x, sizes):
    runs = pde.aligned_runs(count, item_rows, n_x)
    assert [hi - lo for lo, hi in runs] == sizes
    assert runs[0][0] == 0 and runs[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
    assert all((hi - lo) * item_rows * n_x <= pde.MAX_CHUNK_CELLS
               for lo, hi in runs)


@pytest.mark.parametrize("name", ["burgers", "allen_cahn", "allen_cahn_small",
                                  "cahn_hilliard"])
def test_step_batch_bit_identical_to_per_row_calls(rng, name, monkeypatch):
    # batch sizes below, at and above one cache line of rows (8), and
    # batches above pde.MAX_CHUNK_CELLS cells (97 rows at 50x50, 808 at
    # 20x20), each stepped in one kernel call
    cfg = preset(name)
    problem = build_problem(cfg)
    model = problem.model
    kernel_name = f"{cfg.problem.name}_batch"
    kernel = getattr(_kernels, kernel_name)
    calls = []

    def counting(states, *args):
        calls.append(len(states))
        return kernel(states, *args)

    monkeypatch.setattr(_kernels, kernel_name, counting)
    states = problem.x0 + 0.1 * rng.standard_normal((808, model.n_x))
    controls = 0.3 * rng.standard_normal((808, model.n_u))
    per_row = np.array([model.step_batch(x[None, :], u[None, :])[0]
                        for x, u in zip(states, controls)])
    assert np.all(np.isfinite(per_row))
    for rows in (1, 7, 8, 9, 20, 97, 808):
        calls.clear()
        out = model.step_batch(states[:rows], controls[:rows])
        assert calls == [rows]
        np.testing.assert_array_equal(_bits(out), _bits(per_row[:rows]),
                                      err_msg=f"{rows} rows")


@pytest.mark.parametrize("shape", [(1,), (7,), (98 * 220,), (100, 220),
                                   (20, 20, 96), (50, 50, 4), (3, 3, 1)])
def test_workspace_starts_a_cache_line(shape):
    for _ in range(5):   # fresh allocations land at different offsets
        # two buffers carved from one allocation, each on its own line
        bufs = _kernels._workspaces(shape, shape)
        for a in bufs:
            assert a.shape == shape and a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.writeable
            assert a.ctypes.data % 64 == 0
        assert not np.shares_memory(*bufs)


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
