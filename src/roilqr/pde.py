"""Discrete-time forward models for the benchmark PDEs.

Three explicit second-order central-difference schemes:

* 1-D viscous Burgers with Dirichlet boundary actuation (two controls:
  the boundary values, i.e. blowing/suction),
* 2-D Allen-Cahn (non-conserved order parameter),
* 2-D Cahn-Hilliard (conserved order parameter),

each advanced one "control step" = ``substeps`` explicit solver substeps
per call.  The phase-field models take four controls ``(temp+, h+,
temp-, h-)``: every grid point is labeled +1 or -1 by a target mask and
receives the (temp, h) pair of its label.  Bulk energy density: phi^4 +
temp*phi^2 + h*phi.

The kernels in :mod:`roilqr._kernels` evaluate each scheme with its
constants folded into per-call coefficients: Allen-Cahn's
phi' = phi - dt*M*(dF/dphi - gamma*lap(phi)) as
phi' = phi*(A - 4 dt M phi^2) + k*N(phi) + H, with N the sum of the four
periodic neighbours, ``k = dt*M*gamma/dx^2``, ``A = 1 - 4k - 2 dt M temp``
and ``H = -dt*M*h`` (10 array passes per substep); the Burgers (7) and
Cahn-Hilliard (16) forms are given in that module.

``step_batch`` and :func:`rollout` are pure; models validate an
explicit-scheme stability bound at construction, and :func:`rollout`
raises :class:`DivergenceError` when a trajectory blows up anyway (e.g.
advection-dominated regimes).
"""

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import _kernels


class DivergenceError(RuntimeError):
    """A step produced non-finite values (explicit scheme instability)."""

    def __init__(self, message, timestep=None, rollout=None):
        super().__init__(message)
        self.timestep = timestep
        self.rollout = rollout


class StabilityError(ValueError):
    """Configuration violates the explicit-scheme stability bound."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid, 1-D line or 2-D periodic square.

    ``points`` is per axis; total state dimension is ``points**ndim``.
    """

    ndim: int
    points: int
    dx: float

    def __post_init__(self):
        if self.ndim not in (1, 2):
            raise ValueError(f"ndim must be 1 or 2, got {self.ndim}")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.n_x < 4:
            raise ValueError("total state dimension must be >= 4")
        if not self.dx > 0:
            raise ValueError("dx must be positive")

    @property
    def n_x(self):
        return self.points**self.ndim


@dataclass(frozen=True)
class PdeParams:
    """Physical and time-integration parameters.

    ``gamma=None`` resolves to 0.5*dx^2 at model construction (interface
    width of about one cell).  One control step advances ``substeps *
    dt`` time units.
    """

    dt: float
    substeps: int = 10
    nu: float = 0.01
    mobility: float = 1.0
    gamma: float | None = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be a positive integer")
        if not self.nu > 0:
            raise ValueError("nu must be positive")
        if not self.mobility > 0:
            raise ValueError("mobility must be positive")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")


@dataclass
class Trajectory:
    """States ``(T+1, n_x)`` and controls ``(T, n_u)`` over horizon T."""

    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.controls = np.asarray(self.controls, dtype=np.float64)
        if self.states.ndim != 2 or self.controls.ndim != 2:
            raise ValueError("states must be (T+1, n_x), controls (T, n_u)")
        if self.states.shape[0] != self.controls.shape[0] + 1:
            raise ValueError(
                f"states ({self.states.shape[0]}) must be one longer than "
                f"controls ({self.controls.shape[0]})"
            )

    @property
    def horizon(self):
        return self.controls.shape[0]


# Largest identification unit, in cells (rows x n_x), that one central
# call is handed.  It steps its rows in one kernel call, so this bounds
# the kernels' workspaces only because identification keeps to it,
# stepping its experiments in units cut by aligned_runs.  It still steps
# one item whole where a single item is larger: a reduced timestep's
# queries.  Only full order cuts a timestep into sample ranges.
# Rollouts and the line search step one row per step_batch call.
MAX_CHUNK_CELLS = 40_000


def aligned_runs(count, item_rows, n_x):
    """``(lo, hi)`` runs of ``count`` items of ``item_rows`` rows of
    ``n_x`` cells each, every run of at most :data:`MAX_CHUNK_CELLS` cells
    (at least one item): none if ``count`` is 0, one run if the items
    fit, else equal runs and a shorter last one.  The equal runs hold a
    multiple of ``_kernels.VALUES_PER_LINE`` rows, so that the kernels'
    stencil shifts start cache lines, unless fewer rows than that fit."""
    per_call = max(1, MAX_CHUNK_CELLS // (item_rows * n_x))
    runs = -(-count // per_call)
    if runs <= 1:
        return [(0, count)] if count else []
    # the fewest items whose rows fill whole cache lines
    line = _kernels.VALUES_PER_LINE // gcd(item_rows, _kernels.VALUES_PER_LINE)
    size = -(-count // runs)
    size = min(per_call - per_call % line or per_call, size + -size % line)
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _as_batch(x, n, what="state"):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != n:
        raise ValueError(f"{what} length {x.shape[1]} != expected {n}")
    return x


class _Model:
    """The state dimension, ``step_batch`` and ``central`` of the three
    models, each of which gives its ``_kernel``, its ``_central`` and the
    kernels' trailing ``_params``.  Both kernels of every PDE, on either
    kernel path, take one call shape: the rows, their controls
    ``(B, n_u)``, then ``_params``."""

    @property
    def n_x(self):
        return self.grid.n_x

    def step_batch(self, states, controls):
        """Step each row of ``states`` once under its row of ``controls``
        with one call of the model's kernel, however many rows there are
        (see :data:`MAX_CHUNK_CELLS`)."""
        states = _as_batch(states, self.n_x)
        controls = _as_batch(controls, self.n_u, "control")
        if len(states) != len(controls):
            raise ValueError(f"{len(states)} state rows but "
                             f"{len(controls)} control rows")
        return self._kernel(states, controls, *self._params)

    def central(self, states, controls, design_x, design_u, out):
        """One central-difference identification unit with one call of
        the model's central-difference kernel: sample j of each nominal
        point t (``states`` (k, n_x), ``controls`` (k, n_u)) steps
        x_t +/- design_x[:, j] under u_t +/- design_u[j], for the node-major
        state design ``design_x`` (n_x, m) and the control design
        ``design_u`` (m, n_u).  Writes the halved differences of the two
        next states into ``out`` (k, n_x, m), a view of any strides, and
        returns -1; or returns the first sample t * m + j, in (timestep,
        sample) order, whose next states are not finite, and leaves
        ``out`` unwritten.  Bit-identical to stepping the 2 k m rows with
        :meth:`step_batch` (:func:`roilqr._kernels.central_numpy`), though
        the C Allen-Cahn kernel steps a unit of one timestep, whose
        nominal holds no -0.0 and whose every sample moves one state
        point, only within the points those moves reach (see
        :mod:`roilqr._kernels`); any other unit it steps whole."""
        return self._central(states, controls, design_x, design_u, out,
                             *self._params)


class BurgersModel(_Model):
    """du/dt + u du/dx = nu d2u/dx2 on a 1-D grid, boundaries pinned to
    the two control values each substep."""

    n_u = 2

    def __init__(self, grid, params):
        if grid.ndim != 1:
            raise ValueError("Burgers model needs a 1-D grid")
        limit = 0.2 * grid.dx**2 / params.nu
        if params.dt > limit:
            raise StabilityError(
                f"dt={params.dt:g} violates diffusive bound {limit:g} "
                f"(0.2*dx^2/nu)"
            )
        self.grid = grid
        self.params = params

    @property
    def _kernel(self):
        return _kernels.burgers_batch

    @property
    def _central(self):
        return _kernels.burgers_central

    @property
    def _params(self):
        p = self.params
        return p.nu, self.grid.dx, p.dt, p.substeps


def mask_from_goal(goal):
    """Label grid points by the sign of the target order parameter."""
    mask = np.where(np.asarray(goal) >= 0.0, 1, -1).astype(np.int8)
    return mask


class _PhaseFieldModel(_Model):
    n_u = 4

    def __init__(self, grid, params, mask):
        if grid.ndim != 2:
            raise ValueError(f"{type(self).__name__} needs a 2-D grid")
        mask = np.asarray(mask).ravel()
        if mask.shape[0] != grid.n_x:
            raise ValueError("mask must label every grid point")
        if not np.all(np.isin(mask, (-1, 1))):
            raise ValueError("mask entries must be +1 or -1")
        self.grid = grid
        self.params = params
        self.mask = mask.astype(np.int8)
        self.gamma = params.gamma if params.gamma is not None else 0.5 * grid.dx**2
        self._check_stability()

    @property
    def _params(self):
        # the kernels route (temp+, h+, temp-, h-) by the mask labels
        p = self.params
        return (self.mask, p.mobility, self.gamma, self.grid.dx, p.dt,
                p.substeps, self.grid.points)


class AllenCahnModel(_PhaseFieldModel):
    """dphi/dt = -M (dF/dphi - gamma lap(phi)), periodic 2-D grid."""

    def _check_stability(self):
        p = self.params
        limit = 0.2 * self.grid.dx**2 / (p.mobility * self.gamma)
        if p.dt > limit:
            raise StabilityError(
                f"dt={p.dt:g} violates diffusive bound {limit:g} "
                f"(0.2*dx^2/(M*gamma))"
            )

    @property
    def _kernel(self):
        return _kernels.allen_cahn_batch

    @property
    def _central(self):
        return _kernels.allen_cahn_central


class CahnHilliardModel(_PhaseFieldModel):
    """dphi/dt = div(M grad(dF/dphi - gamma lap(phi))); conserves the
    order-parameter sum exactly on the periodic grid."""

    def _check_stability(self):
        p = self.params
        limit = 0.05 * self.grid.dx**4 / (p.mobility * self.gamma)
        if p.dt > limit:
            raise StabilityError(
                f"dt={p.dt:g} violates fourth-order bound {limit:g} "
                f"(0.05*dx^4/(M*gamma))"
            )

    @property
    def _kernel(self):
        return _kernels.cahn_hilliard_batch

    @property
    def _central(self):
        return _kernels.cahn_hilliard_central


def rollout(model, x0, controls):
    """Propagate ``x0`` through ``model`` under the control sequence.

    Raises :class:`DivergenceError` naming the offending timestep if any
    step produces non-finite values.
    """
    controls = np.asarray(controls, dtype=np.float64)
    if controls.ndim == 1:
        controls = controls.reshape(-1, model.n_u)
    horizon = controls.shape[0]
    states = np.empty((horizon + 1, model.n_x))
    states[0] = np.asarray(x0, dtype=np.float64)
    x = states[0]
    for t in range(horizon):
        x = model.step_batch(x[None, :], controls[t][None, :])[0]
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"rollout diverged at timestep {t}", timestep=t
            )
        states[t + 1] = x
    if horizon == 0:
        controls = np.zeros((0, model.n_u))
    return Trajectory(states=states, controls=controls.copy())
