"""Discrete-time forward models for the benchmark PDEs.

Three explicit second-order central-difference schemes:

* 1-D viscous Burgers with Dirichlet boundary actuation (two controls:
  the boundary values, i.e. blowing/suction),
* 2-D Allen-Cahn (non-conserved order parameter),
* 2-D Cahn-Hilliard (conserved order parameter),

each advanced one "control step" = ``substeps`` explicit solver substeps
per call.  The phase-field models take four controls ``(temp+, h+, temp-,
h-)``: every grid point is labeled +1 or -1 by a target mask and receives
the (temp, h) pair of its label.  Bulk energy density: phi^4 + temp*phi^2
+ h*phi.

``step_batch`` and :func:`rollout` are pure; models validate an
explicit-scheme stability bound at construction, and :func:`rollout`
raises :class:`DivergenceError` when a trajectory blows up anyway (e.g.
advection-dominated regimes).
"""

from dataclasses import dataclass

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


# Largest batch, in cells (rows x n_x), handed to one kernel call.  Larger
# batches are stepped in equal row chunks, so stacking more samples into
# one step_batch call never grows the kernels' temporaries or the control
# routing arrays beyond this size.
MAX_CHUNK_CELLS = 40_000


def _step_in_chunks(kernel, states, controls, kernel_args):
    """``kernel(states, *kernel_args(controls))`` in the fewest row chunks
    of at most :data:`MAX_CHUNK_CELLS` cells, their sizes differing by at
    most one row, written into one output array.  Rows are independent, so
    the result equals one call on the whole batch."""
    nb, n = states.shape
    cap = max(1, MAX_CHUNK_CELLS // n)
    if nb <= cap:
        return kernel(states, *kernel_args(controls))
    chunks = -(-nb // cap)
    bounds = [i * nb // chunks for i in range(chunks + 1)]
    out = np.empty_like(states)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[lo:hi] = kernel(states[lo:hi], *kernel_args(controls[lo:hi]))
    return out


def _as_batch(x, n, what="state"):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != n:
        raise ValueError(f"{what} length {x.shape[1]} != expected {n}")
    return x


class BurgersModel:
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
    def n_x(self):
        return self.grid.n_x

    def step_batch(self, states, controls):
        states = _as_batch(states, self.n_x)
        controls = _as_batch(controls, self.n_u, "control")
        return _step_in_chunks(_kernels.burgers_batch, states, controls,
                               self._kernel_args)

    def _kernel_args(self, controls):
        p = self.params
        return (np.ascontiguousarray(controls[:, 0]),
                np.ascontiguousarray(controls[:, 1]),
                p.nu, self.grid.dx, p.dt, p.substeps)


def mask_from_goal(goal):
    """Label grid points by the sign of the target order parameter."""
    mask = np.where(np.asarray(goal) >= 0.0, 1, -1).astype(np.int8)
    return mask


class _PhaseFieldModel:
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
    def n_x(self):
        return self.grid.n_x

    def _kernel_args(self, controls):
        # (temp+, h+, temp-, h-) -> per-point fields by mask label
        p = self.params
        plus = self.mask > 0
        temp = np.where(plus[None, :], controls[:, 0:1], controls[:, 2:3])
        h = np.where(plus[None, :], controls[:, 1:2], controls[:, 3:4])
        return (np.ascontiguousarray(temp), np.ascontiguousarray(h),
                p.mobility, self.gamma, self.grid.dx, p.dt, p.substeps,
                self.grid.points)

    def step_batch(self, states, controls):
        states = _as_batch(states, self.n_x)
        controls = _as_batch(controls, self.n_u, "control")
        return _step_in_chunks(self._kernel, states, controls,
                               self._kernel_args)


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
