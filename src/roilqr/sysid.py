"""Data-driven linear time-varying model identification.

Around a nominal trajectory, each timestep's local linear map is fitted
in closed form from d + n_u central-difference samples along the
coordinate directions: simulator queries at symmetrically perturbed
(state, control) pairs about the nominal point.  Sample i < d moves
state coordinate i by +/- s_x, and sample d + j moves control j by
+/- s_u, so each timestep's fit is exactly determined by its own
samples and is a column scaling of their central differences.  When a
reduced basis is supplied, the state coordinates are the reduced ones:
sample i moves the state along mode i, and next-step deviations are
projected back, so d is the mode count l instead of n_x.

The experiments sit around a nominal trajectory known in advance, so
those of consecutive timesteps are independent and are stepped together:
one simulator call per group of timesteps, each group holding at most
:data:`roilqr.pde.MAX_CHUNK_CELLS` cells unless one timestep alone is
larger.  The fit overwrites the outputs buffer with the model, so an
identification holds one (T, d, d + n_u) array, not two.
"""

from dataclasses import dataclass

import numpy as np

from .pde import DivergenceError, balanced_runs


@dataclass(frozen=True)
class PerturbationConfig:
    """Perturbation scales for the one-step experiments.

    ``None`` scales resolve against the nominal trajectory: 1% of the
    nominal magnitude, floored at 1e-2 so zero initial guesses still
    produce excitation.  The sample count is not a setting: every
    timestep perturbs each of its d + n_u coordinates once, by s_x or
    s_u.
    """

    sigma_x: float | None = None
    sigma_u: float | None = None

    def __post_init__(self):
        for name in ("sigma_x", "sigma_u"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive")

    def resolved(self, nominal):
        """Return the (state, control) perturbation scales (s_x, s_u)."""
        s_x = self.sigma_x
        if s_x is None:
            s_x = 1e-2 * max(1.0, float(np.max(np.abs(nominal.states))))
        s_u = self.sigma_u
        if s_u is None:
            s_u = 1e-2 * max(1.0, float(np.max(np.abs(nominal.controls)))
                             if nominal.controls.size else 1.0)
        return s_x, s_u


@dataclass
class RegressionData:
    """The perturbation size of each sample, scale (N,) with N = d + n_u,
    and the per-timestep central differences, outputs (T, d, N).
    :func:`fit_ltv` overwrites ``outputs`` with the fitted model."""

    scale: np.ndarray
    outputs: np.ndarray

    @property
    def dim(self):
        return self.outputs.shape[1]

    @property
    def n_samples(self):
        return self.scale.size


@dataclass(frozen=True)
class LtvModel:
    """Per-timestep linear maps A (T, d, d) and B (T, d, n_u)."""

    A: np.ndarray
    B: np.ndarray

    @property
    def horizon(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.A.shape[1]

    @property
    def n_u(self):
        return self.B.shape[2]


def generate_rollout_data(model, nominal, basis=None, cfg=None, *,
                          checkpoint=None):
    """Run the perturbation experiments and assemble regression matrices.

    About every timestep's nominal, sample i < d queries the state moved
    by +/- s_x e_i (+/- s_x phi_i if a basis is given) and sample d + j
    the control moved by +/- s_u e_j; half the difference of the two
    next states (projected if a basis is given) is recorded.  The queries
    of consecutive timesteps share one simulator call, in balanced groups
    of at most :data:`roilqr.pde.MAX_CHUNK_CELLS` cells (one timestep if a
    single timestep is larger).  ``checkpoint``, if given, is called
    before every simulator call after the first and may raise to abandon
    the identification.  Raises :class:`DivergenceError` naming the
    earliest diverged timestep and its first diverged sample.
    """
    cfg = cfg or PerturbationConfig()
    dim = basis.n_modes if basis is not None else model.n_x
    n_x, n_u = model.n_x, model.n_u
    n_s = dim + n_u
    horizon = nominal.horizon
    s_x, s_u = cfg.resolved(nominal)
    dx = np.zeros((n_s, n_x))
    dx[:dim] = s_x * (basis.phi.T if basis is not None else np.eye(n_x))
    du = np.zeros((n_s, n_u))
    du[dim:] = s_u * np.eye(n_u)

    outputs = np.empty((horizon, dim, n_s))
    groups = balanced_runs(horizon, 2 * n_s * n_x)
    longest = max((hi - lo for lo, hi in groups), default=0)
    # timestep k of a group holds its n_s + samples, then its n_s - samples
    x_pm = np.empty((longest, 2, n_s, n_x))
    u_pm = np.empty((longest, 2, n_s, n_u))
    for lo, hi in groups:
        if checkpoint is not None and lo > 0:
            checkpoint()
        x_grp, u_grp = x_pm[:hi - lo], u_pm[:hi - lo]
        x_nom = nominal.states[lo:hi, None]
        u_nom = nominal.controls[lo:hi, None]
        np.add(x_nom, dx, out=x_grp[:, 0])
        np.subtract(x_nom, dx, out=x_grp[:, 1])
        np.add(u_nom, du, out=u_grp[:, 0])
        np.subtract(u_nom, du, out=u_grp[:, 1])
        f_grp = model.step_batch(x_grp.reshape(-1, n_x),
                                 u_grp.reshape(-1, n_u)) \
            .reshape(hi - lo, 2, n_s, n_x)
        # a sample diverged when either of its sides did; the first in
        # (timestep, sample) order is reported
        bad = ~np.all(np.isfinite(f_grp), axis=(1, 3))
        if np.any(bad):
            k, r = (int(i) for i in np.argwhere(bad)[0])
            raise DivergenceError(
                f"perturbation rollout {r} diverged at timestep {lo + k}",
                timestep=lo + k, rollout=r,
            )
        dy = 0.5 * (f_grp[:, 0] - f_grp[:, 1])
        del f_grp   # not alive during the next group's simulator call
        if basis is not None:
            dy = dy @ basis.phi
        outputs[lo:hi] = dy.transpose(0, 2, 1)
    return RegressionData(scale=np.repeat([s_x, s_u], [dim, n_u]),
                          outputs=outputs)


def fit_ltv(data):
    """Fit [A_t | B_t] = Y_t diag(scale)^{-1} for every timestep in closed
    form, in place: the fit consumes its data.

    Each sample of :func:`generate_rollout_data` moves one coordinate, so
    the least-squares fit of its central differences divides each
    column by its perturbation size.  The returned A and B are views of
    ``data.outputs``.
    """
    theta = data.outputs
    theta /= data.scale
    return LtvModel(A=theta[:, :, :data.dim], B=theta[:, :, data.dim:])
