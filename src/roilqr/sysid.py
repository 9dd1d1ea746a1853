"""Data-driven linear time-varying model identification.

Around a nominal trajectory, each timestep's local linear map is fitted
in closed form from d + n_u central-difference samples along a random
orthogonal design: simulator queries at symmetrically perturbed
(state, control) pairs about the nominal point.  One design is drawn per
identification and shared by every timestep, as coordinate-direction
finite differences would be: each timestep's fit is exactly determined
by its own d + n_u samples, so nothing is gained by a fresh draw per
timestep.  When a reduced basis is supplied, state perturbations are
drawn in the reduced coordinates and lifted, and next-step deviations
are projected back, so d is the mode count l instead of n_x.

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
    timestep uses the d + n_u columns of one orthogonal design.  The
    design's seed is an argument of :func:`generate_rollout_data`.
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
    """One design shared by all timesteps and the per-timestep samples:
    inputs (d+n_u, N) with N = d + n_u, outputs (T, d, N).
    :func:`fit_ltv` overwrites ``outputs`` with the fitted model."""

    inputs: np.ndarray
    outputs: np.ndarray

    @property
    def dim(self):
        return self.outputs.shape[1]

    @property
    def n_samples(self):
        return self.inputs.shape[1]


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


def orthogonal_design(rng, scale):
    """Random design X = diag(scale) Q with Q Haar-orthogonal (p x p).

    Its columns are the samples; its rows are orthogonal, so
    X X^T = diag(scale**2).
    """
    q, r = np.linalg.qr(rng.standard_normal((scale.size, scale.size)))
    return scale[:, None] * (q * np.sign(np.diag(r)))


def generate_rollout_data(model, nominal, basis=None, cfg=None, *, seed,
                          checkpoint=None):
    """Run the perturbation experiments and assemble regression matrices.

    Draws one orthogonal design from ``seed`` over the p = d + n_u
    (reduced) state and control coordinates, with row scales sqrt(p)*s_x
    and sqrt(p)*s_u (each coordinate's RMS perturbation is s_x or s_u),
    and queries each of its p columns at the +/- perturbed points about
    every timestep's nominal; the central difference of the next state
    (projected if a basis is given) is recorded.  The queries of
    consecutive timesteps share one simulator call, in balanced groups of
    at most :data:`roilqr.pde.MAX_CHUNK_CELLS` cells (one timestep if a
    single timestep is larger).  ``checkpoint``, if given, is called
    before every simulator call after the first and may raise to abandon
    the identification.  Raises :class:`DivergenceError` naming the
    earliest diverged timestep and its first diverged sample.
    Deterministic for a fixed seed.
    """
    cfg = cfg or PerturbationConfig()
    dim = basis.n_modes if basis is not None else model.n_x
    n_x, n_u = model.n_x, model.n_u
    n_s = dim + n_u
    horizon = nominal.horizon
    s_x, s_u = cfg.resolved(nominal)
    scale = np.sqrt(n_s) * np.repeat([s_x, s_u], [dim, n_u])
    design = orthogonal_design(np.random.default_rng(seed), scale)
    dz, du = design[:dim].T, design[dim:].T
    # contiguous once: at full order dz is a transposed view, which every
    # group's broadcast +/- would otherwise read strided
    dx = np.ascontiguousarray(dz @ basis.phi.T if basis is not None else dz)

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
    return RegressionData(inputs=design, outputs=outputs)


def fit_ltv(data):
    """Fit [A_t | B_t] = Y_t X^T (X X^T)^{-1} for every timestep in closed
    form, in place: the fit consumes its data.

    The design X of :func:`generate_rollout_data` has orthogonal rows and
    is shared by all timesteps, so (X X^T)^{-1} is the reciprocal of its
    squared row norms and each timestep's fit is one product of its
    outputs with X^T scaled column-wise.  Each product goes through one
    (d, d + n_u) scratch back into ``data.outputs``, and the returned A
    and B are views of it.
    """
    x = data.inputs
    theta = data.outputs
    weights = x.T / np.sum(x * x, axis=1)
    scratch = np.empty(theta.shape[1:])
    for theta_t in theta:
        np.matmul(theta_t, weights, out=scratch)
        theta_t[...] = scratch
    return LtvModel(A=theta[:, :, :data.dim], B=theta[:, :, data.dim:])
