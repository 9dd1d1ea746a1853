"""Data-driven linear time-varying model identification.

Around a nominal trajectory, each timestep's local linear map is fitted
in closed form from d + n_u central-difference samples along a random
orthogonal design: simulator queries at symmetrically perturbed
(state, control) pairs about the nominal point.  When a reduced basis is
supplied, state perturbations are drawn in the reduced coordinates and
lifted, and next-step deviations are projected back, so d is the mode
count l instead of n_x.

The experiments sit around a nominal trajectory known in advance, so
those of consecutive timesteps are independent and are stepped together:
one simulator call per group of timesteps, each group holding at most
:data:`roilqr.pde.MAX_CHUNK_CELLS` cells unless one timestep alone is
larger.
"""

from dataclasses import dataclass

import numpy as np

from .pde import DivergenceError, balanced_runs


@dataclass(frozen=True)
class PerturbationConfig:
    """Perturbation scales and seed for the one-step experiments.

    ``None`` scales resolve against the nominal trajectory: 1% of the
    nominal magnitude, floored at 1e-2 so zero initial guesses still
    produce excitation.  The sample count is not a setting: every
    timestep uses the d + n_u columns of one orthogonal design.
    """

    sigma_x: float | None = None
    sigma_u: float | None = None
    seed: int = 0

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
    """Stacked per-timestep samples: inputs (T, d+n_u, N), outputs (T, d, N)."""

    inputs: np.ndarray
    outputs: np.ndarray
    n_u: int

    @property
    def dim(self):
        return self.outputs.shape[1]

    @property
    def n_samples(self):
        return self.inputs.shape[2]


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


def generate_rollout_data(model, nominal, basis=None, cfg=None):
    """Run the perturbation experiments and assemble regression matrices.

    For every timestep t, draws one orthogonal design over the
    p = d + n_u (reduced) state and control coordinates, with row scales
    sqrt(p)*s_x and sqrt(p)*s_u (each coordinate's RMS perturbation is
    s_x or s_u).  Each of its p columns is queried at the +/- perturbed
    points, and the central difference of the next state (projected if a
    basis is given) is recorded.  The queries of consecutive timesteps
    share one simulator call, in balanced groups of at most
    :data:`roilqr.pde.MAX_CHUNK_CELLS` cells (one timestep if a single
    timestep is larger); every other operation is per timestep, so the
    data are bit-identical to one call per timestep.  Raises
    :class:`DivergenceError` naming the earliest diverged timestep and
    its first diverged sample.  Deterministic for a fixed seed.
    """
    cfg = cfg or PerturbationConfig()
    dim = basis.n_modes if basis is not None else model.n_x
    n_u = model.n_u
    n_s = dim + n_u
    horizon = nominal.horizon
    s_x, s_u = cfg.resolved(nominal)
    scale = np.sqrt(n_s) * np.repeat([s_x, s_u], [dim, n_u])
    rng = np.random.default_rng(cfg.seed)

    inputs = np.empty((horizon, n_s, n_s))
    outputs = np.empty((horizon, dim, n_s))
    groups = balanced_runs(horizon, 2 * n_s * model.n_x)
    longest = max((hi - lo for lo, hi in groups), default=0)
    # timestep k of a group fills rows [2*n_s*k, 2*n_s*(k+1)): its n_s +
    # samples, then its n_s - samples
    x_pm = np.empty((longest * 2 * n_s, model.n_x))
    u_pm = np.empty((longest * 2 * n_s, n_u))
    for lo, hi in groups:
        rows = (hi - lo) * 2 * n_s
        x_grp = x_pm[:rows].reshape(hi - lo, 2, n_s, model.n_x)
        u_grp = u_pm[:rows].reshape(hi - lo, 2, n_s, n_u)
        for t in range(lo, hi):
            inputs[t] = orthogonal_design(rng, scale)
            dz = inputs[t, :dim].T
            du = inputs[t, dim:].T
            dx = dz @ basis.phi.T if basis is not None else dz
            x_t, u_t = x_grp[t - lo], u_grp[t - lo]
            np.add(nominal.states[t], dx, out=x_t[0])
            np.subtract(nominal.states[t], dx, out=x_t[1])
            np.add(nominal.controls[t], du, out=u_t[0])
            np.subtract(nominal.controls[t], du, out=u_t[1])
        f_grp = model.step_batch(x_pm[:rows], u_pm[:rows]) \
            .reshape(hi - lo, 2, n_s, model.n_x)
        for t in range(lo, hi):
            f_plus, f_minus = f_grp[t - lo]
            bad = ~(np.all(np.isfinite(f_plus), axis=1)
                    & np.all(np.isfinite(f_minus), axis=1))
            if np.any(bad):
                r = int(np.nonzero(bad)[0][0])
                raise DivergenceError(
                    f"perturbation rollout {r} diverged at timestep {t}",
                    timestep=t, rollout=r,
                )
            dy = 0.5 * (f_plus - f_minus)
            if basis is not None:
                dy = dy @ basis.phi
            outputs[t] = dy.T
        del f_grp   # not alive during the next group's simulator call
    return RegressionData(inputs=inputs, outputs=outputs, n_u=n_u)


def fit_ltv(data):
    """Fit [A_t | B_t] = Y X^T (X X^T)^{-1} per timestep in closed form.

    The inputs X of :func:`generate_rollout_data` have orthogonal rows,
    so X X^T is diagonal and the fit is the product Y X^T divided
    column-wise by the squared row norms of X.
    """
    x = data.inputs
    theta = (data.outputs @ x.transpose(0, 2, 1)) \
        / np.einsum("tpn,tpn->tp", x, x)[:, None, :]
    return LtvModel(A=theta[:, :, :data.dim], B=theta[:, :, data.dim:])
