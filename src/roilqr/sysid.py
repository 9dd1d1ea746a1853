"""Data-driven linear time-varying model identification.

Around a nominal trajectory, each timestep's local linear map is fitted
by least squares on central-difference samples: simulator queries at
symmetrically perturbed (state, control) pairs about the nominal point.
When a reduced basis is supplied, state perturbations are drawn in the
reduced coordinates and lifted, and next-step deviations are projected
back, so the fit needs only O(l + n_u) samples per timestep instead of
O(n_x + n_u).
"""

from dataclasses import dataclass

import numpy as np

from .pde import DivergenceError


class RankDeficientError(RuntimeError):
    """Per-timestep regression data are too ill-conditioned to fit."""


@dataclass(frozen=True)
class PerturbationConfig:
    """Sampling plan for the one-step perturbation experiments.

    ``None`` fields resolve against the nominal trajectory: sample count
    defaults to 2*(d + n_u) for conditioning headroom, perturbation
    scales to 1% of the nominal magnitude (floored at 1e-2 so zero
    initial guesses still produce excitation).
    """

    n_rollouts: int | None = None
    sigma_x: float | None = None
    sigma_u: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_rollouts is not None and self.n_rollouts < 1:
            raise ValueError("n_rollouts must be >= 1")
        for name in ("sigma_x", "sigma_u"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive")

    def resolved(self, dim, n_u, nominal):
        n_r = self.n_rollouts if self.n_rollouts is not None else 2 * (dim + n_u)
        if n_r < dim + n_u + 1:   # d is the basis size, known at run time
            raise RankDeficientError(
                f"n_rollouts={n_r} below identifiability floor "
                f"{dim + n_u + 1} (d + n_u + 1)"
            )
        s_x = self.sigma_x
        if s_x is None:
            s_x = 1e-2 * max(1.0, float(np.max(np.abs(nominal.states))))
        s_u = self.sigma_u
        if s_u is None:
            s_u = 1e-2 * max(1.0, float(np.max(np.abs(nominal.controls)))
                             if nominal.controls.size else 1.0)
        return n_r, s_x, s_u


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


def generate_rollout_data(model, nominal, basis=None, cfg=None):
    """Run the perturbation experiments and assemble regression matrices.

    For every timestep t, draws ``N`` zero-mean Gaussian perturbations of
    the (reduced) state and control, queries the simulator at the +/-
    perturbed points, and records the central difference of the next
    state (projected if a basis is given).  Deterministic for a fixed
    seed.
    """
    cfg = cfg or PerturbationConfig()
    dim = basis.n_modes if basis is not None else model.n_x
    n_u = model.n_u
    horizon = nominal.horizon
    n_r, s_x, s_u = cfg.resolved(dim, n_u, nominal)
    rng = np.random.default_rng(cfg.seed)

    inputs = np.empty((horizon, dim + n_u, n_r))
    outputs = np.empty((horizon, dim, n_r))
    # rows [:n_r] are the + samples, rows [n_r:] the - samples; one
    # simulator call per timestep steps both
    x_pm = np.empty((2 * n_r, model.n_x))
    u_pm = np.empty((2 * n_r, n_u))
    for t in range(horizon):
        dz = s_x * rng.standard_normal((n_r, dim))
        du = s_u * rng.standard_normal((n_r, n_u))
        dx = dz @ basis.phi.T if basis is not None else dz
        np.add(nominal.states[t], dx, out=x_pm[:n_r])
        np.subtract(nominal.states[t], dx, out=x_pm[n_r:])
        np.add(nominal.controls[t], du, out=u_pm[:n_r])
        np.subtract(nominal.controls[t], du, out=u_pm[n_r:])
        f_pm = model.step_batch(x_pm, u_pm)
        finite = np.all(np.isfinite(f_pm), axis=1)
        bad = ~(finite[:n_r] & finite[n_r:])
        if np.any(bad):
            r = int(np.nonzero(bad)[0][0])
            raise DivergenceError(
                f"perturbation rollout {r} diverged at timestep {t}",
                timestep=t, rollout=r,
            )
        dy = 0.5 * (f_pm[:n_r] - f_pm[n_r:])
        del f_pm   # not alive during the next timestep's simulator call
        if basis is not None:
            dy = dy @ basis.phi
        inputs[t, :dim, :] = dz.T
        inputs[t, dim:, :] = du.T
        outputs[t] = dy.T
    return RegressionData(inputs=inputs, outputs=outputs, n_u=n_u)


def fit_ltv(data, cond_limit=1e10):
    """Least-squares fit [A_t | B_t] = Y X^T (X X^T)^{-1} per timestep.

    Solved through an orthogonal factorization of X^T (equivalent to the
    normal equations at full rank).  Raises :class:`RankDeficientError`
    instead of falling back to a pseudo-inverse when X X^T is too ill
    conditioned.
    """
    horizon, p, _ = data.inputs.shape
    dim = data.dim
    a_all = np.empty((horizon, dim, dim))
    b_all = np.empty((horizon, dim, data.n_u))
    for t in range(horizon):
        x = data.inputs[t]
        gram = x @ x.T
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > cond_limit:
            raise RankDeficientError(
                f"timestep {t}: X X^T condition {cond:.3g} exceeds "
                f"{cond_limit:g}; use more rollouts or a larger "
                f"perturbation std"
            )
        theta, *_ = np.linalg.lstsq(x.T, data.outputs[t].T, rcond=None)
        theta = theta.T
        a_all[t] = theta[:, :dim]
        b_all[t] = theta[:, dim:]
    return LtvModel(A=a_all, B=b_all)
