"""Data-driven linear time-varying model identification.

Around a nominal trajectory, each timestep's local linear map is fitted
in closed form from d + n_u central-difference samples along the
coordinate directions: simulator queries at symmetrically perturbed
(state, control) pairs about the nominal point.  Sample i < d moves
state coordinate i by +/- s_x, and sample d + j moves control j by
+/- s_u, so each timestep's fit is exactly determined by its own
samples and is a column scaling of their central differences.  The
scales follow from the nominal (:func:`perturbation_scales`); nothing
configures them.  When a reduced basis is supplied, the state
coordinates are the reduced ones: sample i moves the state along mode
i, and next-step deviations are projected back, so d is the mode count
l instead of n_x.

The experiments sit around a nominal trajectory known in advance, so
those of consecutive timesteps are independent.  They are stepped in
units of at most :data:`roilqr.pde.MAX_CHUNK_CELLS` cells, cut by one
rule (:func:`roilqr.pde.aligned_runs`) into runs of whole timesteps.
Only full order, where a timestep holds 2 (n_x + n_u) rows of n_x
cells, cuts a timestep that does not fit into runs of consecutive
samples; a reduced timestep of 2 (l + n_u) rows is stepped whole even
where it exceeds the cap, so each is projected in one product.  Each
unit is one call of the model's ``central``, the central-difference
kernel of its PDE: from the unit's nominal points and its own design,
node-major, the kernel builds the + and - rows, steps them, checks them
for divergence and writes the halved differences.  At full order it
writes them straight into the (T, d, d + n_u) outputs; a reduced unit
writes them into a buffer of its timesteps' (n_s, n_x) differences,
which are then projected.  A
full-order state sample moves one state point, so the C Allen-Cahn
kernel steps a unit of state samples of one timestep only within the
points their moves reach in one control step, and the unit's nominal row
everywhere else, if that nominal holds no -0.0; a unit that holds a
control sample or several timesteps it steps as whole rows.  So besides
the outputs an identification holds one unit's design and the kernel's
workspace, never a whole full-order timestep's queries or the dense
(n_x + n_u, n_x) design.  The fit overwrites the outputs buffer with
the model, so an identification holds one (T, d, d + n_u) array, not
two.

The fitted :class:`LtvModel` owns its A: it builds the sensitivity maps
F_{t+1} = [A_t F_t | B_t] and the products A_t^T X and X^T A_t that the
backward pass and the stacked quadratic read, and nothing outside this
module reads A.
"""

from dataclasses import dataclass

import numpy as np

from .pde import DivergenceError, aligned_runs


def perturbation_scales(nominal):
    """Return the (state, control) perturbation scales (s_x, s_u): 1% of
    the nominal's state and control magnitudes, floored at 1e-2 so zero
    initial guesses still produce excitation."""
    s_x = 1e-2 * max(1.0, float(np.max(np.abs(nominal.states))))
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
    """Per-timestep linear maps A (T, d, d) and B (T, d, n_u).

    The model owns every read of A: its readers take the sensitivity maps
    (:meth:`sensitivity_maps`) and the products A_t^T X and X^T A_t from
    it, and B, the dims and these three methods are all they read.  How A
    is stored (here a view of the fit's output) is this module's alone.
    """

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

    def sensitivity_maps(self):
        """The T + 1 sensitivity maps F_t, each (d, t n_u), mapping the
        controls u_0..u_{t-1} to the state z_t they drive the model to:
        F_0 is empty and F_{t+1} = [A_t F_t | B_t]."""
        maps = [np.empty((self.dim, 0))]
        for a_t, b_t in zip(self.A, self.B):
            maps.append(np.hstack((a_t @ maps[-1], b_t)))
        return maps

    def a_transpose_times(self, t, x):
        """A_t^T x for a (d,) or (d, k) ``x``."""
        return self.A[t].T @ x

    def transpose_times_a(self, t, x):
        """x^T A_t for a (d, k) ``x``."""
        return x.T @ self.A[t]


def generate_rollout_data(model, nominal, basis=None, *, scales=None,
                          checkpoint=None):
    """Run the perturbation experiments and assemble regression matrices.

    About every timestep's nominal, sample i < d queries the state moved
    by +/- s_x e_i (+/- s_x phi_i if a basis is given) and sample d + j
    the control moved by +/- s_u e_j; half the difference of the two
    next states (projected if a basis is given) is recorded.  The scales
    are :func:`perturbation_scales` of the nominal; ``scales=(s_x, s_u)``
    replaces them where a test must choose the step.  The queries
    are stepped in units of at most :data:`roilqr.pde.MAX_CHUNK_CELLS`
    cells: runs of whole timesteps, and only at full order, where one
    timestep's queries do not fit, consecutive sample ranges of one
    timestep (see :func:`_units`).  Each unit is one call of
    ``model.central`` (the PDE models' central-difference kernel); a
    horizon of 0 makes no call.
    ``checkpoint``, if given, is called before every simulator call
    after the first, so also between the units of one full-order
    timestep, and may raise to abandon the identification.  Raises
    :class:`DivergenceError` naming the earliest diverged timestep and
    its first diverged sample.
    """
    dim = basis.n_modes if basis is not None else model.n_x
    n_x, n_u = model.n_x, model.n_u
    n_s = dim + n_u
    s_x, s_u = scales or perturbation_scales(nominal)

    outputs = np.empty((nominal.horizon, dim, n_s))
    units = _units(nominal.horizon, n_s, n_x, cut=basis is None)
    widest = max((b - a for _, _, a, b in units), default=0)
    # the units' designs, flat: zero but where the last unit moved
    dx_buf = np.zeros(n_x * widest)
    du_buf = np.zeros(widest * n_u)
    moved = []
    if basis is not None:
        # a reduced unit's differences, (timesteps, samples, n_x), before
        # they are projected
        longest = max((hi - lo for lo, hi, _, _ in units), default=0)
        dy_buf = np.empty(longest * n_s * n_x)

    def design(a, b):
        # the design of samples a..b-1, the state moves node-major: s_x
        # times a state coordinate (mode) or s_u times a control
        # coordinate, zero elsewhere.  The last unit's moves are cleared
        # and the unit's own set: at full order two diagonals, state sample
        # a + j at dx[a + j, j] and control sample c + j at
        # du[c - a + j, c - dim + j]; reduced units share one design.
        w = b - a
        c = max(a, dim)   # the first control sample
        n_state = max(0, min(b, dim) - a)
        for diagonal in moved:
            diagonal[...] = 0.0
        dx = dx_buf[:n_x * w].reshape(n_x, w)
        if basis is None:
            moved[:] = [dx_buf[a * w::w + 1][:n_state]]
            moved[0][...] = s_x
        else:
            moved.clear()
            np.multiply(s_x, basis.phi[:, a:a + n_state], out=dx[:, :n_state])
        moved.append(du_buf[(c - a) * n_u + c - dim::n_u + 1][:max(0, b - c)])
        moved[-1][...] = s_u
        return dx, du_buf[:w * n_u].reshape(w, n_u)

    for lo, hi, a, b in units:
        if checkpoint is not None and (lo, a) != (0, 0):
            checkpoint()
        if basis is None:
            out = outputs[lo:hi, :, a:b]
        else:
            dy = dy_buf[:(hi - lo) * n_s * n_x].reshape(hi - lo, n_s, n_x)
            out = dy.transpose(0, 2, 1)
        bad = model.central(nominal.states[lo:hi], nominal.controls[lo:hi],
                            *design(a, b), out)
        if bad >= 0:
            # the first sample, in (timestep, sample) order, of which
            # either side diverged
            k, r = divmod(bad, b - a)
            raise DivergenceError(
                f"perturbation rollout {a + r} diverged at timestep {lo + k}",
                timestep=lo + k, rollout=a + r,
            )
        if basis is not None:
            # a reduced unit holds whole timesteps
            outputs[lo:hi] = (dy @ basis.phi).transpose(0, 2, 1)
    return RegressionData(scale=np.repeat([s_x, s_u], [dim, n_u]),
                          outputs=outputs)


def _units(horizon, n_s, n_x, cut):
    """``(lo, hi, a, b)`` experiment units, in (timestep, sample) order:
    samples a..b-1 of timesteps lo..hi-1, all cut by
    :func:`roilqr.pde.aligned_runs` into equal runs and a shorter last
    one.  Units are runs of whole timesteps of at most
    :data:`roilqr.pde.MAX_CHUNK_CELLS` cells, or one timestep where a
    timestep's 2 n_s rows exceed them.  Only if ``cut`` (full order) is
    such a timestep cut into runs of samples that fit.  Either way the
    equal runs hold a multiple of 8 rows, or as many items as fit if
    fewer do."""
    spans = aligned_runs(n_s, 2, n_x) if cut else [(0, n_s)]
    if len(spans) == 1:
        return [(lo, hi, 0, n_s)
                for lo, hi in aligned_runs(horizon, 2 * n_s, n_x)]
    return [(t, t + 1, a, b) for t in range(horizon) for a, b in spans]


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
