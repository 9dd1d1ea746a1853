"""Snapshot-based orthogonal basis extraction and projection utilities.

The basis is computed from the small Gram matrix of the snapshot columns
(method of snapshots): eigendecompose X^T X, keep the leading modes whose
cumulative spectral energy reaches the cutoff, and recover the spatial
modes as X V / sqrt(lambda).  This avoids ever forming the n_x-by-n_x
covariance, which is the whole point for tall snapshot matrices
(T+1 << n_x).
"""

from dataclasses import dataclass

import numpy as np


class DegenerateSnapshotsError(ValueError):
    """Snapshot matrix has no usable energy (all columns zero)."""


@dataclass(frozen=True)
class ReducedBasis:
    """Orthonormal modes ``phi`` (n_x, l) with spectral bookkeeping.

    ``eigenvalues`` holds the full kept spectrum of the snapshot Gram
    matrix (descending; equal to squared singular values of the snapshot
    matrix), not just the retained ``l`` leading entries, so truncation
    error sums stay available.
    """

    phi: np.ndarray
    eigenvalues: np.ndarray
    captured_energy: float

    @property
    def n_modes(self):
        return self.phi.shape[1]

    @property
    def n_x(self):
        return self.phi.shape[0]


def _fix_signs(phi):
    # deterministic column signs: largest-magnitude entry positive
    idx = np.argmax(np.abs(phi), axis=0)
    signs = np.sign(phi[idx, np.arange(phi.shape[1])])
    signs[signs == 0] = 1.0
    return phi * signs


def method_of_snapshots(snapshots, energy_cutoff=0.99999, rank_rtol=1e-12):
    """Build a reduced basis from an ``(n_x, m)`` snapshot matrix.

    Retains the smallest mode count whose relative spectral energy
    (cumulative eigenvalue fraction) reaches ``energy_cutoff``.
    Eigenvalues below ``rank_rtol`` times the largest are dropped before
    the energy normalization so the ``1/sqrt(lambda)`` recovery never
    blows up on numerically zero directions.
    """
    x = np.asarray(snapshots, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("snapshots must be a 2-D (n_x, m) matrix")
    n_x, m = x.shape
    if m < 1:
        raise ValueError("need at least one snapshot column")
    if m > n_x:
        raise ValueError(f"snapshot matrix must be tall, got {n_x}x{m}")
    if not 0.0 < energy_cutoff <= 1.0:
        raise ValueError("energy_cutoff must be in (0, 1]")

    gram = x.T @ x
    evals, evecs = np.linalg.eigh(gram)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    evals = np.clip(evals, 0.0, None)
    if evals[0] <= 0.0:
        raise DegenerateSnapshotsError("snapshot matrix has zero energy")

    kept = int(np.count_nonzero(evals >= rank_rtol * evals[0]))
    evals = evals[:kept]
    evecs = evecs[:, :kept]

    energy = np.cumsum(evals) / np.sum(evals)
    threshold = min(energy_cutoff, energy[-1])
    n_modes = int(np.nonzero(energy >= threshold)[0][0]) + 1

    phi = x @ (evecs[:, :n_modes] / np.sqrt(evals[:n_modes]))
    phi = _fix_signs(phi)
    return ReducedBasis(
        phi=phi,
        eigenvalues=evals,
        captured_energy=float(energy[n_modes - 1]),
    )


def project(basis, state):
    """Reduced coordinates of a full state (or column-stacked states)."""
    state = np.asarray(state, dtype=np.float64)
    if state.shape[0] != basis.n_x:
        raise ValueError(
            f"state dimension {state.shape[0]} != basis n_x {basis.n_x}"
        )
    return basis.phi.T @ state


def lift(basis, coords):
    """Full-space reconstruction of reduced coordinates."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] != basis.n_modes:
        raise ValueError(
            f"coordinate dimension {coords.shape[0]} != mode count "
            f"{basis.n_modes}"
        )
    return basis.phi @ coords


def projection_residual(basis, states):
    """Worst-case reconstruction error max_t ||x_t - phi phi^T x_t||_2.

    ``states`` is a ``(m, n_x)`` array of state rows (or a Trajectory).
    """
    if hasattr(states, "states"):
        states = states.states
    x = np.asarray(states, dtype=np.float64).T  # (n_x, m)
    resid = x - basis.phi @ (basis.phi.T @ x)
    return float(np.max(np.linalg.norm(resid, axis=0)))

