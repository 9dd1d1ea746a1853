"""Batched explicit finite-difference step kernels.

These inner loops dominate runtime (system identification evaluates
thousands of one-step perturbations per solver iteration), so each kernel
has a numba-compiled loop version and a vectorized numpy version.  The
active path is chosen at import time: numba is used when importable (the
optional ``numba`` extra) unless the environment variable
``ROILQR_PURE_NUMPY=1`` is set.  Without numba the loop versions stay
importable as plain Python, the oracle the numpy kernels are tested
against.

All kernels take a batch of flattened float64 state rows ``(B, n)`` and
return a new array; inputs are never mutated.  2-D fields are stored
row-major with periodic boundaries.
"""

import os

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra
    numba = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("ROILQR_PURE_NUMPY", "0").lower() not in (
    "1",
    "true",
    "yes",
)


def _njit(fn):
    if HAVE_NUMBA:
        return numba.njit(fn, cache=True)
    return fn


# ---------------------------------------------------------------------------
# 1-D viscous Burgers, Dirichlet boundary actuation.
# du/dt + u du/dx = nu d2u/dx2; boundary nodes overwritten each substep.
# ---------------------------------------------------------------------------


def burgers_batch_numpy(u, left, right, nu, dx, dt, nsub):
    # Node-major layout (n, B): each stencil slice is one contiguous block.
    # The elementary operations and their order are those of the row-wise
    # expression  uc - c_adv*uc*(up - um) + c_dif*(up - 2.0*uc + um),
    # so the result is bit-identical to it.
    nb, n = u.shape
    c_adv = dt / (2.0 * dx)
    c_dif = nu * dt / (dx * dx)
    cur = np.empty((n, nb))
    cur[...] = u.T   # a copy even for one row, where u.T is contiguous
    cur[0] = left
    cur[-1] = right
    nxt = cur.copy()
    s1 = np.empty((n - 2, nb))
    s2 = np.empty((n - 2, nb))
    # divergence shows up as inf/nan and is detected by the callers'
    # finiteness checks; don't warn mid-blowup
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsub):
            um = cur[:-2]
            uc = cur[1:-1]
            up = cur[2:]
            np.multiply(c_adv, uc, out=s1)
            np.subtract(up, um, out=s2)
            np.multiply(s1, s2, out=s1)
            np.subtract(uc, s1, out=s1)
            np.multiply(2.0, uc, out=s2)
            np.subtract(up, s2, out=s2)
            np.add(s2, um, out=s2)
            np.multiply(c_dif, s2, out=s2)
            np.add(s1, s2, out=nxt[1:-1])
            cur, nxt = nxt, cur
    return np.ascontiguousarray(cur.T)


def _burgers_batch_loops(u, left, right, nu, dx, dt, nsub):
    nb, n = u.shape
    out = u.copy()
    buf = np.empty(n)
    c_adv = dt / (2.0 * dx)
    c_dif = nu * dt / (dx * dx)
    for b in range(nb):
        row = out[b]
        row[0] = left[b]
        row[n - 1] = right[b]
        for _ in range(nsub):
            for i in range(1, n - 1):
                buf[i] = (
                    row[i]
                    - c_adv * row[i] * (row[i + 1] - row[i - 1])
                    + c_dif * (row[i + 1] - 2.0 * row[i] + row[i - 1])
                )
            for i in range(1, n - 1):
                row[i] = buf[i]
    return out


burgers_batch_numba = _njit(_burgers_batch_loops)


# ---------------------------------------------------------------------------
# 2-D phase-field steppers, periodic boundaries.
# Bulk driving term dF/dphi = 4 phi^3 + 2*temp*phi + h with per-point
# (temp, h) fields routed from the control channels by the caller.
# ---------------------------------------------------------------------------


def _lap2_numpy(a, dx):
    return (
        np.roll(a, 1, axis=1)
        + np.roll(a, -1, axis=1)
        + np.roll(a, 1, axis=2)
        + np.roll(a, -1, axis=2)
        - 4.0 * a
    ) / (dx * dx)


def allen_cahn_batch_numpy(phi, temp, h, mob, gamma, dx, dt, nsub, npts):
    nb = phi.shape[0]
    f = phi.reshape(nb, npts, npts).copy()
    tf = temp.reshape(nb, npts, npts)
    hf = h.reshape(nb, npts, npts)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsub):
            bulk = 4.0 * f * f * f + 2.0 * tf * f + hf
            f = f - dt * mob * (bulk - gamma * _lap2_numpy(f, dx))
    return f.reshape(nb, npts * npts)


def _allen_cahn_loops(phi, temp, h, mob, gamma, dx, dt, nsub, npts):
    nb, n = phi.shape
    out = phi.copy()
    buf = np.empty(n)
    inv_dx2 = 1.0 / (dx * dx)
    for b in range(nb):
        f = out[b]
        tf = temp[b]
        hf = h[b]
        for _ in range(nsub):
            for j in range(npts):
                jm = j - 1 if j > 0 else npts - 1
                jp = j + 1 if j < npts - 1 else 0
                for i in range(npts):
                    im = i - 1 if i > 0 else npts - 1
                    ip = i + 1 if i < npts - 1 else 0
                    c = j * npts + i
                    v = f[c]
                    lap = (
                        f[jm * npts + i]
                        + f[jp * npts + i]
                        + f[j * npts + im]
                        + f[j * npts + ip]
                        - 4.0 * v
                    ) * inv_dx2
                    bulk = 4.0 * v * v * v + 2.0 * tf[c] * v + hf[c]
                    buf[c] = v - dt * mob * (bulk - gamma * lap)
            f[:] = buf
    return out


allen_cahn_batch_numba = _njit(_allen_cahn_loops)


def cahn_hilliard_batch_numpy(phi, temp, h, mob, gamma, dx, dt, nsub, npts):
    nb = phi.shape[0]
    f = phi.reshape(nb, npts, npts).copy()
    tf = temp.reshape(nb, npts, npts)
    hf = h.reshape(nb, npts, npts)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsub):
            mu = 4.0 * f * f * f + 2.0 * tf * f + hf \
                - gamma * _lap2_numpy(f, dx)
            f = f + dt * mob * _lap2_numpy(mu, dx)
    return f.reshape(nb, npts * npts)


def _cahn_hilliard_loops(phi, temp, h, mob, gamma, dx, dt, nsub, npts):
    nb, n = phi.shape
    out = phi.copy()
    mu = np.empty(n)
    buf = np.empty(n)
    inv_dx2 = 1.0 / (dx * dx)
    for b in range(nb):
        f = out[b]
        tf = temp[b]
        hf = h[b]
        for _ in range(nsub):
            for j in range(npts):
                jm = j - 1 if j > 0 else npts - 1
                jp = j + 1 if j < npts - 1 else 0
                for i in range(npts):
                    im = i - 1 if i > 0 else npts - 1
                    ip = i + 1 if i < npts - 1 else 0
                    c = j * npts + i
                    v = f[c]
                    lap = (
                        f[jm * npts + i]
                        + f[jp * npts + i]
                        + f[j * npts + im]
                        + f[j * npts + ip]
                        - 4.0 * v
                    ) * inv_dx2
                    mu[c] = 4.0 * v * v * v + 2.0 * tf[c] * v + hf[c] - gamma * lap
            for j in range(npts):
                jm = j - 1 if j > 0 else npts - 1
                jp = j + 1 if j < npts - 1 else 0
                for i in range(npts):
                    im = i - 1 if i > 0 else npts - 1
                    ip = i + 1 if i < npts - 1 else 0
                    c = j * npts + i
                    lap_mu = (
                        mu[jm * npts + i]
                        + mu[jp * npts + i]
                        + mu[j * npts + im]
                        + mu[j * npts + ip]
                        - 4.0 * mu[c]
                    ) * inv_dx2
                    buf[c] = f[c] + dt * mob * lap_mu
            f[:] = buf
    return out


cahn_hilliard_batch_numba = _njit(_cahn_hilliard_loops)


if USE_NUMBA:
    burgers_batch = burgers_batch_numba
    allen_cahn_batch = allen_cahn_batch_numba
    cahn_hilliard_batch = cahn_hilliard_batch_numba
else:
    burgers_batch = burgers_batch_numpy
    allen_cahn_batch = allen_cahn_batch_numpy
    cahn_hilliard_batch = cahn_hilliard_batch_numpy
