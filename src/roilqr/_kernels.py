"""Batched explicit finite-difference step kernels.

These inner loops dominate runtime (system identification evaluates
thousands of one-step perturbations per solver iteration), so each kernel
has a loop version (``_*_loops``) and a vectorized numpy version.  The
active path is chosen at import time: the loop versions compiled with
numba when it is importable (the optional ``numba`` extra), unless the
environment variable ``ROILQR_PURE_NUMPY=1`` is set; otherwise the numpy
versions.  The loop versions themselves stay plain Python, the oracle the
numpy kernels are tested against.

All kernels take a batch of flattened float64 state rows ``(B, n)`` and
return a new array; inputs are never mutated.  2-D fields are stored
row-major with periodic boundaries.

The numpy kernels step the batch node-major (the batch index varies
fastest, so a stencil shift is a contiguous slice) and allocate all
their temporaries once per call, writing each operation into them with
``out=``.  They perform the operations of the plain whole-array
expressions in the same order, so their results are bit-identical to
them.  Those expressions (for the phase-field Laplacian, four periodic
``roll`` shifts) are kept in ``tests/test_kernels.py`` as the reference.
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


# ---------------------------------------------------------------------------
# 2-D phase-field steppers, periodic boundaries.
# Bulk driving term dF/dphi = 4 phi^3 + 2*temp*phi + h with per-point
# (temp, h) fields routed from the control channels by the caller.
# ---------------------------------------------------------------------------


def _node_major(a, nb, npts):
    """Row batch ``(B, npts*npts)`` as an ``(npts, npts, B)`` view."""
    return a.reshape(nb, npts, npts).transpose(1, 2, 0)


def _lap2_into(lap, a, four_a, edge, dx):
    # Periodic 5-point Laplacian of the node-major field ``a`` written into
    # ``lap``, given ``four_a`` = 4.0*a and an ``(npts, B)`` scratch row
    # ``edge``.  It reproduces the row-major expression
    #   (roll(a, 1, 1) + roll(a, -1, 1) + roll(a, 1, 2) + roll(a, -1, 2)
    #    - 4.0*a) / (dx*dx)
    # operation for operation, so the result is bit-identical to it.
    # Neighbours along the first axis are whole contiguous blocks, plus the
    # wrapped first and last block.
    np.add(a[:-2], a[2:], out=lap[1:-1])
    np.add(a[-1], a[1], out=lap[0])
    np.add(a[-2], a[0], out=lap[-1])
    # Along the second axis a neighbour is B entries away in the flat
    # array.  One contiguous add is right everywhere but in the wrapped
    # column, which is summed into ``edge`` first and written back after.
    nb = a.shape[2]
    flat, a_flat = lap.reshape(-1), a.reshape(-1)
    np.add(lap[:, 0], a[:, -1], out=edge)
    np.add(flat[nb:], a_flat[:-nb], out=flat[nb:])
    lap[:, 0] = edge
    np.add(lap[:, -1], a[:, 0], out=edge)
    np.add(flat[:-nb], a_flat[nb:], out=flat[:-nb])
    lap[:, -1] = edge
    np.subtract(lap, four_a, out=lap)
    np.divide(lap, dx * dx, out=lap)


def _phase_field_fields(phi, temp, h, npts):
    # the state as a fresh node-major field, 2.0*temp (the same each
    # substep) and h in the same layout; inputs are only read
    nb = phi.shape[0]
    f = np.empty((npts, npts, nb))
    f[...] = _node_major(phi, nb, npts)
    temp2 = np.empty_like(f)
    np.multiply(2.0, _node_major(temp, nb, npts), out=temp2)
    hf = np.ascontiguousarray(_node_major(h, nb, npts))
    return f, temp2, hf


def _row_major(f):
    npts, _, nb = f.shape
    return np.ascontiguousarray(f.transpose(2, 0, 1)).reshape(nb, npts * npts)


def allen_cahn_batch_numpy(phi, temp, h, mob, gamma, dx, dt, nsub, npts):
    # Node-major (npts, npts, B), every temporary allocated once.  The
    # operations and their order are those of
    #   f - dt*mob*((4.0*f*f*f + 2.0*temp*f + h) - gamma*lap(f)),
    # so the result is bit-identical to it.
    f, temp2, hf = _phase_field_fields(phi, temp, h, npts)
    scratch = np.empty_like(f)
    lap = np.empty_like(f)
    bulk = np.empty_like(f)
    edge = np.empty_like(f[0])
    c = dt * mob
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsub):
            np.multiply(4.0, f, out=scratch)
            _lap2_into(lap, f, scratch, edge, dx)
            np.multiply(scratch, f, out=bulk)
            np.multiply(bulk, f, out=bulk)
            np.multiply(temp2, f, out=scratch)
            np.add(bulk, scratch, out=bulk)
            np.add(bulk, hf, out=bulk)
            np.multiply(gamma, lap, out=lap)
            np.subtract(bulk, lap, out=bulk)
            np.multiply(c, bulk, out=bulk)
            np.subtract(f, bulk, out=f)
    return _row_major(f)


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


def cahn_hilliard_batch_numpy(phi, temp, h, mob, gamma, dx, dt, nsub, npts):
    # Layout and buffers as in allen_cahn_batch_numpy; the operation order
    # is that of  mu = 4.0*f*f*f + 2.0*temp*f + h - gamma*lap(f);
    # f + dt*mob*lap(mu).
    f, temp2, hf = _phase_field_fields(phi, temp, h, npts)
    scratch = np.empty_like(f)
    lap = np.empty_like(f)
    mu = np.empty_like(f)
    edge = np.empty_like(f[0])
    c = dt * mob
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsub):
            np.multiply(4.0, f, out=scratch)
            _lap2_into(lap, f, scratch, edge, dx)
            np.multiply(scratch, f, out=mu)
            np.multiply(mu, f, out=mu)
            np.multiply(temp2, f, out=scratch)
            np.add(mu, scratch, out=mu)
            np.add(mu, hf, out=mu)
            np.multiply(gamma, lap, out=lap)
            np.subtract(mu, lap, out=mu)
            np.multiply(4.0, mu, out=scratch)
            _lap2_into(lap, mu, scratch, edge, dx)
            np.multiply(c, lap, out=lap)
            np.add(f, lap, out=f)
    return _row_major(f)


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


# recorded with every run: the two paths agree only to about 1e-16
KERNEL_PATH = "numba" if USE_NUMBA else "numpy"

if USE_NUMBA:
    burgers_batch = numba.njit(_burgers_batch_loops, cache=True)
    allen_cahn_batch = numba.njit(_allen_cahn_loops, cache=True)
    cahn_hilliard_batch = numba.njit(_cahn_hilliard_loops, cache=True)
else:
    burgers_batch = burgers_batch_numpy
    allen_cahn_batch = allen_cahn_batch_numpy
    cahn_hilliard_batch = cahn_hilliard_batch_numpy
