"""Batched explicit finite-difference step kernels.

These inner loops dominate runtime (system identification evaluates
thousands of one-step perturbations per solver iteration), so each kernel
has a vectorized numpy version and a C version in ``_kernels.c``.  Each
PDE has two kernels: ``<pde>_batch`` steps a batch of rows (the models'
``step_batch``), and ``<pde>_central`` runs one central-difference
identification unit (the models' ``central``).  The active path is
chosen once, at import, and recorded in :data:`KERNEL_PATH`:

* ``"c"``: the C versions, where the system C compiler (``cc`` on the
  ``PATH``) builds them.  The library is compiled at import, never at a
  first step, with the fixed flags :data:`CFLAGS`, into a per-user cache
  (``~/.cache/roilqr``, mode 0700) keyed by source, flags and compiler,
  published there atomically and loaded with ``ctypes``; later imports
  load it without running the compiler.  On x86-64 with glibc the
  library holds an AVX-512F, an AVX2 and a baseline clone of each kernel,
  and the dynamic loader picks one for the CPU when it loads the library;
  :data:`KERNEL_ISA` names the clone picked (``"avx512f"``, ``"avx2"`` or
  ``"baseline"``; ``None`` on the numpy path).  No compiler, a failed or
  timed-out build, a cache that cannot be written and a library that does
  not load all fall through, silently, to:
* ``"numpy"``: the numpy versions, also forced by the environment
  variable ``ROILQR_PURE_NUMPY=1``.

The C kernels evaluate the numpy kernels' expressions in the same order,
in every clone, and are bit-identical to them.  The plain-Python loop
versions, the oracle both are tested against, live in
``tests/test_kernels.py``.

Every kernel, on either path, takes one call shape: the rows, their
controls ``(B, n_u)`` (a central kernel: then its design and output),
and last the model's parameters (``_params`` of the models in
:mod:`roilqr.pde`).  The batch kernels take a batch of flattened
float64 state rows ``(B, n)`` and their controls and return a new
array; inputs are never mutated.  2-D fields are stored row-major with
periodic boundaries.

A central kernel takes k nominal states ``(k, n)`` and controls
``(k, n_u)``, the state moves of m samples node-major ``(n, m)`` and
their control moves ``(m, n_u)``, and an output ``(k, n, m)`` of any
strides, followed by the batch kernel's parameters.  It steps the 2 k m
rows x_t +/- d_j under u_t +/- du_j and writes the halved differences
``(f+ - f-) * 0.5`` into the output; it returns the first sample
``t * m + j``, in (timestep, sample) order, of which a side is not
finite, leaving the output unwritten, or -1.  On the numpy path it is
:func:`central_numpy` over the batch kernel: row building, one batch
call and numpy difference passes.  The C version builds the rows
directly in its node-major workspace and reads the differences from
there, so it spends no pass transposing rows in or out; it is
bit-identical to the numpy version.

The C ``allen_cahn_central`` steps a sample that moves one state point
and no control (every full-order state sample) only within its light
cone: after substep s only the points within torus distance s of the
moved point differ from the unit's nominal row ``x`` under ``u``, which
it steps once per unit and which stands for both of the sample's rows
everywhere else, in the output and in the divergence check.  A unit is
stepped in cones only if it is one timestep, its nominal ``x`` and ``u``
hold no -0.0 (so that ``x +/- 0.0`` and ``u +/- 0.0`` are ``x`` and
``u``, bit for bit), and every sample is such a cone sample; any other
unit (several timesteps, -0.0 in the nominal, a control sample, a dense
reduced design) and the other PDEs' units are stepped as whole rows.
The numpy path steps every row whole and is the bit-equality oracle.

Each scheme is evaluated in a folded form: its constant factors are
gathered into scalars and per-point coefficient fields built once per
call, before the substep loop.  With N(f) the sum of the four periodic
neighbours of a point, ``c = dt*mob`` and Burgers' ``c_adv = dt/(2 dx)``,
``c_dif = nu*dt/dx^2``, one substep is

* Burgers:  u' = u*(1 - 2 c_dif - c_adv*(u+ - u-)) + c_dif*(u+ + u-)
  (7 array passes);
* Allen-Cahn:  f' = f*(A - 4c f^2) + k N(f) + H, with ``k = c*gamma/dx^2``,
  ``A = 1 - 4k - 2c*temp`` and ``H = -c*h`` (10 passes);
* Cahn-Hilliard:  mu' = f*(B + 4s f^2) - k N(f) + s*h, the chemical
  potential scaled by ``s = c/dx^2``, then f' = f - 4 mu' + N(mu'), with
  ``k = s*gamma/dx^2`` and ``B = 2s*temp + 4k`` (16 passes).

Those are the numpy kernels' passes.  A C substep is one pass over the
state (Cahn-Hilliard: two, one per neighbour sum) that sums each point's
neighbours where it updates the point.

Burgers' controls are each row's two boundary values ``(left, right)``.
The phase-field kernels take each row's controls ``(temp+, h+, temp-,
h-)`` and, first of their parameters, the +1/-1 label mask, not
per-point fields: a row's A and H (B and s*h) take one value per label,
computed as a scalar with the operations of the per-point expression,
and are then placed by label.
The loop oracles evaluate the same expressions in the same order.

The numpy kernels step the batch node-major (the batch index varies
fastest, so a stencil shift is a contiguous slice of the flat buffer),
take all their buffers as one allocation and build their stencil views
once per call, and write each operation into those buffers.  One block
per call matters for long runs of equal calls (identification steps
thousands of equal units): the allocator keeps a freed block of that
size for the next call instead of returning its pages to the system and
faulting them in again.  Every buffer comes from :func:`_workspaces` and
starts a 64-byte cache line; with a row count that is a multiple of 8,
as in every identification unit that cuts a timestep into sample
ranges but its last, every stencil shift starts a line too.  The results
are fresh arrays, never views of the buffers, and are bit-identical to
the folded whole-array expressions kept in ``tests/test_kernels.py``,
next to the unfolded expressions of the scheme they agree with to
rounding.
"""

import ctypes
import hashlib
import math
import os
import shutil
import tempfile
from functools import partial
from itertools import accumulate

import numpy as np

_PURE_NUMPY = os.environ.get("ROILQR_PURE_NUMPY", "0").lower() in (
    "1", "true", "yes")
# there is no numba path; perfbench/run.py is the only reader of these
USE_NUMBA = HAVE_NUMBA = False


def _factors(*values):
    # Scalar factors of the substep loops as 0-d arrays, and ``out``
    # passed positionally there: both cut numpy's fixed cost per ufunc
    # call, which is most of the time of a one-row call (a one-row Burgers
    # step makes 1750 calls on arrays of 98 values).
    return [np.array(v) for v in values]


# A ufunc whose operands start mid cache line runs up to about twice as
# slow as one on line-aligned operands, and numpy's own buffers start 16
# bytes into a 64-byte line.
_LINE_BYTES = 64
# float64 values per cache line: in the node-major layout, a batch of a
# multiple of this many rows puts every stencil shift on a line boundary
VALUES_PER_LINE = _LINE_BYTES // 8


def _workspaces(*shapes):
    """Uninitialized float64 arrays of ``shapes``, each starting a 64-byte
    cache line, carved from one allocation: a kernel call takes all its
    buffers at once, so the allocator sees one block per call, whose size
    it then keeps on hand for the next call of the same size."""
    sizes = [math.prod(shape) for shape in shapes]
    starts = list(accumulate((n + -n % VALUES_PER_LINE for n in sizes),
                             initial=0))
    raw = np.empty(starts[-1] + VALUES_PER_LINE)
    lead = (-raw.ctypes.data % _LINE_BYTES) // 8
    return [raw[lead + lo:lead + lo + n].reshape(shape)
            for lo, n, shape in zip(starts, sizes, shapes)]


# ---------------------------------------------------------------------------
# 1-D viscous Burgers, Dirichlet boundary actuation.
# du/dt + u du/dx = nu d2u/dx2; the boundary nodes are pinned to each row's
# two controls (left, right).
# ---------------------------------------------------------------------------


def burgers_batch_numpy(u, controls, nu, dx, dt, nsub):
    # Node-major layout (n, B): a stencil shift by one node is a shift by
    # B in the flat buffer, so every stencil operand is one contiguous
    # slice.  Two buffers alternate as source and destination; the views
    # of both directions are made once.
    nb, n = u.shape
    c_adv = dt / (2.0 * dx)
    c_dif = nu * dt / (dx * dx)
    c_adv, c_dif, k = _factors(c_adv, c_dif, 1.0 - 2.0 * c_dif)
    m = (n - 2) * nb
    *bufs, s1, s2 = _workspaces((n, nb), (n, nb), (m,), (m,))
    bufs[0][...] = u.T   # a copy even for one row, where u.T is contiguous
    for buf in bufs:
        buf[0] = controls[:, 0]
        buf[-1] = controls[:, 1]
    flat = [buf.reshape(-1) for buf in bufs]
    views = [(src[:m], src[nb:nb + m], src[2 * nb:], dst[nb:nb + m])
             for src, dst in (flat, flat[::-1])]
    # divergence shows up as inf/nan and is detected by the callers'
    # finiteness checks; don't warn mid-blowup
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nsub):
            um, uc, up, out = views[i & 1]
            np.subtract(up, um, s1)
            np.multiply(c_adv, s1, s1)
            np.subtract(k, s1, s1)
            np.multiply(uc, s1, s1)
            np.add(up, um, s2)
            np.multiply(c_dif, s2, s2)
            np.add(s1, s2, out)
    return bufs[nsub & 1].T.copy()


# ---------------------------------------------------------------------------
# 2-D phase-field steppers, periodic boundaries.
# Bulk driving term dF/dphi = 4 phi^3 + 2*temp*phi + h.  The kernels take
# each row's four controls (temp+, h+, temp-, h-) and route them by the
# label mask: a point labeled +1 gets (temp+, h+), one labeled -1
# (temp-, h-).
# ---------------------------------------------------------------------------


def _node_major(a, nb, npts):
    """Row batch ``(B, npts*npts)`` as an ``(npts, npts, B)`` view."""
    return a.reshape(nb, npts, npts).transpose(1, 2, 0)


def _neighbour_views(a, out, tmp):
    """``(destination, operand, operand)`` view triples whose additions,
    in order, write into ``out`` the periodic four-neighbour sum
    (left + right) + (up + down) of the node-major field ``a``, with
    ``tmp`` as scratch.  All three are contiguous ``(npts, npts, B)``."""
    npts, _, nb = a.shape
    af, of, tf = a.reshape(-1), out.reshape(-1), tmp.reshape(-1)
    n = af.size
    blk = npts * nb
    return (
        # Along the second axis a neighbour is B entries away in the flat
        # array.  One contiguous add is right everywhere but in the two
        # wrapped columns, which are rewritten after it.
        (of[nb:n - nb], af[:n - 2 * nb], af[2 * nb:]),
        (out[:, 0], a[:, -1], a[:, 1]),
        (out[:, -1], a[:, -2], a[:, 0]),
        # along the first axis neighbours are whole contiguous blocks, plus
        # the wrapped first and last block
        (tf[blk:n - blk], af[:n - 2 * blk], af[2 * blk:]),
        (tmp[0], a[-1], a[1]),
        (tmp[-1], a[-2], a[0]),
        (of, of, tf),
    )


def _neighbour_sum(views):
    for dst, x, y in views:
        np.add(x, y, dst)


def _phase_field_workspaces(phi, npts, count):
    """The state ``phi`` (B, npts*npts) as a node-major field, and
    ``count`` more node-major buffers; inputs are only read."""
    nb = phi.shape[0]
    f, *bufs = _workspaces(*[(npts, npts, nb)] * (count + 1))
    f[...] = _node_major(phi, nb, npts)
    return f, bufs


def _route(field, mask, plus, minus):
    """Write into the node-major ``field``, at each point, the row values
    ``plus`` (B,) where ``mask`` is +1 and ``minus`` where it is -1."""
    npts, _, nb = field.shape
    np.take(np.stack([minus, plus]), (mask > 0).astype(np.intp), axis=0,
            out=field.reshape(npts * npts, nb), mode="clip")


def _row_major(f):
    # a fresh array, even for one row, so that no result holds on to the
    # workspaces
    npts, _, nb = f.shape
    return f.transpose(2, 0, 1).copy().reshape(nb, npts * npts)


def allen_cahn_batch_numpy(phi, controls, mask, mob, gamma, dx, dt, nsub,
                           npts):
    # f' = f*(A - 4c f^2) + k N(f) + H; node-major, every buffer allocated
    # once, the neighbour sum's scratch reused for the bulk term.  A and H
    # take two values per row, one per label, computed before routing.
    c = dt * mob
    k = c * gamma / (dx * dx)
    a0 = 1.0 - 4.0 * k
    f, (a, hc, nbr, t) = _phase_field_workspaces(phi, npts, 4)
    _route(a, mask, a0 - 2.0 * c * controls[:, 0],
           a0 - 2.0 * c * controls[:, 2])
    _route(hc, mask, -c * controls[:, 1], -c * controls[:, 3])
    views = _neighbour_views(f, nbr, t)
    c4, k = _factors(4.0 * c, k)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsub):
            _neighbour_sum(views)
            np.multiply(f, f, t)
            np.multiply(c4, t, t)
            np.subtract(a, t, t)
            np.multiply(t, f, t)
            np.multiply(k, nbr, nbr)
            np.add(t, nbr, t)
            np.add(t, hc, f)
    return _row_major(f)


def cahn_hilliard_batch_numpy(phi, controls, mask, mob, gamma, dx, dt, nsub,
                              npts):
    # mu' = f*(B + 4s f^2) - k N(f) + s h, then f' = f - 4 mu' + N(mu');
    # layout, buffers and routing as in allen_cahn_batch_numpy, one view
    # set per field whose neighbours are summed
    s = dt * mob / (dx * dx)
    k = s * gamma / (dx * dx)
    f, (bc, hs, mu, nbr, t) = _phase_field_workspaces(phi, npts, 5)
    _route(bc, mask, 2.0 * s * controls[:, 0] + 4.0 * k,
           2.0 * s * controls[:, 2] + 4.0 * k)
    _route(hs, mask, s * controls[:, 1], s * controls[:, 3])
    f_views = _neighbour_views(f, nbr, t)
    mu_views = _neighbour_views(mu, nbr, t)
    s4, k, four = _factors(4.0 * s, k, 4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsub):
            _neighbour_sum(f_views)
            np.multiply(f, f, t)
            np.multiply(s4, t, t)
            np.add(bc, t, t)
            np.multiply(t, f, t)
            np.multiply(k, nbr, nbr)
            np.subtract(t, nbr, t)
            np.add(t, hs, mu)
            _neighbour_sum(mu_views)
            np.multiply(four, mu, t)
            np.subtract(f, t, f)
            np.add(f, nbr, f)
    return _row_major(f)


# ---------------------------------------------------------------------------
# Central-difference identification units: one call builds the + and - rows
# of k nominal states and m samples, steps them and writes the halved
# differences.
# ---------------------------------------------------------------------------


def central_numpy(batch, states, controls, design_x, design_u, out,
                  *params):
    """One central-difference unit stepped by ``batch``, a stepper with
    the kernels' call shape ``(B, n_x), (B, n_u), *params -> (B, n_x)``:
    over ``<pde>_batch_numpy``, the numpy path of ``<pde>_central``.

    ``states`` (k, n_x) and ``controls`` (k, n_u) are k nominal points,
    ``design_x`` (n_x, m) the state moves of m samples, node-major, and
    ``design_u`` (m, n_u) their control moves.  Sample j of timestep t
    steps x_t +/- design_x[:, j] under u_t +/- design_u[j], all 2 k m rows
    in one call ``batch(rows, controls, *params)``, timestep t's + rows
    and then its - rows.  Returns the first sample t * m + j, in
    (timestep, sample) order, one of whose two next states is not finite;
    else -1, after writing into ``out`` (k, n_x, m), a view of any
    strides, the halved differences ``(f+ - f-) * 0.5``.
    """
    k, n_x = states.shape
    m, n_u = design_u.shape
    d, x, u = _workspaces((m, n_x), (k, 2, m, n_x), (k, 2, m, n_u))
    # the state moves row-major: read node-major, each add would stride
    d[...] = design_x.T
    np.add(states[:, None], d, out=x[:, 0])
    np.subtract(states[:, None], d, out=x[:, 1])
    np.add(controls[:, None], design_u, out=u[:, 0])
    np.subtract(controls[:, None], design_u, out=u[:, 1])
    f = batch(x.reshape(-1, n_x), u.reshape(-1, n_u),
              *params).reshape(k, 2, m, n_x)
    bad = np.flatnonzero(~np.all(np.isfinite(f), axis=(1, 3)))
    if bad.size:
        return int(bad[0])
    dy = f[:, 0]
    np.subtract(dy, f[:, 1], out=dy)
    dy *= 0.5
    out[...] = dy.transpose(0, 2, 1)
    return -1


burgers_central_numpy = partial(central_numpy, burgers_batch_numpy)
allen_cahn_central_numpy = partial(central_numpy, allen_cahn_batch_numpy)
cahn_hilliard_central_numpy = partial(central_numpy, cahn_hilliard_batch_numpy)


# ---------------------------------------------------------------------------
# The C path: _kernels.c compiled once per source, flags and compiler into a
# per-user cache, and bound with ctypes.
# ---------------------------------------------------------------------------

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "_kernels.c")
# IEEE double arithmetic as written: no fused multiply-adds and no
# fast-math reassociation, so every operation rounds as in the numpy
# kernels.  No target either: on x86-64 glibc the source itself asks for
# AVX-512F, AVX2 and baseline clones of each kernel, and the loader picks
# one for the host, so one cached library serves every host of an
# architecture.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_COMPILE_TIMEOUT_S = 60.0


def _cache_dir():
    return os.path.join(os.path.expanduser("~"), ".cache", "roilqr")


def _library_key(source, compiler):
    """Hash of the C source, the flags and the compiler (its resolved
    path, size and modification time: reading them runs no compiler)."""
    real = os.path.realpath(compiler)
    st = os.stat(real)
    h = hashlib.sha256(source)
    h.update(repr((CFLAGS, real, st.st_size, st.st_mtime_ns)).encode())
    return h.hexdigest()[:24]


def _private(directory):
    """Whether ``directory`` is ours and no one else can write to it: a
    library loaded from it runs as this process."""
    st = os.stat(directory)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _compile(compiler, cache_dir, target):
    """Compile ``_kernels.c`` into a temporary file of ``cache_dir`` and
    publish it as ``target`` with one atomic rename.  Returns whether it
    did; a failed, killed or timed-out build leaves no file and, in its
    own process group, no process behind."""
    import signal
    import subprocess

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=cache_dir)
    os.close(fd)
    try:
        with subprocess.Popen([compiler, *CFLAGS, "-o", tmp, _C_SOURCE],
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              start_new_session=True) as proc:
            try:
                built = proc.wait(timeout=_COMPILE_TIMEOUT_S) == 0
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                built = False
        if built:
            os.replace(tmp, target)
        return built
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_compiled(cache_dir, compiler):
    """The C kernels of ``_kernels.c``, loaded from ``cache_dir`` and
    compiled there first by ``compiler`` (a path, or ``None`` for none)
    when no library in it matches the source, flags and compiler.  Returns
    ``None`` instead of raising when there is no compiler, the build fails
    or times out, the cache cannot be written or the library not loaded."""
    if compiler is None:
        return None
    try:
        with open(_C_SOURCE, "rb") as fh:
            key = _library_key(fh.read(), compiler)
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        if not _private(cache_dir):
            return None
        target = os.path.join(cache_dir, f"kernels-{key}.so")
        if not os.path.exists(target) and not _compile(compiler, cache_dir,
                                                       target):
            return None
        return CompiledKernels(ctypes.CDLL(target))
    except (OSError, AttributeError):   # AttributeError: a missing symbol
        return None


def _c_array(a, shape, what):
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    return a


class CompiledKernels:
    """The steppers of one loaded ``_kernels.c`` library, with the
    signatures and results of the numpy kernels."""

    def __init__(self, lib):
        # keeps the library loaded while its functions are bound here
        self._lib = lib
        lib.kernel_isa.argtypes = []
        lib.kernel_isa.restype = ctypes.c_char_p
        # the kernel clone the loader picked: "avx512f", "avx2" or
        # "baseline"
        self.isa = lib.kernel_isa().decode()
        ptr, size, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
        for name, reals in (("burgers", 3), ("allen_cahn", 4),
                            ("cahn_hilliard", 4)):
            # the phase-field kernels take one more pointer, the label mask
            mask = 0 if name == "burgers" else 1
            fn = getattr(lib, f"{name}_batch")
            fn.argtypes = ([ptr] * (3 + mask) + [size] * 2
                           + [real] * reals + [size])
            fn.restype = ctypes.c_int
            fn = getattr(lib, f"{name}_central")
            fn.argtypes = ([ptr] * (5 + mask) + [size] * 6
                           + [real] * reals + [size])
            fn.restype = ctypes.c_long

    @staticmethod
    def _check(status):
        if status != 0:
            raise MemoryError("step kernel workspace")

    def burgers_batch(self, u, controls, nu, dx, dt, nsub):
        u = np.ascontiguousarray(u, dtype=np.float64)
        nb, n = u.shape
        controls = _c_array(controls, (nb, 2), "controls")
        out = np.empty((nb, n))
        self._check(self._lib.burgers_batch(
            u.ctypes.data, controls.ctypes.data, out.ctypes.data, nb, n, nu,
            dx, dt, nsub))
        return out

    @staticmethod
    def _plus(mask, npts):
        # the +1 labels of an npts x npts grid, one byte per point
        if npts < 2:
            raise ValueError(f"npts must be >= 2, got {npts}")
        plus = np.ascontiguousarray(np.asarray(mask) > 0)
        if plus.shape != (npts * npts,):
            raise ValueError(f"mask has shape {plus.shape}, expected "
                             f"({npts * npts},)")
        return plus

    def _phase_field(self, fn, phi, controls, mask, mob, gamma, dx, dt,
                     nsub, npts):
        plus = self._plus(mask, npts)
        nb = len(phi)
        phi = _c_array(phi, (nb, npts * npts), "phi")
        controls = _c_array(controls, (nb, 4), "controls")
        out = np.empty_like(phi)
        self._check(fn(phi.ctypes.data, controls.ctypes.data,
                       plus.ctypes.data, out.ctypes.data, nb, npts,
                       mob, gamma, dx, dt, nsub))
        return out

    def allen_cahn_batch(self, phi, controls, mask, mob, gamma, dx, dt,
                         nsub, npts):
        return self._phase_field(self._lib.allen_cahn_batch, phi, controls,
                                 mask, mob, gamma, dx, dt, nsub, npts)

    def cahn_hilliard_batch(self, phi, controls, mask, mob, gamma, dx, dt,
                            nsub, npts):
        return self._phase_field(self._lib.cahn_hilliard_batch, phi,
                                 controls, mask, mob, gamma, dx, dt, nsub,
                                 npts)

    @staticmethod
    def _unit(states, controls, design_x, design_u, out, n_u):
        """The arrays of a ``<pde>_central`` call, the unit's inputs made
        contiguous and ``out``, which is written in place at its own
        strides; then (k, m, n_x) and the element strides of ``out``."""
        states = np.ascontiguousarray(states, dtype=np.float64)
        (k, n_x), m = states.shape, len(design_u)
        arrays = (states, _c_array(controls, (k, n_u), "controls"),
                  _c_array(design_x, (n_x, m), "design_x"),
                  _c_array(design_u, (m, n_u), "design_u"), out)
        if not (isinstance(out, np.ndarray) and out.dtype == np.float64
                and out.shape == (k, n_x, m) and out.flags.writeable
                and out.flags.aligned):
            raise ValueError(f"out must be a writeable, aligned float64 "
                             f"array of shape {(k, n_x, m)}")
        return arrays, (k, m, n_x), [s // 8 for s in out.strides]

    @staticmethod
    def _first_diverged(status):
        if status == -2:
            raise MemoryError("step kernel workspace")
        return status

    def burgers_central(self, states, controls, design_x, design_u, out, nu,
                        dx, dt, nsub):
        arrays, sizes, strides = self._unit(states, controls, design_x,
                                            design_u, out, 2)
        return self._first_diverged(self._lib.burgers_central(
            *(a.ctypes.data for a in arrays), *sizes, *strides, nu, dx, dt,
            nsub))

    def _phase_field_central(self, fn, states, controls, design_x, design_u,
                             out, mask, mob, gamma, dx, dt, nsub, npts):
        plus = self._plus(mask, npts)
        arrays, (k, m, n_x), strides = self._unit(
            states, controls, design_x, design_u, out, 4)
        if n_x != npts * npts:
            raise ValueError(f"states have {n_x} values, expected "
                             f"{npts * npts}")
        return self._first_diverged(fn(
            *(a.ctypes.data for a in arrays), plus.ctypes.data, k, m, npts,
            *strides, mob, gamma, dx, dt, nsub))

    def allen_cahn_central(self, *args):
        return self._phase_field_central(self._lib.allen_cahn_central, *args)

    def cahn_hilliard_central(self, *args):
        return self._phase_field_central(self._lib.cahn_hilliard_central,
                                         *args)


# The active path, chosen once here and recorded with every run: the C
# kernels where they build and load, else numpy; ROILQR_PURE_NUMPY=1
# forces numpy.  The C kernels are bit-identical to the numpy kernels.
# KERNEL_ISA names the C kernels' clone, None on the numpy path.
_compiled = None if _PURE_NUMPY else load_compiled(_cache_dir(),
                                                   shutil.which("cc"))
if _compiled is not None:
    KERNEL_PATH = "c"
    KERNEL_ISA = _compiled.isa
    burgers_batch = _compiled.burgers_batch
    allen_cahn_batch = _compiled.allen_cahn_batch
    cahn_hilliard_batch = _compiled.cahn_hilliard_batch
    burgers_central = _compiled.burgers_central
    allen_cahn_central = _compiled.allen_cahn_central
    cahn_hilliard_central = _compiled.cahn_hilliard_central
else:
    KERNEL_PATH = "numpy"
    KERNEL_ISA = None
    burgers_batch = burgers_batch_numpy
    allen_cahn_batch = allen_cahn_batch_numpy
    cahn_hilliard_batch = cahn_hilliard_batch_numpy
    burgers_central = burgers_central_numpy
    allen_cahn_central = allen_cahn_central_numpy
    cahn_hilliard_central = cahn_hilliard_central_numpy
