/* Batched explicit finite-difference step kernels: the C path of
 * roilqr._kernels, two entries per PDE.
 *
 * <pde>_batch takes the arguments of its numpy kernel in _kernels.py,
 * the rows, their (nb, n_u) controls and the model's parameters (the
 * arrays as pointers, with their sizes), and steps the caller's rows.
 * <pde>_central runs one central-difference identification unit: from k
 * nominal states and controls and a design of m samples it builds the +
 * and - rows in its workspace, steps them, checks them for divergence
 * and writes the halved differences (f+ - f-) * 0.5 into the caller's
 * (k, n, m) output, at any strides.  Both entries of a PDE run the same
 * substep code and evaluate the same folded expressions in the same
 * order as the numpy kernels: the same scalar factors, the same per-row
 * routed coefficients, the four-neighbour sum grouped (left + right) +
 * (up + down), and each substep's update with the numpy kernel's
 * association.  _kernels.py compiles this file without floating-point
 * contraction (-ffp-contract=off) or fast-math, so every operation
 * rounds as it does in numpy and the results are bit-identical to the
 * numpy kernels.
 *
 * The batch is stepped node-major, as in the numpy kernels: value
 * (point p, row b) sits at p * nb + b, so the batch index runs innermost
 * and every loop below is one flat pass over contiguous values that the
 * compiler vectorizes across rows, whatever the row count.  A phase-field
 * substep evaluates its neighbour sum inside its update pass (per grid
 * row, the first column, the interior columns and the last column), so
 * no neighbour sum is written to memory and read back.  A _batch entry
 * transposes the caller's rows into that layout and back; a _central
 * entry builds its rows node-major from the node-major design and reads
 * its differences from there, so it transposes nothing.
 *
 * allen_cahn_central steps the samples of a full-order state design
 * (each moves one point) only inside their light cones, the points a
 * move can reach in the substeps taken, and stands the nominal row for
 * them everywhere else; the same bits come from fewer point updates (see
 * the light cones below).  A unit is stepped in cones only if it is one
 * timestep, its nominal holds no -0.0 and every sample is such a cone
 * sample; any other unit, and every unit of the other two PDEs, is
 * stepped as whole rows.
 *
 * On x86-64 with glibc, each exported kernel and each helper that
 * several kernels share is built three times, for AVX-512F, for AVX2 and
 * for the baseline instruction set, and the dynamic loader picks one
 * clone per kernel for the host when the library is loaded (an ifunc; a
 * kernel's clone calls the shared helpers' clone of its own target
 * directly): the compiler flags carry no target, so one cached library
 * serves every x86-64 host.  Neither target enables FMA, and without
 * contraction a vector add or multiply rounds as the scalar one does at
 * any width, so every clone gives the same bits.
 * kernel_isa() names the clone picked.  Elsewhere the kernels are built
 * once, for the flags' target.
 *
 * A _batch kernel returns 0, or -1 when its workspace cannot be
 * allocated.  A _central kernel returns the first diverged sample
 * t * m + j, -1 when none diverged, or -2 when its workspace cannot be
 * allocated.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

/* target_clones needs ifunc support, which glibc provides on x86-64 */
#if defined(__x86_64__) && defined(__GLIBC__)
#define VECTOR_CLONES \
    __attribute__((target_clones("avx512f", "avx2", "default")))
#define HAVE_VECTOR_CLONES 1
#else
#define VECTOR_CLONES
#define HAVE_VECTOR_CLONES 0
#endif

/* Every helper a clone calls runs at the clone's vector width: an
 * out-of-line helper would be compiled once, for the baseline.  A helper
 * that more than one exported kernel calls is SHARED: cloned like the
 * kernels and called, so that each of its clones is compiled once and
 * both kernels of a PDE run the same machine code for their substeps.
 * (Inlined into every kernel instead, the helpers made a build take about
 * 4 s against 2 s, and burgers_central's substep loop came out with one
 * more load per vector than burgers_batch's, up to 5% slower on the same
 * rows.)  The helpers those call are INLINE. */
#define INLINE static inline __attribute__((always_inline))
#define SHARED VECTOR_CLONES __attribute__((noinline)) static

#define LINE_BYTES 64

/* The clone the loader picks on this host: the first target of
 * VECTOR_CLONES the CPU supports, else "baseline". */
const char *kernel_isa(void)
{
#if HAVE_VECTOR_CLONES
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "baseline";
}

/* Uninitialized doubles starting a 64-byte cache line; NULL on failure. */
INLINE double *workspace(long count)
{
    size_t bytes = (size_t)count * sizeof(double);
    bytes += (LINE_BYTES - bytes % LINE_BYTES) % LINE_BYTES;
    return aligned_alloc(LINE_BYTES, bytes ? bytes : LINE_BYTES);
}

/* count doubles rounded up to whole cache lines */
INLINE long padded(long count)
{
    const long line = LINE_BYTES / sizeof(double);
    return (count + line - 1) / line * line;
}

/* rows (nb, n) row-major -> f (n, nb) node-major, and back */
SHARED void to_node_major(const double *rows, double *f, long nb, long n)
{
    for (long b = 0; b < nb; b++)
        for (long p = 0; p < n; p++)
            f[p * nb + b] = rows[b * n + p];
}

SHARED void to_row_major(const double *f, double *rows, long nb, long n)
{
    for (long b = 0; b < nb; b++)
        for (long p = 0; p < n; p++)
            rows[b * n + p] = f[p * nb + b];
}

/* ------------------------------------------------------------------------
 * Central-difference units.  A unit is k nominal states x (k, n) and
 * controls u (k, nu), and m samples: state moves d (n, m), node-major,
 * and control moves du (m, nu).  Its nb = 2 k m rows are ordered as the
 * numpy path orders them: timestep t's + rows t*2m + j (x_t + d_j,
 * u_t + du_j), then its - rows t*2m + m + j (x_t - d_j, u_t - du_j).
 * ---------------------------------------------------------------------- */

/* the state rows, node-major into f (n, nb) */
SHARED void plus_minus_states(const double *restrict x,
                              const double *restrict d, double *restrict f,
                              long k, long m, long n)
{
    const long nb = 2 * k * m;
    for (long p = 0; p < n; p++)
        for (long t = 0; t < k; t++) {
            const double v = x[t * n + p], *dp = d + p * m;
            double *fp = f + p * nb + 2 * t * m, *fm = fp + m;
            for (long j = 0; j < m; j++) {
                fp[j] = v + dp[j];
                fm[j] = v - dp[j];
            }
        }
}

/* the control rows, row-major into ctl (nb, nu) */
SHARED void plus_minus_controls(const double *restrict u,
                                const double *restrict du,
                                double *restrict ctl, long k, long m, long nu)
{
    for (long t = 0; t < k; t++)
        for (long j = 0; j < m; j++)
            for (long c = 0; c < nu; c++) {
                const double v = u[t * nu + c], e = du[j * nu + c];
                ctl[(2 * t * m + j) * nu + c] = v + e;
                ctl[((2 * t + 1) * m + j) * nu + c] = v - e;
            }
}

/* flag[b] = the sum of 0 * value over row b of f (n, nb), one sequential
 * pass: NaN exactly for the rows holding an inf or a NaN. */
INLINE void row_flags(const double *restrict f, double *restrict flag,
                      long nb, long n)
{
    for (long b = 0; b < nb; b++)
        flag[b] = 0.0;
    for (long p = 0; p < n; p++)
        for (long b = 0; b < nb; b++)
            flag[b] += 0.0 * f[p * nb + b];
}

/* out[t, p, j] = (f+ - f-) * 0.5 at the element strides (st, sp, sj)
 * for the rows of k timesteps and m samples stepped into f (n, nb) */
INLINE void central_write(const double *restrict f, double *restrict out,
                          long k, long m, long n, long st, long sp, long sj)
{
    const long nb = 2 * k * m;
    for (long p = 0; p < n; p++)
        for (long t = 0; t < k; t++) {
            const double *fp = f + p * nb + 2 * t * m, *fm = fp + m;
            double *o = out + t * st + p * sp;
            for (long j = 0; j < m; j++)
                o[j * sj] = (fp[j] - fm[j]) * 0.5;
        }
}

/* The first sample t*m + j, in (timestep, sample) order, one of whose two
 * rows' flags (one per row of the unit, in its row order) is NaN, else
 * -1. */
INLINE long first_diverged(const double *flag, long k, long m)
{
    for (long t = 0; t < k; t++)
        for (long j = 0; j < m; j++)
            if (isnan(flag[2 * t * m + j]) || isnan(flag[(2 * t + 1) * m + j]))
                return t * m + j;
    return -1;
}

/* The end of a unit whose rows were stepped into f (n, nb): the first
 * sample one of whose two rows holds a non-finite value (first_diverged),
 * else -1 after writing out[t, p, j] = (f+ - f-) * 0.5 at the element
 * strides (st, sp, sj).  flag is nb values of scratch for the rows'
 * flags. */
SHARED long central_result(const double *restrict f, double *restrict flag,
                           double *restrict out, long k, long m, long n,
                           long st, long sp, long sj)
{
    row_flags(f, flag, 2 * k * m, n);
    const long bad = first_diverged(flag, k, m);
    if (bad < 0)
        central_write(f, out, k, m, n, st, sp, sj);
    return bad;
}

/* ------------------------------------------------------------------------
 * 1-D viscous Burgers, Dirichlet boundary actuation.
 * u' = u*(k - c_adv*(u+ - u-)) + c_dif*(u+ + u-), k = 1 - 2 c_dif
 * ---------------------------------------------------------------------- */

INLINE void burgers_substep(const double *restrict src, double *restrict dst,
                            long m, long nb, double c_adv, double c_dif,
                            double k)
{
    /* the m = (n - 2) * nb interior values; a neighbour is nb away */
    for (long q = 0; q < m; q++) {
        const double um = src[q], uc = src[q + nb], up = src[q + 2 * nb];
        dst[q + nb] = uc * (k - c_adv * (up - um)) + c_dif * (up + um);
    }
}

/* Step the node-major rows (n, nb) of bufs[0] nsub times, bufs[1] the
 * other buffer and the boundary nodes of both pinned to each row's
 * controls (nb, 2), (left, right); returns the buffer of the result. */
SHARED double *burgers_steps(double *bufs[2], const double *ctl, long nb,
                             long n, double nu, double dx, double dt,
                             long nsub)
{
    const double c_adv = dt / (2.0 * dx);
    const double c_dif = nu * dt / (dx * dx);
    const double k = 1.0 - 2.0 * c_dif;
    for (int w = 0; w < 2; w++)
        for (long b = 0; b < nb; b++) {
            bufs[w][b] = ctl[2 * b];
            bufs[w][(n - 1) * nb + b] = ctl[2 * b + 1];
        }
    for (long s = 0; s < nsub; s++)
        burgers_substep(bufs[s & 1], bufs[(s + 1) & 1], (n - 2) * nb, nb,
                        c_adv, c_dif, k);
    return bufs[nsub & 1];
}

VECTOR_CLONES
int burgers_batch(const double *u, const double *ctl, double *out, long nb,
                  long n, double nu, double dx, double dt, long nsub)
{
    const long span = padded(n * nb);
    double *w = workspace(2 * span);
    if (!w)
        return -1;
    double *bufs[2] = {w, w + span};
    to_node_major(u, w, nb, n);
    to_row_major(burgers_steps(bufs, ctl, nb, n, nu, dx, dt, nsub), out, nb,
                 n);
    free(w);
    return 0;
}

VECTOR_CLONES
long burgers_central(const double *x, const double *u, const double *d,
                     const double *du, double *out, long k, long m, long n,
                     long st, long sp, long sj, double nu, double dx,
                     double dt, long nsub)
{
    const long nb = 2 * k * m, span = padded(n * nb);
    double *w = workspace(2 * span + 2 * nb);
    if (!w)
        return -2;
    double *bufs[2] = {w, w + span}, *ctl = w + 2 * span;
    plus_minus_states(x, d, w, k, m, n);
    plus_minus_controls(u, du, ctl, k, m, 2);
    const double *f = burgers_steps(bufs, ctl, nb, n, nu, dx, dt, nsub);
    const long bad = central_result(f, ctl, out, k, m, n, st, sp, sj);
    free(w);
    return bad;
}

/* ------------------------------------------------------------------------
 * 2-D phase-field steppers, periodic boundaries.  Each row's controls
 * (temp+, h+, temp-, h-) are routed by the label of each point: plus[p]
 * is nonzero where the mask is +1.
 * ---------------------------------------------------------------------- */

/* Write the per-point field of row values vp (label +1) and vm (-1). */
INLINE void route(double *field, const unsigned char *plus, const double *vp,
                  const double *vm, long points, long nb)
{
    for (long p = 0; p < points; p++) {
        const double *v = plus[p] ? vp : vm;
        for (long b = 0; b < nb; b++)
            field[p * nb + b] = v[b];
    }
}

/* A run of len values of a node-major field (npts, npts, nb), from
 * offset at, whose periodic left, right, up and down neighbours start at
 * offsets l, r, u and d: the same offsets index every field. */
struct segment {
    long at, len, l, r, u, d;
};

/* The segments of grid row j over its columns lo..hi: the first column
 * and the last column, whose left or right neighbours wrap, and the
 * interior columns, those of them the run holds; returns their count. */
INLINE int row_segments(struct segment seg[3], long j, long lo, long hi,
                        long npts, long nb)
{
    const long blk = npts * nb, row = j * blk;
    const long up = (j > 0 ? j - 1 : npts - 1) * blk;
    const long down = (j < npts - 1 ? j + 1 : 0) * blk;
    const long first = lo > 1 ? lo : 1, last = hi < npts - 2 ? hi : npts - 2;
    int count = 0;
    if (lo == 0)
        seg[count++] = (struct segment){row, nb, row + blk - nb, row + nb,
                                        up, down};
    if (first <= last) {
        const long at = first * nb;
        seg[count++] = (struct segment){row + at, (last - first + 1) * nb,
                                        row + at - nb, row + at + nb,
                                        up + at, down + at};
    }
    if (hi == npts - 1)
        seg[count++] = (struct segment){row + blk - nb, nb,
                                        row + blk - 2 * nb, row,
                                        up + blk - nb, down + blk - nb};
    return count;
}

/* ------------------------------------------------------------------------
 * Allen-Cahn: f' = f*(A - 4c f^2) + k N(f) + H, with c = dt*mob,
 * k = c*gamma/dx^2, A = 1 - 4k - 2c*temp and H = -c*h.
 * ---------------------------------------------------------------------- */

struct allen_cahn {
    double c, k, a0, c4;   /* c, k, 1 - 4k and 4c */
};

INLINE struct allen_cahn allen_cahn_factors(double mob, double gamma,
                                            double dx, double dt)
{
    const double c = dt * mob;
    const double k = c * gamma / (dx * dx);
    return (struct allen_cahn){c, k, 1.0 - 4.0 * k, 4.0 * c};
}

/* Each row's A and H per label from its controls (nb, 4): rows holds
 * A+, A-, H+ and H-, nb values each. */
INLINE void allen_cahn_rows(const double *controls, double *rows, long nb,
                            struct allen_cahn p)
{
    double *ap = rows, *am = rows + nb, *hp = rows + 2 * nb,
           *hm = rows + 3 * nb;
    for (long b = 0; b < nb; b++) {
        const double *ctl = controls + 4 * b;
        ap[b] = p.a0 - 2.0 * p.c * ctl[0];
        am[b] = p.a0 - 2.0 * p.c * ctl[2];
        hp[b] = -p.c * ctl[1];
        hm[b] = -p.c * ctl[3];
    }
}

/* g = f*(a - c4 f^2) + k N(f) + hc on one segment, N(f) the periodic
 * four-neighbour sum (left + right) + (up + down) */
INLINE void allen_cahn_segment(const double *restrict f,
                               const double *restrict a,
                               const double *restrict hc,
                               double *restrict g, struct segment s,
                               double c4, double k)
{
    const double *l = f + s.l, *r = f + s.r, *u = f + s.u, *d = f + s.d;
    f += s.at, a += s.at, hc += s.at, g += s.at;
    for (long q = 0; q < s.len; q++) {
        const double v = f[q];
        g[q] = v * (a[q] - c4 * (v * v)) + k * ((l[q] + r[q]) + (u[q] + d[q]))
               + hc[q];
    }
}

/* One substep of the node-major field f (npts, npts, nb) into g. */
INLINE void allen_cahn_substep(const double *f, const double *a,
                               const double *hc, double *g, long npts,
                               long nb, struct allen_cahn p)
{
    for (long y = 0; y < npts; y++) {
        struct segment seg[3];
        const int count = row_segments(seg, y, 0, npts - 1, npts, nb);
        for (int i = 0; i < count; i++)
            allen_cahn_segment(f, a, hc, g, seg[i], p.c4, p.k);
    }
}

/* A and H of the control rows controls (nb, 4), routed by label into
 * the fields a and hc (npts^2, nb); rows takes each row's values per
 * label (allen_cahn_rows). */
INLINE void allen_cahn_route(double *a, double *hc, double *rows,
                             const double *controls,
                             const unsigned char *plus, long nb, long points,
                             struct allen_cahn p)
{
    allen_cahn_rows(controls, rows, nb, p);
    route(a, plus, rows, rows + nb, points, nb);
    route(hc, plus, rows + 2 * nb, rows + 3 * nb, points, nb);
}

/* Step the node-major field at w nsub times under the control rows
 * controls (nb, 4).  w holds 4 n values (the field, its next value, A
 * and H; n = npts^2 nb) and rows 4 nb; returns the field of the
 * result. */
SHARED double *allen_cahn_steps(double *w, double *rows,
                                const double *controls,
                                const unsigned char *plus, long nb,
                                long npts, struct allen_cahn p, long nsub)
{
    const long points = npts * npts, n = points * nb;
    double *f = w, *g = w + n, *a = w + 2 * n, *hc = w + 3 * n;
    allen_cahn_route(a, hc, rows, controls, plus, nb, points, p);
    for (long s = 0; s < nsub; s++) {
        allen_cahn_substep(f, a, hc, g, npts, nb, p);
        double *t = f;
        f = g;
        g = t;
    }
    return f;
}

VECTOR_CLONES
int allen_cahn_batch(const double *phi, const double *controls,
                     const unsigned char *plus, double *out, long nb,
                     long npts, double mob, double gamma, double dx,
                     double dt, long nsub)
{
    const long points = npts * npts, n = points * nb;
    double *w = workspace(4 * n + 4 * nb);
    if (!w)
        return -1;
    to_node_major(phi, w, nb, points);
    to_row_major(allen_cahn_steps(w, w + 4 * n, controls, plus, nb, npts,
                                  allen_cahn_factors(mob, gamma, dx, dt),
                                  nsub),
                 out, nb, points);
    free(w);
    return 0;
}

/* ------------------------------------------------------------------------
 * Light cones of the Allen-Cahn central unit.  A cone sample is one whose
 * state move is one point (every other entry of its design column +0.0)
 * and whose control move is +0.0: after substep s it changes only the
 * points within torus distance cone_radius(s) of its moved point.  A unit
 * is stepped in cones only if it is one timestep, its nominal x and u hold
 * no -0.0, and every sample is a cone sample (cone_unit).  Then x + 0.0,
 * x - 0.0 and x are the same bits, and so are u + 0.0, u - 0.0 and u, so
 * everywhere outside a sample's diamond both its rows hold, bit for bit,
 * the one nominal row x stepped as often under u: the same operations on
 * the same values.  The nominal row is stepped once per unit and each
 * sample's rows only inside their diamond; outside it the output is the
 * nominal row's (v - v) * 0.5 = +0.0, and a non-finite nominal value
 * makes the sample's rows non-finite.  Any other unit is stepped as whole
 * rows.
 *
 * The cone lanes are the unit's 2m rows, node-major and ordered as its
 * rows, so that sample j's + row is lane j and its - row lane m + j, and
 * each lane's grid is rolled so that its moved point sits at the frame
 * centre (c, c), c = npts / 2.  All lanes then share one diamond, whose
 * frame rows are single column runs (cone_span), and a substep steps them
 * with the whole grid's segments and update, A and H picked by each
 * lane's label (cone_substep).  Substep s steps the lanes within
 * cone_radius(s) of the centre and reads them one stencil reach further,
 * where the points it has not stepped yet are refilled with the nominal
 * values of substep s - 1 (cone_fill).  The roll is read in runs of
 * samples whose moved points are consecutive in a grid row (cone_runs):
 * in a run, one frame point holds consecutive grid points, so the labels
 * that route A and H (cone_labels), the refills and the output
 * (cone_write) move whole runs of values.
 * ---------------------------------------------------------------------- */

/* how far one substep reaches: the 5-point stencil's radius */
#define STENCIL_REACH 1

/* the radius of the cone after substep s */
INLINE long cone_radius(long s)
{
    return s * STENCIL_REACH;
}

/* The columns lo..hi of grid row y within distance r of the centre
 * (c, c), c = npts / 2: |y - c| + |x - c| <= r, which is the torus
 * distance, since no |x - c| exceeds c.  Returns 0 where the row holds
 * none. */
INLINE int cone_span(long y, long r, long npts, long *lo, long *hi)
{
    const long c = npts / 2, w = r - labs(y - c);
    if (w < 0)
        return 0;
    *lo = c - w > 0 ? c - w : 0;
    *hi = c + w < npts - 1 ? c + w : npts - 1;
    return 1;
}

/* The bits of v are those of +0.0, or of -0.0. */
INLINE int plus_zero(double v)
{
    unsigned long long bits;
    memcpy(&bits, &v, sizeof bits);
    return bits == 0;
}

INLINE int minus_zero(double v)
{
    return v == 0.0 && signbit(v);
}

/* Whether a unit of k nominal states x (k, n) and controls u (k, nu) and
 * m samples, state moves d (n, m) node-major and control moves du
 * (m, nu), is stepped in light cones: it is one timestep, x and u hold
 * no -0.0, and every sample is a cone sample, whose state move holds at
 * most one entry that is not +0.0 and whose control move none.  at[j] is
 * then sample j's moved point (0 where none moves).  A dense design is
 * told apart within its first rows. */
INLINE int cone_unit(const double *x, const double *u, const double *d,
                     const double *du, long k, long m, long n, long nu,
                     long *at)
{
    if (k != 1)
        return 0;
    for (long q = 0; q < m * nu; q++)
        if (!plus_zero(du[q]))
            return 0;
    for (long i = 0; i < nu; i++)
        if (minus_zero(u[i]))
            return 0;
    for (long p = 0; p < n; p++)
        if (minus_zero(x[p]))
            return 0;
    for (long j = 0; j < m; j++)
        at[j] = -1;
    for (long p = 0; p < n; p++)
        for (long j = 0; j < m; j++)
            if (!plus_zero(d[p * m + j])) {
                if (at[j] >= 0)
                    return 0;
                at[j] = p;
            }
    for (long j = 0; j < m; j++)
        at[j] = at[j] < 0 ? 0 : at[j];
    return 1;
}

/* A run of cone samples: samples j .. j + len - 1, whose moved points are
 * consecutive points of one grid row, so that frame point (y, x) holds
 * consecutive grid points in their lanes too, wrapping once at the end of
 * the grid row.  (ry, rx) is the roll of its first sample: frame point
 * (y, x) of that sample is grid point ((y + ry) mod npts,
 * (x + rx) mod npts). */
struct run {
    long j, len, ry, rx;
};

/* The runs of the m cone samples, whose moved points are at, into runs;
 * returns their count. */
INLINE long cone_runs(struct run *runs, const long *at, long m, long npts)
{
    const long c = npts / 2;
    long count = 0;
    for (long j = 0; j < m; j++) {
        if (count && at[j] == at[j - 1] + 1
            && at[j] / npts == at[j - 1] / npts) {
            runs[count - 1].len++;
            continue;
        }
        runs[count++] = (struct run){j, 1, (at[j] / npts - c + npts) % npts,
                                     (at[j] % npts - c + npts) % npts};
    }
    return count;
}

/* The grid point g of a run's first sample at frame point (y, x); its
 * sample i < split holds grid point g + i, and a sample i >= split grid
 * point g + i - npts. */
INLINE long run_point(struct run run, long y, long x, long npts, long *split)
{
    long gy = y + run.ry, gx = x + run.rx;
    gy -= gy >= npts ? npts : 0;
    gx -= gx >= npts ? npts : 0;
    *split = npts - gx < run.len ? npts - gx : run.len;
    return gy * npts + gx;
}

/* Set the cone lanes (points, 2m) of f at the frame points within
 * distance r1 of the centre and not within r0 to the nominal row's
 * values: lanes j and m + j at frame point (y, x) to nom at the grid
 * point sample j holds there. */
INLINE void cone_fill(double *restrict f, const double *restrict nom,
                      const struct run *runs, long count, long r0, long r1,
                      long m, long npts)
{
    for (long y = 0; y < npts; y++) {
        long lo, hi, inner_lo, inner_hi;
        if (!cone_span(y, r1, npts, &lo, &hi))
            continue;
        if (!cone_span(y, r0, npts, &inner_lo, &inner_hi))
            inner_lo = inner_hi = hi + 1;
        for (long x = lo; x <= hi; x++) {
            if (x == inner_lo)
                x = inner_hi + 1;
            if (x > hi)
                break;
            double *fq = f + (y * npts + x) * 2 * m;
            for (long ri = 0; ri < count; ri++) {
                long split;
                const double *src = nom + run_point(runs[ri], y, x, npts,
                                                    &split);
                double *dst = fq + runs[ri].j;
                for (long i = 0; i < split; i++)
                    dst[i] = dst[m + i] = src[i];
                for (long i = split; i < runs[ri].len; i++)
                    dst[i] = dst[m + i] = src[i - npts];
            }
        }
    }
}

/* labels (points, 2m): lanes j and m + j at frame point q take the label
 * (plus) of the grid point that cone sample j holds there, for the frame
 * points within distance r of the centre. */
INLINE void cone_labels(long *restrict labels,
                        const unsigned char *restrict plus,
                        const struct run *runs, long count, long r, long m,
                        long npts)
{
    for (long y = 0; y < npts; y++) {
        long lo, hi;
        if (!cone_span(y, r, npts, &lo, &hi))
            continue;
        for (long x = lo; x <= hi; x++)
            for (long ri = 0; ri < count; ri++) {
                long split;
                const long g = run_point(runs[ri], y, x, npts, &split);
                long *lq = labels + (y * npts + x) * 2 * m + runs[ri].j;
                for (long i = 0; i < split; i++)
                    lq[i] = lq[m + i] = plus[g + i];
                for (long i = split; i < runs[ri].len; i++)
                    lq[i] = lq[m + i] = plus[g + i - npts];
            }
    }
}

/* allen_cahn_segment on a segment of the cone lanes (points, 2m), each
 * value taking A and H of the nominal row, rows (A+, A-, H+, H-), by its
 * label. */
INLINE void cone_segment(const double *restrict f,
                         const long *restrict labels,
                         const double *restrict rows, double *restrict g,
                         struct segment s, double c4, double k)
{
    const double ap = rows[0], am = rows[1], hp = rows[2], hm = rows[3];
    const double *l = f + s.l, *r = f + s.r, *u = f + s.u, *d = f + s.d;
    f += s.at, g += s.at, labels += s.at;
    for (long q = 0; q < s.len; q++) {
        const double v = f[q];
        const double a = labels[q] ? ap : am, hc = labels[q] ? hp : hm;
        g[q] = v * (a - c4 * (v * v)) + k * ((l[q] + r[q]) + (u[q] + d[q]))
               + hc;
    }
}

/* One substep of the cone lanes f (points, 2m) into g at the frame points
 * within distance r of the centre. */
INLINE void cone_substep(const double *f, const long *labels,
                         const double *rows, double *g, long r, long m,
                         long npts, struct allen_cahn p)
{
    for (long y = 0; y < npts; y++) {
        struct segment seg[3];
        long lo, hi;
        if (!cone_span(y, r, npts, &lo, &hi))
            continue;
        const int count = row_segments(seg, y, lo, hi, npts, 2 * m);
        for (int i = 0; i < count; i++)
            cone_segment(f, labels, rows, g, seg[i], p.c4, p.k);
    }
}

/* Each cone lane's flag: NaN where the lane holds a non-finite value
 * within distance r of the centre, or, for sample j's lane j, where the
 * nominal row nom holds one beyond distance r of its moved point. */
INLINE void cone_flags(const double *restrict f, const double *restrict nom,
                       double *restrict flag, const struct run *runs,
                       long count, long r, long m, long npts)
{
    const long nc = 2 * m, points = npts * npts, c = npts / 2;
    for (long b = 0; b < nc; b++)
        flag[b] = 0.0;
    for (long y = 0; y < npts; y++) {
        long lo, hi;
        if (!cone_span(y, r, npts, &lo, &hi))
            continue;
        for (long q = y * npts + lo; q <= y * npts + hi; q++)
            for (long b = 0; b < nc; b++)
                flag[b] += 0.0 * f[q * nc + b];
    }
    for (long p = 0; p < points; p++) {
        if (isfinite(nom[p]))
            continue;
        for (long ri = 0; ri < count; ri++)
            for (long i = 0; i < runs[ri].len; i++) {
                /* grid point p in the frame of the run's sample i */
                long y = p / npts - runs[ri].ry,
                     x = p % npts - runs[ri].rx - i;
                y += y < 0 ? npts : 0;
                x += x < 0 ? npts : 0;
                if (labs(y - c) + labs(x - c) > r)
                    flag[runs[ri].j + i] = NAN;
            }
    }
}

/* out[p, j] = (f+ - f-) * 0.5 of a unit of cone samples, at the element
 * strides (sp, sj): the nominal row's +0.0, and then, within distance r
 * of the frame centre, that of the cone lanes f (points, 2m) at the grid
 * points they hold there. */
INLINE void cone_write(const double *restrict f, const struct run *runs,
                       long count, double *restrict out, long m, long npts,
                       long r, long sp, long sj)
{
    for (long p = 0; p < npts * npts; p++)
        for (long j = 0; j < m; j++)
            out[p * sp + j * sj] = 0.0;
    for (long y = 0; y < npts; y++) {
        long lo, hi;
        if (!cone_span(y, r, npts, &lo, &hi))
            continue;
        for (long x = lo; x <= hi; x++)
            for (long ri = 0; ri < count; ri++) {
                long split;
                const long g = run_point(runs[ri], y, x, npts, &split),
                           j = runs[ri].j;
                const double *fp = f + (y * npts + x) * 2 * m + j,
                             *fm = fp + m;
                double *o = out + j * sj;
                for (long i = 0; i < runs[ri].len; i++) {
                    const long gp = i < split ? g + i : g + i - npts;
                    o[gp * sp + i * sj] = (fp[i] - fm[i]) * 0.5;
                }
            }
    }
}

/* A central unit of Allen-Cahn (see the central-difference units above):
 * stepped in light cones, next to its nominal row, if cone_unit holds,
 * else as whole rows. */
VECTOR_CLONES
long allen_cahn_central(const double *x, const double *u, const double *d,
                        const double *du, double *out,
                        const unsigned char *plus, long k, long m,
                        long npts, long st, long sp, long sj, double mob,
                        double gamma, double dx, double dt, long nsub)
{
    const struct allen_cahn p = allen_cahn_factors(mob, gamma, dx, dt);
    const long points = npts * npts, c = npts / 2, nb = 2 * k * m;
    long *at = malloc(m * (sizeof(long) + sizeof(struct run)));
    if (!at)
        return -2;
    if (!cone_unit(x, u, d, du, k, m, points, 4, at)) {
        free(at);
        const long n = points * nb;
        double *w = workspace(4 * n + 8 * nb);
        if (!w)
            return -2;
        double *ctl = w + 4 * n;
        plus_minus_states(x, d, w, k, m, points);
        plus_minus_controls(u, du, ctl, k, m, 4);
        const double *f = allen_cahn_steps(w, ctl + 4 * nb, ctl, plus, nb,
                                           npts, p, nsub);
        const long bad = central_result(f, ctl, out, k, m, points, st, sp, sj);
        free(w);
        return bad;
    }

    struct run *runs = (struct run *)(at + m);
    const long r = cone_radius(nsub);
    /* the cone lanes' field, its next value, their labels and their
     * flags; the nominal row's field, its next value, A and H, one plane
     * each */
    const long cone_field = padded(points * nb), plane = padded(points);
    double *w = workspace(3 * cone_field + padded(nb) + 4 * plane);
    if (!w) {
        free(at);
        return -2;
    }
    double *lf = w, *lg = w + cone_field, *flag = w + 3 * cone_field,
           *nf = flag + padded(nb), *ng = nf + plane, *na = ng + plane,
           *nhc = na + plane;
    long *labels = (long *)(w + 2 * cone_field);
    double rows[4];

    /* the nominal row x under u */
    memcpy(nf, x, points * sizeof(double));
    allen_cahn_route(na, nhc, rows, u, plus, 1, points, p);

    /* the cone lanes, started at their moved points, the frame centre,
     * and their labels */
    double *f0 = lf + (c * npts + c) * nb;
    for (long j = 0; j < m; j++) {
        const double v = x[at[j]], e = d[at[j] * m + j];
        f0[j] = v + e;
        f0[m + j] = v - e;
    }
    const long count = cone_runs(runs, at, m, npts);
    cone_labels(labels, plus, runs, count, r, m, npts);
    for (long s = 1; s <= nsub; s++) {
        cone_fill(lf, nf, runs, count, cone_radius(s - 1),
                  cone_radius(s) + STENCIL_REACH, m, npts);
        allen_cahn_substep(nf, na, nhc, ng, npts, 1, p);
        cone_substep(lf, labels, rows, lg, cone_radius(s), m, npts, p);
        double *t = nf;
        nf = ng;
        ng = t;
        t = lf;
        lf = lg;
        lg = t;
    }
    cone_flags(lf, nf, flag, runs, count, r, m, npts);

    const long bad = first_diverged(flag, 1, m);
    if (bad < 0)
        cone_write(lf, runs, count, out, m, npts, r, sp, sj);
    free(w);
    free(at);
    return bad;
}

/* mu = f*(bc + s4 f^2) - k N(f) + hs on one segment */
INLINE void potential_segment(const double *restrict f,
                              const double *restrict bc,
                              const double *restrict hs,
                              double *restrict mu, struct segment s,
                              double s4, double k)
{
    const double *l = f + s.l, *r = f + s.r, *u = f + s.u, *d = f + s.d;
    f += s.at, bc += s.at, hs += s.at, mu += s.at;
    for (long q = 0; q < s.len; q++) {
        const double v = f[q];
        mu[q] = v * (bc[q] + s4 * (v * v)) - k * ((l[q] + r[q]) + (u[q] + d[q]))
                + hs[q];
    }
}

/* g = f - 4 mu + N(mu) on one segment */
INLINE void conserve_segment(const double *restrict f,
                             const double *restrict mu, double *restrict g,
                             struct segment s)
{
    const double *l = mu + s.l, *r = mu + s.r, *u = mu + s.u, *d = mu + s.d;
    f += s.at, mu += s.at, g += s.at;
    for (long q = 0; q < s.len; q++)
        g[q] = f[q] - 4.0 * mu[q] + ((l[q] + r[q]) + (u[q] + d[q]));
}

/* Step the node-major field at w nsub times under the control rows
 * controls (nb, 4): mu' = f*(B + 4s f^2) - k N(f) + s*h, then
 * f' = f - 4 mu' + N(mu'), with s = dt*mob/dx^2, k = s*gamma/dx^2 and
 * B = 2s*temp + 4k.  w holds 5 n values (the field, its next value, B,
 * s*h and mu; n = npts^2 nb) and rows 4 nb; returns the field of the
 * result. */
SHARED double *cahn_hilliard_steps(double *w, double *rows,
                                   const double *controls,
                                   const unsigned char *plus, long nb,
                                   long npts, double mob, double gamma,
                                   double dx, double dt, long nsub)
{
    const double s = dt * mob / (dx * dx);
    const double k = s * gamma / (dx * dx);
    const double s4 = 4.0 * s;
    const long points = npts * npts, n = points * nb;
    double *bp = rows, *bm = rows + nb, *hp = rows + 2 * nb,
           *hm = rows + 3 * nb;
    for (long b = 0; b < nb; b++) {
        const double *ctl = controls + 4 * b;
        bp[b] = 2.0 * s * ctl[0] + 4.0 * k;
        bm[b] = 2.0 * s * ctl[2] + 4.0 * k;
        hp[b] = s * ctl[1];
        hm[b] = s * ctl[3];
    }
    double *f = w, *g = w + n, *bc = w + 2 * n, *hs = w + 3 * n,
           *mu = w + 4 * n;
    route(bc, plus, bp, bm, points, nb);
    route(hs, plus, hp, hm, points, nb);
    for (long st = 0; st < nsub; st++) {
        struct segment seg[3];
        for (long j = 0; j < npts; j++) {
            const int count = row_segments(seg, j, 0, npts - 1, npts, nb);
            for (int i = 0; i < count; i++)
                potential_segment(f, bc, hs, mu, seg[i], s4, k);
        }
        for (long j = 0; j < npts; j++) {
            const int count = row_segments(seg, j, 0, npts - 1, npts, nb);
            for (int i = 0; i < count; i++)
                conserve_segment(f, mu, g, seg[i]);
        }
        double *t = f;
        f = g;
        g = t;
    }
    return f;
}

VECTOR_CLONES
int cahn_hilliard_batch(const double *phi, const double *controls,
                        const unsigned char *plus, double *out, long nb,
                        long npts, double mob, double gamma, double dx,
                        double dt, long nsub)
{
    const long points = npts * npts, n = points * nb;
    double *w = workspace(5 * n + 4 * nb);
    if (!w)
        return -1;
    to_node_major(phi, w, nb, points);
    to_row_major(cahn_hilliard_steps(w, w + 5 * n, controls, plus, nb, npts,
                                     mob, gamma, dx, dt, nsub),
                 out, nb, points);
    free(w);
    return 0;
}

VECTOR_CLONES
long cahn_hilliard_central(const double *x, const double *u, const double *d,
                           const double *du, double *out,
                           const unsigned char *plus, long k, long m, long npts, long st,
                           long sp, long sj, double mob, double gamma,
                           double dx, double dt, long nsub)
{
    const long nb = 2 * k * m, points = npts * npts, n = points * nb;
    double *w = workspace(5 * n + 8 * nb);
    if (!w)
        return -2;
    double *ctl = w + 5 * n;
    plus_minus_states(x, d, w, k, m, points);
    plus_minus_controls(u, du, ctl, k, m, 4);
    const double *f = cahn_hilliard_steps(w, ctl + 4 * nb, ctl, plus, nb,
                                          npts, mob, gamma, dx, dt, nsub);
    const long bad = central_result(f, ctl, out, k, m, points, st, sp, sj);
    free(w);
    return bad;
}
