/* Batched explicit finite-difference step kernels: the C path of
 * roilqr._kernels, two entries per PDE.
 *
 * <pde>_batch takes the arguments of its numpy kernel in _kernels.py
 * (the batch as row pointers and sizes) and steps the caller's rows.
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

/* The end of a unit whose rows were stepped into f (n, nb): the first
 * sample t*m + j, in (timestep, sample) order, one of whose two rows
 * holds a non-finite value, else -1 after writing out[t, p, j] =
 * (f+ - f-) * 0.5 at the element strides (st, sp, sj).  One sequential
 * pass sums 0 * value over each row into flag (nb values of scratch),
 * which comes out NaN exactly for the rows holding an inf or a NaN. */
SHARED long central_result(const double *restrict f, double *restrict flag,
                           double *restrict out, long k, long m, long n,
                           long st, long sp, long sj)
{
    const long nb = 2 * k * m;
    for (long b = 0; b < nb; b++)
        flag[b] = 0.0;
    for (long p = 0; p < n; p++)
        for (long b = 0; b < nb; b++)
            flag[b] += 0.0 * f[p * nb + b];
    for (long t = 0; t < k; t++)
        for (long j = 0; j < m; j++)
            if (isnan(flag[2 * t * m + j]) || isnan(flag[(2 * t + 1) * m + j]))
                return t * m + j;
    for (long p = 0; p < n; p++)
        for (long t = 0; t < k; t++) {
            const double *fp = f + p * nb + 2 * t * m, *fm = fp + m;
            double *o = out + t * st + p * sp;
            for (long j = 0; j < m; j++)
                o[j * sj] = (fp[j] - fm[j]) * 0.5;
        }
    return -1;
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
 * other buffer and the boundary nodes of both pinned to left[b * cs] and
 * right[b * cs]; returns the buffer of the result. */
SHARED double *burgers_steps(double *bufs[2], const double *left,
                             const double *right, long cs, long nb, long n,
                             double nu, double dx, double dt, long nsub)
{
    const double c_adv = dt / (2.0 * dx);
    const double c_dif = nu * dt / (dx * dx);
    const double k = 1.0 - 2.0 * c_dif;
    for (int w = 0; w < 2; w++)
        for (long b = 0; b < nb; b++) {
            bufs[w][b] = left[b * cs];
            bufs[w][(n - 1) * nb + b] = right[b * cs];
        }
    for (long s = 0; s < nsub; s++)
        burgers_substep(bufs[s & 1], bufs[(s + 1) & 1], (n - 2) * nb, nb,
                        c_adv, c_dif, k);
    return bufs[nsub & 1];
}

VECTOR_CLONES
int burgers_batch(const double *u, const double *left, const double *right,
                  double *out, long nb, long n, double nu, double dx,
                  double dt, long nsub)
{
    const long span = padded(n * nb);
    double *w = workspace(2 * span);
    if (!w)
        return -1;
    double *bufs[2] = {w, w + span};
    to_node_major(u, w, nb, n);
    to_row_major(burgers_steps(bufs, left, right, 1, nb, n, nu, dx, dt, nsub),
                 out, nb, n);
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
    const double *f = burgers_steps(bufs, ctl, ctl + 1, 2, nb, n, nu, dx, dt,
                                    nsub);
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

/* The three segments of grid row j: the first column, the interior
 * columns and the last column, whose left or right neighbours wrap. */
INLINE void row_segments(struct segment seg[3], long j, long npts, long nb)
{
    const long blk = npts * nb, row = j * blk;
    const long up = (j > 0 ? j - 1 : npts - 1) * blk;
    const long down = (j < npts - 1 ? j + 1 : 0) * blk;
    seg[0] = (struct segment){row, nb, row + blk - nb, row + nb, up, down};
    seg[1] = (struct segment){row + nb, blk - 2 * nb, row, row + 2 * nb,
                              up + nb, down + nb};
    seg[2] = (struct segment){row + blk - nb, nb, row + blk - 2 * nb, row,
                              up + blk - nb, down + blk - nb};
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

/* Step the node-major field at w nsub times under the control rows
 * controls (nb, 4): f' = f*(A - 4c f^2) + k N(f) + H, with c = dt*mob,
 * k = c*gamma/dx^2, A = 1 - 4k - 2c*temp and H = -c*h.  w holds 4 n
 * values (the field, its next value, A and H; n = npts^2 nb) and rows
 * 4 nb; returns the field of the result. */
SHARED double *allen_cahn_steps(double *w, double *rows,
                                const double *controls,
                                const unsigned char *plus, long nb,
                                long npts, double mob, double gamma,
                                double dx, double dt, long nsub)
{
    const double c = dt * mob;
    const double k = c * gamma / (dx * dx);
    const double a0 = 1.0 - 4.0 * k;
    const double c4 = 4.0 * c;
    const long points = npts * npts, n = points * nb;
    double *ap = rows, *am = rows + nb, *hp = rows + 2 * nb,
           *hm = rows + 3 * nb;
    for (long b = 0; b < nb; b++) {
        const double *ctl = controls + 4 * b;
        ap[b] = a0 - 2.0 * c * ctl[0];
        am[b] = a0 - 2.0 * c * ctl[2];
        hp[b] = -c * ctl[1];
        hm[b] = -c * ctl[3];
    }
    double *f = w, *g = w + n, *a = w + 2 * n, *hc = w + 3 * n;
    route(a, plus, ap, am, points, nb);
    route(hc, plus, hp, hm, points, nb);
    for (long s = 0; s < nsub; s++) {
        for (long j = 0; j < npts; j++) {
            struct segment seg[3];
            row_segments(seg, j, npts, nb);
            for (int i = 0; i < 3; i++)
                allen_cahn_segment(f, a, hc, g, seg[i], c4, k);
        }
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
                                  mob, gamma, dx, dt, nsub),
                 out, nb, points);
    free(w);
    return 0;
}

VECTOR_CLONES
long allen_cahn_central(const double *x, const double *u, const double *d,
                        const double *du, double *out,
                        const unsigned char *plus, long k, long m, long npts, long st,
                        long sp, long sj, double mob, double gamma,
                        double dx, double dt, long nsub)
{
    const long nb = 2 * k * m, points = npts * npts, n = points * nb;
    double *w = workspace(4 * n + 8 * nb);
    if (!w)
        return -2;
    double *ctl = w + 4 * n;
    plus_minus_states(x, d, w, k, m, points);
    plus_minus_controls(u, du, ctl, k, m, 4);
    const double *f = allen_cahn_steps(w, ctl + 4 * nb, ctl, plus, nb, npts,
                                       mob, gamma, dx, dt, nsub);
    const long bad = central_result(f, ctl, out, k, m, points, st, sp, sj);
    free(w);
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
            row_segments(seg, j, npts, nb);
            for (int i = 0; i < 3; i++)
                potential_segment(f, bc, hs, mu, seg[i], s4, k);
        }
        for (long j = 0; j < npts; j++) {
            row_segments(seg, j, npts, nb);
            for (int i = 0; i < 3; i++)
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
