/* Batched explicit finite-difference step kernels: the C path of
 * roilqr._kernels, one function per PDE.
 *
 * Each function takes the arguments of its numpy kernel in
 * _kernels.py (the batch as row pointers and sizes) and evaluates the
 * same folded expressions in the same order: the same scalar factors,
 * the same per-row routed coefficients, the four-neighbour sum grouped
 * (left + right) + (up + down), and each substep's update with the
 * numpy kernel's association.  _kernels.py compiles this file without
 * floating-point contraction (-ffp-contract=off) or fast-math, so every
 * operation rounds as it does in numpy and the results are bit-identical
 * to the numpy kernels.
 *
 * The batch is stepped node-major, as in the numpy kernels: value
 * (point p, row b) sits at p * nb + b, so the batch index runs innermost
 * and every loop below is one flat pass over contiguous values that the
 * compiler vectorizes across rows, whatever the row count.  A phase-field
 * substep evaluates its neighbour sum inside its update pass (per grid
 * row, the first column, the interior columns and the last column), so
 * no neighbour sum is written to memory and read back.
 *
 * On x86-64 with glibc, each exported kernel is built three times, for
 * AVX-512F, for AVX2 and for the baseline instruction set, and the
 * dynamic loader picks one clone per kernel for the host when the
 * library is loaded (an ifunc): the compiler flags carry no target, so
 * one cached library serves every x86-64 host.  Neither target enables
 * FMA, and without contraction a vector add or multiply rounds as the
 * scalar one does at any width, so every clone gives the same bits.
 * kernel_isa() names the clone picked.  Elsewhere the kernels are built
 * once, for the flags' target.
 *
 * Every kernel returns 0, or -1 when its workspace cannot be allocated.
 */

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

/* Every helper a clone calls is inlined into it, and so compiled for the
 * clone's target: an out-of-line helper is compiled once, for the
 * baseline. */
#define INLINE static inline __attribute__((always_inline))

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

/* rows (nb, n) row-major -> f (n, nb) node-major, and back */
INLINE void to_node_major(const double *rows, double *f, long nb, long n)
{
    for (long b = 0; b < nb; b++)
        for (long p = 0; p < n; p++)
            f[p * nb + b] = rows[b * n + p];
}

INLINE void to_row_major(const double *f, double *rows, long nb, long n)
{
    for (long b = 0; b < nb; b++)
        for (long p = 0; p < n; p++)
            rows[b * n + p] = f[p * nb + b];
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

VECTOR_CLONES
int burgers_batch(const double *u, const double *left, const double *right,
                  double *out, long nb, long n, double nu, double dx,
                  double dt, long nsub)
{
    const double c_adv = dt / (2.0 * dx);
    const double c_dif = nu * dt / (dx * dx);
    const double k = 1.0 - 2.0 * c_dif;
    double *buf[2] = {workspace(n * nb), workspace(n * nb)};
    if (!buf[0] || !buf[1]) {
        free(buf[0]);
        free(buf[1]);
        return -1;
    }
    to_node_major(u, buf[0], nb, n);
    /* the boundary nodes of both buffers hold the controls throughout */
    for (int w = 0; w < 2; w++)
        for (long b = 0; b < nb; b++) {
            buf[w][b] = left[b];
            buf[w][(n - 1) * nb + b] = right[b];
        }
    for (long s = 0; s < nsub; s++)
        burgers_substep(buf[s & 1], buf[(s + 1) & 1], (n - 2) * nb, nb,
                        c_adv, c_dif, k);
    to_row_major(buf[nsub & 1], out, nb, n);
    free(buf[0]);
    free(buf[1]);
    return 0;
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

/* f' = f*(A - 4c f^2) + k N(f) + H, with c = dt*mob, k = c*gamma/dx^2,
 * A = 1 - 4k - 2c*temp and H = -c*h */
VECTOR_CLONES
int allen_cahn_batch(const double *phi, const double *controls,
                     const unsigned char *plus, double *out, long nb,
                     long npts, double mob, double gamma, double dx,
                     double dt, long nsub)
{
    const double c = dt * mob;
    const double k = c * gamma / (dx * dx);
    const double a0 = 1.0 - 4.0 * k;
    const double c4 = 4.0 * c;
    const long points = npts * npts, n = points * nb;
    double *rows = workspace(4 * nb), *w = workspace(4 * n);
    if (!rows || !w) {
        free(rows);
        free(w);
        return -1;
    }
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
    to_node_major(phi, f, nb, points);
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
    to_row_major(f, out, nb, points);
    free(rows);
    free(w);
    return 0;
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

/* mu' = f*(B + 4s f^2) - k N(f) + s*h, then f' = f - 4 mu' + N(mu'),
 * with s = dt*mob/dx^2, k = s*gamma/dx^2 and B = 2s*temp + 4k */
VECTOR_CLONES
int cahn_hilliard_batch(const double *phi, const double *controls,
                        const unsigned char *plus, double *out, long nb,
                        long npts, double mob, double gamma, double dx,
                        double dt, long nsub)
{
    const double s = dt * mob / (dx * dx);
    const double k = s * gamma / (dx * dx);
    const double s4 = 4.0 * s;
    const long points = npts * npts, n = points * nb;
    double *rows = workspace(4 * nb), *w = workspace(5 * n);
    if (!rows || !w) {
        free(rows);
        free(w);
        return -1;
    }
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
    to_node_major(phi, f, nb, points);
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
    to_row_major(f, out, nb, points);
    free(rows);
    free(w);
    return 0;
}
