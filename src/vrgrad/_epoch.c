/* The m inner steps of one epoch of vrgrad.solvers._epochs, compiled.
 *
 * solvers._numpy_steps is the specification: for the same inputs this file
 * returns the same bits.  It does the same floating-point operations in the
 * same order, and it takes from numpy the pieces whose order numpy owns: the
 * row dot (problems._dot) and the l1 sum are numpy's pairwise sums, the dot's
 * of the rounded products, and max, min, clip and sign keep numpy's NaN
 * rules.  No BLAS is called, so the bits depend on neither the CPU kernel a
 * BLAS would pick nor its thread count.  Build with -O3 -ffp-contract=off,
 * and any -march: a fused multiply-add would round once where numpy rounds
 * twice, and nothing else the vectoriser may do reorders a sum.
 *
 * Two shortcuts change the work and not the result.  The l1-ball threshold
 * sorts only the support that Michelot's iteration finds from half the
 * previous step's threshold, or from (total - tau) / d where that is higher,
 * and a guard sends every case it cannot vouch for to the full sort.
 * The l1 penalty steps only packed slots: a coordinate at +0 that the row does
 * not touch, with |eta g_j| <= eta lam, is +0 again after the step, so only the
 * others hold slots, and such coordinates give their slots up when they are
 * more than half of them (penalty_steps).
 *
 * The file also holds the three operations SparseDesignMatrix and the
 * logistic loss would otherwise take from scipy, with scipy's bits: the CSR
 * products X w and X' u in scipy's summation order, and the sigmoid
 * 1/(1+exp(-x)) of scipy.special.expit, which the steps' coefficient shares.
 * They are the one route every product of the smooth part takes, so they
 * take four consecutive full rows at once, where each row's values are a
 * dense row: X w sums the four side by side, and X' u adds them into each
 * entry in row order, vectorised across the entries.  Every sum keeps its
 * order, so no bit moves.
 * Last comes the libsvm reader of vrgrad.data, which has nothing to do with
 * the rest but shares the build.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { SQUARES, LOGISTIC };
enum { BALL, BOX, PENALTY, IDENTITY }; /* IDENTITY is the penalty at lam = 0 */

/* geometry._RESOLUTION, 2**26 eps */
#define RESOLUTION (67108864.0 * DBL_EPSILON)

/* numpy's maximum and minimum: a NaN in either argument wins, a tie returns the second */
static inline double np_max(double a, double b) { return (a > b || a != a) ? a : b; }
static inline double np_min(double a, double b) { return (a < b || a != a) ? a : b; }
static inline double np_sign(double x) { return x > 0.0 ? 1.0 : x < 0.0 ? -1.0 : x == 0.0 ? 0.0 : x; }

/* v - v.clip(-t, t) for t > 0: geometry.soft_threshold_kernel on one entry */
static inline double soft(double x, double t)
{
    double c = x != x ? x : x > -t ? (x < t ? x : t) : -t;
    return x - c;
}

/* two doubles at any double's address */
typedef double pair __attribute__((vector_size(16), aligned(8), may_alias));

/* a[i] and a[i + 1], times b[i] and b[i + 1] unless b is NULL */
static inline pair load_pair(const double *a, const double *b, int64_t i)
{
    pair x = *(const pair *)(a + i);
    if (b)
        x *= *(const pair *)(b + i);
    return x;
}

/* numpy's pairwise sum of a[0..n), or, when b is not NULL, of the products
   a[i] b[i], each rounded before it is added: np.add.reduce's order on a
   contiguous float64 array.  Callers add it to +0, as numpy does, so that
   np.multiply(a, b).sum() is 0.0 + pairwise(a, b, n).  The eight accumulators
   are four pairs, which stay in registers; each lane adds what numpy's adds. */
static double pairwise(const double *a, const double *b, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += b ? a[i] * b[i] : a[i];
        return res;
    }
    if (n <= 128) {
        pair r0 = load_pair(a, b, 0), r2 = load_pair(a, b, 2), r4 = load_pair(a, b, 4),
             r6 = load_pair(a, b, 6);
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += load_pair(a, b, i);
            r2 += load_pair(a, b, i + 2);
            r4 += load_pair(a, b, i + 4);
            r6 += load_pair(a, b, i + 6);
        }
        double res = ((r0[0] + r0[1]) + (r2[0] + r2[1])) + ((r4[0] + r4[1]) + (r6[0] + r6[1]));
        for (; i < n; i++)
            res += b ? a[i] * b[i] : a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, b, n2) + pairwise(a + n2, b ? b + n2 : NULL, n - n2);
}

/* A nonnegative double's bits, complemented: ascending keys are descending values. */
static inline uint64_t key_of(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return ~b;
}

static inline double value_of(uint64_t key)
{
    uint64_t b = ~key;
    double x;
    memcpy(&x, &b, sizeof x);
    return x;
}

static void insertion_sort(uint64_t *key, int64_t n)
{
    for (int64_t i = 1; i < n; i++) {
        uint64_t x = key[i];
        int64_t j = i;
        for (; j > 0 && key[j - 1] > x; j--)
            key[j] = key[j - 1];
        key[j] = x;
    }
}

/* Sort n keys ascending by distributing them over up to 2048 buckets of equal
   width between the least and the greatest, then by the same in any bucket of
   more than 16; a last insertion pass orders the small buckets, moving no key
   out of its bucket.  So a step pays O(n) for keys spread as magnitudes are,
   where a comparison sort would pay O(n log n): qsort in its place, on the
   prefix and in the fallback, made solve_s on solve-l1-ls 16 % slower. */
static void bucket_sort(uint64_t *key, uint64_t *tmp, int64_t n)
{
    if (n > 16) {
        uint64_t lo = key[0], hi = key[0];
        for (int64_t i = 1; i < n; i++) {
            lo = key[i] < lo ? key[i] : lo;
            hi = key[i] > hi ? key[i] : hi;
        }
        if (lo == hi)
            return;
        int bits = 64 - __builtin_clzll((uint64_t)n), top = 64 - __builtin_clzll(hi - lo);
        bits = bits > 11 ? 11 : bits;
        int shift = top > bits ? top - bits : 0;
        int64_t buckets = (int64_t)((hi - lo) >> shift) + 1, start[2050];
        memset(start, 0, (size_t)(buckets + 1) * sizeof *start);
        for (int64_t i = 0; i < n; i++)
            start[((key[i] - lo) >> shift) + 1]++;
        for (int64_t b = 0; b < buckets; b++)
            start[b + 1] += start[b];
        for (int64_t i = 0; i < n; i++)
            tmp[start[(key[i] - lo) >> shift]++] = key[i];
        memcpy(key, tmp, (size_t)n * sizeof *key);
        for (int64_t b = 0, first = 0; b < buckets; first = start[b++])
            if (start[b] - first > 16)
                bucket_sort(key + first, tmp, start[b] - first);
    }
    insertion_sort(key, n);
}

/* The last k < n with s_k > (s_0 + ... + s_k - tau) / (k + 1), s the keys' values
   in descending order, or -1; csum[k] holds that numerator. */
static int64_t last_passing(const uint64_t *key, int64_t n, double tau, double *csum)
{
    double run = 0.0;
    int64_t last = -1;
    for (int64_t k = 0; k < n; k++) {
        double s = value_of(key[k]);
        run += s;
        csum[k] = run - tau;
        if (s > csum[k] / (double)(k + 1))
            last = k;
    }
    return last;
}

/* geometry._l1_ball_by_gaps */
static void l1_ball_by_gaps(const double *v, const double *mags, double *out, int64_t d,
                            double tau, uint64_t *key, uint64_t *tmp)
{
    for (int64_t j = 0; j < d; j++) {
        if (!isfinite(mags[j])) {
            for (int64_t i = 0; i < d; i++)
                out[i] = NAN;
            return;
        }
        key[j] = key_of(mags[j]);
    }
    bucket_sort(key, tmp, d);
    double below = 0.0, below_k = 0.0;
    int64_t k = 0;
    for (int64_t j = 0; j + 1 < d; j++) {
        below += (double)(j + 1) * (value_of(key[j]) - value_of(key[j + 1]));
        if (below < tau) {
            k = j + 1;
            below_k = below;
        }
    }
    double s_k = value_of(key[k]), shift = (tau - below_k) / ((double)k + 1.0);
    for (int64_t j = 0; j < d; j++)
        out[j] = np_sign(v[j]) * np_max((mags[j] - s_k) + shift, 0.0);
}

/* The last passing position of the magnitudes above t, from their sort alone, or -1
   where the guard cannot vouch that no magnitude at or below t passes.  Any t is
   safe: one at or below the threshold makes the kept set hold the support, and
   Michelot's iteration then raises t to the mean excess over tau of the kept
   magnitudes while that drops some of them, so that only the support is sorted.
   Sorted descending, the kept magnitudes are a prefix of the whole, so the
   prefix sums and the test agree with the full sort's there; the guard shows
   that no later position passes, with room for the rounding of every sum
   involved.  The sums that pick t may run in any order. */
static int64_t prefix_passing(const double *mags, int64_t d, double tau, double total, double t,
                              double *csum, uint64_t *key, uint64_t *tmp)
{
    double above = 0.0;
    int64_t big = 0;
    for (int64_t j = 0; j < d; j++)
        if (mags[j] > t) { /* few pass from a warm t, so the branch predicts well */
            key[big++] = key_of(mags[j]);
            above += mags[j];
        }
    while (big) { /* everything left out lies at or below t, whatever the rounding */
        double next = (above - tau) / (double)big;
        if (!(next > t))
            break;
        int64_t kept = 0;
        above = 0.0;
        for (int64_t a = 0; a < big; a++) {
            double s = value_of(key[a]);
            key[kept] = key[a];
            kept += s > next;
            above += s > next ? s : 0.0;
        }
        if (kept == big) /* t = next would leave the guard no room */
            break;
        big = kept;
        t = next;
    }
    if (!big)
        return -1;
    bucket_sort(key, tmp, big);
    int64_t k = last_passing(key, big, tau, csum);
    return csum[big - 1] - (double)big * t > 4.0 * (double)d * DBL_EPSILON * total ? k : -1;
}

/* geometry.l1_ball_kernel(v, tau) into out, given the previous step's threshold
   last, or 0; returns this step's, or 0 where no sort finds one. */
static double l1_ball(const double *v, double *out, int64_t d, double tau, double last,
                      double *mags, double *csum, uint64_t *key, uint64_t *tmp)
{
    for (int64_t j = 0; j < d; j++)
        mags[j] = fabs(v[j]);
    double total = 0.0 + pairwise(mags, NULL, d);
    if (total <= tau) {
        memcpy(out, v, (size_t)d * sizeof *out);
        return 0.0;
    }
    if (!(tau > total * ((double)d * RESOLUTION))) {
        l1_ball_by_gaps(v, mags, out, d, tau, key, tmp);
        return 0.0;
    }
    /* from half the previous threshold or Michelot's first bound (total - tau) / d,
       whichever is higher; where the guard fails, the full sort */
    double t0 = (total - tau) / (double)d, warm = 0.5 * last;
    int64_t k = prefix_passing(mags, d, tau, total, warm > t0 ? warm : t0, csum, key, tmp);
    if (k < 0) {
        for (int64_t j = 0; j < d; j++)
            key[j] = key_of(mags[j]);
        bucket_sort(key, tmp, d);
        k = last_passing(key, d, tau, csum);
    }
    /* np.sign(v) * np.maximum(mags - theta, 0.0) for the finite v this branch
       sees: max(mags - theta, 0) with v's sign bit, and +0 where v is +0 or -0.
       It is formed on the bits, with no branch on mags - theta: written with
       np_sign and np_max, this loop made solve_s on solve-l1-ls 14 % slower. */
    double theta = csum[k] / ((double)k + 1.0);
    for (int64_t j = 0; j < d; j++) {
        double x = mags[j] - theta;
        uint64_t xb, vb, nonzero = -(uint64_t)(v[j] != 0.0);
        memcpy(&xb, &x, sizeof xb);
        memcpy(&vb, &v[j], sizeof vb);
        xb = ((xb & ~(uint64_t)((int64_t)xb >> 63)) | (vb & 0x8000000000000000u)) & nonzero;
        memcpy(&out[j], &xb, sizeof xb);
    }
    return theta;
}

/* scipy's expit */
static inline double sigmoid(double x) { return 1.0 / (1.0 + exp(-x)); }

static inline double coefficient(int64_t loss, double u, double y)
{
    if (loss == SQUARES)
        return u - y;
    return -y * sigmoid(-y * u);
}

/* The m steps of vrgrad_steps under the l1 penalty, at the threshold t = eta lam.
 *
 * Each coordinate that may change in the call has a slot: its index sj, its value
 * wa, eta g_j in ga and, when averaging, its running sum acca, each array packed,
 * and slot_of[j] names the slot, or is -1.  A coordinate without a slot is +0 with
 * |eta g_j| <= t, and a step that its row does not touch leaves it at +0.  So the
 * slots start as the j with w_j not +0 (-0 included) or with |eta g_j| not <= t
 * (NaN included).  A step gathers the row's values, steps every slot in one pass
 * that vectorises, then steps the row's coordinates again from their gathered
 * values, now with the row's term; a coordinate that this moves off +0 gets a
 * slot.  A full row takes one dense pass over all d instead, from the slots
 * scattered into zeros, and the slots read their values back from it: with the
 * gathers through slot_of, a step on a dense 2000 x 500 design took 1.4 times as
 * long.  When more than half the slots hold +0 with |eta g_j| <= t, those slots
 * are dropped, their values written back to w and acc.  soft never returns -0,
 * so a +0 slot adds nothing to its sum, and each coordinate sees the operations
 * of _numpy_steps in its order.
 */
__attribute__((noinline)) /* inlined into vrgrad_steps, it made the ball's steps 4 % slower */
static int penalty_steps(int64_t d, const int64_t *indptr, const int64_t *indices,
                         const double *values, const double *labels, int64_t loss, double t,
                         const int64_t *draws, int64_t m, const double *snap_coef,
                         const double *weight, double eta, const double *g, double *w,
                         double *acc)
{
    size_t nd = d > 0 ? (size_t)d : 1;
    double *fbuf = malloc(4 * nd * sizeof *fbuf);
    int64_t *ibuf = malloc(2 * nd * sizeof *ibuf);
    if (!fbuf || !ibuf) {
        free(fbuf);
        free(ibuf);
        return -1;
    }
    double *row_w = fbuf, *wa = fbuf + nd, *ga = fbuf + 2 * nd, *acca = fbuf + 3 * nd;
    int64_t *slot_of = ibuf, *sj = ibuf + nd, slots = 0;

#define NEW_SLOT(j, x)                                                                            \
    do {                                                                                          \
        slot_of[j] = slots;                                                                       \
        sj[slots] = j;                                                                            \
        wa[slots] = x;                                                                            \
        ga[slots] = g[j];                                                                         \
        if (acc)                                                                                  \
            acca[slots] = acc[j];                                                                 \
        slots++;                                                                                  \
    } while (0)

    for (int64_t j = 0; j < d; j++) {
        slot_of[j] = -1;
        if (!(fabs(g[j]) <= t) || w[j] != 0.0 || signbit(w[j]))
            NEW_SLOT(j, w[j]);
    }
    for (int64_t s = 0; s < m; s++) {
        int64_t i = draws[s], lo = indptr[i], nnz = indptr[i + 1] - lo;
        const double *val = values + lo;
        const int64_t *idx = indices + lo;
        int full = nnz == d;
        if (full) {
            memset(row_w, 0, (size_t)d * sizeof *row_w);
            for (int64_t a = 0; a < slots; a++)
                row_w[sj[a]] = wa[a];
        } else {
            for (int64_t k = 0; k < nnz; k++) {
                int64_t a = slot_of[idx[k]];
                row_w[k] = a < 0 ? 0.0 : wa[a];
            }
        }
        double u = 0.0 + pairwise(val, row_w, nnz); /* problems._dot */
        double c = (coefficient(loss, u, labels[i]) - snap_coef[i]) / weight[i];
        double ec = eta * c;

        if (full) {
            int64_t fresh = 0;
            for (int64_t j = 0; j < d; j++) {
                row_w[j] = soft((row_w[j] - g[j]) - ec * val[j], t);
                fresh += row_w[j] != 0.0;
            }
            for (int64_t a = 0; a < slots; a++) {
                wa[a] = row_w[sj[a]];
                fresh -= wa[a] != 0.0;
            }
            for (int64_t j = 0; fresh > 0 && j < d; j++)
                if (slot_of[j] < 0 && row_w[j] != 0.0) {
                    NEW_SLOT(j, row_w[j]);
                    fresh--;
                }
        } else {
            for (int64_t a = 0; a < slots; a++)
                wa[a] = soft(wa[a] - ga[a], t);
            for (int64_t k = 0; k < nnz; k++) {
                int64_t j = idx[k], a = slot_of[j];
                double x = soft((row_w[k] - g[j]) - ec * val[k], t);
                if (a >= 0)
                    wa[a] = x;
                else if (x != 0.0)
                    NEW_SLOT(j, x);
            }
        }
        if (acc)
            for (int64_t a = 0; a < slots; a++)
                acca[a] += wa[a];

        int64_t idle = 0;
        for (int64_t a = 0; a < slots; a++)
            idle += (wa[a] == 0.0) & (fabs(ga[a]) <= t);
        if (2 * idle > slots) {
            int64_t kept = 0;
            for (int64_t a = 0; a < slots; a++) {
                int64_t j = sj[a];
                if (wa[a] == 0.0 && fabs(ga[a]) <= t) {
                    w[j] = wa[a];
                    if (acc)
                        acc[j] = acca[a];
                    slot_of[j] = -1;
                    continue;
                }
                slot_of[j] = kept;
                sj[kept] = j;
                wa[kept] = wa[a];
                ga[kept] = ga[a];
                if (acc)
                    acca[kept] = acca[a];
                kept++;
            }
            slots = kept;
        }
    }
#undef NEW_SLOT

    for (int64_t a = 0; a < slots; a++) {
        w[sj[a]] = wa[a];
        if (acc)
            acc[sj[a]] = acca[a];
    }
    free(fbuf);
    free(ibuf);
    return 0;
}

/* Run m inner steps from w, in place; add each iterate into acc unless it is NULL.
 *
 * indptr, indices, values: the CSR design with d columns; labels, loss: the loss.
 * side, radius, lower, upper: the side (radius is tau or lam; the bounds are the box's).
 * draws: the m row indices.  snap_coef, weight: per row, the snapshot coefficient
 * and n p_i.  eta, eta_grad: the step and eta times the snapshot gradient; or, when
 * sgd_t >= 0, an SGD epoch whose step t (counted from sgd_t + 1) is eta / sqrt(t),
 * with eta_grad zero and eta_t q in its place when q is not NULL; an SGD epoch
 * runs under a ball or a box only.
 * Returns 0, or -1 when scratch memory cannot be had.
 */
int vrgrad_steps(int64_t d, const int64_t *indptr, const int64_t *indices, const double *values,
                 const double *labels, int64_t loss, int64_t side, double radius,
                 const double *lower, const double *upper, const int64_t *draws, int64_t m,
                 const double *snap_coef, const double *weight, double eta,
                 const double *eta_grad, int64_t sgd_t, const double *q, double *w, double *acc)
{
    if (side == PENALTY)
        return penalty_steps(d, indptr, indices, values, labels, loss, eta * radius, draws, m,
                             snap_coef, weight, eta, eta_grad, w, acc);
    size_t nd = d > 0 ? (size_t)d : 1;
    double *fbuf = malloc(5 * nd * sizeof *fbuf);
    uint64_t *ubuf = malloc(2 * nd * sizeof *ubuf);
    if (!fbuf || !ubuf) {
        free(fbuf);
        free(ubuf);
        return -1;
    }
    double *v = fbuf, *row_w = fbuf + nd, *mags = fbuf + 2 * nd, *csum = fbuf + 3 * nd;
    double *sgd_grad = fbuf + 4 * nd;
    uint64_t *key = ubuf, *tmp = ubuf + nd;
    const double *g = eta_grad;
    if (sgd_t >= 0) {
        memcpy(sgd_grad, eta_grad, (size_t)d * sizeof *sgd_grad);
        g = sgd_grad;
    }

    double theta = 0.0; /* the last l1-ball threshold, reset every call */
    for (int64_t s = 0; s < m; s++) {
        int64_t i = draws[s], lo = indptr[i], nnz = indptr[i + 1] - lo;
        const double *val = values + lo;
        const int64_t *idx = indices + lo;
        int full = nnz == d;
        double e = eta;
        if (sgd_t >= 0) {
            e = eta / sqrt((double)(sgd_t + s + 1));
            if (q)
                for (int64_t j = 0; j < d; j++)
                    sgd_grad[j] = e * q[j];
        }
        double u;
        if (full) {
            u = 0.0 + pairwise(val, w, d); /* problems._dot */
        } else {
            for (int64_t k = 0; k < nnz; k++)
                row_w[k] = w[idx[k]];
            u = 0.0 + pairwise(val, row_w, nnz);
        }
        double c = (coefficient(loss, u, labels[i]) - snap_coef[i]) / weight[i];
        double ec = e * c;

        for (int64_t j = 0; j < d; j++)
            v[j] = w[j] - g[j];
        if (full) {
            for (int64_t j = 0; j < d; j++)
                v[j] -= ec * val[j];
        } else {
            for (int64_t k = 0; k < nnz; k++)
                v[idx[k]] -= ec * val[k];
        }
        switch (side) {
        case BALL:
            theta = l1_ball(v, w, d, radius, theta, mags, csum, key, tmp);
            break;
        case BOX:
            for (int64_t j = 0; j < d; j++)
                w[j] = np_min(np_max(v[j], lower[j]), upper[j]);
            break;
        default:
            memcpy(w, v, (size_t)d * sizeof *w);
        }
        if (acc)
            for (int64_t j = 0; j < d; j++)
                acc[j] += w[j];
    }
    free(fbuf);
    free(ubuf);
    return 0;
}

/* Whether rows i to i + 3 of a CSR matrix with d columns are all full: each then
   holds the columns 0 to d - 1 in order, so its values are a dense row. */
static inline int four_full(const int64_t *indptr, int64_t i, int64_t d)
{
    return indptr[i + 1] - indptr[i] == d && indptr[i + 2] - indptr[i + 1] == d
           && indptr[i + 3] - indptr[i + 2] == d && indptr[i + 4] - indptr[i + 3] == d;
}

/* out = X w for the CSR matrix X of n rows and d columns: each row's products
   summed in order from +0, as scipy's csr_matvec does.  Four consecutive full
   rows are summed side by side, one accumulator each, reading w once. */
void vrgrad_matvec(int64_t n, int64_t d, const int64_t *indptr, const int64_t *indices,
                   const double *values, const double *w, double *out)
{
    int64_t i = 0;
    while (i < n) {
        if (i + 4 <= n && four_full(indptr, i, d)) {
            const double *a = values + indptr[i], *b = a + d, *c = b + d, *e = c + d;
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int64_t j = 0; j < d; j++) {
                s0 += a[j] * w[j];
                s1 += b[j] * w[j];
                s2 += c[j] * w[j];
                s3 += e[j] * w[j];
            }
            out[i] = s0;
            out[i + 1] = s1;
            out[i + 2] = s2;
            out[i + 3] = s3;
            i += 4;
            continue;
        }
        double s = 0.0;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
            s += values[k] * w[indices[k]];
        out[i++] = s;
    }
}

/* out = X' u for the CSR matrix X of n rows and d columns: row i's products
   added into out in row order, as scipy's csc_matvec does on X'.  Four
   consecutive full rows are added into each out[j] in turn, a loop across j
   that -O3 vectorises. */
void vrgrad_rmatvec(int64_t n, int64_t d, const int64_t *indptr, const int64_t *indices,
                    const double *values, const double *u, double *out)
{
    memset(out, 0, (size_t)d * sizeof *out);
    int64_t i = 0;
    while (i < n) {
        if (i + 4 <= n && four_full(indptr, i, d)) {
            const double *a = values + indptr[i], *b = a + d, *c = b + d, *e = c + d;
            double u0 = u[i], u1 = u[i + 1], u2 = u[i + 2], u3 = u[i + 3];
            for (int64_t j = 0; j < d; j++)
                out[j] = (((out[j] + a[j] * u0) + b[j] * u1) + c[j] * u2) + e[j] * u3;
            i += 4;
            continue;
        }
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++)
            out[indices[k]] += values[k] * u[i];
        i++;
    }
}

/* out = 1 / (1 + exp(-x)) elementwise */
void vrgrad_sigmoid(int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = sigmoid(x[i]);
}

/* vrgrad.data._read_libsvm_py, compiled.  vrgrad_libsvm_size checks the bytes of a
 * libsvm file and counts what sizes the outputs; vrgrad_read_libsvm then fills
 * them in one pass, memchr finding the lines and strtod reading the numbers.
 *
 * The Python parser is the specification.  This one takes only the files on
 * which it can promise the same bits, and refuses every other file with -1,
 * so the caller reruns it in Python for the same arrays or the same error:
 * a NUL or a byte >= 0x80 anywhere (Python decodes UTF-8); a \r not followed
 * by \n (universal newlines would end the line there); outside a comment, a
 * byte other than [0-9+-.eE: \t\r\n]; an index that is not 1 to 18 plain
 * digits, or is not above the one before it; a label or value that strtod
 * does not read to the end of its token (so no empty value, no second colon,
 * no decimal comma), or reads as inf or NaN; and a file without a data row.
 * glibc's strtod rounds correctly, as Python's float does, and the allowed
 * bytes leave it no spelling (hex, inf, nan) that float would not read.
 *
 * text[len] must be readable (a Python bytes object ends in a NUL), so that
 * strtod stops at the end of the last token.  labels and indptr hold one
 * more than the count of \n, indices and values the count of ':': a row ends
 * at a \n or at the end, and an entry has a ':' of its own.  On success
 * shape holds the rows, the entries and the largest index.
 */

static inline int blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

static const char *skip_blanks(const char *p, const char *stop)
{
    while (p < stop && blank(*p))
        p++;
    return p;
}

/* Read the token at p, which ends at a blank or at stop, as a finite number into
   out; return the token's end, or NULL. */
static const char *number(const char *p, const char *stop, double *out)
{
    const char *end = p;
    for (; end < stop && !blank(*end); end++)
        if (!((*end >= '0' && *end <= '9') || *end == '+' || *end == '-' || *end == '.'
              || *end == 'e' || *end == 'E'))
            return NULL;
    if (end == p)
        return NULL;
    char *read;
    *out = strtod(p, &read);
    return read == end && isfinite(*out) ? end : NULL;
}

/* Check the bytes of text as the reader needs them, and count its \n and ':' into
   counts; -1 on a NUL, a byte >= 0x80 or a \r not followed by \n. */
int vrgrad_libsvm_size(const char *text, int64_t len, int64_t *counts)
{
    int64_t newlines = 0, colons = 0;
    int bad = 0;
    for (int64_t k = 0; k < len; k++) {
        unsigned char c = (unsigned char)text[k];
        bad |= (unsigned char)(c - 1) >= 0x7f; /* NUL, or 0x80 and above */
        bad |= c == '\r' && (k + 1 == len || text[k + 1] != '\n');
        newlines += c == '\n';
        colons += c == ':';
    }
    counts[0] = newlines;
    counts[1] = colons;
    return bad ? -1 : 0;
}

/* Parse text, which vrgrad_libsvm_size accepted; 0, or -1 where it refuses. */
int vrgrad_read_libsvm(const char *text, int64_t len, double *labels, int64_t *indptr,
                       int64_t *indices, double *values, int64_t *shape)
{
    const char *end = text + len;
    int64_t rows = 0, nnz = 0, max_idx = 0;
    indptr[0] = 0;
    for (const char *p = text; p < end;) {
        const char *eol = memchr(p, '\n', (size_t)(end - p));
        eol = eol ? eol : end;
        const char *stop = memchr(p, '#', (size_t)(eol - p));
        stop = stop ? stop : eol;
        p = skip_blanks(p, stop);
        if (p < stop) {
            if (!(p = number(p, stop, &labels[rows])))
                return -1;
            int64_t prev = 0;
            for (p = skip_blanks(p, stop); p < stop; p = skip_blanks(p, stop)) {
                const char *digits = p;
                int64_t idx = 0;
                for (; p < stop && *p >= '0' && *p <= '9'; p++) {
                    if (p - digits == 18)
                        return -1;
                    idx = 10 * idx + (*p - '0');
                }
                if (p == digits || p == stop || *p != ':' || idx <= prev)
                    return -1;
                if (!(p = number(p + 1, stop, &values[nnz])))
                    return -1;
                indices[nnz++] = idx - 1;
                prev = idx;
            }
            max_idx = prev > max_idx ? prev : max_idx;
            indptr[++rows] = nnz;
        }
        p = eol < end ? eol + 1 : end;
    }
    shape[0] = rows;
    shape[1] = nnz;
    shape[2] = max_idx;
    return rows ? 0 : -1;
}
