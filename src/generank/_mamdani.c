/* Three compiled solvers that mirror Python code expression for
 * expression, the inner search of nested LOOCV built on two of them and
 * on the nearest-neighbour vote, a pass over the tie runs of sorted rows,
 * a reader and a writer of the expression matrix's text, and NumPy's
 * seeding and uniform draws for the perceptron's inner search:
 *
 * mamdani_scores, the batch fuzzy-inference kernel, a plain-C port of
 * generank._mamdani_py. The centroid accumulates in ascending grid
 * order. The grid ordinates and output triangles are tabulated once per
 * call, and each output class only visits the grid points where its
 * triangle is positive: the skipped points contribute exact zeros, so
 * skipping them cannot change a bit of the result. A gene's centroid
 * depends on nothing but its five class heights, so each call keeps a
 * memo of the distinct tuples of heights it meets, keyed on their bits,
 * in a table it allocates and frees itself, so that calls share no
 * state; past MEMO_ENTRIES tuples, or if the table cannot be allocated,
 * the rest are computed without it. Equal keys feed the same operations
 * in the same order, so a remembered score is the score.
 *
 * rank_sums, each row's midranks, the rank sum of one class and the tie
 * term sum(t^3 - t), from the row's values and an order that sorts it: a
 * port of generank.rankers._tie_ranks and the sums taken of it. Any order
 * that sorts a row puts equal values side by side (-0.0 equals 0.0), so
 * the runs, and with them every output, do not depend on how the sort
 * orders ties; the rank sums are half-integers and the tie terms
 * integers, both exact.
 *
 * svm_grid_solve, the linear SVM fits of a grid of box bounds on one
 * training block, a port of generank.classifiers._svm_grid_loop: one
 * Gram matrix, then smo_loop (a port of classifiers._smo_loop) and the
 * weights, bias and query decisions for each bound. Every sum runs left
 * to right, so none depends on BLAS.
 *
 * mlp_grid_solve, the perceptron fits of a grid of hidden widths on one
 * training block, a port of generank.classifiers._mlp_grid_loop: for
 * each width, scg_loop (a port of classifiers._scg_loop, the
 * scaled-conjugate-gradient training loop) and the class-1 output of
 * each query, in one work area per call. One forward pass (a port of
 * classifiers._mlp_forward) serves the training loss and the queries.
 * Every sum runs left to right and exp and log come from the C library
 * on both sides, so neither depends on BLAS or SIMD code paths.
 *
 * parse_matrix_rows, the rows of an expression-matrix TSV in a strict
 * form, to the bits generank.dataio's line-by-line reader gives them.
 * Each cell is read in one pass (read_cell) that checks its form and
 * gathers its digits, eight per step where eight are there (fast_float's
 * SWAR test and combine on a little-endian load), and is converted by
 * the Eisel-Lemire algorithm, exact and several times faster than
 * strtod, which takes the rare cells it leaves. count_lines, a memchr
 * count of the newlines, bounds the rows the caller allocates for.
 *
 * format_rows, rows of float64 values as text, each value as Python's
 * repr writes it, byte for byte: the shortest digits that read back as
 * the value, by Schubfach (Giulietti, 2020) on POW5's powers of ten,
 * laid out in repr's fixed or exponent form. Each row starts with its line of a block of prefixes
 * (gene ids), and the caller's buffer is checked against the most the
 * rows can take before a byte is written.
 *
 * fold_search, the inner search of nested LOOCV for all four
 * classifiers: every fold of a fold assignment gathered, standardized in
 * NumPy's summation order (fold_blocks) and handed to the classifier's
 * scorer, which votes as generank.classifiers._knn_labels votes, fits by
 * svm_grid_solve or mlp_grid_solve, or scores the naive Bayes posteriors
 * by nbc_posteriors, in one call, a port of the Python fold loop of
 * generank.crossval._fold_counts. A fold or candidate that loop would
 * reject is left to it. nbc_posteriors, a port of
 * generank.classifiers._nbc_fit and _nbc_posteriors, takes only pow, log
 * and sqrt from the C library, where Python takes them from it too; every
 * exp, log and log1p that Python takes from NumPy it gets from NumPy, by a
 * callback (ufunc_fn) that applies NumPy's own function to a buffer of
 * values, so that its bits follow whichever SIMD or libm loop NumPy
 * dispatches on the host, as the Python loop's do.
 *
 * derived_seed and initial_weights, ports of NumPy's SeedSequence and
 * PCG64 that fold_search calls for each perceptron fit: the seed
 * generank.crossval._derived_seed derives from the fit's coordinates and
 * the starting weights generank.classifiers._initial_weights draws from
 * it, with numpy.random's bits. Python draws its own seeds and weights
 * with numpy.random. The 128-bit LCG step multiplies 64-bit halves
 * (multiply_128), so no compiler's 128-bit type is needed.
 *
 * The library is built with -ffp-contract=off, so no loop fuses a
 * multiply and an add that the Python code rounds separately, and each
 * produces the same bits as the code it ports. The one exception is a
 * NaN's bits in an SVM fit that overflowed, which svm_train and
 * svm_grid_labels reject.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define GRID 1001

/* The most distinct tuples of class heights one call of mamdani_scores
 * remembers. */
#define MEMO_ENTRIES 16384

/* Goodness points per input grade and the output class of each total,
 * matching the fallback's rule construction. */
static const int FC_POINTS[3] = {0, 1, 2};
static const int VAR_POINTS[3] = {2, 1, 0};
static const int RS_POINTS[3] = {0, 1, 2};
static const int CLASS_OF_TOTAL[7] = {0, 0, 1, 2, 3, 4, 4};

/* Clamp x into [0, 1], count it if it was outside, and grade it
 * low/medium/high under the (a, b) anchor pair. */
static void grade(double x, double a, double b, double mu[3], int64_t *clamped)
{
    double m = 0.5 * (a + b);
    double t;

    if (x < 0.0 || x > 1.0) {
        ++*clamped;
        x = x < 0.0 ? 0.0 : 1.0;
    }
    mu[0] = mu[1] = mu[2] = 0.0;
    if (x <= a) {
        mu[0] = 1.0;
    } else if (x < m) {
        t = (x - a) / (m - a);
        mu[0] = 1.0 - t;
        mu[1] = t;
    } else if (x < b) {
        t = (x - m) / (b - m);
        mu[1] = 1.0 - t;
        mu[2] = t;
    } else {
        mu[2] = 1.0;
    }
}

/* The centroid memo of one call: the score of each distinct tuple of
 * class heights met so far, keyed on the heights' bits. slot[k] holds 0
 * for an empty slot or 1 + the index of its entry, and slots is a power
 * of two at least twice capacity, so that a probe always ends. */
typedef struct {
    uint64_t key[5];
    double score;
} memo_entry;

typedef struct {
    int32_t *slot;
    memo_entry *entry;
    int64_t slots, count, capacity;
} memo_table;

static uint64_t hash_key(const uint64_t key[5])
{
    uint64_t x = 0;
    int k;

    for (k = 0; k < 5; k++) {
        x = (x ^ key[k]) * 0x9e3779b97f4a7c15u;
        x ^= x >> 32;
    }
    return x;
}

/* The entry of the heights h, added with its score still to come (and
 * *added set) when they are new; NULL when they are new and the table
 * is full or was never allocated. */
static memo_entry *memo_find(memo_table *memo, const double h[5], int *added)
{
    uint64_t key[5];
    int64_t k, mask = memo->slots - 1;

    *added = 0;
    if (memo->capacity == 0)
        return NULL;
    memcpy(key, h, sizeof key);
    for (k = (int64_t)(hash_key(key) & (uint64_t)mask); memo->slot[k] != 0; k = (k + 1) & mask)
        if (memcmp(memo->entry[memo->slot[k] - 1].key, key, sizeof key) == 0)
            return &memo->entry[memo->slot[k] - 1];
    if (memo->count == memo->capacity)
        return NULL;
    memcpy(memo->entry[memo->count].key, key, sizeof key);
    memo->slot[k] = (int32_t)++memo->count;
    *added = 1;
    return &memo->entry[memo->count - 1];
}

/* Score n genes into scores[0..n); returns the number of clamped inputs.
 * params holds (alpha, beta) for fold change, variance and rank sum. */
int64_t mamdani_scores(const double *fc, const double *var, const double *rs,
                       const double *params, int64_t n, double *scores)
{
    double ygrid[GRID], tri[5][GRID], agg[GRID];
    int lo[5], hi[5];
    double mu_fc[3], mu_var[3], mu_rs[3], h[5];
    double fire, num, den, c;
    memo_table memo;
    memo_entry *e;
    int64_t g, clamped = 0;
    int i, f, v, s, cls, span_lo, span_hi, added;

    for (i = 0; i < GRID; i++)
        ygrid[i] = i / 1000.0;
    for (cls = 0; cls < 5; cls++) {
        lo[cls] = GRID;
        hi[cls] = -1;
        for (i = 0; i < GRID; i++) {
            tri[cls][i] = 1.0 - fabs(ygrid[i] - cls * 0.25) * 4.0;
            if (tri[cls][i] > 0.0) {
                if (lo[cls] == GRID)
                    lo[cls] = i;
                hi[cls] = i;
            }
        }
    }
    memo.capacity = n < MEMO_ENTRIES ? n : MEMO_ENTRIES;
    for (memo.slots = 2; memo.slots < 2 * memo.capacity; memo.slots *= 2)
        ;
    memo.count = 0;
    memo.slot = calloc((size_t)memo.slots, sizeof *memo.slot);
    memo.entry = malloc(sizeof *memo.entry * (size_t)memo.capacity);
    if (memo.slot == NULL || memo.entry == NULL)
        memo.capacity = 0;

    for (g = 0; g < n; g++) {
        grade(fc[g], params[0], params[1], mu_fc, &clamped);
        grade(var[g], params[2], params[3], mu_var, &clamped);
        grade(rs[g], params[4], params[5], mu_rs, &clamped);

        /* Strongest firing per output class (max over rules, min over parts). */
        for (cls = 0; cls < 5; cls++)
            h[cls] = 0.0;
        for (f = 0; f < 3; f++)
            for (v = 0; v < 3; v++)
                for (s = 0; s < 3; s++) {
                    fire = mu_fc[f];
                    if (mu_var[v] < fire)
                        fire = mu_var[v];
                    if (mu_rs[s] < fire)
                        fire = mu_rs[s];
                    cls = CLASS_OF_TOTAL[FC_POINTS[f] + VAR_POINTS[v] + RS_POINTS[s]];
                    if (fire > h[cls])
                        h[cls] = fire;
                }

        e = memo_find(&memo, h, &added);
        if (e != NULL && !added) {
            scores[g] = e->score;
            continue;
        }

        /* A class of zero height never raises the aggregate, which is
         * zero outside the support of every active class. */
        span_lo = GRID;
        span_hi = -1;
        for (cls = 0; cls < 5; cls++)
            if (h[cls] > 0.0) {
                if (lo[cls] < span_lo)
                    span_lo = lo[cls];
                if (hi[cls] > span_hi)
                    span_hi = hi[cls];
            }

        num = 0.0;
        den = 0.0;
        for (i = span_lo; i <= span_hi; i++)
            agg[i] = 0.0;
        for (cls = 0; cls < 5; cls++) {
            if (h[cls] == 0.0)
                continue;
            for (i = lo[cls]; i <= hi[cls]; i++) {
                c = tri[cls][i] < h[cls] ? tri[cls][i] : h[cls];
                if (c > agg[i])
                    agg[i] = c;
            }
        }
        for (i = span_lo; i <= span_hi; i++) {
            num += ygrid[i] * agg[i];
            den += agg[i];
        }
        scores[g] = num / den;
        if (e != NULL)
            e->score = scores[g];
    }
    free(memo.slot);
    free(memo.entry);
    return clamped;
}

/* The rank-sum statistics of each row of the rows x n matrix X, a port of
 * generank.rankers._tie_ranks and the sums generank.rankers._rank_sums
 * takes of it. Row r of order holds the positions that sort row r of X
 * ascending, in any order among equal values. A run of equal values at
 * sorted positions s..e shares the midrank (s + e + 2) / 2: w[r] gets the
 * sum of the midranks of the samples whose in_class is 1, tie[r] the sum
 * of t * t * t - t over the row's runs of t values, and, when ranks is
 * not NULL, ranks[r * n + j] the midrank of sample j. Returns 0, or -1
 * when order holds a position outside 0..n-1 or does not sort its row. */
int64_t rank_sums(const double *X, const int64_t *order, int64_t rows, int64_t n,
                  const unsigned char *in_class, double *w, int64_t *tie, double *ranks)
{
    const double *x;
    const int64_t *o;
    int64_t r, s, e, t, k, members, twice_w, ties;

    for (r = 0; r < rows; r++) {
        x = X + r * n;
        o = order + r * n;
        for (k = 0; k < n; k++)
            if (o[k] < 0 || o[k] >= n)
                return -1;
        twice_w = 0;
        ties = 0;
        for (s = 0; s < n; s = e + 1) {
            members = in_class[o[s]];
            for (e = s; e + 1 < n && x[o[e + 1]] == x[o[e]]; e++)
                members += in_class[o[e + 1]];
            if (e + 1 < n && x[o[e + 1]] < x[o[e]])
                return -1;
            t = e - s + 1;
            twice_w += members * (s + e + 2);
            ties += t * t * t - t;
            if (ranks != NULL)
                for (k = s; k <= e; k++)
                    ranks[r * n + o[k]] = (double)(s + e + 2) / 2.0;
        }
        w[r] = (double)twice_w / 2.0;
        tie[r] = ties;
    }
    return 0;
}

/* a[0] * b[0] + a[1] * b[1] + ..., added left to right; 0 when m is 0. */
static double dot(const double *a, const double *b, int64_t m)
{
    double acc;
    int64_t i;

    if (m == 0)
        return 0.0;
    acc = a[0] * b[0];
    for (i = 1; i < m; i++)
        acc = acc + a[i] * b[i];
    return acc;
}

/* Pairwise updates of the dual variables alpha of a linear SVM, from
 * Q = (y y^T) * K (n x n, row-major), labels y = +-1 and box bound c,
 * until the violation gap drops below tol. alpha and grad = Q alpha - 1
 * are updated in place, and *gap_out receives the gap of the last scan,
 * which follows the last update even when max_iter ran out. Returns the
 * number of updates made, -1 if max_iter updates did not reach tol (a
 * fit whose last allowed update reached it converged), or
 * -2 if alpha or grad ended up not finite. Which NaN an operation on two
 * NaNs returns depends on the order in which the compiler placed its
 * operands, here and in NumPy alike, so a result that overflowed can
 * differ from the NumPy loop in its NaN bits, though not in its update
 * count or NaN positions. */
static int64_t smo_loop(const double *Q, const double *y, double c, int64_t n,
                        int64_t max_iter, double tol, double *alpha, double *grad,
                        double *gap_out)
{
    int64_t it, k, i, j;
    double f, up, low, f_i, f_j, gap, old_i, old_j, quad, delta, diff, total, di, dj;

    for (it = 0;; it++) {
        /* -y * grad masked to I_up (-inf outside) and I_low (+inf
         * outside); i and j are the first index of the maximum and of
         * the minimum, or of the first NaN, as numpy.argmax and argmin
         * pick them. */
        i = j = 0;
        f_i = f_j = 0.0;
        for (k = 0; k < n; k++) {
            f = -y[k] * grad[k];
            up = ((y[k] > 0.0 && alpha[k] < c) || (y[k] < 0.0 && alpha[k] > 0.0))
                     ? f : -INFINITY;
            low = ((y[k] < 0.0 && alpha[k] < c) || (y[k] > 0.0 && alpha[k] > 0.0))
                      ? f : INFINITY;
            if (k == 0 || (!isnan(f_i) && (isnan(up) || up > f_i))) {
                i = k;
                f_i = up;
            }
            if (k == 0 || (!isnan(f_j) && (isnan(low) || low < f_j))) {
                j = k;
                f_j = low;
            }
        }
        gap = f_i - f_j;
        if (it >= max_iter || gap < tol)
            break;

        old_i = alpha[i];
        old_j = alpha[j];
        if (y[i] != y[j]) {
            quad = Q[i * n + i] + Q[j * n + j] + 2.0 * Q[i * n + j];
            if (quad <= 0.0)
                quad = 1e-12;
            delta = (-grad[i] - grad[j]) / quad;
            diff = old_i - old_j;
            alpha[i] += delta;
            alpha[j] += delta;
            if (diff > 0.0 && alpha[j] < 0.0) {
                alpha[j] = 0.0;
                alpha[i] = diff;
            } else if (diff <= 0.0 && alpha[i] < 0.0) {
                alpha[i] = 0.0;
                alpha[j] = -diff;
            }
            if (diff > 0.0) {
                if (alpha[i] > c) {
                    alpha[i] = c;
                    alpha[j] = c - diff;
                }
            } else {
                if (alpha[j] > c) {
                    alpha[j] = c;
                    alpha[i] = c + diff;
                }
            }
        } else {
            quad = Q[i * n + i] + Q[j * n + j] - 2.0 * Q[i * n + j];
            if (quad <= 0.0)
                quad = 1e-12;
            delta = (grad[i] - grad[j]) / quad;
            total = old_i + old_j;
            alpha[i] -= delta;
            alpha[j] += delta;
            if (total > c) {
                if (alpha[i] > c) {
                    alpha[i] = c;
                    alpha[j] = total - c;
                }
            } else {
                if (alpha[j] < 0.0) {
                    alpha[j] = 0.0;
                    alpha[i] = total;
                }
            }
            if (total > c) {
                if (alpha[j] > c) {
                    alpha[j] = c;
                    alpha[i] = total - c;
                }
            } else {
                if (alpha[i] < 0.0) {
                    alpha[i] = 0.0;
                    alpha[j] = total;
                }
            }
        }
        /* grad += Q[:, i] * di + Q[:, j] * dj, element by element */
        di = alpha[i] - old_i;
        dj = alpha[j] - old_j;
        for (k = 0; k < n; k++)
            grad[k] = grad[k] + (Q[k * n + i] * di + Q[k * n + j] * dj);
    }
    *gap_out = gap;
    for (k = 0; k < n; k++)
        if (!isfinite(alpha[k]) || !isfinite(grad[k]))
            return -2;
    return gap < tol ? it : -1;
}

/* One linear SVM per box bound cs[r], r < n_c, on the samples X (n x d,
 * row-major) with labels y = +-1, as generank.classifiers._svm_grid_loop
 * fits them. Q = (y_i * y_j) * (X_i . X_j) is built once and shared; each
 * bound's duals start at 0 and run through smo_loop into alpha[r * n ...],
 * with gaps[r] and updates[r] as smo_loop reports them (-1 when max_iter
 * ran out, -2 when the fit overflowed). A fit that converged gets its
 * weights (w = sum over samples of alpha_i y_i X_i), its bias and the
 * decision w . q + bias of each of the n_q queries (n_q x d, row-major);
 * the others get NaN there. The bias is the mean of y_i - w . X_i over
 * the free support vectors (sv_tol < alpha_i < c - sv_tol), or else the
 * midpoint between the innermost decisions of the two classes, -0.5 *
 * (max over y = -1 plus min over y = +1). Every sum adds left to right.
 * Returns 0, or -1 if the work arrays could not be allocated. */
int64_t svm_grid_solve(const double *X, const double *y, int64_t n, int64_t d,
                       const double *cs, int64_t n_c, const double *queries,
                       int64_t n_q, int64_t max_iter, double tol, double sv_tol,
                       double *alpha, double *weights, double *bias, double *gaps,
                       int64_t *updates, double *decisions)
{
    double *Q = malloc(sizeof(double) * (size_t)(n * n + 3 * n));
    double *coef, *dec, *grad, *a, *w, c, v, acc, lo, hi;
    int64_t r, i, j, f, count, n_neg, n_pos;

    if (Q == NULL)
        return -1;
    coef = Q + n * n;
    dec = coef + n;
    grad = dec + n;
    for (i = 0; i < n; i++)
        for (j = i; j < n; j++)
            Q[i * n + j] = Q[j * n + i] = (y[i] * y[j]) * dot(X + i * d, X + j * d, d);

    for (r = 0; r < n_c; r++) {
        c = cs[r];
        a = alpha + r * n;
        w = weights + r * d;
        for (i = 0; i < n; i++) {
            a[i] = 0.0;
            grad[i] = -1.0;
        }
        updates[r] = smo_loop(Q, y, c, n, max_iter, tol, a, grad, &gaps[r]);
        if (updates[r] < 0) {
            for (f = 0; f < d; f++)
                w[f] = NAN;
            bias[r] = NAN;
            for (i = 0; i < n_q; i++)
                decisions[r * n_q + i] = NAN;
            continue;
        }

        for (i = 0; i < n; i++)
            coef[i] = a[i] * y[i];
        for (f = 0; f < d; f++) {
            w[f] = X[f] * coef[0];
            for (i = 1; i < n; i++)
                w[f] = w[f] + X[i * d + f] * coef[i];
        }
        for (i = 0; i < n; i++)
            dec[i] = dot(X + i * d, w, d);

        count = 0;
        acc = 0.0;
        for (i = 0; i < n; i++)
            if (a[i] > sv_tol && a[i] < c - sv_tol) {
                v = y[i] - dec[i];
                acc = count++ == 0 ? v : acc + v;
            }
        if (count > 0) {
            bias[r] = acc / (double)count;
        } else {
            /* hi: max over y < 0, lo: min over y > 0, each the first of
             * equal values, as Python's max and min pick them */
            hi = -INFINITY;
            lo = INFINITY;
            for (i = 0, n_neg = n_pos = 0; i < n; i++) {
                if (y[i] < 0.0 && (n_neg++ == 0 || dec[i] > hi))
                    hi = dec[i];
                if (y[i] > 0.0 && (n_pos++ == 0 || dec[i] < lo))
                    lo = dec[i];
            }
            bias[r] = -0.5 * (hi + lo);
        }
        for (i = 0; i < n_q; i++)
            decisions[r * n_q + i] = dot(queries + i * d, w, d) + bias[r];
    }
    free(Q);
    return 0;
}

#define SCG_SIGMA0 1e-4

/* The perceptron with packed weights w (w1 as d x h row-major, b1, w2,
 * b2) on X (n x d, row-major), as classifiers._mlp_forward: hid receives
 * the n x h hidden activations and out the n class-1 outputs, every sum
 * adding left to right, with 1 / (1 + exp(-x)) at both layers. The
 * hidden axis is innermost so that those loops vectorize. */
static void forward(const double *restrict X, int64_t n, int64_t d, int64_t h,
                    const double *restrict w, double *restrict hid,
                    double *restrict out)
{
    const double *w1 = w, *b1 = w + d * h, *w2 = b1 + h;
    int64_t i, j, k;

    for (i = 0; i < n; i++) {
        const double *x = X + i * d;
        double *a = hid + i * h;

        for (j = 0; j < h; j++)
            a[j] = x[0] * w1[j];
        for (k = 1; k < d; k++)
            for (j = 0; j < h; j++)
                a[j] = a[j] + x[k] * w1[k * h + j];
        for (j = 0; j < h; j++)
            a[j] = exp(-(a[j] + b1[j]));
        for (j = 0; j < h; j++)
            a[j] = 1.0 / (1.0 + a[j]);
        out[i] = 1.0 / (1.0 + exp(-(dot(a, w2, h) + w2[h])));
    }
}

/* Penalized cross-entropy of forward's outputs against targets t, and
 * its gradient into g; the loss is computed only when with_loss is set.
 * hid and dh hold n x h values, out n values. Every sum adds left to
 * right from its first term, as in classifiers._fixed_loss_and_grad. */
static double loss_and_grad(const double *restrict X, const double *restrict t,
                            int64_t n, int64_t d, int64_t h, double ridge,
                            const double *restrict w, int with_loss,
                            double *restrict hid, double *restrict dh,
                            double *restrict out, double *restrict g)
{
    const double *w1 = w, *w2 = w + d * h + h;
    double *g_w1 = g, *g_b1 = g + d * h, *g_w2 = g_b1 + h, *g_b2 = g_w2 + h;
    double loss = 0.0, safe, term;
    int64_t i, j, k;

    forward(X, n, d, h, w, hid, out);

    if (with_loss) {
        for (i = 0; i < n; i++) {
            safe = out[i] < 1e-12 ? 1e-12 : out[i];
            safe = safe > 1.0 - 1e-12 ? 1.0 - 1e-12 : safe;
            term = t[i] * log(safe) + (1.0 - t[i]) * log(1.0 - safe);
            loss = i == 0 ? term : loss + term;
        }
        loss = -loss;
        loss += 0.5 * ridge * (dot(w1, w1, d * h) + dot(w2, w2, h));
    }

    /* out becomes delta_out */
    for (i = 0; i < n; i++)
        out[i] = out[i] - t[i];
    *g_b2 = out[0];
    for (i = 1; i < n; i++)
        *g_b2 = *g_b2 + out[i];
    for (i = 0; i < n; i++)
        for (j = 0; j < h; j++)
            dh[i * h + j] = out[i] * w2[j] * hid[i * h + j] * (1.0 - hid[i * h + j]);

    for (j = 0; j < h; j++) {
        g_w2[j] = hid[j] * out[0];
        g_b1[j] = dh[j];
    }
    for (i = 1; i < n; i++)
        for (j = 0; j < h; j++) {
            g_w2[j] = g_w2[j] + hid[i * h + j] * out[i];
            g_b1[j] = g_b1[j] + dh[i * h + j];
        }
    for (j = 0; j < h; j++)
        g_w2[j] = g_w2[j] + ridge * w2[j];
    /* one row of g_w1 at a time, so that it stays in cache */
    for (k = 0; k < d; k++) {
        double *g_k = g_w1 + k * h;

        for (j = 0; j < h; j++)
            g_k[j] = X[k] * dh[j];
        for (i = 1; i < n; i++)
            for (j = 0; j < h; j++)
                g_k[j] = g_k[j] + X[i * d + k] * dh[i * h + j];
        for (j = 0; j < h; j++)
            g_k[j] = g_k[j] + ridge * w1[k * h + j];
    }
    return loss;
}

/* Train the perceptron by scaled conjugate gradients from the packed
 * weights w (d * h + 2 * h + 1 values, updated in place) on X (n x d,
 * row-major) and targets t, until the gradient norm falls below tol, as
 * generank.classifiers._scg_loop does. trace receives the loss after
 * each accepted step, the initial loss first (at most max_iter + 1
 * values), and *trace_len their count. work holds 6 * m + 2 * n * h + n
 * values, m = d * h + 2 * h + 1. Returns the number of iterations run,
 * which is max_iter exactly when the budget ran out: the loop only stops
 * early before spending it. */
static int64_t scg_loop(const double *X, const double *t, int64_t n, int64_t d,
                        int64_t h, double ridge, int64_t max_iter, double tol,
                        double *w, double *trace, int64_t *trace_len, double *work)
{
    int64_t m = d * h + 2 * h + 1, k, i, len = 1;
    double *grad, *r, *p, *s, *trial, *grad_new, *hid, *dh, *out, *swap;
    double loss, loss_new, lam = 1e-6, lam_bar = 0.0, delta = 0.0, p_sq, sigma,
           mu, alpha, comparison, beta;
    int success = 1;

    grad = work;
    r = grad + m;
    p = r + m;
    s = p + m;
    trial = s + m;
    grad_new = trial + m;
    hid = grad_new + m;
    dh = hid + n * h;
    out = dh + n * h;

    loss = loss_and_grad(X, t, n, d, h, ridge, w, 1, hid, dh, out, grad);
    trace[0] = loss;
    for (i = 0; i < m; i++) {
        r[i] = -grad[i];
        p[i] = r[i];
    }
    for (k = 1; k <= max_iter; k++) {
        if (sqrt(dot(r, r, m)) < tol)
            break;
        p_sq = dot(p, p, m);
        if (p_sq == 0.0)
            break;
        if (success) {
            sigma = SCG_SIGMA0 / sqrt(p_sq);
            for (i = 0; i < m; i++)
                trial[i] = w[i] + sigma * p[i];
            loss_and_grad(X, t, n, d, h, ridge, trial, 0, hid, dh, out, s);
            for (i = 0; i < m; i++)
                s[i] = (s[i] - grad[i]) / sigma;
            delta = dot(p, s, m);
        }
        /* Levenberg-style shift keeps the curvature estimate positive. */
        delta += (lam - lam_bar) * p_sq;
        if (delta <= 0.0) {
            lam_bar = 2.0 * (lam - delta / p_sq);
            delta = -delta + lam * p_sq;
            lam = lam_bar;
        }
        mu = dot(p, r, m);
        if (mu == 0.0) {
            memcpy(p, r, sizeof(double) * (size_t)m);
            success = 1;
            continue;
        }
        alpha = mu / delta;
        for (i = 0; i < m; i++)
            trial[i] = w[i] + alpha * p[i];
        loss_new = loss_and_grad(X, t, n, d, h, ridge, trial, 1, hid, dh, out,
                                 grad_new);
        comparison = 2.0 * delta * (loss - loss_new) / (mu * mu);
        if (comparison >= 0.0) {
            memcpy(w, trial, sizeof(double) * (size_t)m);
            loss = loss_new;
            swap = grad;
            grad = grad_new;
            grad_new = swap;
            /* s, free until the next probe, holds r_new = -grad */
            for (i = 0; i < m; i++)
                s[i] = -grad[i];
            lam_bar = 0.0;
            success = 1;
            trace[len++] = loss;
            if (k % m == 0) {
                memcpy(p, s, sizeof(double) * (size_t)m);
            } else {
                beta = (dot(s, s, m) - dot(s, r, m)) / mu;
                for (i = 0; i < m; i++)
                    p[i] = s[i] + beta * p[i];
            }
            swap = r;
            r = s;
            s = swap;
            if (comparison >= 0.75)
                lam *= 0.25;
        } else {
            lam_bar = lam;
            success = 0;
        }
        if (comparison < 0.25)
            lam += delta * (1.0 - comparison) / p_sq;
    }
    *trace_len = len;
    return k - 1;
}

/* One perceptron per hidden width hs[r], r < n_h, on X (n x d, row-major)
 * and targets t, as generank.classifiers._mlp_grid_loop fits them: w holds
 * the fits' packed initial weights one after another (d * h + 2 * h + 1
 * values each) and receives their final weights. Fit r runs scg_loop with
 * its loss trace in traces[r * (max_iter + 1) ...], and trace_lens[r] and
 * steps[r] as scg_loop reports them (max_iter for a capped fit).
 * probabilities[r * n_q + i] receives forward's class-1 output of fit r
 * on query i (n_q x d, row-major). One work area, sized for the widest
 * fit and for the larger of the training and query blocks, serves every
 * fit's training and queries. Returns 0, or -1 if the work area could
 * not be allocated. */
int64_t mlp_grid_solve(const double *X, const double *t, int64_t n, int64_t d,
                       const int64_t *hs, int64_t n_h, double ridge, double *w,
                       const double *queries, int64_t n_q, int64_t max_iter,
                       double tol, double *traces, int64_t *trace_lens,
                       int64_t *steps, double *probabilities)
{
    int64_t r, h, h_max = 0, rows = n > n_q ? n : n_q;
    double *work;

    for (r = 0; r < n_h; r++)
        h_max = hs[r] > h_max ? hs[r] : h_max;
    work = malloc(sizeof(double)
                  * (size_t)(6 * ((d + 2) * h_max + 1) + 2 * rows * h_max + rows));
    if (work == NULL)
        return -1;
    for (r = 0; r < n_h; r++) {
        h = hs[r];
        steps[r] = scg_loop(X, t, n, d, h, ridge, max_iter, tol, w,
                            traces + r * (max_iter + 1), &trace_lens[r], work);
        forward(queries, n_q, d, h, w, work, probabilities + r * n_q);
        w += d * h + 2 * h + 1;
    }
    free(work);
    return 0;
}

static int is_digit(char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* strtod of the len bytes at s, or -1 when strtod does not end exactly
 * there (a locale whose decimal point is not '.'), or -2 when out of
 * memory. */
static int convert(const char *s, int64_t len, double *value)
{
    char small[64], *text = small, *end;
    int ok;

    if (len >= (int64_t)sizeof small && !(text = malloc(len + 1)))
        return -2;
    memcpy(text, s, len);
    text[len] = '\0';
    *value = strtod(text, &end);
    ok = end == text + len;
    if (text != small)
        free(text);
    return ok ? 0 : -1;
}

/* POW5[2 * (q + 342) ...] holds the 128 leading bits of 5^q for
 * -342 <= q <= 324, high word first: for q >= 0, 5^q shifted until its
 * top bit is bit 127 and truncated; for q < 0, floor(2^b / 5^-q) + 1,
 * where b is z + 127 for q >= -27 and 2z + 128 (the sum then truncated
 * to 128 bits) below, z being the least integer with 2^z >= 5^-q. This
 * is fast_float's table, which the reader uses up to q = 308, extended
 * to the q = 324 the writer needs; a test recomputes every row. The
 * rows are also the 128 leading bits of 10^q (10^q = 5^q 2^q), and a
 * test checks that each is that value's floor, plus one exactly for
 * -27 <= q < 0. */
static const uint64_t POW5[2 * 667] = {
    0xeef453d6923bd65au, 0x113faa2906a13b3fu, 0x9558b4661b6565f8u, 0x4ac7ca59a424c507u,
    0xbaaee17fa23ebf76u, 0x5d79bcf00d2df649u, 0xe95a99df8ace6f53u, 0xf4d82c2c107973dcu,
    0x91d8a02bb6c10594u, 0x79071b9b8a4be869u, 0xb64ec836a47146f9u, 0x9748e2826cdee284u,
    0xe3e27a444d8d98b7u, 0xfd1b1b2308169b25u, 0x8e6d8c6ab0787f72u, 0xfe30f0f5e50e20f7u,
    0xb208ef855c969f4fu, 0xbdbd2d335e51a935u, 0xde8b2b66b3bc4723u, 0xad2c788035e61382u,
    0x8b16fb203055ac76u, 0x4c3bcb5021afcc31u, 0xaddcb9e83c6b1793u, 0xdf4abe242a1bbf3du,
    0xd953e8624b85dd78u, 0xd71d6dad34a2af0du, 0x87d4713d6f33aa6bu, 0x8672648c40e5ad68u,
    0xa9c98d8ccb009506u, 0x680efdaf511f18c2u, 0xd43bf0effdc0ba48u, 0x0212bd1b2566def2u,
    0x84a57695fe98746du, 0x014bb630f7604b57u, 0xa5ced43b7e3e9188u, 0x419ea3bd35385e2du,
    0xcf42894a5dce35eau, 0x52064cac828675b9u, 0x818995ce7aa0e1b2u, 0x7343efebd1940993u,
    0xa1ebfb4219491a1fu, 0x1014ebe6c5f90bf8u, 0xca66fa129f9b60a6u, 0xd41a26e077774ef6u,
    0xfd00b897478238d0u, 0x8920b098955522b4u, 0x9e20735e8cb16382u, 0x55b46e5f5d5535b0u,
    0xc5a890362fddbc62u, 0xeb2189f734aa831du, 0xf712b443bbd52b7bu, 0xa5e9ec7501d523e4u,
    0x9a6bb0aa55653b2du, 0x47b233c92125366eu, 0xc1069cd4eabe89f8u, 0x999ec0bb696e840au,
    0xf148440a256e2c76u, 0xc00670ea43ca250du, 0x96cd2a865764dbcau, 0x380406926a5e5728u,
    0xbc807527ed3e12bcu, 0xc605083704f5ecf2u, 0xeba09271e88d976bu, 0xf7864a44c633682eu,
    0x93445b8731587ea3u, 0x7ab3ee6afbe0211du, 0xb8157268fdae9e4cu, 0x5960ea05bad82964u,
    0xe61acf033d1a45dfu, 0x6fb92487298e33bdu, 0x8fd0c16206306babu, 0xa5d3b6d479f8e056u,
    0xb3c4f1ba87bc8696u, 0x8f48a4899877186cu, 0xe0b62e2929aba83cu, 0x331acdabfe94de87u,
    0x8c71dcd9ba0b4925u, 0x9ff0c08b7f1d0b14u, 0xaf8e5410288e1b6fu, 0x07ecf0ae5ee44dd9u,
    0xdb71e91432b1a24au, 0xc9e82cd9f69d6150u, 0x892731ac9faf056eu, 0xbe311c083a225cd2u,
    0xab70fe17c79ac6cau, 0x6dbd630a48aaf406u, 0xd64d3d9db981787du, 0x092cbbccdad5b108u,
    0x85f0468293f0eb4eu, 0x25bbf56008c58ea5u, 0xa76c582338ed2621u, 0xaf2af2b80af6f24eu,
    0xd1476e2c07286faau, 0x1af5af660db4aee1u, 0x82cca4db847945cau, 0x50d98d9fc890ed4du,
    0xa37fce126597973cu, 0xe50ff107bab528a0u, 0xcc5fc196fefd7d0cu, 0x1e53ed49a96272c8u,
    0xff77b1fcbebcdc4fu, 0x25e8e89c13bb0f7au, 0x9faacf3df73609b1u, 0x77b191618c54e9acu,
    0xc795830d75038c1du, 0xd59df5b9ef6a2417u, 0xf97ae3d0d2446f25u, 0x4b0573286b44ad1du,
    0x9becce62836ac577u, 0x4ee367f9430aec32u, 0xc2e801fb244576d5u, 0x229c41f793cda73fu,
    0xf3a20279ed56d48au, 0x6b43527578c1110fu, 0x9845418c345644d6u, 0x830a13896b78aaa9u,
    0xbe5691ef416bd60cu, 0x23cc986bc656d553u, 0xedec366b11c6cb8fu, 0x2cbfbe86b7ec8aa8u,
    0x94b3a202eb1c3f39u, 0x7bf7d71432f3d6a9u, 0xb9e08a83a5e34f07u, 0xdaf5ccd93fb0cc53u,
    0xe858ad248f5c22c9u, 0xd1b3400f8f9cff68u, 0x91376c36d99995beu, 0x23100809b9c21fa1u,
    0xb58547448ffffb2du, 0xabd40a0c2832a78au, 0xe2e69915b3fff9f9u, 0x16c90c8f323f516cu,
    0x8dd01fad907ffc3bu, 0xae3da7d97f6792e3u, 0xb1442798f49ffb4au, 0x99cd11cfdf41779cu,
    0xdd95317f31c7fa1du, 0x40405643d711d583u, 0x8a7d3eef7f1cfc52u, 0x482835ea666b2572u,
    0xad1c8eab5ee43b66u, 0xda3243650005eecfu, 0xd863b256369d4a40u, 0x90bed43e40076a82u,
    0x873e4f75e2224e68u, 0x5a7744a6e804a291u, 0xa90de3535aaae202u, 0x711515d0a205cb36u,
    0xd3515c2831559a83u, 0x0d5a5b44ca873e03u, 0x8412d9991ed58091u, 0xe858790afe9486c2u,
    0xa5178fff668ae0b6u, 0x626e974dbe39a872u, 0xce5d73ff402d98e3u, 0xfb0a3d212dc8128fu,
    0x80fa687f881c7f8eu, 0x7ce66634bc9d0b99u, 0xa139029f6a239f72u, 0x1c1fffc1ebc44e80u,
    0xc987434744ac874eu, 0xa327ffb266b56220u, 0xfbe9141915d7a922u, 0x4bf1ff9f0062baa8u,
    0x9d71ac8fada6c9b5u, 0x6f773fc3603db4a9u, 0xc4ce17b399107c22u, 0xcb550fb4384d21d3u,
    0xf6019da07f549b2bu, 0x7e2a53a146606a48u, 0x99c102844f94e0fbu, 0x2eda7444cbfc426du,
    0xc0314325637a1939u, 0xfa911155fefb5308u, 0xf03d93eebc589f88u, 0x793555ab7eba27cau,
    0x96267c7535b763b5u, 0x4bc1558b2f3458deu, 0xbbb01b9283253ca2u, 0x9eb1aaedfb016f16u,
    0xea9c227723ee8bcbu, 0x465e15a979c1cadcu, 0x92a1958a7675175fu, 0x0bfacd89ec191ec9u,
    0xb749faed14125d36u, 0xcef980ec671f667bu, 0xe51c79a85916f484u, 0x82b7e12780e7401au,
    0x8f31cc0937ae58d2u, 0xd1b2ecb8b0908810u, 0xb2fe3f0b8599ef07u, 0x861fa7e6dcb4aa15u,
    0xdfbdcece67006ac9u, 0x67a791e093e1d49au, 0x8bd6a141006042bdu, 0xe0c8bb2c5c6d24e0u,
    0xaecc49914078536du, 0x58fae9f773886e18u, 0xda7f5bf590966848u, 0xaf39a475506a899eu,
    0x888f99797a5e012du, 0x6d8406c952429603u, 0xaab37fd7d8f58178u, 0xc8e5087ba6d33b83u,
    0xd5605fcdcf32e1d6u, 0xfb1e4a9a90880a64u, 0x855c3be0a17fcd26u, 0x5cf2eea09a55067fu,
    0xa6b34ad8c9dfc06fu, 0xf42faa48c0ea481eu, 0xd0601d8efc57b08bu, 0xf13b94daf124da26u,
    0x823c12795db6ce57u, 0x76c53d08d6b70858u, 0xa2cb1717b52481edu, 0x54768c4b0c64ca6eu,
    0xcb7ddcdda26da268u, 0xa9942f5dcf7dfd09u, 0xfe5d54150b090b02u, 0xd3f93b35435d7c4cu,
    0x9efa548d26e5a6e1u, 0xc47bc5014a1a6dafu, 0xc6b8e9b0709f109au, 0x359ab6419ca1091bu,
    0xf867241c8cc6d4c0u, 0xc30163d203c94b62u, 0x9b407691d7fc44f8u, 0x79e0de63425dcf1du,
    0xc21094364dfb5636u, 0x985915fc12f542e4u, 0xf294b943e17a2bc4u, 0x3e6f5b7b17b2939du,
    0x979cf3ca6cec5b5au, 0xa705992ceecf9c42u, 0xbd8430bd08277231u, 0x50c6ff782a838353u,
    0xece53cec4a314ebdu, 0xa4f8bf5635246428u, 0x940f4613ae5ed136u, 0x871b7795e136be99u,
    0xb913179899f68584u, 0x28e2557b59846e3fu, 0xe757dd7ec07426e5u, 0x331aeada2fe589cfu,
    0x9096ea6f3848984fu, 0x3ff0d2c85def7621u, 0xb4bca50b065abe63u, 0x0fed077a756b53a9u,
    0xe1ebce4dc7f16dfbu, 0xd3e8495912c62894u, 0x8d3360f09cf6e4bdu, 0x64712dd7abbbd95cu,
    0xb080392cc4349decu, 0xbd8d794d96aacfb3u, 0xdca04777f541c567u, 0xecf0d7a0fc5583a0u,
    0x89e42caaf9491b60u, 0xf41686c49db57244u, 0xac5d37d5b79b6239u, 0x311c2875c522ced5u,
    0xd77485cb25823ac7u, 0x7d633293366b828bu, 0x86a8d39ef77164bcu, 0xae5dff9c02033197u,
    0xa8530886b54dbdebu, 0xd9f57f830283fdfcu, 0xd267caa862a12d66u, 0xd072df63c324fd7bu,
    0x8380dea93da4bc60u, 0x4247cb9e59f71e6du, 0xa46116538d0deb78u, 0x52d9be85f074e608u,
    0xcd795be870516656u, 0x67902e276c921f8bu, 0x806bd9714632dff6u, 0x00ba1cd8a3db53b6u,
    0xa086cfcd97bf97f3u, 0x80e8a40eccd228a4u, 0xc8a883c0fdaf7df0u, 0x6122cd128006b2cdu,
    0xfad2a4b13d1b5d6cu, 0x796b805720085f81u, 0x9cc3a6eec6311a63u, 0xcbe3303674053bb0u,
    0xc3f490aa77bd60fcu, 0xbedbfc4411068a9cu, 0xf4f1b4d515acb93bu, 0xee92fb5515482d44u,
    0x991711052d8bf3c5u, 0x751bdd152d4d1c4au, 0xbf5cd54678eef0b6u, 0xd262d45a78a0635du,
    0xef340a98172aace4u, 0x86fb897116c87c34u, 0x9580869f0e7aac0eu, 0xd45d35e6ae3d4da0u,
    0xbae0a846d2195712u, 0x8974836059cca109u, 0xe998d258869facd7u, 0x2bd1a438703fc94bu,
    0x91ff83775423cc06u, 0x7b6306a34627ddcfu, 0xb67f6455292cbf08u, 0x1a3bc84c17b1d542u,
    0xe41f3d6a7377eecau, 0x20caba5f1d9e4a93u, 0x8e938662882af53eu, 0x547eb47b7282ee9cu,
    0xb23867fb2a35b28du, 0xe99e619a4f23aa43u, 0xdec681f9f4c31f31u, 0x6405fa00e2ec94d4u,
    0x8b3c113c38f9f37eu, 0xde83bc408dd3dd04u, 0xae0b158b4738705eu, 0x9624ab50b148d445u,
    0xd98ddaee19068c76u, 0x3badd624dd9b0957u, 0x87f8a8d4cfa417c9u, 0xe54ca5d70a80e5d6u,
    0xa9f6d30a038d1dbcu, 0x5e9fcf4ccd211f4cu, 0xd47487cc8470652bu, 0x7647c3200069671fu,
    0x84c8d4dfd2c63f3bu, 0x29ecd9f40041e073u, 0xa5fb0a17c777cf09u, 0xf468107100525890u,
    0xcf79cc9db955c2ccu, 0x7182148d4066eeb4u, 0x81ac1fe293d599bfu, 0xc6f14cd848405530u,
    0xa21727db38cb002fu, 0xb8ada00e5a506a7cu, 0xca9cf1d206fdc03bu, 0xa6d90811f0e4851cu,
    0xfd442e4688bd304au, 0x908f4a166d1da663u, 0x9e4a9cec15763e2eu, 0x9a598e4e043287feu,
    0xc5dd44271ad3cdbau, 0x40eff1e1853f29fdu, 0xf7549530e188c128u, 0xd12bee59e68ef47cu,
    0x9a94dd3e8cf578b9u, 0x82bb74f8301958ceu, 0xc13a148e3032d6e7u, 0xe36a52363c1faf01u,
    0xf18899b1bc3f8ca1u, 0xdc44e6c3cb279ac1u, 0x96f5600f15a7b7e5u, 0x29ab103a5ef8c0b9u,
    0xbcb2b812db11a5deu, 0x7415d448f6b6f0e7u, 0xebdf661791d60f56u, 0x111b495b3464ad21u,
    0x936b9fcebb25c995u, 0xcab10dd900beec34u, 0xb84687c269ef3bfbu, 0x3d5d514f40eea742u,
    0xe65829b3046b0afau, 0x0cb4a5a3112a5112u, 0x8ff71a0fe2c2e6dcu, 0x47f0e785eaba72abu,
    0xb3f4e093db73a093u, 0x59ed216765690f56u, 0xe0f218b8d25088b8u, 0x306869c13ec3532cu,
    0x8c974f7383725573u, 0x1e414218c73a13fbu, 0xafbd2350644eeacfu, 0xe5d1929ef90898fau,
    0xdbac6c247d62a583u, 0xdf45f746b74abf39u, 0x894bc396ce5da772u, 0x6b8bba8c328eb783u,
    0xab9eb47c81f5114fu, 0x066ea92f3f326564u, 0xd686619ba27255a2u, 0xc80a537b0efefebdu,
    0x8613fd0145877585u, 0xbd06742ce95f5f36u, 0xa798fc4196e952e7u, 0x2c48113823b73704u,
    0xd17f3b51fca3a7a0u, 0xf75a15862ca504c5u, 0x82ef85133de648c4u, 0x9a984d73dbe722fbu,
    0xa3ab66580d5fdaf5u, 0xc13e60d0d2e0ebbau, 0xcc963fee10b7d1b3u, 0x318df905079926a8u,
    0xffbbcfe994e5c61fu, 0xfdf17746497f7052u, 0x9fd561f1fd0f9bd3u, 0xfeb6ea8bedefa633u,
    0xc7caba6e7c5382c8u, 0xfe64a52ee96b8fc0u, 0xf9bd690a1b68637bu, 0x3dfdce7aa3c673b0u,
    0x9c1661a651213e2du, 0x06bea10ca65c084eu, 0xc31bfa0fe5698db8u, 0x486e494fcff30a62u,
    0xf3e2f893dec3f126u, 0x5a89dba3c3efccfau, 0x986ddb5c6b3a76b7u, 0xf89629465a75e01cu,
    0xbe89523386091465u, 0xf6bbb397f1135823u, 0xee2ba6c0678b597fu, 0x746aa07ded582e2cu,
    0x94db483840b717efu, 0xa8c2a44eb4571cdcu, 0xba121a4650e4ddebu, 0x92f34d62616ce413u,
    0xe896a0d7e51e1566u, 0x77b020baf9c81d17u, 0x915e2486ef32cd60u, 0x0ace1474dc1d122eu,
    0xb5b5ada8aaff80b8u, 0x0d819992132456bau, 0xe3231912d5bf60e6u, 0x10e1fff697ed6c69u,
    0x8df5efabc5979c8fu, 0xca8d3ffa1ef463c1u, 0xb1736b96b6fd83b3u, 0xbd308ff8a6b17cb2u,
    0xddd0467c64bce4a0u, 0xac7cb3f6d05ddbdeu, 0x8aa22c0dbef60ee4u, 0x6bcdf07a423aa96bu,
    0xad4ab7112eb3929du, 0x86c16c98d2c953c6u, 0xd89d64d57a607744u, 0xe871c7bf077ba8b7u,
    0x87625f056c7c4a8bu, 0x11471cd764ad4972u, 0xa93af6c6c79b5d2du, 0xd598e40d3dd89bcfu,
    0xd389b47879823479u, 0x4aff1d108d4ec2c3u, 0x843610cb4bf160cbu, 0xcedf722a585139bau,
    0xa54394fe1eedb8feu, 0xc2974eb4ee658828u, 0xce947a3da6a9273eu, 0x733d226229feea32u,
    0x811ccc668829b887u, 0x0806357d5a3f525fu, 0xa163ff802a3426a8u, 0xca07c2dcb0cf26f7u,
    0xc9bcff6034c13052u, 0xfc89b393dd02f0b5u, 0xfc2c3f3841f17c67u, 0xbbac2078d443ace2u,
    0x9d9ba7832936edc0u, 0xd54b944b84aa4c0du, 0xc5029163f384a931u, 0x0a9e795e65d4df11u,
    0xf64335bcf065d37du, 0x4d4617b5ff4a16d5u, 0x99ea0196163fa42eu, 0x504bced1bf8e4e45u,
    0xc06481fb9bcf8d39u, 0xe45ec2862f71e1d6u, 0xf07da27a82c37088u, 0x5d767327bb4e5a4cu,
    0x964e858c91ba2655u, 0x3a6a07f8d510f86fu, 0xbbe226efb628afeau, 0x890489f70a55368bu,
    0xeadab0aba3b2dbe5u, 0x2b45ac74ccea842eu, 0x92c8ae6b464fc96fu, 0x3b0b8bc90012929du,
    0xb77ada0617e3bbcbu, 0x09ce6ebb40173744u, 0xe55990879ddcaabdu, 0xcc420a6a101d0515u,
    0x8f57fa54c2a9eab6u, 0x9fa946824a12232du, 0xb32df8e9f3546564u, 0x47939822dc96abf9u,
    0xdff9772470297ebdu, 0x59787e2b93bc56f7u, 0x8bfbea76c619ef36u, 0x57eb4edb3c55b65au,
    0xaefae51477a06b03u, 0xede622920b6b23f1u, 0xdab99e59958885c4u, 0xe95fab368e45ecedu,
    0x88b402f7fd75539bu, 0x11dbcb0218ebb414u, 0xaae103b5fcd2a881u, 0xd652bdc29f26a119u,
    0xd59944a37c0752a2u, 0x4be76d3346f0495fu, 0x857fcae62d8493a5u, 0x6f70a4400c562ddbu,
    0xa6dfbd9fb8e5b88eu, 0xcb4ccd500f6bb952u, 0xd097ad07a71f26b2u, 0x7e2000a41346a7a7u,
    0x825ecc24c873782fu, 0x8ed400668c0c28c8u, 0xa2f67f2dfa90563bu, 0x728900802f0f32fau,
    0xcbb41ef979346bcau, 0x4f2b40a03ad2ffb9u, 0xfea126b7d78186bcu, 0xe2f610c84987bfa8u,
    0x9f24b832e6b0f436u, 0x0dd9ca7d2df4d7c9u, 0xc6ede63fa05d3143u, 0x91503d1c79720dbbu,
    0xf8a95fcf88747d94u, 0x75a44c6397ce912au, 0x9b69dbe1b548ce7cu, 0xc986afbe3ee11abau,
    0xc24452da229b021bu, 0xfbe85badce996168u, 0xf2d56790ab41c2a2u, 0xfae27299423fb9c3u,
    0x97c560ba6b0919a5u, 0xdccd879fc967d41au, 0xbdb6b8e905cb600fu, 0x5400e987bbc1c920u,
    0xed246723473e3813u, 0x290123e9aab23b68u, 0x9436c0760c86e30bu, 0xf9a0b6720aaf6521u,
    0xb94470938fa89bceu, 0xf808e40e8d5b3e69u, 0xe7958cb87392c2c2u, 0xb60b1d1230b20e04u,
    0x90bd77f3483bb9b9u, 0xb1c6f22b5e6f48c2u, 0xb4ecd5f01a4aa828u, 0x1e38aeb6360b1af3u,
    0xe2280b6c20dd5232u, 0x25c6da63c38de1b0u, 0x8d590723948a535fu, 0x579c487e5a38ad0eu,
    0xb0af48ec79ace837u, 0x2d835a9df0c6d851u, 0xdcdb1b2798182244u, 0xf8e431456cf88e65u,
    0x8a08f0f8bf0f156bu, 0x1b8e9ecb641b58ffu, 0xac8b2d36eed2dac5u, 0xe272467e3d222f3fu,
    0xd7adf884aa879177u, 0x5b0ed81dcc6abb0fu, 0x86ccbb52ea94baeau, 0x98e947129fc2b4e9u,
    0xa87fea27a539e9a5u, 0x3f2398d747b36224u, 0xd29fe4b18e88640eu, 0x8eec7f0d19a03aadu,
    0x83a3eeeef9153e89u, 0x1953cf68300424acu, 0xa48ceaaab75a8e2bu, 0x5fa8c3423c052dd7u,
    0xcdb02555653131b6u, 0x3792f412cb06794du, 0x808e17555f3ebf11u, 0xe2bbd88bbee40bd0u,
    0xa0b19d2ab70e6ed6u, 0x5b6aceaeae9d0ec4u, 0xc8de047564d20a8bu, 0xf245825a5a445275u,
    0xfb158592be068d2eu, 0xeed6e2f0f0d56712u, 0x9ced737bb6c4183du, 0x55464dd69685606bu,
    0xc428d05aa4751e4cu, 0xaa97e14c3c26b886u, 0xf53304714d9265dfu, 0xd53dd99f4b3066a8u,
    0x993fe2c6d07b7fabu, 0xe546a8038efe4029u, 0xbf8fdb78849a5f96u, 0xde98520472bdd033u,
    0xef73d256a5c0f77cu, 0x963e66858f6d4440u, 0x95a8637627989aadu, 0xdde7001379a44aa8u,
    0xbb127c53b17ec159u, 0x5560c018580d5d52u, 0xe9d71b689dde71afu, 0xaab8f01e6e10b4a6u,
    0x9226712162ab070du, 0xcab3961304ca70e8u, 0xb6b00d69bb55c8d1u, 0x3d607b97c5fd0d22u,
    0xe45c10c42a2b3b05u, 0x8cb89a7db77c506au, 0x8eb98a7a9a5b04e3u, 0x77f3608e92adb242u,
    0xb267ed1940f1c61cu, 0x55f038b237591ed3u, 0xdf01e85f912e37a3u, 0x6b6c46dec52f6688u,
    0x8b61313bbabce2c6u, 0x2323ac4b3b3da015u, 0xae397d8aa96c1b77u, 0xabec975e0a0d081au,
    0xd9c7dced53c72255u, 0x96e7bd358c904a21u, 0x881cea14545c7575u, 0x7e50d64177da2e54u,
    0xaa242499697392d2u, 0xdde50bd1d5d0b9e9u, 0xd4ad2dbfc3d07787u, 0x955e4ec64b44e864u,
    0x84ec3c97da624ab4u, 0xbd5af13bef0b113eu, 0xa6274bbdd0fadd61u, 0xecb1ad8aeacdd58eu,
    0xcfb11ead453994bau, 0x67de18eda5814af2u, 0x81ceb32c4b43fcf4u, 0x80eacf948770ced7u,
    0xa2425ff75e14fc31u, 0xa1258379a94d028du, 0xcad2f7f5359a3b3eu, 0x096ee45813a04330u,
    0xfd87b5f28300ca0du, 0x8bca9d6e188853fcu, 0x9e74d1b791e07e48u, 0x775ea264cf55347eu,
    0xc612062576589ddau, 0x95364afe032a819eu, 0xf79687aed3eec551u, 0x3a83ddbd83f52205u,
    0x9abe14cd44753b52u, 0xc4926a9672793543u, 0xc16d9a0095928a27u, 0x75b7053c0f178294u,
    0xf1c90080baf72cb1u, 0x5324c68b12dd6339u, 0x971da05074da7beeu, 0xd3f6fc16ebca5e04u,
    0xbce5086492111aeau, 0x88f4bb1ca6bcf585u, 0xec1e4a7db69561a5u, 0x2b31e9e3d06c32e6u,
    0x9392ee8e921d5d07u, 0x3aff322e62439fd0u, 0xb877aa3236a4b449u, 0x09befeb9fad487c3u,
    0xe69594bec44de15bu, 0x4c2ebe687989a9b4u, 0x901d7cf73ab0acd9u, 0x0f9d37014bf60a11u,
    0xb424dc35095cd80fu, 0x538484c19ef38c95u, 0xe12e13424bb40e13u, 0x2865a5f206b06fbau,
    0x8cbccc096f5088cbu, 0xf93f87b7442e45d4u, 0xafebff0bcb24aafeu, 0xf78f69a51539d749u,
    0xdbe6fecebdedd5beu, 0xb573440e5a884d1cu, 0x89705f4136b4a597u, 0x31680a88f8953031u,
    0xabcc77118461cefcu, 0xfdc20d2b36ba7c3eu, 0xd6bf94d5e57a42bcu, 0x3d32907604691b4du,
    0x8637bd05af6c69b5u, 0xa63f9a49c2c1b110u, 0xa7c5ac471b478423u, 0x0fcf80dc33721d54u,
    0xd1b71758e219652bu, 0xd3c36113404ea4a9u, 0x83126e978d4fdf3bu, 0x645a1cac083126eau,
    0xa3d70a3d70a3d70au, 0x3d70a3d70a3d70a4u, 0xccccccccccccccccu, 0xcccccccccccccccdu,
    0x8000000000000000u, 0x0000000000000000u, 0xa000000000000000u, 0x0000000000000000u,
    0xc800000000000000u, 0x0000000000000000u, 0xfa00000000000000u, 0x0000000000000000u,
    0x9c40000000000000u, 0x0000000000000000u, 0xc350000000000000u, 0x0000000000000000u,
    0xf424000000000000u, 0x0000000000000000u, 0x9896800000000000u, 0x0000000000000000u,
    0xbebc200000000000u, 0x0000000000000000u, 0xee6b280000000000u, 0x0000000000000000u,
    0x9502f90000000000u, 0x0000000000000000u, 0xba43b74000000000u, 0x0000000000000000u,
    0xe8d4a51000000000u, 0x0000000000000000u, 0x9184e72a00000000u, 0x0000000000000000u,
    0xb5e620f480000000u, 0x0000000000000000u, 0xe35fa931a0000000u, 0x0000000000000000u,
    0x8e1bc9bf04000000u, 0x0000000000000000u, 0xb1a2bc2ec5000000u, 0x0000000000000000u,
    0xde0b6b3a76400000u, 0x0000000000000000u, 0x8ac7230489e80000u, 0x0000000000000000u,
    0xad78ebc5ac620000u, 0x0000000000000000u, 0xd8d726b7177a8000u, 0x0000000000000000u,
    0x878678326eac9000u, 0x0000000000000000u, 0xa968163f0a57b400u, 0x0000000000000000u,
    0xd3c21bcecceda100u, 0x0000000000000000u, 0x84595161401484a0u, 0x0000000000000000u,
    0xa56fa5b99019a5c8u, 0x0000000000000000u, 0xcecb8f27f4200f3au, 0x0000000000000000u,
    0x813f3978f8940984u, 0x4000000000000000u, 0xa18f07d736b90be5u, 0x5000000000000000u,
    0xc9f2c9cd04674edeu, 0xa400000000000000u, 0xfc6f7c4045812296u, 0x4d00000000000000u,
    0x9dc5ada82b70b59du, 0xf020000000000000u, 0xc5371912364ce305u, 0x6c28000000000000u,
    0xf684df56c3e01bc6u, 0xc732000000000000u, 0x9a130b963a6c115cu, 0x3c7f400000000000u,
    0xc097ce7bc90715b3u, 0x4b9f100000000000u, 0xf0bdc21abb48db20u, 0x1e86d40000000000u,
    0x96769950b50d88f4u, 0x1314448000000000u, 0xbc143fa4e250eb31u, 0x17d955a000000000u,
    0xeb194f8e1ae525fdu, 0x5dcfab0800000000u, 0x92efd1b8d0cf37beu, 0x5aa1cae500000000u,
    0xb7abc627050305adu, 0xf14a3d9e40000000u, 0xe596b7b0c643c719u, 0x6d9ccd05d0000000u,
    0x8f7e32ce7bea5c6fu, 0xe4820023a2000000u, 0xb35dbf821ae4f38bu, 0xdda2802c8a800000u,
    0xe0352f62a19e306eu, 0xd50b2037ad200000u, 0x8c213d9da502de45u, 0x4526f422cc340000u,
    0xaf298d050e4395d6u, 0x9670b12b7f410000u, 0xdaf3f04651d47b4cu, 0x3c0cdd765f114000u,
    0x88d8762bf324cd0fu, 0xa5880a69fb6ac800u, 0xab0e93b6efee0053u, 0x8eea0d047a457a00u,
    0xd5d238a4abe98068u, 0x72a4904598d6d880u, 0x85a36366eb71f041u, 0x47a6da2b7f864750u,
    0xa70c3c40a64e6c51u, 0x999090b65f67d924u, 0xd0cf4b50cfe20765u, 0xfff4b4e3f741cf6du,
    0x82818f1281ed449fu, 0xbff8f10e7a8921a4u, 0xa321f2d7226895c7u, 0xaff72d52192b6a0du,
    0xcbea6f8ceb02bb39u, 0x9bf4f8a69f764490u, 0xfee50b7025c36a08u, 0x02f236d04753d5b4u,
    0x9f4f2726179a2245u, 0x01d762422c946590u, 0xc722f0ef9d80aad6u, 0x424d3ad2b7b97ef5u,
    0xf8ebad2b84e0d58bu, 0xd2e0898765a7deb2u, 0x9b934c3b330c8577u, 0x63cc55f49f88eb2fu,
    0xc2781f49ffcfa6d5u, 0x3cbf6b71c76b25fbu, 0xf316271c7fc3908au, 0x8bef464e3945ef7au,
    0x97edd871cfda3a56u, 0x97758bf0e3cbb5acu, 0xbde94e8e43d0c8ecu, 0x3d52eeed1cbea317u,
    0xed63a231d4c4fb27u, 0x4ca7aaa863ee4bddu, 0x945e455f24fb1cf8u, 0x8fe8caa93e74ef6au,
    0xb975d6b6ee39e436u, 0xb3e2fd538e122b44u, 0xe7d34c64a9c85d44u, 0x60dbbca87196b616u,
    0x90e40fbeea1d3a4au, 0xbc8955e946fe31cdu, 0xb51d13aea4a488ddu, 0x6babab6398bdbe41u,
    0xe264589a4dcdab14u, 0xc696963c7eed2dd1u, 0x8d7eb76070a08aecu, 0xfc1e1de5cf543ca2u,
    0xb0de65388cc8ada8u, 0x3b25a55f43294bcbu, 0xdd15fe86affad912u, 0x49ef0eb713f39ebeu,
    0x8a2dbf142dfcc7abu, 0x6e3569326c784337u, 0xacb92ed9397bf996u, 0x49c2c37f07965404u,
    0xd7e77a8f87daf7fbu, 0xdc33745ec97be906u, 0x86f0ac99b4e8dafdu, 0x69a028bb3ded71a3u,
    0xa8acd7c0222311bcu, 0xc40832ea0d68ce0cu, 0xd2d80db02aabd62bu, 0xf50a3fa490c30190u,
    0x83c7088e1aab65dbu, 0x792667c6da79e0fau, 0xa4b8cab1a1563f52u, 0x577001b891185938u,
    0xcde6fd5e09abcf26u, 0xed4c0226b55e6f86u, 0x80b05e5ac60b6178u, 0x544f8158315b05b4u,
    0xa0dc75f1778e39d6u, 0x696361ae3db1c721u, 0xc913936dd571c84cu, 0x03bc3a19cd1e38e9u,
    0xfb5878494ace3a5fu, 0x04ab48a04065c723u, 0x9d174b2dcec0e47bu, 0x62eb0d64283f9c76u,
    0xc45d1df942711d9au, 0x3ba5d0bd324f8394u, 0xf5746577930d6500u, 0xca8f44ec7ee36479u,
    0x9968bf6abbe85f20u, 0x7e998b13cf4e1ecbu, 0xbfc2ef456ae276e8u, 0x9e3fedd8c321a67eu,
    0xefb3ab16c59b14a2u, 0xc5cfe94ef3ea101eu, 0x95d04aee3b80ece5u, 0xbba1f1d158724a12u,
    0xbb445da9ca61281fu, 0x2a8a6e45ae8edc97u, 0xea1575143cf97226u, 0xf52d09d71a3293bdu,
    0x924d692ca61be758u, 0x593c2626705f9c56u, 0xb6e0c377cfa2e12eu, 0x6f8b2fb00c77836cu,
    0xe498f455c38b997au, 0x0b6dfb9c0f956447u, 0x8edf98b59a373fecu, 0x4724bd4189bd5eacu,
    0xb2977ee300c50fe7u, 0x58edec91ec2cb657u, 0xdf3d5e9bc0f653e1u, 0x2f2967b66737e3edu,
    0x8b865b215899f46cu, 0xbd79e0d20082ee74u, 0xae67f1e9aec07187u, 0xecd8590680a3aa11u,
    0xda01ee641a708de9u, 0xe80e6f4820cc9495u, 0x884134fe908658b2u, 0x3109058d147fdcddu,
    0xaa51823e34a7eedeu, 0xbd4b46f0599fd415u, 0xd4e5e2cdc1d1ea96u, 0x6c9e18ac7007c91au,
    0x850fadc09923329eu, 0x03e2cf6bc604ddb0u, 0xa6539930bf6bff45u, 0x84db8346b786151cu,
    0xcfe87f7cef46ff16u, 0xe612641865679a63u, 0x81f14fae158c5f6eu, 0x4fcb7e8f3f60c07eu,
    0xa26da3999aef7749u, 0xe3be5e330f38f09du, 0xcb090c8001ab551cu, 0x5cadf5bfd3072cc5u,
    0xfdcb4fa002162a63u, 0x73d9732fc7c8f7f6u, 0x9e9f11c4014dda7eu, 0x2867e7fddcdd9afau,
    0xc646d63501a1511du, 0xb281e1fd541501b8u, 0xf7d88bc24209a565u, 0x1f225a7ca91a4226u,
    0x9ae757596946075fu, 0x3375788de9b06958u, 0xc1a12d2fc3978937u, 0x0052d6b1641c83aeu,
    0xf209787bb47d6b84u, 0xc0678c5dbd23a49au, 0x9745eb4d50ce6332u, 0xf840b7ba963646e0u,
    0xbd176620a501fbffu, 0xb650e5a93bc3d898u, 0xec5d3fa8ce427affu, 0xa3e51f138ab4cebeu,
    0x93ba47c980e98cdfu, 0xc66f336c36b10137u, 0xb8a8d9bbe123f017u, 0xb80b0047445d4184u,
    0xe6d3102ad96cec1du, 0xa60dc059157491e5u, 0x9043ea1ac7e41392u, 0x87c89837ad68db2fu,
    0xb454e4a179dd1877u, 0x29babe4598c311fbu, 0xe16a1dc9d8545e94u, 0xf4296dd6fef3d67au,
    0x8ce2529e2734bb1du, 0x1899e4a65f58660cu, 0xb01ae745b101e9e4u, 0x5ec05dcff72e7f8fu,
    0xdc21a1171d42645du, 0x76707543f4fa1f73u, 0x899504ae72497ebau, 0x6a06494a791c53a8u,
    0xabfa45da0edbde69u, 0x0487db9d17636892u, 0xd6f8d7509292d603u, 0x45a9d2845d3c42b6u,
    0x865b86925b9bc5c2u, 0x0b8a2392ba45a9b2u, 0xa7f26836f282b732u, 0x8e6cac7768d7141eu,
    0xd1ef0244af2364ffu, 0x3207d795430cd926u, 0x8335616aed761f1fu, 0x7f44e6bd49e807b8u,
    0xa402b9c5a8d3a6e7u, 0x5f16206c9c6209a6u, 0xcd036837130890a1u, 0x36dba887c37a8c0fu,
    0x802221226be55a64u, 0xc2494954da2c9789u, 0xa02aa96b06deb0fdu, 0xf2db9baa10b7bd6cu,
    0xc83553c5c8965d3du, 0x6f92829494e5acc7u, 0xfa42a8b73abbf48cu, 0xcb772339ba1f17f9u,
    0x9c69a97284b578d7u, 0xff2a760414536efbu, 0xc38413cf25e2d70du, 0xfef5138519684abau,
    0xf46518c2ef5b8cd1u, 0x7eb258665fc25d69u, 0x98bf2f79d5993802u, 0xef2f773ffbd97a61u,
    0xbeeefb584aff8603u, 0xaafb550ffacfd8fau, 0xeeaaba2e5dbf6784u, 0x95ba2a53f983cf38u,
    0x952ab45cfa97a0b2u, 0xdd945a747bf26183u, 0xba756174393d88dfu, 0x94f971119aeef9e4u,
    0xe912b9d1478ceb17u, 0x7a37cd5601aab85du, 0x91abb422ccb812eeu, 0xac62e055c10ab33au,
    0xb616a12b7fe617aau, 0x577b986b314d6009u, 0xe39c49765fdf9d94u, 0xed5a7e85fda0b80bu,
    0x8e41ade9fbebc27du, 0x14588f13be847307u, 0xb1d219647ae6b31cu, 0x596eb2d8ae258fc8u,
    0xde469fbd99a05fe3u, 0x6fca5f8ed9aef3bbu, 0x8aec23d680043beeu, 0x25de7bb9480d5854u,
    0xada72ccc20054ae9u, 0xaf561aa79a10ae6au, 0xd910f7ff28069da4u, 0x1b2ba1518094da04u,
    0x87aa9aff79042286u, 0x90fb44d2f05d0842u, 0xa99541bf57452b28u, 0x353a1607ac744a53u,
    0xd3fa922f2d1675f2u, 0x42889b8997915ce8u, 0x847c9b5d7c2e09b7u, 0x69956135febada11u,
    0xa59bc234db398c25u, 0x43fab9837e699095u, 0xcf02b2c21207ef2eu, 0x94f967e45e03f4bbu,
    0x8161afb94b44f57du, 0x1d1be0eebac278f5u, 0xa1ba1ba79e1632dcu, 0x6462d92a69731732u,
    0xca28a291859bbf93u, 0x7d7b8f7503cfdcfeu, 0xfcb2cb35e702af78u, 0x5cda735244c3d43eu,
    0x9defbf01b061adabu, 0x3a0888136afa64a7u, 0xc56baec21c7a1916u, 0x088aaa1845b8fdd0u,
    0xf6c69a72a3989f5bu, 0x8aad549e57273d45u, 0x9a3c2087a63f6399u, 0x36ac54e2f678864bu,
    0xc0cb28a98fcf3c7fu, 0x84576a1bb416a7ddu, 0xf0fdf2d3f3c30b9fu, 0x656d44a2a11c51d5u,
    0x969eb7c47859e743u, 0x9f644ae5a4b1b325u, 0xbc4665b596706114u, 0x873d5d9f0dde1feeu,
    0xeb57ff22fc0c7959u, 0xa90cb506d155a7eau, 0x9316ff75dd87cbd8u, 0x09a7f12442d588f2u,
    0xb7dcbf5354e9beceu, 0x0c11ed6d538aeb2fu, 0xe5d3ef282a242e81u, 0x8f1668c8a86da5fau,
    0x8fa475791a569d10u, 0xf96e017d694487bcu, 0xb38d92d760ec4455u, 0x37c981dcc395a9acu,
    0xe070f78d3927556au, 0x85bbe253f47b1417u, 0x8c469ab843b89562u, 0x93956d7478ccec8eu,
    0xaf58416654a6babbu, 0x387ac8d1970027b2u, 0xdb2e51bfe9d0696au, 0x06997b05fcc0319eu,
    0x88fcf317f22241e2u, 0x441fece3bdf81f03u, 0xab3c2fddeeaad25au, 0xd527e81cad7626c3u,
    0xd60b3bd56a5586f1u, 0x8a71e223d8d3b074u, 0x85c7056562757456u, 0xf6872d5667844e49u,
    0xa738c6bebb12d16cu, 0xb428f8ac016561dbu, 0xd106f86e69d785c7u, 0xe13336d701beba52u,
    0x82a45b450226b39cu, 0xecc0024661173473u, 0xa34d721642b06084u, 0x27f002d7f95d0190u,
    0xcc20ce9bd35c78a5u, 0x31ec038df7b441f4u, 0xff290242c83396ceu, 0x7e67047175a15271u,
    0x9f79a169bd203e41u, 0x0f0062c6e984d386u, 0xc75809c42c684dd1u, 0x52c07b78a3e60868u,
    0xf92e0c3537826145u, 0xa7709a56ccdf8a82u, 0x9bbcc7a142b17ccbu, 0x88a66076400bb691u,
    0xc2abf989935ddbfeu, 0x6acff893d00ea435u, 0xf356f7ebf83552feu, 0x0583f6b8c4124d43u,
    0x98165af37b2153deu, 0xc3727a337a8b704au, 0xbe1bf1b059e9a8d6u, 0x744f18c0592e4c5cu,
    0xeda2ee1c7064130cu, 0x1162def06f79df73u, 0x9485d4d1c63e8be7u, 0x8addcb5645ac2ba8u,
    0xb9a74a0637ce2ee1u, 0x6d953e2bd7173692u, 0xe8111c87c5c1ba99u, 0xc8fa8db6ccdd0437u,
    0x910ab1d4db9914a0u, 0x1d9c9892400a22a2u, 0xb54d5e4a127f59c8u, 0x2503beb6d00cab4bu,
    0xe2a0b5dc971f303au, 0x2e44ae64840fd61du, 0x8da471a9de737e24u, 0x5ceaecfed289e5d2u,
    0xb10d8e1456105dadu, 0x7425a83e872c5f47u, 0xdd50f1996b947518u, 0xd12f124e28f77719u,
    0x8a5296ffe33cc92fu, 0x82bd6b70d99aaa6fu, 0xace73cbfdc0bfb7bu, 0x636cc64d1001550bu,
    0xd8210befd30efa5au, 0x3c47f7e05401aa4eu, 0x8714a775e3e95c78u, 0x65acfaec34810a71u,
    0xa8d9d1535ce3b396u, 0x7f1839a741a14d0du, 0xd31045a8341ca07cu, 0x1ede48111209a050u,
    0x83ea2b892091e44du, 0x934aed0aab460432u, 0xa4e4b66b68b65d60u, 0xf81da84d5617853fu,
    0xce1de40642e3f4b9u, 0x36251260ab9d668eu, 0x80d2ae83e9ce78f3u, 0xc1d72b7c6b426019u,
    0xa1075a24e4421730u, 0xb24cf65b8612f81fu, 0xc94930ae1d529cfcu, 0xdee033f26797b627u,
    0xfb9b7cd9a4a7443cu, 0x169840ef017da3b1u, 0x9d412e0806e88aa5u, 0x8e1f289560ee864eu,
    0xc491798a08a2ad4eu, 0xf1a6f2bab92a27e2u, 0xf5b5d7ec8acb58a2u, 0xae10af696774b1dbu,
    0x9991a6f3d6bf1765u, 0xacca6da1e0a8ef29u, 0xbff610b0cc6edd3fu, 0x17fd090a58d32af3u,
    0xeff394dcff8a948eu, 0xddfc4b4cef07f5b0u, 0x95f83d0a1fb69cd9u, 0x4abdaf101564f98eu,
    0xbb764c4ca7a4440fu, 0x9d6d1ad41abe37f1u, 0xea53df5fd18d5513u, 0x84c86189216dc5edu,
    0x92746b9be2f8552cu, 0x32fd3cf5b4e49bb4u, 0xb7118682dbb66a77u, 0x3fbc8c33221dc2a1u,
    0xe4d5e82392a40515u, 0x0fabaf3feaa5334au, 0x8f05b1163ba6832du, 0x29cb4d87f2a7400eu,
    0xb2c71d5bca9023f8u, 0x743e20e9ef511012u, 0xdf78e4b2bd342cf6u, 0x914da9246b255416u,
    0x8bab8eefb6409c1au, 0x1ad089b6c2f7548eu, 0xae9672aba3d0c320u, 0xa184ac2473b529b1u,
    0xda3c0f568cc4f3e8u, 0xc9e5d72d90a2741eu, 0x8865899617fb1871u, 0x7e2fa67c7a658892u,
    0xaa7eebfb9df9de8du, 0xddbb901b98feeab7u, 0xd51ea6fa85785631u, 0x552a74227f3ea565u,
    0x8533285c936b35deu, 0xd53a88958f87275fu, 0xa67ff273b8460356u, 0x8a892abaf368f137u,
    0xd01fef10a657842cu, 0x2d2b7569b0432d85u, 0x8213f56a67f6b29bu, 0x9c3b29620e29fc73u,
    0xa298f2c501f45f42u, 0x8349f3ba91b47b8fu, 0xcb3f2f7642717713u, 0x241c70a936219a73u,
    0xfe0efb53d30dd4d7u, 0xed238cd383aa0110u, 0x9ec95d1463e8a506u, 0xf4363804324a40aau,
    0xc67bb4597ce2ce48u, 0xb143c6053edcd0d5u, 0xf81aa16fdc1b81dau, 0xdd94b7868e94050au,
    0x9b10a4e5e9913128u, 0xca7cf2b4191c8326u, 0xc1d4ce1f63f57d72u, 0xfd1c2f611f63a3f0u,
    0xf24a01a73cf2dccfu, 0xbc633b39673c8cecu, 0x976e41088617ca01u, 0xd5be0503e085d813u,
    0xbd49d14aa79dbc82u, 0x4b2d8644d8a74e18u, 0xec9c459d51852ba2u, 0xddf8e7d60ed1219eu,
    0x93e1ab8252f33b45u, 0xcabb90e5c942b503u, 0xb8da1662e7b00a17u, 0x3d6a751f3b936243u,
    0xe7109bfba19c0c9du, 0x0cc512670a783ad4u, 0x906a617d450187e2u, 0x27fb2b80668b24c5u,
    0xb484f9dc9641e9dau, 0xb1f9f660802dedf6u, 0xe1a63853bbd26451u, 0x5e7873f8a0396973u,
    0x8d07e33455637eb2u, 0xdb0b487b6423e1e8u, 0xb049dc016abc5e5fu, 0x91ce1a9a3d2cda62u,
    0xdc5c5301c56b75f7u, 0x7641a140cc7810fbu, 0x89b9b3e11b6329bau, 0xa9e904c87fcb0a9du,
    0xac2820d9623bf429u, 0x546345fa9fbdcd44u, 0xd732290fbacaf133u, 0xa97c177947ad4095u,
    0x867f59a9d4bed6c0u, 0x49ed8eabcccc485du, 0xa81f301449ee8c70u, 0x5c68f256bfff5a74u,
    0xd226fc195c6a2f8cu, 0x73832eec6fff3111u, 0x83585d8fd9c25db7u, 0xc831fd53c5ff7eabu,
    0xa42e74f3d032f525u, 0xba3e7ca8b77f5e55u, 0xcd3a1230c43fb26fu, 0x28ce1bd2e55f35ebu,
    0x80444b5e7aa7cf85u, 0x7980d163cf5b81b3u, 0xa0555e361951c366u, 0xd7e105bcc332621fu,
    0xc86ab5c39fa63440u, 0x8dd9472bf3fefaa7u, 0xfa856334878fc150u, 0xb14f98f6f0feb951u,
    0x9c935e00d4b9d8d2u, 0x6ed1bf9a569f33d3u, 0xc3b8358109e84f07u, 0x0a862f80ec4700c8u,
    0xf4a642e14c6262c8u, 0xcd27bb612758c0fau, 0x98e7e9cccfbd7dbdu, 0x8038d51cb897789cu,
    0xbf21e44003acdd2cu, 0xe0470a63e6bd56c3u, 0xeeea5d5004981478u, 0x1858ccfce06cac74u,
    0x95527a5202df0ccbu, 0x0f37801e0c43ebc8u, 0xbaa718e68396cffdu, 0xd30560258f54e6bau,
    0xe950df20247c83fdu, 0x47c6b82ef32a2069u, 0x91d28b7416cdd27eu, 0x4cdc331d57fa5441u,
    0xb6472e511c81471du, 0xe0133fe4adf8e952u, 0xe3d8f9e563a198e5u, 0x58180fddd97723a6u,
    0x8e679c2f5e44ff8fu, 0x570f09eaa7ea7648u, 0xb201833b35d63f73u, 0x2cd2cc6551e513dau,
    0xde81e40a034bcf4fu, 0xf8077f7ea65e58d1u, 0x8b112e86420f6191u, 0xfb04afaf27faf782u,
    0xadd57a27d29339f6u, 0x79c5db9af1f9b563u, 0xd94ad8b1c7380874u, 0x18375281ae7822bcu,
    0x87cec76f1c830548u, 0x8f2293910d0b15b5u, 0xa9c2794ae3a3c69au, 0xb2eb3875504ddb22u,
    0xd433179d9c8cb841u, 0x5fa60692a46151ebu, 0x849feec281d7f328u, 0xdbc7c41ba6bcd333u,
    0xa5c7ea73224deff3u, 0x12b9b522906c0800u, 0xcf39e50feae16befu, 0xd768226b34870a00u,
    0x81842f29f2cce375u, 0xe6a1158300d46640u, 0xa1e53af46f801c53u, 0x60495ae3c1097fd0u,
    0xca5e89b18b602368u, 0x385bb19cb14bdfc4u, 0xfcf62c1dee382c42u, 0x46729e03dd9ed7b5u,
    0x9e19db92b4e31ba9u, 0x6c07a2c26a8346d1u,
};

/* The 128-bit product a * b as *hi and *lo, from 32-bit halves. */
static void multiply_128(uint64_t a, uint64_t b, uint64_t *hi, uint64_t *lo)
{
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);

    *lo = (mid << 32) | (p00 & 0xffffffffu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* The number of zero bits above w's highest set bit, for w > 0. */
static int leading_zeros(uint64_t w)
{
    int n = 0, step;

    for (step = 32; step > 0; step /= 2)
        if (w >> (64 - step) == 0) {
            n += step;
            w <<= step;
        }
    return n;
}

/* The bits of the double nearest w * 10^q, ties to even, for
 * 0 < w < 2^64 and -342 <= q <= 308, or 0 when that double is subnormal
 * or zero. This is Eisel and Lemire's conversion as fast_float writes it
 * (D. Lemire, Number parsing at a gigabyte per second, Softw. Pract.
 * Exp. 51(8), 2021): the product of w, normalized, with POW5's 128 bits
 * of 5^q gives the 54 leading bits of w * 10^q and whether the bits below
 * them are exactly zero. Mushtak and Lemire (Softw. Pract. Exp. 53(7),
 * 2023) prove that this product always decides the rounding. */
static uint64_t eisel_lemire(uint64_t w, int64_t q)
{
    const uint64_t *pow5 = POW5 + 2 * (q + 342);
    int lz = leading_zeros(w), upper, shift;
    int64_t power2;
    uint64_t hi, lo, hi2, lo2, mantissa;

    w <<= lz;
    multiply_128(w, pow5[0], &hi, &lo);
    /* the 55 bits kept might gain a carry from the next 64 bits of 5^q */
    if ((hi & 0x1ff) == 0x1ff) {
        multiply_128(w, pow5[1], &hi2, &lo2);
        lo += hi2;
        if (hi2 > lo)
            hi++;
    }
    upper = (int)(hi >> 63);
    shift = upper + 9;
    mantissa = hi >> shift;
    /* floor(q * log2(10)) + 63 as floor(217706 q / 2^16) + 63, the
     * shift made on a sum kept positive, then the bias */
    power2 = ((217706 * q + ((int64_t)1 << 40)) >> 16) - ((int64_t)1 << 24) + 63 + upper
             - lz + 1023;
    if (power2 <= 0)
        return 0;
    /* An exact product of a power of five that fits in 64 bits can fall
     * halfway between two doubles; round that one to even. */
    if (lo <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1 && mantissa << shift == hi)
        mantissa &= ~(uint64_t)1;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >= (uint64_t)2 << 52) {
        mantissa = (uint64_t)1 << 52;
        power2++;
    }
    if (power2 >= 0x7ff)
        return (uint64_t)0x7ff << 52;
    return (mantissa & ~((uint64_t)1 << 52)) | (uint64_t)power2 << 52;
}

/* The 8 bytes at s as a little-endian word: s[0] is the low byte. */
static uint64_t load_word(const char *s)
{
    const unsigned char *u = (const unsigned char *)s;

    return (uint64_t)u[0] | (uint64_t)u[1] << 8 | (uint64_t)u[2] << 16 | (uint64_t)u[3] << 24
           | (uint64_t)u[4] << 32 | (uint64_t)u[5] << 40 | (uint64_t)u[6] << 48
           | (uint64_t)u[7] << 56;
}

/* Whether every byte of word is an ASCII digit. A byte below '0' or
 * above 0xb9 sets bit 7 of its lane in word - 0x30.., and one from ':'
 * to 0xb9 sets it in word + 0x46..; a carry or borrow between lanes
 * starts only at such a byte, so the lowest one is always seen. */
static int eight_digits(uint64_t word)
{
    return (((word + 0x4646464646464646u) | (word - 0x3030303030303030u))
            & 0x8080808080808080u) == 0;
}

/* The value of the eight digits in word, the first in its low byte:
 * pairs, then quadruples, then the two halves, each step one multiply
 * (fast_float's parse_eight_digits_unrolled). */
static uint64_t eight_digit_value(uint64_t word)
{
    const uint64_t mask = 0x000000ff000000ffu;

    word -= 0x3030303030303030u;
    word = word * 10 + (word >> 8);
    return ((word & mask) * 0x000f424000000064u + ((word >> 16) & mask) * 0x0000271000000001u)
           >> 32 & 0xffffffffu;
}

/* The end of the digits at data[i, size), each appended to *w: eight per
 * step while eight remain, then one per step. *w wraps past 2^64, and
 * the caller then counts more than 19 digits. Inline, so that *w stays
 * in a register: out of line, with two calls a cell, the parse took
 * about a fifth longer. */
static inline int64_t digit_run(const char *data, int64_t i, int64_t size, uint64_t *w)
{
    uint64_t word;

    while (size - i >= 8 && eight_digits(word = load_word(data + i))) {
        *w = *w * 100000000u + eight_digit_value(word);
        i += 8;
    }
    for (; i < size && is_digit(data[i]); i++)
        *w = 10 * *w + (uint64_t)(data[i] - '0');
    return i;
}

/* Reads the cell at data[i, size) into *value in one pass. The cell must
 * be [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? and end at size or at the byte
 * stop. Returns the offset after the cell, -1 when the bytes are not in
 * that form, or else as convert() does.
 *
 * The value is rounded as strtod and Python's float() round it:
 * correctly, ties to even. Up to 19 significant digits (leading zeros do
 * not count) and an exponent whose digits saturate at 2^52, beyond any
 * cell's length, make w * 10^q; eisel_lemire converts it unless the
 * result is subnormal. A longer mantissa or a subnormal goes to
 * convert(). */
static int64_t read_cell(const char *data, int64_t i, int64_t size, char stop, double *value)
{
    int64_t start = i, first, frac, mark, digits, q = 0, e = 0;
    uint64_t w = 0, bits;
    int negative = 0, negative_e, status;

    if (i < size && (data[i] == '+' || data[i] == '-'))
        negative = data[i++] == '-';
    first = i;
    while (i < size && data[i] == '0')
        i++;
    mark = i;
    i = digit_run(data, i, size, &w);
    digits = i - mark;
    if (i < size && data[i] == '.') {
        frac = ++i;
        if (digits == 0)
            while (i < size && data[i] == '0')
                i++;
        mark = i;
        i = digit_run(data, i, size, &w);
        digits += i - mark;
        q = frac - i;
    }
    /* the mantissa data[first, i) holds no digit: it is "" or "." */
    if (i - first <= 1 && (i == first || data[first] == '.'))
        return -1;
    if (i < size && (data[i] == 'e' || data[i] == 'E')) {
        i++;
        negative_e = i < size && data[i] == '-';
        if (i < size && (data[i] == '+' || data[i] == '-'))
            i++;
        if (i == size || !is_digit(data[i]))
            return -1;
        for (; i < size && is_digit(data[i]); i++)
            if (e < (int64_t)1 << 52)
                e = 10 * e + (data[i] - '0');
        q += negative_e ? -e : e;
    }
    if (i < size && data[i] != stop)
        return -1;
    if (digits <= 19 && (w == 0 || q < -342)) {
        bits = 0; /* zero, or below half the least subnormal */
    } else if (digits <= 19 && q > 308) {
        bits = (uint64_t)0x7ff << 52; /* infinity */
    } else if (digits > 19 || (bits = eisel_lemire(w, q)) == 0) {
        status = convert(data + start, i - start, value);
        return status == 0 ? i : status;
    }
    bits |= (uint64_t)negative << 63;
    memcpy(value, &bits, sizeof bits);
    return i;
}

/* The number of '\n' bytes in data[pos, size), which bounds the rows
 * that parse_matrix_rows can find there. */
int64_t count_lines(const char *data, int64_t size, int64_t pos)
{
    const char *p = data + pos, *end = data + size;
    int64_t n = 0;

    while (p < end && (p = memchr(p, '\n', (size_t)(end - p))) != NULL) {
        n++;
        p++;
    }
    return n;
}

/* parse_matrix_rows, the body of an expression-matrix TSV, the bytes of
 * data[pos, size) that follow the header line. Each line must be empty or
 * "id\tv1\t...\tvn" with n = n_samples, ending in '\n' (the last line may
 * lack it); the id may hold any bytes but '\t' and '\n', and each cell
 * must be in read_cell's form. Row r's values go to
 * out[r * n_samples ...], and its id, followed by '\n', to ids after the
 * ids of the rows before it, so that one decode and split gives them all;
 * *ids_size receives the bytes written there, at most size - pos: a row's
 * id is written only once its cells have been read, and such a row takes
 * two bytes or more per cell past its id and gives one for its '\n'.
 * Returns the number of rows, -1 when the body is not in that form or
 * holds more than max_rows rows, or -2 when out of memory. No byte at or
 * past size is read.
 *
 * Each cell is read by read_cell, in one pass that checks its form and
 * converts it, correctly rounded as glibc's strtod and Python's float()
 * round it, so the values match the line-by-line reader's bits. */
int64_t parse_matrix_rows(const char *data, int64_t size, int64_t pos,
                          int64_t n_samples, int64_t max_rows, double *out,
                          char *ids, int64_t *ids_size)
{
    int64_t rows = 0, j, start, end;

    *ids_size = 0;
    if (n_samples < 1)
        return -1;
    while (pos < size) {
        if (data[pos] == '\n') {
            pos++;
            continue;
        }
        if (rows == max_rows)
            return -1;
        start = pos;
        while (pos < size && data[pos] != '\t' && data[pos] != '\n')
            pos++;
        end = pos;
        for (j = 0; j < n_samples; j++) {
            if (pos == size || data[pos] != '\t')
                return -1;
            pos = read_cell(data, pos + 1, size, j + 1 < n_samples ? '\t' : '\n',
                            &out[rows * n_samples + j]);
            if (pos < 0)
                return pos;
        }
        memcpy(ids + *ids_size, data + start, (size_t)(end - start));
        *ids_size += end - start;
        ids[(*ids_size)++] = '\n';
        pos++; /* past the row's '\n', or past the end */
        rows++;
    }
    return rows;
}

/* format_rows, the text of the rows of a float64 matrix, each value as
 * Python's repr writes it.
 *
 * repr prints the shortest digits that read back as the double, the
 * nearest to it when several are that short, and the even one of two
 * equally near (David Gay's dtoa in its shortest mode). Schubfach
 * (R. Giulietti, "The Schubfach way to render doubles", 2020) finds the
 * same digits; shortest_decimal follows its reference code, the JDK's
 * DoubleToDecimal, step for step, but leaves out what Java's rule of two
 * digits at least adds: a ten times larger significand for the two
 * smallest subnormals, and no one-digit candidate while s < 100 (Java
 * prints 4.9E-324 and 4.9E-323 where repr prints 5e-324 and 5e-323).
 * Its powers of ten are POW5's rows, so the formatter has no table of
 * its own. put_double lays the digits out as repr does. */

#define Q_MIN (-1074)
#define C_MIN ((uint64_t)1 << 52)
#define MASK_63 (((uint64_t)1 << 63) - 1)

/* The most bytes one cell takes in format_rows' output: a tab and
 * "-1.2345678901234567e-308". The binding sizes its buffers by it. */
const int64_t format_cell_bytes = 25;

/* floor(q log10(2)), floor(log10(3/4 2^q)) and floor(q log2(10)), each
 * one multiply and shift (Giulietti's), exact far beyond the exponents
 * of a double. Each shift is made on a sum kept positive, then the bias
 * is taken off, so that no negative number is shifted. */
static int64_t floor_log10_pow2(int64_t q)
{
    return ((q * 661971961083 + ((int64_t)1 << 51)) >> 41) - 1024;
}

static int64_t floor_log10_three_quarters_pow2(int64_t q)
{
    return ((q * 661971961083 - 274743187321 + ((int64_t)1 << 51)) >> 41) - 1024;
}

static int64_t floor_log2_pow10(int64_t q)
{
    return ((q * 913124641741 + ((int64_t)1 << 50)) >> 38) - 4096;
}

/* Schubfach's g for 10^-k, -324 <= k <= 292, in 63-bit halves: g =
 * floor(b) + 1, where 10^-k = b 2^r and 2^125 <= b < 2^126. POW5's row
 * of q = -k is floor(4b), or floor(4b) + 1 for -27 <= q < 0. */
static void ten_power(int64_t k, uint64_t *g1, uint64_t *g0)
{
    const uint64_t *row = POW5 + 2 * (342 - k);
    uint64_t hi = row[0], lo = row[1];

    if (k >= 1 && k <= 27) {
        if (lo == 0)
            hi--;
        lo--;
    }
    lo = (lo >> 2 | hi << 62) + 1;
    hi = (hi >> 2) + (lo == 0);
    *g1 = hi << 1 | lo >> 63;
    *g0 = lo & MASK_63;
}

/* cp g 2^-127 rounded to odd, for cp < 2^63 and g = g1 2^63 + g0: the
 * floor, its lowest bit set when the bits below it are not all zero
 * (Schubfach's r_o, with its shortcut of leaving out the low word of
 * g0 cp and the lowest bit of g1 cp). */
static uint64_t round_odd(uint64_t g1, uint64_t g0, uint64_t cp)
{
    uint64_t x1, x0, y1, y0, z;

    multiply_128(g0, cp, &x1, &x0);
    multiply_128(g1, cp, &y1, &y0);
    z = (y0 >> 1) + x1;
    return (y1 + (z >> 63)) | (((z & MASK_63) + MASK_63) >> 63);
}

/* The decimal f 10^e that repr's digits spell for the double c 2^q,
 * 1 <= c < 2^53 and Q_MIN <= q: the shortest in the interval of reals
 * that read back as the double, the nearest to it of two that short, the
 * even one of two equally near. Returns f, which may end in zeros. The
 * interval is closed when c is even, as ties round to even, and its
 * lower half is half as wide at a power of two past the subnormals. */
static uint64_t shortest_decimal(uint64_t c, int64_t q, int64_t *e)
{
    int out = (int)(c & 1), uin, win;
    uint64_t g1, g0, cbl, vb, vbl, vbr, s, t, sp10;
    int64_t k, h;

    if (c != C_MIN || q == Q_MIN) {
        cbl = 4 * c - 2;
        k = floor_log10_pow2(q);
    } else {
        cbl = 4 * c - 1;
        k = floor_log10_three_quarters_pow2(q);
    }
    h = q + floor_log2_pow10(-k) + 2;
    ten_power(k, &g1, &g0);
    /* 4 v 10^-k and the interval's ends, rounded to odd */
    vb = round_odd(g1, g0, c << (h + 2));
    vbl = round_odd(g1, g0, cbl << h);
    vbr = round_odd(g1, g0, (4 * c + 2) << h);
    s = vb >> 2;
    *e = k;
    /* The interval is narrower than 10^(k+1), so it holds at most one
     * multiple of it, 10 floor(s / 10) or the next; that one, if there,
     * is the shortest. */
    sp10 = s / 10 * 10;
    uin = vbl + out <= sp10 << 2;
    win = ((sp10 + 10) << 2) + out <= vbr;
    if (uin != win)
        return uin ? sp10 : sp10 + 10;
    /* Otherwise s 10^k or (s + 1) 10^k, whichever lies in the interval,
     * or the nearer of the two if both do. */
    t = s + 1;
    uin = vbl + out <= s << 2;
    win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    return vb < (s + t) << 1 || (vb == (s + t) << 1 && (s & 1) == 0) ? s : t;
}

/* Writes repr(x) at p, at most 24 bytes, and returns its end. */
static char *put_double(char *p, double x)
{
    uint64_t bits, c, f;
    uint32_t high, low;
    int64_t q, e, point;
    int exponent, n, i;
    char d[17];

    memcpy(&bits, &x, sizeof bits);
    exponent = (int)(bits >> 52 & 0x7ff);
    c = bits & (C_MIN - 1);
    if (exponent == 0x7ff && c != 0) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0x7ff || (exponent == 0 && c == 0)) {
        memcpy(p, exponent ? "inf" : "0.0", 3);
        return p + 3;
    }
    if (exponent != 0) {
        c |= C_MIN;
        q = exponent - 1075;
    } else {
        q = Q_MIN;
    }
    if (q < 0 && q > -53 && (c & (((uint64_t)1 << -q) - 1)) == 0) {
        f = c >> -q; /* an integer: its own digits */
        e = 0;
    } else {
        f = shortest_decimal(c, q, &e);
    }
    /* f, below 10^17 here, scaled to 17 digits d[0] ... d[16], of which
     * repr's are those up to the last one not 0, d[n - 1], and
     * x = 0.d[0]...d[n - 1] 10^point. The digits come from f's 32-bit
     * halves, whose two chains of divisions run side by side. */
    for (; f < 10000000000000000u; e--)
        f *= 10;
    high = (uint32_t)(f / 100000000);
    low = (uint32_t)(f % 100000000);
    for (i = 16; i > 8; i--, low /= 10)
        d[i] = (char)('0' + low % 10);
    for (; i >= 0; i--, high /= 10)
        d[i] = (char)('0' + high % 10);
    for (n = 17; d[n - 1] == '0'; n--)
        ;
    point = e + 17;
    if (point <= -4 || point > 16) {
        /* d0.d1...e-XX, d0e+XX: the decimal exponent point - 1 */
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)n - 1);
            p += n - 1;
        }
        e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
        return p;
    }
    if (point <= 0) {
        /* 0.0...0d0...: the point, then -point zeros */
        memcpy(p, "0.000", (size_t)(2 - point));
        p += 2 - point;
        memcpy(p, d, (size_t)n);
        return p + n;
    }
    if (point >= n) {
        /* d0...0.0, the digits past the last being '0' */
        memcpy(p, d, (size_t)point);
        memcpy(p + point, ".0", 2);
        return p + point + 2;
    }
    memcpy(p, d, (size_t)point);
    p[point] = '.';
    memcpy(p + point + 1, d + point, (size_t)(n - point));
    return p + n + 1;
}

/* format_rows, the text of rows 0 .. rows - 1 of the row-major rows x
 * cols matrix values: row r's prefix, the r-th line of
 * prefixes[0, prefixes_size), then a tab and repr of each value, then
 * '\n'. The prefixes must be exactly rows lines, each ended by '\n' and
 * holding no other, as parse_matrix_rows returns gene ids. Returns the
 * bytes written to out, -1 when out_size is below prefixes_size +
 * format_cell_bytes * rows * cols, the most the rows can take (nothing
 * is then written), or -2 when the prefixes are not rows lines. */
int64_t format_rows(const double *values, int64_t rows, int64_t cols,
                    const char *prefixes, int64_t prefixes_size, char *out,
                    int64_t out_size)
{
    const char *line = prefixes, *stop = prefixes + prefixes_size, *end;
    char *p = out;
    int64_t r, j;

    if (out_size - prefixes_size < format_cell_bytes * rows * cols)
        return -1;
    for (r = 0; r < rows; r++) {
        end = line < stop ? memchr(line, '\n', (size_t)(stop - line)) : NULL;
        if (end == NULL)
            return -2;
        memcpy(p, line, (size_t)(end - line));
        p += end - line;
        line = end + 1;
        for (j = 0; j < cols; j++) {
            *p++ = '\t';
            p = put_double(p, values[r * cols + j]);
        }
        *p++ = '\n';
    }
    return line == stop ? p - out : -2;
}

/* NumPy's SeedSequence (pool size 4) and PCG64, bit for bit, so that
 * fold_search derives each perceptron fit's seed and draws its starting
 * weights as numpy.random does. Entropy comes in as little-endian uint32
 * words packed in bytes, the words NumPy's _int_to_uint32_array makes of
 * each int; a fit's weights come from its one-word seed. The constants
 * and the order of every step are those of NumPy's bit_generator.pyx and
 * pcg64.h. */

static const uint32_t INIT_A = 0x43b0d7e5u, MULT_A = 0x931e8875u;
static const uint32_t INIT_B = 0x8b51f9ddu, MULT_B = 0x58f38dedu;
static const uint32_t MIX_MULT_L = 0xca01f9ddu, MIX_MULT_R = 0x4973f715u;
static const uint64_t PCG_MULT_HIGH = 2549297995355413924u;
static const uint64_t PCG_MULT_LOW = 4865540595714422341u;

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;

    return result ^ (result >> 16);
}

/* Word i of the little-endian words in bytes, on any host. */
static uint32_t word_at(const unsigned char *bytes, int64_t i)
{
    const unsigned char *b = bytes + 4 * i;

    return (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16 | (uint32_t)b[3] << 24;
}

/* SeedSequence(entropy).pool for n words of entropy: mix_entropy. */
static void seed_pool(const unsigned char *entropy, int64_t n, uint32_t pool[4])
{
    uint32_t hash_const = INIT_A;
    int64_t src, dst;

    for (dst = 0; dst < 4; dst++)
        pool[dst] = hashmix(dst < n ? word_at(entropy, dst) : 0, &hash_const);
    for (src = 0; src < 4; src++)
        for (dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (src = 4; src < n; src++)
        for (dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(word_at(entropy, src), &hash_const));
}

/* SeedSequence.generate_state(n_words) of the pool, as uint32 words. */
static void seed_state(const uint32_t pool[4], int64_t n_words, uint32_t *state)
{
    uint32_t hash_const = INIT_B, value;
    int64_t i;

    for (i = 0; i < n_words; i++) {
        value = pool[i % 4] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        state[i] = value ^ (value >> 16);
    }
}

/* A 128-bit PCG64 state or increment. */
typedef struct {
    uint64_t high, low;
} pcg128;

/* One step of the 128-bit LCG, state * multiplier + inc modulo 2^128,
 * with multiply_128 rather than a compiler's 128-bit type. */
static void pcg_step(pcg128 *state, pcg128 inc)
{
    uint64_t high, low;

    multiply_128(state->low, PCG_MULT_LOW, &high, &low);
    high += state->high * PCG_MULT_LOW + state->low * PCG_MULT_HIGH;
    state->low = low + inc.low;
    state->high = high + inc.high + (state->low < low);
}

/* PCG64(seed)'s state and increment for a seed of one entropy word: the
 * four uint64 of generate_state(4, uint64) are the initial state's high
 * and low halves, then the stream's, as pcg64_set_seed reads them. */
static void pcg_seed(uint32_t seed, pcg128 *state, pcg128 *inc)
{
    const unsigned char entropy[4] = {
        (unsigned char)seed, (unsigned char)(seed >> 8), (unsigned char)(seed >> 16),
        (unsigned char)(seed >> 24),
    };
    uint32_t pool[4], words[8];
    uint64_t v[4];
    int64_t k;

    seed_pool(entropy, 1, pool);
    seed_state(pool, 8, words);
    for (k = 0; k < 4; k++)
        v[k] = (uint64_t)words[2 * k] | (uint64_t)words[2 * k + 1] << 32;
    inc->high = v[2] << 1 | v[3] >> 63;
    inc->low = v[3] << 1 | 1u;
    state->high = state->low = 0;
    pcg_step(state, *inc);
    state->low += v[1];
    state->high += v[0] + (state->low < v[1]);
    pcg_step(state, *inc);
}

/* Generator.uniform(low, low + range)'s next value: PCG64's next 64 bits
 * (XSL-RR output of the stepped state), their top 53 as a double in
 * [0, 1), then low + range * that. */
static double pcg_uniform(pcg128 *state, pcg128 inc, double low, double range)
{
    uint64_t x;
    unsigned rot;

    pcg_step(state, inc);
    x = state->high ^ state->low;
    rot = (unsigned)(state->high >> 58);
    x = x >> rot | x << ((64 - rot) & 63);
    return low + range * ((double)(x >> 11) * (1.0 / 9007199254740992.0));
}

/* SeedSequence(entropy).generate_state(1)[0] for n little-endian words
 * of entropy: generank.crossval._derived_seed's value. */
int64_t derived_seed(const unsigned char *entropy, int64_t n)
{
    uint32_t pool[4], state;

    seed_pool(entropy, n, pool);
    seed_state(pool, 1, &state);
    return state;
}

/* A fit's starting weights, as generank.classifiers._initial_weights
 * draws them from default_rng(seed) for a seed below 2^32: the d * h
 * + 2 * h + 1 packed values, w1 as d * h draws of uniform(-0.5, 0.5)
 * over sqrt(d) in row-major order, then h zero biases, then w2, h draws
 * over sqrt(h), then a zero bias. Returns 0. */
int64_t initial_weights(int64_t d, int64_t h, uint32_t seed, double *w)
{
    pcg128 state, inc;
    double scale;
    int64_t i;

    pcg_seed(seed, &state, &inc);
    scale = sqrt((double)d);
    for (i = 0; i < d * h; i++)
        *w++ = pcg_uniform(&state, inc, -0.5, 1.0) / scale;
    for (i = 0; i < h; i++)
        *w++ = 0.0;
    scale = sqrt((double)h);
    for (i = 0; i < h; i++)
        *w++ = pcg_uniform(&state, inc, -0.5, 1.0) / scale;
    *w = 0.0;
    return 0;
}

/* fold_search, the inner search of nested LOOCV in one call per fold
 * assignment: for each fold, what the Python loop of
 * generank.crossval._fold_counts does with _scaled and _grid_labels.
 * fold_blocks gathers and standardizes the fold's rows, the classifier's
 * scorer from SCORERS labels its test rows with every candidate, and
 * fold_search counts the hits.
 *
 * The Python loop validates its blocks and candidates and raises on
 * anything wrong; fold_search only detects such a block or candidate and
 * returns 1 without a count, and the Python loop, run again, raises its
 * own error. That covers a label other than 0 or 1, a training block
 * with no row of a class, a variance or a standardized value that is not
 * finite, a candidate or setting that a scorer's work function rejects,
 * for the SVM a fit that stalled or overflowed and, for the naive Bayes
 * classifier, the posteriors nbc_posteriors leaves to Python. */

/* generank.dataio.VARIANCE_FLOOR, to which a zero variance is raised. */
#define VARIANCE_FLOOR 1e-8

/* 0.0 plus the n values x[0], x[stride], ... summed in NumPy's pairwise
 * order (pairwise_sum in its loops_utils.h.src): left to right below 8
 * values, 8 interleaved accumulators up to 128, then halves split at
 * n / 2 rounded down to a multiple of 8. A reduction over the only axis
 * of the values runs it, and the 0.0 is the identity it starts from. */
static double pairwise_sum(const double *x, int64_t n, int64_t stride)
{
    double r[8], res = 0.0;
    int64_t i, j, half;

    if (n < 8) {
        for (i = 0; i < n; i++)
            res += x[i * stride];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            r[j] = x[j * stride];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                r[j] += x[(i + j) * stride];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += x[i * stride];
        return res;
    }
    half = n / 2;
    half -= half % 8;
    return pairwise_sum(x, half, stride) + pairwise_sum(x + half * stride, n - half, stride);
}

/* The sum of the n values x[0], x[stride], ..., a column of a row-major
 * block of d columns, in the order of NumPy's sum over the rows of a
 * C-contiguous block, which boolean indexing always gives: with d >= 2
 * the reduction adds whole rows, so each column adds left to right from
 * 0.0; with d == 1 the column is the contiguous axis, summed pairwise. */
static double column_sum(const double *x, int64_t n, int64_t stride, int64_t d)
{
    double acc = 0.0;
    int64_t i;

    if (d == 1)
        return 0.0 + pairwise_sum(x, n, stride);
    for (i = 0; i < n; i++)
        acc = acc + x[i * stride];
    return acc;
}

/* Fold f of the sample rows of X (n x d, row-major): the training rows,
 * those with folds[i] != f, into T and the test rows into E, each
 * row-major in sample order, with their labels in t_labels and e_labels,
 * as features[~test] and features[test] take them. Both blocks are then
 * standardized by T's columns as dataio.floored_scale and
 * crossval._scaled do it: mean = sum / n_t, var = sum of (x - mean)^2 /
 * (n_t - 1), a zero variance raised to VARIANCE_FLOOR, x -> (x - mean) /
 * sqrt(var); the squares are summed in the order of their block, T's. sq
 * holds n values. Returns 0, or 1 when the Python loop must decide: a
 * class with no training row, or a variance or a standardized value not
 * finite. *n_t and *n_e receive the row counts. It is exported so that
 * tests can compare its blocks with crossval._scaled's bit for bit. */
int64_t fold_blocks(const double *X, int64_t n, int64_t d, const int64_t *labels,
                    const int64_t *folds, int64_t f, double *T, int64_t *t_labels,
                    int64_t *n_t, double *E, int64_t *e_labels, int64_t *n_e,
                    double *sq)
{
    int64_t i, j, nt = 0, ne = 0, ones = 0;
    size_t row = sizeof(double) * (size_t)d;
    double mean, var, sd, diff;

    for (i = 0; i < n; i++) {
        if (folds[i] == f) {
            memcpy(E + ne * d, X + i * d, row);
            e_labels[ne++] = labels[i];
        } else {
            memcpy(T + nt * d, X + i * d, row);
            ones += labels[i] == 1;
            t_labels[nt++] = labels[i];
        }
    }
    *n_t = nt;
    *n_e = ne;
    if (ones == 0 || ones == nt)
        return 1;
    for (j = 0; j < d; j++) {
        mean = column_sum(T + j, nt, d, d) / (double)nt;
        for (i = 0; i < nt; i++) {
            diff = T[i * d + j] - mean;
            sq[i] = diff * diff;
        }
        var = column_sum(sq, nt, 1, d) / (double)(nt - 1);
        var = var > 0.0 ? var : var + VARIANCE_FLOOR;
        if (!isfinite(var))
            return 1;
        sd = sqrt(var);
        for (i = 0; i < nt; i++) {
            T[i * d + j] = (T[i * d + j] - mean) / sd;
            if (!isfinite(T[i * d + j]))
                return 1;
        }
        for (i = 0; i < ne; i++) {
            E[i * d + j] = (E[i * d + j] - mean) / sd;
            if (!isfinite(E[i * d + j]))
                return 1;
        }
    }
    return 0;
}

/* Whether every label is 0 or 1. */
static int binary_labels(const int64_t *labels, int64_t n)
{
    int64_t i;

    for (i = 0; i < n; i++)
        if (labels[i] != 0 && labels[i] != 1)
            return 0;
    return 1;
}

/* The NumPy functions that nbc_posteriors calls back for, by code:
 * generank.kernels applies (np.exp, np.log, np.log1p)[op] to the n
 * contiguous values at in and writes the results to out, which does not
 * overlap in, as the Python loop applies them to arrays of its own. It
 * returns 1, or anything else when it failed. */
typedef int64_t (*ufunc_fn)(int64_t op, const double *in, double *out, int64_t n);
enum { UFUNC_EXP, UFUNC_LOG, UFUNC_LOG1P };

/* Python's 2.0 * math.pi. */
#define TWO_PI (2.0 * 3.141592653589793)

/* The maximum of the n values x[0], x[stride], ..., NaN if one is NaN. */
static double maximum(const double *x, int64_t n, int64_t stride)
{
    double top = -INFINITY;
    int64_t j;

    for (j = 0; j < n && !isnan(top); j++)
        if (!(x[j * stride] <= top))
            top = x[j * stride];
    return top;
}

/* nbc_posteriors' steps, on the rows V of its training block, class 0's
 * rows[0] rows then class 1's rows[1], and a work area of the size it
 * allocates; returns 0, or 1 when the Python loop must decide. */
static int64_t nbc_steps(const double *V, const int64_t rows[2], int64_t d, const double *grid,
                         int64_t n_c, const double *E, int64_t n_e, ufunc_fn ufunc,
                         double *work, double *posteriors)
{
    int64_t n_t = rows[0] + rows[1], pairs = n_c * n_e, slots = pairs * d;
    int64_t terms = pairs * n_t * d, logs = 2 + 2 * n_c * d + n_t;
    int64_t cls, r, i, j, a, k, slot;
    double *sq = work, *h = sq + n_t, *arg = h + 2 * n_c * d, *ex = arg + terms;
    double *log_in = ex + terms, *log_out = log_in + logs, *top = log_out + logs;
    double *count = top + 2 * slots, *s = count + 2 * slots, *s_log1p = s + 2 * slots;
    double *joint = s_log1p + 2 * slots, *x;
    const double *log_count = log_out + 2 * n_c * d + 1, *y;
    double pw, mean, diff, var, sigma, z, out, log_rows;

    /* _nbc_fit: in log_in the priors, bandwidth (cls * n_c + r) * d + a
     * of class cls, candidate r and feature a times sqrt(2 pi) (h holds
     * the bandwidth itself), and the counts 1 .. n_t */
    for (cls = 0; cls < 2; cls++) {
        log_in[cls] = (double)rows[cls] / (double)n_t;
        y = V + cls * rows[0] * d;
        pw = pow((double)rows[cls], -0.2);
        for (a = 0; a < d; a++) {
            var = 0.0;
            if (rows[cls] > 1) {
                mean = column_sum(y + a, rows[cls], d, d) / (double)rows[cls];
                for (j = 0; j < rows[cls]; j++) {
                    diff = y[j * d + a] - mean;
                    sq[j] = diff * diff;
                }
                var = column_sum(sq, rows[cls], 1, d) / (double)(rows[cls] - 1);
            }
            sigma = sqrt(var < VARIANCE_FLOOR ? VARIANCE_FLOOR : var);
            for (r = 0; r < n_c; r++) {
                k = (cls * n_c + r) * d + a;
                h[k] = grid[r] * 1.06 * sigma * pw;
                log_in[2 + k] = h[k] * sqrt(TWO_PI);
                if (h[k] == 0.0)
                    return 1;
            }
        }
    }
    for (j = 0; j < n_t; j++)
        log_in[2 + 2 * n_c * d + j] = (double)(j + 1);

    /* The kernel terms -0.5 z^2 of class cls, candidate r, test row i,
     * the class's row j and feature a, at cls * rows[0] * pairs * d + ((r
     * * n_e + i) * rows[cls] + j) * d + a, their maximum over j and its
     * count at slot ((cls * n_c + r) * n_e + i) * d + a; then in each
     * term's place its exponent, where(at_max, -inf, term) - maximum. */
    for (cls = 0; cls < 2; cls++) {
        y = V + cls * rows[0] * d;
        for (k = 0; k < pairs; k++) {
            r = k / n_e;
            i = k % n_e;
            x = arg + (cls * rows[0] * pairs + k * rows[cls]) * d;
            for (j = 0; j < rows[cls]; j++) {
                for (a = 0; a < d; a++) {
                    z = (E[i * d + a] - y[j * d + a]) / h[(cls * n_c + r) * d + a];
                    x[j * d + a] = -0.5 * z * z;
                }
            }
            for (a = 0; a < d; a++) {
                slot = (cls * pairs + k) * d + a;
                top[slot] = maximum(x + a, rows[cls], d);
                if (!isfinite(top[slot]))
                    return 1;
                count[slot] = 0.0;
                for (j = 0; j < rows[cls]; j++) {
                    count[slot] += x[j * d + a] == top[slot];
                    x[j * d + a] =
                        (x[j * d + a] == top[slot] ? -INFINITY : x[j * d + a]) - top[slot];
                }
            }
        }
    }
    if (ufunc(UFUNC_EXP, arg, ex, terms) != 1 || ufunc(UFUNC_LOG, log_in, log_out, logs) != 1)
        return 1;
    /* the sums of the exponentials over each class's rows, over the count */
    for (cls = 0; cls < 2; cls++) {
        for (k = 0; k < pairs; k++) {
            x = ex + (cls * rows[0] * pairs + k * rows[cls]) * d;
            for (a = 0; a < d; a++) {
                slot = (cls * pairs + k) * d + a;
                s[slot] = column_sum(x + a, rows[cls], d, d);
                s[slot] = s[slot] == 0.0 ? s[slot] : s[slot] / count[slot];
            }
        }
    }
    if (ufunc(UFUNC_LOG1P, s, s_log1p, 2 * slots) != 1)
        return 1;
    /* the log kernel densities, in s's place, and the log joint of class
     * cls for candidate r and test row i at 2 * (r * n_e + i) + cls */
    for (cls = 0; cls < 2; cls++) {
        log_rows = log((double)rows[cls]);
        for (k = 0; k < pairs; k++) {
            slot = (cls * pairs + k) * d;
            for (a = 0; a < d; a++) {
                out = s_log1p[slot + a] + log_count[(int64_t)count[slot + a]] + top[slot + a];
                s[slot + a] = out - (log_rows + log_out[2 + (cls * n_c + k / n_e) * d + a]);
            }
            joint[2 * k + cls] = log_out[cls] + (0.0 + pairwise_sum(s + slot, d, 1));
        }
    }
    /* the second _logsumexp, over each pair of log joints, then the
     * posteriors exp(joint - logsumexp) over their sum */
    for (k = 0; k < pairs; k++) {
        top[k] = maximum(joint + 2 * k, 2, 1);
        if (!isfinite(top[k]))
            return 1;
        count[k] = (double)(joint[2 * k] == top[k]) + (double)(joint[2 * k + 1] == top[k]);
        for (cls = 0; cls < 2; cls++)
            arg[2 * k + cls] =
                (joint[2 * k + cls] == top[k] ? -INFINITY : joint[2 * k + cls]) - top[k];
    }
    if (ufunc(UFUNC_EXP, arg, ex, 2 * pairs) != 1)
        return 1;
    for (k = 0; k < pairs; k++) {
        s[k] = 0.0 + pairwise_sum(ex + 2 * k, 2, 1);
        s[k] = s[k] == 0.0 ? s[k] : s[k] / count[k];
    }
    if (ufunc(UFUNC_LOG1P, s, s_log1p, pairs) != 1)
        return 1;
    for (k = 0; k < pairs; k++) {
        out = s_log1p[k] + log_count[(int64_t)count[k]] + top[k];
        for (cls = 0; cls < 2; cls++)
            arg[2 * k + cls] = joint[2 * k + cls] - out;
    }
    if (ufunc(UFUNC_EXP, arg, posteriors, 2 * pairs) != 1)
        return 1;
    for (k = 0; k < pairs; k++) {
        out = 0.0 + pairwise_sum(posteriors + 2 * k, 2, 1);
        posteriors[2 * k] /= out;
        posteriors[2 * k + 1] /= out;
    }
    return 0;
}

/* The (n_c x n_e x 2) posteriors of the test rows E (n_e x d) by the
 * naive Bayes classifier fitted to the training rows T (n_t x d, labels
 * t_labels of 0 and 1) with each bandwidth multiplier of grid, step for
 * step as generank.classifiers._nbc_fit and _nbc_posteriors compute them.
 *
 * The fit: each class's rows in sample order, its variances by
 * column_sum as NumPy's var sums them (zero for a single row), the
 * bandwidths multiplier * 1.06 * sqrt(max(var, VARIANCE_FLOOR)) *
 * pow(n_c, -0.2) and the log priors. The posteriors: each class's kernel
 * terms -0.5 z^2 go through _logsumexp over the class's rows (maxima taken
 * out, the rest summed by column_sum, log1p of that over the maxima's
 * count plus log of the count plus the maximum), less log(n_c) and the
 * log of each bandwidth times sqrt(2 pi); the features' terms are summed
 * pairwise onto the log prior, and the two log joints of each row and
 * candidate are normalized by a second _logsumexp, exp and a division by
 * their sum. ufunc applies every exp, log and log1p, one call to all the
 * values of a step (six calls), the logs of the counts 1 .. n_t in the
 * call that takes the log priors and bandwidths.
 *
 * Returns 0, -1 if out of memory, or 1 when the Python loop must decide:
 * a class with no row, a bandwidth that underflowed to 0 (whose log NumPy
 * warns about), a _logsumexp whose maximum is not finite, and a ufunc
 * call that failed. The maximum decides alone, since the exponentials it
 * scales sum to a finite value: one that is not finite is where
 * _logsumexp takes SciPy's result over kernel terms, and where
 * _nbc_posteriors takes the priors over log joints (both -inf). A single
 * log joint of -inf is scored as Python scores it. It is exported so that
 * tests can compare its posteriors with _nbc_posteriors' bit for bit. */
int64_t nbc_posteriors(const double *T, const int64_t *t_labels, int64_t n_t, int64_t d,
                       const double *grid, int64_t n_c, const double *E, int64_t n_e,
                       ufunc_fn ufunc, double *posteriors)
{
    int64_t rows[2] = {0, 0}, at[2], slots = n_c * n_e * d, j, status;
    double *V;

    for (j = 0; j < n_t; j++)
        rows[t_labels[j]]++;
    if (rows[0] == 0 || rows[1] == 0)
        return 1;
    V = malloc(sizeof(double) * (size_t)(n_t * d + n_t + 2 * n_c * d + 2 * slots * n_t
                                         + 2 * (2 + 2 * n_c * d + n_t) + 8 * slots
                                         + 2 * n_c * n_e));
    if (V == NULL)
        return -1;
    /* train.features[train.labels == cls], class 0's rows first */
    at[0] = 0;
    at[1] = rows[0];
    for (j = 0; j < n_t; j++)
        memcpy(V + at[t_labels[j]]++ * d, T + j * d, sizeof(double) * (size_t)d);
    status = nbc_steps(V, rows, d, grid, n_c, E, n_e, ufunc, V + n_t * d, posteriors);
    free(V);
    return status;
}

/* A fold_search call's candidates, solver settings, perceptron seed
 * entropy (n_words uint32 words) and NumPy callback, and fold f: its n_t
 * standardized training rows T with their labels and its n_e test rows
 * E, of d features each. */
typedef struct {
    const double *grid, *T, *E;
    const int64_t *t_labels;
    const unsigned char *entropy;
    ufunc_fn ufunc;
    int64_t n, d, n_c, svm_max_iter, mlp_max_iter, n_words, by_fit, f, n_t, n_e;
    double svm_tol, sv_tol, ridge, mlp_tol;
} search;

/* A classifier's part of fold_search: work gives the 8-byte values its
 * label function needs, or -1 for a candidate or setting the Python loop
 * rejects; label writes test row i's label by candidate r to
 * predicted[r * n_e + i] and returns 0, 1 to defer, or -1 if out of memory. */
typedef struct {
    int64_t (*work)(const search *s);
    int64_t (*label)(const search *s, double *work, int64_t *predicted);
} scorer;

/* The vote takes a finite k >= 1, so that int(k) >= 1; its work is the
 * distances, one row's squared differences and the nearest rows. */
static int64_t knn_work(const search *s)
{
    int64_t r;

    for (r = 0; r < s->n_c; r++)
        if (!(s->grid[r] >= 1.0 && isfinite(s->grid[r])))
            return -1;
    return 2 * s->n + s->d;
}

/* Each test row labelled as generank.classifiers._knn_labels labels it
 * for each k, as min(int(k), n_t). A training row's distance is sqrt of
 * its squared differences from the test row, summed in NumPy's order
 * (pairwise_sum); the nearest max(k) rows are kept in stable order, a tie
 * going to the smaller training index, as the first max(k) of a stable
 * argsort. A k's vote goes to the class with more of its k nearest rows
 * and a split vote to the class whose distances, added left to right in
 * neighbour order, sum smaller, class 0 on equal sums. Every step is one
 * IEEE operation on each side, so the labels are the Python loop's. */
static int64_t knn_label(const search *s, double *work, int64_t *predicted)
{
    const double *T = s->T, *q;
    int64_t d = s->d, n_t = s->n_t, i, j, a, r, k, k_max = 0, kept, votes[2];
    double *dist = work, *diff = dist + s->n, sums[2];
    int64_t *near = (int64_t *)(diff + d);

    for (r = 0; r < s->n_c; r++) {
        k = s->grid[r] < n_t ? (int64_t)s->grid[r] : n_t;
        k_max = k < k_max ? k_max : k;
    }
    for (i = 0; i < s->n_e; i++) {
        q = s->E + i * d;
        for (j = 0, kept = 0; j < n_t; j++) {
            for (a = 0; a < d; a++) {
                diff[a] = T[j * d + a] - q[a];
                diff[a] = diff[a] * diff[a];
            }
            dist[j] = sqrt(pairwise_sum(diff, d, 1));
            /* j goes after every kept row at most as far; once k_max
             * rows are kept, the farthest drops out */
            a = kept < k_max ? kept++ : k_max;
            for (; a > 0 && dist[near[a - 1]] > dist[j]; a--)
                if (a < k_max)
                    near[a] = near[a - 1];
            if (a < k_max)
                near[a] = j;
        }
        for (r = 0; r < s->n_c; r++) {
            k = s->grid[r] < n_t ? (int64_t)s->grid[r] : n_t;
            votes[0] = votes[1] = 0;
            sums[0] = sums[1] = 0.0;
            for (a = 0; a < k; a++) {
                votes[s->t_labels[near[a]]]++;
                sums[s->t_labels[near[a]]] += dist[near[a]];
            }
            predicted[r * s->n_e + i] =
                votes[1] != votes[0] ? votes[1] > votes[0] : sums[1] < sums[0];
        }
    }
    return 0;
}

/* The SVM takes a positive box bound, as classifiers._checked_positive
 * does; its work is the targets and svm_grid_solve's outputs. */
static int64_t svm_work(const search *s)
{
    int64_t r;

    for (r = 0; r < s->n_c; r++)
        if (!(s->grid[r] > 0.0))
            return -1;
    return s->n + s->n_c * (2 * s->n + s->d + 3);
}

/* svm_grid_solve of every box bound, class 1 as +1; a label is
 * decision > 0. A fit that stalled or overflowed defers, for the Python
 * loop's ConvergenceError. */
static int64_t svm_label(const search *s, double *work, int64_t *predicted)
{
    double *y = work, *alpha = y + s->n, *decisions = alpha + s->n_c * s->n;
    double *weights = decisions + s->n_c * s->n, *bias = weights + s->n_c * s->d;
    double *gaps = bias + s->n_c;
    int64_t *updates = (int64_t *)(gaps + s->n_c), i;

    for (i = 0; i < s->n_t; i++)
        y[i] = s->t_labels[i] == 1 ? 1.0 : -1.0;
    if (svm_grid_solve(s->T, y, s->n_t, s->d, s->grid, s->n_c, s->E, s->n_e,
                       s->svm_max_iter, s->svm_tol, s->sv_tol, alpha, weights, bias, gaps,
                       updates, decisions) < 0)
        return -1;
    for (i = 0; i < s->n_c; i++)
        if (updates[i] < 0)
            return 1;
    for (i = 0; i < s->n_c * s->n_e; i++)
        predicted[i] = decisions[i] > 0.0;
    return 0;
}

/* The perceptron takes a whole width h >= 1, as
 * classifiers._checked_mlp_arguments does, below 2^31 so that sizes fit,
 * and a ridge and mlp_max_iter >= 0; its work is mlp_label's arrays. */
static int64_t mlp_work(const search *s)
{
    int64_t r, size = 0;

    if (!(s->ridge >= 0.0 && s->mlp_max_iter >= 0))
        return -1;
    for (r = 0; r < s->n_c; r++) {
        if (!(s->grid[r] >= 1.0 && s->grid[r] < 2147483648.0
              && s->grid[r] == floor(s->grid[r])))
            return -1;
        size += (s->d + 2) * (int64_t)s->grid[r] + 1;
    }
    return s->n + s->n_c * (s->mlp_max_iter + 4 + s->n) + s->n_words / 2 + 2 + size;
}

/* mlp_grid_solve of every hidden width, targets 0 and 1; a label is
 * probability > 0.5.
 * Fit p starts from initial_weights' draw for the seed derived_seed gives
 * the entropy words, then, when by_fit is set, the words of f and p:
 * crossval._derived_seed(*parts, f, p), or _derived_seed(*parts). */
static int64_t mlp_label(const search *s, double *work, int64_t *predicted)
{
    int64_t max_iter = s->mlp_max_iter, n_c = s->n_c, i, p, size = 0;
    double *t = work, *traces = t + s->n, *probabilities = traces + n_c * (max_iter + 1);
    double *w = probabilities + n_c * s->n + 3 * n_c + s->n_words / 2 + 2;
    int64_t *hs = (int64_t *)(probabilities + n_c * s->n), *lens = hs + n_c, *steps = lens + n_c;
    unsigned char *words = (unsigned char *)(steps + n_c);

    for (i = 0; i < s->n_t; i++)
        t[i] = (double)s->t_labels[i];
    memcpy(words, s->entropy, (size_t)(4 * s->n_words));
    for (p = 0; p < n_c; p++) {
        if (s->by_fit) {
            for (i = 0; i < 4; i++) {
                words[4 * s->n_words + i] = (unsigned char)(s->f >> (8 * i));
                words[4 * s->n_words + 4 + i] = (unsigned char)(p >> (8 * i));
            }
        }
        hs[p] = (int64_t)s->grid[p];
        initial_weights(s->d, hs[p],
                        (uint32_t)derived_seed(words, s->n_words + (s->by_fit ? 2 : 0)),
                        w + size);
        size += (s->d + 2) * hs[p] + 1;
    }
    if (mlp_grid_solve(s->T, t, s->n_t, s->d, hs, n_c, s->ridge, w, s->E, s->n_e, max_iter,
                       s->mlp_tol, traces, lens, steps, probabilities) < 0)
        return -1;
    for (i = 0; i < n_c * s->n_e; i++)
        predicted[i] = probabilities[i] > 0.5;
    return 0;
}

/* The naive Bayes classifier takes a positive multiplier, as
 * classifiers._checked_positive does, and a finite one: an infinite one
 * makes every log joint -inf, where _nbc_posteriors takes the priors. Its
 * work is the posteriors. */
static int64_t nbc_work(const search *s)
{
    int64_t r;

    for (r = 0; r < s->n_c; r++)
        if (!(s->grid[r] > 0.0 && isfinite(s->grid[r])))
            return -1;
    return 2 * s->n_c * s->n;
}

/* nbc_posteriors of every multiplier; a label is posterior 1 > posterior
 * 0, a tie going to class 0. */
static int64_t nbc_label(const search *s, double *work, int64_t *predicted)
{
    int64_t i, status = nbc_posteriors(s->T, s->t_labels, s->n_t, s->d, s->grid, s->n_c, s->E,
                                       s->n_e, s->ufunc, work);

    for (i = 0; i < s->n_c * s->n_e && status == 0; i++)
        predicted[i] = work[2 * i + 1] > work[2 * i];
    return status;
}

/* The scorers by classifier code, as generank.kernels.FOLD_SCORERS. */
static const scorer SCORERS[] = {
    {knn_work, knn_label}, {svm_work, svm_label}, {nbc_work, nbc_label},
    {mlp_work, mlp_label},
};

/* The inner search over the folds 0 .. n_folds - 1 of folds of the
 * samples X (n x d, row-major) with labels, by the scorer
 * SCORERS[classifier]: correct[r] counts the test rows candidate grid[r]
 * labels right. svm_grid_solve and mlp_grid_solve take the settings of
 * the same names, and nbc_posteriors the NumPy callback ufunc. Returns 0,
 * 1 when the Python loop must decide (also for no candidate), or -1 if
 * out of memory. */
int64_t fold_search(int64_t classifier, const double *X, int64_t n, int64_t d,
                    const int64_t *labels, const int64_t *folds, int64_t n_folds,
                    const double *grid, int64_t n_c, int64_t svm_max_iter, double svm_tol,
                    double sv_tol, double ridge, int64_t mlp_max_iter, double mlp_tol,
                    const unsigned char *entropy, int64_t n_words, int64_t by_fit,
                    ufunc_fn ufunc, int64_t *correct)
{
    search s = {.grid = grid, .entropy = entropy, .ufunc = ufunc, .n = n, .d = d, .n_c = n_c,
                .svm_max_iter = svm_max_iter, .mlp_max_iter = mlp_max_iter,
                .n_words = n_words, .by_fit = by_fit, .svm_tol = svm_tol, .sv_tol = sv_tol,
                .ridge = ridge, .mlp_tol = mlp_tol};
    double *T, *E, *sq;
    int64_t *t_labels, *e_labels, *predicted, size, r, i, status = 0;

    if (classifier < 0 || classifier >= (int64_t)(sizeof SCORERS / sizeof *SCORERS) || n_c < 1
        || !binary_labels(labels, n))
        return 1;
    size = SCORERS[classifier].work(&s);
    if (size < 0)
        return 1;
    T = malloc(sizeof(double) * (size_t)(2 * n * d + 3 * n + n_c * n + size));
    if (T == NULL)
        return -1;
    s.T = T;
    s.E = E = T + n * d;
    sq = E + n * d;
    s.t_labels = t_labels = (int64_t *)(sq + n);
    e_labels = t_labels + n;
    predicted = e_labels + n;
    for (r = 0; r < n_c; r++)
        correct[r] = 0;
    for (s.f = 0; s.f < n_folds && status == 0; s.f++) {
        status = fold_blocks(X, n, d, labels, folds, s.f, T, t_labels, &s.n_t, E, e_labels,
                             &s.n_e, sq);
        if (status == 0)
            status = SCORERS[classifier].label(&s, (double *)(predicted + n_c * n), predicted);
        for (r = 0; r < n_c && status == 0; r++)
            for (i = 0; i < s.n_e; i++)
                correct[r] += predicted[r * s.n_e + i] == e_labels[i];
    }
    free(T);
    return status;
}
