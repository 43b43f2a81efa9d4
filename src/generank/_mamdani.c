/* Three compiled loops that mirror Python code expression for
 * expression, and a reader of the expression matrix's text:
 *
 * mamdani_scores, the batch fuzzy-inference kernel, a plain-C port of
 * generank._mamdani_py. The centroid accumulates in ascending grid
 * order. The grid ordinates and output triangles are tabulated once per
 * call, and each output class only visits the grid points where its
 * triangle is positive: the skipped points contribute exact zeros, so
 * skipping them cannot change a bit of the result.
 *
 * smo_solve, the update loop of the linear SVM's dual solver, a port of
 * generank.classifiers._smo_loop.
 *
 * scg_solve, the scaled-conjugate-gradient loop that trains the
 * perceptron, a port of generank.classifiers._scg_loop. Every sum runs
 * left to right and exp and log come from the C library on both sides,
 * so neither depends on BLAS or SIMD code paths.
 *
 * parse_matrix_rows, the rows of an expression-matrix TSV in a strict
 * form, to the bits generank.dataio's line-by-line reader gives them.
 *
 * The library is built with -ffp-contract=off, so no loop fuses a
 * multiply and an add that the Python code rounds separately, and each
 * produces the same bits as the code it ports. The one exception is a
 * NaN's bits in a result that overflowed, which svm_train rejects.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define GRID 1001

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

/* Score n genes into scores[0..n); returns the number of clamped inputs.
 * params holds (alpha, beta) for fold change, variance and rank sum. */
int64_t mamdani_scores(const double *fc, const double *var, const double *rs,
                       const double *params, int64_t n, double *scores)
{
    double ygrid[GRID], tri[5][GRID], agg[GRID];
    int lo[5], hi[5];
    double mu_fc[3], mu_var[3], mu_rs[3], h[5];
    double fire, num, den, c;
    int64_t g, clamped = 0;
    int i, f, v, s, cls, span_lo, span_hi;

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
    }
    return clamped;
}

/* Pairwise updates of the dual variables alpha of a linear SVM, from
 * Q = (y y^T) * K (n x n, row-major), labels y = +-1 and box bound c,
 * until the violation gap drops below tol. alpha and grad = Q alpha - 1
 * are updated in place, and *gap_out receives the last gap computed.
 * Returns the number of updates made, or -1 if max_iter updates did not
 * reach tol. Which NaN an operation on two NaNs returns depends on the
 * order in which the compiler placed its operands, here and in NumPy
 * alike, so a result that overflowed can differ from the NumPy loop in
 * its NaN bits, though not in its update count or NaN positions. */
int64_t smo_solve(const double *Q, const double *y, double c, int64_t n,
                  int64_t max_iter, double tol, double *alpha, double *grad,
                  double *gap_out)
{
    int64_t it, k, i, j;
    double f, up, low, f_i, f_j, gap, old_i, old_j, quad, delta, diff, total, di, dj;

    for (it = 0; it < max_iter; it++) {
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
        *gap_out = gap;
        if (gap < tol)
            return it;

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
    return -1;
}

#define SCG_SIGMA0 1e-4

/* a[0] * b[0] + a[1] * b[1] + ..., added left to right. */
static double dot(const double *a, const double *b, int64_t m)
{
    double acc = a[0] * b[0];
    int64_t i;

    for (i = 1; i < m; i++)
        acc = acc + a[i] * b[i];
    return acc;
}

/* Penalized cross-entropy of the perceptron with packed weights w
 * (w1 as d x h row-major, b1, w2, b2) on X (n x d) and targets t, and
 * its gradient into g; the loss is computed only when with_loss is set.
 * hid and dh hold n x h values, out n values. Every sum over samples,
 * features or hidden units starts at its first term and adds left to
 * right, as in classifiers._fixed_loss_and_grad; the hidden axis is
 * innermost so that those loops vectorize. */
static double loss_and_grad(const double *restrict X, const double *restrict t,
                            int64_t n, int64_t d, int64_t h, double ridge,
                            const double *restrict w, int with_loss,
                            double *restrict hid, double *restrict dh,
                            double *restrict out, double *restrict g)
{
    const double *w1 = w, *b1 = w + d * h, *w2 = b1 + h;
    double *g_w1 = g, *g_b1 = g + d * h, *g_w2 = g_b1 + h, *g_b2 = g_w2 + h;
    double b2 = w2[h], loss = 0.0, o, safe, term;
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
        o = dot(a, w2, h);
        out[i] = 1.0 / (1.0 + exp(-(o + b2)));
    }

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
 * row-major) and targets t, until the gradient norm falls below tol.
 * trace receives the loss after each accepted step, the initial loss
 * first (at most max_iter + 1 values), and *trace_len their count;
 * *capped is set to 1 when max_iter iterations ran out first and to 0
 * otherwise. Returns the number of iterations run, or -1 if the work
 * arrays could not be allocated. */
int64_t scg_solve(const double *X, const double *t, int64_t n, int64_t d,
                  int64_t h, double ridge, int64_t max_iter, double tol,
                  double *w, double *trace, int64_t *trace_len, int64_t *capped)
{
    int64_t m = d * h + 2 * h + 1, k, i, len = 1;
    double *work = malloc(sizeof(double) * (size_t)(6 * m + 2 * n * h + n));
    double *grad, *r, *p, *s, *trial, *grad_new, *hid, *dh, *out, *swap;
    double loss, loss_new, lam = 1e-6, lam_bar = 0.0, delta = 0.0, p_sq, sigma,
           mu, alpha, comparison, beta;
    int success = 1;

    if (work == NULL)
        return -1;
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
    *capped = k > max_iter;
    *trace_len = len;
    free(work);
    return k - 1;
}

/* One slot of parse_matrix_rows' memo: the value of the cell text held
 * in text[0, len). len == 0 marks an empty slot. The text is a copy, so a
 * lookup does not reach back into the file: 24 bytes hold the longest
 * repr of a double, and longer cells are converted every time. */
typedef struct {
    char text[24];
    int64_t len;
    double value;
} memo_slot;

static int is_digit(char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* End of the number at data[i], or -1 unless data[i..] begins with
 * [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?, the form every cell must take. */
static int64_t number_end(const char *data, int64_t i, int64_t size)
{
    int64_t digits = 0;

    if (i < size && (data[i] == '+' || data[i] == '-'))
        i++;
    for (; i < size && is_digit(data[i]); i++)
        digits++;
    if (i < size && data[i] == '.')
        for (i++; i < size && is_digit(data[i]); i++)
            digits++;
    if (digits == 0)
        return -1;
    if (i < size && (data[i] == 'e' || data[i] == 'E')) {
        i++;
        if (i < size && (data[i] == '+' || data[i] == '-'))
            i++;
        if (i == size || !is_digit(data[i]))
            return -1;
        while (i < size && is_digit(data[i]))
            i++;
    }
    return i;
}

/* FNV-1a hash of len bytes at s, its high half folded into the low one:
 * a product's low bits depend only on its factors' low bits, and the memo
 * takes its slot from the low bits. */
static uint64_t hash_bytes(const char *s, int64_t len)
{
    uint64_t h = 0xcbf29ce484222325u;

    while (len-- > 0)
        h = (h ^ (unsigned char)*s++) * 0x100000001b3u;
    return h ^ (h >> 32);
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

/* parse_matrix_rows, the body of an expression-matrix TSV, the bytes of
 * data[pos, size) that follow the header line. Each line must be empty or
 * "id\tv1\t...\tvn" with n = n_samples, ending in '\n' (the last line may
 * lack it); the id may hold any bytes but '\t' and '\n', and each cell
 * must match number_end's form exactly. Row r's values go to
 * out[r * n_samples ...] and its id's byte span to id_spans[2r, 2r + 1].
 * Returns the number of rows, -1 when the body is not in that form or
 * holds more than max_rows rows, or -2 when out of memory.
 *
 * For this form glibc's strtod and Python's float() both round
 * correctly, so the values match the line-by-line reader's bits. A
 * normalized matrix repeats a few texts many times, so each distinct
 * text is converted once: a table keyed on the cell's exact bytes, of
 * the power of two >= 2 * max_rows slots, remembers values until it is
 * half full. */
int64_t parse_matrix_rows(const char *data, int64_t size, int64_t pos,
                          int64_t n_samples, int64_t max_rows, double *out,
                          int64_t *id_spans)
{
    memo_slot *memo, *slot;
    uint64_t cap = 2, filled = 0;
    int64_t rows = 0, j, start, end, status = 0;
    double value;

    if (n_samples < 1)
        return -1;
    while (cap < 2 * (uint64_t)max_rows)
        cap *= 2;
    memo = calloc(cap, sizeof *memo);
    if (!memo)
        return -2;
    while (pos < size) {
        if (data[pos] == '\n') {
            pos++;
            continue;
        }
        if (rows == max_rows) {
            status = -1;
            break;
        }
        start = pos;
        while (pos < size && data[pos] != '\t' && data[pos] != '\n')
            pos++;
        id_spans[2 * rows] = start;
        id_spans[2 * rows + 1] = pos;
        for (j = 0; j < n_samples; j++) {
            start = pos + 1;
            end = pos < size && data[pos] == '\t' ? number_end(data, start, size) : -1;
            if (end < 0 || (end < size && data[end] != (j + 1 < n_samples ? '\t' : '\n'))) {
                status = -1;
                break;
            }
            slot = memo + (hash_bytes(data + start, end - start) & (cap - 1));
            while (slot->len != 0 && (slot->len != end - start ||
                   memcmp(slot->text, data + start, end - start) != 0))
                slot = slot + 1 == memo + cap ? memo : slot + 1;
            if (slot->len != 0) {
                value = slot->value;
            } else if ((status = convert(data + start, end - start, &value)) != 0) {
                break;
            } else if (2 * filled < cap && end - start <= (int64_t)sizeof slot->text) {
                memcpy(slot->text, data + start, end - start);
                slot->len = end - start;
                slot->value = value;
                filled++;
            }
            out[rows * n_samples + j] = value;
            pos = end;
        }
        if (status != 0)
            break;
        pos++; /* past the row's '\n', or past the end */
        rows++;
    }
    free(memo);
    return status == 0 ? rows : status;
}
