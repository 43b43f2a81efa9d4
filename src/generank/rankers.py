"""Per-gene two-sample tests and the ranking machinery built on them.

Three classical rankers are provided: an unequal-variance t-test, a
rank-sum test (exact for small pooled sizes, normal approximation with
tie correction otherwise) and a ROC ranker scored by the area under the
curve. Each returns a :class:`TestResult` for one gene.

:func:`rank_genes` and :func:`welch_p_values` score every gene of a
dataset in one pass over the whole matrix per method. They give the
same bits as calling the scalar test on each gene. Welch means and
variances reduce each gene as one contiguous row, which NumPy sums in the
same pairwise order as a 1-D sample, and both Welch paths square with a
multiply, one IEEE operation, not with ``pow``, whose build glibc picks by
CPU; midrank sums are half-integers and so exact in any order; the scalar
tails (``math.erfc``, the exact rank-sum null) stay per gene. The scalar
tests are the oracles the test suite checks this against.

The rank-sum statistics (the Wilcoxon and ROC rankers' rank sums, the tie
term of the Wilcoxon variance and the fuzzy filter's rank-sum deviation)
come from one default, unstable argsort of each gene's row and one pass
over the runs of equal values it lines up, compiled when the C library
is loaded (``kernels.rank_sums``) and :func:`_tie_ranks` otherwise. How
the sort orders equal values cannot matter: any order that sorts a row
puts equal values side by side (``-0.0`` equals ``0.0``), so the runs are
the same, and a run at sorted positions ``s..e`` gives each member the
midrank ``(s + e + 2) / 2`` whichever member sits where. The rank sums
are sums of half-integers no larger than ``n(n + 1)/2`` and the tie terms
sums of integers, so both are exact in any order too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from generank import kernels
from generank.dataio import VARIANCE_FLOOR, Dataset, check_tsv_ids, write_rows

# Pooled sizes up to this run the exact rank-sum null distribution.
EXACT_RANKSUM_LIMIT = 25


@dataclass(frozen=True)
class TestResult:
    """Outcome of one two-sample test."""

    statistic: float
    p_value: float
    effect: float


@dataclass
class GeneRanking:
    """Gene order produced by one ranking method.

    ``order`` lists gene indices from best to worst; ``scores`` stays
    aligned to the original gene indices (p-values for the classical
    rankers, fuzzy scores for the fuzzy filter).
    """

    method: str
    order: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.order.ndim != 1 or self.scores.ndim != 1:
            raise ValueError("order and scores must be 1-D")
        if self.order.shape != self.scores.shape:
            raise ValueError("order and scores must have equal length")
        seen = np.sort(self.order)
        if not (seen == np.arange(len(seen))).all():
            raise ValueError("order must be a permutation of 0..n_genes-1")


_TOO_FEW = "each sample needs at least two values"
_NON_FINITE = "samples contain non-finite values"


def _validate_pair(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("samples must be 1-D")
    if len(x) < 2 or len(y) < 2:
        raise ValueError(_TOO_FEW)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(_NON_FINITE)
    return x, y


def _student_t_two_sided(t, df):
    """Two-sided tail probability of Student's t via the regularized
    incomplete beta function, for scalars or arrays alike."""
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def welch_t_test(x, y) -> TestResult:
    """Unequal-variance t-test with Welch-Satterthwaite degrees of freedom.

    A zero pooled standard error gets the variance floor; when both
    sample variances vanish the degrees of freedom fall back to
    ``nx + ny - 2``. The effect is the signed mean difference.
    """
    x, y = _validate_pair(x, y)
    nx, ny = len(x), len(y)
    mx, my = x.mean(), y.mean()
    ax, ay = x.var(ddof=1) / nx, y.var(ddof=1) / ny
    se2 = ax + ay
    if se2 == 0.0:
        se2 = VARIANCE_FLOOR
    t = (mx - my) / math.sqrt(se2)
    df_den = ax * ax / (nx - 1) + ay * ay / (ny - 1)
    if df_den > 0.0:
        df = se2 * se2 / df_den
    else:
        df = nx + ny - 2
    return TestResult(float(t), float(_student_t_two_sided(t, df)), float(mx - my))


def _exact_ranksum_p(doubled, n_w: int, dev2: int) -> float:
    """Exact two-sided tail of the rank-sum null: the fraction of
    equally-sized subsets whose doubled rank sum deviates from its
    expectation by at least ``dev2``.

    ``doubled`` holds the doubled midranks (integers), so all sums and
    comparisons are exact.
    """
    n = len(doubled)
    counts = _ranksum_null_counts(tuple(sorted(doubled.tolist())), n_w)
    sums = np.arange(len(counts))
    expected2 = n_w * (n + 1)
    hits = counts[np.abs(sums - expected2) >= dev2].sum()
    return float(hits) / math.comb(n, n_w)


@functools.lru_cache(maxsize=256)
def _ranksum_null_counts(doubled: tuple, n_w: int) -> np.ndarray:
    """Number of size-``n_w`` subsets of the doubled midranks ``doubled``
    (sorted) by doubled rank sum, read-only.

    The table depends only on the multiset of ranks, so every tie-free
    gene of one pooled size shares one entry.
    """
    total = sum(doubled)
    # counts[j][s]: subsets of size j with doubled rank sum s; counts stay
    # below C(25, 12) so float64 holds them exactly, in any order of adding
    counts = np.zeros((n_w + 1, total + 1))
    counts[0, 0] = 1.0
    for r in doubled:
        for j in range(n_w - 1, -1, -1):
            counts[j + 1, r:] += counts[j, : total + 1 - r]
    row = counts[n_w].copy()
    row.flags.writeable = False
    return row


def _tie_ranks(a: np.ndarray, order: np.ndarray):
    """``(ranks, start, end)`` along the last axis of ``a``, which
    ``order`` sorts: the midranks of :func:`midranks`, and for each sorted
    position the first and last sorted position of the run of equal
    values that holds it."""
    ordered = np.take_along_axis(a, order, axis=-1)
    n = ordered.shape[-1]
    position = np.arange(n)
    opens = np.ones(ordered.shape, dtype=bool)
    opens[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    closes = np.ones(ordered.shape, dtype=bool)
    closes[..., :-1] = opens[..., 1:]
    start = np.maximum.accumulate(np.where(opens, position, 0), axis=-1)
    end = np.flip(
        np.minimum.accumulate(np.flip(np.where(closes, position, n), -1), axis=-1), -1
    )
    ranks = np.empty(ordered.shape)
    np.put_along_axis(ranks, order, (start + end + 2) / 2, axis=-1)
    return ranks, start, end


def _rank_sums(matrix: np.ndarray, in_class: np.ndarray, with_ranks=False):
    """``(w, tie_term, ranks)`` for each row of the 2-D ``matrix``: the sum
    of the midranks of the samples that the boolean ``in_class`` marks,
    the int64 sum of ``t**3 - t`` over the row's runs of ``t`` equal
    values, and the midranks themselves when ``with_ranks`` (else None).

    One default argsort orders the rows; the compiled pass
    (``kernels.rank_sums``) walks their runs, and without it, or for a
    matrix that is not float64, :func:`_tie_ranks` does.
    """
    order = np.argsort(matrix, axis=-1)
    if kernels.rank_sums is not None and matrix.dtype == np.float64:
        return kernels.rank_sums(matrix, order, in_class, with_ranks)
    ranks, start, end = _tie_ranks(matrix, order)
    # each of a run's t positions adds t**2 - 1, an integer sum that is exact
    runs = end - start + 1
    w = ranks[:, in_class].sum(axis=1)
    return w, (runs * runs - 1).sum(axis=1), ranks if with_ranks else None


def midranks(a, axis=-1) -> np.ndarray:
    """Ranks 1..n of finite values along ``axis``, tied values sharing
    the mean of their ranks: ``scipy.stats.rankdata(a, axis=axis)``.

    A tie run spanning sorted positions ``start..end`` gets
    ``(start + end + 2) / 2``, an exact half-integer, so the result has
    the same bits as SciPy's.
    """
    a = np.moveaxis(np.asarray(a), axis, -1)
    n = a.shape[-1]
    rows = a.reshape(math.prod(a.shape[:-1]), n)
    ranks = _rank_sums(rows, np.zeros(n, dtype=bool), with_ranks=True)[2]
    return np.moveaxis(ranks.reshape(a.shape), -1, axis)


def wilcoxon_test(x, y) -> TestResult:
    """Two-sample rank-sum test on midranks.

    The statistic is the rank sum of the smaller sample (of ``x`` on
    equal sizes) and the effect its absolute deviation from the null
    expectation. Pooled sizes up to 25 are tested exactly by counting
    subsets over doubled midranks; larger ones use the normal
    approximation with tie-corrected variance and a 0.5 continuity
    correction.
    """
    x, y = _validate_pair(x, y)
    nx, ny = len(x), len(y)
    n = nx + ny
    pooled = np.concatenate([x, y])
    ranks = midranks(pooled)
    if nx <= ny:
        w_ranks, n_w = ranks[:nx], nx
    else:
        w_ranks, n_w = ranks[nx:], ny
    w = float(w_ranks.sum())
    expected = n_w * (n + 1) / 2.0
    effect = abs(w - expected)

    if n <= EXACT_RANKSUM_LIMIT:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        dev2 = abs(int(round(2.0 * w)) - n_w * (n + 1))
        p = _exact_ranksum_p(doubled, n_w, dev2)
    else:
        _, tie_sizes = np.unique(pooled, return_counts=True)
        tie_term = float((tie_sizes**3 - tie_sizes).sum()) / (n * (n - 1))
        sigma2 = nx * ny / 12.0 * ((n + 1) - tie_term)
        if sigma2 <= 0.0:
            p = 1.0
        else:
            z = (effect - 0.5) / math.sqrt(sigma2)
            p = math.erfc(max(z, 0.0) / math.sqrt(2.0))
    return TestResult(w, p, effect)


def roc_test(x, y) -> TestResult:
    """Rank one gene by the area under its ROC curve.

    ``x`` (class 0) plays the positive role; ties count one half. The
    effect is the area's distance from chance and the p-value comes from
    a normal approximation with the Hanley-McNeil standard error at the
    observed area. A degenerate (0 or 1) area gets p = 0.
    """
    x, y = _validate_pair(x, y)
    nx, ny = len(x), len(y)
    ranks = midranks(np.concatenate([x, y]))
    u = float(ranks[:nx].sum()) - nx * (nx + 1) / 2.0
    area = u / (nx * ny)
    effect = abs(area - 0.5)

    q1 = area / (2.0 - area)
    q2 = 2.0 * area * area / (1.0 + area)
    se2 = (
        area * (1.0 - area)
        + (nx - 1) * (q1 - area * area)
        + (ny - 1) * (q2 - area * area)
    ) / (nx * ny)
    if se2 <= 0.0:
        p = 1.0 if effect == 0.0 else 0.0
    else:
        z = effect / math.sqrt(se2)
        p = math.erfc(z / math.sqrt(2.0))
    return TestResult(area, p, effect)


def _check_genes(gene_ids, too_few: bool, finite: np.ndarray):
    """Raise the error of the scalar tests for the first gene that fails
    their checks: every gene does when a class holds fewer than two
    samples (``too_few``), else the first whose row is not all finite
    (``finite``, a flag per gene)."""
    if too_few and len(gene_ids):
        raise ValueError(f"gene {gene_ids[0]!r}: {_TOO_FEW}")
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"gene {gene_ids[bad]!r}: {_NON_FINITE}")


def _checked_matrix(dataset: Dataset) -> np.ndarray:
    """The expression matrix, after the checks the scalar tests make on
    each gene; a failure names the first gene that fails them."""
    matrix = dataset.matrix
    too_few = min((dataset.labels == 0).sum(), (dataset.labels == 1).sum()) < 2
    _check_genes(dataset.gene_ids, too_few, np.isfinite(matrix).all(axis=1))
    return matrix


def _welch_columns(matrix: np.ndarray, labels: np.ndarray):
    """(p-values, effects) of :func:`welch_t_test` for every gene."""
    # genes x samples with each gene a contiguous row: NumPy reduces a row
    # along axis 1 in the same pairwise order as the 1-D sample in
    # welch_t_test; an axis-0 reduction over samples x genes would not
    x = np.ascontiguousarray(matrix[:, labels == 0])
    y = np.ascontiguousarray(matrix[:, labels == 1])
    nx, ny = x.shape[1], y.shape[1]
    mx, vx = x.mean(axis=1), x.var(axis=1, ddof=1)
    my, vy = y.mean(axis=1), y.var(axis=1, ddof=1)
    ax, ay = vx / nx, vy / ny
    se2 = ax + ay
    se2[se2 == 0.0] = VARIANCE_FLOOR
    df_den = ax * ax / (nx - 1) + ay * ay / (ny - 1)
    df = np.full(len(se2), float(nx + ny - 2))
    np.divide(se2 * se2, df_den, out=df, where=df_den > 0.0)
    t = (mx - my) / np.sqrt(se2)
    return _student_t_two_sided(t, df), mx - my


def rank_sum_deviation(matrix: np.ndarray, labels: np.ndarray, with_ranks=False):
    """``(deviation, tie_term, ranks)`` per row of ``matrix`` (genes x
    samples): |W - E[W]|, W being the rank sum of the smaller class (class
    0 on equal sizes), which is the effect of :func:`wilcoxon_test` for
    every gene, then the tie term and midranks of :func:`_rank_sums`."""
    n0 = int((labels == 0).sum())
    n1 = int((labels == 1).sum())
    w_class, n_w = (0, n0) if n0 <= n1 else (1, n1)
    w, tie_term, ranks = _rank_sums(matrix, labels == w_class, with_ranks)
    return np.abs(w - n_w * (len(labels) + 1) / 2.0), tie_term, ranks


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """``math.erfc(z / sqrt(2))`` per value, as the scalar tests call it."""
    return np.array([math.erfc(v) for v in (z / math.sqrt(2.0)).tolist()])


def _wilcoxon_columns(matrix: np.ndarray, labels: np.ndarray):
    """(p-values, effects) of :func:`wilcoxon_test` for every gene."""
    nx = int((labels == 0).sum())
    ny = int((labels == 1).sum())
    n = nx + ny
    exact = n <= EXACT_RANKSUM_LIMIT
    effects, tie_term, ranks = rank_sum_deviation(matrix, labels, with_ranks=exact)
    if exact:
        n_w = min(nx, ny)
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        dev2 = np.rint(2.0 * effects).astype(np.int64).tolist()
        p = [_exact_ranksum_p(d, n_w, dev2[g]) for g, d in enumerate(doubled)]
        return np.array(p, dtype=np.float64), effects
    sigma2 = nx * ny / 12.0 * ((n + 1) - tie_term.astype(np.float64) / (n * (n - 1)))
    p = np.ones(len(effects))
    spread = sigma2 > 0.0
    z = (effects[spread] - 0.5) / np.sqrt(sigma2[spread])
    p[spread] = _erfc_tail(np.maximum(z, 0.0))
    return p, effects


def _roc_columns(matrix: np.ndarray, labels: np.ndarray):
    """(p-values, effects) of :func:`roc_test` for every gene."""
    nx = int((labels == 0).sum())
    ny = int((labels == 1).sum())
    u = _rank_sums(matrix, labels == 0)[0] - nx * (nx + 1) / 2.0
    area = u / (nx * ny)
    effects = np.abs(area - 0.5)
    q1 = area / (2.0 - area)
    q2 = 2.0 * area * area / (1.0 + area)
    se2 = (
        area * (1.0 - area)
        + (nx - 1) * (q1 - area * area)
        + (ny - 1) * (q2 - area * area)
    ) / (nx * ny)
    p = np.where(effects == 0.0, 1.0, 0.0)
    spread = se2 > 0.0
    p[spread] = _erfc_tail(effects[spread] / np.sqrt(se2[spread]))
    return p, effects


def welch_p_values(dataset: Dataset) -> np.ndarray:
    """Welch t-test p-value of every gene, aligned to gene indices.

    The fuzzy rankers break score ties by these values.
    """
    return _welch_columns(_checked_matrix(dataset), dataset.labels)[0]


_COLUMN_TESTS = {
    "ttest": _welch_columns,
    "wilcoxon": _wilcoxon_columns,
    "roc": _roc_columns,
}
RANKER_METHODS = tuple(_COLUMN_TESTS)


def _column_test(method: str):
    try:
        return _COLUMN_TESTS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}, expected one of {', '.join(RANKER_METHODS)}"
        ) from None


def rank_genes(dataset: Dataset, method: str) -> GeneRanking:
    """Order all genes by one test: ascending p, then descending effect,
    then gene index.

    Every gene is scored in one pass over the whole matrix, with the same
    p-values and effects as the scalar test applied gene by gene; a gene
    the scalar test would reject raises ``ValueError`` naming the first
    such gene.
    """
    test = _column_test(method)
    p_values, effects = test(_checked_matrix(dataset), dataset.labels)
    order = np.lexsort((-effects, p_values))
    return GeneRanking(method, order, p_values)


def _check_folds(dataset: Dataset, held_outs: np.ndarray):
    """Raise the error :func:`rank_genes` raises on the training fold of
    the first sample of ``held_outs`` whose fold it rejects."""
    labels = dataset.labels
    sizes = np.array([(labels == 0).sum(), (labels == 1).sum()])
    own = labels[held_outs]
    too_few = np.minimum(sizes[own] - 1, sizes[1 - own]) < 2
    finite = np.isfinite(dataset.matrix)
    if not too_few.any() and finite.all():
        return
    for held_out, fold_too_few in zip(held_outs.tolist(), too_few.tolist()):
        fold_finite = np.delete(finite, held_out, axis=1).all(axis=1)
        _check_genes(dataset.gene_ids, fold_too_few, fold_finite)


def rank_folds(dataset: Dataset, method: str, held_outs) -> list:
    """One :class:`GeneRanking` per sample index of ``held_outs``, the
    bits of :func:`rank_genes` on that sample's training fold (every
    sample but it).

    Each fold's columns are put in class order, class 0's then class 1's,
    each in dataset order, so that the folds holding out a sample of one
    class share one label vector. Each such group is scored by one call of
    the method's test on a stack with a row per (fold, gene), and ordered
    by one ``np.lexsort`` over all its folds. The bits are those of each
    fold alone: a Welch row holds the fold's values of each class in the
    fold's own order, and is reduced as one contiguous row; rank sums, tie
    terms and the exact null do not depend on the order of the columns;
    and a stable sort has one result. A fold that :func:`rank_genes`
    rejects raises its ``ValueError``, the first such fold's in
    ``held_outs`` order, before any fold is scored.
    """
    test = _column_test(method)
    held_outs = np.asarray(held_outs, dtype=np.int64)
    n_genes, n = dataset.matrix.shape
    if held_outs.ndim != 1 or not ((0 <= held_outs) & (held_outs < n)).all():
        raise ValueError(f"held_outs must be a 1-D list of sample indices below {n}")
    _check_folds(dataset, held_outs)
    labels = dataset.labels
    # class 0's columns, then class 1's, each in dataset order
    columns = np.argsort(labels, kind="stable")
    rankings = [None] * len(held_outs)
    for cls in (0, 1):
        at = np.flatnonzero(labels[held_outs] == cls)
        if not len(at):
            continue
        stack = np.empty((len(at), n_genes, n - 1))
        for fold, held_out in enumerate(held_outs[at].tolist()):
            fold_columns = columns[columns != held_out]
            # take writes C order, where a column index writes Fortran
            # order; the columns are in range, and "clip" skips the buffer
            # that "raise" copies through
            dataset.matrix.take(fold_columns, axis=1, out=stack[fold], mode="clip")
        # every fold of the group has these labels
        p_values, effects = test(stack.reshape(-1, n - 1), labels[fold_columns])
        p_values = p_values.reshape(len(at), n_genes)
        orders = np.lexsort((-effects.reshape(p_values.shape), p_values), axis=-1)
        for i, order, scores in zip(at.tolist(), orders, p_values):
            rankings[i] = GeneRanking(method, order, scores)
    return rankings


def save_ranking(ranking: GeneRanking, gene_ids, path):
    """Write ``rank<TAB>gene_id<TAB>score`` rows, best gene first, each
    score as ``repr`` writes it (see ``dataio.write_rows``). A gene id
    that holds a tab, newline or carriage return raises ValueError before
    the file is opened."""
    ids = [gene_ids[g] for g in ranking.order.tolist()]
    check_tsv_ids("gene id", ids)
    with open(path, "wb") as fh:
        fh.write(b"rank\tgene_id\tscore\n")
        write_rows(
            fh, list(map("{}\t{}".format, range(1, len(ids) + 1), ids)),
            ranking.scores[ranking.order][:, None],
        )
