"""Per-gene two-sample tests and the ranking machinery built on them.

Three classical rankers are provided: an unequal-variance t-test, a
rank-sum test (exact for small pooled sizes, normal approximation with
tie correction otherwise) and a ROC ranker scored by the area under the
curve. Each returns a :class:`TestResult`; :func:`rank_genes` applies
one test across all genes and orders them by ascending p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc
from scipy.stats import rankdata

from generank.dataio import VARIANCE_FLOOR, Dataset

RANKER_METHODS = ("ttest", "wilcoxon", "roc")

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


def _validate_pair(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("samples must be 1-D")
    if len(x) < 2 or len(y) < 2:
        raise ValueError("each sample needs at least two values")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("samples contain non-finite values")
    return x, y


def _student_t_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t via the regularized
    incomplete beta function."""
    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def welch_t_test(x, y) -> TestResult:
    """Unequal-variance t-test with Welch-Satterthwaite degrees of freedom.

    A zero pooled standard error gets the variance floor; when both
    sample variances vanish the degrees of freedom fall back to
    ``nx + ny - 2``. The effect is the signed mean difference.
    """
    x, y = _validate_pair(x, y)
    nx, ny = len(x), len(y)
    mx, my = x.mean(), y.mean()
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    se2 = vx / nx + vy / ny
    if se2 == 0.0:
        se2 = VARIANCE_FLOOR
    t = (mx - my) / math.sqrt(se2)
    df_den = (vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1)
    if df_den > 0.0:
        df = se2 * se2 / df_den
    else:
        df = nx + ny - 2
    return TestResult(float(t), _student_t_two_sided(t, df), float(mx - my))


def _exact_ranksum_p(doubled, n_w: int, dev2: int) -> float:
    """Exact two-sided tail of the rank-sum null: the fraction of
    equally-sized subsets whose doubled rank sum deviates from its
    expectation by at least ``dev2``.

    ``doubled`` holds the doubled midranks (integers), so all sums and
    comparisons are exact.
    """
    n = len(doubled)
    total = int(doubled.sum())
    # counts[j][s]: subsets of size j with doubled rank sum s; counts stay
    # below C(25, 12) so float64 holds them exactly
    counts = np.zeros((n_w + 1, total + 1))
    counts[0, 0] = 1.0
    for r in doubled:
        r = int(r)
        for j in range(n_w - 1, -1, -1):
            counts[j + 1, r:] += counts[j, : total + 1 - r]
    sums = np.arange(total + 1)
    expected2 = n_w * (n + 1)
    hits = counts[n_w, np.abs(sums - expected2) >= dev2].sum()
    return float(hits) / math.comb(n, n_w)


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
    ranks = rankdata(pooled)
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
    ranks = rankdata(np.concatenate([x, y]))
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


def welch_p_values(dataset: Dataset) -> np.ndarray:
    """Welch t-test p-value of every gene, aligned to gene indices.

    The fuzzy rankers break score ties by these values.
    """
    p_values = np.empty(dataset.n_genes)
    for g in range(dataset.n_genes):
        x, y = dataset.class_values(g)
        p_values[g] = welch_t_test(x, y).p_value
    return p_values


_TESTS = {
    "ttest": welch_t_test,
    "wilcoxon": wilcoxon_test,
    "roc": roc_test,
}


def rank_genes(dataset: Dataset, method: str) -> GeneRanking:
    """Order all genes by one test: ascending p, then descending effect,
    then gene index."""
    try:
        test = _TESTS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}, expected one of {', '.join(RANKER_METHODS)}"
        ) from None
    n_genes = dataset.n_genes
    p_values = np.empty(n_genes)
    effects = np.empty(n_genes)
    for g in range(n_genes):
        x, y = dataset.class_values(g)
        try:
            result = test(x, y)
        except ValueError as exc:
            raise ValueError(f"gene {dataset.gene_ids[g]!r}: {exc}") from None
        p_values[g] = result.p_value
        effects[g] = result.effect
    order = np.lexsort((-effects, p_values))
    return GeneRanking(method, order, p_values)


def save_ranking(ranking: GeneRanking, gene_ids, path):
    """Write ``rank<TAB>gene_id<TAB>score`` rows, best gene first."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank\tgene_id\tscore\n")
        for pos, g in enumerate(ranking.order, start=1):
            fh.write(f"{pos}\t{gene_ids[g]}\t{float(ranking.scores[g])!r}\n")
