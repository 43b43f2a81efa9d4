"""Tests for the three per-gene test statistics and gene ordering."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc

from generank import kernels, rankers
from generank.dataio import Dataset
from generank.fgf import compute_fuzzy_inputs, fgf_rank
from generank.rankers import (
    EXACT_RANKSUM_LIMIT,
    GeneRanking,
    midranks,
    rank_genes,
    roc_test,
    save_ranking,
    welch_p_values,
    welch_t_test,
    wilcoxon_test,
)

from conftest import planted_dataset


# ---------------------------------------------------------------------------
# midranks


@pytest.mark.parametrize(
    "values",
    [
        [3.0],
        [2.0, 2.0, 2.0, 2.0],
        [0.0, -0.0, 1.0, -0.0, 0.0],
        [3.0, 1.0, 1.0, 2.0, 3.0, 3.0],
        [[5.0, 5.0, 5.0], [1.0, -1.0, 1.0], [0.0, -0.0, -1.0]],
        [[7.0]],
    ],
)
def test_midranks_known_cases_match_scipy(values):
    values = np.asarray(values)
    expected = stats.rankdata(values, axis=-1)
    assert midranks(values).tobytes() == expected.tobytes()
    assert midranks(values).shape == expected.shape


def test_midranks_bit_identical_to_scipy():
    rng = np.random.default_rng(130)
    for trial in range(600):
        if trial % 2:
            shape = (int(rng.integers(1, 40)),)
        else:
            shape = (int(rng.integers(1, 9)), int(rng.integers(1, 40)))
        values = rng.normal(size=shape)
        if trial % 3 == 0:
            values = np.round(values)  # ties, and -0.0 next to 0.0
        if trial % 10 == 0:
            values[...] = values.flat[0]  # constant rows
        for axis in range(-1, values.ndim):
            expected = stats.rankdata(values, axis=axis)
            got = midranks(values, axis=axis)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), f"trial {trial}, axis {axis}"


def test_midranks_bit_identical_to_scipy_without_the_library(monkeypatch):
    monkeypatch.setattr(kernels, "rank_sums", None)
    test_midranks_bit_identical_to_scipy()


def _tied_rows(rng, trial):
    """A seeded rows x n matrix and class mask: ties made by rounding,
    -0.0 next to 0.0, constant rows, n = 1, no rows, unequal classes."""
    rows = 0 if trial % 25 == 0 else int(rng.integers(1, 9))
    n = 1 if trial % 20 == 1 else int(rng.integers(1, 40))
    values = rng.normal(size=(rows, n)) * rng.uniform(0.5, 4.0)
    if trial % 3 == 0:
        values = np.round(values)  # ties, and -0.0 next to 0.0
    elif trial % 3 == 1:
        values = np.round(values, 1)
    if trial % 10 == 0:
        values[...] = values.flat[0] if values.size else 0.0  # constant rows
    values[values == 0.0] = rng.choice([0.0, -0.0], int((values == 0.0).sum()))
    in_class = rng.random(n) < rng.uniform(0.0, 1.0)
    return values, in_class


def _reference_rank_sums(values, in_class):
    """``(w, tie_term, ranks)`` from SciPy's midranks and np.unique's runs."""
    ranks = stats.rankdata(values, axis=-1)
    tie_term = []
    for row in values:
        _, sizes = np.unique(row, return_counts=True)
        tie_term.append(int((sizes**3 - sizes).sum()))
    return ranks[:, in_class].sum(axis=1), np.array(tie_term, dtype=np.int64), ranks


@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_rank_sums_bit_identical_to_scipy(backend, monkeypatch):
    if backend == "numpy":
        monkeypatch.setattr(kernels, "rank_sums", None)
    elif kernels.rank_sums is None:
        pytest.skip("the C library is not loaded")
    rng = np.random.default_rng(240)
    for trial in range(600):
        values, in_class = _tied_rows(rng, trial)
        expected = _reference_rank_sums(values, in_class)
        got = rankers._rank_sums(values, in_class, with_ranks=True)
        for name, a, b in zip(("w", "tie term", "ranks"), got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape, f"trial {trial}, {name}"
            assert a.tobytes() == b.tobytes(), f"trial {trial}, {name}"
        w, tie_term, ranks = rankers._rank_sums(values, in_class)
        assert ranks is None
        assert w.tobytes() == got[0].tobytes() and tie_term.tobytes() == got[1].tobytes()


# ---------------------------------------------------------------------------
# Welch t-test


def test_welch_known_values():
    result = welch_t_test([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0])
    assert result.statistic == pytest.approx(-4.381780460041329, abs=1e-13)
    assert result.p_value == pytest.approx(0.004659214943993934, abs=1e-13)
    assert result.effect == -4.0


def test_welch_identical_samples():
    result = welch_t_test([2.0, 3.0, 4.0], [2.0, 3.0, 4.0])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.effect == 0.0


def test_welch_zero_variance_uses_floor():
    # both samples constant: se would be 0, the floor keeps t finite
    result = welch_t_test([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert math.isfinite(result.statistic)
    assert result.statistic < 0.0
    assert 0.0 <= result.p_value < 0.05


def test_welch_matches_reference_implementation():
    rng = np.random.default_rng(101)
    for trial in range(300):
        nx = int(rng.integers(2, 13))
        ny = int(rng.integers(2, 13))
        x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), nx)
        y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), ny)
        mine = welch_t_test(x, y)
        ref = stats.ttest_ind(x, y, equal_var=False)
        assert mine.statistic == pytest.approx(ref.statistic, rel=1e-12, abs=1e-12)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-10, abs=1e-12)


def test_welch_antisymmetric_in_sample_order():
    rng = np.random.default_rng(102)
    for trial in range(100):
        x = rng.normal(size=int(rng.integers(2, 9)))
        y = rng.normal(size=int(rng.integers(2, 9)))
        fwd = welch_t_test(x, y)
        rev = welch_t_test(y, x)
        # bit-identical p, exactly negated statistic and effect
        assert rev.statistic == -fwd.statistic
        assert rev.p_value == fwd.p_value
        assert rev.effect == -fwd.effect


def test_welch_shift_cannot_raise_p_when_means_equal():
    # all genes start with exactly equal class means (class 1 copies
    # class 0), so p == 1; shifting one class can only lower it
    rng = np.random.default_rng(103)
    for trial in range(30):
        n = int(rng.integers(3, 9))
        base = rng.normal(size=(10, n))
        matrix = np.hstack([base, base])
        shift = rng.uniform(0.05, 3.0)
        for g in range(matrix.shape[0]):
            before = welch_t_test(matrix[g, :n], matrix[g, n:])
            after = welch_t_test(matrix[g, :n], matrix[g, n:] + shift)
            assert before.p_value == 1.0
            assert after.p_value <= before.p_value


def test_welch_rejects_bad_input():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        welch_t_test([1.0, np.nan], [2.0, 3.0])
    with pytest.raises(ValueError):
        welch_t_test(np.ones((2, 2)), [2.0, 3.0])


def test_welch_squares_its_variance_terms_exactly():
    # ``a ** 2`` goes through libm's pow(), which glibc picks by CPU; on an
    # FMA host it rounds this sample's class-1 term differently from
    # ``a * a``, a single IEEE multiply that rounds alike anywhere
    rng = np.random.default_rng(646)
    x = rng.normal(size=5)
    y = rng.normal(size=6)
    ax = x.var(ddof=1) / 5
    ay = y.var(ddof=1) / 6
    se2 = ax + ay
    t = (x.mean() - y.mean()) / math.sqrt(se2)
    df = se2 * se2 / (ax * ax / 4 + ay * ay / 5)
    expected = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    assert welch_t_test(x, y).p_value == expected


# ---------------------------------------------------------------------------
# Wilcoxon rank-sum


def _brute_force_ranksum_p(x, y):
    """Enumerate every same-sized subset of the pooled midranks."""
    nx, ny = len(x), len(y)
    pooled = np.concatenate([x, y])
    ranks = stats.rankdata(pooled)
    n = nx + ny
    n_w = nx if nx <= ny else ny
    w_obs = ranks[:nx].sum() if nx <= ny else ranks[nx:].sum()
    expected = n_w * (n + 1) / 2.0
    dev = abs(w_obs - expected)
    hits = 0
    count = 0
    for combo in itertools.combinations(range(n), n_w):
        s = ranks[list(combo)].sum()
        # compare in doubled-integer space to dodge float fuzz
        if abs(int(round(2 * s)) - n_w * (n + 1)) >= int(round(2 * dev)):
            hits += 1
        count += 1
    return hits / count


def test_wilcoxon_known_small_case():
    result = wilcoxon_test([1.0, 2.0], [3.0, 4.0])
    assert result.statistic == 3.0
    assert result.p_value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert result.effect == 2.0


def test_wilcoxon_all_tied_gives_p_one():
    result = wilcoxon_test([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
    assert result.p_value == 1.0
    assert result.effect == 0.0


def test_wilcoxon_statistic_uses_smaller_sample():
    # ny < nx: the statistic must be the rank sum of y
    result = wilcoxon_test([1.0, 2.0, 5.0, 6.0], [3.0, 4.0])
    ranks = stats.rankdata([1.0, 2.0, 5.0, 6.0, 3.0, 4.0])
    assert result.statistic == ranks[4:].sum()


def test_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(104)
    for trial in range(150):
        nx = int(rng.integers(2, 7))
        ny = int(rng.integers(2, 7))
        # integer values force heavy ties
        x = rng.integers(0, 5, nx).astype(float)
        y = rng.integers(0, 5, ny).astype(float)
        mine = wilcoxon_test(x, y)
        assert mine.p_value == _brute_force_ranksum_p(x, y)


def test_wilcoxon_exact_matches_reference_without_ties():
    rng = np.random.default_rng(105)
    for trial in range(200):
        nx = int(rng.integers(2, 10))
        ny = int(rng.integers(2, 10))
        x = rng.normal(size=nx)
        y = rng.normal(size=ny)
        mine = wilcoxon_test(x, y)
        ref = stats.mannwhitneyu(x, y, alternative="two-sided", method="exact")
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-14)


def test_wilcoxon_approximation_matches_reference():
    rng = np.random.default_rng(106)
    checked = 0
    for trial in range(200):
        nx = int(rng.integers(13, 30))
        ny = int(rng.integers(13, 30))
        if nx + ny <= EXACT_RANKSUM_LIMIT:
            continue
        x = rng.integers(0, 8, nx).astype(float)
        y = (rng.integers(0, 8, ny) + rng.integers(0, 2)).astype(float)
        mine = wilcoxon_test(x, y)
        ref = stats.mannwhitneyu(
            x, y, alternative="two-sided", method="asymptotic", use_continuity=True
        )
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-13)
        checked += 1
    assert checked > 150


def test_wilcoxon_invariant_under_increasing_transforms():
    rng = np.random.default_rng(107)
    transforms = (lambda v: 2.0 * v + 1.0, lambda v: v**3, np.arctan)
    for trial in range(60):
        x = rng.normal(size=int(rng.integers(3, 12)))
        y = rng.normal(size=int(rng.integers(3, 12)))
        base = wilcoxon_test(x, y)
        for transform in transforms:
            moved = wilcoxon_test(transform(x), transform(y))
            # rank-based: bit-identical under strictly increasing maps
            assert moved.statistic == base.statistic
            assert moved.p_value == base.p_value
            assert moved.effect == base.effect


# ---------------------------------------------------------------------------
# ROC area


def test_roc_perfect_separation():
    result = roc_test([1.0, 2.0], [3.0, 4.0])
    assert result.statistic == 0.0
    assert result.p_value == 0.0
    assert result.effect == 0.5
    reversed_result = roc_test([3.0, 4.0], [1.0, 2.0])
    assert reversed_result.statistic == 1.0
    assert reversed_result.p_value == 0.0


def test_roc_known_tied_case():
    result = roc_test([1.0, 2.0], [2.0, 3.0])
    assert result.statistic == 0.125
    assert result.effect == 0.375
    assert result.p_value == pytest.approx(0.07100829234947446, abs=1e-15)


def test_roc_chance_area_gives_p_one():
    result = roc_test([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert result.statistic == 0.5
    assert result.p_value == 1.0


def test_roc_area_matches_pairwise_count():
    rng = np.random.default_rng(108)
    for trial in range(200):
        nx = int(rng.integers(2, 12))
        ny = int(rng.integers(2, 12))
        x = rng.integers(0, 6, nx).astype(float)
        y = rng.integers(0, 6, ny).astype(float)
        mine = roc_test(x, y)
        wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in x for b in y)
        assert mine.statistic == wins / (nx * ny)


def test_roc_invariant_under_increasing_transforms():
    rng = np.random.default_rng(109)
    transforms = (lambda v: 3.0 * v - 2.0, lambda v: v**3, np.arctan)
    for trial in range(60):
        x = rng.normal(size=int(rng.integers(3, 12)))
        y = rng.normal(size=int(rng.integers(3, 12)))
        base = roc_test(x, y)
        for transform in transforms:
            moved = roc_test(transform(x), transform(y))
            assert moved.statistic == base.statistic
            assert moved.p_value == base.p_value
            assert moved.effect == base.effect


# ---------------------------------------------------------------------------
# gene ordering


def test_rank_genes_planted_markers_come_first():
    dataset = planted_dataset(60, 5, 10, 10, 3.0, seed=110)
    for method in ("ttest", "wilcoxon", "roc"):
        ranking = rank_genes(dataset, method)
        assert sorted(ranking.order[:5]) == [0, 1, 2, 3, 4]


def test_rank_genes_sorts_by_p_then_effect_then_index():
    # gene 1 doubles gene 0: identical t and p, doubled (signed) mean
    # difference, so it must outrank gene 0; gene 2 copies gene 0 and
    # stays behind it
    rng = np.random.default_rng(111)
    x = rng.normal(1.0, 1.0, 6)
    y = rng.normal(0.0, 1.0, 6)
    row = np.concatenate([x, y])
    matrix = np.vstack([row, 2.0 * row, row])
    labels = np.array([0] * 6 + [1] * 6)
    dataset = Dataset(matrix, ["g0", "g1", "g2"], labels, ("a", "b"))
    ranking = rank_genes(dataset, "ttest")
    assert ranking.scores[0] == ranking.scores[1] == ranking.scores[2]
    assert list(ranking.order) == [1, 0, 2]


def test_rank_genes_scores_are_p_values():
    dataset = planted_dataset(12, 3, 6, 6, 2.0, seed=112)
    ranking = rank_genes(dataset, "wilcoxon")
    x, y = dataset.class_values(0)
    assert ranking.scores[0] == wilcoxon_test(x, y).p_value


def test_rank_genes_unknown_method():
    dataset = planted_dataset(4, 1, 3, 3, 1.0, seed=113)
    with pytest.raises(ValueError, match="unknown method"):
        rank_genes(dataset, "anova")


def test_rank_genes_names_offending_gene():
    dataset = planted_dataset(4, 1, 3, 3, 1.0, seed=114)
    dataset.matrix[2, 0] = np.inf  # defeat construction-time validation
    with pytest.raises(ValueError, match="g0002"):
        rank_genes(dataset, "ttest")


def test_gene_ranking_requires_permutation():
    with pytest.raises(ValueError):
        GeneRanking("ttest", np.array([0, 0, 1]), np.zeros(3))


def test_save_ranking_format(tmp_path):
    dataset = planted_dataset(5, 2, 4, 4, 2.5, seed=115)
    ranking = rank_genes(dataset, "roc")
    path = tmp_path / "ranking.tsv"
    save_ranking(ranking, dataset.gene_ids, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank\tgene_id\tscore"
    assert len(lines) == 6
    for pos, line in enumerate(lines[1:], start=1):
        rank_str, gene_id, score_str = line.split("\t")
        assert int(rank_str) == pos
        g = ranking.order[pos - 1]
        assert gene_id == dataset.gene_ids[g]
        # repr round-trip: the printed score parses back bit-equal
        assert float(score_str) == ranking.scores[g]


def test_save_ranking_writes_each_scores_repr(tmp_path):
    rng = np.random.default_rng(242)
    scores = rng.random(1000) ** 8
    ranking = GeneRanking("roc", rng.permutation(1000), scores)
    gene_ids = [f"g{i:04d}" for i in range(1000)]
    path = tmp_path / "ranking.tsv"
    save_ranking(ranking, gene_ids, path)
    expected = "rank\tgene_id\tscore\n" + "".join(
        f"{pos}\t{gene_ids[g]}\t{float(ranking.scores[g])!r}\n"
        for pos, g in enumerate(ranking.order, start=1)
    )
    assert path.read_bytes() == expected.encode()


@pytest.mark.skipif(kernels.format_rows is None, reason="C library not loaded")
def test_save_ranking_writes_each_scores_repr_without_library(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "format_rows", None)
    test_save_ranking_writes_each_scores_repr(tmp_path)


def test_save_ranking_refuses_ids_a_row_cannot_hold(tmp_path):
    ranking = GeneRanking("roc", np.array([2, 0, 1, 3]), np.array([0.1, 0.2, 0.3, 0.4]))
    gene_ids = ["g0", "g1\n", "g\t2", "g3"]
    path = tmp_path / "ranking.tsv"
    # the first such id in the file's order, best gene first
    with pytest.raises(ValueError, match=r"gene id 'g\\t2'"):
        save_ranking(ranking, gene_ids, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# whole-matrix rankers against the scalar tests, bit for bit

_SCALAR_TESTS = {"ttest": welch_t_test, "wilcoxon": wilcoxon_test, "roc": roc_test}

# (n0, n1): every branch of the pairwise sum (2-7, 8-128, above 128) on
# either class, uneven classes both ways, both wilcoxon paths (pooled
# n <= 25 exact, above it the normal approximation), and the shapes of a
# LOOCV fold and of a wide matrix
_CLASS_SIZES = [
    (2, 3),
    (3, 2),
    (5, 4),
    (5, 7),
    (8, 12),
    (12, 9),
    (30, 17),
    (17, 30),
    (50, 50),
    (128, 9),
    (150, 3),
    (3, 150),
    (131, 136),
]


def _scalar_ranking(dataset, method):
    """p-values, effects and order from the scalar test, gene by gene."""
    results = [
        _SCALAR_TESTS[method](*dataset.class_values(g)) for g in range(dataset.n_genes)
    ]
    p_values = np.array([r.p_value for r in results])
    effects = np.array([r.effect for r in results])
    return p_values, effects, np.lexsort((-effects, p_values))


def _mixed_dataset(n0, n1, seed):
    """Genes of varied scale and offset, tied genes, constant genes and an
    all-zero gene holding negative zeros, with the classes interleaved."""
    rng = np.random.default_rng(seed)
    n = n0 + n1
    matrix = rng.normal(0.0, 1.0, (24, n)) * rng.uniform(0.05, 50.0, (24, 1))
    matrix += rng.normal(0.0, 100.0, (24, 1))
    labels = rng.permutation(np.array([0] * n0 + [1] * n1))
    matrix[:4, labels == 1] += rng.uniform(0.5, 30.0, (4, 1))
    matrix[8:14] = np.round(matrix[8:14], 1)  # tied values
    matrix[14:16] = np.round(rng.normal(0.0, 1.0, (2, n)))  # heavy ties
    matrix[16] = 3.25  # constant: variance floor and df fallback
    matrix[17] = np.where(labels == 0, -1.5, 2.0)  # constant per class
    matrix[18] = 0.0
    matrix[18, ::2] = -0.0
    matrix[19, labels == 0] = 7.0  # one class constant
    gene_ids = [f"g{i:02d}" for i in range(24)]
    return Dataset(matrix, gene_ids, labels, ("a", "b"))


@pytest.mark.parametrize("n0,n1", _CLASS_SIZES)
@pytest.mark.parametrize("method", ["ttest", "wilcoxon", "roc"])
def test_rank_genes_bit_identical_to_scalar_tests(method, n0, n1):
    dataset = _mixed_dataset(n0, n1, seed=116 + n0 * 1000 + n1)
    p_values, effects, order = _scalar_ranking(dataset, method)
    ranking = rank_genes(dataset, method)
    assert ranking.scores.tobytes() == p_values.tobytes()
    assert ranking.order.tobytes() == order.tobytes()
    # the order breaks p-value ties by effect, so check those bits too
    _, matrix_effects = rankers._COLUMN_TESTS[method](dataset.matrix, dataset.labels)
    assert matrix_effects.tobytes() == effects.tobytes()


@pytest.mark.parametrize("n0,n1", [(5, 4), (12, 9), (30, 17), (9, 40), (50, 50)])
def test_rank_sum_rankers_same_bits_without_the_library(n0, n1, monkeypatch):
    if kernels.rank_sums is None:
        pytest.skip("the C library is not loaded")
    dataset = _mixed_dataset(n0, n1, seed=243 + n0 * 1000 + n1)

    def rankings():
        return [rank_genes(dataset, m) for m in ("wilcoxon", "roc")] + [fgf_rank(dataset)]

    compiled = rankings()
    inputs = compute_fuzzy_inputs(dataset)
    monkeypatch.setattr(kernels, "rank_sums", None)
    fallback = rankings()
    for c_ranking, numpy_ranking in zip(compiled, fallback):
        assert c_ranking.order.tobytes() == numpy_ranking.order.tobytes()
        assert c_ranking.scores.tobytes() == numpy_ranking.scores.tobytes()
    assert compute_fuzzy_inputs(dataset).rank_sum.tobytes() == inputs.rank_sum.tobytes()


@pytest.mark.parametrize("n0,n1", _CLASS_SIZES)
def test_welch_p_values_bit_identical_to_scalar_test(n0, n1):
    dataset = _mixed_dataset(n0, n1, seed=117 + n0 * 1000 + n1)
    p_values, _, _ = _scalar_ranking(dataset, "ttest")
    assert welch_p_values(dataset).tobytes() == p_values.tobytes()


@pytest.mark.parametrize("method", ["ttest", "wilcoxon", "roc"])
def test_rank_genes_names_first_offending_gene(method):
    dataset = planted_dataset(6, 1, 4, 4, 1.0, seed=120)
    dataset.matrix[4, 1] = np.inf
    dataset.matrix[2, 6] = np.nan
    with pytest.raises(ValueError, match="gene 'g0002': samples contain non-finite"):
        rank_genes(dataset, method)
    with pytest.raises(ValueError, match="gene 'g0002'"):
        welch_p_values(dataset)


def test_rank_genes_without_genes():
    dataset = Dataset(np.zeros((0, 30)), [], np.array([0, 1] * 15), ("a", "b"))
    for method in ("ttest", "wilcoxon", "roc"):
        ranking = rank_genes(dataset, method)
        assert len(ranking.order) == 0 and len(ranking.scores) == 0


def _unmemoized_exact_ranksum_p(doubled, n_w, dev2):
    """The exact rank-sum tail with the count table built for this gene
    alone, adding its ranks in the order given."""
    n = len(doubled)
    total = int(doubled.sum())
    counts = np.zeros((n_w + 1, total + 1))
    counts[0, 0] = 1.0
    for r in doubled:
        r = int(r)
        for j in range(n_w - 1, -1, -1):
            counts[j + 1, r:] += counts[j, : total + 1 - r]
    sums = np.arange(total + 1)
    hits = counts[n_w, np.abs(sums - n_w * (n + 1)) >= dev2].sum()
    return float(hits) / math.comb(n, n_w)


def test_exact_ranksum_memo_matches_unmemoized():
    rng = np.random.default_rng(121)
    for trial in range(300):
        n = int(rng.integers(4, EXACT_RANKSUM_LIMIT + 1))
        n_w = int(rng.integers(2, n // 2 + 1))
        # integer draws tie often; some trials tie-free
        values = rng.integers(0, int(rng.integers(2, 3 * n)), n).astype(float)
        if trial % 3 == 0:
            values = rng.permutation(n).astype(float)
        doubled = np.rint(2.0 * stats.rankdata(values)).astype(np.int64)
        subset_sum = int(doubled[rng.permutation(n)[:n_w]].sum())
        dev2 = abs(subset_sum - n_w * (n + 1))
        memo = rankers._exact_ranksum_p(doubled, n_w, dev2)
        assert np.float64(memo).tobytes() == np.float64(
            _unmemoized_exact_ranksum_p(doubled, n_w, dev2)
        ).tobytes()


def test_exact_ranksum_table_built_once_for_tie_free_genes():
    dataset = planted_dataset(40, 5, 6, 5, 2.0, seed=122)
    rankers._ranksum_null_counts.cache_clear()
    rank_genes(dataset, "wilcoxon")
    info = rankers._ranksum_null_counts.cache_info()
    assert (info.misses, info.hits) == (1, 39)
