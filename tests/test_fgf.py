"""Tests for fuzzy regions, fuzzy inputs and the gene-scoring pipeline."""

import numpy as np
import pytest

from generank import kernels
from generank.dataio import Dataset
from generank.gaopt import GaConfig, optimize_fgf
from generank.fgf import (
    FgfParams,
    FuzzyInputs,
    FuzzyRegion,
    _fuzzy_order,
    clamp_count,
    compute_fuzzy_inputs,
    default_params,
    fgf_rank,
    load_params,
    mamdani_infer,
    membership_grades,
    reset_clamp_count,
    save_params,
)
from generank.rankers import welch_t_test

from conftest import planted_dataset, unbind


def _random_params(rng):
    pairs = np.sort(rng.uniform(0.05, 0.95, (3, 2)), axis=1)
    pairs[:, 1] = np.maximum(pairs[:, 1], pairs[:, 0] + 0.02)
    vec = np.clip(pairs, 0.01, 0.99).ravel()
    return FgfParams.from_vector(vec)


# ---------------------------------------------------------------------------
# regions and parameters


def test_fuzzy_region_validation():
    FuzzyRegion(0.1, 0.9)
    with pytest.raises(ValueError):
        FuzzyRegion(0.5, 0.5)
    with pytest.raises(ValueError):
        FuzzyRegion(0.0, 0.5)
    with pytest.raises(ValueError):
        FuzzyRegion(0.5, 1.0)
    with pytest.raises(ValueError):
        FuzzyRegion(0.7, 0.2)


def test_params_vector_round_trip():
    params = FgfParams(
        FuzzyRegion(0.1, 0.8), FuzzyRegion(0.2, 0.6), FuzzyRegion(0.3, 0.9)
    )
    vec = params.to_vector()
    np.testing.assert_array_equal(vec, [0.1, 0.8, 0.2, 0.6, 0.3, 0.9])
    assert FgfParams.from_vector(vec) == params


def test_params_json_round_trip(tmp_path):
    params = FgfParams(
        FuzzyRegion(0.0862, 0.7787), FuzzyRegion(0.1098, 0.5378), FuzzyRegion(0.3, 0.7)
    )
    path = tmp_path / "params.json"
    save_params(params, path)
    assert load_params(path) == params


def test_params_dict_rejects_missing_keys():
    with pytest.raises((KeyError, TypeError, ValueError)):
        FgfParams.from_dict({"fold_change": {"alpha": 0.1, "beta": 0.9}})


def test_default_params_are_symmetric_quarters():
    params = default_params()
    for region in (params.fold_change, params.variance, params.rank_sum):
        assert region.alpha == 0.25
        assert region.beta == 0.75


# ---------------------------------------------------------------------------
# membership grades


def test_membership_piecewise_values():
    region = FuzzyRegion(0.25, 0.75)  # midpoint 0.5
    assert membership_grades(0.1, region) == (1.0, 0.0, 0.0)
    assert membership_grades(0.25, region) == (1.0, 0.0, 0.0)
    assert membership_grades(0.375, region) == (0.5, 0.5, 0.0)
    assert membership_grades(0.5, region) == (0.0, 1.0, 0.0)
    assert membership_grades(0.625, region) == (0.0, 0.5, 0.5)
    assert membership_grades(0.75, region) == (0.0, 0.0, 1.0)
    assert membership_grades(1.0, region) == (0.0, 0.0, 1.0)


def test_membership_partition_of_unity():
    rng = np.random.default_rng(300)
    for trial in range(1000):
        alpha = float(rng.uniform(0.01, 0.5))
        beta = float(rng.uniform(alpha + 0.01, 0.99))
        region = FuzzyRegion(alpha, beta)
        low, med, high = membership_grades(float(rng.random()), region)
        assert low >= 0.0 and med >= 0.0 and high >= 0.0
        assert abs(low + med + high - 1.0) <= 1e-12


def test_membership_clamps_and_counts():
    region = FuzzyRegion(0.25, 0.75)
    reset_clamp_count()
    assert membership_grades(-0.3, region) == (1.0, 0.0, 0.0)
    assert membership_grades(1.7, region) == (0.0, 0.0, 1.0)
    assert membership_grades(0.5, region) == (0.0, 1.0, 0.0)
    assert clamp_count() == 2
    reset_clamp_count()
    assert clamp_count() == 0


# ---------------------------------------------------------------------------
# fuzzy inputs


def test_fuzzy_inputs_land_in_unit_interval():
    dataset = planted_dataset(80, 10, 8, 8, 2.0, seed=301)
    inputs = compute_fuzzy_inputs(dataset)
    for values in (inputs.fold_change, inputs.variance, inputs.rank_sum):
        assert values.shape == (80,)
        assert values.min() >= 0.0
        assert values.max() <= 1.0
        assert values.min() == 0.0
        assert values.max() == 1.0


def test_fuzzy_inputs_keep_argmax_of_raw_statistics():
    # the most shifted gene should carry the top scaled fold change and
    # the top rank deviation
    dataset = planted_dataset(50, 1, 10, 10, 6.0, seed=302)
    inputs = compute_fuzzy_inputs(dataset)
    assert int(np.argmax(inputs.fold_change)) == 0
    assert int(np.argmax(inputs.rank_sum)) == 0


def test_fuzzy_inputs_constant_statistic_scales_to_zero():
    # two samples per class with mirrored values: every gene has the
    # same rank pattern, so the rank statistic is constant -> all zeros
    matrix = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [10.0, 20.0, 30.0, 40.0],
        ]
    )
    dataset = Dataset(matrix, ["g0", "g1"], np.array([0, 0, 1, 1]), ("a", "b"))
    inputs = compute_fuzzy_inputs(dataset)
    np.testing.assert_array_equal(inputs.rank_sum, [0.0, 0.0])


def test_fuzzy_inputs_handle_negative_means():
    # post-normalization data can dip below zero; the ratio shift must
    # keep the log finite
    rng = np.random.default_rng(303)
    matrix = rng.normal(0.0, 1.0, (30, 12))
    dataset = Dataset(
        matrix, [f"g{i}" for i in range(30)], np.array([0] * 6 + [1] * 6), ("a", "b")
    )
    inputs = compute_fuzzy_inputs(dataset)
    assert np.isfinite(inputs.fold_change).all()


# ---------------------------------------------------------------------------
# inference


def test_infer_corner_and_midpoint_scores():
    params = default_params()
    assert mamdani_infer((0.0, 1.0, 0.0), params) == 0.083
    assert mamdani_infer((1.0, 0.0, 1.0), params) == 0.9169999999999999
    assert mamdani_infer((0.5, 0.5, 0.5), params) == 0.5000000000000002


def test_infer_extremes_near_twelfths():
    params = default_params()
    assert abs(mamdani_infer((0.0, 1.0, 0.0), params) - 1.0 / 12.0) <= 1e-3
    assert abs(mamdani_infer((1.0, 0.0, 1.0), params) - 11.0 / 12.0) <= 1e-3


def test_infer_counts_clamped_inputs():
    reset_clamp_count()
    mamdani_infer((1.4, 0.5, -0.2), default_params())
    assert clamp_count() == 2


def test_score_rises_across_input_levels():
    # prototypical inputs: each region's low anchor area, midpoint and
    # high anchor area order the score the way the rule table directs,
    # for any valid parameters and any setting of the other two inputs
    rng = np.random.default_rng(304)
    others = np.linspace(0.0, 1.0, 7)
    for trial in range(60):
        params = _random_params(rng)
        vec = params.to_vector()
        grid_a, grid_b = np.meshgrid(others, others)
        grid_a, grid_b = grid_a.ravel(), grid_b.ravel()
        n = grid_a.size

        def scores(fc, var, rs):
            out, _ = kernels.mamdani_scores(fc, var, rs, vec)
            return out

        m_fc = 0.5 * (vec[0] + vec[1])
        low = scores(np.zeros(n), grid_a, grid_b)
        mid = scores(np.full(n, m_fc), grid_a, grid_b)
        high = scores(np.ones(n), grid_a, grid_b)
        assert (low <= mid).all() and (mid <= high).all()

        # variance counts against a gene, so its direction reverses
        m_var = 0.5 * (vec[2] + vec[3])
        low = scores(grid_a, np.zeros(n), grid_b)
        mid = scores(grid_a, np.full(n, m_var), grid_b)
        high = scores(grid_a, np.ones(n), grid_b)
        assert (low >= mid).all() and (mid >= high).all()

        m_rs = 0.5 * (vec[4] + vec[5])
        low = scores(grid_a, grid_b, np.zeros(n))
        mid = scores(grid_a, grid_b, np.full(n, m_rs))
        high = scores(grid_a, grid_b, np.ones(n))
        assert (low <= mid).all() and (mid <= high).all()


def test_score_is_not_pointwise_monotone_between_levels():
    # known consequence of max aggregation plus centroid defuzzification:
    # between prototypical levels the response can dip; pin one dip so a
    # change in the engine that smooths it out gets noticed
    vec = default_params().to_vector()
    fc = np.array([0.61, 0.62])
    var = np.full(2, 0.30000000000000004)
    rs = np.full(2, 0.7000000000000001)
    scores, _ = kernels.mamdani_scores(fc, var, rs, vec)
    assert scores[0] == 0.716385319275906
    assert scores[1] == 0.7110629135701847
    assert scores[0] - scores[1] > 5e-3


# ---------------------------------------------------------------------------
# ranking


def test_fgf_rank_puts_planted_markers_first():
    dataset = planted_dataset(60, 5, 10, 10, 3.0, seed=305)
    ranking = fgf_rank(dataset)
    assert ranking.method == "fgf"
    assert sorted(ranking.order[:5]) == [0, 1, 2, 3, 4]


def test_fgf_rank_scores_descend():
    dataset = planted_dataset(40, 4, 8, 8, 2.0, seed=306)
    ranking = fgf_rank(dataset)
    ordered = ranking.scores[ranking.order]
    assert (np.diff(ordered) <= 1e-15).all()


def test_fgf_rank_invariant_under_class_swap():
    for seed, n0, n1 in ((307, 7, 9), (308, 10, 10), (309, 12, 5), (310, 4, 11)):
        dataset = planted_dataset(35, 4, n0, n1, 2.0, seed=seed)
        swapped = Dataset(
            dataset.matrix.copy(),
            list(dataset.gene_ids),
            1 - dataset.labels,
            (dataset.class_names[1], dataset.class_names[0]),
        )
        base = fgf_rank(dataset)
        mirrored = fgf_rank(swapped)
        # the order is the invariant; scores may wobble by an ulp because
        # the fold-change ratio inverts under the swap
        np.testing.assert_array_equal(base.order, mirrored.order)
        np.testing.assert_allclose(base.scores, mirrored.scores, rtol=0, atol=1e-12)


def test_fgf_rank_duplicate_genes_stay_in_index_order():
    rng = np.random.default_rng(308)
    row = rng.normal(6.0, 1.0, 10)
    row[5:] += 2.0
    filler = rng.normal(6.0, 1.0, (3, 10))
    matrix = np.vstack([row, filler, row])
    dataset = Dataset(
        matrix, [f"g{i}" for i in range(5)], np.array([0] * 5 + [1] * 5), ("a", "b")
    )
    ranking = fgf_rank(dataset)
    posA = list(ranking.order).index(0)
    posB = list(ranking.order).index(4)
    assert ranking.scores[0] == ranking.scores[4]
    assert posA < posB


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e307])
def test_fgf_rank_raises_when_a_standard_deviation_overflows(scale):
    # scaled by 1e200, every gene's variance overflows: standardized by it,
    # each would be all zeros and the ranking would follow the other two
    # inputs alone; standardize_genes raises before another statistic
    # overflows, with no warning
    dataset = planted_dataset(50, 5, 6, 6, 2.0, seed=311)
    scaled = Dataset(
        dataset.matrix * scale, dataset.gene_ids, dataset.labels, dataset.class_names
    )
    with pytest.raises(ValueError, match="a standard deviation overflows"):
        fgf_rank(scaled)


def test_fgf_rank_constant_matrix_degrades_gracefully():
    # all fuzzy inputs collapse to zero: every gene gets the same score
    # and the t-test tie-break (all ties too) leaves index order
    matrix = np.full((6, 8), 3.0)
    dataset = Dataset(
        matrix, [f"g{i}" for i in range(6)], np.array([0] * 4 + [1] * 4), ("a", "b")
    )
    ranking = fgf_rank(dataset)
    assert len(set(ranking.scores)) == 1
    np.testing.assert_array_equal(ranking.order, np.arange(6))


def test_fgf_rank_ties_break_by_t_test_p():
    # same fuzzy score by construction (identical fuzzy inputs through
    # saturation), different t-test p: lower p must come first
    dataset = planted_dataset(30, 3, 10, 10, 4.0, seed=309)
    ranking = fgf_rank(dataset)
    scores = ranking.scores
    for a, b in zip(ranking.order, ranking.order[1:]):
        if scores[a] == scores[b]:
            pa = welch_t_test(*dataset.class_values(a)).p_value
            pb = welch_t_test(*dataset.class_values(b)).p_value
            assert pa <= pb


def test_top_n_order_is_the_full_orders_head_across_plateaus():
    # inputs on a few levels give runs of equal scores, and p-values on a
    # few levels ties within them, so the cut at top_n falls inside runs
    # that only the gene index orders; the top-n order must still be the
    # full order's first top_n genes, and the order of every gene the full
    # lexsort
    rng = np.random.default_rng(310)
    cut_in_a_run = 0
    for trial in range(60):
        n = int(rng.integers(1, 300))
        levels = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=(3, n))
        drawn = rng.random((3, n)) < 0.05
        levels[drawn] = rng.random(int(drawn.sum()))
        inputs = FuzzyInputs(*levels)
        tie_p = rng.choice([0.01, 0.2, 0.7], size=n)
        vec = _random_params(rng).to_vector()
        scores, _ = kernels.mamdani_scores(*levels, vec)
        full = np.lexsort((tie_p, -scores))
        counts = {1, 2, n // 3, n - 1, n, n + 4, *rng.integers(1, n + 1, 5).tolist()}
        for top_n in [None, *sorted(c for c in counts if c >= 1)]:
            top_scores, _, top = _fuzzy_order(inputs, vec, tie_p, top_n)
            assert top_scores.tobytes() == scores.tobytes()
            assert top.tolist() == full[:top_n].tolist(), (trial, top_n)
            if top_n and top_n < n and scores[full[top_n - 1]] == scores[full[top_n]]:
                cut_in_a_run += 1
    assert cut_in_a_run > 100


def test_fuzzy_filter_and_search_same_with_and_without_the_c_kernel(monkeypatch):
    # the validated entry, the fuzzy filter and the genetic search run the
    # C kernel when the library is loaded and the NumPy kernel unbound, with
    # the same score bits, clamp counts and search trace
    rng = np.random.default_rng(334)
    levels = rng.choice([-0.1, 0.0, 0.25, 0.5, 0.75, 1.0, 1.2], size=(3, 400))
    drawn = rng.random((3, 400)) < 0.3
    levels[drawn] = rng.uniform(-0.2, 1.2, int(drawn.sum()))
    vec = _random_params(rng).to_vector()
    dataset = planted_dataset(150, 8, 7, 8, 1.0, seed=335)
    config = GaConfig(population_size=8, generations=3, top_n_genes=10, seed=6)

    def run():
        reset_clamp_count()
        scores, clamped = kernels.mamdani_scores(*levels, vec)
        one = mamdani_infer((1.3, -0.2, 0.5), default_params())
        ranking = fgf_rank(dataset, FgfParams.from_vector(vec))
        best, trace = optimize_fgf(dataset, config)
        return (
            scores.tobytes(), clamped, one, ranking.order.tobytes(), ranking.scores.tobytes(),
            clamp_count(), best, trace,
        )

    compiled = run()
    with monkeypatch.context() as numpy_kernel:
        unbind(numpy_kernel, "mamdani_kernel")
        assert run() == compiled
    assert compiled[1] > 0 and compiled[5] == 2
    assert compiled[-1].evaluations > config.population_size
