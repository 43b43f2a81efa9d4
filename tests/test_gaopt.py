"""Tests for the genetic anchor search and the separability index."""

import numpy as np
import pytest

from generank.fgf import FgfParams, fgf_rank
from generank.gaopt import (
    ANCHOR_MAX,
    ANCHOR_MIN,
    GaConfig,
    _repair,
    optimize_fgf,
    save_trace,
    separability_index,
)
from generank import kernels
from generank.rankers import GeneRanking, rank_genes

from conftest import planted_dataset, uneven_planted_dataset


QUICK = GaConfig(population_size=12, generations=8, top_n_genes=10, seed=5)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(generations=-1)
    with pytest.raises(ValueError):
        GaConfig(tournament_size=0)
    with pytest.raises(ValueError):
        GaConfig(population_size=10, tournament_size=11)
    with pytest.raises(ValueError):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        GaConfig(mutation_rate=-0.1)
    with pytest.raises(ValueError):
        GaConfig(mutation_sigma=0.0)
    with pytest.raises(ValueError):
        GaConfig(population_size=10, elite_count=10)
    with pytest.raises(ValueError):
        GaConfig(top_n_genes=0)


# ---------------------------------------------------------------------------
# chromosome repair


def test_config_rejects_nan_sigma():
    # NaN passes a `sigma <= 0` test, and the search would then fail on
    # non-finite anchors only after running
    with pytest.raises(ValueError, match="mutation_sigma"):
        GaConfig(mutation_sigma=float("nan"))


def test_repair_output_always_valid():
    rng = np.random.default_rng(400)
    for trial in range(500):
        chrom = rng.uniform(-0.5, 1.5, 6)
        fixed = _repair(chrom)
        for k in (0, 2, 4):
            assert ANCHOR_MIN <= fixed[k] < fixed[k + 1] <= ANCHOR_MAX


def test_repair_keeps_valid_chromosomes():
    chrom = np.array([0.1, 0.6, 0.2, 0.7, 0.3, 0.8])
    np.testing.assert_array_equal(_repair(chrom), chrom)


def test_repair_swaps_inverted_pairs():
    fixed = _repair(np.array([0.8, 0.2, 0.25, 0.75, 0.25, 0.75]))
    assert fixed[0] == 0.2 and fixed[1] == 0.8


def test_repair_splits_collapsed_pair_at_top_of_range():
    # both anchors clamp to the max: beta cannot move up, so alpha
    # steps down instead
    fixed = _repair(np.array([1.3, 2.0, 0.25, 0.75, 0.25, 0.75]))
    assert fixed[0] == pytest.approx(ANCHOR_MAX - 0.01)
    assert fixed[1] == ANCHOR_MAX


def test_repair_splits_collapsed_pair_in_range():
    fixed = _repair(np.array([0.5, 0.5, 0.25, 0.75, 0.25, 0.75]))
    assert fixed[0] == 0.5
    assert fixed[1] == pytest.approx(0.51)


# ---------------------------------------------------------------------------
# separability index


def _oracle_si(block, labels):
    grand = block.mean(axis=1)
    between = 0.0
    within = 0.0
    for cls in (0, 1):
        sub = block[:, labels == cls]
        mu = sub.mean(axis=1)
        between += sub.shape[1] * ((mu - grand) ** 2).sum()
        within += ((sub - mu[:, None]) ** 2).sum()
    return between / (within + 1e-8)


def test_separability_index_matches_direct_formula():
    rng = np.random.default_rng(401)
    for trial in range(20):
        dataset = planted_dataset(30, 5, 6, 7, 2.0, seed=int(rng.integers(1 << 30)))
        ranking = rank_genes(dataset, "ttest")
        top_n = int(rng.integers(1, 20))
        mine = separability_index(dataset, ranking, top_n)
        from generank.dataio import standardize_genes

        Z = standardize_genes(dataset.matrix)
        assert mine == pytest.approx(
            _oracle_si(Z[ranking.order[:top_n]], dataset.labels), rel=1e-12
        )


def test_separability_index_bit_identical_to_block_formula():
    # the index sums per-gene terms computed once for every gene; it must
    # give the very bits of the formula on the top genes' own block, at
    # sizes where NumPy's pairwise sum runs straight, unrolled and split
    from generank.dataio import standardize_genes

    rng = np.random.default_rng(412)
    for trial in range(60):
        n0, n1 = (int(v) for v in rng.integers(2, 40, 2))
        dataset = uneven_planted_dataset(60, 8, n0, n1, seed=int(rng.integers(1 << 30)))
        Z = standardize_genes(dataset.matrix)
        order = rng.permutation(dataset.n_genes)
        ranking = GeneRanking("ttest", order, np.zeros(dataset.n_genes))
        for top_n in (1, 2, int(rng.integers(3, 61))):
            want = _oracle_si(Z[order[:top_n]], dataset.labels)
            assert separability_index(dataset, ranking, top_n) == want, (trial, top_n)


def test_separability_index_orders_obvious_cases():
    # strong markers first beats noise first
    dataset = planted_dataset(40, 10, 10, 10, 3.0, seed=402)
    good = rank_genes(dataset, "ttest")
    si_good = separability_index(dataset, good, 10)
    noise_order = np.concatenate([np.arange(20, 40), np.arange(0, 20)])
    from generank.rankers import GeneRanking

    bad = GeneRanking("ttest", noise_order, good.scores)
    si_bad = separability_index(dataset, bad, 10)
    assert si_good > si_bad


def test_separability_index_rejects_bad_top_n():
    dataset = planted_dataset(10, 2, 4, 4, 2.0, seed=403)
    with pytest.raises(ValueError):
        separability_index(dataset, rank_genes(dataset, "ttest"), 0)


# ---------------------------------------------------------------------------
# the search itself


def test_optimize_is_deterministic():
    dataset = planted_dataset(60, 8, 8, 8, 1.5, seed=404)
    best_a, trace_a = optimize_fgf(dataset, QUICK)
    best_b, trace_b = optimize_fgf(dataset, QUICK)
    assert best_a == best_b
    assert trace_a.best_fitness == trace_b.best_fitness


def test_optimize_trace_monotone_and_sized():
    dataset = planted_dataset(60, 8, 8, 8, 1.5, seed=405)
    best, trace = optimize_fgf(dataset, QUICK)
    assert len(trace.best_fitness) == QUICK.generations + 1
    assert len(trace.best_params) == QUICK.generations + 1
    diffs = np.diff(trace.best_fitness)
    assert (diffs >= 0.0).all()
    assert trace.best_params[-1] == best


def test_optimize_seed_changes_search_path():
    dataset = planted_dataset(60, 8, 8, 8, 1.5, seed=406)
    _, trace_a = optimize_fgf(dataset, QUICK)
    from dataclasses import replace

    _, trace_b = optimize_fgf(dataset, replace(QUICK, seed=6))
    assert trace_a.best_fitness != trace_b.best_fitness


def test_optimize_fitness_equals_separability_of_final_ranking():
    # the GA's internal fitness must be the very quantity the public API
    # reports for the returned parameters
    dataset = uneven_planted_dataset(80, 12, 9, 9, seed=407)
    best, trace = optimize_fgf(dataset, QUICK)
    ranking = fgf_rank(dataset, best)
    si = separability_index(dataset, ranking, QUICK.top_n_genes)
    assert trace.best_fitness[-1] == si


def test_optimize_improves_on_default_for_uneven_markers():
    dataset = uneven_planted_dataset(120, 15, 10, 10, seed=408)
    best, trace = optimize_fgf(
        dataset, GaConfig(population_size=16, generations=10, top_n_genes=15, seed=1)
    )
    si_default = separability_index(dataset, fgf_rank(dataset), 15)
    si_optimized = separability_index(dataset, fgf_rank(dataset, best), 15)
    assert si_optimized >= si_default
    assert trace.best_fitness[-1] >= trace.best_fitness[0]


def test_optimize_scores_each_distinct_chromosome_once(monkeypatch):
    # a repeated chromosome is answered by the fitness memo: the kernel
    # runs once for each distinct chromosome the search makes (every one
    # leaves _repair), and the counters add up to all of them
    from generank import gaopt

    dataset = uneven_planted_dataset(80, 12, 9, 9, seed=413)
    config = GaConfig(population_size=12, generations=8, top_n_genes=10, seed=5,
                      crossover_rate=0.5, mutation_rate=0.05)
    made, called = [], []
    repair, kernel = gaopt._repair, kernels.mamdani_scores

    def recorded_repair(chrom):
        out = repair(chrom)
        made.append(out.tobytes())
        return out

    def counted(fc, var, rs, params):
        called.append(np.asarray(params).tobytes())
        return kernel(fc, var, rs, params)

    monkeypatch.setattr(gaopt, "_repair", recorded_repair)
    monkeypatch.setattr(kernels, "mamdani_scores", counted)
    _, trace = optimize_fgf(dataset, config)
    assert len(made) == config.population_size + config.generations * (
        config.population_size - config.elite_count
    )
    assert sorted(called) == sorted(set(made))
    assert trace.evaluations == len(called)
    assert trace.evaluations + trace.repeats == len(made)
    assert trace.repeats > 0
    # every generation's best holds its own chromosome's fitness
    monkeypatch.setattr(kernels, "mamdani_scores", kernel)
    for fit, params in zip(trace.best_fitness, trace.best_params):
        ranking = fgf_rank(dataset, params)
        assert fit == separability_index(dataset, ranking, config.top_n_genes)


def test_optimize_runs_without_elites():
    dataset = planted_dataset(30, 4, 6, 6, 2.0, seed=409)
    from dataclasses import replace

    best, trace = optimize_fgf(dataset, replace(QUICK, elite_count=0, generations=4))
    assert isinstance(best, FgfParams)
    assert len(trace.best_fitness) == 5


def test_optimize_zero_generations_returns_initial_best():
    dataset = planted_dataset(30, 4, 6, 6, 2.0, seed=410)
    from dataclasses import replace

    best, trace = optimize_fgf(dataset, replace(QUICK, generations=0))
    assert len(trace.best_fitness) == 1
    assert trace.best_params[0] == best


def test_save_trace_format(tmp_path):
    dataset = planted_dataset(30, 4, 6, 6, 2.0, seed=411)
    _, trace = optimize_fgf(dataset, QUICK)
    path = tmp_path / "trace.tsv"
    save_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "generation\tbest_fitness"
    assert len(lines) == QUICK.generations + 2
    gens = [int(line.split("\t")[0]) for line in lines[1:]]
    assert gens == list(range(QUICK.generations + 1))
    fits = [float(line.split("\t")[1]) for line in lines[1:]]
    assert fits == trace.best_fitness
