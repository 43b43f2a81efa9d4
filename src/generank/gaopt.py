"""Genetic search over the fuzzy filter's partition anchors.

A real-coded GA tunes the six anchors (three alpha/beta pairs) to
maximize a between/within-class separability index of the standardized
top-n genes under the resulting ranking. All randomness flows from one
``numpy.random.default_rng(seed)`` stream, so runs are reproducible.

A fitness evaluation repeats no work whose result is known. The
separability terms of every gene are computed once per run, and the
index of the top-n genes sums their rows in the order a direct
computation on those genes' block would. Only the top-n genes are
sorted (see :func:`generank.fgf._fuzzy_order`). A chromosome seen before
is answered from a memo keyed on its bytes. Fitness draws no random
numbers, so none of this moves the random stream, and each shortcut
gives the very bits of the work it skips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from generank.dataio import Dataset, standardize_genes
from generank.fgf import FgfParams, _fuzzy_order, compute_fuzzy_inputs
# welch_t_test stays importable from here: perfbench/tracer.py patches this name.
from generank.rankers import GeneRanking, welch_p_values, welch_t_test  # noqa: F401

# Anchors live in [ANCHOR_MIN, ANCHOR_MAX] with alpha < beta.
ANCHOR_MIN = 0.01
ANCHOR_MAX = 0.99

_SI_RIDGE = 1e-8


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 50
    generations: int = 100
    tournament_size: int = 3
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    mutation_sigma: float = 0.05
    elite_count: int = 2
    top_n_genes: int = 20
    seed: int = 42

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.mutation_sigma > 0.0:
            raise ValueError("mutation_sigma must be positive")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be in [0, population_size)")
        if self.top_n_genes < 1:
            raise ValueError("top_n_genes must be >= 1")


@dataclass
class GaTrace:
    """Best individual per generation, including the initial population,
    and the work behind them: ``evaluations`` chromosomes scored, and
    ``repeats`` chromosomes the fitness memo answered instead."""

    best_fitness: list = field(default_factory=list)
    best_params: list = field(default_factory=list)
    evaluations: int = 0
    repeats: int = 0


def _si_of_block(block: np.ndarray, labels: np.ndarray) -> float:
    """Between/within scatter-trace ratio of a genes-by-samples block."""
    grand = block.mean(axis=1)
    tr_between = 0.0
    tr_within = 0.0
    for cls in (0, 1):
        sub = block[:, labels == cls]
        mu = sub.mean(axis=1)
        tr_between += sub.shape[1] * float(((mu - grand) ** 2).sum())
        tr_within += float(((sub - mu[:, None]) ** 2).sum())
    return tr_between / (tr_within + _SI_RIDGE)


def _separability(Z: np.ndarray, labels: np.ndarray):
    """``si(rows)``, :func:`_si_of_block` of ``Z[rows]`` bit for bit, from
    terms computed once for every gene.

    A row's terms depend on that row alone: per class, the squared
    between-class term ``(mu_c - grand) ** 2`` and the squared
    within-class deviations ``(Z_c - mu_c) ** 2``. One class's columns of
    a block of two rows or more, picked by mask, are laid out sample by
    sample, and NumPy takes their row means column by column; ``Z[:, mask]``
    is laid out so too, so its means are the block's. The deviations are
    gathered sample by sample as well, so each trace's pairwise sum adds
    the block's values in the block's order. A one-row block is laid out
    both ways and its means are summed pairwise, so it takes
    :func:`_si_of_block` itself.
    """
    grand = Z.mean(axis=1)
    terms = []
    for cls in (0, 1):
        sub = Z[:, labels == cls]
        mu = sub.mean(axis=1)
        within = np.ascontiguousarray(((sub - mu[:, None]) ** 2).T)
        terms.append((sub.shape[1], (mu - grand) ** 2, within))

    def si(rows: np.ndarray) -> float:
        if len(rows) < 2:
            return _si_of_block(Z[rows], labels)
        tr_between = 0.0
        tr_within = 0.0
        for size, between, within in terms:
            tr_between += size * float(between[rows].sum())
            tr_within += float(within.take(rows, axis=1).sum())
        return tr_between / (tr_within + _SI_RIDGE)

    return si


def separability_index(dataset: Dataset, ranking: GeneRanking, top_n: int) -> float:
    """How cleanly the standardized top-n genes split the two classes."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    top_n = min(top_n, dataset.n_genes)
    si = _separability(standardize_genes(dataset.matrix), dataset.labels)
    return si(ranking.order[:top_n])


def _repair(chrom: np.ndarray) -> np.ndarray:
    """Clamp anchors into range and force alpha < beta in each pair."""
    out = np.clip(chrom, ANCHOR_MIN, ANCHOR_MAX)
    for k in (0, 2, 4):
        a, b = out[k], out[k + 1]
        if a > b:
            a, b = b, a
        if a == b:
            b = min(ANCHOR_MAX, a + 0.01)
        if a == b:
            a = b - 0.01
        out[k], out[k + 1] = a, b
    return out


def optimize_fgf(dataset: Dataset, config: GaConfig = None):
    """Search the anchor space; returns ``(best_params, trace)``.

    Fitness of a chromosome is the separability index of the top-n genes
    it ranks first, in :func:`generank.fgf.fgf_rank`'s order. Elites keep
    the best fitness monotone across the trace.
    """
    if config is None:
        config = GaConfig()
    rng = np.random.default_rng(config.seed)
    top_n = min(config.top_n_genes, dataset.n_genes)

    # Everything fitness needs, computed once per run.
    inputs = compute_fuzzy_inputs(dataset)
    tie_p = welch_p_values(dataset)
    si = _separability(standardize_genes(dataset.matrix), dataset.labels)
    trace = GaTrace()
    memo = {}

    def fitness_of(chrom: np.ndarray) -> float:
        key = chrom.tobytes()
        if key in memo:
            trace.repeats += 1
        else:
            _, _, order = _fuzzy_order(inputs, chrom, tie_p, top_n)
            memo[key] = si(order)
            trace.evaluations += 1
        return memo[key]

    pop_n = config.population_size
    population = np.empty((pop_n, 6))
    for i in range(pop_n):
        population[i, 0::2] = rng.uniform(ANCHOR_MIN, 0.49, 3)
        population[i, 1::2] = rng.uniform(0.51, ANCHOR_MAX, 3)
        population[i] = _repair(population[i])
    fitness = np.array([fitness_of(chrom) for chrom in population])

    def record_best() -> np.ndarray:
        """Record the best; returns all indices best first, lower index first."""
        order = np.lexsort((np.arange(pop_n), -fitness))
        trace.best_fitness.append(float(fitness[order[0]]))
        trace.best_params.append(FgfParams.from_vector(population[order[0]]))
        return order

    def tournament() -> int:
        cand = rng.integers(0, pop_n, size=config.tournament_size)
        return min(cand, key=lambda i: (-fitness[i], i))

    order = record_best()
    for _ in range(config.generations):
        elites = [population[i].copy() for i in order[: config.elite_count]]
        elite_fitness = [float(fitness[i]) for i in order[: config.elite_count]]

        children = []
        while len(children) < pop_n - config.elite_count:
            p1 = tournament()
            p2 = tournament()
            if rng.random() < config.crossover_rate:
                mask = rng.random(6) < 0.5
                child = np.where(mask, population[p1], population[p2])
            else:
                child = population[p1].copy()
            # Mutation draws are unconditional so the stream position
            # never depends on the mask outcome.
            mut_mask = rng.random(6) < config.mutation_rate
            noise = rng.normal(0.0, config.mutation_sigma, 6)
            child = _repair(child + np.where(mut_mask, noise, 0.0))
            children.append(child)

        population = np.vstack(elites + children)
        fitness = np.concatenate(
            [elite_fitness, [fitness_of(chrom) for chrom in children]]
        )
        order = record_best()

    return trace.best_params[-1], trace


def save_trace(trace: GaTrace, path) -> None:
    """Write ``generation<TAB>best_fitness`` rows, generation 0 first."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("generation\tbest_fitness\n")
        for gen, fit in enumerate(trace.best_fitness):
            fh.write(f"{gen}\t{fit!r}\n")
