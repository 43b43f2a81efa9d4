"""Nested leave-one-out evaluation of ranking/classifier pairs.

The outer loop is leave-one-out and fold-major: each held-out sample's
training fold is ranked once (or the full data once, if asked), then at
every gene count k the top-k genes become features and an inner
stratified cross-validation picks the classifier's hyperparameter before
the held-out sample is predicted. The training folds of the classical
tests are ranked in chunks of consecutive held-out samples, each chunk
by one :func:`rankers.rank_folds` call that stacks its folds, with the
bits of :func:`rankers.rank_genes` on each fold alone; a fold that cannot
be ranked still raises when the loop reaches its own held-out sample.
The inner loop is fold-major too, for
all four classifiers: each inner fold scores every candidate value at
once. For every classifier the C library does all of a held-out
sample's work after its ranking in one call of a search bound once per
sweep (``kernels.held_out_search``):
at every count it draws the inner folds with a port of
:func:`stratified_folds`, runs the inner search and predicts the
held-out sample, with the bits of the per-count Python loop
(:func:`_held_out_hits`); a standalone :func:`inner_search` runs its
folds in one call too (``kernels.fold_search``). The naive Bayes
classifier's exp, log and log1p are NumPy's own there, called back from
C.
Counting correct predictions per k yields accuracy-versus-gene-count
curves; a one-way ANOVA compares the resulting accuracy groups across
ranking methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.special import betainc

from generank import fgf as fgf_mod
from generank import classifiers, gaopt, kernels
from generank.classifiers import (
    ConvergenceError,
    TrainSet,
    checked_samples,
    knn_grid_labels,
    mlp_grid_labels,
    nbc_grid_labels,
    svm_grid_labels,
)

# knn_classify, nbc_train, nbc_predict, svm_train, svm_predict,
# mlp_train and mlp_predict stay importable from here:
# perfbench/tracer.py patches these names.
from generank.classifiers import (  # noqa: F401
    knn_classify,
    mlp_predict,
    mlp_train,
    nbc_predict,
    nbc_train,
    svm_predict,
    svm_train,
)
from generank.dataio import Dataset, floored_scale
from generank.rankers import RANKER_METHODS, rank_folds, rank_genes

METHODS = (*RANKER_METHODS, "fgf")
CLASSIFIERS = ("knn", "svm", "nbc", "mlp")

KNN_GRID = (1, 3, 5, 7, 9)
SVM_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
NBC_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

MAX_INNER_FOLDS = 10
DEFAULT_K_MAX = 50

# The most cells (folds x genes x samples) that one rank_folds call of the
# nested LOOCV stacks. One fold of the paper's 12,600 genes x 102 samples
# already holds more, so each of those folds is ranked alone.
RANK_STACK_CELLS = 1 << 18


@dataclass
class SweepResult:
    """Accuracy by gene count for one method/classifier pair."""

    method: str
    classifier: str
    accuracy_by_k: dict
    best_k: int
    best_accuracy: float


@dataclass(frozen=True)
class AnovaResult:
    f_statistic: float
    p_value: float
    df_between: int
    df_within: int


def _derived_seed(*parts) -> int:
    """Independent child stream for one (seed, fold, ...) coordinate: the
    first 32-bit word of NumPy's ``SeedSequence(parts)`` state. The
    library's fold search derives the same perceptron seeds, and its
    held-out search the same inner seeds, with its port of
    ``SeedSequence``."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def stratified_folds(labels, n_folds: int, seed: int) -> np.ndarray:
    """Fold assignment, shuffling each class then dealing round-robin.

    The deal position carries over from one class to the next, so both
    the per-class and the overall fold sizes differ by at most one. With
    ``n_folds`` at most the smaller class count, every fold holds at
    least one sample of each class. The library's held-out search draws
    the same assignment for 0/1 labels with its port of ``PCG64`` and of
    ``Generator.shuffle``.
    """
    labels = np.asarray(labels)
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=np.int64)
    offset = 0
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rng.shuffle(members)
        assignment[members] = (offset + np.arange(len(members))) % n_folds
        offset = (offset + len(members)) % n_folds
    return assignment


def _hyper_grid(classifier: str, n_features: int):
    """Candidate values in tie-break preference order (simplest first)."""
    if classifier == "knn":
        return list(KNN_GRID)
    if classifier == "svm":
        return list(SVM_GRID)
    if classifier == "nbc":
        return sorted(NBC_GRID, key=lambda m: (abs(m - 1.0), m))
    if classifier == "mlp":
        d = n_features
        return sorted({1, math.ceil(d / 2), d, 2 * d})
    raise ValueError(
        f"unknown classifier {classifier!r}, expected one of {', '.join(CLASSIFIERS)}"
    )


def _scaled(train_x, train_y, queries):
    """Standardize a train block and its queries by the block's own scale.

    Returns ``(train, scaled_queries)``: the validated :class:`TrainSet`
    and the queries on the same scale. The scaling comes from the
    training block only, so held-out samples never influence it. A value
    that is not finite turns others into NaN without a warning, and
    :class:`TrainSet` or the classifier's query check reports it; finite
    values whose standard deviation overflows raise
    :func:`floored_scale`'s ``ValueError``.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        mu, sd = floored_scale(train_x, axis=0)
        train_x = (train_x - mu) / sd
        queries = (np.asarray(queries, dtype=np.float64) - mu) / sd
    return TrainSet(train_x, train_y), queries


def _grid_labels(classifier, grid, train, scaled, seed):
    """Labels of the queries ``scaled`` by ``classifier`` trained on a
    standardized block with each value of ``grid``: a (len(grid),
    len(scaled)) array.

    Each classifier scores the whole grid in one call (k is capped at
    the block's sample count). ``seed`` maps a value's position in
    ``grid`` to its perceptron fit's seed; only the perceptron calls it,
    so the other classifiers never derive a seed they do not use.
    """
    if classifier == "knn":
        ks = [min(int(k), train.n_samples) for k in grid]
        return knn_grid_labels(train, ks, scaled)
    if classifier == "svm":
        return svm_grid_labels(train, grid, scaled)
    if classifier == "nbc":
        return nbc_grid_labels(train, grid, scaled)
    return mlp_grid_labels(train, grid, scaled, [seed(p) for p in range(len(grid))])


def _solver_settings():
    """The SVM's update budget, stopping tolerance and support-vector
    tolerance, then the perceptron's ridge, step budget and gradient
    tolerance, as the library's searches take them: read at each call, so
    that a changed setting holds on both paths."""
    return (
        classifiers._SVM_MAX_ITER, classifiers._SVM_STOP_TOL, classifiers._SVM_SV_TOL,
        classifiers._MLP_RIDGE, classifiers._MLP_MAX_ITER, classifiers._MLP_GRAD_TOL,
    )


def _compiled_counts(classifier, grid, features, labels, folds, n_folds, parts, by_fit):
    """:func:`_fold_counts` from the library's fold search, or None without
    the library and wherever the search leaves the folds to the Python
    loop (``kernels.fold_search`` says when)."""
    if kernels.fold_search is None:
        return None
    return kernels.fold_search(
        classifier, features, labels, folds, n_folds, grid, _solver_settings(), parts, by_fit
    )


def _fold_counts(classifier, grid, features, labels, folds, n_folds, parts, by_fit):
    """Each candidate's correct test labels over the folds ``0 ..
    n_folds - 1`` of the fold assignment ``folds``.

    Folds run in order, and each is standardized once and scores every
    candidate in one :func:`_grid_labels` call. The perceptron fit of
    candidate position ``p`` in fold ``f`` is seeded from ``(*parts, f,
    p)`` when ``by_fit`` is set and from ``parts`` otherwise. An SVM fit
    that fails raises the :class:`ConvergenceError` of the first failure
    in candidate-outer, fold-inner order. The library's fold search runs
    every classifier (:func:`_compiled_counts`) with the same bits; this
    Python loop is its oracle, the path without a compiler and for what
    the library leaves to it, and the one that raises.
    """
    correct = _compiled_counts(classifier, grid, features, labels, folds, n_folds, parts, by_fit)
    if correct is not None:
        return correct
    correct, failures = 0, []
    for fold in range(n_folds):
        test = folds == fold
        train, scaled = _scaled(features[~test], labels[~test], features[test])
        if by_fit:
            fit_seed = partial(_derived_seed, *parts, fold)
        else:
            fit_seed = lambda _: _derived_seed(*parts)  # noqa: E731
        try:
            predicted = _grid_labels(classifier, grid, train, scaled, fit_seed)
        except ConvergenceError as exc:
            # a fold reports its first failing candidate
            failures.append((exc.candidate, fold, exc))
            continue
        correct = correct + (predicted == labels[test]).sum(axis=1)
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    return correct


def inner_search(features, labels, classifier: str, seed: int = 0):
    """Pick a hyperparameter by stratified cross-validation.

    Uses up to ten folds, degraded to the smaller class count; pooled
    accuracy decides, ties going to the simpler candidate (smaller k or
    C, bandwidth multiplier nearest 1, fewer hidden nodes). The folds are
    scored by :func:`_fold_counts`; the perceptron fit of candidate
    position ``p`` in fold ``f`` is seeded from ``(seed, f, p)``. Returns
    ``(best_value, best_accuracy)``; features that are not 2-D, labels
    that are not one 0 or 1 per row raise :class:`TrainSet`'s
    ``ValueError``.
    """
    features, labels = checked_samples(features, labels)
    grid = _hyper_grid(classifier, features.shape[1])
    min_count = int(np.bincount(labels, minlength=2).min())
    n_folds = min(MAX_INNER_FOLDS, min_count)
    if n_folds < 2:
        # Too little data to cross-validate; fall back to the simplest
        # candidate.
        return grid[0], float("nan")

    folds = stratified_folds(labels, n_folds, seed)
    correct = _fold_counts(classifier, grid, features, labels, folds, n_folds, (seed,), True)
    # argmax takes the first best, the simplest candidate
    best = int(np.argmax(correct))
    return grid[best], int(correct[best]) / len(labels)


def rank(dataset: Dataset, method: str, fgf_params=None):
    """Rank every gene of ``dataset`` by ``method``: the fuzzy filter
    (:func:`fgf.fgf_rank`, with ``fgf_params`` or its default anchors)
    for ``"fgf"``, one classical test (:func:`rankers.rank_genes`)
    otherwise. Anchors belong to the fuzzy filter only."""
    if method == "fgf":
        return fgf_mod.fgf_rank(dataset, fgf_params)
    if fgf_params is not None:
        raise ValueError("fgf_params needs method 'fgf'")
    return rank_genes(dataset, method)


def _training_fold(dataset, held_out):
    """``dataset`` without the sample ``held_out``."""
    keep = np.arange(dataset.n_samples) != held_out
    return replace(dataset, matrix=dataset.matrix[:, keep], labels=dataset.labels[keep])


def _rank_folds_from(dataset, method, held_out, cache):
    """Store in ``cache`` the rankings of the training folds of ``held_out``
    and of the samples after it that ``cache`` lacks, by one
    :func:`rankers.rank_folds` call on at most ``RANK_STACK_CELLS`` cells.
    Where ``rank_folds`` rejects a fold of the chunk, ``held_out``'s fold
    is ranked alone by :func:`rank` instead, so that a fold that cannot be
    ranked raises :func:`rank`'s error when the loop reaches its own
    held-out sample, and not before."""
    n_genes, n = dataset.matrix.shape
    size = max(1, RANK_STACK_CELLS // max(1, n_genes * (n - 1)))
    chunk = [h for h in range(held_out, min(n, held_out + size)) if h not in cache]
    try:
        cache.update(zip(chunk, rank_folds(dataset, method, chunk)))
    except ValueError:
        cache[held_out] = rank(_training_fold(dataset, held_out), method)


def _loocv_correct(
    dataset, method, classifier, counts, fgf_params, rank_scope, seed, reoptimize_fgf,
    ga_config, cache,
) -> dict:
    """Correct leave-one-out predictions at each gene count in ``counts``.

    Fold-major: a held-out sample's training fold is ranked once (or the
    full data once, with ``rank_scope="full"``), and every count is
    scored on that ranking before the next sample is held out. Rankings
    are stored in ``cache`` under the held-out index, or ``"full"``. The
    training folds of ``ttest``, ``wilcoxon`` and ``roc`` are ranked ahead,
    in chunks of consecutive held-out samples (:func:`_rank_folds_from`);
    the fuzzy filter's are ranked one by one by :func:`rank`. Each
    held-out sample then takes one call of the library's search, bound
    once per sweep with each count's candidates
    (``kernels.held_out_search``), given its top ``max(counts)`` genes,
    which draws every count's inner folds, searches them and predicts the
    sample, with the bits of :func:`_held_out_hits`. That per-count loop
    runs the sample instead without the library and wherever the call
    returns None, so that it gives its own counts or raises its own error
    at the same count.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {', '.join(METHODS)}")
    if classifier not in CLASSIFIERS:
        raise ValueError(
            f"unknown classifier {classifier!r}, expected one of {', '.join(CLASSIFIERS)}"
        )
    if rank_scope not in ("train", "full"):
        raise ValueError("rank_scope must be 'train' or 'full'")
    # The per-fold anchor search belongs to the fuzzy filter only; it needs
    # per-fold rankings and would drop given anchors.
    if reoptimize_fgf and method != "fgf":
        raise ValueError("reoptimize_fgf needs method 'fgf'")
    if reoptimize_fgf and rank_scope == "full":
        raise ValueError("reoptimize_fgf needs rank_scope='train'")
    if reoptimize_fgf and fgf_params is not None:
        raise ValueError("reoptimize_fgf and fgf_params exclude each other")
    # rank's own check, made before any fold is ranked, since the folds of
    # the classical tests are ranked without it
    if fgf_params is not None and method != "fgf":
        raise ValueError("fgf_params needs method 'fgf'")
    config = ga_config if ga_config is not None else gaopt.GaConfig()
    if method == "fgf" and fgf_params is None and not reoptimize_fgf:
        fgf_params, _ = gaopt.optimize_fgf(dataset, config)

    n = dataset.n_samples
    correct = dict.fromkeys(counts, 0)
    counts = list(correct)
    k_max = max(counts)
    search = None
    if kernels.held_out_search is not None:
        grids = [_hyper_grid(classifier, k) for k in counts]
        search = kernels.held_out_search(
            classifier, dataset.matrix, dataset.labels, counts, grids, MAX_INNER_FOLDS,
            _solver_settings(), seed,
        )
    stacked = rank_scope == "train" and method in RANKER_METHODS
    for held_out in range(n):
        key = "full" if rank_scope == "full" else held_out
        if key not in cache and stacked:
            _rank_folds_from(dataset, method, held_out, cache)
        elif key not in cache:
            data, params = dataset, fgf_params
            if rank_scope == "train":
                data = _training_fold(dataset, held_out)
                if reoptimize_fgf:
                    fold_config = replace(config, seed=_derived_seed(config.seed, held_out))
                    params, _ = gaopt.optimize_fgf(data, fold_config)
            cache[key] = rank(data, method, params)
        order = cache[key].order
        hits = None if search is None else search(order[:k_max], held_out)
        if hits is None:
            hits = _held_out_hits(dataset, classifier, order, held_out, counts, seed)
        for k, hit in zip(counts, hits):
            correct[k] += int(hit)
    return correct


def _held_out_hits(dataset, classifier, order, held_out, counts, seed):
    """Whether the sample ``held_out`` is predicted right (1 or 0) at each
    gene count of ``counts``, its training fold ranked by ``order``: for
    each count, :func:`inner_search` on the training fold picks the
    candidate, seeded from ``(seed, held_out, k)``, and a one-fold search
    with the held-out sample alone in fold 0 predicts it, its fit seeded
    from ``(seed, held_out, k, 1)``. The library's ``held_out_search``
    does all of it in one call with the same bits; this loop is its oracle,
    the path without a compiler and for what the library leaves to it, and
    the one that raises."""
    keep = np.arange(dataset.n_samples) != held_out
    alone = keep.astype(np.int64)
    fold_labels = dataset.labels[keep]
    hits = []
    for k in counts:
        selected = dataset.matrix[np.sort(order[:k])]
        hyper, _ = inner_search(
            selected[:, keep].T, fold_labels, classifier, _derived_seed(seed, held_out, k)
        )
        correct = _fold_counts(
            classifier, [hyper], selected.T, dataset.labels, alone, 1, (seed, held_out, k, 1),
            False,
        )
        hits.append(int(correct[0]))
    return hits


def loocv_accuracy(
    dataset: Dataset,
    method: str,
    classifier: str,
    k_genes: int,
    fgf_params=None,
    rank_scope: str = "train",
    seed: int = 0,
    reoptimize_fgf: bool = False,
    ga_config=None,
    _ranking_cache: dict = None,
) -> float:
    """Leave-one-out accuracy for one ranking/classifier/gene-count pick.

    ``rank_scope="train"`` re-ranks genes inside every fold (each class
    then needs at least three samples so folds stay valid);
    ``rank_scope="full"`` ranks once on all samples. Fuzzy-filter
    parameters, which need ``method="fgf"``, default to one optimization
    on the full data; with ``reoptimize_fgf`` the genetic search reruns
    per fold on a fold-derived seed, so it needs ``method="fgf"``,
    ``rank_scope="train"`` and no ``fgf_params`` (anything else raises
    ``ValueError``). The top-k genes enter
    the classifier as a set, in gene-index order. The result is
    ``correct / n_samples``.
    """
    if k_genes < 1:
        raise ValueError("k_genes must be >= 1")
    k = min(k_genes, dataset.n_genes)
    correct = _loocv_correct(
        dataset, method, classifier, (k,), fgf_params, rank_scope, seed, reoptimize_fgf,
        ga_config, _ranking_cache if _ranking_cache is not None else {},
    )
    return correct[k] / dataset.n_samples


def sweep_gene_counts(
    dataset: Dataset,
    method: str,
    classifier: str,
    k_max: int = DEFAULT_K_MAX,
    fgf_params=None,
    rank_scope: str = "train",
    seed: int = 0,
    reoptimize_fgf: bool = False,
    ga_config=None,
) -> SweepResult:
    """Accuracy at every gene count from 1 to k_max (capped at n_genes).

    The loop is fold-major, as in nested LOOCV: each held-out sample's
    training fold is ranked once, then scored at k = 1, 2, ... before the
    next sample is held out. Every prediction equals the one
    :func:`loocv_accuracy` makes alone, since seeds derive from
    ``(seed, held_out, k)``. ``best_k`` is the smallest count reaching
    the best accuracy.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    counts = range(1, min(k_max, dataset.n_genes) + 1)
    correct = _loocv_correct(
        dataset, method, classifier, counts, fgf_params, rank_scope, seed, reoptimize_fgf,
        ga_config, {},
    )
    accuracy_by_k = {k: c / dataset.n_samples for k, c in correct.items()}
    best_k = min(accuracy_by_k, key=lambda k: (-accuracy_by_k[k], k))
    return SweepResult(method, classifier, accuracy_by_k, best_k, accuracy_by_k[best_k])


def anova_oneway(groups) -> AnovaResult:
    """Classic one-way fixed-effects ANOVA over two or more groups.

    Identical values everywhere make the test meaningless and raise;
    zero within-group scatter with differing means yields an infinite F
    and a zero p-value.
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2:
        raise ValueError("need at least two groups")
    for g in arrays:
        if g.ndim != 1 or len(g) < 1:
            raise ValueError("each group must be a non-empty 1-D array")
        if not np.isfinite(g).all():
            raise ValueError("groups contain non-finite values")
    n_total = sum(len(g) for g in arrays)
    n_groups = len(arrays)
    df_between = n_groups - 1
    df_within = n_total - n_groups
    if df_within < 1:
        raise ValueError("need more observations than groups")
    pooled = np.concatenate(arrays)
    if (pooled == pooled[0]).all():
        raise ValueError("degenerate: all observations are identical")
    grand = pooled.mean()
    ss_between = sum(len(g) * (g.mean() - grand) ** 2 for g in arrays)
    ss_within = sum(float(((g - g.mean()) ** 2).sum()) for g in arrays)
    ms_between = ss_between / df_between
    if ss_within == 0.0:
        return AnovaResult(math.inf, 0.0, df_between, df_within)
    ms_within = ss_within / df_within
    f_stat = ms_between / ms_within
    p = float(betainc(df_within / 2.0, df_between / 2.0, df_within / (df_within + df_between * f_stat)))
    return AnovaResult(float(f_stat), p, df_between, df_within)


def save_sweep(result: SweepResult, path) -> None:
    """Write ``k<TAB>accuracy`` rows in ascending k."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k\taccuracy\n")
        for k in sorted(result.accuracy_by_k):
            fh.write(f"{k}\t{result.accuracy_by_k[k]!r}\n")
