"""Tests for fold construction, nested model selection and the gene-count sweep."""

import numpy as np
import pytest
from scipy import stats

from generank import classifiers, crossval, kernels
from generank.classifiers import ConvergenceError
from generank.crossval import (
    CLASSIFIERS,
    KNN_GRID,
    NBC_GRID,
    SVM_GRID,
    anova_oneway,
    inner_search,
    loocv_accuracy,
    save_sweep,
    stratified_folds,
    sweep_gene_counts,
    _hyper_grid,
)
from generank.fgf import default_params, fgf_rank
from generank.gaopt import GaConfig
from generank.rankers import rank_genes

from conftest import planted_dataset, unbind


# ---------------------------------------------------------------------------
# fold construction


def test_stratified_folds_partition_and_balance():
    rng = np.random.default_rng(600)
    for trial in range(50):
        n0 = int(rng.integers(3, 20))
        n1 = int(rng.integers(3, 20))
        labels = np.concatenate([np.zeros(n0, int), np.ones(n1, int)])
        rng.shuffle(labels)
        n_folds = int(rng.integers(2, min(n0, n1) + 1))
        folds = stratified_folds(labels, n_folds, seed=trial)
        assert folds.shape == labels.shape
        assert set(folds) == set(range(n_folds))
        sizes = np.bincount(folds, minlength=n_folds)
        assert sizes.max() - sizes.min() <= 1
        # each class spreads as evenly as possible across folds
        for cls in (0, 1):
            counts = np.bincount(folds[labels == cls], minlength=n_folds)
            assert counts.max() - counts.min() <= 1


def test_stratified_folds_deterministic_by_seed():
    labels = np.array([0, 1] * 10)
    a = stratified_folds(labels, 4, seed=1)
    b = stratified_folds(labels, 4, seed=1)
    c = stratified_folds(labels, 4, seed=2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# hyper-parameter grids


def test_hyper_grids():
    assert _hyper_grid("knn", 10) == list(KNN_GRID)
    assert _hyper_grid("svm", 10) == list(SVM_GRID)
    # bandwidth multipliers orderd by distance from 1, preferring small
    assert _hyper_grid("nbc", 10) == [1.0, 0.5, 0.25, 2.0, 4.0]
    assert set(NBC_GRID) == set(_hyper_grid("nbc", 10))
    assert _hyper_grid("mlp", 5) == [1, 3, 5, 10]
    assert _hyper_grid("mlp", 1) == [1, 2]
    assert _hyper_grid("mlp", 20) == [1, 10, 20, 40]


# ---------------------------------------------------------------------------
# inner model selection


@pytest.fixture
def python_folds(monkeypatch):
    """The Python fold loop for every classifier: tests that observe its
    blocks, seeds and solver calls run with the library's fold search
    unbound."""
    unbind(monkeypatch, "fold_search")


def test_inner_search_returns_grid_member():
    rng = np.random.default_rng(601)
    features = np.vstack(
        [rng.normal(-1.5, 0.5, (8, 4)), rng.normal(1.5, 0.5, (8, 4))]
    )
    labels = np.array([0] * 8 + [1] * 8)
    for classifier in CLASSIFIERS:
        value, accuracy = inner_search(features, labels, classifier, seed=0)
        assert value in _hyper_grid(classifier, 4)
        assert 0.0 <= accuracy <= 1.0


def test_inner_search_deterministic():
    rng = np.random.default_rng(602)
    features = rng.normal(size=(14, 3))
    labels = np.array([0] * 7 + [1] * 7)
    assert inner_search(features, labels, "knn", seed=3) == inner_search(
        features, labels, "knn", seed=3
    )


def test_inner_search_degenerate_class_returns_first_choice():
    # a lone class-1 sample cannot support two inner folds
    features = np.arange(8.0).reshape(4, 2)
    labels = np.array([0, 0, 0, 1])
    value, accuracy = inner_search(features, labels, "knn", seed=0)
    assert value == KNN_GRID[0]
    assert np.isnan(accuracy)


def test_inner_search_prefers_first_best_on_ties():
    # perfectly separated data: every k wins everything, so the first
    # grid entry must be chosen
    features = np.vstack([np.full((5, 2), -4.0), np.full((5, 2), 4.0)])
    features += np.linspace(0, 0.1, 10)[:, None]
    labels = np.array([0] * 5 + [1] * 5)
    value, accuracy = inner_search(features, labels, "knn", seed=0)
    assert value == KNN_GRID[0]
    assert accuracy == 1.0


def test_inner_search_scales_each_fold_once(monkeypatch, python_folds):
    rng = np.random.default_rng(616)
    features = rng.normal(size=(16, 3))
    labels = np.array([0] * 8 + [1] * 8)
    calls = []
    floored_scale = crossval.floored_scale

    def counting(block, axis):
        calls.append(block.shape)
        return floored_scale(block, axis)

    monkeypatch.setattr(crossval, "floored_scale", counting)
    for classifier in CLASSIFIERS:
        calls.clear()
        inner_search(features, labels, classifier, seed=1)
        # eight folds, each scaled once however long the grid is
        assert calls == [(14, 3)] * 8


def _child_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def test_derived_seed_same_on_both_paths():
    # the library's fold search derives the same seeds with its port of
    # SeedSequence (test_kernels checks it); Python has this one path
    coordinates = [(), (0,), (5, 0, 1), (3, 2**32 - 1, 7, 1), (2**40, 3), (np.int64(4), 2)]
    values = [crossval._derived_seed(*parts) for parts in coordinates]
    assert values == [_child_seed(*parts) for parts in coordinates]
    assert all(type(value) is int for value in values)


@pytest.mark.parametrize("part, error", [(-1, ValueError), (1.5, TypeError)])
def test_derived_seed_errors_are_numpys_on_both_paths(part, error):
    with pytest.raises(error) as numpys:
        np.random.SeedSequence([3, part])
    with pytest.raises(error) as raised:
        crossval._derived_seed(3, part)
    assert str(raised.value) == str(numpys.value)


def test_inner_search_seeds_only_the_perceptron(monkeypatch, python_folds):
    rng = np.random.default_rng(617)
    features = rng.normal(size=(8, 2))
    labels = np.array([0] * 4 + [1] * 4)
    seeds = []
    mlp_grid_labels = crossval.mlp_grid_labels

    def recording(train, hidden_counts, queries, fit_seeds):
        seeds.extend(zip(hidden_counts, fit_seeds))
        return mlp_grid_labels(train, hidden_counts, queries, fit_seeds)

    monkeypatch.setattr(crossval, "mlp_grid_labels", recording)
    derived = []
    derive = crossval._derived_seed
    monkeypatch.setattr(
        crossval, "_derived_seed", lambda *parts: derived.append(parts) or derive(*parts)
    )
    for classifier in ("knn", "svm", "nbc"):
        inner_search(features, labels, classifier, seed=5)
    assert derived == []
    inner_search(features, labels, "mlp", seed=5)
    # folds outer, candidates inner, each fit on its own (seed, fold, position) stream
    grid = _hyper_grid("mlp", 2)
    assert seeds == [
        (value, _child_seed(5, fold, position))
        for fold in range(4)
        for position, value in enumerate(grid)
    ]
    assert derived == [(5, fold, p) for fold in range(4) for p in range(len(grid))]


def _reference_inner_search(features, labels, classifier, seed):
    """inner_search as a candidate-outer, fold-inner loop of one fit and
    one prediction per query; also returns each candidate's hit count."""
    grid = _hyper_grid(classifier, features.shape[1])
    n_folds = min(crossval.MAX_INNER_FOLDS, int(np.bincount(labels, minlength=2).min()))
    folds = stratified_folds(labels, n_folds, seed)
    hits = []
    for position, value in enumerate(grid):
        total = 0
        for fold in range(n_folds):
            test = folds == fold
            train, scaled = crossval._scaled(features[~test], labels[~test], features[test])
            if classifier == "knn":
                k = min(value, train.n_samples)
                predicted = [crossval.knn_classify(train, q, k) for q in scaled]
            elif classifier == "svm":
                model = crossval.svm_train(train, value)
                predicted = [crossval.svm_predict(model, q) for q in scaled]
            elif classifier == "nbc":
                model = crossval.nbc_train(train, value)
                predicted = [crossval.nbc_predict(model, q)[0] for q in scaled]
            else:
                model = crossval.mlp_train(train, value, seed=_child_seed(seed, fold, position))
                predicted = [crossval.mlp_predict(model, q)[0] for q in scaled]
            total += int((np.array(predicted) == labels[test]).sum())
        hits.append(total)
    best = hits.index(max(hits))
    return grid[best], hits[best] / len(labels), hits


@pytest.mark.parametrize("classifier", CLASSIFIERS)
def test_inner_search_matches_per_query_loop(classifier):
    rng = np.random.default_rng(622)
    for trial in range(4):
        n0, n1 = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        features = rng.normal(size=(n0 + n1, int(rng.integers(1, 6))))
        features[n0:] += rng.uniform(0.0, 1.5)
        if trial == 1:
            features = np.round(features, 1)  # distance ties
        labels = np.array([0] * n0 + [1] * n1)
        value, accuracy, _ = _reference_inner_search(features, labels, classifier, trial)
        assert inner_search(features, labels, classifier, seed=trial) == (value, accuracy)


@pytest.mark.parametrize("classifier, data_seed", [("nbc", 0), ("knn", 1)])
def test_inner_search_tie_goes_to_the_simpler_candidate(classifier, data_seed):
    # two candidates share the best pooled accuracy, neither of them the
    # first in the grid
    rng = np.random.default_rng(data_seed)
    features = rng.normal(size=(16, 3))
    features[8:] += 0.6
    labels = np.array([0] * 8 + [1] * 8)
    value, accuracy, hits = _reference_inner_search(features, labels, classifier, data_seed)
    best = max(hits)
    assert hits.count(best) >= 2 and hits[0] < best
    assert value == _hyper_grid(classifier, 3)[hits.index(best)]
    assert inner_search(features, labels, classifier, seed=data_seed) == (value, accuracy)


def test_inner_search_raises_the_first_svm_failure_in_candidate_order(monkeypatch, python_folds):
    # fold 0's fit of the fourth C and fold 2's fit of the second get a
    # budget of one update and fail; a candidate-by-candidate search meets
    # fold 2's failure first, though fold 0 is scored first
    rng = np.random.default_rng(630)
    features = rng.normal(size=(16, 3))
    features[8:] += 0.8
    labels = np.array([0] * 8 + [1] * 8)
    solve = classifiers._SVM_GRID

    def starving(failing):
        """_SVM_GRID with a one-update budget for the fit of position
        failing[call] in the call-th call."""
        calls = []

        def grid(X, y, cs, queries, max_iter, tol, sv_tol):
            fold = len(calls)
            calls.append(fold)
            fits = [
                solve(X, y, cs[[r]], queries, 1 if failing.get(fold) == r else max_iter,
                      tol, sv_tol)
                for r in range(len(cs))
            ]
            return tuple(np.concatenate(parts) for parts in zip(*fits))

        return grid

    monkeypatch.setattr(classifiers, "_SVM_GRID", starving({0: 3, 2: 1}))
    with pytest.raises(ConvergenceError, match="stalled") as caught:
        inner_search(features, labels, "svm", seed=4)
    assert caught.value.candidate == 1

    folds = stratified_folds(labels, 8, 4)
    messages = {}
    for fold, position in ((0, 3), (2, 1)):
        test = folds == fold
        train, scaled = crossval._scaled(features[~test], labels[~test], features[test])
        monkeypatch.setattr(classifiers, "_SVM_GRID", starving({0: 0}))
        with pytest.raises(ConvergenceError) as alone:
            classifiers.svm_grid_labels(train, [SVM_GRID[position]], scaled)
        messages[fold] = str(alone.value)
    assert messages[0] != messages[2]
    assert str(caught.value) == messages[2]


# ---------------------------------------------------------------------------
# the library's fold search against the Python fold loop


needs_fold_search = pytest.mark.skipif(
    kernels.fold_search is None, reason="the C library is not loaded"
)


def _on_both_paths(monkeypatch, run):
    """``run()`` with the library's fold search, then with the Python fold
    loop; the search is bound again afterwards."""
    compiled = run()
    with monkeypatch.context() as python:
        unbind(python, "fold_search")
        return compiled, run()


def _search_cases(classifier):
    """(features, labels) blocks: one feature with 9 to 150 training rows
    (past the pairwise-sum thresholds 8 and 128 for the SVM), several
    features, a constant column, rounded values with distance ties and
    signed zeros, and uneven class sizes. The nearest-neighbour voter's
    blocks have 1, 7, 8, 9 and 130 features, across the thresholds of its
    distances' pairwise sums, training folds of 4 and 8 rows, where k = 5,
    7 and 9 are capped to an even count and split votes fall to the
    distance sums, and duplicated rows, whose distances tie exactly."""
    rng = np.random.default_rng(640)
    if classifier == "knn":
        sizes, widths = [(3, 3), (5, 5), (9, 8), (12, 7)], (1, 7, 8, 9, 130)
    else:
        sizes = [(5, 6), (9, 8), (12, 7)] + ([(70, 75)] if classifier == "svm" else [])
        widths = (1, 2, 4)
    for n0, n1 in sizes:
        labels = np.array([0] * n0 + [1] * n1)
        for d in widths if n0 < 70 else (1,):
            features = rng.normal(size=(n0 + n1, d)) * 10.0 ** rng.uniform(-2.0, 2.0)
            features[n0:] += rng.uniform(0.0, 1.0)
            yield features, labels
            tied = np.round(features * 2.0, 0) / 2.0
            tied[::3] *= -0.0
            yield tied, labels
            if d > 1:
                constant = features.copy()
                constant[:, 1] = 3.25
                yield constant, labels
            if classifier == "knn":
                duplicated = features.copy()
                duplicated[1::3] = features[::3][: len(duplicated[1::3])]
                yield duplicated, labels


@needs_fold_search
def test_fold_blocks_are_scaled_blocks_bit_for_bit():
    # the library's gather and standardization of one fold against
    # _scaled's: one feature (NumPy's pairwise sum) and several (row by
    # row), 3 to 300 rows across the thresholds 8 and 128, with constant
    # columns, signed zeros and large offsets
    P, N = kernels._POINTER, kernels._COUNT
    fold_blocks = kernels._declare(kernels._LIB, "fold_blocks", P, N, N, P, P, N, *(P,) * 7)
    rng = np.random.default_rng(644)
    for trial in range(1500):
        n, d = int(rng.integers(3, 301)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-4.0, 4.0, d)
        X += rng.normal(size=d) * 10.0 ** rng.uniform(-2.0, 6.0)
        if trial % 5 == 1:
            X = np.round(X, 1)
            X[rng.random(X.shape) < 0.3] *= -0.0
        if trial % 5 == 2:
            X[:, rng.integers(d)] = rng.choice([0.0, -0.0, 2.5])
        labels = (np.arange(n) % 2).astype(np.int64)
        folds = rng.integers(0, 3, n).astype(np.int64)
        test = folds == 0
        if len(set(labels[~test])) < 2:
            continue
        T, E, sq = np.empty((n, d)), np.empty((n, d)), np.empty(n)
        t_labels, e_labels, counts = (np.empty(n, dtype=np.int64) for _ in range(3))
        status = fold_blocks(
            X.ctypes.data, n, d, labels.ctypes.data, folds.ctypes.data, 0,
            T.ctypes.data, t_labels.ctypes.data, counts[:1].ctypes.data, E.ctypes.data,
            e_labels.ctypes.data, counts[1:].ctypes.data, sq.ctypes.data,
        )
        train, scaled = crossval._scaled(X[~test], labels[~test], X[test])
        n_t, n_e = counts[:2]
        assert status == 0 and (n_t, n_e) == (len(train.labels), len(scaled))
        assert T[:n_t].tobytes() == train.features.tobytes(), f"trial {trial}"
        assert E[:n_e].tobytes() == scaled.tobytes(), f"trial {trial}"
        assert t_labels[:n_t].tolist() == train.labels.tolist()
        assert e_labels[:n_e].tolist() == labels[test].tolist()


@needs_fold_search
@pytest.mark.parametrize("classifier", ["knn", "svm", "mlp"])
def test_fold_search_counts_equal_on_both_paths(monkeypatch, classifier):
    # every candidate's count, then the pick, over each block's folds
    for trial, (features, labels) in enumerate(_search_cases(classifier)):
        n_folds = min(crossval.MAX_INNER_FOLDS, int(np.bincount(labels).min()))
        folds = stratified_folds(labels, n_folds, trial)
        grid = _hyper_grid(classifier, features.shape[1])
        arguments = (classifier, grid, features, labels, folds, n_folds, (trial,), True)
        assert crossval._compiled_counts(*arguments) is not None
        compiled, python = _on_both_paths(
            monkeypatch, lambda: crossval._fold_counts(*arguments).tolist()
        )
        assert compiled == python, f"trial {trial}"
        compiled, python = _on_both_paths(
            monkeypatch, lambda: inner_search(features, labels, classifier, seed=trial)
        )
        assert compiled == python, f"trial {trial}"


@needs_fold_search
@pytest.mark.parametrize("n, d, seed", [(12, 9, 60), (12, 9, 93), (19, 9, 104), (19, 16, 29)])
def test_fold_search_sums_knn_distances_in_numpys_order(monkeypatch, n, d, seed):
    # features rounded to a few values a column: some distances from a
    # test row differ in their last bits only, by the order their squares
    # are added, and these blocks' counts change if the library adds them
    # left to right rather than in NumPy's pairwise order
    rng = np.random.default_rng(seed)
    features = np.round(rng.normal(size=(n, d)) * rng.uniform(0.3, 1.5), 0)
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    folds = stratified_folds(labels, min(10, n // 2), seed)
    arguments = ("knn", list(KNN_GRID), features, labels, folds, min(10, n // 2), (0,), True)
    compiled, python = _on_both_paths(
        monkeypatch, lambda: crossval._fold_counts(*arguments).tolist()
    )
    assert compiled == python


@needs_fold_search
@pytest.mark.parametrize(
    "classifier, n0, n1, k_max", [("knn", 6, 5, 3), ("svm", 6, 7, 3), ("mlp", 5, 5, 2)]
)
def test_sweep_equal_on_both_paths(monkeypatch, classifier, n0, n1, k_max):
    # the held-out fits go through the library as one-fold searches; k = 1
    # standardizes 9 or more training rows pairwise
    dataset = planted_dataset(20, 4, n0, n1, 1.0, seed=641)
    dataset.matrix[5] = 7.0  # a constant gene

    def python_loop(*args):
        raise AssertionError("a fold went through the Python loop")

    with monkeypatch.context() as library_only:
        library_only.setattr(crossval, "_scaled", python_loop)
        sweep_gene_counts(dataset, "ttest", classifier, k_max, seed=2)
    compiled, python = _on_both_paths(
        monkeypatch, lambda: sweep_gene_counts(dataset, "ttest", classifier, k_max, seed=2)
    )
    assert compiled == python
    compiled, python = _on_both_paths(
        monkeypatch,
        lambda: sweep_gene_counts(
            dataset, "wilcoxon", classifier, k_max, rank_scope="full", seed=3
        ),
    )
    assert compiled == python


def _raised(run):
    with pytest.raises(Exception) as caught:
        run()
    return type(caught.value), str(caught.value)


@needs_fold_search
def test_svm_budget_stall_raises_the_same_error_on_both_paths(monkeypatch):
    # no fit of these folds converges in one update: the library leaves
    # the block to the Python loop, which raises its first failure
    rng = np.random.default_rng(642)
    features = rng.normal(size=(16, 3))
    features[8:] += 0.8
    labels = np.array([0] * 8 + [1] * 8)
    monkeypatch.setattr(classifiers, "_SVM_MAX_ITER", 1)
    folds = stratified_folds(labels, 8, 4)
    assert crossval._compiled_counts(
        "svm", list(SVM_GRID), features, labels, folds, 8, (4,), True
    ) is None
    compiled, python = _on_both_paths(
        monkeypatch, lambda: _raised(lambda: inner_search(features, labels, "svm", seed=4))
    )
    assert compiled == python
    assert compiled[0] is ConvergenceError
    assert compiled[1].startswith("dual optimization stalled") and "after 1 updates" in compiled[1]


@needs_fold_search
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("classifier", ["knn", "svm", "mlp"])
@pytest.mark.parametrize(
    "fault", ["label", "nan", "inf", "held_out_nan", "one_class", "candidate"]
)
def test_rejected_blocks_raise_the_same_error_on_both_paths(monkeypatch, classifier, fault):
    # an inner search, a one-fold search that predicts sample 0 alone, or
    # an inner search over a grid holding a candidate the classifier's
    # Python check rejects: the library leaves each to the Python loop,
    # which raises its own error
    rng = np.random.default_rng(643)
    features = rng.normal(size=(12, 2))
    labels = np.array([0] * 6 + [1] * 6)
    if fault == "label":
        labels = np.array([0] * 4 + [1] * 5 + [2] * 3)
    elif fault == "held_out_nan":
        # the training rows are valid, the held-out query is not
        features[0, 1] = np.nan
    elif fault == "one_class":
        labels = np.array([1] + [0] * 11)
    elif fault in ("nan", "inf"):
        features[3, 0] = np.nan if fault == "nan" else np.inf
    grids = [_hyper_grid(classifier, 2)]
    if fault == "candidate":
        grids = {"knn": [[0]], "svm": [[0.0], [np.nan]], "mlp": [[0]]}[classifier]
    alone = (np.arange(12) != 0).astype(np.int64)
    folds = stratified_folds(labels, 6, 1)

    for grid in grids:

        def search():
            if fault == "candidate":
                return crossval._fold_counts(
                    classifier, grid, features, labels, folds, 6, (1,), True
                )
            if fault in ("held_out_nan", "one_class"):
                return crossval._fold_counts(
                    classifier, grid, features, labels, alone, 1, (1, 0, 2, 1), False
                )
            return inner_search(features, labels, classifier, seed=1)

        if fault == "candidate":
            arguments = (classifier, grid, features, labels, folds, 6, (1,), True)
            assert crossval._compiled_counts(*arguments) is None, grid
        compiled, python = _on_both_paths(monkeypatch, lambda: _raised(search))
        assert compiled == python, grid
        assert compiled[0] is ValueError


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("classifier", CLASSIFIERS)
@pytest.mark.parametrize("scale", [1e200, 1e307])
def test_overflowing_scale_raises_on_both_paths(monkeypatch, classifier, scale):
    # the variance of values near 1e154 or more overflows: standardized by
    # it, every value would be 0 and every candidate would score chance
    rng = np.random.default_rng(648)
    features = rng.normal(size=(12, 2)) * scale
    labels = np.array([0] * 6 + [1] * 6)
    if classifier != "nbc" and kernels.fold_search is not None:
        folds = stratified_folds(labels, 6, 1)
        grid = _hyper_grid(classifier, 2)
        arguments = (classifier, grid, features, labels, folds, 6, (1,), True)
        assert crossval._compiled_counts(*arguments) is None
    compiled, python = _on_both_paths(
        monkeypatch, lambda: _raised(lambda: inner_search(features, labels, classifier, seed=1))
    )
    assert compiled == python == (
        ValueError, "features too large to standardize: a standard deviation overflows"
    )


def _outcome(run):
    """``run()``'s result, or the type and message of the error it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "classifier, expected",
    [
        ("knn", (1, 0.5)),
        ("svm", (0.01, 0.5)),
        ("nbc", (1.0, 0.5)),
        ("mlp", (ValueError, "hidden_count must be a whole number >= 1")),
    ],
)
def test_block_without_features_gets_the_same_outcome_on_both_paths(
    monkeypatch, classifier, expected
):
    # the library leaves a block with no feature to the Python loop: the
    # voter, the SVM and the naive Bayes classifier score chance with their
    # first candidate, the perceptron's grid holds a width of 0, and its
    # held-out fit of width 1 has no feature to weigh
    features, labels = np.zeros((10, 0)), np.array([0] * 5 + [1] * 5)
    compiled, python = _on_both_paths(
        monkeypatch, lambda: _outcome(lambda: inner_search(features, labels, classifier, seed=1))
    )
    assert compiled == python == expected
    alone = (np.arange(10) != 0).astype(np.int64)
    grid = _hyper_grid(classifier, 1)[:1]
    arguments = (classifier, grid, features, labels, alone, 1, (1, 0, 2, 1), False)
    if kernels.fold_search is not None:
        assert crossval._compiled_counts(*arguments) is None
    compiled, python = _on_both_paths(
        monkeypatch, lambda: _outcome(lambda: crossval._fold_counts(*arguments).tolist())
    )
    assert compiled == python
    if classifier == "mlp":
        assert compiled == (ValueError, "the perceptron needs at least one feature")


@needs_fold_search
def test_fold_search_leaves_to_the_python_loop_what_it_does_not_score(monkeypatch):
    # the naive Bayes classifier, a block with no rows or no columns, and
    # perceptron seed parts that are not non-negative ints; the voter and
    # the SVM never read the seed parts, on either path. Only arrays of the
    # wrong shape raise.
    rng = np.random.default_rng(649)
    features = rng.normal(size=(12, 2))
    features[6:] += 0.7
    labels = np.array([0] * 6 + [1] * 6)
    folds = stratified_folds(labels, 6, 1)

    def counts(classifier, parts=(1,), X=features, y=labels, f=folds):
        grid = _hyper_grid(classifier, 2)
        return crossval._compiled_counts(classifier, grid, X, y, f, 6, parts, True)

    assert counts("nbc") is None
    assert counts("knn", X=features[:, :0]) is None
    assert counts("svm", X=features[:0], y=labels[:0], f=folds[:0]) is None
    for parts in ((-1,), (1, np.int64(-2)), (1.5,), (np.float64(2.0),), ("3",), (None,)):
        assert counts("mlp", parts) is None, parts
        for classifier in ("knn", "svm"):
            got = counts(classifier, parts)
            assert got.tolist() == counts(classifier).tolist(), parts
            compiled, python = _on_both_paths(
                monkeypatch,
                lambda: crossval._fold_counts(
                    classifier, _hyper_grid(classifier, 2), features, labels, folds, 6, parts,
                    True,
                ).tolist(),
            )
            assert compiled == python == got.tolist(), parts
    for bad in (
        dict(X=features[:, 0]), dict(y=labels[:-1]), dict(f=folds[:, None]),
        dict(y=labels[:, None]),
    ):
        with pytest.raises(ValueError, match="features must be 2-D"):
            counts("knn", **bad)


@pytest.mark.parametrize("classifier", CLASSIFIERS)
@pytest.mark.parametrize(
    "fault, message",
    [
        ("labels_1_2", "labels must be 0 or 1"),
        ("labels_0_3", "labels must be 0 or 1"),
        ("labels_negative", "labels must be 0 or 1"),
        ("labels_short", "labels must align with feature rows"),
        ("labels_2d", "labels must align with feature rows"),
        ("features_1d", "features must be 2-D"),
    ],
)
def test_inner_search_rejects_bad_samples_on_both_paths(monkeypatch, classifier, fault, message):
    # checked before the classes are counted, with TrainSet's messages,
    # whichever path would score the folds
    rng = np.random.default_rng(645)
    features = rng.normal(size=(12, 2))
    labels = np.array([0] * 6 + [1] * 6)
    if fault == "labels_1_2":
        labels = labels + 1
    elif fault == "labels_0_3":
        labels = labels * 3
    elif fault == "labels_negative":
        labels = labels * 2 - 1
    elif fault == "labels_short":
        labels = labels[:-1]
    elif fault == "labels_2d":
        labels = labels[:, None]
    else:
        features = features[:, 0]
    compiled, python = _on_both_paths(
        monkeypatch, lambda: _raised(lambda: inner_search(features, labels, classifier, seed=1))
    )
    assert compiled == python == (ValueError, message)
    with pytest.raises(ValueError, match=message):
        classifiers.TrainSet(features, labels)


@needs_fold_search
@pytest.mark.parametrize("seed", [2**32 - 1, 2**32, 2**64 + 5])
def test_fold_search_takes_mlp_seeds_of_several_words(monkeypatch, seed):
    # the library hashes the seed's words with each fit's fold and position
    rng = np.random.default_rng(646)
    features = rng.normal(size=(12, 3))
    features[6:] += 0.7
    labels = np.array([0] * 6 + [1] * 6)
    folds = stratified_folds(labels, 6, seed)
    grid = _hyper_grid("mlp", 3)
    arguments = ("mlp", grid, features, labels, folds, 6, (seed,), True)
    assert crossval._compiled_counts(*arguments) is not None
    compiled, python = _on_both_paths(
        monkeypatch, lambda: crossval._fold_counts(*arguments).tolist()
    )
    assert compiled == python
    compiled, python = _on_both_paths(
        monkeypatch, lambda: inner_search(features, labels, "mlp", seed=seed)
    )
    assert compiled == python


@needs_fold_search
def test_held_out_search_takes_seed_parts_of_several_words(monkeypatch):
    # one-fold searches that predict each sample alone, their fits seeded
    # from (2**40, 3, 2, 1): five words of entropy. The classes overlap,
    # so that a fit's label depends on its starting weights.
    rng = np.random.default_rng(647)
    features = rng.normal(size=(12, 2))
    labels = np.array([0, 1] * 6)
    grid = _hyper_grid("mlp", 2)
    for held_out in range(12):
        alone = (np.arange(12) != held_out).astype(np.int64)
        arguments = ("mlp", grid, features, labels, alone, 1, (2**40, 3, 2, 1), False)
        assert crossval._compiled_counts(*arguments) is not None
        compiled, python = _on_both_paths(
            monkeypatch, lambda: crossval._fold_counts(*arguments).tolist()
        )
        assert compiled == python, held_out


# ---------------------------------------------------------------------------
# leave-one-out evaluation


def test_loocv_accuracy_is_multiple_of_one_over_n():
    dataset = planted_dataset(25, 4, 5, 6, 2.0, seed=603)
    n = dataset.n_samples
    for method in ("ttest", "roc"):
        accuracy = loocv_accuracy(dataset, method, "knn", k_genes=5, seed=0)
        assert 0.0 <= accuracy <= 1.0
        assert abs(accuracy * n - round(accuracy * n)) <= 1e-9


def test_loocv_perfect_on_strong_markers():
    dataset = planted_dataset(30, 5, 5, 5, 5.0, seed=604)
    accuracy = loocv_accuracy(dataset, "ttest", "knn", k_genes=5, seed=0)
    assert accuracy == 1.0


def test_loocv_deterministic_and_cache_transparent():
    dataset = planted_dataset(20, 3, 4, 4, 2.0, seed=605)
    base = loocv_accuracy(dataset, "wilcoxon", "knn", k_genes=4, seed=9)
    again = loocv_accuracy(dataset, "wilcoxon", "knn", k_genes=4, seed=9)
    assert base == again
    cache = {}
    cached = loocv_accuracy(
        dataset, "wilcoxon", "knn", k_genes=4, seed=9, _ranking_cache=cache
    )
    assert cached == base
    assert cache  # the fold rankings were stored
    cached_again = loocv_accuracy(
        dataset, "wilcoxon", "knn", k_genes=4, seed=9, _ranking_cache=cache
    )
    assert cached_again == base


def test_loocv_rank_scope_full_ranks_once(monkeypatch):
    dataset = planted_dataset(20, 3, 4, 4, 1.5, seed=606)
    calls = []
    rank_genes = crossval.rank_genes

    def counting(data, method):
        calls.append(data.n_samples)
        return rank_genes(data, method)

    monkeypatch.setattr(crossval, "rank_genes", counting)
    full = loocv_accuracy(dataset, "ttest", "knn", k_genes=3, rank_scope="full", seed=0)
    assert 0.0 <= full <= 1.0
    assert calls == [dataset.n_samples]
    # per-fold rankings are shared across gene counts: one per held-out sample
    calls.clear()
    sweep_gene_counts(dataset, "ttest", "knn", k_max=3, rank_scope="train", seed=0)
    assert calls == [dataset.n_samples - 1] * dataset.n_samples
    calls.clear()
    sweep_gene_counts(dataset, "ttest", "knn", k_max=3, rank_scope="full", seed=0)
    assert calls == [dataset.n_samples]


def test_loocv_final_fit_seed_per_held_out_sample(monkeypatch, python_folds):
    dataset = planted_dataset(6, 2, 4, 4, 1.0, seed=618)
    seeds = []
    mlp_grid_labels = crossval.mlp_grid_labels

    def recording(train, hidden_counts, queries, fit_seeds):
        seeds.extend(fit_seeds)
        return mlp_grid_labels(train, hidden_counts, queries, fit_seeds)

    monkeypatch.setattr(crossval, "mlp_grid_labels", recording)
    loocv_accuracy(dataset, "ttest", "mlp", k_genes=2, seed=4)
    # three inner folds times three candidates (1, 2, 4 hidden), then the final fit
    assert len(seeds) == 8 * (3 * 3 + 1)
    assert seeds[9::10] == [_child_seed(4, held_out, 2, 1) for held_out in range(8)]


def test_loocv_validates_arguments():
    dataset = planted_dataset(10, 2, 4, 4, 2.0, seed=607)
    with pytest.raises(ValueError, match="unknown method"):
        loocv_accuracy(dataset, "pca", "knn", 3)
    with pytest.raises(ValueError, match="unknown classifier"):
        loocv_accuracy(dataset, "ttest", "tree", 3)
    with pytest.raises(ValueError):
        loocv_accuracy(dataset, "ttest", "knn", 0)
    with pytest.raises(ValueError):
        loocv_accuracy(dataset, "ttest", "knn", 3, rank_scope="global")


def test_loocv_fgf_with_fixed_params_skips_search():
    dataset = planted_dataset(20, 5, 6, 6, 5.0, seed=608)
    accuracy = loocv_accuracy(
        dataset, "fgf", "knn", k_genes=5, fgf_params=default_params(), seed=0
    )
    assert accuracy == 1.0


def test_loocv_fgf_reoptimized_per_fold_runs():
    dataset = planted_dataset(15, 3, 4, 4, 3.0, seed=609)
    config = GaConfig(population_size=4, generations=2, top_n_genes=3, seed=0)
    accuracy = loocv_accuracy(
        dataset,
        "fgf",
        "knn",
        k_genes=3,
        reoptimize_fgf=True,
        ga_config=config,
        seed=0,
    )
    assert 0.0 <= accuracy <= 1.0


def test_loocv_reoptimize_fgf_rejects_contradictions(monkeypatch):
    # a full-scope ranking runs no per-fold search, and given anchors would
    # be dropped by it: both raise before any genetic search runs
    dataset = planted_dataset(15, 3, 4, 4, 3.0, seed=609)

    def no_search(*args, **kwargs):
        raise AssertionError("the genetic search ran")

    monkeypatch.setattr(crossval.gaopt, "optimize_fgf", no_search)
    with pytest.raises(ValueError, match="rank_scope='train'"):
        loocv_accuracy(dataset, "fgf", "knn", 3, rank_scope="full", reoptimize_fgf=True)
    with pytest.raises(ValueError, match="exclude each other"):
        loocv_accuracy(
            dataset, "fgf", "knn", 3, fgf_params=default_params(), reoptimize_fgf=True
        )
    with pytest.raises(ValueError, match="rank_scope='train'"):
        sweep_gene_counts(dataset, "fgf", "knn", 2, rank_scope="full", reoptimize_fgf=True)


def test_loocv_reoptimize_fgf_needs_method_fgf(monkeypatch):
    # another method's ranking never reads the tuned anchors
    dataset = planted_dataset(15, 3, 4, 4, 3.0, seed=609)

    def no_search(*args, **kwargs):
        raise AssertionError("the genetic search ran")

    monkeypatch.setattr(crossval.gaopt, "optimize_fgf", no_search)
    for method in ("ttest", "wilcoxon", "roc"):
        with pytest.raises(ValueError, match="method 'fgf'"):
            loocv_accuracy(dataset, method, "knn", 3, reoptimize_fgf=True)
        with pytest.raises(ValueError, match="method 'fgf'"):
            sweep_gene_counts(dataset, method, "knn", 2, reoptimize_fgf=True)


def test_loocv_fgf_params_needs_method_fgf():
    # another method's ranking never reads the anchors, so passing them
    # is a mistake to report rather than to ignore
    dataset = planted_dataset(15, 3, 4, 4, 3.0, seed=609)
    for method in ("ttest", "wilcoxon", "roc"):
        with pytest.raises(ValueError, match="fgf_params needs method 'fgf'"):
            loocv_accuracy(dataset, method, "knn", 3, fgf_params=default_params())
        with pytest.raises(ValueError, match="fgf_params needs method 'fgf'"):
            sweep_gene_counts(dataset, method, "knn", 2, fgf_params=default_params())


def test_sweep_fgf_without_anchors_searches_once_on_the_full_data(monkeypatch):
    # with neither anchors nor a per-fold search, one genetic search on
    # all samples picks the anchors every fold ranks by
    dataset = planted_dataset(15, 3, 4, 4, 3.0, seed=609)
    config = GaConfig(population_size=4, generations=1, seed=2)
    calls = []

    def recording(data, ga_config):
        calls.append((data, ga_config))
        return default_params(), None

    monkeypatch.setattr(crossval.gaopt, "optimize_fgf", recording)
    sweep_gene_counts(dataset, "fgf", "knn", 2, ga_config=config)
    assert len(calls) == 1
    assert calls[0][0] is dataset
    assert calls[0][1] is config


def test_rank_picks_the_ranker_by_method():
    dataset = planted_dataset(15, 3, 4, 4, 3.0, seed=610)
    params = default_params()
    fuzzy = crossval.rank(dataset, "fgf", params)
    expected = fgf_rank(dataset, params)
    assert fuzzy.method == "fgf"
    assert fuzzy.order.tobytes() == expected.order.tobytes()
    assert fuzzy.scores.tobytes() == expected.scores.tobytes()
    for method in ("ttest", "wilcoxon", "roc"):
        ranking = crossval.rank(dataset, method)
        expected = rank_genes(dataset, method)
        assert ranking.method == method
        assert ranking.order.tobytes() == expected.order.tobytes()
        assert ranking.scores.tobytes() == expected.scores.tobytes()
        with pytest.raises(ValueError, match="fgf_params needs method 'fgf'"):
            crossval.rank(dataset, method, params)
    with pytest.raises(ValueError, match="unknown method"):
        crossval.rank(dataset, "pca")


def test_loocv_each_classifier_runs():
    dataset = planted_dataset(16, 3, 5, 5, 4.0, seed=610)
    for classifier in CLASSIFIERS:
        accuracy = loocv_accuracy(dataset, "ttest", classifier, k_genes=3, seed=0)
        assert accuracy >= 0.8


# ---------------------------------------------------------------------------
# gene-count sweep


def test_sweep_covers_requested_counts_and_picks_smallest_best():
    dataset = planted_dataset(12, 3, 4, 4, 3.0, seed=611)
    result = sweep_gene_counts(dataset, "ttest", "knn", k_max=6, seed=0)
    assert sorted(result.accuracy_by_k) == [1, 2, 3, 4, 5, 6]
    best = max(result.accuracy_by_k.values())
    assert result.best_accuracy == best
    smallest = min(k for k, v in result.accuracy_by_k.items() if v == best)
    assert result.best_k == smallest
    assert result.method == "ttest"
    assert result.classifier == "knn"


def test_sweep_matches_individual_calls():
    dataset = planted_dataset(10, 2, 4, 4, 2.0, seed=612)
    result = sweep_gene_counts(dataset, "roc", "knn", k_max=4, seed=5)
    for k, accuracy in result.accuracy_by_k.items():
        alone = loocv_accuracy(dataset, "roc", "knn", k_genes=k, seed=5)
        assert alone == accuracy


def test_sweep_is_fold_major(monkeypatch):
    # each held-out sample is scored at every gene count before the next
    dataset = planted_dataset(8, 2, 4, 4, 2.0, seed=621)
    seeds = []
    search = crossval.inner_search

    def recording(features, labels, classifier, seed):
        seeds.append(seed)
        return search(features, labels, classifier, seed)

    monkeypatch.setattr(crossval, "inner_search", recording)
    sweep_gene_counts(dataset, "ttest", "knn", k_max=3, seed=7)
    n = dataset.n_samples
    assert seeds == [_child_seed(7, h, k) for h in range(n) for k in (1, 2, 3)]


def test_sweep_caps_k_max_at_gene_count():
    dataset = planted_dataset(5, 2, 4, 4, 2.0, seed=613)
    result = sweep_gene_counts(dataset, "ttest", "knn", k_max=50, seed=0)
    assert sorted(result.accuracy_by_k) == [1, 2, 3, 4, 5]


# Recorded from the implementation that rescaled every inner fold per
# candidate and summed naive Bayes densities with SciPy's logsumexp.
WEAK_SWEEP_GOLDEN = {
    "knn": ({1: 0.6, 2: 0.5, 3: 0.7}, 3),
    "svm": ({1: 0.6, 2: 0.4, 3: 0.6}, 1),
    "nbc": ({1: 0.5, 2: 0.6, 3: 0.6}, 2),
    "mlp": ({1: 0.6, 2: 0.5, 3: 0.7}, 3),
}


def test_sweep_golden_on_weak_effects():
    # a weak effect keeps every accuracy below 1, so each prediction counts
    dataset = planted_dataset(20, 3, 5, 5, 0.8, seed=620)
    for classifier in CLASSIFIERS:
        result = sweep_gene_counts(dataset, "ttest", classifier, k_max=3, seed=4)
        accuracy_by_k, best_k = WEAK_SWEEP_GOLDEN[classifier]
        assert result.accuracy_by_k == accuracy_by_k
        assert result.best_k == best_k


def test_save_sweep_format(tmp_path):
    dataset = planted_dataset(6, 2, 4, 4, 2.0, seed=614)
    result = sweep_gene_counts(dataset, "ttest", "knn", k_max=3, seed=0)
    path = tmp_path / "sweep.tsv"
    save_sweep(result, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k\taccuracy"
    assert len(lines) == 4
    for line, k in zip(lines[1:], (1, 2, 3)):
        cells = line.split("\t")
        assert int(cells[0]) == k
        assert float(cells[1]) == result.accuracy_by_k[k]


# ---------------------------------------------------------------------------
# one-way analysis of variance


def test_anova_matches_reference_implementation():
    rng = np.random.default_rng(615)
    for trial in range(100):
        n_groups = int(rng.integers(2, 6))
        groups = [
            rng.normal(rng.uniform(-1, 1), 1.0, int(rng.integers(3, 12)))
            for _ in range(n_groups)
        ]
        mine = anova_oneway(groups)
        ref = stats.f_oneway(*groups)
        assert mine.f_statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-10, abs=1e-15)
        assert mine.df_between == n_groups - 1
        assert mine.df_within == sum(len(g) for g in groups) - n_groups


def test_anova_known_value():
    groups = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [5.0, 6.0, 7.0]]
    mine = anova_oneway(groups)
    # SSB = 26 over 2 df and SSW = 6 over 6 df, so F is exactly 13;
    # scipy.stats.f_oneway misses it by an ulp under some OpenBLAS kernels
    assert mine.f_statistic == 13.0
    ref = stats.f_oneway(*groups)
    assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-13)


def test_anova_all_identical_is_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        anova_oneway([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])


def test_anova_zero_within_variance():
    result = anova_oneway([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    assert result.f_statistic == np.inf
    assert result.p_value == 0.0


def test_anova_validates_groups():
    with pytest.raises(ValueError):
        anova_oneway([[1.0, 2.0]])
    # two singleton groups leave no within-group degrees of freedom
    with pytest.raises(ValueError):
        anova_oneway([[1.0], [3.0]])
    with pytest.raises(ValueError):
        anova_oneway([[1.0, np.nan], [3.0, 4.0]])
