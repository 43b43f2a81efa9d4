"""Tests for the four from-scratch classifiers."""

import hashlib
import inspect
import math
import warnings

import numpy as np
import pytest
import scipy.special

from generank import _cbuild, classifiers, kernels
from generank.classifiers import (
    ConvergenceError,
    TrainSet,
    knn_classify,
    knn_grid_labels,
    mlp_grid_labels,
    mlp_loss_and_grad,
    mlp_predict,
    mlp_probabilities,
    mlp_train,
    nbc_grid_labels,
    nbc_predict,
    nbc_train,
    svm_grid_labels,
    svm_kkt_violation,
    svm_predict,
    svm_train,
)


def _separable(rng, n_per_class=12, dim=3, margin=2.0):
    a = rng.normal(-margin, 0.6, (n_per_class, dim))
    b = rng.normal(margin, 0.6, (n_per_class, dim))
    features = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return TrainSet(features, labels)


# ---------------------------------------------------------------------------
# training-set validation


def test_trainset_validation():
    with pytest.raises(ValueError):
        TrainSet(np.ones(4), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError):
        TrainSet(np.ones((4, 2)), np.array([0, 0, 1, 2]))
    with pytest.raises(ValueError):
        TrainSet(np.ones((4, 2)), np.array([0, 0, 0, 0]))
    with pytest.raises(ValueError):
        TrainSet(np.array([[np.inf, 1.0], [0.0, 1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        TrainSet(np.ones((4, 2)), np.array([0, 0, 1]))


def test_query_dimension_checked():
    train = TrainSet(np.ones((4, 3)), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError):
        knn_classify(train, np.ones(2), 1)


# ---------------------------------------------------------------------------
# k nearest neighbours


def test_knn_matches_brute_force_majority():
    # odd k on two classes: majority is unambiguous, so an independent
    # brute-force count must agree with the fast path
    rng = np.random.default_rng(500)
    for trial in range(100):
        n = int(rng.integers(6, 30))
        dim = int(rng.integers(1, 6))
        features = rng.normal(size=(n, dim))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        train = TrainSet(features, labels)
        query = rng.normal(size=dim)
        k = int(rng.choice([1, 3, 5]))
        k = min(k, n if n % 2 == 1 else n - 1)
        mine = knn_classify(train, query, k)
        dist = np.linalg.norm(features - query, axis=1)
        top = np.argsort(dist, kind="stable")[:k]
        expected = int(labels[top].sum() * 2 > k)
        assert mine == expected


def test_knn_single_neighbour():
    train = TrainSet(np.array([[0.0], [10.0]]), np.array([0, 1]))
    assert knn_classify(train, [2.0], 1) == 0
    assert knn_classify(train, [8.0], 1) == 1


def test_knn_split_vote_uses_summed_distance():
    train = TrainSet(np.array([[0.0], [1.0]]), np.array([0, 1]))
    assert knn_classify(train, [0.4], 2) == 0
    assert knn_classify(train, [0.6], 2) == 1


def test_knn_full_tie_goes_to_class_zero():
    # equal votes and equal summed distances, labels in both arrangements
    train = TrainSet(np.array([[0.0], [2.0]]), np.array([0, 1]))
    assert knn_classify(train, [1.0], 2) == 0
    flipped = TrainSet(np.array([[0.0], [2.0]]), np.array([1, 0]))
    assert knn_classify(flipped, [1.0], 2) == 0


def test_knn_distance_tie_prefers_earlier_row():
    # two training points at the same distance fight for the k=1 slot;
    # the stable sort keeps the earlier row
    train = TrainSet(np.array([[1.0], [-1.0], [5.0]]), np.array([1, 0, 0]))
    assert knn_classify(train, [0.0], 1) == 1


def test_knn_k_bounds():
    train = TrainSet(np.ones((4, 2)), np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError):
        knn_classify(train, np.ones(2), 0)
    with pytest.raises(ValueError):
        knn_classify(train, np.ones(2), 5)


def test_knn_k_must_be_a_whole_number_on_both_entry_points():
    train = _separable(np.random.default_rng(514), n_per_class=3, dim=2)
    queries = np.array([[0.1, -0.2], [2.0, 1.5]])
    for k in (2.5, math.nan, math.inf, 0.999):
        with pytest.raises(ValueError, match="k must be"):
            knn_classify(train, queries[0], k)
        with pytest.raises(ValueError, match="k must be"):
            knn_grid_labels(train, [1, k], queries)
    # a whole float is the same k as the int
    assert knn_classify(train, queries[0], 2.0) == knn_classify(train, queries[0], 2)
    np.testing.assert_array_equal(
        knn_grid_labels(train, [2.0, 3.0], queries), knn_grid_labels(train, [2, 3], queries)
    )


def test_empty_grids_give_no_rows():
    train = _separable(np.random.default_rng(515), n_per_class=3, dim=2)
    queries = np.zeros((4, 2))
    for grid_labels in (knn_grid_labels, svm_grid_labels, nbc_grid_labels):
        labels = grid_labels(train, [], queries)
        assert labels.shape == (0, 4) and labels.dtype == np.int64


# ---------------------------------------------------------------------------
# batched knn and nbc cores


def _core_cases():
    """Seeded (train, queries) pairs: class sizes of 1, under 8 and 8 to
    about 50; 1, 2, 9 and 50 features; each also rounded (distance ties
    and split votes) and with a constant first feature."""
    rng = np.random.default_rng(530)
    cases = []
    for d in (1, 2, 9, 50):
        for n0, n1 in ((1, 1), (1, 6), (5, 7), (8, 3), (12, 9), (23, 50)):
            features = rng.normal(size=(n0 + n1, d)) * rng.uniform(0.3, 4.0)
            labels = np.array([0] * n0 + [1] * n1)
            features[labels == 1] += rng.uniform(0.0, 1.5)
            order = rng.permutation(n0 + n1)
            features, labels = features[order], labels[order]
            queries = rng.normal(size=(6, d)) * rng.uniform(0.5, 8.0)
            constant = features.copy()
            constant[:, 0] = 2.0
            cases.append((TrainSet(features, labels), queries))
            cases.append((TrainSet(np.round(features), labels), np.round(queries)))
            cases.append((TrainSet(constant, labels), queries))
    return cases


def _knn_loop(train, query, k):
    """knn_classify as a loop over the neighbours; also returns whether
    the vote was split."""
    dist = np.sqrt(((train.features - query) ** 2).sum(axis=1))
    nearest = np.argsort(dist, kind="stable")[:k]
    votes = np.bincount(train.labels[nearest], minlength=2)
    if votes[1] != votes[0]:
        return int(votes[1] > votes[0]), False
    sums = np.zeros(2)
    for i in nearest:
        sums[train.labels[i]] += dist[i]
    return int(sums[1] < sums[0]), True


def test_knn_grid_labels_bit_identical_to_per_query_calls():
    splits = 0
    for train, queries in _core_cases():
        n = train.n_samples
        ks = sorted({k for k in (1, 2, 3, 4, 5, 7, 9, n // 2, n - 1, n) if 1 <= k <= n})
        grid = knn_grid_labels(train, ks, queries)
        assert grid.shape == (len(ks), len(queries))
        for g, k in enumerate(ks):
            for i, query in enumerate(queries):
                label, split = _knn_loop(train, query, k)
                assert grid[g, i] == knn_classify(train, query, k) == label
                splits += split
    assert splits > 100


def test_knn_grid_labels_validates():
    train = _separable(np.random.default_rng(531), n_per_class=3, dim=2)
    with pytest.raises(ValueError, match="k must be"):
        knn_grid_labels(train, [1, 7], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="features"):
        knn_grid_labels(train, [1], np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        knn_grid_labels(train, [1], np.array([[0.0, np.inf]]))


def _nbc_predict_loop(model, query):
    """nbc_predict with one kernel sum per class over a (samples, features)
    block, the sums' order as NumPy reduces that block."""
    log_joint = np.empty(2)
    for cls in (0, 1):
        V = model.class_values[cls]
        h = model.bandwidths[cls]
        z = (query[None, :] - V) / h[None, :]
        log_kde = classifiers._logsumexp(-0.5 * z * z, axis=0)
        log_kde -= math.log(V.shape[0]) + np.log(h * math.sqrt(2.0 * math.pi))
        log_joint[cls] = model.log_priors[cls] + float(log_kde.sum())
    posteriors = np.exp(log_joint - classifiers._logsumexp(log_joint))
    posteriors /= posteriors.sum()
    return int(posteriors[1] > posteriors[0]), posteriors


def test_nbc_grid_labels_bit_identical_to_per_query_calls(monkeypatch):
    fallbacks = []
    scipy_logsumexp = classifiers.logsumexp

    def counting(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return scipy_logsumexp(*args, **kwargs)

    monkeypatch.setattr(classifiers, "logsumexp", counting)
    multipliers = [1.0, 0.5, 0.25, 2.0, 4.0]
    cases = _core_cases()
    # a far query makes -0.5 * z * z infinite on its first feature, so that
    # batch takes the SciPy fallback
    far_train, far_queries = cases[7]
    far_queries = far_queries.copy()
    far_queries[2, 0] = 1e200
    cases.append((far_train, far_queries))
    # both classes' log joints are -inf for the far query: its posteriors
    # are the priors, with no warning, where the loop's are NaN
    far = (len(cases) - 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case, (train, queries) in enumerate(cases):
            labels = nbc_grid_labels(train, multipliers, queries)
            assert labels.shape == (len(multipliers), len(queries))
            fit = classifiers._nbc_fit(train, np.array(multipliers))
            posteriors = classifiers._nbc_posteriors(*fit, queries)
            for g, multiplier in enumerate(multipliers):
                model = nbc_train(train, multiplier)
                assert model.bandwidths.tobytes() == fit[1][g].tobytes()
                for i, query in enumerate(queries):
                    label, one = nbc_predict(model, query)
                    assert labels[g, i] == label
                    assert posteriors[g, i].tobytes() == one.tobytes()
                    if (case, i) == far:
                        assert not np.isnan(one).any() and one.sum() == 1.0
                        farther = nbc_predict(model, np.full_like(query, 1e300))[1]
                        assert one.tobytes() == farther.tobytes()
                        assert label == int(train.labels.mean() > 0.5)
                        continue
                    with np.errstate(over="ignore"):
                        loop_label, loop = _nbc_predict_loop(model, query)
                    assert label == loop_label
                    assert one.tobytes() == loop.tobytes()
    assert fallbacks


def test_nbc_grid_labels_validates():
    train = _separable(np.random.default_rng(532), n_per_class=3, dim=2)
    with pytest.raises(ValueError, match="positive"):
        nbc_grid_labels(train, [1.0, 0.0], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="features"):
        nbc_grid_labels(train, [1.0], np.zeros((1, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        nbc_grid_labels(train, [1.0], np.array([[np.nan, 0.0]]))


needs_library = pytest.mark.skipif(kernels.fold_search is None, reason="C library not loaded")


def _library_posteriors(train, multipliers, queries):
    """``(status, posteriors)`` of the library's ``nbc_posteriors``, the
    naive Bayes scorer of its fold search, for ``train`` fitted with each
    multiplier: status 0, or 1 where it leaves the queries to Python."""
    P, N = kernels._POINTER, kernels._COUNT
    posteriors_fn = kernels._declare(
        kernels._LIB, "nbc_posteriors", P, P, N, N, P, N, P, N, type(kernels._apply_ufunc), P
    )
    features = np.ascontiguousarray(train.features)
    labels = np.ascontiguousarray(train.labels, dtype=np.int64)
    grid = np.asarray(multipliers, dtype=np.float64)
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    posteriors = np.empty((len(grid), len(queries), 2))
    status = posteriors_fn(
        features.ctypes.data, labels.ctypes.data, *features.shape, grid.ctypes.data, len(grid),
        queries.ctypes.data, len(queries), kernels._apply_ufunc, posteriors.ctypes.data,
    )
    return status, posteriors


@needs_library
def test_library_nbc_posteriors_are_the_python_posteriors_bit_for_bit():
    # the core cases, then seeded blocks: classes of 1 to 19 rows, 1 to 130
    # features, across the thresholds 8 and 128 of the pairwise sum over
    # features, scales from 1e-3 to 1e3, rounded values with signed zeros,
    # constant columns and test folds of no row
    cases = [(train, queries, [1.0, 0.5, 2.0, 0.25, 4.0]) for train, queries in _core_cases()]
    rng = np.random.default_rng(533)
    for trial in range(400):
        n0, n1 = (int(v) for v in rng.integers(1, 20, 2))
        d = int(rng.choice([1, 2, 7, 8, 9, 17, 130]))
        features = rng.normal(size=(n0 + n1, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if trial % 4 == 1:
            features = np.round(features, 0)
            features[::3] *= -0.0
        elif trial % 4 == 2:
            features[:, 0] = 1.5
        labels = rng.permutation(np.array([0] * n0 + [1] * n1))
        queries = rng.normal(size=(int(rng.integers(0, 4)), d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        multipliers = rng.uniform(0.1, 5.0, int(rng.integers(1, 6)))
        cases.append((TrainSet(features, labels), queries, multipliers))
    for case, (train, queries, multipliers) in enumerate(cases):
        status, posteriors = _library_posteriors(train, multipliers, queries)
        fit = classifiers._nbc_fit(train, np.asarray(multipliers))
        assert status == 0, f"case {case}"
        assert posteriors.tobytes() == classifiers._nbc_posteriors(*fit, queries).tobytes(), (
            f"case {case}"
        )


@needs_library
def test_library_nbc_posteriors_leave_far_queries_to_python(monkeypatch):
    # A query 1.4e154 of class 0's bandwidths out on both features makes
    # each of class 0's kernel terms about -1e308: its kernel sums are
    # finite and its two features sum to -inf. With class 1 spread twice as
    # wide, class 1's log joint stays finite, and both paths score the
    # query alike; with class 1 spread as wide, both log joints are -inf,
    # where Python takes the priors. At 1e200 the kernel terms are -inf,
    # where _logsumexp takes SciPy's. The library leaves the last two to
    # Python.
    fallbacks = []
    scipy_logsumexp = classifiers.logsumexp

    def counting(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return scipy_logsumexp(*args, **kwargs)

    monkeypatch.setattr(classifiers, "logsumexp", counting)
    base = np.random.default_rng(534).normal(size=(5, 2))
    labels = np.array([0] * 5 + [1] * 5)
    for spread in (2.0, 1.0):
        train = TrainSet(np.vstack([base, spread * base + 1.0]), labels)
        fit = classifiers._nbc_fit(train, np.array([1.0]))
        queries = np.array([[0.5, 0.25], 1.4e154 * fit[1][0, 0]])
        status, posteriors = _library_posteriors(train, [1.0], queries)
        with np.errstate(over="ignore"):
            expected = classifiers._nbc_posteriors(*fit, queries)
        assert not fallbacks
        if spread == 2.0:
            assert status == 0
            assert posteriors.tobytes() == expected.tobytes()
            assert expected[0, 1].tolist() == [0.0, 1.0]
        else:
            assert status == 1
            assert expected[0, 1].tolist() == [0.5, 0.5]
    far = np.array([[0.5, 0.25], [1e200, 0.0]])
    with np.errstate(over="ignore"):
        expected = classifiers._nbc_posteriors(*fit, far)
    assert fallbacks and expected[0, 1].tolist() == [0.5, 0.5]
    assert _library_posteriors(train, [1.0], far)[0] == 1
    # a multiplier of 5e-324 underflows the bandwidth of a constant column
    # to 0, whose log NumPy warns about: left to Python with no query too
    constant = TrainSet(np.column_stack([base[:, 0], np.ones(5)]).repeat(2, axis=0), labels)
    fit = classifiers._nbc_fit(constant, np.array([5e-324]))
    assert fit[1][0, 0, 1] == 0.0
    with pytest.warns(RuntimeWarning, match="divide by zero encountered in log"):
        classifiers._nbc_posteriors(*fit, np.empty((0, 2)))
    assert _library_posteriors(constant, [5e-324], np.empty((0, 2)))[0] == 1


# ---------------------------------------------------------------------------
# linear SVM


def test_svm_two_point_textbook_case():
    train = TrainSet(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    model = svm_train(train, c=10.0)
    assert model.weights[0] == pytest.approx(1.0, abs=1e-9)
    assert model.bias == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(model.dual_coefficients, [0.5, 0.5], atol=1e-9)
    assert svm_predict(model, [0.3]) == 1
    assert svm_predict(model, [-0.3]) == 0


def test_svm_dual_feasibility_and_kkt_on_random_separable_sets():
    rng = np.random.default_rng(501)
    for trial in range(10):
        train = _separable(rng, n_per_class=int(rng.integers(5, 15)))
        c = float(rng.choice([0.1, 1.0, 10.0]))
        model = svm_train(train, c)
        alpha = model.dual_coefficients
        y = np.where(train.labels == 1, 1.0, -1.0)
        assert (alpha >= -1e-12).all()
        assert (alpha <= c + 1e-12).all()
        assert abs(float(alpha @ y)) <= 1e-9
        assert svm_kkt_violation(model, train) < 1e-3
        correct = sum(
            svm_predict(model, x) == lab
            for x, lab in zip(train.features, train.labels)
        )
        assert correct == train.n_samples


def test_svm_support_indices_match_positive_alphas():
    rng = np.random.default_rng(502)
    train = _separable(rng)
    model = svm_train(train, 1.0)
    expected = np.flatnonzero(model.dual_coefficients > 1e-8)
    np.testing.assert_array_equal(model.support_indices, expected)


def test_svm_bounded_alphas_use_midpoint_bias():
    # c small enough that every support vector saturates: the bias must
    # come from the midpoint rule yet still separate the classes
    train = TrainSet(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    model = svm_train(train, c=0.01)
    assert model.dual_coefficients[0] == pytest.approx(0.01, abs=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert svm_predict(model, [0.5]) == 1
    assert svm_predict(model, [-0.5]) == 0


def test_svm_overlapping_classes_still_converge():
    rng = np.random.default_rng(503)
    features = rng.normal(0.0, 1.0, (30, 2))
    labels = (features[:, 0] + rng.normal(0.0, 1.5, 30) > 0).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    train = TrainSet(features, labels)
    model = svm_train(train, 1.0)
    assert svm_kkt_violation(model, train) < 1e-3


def test_svm_convergence_budget_raises(monkeypatch):
    monkeypatch.setattr(classifiers, "_SVM_MAX_ITER", 0)
    train = TrainSet(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ConvergenceError, match="violation gap"):
        svm_train(train, 1.0)


def test_svm_rejects_nonpositive_c():
    train = TrainSet(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        svm_train(train, 0.0)


needs_compiled = pytest.mark.skipif(
    not _cbuild.compiler_present() and _cbuild.find_library() is None,
    reason="no C compiler on PATH and no built C library",
)


def _svm_problem(rng):
    """(X, y, cs, queries, budget) of a random grid of duals, with rounded
    ties, one-class label sets (an empty I_up or I_low), small budgets and
    overflowing Gram matrices among them."""
    n = int(rng.integers(2, 60))
    d = int(rng.integers(1, 12))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1.5, 1.0)
    if rng.random() < 0.3:
        X = np.round(X, 1)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if rng.random() < 0.05:
        y[:] = rng.choice([-1.0, 1.0])
    budget = 1_000
    if rng.random() < 0.3:
        budget = int(rng.integers(0, 30))
    if rng.random() < 0.05:
        X = X * 1e200
        budget = int(rng.integers(0, 200))
    cs = 10.0 ** rng.uniform(-2.0, 2.0, int(rng.integers(1, 4)))
    queries = rng.normal(size=(int(rng.integers(0, 4)), d)) * 3.0
    return X, y, cs, queries, budget


def _run_grid(grid, X, y, cs, queries, budget):
    return grid(
        X, y, cs, queries, budget, classifiers._SVM_STOP_TOL, classifiers._SVM_SV_TOL
    )


def _same_bits(a, b):
    return all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(a, b))


def _loop(name):
    """A solver by name: a compiled one (``svm_grid_solve``,
    ``mlp_grid_solve``) or its Python oracle (``_svm_grid_loop``,
    ``_mlp_grid_loop``)."""
    return getattr(kernels if name.endswith("_solve") else classifiers, name)


both_loops = pytest.mark.parametrize(
    "loop", [pytest.param("svm_grid_solve", marks=needs_compiled), "_svm_grid_loop"]
)


@needs_compiled
def test_smo_compiled_loop_bit_identical_to_python_loop():
    assert classifiers._SVM_GRID is kernels.svm_grid_solve
    rng = np.random.default_rng(510)
    seen = {"exhausted": 0, "one_class": 0, "nan": 0}
    for trial in range(400):
        problem = _svm_problem(rng)
        expected = _run_grid(classifiers._svm_grid_loop, *problem)
        got = _run_grid(kernels.svm_grid_solve, *problem)
        # alpha, weights, bias, gaps, updates, decisions
        assert [part.shape for part in got] == [part.shape for part in expected]
        updates = expected[4]
        assert got[4].tobytes() == updates.tobytes(), f"trial {trial}"
        if (updates == classifiers._SVM_OVERFLOWED).any():
            # an overflowed result: which NaN an operation returns follows
            # the compiler's operand order, but the updates, the NaN
            # positions and the other values do not
            for part, want in zip(got[:4] + got[5:], expected[:4] + expected[5:]):
                mask = np.isnan(want)
                np.testing.assert_array_equal(np.isnan(part), mask, f"trial {trial}")
                assert _same_bits([np.where(mask, 0.0, part)], [np.where(mask, 0.0, want)])
            seen["nan"] += 1
        else:
            assert _same_bits(got, expected), f"trial {trial} diverged"
        seen["exhausted"] += bool((updates == -1).any())
        seen["one_class"] += abs(problem[1].sum()) == len(problem[1])
    assert min(seen.values()) >= 5, seen


@needs_compiled
def test_svm_grid_solve_checks_shapes_before_calling_c():
    X, y, cs, queries = np.ones((4, 2)), np.array([-1.0, 1.0, -1.0, 1.0]), [1.0], np.ones((1, 2))
    for args in (
        (X[0], y, cs, queries, 10),
        (X, y[:3], cs, queries, 10),
        (X, y, [cs], queries, 10),
        (X, y, cs, queries[0], 10),
        (X, y, cs, np.ones((1, 3)), 10),
    ):
        with pytest.raises(ValueError):
            kernels.svm_grid_solve(*args, 1e-3, 1e-8)


@needs_compiled
def test_svm_train_same_model_on_both_loops(monkeypatch):
    rng = np.random.default_rng(511)
    trains = [_separable(rng, dim=2, margin=0.5) for _ in range(20)]
    models = []
    for loop in (kernels.svm_grid_solve, classifiers._svm_grid_loop):
        monkeypatch.setattr(classifiers, "_SVM_GRID", loop)
        models.append([svm_train(train, 1.0) for train in trains])
    for compiled, python in zip(*models):
        assert compiled.updates == python.updates > 0
        for field in ("weights", "bias", "dual_coefficients", "support_indices", "kkt_gap"):
            assert _same_bits([getattr(compiled, field)], [getattr(python, field)]), field


def test_svm_model_bits_are_the_same_on_every_host():
    """SHA-256 of the weights, bias, duals, update count and final gap of
    three seeded fits.

    The Gram matrix, the weights and the bias are summed left to right on
    both paths, compiled and Python, so these hashes hold with and without
    the compiled library, on every OpenBLAS kernel and with NumPy's SIMD
    code paths turned off.
    """
    fits = [
        # (data seed, per class, features, margin, C)
        (551, 12, 3, 0.3, 1.0),
        (552, 20, 8, 0.1, 10.0),
        (553, 35, 40, 0.05, 0.1),
    ]
    digests = []
    for data_seed, per_class, dim, margin, c in fits:
        train = _separable(np.random.default_rng(data_seed), per_class, dim, margin)
        model = svm_train(train, c)
        digest = hashlib.sha256()
        for part in (model.weights, [model.bias], model.dual_coefficients, [model.kkt_gap]):
            digest.update(np.asarray(part, dtype=np.float64).tobytes())
        digest.update(np.int64(model.updates).tobytes())
        digests.append(digest.hexdigest())
    assert digests == [
        "ac09e12cb4dfbc5870dbebcdbcf83206f1212b808452c51c9053e98ac4358389",
        "4166bb211663d2aa04e5d59daa54e961ad9d0dc0eafc4898b8de7ca712a02855",
        "8e4b9148a1af3b77ee8815ff87c9ed19c47b9cb2275d9a86aed01b492b36b80f",
    ]


@both_loops
def test_svm_grid_labels_bit_identical_to_per_candidate_fits(monkeypatch, loop):
    monkeypatch.setattr(classifiers, "_SVM_GRID", _loop(loop))
    cs = [0.01, 0.1, 1.0, 10.0, 100.0]
    for train, queries in _core_cases()[::3]:
        labels = svm_grid_labels(train, cs, queries)
        assert labels.shape == (len(cs), len(queries))
        for g, c in enumerate(cs):
            model = svm_train(train, c)
            assert labels[g].tolist() == [svm_predict(model, q) for q in queries]


def test_svm_grid_labels_validates():
    train = _separable(np.random.default_rng(533), n_per_class=3, dim=2)
    with pytest.raises(ValueError, match="positive"):
        svm_grid_labels(train, [1.0, 0.0], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="features"):
        svm_grid_labels(train, [1.0], np.zeros((1, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        svm_grid_labels(train, [1.0], np.array([[np.nan, 0.0]]))


@both_loops
def test_svm_grid_labels_raises_for_the_first_failing_bound(monkeypatch, loop):
    monkeypatch.setattr(classifiers, "_SVM_GRID", _loop(loop))
    train = _separable(np.random.default_rng(534), dim=2, margin=0.2)
    cs = [0.01, 1.0, 100.0]
    updates = [svm_train(train, c).updates for c in cs]
    assert updates[0] < updates[1] and updates[2] > updates[1]
    # a budget that the first bound's fit meets and the others do not
    monkeypatch.setattr(classifiers, "_SVM_MAX_ITER", updates[0] + 1)
    with pytest.raises(ConvergenceError, match="stalled") as caught:
        svm_grid_labels(train, cs, train.features)
    assert caught.value.candidate == 1
    with pytest.raises(ConvergenceError) as single:
        svm_train(train, cs[1])
    assert single.value.candidate == 0
    assert str(single.value) == str(caught.value)


@both_loops
def test_svm_budget_read_at_call_time(monkeypatch, loop):
    monkeypatch.setattr(classifiers, "_SVM_GRID", _loop(loop))
    train = _separable(np.random.default_rng(512), dim=2, margin=0.5)
    free = svm_train(train, 1.0)
    updates = free.updates
    assert updates > 1
    # the budget counts updates: one short of the fit's count stalls it
    monkeypatch.setattr(classifiers, "_SVM_MAX_ITER", updates - 1)
    with pytest.raises(ConvergenceError, match=f"after {updates - 1} updates"):
        svm_train(train, 1.0)
    monkeypatch.setattr(classifiers, "_SVM_MAX_ITER", updates + 1)
    assert svm_train(train, 1.0).updates == updates


@both_loops
def test_svm_fit_converging_on_its_last_allowed_update_converged(monkeypatch, loop):
    # a budget of exactly the fit's update count: the gap after the last
    # update is below tol, so the fit converged, with the bits of a fit
    # under the full budget
    monkeypatch.setattr(classifiers, "_SVM_GRID", _loop(loop))
    rng = np.random.default_rng(515)
    budget = classifiers._SVM_MAX_ITER
    for _ in range(5):
        train = _separable(rng, dim=3, margin=0.3)
        monkeypatch.setattr(classifiers, "_SVM_MAX_ITER", budget)
        free = svm_train(train, 1.0)
        assert free.kkt_gap < classifiers._SVM_STOP_TOL
        monkeypatch.setattr(classifiers, "_SVM_MAX_ITER", free.updates)
        exact = svm_train(train, 1.0)
        assert exact.updates == free.updates
        for field in ("weights", "bias", "dual_coefficients", "kkt_gap"):
            assert _same_bits([getattr(exact, field)], [getattr(free, field)]), field


@both_loops
def test_svm_overflowing_features_raise(monkeypatch, loop):
    # finite features whose Gram matrix overflows: the duals turn NaN,
    # and no model may come back from them
    monkeypatch.setattr(classifiers, "_SVM_GRID", _loop(loop))
    rng = np.random.default_rng(513)
    for _ in range(6):
        small = _separable(rng, n_per_class=6)
        train = TrainSet(small.features * 1e200, small.labels)
        # the error alone reports the overflow: no NumPy warning escapes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError, match="overflow"):
                svm_train(train, 1.0)
            with pytest.raises(ConvergenceError, match="overflow"):
                svm_grid_labels(train, [0.1, 1.0], small.features[:2])
            y = np.where(train.labels == 1, 1.0, -1.0)
            updates = _run_grid(
                _loop(loop), train.features, y, np.array([0.1, 1.0]), small.features[:2],
                classifiers._SVM_MAX_ITER,
            )[4]
        assert caught == []
        assert updates.tolist() == [classifiers._SVM_OVERFLOWED] * 2


def test_svm_stalled_fit_reports_the_gap_of_its_final_duals(monkeypatch):
    # the Python loop's scans, recorded, give each fit's final duals and
    # gradient: a stalled fit's gap is the one they leave, not the one
    # before its last update, on each loop that is loaded
    loops = [g for g in (kernels.svm_grid_solve, classifiers._svm_grid_loop) if g]
    scans = []
    violating_sets = classifiers._violating_sets

    def recorded(y, alpha, c, grad):
        scans.append((alpha.copy(), grad.copy()))
        return violating_sets(y, alpha, c, grad)

    monkeypatch.setattr(classifiers, "_violating_sets", recorded)
    rng = np.random.default_rng(514)
    stalled = 0
    for _ in range(40):
        n, d = int(rng.integers(4, 30)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        cs = np.array([10.0 ** rng.uniform(-1.0, 2.0)])
        budget = int(rng.integers(0, 25))
        fits = [_run_grid(loop, X, y, cs, X[:0], budget) for loop in loops]
        scans.clear()
        _run_grid(classifiers._svm_grid_loop, X, y, cs, X[:0], budget)
        if fits[-1][4][0] != -1:
            continue
        assert len(scans) == budget + 1
        final_alpha, final_grad = scans[-1]
        f_up, f_low = violating_sets(y, final_alpha, cs[0], final_grad)
        for alpha, _, _, gaps, updates, _ in fits:
            assert updates[0] == -1
            assert alpha[0].tobytes() == final_alpha.tobytes()
            assert gaps[0] == f_up.max() - f_low.min()
        stalled += 1
    assert stalled >= 10


# ---------------------------------------------------------------------------
# kernel-density naive Bayes


def test_nbc_posteriors_sum_to_one():
    rng = np.random.default_rng(504)
    for trial in range(50):
        train = _separable(rng, n_per_class=int(rng.integers(3, 10)), dim=4)
        model = nbc_train(train, float(rng.choice([0.5, 1.0, 2.0])))
        _, posteriors = nbc_predict(model, rng.normal(size=4))
        assert posteriors.shape == (2,)
        assert (posteriors >= 0.0).all()
        assert abs(posteriors.sum() - 1.0) <= 1e-12


def test_nbc_symmetric_case_is_exactly_half():
    train = TrainSet(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    model = nbc_train(train)
    label, posteriors = nbc_predict(model, [0.0])
    assert posteriors[0] == 0.5
    assert posteriors[1] == 0.5
    assert label == 0  # exact tie resolves to class 0


def test_nbc_silverman_bandwidth_value():
    rng = np.random.default_rng(505)
    a = rng.normal(0.0, 2.0, (8, 1))
    b = rng.normal(5.0, 1.0, (6, 1))
    train = TrainSet(np.vstack([a, b]), np.array([0] * 8 + [1] * 6))
    model = nbc_train(train)
    sigma_a = a.std(ddof=1)
    assert model.bandwidths[0, 0] == pytest.approx(
        1.06 * sigma_a * 8 ** (-0.2), rel=1e-12
    )
    doubled = nbc_train(train, bandwidth_multiplier=2.0)
    np.testing.assert_allclose(doubled.bandwidths, 2.0 * model.bandwidths, rtol=1e-15)


def test_nbc_matches_direct_density_computation():
    rng = np.random.default_rng(506)
    for trial in range(20):
        train = _separable(rng, n_per_class=6, dim=3, margin=1.0)
        model = nbc_train(train)
        query = rng.normal(size=3)
        label, posteriors = nbc_predict(model, query)

        joint = np.empty(2)
        for cls in (0, 1):
            V = train.features[train.labels == cls]
            n_c = len(V)
            like = 1.0
            for j in range(3):
                h = model.bandwidths[cls, j]
                dens = np.exp(-0.5 * ((query[j] - V[:, j]) / h) ** 2)
                like *= dens.sum() / (n_c * h * math.sqrt(2.0 * math.pi))
            joint[cls] = like * n_c / train.n_samples
        expected = joint / joint.sum()
        np.testing.assert_allclose(posteriors, expected, rtol=1e-10)
        assert label == int(expected[1] > expected[0])


def test_nbc_priors_reflect_class_sizes():
    rng = np.random.default_rng(507)
    features = rng.normal(size=(10, 2))
    labels = np.array([0] * 7 + [1] * 3)
    model = nbc_train(TrainSet(features, labels))
    np.testing.assert_allclose(np.exp(model.log_priors), [0.7, 0.3], rtol=1e-12)


def test_nbc_constant_feature_stays_finite():
    features = np.column_stack([np.ones(8), np.arange(8.0)])
    labels = np.array([0] * 4 + [1] * 4)
    model = nbc_train(TrainSet(features, labels))
    label, posteriors = nbc_predict(model, [1.0, 3.2])
    assert np.isfinite(posteriors).all()
    assert label in (0, 1)


def _scipy_separates_maxima():
    """Whether the installed SciPy's logsumexp takes the maxima out of the sum.

    ``classifiers._logsumexp`` repeats that form; older releases sum
    ``exp(a - max)`` directly and differ from it in the last bits.
    """
    try:
        import scipy.special._logsumexp as module

        return "log1p" in inspect.getsource(module)
    except (ImportError, OSError, TypeError):
        return False


needs_separated_logsumexp = pytest.mark.skipif(
    not _scipy_separates_maxima(),
    reason="installed SciPy's logsumexp predates the max-separated form",
)


def _logsumexp_cases():
    rng = np.random.default_rng(520)
    cases = [
        (rng.normal(size=7), None),
        (rng.normal(size=(9, 4)) * 30.0, 0),
        (rng.normal(size=(3, 5)), 1),
        (np.array([1.5, 1.5, -2.0, 1.5]), None),  # tied maxima
        (np.array([[0.25, 0.25], [0.25, -1.0], [-3.0, 0.25]]), 0),
        (rng.normal(size=(1, 6)), 0),  # one row
        (np.array([-4.0]), None),  # one element
        (np.array([[2.5]]), 0),
        (-0.5 * rng.normal(size=(8, 2)) ** 2, 0),  # the shape nbc_predict sums
    ]
    for _ in range(40):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        cases.append((-0.5 * (rng.normal(size=(n, d)) * rng.uniform(0.1, 40.0)) ** 2, 0))
    return cases


@needs_separated_logsumexp
def test_logsumexp_bit_identical_to_scipy():
    for a, axis in _logsumexp_cases():
        mine = np.asarray(classifiers._logsumexp(a, axis=axis))
        ref = np.asarray(scipy.special.logsumexp(a, axis=axis))
        assert mine.shape == ref.shape
        assert mine.tobytes() == ref.tobytes()


def test_logsumexp_golden_values():
    lse = classifiers._logsumexp
    assert float(lse(np.zeros(2))).hex() == "0x1.62e42fefa39efp-1"
    assert [float(v).hex() for v in lse(np.array([[0.0, 1.0], [0.0, 1.0]]), axis=0)] == [
        "0x1.62e42fefa39efp-1",
        "0x1.b17217f7d1cf8p+0",
    ]
    assert float(lse(np.array([0.0, math.log(0.5)]))).hex() == "0x1.9f323ecbf984cp-2"
    assert float(lse(np.array([2.0, 2.0, 2.0]))).hex() == "0x1.8c9f53d568186p+1"
    single = lse(np.array([[-3.0]]), axis=0)
    assert single.shape == (1,) and single[0] == -3.0
    assert np.ndim(lse(np.array([1.0, 2.0]))) == 0


def test_logsumexp_non_finite_defers_to_scipy():
    cases = [
        np.array([-np.inf, -np.inf]),
        np.array([np.inf, 1.0]),
        np.array([np.nan, 1.0]),
        np.array([[-np.inf, 0.0], [-np.inf, 1.0]]),
    ]
    with np.errstate(all="ignore"):
        for a in cases:
            mine = np.asarray(classifiers._logsumexp(a, axis=0))
            ref = np.asarray(scipy.special.logsumexp(a, axis=0))
            assert mine.tobytes() == ref.tobytes()


def _scipy_nbc_predict(model, query):
    """nbc_predict as it was when it called scipy.special.logsumexp."""
    q = np.asarray(query, dtype=np.float64)
    log_joint = np.empty(2)
    for cls in (0, 1):
        V = model.class_values[cls]
        h = model.bandwidths[cls]
        z = (q[None, :] - V) / h[None, :]
        log_kde = scipy.special.logsumexp(-0.5 * z * z, axis=0)
        log_kde -= math.log(V.shape[0]) + np.log(h * math.sqrt(2.0 * math.pi))
        log_joint[cls] = model.log_priors[cls] + float(log_kde.sum())
    posteriors = np.exp(log_joint - scipy.special.logsumexp(log_joint))
    posteriors /= posteriors.sum()
    return int(posteriors[1] > posteriors[0]), posteriors


@needs_separated_logsumexp
def test_nbc_predict_bit_identical_to_scipy_logsumexp():
    rng = np.random.default_rng(521)
    for trial in range(60):
        n0, n1 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        dim = int(rng.integers(1, 4))
        features = rng.normal(size=(n0 + n1, dim))
        features[n0:] += rng.uniform(0.0, 2.0)
        if trial % 5 == 0:
            features[:, 0] = 1.0  # constant feature: floored bandwidth
        train = TrainSet(features, np.array([0] * n0 + [1] * n1))
        model = nbc_train(train, float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0])))
        for query in rng.normal(size=(5, dim)) * rng.uniform(0.5, 20.0):
            label, posteriors = nbc_predict(model, query)
            ref_label, ref_posteriors = _scipy_nbc_predict(model, query)
            assert label == ref_label
            assert posteriors.tobytes() == ref_posteriors.tobytes()


def test_nbc_rejects_nonpositive_multiplier():
    train = TrainSet(np.ones((4, 1)) * np.arange(4)[:, None], np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError):
        nbc_train(train, 0.0)


# ---------------------------------------------------------------------------
# multilayer perceptron


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(508)
    d, h, n = 4, 3, 12
    features = rng.normal(size=(n, d))
    targets = rng.integers(0, 2, n).astype(np.float64)
    n_params = d * h + h + h + 1
    vec = rng.normal(0.0, 0.5, n_params)
    _, grad = mlp_loss_and_grad(vec, features, targets, h, ridge=0.01)

    eps = 1e-6
    worst = 0.0
    for i in range(n_params):
        probe = vec.copy()
        probe[i] += eps
        up, _ = mlp_loss_and_grad(probe, features, targets, h, ridge=0.01)
        probe[i] -= 2.0 * eps
        down, _ = mlp_loss_and_grad(probe, features, targets, h, ridge=0.01)
        numeric = (up - down) / (2.0 * eps)
        denom = max(abs(numeric), abs(grad[i]), 1e-8)
        worst = max(worst, abs(numeric - grad[i]) / denom)
    assert worst < 1e-6


def test_mlp_ridge_term_excludes_biases():
    rng = np.random.default_rng(509)
    d, h, n = 3, 2, 8
    features = rng.normal(size=(n, d))
    targets = rng.integers(0, 2, n).astype(np.float64)
    n_params = d * h + h + h + 1
    vec = rng.normal(size=n_params)
    loss_a, _ = mlp_loss_and_grad(vec, features, targets, h, ridge=0.0)
    loss_b, _ = mlp_loss_and_grad(vec, features, targets, h, ridge=0.4)
    w1 = vec[: d * h]
    w2 = vec[d * h + h : d * h + h + h]
    penalty = 0.5 * 0.4 * (float(w1 @ w1) + float(w2 @ w2))
    assert loss_b - loss_a == pytest.approx(penalty, rel=1e-12)


def test_mlp_trains_separable_data():
    rng = np.random.default_rng(510)
    train = _separable(rng, n_per_class=10, dim=2)
    model = mlp_train(train, hidden_count=3, ridge=0.001, seed=0)
    correct = 0
    for x, lab in zip(train.features, train.labels):
        label, prob = mlp_predict(model, x)
        assert 0.0 <= prob <= 1.0
        correct += label == lab
    assert correct == train.n_samples


def test_mlp_loss_trace_non_increasing():
    rng = np.random.default_rng(511)
    train = _separable(rng, n_per_class=8, dim=3)
    model = mlp_train(train, hidden_count=4, seed=1)
    trace = np.asarray(model.loss_trace)
    assert len(trace) >= 2
    assert len(trace) <= classifiers._MLP_MAX_ITER + 1
    assert (np.diff(trace) <= 1e-12).all()


def test_mlp_deterministic_per_seed():
    rng = np.random.default_rng(512)
    train = _separable(rng, n_per_class=6, dim=2)
    model_a = mlp_train(train, hidden_count=3, seed=7)
    model_b = mlp_train(train, hidden_count=3, seed=7)
    np.testing.assert_array_equal(model_a.w1, model_b.w1)
    np.testing.assert_array_equal(model_a.w2, model_b.w2)
    assert model_a.loss_trace == model_b.loss_trace
    model_c = mlp_train(train, hidden_count=3, seed=8)
    assert model_a.loss_trace != model_c.loss_trace


def test_mlp_rejects_bad_shape_arguments():
    train = TrainSet(np.array([[-1.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        mlp_train(train, hidden_count=0)
    with pytest.raises(ValueError):
        mlp_train(train, hidden_count=2, ridge=-0.1)
    model = mlp_train(train, hidden_count=2)
    with pytest.raises(ValueError):
        mlp_predict(model, np.ones(3))


def test_mlp_probabilities_bit_identical_to_per_query_calls(monkeypatch):
    # a short budget keeps the fits cheap without a compiler; the
    # property does not depend on how far a fit trained
    monkeypatch.setattr(classifiers, "_MLP_MAX_ITER", 10)
    rng = np.random.default_rng(545)
    rows = 0
    for fit in range(300):
        d = fit % 50 + 1
        h = int(rng.choice([1, math.ceil(d / 2), d, 2 * d]))
        n0, n1 = (int(n) for n in rng.integers(3, 9, 2))
        features = rng.normal(size=(n0 + n1, d))
        features[n0:] += rng.uniform(0.0, 1.5)
        train = TrainSet(features, np.array([0] * n0 + [1] * n1))
        model = mlp_train(train, h, seed=fit)
        # blocks of 0, 1 and many rows, some far enough out to saturate
        size = (0, 1, int(rng.integers(2, 40)))[fit % 3]
        queries = rng.normal(size=(size, d)) * rng.choice([1.0, 3.0, 30.0])
        probabilities = mlp_probabilities(model, queries)
        assert probabilities.shape == (size,)
        for query, probability in zip(queries, probabilities):
            label, prob = mlp_predict(model, query)
            assert np.float64(prob).tobytes() == probability.tobytes()
            assert label == int(probability > 0.5)
        # within round-off of the network evaluated by BLAS
        hidden = scipy.special.expit(queries @ model.w1 + model.b1)
        expected = scipy.special.expit(hidden @ model.w2 + model.b2)
        np.testing.assert_allclose(probabilities, expected, rtol=1e-12, atol=1e-300)
        rows += size
    assert rows > 1000


def test_mlp_rejects_nan_ridge():
    # NaN passes a `ridge < 0` test and would train a NaN network
    train = _separable(np.random.default_rng(549), n_per_class=3, dim=2)
    with pytest.raises(ValueError, match="ridge"):
        mlp_train(train, hidden_count=2, ridge=math.nan)
    with pytest.raises(ValueError, match="ridge"):
        mlp_grid_labels(train, [1, 2], np.zeros((1, 2)), [0, 1], ridge=math.nan)


def _exp_or_inf(v):
    """``math.exp``, overflowing to ``inf`` as C's ``exp`` does."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def test_expit_is_one_over_one_plus_libm_exp():
    # the Python training loop takes its sigmoid from SciPy's expit on
    # the premise that it computes 1 / (1 + exp(-x)) with the C library's
    # exp, as the compiled loop does; this pins that premise, bit for bit
    rng = np.random.default_rng(550)
    x = np.concatenate(
        [scale * rng.normal(size=5000) for scale in (1.0, 10.0, 100.0, 800.0)]
        + [[1e300, -1e300, -800.0, -746.0, -745.0, -709.0, -708.0, 0.0, -0.0, 1e-300,
            36.0, 37.0, 709.0, 710.0]]
    )
    e = np.array([_exp_or_inf(-v) for v in x.tolist()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = scipy.special.expit(x)
        want = 1.0 / (1.0 + e)
    assert got.tobytes() == want.tobytes()


def test_fixed_order_loss_and_grad_matches_numpy_oracle():
    # the training loop's own arithmetic stays within round-off of
    # mlp_loss_and_grad, the oracle the finite-difference checks cover
    rng = np.random.default_rng(523)
    for trial in range(200):
        d, h, n = int(rng.integers(1, 21)), int(rng.integers(1, 41)), int(rng.integers(2, 60))
        features = rng.normal(size=(n, d)) * 3.0
        targets = rng.integers(0, 2, n).astype(np.float64)
        vec = rng.normal(0.0, 2.0, d * h + 2 * h + 1)
        ridge = float(rng.choice([0.0, 0.01, 1.0]))
        loss, grad = mlp_loss_and_grad(vec, features, targets, h, ridge)
        fixed_loss, fixed_grad = classifiers._fixed_loss_and_grad(
            vec, features, targets, h, ridge, True
        )
        assert abs(fixed_loss - loss) <= 1e-12 * abs(loss), f"trial {trial}"
        scale = np.abs(grad).max()
        assert np.abs(fixed_grad - grad).max() <= 1e-12 * scale, f"trial {trial}"
        none, probe = classifiers._fixed_loss_and_grad(vec, features, targets, h, ridge, False)
        assert none is None
        assert probe.tobytes() == fixed_grad.tobytes()


def _same_mlp_grid(got, expected, case):
    """Two ``(w, traces, steps, probabilities)`` results, bit for bit."""
    w, traces, steps, probabilities = got
    assert w.tobytes() == expected[0].tobytes(), case
    assert len(traces) == len(expected[1]), case
    for trace, want in zip(traces, expected[1]):
        assert trace.tobytes() == want.tobytes(), case
    assert steps.tolist() == expected[2].tolist(), case
    assert probabilities.shape == expected[3].shape, case
    assert probabilities.tobytes() == expected[3].tobytes(), case


@needs_compiled
def test_mlp_grid_compiled_loop_bit_identical_to_python_loop():
    assert classifiers._MLP_GRID is kernels.mlp_grid_solve
    rng = np.random.default_rng(530)
    seen = {"clipped": 0, "overflowed": 0, "converged": 0}
    for d in (1, 2, 5, 20):
        hs = [1, 3, 2 * d]
        # ridge 0 on separable data, started with outputs past the
        # 1e-12 log clip, and at the largest scale with exp(-x)
        # overflowing to inf
        for ridge, scale in ((0.01, 1.0), (0.0, 30.0), (0.0, 1000.0)):
            train = _separable(rng, n_per_class=int(rng.integers(3, 10)), dim=d)
            X, t = train.features, train.labels.astype(np.float64)
            parts = [rng.uniform(-0.5, 0.5, d * h + 2 * h + 1) * scale for h in hs]
            for h, w in zip(hs, parts):
                if ridge == 0.0:
                    w[-1] = -40.0
                    w1, b1, w2, b2 = classifiers._unpack(w, d, h)
                    pre = X @ w1 + b1
                    out = scipy.special.expit(scipy.special.expit(pre) @ w2 + b2)
                    assert ((out < 1e-12) | (out > 1.0 - 1e-12)).any()
                    seen["clipped"] += 1
                    seen["overflowed"] += bool(pre.min() < -710.0)
            w = np.concatenate(parts)
            # none, one or several queries, some far enough out to saturate
            queries = rng.normal(size=(int(rng.integers(0, 4)), d)) * rng.choice([1.0, 30.0])
            expected = classifiers._mlp_grid_loop(X, t, hs, ridge, w, queries, 500, 1e-5)
            got = kernels.mlp_grid_solve(X, t, hs, ridge, w, queries, 500, 1e-5)
            _same_mlp_grid(got, expected, f"d={d} ridge={ridge} scale={scale}")
            seen["converged"] += int((expected[2] < 500).sum())
    assert min(seen.values()) >= 5, seen
    # one work area serves the whole grid: widths out of order, and more
    # queries than training rows
    for d in (1, 2, 5, 20):
        hs = [2 * d, 1, d, 2 * d]
        train = _separable(rng, n_per_class=int(rng.integers(3, 10)), dim=d)
        X, t = train.features, train.labels.astype(np.float64)
        w = rng.uniform(-0.5, 0.5, sum((d + 2) * h + 1 for h in hs))
        queries = rng.normal(size=(5 * len(X), d)) * 3.0
        expected = classifiers._mlp_grid_loop(X, t, hs, 0.01, w, queries, 500, 1e-5)
        got = kernels.mlp_grid_solve(X, t, hs, 0.01, w, queries, 500, 1e-5)
        _same_mlp_grid(got, expected, f"d={d} widths {hs}")


@needs_compiled
def test_mlp_grid_solve_checks_shapes_before_calling_c():
    X, t, q = np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]), np.ones((1, 2))
    w = np.zeros(2 * 3 + 2 * 3 + 1)
    for features, targets, hs, wvec, queries, budget in (
        (X, t, [0], w[:1], q, 10),
        (X[:0], t[:0], [3], w, q, 10),
        (X, t[:3], [3], w, q, 10),
        (X, t, [3], w[:-1], q, 10),
        (X, t, [3, 1], w, q, 10),
        (X, t, [[3]], w, q, 10),
        (X, t, [3], w, q[0], 10),
        (X, t, [3], w, np.ones((1, 3)), 10),
        (X, t, [3], w, q, -1),
    ):
        with pytest.raises(ValueError):
            kernels.mlp_grid_solve(features, targets, hs, 0.01, wvec, queries, budget, 1e-5)


@needs_compiled
@pytest.mark.parametrize("budget", [None, 3])
def test_mlp_train_same_model_on_both_loops(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(classifiers, "_MLP_MAX_ITER", budget)
    rng = np.random.default_rng(531)
    fits = [
        (_separable(rng, n_per_class=6, dim=d, margin=0.4), h)
        for d in (1, 2, 5, 20)
        for h in (1, 3, 2 * d)
    ]
    models = []
    for loop in (kernels.mlp_grid_solve, classifiers._mlp_grid_loop):
        monkeypatch.setattr(classifiers, "_MLP_GRID", loop)
        models.append([mlp_train(train, h, seed=i) for i, (train, h) in enumerate(fits)])
    for compiled, python in zip(*models):
        for field in ("w1", "b1", "w2", "b2", "loss_trace"):
            assert _same_bits([getattr(compiled, field)], [getattr(python, field)]), field
        assert (compiled.steps, compiled.capped) == (python.steps, python.capped)
        if budget is not None:
            assert compiled.capped and compiled.steps == budget


both_mlp_loops = pytest.mark.parametrize(
    "loop", [pytest.param("mlp_grid_solve", marks=needs_compiled), "_mlp_grid_loop"]
)


@both_mlp_loops
def test_mlp_reports_steps_and_cap(monkeypatch, loop):
    monkeypatch.setattr(classifiers, "_MLP_GRID", _loop(loop))
    train = _separable(np.random.default_rng(532), n_per_class=8, dim=3)
    model = mlp_train(train, hidden_count=4, seed=1)
    assert not model.capped
    assert len(model.loss_trace) - 1 <= model.steps < classifiers._MLP_MAX_ITER
    # the budget counts iterations: the check after the last one is not made
    monkeypatch.setattr(classifiers, "_MLP_MAX_ITER", model.steps)
    capped = mlp_train(train, hidden_count=4, seed=1)
    assert capped.capped and capped.steps == model.steps
    assert capped.loss_trace == model.loss_trace
    monkeypatch.setattr(classifiers, "_MLP_MAX_ITER", model.steps + 1)
    again = mlp_train(train, hidden_count=4, seed=1)
    assert (again.steps, again.capped) == (model.steps, False)


@both_mlp_loops
@pytest.mark.parametrize("budget", [None, 3])
def test_mlp_grid_labels_bit_identical_to_per_width_fits(monkeypatch, loop, budget):
    monkeypatch.setattr(classifiers, "_MLP_GRID", _loop(loop))
    if budget is not None:
        monkeypatch.setattr(classifiers, "_MLP_MAX_ITER", budget)
    rng = np.random.default_rng(546)
    rows = 0
    for case in range(12 if loop == "_mlp_grid_loop" else 36):
        d = int(rng.integers(1, 12))
        hs = sorted({1, math.ceil(d / 2), d, 2 * d})
        n0, n1 = (int(n) for n in rng.integers(3, 9, 2))
        features = rng.normal(size=(n0 + n1, d))
        features[n0:] += rng.uniform(0.0, 1.5)
        train = TrainSet(features, np.array([0] * n0 + [1] * n1))
        seeds = [int(s) for s in rng.integers(0, 2**32, len(hs))]
        # blocks of 0, 1 and many rows, some far enough out to saturate
        size = (0, 1, int(rng.integers(2, 20)))[case % 3]
        queries = rng.normal(size=(size, d)) * (1.0, 30.0)[case // 3 % 2]
        labels = mlp_grid_labels(train, hs, queries, seeds)
        probabilities = classifiers._mlp_grid(train, hs, queries, seeds, 0.01)[-1]
        assert labels.shape == probabilities.shape == (len(hs), size)
        for g, (h, seed) in enumerate(zip(hs, seeds)):
            model = mlp_train(train, h, seed=seed)
            expected = mlp_probabilities(model, queries)
            assert probabilities[g].tobytes() == expected.tobytes(), (case, h)
            assert labels[g].tolist() == (expected > 0.5).astype(np.int64).tolist()
            if budget is not None:
                assert model.capped and model.steps == budget
        rows += size
    assert rows > 20


def test_mlp_grid_labels_validates():
    train = _separable(np.random.default_rng(547), n_per_class=3, dim=2)
    with pytest.raises(ValueError, match="hidden_count"):
        mlp_grid_labels(train, [1, 0], np.zeros((1, 2)), [0, 1])
    with pytest.raises(ValueError, match="hidden_count"):
        mlp_grid_labels(train, [], np.zeros((1, 2)), [])
    with pytest.raises(ValueError, match="ridge"):
        mlp_grid_labels(train, [1], np.zeros((1, 2)), [0], ridge=-0.1)
    with pytest.raises(ValueError, match="one seed per"):
        mlp_grid_labels(train, [1, 2], np.zeros((1, 2)), [0])
    with pytest.raises(ValueError, match="features"):
        mlp_grid_labels(train, [1], np.zeros((1, 3)), [0])
    with pytest.raises(ValueError, match="non-finite"):
        mlp_grid_labels(train, [1], np.array([[np.nan, 0.0]]), [0])


@both_mlp_loops
def test_mlp_rejects_a_width_that_is_not_a_whole_number(monkeypatch, loop):
    monkeypatch.setattr(classifiers, "_MLP_GRID", _loop(loop))
    train = _separable(np.random.default_rng(548), n_per_class=3, dim=2)
    for width in (2.5, 1.9, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="hidden_count"):
            mlp_train(train, width)
        with pytest.raises(ValueError, match="hidden_count"):
            mlp_grid_labels(train, [width, 2], np.zeros((1, 2)), [0, 1])
    # a whole float is the width it names
    whole, int_width = mlp_train(train, 2.0, seed=3), mlp_train(train, 2, seed=3)
    assert _same_bits([whole.w1, whole.w2], [int_width.w1, int_width.w2])


@both_mlp_loops
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mlp_without_features_raises_one_error(monkeypatch, loop):
    # the same error on either loop, raised before a weight is drawn
    monkeypatch.setattr(classifiers, "_MLP_GRID", _loop(loop))
    train = TrainSet(np.zeros((6, 0)), [0, 0, 0, 1, 1, 1])
    with pytest.raises(ValueError, match="^the perceptron needs at least one feature$"):
        mlp_train(train, 1)
    with pytest.raises(ValueError, match="^the perceptron needs at least one feature$"):
        mlp_grid_labels(train, [1, 2], np.zeros((2, 0)), [0, 1])

@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, np.int64(9)])
def test_mlp_train_same_model_from_either_weight_draw(seed):
    # numpy.random draws the weights of every seed, as the Python loop
    # trained from _initial_weights' draw shows
    train = _separable(np.random.default_rng(549), n_per_class=5, dim=3)
    model = mlp_train(train, 4, seed=seed)
    w, traces, steps, _ = classifiers._mlp_grid_loop(
        train.features, train.labels.astype(np.float64), [4], classifiers._MLP_RIDGE,
        classifiers._initial_weights(3, 4, int(seed)), np.empty((0, 3)),
        classifiers._MLP_MAX_ITER, classifiers._MLP_GRAD_TOL,
    )
    assert _same_bits([np.concatenate([model.w1.ravel(), model.b1, model.w2, [model.b2]])], [w])
    assert _same_bits([model.loss_trace], [traces[0]])
    assert model.steps == steps[0]


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
def test_mlp_seed_errors_are_numpys_on_both_paths(seed, error):
    train = _separable(np.random.default_rng(550), n_per_class=3, dim=2)
    with pytest.raises(error) as numpys:
        np.random.default_rng(seed)
    with pytest.raises(error) as raised:
        mlp_train(train, 2, seed=seed)
    assert str(raised.value) == str(numpys.value)


def test_mlp_model_bits_are_the_same_on_every_host():
    """SHA-256 of the weights and loss trace of three seeded fits.

    The training loop sums in a fixed order and takes ``exp`` and ``log``
    from the C library on both of its paths, so these hashes hold with
    and without the compiled library, on every OpenBLAS kernel and with
    NumPy's SIMD code paths turned off. They hold only where the C library
    rounds ``exp`` and ``log`` as it did where they were measured: glibc on
    an x86-64 CPU with FMA and AVX2. glibc picks its builds of these by
    CPU, and with FMA and AVX2 masked
    (``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4``) the hashes
    change. Another libm (musl, macOS) is not measured either.
    """
    fits = [
        # (data seed, per class, features, hidden units, ridge, fit seed)
        (541, 18, 5, 3, 0.01, 0),
        (542, 10, 2, 4, 0.0, 7),
        (543, 25, 20, 40, 0.1, 3),
    ]
    digests = []
    for data_seed, per_class, dim, h, ridge, seed in fits:
        train = _separable(np.random.default_rng(data_seed), per_class, dim, margin=0.3)
        model = mlp_train(train, hidden_count=h, ridge=ridge, seed=seed)
        digest = hashlib.sha256()
        for part in (model.w1, model.b1, model.w2, [model.b2], model.loss_trace):
            digest.update(np.asarray(part, dtype=np.float64).tobytes())
        digests.append(digest.hexdigest())
    assert digests == [
        "f1f60bb2ab88adbce1bc414db331a43890bfb2fd6ee509f5a365d835c54c9fc5",
        "8b8400bb3ef4c16254eb80aa5d83e21c9ee0fa87953d489c01d93fc3369b4351",
        "7ec85711e660cef68d1697325147fc220004d91ce7964d82bfcd06882dc9025a",
    ]


@pytest.mark.parametrize(
    "predictor", ["knn", "svm", "nbc", "mlp", "mlp_probabilities"]
)
def test_predictors_reject_bad_queries(predictor):
    train = _separable(np.random.default_rng(513), n_per_class=4, dim=2)
    predict = {
        "knn": lambda q: knn_classify(train, q, 3),
        "svm": lambda q: svm_predict(svm_train(train, 1.0), q),
        "nbc": lambda q: nbc_predict(nbc_train(train), q),
        "mlp": lambda q: mlp_predict(mlp_train(train, hidden_count=2), q),
        "mlp_probabilities": lambda q: mlp_probabilities(
            mlp_train(train, hidden_count=2), q[None]
        ),
    }[predictor]
    predict(np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        predict(np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="features"):
        predict(np.zeros(3))
    with pytest.raises(ValueError, match="features"):
        predict(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="features"):
        predict(np.zeros(()))
