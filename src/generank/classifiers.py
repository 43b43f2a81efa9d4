"""Four small two-class learners used by the benchmark harness.

All operate on a samples-by-features matrix with 0/1 labels: a
k-nearest-neighbour voter, a linear soft-margin SVM solved by pairwise
coordinate optimization on the dual, a naive Bayes classifier with
Gaussian kernel density estimates per feature, and a single-hidden-layer
perceptron trained by scaled conjugate gradients. Nothing here depends
on the ranking code; the cross-validation harness wires them together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from generank import kernels
from generank.dataio import VARIANCE_FLOOR


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget.

    ``candidate`` is the position, among the hyperparameter values a grid
    function was given, of the fit that failed (0 for a single fit).
    """

    def __init__(self, message, candidate=0):
        super().__init__(message)
        self.candidate = candidate


@dataclass
class TrainSet:
    """Validated training data: ``features`` is (n_samples, n_features)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D")
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must align with feature rows")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        for cls in (0, 1):
            if not (self.labels == cls).any():
                raise ValueError(f"class {cls} has no training samples")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _validate_queries(n_features: int, queries) -> np.ndarray:
    """The queries as a finite (n_queries, ``n_features``) float array."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != n_features:
        raise ValueError(f"queries must have {n_features} features, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("queries contain non-finite values")
    return q


# --------------------------------------------------------------------------
# k nearest neighbours


def _knn_labels(train: TrainSet, ks: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Unchecked core of :func:`knn_grid_labels`: (len(ks), n_queries) labels.

    Each query's distances and stable neighbour order are computed once;
    every k reads its votes and its per-class distance sums off cumulative
    sums in neighbour order, which add in the order a per-neighbour loop
    would.
    """
    dist = np.sqrt(((train.features[None, :, :] - queries[:, None, :]) ** 2).sum(axis=-1))
    order = np.argsort(dist, axis=-1, kind="stable")
    near_labels = train.labels[order]
    near_dist = np.take_along_axis(dist, order, axis=-1)
    at_k = ks - 1
    votes1 = np.cumsum(near_labels, axis=-1)[:, at_k]
    votes0 = ks - votes1
    sums1 = np.cumsum(np.where(near_labels == 1, near_dist, 0.0), axis=-1)[:, at_k]
    sums0 = np.cumsum(np.where(near_labels == 0, near_dist, 0.0), axis=-1)[:, at_k]
    split = np.where(votes1 != votes0, votes1 > votes0, sums1 < sums0)
    return split.T.astype(np.int64)


def knn_grid_labels(train: TrainSet, ks, queries) -> np.ndarray:
    """:func:`knn_classify` for every k in ``ks`` and every row of
    ``queries`` at once: a (len(ks), n_queries) array of labels."""
    ks = np.asarray(ks, dtype=np.float64).reshape(-1)
    n = train.n_samples
    if not ((ks >= 1.0) & (ks <= n) & (np.floor(ks) == ks)).all():
        raise ValueError(f"k must be a whole number in [1, {n}]")
    queries = _validate_queries(train.n_features, queries)
    return _knn_labels(train, ks.astype(np.int64), queries)


def knn_classify(train: TrainSet, query, k: int) -> int:
    """Majority vote of the k nearest training points (Euclidean).

    Distance ties resolve toward the smaller sample index; a split vote
    goes to the class with the smaller summed neighbour distance, and
    class 0 if even that ties.
    """
    return int(knn_grid_labels(train, [k], [query])[0, 0])


# --------------------------------------------------------------------------
# linear support vector machine


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    dual_coefficients: np.ndarray
    support_indices: np.ndarray
    c: float
    kkt_gap: float
    updates: int


_SVM_MAX_ITER = 100_000
_SVM_STOP_TOL = 1e-3
_SVM_SV_TOL = 1e-8
# the update count of a fit whose duals or gradient are not finite
_SVM_OVERFLOWED = -2


def _violating_sets(y, alpha, c, grad):
    """``-y * grad`` masked to the index sets I_up (``-inf`` outside) and
    I_low (``+inf`` outside), from which each update takes its violating
    pair; ``f_up.max() - f_low.min()`` is the violation gap."""
    f = -y * grad
    up = ((y > 0.0) & (alpha < c)) | ((y < 0.0) & (alpha > 0.0))
    low = ((y < 0.0) & (alpha < c)) | ((y > 0.0) & (alpha > 0.0))
    return np.where(up, f, -np.inf), np.where(low, f, np.inf)


def _smo_loop(Q, y, c, alpha, max_iter, tol):
    """Pairwise updates of the dual variables ``alpha``, in place, until
    the violation gap drops below ``tol``: each update optimizes the
    maximally violating pair. Returns ``(updates, gap)``: the number of
    updates made, -1 when ``max_iter`` updates did not reach ``tol`` (a
    fit whose last allowed update reached it converged), or
    ``_SVM_OVERFLOWED`` when ``alpha`` or the gradient ``Q @ alpha - 1``
    ended up not finite, and the gap of the last scan, which follows the
    last update even when ``max_iter`` ran out. :func:`_svm_grid_loop`
    runs it for each bound, and ``_mamdani.c`` holds its compiled port,
    which ``kernels.svm_grid_solve`` runs."""
    grad = np.full(len(y), -1.0)
    for it in itertools.count():
        f_up, f_low = _violating_sets(y, alpha, c, grad)
        i = int(np.argmax(f_up))
        j = int(np.argmin(f_low))
        gap = f_up[i] - f_low[j]
        if it >= max_iter or gap < tol:
            break

        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            quad = Q[i, i] + Q[j, j] + 2.0 * Q[i, j]
            if quad <= 0.0:
                quad = 1e-12
            delta = (-grad[i] - grad[j]) / quad
            diff = old_i - old_j
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0.0 and alpha[j] < 0.0:
                alpha[j] = 0.0
                alpha[i] = diff
            elif diff <= 0.0 and alpha[i] < 0.0:
                alpha[i] = 0.0
                alpha[j] = -diff
            if diff > 0.0:
                if alpha[i] > c:
                    alpha[i] = c
                    alpha[j] = c - diff
            else:
                if alpha[j] > c:
                    alpha[j] = c
                    alpha[i] = c + diff
        else:
            quad = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
            if quad <= 0.0:
                quad = 1e-12
            delta = (grad[i] - grad[j]) / quad
            total = old_i + old_j
            alpha[i] -= delta
            alpha[j] += delta
            if total > c:
                if alpha[i] > c:
                    alpha[i] = c
                    alpha[j] = total - c
            else:
                if alpha[j] < 0.0:
                    alpha[j] = 0.0
                    alpha[i] = total
            if total > c:
                if alpha[j] > c:
                    alpha[j] = c
                    alpha[i] = total - c
            else:
                if alpha[i] < 0.0:
                    alpha[i] = 0.0
                    alpha[j] = total
        grad += Q[:, i] * (alpha[i] - old_i) + Q[:, j] * (alpha[j] - old_j)
    if not (np.isfinite(alpha).all() and np.isfinite(grad).all()):
        return _SVM_OVERFLOWED, gap
    return (it if gap < tol else -1), gap


def _sum(a, axis=0):
    """The sum along ``axis``, added left to right: a cumulative sum
    (``np.add.accumulate``, which ``np.cumsum`` calls) adds in order,
    where ``np.sum`` and BLAS choose their own order. An empty sum is 0."""
    if a.shape[axis] == 0:
        return a.sum(axis=axis)
    return np.add.accumulate(a, axis=axis).take(-1, axis=axis)


def _dot(a, b) -> float:
    """``a @ b`` with the products added left to right."""
    return float(_sum(a * b))


def _svm_decisions(weights, bias, queries):
    """``queries @ weights + bias``, each product sum added left to right."""
    return _sum(queries * weights, axis=1) + bias


def _svm_grid_loop(X, y, cs, queries, max_iter, tol, sv_tol):
    """One linear SVM per box bound in ``cs`` on samples ``X`` with labels
    ``y`` = +-1, and its decision on each row of ``queries``.

    ``Q = (y_i * y_j) * (X_i . X_j)`` is built once; each bound's duals
    start at 0 and run through :func:`_smo_loop`. Returns ``(alpha,
    weights, bias, gaps, updates, decisions)``, one row or value per
    bound: the duals, the weights and bias, :func:`_smo_loop`'s gap and
    update count, and the queries' decision values. A fit that failed (a
    negative count) has NaN weights, bias and decisions. The bias is the
    mean of ``y_i - w . X_i`` over the free support vectors (``sv_tol <
    alpha_i < c - sv_tol``), or else the midpoint between the innermost
    decisions of the two classes. Every sum adds left to right, so the
    bits do not depend on BLAS. ``kernels.svm_grid_solve`` is the compiled
    port of this function; this one is its oracle and the path without a
    compiler. The two give the same bits except for which NaN an
    overflowed result holds.
    """
    m, (n, d) = len(cs), X.shape
    alpha = np.zeros((m, n))
    weights = np.full((m, d), np.nan)
    bias = np.full(m, np.nan)
    gaps = np.empty(m)
    updates = np.empty(m, dtype=np.int64)
    decisions = np.full((m, len(queries)), np.nan)
    # Overflow shows up as non-finite duals, which the update count reports.
    with np.errstate(over="ignore", invalid="ignore"):
        Q = (y[:, None] * y[None, :]) * _sum(X[:, None, :] * X[None, :, :], axis=2)
        for r, c in enumerate(cs.tolist()):
            updates[r], gaps[r] = _smo_loop(Q, y, c, alpha[r], max_iter, tol)
            if updates[r] < 0:
                continue
            weights[r] = _sum(X * (alpha[r] * y)[:, None])
            fitted = _sum(X * weights[r], axis=1)
            on_margin = (alpha[r] > sv_tol) & (alpha[r] < c - sv_tol)
            if on_margin.any():
                bias[r] = float(_sum((y - fitted)[on_margin])) / int(on_margin.sum())
            else:
                # No free support vector: center the boundary between the
                # innermost decision values of the two classes. Python's
                # max and min keep the first of equal values (0.0 and
                # -0.0), as the compiled port does.
                hi = max(fitted[y < 0].tolist(), default=-math.inf)
                lo = min(fitted[y > 0].tolist(), default=math.inf)
                bias[r] = -0.5 * (hi + lo)
            decisions[r] = _svm_decisions(weights[r], bias[r], queries)
    return alpha, weights, bias, gaps, updates, decisions


_SVM_GRID = kernels.svm_grid_solve or _svm_grid_loop


def _checked_positive(values, name) -> np.ndarray:
    """``values`` as a flat float array, each of them positive."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if not (values > 0.0).all():
        raise ValueError(f"{name} must be positive")
    return values


def _svm_grid(train: TrainSet, cs: np.ndarray, queries: np.ndarray):
    """Unchecked core of :func:`svm_grid_labels` and :func:`svm_train`:
    :func:`_svm_grid_loop`'s results through ``_SVM_GRID``, after
    raising the :class:`ConvergenceError` of the first bound in ``cs``
    whose fit failed, as its update count and gap report it."""
    y = np.where(train.labels == 1, 1.0, -1.0)
    fit = _SVM_GRID(
        train.features, y, cs, queries, _SVM_MAX_ITER, _SVM_STOP_TOL, _SVM_SV_TOL
    )
    _, _, _, gaps, updates, _ = fit
    failed = np.flatnonzero(updates < 0)
    if failed.size:
        r = int(failed[0])
        if updates[r] == _SVM_OVERFLOWED:
            raise ConvergenceError("dual optimization overflowed: non-finite duals", r)
        raise ConvergenceError(
            f"dual optimization stalled: violation gap {gaps[r]:.3e} after "
            f"{_SVM_MAX_ITER} updates",
            r,
        )
    return fit


def svm_grid_labels(train: TrainSet, cs, queries) -> np.ndarray:
    """:func:`svm_train` and :func:`svm_predict` for every box bound in
    ``cs`` and every row of ``queries`` at once: a (len(cs), n_queries)
    array of labels.

    The Gram matrix is built once for all bounds. A failed fit raises
    the :class:`ConvergenceError` :func:`svm_train` would, for the first
    such bound in ``cs``; its ``candidate`` is that bound's position.
    """
    queries = _validate_queries(train.n_features, queries)
    decisions = _svm_grid(train, _checked_positive(cs, "c"), queries)[-1]
    return (decisions > 0.0).astype(np.int64)


def svm_train(train: TrainSet, c: float) -> SvmModel:
    """Soft-margin linear SVM fitted on the dual.

    Repeatedly optimizes the maximally violating pair of dual variables
    until the violation gap drops below 1e-3; class 0 maps to y = -1.
    This is :func:`svm_grid_labels` for one bound and no query: the fit
    runs in the compiled library when it is loaded
    (``kernels.svm_grid_solve``) and in :func:`_svm_grid_loop` otherwise,
    with the same bits either way, whatever BLAS NumPy uses.
    ``SvmModel.updates`` counts the updates. Raises
    :class:`ConvergenceError` if the duals overflow (features so large
    that the Gram matrix is not finite) or if the budget of 100000
    updates is exhausted first.
    """
    cs = _checked_positive(float(c), "c")
    alpha, weights, bias, gaps, updates, _ = _svm_grid(
        train, cs, np.empty((0, train.n_features))
    )
    support = np.flatnonzero(alpha[0] > _SVM_SV_TOL)
    return SvmModel(
        weights[0], float(bias[0]), alpha[0], support, float(cs[0]), float(gaps[0]),
        int(updates[0]),
    )


def svm_predict(model: SvmModel, query) -> int:
    """1 if the query's decision value ``w . q + bias`` is positive, else
    0: :func:`svm_grid_labels`'s label for one query."""
    queries = _validate_queries(model.weights.shape[0], [query])
    return int(_svm_decisions(model.weights, model.bias, queries)[0] > 0.0)


def svm_kkt_violation(model: SvmModel, train: TrainSet) -> float:
    """Recompute the violating-pair gap m(alpha) - M(alpha) from a model."""
    y = np.where(train.labels == 1, 1.0, -1.0)
    alpha = model.dual_coefficients
    c = model.c
    grad = y * (train.features @ model.weights) - 1.0
    f_up, f_low = _violating_sets(y, alpha, c, grad)
    return float(f_up.max() - f_low.min())


# --------------------------------------------------------------------------
# kernel-density naive Bayes


@dataclass
class NbcModel:
    class_values: tuple
    bandwidths: np.ndarray
    log_priors: np.ndarray


def _nbc_fit(train: TrainSet, multipliers: np.ndarray):
    """Unchecked core of :func:`nbc_train` for every multiplier at once.

    Returns ``(class_values, bandwidths, log_priors)``: each class's
    sample block, the (len(multipliers), 2, n_features) bandwidths and
    the two log priors. Each class's variance is computed once.
    """
    values = []
    bandwidths = np.empty((len(multipliers), 2, train.n_features))
    priors = np.empty(2)
    for cls in (0, 1):
        V = train.features[train.labels == cls]
        n_c = V.shape[0]
        var = V.var(axis=0, ddof=1) if n_c > 1 else np.zeros(train.n_features)
        sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
        bandwidths[:, cls] = multipliers[:, None] * 1.06 * sigma * n_c ** (-0.2)
        priors[cls] = n_c / train.n_samples
        values.append(V)
    return tuple(values), bandwidths, np.log(priors)


def nbc_train(train: TrainSet, bandwidth_multiplier: float = 1.0) -> NbcModel:
    """Per class and feature, a Gaussian KDE with Silverman bandwidths.

    The bandwidth is ``multiplier * 1.06 * sigma * n^(-1/5)`` with the
    feature's standard deviation floored, so constant features stay
    usable.
    """
    values, bandwidths, log_priors = _nbc_fit(
        train, _checked_positive(bandwidth_multiplier, "bandwidth_multiplier")
    )
    return NbcModel(values, bandwidths[0], log_priors)


def _logsumexp(a, axis=None):
    """``scipy.special.logsumexp(a, axis=axis)`` for a real float64 array.

    Repeats SciPy's max-separated algorithm step for step in plain NumPy:
    the maxima are taken out of the sum, which becomes ``log1p`` of the
    rest scaled by their count. That skips the array-API dispatch that
    dominates SciPy's call on tiny arrays, and fixes the bits whatever
    SciPy release is installed. Each result whose slice has a non-finite
    maximum (an infinite or NaN input), or that comes out non-finite
    itself, is SciPy's instead, whose edge-case handling this does not
    repeat; the other results do not depend on it.
    """
    a_max = a.max(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        at_max = a == a_max
        m = at_max.sum(axis=axis, keepdims=True, dtype=np.float64)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    bad = ~np.isfinite(out)
    if bad.any():
        out = np.where(bad, logsumexp(a, axis=axis, keepdims=True), out)
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def _nbc_posteriors(class_values, bandwidths, log_priors, queries) -> np.ndarray:
    """Unchecked core of :func:`nbc_predict`: the (n_multipliers,
    n_queries, 2) posteriors for :func:`_nbc_fit`'s bandwidths.

    The kernel terms of every (multiplier, query, sample, feature) go
    through one :func:`_logsumexp` along the sample axis per class. Its
    sums over samples, and the sums over features, add in the order they
    do for one multiplier and one query, so each posterior has the same
    bits either way. Where both classes' log joints are ``-inf`` (a query
    far from every sample) the posteriors are the normalized priors.
    """
    log_joint = np.empty(bandwidths.shape[:1] + queries.shape[:1] + (2,))
    # a far query's kernel terms overflow to -inf, which is handled below
    with np.errstate(over="ignore"):
        for cls in (0, 1):
            V = class_values[cls]
            h = bandwidths[:, cls]
            z = (queries[:, None, :] - V)[None] / h[:, None, None, :]
            log_kde = _logsumexp(-0.5 * z * z, axis=2)
            log_kde -= (math.log(V.shape[0]) + np.log(h * math.sqrt(2.0 * math.pi)))[:, None]
            log_joint[..., cls] = log_priors[cls] + log_kde.sum(axis=-1)
    if log_joint.min(initial=np.inf) == -np.inf:
        # A query so far from both classes that neither density is
        # representable says nothing about its class: the priors decide.
        lost = (log_joint == -np.inf).all(axis=-1)
        log_joint[lost] = log_priors
    posteriors = np.exp(log_joint - _logsumexp(log_joint, axis=-1)[..., None])
    # guard the unit-sum invariant against rounding when the shifted
    # log joints are huge in magnitude
    posteriors /= posteriors.sum(axis=-1, keepdims=True)
    return posteriors


def nbc_grid_labels(train: TrainSet, multipliers, queries) -> np.ndarray:
    """:func:`nbc_train` and :func:`nbc_predict` for every bandwidth
    multiplier and every row of ``queries`` at once: a
    (len(multipliers), n_queries) array of labels."""
    fit = _nbc_fit(train, _checked_positive(multipliers, "bandwidth_multiplier"))
    posteriors = _nbc_posteriors(*fit, _validate_queries(train.n_features, queries))
    return (posteriors[..., 1] > posteriors[..., 0]).astype(np.int64)


def nbc_predict(model: NbcModel, query):
    """Returns ``(label, posteriors)``; a posterior tie goes to class 0.

    The kernel sums go through :func:`_logsumexp`, so the results do not
    depend on which SciPy release is installed.
    """
    queries = _validate_queries(model.bandwidths.shape[1], [query])
    posteriors = _nbc_posteriors(
        model.class_values, model.bandwidths[None], model.log_priors, queries
    )[0, 0]
    label = int(posteriors[1] > posteriors[0])
    return label, posteriors


# --------------------------------------------------------------------------
# single-hidden-layer perceptron, scaled conjugate gradient


@dataclass
class MlpModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    ridge: float
    loss_trace: list
    steps: int
    capped: bool


_MLP_GRAD_TOL = 1e-5
_MLP_MAX_ITER = 500
_MLP_RIDGE = 0.01
_SCG_SIGMA0 = 1e-4


def _unpack(wvec: np.ndarray, d: int, h: int):
    w1 = wvec[: d * h].reshape(d, h)
    b1 = wvec[d * h : d * h + h]
    w2 = wvec[d * h + h : d * h + 2 * h]
    b2 = wvec[-1]
    return w1, b1, w2, b2


def mlp_loss_and_grad(wvec, features, targets, hidden_count, ridge):
    """Penalized cross-entropy and its exact gradient.

    Logistic activations on both layers; the ridge penalty covers the
    weight matrices but not the biases. The log arguments are clipped,
    which leaves the gradient untouched anywhere the outputs are not
    saturated past 1e-12. This is the NumPy oracle of the training
    loop's :func:`_fixed_loss_and_grad`.
    """
    X = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(wvec, dtype=np.float64)
    w1, b1, w2, b2 = _unpack(w, X.shape[1], int(hidden_count))

    hidden = expit(X @ w1 + b1)
    out = expit(hidden @ w2 + b2)
    safe = np.clip(out, 1e-12, 1.0 - 1e-12)
    loss = -float((t * np.log(safe) + (1.0 - t) * np.log(1.0 - safe)).sum())
    loss += 0.5 * ridge * (float((w1 * w1).sum()) + float((w2 * w2).sum()))

    delta_out = out - t
    g_w2 = hidden.T @ delta_out + ridge * w2
    g_b2 = float(delta_out.sum())
    delta_hidden = (delta_out[:, None] * w2[None, :]) * hidden * (1.0 - hidden)
    g_w1 = X.T @ delta_hidden + ridge * w1
    g_b1 = delta_hidden.sum(axis=0)

    grad = np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])
    return loss, grad


def _log(x):
    """The C library's ``log`` of each element of a 1-D array."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, len(x))


def _mlp_forward(w1, b1, w2, b2, X):
    """``(hidden, out)``: the network's hidden activations and class-1
    probability for each row of ``X``. The sums, over features (a Python
    loop, cheaper than a cumulative sum of (rows, d, h) products) and
    then over hidden units, add left to right, and SciPy's ``expit`` is
    ``1 / (1 + exp(-x))`` with the C library's ``exp``, so a row's bits
    depend neither on its block nor on BLAS or NumPy's SIMD code."""
    columns = X.T[:, :, None]
    pre = columns[0] * w1[0]
    for x, w1_k in zip(columns[1:], w1[1:]):
        pre += x * w1_k
    hidden = expit(pre + b1)
    return hidden, expit(_sum(hidden * w2, axis=1) + b2)


def _fixed_loss_and_grad(w, X, t, h, ridge, with_loss):
    """:func:`mlp_loss_and_grad` in the fixed order of ``kernels.mlp_grid_solve``:
    the forward pass is :func:`_mlp_forward`'s, every other sum runs left
    to right and ``log`` is the C library's, so the bits do not depend on
    BLAS or NumPy's SIMD code."""
    w1, b1, w2, b2 = _unpack(w, X.shape[1], h)
    hidden, out = _mlp_forward(w1, b1, w2, b2, X)
    loss = None
    if with_loss:
        safe = np.clip(out, 1e-12, 1.0 - 1e-12)
        loss = -float(_sum(t * _log(safe) + (1.0 - t) * _log(1.0 - safe)))
        loss += 0.5 * ridge * (_dot(w1.ravel(), w1.ravel()) + _dot(w2, w2))

    delta_out = out - t
    g_w2 = _sum(hidden * delta_out[:, None]) + ridge * w2
    g_b2 = float(_sum(delta_out))
    delta_hidden = (delta_out[:, None] * w2[None, :]) * hidden * (1.0 - hidden)
    # a Python loop over samples, as _mlp_forward's over features
    rows = X[:, :, None]
    g_w1 = rows[0] * delta_hidden[0]
    for x, dh_i in zip(rows[1:], delta_hidden[1:]):
        g_w1 += x * dh_i
    g_w1 += ridge * w1
    g_b1 = _sum(delta_hidden)

    grad = np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])
    return loss, grad


def _scg_loop(X, t, h, ridge, w, max_iter, tol):
    """Scaled conjugate gradients on the network's weights ``w`` (packed
    as ``_unpack`` reads them) until the gradient norm falls below
    ``tol``. Returns ``(w, loss_trace, steps)``: the final weights, an
    array of the loss after each accepted step (the first entry is the
    initial loss), and the iterations run, which is ``max_iter`` exactly
    when the budget ran out, since the loop only stops early before
    spending it. :func:`_mlp_grid_loop` runs it for each hidden width, and
    ``_mamdani.c`` holds its compiled port, which ``kernels.mlp_grid_solve``
    runs. Both use :func:`_fixed_loss_and_grad`'s order, and
    left-to-right dot products, so their bits follow only the C library's
    ``exp`` and ``log``; glibc picks those by CPU, and its builds for CPUs
    with and without FMA round differently."""
    n_params = len(w)
    loss, grad = _fixed_loss_and_grad(w, X, t, h, ridge, True)
    trace = [loss]
    r = -grad
    p = r.copy()
    success = True
    lam = 1e-6
    lam_bar = 0.0
    delta = 0.0
    for k in range(1, max_iter + 1):
        if math.sqrt(_dot(r, r)) < tol:
            return w, np.array(trace), k - 1
        p_sq = _dot(p, p)
        if p_sq == 0.0:
            return w, np.array(trace), k - 1
        if success:
            sigma = _SCG_SIGMA0 / math.sqrt(p_sq)
            _, grad_probe = _fixed_loss_and_grad(w + sigma * p, X, t, h, ridge, False)
            s = (grad_probe - grad) / sigma
            delta = _dot(p, s)
        # Levenberg-style shift keeps the curvature estimate positive.
        delta += (lam - lam_bar) * p_sq
        if delta <= 0.0:
            lam_bar = 2.0 * (lam - delta / p_sq)
            delta = -delta + lam * p_sq
            lam = lam_bar
        mu = _dot(p, r)
        if mu == 0.0:
            # Search direction orthogonal to the gradient: restart along
            # steepest descent rather than divide by zero below.
            p = r.copy()
            success = True
            continue
        alpha = mu / delta
        loss_new, grad_new = _fixed_loss_and_grad(w + alpha * p, X, t, h, ridge, True)
        comparison = 2.0 * delta * (loss - loss_new) / (mu * mu)
        if comparison >= 0.0:
            w = w + alpha * p
            loss = loss_new
            grad = grad_new
            r_new = -grad
            lam_bar = 0.0
            success = True
            trace.append(loss)
            if k % n_params == 0:
                p = r_new.copy()
            else:
                beta = (_dot(r_new, r_new) - _dot(r_new, r)) / mu
                p = r_new + beta * p
            r = r_new
            if comparison >= 0.75:
                lam *= 0.25
        else:
            lam_bar = lam
            success = False
        if comparison < 0.25:
            lam += delta * (1.0 - comparison) / p_sq
    return w, np.array(trace), max_iter


def _mlp_grid_loop(X, t, hs, ridge, w, queries, max_iter, tol):
    """One perceptron per hidden width in ``hs`` on samples ``X`` with
    0/1 targets ``t``, and its class-1 probability for each row of
    ``queries``.

    ``w`` holds the fits' packed initial weights one after another
    (``d * h + 2 * h + 1`` values each, as :func:`_unpack` reads them);
    each fit runs :func:`_scg_loop` from its own. Returns ``(w, traces,
    steps, probabilities)``: the final weights packed the same way, then
    per width the loss trace (an array) and the iterations run
    (``max_iter`` for a fit that ran out), and the (len(hs), n_queries)
    probabilities that :func:`_mlp_forward` gives. ``kernels.mlp_grid_solve`` is the
    compiled port of this function; this one is its oracle and the path
    without a compiler."""
    d = X.shape[1]
    parts = np.split(w, np.cumsum([(d + 2) * h + 1 for h in hs])[:-1])
    weights, traces, steps = zip(*(
        _scg_loop(X, t, h, ridge, part, max_iter, tol) for h, part in zip(hs, parts)
    ))
    probabilities = np.array(
        [_mlp_forward(*_unpack(fit, d, h), queries)[1] for fit, h in zip(weights, hs)]
    )
    steps = np.array(steps, dtype=np.int64)
    return np.concatenate(weights), list(traces), steps, probabilities


_MLP_GRID = kernels.mlp_grid_solve or _mlp_grid_loop


def _initial_weights(d: int, h: int, seed: int) -> np.ndarray:
    """A fit's packed starting weights, drawn from its own seed: both
    weight layers uniform in +-0.5 over the root of their fan-in, the
    biases 0. ``kernels.initial_weights`` is its compiled port, which
    draws a whole grid's weights in one call; this is its oracle and the
    path without a compiler."""
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-0.5, 0.5, (d, h)) / math.sqrt(d)
    w2 = rng.uniform(-0.5, 0.5, h) / math.sqrt(h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2, [0.0]])


def _mlp_grid(train: TrainSet, hs: list, queries: np.ndarray, seeds, ridge: float):
    """Unchecked core of :func:`mlp_grid_labels` and :func:`mlp_train`:
    :func:`_mlp_grid_loop`'s results through ``_MLP_GRID``, each width
    started from the weights its seed draws. The library draws every
    width's weights in one call when it is loaded and the seeds are ints
    (``kernels.initial_weights``); :func:`_initial_weights`, its oracle,
    draws them otherwise, with the same bits."""
    d = train.n_features
    if kernels.initial_weights is not None and kernels.seed_ints(seeds):
        w = kernels.initial_weights(d, hs, seeds)
    else:
        w = np.concatenate([_initial_weights(d, h, s) for h, s in zip(hs, seeds)])
    t = train.labels.astype(np.float64)
    return _MLP_GRID(
        train.features, t, hs, ridge, w, queries, _MLP_MAX_ITER, _MLP_GRAD_TOL
    )


def _checked_mlp_arguments(hidden_counts, ridge) -> list:
    """``hidden_counts`` as a non-empty list of ints, each a whole number
    of at least 1, after checking that ``ridge`` is not negative."""
    hs = np.asarray(hidden_counts).reshape(-1).tolist()
    if not hs or not all(h >= 1 and float(h).is_integer() for h in hs):
        raise ValueError("hidden_count must be a whole number >= 1")
    hs = [int(h) for h in hs]
    if not ridge >= 0.0:
        raise ValueError("ridge must be >= 0")
    return hs


def mlp_grid_labels(train: TrainSet, hidden_counts, queries, seeds, ridge=_MLP_RIDGE):
    """:func:`mlp_train` and :func:`mlp_predict` for every hidden width in
    ``hidden_counts`` and every row of ``queries`` at once: a
    (len(hidden_counts), n_queries) array of labels. The fit of width
    ``hidden_counts[i]`` is seeded with ``seeds[i]``, so each label equals
    the one a separate fit with that seed gives, bit for bit."""
    hs = _checked_mlp_arguments(hidden_counts, ridge)
    seeds = list(seeds)
    if len(seeds) != len(hs):
        raise ValueError("seeds needs one seed per hidden width")
    queries = _validate_queries(train.n_features, queries)
    probabilities = _mlp_grid(train, hs, queries, seeds, ridge)[-1]
    return (probabilities > 0.5).astype(np.int64)


def mlp_train(
    train: TrainSet,
    hidden_count: int,
    ridge: float = _MLP_RIDGE,
    seed: int = 0,
) -> MlpModel:
    """Fit by scaled conjugate gradients.

    Deterministic given the seed; stops when the gradient norm falls
    below ``_MLP_GRAD_TOL`` or after ``_MLP_MAX_ITER`` iterations. Only
    accepted steps extend the loss trace, so it is non-increasing.
    ``MlpModel.steps`` counts the iterations, rejected steps included,
    and ``MlpModel.capped`` is True when the budget ran out first. This
    is :func:`mlp_grid_labels` for one width and no query: the loop runs
    in the compiled library when it is loaded (``kernels.mlp_grid_solve``)
    and in :func:`_mlp_grid_loop` otherwise, with the same bits either
    way, whatever BLAS or SIMD code NumPy uses.
    """
    (h,) = _checked_mlp_arguments(hidden_count, ridge)
    d = train.n_features
    w, traces, steps, _ = _mlp_grid(train, [h], np.empty((0, d)), [seed], ridge)
    w1, b1, w2, b2 = _unpack(w, d, h)
    steps = int(steps[0])
    return MlpModel(
        w1.copy(), b1.copy(), w2.copy(), float(b2), ridge, traces[0].tolist(), steps,
        steps == _MLP_MAX_ITER,
    )


def mlp_probabilities(model: MlpModel, queries) -> np.ndarray:
    """:func:`mlp_predict`'s probability of class 1 for every row of
    ``queries`` at once."""
    queries = _validate_queries(model.w1.shape[0], queries)
    return _mlp_forward(model.w1, model.b1, model.w2, model.b2, queries)[1]


def mlp_predict(model: MlpModel, query):
    """Returns ``(label, probability_of_class_1)``, the label 1 when the
    probability exceeds 0.5: :func:`mlp_probabilities` for one query."""
    prob = float(mlp_probabilities(model, [query])[0])
    return int(prob > 0.5), prob
