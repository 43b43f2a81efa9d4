"""Four small two-class learners used by the benchmark harness.

All operate on a samples-by-features matrix with 0/1 labels: a
k-nearest-neighbour voter, a linear soft-margin SVM solved by pairwise
coordinate optimization on the dual, a naive Bayes classifier with
Gaussian kernel density estimates per feature, and a single-hidden-layer
perceptron trained by scaled conjugate gradients. Nothing here depends
on the ranking code; the cross-validation harness wires them together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from generank import kernels
from generank.dataio import VARIANCE_FLOOR


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget."""


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


def _validate_query(n_features: int, query) -> np.ndarray:
    """The query as a finite float vector of ``n_features`` values."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (n_features,):
        raise ValueError(f"query must have {n_features} features, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("query contains non-finite values")
    return q


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
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    if ((ks < 1) | (ks > train.n_samples)).any():
        raise ValueError(f"k must be in [1, {train.n_samples}]")
    return _knn_labels(train, ks, _validate_queries(train.n_features, queries))


def knn_classify(train: TrainSet, query, k: int) -> int:
    """Majority vote of the k nearest training points (Euclidean).

    Distance ties resolve toward the smaller sample index; a split vote
    goes to the class with the smaller summed neighbour distance, and
    class 0 if even that ties.
    """
    if not 1 <= k <= train.n_samples:
        raise ValueError(f"k must be in [1, {train.n_samples}]")
    q = _validate_query(train.n_features, query)
    return int(_knn_labels(train, np.array([k]), q[None, :])[0, 0])


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


def _violating_sets(y, alpha, c, grad):
    """``-y * grad`` masked to the index sets I_up (``-inf`` outside) and
    I_low (``+inf`` outside), from which each update takes its violating
    pair; ``f_up.max() - f_low.min()`` is the violation gap."""
    f = -y * grad
    up = ((y > 0.0) & (alpha < c)) | ((y < 0.0) & (alpha > 0.0))
    low = ((y < 0.0) & (alpha < c)) | ((y > 0.0) & (alpha > 0.0))
    return np.where(up, f, -np.inf), np.where(low, f, np.inf)


def _smo_loop(Q, y, c, alpha, grad, max_iter, tol):
    """Pairwise updates of the dual variables until the violation gap
    drops below ``tol``: each update optimizes the maximally violating
    pair. ``alpha`` and ``grad`` (``Q @ alpha - 1``) are updated in
    place. Returns ``(updates, gap)``: the number of updates made, or -1
    when ``max_iter`` updates did not reach ``tol``, and the last gap
    computed. ``kernels.smo_solve`` is the compiled port of this loop;
    this one is its oracle and the path without a compiler. The two give
    the same bits except for which NaN an overflowed result holds."""
    gap = math.inf
    for it in range(max_iter):
        f_up, f_low = _violating_sets(y, alpha, c, grad)
        i = int(np.argmax(f_up))
        j = int(np.argmin(f_low))
        gap = f_up[i] - f_low[j]
        if gap < tol:
            return it, gap

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
    return -1, gap


_SMO = kernels.smo_solve or _smo_loop


def svm_train(train: TrainSet, c: float) -> SvmModel:
    """Soft-margin linear SVM fitted on the dual.

    Repeatedly optimizes the maximally violating pair of dual variables
    until the violation gap drops below 1e-3; class 0 maps to y = -1.
    The update loop runs in the compiled library when it is loaded
    (``kernels.smo_solve``) and in :func:`_smo_loop` otherwise, with the
    same bits either way; ``SvmModel.updates`` counts its updates.
    Raises :class:`ConvergenceError` if the duals overflow (features so
    large that the Gram matrix is not finite) or if the budget of 100000
    updates is exhausted first.
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    X = train.features
    y = np.where(train.labels == 1, 1.0, -1.0)
    n = train.n_samples
    alpha = np.zeros(n)
    grad = -np.ones(n)
    c = float(c)
    # Overflow shows up as non-finite duals, which the check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        Q = (y[:, None] * y[None, :]) * (X @ X.T)
        updates, gap = _SMO(Q, y, c, alpha, grad, _SVM_MAX_ITER, _SVM_STOP_TOL)
    if not (np.isfinite(alpha).all() and np.isfinite(grad).all()):
        raise ConvergenceError("dual optimization overflowed: non-finite duals")
    if updates < 0:
        f_up, f_low = _violating_sets(y, alpha, c, grad)
        gap = float(f_up.max() - f_low.min())
        raise ConvergenceError(
            f"dual optimization stalled: violation gap {gap:.3e} after "
            f"{_SVM_MAX_ITER} updates"
        )

    weights = X.T @ (alpha * y)
    decisions = X @ weights
    on_margin = (alpha > _SVM_SV_TOL) & (alpha < c - _SVM_SV_TOL)
    if on_margin.any():
        bias = float((y[on_margin] - decisions[on_margin]).mean())
    else:
        # No free support vector: center the boundary between the
        # innermost decision values of the two classes.
        bias = -0.5 * float(decisions[y < 0].max() + decisions[y > 0].min())

    support = np.flatnonzero(alpha > _SVM_SV_TOL)
    return SvmModel(weights, bias, alpha, support, c, float(gap), updates)


def svm_predict(model: SvmModel, query) -> int:
    q = _validate_query(model.weights.shape[0], query)
    return int(float(q @ model.weights + model.bias) > 0.0)


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


def _checked_multipliers(multipliers) -> np.ndarray:
    m = np.asarray(multipliers, dtype=np.float64).reshape(-1)
    if not (m > 0.0).all():
        raise ValueError("bandwidth_multiplier must be positive")
    return m


def nbc_train(train: TrainSet, bandwidth_multiplier: float = 1.0) -> NbcModel:
    """Per class and feature, a Gaussian KDE with Silverman bandwidths.

    The bandwidth is ``multiplier * 1.06 * sigma * n^(-1/5)`` with the
    feature's standard deviation floored, so constant features stay
    usable.
    """
    values, bandwidths, log_priors = _nbc_fit(
        train, _checked_multipliers(bandwidth_multiplier)
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
    bits either way.
    """
    log_joint = np.empty(bandwidths.shape[:1] + queries.shape[:1] + (2,))
    for cls in (0, 1):
        V = class_values[cls]
        h = bandwidths[:, cls]
        z = (queries[:, None, :] - V)[None] / h[:, None, None, :]
        log_kde = _logsumexp(-0.5 * z * z, axis=2)
        log_kde -= (math.log(V.shape[0]) + np.log(h * math.sqrt(2.0 * math.pi)))[:, None]
        log_joint[..., cls] = log_priors[cls] + log_kde.sum(axis=-1)
    posteriors = np.exp(log_joint - _logsumexp(log_joint, axis=-1)[..., None])
    # guard the unit-sum invariant against rounding when the shifted
    # log joints are huge in magnitude
    posteriors /= posteriors.sum(axis=-1, keepdims=True)
    return posteriors


def nbc_grid_labels(train: TrainSet, multipliers, queries) -> np.ndarray:
    """:func:`nbc_train` and :func:`nbc_predict` for every bandwidth
    multiplier and every row of ``queries`` at once: a
    (len(multipliers), n_queries) array of labels."""
    fit = _nbc_fit(train, _checked_multipliers(multipliers))
    posteriors = _nbc_posteriors(*fit, _validate_queries(train.n_features, queries))
    return (posteriors[..., 1] > posteriors[..., 0]).astype(np.int64)


def nbc_predict(model: NbcModel, query):
    """Returns ``(label, posteriors)``; a posterior tie goes to class 0.

    The kernel sums go through :func:`_logsumexp`, so the results do not
    depend on which SciPy release is installed.
    """
    q = _validate_query(model.bandwidths.shape[1], query)
    posteriors = _nbc_posteriors(
        model.class_values, model.bandwidths[None], model.log_priors, q[None, :]
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
_SCG_SIGMA0 = 1e-4


def _unpack(wvec: np.ndarray, d: int, h: int):
    w1 = wvec[: d * h].reshape(d, h)
    b1 = wvec[d * h : d * h + h]
    w2 = wvec[d * h + h : d * h + 2 * h]
    b2 = wvec[-1]
    return w1, b1, w2, b2


def _loss_and_grad(w, X, t, d, h, ridge, with_loss):
    """Unchecked core of :func:`mlp_loss_and_grad` on float64 arrays.

    Returns ``(loss, grad)``; ``loss`` is None unless ``with_loss``.
    """
    w1, b1, w2, b2 = _unpack(w, d, h)

    hidden = expit(X @ w1 + b1)
    out = expit(hidden @ w2 + b2)
    loss = None
    if with_loss:
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


def mlp_loss_and_grad(wvec, features, targets, hidden_count, ridge):
    """Penalized cross-entropy and its exact gradient.

    Logistic activations on both layers; the ridge penalty covers the
    weight matrices but not the biases. The log arguments are clipped,
    which leaves the gradient untouched anywhere the outputs are not
    saturated past 1e-12.
    """
    X = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    w = np.asarray(wvec, dtype=np.float64)
    return _loss_and_grad(w, X, t, X.shape[1], int(hidden_count), ridge, True)


def _sum(a, axis=0):
    """The sum along ``axis``, added left to right: a cumulative sum adds
    in order, where ``np.sum`` and BLAS choose their own order."""
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def _dot(a, b) -> float:
    """``a @ b`` with the products added left to right."""
    return float(_sum(a * b))


def _exp_or_inf(v):
    """``math.exp`` that overflows to ``inf``, as C's ``exp`` does,
    instead of raising ``OverflowError``."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _expit(x):
    """``1 / (1 + exp(-x))`` elementwise, with the C library's ``exp``
    (``math.exp``), as the compiled loop computes it."""
    values = (-x).ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, values), np.float64, len(values))
    except OverflowError:
        e = np.fromiter(map(_exp_or_inf, values), np.float64, len(values))
    return 1.0 / (1.0 + e.reshape(x.shape))


def _log(x):
    """The C library's ``log`` of each element of a 1-D array."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, len(x))


def _fixed_loss_and_grad(w, X, t, h, ridge, with_loss):
    """:func:`_loss_and_grad` in the fixed order of ``kernels.scg_solve``:
    every sum runs left to right and ``exp`` and ``log`` are the C
    library's, so the bits do not depend on BLAS or NumPy's SIMD code."""
    d = X.shape[1]
    w1, b1, w2, b2 = _unpack(w, d, h)

    # The sums over features and over samples loop in Python over the
    # summed axis: cumulative sums of (samples, d, h) products cost more.
    columns = X.T[:, :, None]
    pre = columns[0] * w1[0]
    for x, w1_k in zip(columns[1:], w1[1:]):
        pre += x * w1_k
    hidden = _expit(pre + b1)
    out = _expit(_sum(hidden * w2[None, :], axis=1) + b2)
    loss = None
    if with_loss:
        safe = np.clip(out, 1e-12, 1.0 - 1e-12)
        loss = -float(_sum(t * _log(safe) + (1.0 - t) * _log(1.0 - safe)))
        loss += 0.5 * ridge * (_dot(w1.ravel(), w1.ravel()) + _dot(w2, w2))

    delta_out = out - t
    g_w2 = _sum(hidden * delta_out[:, None]) + ridge * w2
    g_b2 = float(_sum(delta_out))
    delta_hidden = (delta_out[:, None] * w2[None, :]) * hidden * (1.0 - hidden)
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
    ``tol``. Returns ``(w, loss_trace, steps, capped)``: the final
    weights, the loss after each accepted step (the first entry is the
    initial loss), the iterations run, and whether ``max_iter`` ran out
    first. ``kernels.scg_solve`` is the compiled port of this loop; this
    one is its oracle and the path without a compiler. Both use
    :func:`_fixed_loss_and_grad`'s order, and left-to-right dot
    products, so they give the same bits on every host whose C library
    computes ``exp`` and ``log`` alike."""
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
            return w, trace, k - 1, False
        p_sq = _dot(p, p)
        if p_sq == 0.0:
            return w, trace, k - 1, False
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
    return w, trace, max_iter, True


_SCG = kernels.scg_solve or _scg_loop


def mlp_train(
    train: TrainSet,
    hidden_count: int,
    ridge: float = 0.01,
    seed: int = 0,
) -> MlpModel:
    """Fit by scaled conjugate gradients.

    Deterministic given the seed; stops when the gradient norm falls
    below ``_MLP_GRAD_TOL`` or after ``_MLP_MAX_ITER`` iterations. Only
    accepted steps extend the loss trace, so it is non-increasing.
    ``MlpModel.steps`` counts the iterations, rejected steps included,
    and ``MlpModel.capped`` is True when the budget ran out first. The
    loop runs in the compiled library when it is loaded
    (``kernels.scg_solve``) and in :func:`_scg_loop` otherwise, with the
    same bits either way, whatever BLAS or SIMD code NumPy uses.
    """
    if hidden_count < 1:
        raise ValueError("hidden_count must be >= 1")
    if ridge < 0.0:
        raise ValueError("ridge must be >= 0")
    rng = np.random.default_rng(seed)
    d = train.n_features
    h = int(hidden_count)
    w1 = rng.uniform(-0.5, 0.5, (d, h)) / math.sqrt(d)
    b1 = np.zeros(h)
    w2 = rng.uniform(-0.5, 0.5, h) / math.sqrt(h)
    w = np.concatenate([w1.ravel(), b1, w2, [0.0]])
    t = train.labels.astype(np.float64)
    w, trace, steps, capped = _SCG(
        train.features, t, h, ridge, w, _MLP_MAX_ITER, _MLP_GRAD_TOL
    )
    w1, b1, w2, b2 = _unpack(w, d, h)
    return MlpModel(
        w1.copy(), b1.copy(), w2.copy(), float(b2), ridge, trace, steps, capped
    )


def mlp_predict(model: MlpModel, query):
    """Returns ``(label, probability_of_class_1)``."""
    q = _validate_query(model.w1.shape[0], query)
    hidden = expit(q @ model.w1 + model.b1)
    prob = float(expit(hidden @ model.w2 + model.b2))
    return int(prob > 0.5), prob
