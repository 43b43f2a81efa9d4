"""Fuzzy gene filter: graded fusion of three per-gene statistics.

Every gene is summarized by three inputs scaled to [0, 1]: absolute
log2 fold change, pooled within-class variance of its standardized
profile, and rank-sum deviation. A 27-rule Mamdani system with
piecewise-linear low/medium/high partitions merges them into a score in
(0, 1); higher means more discriminative. The partition anchors are the
tunable parameters the genetic optimizer searches over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from generank import _mamdani_py, kernels
from generank.dataio import Dataset, standardize_genes
from generank.rankers import GeneRanking, rank_sum_deviation, welch_p_values
# welch_t_test stays importable from here: perfbench/tracer.py patches this name.
from generank.rankers import welch_t_test  # noqa: F401

# Smallest admissible ratio argument inside the fold-change log; keeps
# the log finite when a class mean is nonpositive even after the shift.
_MIN_RATIO_ARG = 1e-300

# The three fuzzy inputs, in parameter-vector order.
_INPUTS = ("fold_change", "variance", "rank_sum")

# Running count of inputs that arrived outside [0, 1] and were clamped.
_clamp_total = 0


def clamp_count() -> int:
    """Inputs clamped into [0, 1] since the last reset."""
    return _clamp_total


def reset_clamp_count() -> None:
    global _clamp_total
    _clamp_total = 0


def _note_clamped(n: int) -> None:
    global _clamp_total
    _clamp_total += n


@dataclass(frozen=True)
class FuzzyRegion:
    """Anchors of one input's low/medium/high partition.

    Low plateaus up to ``alpha``, high from ``beta`` on, medium peaks at
    their midpoint; grades blend linearly in between and always sum to 1.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.alpha < self.beta < 1.0:
            raise ValueError(
                f"need 0 < alpha < beta < 1, got ({self.alpha}, {self.beta})"
            )


@dataclass(frozen=True)
class FgfParams:
    """One partition per fuzzy input."""

    fold_change: FuzzyRegion
    variance: FuzzyRegion
    rank_sum: FuzzyRegion

    def to_vector(self) -> np.ndarray:
        regions = [getattr(self, name) for name in _INPUTS]
        return np.array([v for r in regions for v in (r.alpha, r.beta)])

    @classmethod
    def from_vector(cls, vec) -> "FgfParams":
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (6,):
            raise ValueError("parameter vector must hold six values")
        pairs = v.reshape(len(_INPUTS), 2)
        return cls(**{n: FuzzyRegion(float(a), float(b)) for n, (a, b) in zip(_INPUTS, pairs)})

    def to_dict(self) -> dict:
        return {
            name: {"alpha": getattr(self, name).alpha, "beta": getattr(self, name).beta}
            for name in _INPUTS
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FgfParams":
        regions = {}
        for name in _INPUTS:
            try:
                entry = data[name]
                regions[name] = FuzzyRegion(
                    float(entry["alpha"]), float(entry["beta"])
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed parameter entry for {name!r}") from exc
        return cls(**regions)


def default_params() -> FgfParams:
    """Symmetric partitions used before any optimization."""
    return FgfParams(
        FuzzyRegion(0.25, 0.75), FuzzyRegion(0.25, 0.75), FuzzyRegion(0.25, 0.75)
    )


def save_params(params: FgfParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path) -> FgfParams:
    with open(path, "r", encoding="utf-8") as fh:
        return FgfParams.from_dict(json.load(fh))


@dataclass(frozen=True)
class FuzzyInputs:
    """Per-gene fuzzy inputs, each min-max scaled to [0, 1]."""

    fold_change: np.ndarray
    variance: np.ndarray
    rank_sum: np.ndarray


def membership_grades(x: float, region: FuzzyRegion):
    """(low, medium, high) grades of a scalar input; out-of-range values
    are clamped and counted."""
    if x < 0.0 or x > 1.0:
        _note_clamped(1)
        x = 0.0 if x < 0.0 else 1.0
    x = np.array([x], dtype=np.float64)
    grades = _mamdani_py._memberships(x, region.alpha, region.beta)
    return tuple(float(g[0]) for g in grades)


def _minmax_scale(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    hi = values.max()
    if hi > lo:
        return (values - lo) / (hi - lo)
    return np.zeros_like(values)


def compute_fuzzy_inputs(dataset: Dataset) -> FuzzyInputs:
    """Raw statistics per gene, then min-max scaling of each to [0, 1].

    Fold change uses class means of the raw matrix shifted by
    1e-6 times the global mean absolute expression, so slightly negative
    post-normalization means stay inside the log. Variance is the pooled
    within-class variance of the standardized rows. A constant statistic
    scales to all zeros.
    """
    X = dataset.matrix
    labels = dataset.labels
    mask0 = labels == 0
    mask1 = labels == 1
    # first, so that values too large to standardize raise its error
    # before another statistic overflows
    Z = standardize_genes(X)

    shift = 1e-6 * float(np.abs(X).mean())
    m0 = X[:, mask0].mean(axis=1)
    m1 = X[:, mask1].mean(axis=1)
    num = np.maximum(m0 + shift, _MIN_RATIO_ARG)
    den = np.maximum(m1 + shift, _MIN_RATIO_ARG)
    raw_fc = np.abs(np.log2(num / den))

    n0 = int(mask0.sum())
    n1 = int(mask1.sum())
    s0 = Z[:, mask0].var(axis=1, ddof=1)
    s1 = Z[:, mask1].var(axis=1, ddof=1)
    raw_var = ((n0 - 1) * s0 + (n1 - 1) * s1) / (n0 + n1 - 2)

    raw_rs = rank_sum_deviation(X, labels)[0]

    return FuzzyInputs(
        _minmax_scale(raw_fc), _minmax_scale(raw_var), _minmax_scale(raw_rs)
    )


def mamdani_infer(inputs, params: FgfParams) -> float:
    """Score one gene from its (fc, var, rs) triple."""
    fc, var, rs = (float(v) for v in inputs)
    scores, clamped = kernels.mamdani_scores(
        np.array([fc]), np.array([var]), np.array([rs]), params.to_vector()
    )
    _note_clamped(clamped)
    return float(scores[0])


def _fuzzy_order(inputs: FuzzyInputs, vector, tie_p, top_n=None):
    """``(scores, n_clamped, order)`` of genes under the anchors ``vector``.

    The order is by descending fuzzy score, ties by ascending t-test
    p-value ``tie_p``, then gene index, so equal scores (common once
    inputs saturate a plateau) stay deterministic. :func:`fgf_rank` and
    the genetic search's fitness both rank this way; with ``top_n`` the
    order holds only its first ``top_n`` genes (all of them by default),
    which are found by sorting only the genes scored at or above the
    ``top_n``-th largest score. Those genes, kept in index order, include
    every gene of the full order's first ``top_n``, and the stable sort
    leaves the rest of each tie in index order, so the two agree gene for
    gene; for every gene the cut is the least score and keeps them all.
    """
    scores, clamped = kernels.mamdani_scores(
        inputs.fold_change, inputs.variance, inputs.rank_sum, vector
    )
    cut = len(scores) - (len(scores) if top_n is None else min(top_n, len(scores)))
    kept = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
    order = kept[np.lexsort((tie_p[kept], -scores[kept]))]
    return scores, clamped, order[:top_n]


def fgf_rank(dataset: Dataset, params: FgfParams = None) -> GeneRanking:
    """Order genes by descending fuzzy score (see :func:`_fuzzy_order`)."""
    if params is None:
        params = default_params()
    scores, clamped, order = _fuzzy_order(
        compute_fuzzy_inputs(dataset), params.to_vector(), welch_p_values(dataset)
    )
    _note_clamped(clamped)
    return GeneRanking("fgf", order, scores)
