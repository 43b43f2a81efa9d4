"""Span tracing of generank's layers from outside the program.

Each traced function is replaced, for the length of one traced iteration,
at the name its caller looks it up by (``cli.load_tables``,
``crossval.svm_train``, ``kernels.mamdani_scores`` ...). A span records its
name, the command it belongs to, its parent, start, end and a few counts.
Spans stay in memory; :func:`layer_metrics` folds them into per-layer
totals when the iteration ends and :func:`write_spans` writes them out when
the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field

CLASSIFIER_FUNCS = (
    "knn_classify",
    "svm_train",
    "svm_predict",
    "nbc_train",
    "nbc_predict",
    "mlp_train",
    "mlp_predict",
)

# (module, attribute looked up by the caller, span name)
PATCHES = (
    ("generank.cli", "main", "cli.main"),
    ("generank.cli", "load_tables", "dataio.load_tables"),
    ("generank.cli", "quantile_normalize", "dataio.quantile_normalize"),
    ("generank.cli", "save_dataset", "dataio.save_dataset"),
    ("generank.cli", "save_ranking", "rankers.save_ranking"),
    # cli imports rank_genes inside _cmd_rank; crossval binds it at import
    ("generank.rankers", "rank_genes", "rankers.rank_genes"),
    ("generank.crossval", "rank_genes", "rankers.rank_genes"),
    ("generank.fgf", "fgf_rank", "fgf.fgf_rank"),
    ("generank.fgf", "compute_fuzzy_inputs", "fgf.compute_fuzzy_inputs"),
    ("generank.gaopt", "compute_fuzzy_inputs", "fgf.compute_fuzzy_inputs"),
    # the per-gene Welch tie-break loops of fgf_rank and optimize_fgf
    ("generank.fgf", "welch_t_test", "fgf.tie_break"),
    ("generank.gaopt", "welch_t_test", "fgf.tie_break"),
    ("generank.kernels", "mamdani_scores", "kernels.mamdani_scores"),
    ("generank.gaopt", "optimize_fgf", "gaopt.optimize_fgf"),
    ("generank.crossval", "sweep_gene_counts", "crossval.sweep_gene_counts"),
    ("generank.crossval", "inner_search", "crossval.inner_search"),
) + tuple(("generank.crossval", f, f"classifiers.{f}") for f in CLASSIFIER_FUNCS)

# Span name -> metric suffixes reported for it.
TIMED = {
    "dataio.load_tables": ("s", "calls"),
    "dataio.quantile_normalize": ("s",),
    "dataio.save_dataset": ("s",),
    "rankers.rank_genes": ("s", "calls"),
    "rankers.save_ranking": ("s",),
    "fgf.fgf_rank": ("s",),
    "fgf.compute_fuzzy_inputs": ("s",),
    "fgf.tie_break": ("s", "calls"),
    "kernels.mamdani_scores": ("s", "calls"),
    "gaopt.optimize_fgf": ("s", "self_s"),
    "crossval.sweep_gene_counts": ("s", "self_s"),
    "crossval.inner_search": ("s", "calls", "self_s"),
    "cli.main": ("self_s",),
    **{f"classifiers.{f}": ("s", "calls") for f in CLASSIFIER_FUNCS},
}

UNITS = {"s": "s", "self_s": "s", "calls": "count"}

# Derived metrics and their units, in report order.
DERIVED = {
    "rankers.rank_genes.genes_per_s": "genes/s",
    "kernels.mamdani_scores.genes": "count",
    "kernels.mamdani_scores.genes_per_s": "genes/s",
    "kernels.backend_compiled": "bool",
    "gaopt.fitness_evals": "count",
    "gaopt.distinct_fitness_ratio": "ratio",
    "classifiers.mlp_train.steps": "count",
    "crossval.rankings_per_fold": "ratio",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


def metric_units() -> dict:
    """Every per-layer metric name -> unit."""
    units = {
        f"{name}.{suffix}": UNITS[suffix]
        for name, suffixes in TIMED.items()
        for suffix in suffixes
    }
    units.update(DERIVED)
    return units


def _attrs(name, args, result) -> dict:
    """Counts recorded on a span, read from its arguments or result."""
    if name == "kernels.mamdani_scores":
        return {"genes": len(args[0]), "params": tuple(float(v) for v in args[3])}
    if name == "rankers.rank_genes":
        return {"genes": args[0].n_genes}
    if name == "crossval.sweep_gene_counts":
        return {"folds": args[0].n_samples}
    if name == "classifiers.mlp_train":
        return {"steps": len(result.loss_trace) - 1}
    return {}


@dataclass
class Span:
    name: str
    command: int
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; :meth:`install` returns an undo."""

    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if name == "cli.main":
                self.command += 1
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self.command, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs = _attrs(name, args, result)
            return result

        return traced

    def install(self):
        saved = []
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

        def undo():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return undo


def write_spans(path, tracers) -> None:
    """Write every traced pass's spans as JSON lines; ``id`` and ``parent``
    index the spans of the same pass (-1: no parent)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for number, tracer in enumerate(tracers):
            for index, span in enumerate(tracer.spans):
                record = {
                    "pass": number,
                    "id": index,
                    "command": span.command,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                }
                fh.write(json.dumps(record) + "\n")


def _has_ancestor(spans, span, name) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(spans, backend: str) -> dict:
    """Fold one iteration's spans into per-layer totals (no overhead)."""
    total = {name: 0.0 for name in TIMED}
    calls = {name: 0 for name in TIMED}
    child = {name: 0.0 for name in TIMED}
    for span in spans:
        duration = span.end - span.start
        total[span.name] += duration
        calls[span.name] += 1
        if span.parent >= 0:
            child[spans[span.parent].name] += duration
    out = {}
    for name, suffixes in TIMED.items():
        values = {"s": total[name], "calls": calls[name], "self_s": total[name] - child[name]}
        for suffix in suffixes:
            out[f"{name}.{suffix}"] = values[suffix]

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name)

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    ranked = attr_sum("rankers.rank_genes", "genes")
    scored = attr_sum("kernels.mamdani_scores", "genes")
    fitness = [
        s.attrs["params"]
        for s in spans
        if s.name == "kernels.mamdani_scores"
        and _has_ancestor(spans, s, "gaopt.optimize_fgf")
    ]
    fold_rankings = sum(
        1
        for s in spans
        if s.name in ("rankers.rank_genes", "fgf.fgf_rank")
        and _has_ancestor(spans, s, "crossval.sweep_gene_counts")
    )
    folds = attr_sum("crossval.sweep_gene_counts", "folds")
    out.update(
        {
            "rankers.rank_genes.genes_per_s": rate(ranked, total["rankers.rank_genes"]),
            "kernels.mamdani_scores.genes": scored,
            "kernels.mamdani_scores.genes_per_s": rate(
                scored, total["kernels.mamdani_scores"]
            ),
            "kernels.backend_compiled": int(backend != "numpy"),
            "gaopt.fitness_evals": len(fitness),
            "gaopt.distinct_fitness_ratio": rate(len(set(fitness)), len(fitness)),
            "classifiers.mlp_train.steps": attr_sum("classifiers.mlp_train", "steps"),
            "crossval.rankings_per_fold": rate(fold_rankings, folds),
        }
    )
    return out
