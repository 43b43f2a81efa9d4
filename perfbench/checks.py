"""Output checks: artifact digests and invariants that hold for any seed."""

from __future__ import annotations

import hashlib
import json
import math
import os

MANIFEST = "manifest.json"


def artifacts(out_dir):
    """Sorted names of the files a command left in ``out_dir``, manifest
    excluded (it carries a timestamp)."""
    return sorted(name for name in os.listdir(out_dir) if name != MANIFEST)


def digest(out_dir) -> str:
    """SHA-256 over every artifact's name and bytes."""
    h = hashlib.sha256()
    for name in artifacts(out_dir):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def artifact_bytes(out_dir) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in artifacts(out_dir))


def _rows(path, header):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise AssertionError(f"{os.path.basename(path)}: bad header")
    return [line.split("\t") for line in lines[1:]]


def _gene_ids(matrix_path):
    with open(matrix_path, "r", encoding="utf-8") as fh:
        fh.readline()
        return [line.split("\t", 1)[0] for line in fh]


def _check_normalize(out_dir, inputs):
    src_matrix, src_labels = inputs
    with open(os.path.join(out_dir, "labels.tsv"), "rb") as a, open(src_labels, "rb") as b:
        if a.read() != b.read():
            raise AssertionError("labels.tsv differs from the input labels")
    with open(os.path.join(out_dir, "matrix.tsv"), "r", encoding="utf-8") as out, open(
        src_matrix, "r", encoding="utf-8"
    ) as src:
        if out.readline() != src.readline():
            raise AssertionError("matrix.tsv header differs from the input")
        for out_line, src_line in zip(out, src, strict=True):
            out_cells = out_line.split("\t")
            if out_cells[0] != src_line.split("\t", 1)[0]:
                raise AssertionError("matrix.tsv gene order differs from the input")
            if not all(math.isfinite(float(v)) for v in out_cells[1:]):
                raise AssertionError("matrix.tsv holds a non-finite value")


def _check_ranking(out_dir, inputs, method):
    rows = _rows(os.path.join(out_dir, f"ranking_{method}.tsv"), "rank\tgene_id\tscore")
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        raise AssertionError("ranking positions are not 1..n")
    if sorted(r[1] for r in rows) != sorted(_gene_ids(inputs[0])):
        raise AssertionError("ranking is not a permutation of the input genes")
    if not all(math.isfinite(float(r[2])) for r in rows):
        raise AssertionError("ranking holds a non-finite score")


def _check_optimize(out_dir, generations):
    with open(os.path.join(out_dir, "fgf_params.json"), "r", encoding="utf-8") as fh:
        params = json.load(fh)
    if sorted(params) != ["fold_change", "rank_sum", "variance"]:
        raise AssertionError("fgf_params.json names the wrong regions")
    for region in params.values():
        if not 0.0 < region["alpha"] < region["beta"] < 1.0:
            raise AssertionError("fgf_params.json holds invalid anchors")
    rows = _rows(os.path.join(out_dir, "ga_trace.tsv"), "generation\tbest_fitness")
    if [int(r[0]) for r in rows] != list(range(generations + 1)):
        raise AssertionError("ga_trace.tsv does not list every generation")
    fitness = [float(r[1]) for r in rows]
    if any(b < a for a, b in zip(fitness, fitness[1:])):
        raise AssertionError("ga_trace.tsv best fitness decreases")


def _check_evaluate(out_dir, n_samples, stem, k_max):
    rows = _rows(os.path.join(out_dir, f"sweep_{stem}.tsv"), "k\taccuracy")
    if [int(r[0]) for r in rows] != list(range(1, k_max + 1)):
        raise AssertionError("sweep does not cover k = 1..k_max")
    accuracy = {int(r[0]): float(r[1]) for r in rows}
    for acc in accuracy.values():
        hits = acc * n_samples
        if not 0.0 <= acc <= 1.0 or abs(hits - round(hits)) > 1e-9:
            raise AssertionError(f"accuracy {acc!r} is not a multiple of 1/{n_samples}")
    with open(os.path.join(out_dir, f"evaluate_{stem}.json"), "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    best_k = min(accuracy, key=lambda k: (-accuracy[k], k))
    if summary["best_k"] != best_k or summary["best_accuracy"] != accuracy[best_k]:
        raise AssertionError("evaluate summary disagrees with its sweep")


def check(argv, n_samples):
    """Raise AssertionError if the artifacts of the command line ``argv``
    (subcommand, then ``--option value`` pairs) break an invariant."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    command = argv[0]
    out_dir = opts["--out"]
    inputs = (opts["--matrix"], opts["--labels"])
    if command == "normalize":
        _check_normalize(out_dir, inputs)
    elif command == "rank":
        _check_ranking(out_dir, inputs, opts["--method"])
    elif command == "optimize-fgf":
        _check_optimize(out_dir, int(opts["--generations"]))
    elif command == "evaluate":
        stem = f"{opts['--method']}_{opts['--classifier']}"
        _check_evaluate(out_dir, n_samples, stem, int(opts["--k-max"]))
    else:
        raise AssertionError(f"no check for command {command!r}")
