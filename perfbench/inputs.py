"""Seeded synthetic inputs for the benchmark, written as generank TSV pairs.

The generators follow the planted designs of the test suite but live here,
so that no change to the tests or to ``generank.dataio`` can change what a
workload feeds the program. Every value is a pure function of the seed.
"""

from __future__ import annotations

import os

import numpy as np

CLASS_NAMES = ("ctrl", "case")


def planted_matrix(n_genes, n_info, n0, n1, shift, seed):
    """N(6, 1) noise with the first ``n_info`` rows shifted in class 1."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(6.0, 1.0, (n_genes, n0 + n1))
    matrix[:n_info, n0:] += shift
    return matrix


def uneven_planted_matrix(n_genes, n_info, n0, n1, seed, shift_range=(0.4, 1.6)):
    """Planted markers with a per-row effect size and row scale.

    Informative row ``i`` is scaled by ``U(0.6, 2.4)`` and its class-1 columns
    move by ``U(*shift_range)`` of that scale, i.e. by that many noise
    standard deviations.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.normal(6.0, 1.0, (n_genes, n0 + n1))
    shifts = rng.uniform(shift_range[0], shift_range[1], n_info)
    scales = rng.uniform(0.6, 2.4, n_info)
    matrix[:n_info] *= scales[:, None]
    matrix[:n_info, n0:] += shifts[:, None] * scales[:, None]
    return matrix


def write_tables(matrix, n0, directory):
    """Write ``matrix.tsv`` and ``labels.tsv`` (class 0 first) under
    ``directory`` with round-trip precision; returns both paths."""
    os.makedirs(directory, exist_ok=True)
    n_genes, n_samples = matrix.shape
    sample_ids = [f"s{j:03d}" for j in range(n_samples)]
    matrix_path = os.path.join(directory, "matrix.tsv")
    labels_path = os.path.join(directory, "labels.tsv")
    with open(matrix_path, "w", encoding="utf-8") as fh:
        fh.write("gene_id\t" + "\t".join(sample_ids) + "\n")
        for i, row in enumerate(matrix.tolist()):
            fh.write(f"g{i:05d}\t" + "\t".join(map(repr, row)) + "\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for j, sid in enumerate(sample_ids):
            fh.write(f"{sid}\t{CLASS_NAMES[0 if j < n0 else 1]}\n")
    return matrix_path, labels_path


def describe(matrix):
    """Input properties the program's cost depends on."""
    rows = np.sort(matrix, axis=1)
    tied_rows = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    cols = np.sort(matrix, axis=0)
    distinct_per_col = 1 + (cols[1:] != cols[:-1]).sum(axis=0)
    return {
        "shape": list(matrix.shape),
        "tied_gene_share": float(tied_rows.mean()),
        "mean_distinct_per_column": float(distinct_per_col.mean()),
    }
