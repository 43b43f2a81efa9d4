"""Shared synthetic datasets for the test suite."""

import numpy as np

from generank import kernels
from generank.dataio import Dataset, save_dataset


def unbind(monkeypatch, *names):
    """Unbind the library's bindings ``names``, each named in
    ``kernels.COMPILED``, for the rest of the test, so that the Python
    code their callers fall back to runs. ``svm_grid_solve`` and
    ``mlp_grid_solve`` are read at import, as ``classifiers._SVM_GRID``
    and ``_MLP_GRID``, which tests patch instead."""
    for name in names:
        assert name in kernels.COMPILED, name
        monkeypatch.setattr(kernels, name, None)


def planted_dataset(n_genes, n_info, n0, n1, shift, seed):
    """Gaussian expression matrix whose first n_info genes are shifted in class 1.

    Every gene is N(6, 1) noise; informative rows get a constant mean
    shift added to the class-1 columns. Returns a validated Dataset with
    class 0 first.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.normal(6.0, 1.0, (n_genes, n0 + n1))
    matrix[:n_info, n0:] += shift
    gene_ids = [f"g{i:04d}" for i in range(n_genes)]
    labels = np.array([0] * n0 + [1] * n1)
    return Dataset(matrix, gene_ids, labels, ("ctrl", "case"))


def uneven_planted_dataset(n_genes, n_info, n0, n1, seed):
    """Planted markers whose effect sizes and row scales vary per gene.

    Harder than planted_dataset: each informative row gets its own shift
    drawn from U(0.4, 1.6) and its own scale from U(0.6, 2.4), so no
    single anchor placement is ideal for every marker.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.normal(6.0, 1.0, (n_genes, n0 + n1))
    shifts = rng.uniform(0.4, 1.6, n_info)
    scales = rng.uniform(0.6, 2.4, n_info)
    matrix[:n_info] *= scales[:, None]
    matrix[:n_info, n0:] += shifts[:, None] * scales[:, None]
    gene_ids = [f"g{i:04d}" for i in range(n_genes)]
    labels = np.array([0] * n0 + [1] * n1)
    return Dataset(matrix, gene_ids, labels, ("ctrl", "case"))


def write_tables(dataset, directory, sample_ids=None):
    """Write matrix.tsv and labels.tsv under directory, return both paths."""
    matrix_path = directory / "matrix.tsv"
    labels_path = directory / "labels.tsv"
    save_dataset(dataset, matrix_path, labels_path, sample_ids)
    return matrix_path, labels_path
