"""Expression-matrix ingestion, validation and normalization.

The canonical input is a pair of TSV files: an expression matrix
(rows = genes, columns = samples, header row of sample ids, first column
gene ids) and a label table (``sample_id<TAB>class_name``, no header).
Exactly two classes are supported; the second class name encountered in
the labels file becomes class 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor added to a zero variance before any division by a spread estimate.
VARIANCE_FLOOR = 1e-8


class DataFormatError(ValueError):
    """Raised when an input file violates the expected TSV layout."""


@dataclass
class Dataset:
    """A validated two-class expression dataset.

    Attributes
    ----------
    matrix : ndarray, shape (n_genes, n_samples)
        Expression intensities.
    gene_ids : list of str
        Row identifiers, aligned to ``matrix`` rows.
    labels : ndarray of int, shape (n_samples,)
        Per-sample class, 0 or 1, aligned to ``matrix`` columns.
    class_names : tuple of (str, str)
        Names behind labels 0 and 1.
    """

    matrix: np.ndarray
    gene_ids: list
    labels: np.ndarray
    class_names: tuple

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.matrix.ndim != 2:
            raise ValueError("expression matrix must be 2-D")
        n_genes, n_samples = self.matrix.shape
        if len(self.gene_ids) != n_genes:
            raise ValueError(
                f"gene id count {len(self.gene_ids)} != matrix rows {n_genes}"
            )
        if self.labels.shape != (n_samples,):
            raise ValueError(
                f"label count {self.labels.shape[0]} != matrix columns {n_samples}"
            )
        if len(self.class_names) != 2:
            raise ValueError("exactly two class names required")
        if not np.isfinite(self.matrix).all():
            raise ValueError("expression matrix contains non-finite values")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        for cls in (0, 1):
            count = int((self.labels == cls).sum())
            if count < 2:
                raise ValueError(
                    f"class {self.class_names[cls]!r} has {count} samples, need >= 2"
                )

    @property
    def n_genes(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[1]

    def class_values(self, gene: int):
        """Split one gene's expression values into (class-0, class-1) vectors."""
        row = self.matrix[gene]
        return row[self.labels == 0], row[self.labels == 1]


def _parse_matrix(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise DataFormatError(f"{path}: empty matrix file")
        head_cells = header.rstrip("\n").split("\t")
        sample_ids = head_cells[1:]
        if not sample_ids:
            raise DataFormatError(f"{path}: header row names no samples")
        if len(set(sample_ids)) != len(sample_ids):
            raise DataFormatError(f"{path}: duplicate sample ids in header")
        gene_ids = []
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(sample_ids) + 1:
                raise DataFormatError(
                    f"{path}: row {lineno} has {len(cells) - 1} values, "
                    f"expected {len(sample_ids)}"
                )
            gene_ids.append(cells[0])
            values = np.empty(len(sample_ids))
            for col, cell in enumerate(cells[1:]):
                try:
                    values[col] = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: non-numeric cell at row {lineno}, "
                        f"column {sample_ids[col]!r}: {cell!r}"
                    ) from None
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: matrix has no gene rows")
    if len(set(gene_ids)) != len(gene_ids):
        seen = set()
        dup = next(g for g in gene_ids if g in seen or seen.add(g))
        raise DataFormatError(f"{path}: duplicate gene id {dup!r}")
    return np.vstack(rows), gene_ids, sample_ids


def _parse_labels(path):
    label_of = {}
    class_order = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) != 2:
                raise DataFormatError(
                    f"{path}: line {lineno} must be 'sample_id<TAB>class_name'"
                )
            sample_id, class_name = cells
            if sample_id in label_of:
                raise DataFormatError(f"{path}: duplicate label for {sample_id!r}")
            label_of[sample_id] = class_name
            if class_name not in class_order:
                class_order.append(class_name)
    if len(class_order) > 2:
        raise DataFormatError(
            f"{path}: more than two classes: {', '.join(class_order)}"
        )
    if len(class_order) < 2:
        raise DataFormatError(f"{path}: fewer than two classes")
    return label_of, tuple(class_order)


def load_tables(matrix_path, labels_path):
    """Like :func:`load_dataset` but also returns the sample ids."""
    matrix, gene_ids, sample_ids = _parse_matrix(matrix_path)
    label_of, class_names = _parse_labels(labels_path)

    unknown = sorted(set(label_of) - set(sample_ids))
    if unknown:
        raise DataFormatError(
            f"{labels_path}: unknown sample id(s) in labels: {', '.join(unknown)}"
        )
    missing = [s for s in sample_ids if s not in label_of]
    if missing:
        raise DataFormatError(
            f"{labels_path}: no label for sample(s): {', '.join(missing)}"
        )

    labels = np.array([class_names.index(label_of[s]) for s in sample_ids])
    return Dataset(matrix, gene_ids, labels, class_names), sample_ids


def load_dataset(matrix_path, labels_path) -> Dataset:
    """Read matrix + labels TSV files into a validated :class:`Dataset`.

    The matrix column order defines the sample order; labels are reordered
    to match. Every sample named in the labels file must appear in the
    matrix header and vice versa.
    """
    dataset, _ = load_tables(matrix_path, labels_path)
    return dataset


def save_dataset(dataset: Dataset, matrix_path, labels_path, sample_ids=None):
    """Write a dataset back to the canonical TSV pair.

    Values are written with full round-trip precision so that
    load -> save -> load reproduces bit-equal matrices.
    """
    if sample_ids is None:
        sample_ids = [f"s{i}" for i in range(dataset.n_samples)]
    with open(matrix_path, "w", encoding="utf-8") as fh:
        fh.write("gene_id\t" + "\t".join(sample_ids) + "\n")
        for gid, row in zip(dataset.gene_ids, dataset.matrix):
            fh.write(gid + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for sid, lab in zip(sample_ids, dataset.labels):
            fh.write(f"{sid}\t{dataset.class_names[lab]}\n")


def quantile_normalize(matrix, use_median: bool = False) -> np.ndarray:
    """Force every column onto a common value distribution, rank by rank.

    The reference distribution is the per-rank mean (or median, with
    ``use_median``) of the column-sorted values. Ties within a column
    receive the mean of the reference values over their tied rank span,
    which makes the operation deterministic and idempotent. Ties are
    averaged once per distinct rank span, bit for bit as a walk over every
    element would average them.
    """
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    if not np.isfinite(X).all():
        raise ValueError("matrix contains non-finite values")

    sorted_cols = np.sort(X, axis=0)
    if use_median:
        reference = np.median(sorted_cols, axis=1)
    else:
        reference = sorted_cols.mean(axis=1)

    n, n_cols = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    # Tie runs are found by ``==`` on the values gathered through
    # ``order``, so -0.0 and 0.0 form one run.
    vals = np.take_along_axis(X, order, axis=0)
    tied = vals[1:] == vals[:-1]
    ranked = np.repeat(reference[:, None], n_cols, axis=1)
    # A one-element run keeps its reference value (the mean of one value
    # is that value); a longer run takes ``reference[start:stop].mean()``,
    # memoized per span because every column shares ``reference``.
    span_means = {}
    for col in np.flatnonzero(tied.any(axis=0)):
        starts = np.flatnonzero(np.concatenate(([True], ~tied[:, col])))
        stops = np.append(starts[1:], n)
        long_runs = stops - starts > 1
        for start, stop in zip(starts[long_runs].tolist(), stops[long_runs].tolist()):
            span = (start, stop)
            if span not in span_means:
                span_means[span] = reference[start:stop].mean()
            ranked[start:stop, col] = span_means[span]
    out = np.empty_like(X)
    np.put_along_axis(out, order, ranked, axis=0)
    return out


def standardize_genes(matrix) -> np.ndarray:
    """Scale every row to mean 0 and unit sample standard deviation.

    Rows with zero variance get the variance floor and come out all-zero.
    """
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("matrix must be 2-D with >= 2 columns")
    means = X.mean(axis=1, keepdims=True)
    var = X.var(axis=1, ddof=1, keepdims=True)
    var = np.where(var > 0.0, var, var + VARIANCE_FLOOR)
    return (X - means) / np.sqrt(var)
