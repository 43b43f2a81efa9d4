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

from generank import kernels

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
        if not ((self.labels == 0) | (self.labels == 1)).all():
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


def _raise_non_numeric(path, lineno, sample_ids, cells):
    """Name the first cell of a row that ``float()`` rejects."""
    for sample_id, cell in zip(sample_ids, cells):
        try:
            float(cell)
        except ValueError:
            raise DataFormatError(
                f"{path}: non-numeric cell at row {lineno}, "
                f"column {sample_id!r}: {cell!r}"
            ) from None


def _parse_matrix(path):
    """Read a matrix TSV into ``(matrix, gene_ids, sample_ids)``.

    The rows are parsed in C (``kernels.parse_matrix_rows``) when they are
    in the strict form that reader takes, the file holds no carriage
    return, and its header and gene ids are valid UTF-8. Otherwise, or
    without the compiled library, the whole file goes through
    :func:`_parse_matrix_lines`, the C reader's oracle. Both give the same
    bits, and both raise through the same header and gene-id checks.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    parsed = _parse_matrix_strict(path, data)
    del data
    return _parse_matrix_lines(path) if parsed is None else parsed


def _parse_matrix_strict(path, data):
    """``_parse_matrix``'s result for the file's bytes, or None when the
    C reader is missing or the file must go through the line reader."""
    header_end = data.find(b"\n") + 1
    if kernels.parse_matrix_rows is None or header_end == 0 or b"\r" in data:
        return None
    try:
        sample_ids = _sample_ids(path, data[:header_end].decode("utf-8"))
    except (UnicodeDecodeError, DataFormatError):
        # The line reader decodes ahead of the header, so it may fail
        # on a later line first; let it choose the error.
        return None
    parsed = kernels.parse_matrix_rows(data, header_end, len(sample_ids))
    if parsed is None:
        return None
    matrix, ids = parsed
    try:
        # no id holds a newline, and no UTF-8 sequence spans one, so the
        # block decodes exactly when every id does
        gene_ids = ids.decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError:
        return None
    _check_gene_ids(path, gene_ids)
    return matrix, gene_ids, sample_ids


def _sample_ids(path, header):
    """The sample ids a matrix file's header line names, checked."""
    if not header.strip():
        raise DataFormatError(f"{path}: empty matrix file")
    sample_ids = header.rstrip("\n").split("\t")[1:]
    if not sample_ids:
        raise DataFormatError(f"{path}: header row names no samples")
    if len(set(sample_ids)) != len(sample_ids):
        raise DataFormatError(f"{path}: duplicate sample ids in header")
    return sample_ids


def _check_gene_ids(path, gene_ids):
    """Reject a matrix without rows or with a repeated gene id."""
    if not gene_ids:
        raise DataFormatError(f"{path}: matrix has no gene rows")
    if len(set(gene_ids)) != len(gene_ids):
        seen = set()
        dup = next(g for g in gene_ids if g in seen or seen.add(g))
        raise DataFormatError(f"{path}: duplicate gene id {dup!r}")


def _parse_matrix_lines(path):
    """Line-by-line reader: the oracle and fallback of the C reader."""
    with open(path, "r", encoding="utf-8") as fh:
        sample_ids = _sample_ids(path, fh.readline())
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
            try:
                rows.append(
                    np.fromiter(map(float, cells[1:]), np.float64, len(sample_ids))
                )
            except ValueError:
                _raise_non_numeric(path, lineno, sample_ids, cells[1:])
    _check_gene_ids(path, gene_ids)
    return np.vstack(rows), gene_ids, sample_ids


def _parse_labels(path):
    label_of = {}
    class_order = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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


# Cells per block of rows that ``write_rows`` formats together.
_BLOCK_CELLS = 8192


def check_tsv_ids(kind, ids):
    """Raise ValueError naming the first of the strings ``ids``, each a
    ``kind`` ("gene id", "class name" ...), that holds a tab, newline or
    carriage return: no TSV cell can hold one, and the reader would split
    the row at it."""
    text = "".join(ids)
    if "\t" in text or "\n" in text or "\r" in text:
        bad = next(i for i in ids if "\t" in i or "\n" in i or "\r" in i)
        raise ValueError(f"{kind} {bad!r} holds a tab, newline or carriage return")


def write_rows(fh, prefixes, matrix):
    """Write one line per row of ``matrix`` to the binary file ``fh``: its
    string of ``prefixes``, then a tab and ``repr`` of each value, tab
    separated. No prefix may hold a newline.

    The C library's ``format_rows`` writes the text, with ``repr``'s
    digits and layout, in blocks of at most ``_BLOCK_CELLS`` cells (one
    row at least), so that its buffer stays small. Without the library
    each row's values go through ``repr``, its oracle."""
    if kernels.format_rows is None:
        for prefix, row in zip(prefixes, matrix):
            fh.write((prefix + "\t" + "\t".join(map(repr, row.tolist())) + "\n").encode())
        return
    n_rows, n_cols = matrix.shape
    step = max(1, _BLOCK_CELLS // max(1, n_cols))
    out = None
    for lo in range(0, n_rows, step):
        block = ("\n".join(prefixes[lo : lo + step]) + "\n").encode()
        text, out = kernels.format_rows(matrix[lo : lo + step], block, out)
        fh.write(text)


def save_dataset(dataset: Dataset, matrix_path, labels_path, sample_ids=None):
    """Write a dataset back to the canonical TSV pair.

    Values are written as ``repr`` writes them, with full round-trip
    precision, so that load -> save -> load reproduces bit-equal matrices
    (see :func:`write_rows`). A sample or gene id or a class name that
    holds a tab, newline or carriage return raises ValueError before a
    file is opened.
    """
    if sample_ids is None:
        sample_ids = [f"s{i}" for i in range(dataset.n_samples)]
    check_tsv_ids("sample id", sample_ids)
    check_tsv_ids("gene id", dataset.gene_ids)
    check_tsv_ids("class name", dataset.class_names)
    with open(matrix_path, "wb") as fh:
        fh.write(("gene_id\t" + "\t".join(sample_ids) + "\n").encode())
        write_rows(fh, dataset.gene_ids, dataset.matrix)
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
    order = np.argsort(X, axis=0)
    # Tie runs are found by ``==`` on the values gathered through
    # ``order``, so -0.0 and 0.0 form one run. Any sort puts equal values
    # side by side, so the runs are the same spans whatever order a run's
    # elements take, and each element of a run gets that span's one value.
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


def floored_scale(X: np.ndarray, axis: int):
    """``(mean, sd)`` of ``X`` along ``axis``, each keeping that axis with
    length 1: ``sd`` is the sample standard deviation, a zero variance
    being raised to the variance floor.

    The block is summed once: these are the steps of NumPy's ``mean`` and
    ``var(ddof=1)``, which both sum it, so the bits are theirs."""
    n = X.shape[axis]
    means = X.sum(axis=axis, keepdims=True) / n
    centered = X - means
    var = (centered * centered).sum(axis=axis, keepdims=True) / (n - 1)
    var = np.where(var > 0.0, var, var + VARIANCE_FLOOR)
    return means, np.sqrt(var)


def standardize_genes(matrix) -> np.ndarray:
    """Scale every row to mean 0 and unit sample standard deviation.

    Rows with zero variance get the variance floor and come out all-zero.
    """
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("matrix must be 2-D with >= 2 columns")
    means, sd = floored_scale(X, axis=1)
    return (X - means) / sd
