"""Tests for table parsing, validation, normalization and standardization."""

import time

import numpy as np
import pytest

from generank.dataio import (
    DataFormatError,
    Dataset,
    load_dataset,
    load_tables,
    quantile_normalize,
    save_dataset,
    standardize_genes,
)

from conftest import planted_dataset, write_tables


def _write(path, text):
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# matrix parsing


def test_load_round_trip(tmp_path):
    dataset = planted_dataset(7, 2, 4, 5, 1.5, seed=11)
    sample_ids = [f"s{j}" for j in range(dataset.n_samples)]
    matrix_path, labels_path = write_tables(dataset, tmp_path, sample_ids)

    loaded, ids = load_tables(matrix_path, labels_path)
    assert ids == sample_ids
    assert loaded.gene_ids == dataset.gene_ids
    assert loaded.class_names == dataset.class_names
    np.testing.assert_array_equal(loaded.labels, dataset.labels)
    # repr round-trip is exact for float64
    np.testing.assert_array_equal(loaded.matrix, dataset.matrix)


def test_load_dataset_returns_dataset_only(tmp_path):
    dataset = planted_dataset(3, 1, 2, 2, 1.0, seed=0)
    matrix_path, labels_path = write_tables(dataset, tmp_path)
    loaded = load_dataset(matrix_path, labels_path)
    assert isinstance(loaded, Dataset)
    np.testing.assert_array_equal(loaded.matrix, dataset.matrix)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ts3\ng0\t1\t2\t3\t4\ng1\t1\tabc\t3\t4\n")
    _write(labels, "s0\ta\ns1\ta\ns2\tb\ns3\tb\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(matrix, labels)
    # the message must point at the offending row and column
    assert "row 3" in str(err.value)
    assert "s1" in str(err.value)
    assert "abc" in str(err.value)


def test_non_numeric_message_names_first_bad_cell(tmp_path):
    matrix = tmp_path / "m.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ng0\t1\t2\t3\ng1\t1\tx y\tnan1\n")
    with pytest.raises(DataFormatError) as err:
        load_tables(matrix, tmp_path / "unread.tsv")
    assert str(err.value) == f"{matrix}: non-numeric cell at row 3, column 's1': 'x y'"


def test_duplicate_gene_id_rejected(tmp_path):
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ts3\ng0\t1\t2\t3\t4\ng0\t5\t6\t7\t8\n")
    _write(labels, "s0\ta\ns1\ta\ns2\tb\ns3\tb\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        load_dataset(matrix, labels)


def test_ragged_row_rejected(tmp_path):
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ts3\ng0\t1\t2\t3\t4\ng1\t1\t2\n")
    _write(labels, "s0\ta\ns1\ta\ns2\tb\ns3\tb\n")
    with pytest.raises(DataFormatError):
        load_dataset(matrix, labels)


def test_empty_matrix_rejected(tmp_path):
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\n")
    _write(labels, "s0\ta\ns1\tb\n")
    with pytest.raises(DataFormatError):
        load_dataset(matrix, labels)


# ---------------------------------------------------------------------------
# label parsing


def test_labels_unknown_sample_rejected(tmp_path):
    dataset = planted_dataset(3, 1, 2, 2, 1.0, seed=1)
    matrix_path, labels_path = write_tables(dataset, tmp_path)
    _write(labels_path, "s0\ta\ns1\ta\ns2\tb\nghost\tb\n")
    with pytest.raises(DataFormatError):
        load_dataset(matrix_path, labels_path)


def test_labels_one_class_rejected(tmp_path):
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ts3\ng0\t1\t2\t3\t4\n")
    _write(labels, "s0\ta\ns1\ta\ns2\ta\ns3\ta\n")
    with pytest.raises(DataFormatError):
        load_dataset(matrix, labels)


def test_labels_three_classes_rejected(tmp_path):
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ts3\ng0\t1\t2\t3\t4\n")
    _write(labels, "s0\ta\ns1\tb\ns2\tc\ns3\ta\n")
    with pytest.raises(DataFormatError):
        load_dataset(matrix, labels)


def test_labels_duplicate_sample_rejected(tmp_path):
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ts3\ng0\t1\t2\t3\t4\n")
    _write(labels, "s0\ta\ns0\ta\ns2\tb\ns3\tb\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        load_dataset(matrix, labels)


def test_class_one_is_second_name_in_file_order(tmp_path):
    # class order comes from first appearance, not lexicographic order
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ts3\ng0\t1\t2\t3\t4\n")
    _write(labels, "s0\tzeta\ns1\talpha\ns2\tzeta\ns3\talpha\n")
    dataset = load_dataset(matrix, labels)
    assert dataset.class_names == ("zeta", "alpha")
    np.testing.assert_array_equal(dataset.labels, [0, 1, 0, 1])


# ---------------------------------------------------------------------------
# Dataset validation


def test_dataset_requires_two_samples_per_class():
    matrix = np.ones((2, 3))
    with pytest.raises(ValueError):
        Dataset(matrix, ["g0", "g1"], np.array([0, 0, 1]), ("a", "b"))


def test_dataset_rejects_nan():
    matrix = np.ones((1, 4))
    matrix[0, 2] = np.nan
    with pytest.raises(ValueError):
        Dataset(matrix, ["g0"], np.array([0, 0, 1, 1]), ("a", "b"))


def test_dataset_rejects_bad_label_values():
    matrix = np.ones((1, 4))
    with pytest.raises(ValueError):
        Dataset(matrix, ["g0"], np.array([0, 0, 1, 2]), ("a", "b"))


def test_class_values_splits_columns():
    matrix = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    dataset = Dataset(matrix, ["g0"], np.array([0, 1, 0, 1, 1]), ("a", "b"))
    x, y = dataset.class_values(0)
    np.testing.assert_array_equal(x, [1.0, 3.0])
    np.testing.assert_array_equal(y, [2.0, 4.0, 5.0])


def test_save_dataset_default_sample_ids(tmp_path):
    dataset = planted_dataset(2, 1, 2, 2, 1.0, seed=3)
    matrix_path = tmp_path / "m.tsv"
    labels_path = tmp_path / "l.tsv"
    save_dataset(dataset, matrix_path, labels_path)
    header = matrix_path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split("\t")[1:] == ["s0", "s1", "s2", "s3"]


# ---------------------------------------------------------------------------
# quantile normalization


def test_quantile_normalize_equalizes_distributions():
    rng = np.random.default_rng(7)
    matrix = rng.normal(0.0, 1.0, (40, 5)) * rng.uniform(0.5, 3.0, 5)
    out = quantile_normalize(matrix)
    ref = np.sort(out[:, 0])
    for j in range(1, out.shape[1]):
        np.testing.assert_allclose(np.sort(out[:, j]), ref, atol=1e-12)


def test_quantile_normalize_preserves_within_column_order():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(30, 4))
    out = quantile_normalize(matrix)
    for j in range(matrix.shape[1]):
        np.testing.assert_array_equal(
            np.argsort(matrix[:, j], kind="stable"),
            np.argsort(out[:, j], kind="stable"),
        )


def test_quantile_normalize_idempotent():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(25, 6))
    once = quantile_normalize(matrix)
    twice = quantile_normalize(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_quantile_normalize_ties_share_mean_of_reference_span():
    # two tied values in a column take the average of the two reference rows
    matrix = np.array(
        [
            [1.0, 10.0],
            [1.0, 20.0],
            [5.0, 30.0],
        ]
    )
    out = quantile_normalize(matrix)
    ref = np.sort(matrix, axis=0).mean(axis=1)
    assert out[0, 0] == out[1, 0] == pytest.approx((ref[0] + ref[1]) / 2.0)
    assert out[2, 0] == pytest.approx(ref[2])


def test_quantile_normalize_median_flag():
    rng = np.random.default_rng(10)
    matrix = rng.normal(size=(20, 3))
    out = quantile_normalize(matrix, use_median=True)
    ref = np.median(np.sort(matrix, axis=0), axis=1)
    np.testing.assert_allclose(np.sort(out[:, 0]), ref, atol=1e-12)


def _quantile_normalize_loop(matrix, use_median=False):
    """Reference: walk every column element by element, one tie run at a time."""
    X = np.asarray(matrix, dtype=np.float64)
    sorted_cols = np.sort(X, axis=0)
    if use_median:
        reference = np.median(sorted_cols, axis=1)
    else:
        reference = sorted_cols.mean(axis=1)
    out = np.empty_like(X)
    n = X.shape[0]
    for col in range(X.shape[1]):
        order = np.argsort(X[:, col], kind="stable")
        vals = X[order, col]
        start = 0
        while start < n:
            stop = start + 1
            while stop < n and vals[stop] == vals[start]:
                stop += 1
            out[order[start:stop], col] = reference[start:stop].mean()
            start = stop
    return out


def _bit_identity_cases():
    rng = np.random.default_rng(13)
    for trial in range(6):
        n, m = rng.integers(1, 300), rng.integers(1, 40)
        scale = rng.uniform(0.1, 10.0, m)
        yield f"tie-free-{trial}", rng.normal(size=(n, m)) * scale
        for step in (0.1, 1.0 / 3.0, 1.0):
            yield f"rounded-{step:.2f}-{trial}", np.round(rng.normal(size=(n, m)) / step) * step
    constant = rng.normal(size=(50, 6))
    constant[:, 2] = 4.25
    yield "constant-column", constant
    yield "signed-zeros", rng.choice([-0.0, 0.0, -1.5, 2.0], size=(80, 7))
    yield "single-row", rng.normal(size=(1, 9))
    yield "single-column", np.round(rng.normal(size=(60, 1)))


@pytest.mark.parametrize("use_median", [False, True])
def test_quantile_normalize_bit_identical_to_loop(use_median):
    for name, matrix in _bit_identity_cases():
        got = quantile_normalize(matrix, use_median=use_median)
        want = _quantile_normalize_loop(matrix, use_median=use_median)
        assert got.tobytes() == want.tobytes(), name


def test_quantile_normalize_realistic_size_within_budget():
    matrix = np.random.default_rng(14).normal(size=(20_000, 100))
    t0 = time.perf_counter()
    out = quantile_normalize(matrix)
    elapsed = time.perf_counter() - t0
    assert out.shape == matrix.shape
    assert elapsed < 5.0, f"20,000 x 100 took {elapsed:.2f} s"


def test_quantile_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile_normalize(np.ones(4))
    with pytest.raises(ValueError):
        quantile_normalize(np.array([[1.0, np.inf], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# gene standardization


def test_standardize_genes_zero_mean_unit_variance():
    rng = np.random.default_rng(12)
    matrix = rng.normal(3.0, 2.0, (15, 9))
    out = standardize_genes(matrix)
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=1, ddof=1), 1.0, atol=1e-12)


def test_standardize_genes_constant_row_becomes_zero():
    matrix = np.vstack([np.full(6, 4.2), np.arange(6.0)])
    out = standardize_genes(matrix)
    np.testing.assert_array_equal(out[0], np.zeros(6))
    assert out[1].std(ddof=1) == pytest.approx(1.0)
