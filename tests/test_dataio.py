"""Tests for table parsing, validation, normalization and standardization."""

import importlib.util
import json
import pathlib
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from generank import _cbuild, dataio, kernels
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
# the C reader against the line-by-line reader

needs_reader = pytest.mark.skipif(
    kernels.parse_matrix_rows is None, reason="C library not loaded"
)
needs_writer = pytest.mark.skipif(kernels.format_rows is None, reason="C library not loaded")

_HEAD = b"gene_id\ts0\ts1\ts2\n"


def _parse_both(path, monkeypatch):
    """``_parse_matrix`` with the C reader, then with the line reader alone."""
    fast = dataio._parse_matrix(path)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "parse_matrix_rows", None)
        slow = dataio._parse_matrix(path)
    return fast, slow


def _assert_same(fast, slow):
    assert fast[0].dtype == slow[0].dtype == np.float64
    assert fast[0].shape == slow[0].shape
    assert fast[0].tobytes() == slow[0].tobytes()
    assert fast[1:] == slow[1:]


def _fuzz_rows():
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64, size=(40, 3), dtype=np.uint64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 1.5
    scaled = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-30, 30, size=(40, 3))
    rows = np.vstack([values, scaled, rng.normal(size=(40, 3))])
    return b"".join(
        b"g%d\t" % i + "\t".join(map(repr, row)).encode() + b"\n"
        for i, row in enumerate(rows.tolist())
    )


_LONG = "0." + "0" * 80 + "123456789"
_WIDE_HEAD = b"gene_id\t" + b"\t".join(b"s%d" % j for j in range(200)) + b"\n"
_READER_CASES = {
    # name: (file bytes, whether the C reader takes the file)
    "crlf": (b"gene_id\ts0\ts1\r\ng0\t1.5\t2\r\ng1\t3\t4\r\n", False),
    "lone-cr": (b"gene_id\ts0\ts1\rg0\t1.5\t2\rg1\t3\t4\r", False),
    "empty-lines": (_HEAD + b"\n\ng0\t1\t2\t3\n\n\ng1\t4\t5\t6\n\n", True),
    "whitespace-line": (_HEAD + b"g0\t1\t2\t3\n   \ng1\t4\t5\t6\n", False),
    "tab-only-line": (_HEAD + b"g0\t1\t2\t3\n\t\t\t\ng1\t4\t5\t6\n", False),
    "no-final-newline": (_HEAD + b"g0\t1\t2\t3\ng1\t4\t5\t6", True),
    "wide-row-then-blank-lines": (
        _WIDE_HEAD + b"g0\t" + b"\t".join([b"1"] * 200) + b"\n" * 20000, True
    ),
    "ids-with-spaces-and-non-ascii": (
        "gene_id\tsä\ts 1\tſ2\ngene one\t1\t2\t3\ngéne-β\t4\t5\t6\n \t7\t8\t9\n".encode(),
        True,
    ),
    "empty-id": (_HEAD + b"\t1\t2\t3\n", True),
    # characters str.splitlines() would split at, inside and between ids
    "ids-with-unicode-line-breaks": (
        _HEAD + "g\u2028a\t1\t2\t3\n\x1c\t4\t5\t6\n\x85\u2029\t7\t8\t9\n".encode(),
        True,
    ),
    "underscore": (_HEAD + b"g0\t1_000\t2\t3\n", False),
    "leading-space": (_HEAD + b"g0\t 1.5\t2\t3\n", False),
    "trailing-space": (_HEAD + b"g0\t1.5 \t2\t3\n", False),
    "nan-inf": (_HEAD + b"g0\tnan\tinf\t-Infinity\n", False),
    "arabic-indic-digit": (_HEAD + "g0\t١\t2\t3\n".encode(), False),
    "strict-forms": (_HEAD + b"g0\t1.\t.5\t+1\ng1\t1E5\t-2.5e-3\t7e+2\n", True),
    "out-of-range": (_HEAD + b"g0\t1e999\t-1e-999\t-1e999\n", True),
    "subnormals": (
        _HEAD + b"g0\t5e-324\t2.2250738585072009e-308\t4.9406564584124654e-324\n"
        b"g1\t2.4703282292062328e-324\t2.4703282292062327e-324\t1e-320\n",
        True,
    ),
    "halfway": (
        _HEAD + b"g0\t9007199254740993\t9007199254740993" + b"0" * 40 + b"1"
        b"\t0.1000000000000000055511151231257827021181583404541015625\n",
        True,
    ),
    "long-cells": (
        _HEAD + f"g0\t{_LONG}\t-{_LONG}e2\t{'9' * 30}.5\n".encode()
        + b"g1\t1.2345678901234567e-100\t-1.2345678901234567e-100\t1.23456789012345678e-10\n",
        True,
    ),
    "repeated-texts": (
        _HEAD
        + b"".join(b"g%d\t-0.0\t%d.25\t1.00000000000000%d\n" % (i, i % 3, i % 4) for i in range(50)),
        True,
    ),
    "fuzz": (b"gene_id\ta\tb\tc\n" + _fuzz_rows(), True),
    "19-and-20-digits": (
        _HEAD + b"g0\t1234567890123456789\t12345678901234567890\t9999999999999999999\n"
        b"g1\t0.1234567890123456789\t1.2345678901234567891e-5\t18446744073709551616\n",
        True,
    ),
    "leading-zeros": (
        _HEAD + b"g0\t" + b"0" * 40 + b"1.5\t0." + b"0" * 40 + b"1234567890123456789\t-"
        + b"0" * 30 + b"." + b"0" * 30 + b"12345678901234567890e35\n"
        b"g1\t" + b"0" * 30 + b"\t-0." + b"0" * 30 + b"\t00.00e-5\n",
        True,
    ),
    "range-edges": (
        _HEAD + b"g0\t1e-342\t1e-343\t1e308\n"
        b"g1\t1e309\t1.7976931348623157e308\t1.7976931348623158e308\n"
        b"g2\t1.7976931348623159e308\t-1.7976931348623159e308\t2.2250738585072014e-308\n",
        True,
    ),
    "signed-zeros-and-2^53+1": (_HEAD + b"g0\t-0\t-0.0e-400\t9007199254740993\n", True),
    "long-exponents": (
        _HEAD + b"g0\t1e" + b"0" * 24 + b"1\t1e-" + b"9" * 25 + b"\t0e" + b"9" * 25 + b"\n"
        b"g1\t-1e+" + b"9" * 25 + b"\t1" + b"0" * 30 + b"e-" + b"0" * 24 + b"30\t.5e"
        + b"0" * 30 + b"\n",
        True,
    ),
}


def _float_matrix(data):
    """The cells of a matrix file's rows, each read by ``float()``."""
    lines = data.decode().split("\n")[1:]
    return np.array([[float(c) for c in line.split("\t")[1:]] for line in lines if line])


@pytest.mark.parametrize("name", sorted(_READER_CASES))
def test_c_reader_matches_line_reader(tmp_path, monkeypatch, name):
    data, strict = _READER_CASES[name]
    path = tmp_path / "m.tsv"
    path.write_bytes(data)
    fast, slow = _parse_both(path, monkeypatch)
    _assert_same(fast, slow)
    if strict:
        assert fast[0].tobytes() == _float_matrix(data).tobytes()
    if kernels.parse_matrix_rows is not None:
        assert (dataio._parse_matrix_strict(path, data) is not None) == strict


@needs_reader
def test_strict_file_never_reaches_line_reader(tmp_path, monkeypatch):
    dataset = planted_dataset(30, 2, 4, 5, 1.0, seed=4)
    matrix_path, _ = write_tables(dataset, tmp_path)

    def unexpected(path):
        raise AssertionError("the line reader ran on a strict file")

    monkeypatch.setattr(dataio, "_parse_matrix_lines", unexpected)
    matrix, gene_ids, _ = dataio._parse_matrix(matrix_path)
    assert matrix.tobytes() == dataset.matrix.tobytes()
    assert gene_ids == dataset.gene_ids


@needs_reader
def test_c_reader_converts_texts_differing_in_last_digits(tmp_path, monkeypatch):
    # The texts share their first 15 digits, and texts that repeat come
    # back in other rows and columns.
    rows = [[f"1.0000000000000{(i * 5 + j) % 11:02d}" for j in range(3)] for i in range(4)]
    data = _HEAD + "".join(f"g{i}\t" + "\t".join(r) + "\n" for i, r in enumerate(rows)).encode()
    path = tmp_path / "m.tsv"
    path.write_bytes(data)
    fast, slow = _parse_both(path, monkeypatch)
    _assert_same(fast, slow)
    want = np.array([[float(c) for c in r] for r in rows])
    assert fast[0].tobytes() == want.tobytes()


def _load_bench_reader():
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_reader.py"
    spec = importlib.util.spec_from_file_location("bench_reader", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_c_reader_sweep_matches_float(tmp_path, monkeypatch):
    # 100,000 seeded cells in one file: the reprs of random bit patterns
    # and random texts in every strict form, exponents up to +-400.
    bench = _load_bench_reader()
    rng = np.random.default_rng(23)
    texts = bench.bit_patterns(rng, 50_000) + bench.strict_forms(rng, 50_000)
    head = "gene_id\t" + "\t".join(f"s{j}" for j in range(bench.WIDTH)) + "\n"
    path = tmp_path / "m.tsv"
    path.write_bytes(head.encode() + bench.matrix_body(texts))
    fast, slow = _parse_both(path, monkeypatch)
    _assert_same(fast, slow)
    want = np.array([float(t) for t in texts])
    assert fast[0].ravel()[: len(texts)].tobytes() == want.tobytes()


def _power_of_five_rows():
    """The 128-bit rows of 5^q for -342 <= q <= 324 by fast_float's rule,
    as ``_mamdani.c``'s POW5 comment states it."""
    words = []
    for q in range(-342, 325):
        if q >= 0:
            row = 5**q << 128
        else:
            power = 5**-q
            z = (power - 1).bit_length()
            row = 2 ** (z + 127 if q >= -27 else 2 * z + 128) // power + 1
        row >>= row.bit_length() - 128
        words += [row >> 64, row & (2**64 - 1)]
    return words


def _power_of_five_table():
    source = pathlib.Path(_cbuild.SOURCE).read_text()
    body = source.split("static const uint64_t POW5[2 * 667] = {", 1)[1].split("};", 1)[0]
    return [int(word, 16) for word in re.findall(r"0x([0-9a-f]{16})u", body)]


def test_power_of_five_table_matches_its_rule():
    words = _power_of_five_table()
    assert len(words) == 2 * 667
    assert words == _power_of_five_rows()


def test_power_of_five_rows_bound_powers_of_ten():
    # The writer takes Schubfach's g, floor(b) + 1 for 10^q = b 2^r with
    # 2^125 <= b < 2^126, as (row >> 2) + 1 from the row of q, less one
    # for -27 <= q < 0; that needs each row to be floor(4b) there and
    # floor(4b) + 1 for -27 <= q < 0.
    words = _power_of_five_table()
    for q in range(-342, 325):
        row = words[2 * (q + 342)] << 64 | words[2 * (q + 342) + 1]
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        # floor(2^s 10^q) for the s that gives it 128 bits
        s = 128 - num.bit_length() + den.bit_length()
        while (floor := (num << max(s, 0)) // (den << max(-s, 0))).bit_length() != 128:
            s += 1 if floor.bit_length() < 128 else -1
        assert row == floor + (-27 <= q < 0), q


@needs_reader
def test_c_reader_sizes_its_output_by_the_bytes():
    # 20,000 blank lines under a 200-sample header hold at most 51 rows;
    # sizing by the newline count would ask for 20,000.
    matrix, ids = kernels.parse_matrix_rows(
        _WIDE_HEAD + b"\n" * 20000, len(_WIDE_HEAD), 200
    )
    assert matrix.shape == (0, 200) and ids == b""
    assert len(matrix.base) <= 20000 // 400 + 1


def _read_cell_at_end(cell):
    """The raw C reader's value of the bytes ``cell`` as the last cell of
    a text that ends right after it, with digits lying beyond that end,
    or None when the reader rejects the text."""
    text = b"g\t" + cell
    out, ids, ids_size = np.empty(1), np.empty(len(text), np.uint8), np.empty(1, np.int64)
    rows = kernels._LIB.parse_matrix_rows(
        text + b"12345678\n", len(text), 0, 1, 1, out.ctypes.data, ids.ctypes.data,
        ids_size.ctypes.data,
    )
    return out[0].item() if rows == 1 else None


def _digit_run_cells():
    """Cells whose integer and fraction runs hold 0 to 24 digits, behind
    no zeros, 8 or 13 of them."""
    rng = random.Random(25)

    def digits(k):
        return "".join(rng.choices("0123456789", k=k))

    cells = []
    for zeros in ("", "0" * 8, "0" * 13):
        for a in range(25):
            whole = zeros + digits(a)
            cells += [whole, "." + whole] + [whole + "." + digits(b) for b in range(25)]
    return [cell for cell in cells if cell.strip(".")]


@needs_reader
def test_c_reader_digit_runs_of_every_length(tmp_path, monkeypatch):
    # Runs that end anywhere in or after an eight-digit step, last in the
    # text, so that the eight-byte window meets the end of the bytes.
    cells = _digit_run_cells()
    for cell in cells:
        assert _read_cell_at_end(cell.encode()).hex() == float(cell).hex(), cell
    data = b"gene_id\ts0\n" + "\n".join(f"g{i}\t{c}" for i, c in enumerate(cells)).encode()
    path = tmp_path / "m.tsv"
    path.write_bytes(data)
    assert dataio._parse_matrix_strict(path, data) is not None
    fast, slow = _parse_both(path, monkeypatch)
    _assert_same(fast, slow)
    assert fast[0].ravel().tobytes() == np.array([float(c) for c in cells]).tobytes()


@needs_reader
def test_c_reader_rejects_non_digits_in_digit_runs(tmp_path, monkeypatch):
    # '/' and ':' are the bytes next to '0' and '9'; the others are >= 0x80.
    # Each lands at every offset of an eight-byte window.
    for lead in (b"", b"-", b"98765432", b"0" * 8, b"0.", b".98765432", b"1e"):
        for bad in (b"/", b":", "é".encode(), b"\xff"):
            for k in range(9):
                cell = lead + b"12345678"[:k] + bad + b"87654321"
                assert _read_cell_at_end(cell) is None, cell
                for text in (b"g0\t" + cell + b"\t1\n", b"g0\t1\t" + cell):
                    assert kernels.parse_matrix_rows(text, 0, 2) is None, text
                    path = tmp_path / "m.tsv"
                    path.write_bytes(b"gene_id\ts0\ts1\n" + text)
                    fast = _error_of(path)
                    with monkeypatch.context() as patch:
                        patch.setattr(kernels, "parse_matrix_rows", None)
                        assert _error_of(path) == fast, text


_STRICT_CELL = re.compile(rb"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_MUTATION_BYTES = [bytes([b]) for b in b"0123456789.eE+-\t/: x"] + ["é".encode(), b"\xff"]


@needs_reader
def test_c_reader_accepts_exactly_the_strict_form():
    # Rows of three seeded cells with up to three bytes inserted, replaced
    # or deleted: the reader takes a row exactly when it has three cells
    # that each match the strict form, and gives them float()'s bits.
    bench = _load_bench_reader()
    rng = np.random.default_rng(27)
    r = random.Random(27)
    texts = bench.strict_forms(rng, 6000) + bench.digit_runs(rng, 6000)
    r.shuffle(texts)
    accepted = 0
    for k in range(0, len(texts), 3):
        row = bytearray("\t".join(texts[k : k + 3]).encode())
        for _ in range(r.randint(0, 3)):
            at, byte = r.randrange(len(row) + 1), r.choice(_MUTATION_BYTES)
            row[at : at + r.randrange(2)] = byte if r.random() < 0.7 else b""
        cells = bytes(row).split(b"\t")
        strict = len(cells) == 3 and all(_STRICT_CELL.fullmatch(c) for c in cells)
        text = b"g\t" + bytes(row) + b"\n" * (k % 2)
        parsed = kernels.parse_matrix_rows(text, 0, 3)
        assert (parsed is not None) == strict, text
        if strict:
            accepted += 1
            assert parsed[0].tobytes() == np.array([float(c) for c in cells]).tobytes(), text
    assert 1000 < accepted < 3000


# Reads each (text, n_samples) of a JSON list on stdin with the C reader,
# the text placed to end where a PROT_NONE page begins, and its ids
# buffer, as many bytes as the text like the binding's, likewise, and
# prints each result: the row count, the newline count and the cells'
# float.hex().
_GUARDED_READ = r"""
import ctypes, json, mmap, sys
from generank import kernels

page = mmap.PAGESIZE
buf = mmap.mmap(-1, 4 * page)
base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
for guard in (base + page, base + 3 * page):
    if libc.mprotect(guard, page, 0) != 0:
        raise OSError(ctypes.get_errno(), "mprotect failed")
i64, ptr = ctypes.c_int64, ctypes.c_void_p
parse = ctypes.CFUNCTYPE(i64, ptr, i64, i64, i64, i64, ptr, ptr, ptr)(
    ("parse_matrix_rows", kernels._LIB)
)
count_lines = ctypes.CFUNCTYPE(i64, ptr, i64, i64)(("count_lines", kernels._LIB))
out, ids_size = (ctypes.c_double * 2)(), (i64 * 1)()
results = []
for text, n_samples in json.loads(sys.stdin.read()):
    data = text.encode("latin-1")
    buf[page - len(data) : page] = data
    at = base + page - len(data)
    ids = base + 3 * page - len(data)
    rows = parse(at, len(data), 0, n_samples, 1, out, ids, ids_size)
    cells = [out[j].hex() for j in range(n_samples)] if rows == 1 else []
    results.append([rows, count_lines(at, len(data), 0), cells])
print(json.dumps(results))
"""


def _guarded_cases():
    """(text, n_samples, its cells or None when the reader must reject
    it), each text ending in a cell, a number's part, an id or a newline."""
    digits = "1234567890" * 3
    cases = []
    for k in range(1, 26):
        for cell in (digits[:k], "-0." + digits[:k], "." + "0" * k + "5", "1e" + digits[:k]):
            cases += [
                ("g\t" + cell, 1, [cell]),
                ("g\t1\t" + cell, 2, ["1", cell]),
                ("g\t" + cell + "\n", 1, [cell]),
                ("g\t" + cell + "\n" * 3, 1, [cell]),
            ]
    for text in ("g", "g" * 40, "g\t", "g\t-", "g\t.", "g\t1e", "g\t1e-", "g\t1\t", "g\t1\n\t"):
        cases.append((text, 1, None))
    return cases


@needs_reader
@pytest.mark.skipif(sys.platform == "win32", reason="needs mmap and mprotect")
def test_c_reader_reads_no_byte_past_the_end():
    # A read past the text or a write past the ids buffer faults on a
    # protected page; the reader runs in a child process, so that a fault
    # fails this test alone.
    cases = _guarded_cases()
    completed = subprocess.run(
        [sys.executable, "-c", _GUARDED_READ],
        input=json.dumps([[text, n] for text, n, _ in cases]),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    for (text, _, cells), (rows, lines, values) in zip(cases, json.loads(completed.stdout)):
        assert lines == text.count("\n"), text
        assert rows == (-1 if cells is None else 1), text
        assert values == [float(c).hex() for c in cells or []], text


def _error_of(path):
    try:
        dataio._parse_matrix(path)
    except (DataFormatError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{path} parsed")


_ERROR_CASES = {
    "row-width": _HEAD + b"g0\t1\t2\t3\ng1\t1\t2\n",
    "row-too-wide": _HEAD + b"g0\t1\t2\t3\t4\n",
    "non-numeric": _HEAD + b"g0\t1\t2\t3\ng1\t1\tx y\tnan1\n",
    "non-numeric-empty-cell": _HEAD + b"g0\t1\t\t3\n",
    "non-numeric-hex": _HEAD + b"g0\t0x1p3\t2\t3\n",
    "cr-in-id": _HEAD + b"g\r0\t1\t2\t3\n",
    "duplicate-gene": _HEAD + b"g0\t1\t2\t3\ng1\t4\t5\t6\ng0\t7\t8\t9\n",
    "empty-file": b"",
    "blank-header": b"\n\ng0\t1\t2\n",
    "no-samples": b"gene_id\ng0\n",
    "duplicate-samples": b"gene_id\ts0\ts0\ng0\t1\t2\n",
    "no-gene-rows": _HEAD + b"\n\n",
    "no-gene-rows-wide-many-blank-lines": _WIDE_HEAD + b"\n" * 20000,
    "header-only-no-newline": b"gene_id\ts0\ts1",
    "bad-utf8-cell": _HEAD + b"g0\t1\t\xff2\t3\n",
    "bad-utf8-id": _HEAD + b"g\xc3\x280\t1\t2\t3\n",
    # a sequence cut short at the id's end, where the ids' block puts a newline
    "bad-utf8-id-end": _HEAD + b"g0\t1\t2\t3\ng\xc3\t4\t5\t6\n",
    "bad-utf8-header": b"gene_id\ts\xff0\ts1\ng0\t1\t2\n",
    # an id with no cells that runs to the end of the text
    "id-only-at-end": _HEAD + b"g0",
}


@pytest.mark.parametrize("name", sorted(_ERROR_CASES))
def test_reader_errors_match_line_reader(tmp_path, monkeypatch, name):
    path = tmp_path / "m.tsv"
    path.write_bytes(_ERROR_CASES[name])
    fast = _error_of(path)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "parse_matrix_rows", None)
        slow = _error_of(path)
    assert fast == slow


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
    with pytest.raises(DataFormatError, match=re.escape(f"{labels}: duplicate label for 's0'")):
        load_dataset(matrix, labels)


@pytest.mark.parametrize(
    "text,message",
    [
        ("s0\ta\ns1\ta\textra\ns2\tb\ns3\tb\n", "line 2 must be 'sample_id<TAB>class_name'"),
        ("s0\ta\ns2\tb\n", "no label for sample(s): s1, s3"),
    ],
)
def test_labels_file_faults_are_named(tmp_path, text, message):
    matrix = tmp_path / "m.tsv"
    labels = tmp_path / "l.tsv"
    _write(matrix, "gene_id\ts0\ts1\ts2\ts3\ng0\t1\t2\t3\t4\n")
    _write(labels, text)
    with pytest.raises(DataFormatError, match=re.escape(f"{labels}: {message}")):
        load_dataset(matrix, labels)


def test_labels_with_byte_order_mark_load_the_same_dataset(tmp_path):
    # spreadsheet exports often start a UTF-8 file with a byte-order mark
    dataset = planted_dataset(4, 1, 3, 3, 1.0, seed=2)
    matrix_path, labels_path = write_tables(dataset, tmp_path)
    plain = load_dataset(matrix_path, labels_path)
    marked = tmp_path / "labels_bom.tsv"
    marked.write_bytes(b"\xef\xbb\xbf" + labels_path.read_bytes())
    loaded = load_dataset(matrix_path, marked)
    assert loaded.gene_ids == plain.gene_ids
    assert loaded.class_names == plain.class_names
    np.testing.assert_array_equal(loaded.labels, plain.labels)
    assert loaded.matrix.tobytes() == plain.matrix.tobytes()


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


@pytest.mark.parametrize(
    "matrix,gene_ids,labels,class_names,message",
    [
        (np.ones(4), ["g0"], [0, 0, 1, 1], ("a", "b"), "expression matrix must be 2-D"),
        (np.ones((2, 4)), ["g0"], [0, 0, 1, 1], ("a", "b"), "gene id count 1 != matrix rows 2"),
        (np.ones((1, 4)), ["g0"], [0, 0, 1], ("a", "b"), "label count 3 != matrix columns 4"),
        (np.ones((1, 4)), ["g0"], [0, 0, 1, 1], ("a",), "exactly two class names required"),
    ],
)
def test_dataset_rejects_inconsistent_parts(matrix, gene_ids, labels, class_names, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Dataset(matrix, gene_ids, np.array(labels), class_names)


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
# matrix writer


def _line_writer_bytes(dataset, sample_ids):
    """The matrix file as a row-by-row ``repr`` writer produces it."""
    lines = ["gene_id\t" + "\t".join(sample_ids) + "\n"]
    for gid, row in zip(dataset.gene_ids, dataset.matrix):
        lines.append(gid + "\t" + "\t".join(map(repr, row.tolist())) + "\n")
    return "".join(lines).encode("utf-8")


# Values on either side of repr's switches between fixed and exponent
# notation, at decimal exponents -4 and 16.
_EXPONENT_SWITCH_EDGES = np.array(
    [9999999999999998.0, 1e16, 1.0000000000000002e16, 1e17, 0.0001,
     0.00009999999999999999, 0.00010000000000000002, 1e-5, 123456789012345680.0]
)


def _writer_cases():
    rng = np.random.default_rng(31)
    step = dataio._BLOCK_CELLS // 7  # rows per block at 7 columns
    yield "signed-zeros", rng.choice([-0.0, 0.0, 1.0, -1.0], size=(2 * step + 5, 7))
    edges = _EXPONENT_SWITCH_EDGES
    yield "exponent-switch", rng.choice(np.concatenate([edges, -edges]), size=(step + 3, 7))
    yield "integers", rng.integers(-10**6, 10**6, size=(3 * step + 1, 7)).astype(float)
    yield "powers-of-two", 2.0 ** rng.integers(-1074, 1024, size=(step - 1, 7))
    subnormal = rng.integers(1, 2**52, size=(40, 7), dtype=np.uint64).view(np.float64)
    yield "subnormals", np.vstack([subnormal, np.tile(subnormal[:3], (step, 1))])
    yield "one-row", rng.normal(size=(1, 7))
    distinct = rng.normal(size=(2 * step, 7))
    repeating = np.round(rng.normal(size=(step + 9, 7)), 1)
    yield "distinct-then-repeating", np.vstack([distinct, repeating, distinct[:50]])
    yield "repeating-then-distinct", np.vstack([repeating, distinct, repeating])
    yield "all-distinct", rng.normal(size=(3 * step + 2, 7)) * 1e3
    wide = rng.normal(size=(3 * step, 14))
    yield "non-contiguous", wide[:, ::2]
    yield "transposed", np.round(rng.normal(size=(7, 2 * step + 3)), 2).T


@pytest.mark.parametrize("block_cells", [None, 12])
def test_save_dataset_bytes_match_line_writer(tmp_path, monkeypatch, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(dataio, "_BLOCK_CELLS", block_cells)
    labels = np.array([0, 0, 0, 1, 1, 1, 1])
    sample_ids = [f"s{j}" for j in range(7)]
    for name, matrix in _writer_cases():
        dataset = Dataset(matrix, [f"g{i}" for i in range(len(matrix))], labels, ("a", "b"))
        save_dataset(dataset, tmp_path / "m.tsv", tmp_path / "l.tsv", sample_ids)
        want = _line_writer_bytes(dataset, sample_ids)
        assert (tmp_path / "m.tsv").read_bytes() == want, name


def test_quantile_normalized_round_trip(tmp_path, monkeypatch):
    raw = planted_dataset(2000, 20, 25, 25, 1.0, seed=32)
    normalized = Dataset(
        quantile_normalize(raw.matrix), raw.gene_ids, raw.labels, raw.class_names
    )
    sample_ids = [f"s{j}" for j in range(normalized.n_samples)]
    matrix_path, labels_path = write_tables(normalized, tmp_path, sample_ids)
    assert matrix_path.read_bytes() == _line_writer_bytes(normalized, sample_ids)
    fast, slow = _parse_both(matrix_path, monkeypatch)
    _assert_same(fast, slow)
    assert fast[0].tobytes() == normalized.matrix.tobytes()
    assert fast[1] == normalized.gene_ids


@needs_writer
def test_save_dataset_bytes_match_line_writer_without_library(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "format_rows", None)
    test_save_dataset_bytes_match_line_writer(tmp_path, monkeypatch, None)


@needs_writer
def test_quantile_normalized_round_trip_without_library(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "format_rows", None)
    test_quantile_normalized_round_trip(tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "gene_ids, sample_ids, named",
    [
        (["g0", "g\t1", "g2\n"], None, "gene id 'g\\t1'"),
        (["g0", "g1", "g2\r"], None, "gene id 'g2\\r'"),
        (["g0", "g1", "g2"], ["s0", "s1", "s\n2", "s3\t"], "sample id 's\\n2'"),
    ],
)
def test_save_dataset_refuses_ids_a_row_cannot_hold(tmp_path, gene_ids, sample_ids, named):
    dataset = Dataset(np.ones((3, 4)), gene_ids, np.array([0, 0, 1, 1]), ("a", "b"))
    with pytest.raises(ValueError, match=re.escape(named)):
        save_dataset(dataset, tmp_path / "m.tsv", tmp_path / "l.tsv", sample_ids)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("class_names, named", [
    (("a\tb", "c"), "class name 'a\\tb'"),
    (("a", "c\n"), "class name 'c\\n'"),
    (("a\r", "c\r"), "class name 'a\\r'"),
])
def test_save_dataset_refuses_class_names_a_row_cannot_hold(tmp_path, class_names, named):
    # the labels file holds sample_id<TAB>class_name rows, which the reader
    # would split at the name's tab or newline
    dataset = Dataset(np.ones((3, 4)), ["g0", "g1", "g2"], np.array([0, 0, 1, 1]), class_names)
    with pytest.raises(ValueError, match=re.escape(named)):
        save_dataset(dataset, tmp_path / "m.tsv", tmp_path / "l.tsv")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the C row writer against repr


def _assert_formats_as_repr(values):
    """format_rows' text of ``values`` as a column is repr's, byte for byte."""
    values = np.asarray(values, dtype=np.float64).ravel()
    text, _ = kernels.format_rows(values[:, None], b"\n" * len(values))
    lines = text.tobytes().split(b"\n")
    assert lines == [f"\t{v!r}".encode() for v in values.tolist()] + [b""]


def _bits(words):
    return np.array(words, dtype=np.uint64).view(np.float64)


@needs_writer
def test_writer_extremes_match_repr():
    _assert_formats_as_repr(
        np.concatenate(
            [
                [0.0, -0.0],
                _bits([1, 2, 3, 2**52 - 1, 2**52, 0x7FEFFFFFFFFFFFFF]),
                -_bits([1, 2, 2**52 - 1, 2**52, 0x7FEFFFFFFFFFFFFF]),
            ]
        )
    )


@needs_writer
def test_writer_powers_of_two_and_ten_match_repr():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    for values in (powers, decades):
        # each power with its neighbours, where the interval is uneven
        _assert_formats_as_repr(
            np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
        )


@needs_writer
def test_writer_exponent_switch_edges_match_repr():
    edges = np.concatenate([_EXPONENT_SWITCH_EDGES, [1e-4, 1e15, 1e-4 / 3, 1e16 / 3]])
    _assert_formats_as_repr(
        np.concatenate([edges, -edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    )


@needs_writer
def test_writer_integers_and_seventeen_digits_match_repr():
    near = 2**53 + np.arange(-300, 300)
    rng = np.random.default_rng(17)
    _assert_formats_as_repr(
        np.concatenate(
            [
                near.astype(float), np.arange(-1000, 1001), 10.0 ** np.arange(23),
                # values that need all 17 significant digits to round-trip
                [0.1 + 0.2, 2 / 3, 1 / 3, 5e-324 * 3, 1.0000000000000002, 9007199254740993.0],
                rng.uniform(1, 2, 2000), rng.normal(6.0, 1.0, 2000),
            ]
        )
    )


@needs_writer
def test_writer_non_finite_values_match_repr():
    _assert_formats_as_repr(
        np.concatenate(
            [[np.inf, -np.inf, np.nan, -np.nan], _bits([0x7FF0000000000001, 0xFFF8000000000001])]
        )
    )


@needs_writer
def test_writer_random_bit_patterns_match_repr():
    rng = np.random.default_rng(2025)
    _assert_formats_as_repr(rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64))


@needs_writer
def test_writer_rows_with_prefixes_match_repr():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(6, 3))
    prefixes = ["", "g1", "gène\twith tab", "3", "x" * 70, "last"]
    text, _ = kernels.format_rows(values, ("\n".join(prefixes) + "\n").encode())
    want = "".join(
        p + "".join(f"\t{v!r}" for v in row) + "\n" for p, row in zip(prefixes, values.tolist())
    )
    assert text.tobytes() == want.encode()


@needs_writer
def test_writer_refuses_a_buffer_too_small():
    # every cell takes the most a cell can, so the text fills the bound
    values = np.full((4, 3), -1.2345678901234567e-308)
    prefixes = b"a\nbb\n\nccc\n"
    want = "".join(p + "\t-1.2345678901234567e-308" * 3 + "\n" for p in ("a", "bb", "", "ccc"))
    need = len(want)
    guarded = np.full(need + 64, 0xAB, dtype=np.uint8)
    args = (values.ctypes.data, 4, 3, prefixes, len(prefixes), guarded.ctypes.data)
    # the library refuses a buffer one byte short before writing a byte
    assert kernels._LIB.format_rows(*args, need - 1) == -1
    assert (guarded == 0xAB).all()
    assert kernels._LIB.format_rows(*args, need) == need
    assert guarded[:need].tobytes() == want.encode()
    assert (guarded[need:] == 0xAB).all()
    # the binding writes to a buffer given to it only when it is large enough
    guarded[:] = 0xAB
    text, out = kernels.format_rows(values, prefixes, guarded[: need - 1])
    assert text.tobytes() == want.encode() and out.size == need
    assert (guarded == 0xAB).all()
    text, again = kernels.format_rows(values, prefixes, guarded[:need])
    assert again.ctypes.data == guarded.ctypes.data and text.tobytes() == want.encode()


@pytest.mark.parametrize("prefixes", [b"a\nb\n", b"a\nb\nc", b"a\nb\nc\nd\n"])
@needs_writer
def test_writer_refuses_prefixes_not_one_line_a_row(prefixes):
    out = np.empty(1000, dtype=np.uint8)
    with pytest.raises(ValueError, match="one line per row"):
        kernels.format_rows(np.zeros((3, 2)), prefixes, out)


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


_ARGSORT = np.argsort


def _argsort_reversing_ties(X, axis=0):
    """An argsort of ``X`` along axis 0 that reverses every run of equal
    values from the stable sort's order."""
    order = _ARGSORT(X, axis=axis, kind="stable")
    vals = np.take_along_axis(X, order, axis=0)
    for col in range(X.shape[1]):
        starts = np.flatnonzero(np.concatenate(([True], vals[1:, col] != vals[:-1, col])))
        for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), len(X)]):
            order[start:stop, col] = order[start:stop, col][::-1]
    return order


@pytest.mark.parametrize("use_median", [False, True])
def test_quantile_normalize_bytes_do_not_depend_on_tie_order(monkeypatch, use_median):
    # Integer values with heavy ties, each zero signed at random.
    rng = np.random.default_rng(15)
    matrices = [
        rng.integers(-3, 4, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        for shape in ((1, 5), (40, 7), (301, 12))
    ]
    want = [quantile_normalize(X, use_median=use_median).tobytes() for X in matrices]
    for argsort in (
        lambda X, axis=0: _ARGSORT(X, axis=axis, kind="stable"),
        _argsort_reversing_ties,
    ):
        monkeypatch.setattr(np, "argsort", argsort)
        got = [quantile_normalize(X, use_median=use_median).tobytes() for X in matrices]
        assert got == want


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


@pytest.mark.parametrize("axis", [0, 1])
def test_floored_scale_has_the_bits_of_numpys_mean_and_var(axis):
    # one sum of the block for each statistic, in the steps of NumPy's
    # mean and var(ddof=1): their bits at every length from 2 to 300,
    # across the pairwise-sum thresholds 8 and 128, for one lane (summed
    # pairwise) and several (summed lane by lane), in C and Fortran order,
    # with a constant lane among them
    rng = np.random.default_rng(1101)
    for n in range(2, 301):
        for lanes in (1, 2, 5):
            X = rng.normal(size=(n, lanes)) * 10.0 ** rng.uniform(-3.0, 3.0)
            X += rng.normal() * 100.0
            if lanes == 5:
                X[:, 2] = X[0, 2]
            if axis == 1:
                X = X.T
            for block in (np.ascontiguousarray(X), np.asfortranarray(X)):
                means, sd = dataio.floored_scale(block, axis)
                var = block.var(axis=axis, ddof=1, keepdims=True)
                floored = np.where(var > 0.0, var, var + dataio.VARIANCE_FLOOR)
                assert means.tobytes() == block.mean(axis=axis, keepdims=True).tobytes()
                assert sd.tobytes() == np.sqrt(floored).tobytes()


def test_standardize_genes_constant_row_becomes_zero():
    matrix = np.vstack([np.full(6, 4.2), np.arange(6.0)])
    out = standardize_genes(matrix)
    np.testing.assert_array_equal(out[0], np.zeros(6))
    assert out[1].std(ddof=1) == pytest.approx(1.0)
