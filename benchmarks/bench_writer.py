"""Check the C row writer against repr and time it.

Formats N seeded values of each class in ``bench_reader.CELL_CLASSES``
(the values its cell texts read as) with the C writer
(``kernels.format_rows``) and exits 1 on any value whose text differs
from ``repr``'s by a byte. Then reports the time per cell of the writer
alone, of ``dataio.write_rows`` (the rows in blocks, as ``save_dataset``
writes them, to the null device), and of ``write_rows`` without the
library, where ``repr`` formats each cell, on a raw and a
quantile-normalized 1,000 x 100 matrix and on an all-distinct
20,000 x 100 one. Invoke from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_writer.py --cells 2000000
"""

import argparse
import os
import sys
import time

import numpy as np

from bench_reader import CELL_CLASSES, CHUNK_ROWS, WIDTH
from generank import dataio, kernels


def _format_column(values):
    """The C writer's text of ``values``, one row each with no prefix."""
    text, _ = kernels.format_rows(values[:, None], b"\n" * len(values))
    return text.tobytes()


def mismatches(values):
    """``(value, C writer's text, repr)`` for each of ``values`` whose two
    texts differ."""
    got = _format_column(values)
    want = "".join(f"\t{v!r}\n" for v in values.tolist()).encode()
    if got == want:
        return []
    pairs = zip(values.tolist(), got.split(b"\n"), want.split(b"\n"))
    return [(v, g[1:].decode(), w[1:].decode()) for v, g, w in pairs if g != w]


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _ns_per_cell(matrix, repeats):
    """ns per cell of the writer alone, of ``write_rows`` and of
    ``write_rows`` without the library (timed once)."""
    prefixes = [f"g{i}" for i in range(len(matrix))]
    block = ("\n".join(prefixes) + "\n").encode()
    _, out = kernels.format_rows(matrix, block)
    with open(os.devnull, "wb") as sink:
        times = [
            _best(lambda: kernels.format_rows(matrix, block, out), repeats),
            _best(lambda: dataio.write_rows(sink, prefixes, matrix), repeats),
        ]
        fast = kernels.format_rows
        kernels.format_rows = None
        try:
            times.append(_best(lambda: dataio.write_rows(sink, prefixes, matrix), 1))
        finally:
            kernels.format_rows = fast
    return [t / matrix.size * 1e9 for t in times]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cells", type=int, default=200_000, help="values checked per class"
    )
    parser.add_argument(
        "--repeats", type=int, default=7, help="timed runs of each C path per matrix"
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    if kernels.format_rows is None:
        raise SystemExit("the C writer is not loaded")
    rng = np.random.default_rng(args.seed)
    chunk = WIDTH * CHUNK_ROWS
    failed = False
    print(f"{'class':>14}  {'cells':>9}  {'mismatches':>10}")
    for name, make in CELL_CLASSES.items():
        cells = bad = 0
        for lo in range(0, args.cells, chunk):
            values = np.array([float(t) for t in make(rng, min(chunk, args.cells - lo))])
            wrong = mismatches(values)
            cells += len(values)
            bad += len(wrong)
            for value, text, expected in wrong[:5]:
                print(f"{name}: {value.hex()} written as {text!r}, repr gives {expected!r}",
                      file=sys.stderr)
        failed |= bad > 0
        print(f"{name:>14}  {cells:>9}  {bad:>10}")

    raw = rng.normal(6.0, 1.0, (1000, WIDTH))
    matrices = {
        f"raw 1000 x {WIDTH}": raw,
        f"normalized 1000 x {WIDTH}": dataio.quantile_normalize(raw),
        f"all-distinct 20000 x {WIDTH}": rng.normal(6.0, 1.0, (20000, WIDTH)),
    }
    print(f"{'ns per cell':>28}  {'format_rows':>11}  {'write_rows':>10}  {'repr':>8}")
    for name, matrix in matrices.items():
        writer, rows, by_repr = _ns_per_cell(matrix, args.repeats)
        print(f"{name:>28}  {writer:>11.1f}  {rows:>10.1f}  {by_repr:>8.1f}")
    if failed:
        raise SystemExit(1)
    print("every value's text agrees with repr")


if __name__ == "__main__":
    main()
