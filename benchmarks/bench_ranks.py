"""Check the rank-sum layer's paths against each other and time them.

The layer gives, per gene (row), the rank sum of one class, the tie term
sum(t**3 - t) and the midranks. It is computed three ways on seeded
matrices whose values are rounded to 3 decimals, so that rows hold ties:

- ``stable``: a stable argsort, then ``rankers._tie_ranks`` and NumPy
  sums, the layer as it was before the compiled pass;
- ``numpy``: ``rankers._rank_sums`` without the compiled pass (the
  default argsort, then ``_tie_ranks``), the path taken with no compiler;
- ``c``: ``rankers._rank_sums`` with the compiled pass
  (``kernels.rank_sums``), when the library is loaded.

Exits 1 on any bit that differs between the paths. Then reports the best
time of each path for the rank sum and tie term, the statistics the
Wilcoxon, ROC and fuzzy rankers take. Invoke from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_ranks.py --shapes 1000x100 12600x101
"""

import argparse
import sys
import time

import numpy as np

from generank import kernels, rankers


def stable_path(matrix, in_class, with_ranks=False):
    order = np.argsort(matrix, axis=-1, kind="stable")
    ranks, start, end = rankers._tie_ranks(matrix, order)
    runs = end - start + 1
    w = ranks[:, in_class].sum(axis=1)
    return w, (runs * runs - 1).sum(axis=1), ranks if with_ranks else None


def numpy_path(matrix, in_class, with_ranks=False):
    compiled, kernels.rank_sums = kernels.rank_sums, None
    try:
        return rankers._rank_sums(matrix, in_class, with_ranks)
    finally:
        kernels.rank_sums = compiled


def c_path(matrix, in_class, with_ranks=False):
    return rankers._rank_sums(matrix, in_class, with_ranks)


def _shape(text):
    rows, cols = text.lower().split("x")
    return int(rows), int(cols)


def _best_time(path, matrix, in_class, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        path(matrix, in_class)
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shapes",
        type=_shape,
        nargs="+",
        default=[(1000, 100), (12600, 101)],
        help="genes x samples of each matrix, as 1000x100",
    )
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per path")
    parser.add_argument("--seed", type=int, default=24)
    args = parser.parse_args(argv)

    paths = {"stable": stable_path, "numpy": numpy_path}
    if kernels.rank_sums is not None:
        paths["c"] = c_path
    print(f"paths: {', '.join(paths)}")
    print(f"{'shape':>12}" + "".join(f"{name + ' (ms)':>14}" for name in paths))

    rng = np.random.default_rng(args.seed)
    for rows, cols in args.shapes:
        matrix = np.round(rng.normal(6.0, 1.0, (rows, cols)), 3)
        in_class = rng.permutation(cols) < cols // 2
        outputs = {name: path(matrix, in_class, True) for name, path in paths.items()}
        reference = outputs["stable"]
        for name, output in outputs.items():
            for label, got, expected in zip(("w", "tie term", "ranks"), output, reference):
                if got.dtype != expected.dtype or got.tobytes() != expected.tobytes():
                    sys.exit(f"{rows}x{cols}: the {name} path's {label} differs")
        best = {
            name: _best_time(path, matrix, in_class, args.repeats)
            for name, path in paths.items()
        }
        print(f"{f'{rows}x{cols}':>12}" + "".join(f"{best[n] * 1e3:>14.3f}" for n in paths))

    print("rank sums, tie terms and midranks agree bit for bit across paths")


if __name__ == "__main__":
    main()
