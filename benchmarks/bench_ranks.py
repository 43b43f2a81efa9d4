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
Wilcoxon, ROC and fuzzy rankers take.

With ``--folds N`` it also ranks the training folds of a leave-one-out
loop, each sample held out in turn, on N seeded datasets of 2 to 15
samples a class (interleaved labels, 40 genes with ties, constant rows
and signed zeros), by ``rankers.rank_folds`` in one call and by
``rankers.rank_genes`` on each fold, for the t-test, rank-sum and ROC
rankers. A fold that keeps fewer than two samples of a class must make
``rank_folds`` raise. It exits 1 on any order or p-value bit that
differs, and reports the total time of each path per method. Invoke from
the repository root:

    PYTHONPATH=src python3 benchmarks/bench_ranks.py --shapes 1000x100 12600x101 --folds 40
"""

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from generank import kernels, rankers
from generank.dataio import Dataset


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


def fold_dataset(rng):
    """A seeded dataset of 2 to 15 samples a class, the classes
    interleaved, whose 40 genes hold ties, constant rows and signed
    zeros."""
    n0, n1 = (int(v) for v in rng.integers(2, 16, 2))
    labels = rng.permutation(np.array([0] * n0 + [1] * n1))
    matrix = np.round(rng.normal(6.0, 1.0, (40, n0 + n1)), int(rng.integers(0, 3)))
    matrix[:5, labels == 1] += 1.0
    matrix[5] = 2.5
    matrix[6] = np.where(labels == 0, 0.0, -0.0)
    return Dataset(matrix, [f"g{i}" for i in range(40)], labels, ("a", "b"))


def per_fold(dataset, method, held_outs):
    """rank_genes on each held-out sample's training fold."""
    rankings = []
    for held_out in held_outs:
        keep = np.arange(dataset.n_samples) != held_out
        fold = replace(dataset, matrix=dataset.matrix[:, keep], labels=dataset.labels[keep])
        rankings.append(rankers.rank_genes(fold, method))
    return rankings


def compare_folds(n_sets, seed):
    """Compare both fold paths on ``n_sets`` seeded datasets; returns the
    total seconds of each path per method."""
    rng = np.random.default_rng(seed)
    times = {m: [0.0, 0.0] for m in rankers.RANKER_METHODS}
    for trial in range(n_sets):
        dataset = fold_dataset(rng)
        sizes = np.bincount(dataset.labels)
        # a fold keeps two samples of each class or is rejected
        valid = sizes[dataset.labels] > 2
        held_outs = np.flatnonzero(valid).tolist()
        for method in rankers.RANKER_METHODS:
            for held_out in np.flatnonzero(~valid).tolist():
                try:
                    rankers.rank_folds(dataset, method, [held_out])
                except ValueError:
                    continue
                sys.exit(f"set {trial}: rank_folds ranked the too small fold of {held_out}")
            # each path starts without the exact rank-sum nulls the other built
            rankers._ranksum_null_counts.cache_clear()
            start = time.perf_counter()
            stacked = rankers.rank_folds(dataset, method, held_outs)
            times[method][0] += time.perf_counter() - start
            rankers._ranksum_null_counts.cache_clear()
            start = time.perf_counter()
            expected = per_fold(dataset, method, held_outs)
            times[method][1] += time.perf_counter() - start
            for held_out, got, want in zip(held_outs, stacked, expected):
                if (
                    got.order.tobytes() != want.order.tobytes()
                    or got.scores.tobytes() != want.scores.tobytes()
                ):
                    sys.exit(
                        f"set {trial} ({sizes[0]} + {sizes[1]} samples), {method}, sample "
                        f"{held_out} held out: rank_folds differs from rank_genes on the fold"
                    )
    return times


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
    parser.add_argument(
        "--folds", type=int, default=0, help="seeded datasets whose folds are compared"
    )
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

    if args.folds < 1:
        return
    times = compare_folds(args.folds, args.seed + 1)
    print(f"{'folds of':>12}{'rank_folds (ms)':>17}{'rank_genes (ms)':>17}")
    for method, (stacked, alone) in times.items():
        print(f"{method:>12}{stacked * 1e3:>17.3f}{alone * 1e3:>17.3f}")
    print(f"the fold rankings of {args.folds} datasets agree bit for bit on both paths")


if __name__ == "__main__":
    main()
