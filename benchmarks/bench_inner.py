"""Check the inner search's compiled and Python paths against each other and time them.

Nested LOOCV picks the nearest-neighbour voter's k, the SVM's box bound,
the naive Bayes bandwidth multiplier and the perceptron's hidden width
by ``crossval.inner_search``, a stratified cross-validation. When the C
library is loaded, each fold assignment is scored in one library call
(``kernels.fold_search``, with one scorer per classifier): every fold
gathered, standardized and voted on, fitted or scored in C, the naive
Bayes exp, log and log1p called back from NumPy. Otherwise the Python
fold loop does it (``crossval._scaled``, then the grid through
``classifiers.knn_grid_labels``, ``svm_grid_labels``,
``nbc_grid_labels`` or ``mlp_grid_labels``). This script
draws seeded blocks of samples x features with 0/1 labels, among them one
feature (standardized by NumPy's pairwise sum) with 8 to 150 rows,
several features, constant columns, values rounded so that distances tie,
and signed zeros. On each it compares every candidate's count of correct
test labels on both paths, for the inner search and for the one-fold
search that predicts a held-out sample, and exits 1 on any difference.
The blocks' seeds take one, two and three uint32 words in turn, so that
the library's port of NumPy's ``SeedSequence`` hashes seeds of every
length that the perceptron's fits derive from.
Then it reports the median time of one ``inner_search`` call on each
path at the shapes of a nested LOOCV of 10 and of 40 samples. Invoke from
the repository root:

    PYTHONPATH=src python3 benchmarks/bench_inner.py --blocks 200
"""

import argparse
import statistics
import sys
import time

import numpy as np

from generank import crossval, kernels

CLASSIFIERS = ("knn", "svm", "nbc", "mlp")
# (training samples, features) of the blocks compared
SHAPES = ((9, 1), (9, 2), (16, 1), (19, 3), (39, 5), (60, 2), (150, 1))
# (training samples, features) of the blocks timed: the inner searches of
# a nested LOOCV of 10 samples at k = 1 and 2, and of 40 at k = 5
TIMED = ((9, 1), (9, 2), (39, 5))


def python_path(run):
    """``run()`` with the library's fold search unbound."""
    bound, kernels.fold_search = kernels.fold_search, None
    try:
        return run()
    finally:
        kernels.fold_search = bound


def block(rng, n, d):
    """A seeded block of ``n`` samples, both classes at least 3 strong,
    and ``d`` features: class 1 shifted, sometimes rounded to halves (tied
    distances, signed zeros) or holding a constant column."""
    n1 = int(rng.integers(3, n - 2))
    labels = rng.permutation(np.array([0] * (n - n1) + [1] * n1))
    features = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2.0, 2.0)
    features[labels == 1] += rng.uniform(0.5, 2.0) * features.std()
    kind = rng.integers(3)
    if kind == 1:
        features = np.round(features * 2.0 / features.std()) / 2.0
        features[::4] *= -0.0
    elif kind == 2:
        features[:, rng.integers(d)] = rng.normal()
    return features, labels


def block_seed(trial):
    """The seed of block ``trial``: ``trial`` itself, one uint32 word, for
    every third block, and an int of two or of three words, its top word
    ``trial + 1``, for the others."""
    return trial + (0, 2**32, 2**64)[trial % 3] * (trial + 1)


def compare(classifier, features, labels, seed):
    """The name of the search whose counts differ between the paths, or
    None; a block the library leaves to the Python loop counts as no
    comparison and returns "deferred"."""
    n_folds = min(crossval.MAX_INNER_FOLDS, int(np.bincount(labels).min()))
    folds = crossval.stratified_folds(labels, n_folds, seed)
    held_out = seed % len(labels)
    alone = np.ones(len(labels), dtype=np.int64)
    alone[held_out] = 0
    searches = {
        "inner search": (folds, n_folds, (seed,), True),
        "held-out fit": (alone, 1, (seed, held_out, features.shape[1], 1), False),
    }
    grid = crossval._hyper_grid(classifier, features.shape[1])
    for name, (assignment, n, parts, by_fit) in searches.items():
        arguments = (classifier, grid, features, labels, assignment, n, parts, by_fit)
        compiled = crossval._compiled_counts(*arguments)
        if compiled is None:
            return "deferred"
        python = python_path(lambda: crossval._fold_counts(*arguments))
        if compiled.tolist() != python.tolist():
            return name
    return None


def median_time(run, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=200, help="blocks compared per classifier")
    parser.add_argument("--repeats", type=int, default=40, help="timed calls per path and shape")
    parser.add_argument("--seed", type=int, default=28)
    args = parser.parse_args(argv)

    if kernels.fold_search is None:
        print("the C library is not loaded: only the Python fold loop runs, nothing to compare")
    else:
        rng = np.random.default_rng(args.seed)
        for classifier in CLASSIFIERS:
            deferred = 0
            for trial in range(args.blocks):
                n, d = SHAPES[trial % len(SHAPES)]
                features, labels = block(rng, n, d)
                differs = compare(classifier, features, labels, block_seed(trial))
                if differs == "deferred":
                    deferred += 1
                elif differs:
                    sys.exit(
                        f"{classifier} block {trial} ({n} x {d}): the {differs}'s counts "
                        "differ between the compiled and Python paths"
                    )
            print(
                f"{classifier}: {args.blocks - deferred} blocks agree on both paths, "
                f"{deferred} left to the Python loop"
            )

    print(f"{'search':>12}{'shape':>8}{'python (ms)':>14}{'compiled (ms)':>15}")
    rng = np.random.default_rng(args.seed + 1)
    for classifier in CLASSIFIERS:
        for n, d in TIMED:
            features, labels = block(rng, n, d)

            def search():
                return crossval.inner_search(features, labels, classifier, seed=3)

            python = median_time(lambda: python_path(search), args.repeats)
            compiled = (
                f"{median_time(search, args.repeats) * 1e3:>15.3f}"
                if kernels.fold_search is not None else f"{'-':>15}"
            )
            print(f"{classifier:>12}{f'{n}x{d}':>8}{python * 1e3:>14.3f}{compiled}")


if __name__ == "__main__":
    main()
