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
path at the shapes of a nested LOOCV of 10 and of 40 samples.

With ``--sweeps N`` it also runs N seeded gene-count sweeps per
classifier (``crossval.sweep_gene_counts``) on each path: with the
library, each sweep binds ``kernels.held_out_search`` once and each
held-out sample takes one call of it (its fold draws, every count's
inner search and its prediction in C),
and without it the per-count Python loop (``crossval._held_out_hits``)
runs with the fold loop in Python. The sweeps' datasets vary the class
sizes (two to twelve samples, so that some inner searches fall back to
the first candidate), the ranking method and scope and the seed's word
count; the script exits 1 on any count that differs, and reports the
median time of one held-out sample on each path at the shapes of a
nested LOOCV of 10 samples (k up to 2) and of 40 (k up to 5). Invoke
from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_inner.py --blocks 200 --sweeps 20
"""

import argparse
import statistics
import sys
import time

import numpy as np

from generank import crossval, kernels
from generank.dataio import Dataset

CLASSIFIERS = ("knn", "svm", "nbc", "mlp")
# (training samples, features) of the blocks compared
SHAPES = ((9, 1), (9, 2), (16, 1), (19, 3), (39, 5), (60, 2), (150, 1))
# (training samples, features) of the blocks timed: the inner searches of
# a nested LOOCV of 10 samples at k = 1 and 2, and of 40 at k = 5
TIMED = ((9, 1), (9, 2), (39, 5))


# (samples, genes, largest gene count) of the held-out samples timed: a
# nested LOOCV of 10 samples at k = 1 and 2, and of 40 at k = 1 to 5
SWEEP_TIMED = ((10, 200, 2), (40, 200, 5))


def python_path(run, names=("fold_search",)):
    """``run()`` with the library's bindings ``names`` unbound."""
    bound = [getattr(kernels, name) for name in names]
    for name in names:
        setattr(kernels, name, None)
    try:
        return run()
    finally:
        for name, binding in zip(names, bound):
            setattr(kernels, name, binding)


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


def sweep_dataset(rng, trial):
    """A seeded dataset of 20 to 60 genes, the first five shifted in class
    1, with 2 to 12 samples a class (3 or more for a training-fold
    ranking, on odd trials), and the ``sweep_gene_counts`` arguments it is
    swept with."""
    rank_scope = ("full", "train")[trial % 2]
    n0, n1 = (int(v) for v in rng.integers(2 + trial % 2, 13, 2))
    n_genes = int(rng.integers(20, 61))
    matrix = rng.normal(size=(n_genes, n0 + n1))
    matrix[:5, n0:] += rng.uniform(0.3, 1.5)
    labels = rng.permutation(np.array([0] * n0 + [1] * n1))
    dataset = Dataset(matrix, [f"g{i}" for i in range(n_genes)], labels, ("a", "b"))
    method = ("ttest", "wilcoxon", "roc")[trial % 3]
    return dataset, method, dict(k_max=int(rng.integers(1, 5)), rank_scope=rank_scope,
                                 seed=block_seed(trial))


def compare_sweep(classifier, dataset, method, options):
    """Whether the sweep's counts are equal on both paths, and how many
    held-out samples the library left to the per-count loop."""
    deferred = []
    loop = crossval._held_out_hits

    def counting(*args):
        deferred.append(args[3])
        return loop(*args)

    crossval._held_out_hits = counting
    try:
        compiled = crossval.sweep_gene_counts(dataset, method, classifier, **options)
    finally:
        crossval._held_out_hits = loop
    python = python_path(
        lambda: crossval.sweep_gene_counts(dataset, method, classifier, **options),
        ("fold_search", "held_out_search"),
    )
    return compiled == python, len(deferred)


def held_out_times(classifier, n, n_genes, k_max, repeats):
    """Median seconds of one held-out sample on a seeded dataset of ``n``
    samples and ``n_genes`` genes: the per-count loop (the fold searches
    in C, one call each), then one call of the search that
    ``held_out_search`` binds for the sweep, or None without the
    library."""
    rng = np.random.default_rng(n)
    matrix = rng.normal(size=(n_genes, n))
    matrix[:10, n // 2:] += 1.5
    labels = [0] * (n // 2) + [1] * (n - n // 2)
    dataset = Dataset(matrix, [f"g{i}" for i in range(n_genes)], labels, ("a", "b"))
    order = crossval.rank(dataset, "ttest").order
    counts = list(range(1, k_max + 1))
    grids = [crossval._hyper_grid(classifier, k) for k in counts]

    def loop():
        return crossval._held_out_hits(dataset, classifier, order, 0, counts, 3)

    compiled = None
    if kernels.held_out_search is not None:
        search = kernels.held_out_search(
            classifier, dataset.matrix, dataset.labels, counts, grids, crossval.MAX_INNER_FOLDS,
            crossval._solver_settings(), 3,
        )

        def call():
            return search(order[:k_max], 0)

        if call() is None:
            sys.exit(f"{classifier} {n} samples: the timed held-out sample was left to Python")
        compiled = median_time(call, repeats)
    return median_time(loop, repeats), compiled


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
    parser.add_argument(
        "--sweeps", type=int, default=0, help="gene-count sweeps compared per classifier"
    )
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

    if args.sweeps < 1:
        return
    if kernels.held_out_search is None:
        print("the C library is not loaded: only the per-count loop runs, nothing to compare")
    else:
        rng = np.random.default_rng(args.seed + 2)
        for classifier in CLASSIFIERS:
            deferred = 0
            for trial in range(args.sweeps):
                dataset, method, options = sweep_dataset(rng, trial)
                same, left = compare_sweep(classifier, dataset, method, options)
                if not same:
                    sys.exit(
                        f"{classifier} sweep {trial} ({method}, {dataset.n_genes} genes x "
                        f"{dataset.n_samples} samples, {options}): the counts differ between "
                        "the compiled and Python paths"
                    )
                deferred += left
            print(
                f"{classifier}: {args.sweeps} sweeps agree on both paths, {deferred} held-out "
                "samples left to the per-count loop"
            )

    print(f"{'held out':>12}{'shape':>12}{'loop (ms)':>12}{'one call (ms)':>15}")
    for classifier in CLASSIFIERS:
        for n, n_genes, k_max in SWEEP_TIMED:
            loop, call = held_out_times(classifier, n, n_genes, k_max, args.repeats)
            call = f"{call * 1e3:>15.3f}" if call is not None else f"{'-':>15}"
            print(f"{classifier:>12}{f'{n}, k<={k_max}':>12}{loop * 1e3:>12.3f}{call}")


if __name__ == "__main__":
    main()
