"""Time one seeded genetic search over the fuzzy filter's anchors.

Runs ``gaopt.optimize_fgf`` with the default settings (a population of
50 over 100 generations, top 20 genes) on a seeded synthetic set of the
prostate data's shape (``uneven_planted_set``, built as the tests'
``uneven_planted_dataset`` builds it, with 12,600 genes, 50 markers and
52 + 50 samples, data seed 1), and prints:

- the search's wall time and the part of it spent in the fuzzy kernel
  (``kernels.mamdani_scores``), with the kernel's call count;
- the chromosomes scored and the repeats the fitness memo answered;
- the SHA-256 of the trace file ``gaopt.save_trace`` writes.

It is reported, not gated: it exits non-zero only if the search fails.
Invoke from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_ga.py
    PYTHONPATH=src python3 benchmarks/bench_ga.py --population 8 --generations 2
"""

import argparse
import hashlib
import os
import tempfile
import time

import numpy as np

from generank import gaopt, kernels
from generank.dataio import Dataset


def uneven_planted_set(n_genes, n_info, n0, n1, seed):
    """n_genes rows of N(6, 1) over n0 + n1 samples whose first n_info
    rows are markers, each scaled by its own U(0.6, 2.4) and shifted in
    the second class by its own U(0.4, 1.6) times that scale."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(6.0, 1.0, (n_genes, n0 + n1))
    shifts = rng.uniform(0.4, 1.6, n_info)
    scales = rng.uniform(0.6, 2.4, n_info)
    matrix[:n_info] *= scales[:, None]
    matrix[:n_info, n0:] += shifts[:, None] * scales[:, None]
    gene_ids = [f"g{i:04d}" for i in range(n_genes)]
    labels = np.array([0] * n0 + [1] * n1)
    return Dataset(matrix, gene_ids, labels, ("ctrl", "case"))


def main(argv=None):
    defaults = gaopt.GaConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, default=defaults.population_size)
    parser.add_argument("--generations", type=int, default=defaults.generations)
    parser.add_argument("--top-n", type=int, default=defaults.top_n_genes)
    parser.add_argument("--seed", type=int, default=defaults.seed, help="the GA's seed")
    parser.add_argument(
        "--shape", type=int, nargs=4, default=[12600, 50, 52, 50],
        metavar=("GENES", "MARKERS", "CLASS0", "CLASS1"),
        help="the synthetic set's genes, planted markers and class sizes",
    )
    parser.add_argument("--data-seed", type=int, default=1)
    args = parser.parse_args(argv)

    dataset = uneven_planted_set(*args.shape, seed=args.data_seed)
    config = gaopt.GaConfig(
        population_size=args.population, generations=args.generations,
        top_n_genes=args.top_n, seed=args.seed,
    )

    kernel = kernels.mamdani_scores
    kernel_s = 0.0
    kernel_calls = 0

    def timed_kernel(*call_args):
        nonlocal kernel_s, kernel_calls
        start = time.perf_counter()
        try:
            return kernel(*call_args)
        finally:
            kernel_s += time.perf_counter() - start
            kernel_calls += 1

    kernels.mamdani_scores = timed_kernel
    try:
        start = time.perf_counter()
        _, trace = gaopt.optimize_fgf(dataset, config)
        wall_s = time.perf_counter() - start
    finally:
        kernels.mamdani_scores = kernel

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ga_trace.tsv")
        gaopt.save_trace(trace, path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()

    genes, markers, n0, n1 = args.shape
    print(
        f"GA {config.population_size} x {config.generations}, top {config.top_n_genes}, "
        f"seed {config.seed}, on {genes} genes x {n0 + n1} samples "
        f"({markers} markers, data seed {args.data_seed}), backend {kernels.BACKEND}"
    )
    print(f"wall_s {wall_s:.3f}")
    print(f"kernel_s {kernel_s:.3f} over {kernel_calls} calls")
    print(f"evaluations {trace.evaluations}")
    print(f"repeats {trace.repeats}")
    print(f"best_fitness {trace.best_fitness[-1]!r}")
    print(f"trace_sha256 {digest}")


if __name__ == "__main__":
    main()
