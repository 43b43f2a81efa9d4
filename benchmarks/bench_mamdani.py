"""Benchmark the batch fuzzy-inference kernel, NumPy against C.

Runs the NumPy kernel and, when the library is loaded, the C kernel on
identical batches of two kinds, checks that the scores agree bit for
bit, and reports per-call wall time plus throughput. A ``random`` batch draws every input from U(0, 1), so nearly
every gene has its own class heights. A ``plateau`` batch puts most
inputs on a few levels, below 0, above 1 and on either side of the
anchors, so that many genes share their class heights and the C
kernel's centroid memo answers them. Invoke from the repository root:

    python3 benchmarks/bench_mamdani.py --sizes 1000 10000 100000
"""

import argparse
import statistics
import time

import numpy as np

from generank import _mamdani_py, kernels


PARAMS = np.array([0.2, 0.8, 0.25, 0.75, 0.15, 0.85])

# Plateau levels: out of range, on the plateaus outside every anchor pair
# of PARAMS, and at the medium peak that all three pairs share.
LEVELS = (-0.1, 0.0, 0.1, 0.5, 0.9, 1.0, 1.2)


def _random_batch(rng, size):
    fc, var, rs = rng.random((3, size))
    return fc, var, rs, PARAMS


def _plateau_batch(rng, size):
    """Inputs on LEVELS, one in ten drawn from U(0, 1) instead."""
    values = rng.choice(LEVELS, size=(3, size))
    drawn = rng.random((3, size)) < 0.1
    values[drawn] = rng.random(int(drawn.sum()))
    fc, var, rs = values
    return fc, var, rs, PARAMS


BATCHES = {"random": _random_batch, "plateau": _plateau_batch}


def _time_call(impl, batch, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        impl(*batch)
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1000, 10000, 100000],
        help="batch sizes (genes per call) to benchmark",
    )
    parser.add_argument(
        "--repeats", type=int, default=7, help="timed repetitions per size"
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    impls = {"numpy": _mamdani_py.mamdani_scores}
    if kernels.mamdani_kernel is not None:
        impls["c"] = kernels.mamdani_kernel
    rng = np.random.default_rng(args.seed)
    print(f"active backend: {kernels.BACKEND}; available: {', '.join(impls)}")
    compiled = [name for name in impls if name != "numpy"]
    header = f"{'size':>8} {'batch':>8}  " + "".join(f"{name + ' (ms)':>16}" for name in impls)
    header += "".join(f"{name + ' speedup':>14}" for name in compiled)
    print(header)

    for size in args.sizes:
        for kind, make in BATCHES.items():
            batch = make(rng, size)
            reference = None
            best = {}
            for name, impl in impls.items():
                scores, clamped = impl(*batch)
                if reference is None:
                    reference = scores, int(clamped)
                elif scores.tobytes() != reference[0].tobytes() or int(clamped) != reference[1]:
                    raise SystemExit(f"backend {name} disagrees with reference on {kind} {size}")
                best[name], _ = _time_call(impl, batch, args.repeats)
            row = f"{size:>8} {kind:>8}  " + "".join(f"{best[n] * 1e3:>16.3f}" for n in impls)
            row += "".join(f"{best['numpy'] / best[n]:>13.1f}x" for n in compiled)
            print(row)

    print("scores agree bit for bit across backends")


if __name__ == "__main__":
    main()
