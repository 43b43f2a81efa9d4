"""Check the C matrix reader against float() and time it.

Writes N seeded cell texts of each class in ``CELL_CLASSES`` into matrix
rows, parses them with the C reader (``kernels.parse_matrix_rows``) and
exits 1 on any cell whose bits differ from ``float()``'s. The classes are
the reprs of random bit patterns, of normal and of lognormal draws,
random texts in every strict form, exact halfway points between doubles,
and digit runs that end on either side of the reader's eight-digit steps.
Then reports the reader's time per cell on a raw and on a
quantile-normalized 1,000 x 100 matrix. Invoke from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_reader.py --cells 2000000
"""

import argparse
import random
import sys
import time

import numpy as np

from generank import dataio, kernels

# Cells per row, and rows per parse call when checking.
WIDTH = 100
CHUNK_ROWS = 1000


def _finite_reprs(values):
    return [repr(v) for v in values.tolist() if np.isfinite(v)]


def bit_patterns(rng, n):
    """repr of the doubles with n random 64-bit patterns, the non-finite
    ones left out."""
    return _finite_reprs(rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64))


def normal_reprs(rng, n):
    return _finite_reprs(rng.normal(6.0, 1.0, n))


def lognormal_reprs(rng, n):
    return _finite_reprs(rng.lognormal(0.0, 3.0, n))


def strict_forms(rng, n):
    """Random texts in every form the reader takes: a sign or none,
    leading zeros, 1 to 22 digits around or without a point, and an
    exponent up to +-400 or none, sometimes with 25 digits."""
    r = random.Random(int(rng.integers(2**63)))
    texts = []
    for _ in range(n):
        digits = "%d" % r.randrange(10 ** r.randint(1, 22))
        digits = "0" * r.choice((0, 0, 0, 1, 3, 30)) + digits
        cut = r.randint(0, len(digits))
        form = r.randrange(4)
        if form == 0:
            text = digits
        elif form == 1:
            text = digits[:cut] + "." + digits[cut:] if cut else "0." + digits
        elif form == 2:
            text = "." + digits
        else:
            text = digits + "."
        if r.random() < 0.7:
            e = r.randint(-400, 400)
            width = 25 if r.random() < 0.05 else 1
            text += r.choice("eE") + ("-" if e < 0 else r.choice(("", "+")))
            text += str(abs(e)).zfill(width)
        texts.append(r.choice(("", "", "+", "-")) + text)
    return texts


def halfway_points(rng, n):
    """The exact decimal texts of points halfway between two neighbouring
    doubles, m * 2^j for odd 54-bit m: short ones for small j, where the
    tie must round to even, and long ones up to j = +-60."""
    r = random.Random(int(rng.integers(2**63)))
    texts = []
    for _ in range(n):
        m = 2 * r.randrange(2**52, 2**53) + 1
        j = r.randint(-4, 10) if r.random() < 0.5 else r.randint(-60, 60)
        if j >= 0:
            texts.append(str(m << j))
        else:
            digits = str(m * 5**-j).zfill(1 - j)
            texts.append(digits[:j] + "." + digits[j:])
    return texts


def digit_runs(rng, n):
    """Texts whose digit runs end near a multiple of eight digits, where
    the reader's eight-digit steps give way to single ones: integer and
    fraction runs of 7-9, 15-17 or 23-25 random digits or none, behind
    no zeros or a run of 7 to 40, with a sign and an exponent or none.
    About half of them hold at most 19 significant digits, so that
    Eisel-Lemire and not strtod converts them."""
    r = random.Random(int(rng.integers(2**63)))
    lengths = (0, 7, 8, 9, 15, 16, 17, 23, 24, 25)
    zeros = (0, 0, 0, 7, 8, 9, 16, 17, 40)
    texts = []
    for _ in range(n):
        whole, fraction, lead = r.choice(lengths), r.choice(lengths), r.choice(zeros)
        if r.random() < 0.5:
            whole = r.choice(lengths[:7])
            fraction = r.choice([k for k in lengths if whole + k <= 19])
            # zeros after the point are significant behind a nonzero whole part
            lead = lead if whole == 0 else 0
        text = "0" * r.choice(zeros)
        if whole:
            text += r.choice("123456789") + "".join(r.choices("0123456789", k=whole - 1))
        if fraction or r.random() < 0.8:
            text += "." + "0" * lead + "".join(r.choices("0123456789", k=fraction))
        if text.strip(".") == "":
            text = "0" + text
        if r.random() < 0.3:
            text += "e%d" % r.randint(-300, 300)
        texts.append(r.choice(("", "", "+", "-")) + text)
    return texts


CELL_CLASSES = {
    "bit-patterns": bit_patterns,
    "normal": normal_reprs,
    "lognormal": lognormal_reprs,
    "strict-forms": strict_forms,
    "halfway": halfway_points,
    "digit-runs": digit_runs,
}


def matrix_body(texts):
    """Rows of ``WIDTH`` cells holding ``texts``, the last row padded with
    "0", as the bytes of a matrix file after its header."""
    texts = texts + ["0"] * (-len(texts) % WIDTH)
    return b"".join(
        b"g%d\t" % i + "\t".join(texts[k : k + WIDTH]).encode() + b"\n"
        for i, k in enumerate(range(0, len(texts), WIDTH))
    )


def mismatches(texts):
    """``(text, C reader's value, float()'s value)`` for each text whose
    two values differ in any bit."""
    matrix, _ = kernels.parse_matrix_rows(matrix_body(texts), 0, WIDTH)
    got = matrix.ravel()[: len(texts)]
    want = np.array([float(t) for t in texts])
    wrong = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64)).tolist()
    return [(texts[k], got[k].item(), want[k].item()) for k in wrong]


def _ns_per_cell(matrix, repeats):
    data = matrix_body(list(map(repr, matrix.ravel().tolist())))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernels.parse_matrix_rows(data, 0, WIDTH)
        best = min(best, time.perf_counter() - start)
    return best / matrix.size * 1e9


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cells", type=int, default=200_000, help="cells checked per class"
    )
    parser.add_argument(
        "--repeats", type=int, default=7, help="timed parses per matrix"
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    if kernels.parse_matrix_rows is None:
        raise SystemExit("the C reader is not loaded")
    rng = np.random.default_rng(args.seed)
    chunk = WIDTH * CHUNK_ROWS
    failed = False
    print(f"{'class':>14}  {'cells':>9}  {'mismatches':>10}")
    for name, make in CELL_CLASSES.items():
        cells = bad = 0
        for lo in range(0, args.cells, chunk):
            texts = make(rng, min(chunk, args.cells - lo))
            wrong = mismatches(texts)
            cells += len(texts)
            bad += len(wrong)
            for text, value, expected in wrong[:5]:
                print(f"{name}: {text!r} read as {value!r}, float() gives {expected!r}",
                      file=sys.stderr)
        failed |= bad > 0
        print(f"{name:>14}  {cells:>9}  {bad:>10}")

    raw = rng.normal(6.0, 1.0, (1000, WIDTH))
    for name, matrix in (("raw", raw), ("normalized", dataio.quantile_normalize(raw))):
        print(f"{name} 1000 x {WIDTH}: {_ns_per_cell(matrix, args.repeats):.1f} ns per cell")
    if failed:
        raise SystemExit(1)
    print("every cell's bits agree with float()")


if __name__ == "__main__":
    main()
