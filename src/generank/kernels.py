"""ctypes bindings of the compiled library ``_mamdani.c``, whose header
lists its routines and the Python code each one ports.

On first import the library is compiled when no build of the current
source exists and a C compiler (``cc``) is on ``PATH``; see ``_cbuild``.
Without a compiler, or if the build fails (which warns with the
compiler's output), the Python code runs in the library's place. Both
give the same bits, so the choice affects speed alone. The one
difference is which NaN an overflowed SVM fit holds, and
``classifiers.svm_train`` and ``svm_grid_labels`` reject such a fit on
either path.

``COMPILED`` names the bindings, each None when the library is not
loaded, so that a caller runs ``binding or`` its Python code.
``BACKEND`` is ``"c"`` exactly when the library is loaded.
``mamdani_scores`` is the validated entry to the fuzzy kernel, which
runs ``mamdani_kernel`` or ``_mamdani_py.mamdani_scores``.

Every library function is declared by ``_declare`` with one calling
convention: arrays go in as addresses (``c_void_p``), sizes as
``c_int64`` and reals as ``c_double``, and an int64 comes back. The
fuzzy kernel, the two grid solvers and the fold search get their inputs
and their results in one float64 buffer that ``_pack`` lays out in the
order of the C arguments, int64 values as their bits, so that a call
allocates once and its results are views of that buffer. The rank-sum
pass, the matrix reader, the row writer and the held-out search read
their arrays in place and write into arrays of their own, or into a
buffer their caller passes back for reuse. The held-out search is bound
once per sweep of a nested LOOCV, which converts what the sweep's
held-out samples share, and then called once per held-out sample, which
gathers the rows of the top-ranked genes into a buffer of its own, so
that the whole matrix is never copied. Text and the seed entropy go in
as bytes (``c_char_p``); the entropy is each seed part's little-endian
uint32 words (``_seed_words``).
The fold search and the held-out search also take ``_apply_ufunc``, a
ctypes callback through which the naive Bayes scorer gets every exp, log
and log1p from NumPy, so that their bits are the ones NumPy gives the
Python code on the same host. A binding returns None where the Python code
must decide: for text outside the matrix reader's strict form, and for a
fold search or a held-out search whose block, candidates or seed parts
that code would reject or that the library does not score as that code
does, so that the Python code gives its own result or raises its own
error.
"""

from __future__ import annotations

import ctypes
import itertools
import warnings

import numpy as np

from generank import _cbuild, _mamdani_py

_POINTER, _COUNT, _REAL = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


def _load_library():
    """The compiled library, building it if needed, or None when no
    compiler is present or the build or load fails."""
    path = _cbuild.find_library()
    try:
        if path is None:
            if not _cbuild.compiler_present():
                return None
            path = _cbuild.build_library()
        return ctypes.CDLL(path)
    except (_cbuild.BuildError, OSError) as exc:
        warnings.warn(
            f"C kernels unavailable, using the NumPy fallbacks: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _declare(lib, name, *argtypes):
    """``lib``'s function ``name``, declared to take ``argtypes`` and to
    return an int64."""
    fn = getattr(lib, name)
    fn.argtypes = argtypes
    fn.restype = ctypes.c_int64
    return fn


def _pack(inputs, out_sizes):
    """One new float64 buffer holding the arrays ``inputs``, flattened,
    then room for outputs of ``out_sizes`` values, in the order of the C
    arguments, so that one allocation serves a whole call. Only the input
    slots are written. Returns the address in the buffer of each input
    and output, and a view of each."""
    sizes = [a.size for a in inputs] + list(out_sizes)
    ends = list(itertools.accumulate(sizes))
    starts = [0, *ends[:-1]]
    buffer = np.empty(ends[-1])
    for a, start, end in zip(inputs, starts, ends):
        buffer[start:end] = a.ravel()
    base = buffer.ctypes.data
    addresses = [base + 8 * start for start in starts]
    return addresses, [buffer[start:end] for start, end in zip(starts, ends)]


def _bind_mamdani(lib):
    fn = _declare(lib, "mamdani_scores", *(_POINTER,) * 4, _COUNT, _POINTER)

    def mamdani_kernel(fc, var, rs, params):
        """``_mamdani_py.mamdani_scores`` computed in C."""
        if fc.ndim != 1 or not var.shape == fc.shape == rs.shape or params.shape != (6,):
            raise ValueError("fc, var and rs need equal length, params six values")
        n = len(fc)
        addresses, views = _pack((fc, var, rs, params), (n,))
        clamped = fn(*addresses[:4], n, addresses[4])
        return views[4], clamped

    return mamdani_kernel


def _bind_rank_sums(lib):
    fn = _declare(lib, "rank_sums", _POINTER, _POINTER, _COUNT, _COUNT, *(_POINTER,) * 4)

    def rank_sums(X, order, in_class, with_ranks=False):
        """``rankers._rank_sums`` computed in C from ``order``, positions
        that sort each row of ``X`` (``np.argsort(X, axis=-1)``'s): returns
        ``(w, tie_term, ranks)`` as there, ``ranks`` None unless
        ``with_ranks``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        order = np.ascontiguousarray(order, dtype=np.int64)
        in_class = np.ascontiguousarray(in_class, dtype=np.bool_)
        if X.ndim != 2 or order.shape != X.shape or in_class.shape != X.shape[1:]:
            raise ValueError("X must be 2-D, order of X's shape, in_class a flag a column")
        rows, n = X.shape
        w = np.empty(rows)
        tie_term = np.empty(rows, dtype=np.int64)
        ranks = np.empty((rows, n)) if with_ranks else None
        status = fn(
            X.ctypes.data, order.ctypes.data, rows, n, in_class.ctypes.data, w.ctypes.data,
            tie_term.ctypes.data, None if ranks is None else ranks.ctypes.data,
        )
        if status < 0:
            raise ValueError("order does not sort the rows of X")
        return w, tie_term, ranks

    return rank_sums


def _bind_svm_grid(lib):
    fn = _declare(
        lib, "svm_grid_solve",
        _POINTER, _POINTER, _COUNT, _COUNT, _POINTER, _COUNT, _POINTER, _COUNT, _COUNT,
        _REAL, _REAL, *(_POINTER,) * 6,
    )

    def svm_grid_solve(X, y, cs, queries, max_iter, tol, sv_tol):
        """``classifiers._svm_grid_loop`` computed in C: returns ``(alpha,
        weights, bias, gaps, updates, decisions)`` as there."""
        X, y, cs, queries = np.asarray(X), np.asarray(y), np.asarray(cs), np.asarray(queries)
        if X.ndim != 2 or queries.ndim != 2 or cs.ndim != 1:
            raise ValueError("X and queries must be 2-D and cs 1-D")
        (n, d), m, q = X.shape, len(cs), len(queries)
        if y.shape != (n,) or queries.shape[1] != d:
            raise ValueError("y needs one value per row of X and queries X's columns")
        (X_at, y_at, cs_at, queries_at, *out_at), views = _pack(
            (X, y, cs, queries), (m * n, m * d, m, m, m, m * q)
        )
        status = fn(
            X_at, y_at, n, d, cs_at, m, queries_at, q, max_iter, tol, sv_tol, *out_at
        )
        if status < 0:
            raise MemoryError("svm_grid_solve could not allocate its work arrays")
        alpha, weights, bias, gaps, updates, decisions = views[4:]
        return (
            alpha.reshape(m, n), weights.reshape(m, d), bias, gaps, updates.view(np.int64),
            decisions.reshape(m, q),
        )

    return svm_grid_solve


def _bind_mlp_grid(lib):
    fn = _declare(
        lib, "mlp_grid_solve",
        _POINTER, _POINTER, _COUNT, _COUNT, _POINTER, _COUNT, _REAL, _POINTER, _POINTER,
        _COUNT, _COUNT, _REAL, *(_POINTER,) * 4,
    )

    def mlp_grid_solve(X, t, hs, ridge, w, queries, max_iter, tol):
        """``classifiers._mlp_grid_loop`` computed in C: returns ``(w,
        traces, steps, probabilities)`` as there, each trace a view of the
        call's buffer, and leaves ``w`` as given. It takes starting weights
        rather than seeds, so that it can be started from any point, such
        as the saturated and overflowing ones no seed draws that its tests
        compare with the Python loop; ``classifiers._initial_weights``
        draws the seeded ones."""
        X, t, w, queries = np.asarray(X), np.asarray(t), np.asarray(w), np.asarray(queries)
        hs = np.asarray(hs, dtype=np.int64)
        if X.ndim != 2 or queries.ndim != 2 or hs.ndim != 1:
            raise ValueError("X and queries must be 2-D and hs 1-D")
        (n, d), m, q = X.shape, len(hs), len(queries)
        if min(n, d) < 1 or (hs < 1).any() or max_iter < 0:
            raise ValueError("X must be non-empty, every h >= 1 and max_iter >= 0")
        if t.shape != (n,) or queries.shape[1] != d:
            raise ValueError("t needs one value per row of X and queries X's columns")
        if w.shape != (int(((d + 2) * hs + 1).sum()),):
            raise ValueError("w needs d*h + 2*h + 1 values per width")
        # the widths go in as int64 bits, and the weights are trained in
        # the buffer's copy
        (X_at, t_at, hs_at, w_at, queries_at, *out_at), views = _pack(
            (X, t, hs.view(np.float64), w, queries), (m * (max_iter + 1), m, m, m * q)
        )
        status = fn(
            X_at, t_at, n, d, hs_at, m, ridge, w_at, queries_at, q, max_iter, tol, *out_at
        )
        if status < 0:
            raise MemoryError("mlp_grid_solve could not allocate its work area")
        w, _, traces, lengths, steps, probabilities = views[3:]
        traces = traces.reshape(m, max_iter + 1)
        return (
            w, [row[:k] for row, k in zip(traces, lengths.view(np.int64).tolist())],
            steps.view(np.int64), probabilities.reshape(m, q),
        )

    return mlp_grid_solve


# The NumPy functions that the naive Bayes scorer calls back for, at the
# positions of their codes in _mamdani.c's ufunc_fn.
_UFUNCS = (np.exp, np.log, np.log1p)


@ctypes.CFUNCTYPE(_COUNT, _COUNT, _POINTER, _POINTER, _COUNT)
def _apply_ufunc(op, source, target, n):
    """``_UFUNCS[op]`` of the ``n`` float64 values at address ``source``,
    written to the ``n`` at ``target``: the same function on the same kind
    of array (contiguous, its output apart from its input) as the Python
    loop's, so with the same bits. Returns 1, or 0 when anything was
    raised, which leaves the search to the Python loop. Nothing raised
    here can reach the caller: ctypes prints an exception that leaves a
    callback, drops it, and returns whatever the return slot last held,
    which may be an earlier call's 1; so every exception, an interrupt too,
    is caught and becomes a 0."""
    values = _REAL * n
    try:
        _UFUNCS[op](
            np.frombuffer(values.from_address(source)),
            out=np.frombuffer(values.from_address(target)),
        )
    except BaseException:
        return 0
    return 1


def _bind_fold_search(lib):
    fn = _declare(
        lib, "fold_search",
        _COUNT, _POINTER, _COUNT, _COUNT, _POINTER, _POINTER, _COUNT, _POINTER, _COUNT,
        _COUNT, _REAL, _REAL, _REAL, _COUNT, _REAL, ctypes.c_char_p, _COUNT, _COUNT,
        type(_apply_ufunc), _POINTER,
    )

    def fold_search(classifier, features, labels, folds, n_folds, grid, settings, parts, by_fit):
        """Each candidate's correct test labels over the folds ``0 ..
        n_folds - 1`` of ``folds``, as ``crossval._fold_counts``' Python
        loop counts them for ``classifier``, one of ``FOLD_SCORERS``,
        computed in C; or None when that loop must decide: for a block with
        no rows or no columns, perceptron seed parts that are not all
        non-negative ints (``seed_ints``), and a block or candidate that
        the loop rejects or scores with code the library does not repeat
        (``_mamdani.c`` says when), so that it gives its own result or
        raises its own error. Only arrays of the wrong shape raise.
        ``settings`` holds the SVM's update budget, stopping tolerance and
        support-vector tolerance, then the perceptron's ridge, step budget
        and gradient tolerance. The perceptron fit of position ``p`` in
        fold ``f`` is seeded with ``crossval._derived_seed(*parts, f, p)``
        when ``by_fit`` is set, and with ``_derived_seed(*parts)``
        otherwise."""
        X = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        folds = np.asarray(folds, dtype=np.int64)
        grid = np.asarray(grid, dtype=np.float64)
        if X.ndim != 2 or not labels.shape == folds.shape == X.shape[:1]:
            raise ValueError("features must be 2-D, labels and folds a value per row")
        # only the perceptron's scorer reads the seed parts
        seeded = classifier == "mlp"
        if min(X.shape) < 1 or seeded and not seed_ints(parts):
            return None
        (n, d), m = X.shape, grid.size
        entropy = b"".join(map(_seed_words, parts)) if seeded else b""
        # labels and folds go in as int64 bits
        (X_at, labels_at, folds_at, grid_at, correct_at), views = _pack(
            (X, labels.view(np.float64), folds.view(np.float64), grid), (m,)
        )
        status = fn(
            FOLD_SCORERS.index(classifier), X_at, n, d, labels_at, folds_at, n_folds, grid_at,
            m, *settings, entropy, len(entropy) // 4, bool(by_fit), _apply_ufunc, correct_at,
        )
        if status < 0:
            raise MemoryError("fold_search could not allocate its work arrays")
        return None if status else views[-1].view(np.int64)

    return fold_search


def _bind_held_out_search(lib):
    fn = _declare(
        lib, "held_out_search",
        _COUNT, _POINTER, _COUNT, _COUNT, _POINTER, _POINTER, _COUNT, _POINTER, _COUNT,
        _POINTER, _POINTER, _COUNT, _COUNT, _REAL, _REAL, _REAL, _COUNT, _REAL,
        ctypes.c_char_p, _COUNT, type(_apply_ufunc), _POINTER,
    )

    def held_out_search(
        classifier, matrix, labels, counts, grids, max_folds, settings, seed
    ):
        """The nested LOOCV search of one sweep of ``matrix`` (genes x
        samples) for ``classifier``, one of ``FOLD_SCORERS``: returns a
        function ``search(genes, held_out)`` that gives one hit (1 or 0) per
        gene count of ``counts`` for the held-out sample ``held_out``, its
        training fold's genes ranked ``genes`` (their indices, best first,
        ``max(counts)`` of them), as the per-count loop
        ``crossval._held_out_hits`` scores it: the inner search
        (``inner_search`` with ``max_folds`` folds at most and the seed
        ``crossval._derived_seed(seed, held_out, k)``), then the one-fold
        search that predicts the held-out sample, its fit seeded from
        ``(seed, held_out, k, 1)``, all computed in C. ``labels`` holds a
        label per column of ``matrix``, ``grids`` each count's candidates
        and ``settings`` those of ``fold_search``.

        What every held-out sample of the sweep shares is checked and
        converted here, once; ``search`` gathers the rows of ``genes`` into
        a buffer of its own that each call reuses, so that one sweep's
        calls run one at a time. ``search`` returns None wherever that loop
        would leave ``fold_search`` to the Python loop, and
        ``held_out_search`` returns None for a seed that ``seed_ints``
        rejects, so that the loop gives its own counts or raises its own
        error. Only arrays of the wrong shape and gene indices outside
        ``matrix`` raise."""
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        if matrix.ndim != 2 or labels.shape != matrix.shape[1:]:
            raise ValueError("matrix must be 2-D, labels one per column")
        if counts.ndim != 1 or len(counts) < 1 or len(grids) != len(counts):
            raise ValueError("counts must be 1-D and non-empty, with one grid per count")
        if not seed_ints((seed,)):
            return None
        k_max, n = int(counts.max()), matrix.shape[1]
        sizes = np.array([len(grid) for grid in grids], dtype=np.int64)
        values = np.fromiter(itertools.chain.from_iterable(grids), np.float64, sizes.sum())
        entropy = _seed_words(seed)
        rows = np.empty((k_max, n))
        ranked = np.empty(k_max, dtype=np.int64)
        hits = np.empty(len(counts), dtype=np.int64)

        def address(a):
            # the pointer holds a reference to its array, so that the
            # arguments keep every array they point into alive
            return a.ctypes.data_as(_POINTER)

        arguments = [
            FOLD_SCORERS.index(classifier), address(rows), k_max, n, address(ranked),
            address(labels), None, address(counts), len(counts), address(values),
            address(sizes), max_folds, *settings, entropy, len(entropy) // 4, _apply_ufunc,
            address(hits),
        ]

        def search(genes, held_out):
            matrix.take(genes, axis=0, out=rows)
            ranked[:] = genes
            arguments[6] = held_out
            status = fn(*arguments)
            if status < 0:
                raise MemoryError("held_out_search could not allocate its work arrays")
            return None if status else hits.copy()

        return search

    return held_out_search


def _bind_parse(lib):
    fn = _declare(
        lib, "parse_matrix_rows",
        ctypes.c_char_p, _COUNT, _COUNT, _COUNT, _COUNT, *(_POINTER,) * 3,
    )
    count_lines = _declare(lib, "count_lines", ctypes.c_char_p, _COUNT, _COUNT)

    def parse_matrix_rows(data, start, n_samples):
        """The rows of the matrix TSV ``data`` (bytes) after its header,
        which ends at offset ``start``, parsed in C: returns ``(matrix,
        ids)``, ``ids`` the rows' gene ids as bytes, each followed by a
        newline, or None when the rows are not in the strict form
        ``_mamdani.c`` describes."""
        # A row holds n_samples tabs and at least as many digits, so the
        # bytes bound the row count where blank lines inflate the
        # newline count.
        max_rows = min(
            count_lines(data, len(data), start) + (not data.endswith(b"\n")),
            (len(data) - start) // (2 * n_samples) + 1,
        )
        # arrays of their own rather than views of one buffer, so that
        # no result keeps another's memory alive
        matrix = np.empty((max_rows, n_samples))
        ids = np.empty(max(len(data) - start, 1), dtype=np.uint8)
        ids_size = np.zeros(1, dtype=np.int64)
        rows = fn(
            data, len(data), start, n_samples, max_rows, matrix.ctypes.data,
            ids.ctypes.data, ids_size.ctypes.data,
        )
        if rows == -2:
            raise MemoryError("parse_matrix_rows could not copy a cell of 64 bytes or more")
        return None if rows < 0 else (matrix[:rows], ids[: ids_size[0]].tobytes())

    return parse_matrix_rows


def _bind_format(lib):
    fn = _declare(
        lib, "format_rows",
        _POINTER, _COUNT, _COUNT, ctypes.c_char_p, _COUNT, _POINTER, _COUNT,
    )
    # The most bytes a cell's text and its tab take.
    cell_bytes = ctypes.c_int64.in_dll(lib, "format_cell_bytes").value

    def format_rows(values, prefixes, out=None):
        """The text of the rows of the 2-D ``values``, each as its prefix,
        a tab and ``repr`` of each value, tab-separated, and a newline.
        ``prefixes`` (bytes) holds one line per row, each ended by a
        newline, as ``parse_matrix_rows`` returns gene ids. Returns
        ``(text, out)``: the text is a uint8 view of ``out``, the buffer
        the rows were written to, which is the given one when it holds the
        most the rows can take and a new one otherwise, so a caller that
        passes it back reuses it."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("values must be 2-D with at least one column")
        if out is not None and (
            out.dtype != np.uint8 or out.ndim != 1 or not out.flags.c_contiguous
        ):
            raise ValueError("out must be a contiguous 1-D uint8 array")
        need = len(prefixes) + cell_bytes * values.size
        if out is None or out.size < need:
            out = np.empty(need, dtype=np.uint8)
        rows, cols = values.shape
        size = fn(
            values.ctypes.data, rows, cols, prefixes, len(prefixes), out.ctypes.data,
            out.size,
        )
        if size < 0:
            raise ValueError(f"prefixes must hold one line per row, {rows} lines")
        return out[:size], out

    return format_rows


def seed_ints(values) -> bool:
    """Whether every value is a non-negative int or NumPy integer, the
    perceptron seed parts that ``fold_search`` takes. It leaves any other
    to NumPy's ``SeedSequence``, its oracle, which takes some and raises
    its own error for the rest."""
    return all(isinstance(v, (int, np.integer)) and v >= 0 for v in values)


def _seed_words(n) -> bytes:
    """The non-negative int ``n`` as little-endian uint32 words, in bytes:
    the words NumPy's ``_int_to_uint32_array`` makes of a seed (one word
    for 0)."""
    n = int(n)
    return n.to_bytes(4 * max(1, -(-n.bit_length() // 32)), "little")


# The bindings of the library, each None when the library is not loaded.
COMPILED = (
    "mamdani_kernel", "rank_sums", "svm_grid_solve", "mlp_grid_solve", "fold_search",
    "held_out_search", "parse_matrix_rows", "format_rows",
)
# The classifiers that fold_search scores, each at the position of its
# code in the library's table of scorers.
FOLD_SCORERS = ("knn", "svm", "nbc", "mlp")

_LIB = _load_library()
if _LIB is not None:
    mamdani_kernel = _bind_mamdani(_LIB)
    rank_sums = _bind_rank_sums(_LIB)
    svm_grid_solve = _bind_svm_grid(_LIB)
    mlp_grid_solve = _bind_mlp_grid(_LIB)
    fold_search = _bind_fold_search(_LIB)
    held_out_search = _bind_held_out_search(_LIB)
    parse_matrix_rows = _bind_parse(_LIB)
    format_rows = _bind_format(_LIB)
else:
    mamdani_kernel = rank_sums = svm_grid_solve = mlp_grid_solve = fold_search = None
    held_out_search = parse_matrix_rows = format_rows = None
BACKEND = "numpy" if _LIB is None else "c"


def _as_input(name, values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def mamdani_scores(fc, var, rs, params):
    """Validated entry point; returns ``(scores, n_clamped)`` from the C
    kernel (``mamdani_kernel``), or from the NumPy kernel without the
    library, with the same bits.

    ``params`` must hold six values forming three (alpha, beta) pairs
    with ``0 < alpha < beta < 1``.
    """
    fc = _as_input("fc", fc)
    var = _as_input("var", var)
    rs = _as_input("rs", rs)
    if not (fc.shape == var.shape == rs.shape):
        raise ValueError("fc, var and rs must have equal length")
    p = np.ascontiguousarray(params, dtype=np.float64)
    if p.shape != (6,):
        raise ValueError("params must hold exactly six values")
    if not np.isfinite(p).all():
        raise ValueError("params contain non-finite values")
    for k in range(0, 6, 2):
        if not 0.0 < p[k] < p[k + 1] < 1.0:
            raise ValueError("each (alpha, beta) pair needs 0 < alpha < beta < 1")
    scores, clamped = (mamdani_kernel or _mamdani_py.mamdani_scores)(fc, var, rs, p)
    return scores, int(clamped)
