"""Backend dispatch for the compiled code in ``_mamdani.c``.

The library holds three solvers, each a port of Python code that stays
as its oracle and fallback: the batch fuzzy-inference kernel
(``_mamdani_py.mamdani_scores``), the SVM fits of a whole grid of box
bounds, with their SMO update loop (``classifiers._svm_grid_loop``), and
the perceptron fits of a whole grid of hidden widths, with their
scaled-conjugate-gradient loop (``classifiers._mlp_grid_loop``). Each of
the two grids also runs a whole inner search of nested LOOCV in one call
(``svm_fold_search``, ``mlp_fold_search``): every fold of a fold
assignment gathered, standardized as ``dataio.floored_scale`` does it and
fitted, whose oracle and fallback is ``crossval._fold_counts``' Python
fold loop; a block that loop would reject is left to it, so that it
raises its own error. It also holds a pass over the tie runs of sorted
rows that gives their rank-sum statistics and midranks (``rank_sums``,
for ``rankers._rank_sums``, whose oracle and fallback is
``rankers._tie_ranks``), a reader of the
expression matrix's rows, whose oracle and fallback is the line-by-line
reader ``dataio._parse_matrix_lines``, a writer of rows of float64
values as text (``format_rows``, for ``dataio.write_rows``), whose
oracle and fallback is ``repr``, and a bit-exact port of NumPy's
``SeedSequence`` and ``PCG64`` that draws the perceptron's seeds
(``derived_seed``, for ``crossval._derived_seed``) and starting weights
(``initial_weights``, for ``classifiers._initial_weights``), whose
oracle and fallback is ``numpy.random``. It is loaded through ctypes
and preferred. On first import it is compiled when no build of the
current source exists and a C compiler (``cc``) is on ``PATH``; see
``_cbuild``. Without a compiler,
or if the build fails (which warns with the compiler's output), the
Python code takes over. Both produce bit-identical results, so the
choice only affects speed. The C fuzzy kernel remembers, within one call,
the score of each distinct tuple of class heights it meets; a centroid
is a function of the heights alone, and each is summed in the NumPy
kernel's order, so the memo cannot change a bit (``_mamdani.c`` says
why). ``BACKEND`` names the fuzzy
kernel that runs, and ``rank_sums``, ``svm_grid_solve``,
``mlp_grid_solve``, ``svm_fold_search``, ``mlp_fold_search``,
``parse_matrix_rows``, ``format_rows``, ``derived_seed`` and
``initial_weights`` are None when the library is not loaded. The one
difference is which NaN an overflowed SVM fit holds, and
``classifiers.svm_train`` and ``svm_grid_labels`` reject such a fit on
either path.

Every library function is declared by ``_declare`` with one calling
convention: arrays go in as addresses (``c_void_p``), sizes as
``c_int64`` and reals as ``c_double``, and an int64 comes back. The
fuzzy kernel and the two grid solvers get their inputs and their results
in one float64 buffer that ``_pack`` lays out in the order of the C
arguments, so a call allocates once and its results are views of that
buffer. The rank-sum pass reads its matrix, order and class flags in
place and writes arrays of its own, as the matrix reader writes into a
float64 matrix, sized by the library's newline count (``count_lines``)
so that no Python pass scans the text, and into a byte array that gets
the gene ids, each followed by a newline, for one decode and split. The
row writer takes row prefixes in that form, as bytes, and fills a uint8
array that it sizes, or that its caller passes back for reuse.
The fold searches take their sample block, labels, fold assignment and
candidates in one such buffer too, the int64 values as their bits. The
matrix text and the seeds' entropy go in as bytes (``c_char_p``); the
entropy is each seed's little-endian uint32 words, which
``_seed_words`` makes.
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

    def mamdani_scores(fc, var, rs, params):
        """Same contract as the NumPy fallback, computed in C."""
        if fc.ndim != 1 or not var.shape == fc.shape == rs.shape or params.shape != (6,):
            raise ValueError("fc, var and rs need equal length, params six values")
        n = len(fc)
        addresses, views = _pack((fc, var, rs, params), (n,))
        clamped = fn(*addresses[:4], n, addresses[4])
        return views[4], clamped

    return mamdani_scores


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
        compare with the Python loop; ``initial_weights`` draws the seeded
        ones."""
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


def _bind_fold_searches(lib):
    block = (_POINTER, _COUNT, _COUNT, _POINTER, _POINTER, _COUNT, _POINTER, _COUNT)
    svm_fn = _declare(lib, "svm_fold_search", *block, _COUNT, _REAL, _REAL, _POINTER)
    mlp_fn = _declare(
        lib, "mlp_fold_search",
        *block, _REAL, _COUNT, _REAL, ctypes.c_char_p, _COUNT, _COUNT, _POINTER,
    )

    def search(fn, features, labels, folds, n_folds, grid, *rest):
        """``fn`` on the sample block ``features`` with ``labels``, the
        fold assignment ``folds`` and the candidates ``grid`` (float64
        bits), then the arguments ``rest``: each candidate's count, or
        None when the Python loop must decide."""
        X = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        folds = np.asarray(folds, dtype=np.int64)
        if X.ndim != 2 or min(X.shape) < 1 or not labels.shape == folds.shape == X.shape[:1]:
            raise ValueError("features must be 2-D, labels and folds a value per row")
        (n, d), m = X.shape, len(grid)
        # labels and folds go in as int64 bits
        (X_at, labels_at, folds_at, grid_at, correct_at), views = _pack(
            (X, labels.view(np.float64), folds.view(np.float64), grid), (m,)
        )
        status = fn(X_at, n, d, labels_at, folds_at, n_folds, grid_at, m, *rest, correct_at)
        if status < 0:
            raise MemoryError(f"{fn.__name__} could not allocate its work arrays")
        return None if status else views[-1].view(np.int64)

    def svm_fold_search(features, labels, folds, n_folds, cs, max_iter, tol, sv_tol):
        """The correct test labels of each box bound of ``cs`` over the
        folds ``0 .. n_folds - 1`` of ``folds``, each fold's rows
        standardized and fitted as ``crossval._fold_counts``' Python loop
        does, computed in C; or None when that loop must decide, since it
        raises for the block (``_mamdani.c`` says when)."""
        cs = np.asarray(cs, dtype=np.float64)
        return search(svm_fn, features, labels, folds, n_folds, cs, max_iter, tol, sv_tol)

    def mlp_fold_search(
        features, labels, folds, n_folds, hs, ridge, max_iter, tol, parts, by_fit
    ):
        """:func:`svm_fold_search` for the perceptron's hidden widths
        ``hs``: the fit of position ``p`` in fold ``f`` is seeded with
        ``crossval._derived_seed(*parts, f, p)`` when ``by_fit`` is set,
        and with ``_derived_seed(*parts)`` otherwise, for non-negative int
        ``parts``."""
        hs = np.asarray(hs, dtype=np.int64)
        if min(hs, default=0) < 1 or max_iter < 0:
            raise ValueError("every h must be >= 1 and max_iter >= 0")
        entropy = b"".join(map(_seed_words, parts))
        return search(
            mlp_fn, features, labels, folds, n_folds, hs.view(np.float64), ridge, max_iter,
            tol, entropy, len(entropy) // 4, bool(by_fit),
        )

    return svm_fold_search, mlp_fold_search


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
    """Whether every value is an int or a NumPy integer, the seeds that
    ``derived_seed`` and ``initial_weights`` take. NumPy's
    ``SeedSequence``, their oracle, takes every other seed, and raises its
    own error for one it rejects."""
    return all(isinstance(v, (int, np.integer)) for v in values)


def _seed_words(n) -> bytes:
    """The non-negative int ``n`` as little-endian uint32 words, in bytes:
    the words NumPy's ``_int_to_uint32_array`` makes of a seed (one word
    for 0), with its error for a negative one."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return n.to_bytes(4 * max(1, -(-n.bit_length() // 32)), "little")


def _bind_seeds(lib):
    seed_fn = _declare(lib, "derived_seed", ctypes.c_char_p, _COUNT)
    weights_fn = _declare(
        lib, "initial_weights", _COUNT, _POINTER, _COUNT, ctypes.c_char_p, _POINTER, _POINTER
    )

    def derived_seed(parts):
        """``int(SeedSequence(list(parts)).generate_state(1)[0])`` for
        non-negative int ``parts``, computed in C."""
        entropy = b"".join(map(_seed_words, parts))
        return seed_fn(entropy, len(entropy) // 4)

    def initial_weights(d, hs, seeds):
        """``classifiers._initial_weights(d, h, seed)`` for each width of
        ``hs`` and its non-negative int seed, concatenated, drawn in C."""
        if len(hs) != len(seeds) or d < 0 or min(hs, default=0) < 0:
            raise ValueError("initial_weights needs d >= 0 and one seed per width h >= 0")
        # a handful of small ints each: ctypes arrays cost less than _pack
        entropy = [_seed_words(s) for s in seeds]
        m = len(entropy)
        counts = (ctypes.c_int64 * m)(*(len(words) // 4 for words in entropy))
        w = np.empty(sum((d + 2) * h + 1 for h in hs))
        weights_fn(
            d, (ctypes.c_int64 * m)(*hs), m, b"".join(entropy), counts, w.ctypes.data
        )
        return w

    return derived_seed, initial_weights


def _load_c_kernel():
    """The C fuzzy kernel's raw callable from a fresh load of the
    library, or None; see :func:`_load_library`."""
    lib = _load_library()
    return None if lib is None else _bind_mamdani(lib)


_LIB = _load_library()
if _LIB is not None:
    _c_scores = _bind_mamdani(_LIB)
    rank_sums = _bind_rank_sums(_LIB)
    svm_grid_solve = _bind_svm_grid(_LIB)
    mlp_grid_solve = _bind_mlp_grid(_LIB)
    svm_fold_search, mlp_fold_search = _bind_fold_searches(_LIB)
    parse_matrix_rows = _bind_parse(_LIB)
    format_rows = _bind_format(_LIB)
    derived_seed, initial_weights = _bind_seeds(_LIB)
    _IMPL = _c_scores
    BACKEND = "c"
else:
    _c_scores = None
    rank_sums = None
    svm_grid_solve = None
    mlp_grid_solve = None
    svm_fold_search = mlp_fold_search = None
    parse_matrix_rows = None
    format_rows = None
    derived_seed = initial_weights = None
    _IMPL = _mamdani_py.mamdani_scores
    BACKEND = "numpy"


def available_backends() -> dict:
    """Loadable backend name -> raw kernel callable."""
    impls = {"numpy": _mamdani_py.mamdani_scores}
    if _c_scores is not None:
        impls["c"] = _c_scores
    return impls


def _as_input(name, values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def mamdani_scores(fc, var, rs, params):
    """Validated entry point; returns ``(scores, n_clamped)``.

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
    scores, clamped = _IMPL(fc, var, rs, p)
    return scores, int(clamped)
