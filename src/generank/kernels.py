"""Backend dispatch for the compiled code in ``_mamdani.c``.

The library holds three solvers, each a port of Python code that stays
as its oracle and fallback: the batch fuzzy-inference kernel
(``_mamdani_py.mamdani_scores``), the SVM fits of a whole grid of box
bounds, with their SMO update loop (``classifiers._svm_grid_loop``), and
the perceptron fits of a whole grid of hidden widths, with their
scaled-conjugate-gradient loop (``classifiers._mlp_grid_loop``). It also
holds a reader of the expression matrix's rows, whose oracle and
fallback is the line-by-line reader ``dataio._parse_matrix_lines``. It
is loaded through ctypes and preferred. On first import it is compiled
when no build of the current source exists and a C compiler (``cc``) is
on ``PATH``; see ``_cbuild``. Without a compiler, or if the build fails
(which warns with the compiler's output), the Python code takes over.
Both produce bit-identical results, so the choice only affects speed;
``BACKEND`` names the fuzzy kernel that runs, and ``svm_grid_solve``,
``mlp_grid_solve`` and ``parse_matrix_rows`` are None when the library
is not loaded. The one difference is which NaN an overflowed SVM fit
holds, and ``classifiers.svm_train`` and ``svm_grid_labels`` reject
such a fit on either path.
"""

from __future__ import annotations

import ctypes
import itertools
import warnings

import numpy as np

from generank import _cbuild, _mamdani_py

_ARRAY = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS")
_MATRIX = np.ctypeslib.ndpointer(dtype=np.float64, ndim=2, flags="C_CONTIGUOUS")


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


def _bind_mamdani(lib):
    fn = lib.mamdani_scores
    fn.argtypes = (_ARRAY, _ARRAY, _ARRAY, _ARRAY, ctypes.c_int64, _ARRAY)
    fn.restype = ctypes.c_int64

    def mamdani_scores(fc, var, rs, params):
        """Same contract as the NumPy fallback, computed in C."""
        n = fc.shape[0]
        if var.shape != (n,) or rs.shape != (n,) or params.shape != (6,):
            raise ValueError("fc, var and rs need equal length, params six values")
        scores = np.empty(n)
        clamped = fn(fc, var, rs, params, n, scores)
        return scores, clamped

    return mamdani_scores


def _bind_svm_grid(lib):
    fn = lib.svm_grid_solve
    pointer, count, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fn.argtypes = (
        (pointer, pointer, count, count, pointer, count, pointer, count, count, real, real)
        + (pointer,) * 7
    )
    fn.restype = ctypes.c_int64

    def svm_grid_solve(X, y, cs, queries, max_iter, tol, sv_tol):
        """``classifiers._svm_grid_loop`` computed in C: returns ``(alpha,
        grad, weights, bias, gaps, updates, decisions)`` as there."""
        X, queries = np.asarray(X), np.asarray(queries)
        if X.ndim != 2 or queries.ndim != 2 or np.ndim(cs) != 1:
            raise ValueError("X and queries must be 2-D and cs 1-D")
        (n, d), m, q = X.shape, len(cs), len(queries)
        if np.shape(y) != (n,) or queries.shape[1] != d:
            raise ValueError("y needs one value per row of X and queries X's columns")
        # The arguments and the results share one buffer, in the order of
        # the C arguments, so that one address serves them all; the
        # results come back as views of it, the update counts as int64.
        sizes = (n * d, n, m, q * d, m * n, m * n, m * d, m, m, m, m * q)
        ends = list(itertools.accumulate(sizes))
        starts = [0, *ends[:-1]]
        buffer = np.concatenate(
            (X.ravel(), y, cs, queries.ravel(), np.empty(ends[-1] - ends[3])),
            dtype=np.float64,
        )
        base = buffer.ctypes.data
        X_at, y_at, cs_at, queries_at, *out_at = (base + 8 * start for start in starts)
        status = fn(
            X_at, y_at, n, d, cs_at, m, queries_at, q, max_iter, tol, sv_tol, *out_at
        )
        if status < 0:
            raise MemoryError("svm_grid_solve could not allocate its work arrays")
        alpha, grad, weights, bias, gaps, updates, decisions = (
            buffer[start:end] for start, end in zip(starts[4:], ends[4:])
        )
        return (
            alpha.reshape(m, n), grad.reshape(m, n), weights.reshape(m, d), bias, gaps,
            updates.view(np.int64), decisions.reshape(m, q),
        )

    return svm_grid_solve


def _bind_mlp_grid(lib):
    fn = lib.mlp_grid_solve
    pointer, count, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fn.argtypes = (
        (pointer, pointer, count, count, pointer, count, real, pointer, pointer, count)
        + (count, real)
        + (pointer,) * 5
    )
    fn.restype = ctypes.c_int64

    def mlp_grid_solve(X, t, hs, ridge, w, queries, max_iter, tol):
        """``classifiers._mlp_grid_loop`` computed in C: returns ``(w,
        traces, steps, capped, probabilities)`` as there, and leaves ``w``
        as given."""
        X, queries = np.asarray(X), np.asarray(queries)
        hs = np.asarray(hs, dtype=np.int64)
        if X.ndim != 2 or queries.ndim != 2 or hs.ndim != 1:
            raise ValueError("X and queries must be 2-D and hs 1-D")
        (n, d), m, q = X.shape, len(hs), len(queries)
        if min(n, d) < 1 or (hs < 1).any() or max_iter < 0:
            raise ValueError("X must be non-empty, every h >= 1 and max_iter >= 0")
        if np.shape(t) != (n,) or queries.shape[1] != d:
            raise ValueError("t needs one value per row of X and queries X's columns")
        if np.shape(w) != (int(((d + 2) * hs + 1).sum()),):
            raise ValueError("w needs d*h + 2*h + 1 values per width")
        # One buffer in the order of the C arguments, as for
        # svm_grid_solve; the widths go in as int64 bits, and the weights
        # are trained in the buffer's copy.
        sizes = (n * d, n, m, len(w), q * d, m * (max_iter + 1), m, m, m, m * q)
        ends = list(itertools.accumulate(sizes))
        starts = [0, *ends[:-1]]
        buffer = np.concatenate(
            (X.ravel(), t, hs.view(np.float64), w, queries.ravel(),
             np.empty(ends[-1] - ends[4])),
            dtype=np.float64,
        )
        base = buffer.ctypes.data
        X_at, t_at, hs_at, w_at, queries_at, *out_at = (base + 8 * start for start in starts)
        status = fn(
            X_at, t_at, n, d, hs_at, m, ridge, w_at, queries_at, q, max_iter, tol, *out_at
        )
        if status < 0:
            raise MemoryError("mlp_grid_solve could not allocate its work arrays")
        w, _, traces, lengths, steps, capped, probabilities = (
            buffer[start:end] for start, end in zip(starts[3:], ends[3:])
        )
        traces = traces.reshape(m, max_iter + 1)
        return (
            w, [row[:k].tolist() for row, k in zip(traces, lengths.view(np.int64).tolist())],
            steps.view(np.int64), capped.view(np.int64) != 0, probabilities.reshape(m, q),
        )

    return mlp_grid_solve


def _bind_parse(lib):
    fn = lib.parse_matrix_rows
    fn.argtypes = (
        ctypes.c_char_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        _MATRIX,
        np.ctypeslib.ndpointer(dtype=np.int64, ndim=2, flags="C_CONTIGUOUS"),
    )
    fn.restype = ctypes.c_int64

    def parse_matrix_rows(data, start, n_samples):
        """The rows of the matrix TSV ``data`` (bytes) after its header,
        which ends at offset ``start``, parsed in C: returns ``(matrix,
        id_spans)``, row ``r``'s gene id being ``data[slice(*id_spans[r])]``,
        or None when the rows are not in the strict form ``_mamdani.c``
        describes."""
        # A row holds n_samples tabs and at least as many digits, so the
        # bytes bound the row count where blank lines inflate the
        # newline count.
        max_rows = min(
            data.count(b"\n", start) + (not data.endswith(b"\n")),
            (len(data) - start) // (2 * n_samples) + 1,
        )
        matrix = np.empty((max_rows, n_samples))
        id_spans = np.empty((max_rows, 2), dtype=np.int64)
        rows = fn(data, len(data), start, n_samples, max_rows, matrix, id_spans)
        if rows == -2:
            raise MemoryError("parse_matrix_rows could not allocate its memo")
        return None if rows < 0 else (matrix[:rows], id_spans[:rows])

    return parse_matrix_rows


def _load_c_kernel():
    """The C fuzzy kernel's raw callable from a fresh load of the
    library, or None; see :func:`_load_library`."""
    lib = _load_library()
    return None if lib is None else _bind_mamdani(lib)


_LIB = _load_library()
if _LIB is not None:
    _c_scores = _bind_mamdani(_LIB)
    svm_grid_solve = _bind_svm_grid(_LIB)
    mlp_grid_solve = _bind_mlp_grid(_LIB)
    parse_matrix_rows = _bind_parse(_LIB)
    _IMPL = _c_scores
    BACKEND = "c"
else:
    _c_scores = None
    svm_grid_solve = None
    mlp_grid_solve = None
    parse_matrix_rows = None
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
