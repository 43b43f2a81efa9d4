"""Backend dispatch for the compiled code in ``_mamdani.c``.

The library holds three loops, each a port of Python code that stays as
its oracle and fallback: the batch fuzzy-inference kernel
(``_mamdani_py.mamdani_scores``), the SVM's SMO update loop
(``classifiers._smo_loop``) and the perceptron's scaled-conjugate-gradient
loop (``classifiers._scg_loop``). It also holds a reader of the
expression matrix's rows, whose oracle and fallback is the line-by-line
reader ``dataio._parse_matrix_lines``. It is loaded through ctypes and
preferred. On first import it is compiled when no build of the current
source exists and a C compiler (``cc``) is on ``PATH``; see ``_cbuild``.
Without a compiler, or if the build fails (which warns with the
compiler's output), the Python code takes over. Both produce
bit-identical results, so the choice only affects speed; ``BACKEND``
names the fuzzy kernel that runs, and ``smo_solve``, ``scg_solve`` and
``parse_matrix_rows`` are None when the library is not loaded. The one
difference is which NaN an overflowed SMO result holds, and
``classifiers.svm_train`` rejects such a result on either path.
"""

from __future__ import annotations

import ctypes
import math
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


def _bind_smo(lib):
    fn = lib.smo_solve
    fn.argtypes = (
        _MATRIX,
        _ARRAY,
        ctypes.c_double,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_double,
        _ARRAY,
        _ARRAY,
        ctypes.POINTER(ctypes.c_double),
    )
    fn.restype = ctypes.c_int64

    def smo_solve(Q, y, c, alpha, grad, max_iter, tol):
        """``classifiers._smo_loop`` computed in C: updates ``alpha`` and
        ``grad`` in place and returns ``(updates, gap)``, with ``updates
        == -1`` when ``max_iter`` is exhausted, as there."""
        n = y.shape[0]
        if Q.shape != (n, n) or alpha.shape != (n,) or grad.shape != (n,):
            raise ValueError("Q must be n x n and y, alpha and grad of length n")
        gap = ctypes.c_double(math.inf)
        updates = fn(Q, y, c, n, max_iter, tol, alpha, grad, ctypes.byref(gap))
        return updates, np.float64(gap.value)

    return smo_solve


def _bind_scg(lib):
    fn = lib.scg_solve
    fn.argtypes = (
        _MATRIX,
        _ARRAY,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_double,
        ctypes.c_int64,
        ctypes.c_double,
        _ARRAY,
        _ARRAY,
        ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_int64),
    )
    fn.restype = ctypes.c_int64

    def scg_solve(X, t, h, ridge, w, max_iter, tol):
        """``classifiers._scg_loop`` computed in C: returns ``(w,
        loss_trace, steps, capped)`` as there, and leaves ``w`` as given."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        n, d = X.shape
        if min(n, d, h) < 1 or max_iter < 0:
            raise ValueError("X must be non-empty, h >= 1 and max_iter >= 0")
        if t.shape != (n,) or w.shape != (d * h + 2 * h + 1,):
            raise ValueError("t needs one value per row of X and w d*h + 2*h + 1")
        w = np.array(w, dtype=np.float64)
        trace = np.empty(max_iter + 1)
        length, capped = ctypes.c_int64(0), ctypes.c_int64(0)
        args = (X, t, n, d, h, ridge, max_iter, tol, w, trace)
        steps = fn(*args, ctypes.byref(length), ctypes.byref(capped))
        if steps < 0:
            raise MemoryError("scg_solve could not allocate its work arrays")
        return w, trace[: length.value].tolist(), int(steps), bool(capped.value)

    return scg_solve


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
    smo_solve = _bind_smo(_LIB)
    scg_solve = _bind_scg(_LIB)
    parse_matrix_rows = _bind_parse(_LIB)
    _IMPL = _c_scores
    BACKEND = "c"
else:
    _c_scores = None
    smo_solve = None
    scg_solve = None
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
