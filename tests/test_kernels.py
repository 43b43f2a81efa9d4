"""The library's bindings: the fuzzy kernel's parity with the NumPy
kernel, the build rule, and the seeding ports."""

import ctypes
import re
import sys
import threading

import numpy as np
import pytest

from generank import _cbuild, _mamdani_py, classifiers, kernels, rankers


DEFAULT = np.array([0.25, 0.75, 0.25, 0.75, 0.25, 0.75])


def _random_params(rng):
    pairs = np.sort(rng.uniform(0.05, 0.95, (3, 2)), axis=1)
    pairs[:, 1] = np.maximum(pairs[:, 1], pairs[:, 0] + 0.02)
    return np.clip(pairs, 0.01, 0.99).ravel()


needs_kernel = pytest.mark.skipif(
    kernels.mamdani_kernel is None, reason="the C library is not loaded"
)


def test_backend_is_declared():
    # "c" exactly when the library, and with it the fuzzy kernel, is loaded
    assert kernels.BACKEND == ("numpy" if kernels._LIB is None else "c")
    assert (kernels.mamdani_kernel is None) == (kernels._LIB is None)


@pytest.mark.skipif(
    not _cbuild.compiler_present() and _cbuild.find_library() is None,
    reason="no C compiler on PATH and no built C kernel",
)
def test_compiled_backend_present():
    # with a compiler or a built library the compiled kernel runs; this
    # guards against silently falling back to the slow path
    assert kernels.BACKEND == "c"


def test_compiled_names_every_binding_of_the_library():
    # each listed binding is callable exactly when the library is loaded
    # and None otherwise, and no other public name holds a library function
    loaded = kernels._LIB is not None
    for name in kernels.COMPILED:
        binding = getattr(kernels, name)
        assert (callable(binding) if loaded else binding is None), name
    bound = {
        name for name, value in vars(kernels).items()
        if not name.startswith("_") and callable(value)
        and getattr(value, "__module__", None) == kernels.__name__
        and value.__qualname__.startswith("_bind_")
    }
    assert bound == (set(kernels.COMPILED) if loaded else set())


@needs_kernel
def test_backends_bit_identical():
    rng = np.random.default_rng(200)
    for trial in range(50):
        n = int(rng.integers(1, 400))
        fc = rng.random(n)
        var = rng.random(n)
        rs = rng.random(n)
        params = _random_params(rng)
        want_scores, want_clamped = _mamdani_py.mamdani_scores(fc, var, rs, params)
        scores, clamped = kernels.mamdani_kernel(fc, var, rs, params)
        assert scores.tobytes() == want_scores.tobytes(), f"trial {trial}"
        assert int(clamped) == int(want_clamped)


@needs_kernel
def test_raw_c_kernel_copies_strided_inputs_and_checks_shapes():
    c_scores = kernels.mamdani_kernel
    rng = np.random.default_rng(202)
    fc, var, rs = rng.random((3, 2 * 150))
    params = np.repeat(_random_params(rng), 2)[::2]
    # views that step over every other value
    want_scores, want_clamped = _mamdani_py.mamdani_scores(fc[::2], var[::2], rs[::2], params)
    scores, clamped = c_scores(fc[::2], var[::2], rs[::2], params)
    assert scores.tobytes() == want_scores.tobytes()
    assert int(clamped) == int(want_clamped)
    good = np.full(4, 0.5)
    with pytest.raises(ValueError):
        c_scores(np.full((4, 2), 0.5), good, good, DEFAULT)
    with pytest.raises(ValueError):
        c_scores(good, good, good, DEFAULT[:4])


def _plateau_inputs(rng, n):
    """fc, var and rs of n genes, most of them on a few levels, below 0
    and above 1 among them, so that many genes share their class heights
    and the C kernel's memo answers them; one input in ten is drawn at
    random."""
    values = rng.choice([-0.1, 0.0, 0.02, 0.5, 0.98, 1.0, 1.2], size=(3, n))
    drawn = rng.random((3, n)) < 0.1
    values[drawn] = rng.random(int(drawn.sum()))
    return values


def test_kernel_is_reentrant():
    # ctypes releases the GIL for the C kernel's call, so threads run it at
    # once; each must see only its own work, as in a serial call
    rng = np.random.default_rng(203)
    batches = [(*_plateau_inputs(rng, 20000), _random_params(rng)) for _ in range(4)]
    serial = [kernels.mamdani_scores(*batch) for batch in batches]
    results = [[] for _ in batches]

    def work(i):
        for _ in range(5):
            results[i].append(kernels.mamdani_scores(*batches[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (want_scores, want_clamped), got in zip(serial, results):
        assert len(got) == 5
        for scores, clamped in got:
            assert scores.tobytes() == want_scores.tobytes()
            assert clamped == want_clamped


@needs_kernel
def test_c_kernel_memo_hits_and_full_table_agree_with_numpy():
    # more distinct tuples of class heights than the memo's table has
    # slots, between plateau genes that repeat tuples before and after the
    # table fills: remembered, computed and unremembered scores must all
    # be the NumPy kernel's
    with open(_cbuild.SOURCE, encoding="utf-8") as fh:
        entries = int(re.search(r"#define MEMO_ENTRIES (\d+)", fh.read()).group(1))
    slots = 1 << (2 * entries - 1).bit_length()
    rng = np.random.default_rng(204)
    # inside every ramp of the default anchors, so that heights vary freely
    ramps = rng.uniform(0.26, 0.74, (3, slots + 1000))
    plateaus = _plateau_inputs(rng, 4000)
    fc, var, rs = np.concatenate([plateaus[:, :2000], ramps, plateaus[:, 2000:]], axis=1)
    want_scores, want_clamped = _mamdani_py.mamdani_scores(fc, var, rs, DEFAULT)
    assert np.unique(want_scores).size > slots
    scores, clamped = kernels.mamdani_kernel(fc, var, rs, DEFAULT)
    assert scores.tobytes() == want_scores.tobytes()
    assert int(clamped) == int(want_clamped)


needs_rank_sums = pytest.mark.skipif(
    kernels.rank_sums is None, reason="the C library is not loaded"
)


def _shuffle_tie_runs(rng, values, order):
    """``order`` with the positions of each run of equal values in each
    row shuffled: another order that sorts the rows."""
    shuffled = order.copy()
    for r, row in enumerate(np.take_along_axis(values, order, axis=-1)):
        cuts = [0, *np.flatnonzero(row[1:] != row[:-1]) + 1, len(row)]
        for s, e in zip(cuts[:-1], cuts[1:]):
            shuffled[r, s:e] = rng.permutation(order[r, s:e])
    return shuffled


@needs_rank_sums
def test_rank_sums_do_not_depend_on_the_order_among_ties():
    rng = np.random.default_rng(244)
    for trial in range(200):
        rows, n = int(rng.integers(1, 6)), int(rng.integers(1, 60))
        values = np.round(rng.normal(size=(rows, n)) * rng.uniform(0.5, 3.0))
        values[values == 0.0] = rng.choice([0.0, -0.0], int((values == 0.0).sum()))
        in_class = rng.random(n) < 0.4
        order = np.argsort(values, axis=-1, kind="stable")
        shuffled = _shuffle_tie_runs(rng, values, order)
        expected = kernels.rank_sums(values, order, in_class, with_ranks=True)
        for other in (shuffled, np.argsort(values, axis=-1)):
            got = kernels.rank_sums(values, other, in_class, with_ranks=True)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes(), f"trial {trial}"
            # the NumPy pass that is its oracle, on the same order
            ranks = rankers._tie_ranks(values, other)[0]
            assert ranks.tobytes() == expected[2].tobytes(), f"trial {trial}"


@needs_rank_sums
def test_rank_sums_copies_strided_inputs_and_checks_them():
    rng = np.random.default_rng(245)
    values = np.round(rng.normal(size=(6, 40)), 1)
    in_class = rng.random(40) < 0.5
    view = values[::2, ::2]
    order = np.argsort(view, axis=-1)
    got = kernels.rank_sums(view, order, in_class[::2], with_ranks=True)
    expected = kernels.rank_sums(view.copy(), order.copy(), in_class[::2].copy(), True)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
    row, flags = np.array([[3.0, 1.0, 2.0]]), np.array([True, False, False])
    for bad in ([[0, 1, 2]], [[1, 2, 3]], [[-1, 2, 0]]):
        with pytest.raises(ValueError, match="does not sort"):
            kernels.rank_sums(row, np.array(bad), flags)
    with pytest.raises(ValueError, match="2-D"):
        kernels.rank_sums(row[0], np.array([1, 2, 0]), flags)
    with pytest.raises(ValueError, match="2-D"):
        kernels.rank_sums(row, np.array([[1, 2, 0, 0]]), flags)
    with pytest.raises(ValueError, match="2-D"):
        kernels.rank_sums(row, np.array([[1, 2, 0]]), flags[:2])


def test_extreme_corner_scores():
    # all rules point at the lowest / highest output class in these corners
    scores, _ = kernels.mamdani_scores(
        np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), DEFAULT
    )
    assert scores[0] == 0.083
    assert scores[1] == 0.9169999999999999


def test_scores_live_inside_grid_extremes():
    rng = np.random.default_rng(201)
    low, high = 0.083, 0.9169999999999999
    for trial in range(20):
        n = 300
        scores, _ = kernels.mamdani_scores(
            rng.random(n), rng.random(n), rng.random(n), _random_params(rng)
        )
        assert scores.min() >= low - 1e-12
        assert scores.max() <= high + 1e-12


def test_out_of_range_inputs_are_clamped_and_counted():
    fc = np.array([-0.2, 0.5, 1.3])
    var = np.array([0.5, 0.5, 0.5])
    rs = np.array([0.5, 0.5, 0.5])
    scores, clamped = kernels.mamdani_scores(fc, var, rs, DEFAULT)
    assert clamped == 2
    inside, zero_clamped = kernels.mamdani_scores(
        np.array([0.0, 0.5, 1.0]), var, rs, DEFAULT
    )
    assert zero_clamped == 0
    np.testing.assert_array_equal(scores, inside)


def test_input_validation():
    good = np.array([0.5])
    with pytest.raises(ValueError, match="1-D"):
        kernels.mamdani_scores(np.ones((2, 2)), good, good, DEFAULT)
    with pytest.raises(ValueError, match="equal length"):
        kernels.mamdani_scores(np.ones(3), np.ones(2), np.ones(3), DEFAULT)
    with pytest.raises(ValueError, match="non-finite"):
        kernels.mamdani_scores(np.array([np.nan]), good, good, DEFAULT)
    with pytest.raises(ValueError, match="six values"):
        kernels.mamdani_scores(good, good, good, DEFAULT[:4])
    bad_pair = DEFAULT.copy()
    bad_pair[0], bad_pair[1] = 0.8, 0.2  # alpha above beta
    with pytest.raises(ValueError, match="alpha"):
        kernels.mamdani_scores(good, good, good, bad_pair)
    with pytest.raises(ValueError, match="alpha"):
        kernels.mamdani_scores(good, good, good, np.array([0.0, 0.75] * 3))


def test_empty_input_allowed():
    empty = np.empty(0)
    scores, clamped = kernels.mamdani_scores(empty, empty, empty, DEFAULT)
    assert scores.shape == (0,)
    assert clamped == 0


needs_compiler = pytest.mark.skipif(
    not _cbuild.compiler_present(), reason="no C compiler on PATH"
)


def _isolate_build(monkeypatch, tmp_path, source_text):
    """Point the build rule at a copy of ``source_text`` in tmp_path."""
    source = tmp_path / "pkg" / "_mamdani.c"
    source.parent.mkdir()
    source.write_text(source_text)
    monkeypatch.setattr(_cbuild, "SOURCE", str(source))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return source


@needs_compiler
def test_build_failure_warns_with_compiler_output(monkeypatch, tmp_path):
    source = _isolate_build(monkeypatch, tmp_path, "int broken(void) { return }\n")
    with pytest.warns(RuntimeWarning, match="NumPy fallback(.|\n)*error"):
        assert kernels._load_library() is None
    assert sorted(p.name for p in source.parent.iterdir()) == ["_mamdani.c"]


@needs_compiler
def test_build_is_keyed_on_source_hash(monkeypatch, tmp_path):
    with open(_cbuild.SOURCE, encoding="utf-8") as fh:
        text = fh.read()
    source = _isolate_build(monkeypatch, tmp_path, text)
    lib = kernels._load_library()
    assert lib is not None
    first = kernels._bind_mamdani(lib)
    built = {p.name for p in source.parent.glob("*.so")}
    assert built == {_cbuild.library_name()}
    # an edit names a new library, which the next load builds
    source.write_text(text + "/* edited */\n")
    assert _cbuild.find_library() is None
    assert kernels._load_library() is not None
    # and the stale library is deleted
    assert {p.name for p in source.parent.glob("*.so")} == {_cbuild.library_name()}
    assert not [p for p in source.parent.iterdir() if p.name.startswith(".")]

    rng = np.random.default_rng(202)
    fc, var, rs = (rng.uniform(-0.2, 1.2, 50) for _ in range(3))
    scores, clamped = first(fc, var, rs, DEFAULT)
    expected, expected_clamped = _mamdani_py.mamdani_scores(fc, var, rs, DEFAULT)
    np.testing.assert_array_equal(scores, expected)
    assert clamped == expected_clamped


@needs_compiler
def test_build_falls_back_to_cache_dir(monkeypatch, tmp_path):
    with open(_cbuild.SOURCE, encoding="utf-8") as fh:
        _isolate_build(monkeypatch, tmp_path, fh.read())
    blocked = tmp_path / "not-a-dir"
    blocked.write_text("")
    cache = tmp_path / "cache" / "generank"
    monkeypatch.setattr(_cbuild, "library_dirs", lambda: (str(blocked), str(cache)))
    path = _cbuild.build_library()
    assert path == str(cache / _cbuild.library_name())
    assert _cbuild.find_library() == path


needs_library = pytest.mark.skipif(
    not _cbuild.compiler_present() and _cbuild.find_library() is None,
    reason="no C compiler on PATH and no built C library",
)


def _random_seed(rng, words):
    """A non-negative int whose NumPy entropy is ``words`` uint32 words,
    its top word non-zero unless it is 0, with runs of zero and one bits."""
    if words == 1 and rng.random() < 0.1:
        return int(rng.choice([0, 1, 2**32 - 1]))
    value = 0
    for _ in range(words):
        value = value << 32 | int(rng.choice([0, 2**32 - 1, int(rng.integers(0, 2**32))]))
    return value | 1 << (32 * words - 1 - int(rng.integers(0, 32)))


@needs_library
def test_derived_seed_port_matches_numpy_seed_sequence():
    # the perceptron's fold search derives each fit's seed with this port,
    # from the seed parts' words as _seed_words packs them
    derived_seed = kernels._declare(kernels._LIB, "derived_seed", ctypes.c_char_p, kernels._COUNT)

    def port(parts):
        entropy = b"".join(map(kernels._seed_words, parts))
        return derived_seed(entropy, len(entropy) // 4)

    rng = np.random.default_rng(210)
    cases = [(), (0,), (2**32 - 1,), (2**32,), (2**64,), (0, 0, 0, 0, 0, 0)]
    while len(cases) < 20_000:
        parts, left = [], int(rng.integers(0, 7))
        while left:
            words = int(rng.integers(1, left + 1))
            parts.append(_random_seed(rng, words))
            left -= words
        cases.append(tuple(parts))
    for parts in cases:
        want = int(np.random.SeedSequence(list(parts)).generate_state(1)[0])
        assert port(parts) == want, parts
    # NumPy integers are the same entropy as ints of their value
    assert port((np.int64(5), np.uint64(2**63), 7)) == int(
        np.random.SeedSequence([5, 2**63, 7]).generate_state(1)[0]
    )


@needs_library
def test_initial_weights_port_matches_numpy_default_rng():
    # one fit from one uint32 seed, the form the fold search draws
    initial_weights = kernels._declare(
        kernels._LIB, "initial_weights", kernels._COUNT, kernels._COUNT, ctypes.c_uint32,
        kernels._POINTER,
    )
    rng = np.random.default_rng(211)
    for fit in range(2_000):
        d, h = int(rng.integers(1, 60)), int(rng.integers(1, 120))
        seed = _random_seed(rng, 1)
        want = classifiers._initial_weights(d, h, seed)
        got = np.full(want.size + 1, np.nan)
        assert initial_weights(d, h, seed, got.ctypes.data) == 0
        assert got[:-1].tobytes() == want.tobytes(), (d, h, seed)
        # nothing is written past the fit's values
        assert np.isnan(got[-1]), fit


def test_seed_ints_takes_ints_only():
    assert kernels.seed_ints([0, 2**70, True, np.int64(3), np.uint32(4)])
    assert kernels.seed_ints([])
    # a negative seed is left to NumPy, which raises its own error
    for other in (1.5, np.float64(2.0), "3", None, [1], np.array(5), -1, np.int64(-2)):
        assert not kernels.seed_ints([1, other])
