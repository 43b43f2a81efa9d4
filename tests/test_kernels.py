"""Backend dispatch and parity tests for the fuzzy-inference kernel."""

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


def test_backend_is_declared():
    assert kernels.BACKEND in ("c", "numpy")
    impls = kernels.available_backends()
    assert "numpy" in impls
    assert kernels.BACKEND in impls


@pytest.mark.skipif(
    not _cbuild.compiler_present() and _cbuild.find_library() is None,
    reason="no C compiler on PATH and no built C kernel",
)
def test_compiled_backend_present():
    # with a compiler or a built library the compiled kernel runs; this
    # guards against silently falling back to the slow path
    assert kernels.BACKEND == "c"


def test_backends_bit_identical():
    impls = kernels.available_backends()
    if len(impls) < 2:
        pytest.skip("only one backend importable")
    rng = np.random.default_rng(200)
    for trial in range(50):
        n = int(rng.integers(1, 400))
        fc = rng.random(n)
        var = rng.random(n)
        rs = rng.random(n)
        params = _random_params(rng)
        outputs = {}
        for name, impl in impls.items():
            scores, clamped = impl(fc, var, rs, params)
            outputs[name] = (np.asarray(scores), int(clamped))
        base_scores, base_clamped = outputs["numpy"]
        for name, (scores, clamped) in outputs.items():
            np.testing.assert_array_equal(
                scores, base_scores, err_msg=f"{name} diverged on trial {trial}"
            )
            assert clamped == base_clamped


def test_raw_c_kernel_copies_strided_inputs_and_checks_shapes():
    impls = kernels.available_backends()
    if "c" not in impls:
        pytest.skip("the C kernel is not loaded")
    c_scores = impls["c"]
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


def test_c_kernel_memo_hits_and_full_table_agree_with_numpy():
    # more distinct tuples of class heights than the memo's table has
    # slots, between plateau genes that repeat tuples before and after the
    # table fills: remembered, computed and unremembered scores must all
    # be the NumPy kernel's
    impls = kernels.available_backends()
    if "c" not in impls:
        pytest.skip("the C kernel is not loaded")
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
    scores, clamped = impls["c"](fc, var, rs, DEFAULT)
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
        assert kernels._load_c_kernel() is None
    assert sorted(p.name for p in source.parent.iterdir()) == ["_mamdani.c"]


@needs_compiler
def test_build_is_keyed_on_source_hash(monkeypatch, tmp_path):
    with open(_cbuild.SOURCE, encoding="utf-8") as fh:
        text = fh.read()
    source = _isolate_build(monkeypatch, tmp_path, text)
    first = kernels._load_c_kernel()
    assert first is not None
    built = {p.name for p in source.parent.glob("*.so")}
    assert built == {_cbuild.library_name()}
    # an edit names a new library, which the next load builds
    source.write_text(text + "/* edited */\n")
    assert _cbuild.find_library() is None
    assert kernels._load_c_kernel() is not None
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
        assert kernels.derived_seed(parts) == want, parts
    # NumPy integers are the same entropy as ints of their value
    assert kernels.derived_seed((np.int64(5), np.uint64(2**63), 7)) == int(
        np.random.SeedSequence([5, 2**63, 7]).generate_state(1)[0]
    )


@needs_library
def test_initial_weights_port_matches_numpy_default_rng():
    rng = np.random.default_rng(211)
    fits = 0
    while fits < 2_000:
        d = int(rng.integers(1, 60))
        hs = [int(h) for h in rng.integers(1, 120, int(rng.integers(1, 5)))]
        seeds = [_random_seed(rng, int(rng.choice([1, 1, 1, 2, 3]))) for _ in hs]
        want = np.concatenate(
            [classifiers._initial_weights(d, h, s) for h, s in zip(hs, seeds)]
        )
        got = kernels.initial_weights(d, hs, seeds)
        assert got.tobytes() == want.tobytes(), (d, hs, seeds)
        fits += len(hs)
    assert kernels.initial_weights(3, [], []).shape == (0,)
    with pytest.raises(ValueError):
        kernels.initial_weights(3, [2, 4], [1])


def test_seed_ints_takes_ints_only():
    assert kernels.seed_ints([0, 2**70, True, np.int64(3), np.uint32(4)])
    assert kernels.seed_ints([])
    for other in (1.5, np.float64(2.0), "3", None, [1], np.array(5)):
        assert not kernels.seed_ints([1, other])
