"""End-to-end tests of the command-line interface and its artifacts."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from generank import classifiers, cli, crossval, gaopt
from generank.dataio import load_dataset
from generank.fgf import FgfParams, FuzzyRegion, load_params, save_params

from conftest import planted_dataset, unbind, write_tables


@pytest.fixture()
def tables(tmp_path):
    dataset = planted_dataset(20, 4, 5, 5, 3.0, seed=900)
    matrix_path, labels_path = write_tables(dataset, tmp_path)
    return dataset, str(matrix_path), str(labels_path)


def _manifest(out_dir):
    with open(out_dir / "manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# ingest / normalize


def test_ingest_round_trip(tables, tmp_path, capsys):
    dataset, matrix_path, labels_path = tables
    out = tmp_path / "out"
    code = cli.main(
        ["ingest", "--matrix", matrix_path, "--labels", labels_path, "--out", str(out)]
    )
    assert code == 0
    assert "ingested 20 genes x 10 samples" in capsys.readouterr().out
    reloaded = load_dataset(out / "matrix.tsv", out / "labels.tsv")
    np.testing.assert_array_equal(reloaded.matrix, dataset.matrix)
    assert reloaded.class_names == dataset.class_names

    manifest = _manifest(out)
    assert manifest["tool"] == "generank"
    assert manifest["command"] == "ingest"
    assert manifest["seed"] == 42
    assert "timestamp" in manifest
    assert manifest["inputs"]["matrix"] == matrix_path


def test_ingest_failure_exits_one(tmp_path, capsys):
    code = cli.main(
        [
            "ingest",
            "--matrix",
            str(tmp_path / "missing.tsv"),
            "--labels",
            str(tmp_path / "missing2.tsv"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_required_argument_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ingest", "--matrix", str(tmp_path / "m.tsv")])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_reused():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    # a usage error leaves nothing behind in the shared parser
    with pytest.raises(SystemExit):
        cli.main(["rank", "--matrix", "m.tsv", "--labels", "l.tsv", "--out", "o"])
    args = parser.parse_args(
        ["rank", "--matrix", "m.tsv", "--labels", "l.tsv", "--out", "o", "--method", "roc"]
    )
    assert (args.command, args.method, args.fgf_params, args.seed) == ("rank", "roc", None, 42)


def test_normalize_equalizes_columns(tables, tmp_path):
    _, matrix_path, labels_path = tables
    out = tmp_path / "norm"
    code = cli.main(
        [
            "normalize",
            "--matrix",
            matrix_path,
            "--labels",
            labels_path,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    normalized = load_dataset(out / "matrix.tsv", out / "labels.tsv")
    ref = np.sort(normalized.matrix[:, 0])
    for j in range(1, normalized.n_samples):
        np.testing.assert_allclose(np.sort(normalized.matrix[:, j]), ref, atol=1e-12)


# ---------------------------------------------------------------------------
# all-or-nothing publishing


def test_failed_write_leaves_no_temp_or_partial(tables, tmp_path, monkeypatch):
    _, matrix_path, labels_path = tables

    def failing_save(dataset, tmp_matrix, tmp_labels, sample_ids=None):
        with open(tmp_matrix, "w", encoding="utf-8") as fh:
            fh.write("gene_id\ts0\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_dataset", failing_save)
    out = tmp_path / "norm"
    code = cli.main(
        ["normalize", "--matrix", matrix_path, "--labels", labels_path, "--out", str(out)]
    )
    assert code == 1
    assert os.listdir(out) == []


def _optimize_argv(matrix_path, labels_path, out, seed):
    return [
        "optimize-fgf",
        "--matrix",
        matrix_path,
        "--labels",
        labels_path,
        "--out",
        str(out),
        "--population",
        "6",
        "--generations",
        "2",
        "--top-n",
        "4",
        "--seed",
        str(seed),
    ]


def _failing_save_trace(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("generation\tbest_fitness\n")
    raise OSError("disk full")


def test_nan_mutation_sigma_exits_one_before_writing(tables, tmp_path, capsys):
    _, matrix_path, labels_path = tables
    out = tmp_path / "opt"
    argv = _optimize_argv(matrix_path, labels_path, out, 11)
    assert cli.main([*argv, "--mutation-sigma", "nan", "--mutation-rate", "1"]) == 1
    assert "mutation_sigma must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_failed_second_artifact_publishes_nothing(tables, tmp_path, monkeypatch):
    # fgf_params.json is complete when the trace write fails, and stays
    # unpublished with it
    _, matrix_path, labels_path = tables
    monkeypatch.setattr(gaopt, "save_trace", _failing_save_trace)
    out = tmp_path / "opt"
    assert cli.main(_optimize_argv(matrix_path, labels_path, out, 11)) == 1
    assert os.listdir(out) == []


def test_failed_rerun_leaves_previous_files_unchanged(tables, tmp_path, monkeypatch):
    _, matrix_path, labels_path = tables
    out = tmp_path / "opt"
    assert cli.main(_optimize_argv(matrix_path, labels_path, out, 11)) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert sorted(before) == ["fgf_params.json", "ga_trace.tsv", "manifest.json"]

    monkeypatch.setattr(gaopt, "save_trace", _failing_save_trace)
    assert cli.main(_optimize_argv(matrix_path, labels_path, out, 12)) == 1
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


def _dead_pid():
    """The pid of a child that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


@pytest.mark.skipif(os.name != "posix", reason="stale stages are found by pid on POSIX")
def test_stale_staging_of_a_dead_run_is_removed(tables, tmp_path):
    # a run killed mid-write leaves its stage; the next run into that
    # --out removes it, and keeps a live run's stage and foreign names
    _, matrix_path, labels_path = tables
    out = tmp_path / "out"
    dead = out / f".staging.{_dead_pid()}.k1ll3d00"
    live = out / f".staging.{os.getpid()}.l1ve0000"
    foreign = out / ".staging.notapid.x"
    huge = out / f".staging.{2**70}.x"
    for stage in (dead, live, foreign, huge):
        stage.mkdir(parents=True)
        (stage / "ranking_ttest.tsv").write_text("partial")
    argv = ["rank", "--matrix", matrix_path, "--labels", labels_path, "--method", "ttest"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert not dead.exists()
    assert (live / "ranking_ttest.tsv").read_text() == "partial"
    assert (foreign / "ranking_ttest.tsv").read_text() == "partial"
    assert (huge / "ranking_ttest.tsv").read_text() == "partial"
    published = sorted(n for n in os.listdir(out) if not n.startswith(".staging."))
    assert published == ["manifest.json", "ranking_ttest.tsv"]


def test_staging_directory_named_after_the_pid(tables, tmp_path, monkeypatch):
    _, matrix_path, labels_path = tables
    seen = []
    save_ranking = cli.save_ranking

    def recording(ranking, gene_ids, path):
        seen.append(os.path.basename(os.path.dirname(path)))
        save_ranking(ranking, gene_ids, path)

    monkeypatch.setattr(cli, "save_ranking", recording)
    argv = ["rank", "--matrix", matrix_path, "--labels", labels_path, "--method", "ttest"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(seen) == 1 and seen[0].startswith(f".staging.{os.getpid()}.")


def test_interleaved_writers_both_complete(tables, tmp_path, monkeypatch):
    # while rank is mid-write, ingest publishes into the same --out; each
    # run stages its files apart, so both sets land whole and no staging
    # entry is left behind
    _, matrix_path, labels_path = tables
    data = ["--matrix", matrix_path, "--labels", labels_path]
    rank_argv = ["rank", *data, "--method", "ttest", "--out"]
    ingest_argv = ["ingest", *data, "--out"]
    ref = tmp_path / "ref"
    assert cli.main(rank_argv + [str(ref)]) == 0
    assert cli.main(ingest_argv + [str(ref)]) == 0

    out = tmp_path / "out"
    save_ranking = cli.save_ranking
    seen = []

    def interleaved(ranking, gene_ids, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("partial")
        assert cli.main(ingest_argv + [str(out)]) == 0
        seen.extend(name for name in os.listdir(out) if not name.startswith(".staging."))
        save_ranking(ranking, gene_ids, path)

    monkeypatch.setattr(cli, "save_ranking", interleaved)
    assert cli.main(rank_argv + [str(out)]) == 0
    # the rank run's files were invisible until it published
    assert sorted(seen) == ["labels.tsv", "manifest.json", "matrix.tsv"]
    names = ["labels.tsv", "manifest.json", "matrix.tsv", "ranking_ttest.tsv"]
    assert sorted(os.listdir(out)) == names
    for name in ("labels.tsv", "matrix.tsv", "ranking_ttest.tsv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    assert _manifest(out)["command"] == "rank"


def test_artifact_mode_follows_umask(tables, tmp_path):
    _, matrix_path, labels_path = tables
    out = tmp_path / "out"
    mask = os.umask(0o027)
    try:
        cli.main(
            ["ingest", "--matrix", matrix_path, "--labels", labels_path, "--out", str(out)]
        )
    finally:
        os.umask(mask)
    for name in ("matrix.tsv", "labels.tsv", "manifest.json"):
        assert os.stat(out / name).st_mode & 0o777 == 0o640, name


# ---------------------------------------------------------------------------
# rank


def test_rank_writes_expected_artifact(tables, tmp_path):
    _, matrix_path, labels_path = tables
    for method in ("ttest", "wilcoxon", "roc", "fgf"):
        out = tmp_path / f"rank_{method}"
        code = cli.main(
            [
                "rank",
                "--matrix",
                matrix_path,
                "--labels",
                labels_path,
                "--out",
                str(out),
                "--method",
                method,
            ]
        )
        assert code == 0
        lines = (out / f"ranking_{method}.tsv").read_text().splitlines()
        assert lines[0] == "rank\tgene_id\tscore"
        assert len(lines) == 21
        # the strong planted markers must dominate the top of every list
        top = {line.split("\t")[1] for line in lines[1:5]}
        assert top == {"g0000", "g0001", "g0002", "g0003"}


def test_rank_with_saved_fgf_params(tables, tmp_path):
    _, matrix_path, labels_path = tables
    params_path = tmp_path / "params.json"
    save_params(
        FgfParams(
            FuzzyRegion(0.1, 0.8), FuzzyRegion(0.2, 0.7), FuzzyRegion(0.15, 0.85)
        ),
        params_path,
    )
    out = tmp_path / "rank_custom"
    code = cli.main(
        [
            "rank",
            "--matrix",
            matrix_path,
            "--labels",
            labels_path,
            "--out",
            str(out),
            "--method",
            "fgf",
            "--fgf-params",
            str(params_path),
        ]
    )
    assert code == 0
    assert (out / "ranking_fgf.tsv").exists()


def test_fgf_params_flag_requires_fgf_method(tables, tmp_path):
    _, matrix_path, labels_path = tables
    with pytest.raises(SystemExit) as exc:
        cli.main(
            [
                "rank",
                "--matrix",
                matrix_path,
                "--labels",
                labels_path,
                "--out",
                str(tmp_path / "x"),
                "--method",
                "ttest",
                "--fgf-params",
                str(tmp_path / "params.json"),
            ]
        )
    assert exc.value.code == 2


def test_rank_reproducible_bytes(tables, tmp_path):
    _, matrix_path, labels_path = tables
    out = tmp_path / "repro"
    argv = [
        "rank",
        "--matrix",
        matrix_path,
        "--labels",
        labels_path,
        "--out",
        str(out),
        "--method",
        "ttest",
        "--seed",
        "7",
    ]
    assert cli.main(argv) == 0
    first = (out / "ranking_ttest.tsv").read_bytes()
    first_manifest = _manifest(out)
    assert cli.main(argv) == 0
    second = (out / "ranking_ttest.tsv").read_bytes()
    second_manifest = _manifest(out)
    assert first == second
    first_manifest.pop("timestamp")
    second_manifest.pop("timestamp")
    assert first_manifest == second_manifest


# ---------------------------------------------------------------------------
# optimize-fgf


def test_optimize_fgf_artifacts(tables, tmp_path):
    _, matrix_path, labels_path = tables
    out = tmp_path / "opt"
    argv = [
        "optimize-fgf",
        "--matrix",
        matrix_path,
        "--labels",
        labels_path,
        "--out",
        str(out),
        "--population",
        "6",
        "--generations",
        "3",
        "--top-n",
        "4",
        "--seed",
        "11",
    ]
    assert cli.main(argv) == 0
    params = load_params(out / "fgf_params.json")
    for region in (params.fold_change, params.variance, params.rank_sum):
        assert 0.0 < region.alpha < region.beta < 1.0
    trace_lines = (out / "ga_trace.tsv").read_text().splitlines()
    assert trace_lines[0] == "generation\tbest_fitness"
    assert len(trace_lines) == 5  # header + generations 0..3
    fits = [float(line.split("\t")[1]) for line in trace_lines[1:]]
    assert fits == sorted(fits)

    # byte-for-byte reproducible under the same seed
    first = (out / "fgf_params.json").read_bytes()
    assert cli.main(argv) == 0
    assert (out / "fgf_params.json").read_bytes() == first


# ---------------------------------------------------------------------------
# evaluate / compare / report


def test_evaluate_artifacts(tables, tmp_path):
    _, matrix_path, labels_path = tables
    out = tmp_path / "eval"
    code = cli.main(
        [
            "evaluate",
            "--matrix",
            matrix_path,
            "--labels",
            labels_path,
            "--out",
            str(out),
            "--method",
            "ttest",
            "--classifier",
            "knn",
            "--k-max",
            "4",
        ]
    )
    assert code == 0
    sweep_lines = (out / "sweep_ttest_knn.tsv").read_text().splitlines()
    assert sweep_lines[0] == "k\taccuracy"
    assert len(sweep_lines) == 5
    with open(out / "evaluate_ttest_knn.json", "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["method"] == "ttest"
    assert summary["classifier"] == "knn"
    assert summary["best_k"] in (1, 2, 3, 4)
    accuracies = [float(line.split("\t")[1]) for line in sweep_lines[1:]]
    assert summary["best_accuracy"] == max(accuracies)


def test_evaluate_fgf_without_anchors_tunes_them_on_the_full_data(tables, tmp_path):
    _, matrix_path, labels_path = tables
    out = tmp_path / "eval"
    ga_flags = ["--ga-population", "4", "--ga-generations", "1"]
    code = cli.main(
        ["evaluate", "--matrix", matrix_path, "--labels", labels_path, "--out", str(out),
         "--method", "fgf", "--classifier", "knn", "--k-max", "2", "--seed", "5", *ga_flags]
    )
    assert code == 0
    expected = crossval.sweep_gene_counts(
        load_dataset(matrix_path, labels_path), "fgf", "knn", k_max=2, seed=5,
        ga_config=gaopt.GaConfig(population_size=4, generations=1, seed=5),
    )
    crossval.save_sweep(expected, tmp_path / "expected.tsv")
    sweep = (out / "sweep_fgf_knn.tsv").read_bytes()
    assert sweep == (tmp_path / "expected.tsv").read_bytes()
    assert len(sweep.splitlines()) == 3
    with open(out / "evaluate_fgf_knn.json", "r", encoding="utf-8") as fh:
        assert json.load(fh)["best_k"] == expected.best_k


def test_evaluate_solver_failure_is_fatal(tables, tmp_path, capsys, monkeypatch):
    # one SVM fit failing inside the sweep aborts the whole evaluation,
    # and nothing is written: from the seventh grid of fits on, the
    # solver's budget is one update, which no fit of two classes meets;
    # the Python fold loop runs, so that every grid of fits is counted
    _, matrix_path, labels_path = tables
    unbind(monkeypatch, "fold_search")
    calls = []
    solve = classifiers._SVM_GRID

    def failing_from_seventh(X, y, cs, queries, max_iter, tol, sv_tol):
        calls.append(len(cs))
        if len(calls) == 7:
            monkeypatch.setattr(classifiers, "_SVM_MAX_ITER", 1)
            max_iter = 1
        return solve(X, y, cs, queries, max_iter, tol, sv_tol)

    monkeypatch.setattr(classifiers, "_SVM_GRID", failing_from_seventh)
    out = tmp_path / "eval"
    code = cli.main(
        [
            "evaluate",
            "--matrix",
            matrix_path,
            "--labels",
            labels_path,
            "--out",
            str(out),
            "--method",
            "ttest",
            "--classifier",
            "svm",
            "--k-max",
            "2",
        ]
    )
    assert code == 1
    assert len(calls) >= 7
    err = capsys.readouterr().err
    assert err.startswith("error: dual optimization stalled")
    assert "after 1 updates" in err
    assert not out.exists()
    for pattern in ("sweep_*.tsv", "evaluate_*.json", "manifest.json"):
        assert list(tmp_path.rglob(pattern)) == [], pattern


def _fake_evaluation(path, method, classifier, best_k, best_accuracy):
    payload = {
        "method": method,
        "classifier": classifier,
        "best_k": best_k,
        "best_accuracy": best_accuracy,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def test_compare_writes_anova(tmp_path):
    paths = [
        _fake_evaluation(tmp_path / "e1.json", "fgf", "knn", 9, 0.961),
        _fake_evaluation(tmp_path / "e2.json", "fgf", "svm", 12, 0.950),
        _fake_evaluation(tmp_path / "e3.json", "ttest", "knn", 20, 0.931),
        _fake_evaluation(tmp_path / "e4.json", "ttest", "svm", 25, 0.941),
    ]
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--evaluations", *paths, "--out", str(out)])
    assert code == 0
    with open(out / "anova.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert set(payload) == {"F", "p", "df_between", "df_within"}
    assert payload["df_between"] == 1
    assert payload["df_within"] == 2
    assert 0.0 <= payload["p"] <= 1.0

    from scipy import stats

    ref = stats.f_oneway([0.961, 0.950], [0.931, 0.941])
    assert payload["F"] == pytest.approx(ref.statistic, rel=1e-12)


def test_compare_needs_two_methods(tmp_path, capsys):
    paths = [
        _fake_evaluation(tmp_path / "e1.json", "fgf", "knn", 9, 0.961),
        _fake_evaluation(tmp_path / "e2.json", "fgf", "svm", 12, 0.950),
    ]
    code = cli.main(["compare", "--evaluations", *paths, "--out", str(tmp_path / "c")])
    assert code == 1
    assert "two methods" in capsys.readouterr().err


def test_compare_rejects_malformed_evaluation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"method": "fgf"}', encoding="utf-8")
    code = cli.main(
        ["compare", "--evaluations", str(bad), "--out", str(tmp_path / "c")]
    )
    assert code == 1
    assert "missing key" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize(
    "text", ["5", '"method classifier best_k best_accuracy"'], ids=["number", "string"]
)
def test_non_object_evaluation_exits_one(tmp_path, capsys, command, text):
    # a JSON string holding every key name passes a bare membership test
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    good = _fake_evaluation(tmp_path / "e1.json", "ttest", "knn", 20, 0.931)
    out = tmp_path / "out"
    code = cli.main([command, "--evaluations", good, str(bad), "--out", str(out)])
    assert code == 1
    assert f"{bad}: expected a JSON object" in capsys.readouterr().err
    assert not (out / "summary.tsv").exists()
    assert not (out / "anova.json").exists()


_BAD_VALUES = [
    ("method", ""),
    ("method", 7),
    ("classifier", None),
    ("classifier", ["knn"]),
    ("best_k", 0),
    ("best_k", True),
    ("best_k", 2.0),
    ("best_k", "3"),
    ("best_accuracy", None),
    ("best_accuracy", "0.5"),
    ("best_accuracy", True),
    ("best_accuracy", 1.5),
    ("best_accuracy", -0.1),
    ("best_accuracy", float("nan")),
    ("best_accuracy", float("inf")),
]


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize(
    "key, value", _BAD_VALUES, ids=[f"{k}={v!r}" for k, v in _BAD_VALUES]
)
def test_invalid_evaluation_value_exits_one(tmp_path, capsys, command, key, value):
    payload = {"method": "fgf", "classifier": "knn", "best_k": 9, "best_accuracy": 0.9}
    payload[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    paths = [
        _fake_evaluation(tmp_path / "e1.json", "ttest", "knn", 20, 0.931),
        _fake_evaluation(tmp_path / "e2.json", "ttest", "svm", 25, 0.941),
        _fake_evaluation(tmp_path / "e3.json", "fgf", "svm", 12, 0.950),
    ]
    out = tmp_path / "out"
    code = cli.main([command, "--evaluations", *paths, str(bad), "--out", str(out)])
    assert code == 1
    assert f"error: {bad}: {key!r} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "report"])
def test_unknown_names_order_ignores_file_order(tmp_path, command):
    # known methods and classifiers keep crossval's order, the rest sort
    paths = [
        _fake_evaluation(tmp_path / "e1.json", "zeta", "tree", 3, 0.70),
        _fake_evaluation(tmp_path / "e2.json", "alpha", "knn", 4, 0.80),
        _fake_evaluation(tmp_path / "e3.json", "fgf", "forest", 5, 0.95),
        _fake_evaluation(tmp_path / "e4.json", "ttest", "knn", 6, 0.85),
        _fake_evaluation(tmp_path / "e5.json", "zeta", "knn", 7, 0.75),
        _fake_evaluation(tmp_path / "e6.json", "alpha", "tree", 8, 0.90),
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main([command, "--evaluations", *paths, "--out", str(first)]) == 0
    assert cli.main([command, "--evaluations", *paths[::-1], "--out", str(second)]) == 0
    name = "anova.json" if command == "compare" else "summary.tsv"
    assert (first / name).read_bytes() == (second / name).read_bytes()
    if command == "report":
        lines = (first / name).read_text().splitlines()
        assert lines[0] == "classifier\tttest\tfgf\talpha\tzeta"
        assert [line.split("\t")[0] for line in lines[1:]] == ["knn", "forest", "tree"]


def test_report_formats_cells(tmp_path):
    paths = [
        _fake_evaluation(tmp_path / "e1.json", "fgf", "knn", 9, 0.961),
        _fake_evaluation(tmp_path / "e2.json", "ttest", "knn", 20, 0.931),
        _fake_evaluation(tmp_path / "e3.json", "fgf", "mlp", 12, 0.95),
    ]
    out = tmp_path / "rep"
    code = cli.main(["report", "--evaluations", *paths, "--out", str(out)])
    assert code == 0
    lines = (out / "summary.tsv").read_text().splitlines()
    assert lines[0] == "classifier\tttest\tfgf"
    by_row = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
    assert by_row["knn"] == ["knn", "93.1% (20)", "96.1% (9)"]
    assert by_row["mlp"] == ["mlp", "", "95.0% (12)"]

    box = (out / "boxplot_data.tsv").read_text().splitlines()
    assert box[0] == "method\tclassifier\taccuracy"
    assert "fgf\tknn\t0.961" in box


def test_report_rejects_duplicate_cells(tmp_path, capsys):
    # one method x classifier cell per report: the summary could show only
    # one of them while the box data listed both
    paths = [
        _fake_evaluation(tmp_path / "e1.json", "fgf", "knn", 9, 0.9),
        _fake_evaluation(tmp_path / "e2.json", "ttest", "knn", 20, 0.8),
        _fake_evaluation(tmp_path / "e3.json", "fgf", "knn", 3, 0.6),
    ]
    out = tmp_path / "rep"
    code = cli.main(["report", "--evaluations", *paths, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{paths[0]} and {paths[2]} both hold fgf/knn" in err
    assert not out.exists()
    # compare pools them: a pair appears once per dataset
    code = cli.main(["compare", "--evaluations", *paths, "--out", str(tmp_path / "cmp")])
    assert code == 0
    payload = json.loads((tmp_path / "cmp" / "anova.json").read_text())
    assert (payload["df_between"], payload["df_within"]) == (1, 1)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import and the package needs
    # only midranks from it, which rankers computes itself
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, generank.cli; print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "False"


def test_console_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "generank.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert "ingest" in completed.stdout
    assert "optimize-fgf" in completed.stdout


# ---------------------------------------------------------------------------
# argument declarations


def _argv_of_each_command(tmp_path, matrix_path, labels_path):
    data = ["--matrix", matrix_path, "--labels", labels_path]
    evaluations = [
        _fake_evaluation(tmp_path / "e1.json", "fgf", "knn", 9, 0.961),
        _fake_evaluation(tmp_path / "e2.json", "ttest", "knn", 20, 0.931),
        _fake_evaluation(tmp_path / "e3.json", "ttest", "svm", 25, 0.941),
    ]
    ga = ["--population", "4", "--generations", "1", "--top-n", "4"]
    eval_flags = ["--method", "ttest", "--classifier", "knn", "--k-max", "2"]
    return {
        "ingest": (data, {"matrix": matrix_path, "labels": labels_path}),
        "normalize": (data, {"matrix": matrix_path, "labels": labels_path}),
        "rank": (data + ["--method", "roc"], {"matrix": matrix_path, "labels": labels_path}),
        "optimize-fgf": (data + ga, {"matrix": matrix_path, "labels": labels_path}),
        "evaluate": (data + eval_flags, {"matrix": matrix_path, "labels": labels_path}),
        "compare": (
            ["--evaluations", *evaluations],
            {f"evaluation_{i}": p for i, p in enumerate(evaluations)},
        ),
        "report": (
            ["--evaluations", *evaluations],
            {f"evaluation_{i}": p for i, p in enumerate(evaluations)},
        ),
    }


@pytest.mark.parametrize(
    "command",
    ["ingest", "normalize", "rank", "optimize-fgf", "evaluate", "compare", "report"],
)
def test_manifest_names_the_inputs_and_seed(tables, tmp_path, command):
    _, matrix_path, labels_path = tables
    args, inputs = _argv_of_each_command(tmp_path, matrix_path, labels_path)[command]
    out = tmp_path / "out"
    assert cli.main([command, *args, "--out", str(out), "--seed", "7"]) == 0
    manifest = _manifest(out)
    assert manifest["command"] == command
    assert manifest["inputs"] == inputs
    assert manifest["seed"] == 7
    assert manifest["options"]["seed"] == 7


def test_ga_defaults_come_from_ga_config(tables, tmp_path, monkeypatch):
    _, matrix_path, labels_path = tables
    data = ["--matrix", matrix_path, "--labels", labels_path, "--out", str(tmp_path / "o")]
    seen = []

    def stop(*args, **kwargs):
        seen.append(kwargs.get("ga_config", args[-1]))
        raise ValueError("stopped")

    monkeypatch.setattr(gaopt, "optimize_fgf", stop)
    monkeypatch.setattr(cli.crossval, "sweep_gene_counts", stop)
    assert cli.main(["optimize-fgf", *data]) == 1
    assert cli.main(["evaluate", *data, "--method", "ttest", "--classifier", "knn"]) == 1
    assert seen == [gaopt.GaConfig(), gaopt.GaConfig()]
    args = cli.build_parser().parse_args(
        ["evaluate", *data, "--method", "ttest", "--classifier", "knn"]
    )
    defaults = gaopt.GaConfig()
    assert (args.ga_population, args.ga_generations) == (
        defaults.population_size,
        defaults.generations,
    )


@pytest.mark.parametrize("method", ["ttest", "wilcoxon", "roc"])
def test_reoptimize_fgf_needs_method_fgf(tables, tmp_path, capsys, method):
    # the per-fold search tunes the fuzzy filter, which other methods ignore
    _, matrix_path, labels_path = tables
    argv = [
        "evaluate", "--matrix", matrix_path, "--labels", labels_path,
        "--out", str(tmp_path / "out"), "--method", method, "--classifier", "knn",
        "--reoptimize-fgf",
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--reoptimize-fgf is only valid with --method fgf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--rank-scope", "full"],
        ["--fgf-params", "params.json"],
        ["--rank-scope", "full", "--fgf-params", "params.json"],
    ],
    ids=["full-scope", "fgf-params", "both"],
)
def test_reoptimize_fgf_contradictions_exit_two(tables, tmp_path, capsys, flags):
    # --rank-scope full would rank once with the default anchors, and given
    # anchors would be dropped for the per-fold search
    _, matrix_path, labels_path = tables
    argv = [
        "evaluate", "--matrix", matrix_path, "--labels", labels_path,
        "--out", str(tmp_path / "out"), "--method", "fgf", "--classifier", "knn",
        "--reoptimize-fgf", *flags,
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--reoptimize-fgf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
