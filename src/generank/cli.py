"""Batch command-line interface.

Subcommands cover the whole pipeline: ``ingest`` validates and
canonicalizes a dataset, ``normalize`` applies quantile normalization,
``rank`` writes a gene ranking, ``optimize-fgf`` tunes the fuzzy filter,
``evaluate`` runs the leave-one-out sweep for one method/classifier
pair, ``compare`` runs the ANOVA across methods and ``report`` renders
the summary tables. A run publishes all of its files or none: they are
written into a staging directory inside ``--out`` and renamed into
place only once every one of them is complete, with ``manifest.json``
last.

Exit codes: 0 on success, 2 on usage errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import shutil
import sys
import tempfile

import generank
from generank import crossval, fgf, gaopt
from generank.classifiers import ConvergenceError
from generank.dataio import (
    DataFormatError,
    Dataset,
    load_tables,
    quantile_normalize,
    save_dataset,
)
from generank.rankers import save_ranking


def _pid_is_gone(pid: int) -> bool:
    """Whether no process has this id. A process of another user counts
    as running, and an id too large for the system as unknown."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):
        return False
    return False


def _remove_dead_stages(out) -> None:
    """Remove the ``.staging.<pid>.*`` directories in ``out`` whose run
    is gone, such as one killed mid-write. Directories of running pids,
    and names that do not parse, stay. Pids are told apart on this host
    only, and the check runs on POSIX systems only: on Windows
    ``os.kill`` would end the process."""
    if os.name != "posix":
        return
    for name in os.listdir(out):
        parts = name.split(".")
        if len(parts) == 4 and parts[1] == "staging" and parts[2].isdigit():
            pid = int(parts[2])
            if pid > 0 and _pid_is_gone(pid):
                shutil.rmtree(os.path.join(out, name), ignore_errors=True)


def _publish(args, write) -> None:
    """Publish a command's files into ``args.out``: all of them or none.

    ``write(stage)`` writes the artifacts into a staging directory of its
    own inside ``args.out``, named after the run's pid; the manifest joins
    them there, then each file is renamed into ``args.out``, the manifest
    last. A failure before the renames publishes nothing and leaves
    earlier files untouched, and concurrent runs into one directory never
    share or delete each other's staged files. Staging directories left
    by runs that no longer exist are removed first.
    """
    os.makedirs(args.out, exist_ok=True)
    _remove_dead_stages(args.out)
    stage = tempfile.mkdtemp(prefix=f".staging.{os.getpid()}.", dir=args.out)
    try:
        write(stage)
        if hasattr(args, "evaluations"):
            inputs = {f"evaluation_{i}": p for i, p in enumerate(args.evaluations)}
        else:
            inputs = {"matrix": args.matrix, "labels": args.labels}
        manifest = {
            "tool": "generank",
            "version": generank.__version__,
            "command": args.command,
            "seed": args.seed,
            "inputs": {name: str(path) for name, path in inputs.items()},
            "options": {
                key: value
                for key, value in sorted(vars(args).items())
                if not callable(value)
            },
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        _write_text(os.path.join(stage, "manifest.json"), _json_text(manifest))
        names = sorted(os.listdir(stage), key=lambda name: name == "manifest.json")
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(args.out, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _publish_dataset(args, dataset, sample_ids) -> None:
    _publish(
        args,
        lambda stage: save_dataset(
            dataset,
            os.path.join(stage, "matrix.tsv"),
            os.path.join(stage, "labels.tsv"),
            sample_ids,
        ),
    )


def _cmd_ingest(args) -> None:
    dataset, sample_ids = load_tables(args.matrix, args.labels)
    _publish_dataset(args, dataset, sample_ids)
    print(
        f"ingested {dataset.n_genes} genes x {dataset.n_samples} samples "
        f"({dataset.class_names[0]} vs {dataset.class_names[1]})"
    )


def _cmd_normalize(args) -> None:
    dataset, sample_ids = load_tables(args.matrix, args.labels)
    normalized = Dataset(
        quantile_normalize(dataset.matrix, use_median=args.median),
        dataset.gene_ids,
        dataset.labels,
        dataset.class_names,
    )
    _publish_dataset(args, normalized, sample_ids)
    print(f"normalized {dataset.n_genes} genes x {dataset.n_samples} samples")


def _fgf_params_from(args):
    return fgf.load_params(args.fgf_params) if args.fgf_params else None


def _cmd_rank(args) -> None:
    dataset, _ = load_tables(args.matrix, args.labels)
    ranking = crossval.rank(dataset, args.method, _fgf_params_from(args))
    name = f"ranking_{args.method}.tsv"
    _publish(
        args, lambda stage: save_ranking(ranking, dataset.gene_ids, os.path.join(stage, name))
    )
    print(f"wrote {os.path.join(args.out, name)}")


# optimize-fgf's genetic-search flags (without the leading "--") and the
# GaConfig fields they set; evaluate takes the first two as --ga-<flag>.
# Defaults and types are read from GaConfig.
_GA_FLAGS = (
    ("population", "population_size"),
    ("generations", "generations"),
    ("tournament-size", "tournament_size"),
    ("crossover-rate", "crossover_rate"),
    ("mutation-rate", "mutation_rate"),
    ("mutation-sigma", "mutation_sigma"),
    ("elite-count", "elite_count"),
    ("top-n", "top_n_genes"),
)
_EVALUATE_GA_FLAGS = _GA_FLAGS[:2]


def _add_ga_arguments(parser, flags, prefix: str) -> None:
    defaults = gaopt.GaConfig()
    for flag, field in flags:
        default = getattr(defaults, field)
        parser.add_argument(f"--{prefix}{flag}", type=type(default), default=default)


def _ga_config(args, flags, prefix: str):
    """The GaConfig set by ``flags`` (as added by :func:`_add_ga_arguments`)
    and ``--seed``."""
    values = {
        field: getattr(args, (prefix + flag).replace("-", "_")) for flag, field in flags
    }
    return gaopt.GaConfig(seed=args.seed, **values)


def _cmd_optimize_fgf(args) -> None:
    dataset, _ = load_tables(args.matrix, args.labels)
    params, trace = gaopt.optimize_fgf(dataset, _ga_config(args, _GA_FLAGS, ""))

    def write(stage):
        fgf.save_params(params, os.path.join(stage, "fgf_params.json"))
        gaopt.save_trace(trace, os.path.join(stage, "ga_trace.tsv"))

    _publish(args, write)
    print(
        f"best separability {trace.best_fitness[-1]!r} after {args.generations} "
        f"generations; wrote {os.path.join(args.out, 'fgf_params.json')}"
    )


# Each key of an evaluation summary, what its value must be, and the test.
# JSON numbers load as int or float exactly, and true/false as bool.
_EVALUATION_RULES = (
    ("method", "a non-empty string", lambda v: isinstance(v, str) and v != ""),
    ("classifier", "a non-empty string", lambda v: isinstance(v, str) and v != ""),
    ("best_k", "an integer >= 1", lambda v: type(v) is int and v >= 1),
    ("best_accuracy", "a real number in [0, 1]",
     lambda v: type(v) in (int, float) and 0.0 <= v <= 1.0),
)


def _cmd_evaluate(args) -> None:
    dataset, _ = load_tables(args.matrix, args.labels)
    result = crossval.sweep_gene_counts(
        dataset,
        args.method,
        args.classifier,
        k_max=args.k_max,
        fgf_params=_fgf_params_from(args),
        rank_scope=args.rank_scope,
        seed=args.seed,
        reoptimize_fgf=args.reoptimize_fgf,
        ga_config=_ga_config(args, _EVALUATE_GA_FLAGS, "ga-"),
    )
    stem = f"{args.method}_{args.classifier}"
    summary = {key: getattr(result, key) for key, _, _ in _EVALUATION_RULES}

    def write(stage):
        crossval.save_sweep(result, os.path.join(stage, f"sweep_{stem}.tsv"))
        _write_text(os.path.join(stage, f"evaluate_{stem}.json"), _json_text(summary))

    _publish(args, write)
    print(
        f"{args.method}/{args.classifier}: best accuracy "
        f"{result.best_accuracy:.4f} at k={result.best_k}"
    )


def _load_evaluations(paths):
    evaluations = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object")
        for key, what, valid in _EVALUATION_RULES:
            if key not in data:
                raise ValueError(f"{path}: missing key {key!r}")
            if not valid(data[key]):
                raise ValueError(f"{path}: {key!r} must be {what}, got {data[key]!r}")
        evaluations.append(data)
    return evaluations


def _ordered(names, known):
    """Distinct ``names``: those in ``known`` in its order, then the rest
    sorted."""
    names = set(names)
    return [n for n in known if n in names] + sorted(names - set(known))


def _cmd_compare(args) -> None:
    evaluations = _load_evaluations(args.evaluations)
    by_method = {}
    for ev in evaluations:
        by_method.setdefault(ev["method"], []).append(ev["best_accuracy"])
    if len(by_method) < 2:
        raise ValueError("compare needs evaluations from at least two methods")
    methods = _ordered(by_method, crossval.METHODS)
    result = crossval.anova_oneway([by_method[m] for m in methods])
    payload = {
        "F": result.f_statistic,
        "p": result.p_value,
        "df_between": result.df_between,
        "df_within": result.df_within,
    }
    _publish(
        args, lambda stage: _write_text(os.path.join(stage, "anova.json"), _json_text(payload))
    )
    print(f"ANOVA across {len(methods)} methods: F={result.f_statistic!r} p={result.p_value!r}")


def _cmd_report(args) -> None:
    evaluations = _load_evaluations(args.evaluations)
    methods = _ordered((e["method"] for e in evaluations), crossval.METHODS)
    classifiers = _ordered((e["classifier"] for e in evaluations), crossval.CLASSIFIERS)
    cell, source = {}, {}
    for path, e in zip(args.evaluations, evaluations):
        key = (e["method"], e["classifier"])
        if key in cell:
            raise ValueError(
                f"{source[key]} and {path} both hold {key[0]}/{key[1]}; "
                "report takes one evaluation per method and classifier"
            )
        cell[key], source[key] = e, path

    lines = ["classifier\t" + "\t".join(methods)]
    for clf in classifiers:
        row = [clf]
        for m in methods:
            e = cell.get((m, clf))
            row.append(f"{e['best_accuracy'] * 100:.1f}% ({e['best_k']})" if e else "")
        lines.append("\t".join(row))
    box_lines = ["method\tclassifier\taccuracy"]
    for e in evaluations:
        box_lines.append(f"{e['method']}\t{e['classifier']}\t{e['best_accuracy']!r}")

    def write(stage):
        _write_text(os.path.join(stage, "summary.tsv"), "\n".join(lines) + "\n")
        _write_text(os.path.join(stage, "boxplot_data.tsv"), "\n".join(box_lines) + "\n")

    _publish(args, write)
    print(f"wrote summary for {len(evaluations)} evaluations to {args.out}")


def _command(sub, name: str, help: str, func, evaluations: bool = False):
    """Add subcommand ``name`` with its inputs (``--matrix``/``--labels``,
    or ``--evaluations``), ``--out`` and ``--seed``; returns its parser
    for the command's own flags."""
    p = sub.add_parser(name, help=help)
    if evaluations:
        p.add_argument("--evaluations", required=True, nargs="+", help="evaluate_*.json files")
    else:
        p.add_argument("--matrix", required=True, help="expression matrix TSV")
        p.add_argument("--labels", required=True, help="sample label TSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="generank",
        description="Gene ranking and benchmarking for two-class expression data.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {generank.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "ingest", "validate a dataset and write canonical copies", _cmd_ingest)

    p = _command(sub, "normalize", "quantile-normalize the expression matrix", _cmd_normalize)
    p.add_argument(
        "--median", action="store_true", help="use the median reference distribution"
    )

    p = _command(sub, "rank", "write one gene ranking", _cmd_rank)
    p.add_argument("--method", required=True, choices=crossval.METHODS)
    p.add_argument("--fgf-params", help="fuzzy filter parameter JSON (fgf only)")

    p = _command(sub, "optimize-fgf", "tune the fuzzy filter by genetic search", _cmd_optimize_fgf)
    _add_ga_arguments(p, _GA_FLAGS, "")

    p = _command(sub, "evaluate", "leave-one-out sweep for one method/classifier", _cmd_evaluate)
    p.add_argument("--method", required=True, choices=crossval.METHODS)
    p.add_argument("--classifier", required=True, choices=crossval.CLASSIFIERS)
    p.add_argument("--k-max", type=int, default=crossval.DEFAULT_K_MAX)
    p.add_argument("--rank-scope", choices=("train", "full"), default="train")
    p.add_argument("--fgf-params", help="fuzzy filter parameter JSON (fgf only)")
    p.add_argument(
        "--reoptimize-fgf",
        action="store_true",
        help="rerun the genetic search inside every fold (slow)",
    )
    _add_ga_arguments(p, _EVALUATE_GA_FLAGS, "ga-")

    _command(sub, "compare", "one-way ANOVA of accuracies across methods", _cmd_compare, True)
    _command(sub, "report", "summary table and long-format accuracy data", _cmd_report, True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fgf_params", None) and args.method != "fgf":
        parser.error("--fgf-params is only valid with --method fgf")
    if getattr(args, "reoptimize_fgf", False):
        if args.method != "fgf":
            parser.error("--reoptimize-fgf is only valid with --method fgf")
        if args.rank_scope == "full":
            parser.error("--reoptimize-fgf needs --rank-scope train")
        if args.fgf_params:
            parser.error("--reoptimize-fgf and --fgf-params exclude each other")
    try:
        args.func(args)
    except (
        DataFormatError,
        ValueError,
        ConvergenceError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
