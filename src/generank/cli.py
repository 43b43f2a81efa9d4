"""Batch command-line interface.

Subcommands cover the whole pipeline: ``ingest`` validates and
canonicalizes a dataset, ``normalize`` applies quantile normalization,
``rank`` writes a gene ranking, ``optimize-fgf`` tunes the fuzzy filter,
``evaluate`` runs the leave-one-out sweep for one method/classifier
pair, ``compare`` runs the ANOVA across methods and ``report`` renders
the summary tables. Every run drops a ``manifest.json`` beside its
artifacts; all files are written atomically (temp file + rename).

Exit codes: 0 on success, 2 on usage errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
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


def _umask() -> int:
    """The process umask; it can only be read by setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path, write_fn) -> None:
    """Write through a sibling temp file so readers never see partials.

    Every call gets its own temp file, so concurrent writers into one
    directory never share or delete each other's. The file ends up with
    the mode ``open()`` would give it under the current umask.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        os.chmod(tmp, 0o666 & ~_umask())  # mkstemp creates the file as 0600
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _atomic_text(path, text: str) -> None:
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)

    _atomic_write(path, writer)


def _write_manifest(args, inputs: dict) -> None:
    options = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "func" and not callable(value)
    }
    manifest = {
        "tool": "generank",
        "version": generank.__version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "inputs": {name: str(path) for name, path in inputs.items()},
        "options": {k: v for k, v in options.items()},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = os.path.join(args.out, "manifest.json")
    _atomic_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load(args):
    return load_tables(args.matrix, args.labels)


def _save_canonical(dataset, sample_ids, out_dir) -> None:
    matrix_path = os.path.join(out_dir, "matrix.tsv")
    labels_path = os.path.join(out_dir, "labels.tsv")
    _atomic_write(
        matrix_path,
        lambda tmp_matrix: _atomic_write(
            labels_path,
            lambda tmp_labels: save_dataset(dataset, tmp_matrix, tmp_labels, sample_ids),
        ),
    )


def _cmd_ingest(args) -> None:
    dataset, sample_ids = _load(args)
    os.makedirs(args.out, exist_ok=True)
    _save_canonical(dataset, sample_ids, args.out)
    _write_manifest(args, {"matrix": args.matrix, "labels": args.labels})
    print(
        f"ingested {dataset.n_genes} genes x {dataset.n_samples} samples "
        f"({dataset.class_names[0]} vs {dataset.class_names[1]})"
    )


def _cmd_normalize(args) -> None:
    dataset, sample_ids = _load(args)
    normalized = Dataset(
        quantile_normalize(dataset.matrix, use_median=args.median),
        dataset.gene_ids,
        dataset.labels,
        dataset.class_names,
    )
    os.makedirs(args.out, exist_ok=True)
    _save_canonical(normalized, sample_ids, args.out)
    _write_manifest(args, {"matrix": args.matrix, "labels": args.labels})
    print(f"normalized {dataset.n_genes} genes x {dataset.n_samples} samples")


def _fgf_params_from(args):
    if getattr(args, "fgf_params", None):
        return fgf.load_params(args.fgf_params)
    return None


def _cmd_rank(args) -> None:
    dataset, _ = _load(args)
    if args.method == "fgf":
        params = _fgf_params_from(args) or fgf.default_params()
        ranking = fgf.fgf_rank(dataset, params)
    else:
        from generank.rankers import rank_genes

        ranking = rank_genes(dataset, args.method)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"ranking_{args.method}.tsv")
    _atomic_write(out_path, lambda tmp: save_ranking(ranking, dataset.gene_ids, tmp))
    _write_manifest(args, {"matrix": args.matrix, "labels": args.labels})
    print(f"wrote {out_path}")


def _cmd_optimize_fgf(args) -> None:
    dataset, _ = _load(args)
    config = gaopt.GaConfig(
        population_size=args.population,
        generations=args.generations,
        tournament_size=args.tournament_size,
        crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate,
        mutation_sigma=args.mutation_sigma,
        elite_count=args.elite_count,
        top_n_genes=args.top_n,
        seed=args.seed,
    )
    params, trace = gaopt.optimize_fgf(dataset, config)
    os.makedirs(args.out, exist_ok=True)
    params_path = os.path.join(args.out, "fgf_params.json")
    trace_path = os.path.join(args.out, "ga_trace.tsv")
    _atomic_write(params_path, lambda tmp: fgf.save_params(params, tmp))
    _atomic_write(trace_path, lambda tmp: gaopt.save_trace(trace, tmp))
    _write_manifest(args, {"matrix": args.matrix, "labels": args.labels})
    print(
        f"best separability {trace.best_fitness[-1]!r} after "
        f"{args.generations} generations; wrote {params_path}"
    )


def _cmd_evaluate(args) -> None:
    dataset, _ = _load(args)
    fgf_params = _fgf_params_from(args)
    ga_config = gaopt.GaConfig(
        population_size=args.ga_population,
        generations=args.ga_generations,
        seed=args.seed,
    )
    result = crossval.sweep_gene_counts(
        dataset,
        args.method,
        args.classifier,
        k_max=args.k_max,
        fgf_params=fgf_params,
        rank_scope=args.rank_scope,
        seed=args.seed,
        reoptimize_fgf=args.reoptimize_fgf,
        ga_config=ga_config,
    )
    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.method}_{args.classifier}"
    sweep_path = os.path.join(args.out, f"sweep_{stem}.tsv")
    _atomic_write(sweep_path, lambda tmp: crossval.save_sweep(result, tmp))
    summary = {
        "method": result.method,
        "classifier": result.classifier,
        "best_k": result.best_k,
        "best_accuracy": result.best_accuracy,
    }
    json_path = os.path.join(args.out, f"evaluate_{stem}.json")
    _atomic_text(json_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(args, {"matrix": args.matrix, "labels": args.labels})
    print(
        f"{args.method}/{args.classifier}: best accuracy "
        f"{result.best_accuracy:.4f} at k={result.best_k}"
    )


def _load_evaluations(paths):
    evaluations = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        for key in ("method", "classifier", "best_k", "best_accuracy"):
            if key not in data:
                raise ValueError(f"{path}: missing key {key!r}")
        evaluations.append(data)
    return evaluations


def _cmd_compare(args) -> None:
    evaluations = _load_evaluations(args.evaluations)
    by_method = {}
    for ev in evaluations:
        by_method.setdefault(ev["method"], []).append(ev["best_accuracy"])
    if len(by_method) < 2:
        raise ValueError("compare needs evaluations from at least two methods")
    methods = [m for m in crossval.METHODS if m in by_method]
    methods += [m for m in by_method if m not in methods]
    result = crossval.anova_oneway([by_method[m] for m in methods])
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "F": result.f_statistic,
        "p": result.p_value,
        "df_between": result.df_between,
        "df_within": result.df_within,
    }
    path = os.path.join(args.out, "anova.json")
    _atomic_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_manifest(args, {f"evaluation_{i}": p for i, p in enumerate(args.evaluations)})
    print(f"ANOVA across {len(methods)} methods: F={result.f_statistic!r} p={result.p_value!r}")


def _cmd_report(args) -> None:
    evaluations = _load_evaluations(args.evaluations)
    methods = [m for m in crossval.METHODS if any(e["method"] == m for e in evaluations)]
    methods += sorted({e["method"] for e in evaluations} - set(methods))
    classifiers = [
        c for c in crossval.CLASSIFIERS if any(e["classifier"] == c for e in evaluations)
    ]
    classifiers += sorted({e["classifier"] for e in evaluations} - set(classifiers))
    cell = {(e["method"], e["classifier"]): e for e in evaluations}

    lines = ["classifier\t" + "\t".join(methods)]
    for clf in classifiers:
        row = [clf]
        for m in methods:
            e = cell.get((m, clf))
            row.append(f"{e['best_accuracy'] * 100:.1f}% ({e['best_k']})" if e else "")
        lines.append("\t".join(row))
    os.makedirs(args.out, exist_ok=True)
    _atomic_text(os.path.join(args.out, "summary.tsv"), "\n".join(lines) + "\n")

    box_lines = ["method\tclassifier\taccuracy"]
    for e in evaluations:
        box_lines.append(f"{e['method']}\t{e['classifier']}\t{e['best_accuracy']!r}")
    _atomic_text(os.path.join(args.out, "boxplot_data.tsv"), "\n".join(box_lines) + "\n")
    _write_manifest(args, {f"evaluation_{i}": p for i, p in enumerate(args.evaluations)})
    print(f"wrote summary for {len(evaluations)} evaluations to {args.out}")


def _add_data_arguments(parser) -> None:
    parser.add_argument("--matrix", required=True, help="expression matrix TSV")
    parser.add_argument("--labels", required=True, help="sample label TSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="generank",
        description="Gene ranking and benchmarking for two-class expression data.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {generank.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a dataset and write canonical copies")
    _add_data_arguments(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("normalize", help="quantile-normalize the expression matrix")
    _add_data_arguments(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--median", action="store_true", help="use the median reference distribution"
    )
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("rank", help="write one gene ranking")
    _add_data_arguments(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--method", required=True, choices=crossval.METHODS)
    p.add_argument("--fgf-params", help="fuzzy filter parameter JSON (fgf only)")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("optimize-fgf", help="tune the fuzzy filter by genetic search")
    _add_data_arguments(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--tournament-size", type=int, default=3)
    p.add_argument("--crossover-rate", type=float, default=0.8)
    p.add_argument("--mutation-rate", type=float, default=0.1)
    p.add_argument("--mutation-sigma", type=float, default=0.05)
    p.add_argument("--elite-count", type=int, default=2)
    p.add_argument("--top-n", type=int, default=20)
    p.set_defaults(func=_cmd_optimize_fgf)

    p = sub.add_parser("evaluate", help="leave-one-out sweep for one method/classifier")
    _add_data_arguments(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
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
    p.add_argument("--ga-population", type=int, default=50)
    p.add_argument("--ga-generations", type=int, default=100)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="one-way ANOVA of accuracies across methods")
    p.add_argument("--evaluations", required=True, nargs="+", help="evaluate_*.json files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="summary table and long-format accuracy data")
    p.add_argument("--evaluations", required=True, nargs="+", help="evaluate_*.json files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fgf_params", None) and args.method != "fgf":
        parser.error("--fgf-params is only valid with --method fgf")
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
