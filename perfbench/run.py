"""Seeded end-to-end and per-layer benchmark of the generank command line.

Run from the repository root:

    python3 perfbench/run.py --workload wide_rank --seed 1 --seconds 20 --trace 0

The benchmark writes its seeded inputs under ``.perfbench_work/``, imports
``generank.cli`` from ``src/`` and drives ``cli.main(argv)`` in process as
a closed loop with one client: each command starts when the previous one
returns. It repeats the workload's command sequence until ``--seconds`` is
spent, checks every command's artifacts, and prints one JSON line of
details followed by the result line ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports end-to-end metrics from untraced
iterations, scaled to a nominal host speed (see ``REFERENCE_SECONDS``);
``--trace 1`` alternates untraced and traced iterations and
reports per-layer metrics (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import tracer
from checks import artifact_bytes, check, digest
from inputs import describe, planted_matrix, uneven_planted_matrix, write_tables

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIGESTS = os.path.join(HERE, "reference_digests.json")

DEFAULT_SEED = 1
SETUP_SAMPLES = 5
# Standard-library modules, pure Python and compiled, whose import time in a
# fresh interpreter scales setup_s to a host where it takes
# IMPORT_REFERENCE_SECONDS.
IMPORT_REFERENCE = (
    "import argparse, asyncio, csv, decimal, email.mime.multipart, http.server, json, "
    "logging, pydoc, sqlite3, tarfile, unittest, xml.dom.minidom, zipfile"
)
IMPORT_REFERENCE_SECONDS = 0.1

# Strong planted effects keep the classifiers' solver work (SMO updates,
# SCG steps) nearly the same from seed to seed; the test suite's weaker
# U(0.4, 1.6) shifts make it vary tenfold between seeds.
STRONG_SHIFTS = (1.2, 4.8)

# Every workload reports every end-to-end metric. A command outside a
# workload's focus runs on this small probe input, so that its metric is
# measured there at a cost that stays a small share of the workload.
PROBE_INPUT = {"kind": "uneven", "genes": 150, "info": 15, "n0": 4, "n1": 4,
               "shifts": STRONG_SHIFTS}
PROBE_COMMANDS = (
    ("normalize_s", "probe", ["normalize"]),
    ("rank_ttest_s", "probe", ["rank", "--method", "ttest"]),
    ("rank_wilcoxon_s", "probe", ["rank", "--method", "wilcoxon"]),
    ("rank_roc_s", "probe", ["rank", "--method", "roc"]),
    ("rank_fgf_s", "probe", ["rank", "--method", "fgf"]),
    ("optimize_fgf_s", "probe",
     ["optimize-fgf", "--population", "8", "--generations", "2", "--top-n", "10",
      "--seed", "5"]),
) + tuple(
    (f"evaluate_{clf}_s", "probe",
     ["evaluate", "--method", "ttest", "--classifier", clf, "--k-max", "1", "--seed", "3"])
    for clf in ("knn", "svm", "nbc", "mlp")
)

# A command reads an input by name, or the matrix another command wrote.
WORKLOADS = {
    # dataio and rankers: tie-free values, n = 100 takes the rank-sum
    # normal approximation.
    "wide_rank": {
        "inputs": {"wide": {"kind": "planted", "genes": 1000, "info": 10, "n0": 50,
                            "n1": 50, "shift": 1.0}},
        "commands": (
            ("normalize_s", "wide", ["normalize"]),
            ("rank_ttest_s", "normalize_s", ["rank", "--method", "ttest"]),
            ("rank_wilcoxon_s", "normalize_s", ["rank", "--method", "wilcoxon"]),
            ("rank_roc_s", "normalize_s", ["rank", "--method", "roc"]),
            ("rank_fgf_s", "normalize_s", ["rank", "--method", "fgf"]),
        ),
    },
    # classifiers and crossval: nested LOOCV re-ranks genes in every fold.
    "loocv_sweep": {
        "inputs": {"cohort": {"kind": "uneven", "genes": 200, "info": 30, "n0": 5,
                              "n1": 5, "shifts": STRONG_SHIFTS}},
        "commands": tuple(
            (f"evaluate_{clf}_s", "cohort",
             ["evaluate", "--method", "ttest", "--classifier", clf, "--k-max", "2",
              "--seed", "3"])
            for clf in ("knn", "svm", "nbc", "mlp")
        ),
    },
}

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb") + tuple(m for m, _, _ in PROBE_COMMANDS)


# Host-speed calibration. On a shared host the same code runs up to 60%
# slower for seconds to minutes at a time. The benchmark times a fixed
# reference computation before every command and after the last, and scales
# each pass's timings by REFERENCE_SECONDS / (median reference time over
# that pass and its two neighbours), so a time reads as on a host where the
# reference takes REFERENCE_SECONDS. The reference mixes the kinds of work
# the program does, since a busy host slows each kind by a different share:
# an interpreter loop, NumPy sorts, small matrix products and a large copy.
REFERENCE_SECONDS = 0.01
_rng = numpy.random.default_rng(0)
REFERENCE_SORTED = _rng.normal(size=(1000, 100))
REFERENCE_LEFT = _rng.normal(size=(60, 40))
REFERENCE_RIGHT = _rng.normal(size=(40, 30))
REFERENCE_COPIED = _rng.normal(size=1_000_000)


def reference():
    """Time one run of the fixed reference computation."""
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    numpy.sort(REFERENCE_SORTED, axis=0)
    numpy.argsort(REFERENCE_SORTED, axis=1)
    for _ in range(300):
        numpy.tanh(REFERENCE_LEFT @ REFERENCE_RIGHT)
    REFERENCE_COPIED.copy()
    REFERENCE_COPIED.copy()
    return time.perf_counter() - start


def speed_factors(reference_times):
    """One scale per pass, from the reference times of each pass (a list
    per pass) and of its neighbours."""
    factors = []
    for i in range(len(reference_times)):
        window = [t for times in reference_times[max(0, i - 1):i + 2] for t in times]
        factors.append(REFERENCE_SECONDS / statistics.median(window))
    return factors


def sequence(workload):
    """The workload's commands plus probe commands for every other metric."""
    focus = workload["commands"]
    named = {metric for metric, _, _ in focus}
    return focus + tuple(c for c in PROBE_COMMANDS if c[0] not in named)


def make_inputs(workload, seed, directory):
    """Generate and write every input; returns paths, sample counts and
    descriptors keyed by input name."""
    specs = dict(workload["inputs"], probe=PROBE_INPUT)
    paths, samples, described = {}, {}, {}
    for index, (name, spec) in enumerate(sorted(specs.items())):
        input_seed = [seed, index]
        if spec["kind"] == "planted":
            matrix = planted_matrix(
                spec["genes"], spec["info"], spec["n0"], spec["n1"], spec["shift"], input_seed
            )
        else:
            matrix = uneven_planted_matrix(
                spec["genes"], spec["info"], spec["n0"], spec["n1"], input_seed,
                spec["shifts"],
            )
        paths[name] = write_tables(matrix, spec["n0"], os.path.join(directory, name))
        samples[name] = spec["n0"] + spec["n1"]
        described[name] = describe(matrix)
    return paths, samples, described


def timed_import(imports, env):
    """Seconds a fresh interpreter takes to run ``imports``."""
    code = f"import time\nt = time.perf_counter()\n{imports}\nprint(time.perf_counter() - t)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout)


def measure_setup():
    """Time to import generank.cli (and the kernel backend) in fresh
    interpreters, the cost every invocation pays before its command runs.

    Import time is mostly reading and loading files, which the in-process
    reference does not track, so each sample is scaled by a reference of
    its own kind: a fixed set of standard-library imports timed in a fresh
    interpreter just before it. Returns the raw times and their scales.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times, factors = [], []
    for _ in range(SETUP_SAMPLES):
        factors.append(IMPORT_REFERENCE_SECONDS / timed_import(IMPORT_REFERENCE, env))
        times.append(timed_import("import generank.cli\nimport generank.kernels", env))
    return times, factors


def environment(backend):
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next(
            (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
            cpu,
        )
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_model": cpu,
    }


def run_iteration(cli, commands, paths, n_samples_of, work, corrupt=None):
    """Run one command sequence, then check its artifacts.

    A reference timing (see :func:`reference`) precedes every command and
    follows the last. Returns the sequence's wall time, the sum of its
    commands' times (no checks, no references), the reference times and
    one record per command.
    """
    shutil.rmtree(work, ignore_errors=True)
    gc.collect()
    records = {}
    references = []
    for metric, data, args in commands:
        references.append(reference())
        if data in paths:
            matrix, labels = paths[data]
            n_samples = n_samples_of[data]
        else:
            source = os.path.join(work, data)
            matrix, labels = (os.path.join(source, f) for f in ("matrix.tsv", "labels.tsv"))
            n_samples = records[data]["samples"]
        out = os.path.join(work, metric)
        argv = [args[0], "--matrix", matrix, "--labels", labels, "--out", out, *args[1:]]
        log = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = f"raised {exc!r}"
        records[metric] = {
            "seconds": time.perf_counter() - start,
            "samples": n_samples,
            "argv": argv,
            "out": out,
            "error": None if code == 0 else log.getvalue().strip() or f"cli.main: {code}",
        }
    references.append(reference())
    wall = sum(record["seconds"] for record in records.values())

    for metric, record in records.items():
        if record["error"] is not None:
            continue
        if corrupt is not None:
            corrupt(metric, record["out"])
        try:
            check(record["argv"], record["samples"])
            record["digest"] = digest(record["out"])
            record["bytes"] = artifact_bytes(record["out"])
        except Exception as exc:  # any unreadable artifact fails the check
            record["error"] = f"check failed: {exc!r}"
    return wall, references, records


def run(workload_name, seed, seconds, trace, workloads=WORKLOADS, corrupt=None):
    """Run one workload; returns ``(details, result)``."""
    if not os.path.isdir(os.path.join(SRC, "generank")):
        raise SystemExit(f"generank sources not found under {SRC}")
    sys.path.insert(0, SRC)
    workload = workloads[workload_name]
    commands = sequence(workload)
    work = os.path.join(ROOT, ".perfbench_work", f"{workload_name}-{seed}-{os.getpid()}")
    try:
        paths, samples, described = make_inputs(workload, seed, os.path.join(work, "inputs"))
        setup_times, setup_factors = measure_setup()

        import generank.cli as cli
        from generank.kernels import BACKEND as backend

        iterations = []
        start = time.perf_counter()
        while True:
            traced = trace and len(iterations) % 2 == 1
            spans = tracer.Tracer() if traced else None
            undo = spans.install() if traced else None
            try:
                wall, references, records = run_iteration(
                    cli, commands, paths, samples, os.path.join(work, "run"), corrupt
                )
            finally:
                if undo is not None:
                    undo()
            iterations.append({"wall": wall, "references": references, "records": records,
                               "spans": spans})
            elapsed = time.perf_counter() - start
            enough = len(iterations) >= (2 if trace else 1)
            if enough and elapsed * (len(iterations) + 1) / len(iterations) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    known_digests = {}
    if seed == DEFAULT_SEED and os.path.exists(REFERENCE_DIGESTS):
        with open(REFERENCE_DIGESTS, encoding="utf-8") as fh:
            known_digests = json.load(fh).get(workload_name, {})
    first = iterations[0]["records"]
    attempted = failed = 0
    errors = []
    for it in iterations:
        for metric, record in it["records"].items():
            attempted += 1
            error = record["error"]
            if error is None:
                expected = known_digests.get(metric, first[metric].get("digest"))
                if record["digest"] != expected:
                    error = f"digest {record['digest'][:12]} != expected {str(expected)[:12]}"
            if error is not None:
                failed += 1
                errors.append(f"{metric}: {error}")

    untraced = [it for it in iterations if it["spans"] is None]
    samples_by_metric = {
        metric: [it["records"][metric]["seconds"] for it in untraced] for metric, _, _ in commands
    }
    samples_by_metric["wall_s"] = [it["wall"] for it in untraced]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if trace:
        traced = [it for it in iterations if it["spans"] is not None]
        spans_path = os.path.join(
            ROOT, ".perfbench_work", "spans", f"{workload_name}-{seed}.jsonl"
        )
        tracer.write_spans(spans_path, [it["spans"] for it in traced])
        per_iteration = []
        for it in traced:
            layer = tracer.layer_metrics(it["spans"].spans, backend)
            layer["cli.artifact_bytes"] = sum(
                r.get("bytes", 0) for r in it["records"].values()
            )
            per_iteration.append(layer)
        units = tracer.metric_units()
        values = {
            name: statistics.median(layer[name] for layer in per_iteration)
            for name in units
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(
            it["wall"] for it in traced
        ) - statistics.median(samples_by_metric["wall_s"])
    else:
        units = {name: "s" for name in END_TO_END}
        units["peak_rss_mb"] = "MB"
        factors = speed_factors([it["references"] for it in untraced])
        values = {
            metric: statistics.fmean(t * f for t, f in zip(v, factors))
            for metric, v in samples_by_metric.items()
        }
        values["setup_s"] = statistics.median(
            t * f for t, f in zip(setup_times, setup_factors)
        )
        values["peak_rss_mb"] = rss_kb / 1024.0
    details = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "env": environment(backend),
        "inputs": described,
        "iterations": len(iterations),
        "setup_samples": setup_times,
        "setup_scales": setup_factors,
        "samples": samples_by_metric,
        "references": [it["references"] for it in iterations],
        "digests": {m: r.get("digest") for m, r in first.items()},
        "errors": errors,
    }
    if trace:
        details["spans"] = os.path.relpath(spans_path, ROOT)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
