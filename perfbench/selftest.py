"""Smoke self-test of the benchmark at tiny input sizes.

Run from the repository root (takes well under a minute):

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is reported with its
unit on every workload, that a corrupted artifact counts as a failed
operation, and that traced and untraced iterations give identical digests.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run


def tiny_workloads():
    workloads = copy.deepcopy(run.WORKLOADS)
    for workload in workloads.values():
        for spec in workload["inputs"].values():
            spec["genes"] = 60
            spec["info"] = min(spec["info"], 10)
    return workloads


def truncate_ranking(metric, out_dir):
    if metric == "rank_wilcoxon_s":
        path = os.path.join(out_dir, "ranking_wilcoxon.tsv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    workloads = tiny_workloads()
    seed = run.DEFAULT_SEED + 1  # reference digests hold only for full-size inputs

    for name in sorted(workloads):
        for trace in (0, 1):
            details, result = run.run(name, seed, 0.0, bool(trace), workloads)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], f"{name} trace={trace}: metrics {got}"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            assert result["failed"] == 0, details["errors"]
            assert result["attempted"] == len(run.sequence(workloads[name])) * (1 + trace)
            # In a traced run the traced iteration's digests were compared
            # with the untraced one's; a mismatch would have failed above.
        print(f"{name}: metrics and digests ok")

    details, result = run.run("wide_rank", seed, 0.0, False, workloads, truncate_ranking)
    assert result["failed"] == 1 and not result["correct"], details["errors"]
    assert "rank_wilcoxon_s" in details["errors"][0]
    print("corrupted artifact counted as a failed operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
