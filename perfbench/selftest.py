#!/usr/bin/env python3
"""The benchmark's own self-test.

    python3 perfbench/selftest.py

Runs each workload at the reduced size (--size small) twice untraced and
once traced, through perfbench/run.py, and checks that:
  * every end-to-end and per-layer metric named in BENCHMARK.json
    appears, once, with its unit;
  * every run is correct and no job failed;
  * every modelled metric repeats bit-for-bit between the two untraced
    runs and between the untraced and traced runs.
Exits nonzero on the first failed check.
"""
import json
import os
import sys

from run import HOST_METRICS, ROOT, measure

SEED = 3


def run(workload, trace):
    result = measure(workload, SEED, 1, trace, ["--size", "small"])
    if result is None:
        sys.exit("FAIL %s trace=%d exited nonzero" % (workload, trace))
    return result


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)


def check_metrics(result, defs, what):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          what + ": result keys")
    metrics = result["metrics"]
    missing = [d["name"] for d in defs if d["name"] not in metrics]
    check(not missing, "%s: no value for %s" % (what, missing))
    check(result["correct"] is True, what + ": not correct")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          what + ": failed jobs")
    check(list(metrics) == [d["name"] for d in defs],
          what + ": metric names differ from BENCHMARK.json")
    for d in defs:
        check(metrics[d["name"]]["unit"] == d["unit"],
              "%s: unit of %s" % (what, d["name"]))
        check(isinstance(metrics[d["name"]]["value"], (int, float)),
              "%s: value of %s" % (what, d["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = [run(workload, 0), run(workload, 0)]
        for i, (_, result) in enumerate(runs):
            check_metrics(result, bench["end_to_end"],
                          "%s untraced run %d" % (workload, i + 1))
        traced_detail, traced = run(workload, 1)
        check_metrics(traced, bench["per_layer"], workload + " traced run")
        modelled = [d["name"] for d in bench["end_to_end"]
                    if d["name"] not in HOST_METRICS]
        first = {m: runs[0][1]["metrics"][m]["value"] for m in modelled}
        second = {m: runs[1][1]["metrics"][m]["value"] for m in modelled}
        traced_e2e = {m: traced_detail["end_to_end"][m]["value"]
                      for m in modelled if m != "job_ok_frac"}
        check(first == second, workload + ": modelled metrics differ "
              "between untraced runs: %s vs %s" % (first, second))
        check(all(first[m] == v for m, v in traced_e2e.items()),
              workload + ": modelled metrics differ traced vs untraced")
        print("ok %-14s %d end-to-end + %d per-layer metrics, modelled "
              "repeat exactly" % (workload, len(bench["end_to_end"]),
                                  len(bench["per_layer"])))
    print("selftest passed")


if __name__ == "__main__":
    main()
