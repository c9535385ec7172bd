#!/usr/bin/env python3
"""Prints every end-to-end metric, by name and unit, for each workload.

    python3 perfbench/summary.py [--write-reference]

Runs each workload untraced through perfbench/run.py for BENCHMARK.json's
run_seconds, once per seed in SEEDS (the development seed 1 and the
held-out seed 2), and prints a table per seed. On terasort-deep, the
Fig 4(a) point, osu_ib_gain_pct is printed beside the paper's 35%. Each
modelled metric is compared with perfbench/reference.json, the values
recorded for these seeds; a difference there means the model's
behaviour changed. --write-reference records the current values instead.

Exits nonzero if any run reports an incorrect output or a failed job.
"""
import argparse
import json
import os
import sys

from run import HOST_METRICS, ROOT, measure

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SEEDS = (1, 2)  # the seeds reference.json records
PAPER_GAIN_PCT = 35.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            reference = json.load(f)
    ok = True
    changed = 0
    for seed in SEEDS:
        print("== seed %d ==" % seed)
        for workload in [w["name"] for w in bench["workloads"]]:
            run = measure(workload, seed, bench["run_seconds"], 0)
            if run is None:
                print("%s: run failed" % workload)
                ok = False
                continue
            result = run[1]
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print("%s: %s, %d jobs, %d failed" %
                  (workload, "correct" if good else "INCORRECT",
                   result["attempted"], result["failed"]))
            recorded = reference.setdefault(workload, {}).setdefault(
                str(seed), {})
            for d in bench["end_to_end"]:
                name = d["name"]
                if name not in result["metrics"]:
                    print("  %-22s missing" % name)
                    ok = False
                    continue
                value = result["metrics"][name]["value"]
                note = ""
                if name == "osu_ib_gain_pct" and workload == "terasort-deep":
                    note = "paper (Fig 4(a)): %.0f%%" % PAPER_GAIN_PCT
                if name not in HOST_METRICS:
                    if args.write_reference:
                        recorded[name] = value
                    elif name not in recorded:
                        note += " (no reference)"
                    elif recorded[name] != value:
                        note += " CHANGED from %.17g" % recorded[name]
                        changed += 1
                print("  %-22s %16.6f %-8s %s" %
                      (name, value, d["unit"], note))
    if args.write_reference:
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
    elif changed:
        print("%d modelled metric(s) differ from reference.json" % changed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
