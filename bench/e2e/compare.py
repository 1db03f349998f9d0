#!/usr/bin/env python3
"""Compares two sets of bench_e2e suite results (run.py output files).

  python3 bench/e2e/compare.py --a PARENT1.json PARENT2.json ... \
                               --b CHANGE1.json CHANGE2.json ...

File i of --a is paired with file i of --b, so run the two sides
alternately and list the files in run order. For every (workload, metric)
the table gives each side's median and quartiles. End-to-end metrics get a
verdict against the bounds in BENCHMARK.json:

  unresolved  the parent's spread (IQR over median) exceeds the bound, and
              not every change run beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's IQR
  unchanged   otherwise

Reported values without a bound (op_ms_p95, ops_per_s, ...) and the
per-layer metrics of the traced pass are listed without a verdict. Exits 1
when any verdict is "regressed". Pure standard library.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_runs(paths, section):
    """{(workload, metric): [value per file]} from one pass of each file."""
    values = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        for workload, passes in report["workloads"].items():
            if section not in passes:
                continue
            run = passes[section]
            for name, metric in {**run["metrics"], **run["extra"]}.items():
                values.setdefault((workload, name), []).append(
                    metric["value"])
    return values


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, bound, lower_is_better):
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)

    def better(x, y):  # x strictly better than y
        return x < y if lower_is_better else x > y

    if a_med == 0:
        return "unchanged" if b_med == 0 else "unresolved"
    if (a_q3 - a_q1) / abs(a_med) > bound and not all(
            better(x, y) for x in b for y in a):
        return "unresolved"
    worse = (b_med - a_med) / abs(a_med)
    if not lower_is_better:
        worse = -worse
    if worse > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "improved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", nargs="+", required=True, help="parent results")
    ap.add_argument("--b", nargs="+", required=True, help="change results")
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"))
    opts = ap.parse_args()
    with open(opts.benchmark) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    regressed = False
    header = "%-15s %-38s %12s %12s %12s  %12s %12s %12s  %s" % (
        "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median",
        "B q3", "verdict")
    for section in ("untraced", "traced"):
        a = load_runs(opts.a, section)
        b = load_runs(opts.b, section)
        keys = [k for k in a if k in b]
        if not keys:
            continue
        print("\n[%s]" % section)
        print(header)
        for key in sorted(keys, key=lambda k: (k[0], k[1])):
            workload, name = key
            a_q = quartiles(a[key])
            b_q = quartiles(b[key])
            if section == "untraced" and name in bounds:
                m = bounds[name]
                v = verdict(a[key], b[key], m["bound"],
                            m["better"] == "lower")
                regressed = regressed or v == "regressed"
            else:
                v = "-"
            print("%-15s %-38s %12.5g %12.5g %12.5g  %12.5g %12.5g %12.5g  %s"
                  % ((workload, name) + a_q + b_q + (v,)))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
