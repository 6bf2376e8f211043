#!/usr/bin/env python3
"""Compares two sets of timed end-to-end benchmark runs, parent and change.

usage: compare.py PARENT CHANGE

PARENT and CHANGE are report files, or directories searched for the
"*-timed.json" reports run.sh writes under .bench_build/e2e/results/. Runs
pair up by seed, in file-name order within a seed. For every workload and
metric it prints each side's median and quartiles, the share of pairs the
change won and a verdict:

  improved      the change won at least 9 of 10 pairs and the medians differ
                by more than the parent's interquartile range
  within bound  the change's median is no worse than the bound allows
  regressed     the change's median is worse than the parent's by more than
                the bound
  unresolved    a side's spread (IQR over median) exceeds the bound, and not
                every change run beats every parent run

End-to-end bounds come from BENCHMARK.json. The report-only metrics below
carry their own: tick latencies take the timing bound of wall_s, since host
load moves them together; the deterministic outputs (failed_share,
store_bytes_per_event, f1_mean, shed_share) must match exactly, and a
change that fails more operations than its parent regresses.
Exits 1 when any row regressed.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")

EXACT = None
TIMING = "wall_s"  # tick latencies share its bound
REPORT_METRICS = {
    "tick_p50_ms": ("lower", TIMING),
    "tick_p99_ms": ("lower", TIMING),
    "failed_share": ("lower", EXACT),
    "store_bytes_per_event": ("lower", EXACT),
    "f1_mean": ("higher", EXACT),
    "shed_share": ("lower", EXACT),
}


def load_reports(path):
    files = ([path] if os.path.isfile(path) else
             sorted(glob.glob(os.path.join(path, "**", "*-timed.json"),
                              recursive=True)))
    runs = {}
    for name in files:
        with open(name) as f:
            report = json.load(f)
        if report.get("mode") != "timed":
            continue
        values = {k: m["value"] for k, m in report["metrics"].items()}
        values.update({k: m["value"] for k, m in report["outputs"].items()})
        values["failed_share"] = report["failed"] / max(1, report["attempted"])
        runs.setdefault(report["workload"], []).append(
            (report["seed"], name, values))
    for workload in runs:
        runs[workload].sort(key=lambda run: (run[0], run[1]))
    return runs


def pairs(parent, change):
    """(parent, change) value dicts of runs with the same seed, in order."""
    by_seed = {}
    for seed, _, values in parent:
        by_seed.setdefault(seed, []).append(values)
    out = []
    seen = {}
    for seed, _, values in change:
        i = seen.get(seed, 0)
        if i < len(by_seed.get(seed, [])):
            out.append((by_seed[seed][i], values))
        seen[seed] = i + 1
    return out


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(better, bound, p, c, matched):
    lower = better == "lower"
    med_p, q1_p, q3_p = summary(p)
    med_c, q1_c, q3_c = summary(c)
    won = sum(1 for a, b in matched if (b < a if lower else b > a))
    won_share = won / len(matched) if matched else 0.0
    if bound is EXACT:
        if all(a == b for a, b in matched) and med_p == med_c:
            return "within bound", won_share
        worse = med_c > med_p if lower else med_c < med_p
        return ("regressed" if worse else "improved"), won_share
    scale = abs(med_p) if med_p else 1.0
    gap = (med_c - med_p) / scale * (1 if lower else -1)  # > 0 is worse
    spread = max((q3_p - q1_p) / scale,
                 (q3_c - q1_c) / (abs(med_c) if med_c else 1.0))
    all_better = max(c) < min(p) if lower else min(c) > max(p)
    if spread > bound and not all_better:
        return "unresolved", won_share
    if gap > bound:
        return "regressed", won_share
    if (gap < 0 and won_share >= 0.9 and abs(med_c - med_p) > q3_p - q1_p) \
            or (all_better and spread > bound):
        return "improved", won_share
    return "within bound", won_share


def fmt(x):
    return f"{x:.4g}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for name, (better, bound) in REPORT_METRICS.items():
        bounds[name] = (better, bounds[TIMING][1] if bound == TIMING else bound)
    parent, change = load_reports(sys.argv[1]), load_reports(sys.argv[2])

    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "gap", "won", "bound", "verdict")
    rows = []
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        matched_runs = pairs(parent[workload], change[workload])
        for metric, (better, bound) in bounds.items():
            p = [v[metric] for _, _, v in parent[workload] if metric in v]
            c = [v[metric] for _, _, v in change[workload] if metric in v]
            if not p or not c:
                continue
            matched = [(a[metric], b[metric]) for a, b in matched_runs
                       if metric in a and metric in b]
            result, won_share = verdict(better, bound, p, c, matched)
            regressed |= result == "regressed"
            med_p, q1_p, q3_p = summary(p)
            med_c, q1_c, q3_c = summary(c)
            gap = (med_c - med_p) / abs(med_p) if med_p else 0.0
            rows.append((workload, metric,
                         f"{fmt(med_p)} [{fmt(q1_p)}, {fmt(q3_p)}] n={len(p)}",
                         f"{fmt(med_c)} [{fmt(q1_c)}, {fmt(q3_c)}] n={len(c)}",
                         f"{gap:+.1%}", f"{won_share:.0%} of {len(matched)}",
                         "exact" if bound is EXACT else f"{bound:.0%}",
                         result))
    for workload in sorted(set(parent) ^ set(change)):
        print(f"note: {workload} has runs on one side only", file=sys.stderr)
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
