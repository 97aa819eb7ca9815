#!/usr/bin/env python3
# Copyright (c) mhxq authors. Licensed under the MIT license.
"""Compares two sets of mhx_bench results against the bounds in BENCHMARK.json.

    python3 mhxbench/compare.py BASE [CAND] [--benchmark BENCHMARK.json]

BASE and CAND are directories (or single files) of the run records
`run.py --out DIR` writes. For every workload and end-to-end metric the
report gives each set's median, quartiles and spread (interquartile range
as a share of the median) and a verdict:

  regressed   CAND's median is worse than BASE's by more than the bound;
  better      CAND's median is better by more than BASE's own spread;
  unchanged   neither;
  unresolved  a set's spread exceeds the bound, so the sets cannot be told
              apart — unless every CAND run beats (or trails) every BASE
              run, which is then "better" (or "regressed").

Per-layer metrics from traced runs are listed with their medians, without a
verdict. With BASE alone, the report shows one set's medians and spreads —
the check that runs over different seeds agree within each bound. Exits 1
when any verdict is "regressed" or "unresolved", or when a run reported
wrong results.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path):
    """Run records under `path` (a directory or one file)."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    if not records:
        raise SystemExit("compare.py: no run records in %s" % path)
    return records


def summarize(values):
    """(median, q1, q3, spread) of a list of values."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def worse_by(base, cand, better):
    """How much worse cand is than base, as a share of base (negative when
    cand is better)."""
    change = (cand - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(base_values, cand_values, better, bound):
    base = summarize(base_values)
    cand = summarize(cand_values)
    lower_is_better = better == "lower"

    def beats(a, b):
        return a < b if lower_is_better else a > b

    if base[3] > bound or cand[3] > bound:
        if all(beats(c, b) for c in cand_values for b in base_values):
            return "better"
        if all(beats(b, c) for c in cand_values for b in base_values):
            return "regressed"
        return "unresolved"
    worse = worse_by(base[0], cand[0], better)
    if worse > bound:
        return "regressed"
    if -worse > base[3]:
        return "better"
    return "unchanged"


def collect(records, trace):
    """{workload: {metric: [values]}} over records of one trace mode."""
    out = {}
    for record in records:
        if record["trace"] != trace:
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def fmt(value):
    return "%.6g" % value


def compare(base_records, cand_records, benchmark):
    """Returns (report lines, failed)."""
    lines = []
    failed = False
    for label, records in (("BASE", base_records), ("CAND", cand_records)):
        for record in records or []:
            if not record["result"]["correct"]:
                lines.append("%s run of %s (seed %s) reported wrong results"
                             % (label, record["workload"], record["seed"]))
                failed = True
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    base_e2e = collect(base_records, 0)
    cand_e2e = collect(cand_records or [], 0)
    for workload in sorted(base_e2e):
        for name, metric in end_to_end.items():
            base_values = base_e2e[workload].get(name)
            if not base_values:
                continue
            b = summarize(base_values)
            row = ("%-16s %-14s n=%-3d median %-12s q1 %-12s q3 %-12s "
                   "spread %5.1f%%" % (workload, name, len(base_values),
                                       fmt(b[0]), fmt(b[1]), fmt(b[2]),
                                       100 * b[3]))
            if cand_records is None:
                if b[3] > metric["bound"]:
                    row += "  wider than bound %.0f%%" % (100 * metric["bound"])
                    failed = True
                lines.append(row)
                continue
            cand_values = cand_e2e.get(workload, {}).get(name)
            if not cand_values:
                lines.append(row + "  (no CAND runs)")
                continue
            c = summarize(cand_values)
            v = verdict(base_values, cand_values, metric["better"],
                        metric["bound"])
            failed = failed or v in ("regressed", "unresolved")
            lines.append(
                "%-16s %-14s base %-12s cand %-12s change %+6.1f%% "
                "spread %4.1f%%/%4.1f%% bound %3.0f%%  %s" % (
                    workload, name, fmt(b[0]), fmt(c[0]),
                    100 * (c[0] - b[0]) / abs(b[0]) if b[0] else 0.0,
                    100 * b[3], 100 * c[3], 100 * metric["bound"], v))
    base_layers = collect(base_records, 1)
    cand_layers = collect(cand_records or [], 1)
    for workload in sorted(base_layers):
        for name, values in sorted(base_layers[workload].items()):
            row = "%-16s %-36s base %-12s" % (
                workload, name, fmt(statistics.median(values)))
            cand_values = cand_layers.get(workload, {}).get(name)
            if cand_values:
                row += " cand %-12s" % fmt(statistics.median(cand_values))
            lines.append(row)
    return lines, failed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("cand", nargs="?")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())
    lines, failed = compare(load_records(args.base),
                            load_records(args.cand) if args.cand else None,
                            benchmark)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
