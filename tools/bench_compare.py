#!/usr/bin/env python3
# Copyright (c) mhxq authors. Licensed under the MIT license.
"""Diff two google-benchmark JSON files and flag regressions.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.20]
                           [--metric real_time] [--missing-baseline-ok]

Compares benchmarks present in both files by name. A benchmark whose
candidate time exceeds baseline * (1 + threshold) is a regression; the
script prints a table of all common benchmarks and exits 1 if any
regressed. Benchmarks present in only one file (new or removed benches)
are listed but never fail the comparison — a growing suite must not break
its own perf gate. Aggregate entries (BigO / RMS / mean / median / stddev
rows) are skipped — their units differ and complexity fits are compared
more meaningfully by eye.

User counters attached to a benchmark (the closed-loop bench_corpus
latency/throughput lane) are compared too, with explicit direction:
p95_us regresses when it *rises* past the threshold, qps when it *falls*
past it — both gate exactly like wall time. Every other counter
(p50_us/p99_us, plan_hit_rate, builds, evictions, sorts_skipped, ...)
is informational: reported when it moves, never a failure, because cache
hit-rates and eviction counts describe the workload, not a verdict.

CI's Release lanes upload every run's bench_<name>.json as a workflow
artifact and diff each new run against the previous run's artifact with
this tool — the repo's cross-PR perf trajectory. --missing-baseline-ok
makes a nonexistent baseline file a clean skip (exit 0) so the first run
on a branch bootstraps the trajectory instead of failing it.

Exit codes: 0 ok / nothing comparable, 1 regression(s), 2 usage error.
"""

import argparse
import json
import os
import sys


# User counters gated like wall time, with their "worse" direction:
# +1 regresses when the value rises, -1 when it falls.
GATED_COUNTERS = {"p95_us": +1, "qps": -1, "load_us": +1}

# Standard google-benchmark JSON keys that are not user counters.
_RESERVED_KEYS = frozenset([
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "family_index", "per_family_instance_index", "aggregate_name",
    "aggregate_unit", "label", "error_occurred", "error_message",
])


def label_counters(label):
    """Flattens a JSON-object benchmark label into informational counters.

    bench_corpus sets its label to a MetricsRegistry::JsonExport()
    snapshot — a flat object of counters/gauges (numbers) and timers
    (objects of numbers). Numeric leaves become "obs.<name>" /
    "obs.<name>.<field>" counters; these names are never in
    GATED_COUNTERS, so snapshot drift is reported but cannot fail the
    gate. A non-JSON label (the common benchmark case) yields {}.
    """
    if not label:
        return {}
    try:
        snapshot = json.loads(label)
    except (ValueError, TypeError):
        return {}
    if not isinstance(snapshot, dict):
        return {}
    out = {}
    for name, value in snapshot.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"obs.{name}"] = float(value)
        elif isinstance(value, dict):
            for sub, subvalue in value.items():
                if (isinstance(subvalue, (int, float))
                        and not isinstance(subvalue, bool)):
                    out[f"obs.{name}.{sub}"] = float(subvalue)
    return out


def load_benchmarks(path, metric):
    """Returns {name: (value, time_unit, counters)} for real runs.

    `counters` maps user-counter names (any non-reserved numeric field:
    p50_us, qps, plan_hit_rate, ...) to floats, plus the "obs.*" metrics
    flattened from a registry-snapshot label (informational only).
    """
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        # run_type is "iteration" for real runs, "aggregate" for BigO/RMS/
        # mean/etc. Older benchmark versions omit run_type but still set
        # aggregate_name on aggregates.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        if bench.get("aggregate_name"):
            continue
        name = bench.get("name")
        if name is None or metric not in bench:
            continue
        counters = {
            key: float(value)
            for key, value in bench.items()
            if key not in _RESERVED_KEYS and isinstance(value, (int, float))
        }
        counters.update(label_counters(bench.get("label")))
        out[name] = (float(bench[metric]), bench.get("time_unit", "ns"),
                     counters)
    return out


def compare(baseline, candidate, threshold):
    """Diffs two {name: (value, unit[, counters])} dicts.

    Returns (report_lines, regressions) where regressions is a list of
    (name, relative_delta) over the threshold — wall time plus the
    GATED_COUNTERS present in both runs, direction-aware. One-sided
    benchmarks and ungated counters are reported but never regressions.
    """
    common = sorted(set(baseline) & set(candidate))
    only_base = sorted(set(baseline) - set(candidate))
    only_cand = sorted(set(candidate) - set(baseline))

    lines = []
    regressions = []
    if common:
        name_width = max(len(n) for n in common)
        lines.append(f"{'benchmark':<{name_width}}  {'baseline':>12}  "
                     f"{'candidate':>12}  {'delta':>8}")
        for name in common:
            base_value, unit = baseline[name][:2]
            cand_value, _ = candidate[name][:2]
            delta = ((cand_value - base_value) / base_value
                     if base_value else 0.0)
            flag = ""
            if delta > threshold:
                flag = "  REGRESSION"
                regressions.append((name, delta))
            lines.append(f"{name:<{name_width}}  {base_value:>10.0f}{unit:>2}"
                         f"  {cand_value:>10.0f}{unit:>2}  "
                         f"{delta:>+7.1%}{flag}")
            base_counters = baseline[name][2] if len(baseline[name]) > 2 else {}
            cand_counters = candidate[name][2] if len(candidate[name]) > 2 else {}
            for counter in sorted(set(base_counters) & set(cand_counters)):
                b = base_counters[counter]
                c = cand_counters[counter]
                cdelta = (c - b) / b if b else 0.0
                direction = GATED_COUNTERS.get(counter)
                if direction is None:
                    if b != c:
                        lines.append(
                            f"  [{counter}] {b:g} -> {c:g} ({cdelta:+.1%}, "
                            "informational)")
                    continue
                worse = cdelta * direction
                cflag = ""
                if worse > threshold:
                    cflag = "  REGRESSION"
                    regressions.append((f"{name} [{counter}]", cdelta))
                lines.append(f"  [{counter}] {b:g} -> {c:g} "
                             f"({cdelta:+.1%}){cflag}")
    for name in only_base:
        lines.append(f"(removed — only in baseline)  {name}")
    for name in only_cand:
        lines.append(f"(new — only in candidate)     {name}")
    return lines, regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline benchmark JSON")
    parser.add_argument("candidate", help="candidate benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative slowdown that counts as a regression (default 0.20)",
    )
    parser.add_argument(
        "--metric",
        default="real_time",
        choices=["real_time", "cpu_time"],
        help="which per-iteration time to compare (default real_time)",
    )
    parser.add_argument(
        "--missing-baseline-ok",
        action="store_true",
        help="exit 0 when the baseline file does not exist "
             "(trajectory bootstrap)",
    )
    args = parser.parse_args()

    if args.missing_baseline_ok and not os.path.exists(args.baseline):
        print(f"bench_compare: no baseline at {args.baseline}; "
              "nothing to compare (bootstrap run)")
        return 0

    baseline = load_benchmarks(args.baseline, args.metric)
    candidate = load_benchmarks(args.candidate, args.metric)
    if not baseline and not candidate:
        print(f"bench_compare: neither {args.baseline} nor {args.candidate} "
              "contains benchmark runs", file=sys.stderr)
        return 2

    lines, regressions = compare(baseline, candidate, args.threshold)
    for line in lines:
        print(line)

    common_count = len(set(baseline) & set(candidate))
    if not common_count:
        # Disjoint suites (every bench renamed, or a brand-new driver):
        # report, but do not fail — there is nothing to regress against.
        print("\nno common benchmarks to compare "
              f"({len(baseline)} baseline, {len(candidate)} candidate)")
        return 0
    if regressions:
        print(f"\n{len(regressions)} regression(s) over "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nno regressions over {args.threshold:.0%} "
          f"({common_count} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
