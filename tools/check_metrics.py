#!/usr/bin/env python3
"""Validate Prometheus text exposition format, as emitted by
obs::MetricsRegistry::TextExport() (see src/obs/metrics.h).

Reads the exposition text from a file argument (or stdin) and checks:
  * every non-comment line is `name{labels} value` with a valid metric
    name ([a-zA-Z_:][a-zA-Z0-9_:]*) and a finite numeric value;
  * every sample is preceded by # HELP and # TYPE lines for its family;
  * # TYPE is one of counter/gauge/summary/histogram/untyped and is not
    repeated for a family;
  * summary families expose `_sum` and `_count` samples and quantile
    labels parse as floats in [0, 1];
  * the planner/kernel families this build must export (REQUIRED_FAMILIES)
    are all present — a wiring regression in CorpusService::WireMetrics
    fails here instead of silently exporting less.

Exit status 0 and a one-line summary on success; 1 with per-line errors
otherwise. CI runs it over the metrics_smoke output (ci.yml).
"""

import re
import sys

# Families the corpus service is contractually expected to export; see
# CorpusService::WireMetrics. Kept to the ones added for the step planner,
# set-at-a-time path steps, the SIMD kernels, the arena spill path and the
# regex DFA fallback — the generic checks above cover everything else.
REQUIRED_FAMILIES = (
    "mhx_engine_set_steps_total",
    "mhx_plan_steps_indexed_total",
    "mhx_plan_steps_scanned_total",
    "mhx_plan_pushdowns_total",
    "mhx_plan_cache_replans_total",
    "mhx_kernel_simd_dispatch_total",
    "mhx_snapshots_persisted_total",
    "mhx_mmap_loads_total",
    "mhx_load_fallbacks_total",
    "mhx_regex_dfa_fallbacks_total",
)

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>-?\d+))?$"
)
LABEL = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')
TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


def base_family(name, families):
    """The family a sample belongs to: summary/histogram samples may have
    _sum/_count (and _bucket) suffixes on the family name."""
    if name in families:
        return name
    for suffix in ("_sum", "_count", "_bucket"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return name[: -len(suffix)]
    return None


def check(text):
    errors = []
    families = {}  # name -> {"help": bool, "type": str|None, "samples": int}
    order = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue

        def err(msg):
            errors.append("line %d: %s: %r" % (lineno, msg, line))

        if line.startswith("# HELP "):
            rest = line[len("# HELP ") :]
            name = rest.split(" ", 1)[0]
            if not METRIC_NAME.match(name):
                err("invalid metric name in HELP")
                continue
            fam = families.setdefault(
                name, {"help": False, "type": None, "samples": 0}
            )
            if fam["help"]:
                err("duplicate HELP for family")
            fam["help"] = True
            order.append(name)
        elif line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2:
                err("TYPE line must be '# TYPE <name> <type>'")
                continue
            name, mtype = parts
            if not METRIC_NAME.match(name):
                err("invalid metric name in TYPE")
                continue
            if mtype not in TYPES:
                err("unknown metric type %r" % mtype)
                continue
            fam = families.setdefault(
                name, {"help": False, "type": None, "samples": 0}
            )
            if fam["type"] is not None:
                err("duplicate TYPE for family")
            fam["type"] = mtype
        elif line.startswith("#"):
            continue  # other comments are legal
        else:
            m = SAMPLE.match(line)
            if not m:
                err("unparseable sample line")
                continue
            name = m.group("name")
            family = base_family(name, families)
            if family is None:
                err("sample for a family with no HELP/TYPE")
                continue
            fam = families[family]
            if not fam["help"] or fam["type"] is None:
                err("sample precedes its HELP/TYPE")
            fam["samples"] += 1
            try:
                float(m.group("value"))
            except ValueError:
                err("non-numeric sample value")
            labels = m.group("labels")
            if labels is not None and labels != "":
                for pair in labels.split(","):
                    lm = LABEL.match(pair.strip())
                    if not lm:
                        err("malformed label %r" % pair)
                        continue
                    if lm.group(1) == "quantile":
                        try:
                            q = float(lm.group(2))
                        except ValueError:
                            q = -1.0
                        if not (0.0 <= q <= 1.0):
                            err("quantile label outside [0, 1]")

    for name, fam in families.items():
        if fam["samples"] == 0:
            errors.append("family %s declared but has no samples" % name)

    # Summaries must expose _sum and _count.
    sample_names = set()
    for line in text.splitlines():
        m = SAMPLE.match(line)
        if m and not line.startswith("#"):
            sample_names.add(m.group("name"))
    for name, fam in families.items():
        if fam["type"] == "summary":
            for suffix in ("_sum", "_count"):
                if name + suffix not in sample_names:
                    errors.append(
                        "summary %s is missing its %s sample" % (name, suffix)
                    )

    for name in REQUIRED_FAMILIES:
        if name not in families:
            errors.append("required family %s is missing" % name)

    return errors, len(families)


def main(argv):
    if len(argv) > 1:
        with open(argv[1], "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()
    errors, n_families = check(text)
    if errors:
        for e in errors:
            print("check_metrics: %s" % e, file=sys.stderr)
        return 1
    if n_families == 0:
        print("check_metrics: no metric families found", file=sys.stderr)
        return 1
    print("check_metrics: OK (%d families)" % n_families)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
