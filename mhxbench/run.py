#!/usr/bin/env python3
# Copyright (c) mhxq authors. Licensed under the MIT license.
"""Builds mhx_bench from the checkout's sources and runs one workload.

    python3 mhxbench/run.py --workload section4_mix --seed 1 --seconds 20 \
        --trace 0 [--out DIR]

The build tree lives in $CARGO_TARGET_DIR (default .bench_build) under
the checkout root, the parent of this directory; the first call configures and
builds it, later calls only re-check it. Build output goes to stderr, so
the driver's result JSON stays the last line of stdout. With --out DIR the
result is also saved as DIR/<workload>-seed<N>-trace<T>-<time>.json for
compare.py. --workload all runs every workload in turn.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["section4_mix", "analyze_string", "axis_scan", "write_churn",
             "cold_start"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir, env):
    """Configures (once) and builds the driver; returns its path."""
    source = Path(__file__).resolve().parent
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(source), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True, env=env,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "mhx_bench", "-j", jobs],
                   stdout=sys.stderr, check=True, env=env,
                   timeout=BUILD_TIMEOUT_S)
    return build_dir / "mhx_bench"


def run_one(binary, scratch, args, workload, env):
    """Runs one workload; returns (exit code, last stdout line)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            sys.exit("run.py: %s did not finish in %d s"
                     % (workload, RUN_TIMEOUT_S))
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="directory to save result records in")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        sys.exit("run.py: no mhx sources at %s (run from a full checkout)"
                 % root)
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    scratch = build_dir / "mhxbench-run"
    # Compiler and run temporaries stay in the build tree too.
    env = dict(os.environ, TMPDIR=str(scratch / "tmp"))
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        binary = build(build_dir / "mhxbench", env)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as error:
        sys.exit("run.py: build failed: %s" % error)

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code, last = run_one(binary, scratch, args, workload, env)
        status = status or code
        if args.out and code in (0, 1):
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            record = {"workload": workload, "seed": args.seed,
                      "trace": args.trace, "result": json.loads(last)}
            name = "%s-seed%d-trace%d-%d.json" % (
                workload, args.seed, args.trace, time.time_ns())
            (out / name).write_text(json.dumps(record) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
