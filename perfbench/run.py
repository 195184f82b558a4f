#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_cold|bigjoin|traffic \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the library sources plus
the benchmark program) into .bench_build, or into $CARGO_TARGET_DIR when
that is set; later runs only rebuild what changed. The program's output is
passed through; its last line is the JSON result. The result's metric
names are checked against BENCHMARK.json before the line is printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_cold", "bigjoin", "traffic")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    with open(log_path, "w") as log:
        # Configured on every run: cmake refuses a build directory made from
        # another source tree instead of building that tree's code.
        cmd = ["cmake", "-S", str(HERE), "-B", str(out_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not (out_dir / "CMakeCache.txt").exists():
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail(f"configure failed; see {log_path}")
        cmd = ["cmake", "--build", str(out_dir), "--target",
               "prairie_perfbench", "-j", "4"]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            fail(f"build failed; see {log_path}")
    return out_dir / "prairie_perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with code {run.returncode} and no result")
    names = list(result["metrics"])
    if names != declared_metrics(args.trace):
        fail(f"reported metrics {names} differ from BENCHMARK.json")
    sys.stdout.write("\n".join(lines) + "\n")
    # A failed check prints its result with "correct": false and exits 1.
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
