#!/usr/bin/env python3
"""Compare BENCH_*.json results against committed baseline snapshots.

Every bench binary writes one JSON object per line to BENCH_<name>.json
(fields: bench, family, wall_us, groups, mexprs, intern_hit_rate). This
tool diffs fresh results against the snapshots committed under
bench/baselines/ and exits non-zero when any family's wall time regressed
by more than --tolerance, or when a family's search-space counts (groups,
mexprs) differ from its baseline record at all: those are deterministic
counts, not timings, so any change means the search changed. Tolerances
accept either form: values <= 1 are fractions (0.10 means +10%), values
> 1 are percentages (10 also means +10%).

Usage:
    tools/bench_compare.py [--baseline-dir bench/baselines]
                           [--tolerance 0.10] [--update]
                           [--tolerance-for BENCH=PCT ...]
                           build/BENCH_table5.json [more...]

--tolerance-for overrides the gate for one bench (the record's "bench"
field), and may repeat. This exists for benches whose families span very
different magnitudes: BENCH_serving mixes multi-second cold searches
with microsecond warm probes, and the warm side needs a far looser
relative gate than the default — e.g.

    --tolerance 0.10 --tolerance-for serving=300

gates most benches at +10% but allows serving families 4x.

--update refreshes the baseline snapshots from the given results instead
of comparing (run on a quiet machine, then commit the changed files).

Exit codes: 0 all families within tolerance; 1 at least one wall-time
regression beyond --tolerance or one search-space count that differs from
its baseline; 2 no regression, but some measured family
has no baseline entry (the snapshot is stale — rerun with --update and
commit it). Families present only in the baseline are reported but never
fail the check: CI runs some benches in a reduced configuration.
"""

import argparse
import json
import os
import shutil
import sys


# Deterministic search-space counts a family must reproduce exactly.
COUNT_FIELDS = ("groups", "mexprs")


def load_records(path):
    """Returns {(bench, family): record}; the last record of a key wins."""
    records = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{line_no}: bad JSON: {e}")
            try:
                obj["wall_us"] = float(obj["wall_us"])
                records[(obj["bench"], obj["family"])] = obj
            except KeyError as e:
                raise SystemExit(f"{path}:{line_no}: missing field {e}")
    return records


def fmt_us(us):
    return f"{us / 1000.0:.2f}ms" if us >= 1000 else f"{us:.1f}us"


def as_fraction(value):
    """Tolerance in either form: <= 1 is a fraction, > 1 a percentage."""
    return value / 100.0 if value > 1.0 else value


def parse_overrides(pairs):
    """Parses repeated BENCH=PCT args into {bench: fraction}."""
    overrides = {}
    for pair in pairs:
        bench, sep, pct = pair.partition("=")
        if not sep or not bench:
            raise SystemExit(f"--tolerance-for: expected BENCH=PCT, "
                             f"got '{pair}'")
        try:
            overrides[bench] = as_fraction(float(pct))
        except ValueError:
            raise SystemExit(f"--tolerance-for: bad number in '{pair}'")
    return overrides


def main():
    parser = argparse.ArgumentParser(
        description="Diff bench JSON results against committed baselines.")
    parser.add_argument("results", nargs="+",
                        help="fresh BENCH_<name>.json files to check")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory of committed snapshots")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed wall-time regression; <= 1 is a "
                             "fraction, > 1 a percentage "
                             "(default 0.10 = +10%%)")
    parser.add_argument("--tolerance-for", action="append", default=[],
                        metavar="BENCH=PCT",
                        help="per-bench tolerance override (repeatable); "
                             "same fraction-or-percent form")
    parser.add_argument("--update", action="store_true",
                        help="copy results into the baseline dir instead "
                             "of comparing")
    args = parser.parse_args()
    default_tolerance = as_fraction(args.tolerance)
    overrides = parse_overrides(args.tolerance_for)

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in args.results:
            dest = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"baseline updated: {dest}")
        return 0

    regressions = []
    missing = []
    for path in args.results:
        baseline_path = os.path.join(args.baseline_dir,
                                     os.path.basename(path))
        if not os.path.exists(baseline_path):
            missing.append(os.path.basename(path))
            print(f"MISS  {os.path.basename(path)}: missing baseline file "
                  f"(expected {baseline_path}; run with --update)")
            continue
        current = load_records(path)
        baseline = load_records(baseline_path)

        for key in sorted(baseline.keys() - current.keys()):
            print(f"NOTE  {key[0]}/{key[1]}: in baseline only")
        for key in sorted(current.keys() - baseline.keys()):
            missing.append(f"{key[0]}/{key[1]}")
            print(f"MISS  {key[0]}/{key[1]}: missing baseline entry "
                  f"(run with --update)")

        for key in sorted(current.keys() & baseline.keys()):
            tag = f"{key[0]}/{key[1]}"
            for field in COUNT_FIELDS:
                if field not in baseline[key] or field not in current[key]:
                    continue
                want, got = baseline[key][field], current[key][field]
                if got != want:
                    line = f"{tag}: {field} {want} -> {got} (must match)"
                    regressions.append(line)
                    print(f"FAIL  {line}")
            cur, base = current[key]["wall_us"], baseline[key]["wall_us"]
            if base <= 0:
                continue
            tolerance = overrides.get(key[0], default_tolerance)
            delta = cur / base - 1.0
            line = (f"{tag}: {fmt_us(base)} -> {fmt_us(cur)} "
                    f"({delta:+.1%}, gate +{tolerance:.0%})")
            if delta > tolerance:
                regressions.append(line)
                print(f"FAIL  {line}")
            else:
                print(f"ok    {line}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond tolerance or "
              f"count mismatch(es):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    if missing:
        print(f"\n{len(missing)} metric key(s) have no baseline entry; "
              f"refresh the snapshots with --update and commit them",
              file=sys.stderr)
        return 2
    print("\nall benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
