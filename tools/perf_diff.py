#!/usr/bin/env python3
"""Compare two bench_perf.jsonl files and flag events/sec regressions.

Usage:
    perf_diff.py BASELINE.jsonl CURRENT.jsonl [--threshold 0.15]

Both files hold one JSON object per line, as written by the bench
harness (bench/bench_common.h). Records are keyed by (bench, jobs,
smoke, shards, host); the last record per key wins, so append-only
histories compare their most recent runs. Records written before the
PDES shards knob existed carry no "shards" field and default to 1,
matching the legacy serial kernel the new harness reports as shards=1.
The host is the record's "host" object (nproc and CPU model); records
written before it existed read as host "unknown". Wall-clock from two
hosts never compares: such records share no key. Records
without an "events_per_sec" field (for example micro_functional's
cache_speedup telemetry) are informational and skipped.

Exit status: 1 if any key common to both files regressed by more than
the threshold, 0 otherwise — including when the files share no keys
(a fresh bench has no baseline yet).
"""

import argparse
import json
import sys


def host_of(record):
    """The record's host as one string, or "unknown" when it has none."""
    host = record.get("host")
    if not isinstance(host, dict):
        return "unknown"
    return f"{host.get('cpu_model', 'unknown')} x{host.get('nproc', '?')}"


def hosts(records):
    """The distinct hosts of loaded records, for messages."""
    return ", ".join(sorted({key[4] for key in records})) or "none"


def load(path):
    """Last record per (bench, jobs, smoke, shards, host) key; non-perf
    lines are skipped."""
    records = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "events_per_sec" not in record:
                    continue
                key = (
                    record.get("bench", "?"),
                    record.get("jobs", 0),
                    record.get("smoke", False),
                    record.get("shards", 1),
                    host_of(record),
                )
                records[key] = record
    except OSError as error:
        print(f"perf_diff: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    return records


def main():
    parser = argparse.ArgumentParser(
        description="Flag events/sec regressions between bench_perf files")
    parser.add_argument("baseline", help="baseline bench_perf.jsonl")
    parser.add_argument("current", help="current bench_perf.jsonl")
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="fractional slowdown that fails (default 0.15 = 15%%)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    common = sorted(set(baseline) & set(current))
    if not common:
        print("perf_diff: no common (bench, jobs, smoke, shards, host) "
              f"keys; baseline host(s): {hosts(baseline)}; current "
              f"host(s): {hosts(current)}; nothing to compare")
        return 0

    regressions = 0
    print(f"{'bench':28} {'jobs':>4} {'smoke':>5} {'shards':>6} "
          f"{'base ev/s':>12} {'curr ev/s':>12} {'ratio':>7}  host")
    for key in common:
        base = baseline[key]["events_per_sec"]
        curr = current[key]["events_per_sec"]
        ratio = curr / base if base > 0 else float("inf")
        flag = ""
        if base > 0 and ratio < 1.0 - args.threshold:
            flag = "  << REGRESSION"
            regressions += 1
        bench, jobs, smoke, shards, host = key
        print(f"{bench:28} {jobs:>4} {str(smoke):>5} {shards:>6} "
              f"{base:>12.0f} {curr:>12.0f} {ratio:>6.2f}x{flag}  {host}")

    if regressions:
        print(f"perf_diff: {regressions} key(s) regressed more than "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print(f"perf_diff: {len(common)} key(s) within {args.threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
