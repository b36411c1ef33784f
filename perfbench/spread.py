#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workloads fig7_writes,faulty_pool --seeds 1-10

Runs perfbench/run.py once per (workload, seed) with --trace 0 and, per
workload and metric, prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json. A
spread is "steady" below a third of its bound. setup_s is exempt from the
spread rule. It also prints, ungated, the spread of the median pass time
(run_s). Runs whose manifests name different hosts are refused: their
wall-clock figures are not comparable.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    manifest = next(json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("manifest "))
    run_s = next(float(line.split()[-2]) for line in lines
                 if line.startswith("passes "))
    return manifest, run_s, json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    hosts = set()
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        values["run_s"] = []
        for seed in parse_seeds(args.seeds):
            manifest, run_s, result = run_once(workload, seed, args.seconds)
            values["run_s"].append(run_s)
            hosts.add(json.dumps(manifest["host"], sort_keys=True))
            if len(hosts) > 1:
                sys.exit("runs came from different hosts: " + str(hosts))
            if not result["correct"] or result["failed"]:
                steady = False
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: run_s={run_s:.6g} " + " ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds),
                flush=True)
        print(f"\n{workload}: {'metric':<20} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            if name not in bounds:
                print(f"{workload}: {name:<20} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:8.4f}  ungated")
                continue
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            print(f"{workload}: {name:<20} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name]:6.3f}"
                  f"{'' if ok else '  NOT STEADY'}")
        print()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
