#!/usr/bin/env python3
"""The benchmark's noise record: two alternating sets (A, B) of runs of the
same code on the same seeds, and each end-to-end metric's spread and shift.

    # from the root of a checkout: append one A and one B run per seed
    python3 vbench/noise_record.py run WORKLOAD 11,12,13 raw.jsonl
    # fold raw runs into the record
    python3 vbench/noise_record.py summarize raw.jsonl [raw2.jsonl ...]

A metric's spread is the distance between the first and third quartiles of
its values (statistics.quantiles, n=4) as a share of their median. Its
shift is how much worse set B's median is than set A's, as a share of A's.
A metric "repeats within a tenth" when both spreads and the shift are at
most 0.1. Besides the gated metrics, runs record `op_p99_ms`, which the
benchmark prints as a detail line.
"""

import json
import os
import statistics
import subprocess
import sys
import time

EXTRA = ["op_p99_ms"]


def run(workload, seeds, raw_path):
    bench = json.load(open("BENCHMARK.json"))
    env = {**os.environ, "CARGO_TARGET_DIR": ".bench_build"}
    with open(raw_path, "a") as raw:
        for seed in seeds:
            for side in ("A", "B"):
                args = ["--workload", workload, "--seed", seed,
                        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                start = time.time()
                proc = subprocess.run(bench["command"] + args, env=env,
                                      capture_output=True, text=True)
                wall = time.time() - start
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    sys.exit(f"{workload} seed {seed} ({side}) failed with code "
                             f"{proc.returncode}: {proc.stderr[-1500:]}")
                record = {"workload": workload, "set": side, "seed": seed,
                          "wall": round(wall, 2), "correct": result["correct"]}
                record.update({k: v["value"] for k, v in result["metrics"].items()})
                for line in lines:
                    name = line.split(" ", 1)[0]
                    if name in EXTRA:
                        record[name] = float(line.split()[2])
                raw.write(json.dumps(record) + "\n")
                raw.flush()
                print(json.dumps(record), flush=True)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summarize(raw_paths):
    bench = json.load(open("BENCHMARK.json"))
    gated = {m["name"]: m for m in bench["end_to_end"]}
    runs = [json.loads(line) for path in raw_paths for line in open(path)]
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        entry = {
            "runs": len(mine),
            "incorrect": sum(not r["correct"] for r in mine),
            "seeds": sorted({r["seed"] for r in mine}, key=int),
            "metrics": {},
        }
        for name in list(gated) + EXTRA:
            sides = {s: [r[name] for r in mine if r["set"] == s and name in r]
                     for s in "AB"}
            if min(len(v) for v in sides.values()) < 2:
                continue
            a, b = (statistics.median(sides[s]) for s in "AB")
            lower = gated.get(name, {"better": "lower"})["better"] == "lower"
            shift = (b - a) / a if lower else (a - b) / a
            spreads = [spread(sides[s]) for s in "AB"]
            entry["metrics"][name] = {
                "median_a": a, "spread_a": spreads[0],
                "median_b": b, "spread_b": spreads[1],
                "shift": shift,
                "bound": gated[name]["bound"] if name in gated else None,
                "within_a_tenth": max(spreads) <= 0.1 and abs(shift) <= 0.1,
            }
        record["workloads"][workload] = entry
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3].split(","), sys.argv[4])
    elif len(sys.argv) >= 3 and sys.argv[1] == "summarize":
        summarize(sys.argv[2:])
    else:
        sys.exit(__doc__)
