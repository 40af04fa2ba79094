#!/usr/bin/env python3
"""Write the benchmark's stored files.

    python3 perfbench/record.py references
        references.json: final state and summary numbers of the fixed
        workloads, from the generic RK4 path (takes about 15 s).

    python3 perfbench/record.py baseline [--runs 10]
        baseline.json: the machine description, and for every workload in
        BENCHMARK.json the end-to-end metrics of --runs untraced runs (seeds
        1..runs) with median, quartiles and spread, plus one traced split.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import checks
import run
import workloads
from machine import machine_info

BASELINE = run.BENCH_DIR / "baseline.json"


def write_references() -> None:
    sys.path.insert(0, str(run.SRC))
    refs = {w: checks.derive_reference(workloads.scenario_document(w, 0))
            for w in workloads.WORKLOADS if w not in workloads.SEEDED}
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def write_baseline(runs: int) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    record = {"machine": machine_info(), "run_seconds": bench["run_seconds"],
              "runs_per_workload": runs, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for entry in bench["workloads"]:
        name = entry["name"]
        results = [run_once(name, seed, bench["run_seconds"], 0) for seed in range(1, runs + 1)]
        end_to_end = {}
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in results])
            stats["bound"] = bound
            end_to_end[metric] = stats
            print(f"{name:<16} {metric:<12} median {stats['median']:10.4f} "
                  f"spread {stats['spread']:.3f} (bound {bound})", flush=True)
        traced = run_once(name, 1, bench["run_seconds"], 1)
        record["workloads"][name] = {
            "why": entry["why"],
            "ops_attempted": sum(r["attempted"] for r in results),
            "ops_failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "traced_split_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    BASELINE.write_text(json.dumps(record, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("what", choices=("references", "baseline"))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.what == "references":
        write_references()
    else:
        write_baseline(args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
