#!/usr/bin/env python3
"""Run every workload on seeds 1..10, twice, and summarise the spread of each metric.

    python3 perfbench/repeat.py [--out FILE]

Run from the repository root. Two sets are run one after the other; each
makes one untraced run per workload and seed, with the command and
``run_seconds`` from BENCHMARK.json. One traced run per
workload follows. It prints, per set and workload, every end-to-end metric
with its unit, median, quartiles and spread (interquartile distance over
median) next to its bound, plus the share of failed instances and the
spread of the run's speed-gauge scale and unscaled throughput; then, per
workload and metric, how much worse the second set's median is than the
first's, next to the bound. ``--out`` writes the same summary, the machine
description and the per-layer metrics of the traced runs as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))
SETS = 2


def run_once(spec, workload, seed, trace):
    """One run of BENCHMARK.json's command; returns its result line, with the run's notes under "notes"."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = dict(m.groups() for m in map(re.compile(r"  (\w+): (\S+)$").match, lines) if m)
    return {**json.loads(lines[-1]), "notes": notes}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run_set(spec, number):
    """One untraced run per workload and seed; returns {workload: summary}."""
    entries = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed, 0) for seed in SEEDS]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "samples_per_run": [r["attempted"] for r in runs],
            "failed_share": failed / attempted,
            "end_to_end": {},
        }
        print(f"set {number} {workload}: correct {entry['correct']}, failed_share {entry['failed_share']} "
              f"({failed} of {attempted}), samples per run {entry['samples_per_run']}", flush=True)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = {"unit": metric["unit"], **stats}
            print(f"  {name:18s} {stats['median']:12.6g} {metric['unit']:5s} "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}  bound {metric['bound']}",
                  flush=True)
        for name in ("gauge_scale_median", "instances_per_s_unscaled"):
            stats = summarise([float(r["notes"][name]) for r in runs])
            entry[name] = stats
            print(f"  {name:26s} {stats['median']:10.6g}  spread {stats['spread']:.4f} (not a metric)", flush=True)
        entries[workload] = entry
    return entries


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sets = [run_set(spec, number) for number in range(1, SETS + 1)]
    print("second set's median against the first's (worse by, as a share of the first)")
    second_worse_by = {}
    for workload in sets[0]:
        second_worse_by[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            first, second = (s[workload]["end_to_end"][name]["median"] for s in sets)
            worse = (second - first if metric["better"] == "lower" else first - second) / first
            second_worse_by[workload][name] = worse
            print(f"  {workload:13s} {name:18s} {worse:+.4f}  bound {metric['bound']}", flush=True)
    traced = {}
    for workload in sets[0]:
        result = run_once(spec, workload, SEEDS[0], 1)
        traced[workload] = {"correct": result["correct"], **{k: m["value"] for k, m in result["metrics"].items()}}
    if args.out:
        summary = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "arch": platform.machine()},
            "run_seconds": spec["run_seconds"],
            "seeds": SEEDS,
            "sets": sets,
            "second_worse_by": second_worse_by,
            "per_layer": traced,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
