#!/usr/bin/env python3
"""Run one circpart benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. circpart is imported from ``src/`` next to
this directory; nothing needs installing. With ``--trace 0`` the workload
runs untraced for about ``--seconds`` and the end-to-end metrics are
reported, with every timing scaled to reference speed (see README.md); with ``--trace 1`` it runs once untraced and once traced and the
per-layer metrics are reported. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat every metric by name and unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from bench import END_TO_END, PER_LAYER, WORKLOADS, Outcome, timed_run, traced_run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circpart" / "__init__.py").is_file():
        print(f"perfbench: no circpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    cp = importlib.import_module("circpart")
    if not Path(cp.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported circpart from {cp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    instances = workload.setup(cp)
    rng = random.Random(args.seed)

    outcome = Outcome()
    if args.trace:
        metrics, notes = traced_run(workload, cp, instances, rng, outcome)
        units = PER_LAYER
    else:
        metrics, notes = timed_run(workload, cp, instances, rng, args.seconds, outcome)
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, (unit, _) in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  failed_share = {share} ({outcome.failed} of {outcome.attempted} instances)")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
