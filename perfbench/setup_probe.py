#!/usr/bin/env python3
"""Time one set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is the import of circpart from ``src/``, with every module it pulls
in (the interpreter is fresh, so nothing is cached yet), plus building the
workload's instance list. ``bench`` is imported between the two timed
steps, so the benchmark's own imports are not counted. Prints the set-up
time in seconds and then the median of 15 runs of the speed gauge made
right after it (``bench.gauge_seconds``), which scales it to reference speed.
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

started = perf_counter()
import circpart  # noqa: E402

imported = perf_counter() - started

import statistics  # noqa: E402

from bench import WORKLOADS, gauge_seconds  # noqa: E402

started = perf_counter()
WORKLOADS[sys.argv[1]].setup(circpart)
seconds = imported + perf_counter() - started
print(seconds, statistics.median(gauge_seconds() for _ in range(15)))
