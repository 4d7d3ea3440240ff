"""Workloads, correctness checks and measurement for the circpart benchmark.

Every function here takes the imported ``circpart`` module as ``cp`` and
drives it only through its public functions, so the same code serves the
timed run, the traced run and the toy-sized tests.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

from tracer import SEARCH, Tracer

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
# Set-ups timed per run: two after each pass until there are this many.
SETUP_SAMPLES = 12
# The speed gauge: a fixed loop run every GAUGE_INTERVAL_S during a pass.
# Timings are scaled to a machine on which the loop takes GAUGE_REF_S of CPU
# time, which is about what it takes on the 2-vCPU machine of the baseline.
GAUGE_ROUNDS = 80
GAUGE_INTERVAL_S = 0.1
GAUGE_REF_S = 0.001
_GAUGE_TABLE = list(range(64))
_GAUGE_STEP = {i: i * 37 % 64 for i in range(64)}

# One reference tuple per report row, in this order.
COLUMNS = (
    "n",
    "set",
    "mode",
    "connected",
    "parts_B",
    "parts_C",
    "aut_B",
    "aut_C",
    "multipliers",
    "verdict",
    "prop_covered",
    "prop_rounds",
)

# name -> (unit, better)
END_TO_END = {
    "instances_per_s": ("1/s", "higher"),
    "instance_ms_p50": ("ms", "lower"),
    "instance_ms_p99": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "solver.enumerate_respecting.self_s": ("s", "lower"),
    "solver.enumerate_respecting.calls": ("count", "lower"),
    "solver.enumerate_respecting.leaves": ("count", "lower"),
    "solver.enumerate_respecting.solutions": ("count", "lower"),
    "solver.enumerate_respecting.leaf_yield": ("ratio", "higher"),
    "solver.enumerate_respecting.leaf_rejects": ("count", "lower"),
    "perm.is_automorphism.leaf.self_s": ("s", "lower"),
    "perm.respects.leaf.self_s": ("s", "lower"),
    "perm.multiplier_perm.self_s": ("s", "lower"),
    "solver.coset_image_check.self_s": ("s", "lower"),
    "solver.coset_image_check.calls": ("count", "lower"),
    "solver.coset_image_check.failed": ("count", "lower"),
    "solver.normalize_to_multiplier.self_s": ("s", "lower"),
    "solver.normalize_to_multiplier.calls": ("count", "lower"),
    "solver.normalize_to_multiplier.failed": ("count", "lower"),
    "solver.brute_oracle.self_s": ("s", "lower"),
    "solver.brute_oracle.calls": ("count", "lower"),
    "solver.brute_oracle.perms_scanned": ("count", "lower"),
    "solver.brute_oracle.solutions": ("count", "lower"),
    "solver.propagation_certifier.self_s": ("s", "lower"),
    "solver.propagation_certifier.calls": ("count", "lower"),
    "solver.propagation_certifier.rounds": ("count", "lower"),
    "circulant.build.self_s": ("s", "lower"),
    "circulant.build.calls": ("count", "lower"),
    "circulant.partition_by_generator.self_s": ("s", "lower"),
    "circulant.partition_by_cycle.self_s": ("s", "lower"),
    "circulant.is_connected.self_s": ("s", "lower"),
    "zmod.multipliers.self_s": ("s", "lower"),
    "zmod.multipliers.calls": ("count", "lower"),
    "harness.generate_instances.self_s": ("s", "lower"),
    "harness.evaluate.self_s": ("s", "lower"),
    "harness.report_to_json.self_s": ("s", "lower"),
    "harness.report_to_json.bytes": ("bytes", "lower"),
    "harness.report_to_csv.self_s": ("s", "lower"),
    "harness.load_report.self_s": ("s", "lower"),
    "harness.pool.speedup": ("ratio", "higher"),
    "harness.pool.overhead_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def row_key(cp, n, elements, mode) -> str:
    """circpart's own instance key for a report row, e.g. ``8:1,7:u``."""
    return cp.instance_key(cp.ConnectionSet(n, tuple(elements), mode))


@dataclass
class Pass:
    """One pass over a workload's fixed input: wall time, time per instance key (ms), raw outputs.

    ``instance_windows`` holds the (start, end) ``perf_counter`` times of the
    instances the benchmark times itself, so their times can be scaled with
    the gauge samples of their own window.
    """

    wall_s: float
    instance_ms: dict
    outputs: list
    instance_windows: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepWorkload:
    """``verify_theorem`` plus the JSON export for each spec, as ``circpart verify --out`` does.

    ``specs`` holds ``SweepSpec`` keyword arguments; the reference file holds
    one list of row tuples per spec.
    """

    name: str
    specs: tuple

    @property
    def jobs(self) -> int:
        return max(spec.get("jobs", 1) for spec in self.specs)

    def load_reference(self):
        payload = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())
        if payload["specs"] != json.loads(json.dumps(self.specs)):
            raise ValueError(f"reference/{self.name}.json was captured for other specs; rerun make_reference.py")
        return payload["rows"]

    def capture_reference(self, cp):
        """The row tuples circpart reports now, one list per spec."""
        rows = []
        for spec in self.specs:
            text = cp.report_to_json(cp.verify_theorem(cp.SweepSpec(**spec)))
            rows.append([[item[column] for column in COLUMNS] for item in json.loads(text)["instances"]])
        return rows

    def setup(self, cp):
        return [list(cp.generate_instances(cp.SweepSpec(**spec))) for spec in self.specs]

    def run_pass(self, cp, instances, rng, jobs=None) -> Pass:
        outputs = []
        started = perf_counter()
        for spec in self.specs:
            if jobs is not None:
                spec = {**spec, "jobs": jobs}
            report = cp.verify_theorem(cp.SweepSpec(**spec))
            outputs.append((report, cp.report_to_json(report)))
        wall = perf_counter() - started
        instance_ms = {row_key(cp, r.n, r.elements, r.mode): r.ms for report, _ in outputs for r in report.instances}
        return Pass(wall, instance_ms, outputs)

    def check(self, cp, instances, outputs, reference):
        """Return (instances attempted, [(instance key, problem)]) for one pass."""
        attempted = 0
        problems = []
        for generated, expected_rows, (report, text) in zip(instances, reference, outputs):
            expected = {row_key(cp, *row[:3]): row for row in expected_rows}
            got = {}
            for item in json.loads(text)["instances"]:
                row = [item[column] for column in COLUMNS]
                got[row_key(cp, *row[:3])] = row
            generated_keys = {cp.instance_key(cs) for cs in generated}
            keys = set(expected) | set(got) | generated_keys
            attempted += len(keys)
            for key in sorted(keys):
                row, want = got.get(key), expected.get(key)
                if row is None:
                    problems.append((key, "missing from the report"))
                elif want is None:
                    problems.append((key, "not in the reference"))
                elif row != want:
                    problems.append((key, f"row {row} differs from reference {want}"))
                elif row[COLUMNS.index("verdict")] in ("mismatch", "error"):
                    problems.append((key, f"verdict {row[COLUMNS.index('verdict')]}"))
                if key not in generated_keys:
                    problems.append((key, "not produced by generate_instances"))
            problems.extend((failure.instance, failure.message) for failure in report.failures)
            loaded = cp.load_report(text).instances
            if len(loaded) != len(report.instances):
                problems.append((self.name, f"load_report gave {len(loaded)} rows for {len(report.instances)}"))
            for before, after in zip(report.instances, loaded):
                if before != after:
                    problems.append((row_key(cp, before.n, before.elements, before.mode), "load_report round trip differs"))
            csv_rows = list(csv.DictReader(cp.report_to_csv(report).splitlines()))
            if len(csv_rows) != len(report.instances):
                problems.append((self.name, f"CSV has {len(csv_rows)} rows for {len(report.instances)}"))
            for row, line in zip(report.instances, csv_rows):
                key = row_key(cp, row.n, row.elements, row.mode)
                if f"{line['n']}:{line['set']}:{line['mode']}" != key:
                    problems.append((key, "CSV row out of order"))
                elif line["verdict"] != row.verdict:
                    problems.append((key, f"CSV verdict {line['verdict']} for {row.verdict}"))
        return attempted, problems

    def solution_counts(self, outputs):
        return [(r.n, r.elements, r.mode, r.aut_b, r.aut_c) for report, _ in outputs for r in report.instances]


@dataclass(frozen=True)
class DenseWorkload:
    """``enumerate_respecting`` on Circ(n; units of Z_n), undirected, kinds B and C, fixing 0."""

    name: str
    ns: tuple
    jobs = 1

    def load_reference(self):
        # The answer follows from the theorem: the multiplier maps v -> j*v for every unit j.
        return {n: sorted(tuple(j * v % n for v in range(n)) for j in _units(n)) for n in self.ns}

    def setup(self, cp):
        instances = []
        for n in self.ns:
            graph = cp.build(n, _units(n), cp.UNDIRECTED)
            instances.append((n, graph, cp.partition_by_generator(graph), cp.partition_by_cycle(graph)))
        return instances

    def run_pass(self, cp, instances, rng, jobs=None) -> Pass:
        order = list(instances)
        rng.shuffle(order)
        instance_ms, outputs, windows = {}, [], {}
        started = perf_counter()
        for n, graph, part_b, part_c in order:
            t0 = perf_counter()
            solutions = (cp.enumerate_respecting(graph, part_b), cp.enumerate_respecting(graph, part_c))
            t1 = perf_counter()
            instance_ms[n], windows[n] = (t1 - t0) * 1e3, (t0, t1)
            outputs.append((n, solutions))
        return Pass(perf_counter() - started, instance_ms, outputs, windows)

    def check(self, cp, instances, outputs, reference):
        problems = []
        for n, solutions in outputs:
            for kind, found in zip("BC", solutions):
                if found != reference[n]:
                    problems.append(
                        (f"{n}:units:u", f"kind {kind}: {len(found)} solutions are not the {len(reference[n])} multipliers")
                    )
        return len(outputs), problems

    def solution_counts(self, outputs):
        return sorted((n, len(b), len(c)) for n, (b, c) in outputs)


def _units(n):
    return tuple(j for j in range(1, n) if math.gcd(j, n) == 1)


# The benchmark's workloads; README.md says why each one exists.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "sweep",
            (
                {"n_min": 2, "n_max": 12, "modes": ("directed",), "jobs": 2},
                {"n_min": 2, "n_max": 13, "modes": ("undirected",), "jobs": 2},
            ),
        ),
        DenseWorkload("dense", (22, 26, 42)),
        SweepWorkload(
            "disconnected",
            ({"n_min": 2, "n_max": 14, "modes": ("undirected",), "connectivity": "disconnected"},),
        ),
        SweepWorkload("oracle", ({"n_min": 2, "n_max": 8, "enumerator": "both"},)),
    )
}


class Outcome:
    """Tally of checked instances over all passes; each problem is printed once with its instance key."""

    def __init__(self):
        self.attempted = 0
        self._failed = 0
        self._reported: set = set()

    def add(self, attempted, problems):
        """Count one checked pass: ``attempted`` instances, failing where ``problems`` name them."""
        self.attempted += attempted
        self._failed += len({key for key, _ in problems})
        for key, message in problems:
            if key not in self._reported and len(self._reported) < 50:
                print(f"FAILED {key}: {message}", file=sys.stderr)
                self._reported.add(key)

    @property
    def failed(self) -> int:
        return min(self._failed, self.attempted)


def peak_rss_mb(workload) -> float:
    """Peak resident set of this process plus that of its largest pool worker.

    ``RUSAGE_CHILDREN`` keeps the peak of the largest child ever waited for
    by this process, which includes the helpers a launcher ran before it
    exec'd the interpreter (those of a pyenv shim, for one). It is therefore
    added only on workloads with a worker pool, whose workers are several
    times larger than such helpers.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs > 1:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def gauge_seconds() -> float:
    """CPU time of one run of a fixed pure-Python loop.

    The loop does the kinds of work circpart does: it indexes lists and
    dicts, adds small ints, and builds, sorts and discards small lists and
    dicts. CPU time leaves out any wait for a processor.
    """
    table, step = _GAUGE_TABLE, _GAUGE_STEP
    acc = 0
    started = thread_time()
    for i in range(GAUGE_ROUNDS):
        row = [table[step[(i * j) & 63]] for j in range(12)]
        row.sort()
        acc += row[5] + len({x: j for j, x in enumerate(row)})
        for j in range(48):
            acc ^= table[step[(i + j) & 63]] + j
    return thread_time() - started


class SpeedGauge:
    """How fast this machine runs Python while a pass runs.

    A shared host changes speed under the benchmark: the same loop takes
    anything from 1x to 1.7x its fastest time, in phases from a second to
    minutes long, and the change shows in CPU time as well as wall time.
    While ``sampling`` is open an interval timer runs ``gauge_seconds`` in
    the main thread every GAUGE_INTERVAL_S (about 1% of a processor), so
    the samples cover the pass the way its own work does; one more sample
    is taken as it closes, so a short pass has at least one. ``scale`` turns
    a time measured during the pass, or during a window of it, into the
    time at reference speed.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        self.samples.append((perf_counter(), gauge_seconds()))

    @contextmanager
    def sampling(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()

    def scale(self, start=-math.inf, end=math.inf) -> float:
        """GAUGE_REF_S over the mean sample taken from ``start`` to ``end``: the factor from measured to
        reference-speed time. A window without a sample uses the first sample after it."""
        inside = [seconds for at, seconds in self.samples if start <= at <= end]
        if not inside:
            inside = [next(seconds for at, seconds in self.samples if at > end)]
        return GAUGE_REF_S / statistics.fmean(inside)


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] if len(samples) > 1 else samples[0]


def settle():
    """Collect garbage, then move every surviving object out of the collector's view.

    Called before timed passes, so the cyclic collector inside circpart (and
    inside pool workers forked from this process) does not keep walking the
    benchmark's own reference rows and instance lists.
    """
    gc.collect()
    gc.freeze()


def setup_seconds(workload) -> float:
    """One set-up of ``workload`` in a fresh interpreter, at reference speed; see setup_probe.py."""
    proc = subprocess.run(
        [sys.executable, str(SETUP_PROBE), workload.name], capture_output=True, text=True, timeout=60, check=True
    )
    seconds, gauge = map(float, proc.stdout.split())
    return seconds * GAUGE_REF_S / gauge


def timed_run(workload, cp, instances, rng, seconds, outcome):
    """Untraced passes until the next one would overrun ``seconds``; returns the end-to-end metrics.

    Each pass is checked and its outputs dropped before the next one starts.
    Peak memory is read after the first pass, before any checking and before
    any set-up probe has run, so the probes' own memory is not counted. After
    each pass two set-ups are timed until there are SETUP_SAMPLES of them, so
    the set-up samples are spread over the run like the passes are.
    Every time is scaled to reference speed with the SpeedGauge samples
    taken during its own pass, or during its own instance where the
    benchmark times the instance itself. Throughput is the median over the passes;
    the per-instance percentiles are taken over the instances, each at its
    median time over the passes. Medians, unlike minima, do not depend on
    how many passes fitted into the run.
    """
    reference = workload.load_reference()
    gauge = SpeedGauge()
    rates, raw_rates, scales, setup_times = [], [], [], []
    instance_ms = defaultdict(list)
    rss = None
    started = perf_counter()
    while True:
        settle()
        with gauge.sampling():
            run = workload.run_pass(cp, instances, rng)
        if rss is None:
            rss = peak_rss_mb(workload)
        outcome.add(*workload.check(cp, instances, run.outputs, reference))
        scales.append(gauge.scale())
        raw_rates.append(len(run.instance_ms) / run.wall_s)
        rates.append(raw_rates[-1] / scales[-1])
        for key, ms in run.instance_ms.items():
            window = run.instance_windows.get(key)
            instance_ms[key].append(ms * (gauge.scale(*window) if window else scales[-1]))
        wall, run = run.wall_s, None
        if len(setup_times) < SETUP_SAMPLES:
            setup_times.extend(setup_seconds(workload) for _ in range(2))
        if perf_counter() - started + wall > seconds:
            break
    per_instance = [statistics.median(times) for times in instance_ms.values()]
    metrics = {
        "instances_per_s": statistics.median(rates),
        "instance_ms_p50": statistics.median(per_instance),
        "instance_ms_p99": percentile(per_instance, 99),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    notes = {
        "passes": len(rates),
        "instances": len(per_instance),
        "setups": len(setup_times),
        "gauge_scale_median": statistics.median(scales),
        "instances_per_s_unscaled": statistics.median(raw_rates),
    }
    return metrics, notes


def traced_run(workload, cp, instances, rng, outcome):
    """Untraced jobs=1 (and pooled) passes, then one traced jobs=1 pass; returns the per-layer metrics."""
    reference = workload.load_reference()
    settle()
    plain = workload.run_pass(cp, instances, rng, jobs=1)
    outcome.add(*workload.check(cp, instances, plain.outputs, reference))
    pooled = None
    if workload.jobs > 1:
        pooled = workload.run_pass(cp, instances, rng, jobs=workload.jobs)
        outcome.add(*workload.check(cp, instances, pooled.outputs, reference))

    tracer = Tracer()
    with tracer.installed(cp):
        traced = workload.run_pass(cp, instances, rng, jobs=1)
        outcome.add(*workload.check(cp, instances, traced.outputs, reference))
    if workload.solution_counts(traced.outputs) != workload.solution_counts(plain.outputs):
        outcome.add(0, [(workload.name, "traced and untraced solution counts differ")])

    metrics = layer_metrics(tracer)
    if pooled is not None:
        metrics["harness.pool.speedup"] = plain.wall_s / pooled.wall_s
        metrics["harness.pool.overhead_s"] = pooled.wall_s - plain.wall_s / workload.jobs
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return metrics, {"traced_wall_s": traced.wall_s, "untraced_wall_s": plain.wall_s}


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics from the tracer's spans and counters; 0 where a layer did not run."""
    leaves = tr.calls("perm.is_automorphism", SEARCH)
    solutions = tr.counts[SEARCH + ".solutions"]
    metrics = {
        SEARCH + ".leaves": leaves,
        SEARCH + ".solutions": solutions,
        SEARCH + ".leaf_yield": solutions / leaves if leaves else 0.0,
        SEARCH + ".leaf_rejects": leaves - solutions,
        "perm.is_automorphism.leaf.self_s": tr.self_s("perm.is_automorphism", SEARCH),
        "perm.respects.leaf.self_s": tr.self_s("perm.respects", SEARCH),
        "harness.evaluate.self_s": tr.self_s("harness.verify_theorem"),
        "harness.pool.speedup": 0.0,
        "harness.pool.overhead_s": 0.0,
    }
    for name in PER_LAYER:
        if name in metrics or name.startswith("trace."):
            continue
        span, _, field = name.rpartition(".")
        if field == "self_s":
            metrics[name] = tr.self_s(span)
        elif field == "calls":
            metrics[name] = tr.calls(span)
        else:
            metrics[name] = tr.counts[name]
    return metrics
