"""Sweep harness: instance generation, theorem verification, reports.

A sweep enumerates connection sets for a range of n, runs the requested
enumerations per instance, compares the respecting automorphisms with the
multiplier group, and assembles a deterministic report. Per-instance rows
are keyed and ordered by (n, mode, set size, set), never by completion
time, so the report content is independent of the worker count. Wall-clock
timings are kept for the CSV view but excluded from JSON exports, which are
byte-stable.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

from .circulant import (
    DIRECTED,
    UNDIRECTED,
    ConnectionSet,
    build,
    instance_key,
    is_connected,
    partition_by_cycle,
    partition_by_generator,
)
from .perm import multiplier_perm
from .solver import (
    DEFAULT_ORACLE_LIMIT,
    DEFAULT_SEARCH_CAP,
    ResourceLimitError,
    SearchConfig,
    brute_oracle,
    coset_image_check,
    enumerate_respecting,
    normalize_to_multiplier,
    propagation_certifier,
)
from .zmod import multipliers

CONNECTIVITY_CHOICES = ("connected", "disconnected", "all")
ENUMERATOR_CHOICES = ("backtracking", "both")

@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and how. An empty range (n_max < n_min) is legal.

    The search runs under the fixed ``DEFAULT_SEARCH_CAP``. ``enumerator="both"``
    checks it against ``brute_oracle``, so n_max is at most ``DEFAULT_ORACLE_LIMIT``.
    """

    n_min: int
    n_max: int
    modes: tuple[str, ...] = (DIRECTED, UNDIRECTED)
    connectivity: str = "all"
    kinds: tuple[str, ...] = ("B", "C")
    enumerator: str = "backtracking"
    jobs: int = 1
    max_solutions: int | None = None

    def __post_init__(self):
        if self.n_min < 2:
            raise ValueError(f"n_min must be at least 2, got {self.n_min}")
        if not self.modes or any(m not in (DIRECTED, UNDIRECTED) for m in self.modes):
            raise ValueError(f"modes must be drawn from ({DIRECTED!r}, {UNDIRECTED!r})")
        if self.connectivity not in CONNECTIVITY_CHOICES:
            raise ValueError(f"connectivity must be one of {CONNECTIVITY_CHOICES}")
        if not self.kinds or any(k not in ("B", "C") for k in self.kinds):
            raise ValueError("kinds must be drawn from ('B', 'C')")
        if self.enumerator not in ENUMERATOR_CHOICES:
            raise ValueError(f"enumerator must be one of {ENUMERATOR_CHOICES}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        SearchConfig(max_solutions=self.max_solutions)  # rejects bad search settings
        if self.enumerator == "both" and self.n_max >= self.n_min and self.n_max > DEFAULT_ORACLE_LIMIT:
            raise ValueError(
                f"oracle enumeration requested but n_max={self.n_max} exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}"
            )


@dataclass(frozen=True)
class InstanceResult:
    n: int
    elements: tuple[int, ...]
    mode: str
    connected: bool
    parts_b: int
    parts_c: int
    aut_b: int | None
    aut_c: int | None
    multiplier_count: int
    verdict: str
    prop_covered: bool
    prop_rounds: int
    ms: float | None = field(default=None, compare=False)


def _blank_if_none(fmt):
    return lambda value: "" if value is None else fmt(value)


class _Column(NamedTuple):
    field: str  # InstanceResult attribute
    key: str  # JSON key and CSV header
    csv: Callable | None = str  # CSV cell format; None leaves the column out of the CSV
    json: bool = True


# The one row schema behind report_to_json, load_report and report_to_csv.
# JSON leaves out the wall-clock timing so that reports stay byte-stable.
_COLUMNS = (
    _Column("n", "n"),
    _Column("elements", "set", lambda elements: ",".join(str(s) for s in elements)),
    _Column("mode", "mode", lambda mode: "d" if mode == DIRECTED else "u"),
    _Column("connected", "connected", lambda flag: str(flag).lower()),
    _Column("parts_b", "parts_B"),
    _Column("parts_c", "parts_C"),
    _Column("aut_b", "aut_B", _blank_if_none(str)),
    _Column("aut_c", "aut_C", _blank_if_none(str)),
    _Column("multiplier_count", "multipliers"),
    _Column("verdict", "verdict"),
    _Column("prop_covered", "prop_covered", csv=None),
    _Column("prop_rounds", "prop_rounds"),
    _Column("ms", "ms", _blank_if_none("{:.3f}".format), json=False),
)
_JSON_COLUMNS = tuple(c for c in _COLUMNS if c.json)
_CSV_COLUMNS = tuple(c for c in _COLUMNS if c.csv is not None)
CSV_COLUMNS = tuple(c.key for c in _CSV_COLUMNS)


@dataclass(frozen=True)
class SweepFailure:
    instance: str
    message: str


@dataclass(frozen=True)
class VerificationReport:
    spec_echo: dict
    instances: tuple[InstanceResult, ...]
    aggregates: dict
    failures: tuple[SweepFailure, ...]


def _connection_sets(n: int, mode: str):
    if mode == DIRECTED:
        pool = range(1, n)
        for size in range(1, n):
            for combo in itertools.combinations(pool, size):
                yield combo
    else:
        reps = range(1, n // 2 + 1)
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(reps, size):
                elems = set()
                for s in combo:
                    elems.add(s)
                    elems.add(n - s)
                yield tuple(sorted(elems))


def generate_instances(spec: SweepSpec):
    """Deterministic stream of connection sets covered by the sweep.

    Directed mode yields every nonempty subset of 1..n-1; undirected mode
    every nonempty inverse-closed subset, both ordered by size then
    lexicographically, filtered by the connectivity flag.
    """
    for n in range(spec.n_min, spec.n_max + 1):
        for mode in spec.modes:
            for elements in _connection_sets(n, mode):
                g = math.gcd(n, *elements)
                if spec.connectivity == "connected" and g != 1:
                    continue
                if spec.connectivity == "disconnected" and g == 1:
                    continue
                yield ConnectionSet(n, elements, mode)


def _evaluate(spec: SweepSpec, cs: ConnectionSet):
    """Worker body: one instance in, one (row, failures) out. Pure and picklable."""
    n, elements = cs.n, cs.elements
    started = time.perf_counter()
    failures: list[SweepFailure] = []
    graph = build(n, elements, cs.mode)
    key = instance_key(graph.cs)
    connected = is_connected(graph)
    partitions = {"B": partition_by_generator(graph), "C": partition_by_cycle(graph)}
    mult_perms = sorted(multiplier_perm(n, j) for j in multipliers(n, elements))
    mult_set = set(mult_perms)

    cfg = SearchConfig(fix_zero=True, max_solutions=spec.max_solutions)
    aut_counts: dict[str, int | None] = {"B": None, "C": None}
    outcomes = []
    had_error = False
    for kind in spec.kinds:
        part = partitions[kind]
        try:
            sols = enumerate_respecting(graph, part, cfg)
        except ResourceLimitError as exc:
            failures.append(SweepFailure(key, f"kind {kind}: {exc}"))
            had_error = True
            continue
        if spec.enumerator == "both":
            oracle_sols = brute_oracle(graph, part, fix_zero=True)
            if oracle_sols != sols:
                failures.append(SweepFailure(key, f"kind {kind}: backtracking disagrees with brute oracle"))
        aut_counts[kind] = len(sols)
        sol_set = set(sols)
        outcomes.append((sols == mult_perms, mult_set <= sol_set))
        if kind == "C":
            if connected:
                for p in sols:
                    witness = normalize_to_multiplier(graph, p)
                    if witness is None or multiplier_perm(n, witness.combined) != p:
                        failures.append(SweepFailure(key, f"multiplier normalization failed for {p}"))
            subsets = [(s,) for s in elements]
            if len(elements) > 1:
                subsets.append(elements)
            for p in sols:
                for sub in subsets:
                    if not coset_image_check(graph, p, sub):
                        failures.append(SweepFailure(key, f"coset image check failed for {p} on {sub}"))

    if had_error:
        verdict = "error"
    elif all(equal for equal, _ in outcomes):
        verdict = "match"
    elif not connected and all(contains for _, contains in outcomes):
        verdict = "expected-mismatch"
    else:
        verdict = "mismatch"

    trace = propagation_certifier(graph)
    row = InstanceResult(
        n=n,
        elements=elements,
        mode=cs.mode,
        connected=connected,
        parts_b=len(partitions["B"].parts),
        parts_c=len(partitions["C"].parts),
        aut_b=aut_counts["B"],
        aut_c=aut_counts["C"],
        multiplier_count=len(mult_perms),
        verdict=verdict,
        prop_covered=trace.covered,
        prop_rounds=trace.total_rounds,
        ms=(time.perf_counter() - started) * 1e3,
    )
    return row, tuple(failures)


def _row_key(row: InstanceResult):
    return (row.n, row.mode, len(row.elements), row.elements)


def _aggregate(rows, failures) -> dict:
    return {
        "instances": len(rows),
        "connected": sum(1 for r in rows if r.connected),
        "match": sum(1 for r in rows if r.verdict == "match"),
        "expected_mismatch": sum(1 for r in rows if r.verdict == "expected-mismatch"),
        "mismatch": sum(1 for r in rows if r.verdict == "mismatch"),
        "error": sum(1 for r in rows if r.verdict == "error"),
        "failures": len(failures),
    }


def _spec_echo(spec: SweepSpec) -> dict:
    # Parallelism degree is an execution detail, not part of the result.
    # Tuples become lists, as they come back from JSON. The fixed limits are
    # echoed too, so a report states the caps it ran under.
    echo = {"hard_cap": DEFAULT_SEARCH_CAP, "oracle_limit": DEFAULT_ORACLE_LIMIT}
    for f in fields(SweepSpec):
        if f.name != "jobs":
            value = getattr(spec, f.name)
            echo[f.name] = list(value) if isinstance(value, tuple) else value
    return echo


def verify_theorem(spec: SweepSpec) -> VerificationReport:
    """Run the sweep and assemble the report.

    Per-instance resource errors are recorded in the failures list without
    aborting the rest of the sweep. Every connected instance must come back
    with verdict "match"; a disconnected instance whose respecting group
    strictly contains the multipliers reports "expected-mismatch". At most
    min(jobs, instances, processor cores) worker processes are started.
    """
    instances = list(generate_instances(spec))
    evaluate = functools.partial(_evaluate, spec)
    workers = min(spec.jobs, len(instances), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            outcomes = pool.map(evaluate, instances)
    else:
        outcomes = [evaluate(cs) for cs in instances]

    paired = sorted(outcomes, key=lambda pair: _row_key(pair[0]))
    rows = tuple(row for row, _ in paired)
    failures = tuple(f for _, errs in paired for f in errs)
    return VerificationReport(
        spec_echo=_spec_echo(spec),
        instances=rows,
        aggregates=_aggregate(rows, failures),
        failures=failures,
    )


def _row_to_json(row: InstanceResult) -> dict:
    return {c.key: getattr(row, c.field) for c in _JSON_COLUMNS}


def _row_from_json(item: dict) -> InstanceResult:
    values = {c.field: item[c.key] for c in _JSON_COLUMNS}
    values["elements"] = tuple(values["elements"])
    return InstanceResult(**values)


def report_to_json(report: VerificationReport) -> str:
    """Byte-stable JSON rendering; timings are deliberately not included."""
    payload = {
        "sweep": report.spec_echo,
        "aggregates": report.aggregates,
        "instances": [_row_to_json(row) for row in report.instances],
        "failures": [{"instance": f.instance, "message": f.message} for f in report.failures],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_report(text: str) -> VerificationReport:
    """Rebuild a report from its JSON rendering (timings come back as None)."""
    payload = json.loads(text)
    rows = tuple(_row_from_json(item) for item in payload["instances"])
    failures = tuple(SweepFailure(f["instance"], f["message"]) for f in payload["failures"])
    return VerificationReport(payload["sweep"], rows, payload["aggregates"], failures)


def report_to_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.instances:
        writer.writerow([c.csv(getattr(row, c.field)) for c in _CSV_COLUMNS])
    return buf.getvalue()


def export_report(report: VerificationReport, fmt: str, destination) -> None:
    """Write the report as ``json`` or ``csv``; identical reports give identical bytes."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    Path(destination).write_text(text, encoding="utf-8")
