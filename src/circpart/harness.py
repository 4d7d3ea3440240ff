"""Sweep harness: instance generation, theorem verification, reports.

A sweep walks the connection sets of one (n, mode, size) block at a
time, in generation order. The first set of each orbit under the unit
multipliers is checked in full (the group of respecting automorphisms
from its generators, compared with the multiplier group); each later set
of the orbit takes that row as it arrives. The rows form a deterministic
report.
Per-instance rows are keyed and ordered by (n, mode, set size, set), never
by completion time, so the report content is independent of the worker
count. Wall-clock timings are kept for the CSV view but excluded from JSON
exports, which are byte-stable.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import multiprocessing
import operator
import os
import time
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_str  # what json.dumps writes a str as
from pathlib import Path
from typing import Callable, NamedTuple

from .circulant import (
    DIRECTED,
    UNDIRECTED,
    ConnectionSet,
    ResourceLimitError,
    instance_key,
    is_connected,
    partition_by_cycle,
    partition_by_generator,
)
from .perm import multiplier_perm, respects
from .solver import (
    DEFAULT_ORACLE_LIMIT,
    DEFAULT_SEARCH_CAP,
    brute_oracle,
    coset_image_check,
    normalize_to_multiplier,
    propagation_stage,
    respecting_group,
)
from .zmod import _units

CONNECTIVITY_CHOICES = ("connected", "disconnected", "all")
ENUMERATOR_CHOICES = ("backtracking", "both")
MAX_SWEEP_SETS = 1_100_000  # both modes to n = 20 (1,051,604 sets); directed to n = 21 is 2,097,130


def _distinct_from(values, allowed: set) -> bool:
    """Are ``values`` one or more distinct members of ``allowed``, and not a str, whose letters would pass?"""
    return not isinstance(values, str) and bool(values) and len(set(values)) == len(values) and set(values) <= allowed


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and how. An empty range (n_max < n_min) is legal.

    The search runs under the fixed ``DEFAULT_SEARCH_CAP``, once per kind
    and unit orbit of connection sets (see ``verify_theorem``). A sweep
    counts every group from its transversals, so it has no solution cap.
    ``enumerator="both"`` searches every set on its own, lists each group
    and checks it against ``brute_oracle``, whose one scan per instance
    serves every kind, so n_max is at most ``DEFAULT_ORACLE_LIMIT``.
    ``jobs`` bounds the worker processes, which take one block at a time.
    """

    n_min: int
    n_max: int
    modes: tuple[str, ...] = (DIRECTED, UNDIRECTED)
    connectivity: str = "all"
    kinds: tuple[str, ...] = ("B", "C")
    enumerator: str = "backtracking"
    jobs: int = 1

    def __post_init__(self):
        if self.n_min < 2:
            raise ValueError(f"n_min must be at least 2, got {self.n_min}")
        if not _distinct_from(self.modes, {DIRECTED, UNDIRECTED}):
            raise ValueError(f"modes must be distinct and drawn from ({DIRECTED!r}, {UNDIRECTED!r})")
        if self.connectivity not in CONNECTIVITY_CHOICES:
            raise ValueError(f"connectivity must be one of {CONNECTIVITY_CHOICES}")
        if not _distinct_from(self.kinds, {"B", "C"}):
            raise ValueError("kinds must be distinct and drawn from ('B', 'C')")
        if self.enumerator not in ENUMERATOR_CHOICES:
            raise ValueError(f"enumerator must be one of {ENUMERATOR_CHOICES}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.enumerator == "both" and self.n_max >= self.n_min and self.n_max > DEFAULT_ORACLE_LIMIT:
            raise ValueError(
                f"oracle enumeration requested but n_max={self.n_max} exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}"
            )


@dataclass(frozen=True, slots=True)
class InstanceResult:
    """One report row. Its orbit columns, ``connected`` to ``verdict``, are
    the same on every set of a unit orbit; the others (the set, its
    propagation trace and ``ms``) are the set's own. An ``error`` row from an
    exception has only the set, ``connected``, ``verdict`` and ``ms`` filled
    in; the other columns are None."""

    n: int
    elements: tuple[int, ...]
    mode: str
    connected: bool
    parts_b: int | None
    parts_c: int | None
    aut_b: int | None
    aut_c: int | None
    multiplier_count: int | None
    verdict: str
    prop_covered: bool | None
    prop_rounds: int | None
    ms: float | None = field(default=None, compare=False)


def _if_none(blank, fmt):
    return lambda value: blank if value is None else fmt(value)


_json_flag = {True: "true", False: "false"}.__getitem__


def _json_list(elements):  # as json.dumps(..., indent=2) writes a list of ints inside a row
    return "[\n        " + ",\n        ".join(map(str, elements)) + "\n      ]" if elements else "[]"


class _Column(NamedTuple):
    field: str  # InstanceResult attribute
    key: str  # JSON key and CSV header
    csv: Callable | None  # CSV cell format; None leaves the column out of the CSV
    json: Callable | None  # JSON value format; None leaves the column out of the JSON


# The one row schema behind report_to_json, load_report and report_to_csv.
# JSON leaves out the wall-clock timing so that reports stay byte-stable.
_COLUMNS = (
    _Column("n", "n", str, str),
    _Column("elements", "set", lambda elements: ",".join(str(s) for s in elements), _json_list),
    _Column("mode", "mode", lambda mode: "d" if mode == DIRECTED else "u", _json_str),
    _Column("connected", "connected", _json_flag, _json_flag),
    _Column("parts_b", "parts_B", _if_none("", str), _if_none("null", str)),
    _Column("parts_c", "parts_C", _if_none("", str), _if_none("null", str)),
    _Column("aut_b", "aut_B", _if_none("", str), _if_none("null", str)),
    _Column("aut_c", "aut_C", _if_none("", str), _if_none("null", str)),
    _Column("multiplier_count", "multipliers", _if_none("", str), _if_none("null", str)),
    _Column("verdict", "verdict", str, _json_str),
    _Column("prop_covered", "prop_covered", None, _if_none("null", _json_flag)),
    _Column("prop_rounds", "prop_rounds", _if_none("", str), _if_none("null", str)),
    _Column("ms", "ms", _if_none("", "{:.3f}".format), None),
)
_JSON_COLUMNS = tuple(sorted((c for c in _COLUMNS if c.json is not None), key=lambda c: c.key))  # in sort_keys order
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


def _sweep_size(spec: SweepSpec) -> int:
    """The number of connection sets the sweep generates before the connectivity filter, counted
    without generating any: 2^(n-1) - 1 directed and 2^floor(n/2) - 1 undirected per n.

    Exact up to ``MAX_SWEEP_SETS``; past it, a lower bound that is still past it. The count stops
    at the first n that takes it past the budget, and caps each exponent at the budget's bit
    length, so that a huge n_min or n_max costs no more than a few terms.
    """
    size, cap = 0, MAX_SWEEP_SETS.bit_length()
    for n in range(spec.n_min, spec.n_max + 1):
        size += sum(2 ** min(n - 1 if mode == DIRECTED else n // 2, cap) - 1 for mode in spec.modes)
        if size > MAX_SWEEP_SETS:
            break
    return size


def _blocks(spec: SweepSpec) -> list[tuple[int, str, int]]:
    """The (n, mode, size) blocks in generation order; size is |S|, or the number of classes {s, n-s} if undirected."""
    modes = [(n, mode) for n in range(spec.n_min, spec.n_max + 1) for mode in spec.modes]
    return [(n, mode, size) for n, mode in modes for size in range(1, n if mode == DIRECTED else n // 2 + 1)]


def _block_sets(spec: SweepSpec, block: tuple[int, str, int]):
    """The connection sets of one block, lexicographically, filtered by the connectivity flag."""
    n, mode, size = block
    for combo in itertools.combinations(range(1, n if mode == DIRECTED else n // 2 + 1), size):
        # undirected: each set of representatives s <= n/2, closed under s -> n-s
        elements = combo if mode == DIRECTED else tuple(sorted({t for s in combo for t in (s, n - s)}))
        if spec.connectivity == "all" or (math.gcd(n, *elements) == 1) == (spec.connectivity == "connected"):
            yield ConnectionSet(n, elements, mode)


def generate_instances(spec: SweepSpec):
    """Deterministic stream of connection sets covered by the sweep, block by block.

    Directed mode yields every nonempty subset of 1..n-1; undirected mode
    every nonempty inverse-closed subset, both ordered by size then
    lexicographically, filtered by the connectivity flag.
    """
    for block in _blocks(spec):
        yield from _block_sets(spec, block)


def _sweep_block(spec: SweepSpec, block: tuple[int, str, int]) -> list:
    """Worker body: one block in, one (row, failures) pair per set out, in one pass in generation order.

    Every row is built here, from the set's own columns (its elements, its
    propagation and ``ms``) and its orbit columns: a full check's
    (``_check_instance``), or, for an image j*R of a representative R with a
    source, R's (``_derived``). Each set is propagated once, along the block's
    walk (``_propagate``); a coverage that differs from connectivity is a
    failure. A set that is no earlier set's image registers its images with
    the least unit j and a source: its key, elements, orbit columns and
    ``cs.multipliers`` if its whole row raised nothing and recorded no
    failure, else None. An image without a source is checked in full. No
    source and no walk holds a set, so each set, with what it caches, is
    freed once its row is made. An exception becomes its ``error`` row and a failure.
    """
    n = block[0]
    units = _units(n) if spec.enumerator == "backtracking" else ()
    pending: dict = {}  # a later set's elements -> (its representative's source or None, its j)
    walk: list = []  # see _propagate
    out = []
    for cs in _block_sets(spec, block):
        entry = pending.pop(cs.elements, None)
        started = time.perf_counter()
        failures: list[SweepFailure] = []
        source = None
        try:
            if entry is None or entry[0] is None:
                orbit = _check_instance(spec, cs, failures)
            else:
                orbit = _derived(*entry[0], cs, entry[1])
            prop = _propagate(cs, walk)
        except Exception as exc:
            failures.append(SweepFailure(instance_key(cs), f"{type(exc).__name__}: {exc}"))
            orbit, prop = (is_connected(cs), *(None,) * 5, "error"), (None, None)
        else:
            if prop[0] != orbit[0]:
                failures.append(SweepFailure(
                    instance_key(cs), f"propagation coverage {prop[0]} differs from connectivity {orbit[0]}"
                ))
            if entry is None and not failures:
                source = instance_key(cs), cs.elements, orbit, cs.multipliers
        row = InstanceResult(cs.n, cs.elements, cs.mode, *orbit, *prop, (time.perf_counter() - started) * 1e3)
        if entry is None:
            for j in units:
                image = tuple(sorted(j * s % n for s in cs.elements))
                if image != cs.elements:
                    pending.setdefault(image, (source, j))
        out.append((row, tuple(failures)))
    return out


def _propagate(cs: ConnectionSet, walk: list) -> tuple[bool, int]:
    """``cs``'s (covered, total_rounds) as ``propagation_certifier(cs)`` gives them. Stage k reads only n,
    gcd(n, s_1..s_k) and s_1..s_{k+1}, so ``walk`` keeps, per prefix s_1..s_k of the last set given with this
    n, (the prefix, gcd(n, s_1..s_k), whether every stage so far closed, the rounds so far), and ``cs`` makes
    only the stages past their common prefix. All closed, the last fixed set is the subgroup of the last step."""
    n, gens = cs.n, cs.elements
    while walk and walk[-1][0] != gens[: len(walk)]:
        walk.pop()
    if not walk:
        walk.append((gens[:1], math.gcd(n, gens[0]), True, 0))
    for k in range(len(walk), len(gens)):
        _, step, closed, rounds = walk[-1]
        stage = propagation_stage(n, step, prefix := gens[: k + 1])
        walk.append((prefix, math.gcd(step, gens[k]), closed and stage.closed, rounds + len(stage.rounds)))
    _, step, closed, rounds = walk[-1]
    return closed and step == 1, rounds


def _derived(
    rep: str, elements: tuple[int, ...], orbit: tuple, units: tuple[int, ...], cs: ConnectionSet, j: int
) -> tuple:
    """The orbit columns of ``cs`` = j*R: ``orbit``, those of R, which is keyed ``rep`` and has ``elements`` and ``units``.

    m: v -> j*v maps Circ(n; R) onto Circ(n; jR) and each kind's parts onto
    parts, and commutes with every multiplier map, so every orbit column is
    R's. Two checks come first, raising ValueError when they fail: that j*R is S = ``cs``, and that each u of
    ``units``, M(R), maps S onto S: M(R) <= M(S). As units commute, u*S = S gives u*R = R: S = j*R proves the reverse.
    """
    n = cs.n
    image = sorted(j * r % n for r in elements)
    if tuple(image) != cs.elements:
        raise ValueError(f"{j} times the set of {rep} is {image}, not this set")
    for u in units:
        if (moved := sorted(u * s % n for s in cs.elements)) != image:
            raise ValueError(f"multiplier {u} of {rep} maps this set to {moved}")
    return orbit


def _check_instance(spec: SweepSpec, cs: ConnectionSet, failures: list) -> tuple:
    """The orbit columns of one set, ``connected`` to ``verdict`` in row order.

    Appends what fails to ``failures``. Searches the groups and checks them
    on this set's own graph, partitions and M, ``cs.multipliers``; M <= G is
    tested on every multiplier but 1 by sifting it through the transversals
    found. A group is listed only to compare it with the oracle scan.
    """
    n, elements = cs.n, cs.elements
    key = instance_key(cs)
    connected = is_connected(cs)
    partitions = {"B": partition_by_generator(cs), "C": partition_by_cycle(cs)}
    units = cs.multipliers
    groups = {kind: respecting_group(cs, partitions[kind]) for kind in spec.kinds}
    moved_by = [multiplier_perm(n, u) for u in units if u != 1]  # the identity is in every group

    aut_counts = {kind: group.order for kind, group in groups.items()}
    if spec.enumerator == "both":
        oracle = dict(zip(spec.kinds, brute_oracle(cs, [partitions[kind] for kind in spec.kinds], fix_zero=True)))
    outcomes = []
    for kind in spec.kinds:
        part = partitions[kind]
        group = groups[kind]
        if spec.enumerator == "both" and oracle[kind] != group.elements():
            failures.append(SweepFailure(key, f"kind {kind}: backtracking disagrees with brute oracle"))
        # M <= G in the group the search found; with |G| = |M| the two are equal.
        contains = all(m in group for m in moved_by)
        outcomes.append((contains and aut_counts[kind] == len(units), contains))
        if kind == "C":
            # Both properties are closed under composition, so the generators suffice.
            gens = group.strong_generators()
            if connected:
                for p in gens:
                    witness = normalize_to_multiplier(cs, p)
                    if witness is None or multiplier_perm(n, witness.combined) != p:
                        failures.append(SweepFailure(key, f"multiplier normalization failed for {p}"))
            subsets = [(s,) for s in elements]
            if len(elements) > 1:
                subsets.append(elements)
            for p in gens:
                for sub in subsets:
                    if not coset_image_check(cs, p, sub):
                        failures.append(SweepFailure(key, f"coset image check failed for {p} on {sub}"))
    # The inclusions, generator by generator. C refines B and its parts are the components of the
    # B parts, so G_B <= G_C on every circulant; the paper shows G_C <= G_B on connected ones. On a
    # connected set where both kinds were searched and both equal M, G_B = M = G_C as sets: both hold.
    both = connected and len(groups) == 2
    if not (both and all(equal for equal, _ in outcomes)):
        if "B" in groups and not all(respects(p, partitions["C"]) for p in groups["B"].strong_generators()):
            failures.append(SweepFailure(key, "kind B group is not inside the kind C group"))
        if both and not all(respects(p, partitions["B"]) for p in groups["C"].strong_generators()):
            failures.append(SweepFailure(key, "kind C group is not inside the kind B group"))

    if all(equal for equal, _ in outcomes):
        verdict = "match"
    elif not connected and all(contains for _, contains in outcomes):
        verdict = "expected-mismatch"
    else:
        verdict = "mismatch"

    counts = partitions["B"].count, partitions["C"].count, aut_counts.get("B"), aut_counts.get("C"), len(units)
    return (connected, *counts, verdict)


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
    # echoed too, so a report states the caps it ran under; sweeps count
    # groups and run under no solution cap.
    echo = {"hard_cap": DEFAULT_SEARCH_CAP, "max_solutions": None, "oracle_limit": DEFAULT_ORACLE_LIMIT}
    for f in fields(SweepSpec):
        if f.name != "jobs":
            value = getattr(spec, f.name)
            echo[f.name] = list(value) if isinstance(value, tuple) else value
    return echo


def verify_theorem(spec: SweepSpec) -> VerificationReport:
    """Run the sweep and assemble the report.

    Each (n, mode, size) block is one unit of work: its worker generates
    its sets, which the units of Z_n keep in the block, so no set crosses a
    process boundary, and sweeps them in one pass (see ``_sweep_block``).
    An orbit's first set R is checked in full; a later set jR takes R's
    orbit columns (see ``_derived``) if R raised nothing and recorded no
    failure, and is checked in full otherwise, so the report is that of a
    check per set.
    Under ``enumerator="both"`` every set is checked in full and compared
    with its own oracle scan. A row's ``ms`` times that row's own work.

    A per-instance exception, a resource limit or any other, is recorded
    in the failures list without aborting the rest of the sweep. Every
    connected instance must come back with verdict "match"; a disconnected
    instance whose respecting group strictly contains the multipliers
    reports "expected-mismatch". At most min(jobs, blocks, processor cores)
    worker processes are started, which take the largest n first; with one,
    the blocks run in order in this process.

    A sweep of more than the fixed ``MAX_SWEEP_SETS`` connection sets,
    counted before the connectivity filter (``_sweep_size``), raises
    ResourceLimitError before any set or block is made.
    """
    size = _sweep_size(spec)
    if size > MAX_SWEEP_SETS:
        raise ResourceLimitError(f"the sweep has at least {size} connection sets, more than the limit {MAX_SWEEP_SETS}")
    blocks = _blocks(spec)
    sweep = functools.partial(_sweep_block, spec)
    workers = min(spec.jobs, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            outcomes = list(pool.imap_unordered(sweep, reversed(blocks)))
    else:
        outcomes = map(sweep, blocks)

    paired = sorted((pair for pairs in outcomes for pair in pairs), key=lambda pair: _row_key(pair[0]))
    rows = tuple(row for row, _ in paired)
    failures = tuple(f for _, errs in paired for f in errs)
    return VerificationReport(
        spec_echo=_spec_echo(spec),
        instances=rows,
        aggregates=_aggregate(rows, failures),
        failures=failures,
    )


# A row as json.dumps(..., sort_keys=True, indent=2) writes it in the "instances" list, and its cells.
_JSON_ROW = "    {{\n" + ",\n".join(f"      {json.dumps(c.key)}: {{}}" for c in _JSON_COLUMNS) + "\n    }}"
_JSON_FORMATS = tuple(c.json for c in _JSON_COLUMNS)
_json_values = operator.attrgetter(*(c.field for c in _JSON_COLUMNS))


def _row_from_json(item: dict) -> InstanceResult:
    values = {c.field: item[c.key] for c in _JSON_COLUMNS}
    values["elements"] = tuple(values["elements"])
    return InstanceResult(**values)


def report_to_json(report: VerificationReport) -> str:
    """Byte-stable JSON rendering; timings are deliberately not included.

    Byte for byte ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` of the sweep echo, the
    aggregates, the rows and the failures. ``indent`` selects the pure-Python encoder, so the rows,
    nearly all of the text, are written from the row schema; the rest goes through ``json.dumps``,
    indented one level deeper.
    """
    rows = ",\n".join(
        _JSON_ROW.format(*[fmt(value) for fmt, value in zip(_JSON_FORMATS, _json_values(row))])
        for row in report.instances
    )
    sections = {
        "aggregates": report.aggregates,
        "failures": [{"instance": f.instance, "message": f.message} for f in report.failures],
        "sweep": report.spec_echo,
    }
    text = {key: json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ") for key, value in sections.items()}
    text["instances"] = f"[\n{rows}\n  ]" if rows else "[]"
    return "{\n" + ",\n".join(f"  {json.dumps(key)}: {text[key]}" for key in sorted(text)) + "\n}\n"


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
