"""Sweep harness: instance generation, theorem verification, reports.

A sweep walks the connection sets of one (n, mode, size) block at a
time, in generation order. The first set of each orbit under the unit
multipliers is checked in full (the group of respecting automorphisms
from its generators, compared with the multiplier group); each later set
of the orbit takes that row as it arrives. The rows form a deterministic
report.
Sets are generated in report order, (n, mode, set size, set), so the
blocks' rows, put end to end in block order, are the report, whatever the
worker count; nothing is sorted. Wall-clock timings are kept for the CSV
view but excluded from JSON exports, which are byte-stable.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import multiprocessing
import operator
import os
import time
from collections import Counter
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
    propagation_closure,
    respecting_group,
)
from .zmod import _units

CONNECTIVITY_CHOICES = ("connected", "disconnected", "all")
ENUMERATOR_CHOICES = ("backtracking", "both")
# Both modes to n = 20 have 180,819,942 arcs in 1,051,604 sets, the most sets of any range under the
# ceiling; directed n = 21 alone has 220,200,960 arcs, undirected n = 38 368,574,464.
MAX_SWEEP_ARCS = 181_000_000


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
    ``jobs`` bounds the processes that sweep, the caller included, each of
    which sweeps a fixed stripe of the blocks.
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
    # The rows of each nonempty block as ``_json_rows`` rendered them where the block was swept. Only
    # verify_theorem sets it; a report made any other way, by dataclasses.replace too, has None.
    _json_blocks: tuple[str, ...] | None = field(default=None, init=False, compare=False, repr=False)


def _sweep_arcs(spec: SweepSpec) -> int:
    """The arcs of the sets the sweep generates before the connectivity filter, the sum of n*|S|,
    counted without generating any: n(n-1)*2^(n-2) directed and n(n-1)*2^(floor(n/2)-1) undirected
    per n. Each of the n-1 nonzero residues lies in half of the sets, and each brings n arcs.

    Exact up to ``MAX_SWEEP_ARCS``; past it, a lower bound that is still past it. The count stops at
    the first n that takes it past the ceiling, and caps each exponent at the ceiling's bit length,
    so that a huge n_min or n_max costs no more than a few terms.
    """
    total, cap = 0, MAX_SWEEP_ARCS.bit_length()
    for n in range(spec.n_min, spec.n_max + 1):
        total += sum(n * (n - 1) << (min(n - 1 if mode == DIRECTED else n // 2, cap) - 1) for mode in spec.modes)
        if total > MAX_SWEEP_ARCS:
            break
    return total


def _blocks(spec: SweepSpec) -> list[tuple[int, str, int]]:
    """The (n, mode, size) blocks in report order, "directed" before "undirected" whatever the order of
    ``spec.modes``; size is |S|, or the number of classes {s, n-s} if undirected."""
    modes = [(n, mode) for n in range(spec.n_min, spec.n_max + 1) for mode in sorted(spec.modes)]
    return [(n, mode, size) for n, mode in modes for size in range(1, n if mode == DIRECTED else n // 2 + 1)]


def _block_sets(spec: SweepSpec, block: tuple[int, str, int]):
    """The connection sets of one block in report order, by |S| then lexicographically, filtered by the
    connectivity flag.

    A directed block is its combinations in lex order. An undirected set is its classes' least members
    s < n - s, then the n - s, with n/2 once if n is even. Within one |S| its least members decide, so
    lex order of sets is lex order of combinations; for even n the sets that hold n/2 have one element
    fewer and come first. A unit j of an even n is odd, so j*n/2 = n/2: no unit orbit has sets in both
    groups, and each orbit's first set is the one it would be in plain lex order of combinations.
    """
    n, mode, size = block
    if mode == DIRECTED:
        combos = itertools.combinations(range(1, n), size)
    else:
        low = range(1, (n + 1) // 2)  # s < n - s
        combos = itertools.combinations(low, size)
        if n % 2 == 0:
            combos = itertools.chain((c + (n // 2,) for c in itertools.combinations(low, size - 1)), combos)
    for combo in combos:
        elements = combo if mode == DIRECTED else combo + tuple(n - s for s in reversed(combo) if 2 * s != n)
        if spec.connectivity == "all" or (math.gcd(n, *elements) == 1) == (spec.connectivity == "connected"):
            yield ConnectionSet(n, elements, mode)


def generate_instances(spec: SweepSpec):
    """Deterministic stream of connection sets covered by the sweep, block by block, in report order.

    Directed mode yields every nonempty subset of 1..n-1; undirected mode
    every nonempty inverse-closed subset, filtered by the connectivity flag.
    The order is the report's: by n, then mode ("directed" first), then |S|,
    then lexicographically.
    """
    for block in _blocks(spec):
        yield from _block_sets(spec, block)


def _sweep_block(spec: SweepSpec, block: tuple[int, str, int]) -> tuple[list, list, str]:
    """One block in; its rows as field tuples in ``InstanceResult`` order, its failures and its rows
    rendered by ``_json_rows`` out, in one pass in generation order, which is report order. The rows
    are rendered once every row's ``ms`` is taken.

    Every row is made here, from the set's own columns (its elements, its
    propagation and ``ms``) and its orbit columns: a full check's
    (``_check_instance``), or, for an image j*R of a representative R with a
    source, R's (``_derived``). Each set is propagated once, on its own, by
    ``propagation_closure``; a coverage that differs from connectivity, or a
    stage that breaks its coset union, is a failure. A set that is no earlier
    set's image files each image j*R under its elements, with a source: its
    key, orbit columns and ``cs.multipliers`` if its whole row raised nothing
    and recorded no failure, else None. A set found under j*R is j*R, so no
    check compares them. An image without a source is checked in full. No
    source holds a set, so each set, with what it caches, is freed once its
    row is made. An exception becomes its ``error`` row and a failure.
    """
    n = block[0]
    units = _units(n) if spec.enumerator == "backtracking" else ()
    pending: dict = {}  # a later set's elements -> its representative's source, or None if that failed
    rows, block_failures = [], []
    for cs in _block_sets(spec, block):
        representative = cs.elements not in pending
        source = pending.pop(cs.elements, None)
        started = time.perf_counter()
        failures: list[SweepFailure] = []
        try:
            orbit = _check_instance(spec, cs, failures) if source is None else _derived(*source, cs)
            covered, rounds, coset_ok = propagation_closure(n, cs.elements)
        except Exception as exc:
            failures.append(SweepFailure(instance_key(cs), f"{type(exc).__name__}: {exc}"))
            orbit, covered, rounds = (is_connected(cs), *(None,) * 5, "error"), None, None
        else:
            if covered != orbit[0]:
                failures.append(SweepFailure(
                    instance_key(cs), f"propagation coverage {covered} differs from connectivity {orbit[0]}"
                ))
            if not coset_ok:
                failures.append(SweepFailure(instance_key(cs), "a propagation stage broke its union of cosets"))
        rows.append((cs.n, cs.elements, cs.mode, *orbit, covered, rounds, (time.perf_counter() - started) * 1e3))
        if representative:
            source = None if failures else (instance_key(cs), orbit, cs.multipliers)
            for j in units:
                image = tuple(sorted(j * s % n for s in cs.elements))
                if image != cs.elements:
                    pending.setdefault(image, source)
        block_failures += failures
    return rows, block_failures, _json_rows(rows)


def _derived(rep: str, orbit: tuple, units: tuple[int, ...], cs: ConnectionSet) -> tuple:
    """The orbit columns of ``cs`` = S, an image j*R of the set R keyed ``rep``: R's, ``orbit``.

    m: v -> j*v maps Circ(n; R) onto Circ(n; jR) and each kind's parts onto
    parts, and commutes with every multiplier map, so every orbit column is
    R's. S = j*R holds by the key S was found under. The one check reads
    M(R), ``units``: a u != 1 that does not map S onto S raises ValueError,
    so M(R) <= M(S). As units commute, u*S = S gives u*R = R: S = j*R proves the reverse.
    """
    n, elements = cs.n, list(cs.elements)
    for u in units:
        if u != 1 and (moved := sorted(u * s % n for s in elements)) != elements:
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
    moved_by = {multiplier_perm(n, u) for u in units if u != 1}  # the identity is in every group
    if spec.enumerator == "both":
        oracle = dict(zip(spec.kinds, brute_oracle(cs, [partitions[kind] for kind in spec.kinds], fix_zero=True)))
    outcomes = []
    for kind in spec.kinds:
        group = groups[kind]
        if spec.enumerator == "both" and oracle[kind] != group.elements():
            failures.append(SweepFailure(key, f"kind {kind}: backtracking disagrees with brute oracle"))
        # M <= G in the group the search found; with |G| = |M| the two are equal.
        contains = all(m in group for m in moved_by)
        outcomes.append((contains and group.order == len(units), contains))
        if kind == "C":
            # Both properties are closed under composition, so the generators suffice; the subgroups
            # <s> and <S> are <g> for their steps g = gcd(n, ...), and each is checked once. Step 1
            # is Z_n, one coset, which every permutation maps onto itself, so it is not checked.
            # A multiplier map v -> j*v passes both: it normalizes to j and sends x + <g> to jx + <g>.
            # So only the other generators are checked, which a connected set has only on a mismatch.
            gens = [p for p in group.strong_generators() if p not in moved_by]
            if connected:
                for p in gens:
                    if normalize_to_multiplier(cs, p) is None:
                        failures.append(SweepFailure(key, f"multiplier normalization failed for {p}"))
            steps = dict.fromkeys(g for g in [*(math.gcd(n, s) for s in elements), math.gcd(n, *elements)] if g > 1)
            for p in gens:
                for step in steps:
                    if not coset_image_check(cs, p, (step,)):
                        failures.append(SweepFailure(key, f"coset image check failed for {p} on {(step,)}"))
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

    orders = (groups[kind].order if kind in groups else None for kind in "BC")
    return (connected, partitions["B"].count, partitions["C"].count, *orders, len(units), verdict)


def _worker(spec: SweepSpec, stripe: list, conn) -> None:
    """A worker process: sends its stripe once, each block as ``_sweep_block`` swept it, or the exception raised."""
    try:
        message = [_sweep_block(spec, block) for block in stripe]
    except Exception as exc:
        message = exc
    conn.send(message)
    conn.close()


def _sweep(spec: SweepSpec, blocks: list) -> list:
    """The (field tuples, failures, rendered rows) of each of ``blocks``, in block order, swept in
    p = max(1, min(jobs, blocks, processor cores)) processes.

    Process i sweeps the stripe ``blocks[i::p]`` in order and renders each
    block's rows as it finishes the block: this one is process 0, and each
    worker is started with its stripe. The stripes are laid back into block
    order, which is report order, so nothing is sorted. A worker that ends
    without sending its rows, or part-way through, raises
    ResourceLimitError; an exception a worker sends is raised here. Any
    exception terminates every worker, and every worker is joined before
    this returns or raises.
    """
    processes = max(1, min(spec.jobs, len(blocks), os.cpu_count() or 1))
    swept: list = [None] * len(blocks)
    workers = []
    try:
        for i in range(1, processes):
            reader, writer = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(target=_worker, args=(spec, blocks[i::processes], writer))
            worker.start()
            workers.append((worker, reader))
            writer.close()  # so that the reader sees the end of a worker that dies before it sends
        swept[::processes] = [_sweep_block(spec, block) for block in blocks[::processes]]
        for i, (worker, reader) in enumerate(workers, start=1):
            try:
                message = reader.recv()
            except (EOFError, OSError):  # no message, or one cut off ("got end of file during message")
                worker.join()
                raise ResourceLimitError(
                    f"a sweep worker ended with exit code {worker.exitcode} before it sent its rows"
                ) from None
            if isinstance(message, Exception):
                raise message
            swept[i::processes] = message
        return swept
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, reader in workers:
            worker.join()
            reader.close()


def _aggregate(rows, failures) -> dict:
    verdicts = Counter(map(operator.attrgetter("verdict"), rows))
    return {
        "instances": len(rows),
        "connected": sum(map(operator.attrgetter("connected"), rows)),
        "match": verdicts["match"],
        "expected_mismatch": verdicts["expected-mismatch"],
        "mismatch": verdicts["mismatch"],
        "error": verdicts["error"],
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
    reports "expected-mismatch". The sweep runs in p = min(jobs, blocks,
    processor cores) processes, at least one: this one and p - 1 workers.
    Process i sweeps every p-th block from the i-th, in generation order,
    so one process sweeps them all in order and no object is shared (see
    ``_sweep``). Each process makes the rows of each block it sweeps as
    field tuples and renders their JSON (``_json_rows``), and each worker
    sends its blocks once, when its stripe is done, as those tuples and
    their text. A worker that ends without sending them, or part-way
    through, raises ResourceLimitError, and an exception in a worker's
    blocks is raised here. Each row becomes an ``InstanceResult`` once,
    here, in place, so each field tuple goes as its row is made.

    Sets are generated in report order (see ``generate_instances``), so the
    report is its blocks end to end, in block order, with no sort; the
    rendered blocks ride along in the report, and ``report_to_json`` only
    joins them.

    A sweep of more than the fixed ``MAX_SWEEP_ARCS`` arcs over all its
    sets (``_sweep_arcs``), counted before the connectivity filter, raises
    ResourceLimitError before any set or block is made. The ceiling bounds
    the sweep's time, and its rows too: no range under it has more than
    1,051,604 sets.
    """
    arcs = _sweep_arcs(spec)
    if arcs > MAX_SWEEP_ARCS:
        raise ResourceLimitError(f"the sweep has at least {arcs} arcs, more than the limit {MAX_SWEEP_ARCS}")
    swept = _sweep(spec, _blocks(spec))
    for block, _, _ in swept:  # in place, so that each field tuple goes once its row is made
        for i, values in enumerate(block):
            block[i] = InstanceResult(*values)
    rows = tuple(itertools.chain.from_iterable(block for block, _, _ in swept))
    failures = tuple(itertools.chain.from_iterable(failures for _, failures, _ in swept))
    report = VerificationReport(_spec_echo(spec), rows, _aggregate(rows, failures), failures)
    object.__setattr__(report, "_json_blocks", tuple(text for _, _, text in swept if text))
    return report


# A row as json.dumps(..., sort_keys=True, indent=2) writes it in the "instances" list, and its cells.
_JSON_ROW = "    {{\n" + ",\n".join(f"      {json.dumps(c.key)}: {{}}" for c in _JSON_COLUMNS) + "\n    }}"
_ROW_FIELDS = tuple(f.name for f in fields(InstanceResult))
_JSON_CELLS = tuple((c.json, operator.itemgetter(_ROW_FIELDS.index(c.field))) for c in _JSON_COLUMNS)
_row_fields = operator.attrgetter(*_ROW_FIELDS)


def _row_from_json(item: dict) -> InstanceResult:
    values = {c.field: item[c.key] for c in _JSON_COLUMNS}
    values["elements"] = tuple(values["elements"])
    return InstanceResult(**values)


def _json_rows(rows) -> str:
    """The sequence ``rows``, field tuples in ``InstanceResult`` order, as it stands in the "instances"
    list of ``report_to_json``, joined by ",\\n"; "" for none.

    The one rendering of rows: each sweep process renders its blocks with it, and ``_json_chunks`` any
    other report's rows. Each column's cells are made in one pass over the rows.
    """
    cells = [map(fmt, map(value, rows)) for fmt, value in _JSON_CELLS]
    return ",\n".join(map(_JSON_ROW.format, *cells))


def _json_chunks(report: VerificationReport):
    """``report_to_json``'s text in pieces: the sections before "instances", each block of rows apart,
    the separators, and the rest.

    The blocks are those ``verify_theorem`` rendered where it swept them; a report without them (built
    by hand, by ``load_report`` or by ``dataclasses.replace``) renders each row as its own piece. So no
    piece is longer than the other sections plus the longest block.
    """
    text = {
        key: json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        for key, value in (
            ("aggregates", report.aggregates),
            ("failures", [{"instance": f.instance, "message": f.message} for f in report.failures]),
            ("sweep", report.spec_echo),
        )
    }
    yield f'{{\n  "aggregates": {text["aggregates"]},\n  "failures": {text["failures"]},\n  "instances": ['
    blocks = report._json_blocks
    if blocks is None:
        blocks = (_json_rows((_row_fields(row),)) for row in report.instances)
    empty = True
    for block in blocks:
        yield "\n" if empty else ",\n"
        yield block
        empty = False
    yield ("]" if empty else "\n  ]") + f',\n  "sweep": {text["sweep"]}\n}}\n'


def report_to_json(report: VerificationReport) -> str:
    """Byte-stable JSON rendering; timings are deliberately not included.

    Byte for byte ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` of the sweep echo, the
    aggregates, the rows and the failures, as the join of ``_json_chunks``. ``indent`` selects the
    pure-Python encoder, so the rows, nearly all of the text, are written from the row schema by
    ``_json_rows``, in the sweep's processes for a report from ``verify_theorem``; the rest goes
    through ``json.dumps``, indented one level deeper.
    """
    return "".join(_json_chunks(report))


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
    """Write the report as ``json`` or ``csv``; identical reports give identical bytes.

    JSON is written piece by piece from ``_json_chunks``, the pieces ``report_to_json`` joins, so no
    text of the whole report is made. The text goes to a new file beside ``destination``, which then
    replaces it, so an export that fails leaves no partial report and any earlier one as it was.
    """
    if fmt == "json":
        chunks = _json_chunks(report)
    elif fmt == "csv":
        chunks = (report_to_csv(report),)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    destination = Path(destination)
    partial = destination.with_name(f".{destination.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", encoding="utf-8") as out:
            for chunk in chunks:
                out.write(chunk)
        os.replace(partial, destination)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
