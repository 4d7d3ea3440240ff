"""Circulant graphs and digraphs, with their two canonical edge partitions.

``Circ(n; S)`` has vertex set Z_n and an arc from g to g+s for every g and
every s in the connection set S. Kind "B" groups arcs by the generator that
produced them; kind "C" refines "B" by splitting each generator class along
the cosets of the cyclic subgroup that generator spans, so every part of "C"
is the arc set of one monochromatic cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DIRECTED = "directed"
UNDIRECTED = "undirected"

PARTITION_KINDS = ("B", "C")
# Largest n*|S| that ``build`` materializes; at about 300 bytes per arc
# (the arc tuple, its sorted copy and the frozenset) that is some 30 MB.
MAX_ARCS = 100_000


class InvalidInstanceError(ValueError):
    """Raised for malformed connection sets or instance strings."""


class ResourceLimitError(RuntimeError):
    """Raised when a build, search or listing would exceed its size or solution cap."""


@dataclass(frozen=True)
class ConnectionSet:
    """The pair (n, S) defining Circ(n; S), in directed or undirected mode."""

    n: int
    elements: tuple[int, ...]
    mode: str

    def __post_init__(self):
        if self.mode not in (DIRECTED, UNDIRECTED):
            raise InvalidInstanceError(f"unknown mode {self.mode!r}")
        if self.n < 2:
            raise InvalidInstanceError(f"need n >= 2, got n={self.n}")
        if not self.elements:
            raise InvalidInstanceError("connection set must be nonempty")
        if list(self.elements) != sorted(set(self.elements)):
            raise InvalidInstanceError("elements must be strictly ascending without duplicates")
        for s in self.elements:
            if not 1 <= s <= self.n - 1:
                raise InvalidInstanceError(f"element {s} outside 1..{self.n - 1}")
        if self.mode == UNDIRECTED:
            members = set(self.elements)
            missing = sorted(s for s in self.elements if self.n - s not in members)
            if missing:
                raise InvalidInstanceError(
                    f"undirected connection set must contain n-s for every s; missing inverses of {missing}"
                )

    @property
    def directed(self) -> bool:
        return self.mode == DIRECTED


@dataclass(frozen=True)
class CirculantGraph:
    """Circ(n; S) with its arcs precomputed, as a sorted tuple and as a set.

    Both modes store every arc (g, g+s), so an undirected edge is its two
    opposite arcs.
    """

    cs: ConnectionSet
    arcs: tuple[tuple[int, int], ...]
    arc_set: frozenset

    @property
    def n(self) -> int:
        return self.cs.n

    @property
    def elements(self) -> tuple[int, ...]:
        return self.cs.elements

    @property
    def mode(self) -> str:
        return self.cs.mode

    @property
    def directed(self) -> bool:
        return self.cs.directed


def build(n: int, elements, mode: str) -> CirculantGraph:
    """Construct and validate Circ(n; S) for the given mode.

    Refuses, before any arc is built, a graph of more than ``MAX_ARCS`` arcs.
    """
    cs = ConnectionSet(n, tuple(sorted(set(elements))), mode)
    arc_count = n * len(cs.elements)
    if arc_count > MAX_ARCS:
        raise ResourceLimitError(f"Circ({n}; S) would have {arc_count} arcs, more than the limit {MAX_ARCS}")
    arcs = tuple(sorted((g, (g + s) % n) for s in cs.elements for g in range(n)))
    return CirculantGraph(cs, arcs, frozenset(arcs))


def is_connected(graph: CirculantGraph) -> bool:
    """True iff the connection set generates all of Z_n, i.e. gcd(n, S) = 1."""
    return math.gcd(graph.n, *graph.elements) == 1


def parse_instance(text: str) -> ConnectionSet:
    """Parse ``n:s1,s2,...`` with optional ``:d`` or ``:u`` mode suffix.

    Whitespace-insensitive; elements may appear in any order. Without a
    suffix the mode is inferred: undirected when S is inverse-closed,
    directed otherwise.
    """
    fields = [f.strip() for f in text.strip().split(":")]
    if len(fields) not in (2, 3):
        raise InvalidInstanceError(f"expected 'n:s1,s2,...[:d|:u]', got {text!r}")
    try:
        n = int(fields[0])
        members = {int(tok) for tok in fields[1].split(",") if tok.strip()}
        elements = tuple(sorted(members))
    except ValueError as exc:
        raise InvalidInstanceError(f"malformed instance {text!r}: {exc}") from None
    if len(fields) == 3:
        tag = fields[2].lower()
        if tag == "d":
            mode = DIRECTED
        elif tag == "u":
            mode = UNDIRECTED
        else:
            raise InvalidInstanceError(f"mode suffix must be 'd' or 'u', got {fields[2]!r}")
    else:
        inverse_closed = all(1 <= s <= n - 1 and n - s in members for s in elements) if n >= 2 else False
        mode = UNDIRECTED if inverse_closed else DIRECTED
    return ConnectionSet(n, elements, mode)


def from_instance(text: str) -> CirculantGraph:
    cs = parse_instance(text)
    return build(cs.n, cs.elements, cs.mode)


def instance_key(cs: ConnectionSet) -> str:
    """Canonical one-line form, e.g. ``8:1,2:d``."""
    return f"{cs.n}:{','.join(str(s) for s in cs.elements)}:{'d' if cs.directed else 'u'}"


@dataclass(frozen=True, eq=False)
class Part:
    """One cell of an arc partition.

    Identity is the frozen sorted arc list alone; the generator and coset
    metadata are informational and never split parts with equal arc sets.
    An undirected part holds both arcs of each of its edges.
    """

    arcs: tuple[tuple[int, int], ...]
    generators: tuple[int, ...]
    coset_rep: int | None = None

    def __eq__(self, other):
        return isinstance(other, Part) and self.arcs == other.arcs

    def __hash__(self):
        return hash(self.arcs)

    def __len__(self):
        return len(self.arcs)


@dataclass(frozen=True)
class ArcPartition:
    """A partition of the full arc set of a circulant graph."""

    kind: str
    n: int
    parts: tuple[Part, ...]

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise ValueError(f"kind must be one of {PARTITION_KINDS}, got {self.kind!r}")
        universe = frozenset(a for part in self.parts for a in part.arcs)
        if sum(len(part.arcs) for part in self.parts) != len(universe):
            raise ValueError("parts must be pairwise disjoint")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_keys", frozenset(frozenset(part.arcs) for part in self.parts))

    def part_keys(self) -> frozenset:
        """Frozen arc sets of all parts, for O(1) membership tests."""
        return self._keys


def arc_partition(graph: CirculantGraph, kind: str) -> ArcPartition:
    """Build the kind "B" or kind "C" partition of the graph's arcs.

    For each generator s the arcs x -> x+s are taken one coset of a step at
    a time: kind "B" uses step 1, so all of s's arcs form one part, and kind
    "C" uses step gcd(n, s), the number of cosets of the subgroup s spans, so
    each part is one monochromatic cycle (a lone edge for an order-2
    generator in undirected mode). A kind "B" part is thus the union of one
    generator's kind "C" parts. In undirected mode a coset's arcs are taken
    for both s and n-s, so s and n-s yield one merged part that records both
    generators. Parts are ordered by first generator, then coset.
    """
    if kind not in PARTITION_KINDS:
        raise ValueError(f"kind must be one of {PARTITION_KINDS}, got {kind!r}")
    n = graph.n
    groups: dict[tuple, tuple[list[int], int]] = {}
    for s in graph.elements:
        step = 1 if kind == "B" else math.gcd(n, s)
        shifts = (s,) if graph.directed else (s, n - s)
        for rep in range(step):
            arcs = tuple(sorted({(x, (x + t) % n) for x in range(rep, n, step) for t in shifts}))
            entry = groups.setdefault(arcs, ([], rep))
            entry[0].append(s)
    parts = tuple(
        Part(arcs, tuple(gens), rep if kind == "C" else None)
        for arcs, (gens, rep) in sorted(groups.items(), key=lambda kv: (kv[1][0][0], kv[1][1]))
    )
    return ArcPartition(kind, n, parts)


def partition_by_generator(graph: CirculantGraph) -> ArcPartition:
    """Kind "B": arcs grouped by the generator that produced them."""
    return arc_partition(graph, "B")


def partition_by_cycle(graph: CirculantGraph) -> ArcPartition:
    """Kind "C": one part per monochromatic cycle; refines kind "B"."""
    return arc_partition(graph, "C")

