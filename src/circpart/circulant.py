"""Circulant graphs and digraphs, with their two canonical edge partitions.

``Circ(n; S)`` has vertex set Z_n and an arc from g to g+s for every g and
every s in the connection set S. Kind "B" groups arcs by the generator that
produced them; kind "C" refines "B" by splitting each generator class along
the cosets of the cyclic subgroup that generator spans, so every part of "C"
is the arc set of one monochromatic cycle. Both follow from S alone and are
stored as one part label per arc.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .zmod import multipliers

DIRECTED = "directed"
UNDIRECTED = "undirected"

PARTITION_KINDS = ("B", "C")
# Largest n*|S| that a ``ConnectionSet`` accepts. Under tracemalloc at this limit, ``build`` itself
# allocates no arc (under 15 kB), both ``arc_partition`` calls peak at 16-50 bytes per arc (the labels),
# a first read of the shared ``slot`` table adds at most 17 bytes per vertex, and a first read of
# ``arcs``/``arc_set``, which only the oracle makes, raises the peak to 190-215 bytes per arc, so at most
# 22 MB. The search plan is built only under the search's vertex cap, at most 181 bytes per arc (0.73 MB).
MAX_ARCS = 100_000


class InvalidInstanceError(ValueError):
    """Raised for malformed connection sets or instance strings."""


class ResourceLimitError(RuntimeError):
    """Raised when a build, search or listing would exceed its size or solution cap."""


@dataclass(frozen=True)
class ConnectionSet:
    """Circ(n; S): the pair (n, S), in directed or undirected mode, is the graph.

    Its arcs (g, g+s), built on first read as a sorted tuple and as a set,
    hold an undirected edge as its two opposite arcs; only the oracle reads
    them. ``slot[d]`` is k for d = s_k, the k-th element of S, and -1 for d
    not in S; ``multipliers`` is M(S), the units j with j*S = S. They and
    ``_search_plan``, the search's tables, are built on first read from n
    and S alone and shared by both partitions. A set of more than
    ``MAX_ARCS`` arcs is refused before any arc is built.
    """

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
        arc_count = self.n * len(self.elements)
        if arc_count > MAX_ARCS:
            raise ResourceLimitError(f"Circ({self.n}; S) would have {arc_count} arcs, more than the limit {MAX_ARCS}")

    @property
    def directed(self) -> bool:
        return self.mode == DIRECTED

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        n = self.n
        return tuple(sorted((g, (g + s) % n) for s in self.elements for g in range(n)))

    @cached_property
    def arc_set(self) -> frozenset:
        return frozenset(self.arcs)

    @cached_property
    def slot(self) -> tuple[int, ...]:
        index = {s: k for k, s in enumerate(self.elements)}
        return tuple(map(index.get, range(self.n), [-1] * self.n))

    @cached_property
    def multipliers(self) -> tuple[int, ...]:
        return multipliers(self.n, self.elements)

    @cached_property
    def _search_plan(self) -> tuple:
        """The search's tables, never modified; the arc (u, u+s_k) is named by its index u*|S|+k.

        * ``order``: the cycle-first order, which is also the base, built by one walk from 0 (then
          from the least vertex of each later component). Visiting u walks u+s, u+2s, ... for each s
          of S in ascending order until the walk meets a placed vertex, so every generator's cycle is
          laid out before the search branches off it, and the forward walks alone reach every vertex
          of a component;
        * ``outs[u]``: u's out-neighbours, ascending, as (v, index);
        * ``back[d]``: the arcs between ``order[d]`` and earlier vertices, as (other end, index,
          whether the arc leaves ``order[d]``); each arc once when directed, each edge once, by its
          arc leaving ``order[d]``, when undirected (both arcs of an edge share a part);
        * ``parent_arcs[u]``: the index of the arc by which the walk placed u, from the previous
          vertex on its cycle, u's parent (None for a root);
        * ``lone[d]``: whether the arc that placed ``order[d]``, by s, is the only arc of its generator
          class from the parent into ``order[d:]``: always when directed, and when undirected if the
          class's other arc, to parent - s, ends above d or at ``order[d]`` (False for a root);
        * ``shortcuts[d]``: each image x of ``order[d]`` under a multiplier j != 1 that fixes
          ``order[:d]``, mapped to one such j; the table stops at the first depth with no such j left.
        """
        n, elements, width = self.n, self.elements, len(self.elements)
        order: list[int] = []
        depth: list = [None] * n  # depth[u]: u's place in the order
        parent_arcs: list = [None] * n
        for root in range(n):
            if depth[root] is None:  # the least vertex of a component not yet walked
                visit = depth[root] = len(order)
                order.append(root)
                while visit < len(order):  # visit each vertex in the order it was placed
                    u, visit = order[visit], visit + 1
                    for k, s in enumerate(elements):
                        prev, w = u, (u + s) % n
                        while depth[w] is None:
                            depth[w], parent_arcs[w] = len(order), prev * width + k
                            order.append(w)
                            prev, w = w, (w + s) % n
        pairs, directed = list(zip(elements, range(width))), self.directed
        lone = [False] * n
        for d, u in enumerate(order):
            if (arc := parent_arcs[u]) is not None:
                w = (arc // width - elements[arc % width]) % n
                lone[d] = directed or depth[w] < d or w == u
        outs: list[list] = []
        back: list[list] = [[] for _ in range(n)]
        for u in range(n):  # out-neighbours ascending: the s with u + s >= n wrap round to the front
            i, first, du = bisect.bisect_left(elements, n - u), u * width, depth[u]
            outs.append([(u + s - n, first + k) for s, k in pairs[i:]] + [(u + s, first + k) for s, k in pairs[:i]])
            for v, a in outs[u]:  # each arc goes to the level of its later end
                if depth[v] < du:
                    back[du].append((v, a, True))
                elif directed:  # undirected, the edge goes there as the opposite arc, which leaves v
                    back[depth[v]].append((u, a, False))
        shortcuts: list[dict] = []
        units = [j for j in self.multipliers if j != 1]
        while units:
            u = order[len(shortcuts)]
            shortcuts.append(table := {})
            for j in units:
                table.setdefault(j * u % n, j)
            units = [j for j in units if j * u % n == u]
        return order, outs, back, parent_arcs, lone, shortcuts


def build(n: int, elements, mode: str) -> ConnectionSet:
    """Circ(n; S) from S in any order, with duplicates dropped."""
    return ConnectionSet(n, tuple(sorted(set(elements))), mode)


def is_connected(graph: ConnectionSet) -> bool:
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


def instance_key(cs: ConnectionSet) -> str:
    """Canonical one-line form, e.g. ``8:1,2:d``."""
    return f"{cs.n}:{','.join(str(s) for s in cs.elements)}:{'d' if cs.directed else 'u'}"


def _check_kind(kind: str) -> None:
    if kind not in PARTITION_KINDS:
        raise ValueError(f"kind must be one of {PARTITION_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class ArcPartition:
    """A partition of the arcs of Circ(n; S), stored as one label per arc.

    ``labels[u*|S| + k]`` is the part of arc (u, u+s_k), for s_k the k-th
    element of the ascending S; ``count`` parts are labelled by the ints 0 to
    count-1, each label used, and ``sizes`` counts each part's arcs.
    ``within_classes`` is true when each part lies inside one generator
    class, {s} when directed and {s, n-s} when undirected. A partition made
    by hand works out all three in one pass over its labels, and refuses
    with ValueError labels of another length, type or numbering;
    ``arc_partition`` knows them from its classes and skips the pass.
    ``period``, read on first use, is the least P dividing n such that the
    labels are their first P*|S| repeated: the labels of the arcs of u depend
    on u mod P only. The storage is internal: ``parts()`` gives each part as
    arcs and metadata.
    """

    kind: str
    cs: ConnectionSet
    labels: tuple[int, ...]
    count: int = field(init=False, repr=False, compare=False)
    sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    within_classes: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_kind(self.kind)
        n, elements = self.cs.n, self.cs.elements
        classes = [s if self.cs.directed else min(s, n - s) for s in elements] * n  # each arc's class
        shares, sizes = Counter(zip(self.labels, classes)), Counter()  # each part's arcs in each class
        for (label, _), size in shares.items():
            sizes[label] += size
        arcs = n * len(elements)
        numbered = all(type(label) is int for label in sizes) and sorted(sizes) == list(range(len(sizes)))
        if len(self.labels) != arcs or not numbered:
            raise ValueError(f"need {arcs} int labels, one per arc, numbered 0 to count-1 with each used")
        object.__setattr__(self, "count", len(sizes))
        object.__setattr__(self, "sizes", tuple(map(sizes.__getitem__, range(len(sizes)))))
        object.__setattr__(self, "within_classes", len(shares) == len(sizes))

    @classmethod
    def _counted(cls, kind: str, cs: ConnectionSet, labels: tuple[int, ...], sizes: tuple[int, ...]) -> ArcPartition:
        """The partition with the part sizes its builder counted, its parts inside classes, made without
        ``__post_init__``'s pass."""
        partition = cls.__new__(cls)
        vars(partition).update(kind=kind, cs=cs, labels=labels, count=len(sizes), sizes=sizes, within_classes=True)
        return partition

    @cached_property
    def period(self) -> int:  # read off the labels, whatever built them
        n, width, labels = self.cs.n, len(self.cs.elements), self.labels
        return next(p for p in range(1, n + 1) if n % p == 0 and labels[: p * width] * (n // p) == labels)

    def parts(self) -> tuple:
        """Each part, by label, as (sorted arcs, generators, coset): the s with
        an arc (u, u+s) in the part, and its least vertex for kind "C" (None for
        kind "B"). An undirected part holds both arcs of each of its edges.
        """
        n, elements = self.cs.n, self.cs.elements
        arcs: list[list] = [[] for _ in range(self.count)]
        for a, label in enumerate(self.labels):
            u, k = divmod(a, len(elements))
            arcs[label].append((u, (u + elements[k]) % n))
        return tuple(
            (tuple(part), tuple(sorted({(v - u) % n for u, v in part})), part[0][0] if self.kind == "C" else None)
            for part in map(sorted, arcs)
        )


def arc_partition(graph: ConnectionSet, kind: str) -> ArcPartition:
    """Build the kind "B" or kind "C" partition of the graph's arcs.

    The generators fall into classes, {s} in directed mode and {s, n-s} in
    undirected mode, numbered by least member. Kind "B" labels the arc
    (u, u+s) with the number of s's class. Kind "C" gives each class
    gcd(n, s) consecutive labels, one per coset of the subgroup s spans, and
    labels the arc with the class's first label plus u mod gcd(n, s), so
    each part is one monochromatic cycle (a lone edge for an order-2
    generator in undirected mode) and a kind "B" part is the union of its
    class's kind "C" parts. Parts are ordered by least generator, then coset.
    A class of step g has g parts, each of n/g arcs per member of the class,
    so the part sizes are known without reading the labels.
    """
    _check_kind(kind)
    n = graph.n
    first: dict[int, int] = {}  # least member of a class -> its first label
    offsets, steps, sizes = [], [], []
    for s in graph.elements:  # ascending, so a class is met first at its least member
        step = 1 if kind == "B" else math.gcd(n, s)  # the same for s and n-s
        least = s if graph.directed else min(s, n - s)
        if least not in first:
            first[least] = len(sizes)
            members = 1 if graph.directed or 2 * s == n else 2
            sizes += [members * n // step] * step
        offsets.append(first[least])
        steps.append(step)
    period = math.lcm(*steps)  # divides n; the labels of vertex u depend on u mod period only
    labels = [offset + u % step for u in range(period) for offset, step in zip(offsets, steps)]
    return ArcPartition._counted(kind, graph, tuple(labels) * (n // period), tuple(sizes))


def partition_by_generator(graph: ConnectionSet) -> ArcPartition:
    """Kind "B": arcs grouped by the generator that produced them."""
    return arc_partition(graph, "B")


def partition_by_cycle(graph: ConnectionSet) -> ArcPartition:
    """Kind "C": one part per monochromatic cycle; refines kind "B"."""
    return arc_partition(graph, "C")

