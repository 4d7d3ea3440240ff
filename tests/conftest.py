"""Shared strategies and independent oracles for the test suite."""

from __future__ import annotations

import functools
import itertools
import math
from unittest import mock

from hypothesis import strategies as st

import circpart as cp
from circpart import solver


def identity(n):
    return tuple(range(n))


def compose(p, q):
    """The permutation v -> p(q(v)); q acts first."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[q[v]] for v in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for v, w in enumerate(p):
        out[w] = v
    return tuple(out)


def order_mod(n, s):
    """Additive order of s in Z_n; the order of 0 is 1."""
    if n < 1 or not 0 <= s < n:
        raise ValueError(f"residue {s} outside 0..{n - 1}")
    return n // math.gcd(n, s)


def parts_by_definition(graph, kind):
    """The parts of the kind "B" or "C" partition, straight from the definitions.

    Kind B groups the arcs (u, u+s) by the class {s, n-s} of s ({s} alone when
    directed); kind C splits each class into its cycles u, u+s, u+2s, ...
    Returns (sorted arcs, generators, least vertex of the cycle or None)
    triples, ordered by least generator, then least vertex. Reads only
    ``n``, ``elements`` and ``directed``, so a ConnectionSet serves too.
    """
    n = graph.n
    classes = sorted({(s,) if graph.directed else tuple(sorted({s, n - s})) for s in graph.elements})
    parts = []
    for cls in classes:
        arcs = {(u, (u + t) % n) for t in cls for u in range(n)}
        if kind == "B":
            parts.append((tuple(sorted(arcs)), cls, None))
            continue
        seen = set()
        for start in range(n):
            if start in seen:
                continue
            cycle = {start}
            x = (start + cls[0]) % n
            while x != start:
                cycle.add(x)
                x = (x + cls[0]) % n
            seen |= cycle
            parts.append((tuple(sorted(a for a in arcs if a[0] in cycle)), cls, start))
    return tuple(parts)


@functools.lru_cache(maxsize=None)
def _definition_family(cs, kind):
    return frozenset(frozenset(arcs) for arcs, _, _ in parts_by_definition(cs, kind))


def refines(fine, coarse):
    """True iff every part of ``fine`` lies inside a single part of ``coarse``.

    Both are sequences of (arcs, generators, coset) triples, as
    ``parts_by_definition`` and ``ArcPartition.parts`` give them.
    """
    owner = {a: i for i, (arcs, _, _) in enumerate(coarse) for a in arcs}
    if owner.keys() != {a for arcs, _, _ in fine for a in arcs}:
        raise ValueError("partitions cover different arc sets")
    return all(len({owner[a] for a in arcs}) == 1 for arcs, _, _ in fine)


def bfs_reachable(graph):
    """Vertices reachable from 0 treating every arc as traversable both ways."""
    n = graph.n
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for s in graph.elements:
            for w in ((u + s) % n, (u - s) % n):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen


def naive_respects(partition, p):
    """Literal definition: the image of the family of parts equals the family.

    The parts are those of ``parts_by_definition`` for the partition's
    connection set and kind. An arc (u, v) maps to (p[u], p[v]); undirected
    parts hold both arcs of each edge.
    """
    family = _definition_family(partition.cs, partition.kind)
    return {frozenset((p[u], p[v]) for u, v in part) for part in family} == family


def all_perms_fixing_zero(n):
    for rest in itertools.permutations(range(1, n)):
        yield (0,) + rest


def directed_subsets(n):
    pool = range(1, n)
    for size in range(1, n):
        yield from itertools.combinations(pool, size)


def inverse_closed_subsets(n):
    reps = range(1, n // 2 + 1)
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(reps, size):
            elems = set()
            for s in combo:
                elems.add(s)
                elems.add(n - s)
            yield tuple(sorted(elems))


def random_partitions(g, rng):
    """Arc partitions of ``g`` beyond B and C, every label used: free labels,
    equal-size parts (shuffled, and by vertex residue) and unions of C parts."""

    def onto(m, count):  # m labels in random order, each of 0..count-1 used
        labels = list(range(count)) + [rng.randrange(count) for _ in range(m - count)]
        rng.shuffle(labels)
        return labels

    width = len(g.elements)
    m = g.n * width
    size = rng.choice([d for d in range(1, m + 1) if m % d == 0])
    equal = [i // size for i in range(m)]
    rng.shuffle(equal)
    modulus = rng.randint(1, g.n)  # arc (u, u+s_k) gets (u + k) mod modulus, every residue met at k = 0
    by_residue = [(a // width + a % width) % modulus for a in range(m)]
    c = cp.arc_partition(g, "C")
    merge = onto(c.count, rng.randint(1, c.count))
    unions = [merge[label] for label in c.labels]
    free = onto(m, rng.randint(1, m))
    return [cp.ArcPartition(rng.choice("BC"), g, tuple(labels)) for labels in (free, equal, by_residue, unions)]


@st.composite
def connection_sets(draw, min_n=2, max_n=16, modes=(cp.DIRECTED, cp.UNDIRECTED), max_size=6):
    n = draw(st.integers(min_n, max_n))
    mode = draw(st.sampled_from(modes))
    elems = set(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=min(max_size, n - 1))))
    if mode == cp.UNDIRECTED:
        elems |= {n - s for s in elems}
    return cp.ConnectionSet(n, tuple(sorted(elems)), mode)


@st.composite
def graphs(draw, **kwargs):
    cs = draw(connection_sets(**kwargs))
    return cp.build(cs.n, cs.elements, cs.mode)


def failing_at_n5(monkeypatch):
    """Make a sweep's propagation raise ValueError("boom") on every n=5 instance."""
    import circpart.harness as harness

    propagate = harness.propagation_closure

    def boom(n, gens):
        if n == 5:
            raise ValueError("boom")
        return propagate(n, gens)

    monkeypatch.setattr(harness, "propagation_closure", boom)


def search_cap(n):
    """Context manager that raises the solver's vertex cap to ``n`` inside its block.

    A patch rather than a function-scoped fixture, so Hypothesis tests can use it too.
    """
    return mock.patch.object(solver, "DEFAULT_SEARCH_CAP", n)


def solution_cap(n):
    """Context manager that sets the solver's listing cap to ``n`` inside its block."""
    return mock.patch.object(solver, "DEFAULT_MAX_SOLUTIONS", n)
