"""Shared strategies and independent oracles for the test suite."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

import circpart as cp


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


def naive_respects(graph, partition, p):
    """Literal definition: the image of the family of parts equals the family."""
    def image(a):
        u, v = p[a[0]], p[a[1]]
        if graph.directed or u < v:
            return (u, v)
        return (v, u)

    parts = {frozenset(part.arcs) for part in partition.parts}
    return {frozenset(image(a) for a in part.arcs) for part in partition.parts} == parts


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
