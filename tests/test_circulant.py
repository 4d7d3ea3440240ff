import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings

import circpart as cp
from conftest import bfs_reachable, graphs, order_mod, refines


def edge_enumeration_oracle(n, elements):
    """Each edge {g, g+s} as its two ordered pairs, deduplicated, by direct enumeration."""
    return sorted({pair for g in range(n) for s in elements for pair in ((g, (g + s) % n), ((g + s) % n, g))})


def test_build_directed_arc_count():
    g = cp.build(8, (1, 2), cp.DIRECTED)
    assert len(g.arcs) == 16
    assert all((v - u) % 8 in (1, 2) for u, v in g.arcs)


def test_build_order_two_generator():
    g = cp.build(4, (2,), cp.UNDIRECTED)
    assert g.arcs == ((0, 2), (1, 3), (2, 0), (3, 1))


def test_build_undirected_deduplicates():
    oracle = edge_enumeration_oracle(6, (2, 3, 4))
    assert len(oracle) == 18
    g = cp.build(6, (2, 3, 4), cp.UNDIRECTED)
    assert list(g.arcs) == oracle


def test_build_rejects_bad_sets():
    with pytest.raises(cp.InvalidInstanceError):
        cp.build(8, (0, 1), cp.DIRECTED)
    with pytest.raises(cp.InvalidInstanceError):
        cp.build(8, (8,), cp.DIRECTED)
    with pytest.raises(cp.InvalidInstanceError):
        cp.build(8, (), cp.DIRECTED)
    with pytest.raises(cp.InvalidInstanceError):
        cp.build(8, (1, 2), cp.UNDIRECTED)  # not inverse-closed
    with pytest.raises(cp.InvalidInstanceError):
        cp.build(1, (1,), cp.DIRECTED)
    with pytest.raises(cp.InvalidInstanceError):
        cp.build(8, (1,), "mixed")


def test_build_is_refused_above_the_arc_limit_before_any_arc_is_built(monkeypatch):
    assert cp.circulant.MAX_ARCS >= 1200 * 2  # Circ(1200; {1, 1199}) is searched in test_solver
    monkeypatch.setattr(cp.circulant, "MAX_ARCS", 12)
    assert len(cp.build(6, (1, 5), cp.UNDIRECTED).arcs) == 12
    tracemalloc.start()
    try:
        with pytest.raises(cp.ResourceLimitError, match="20000 arcs, more than the limit 12"):
            cp.build(10_000, (1, 9_999), cp.UNDIRECTED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the 20,000 arcs would take megabytes


def test_a_large_inverse_closed_set_is_refused_quickly():
    # 40,000 elements: an inverse-closure test quadratic in |S| takes tens of seconds on this set
    elements = [*range(1, 20_001), *range(180_000, 200_000)]
    text = f"200000:{','.join(map(str, elements))}"
    started = time.perf_counter()
    with pytest.raises(cp.ResourceLimitError, match="more than the limit"):
        cp.build(200_000, elements, cp.UNDIRECTED)
    with pytest.raises(cp.ResourceLimitError, match="more than the limit"):
        cp.from_instance(text)  # no suffix: parse_instance tests inverse closure to infer the mode
    assert time.perf_counter() - started < 2


def test_parse_instance_forms():
    cs = cp.parse_instance("8:1,2:d")
    assert (cs.n, cs.elements, cs.mode) == (8, (1, 2), cp.DIRECTED)
    cs = cp.parse_instance(" 8 : 2 , 1 : d ")
    assert cs.elements == (1, 2)
    cs = cp.parse_instance("5:4,1:u")
    assert cs.mode == cp.UNDIRECTED
    # without a suffix, inverse-closed sets read as undirected
    assert cp.parse_instance("5:1,4").mode == cp.UNDIRECTED
    assert cp.parse_instance("8:1,2").mode == cp.DIRECTED
    assert cp.parse_instance("4:2").mode == cp.UNDIRECTED


def test_parse_instance_rejects_garbage():
    for bad in ("8", "8:1:x", "8:one,two", "8:1,2:d:u", ""):
        with pytest.raises(cp.InvalidInstanceError):
            cp.parse_instance(bad)


def test_instance_key_round_trip():
    for text in ("8:1,2:d", "6:2,3,4:u", "12:3,4:d"):
        cs = cp.parse_instance(text)
        assert cp.parse_instance(cp.instance_key(cs)) == cs


@pytest.mark.parametrize(
    "text, expected",
    [("8:1,2:d", True), ("6:2,4:u", False), ("12:4,3:d", True)],
)
def test_is_connected_small(text, expected):
    graph = cp.from_instance(text)
    assert cp.is_connected(graph) is expected
    assert (len(bfs_reachable(graph)) == graph.n) is expected


def test_is_connected_agrees_with_bfs_on_random_instances():
    rng = random.Random(0xC1BC)
    for _ in range(1000):
        n = rng.randint(2, 100)
        size = rng.randint(1, min(8, n - 1))
        elements = tuple(sorted(rng.sample(range(1, n), size)))
        graph = cp.build(n, elements, cp.DIRECTED)
        assert cp.is_connected(graph) == (len(bfs_reachable(graph)) == n)


def test_generator_partition_directed():
    g = cp.from_instance("8:1,2:d")
    b = cp.partition_by_generator(g)
    assert b.kind == "B"
    assert [len(p) for p in b.parts] == [8, 8]
    assert [p.generators for p in b.parts] == [(1,), (2,)]


def test_generator_partition_merges_inverse_pairs():
    g = cp.build(5, (1, 4), cp.UNDIRECTED)
    b = cp.partition_by_generator(g)
    assert len(b.parts) == 1
    assert len(b.parts[0]) == 10
    assert b.parts[0].generators == (1, 4)

    g = cp.build(6, (2, 3, 4), cp.UNDIRECTED)
    b = cp.partition_by_generator(g)
    assert sorted(len(p) for p in b.parts) == [6, 12]
    assert {p.generators for p in b.parts} == {(2, 4), (3,)}


def test_cycle_partition_directed():
    g = cp.from_instance("8:1,2:d")
    c = cp.partition_by_cycle(g)
    assert sorted(len(p) for p in c.parts) == [4, 4, 8]
    # each part is one cycle: following its arcs from any vertex walks the whole part
    for part in c.parts:
        succ = dict(part.arcs)
        x = part.arcs[0][0]
        seen = set()
        while x not in seen:
            seen.add(x)
            x = succ[x]
        assert len(seen) == len(part)


def test_cycle_partition_order_two_generator():
    g = cp.build(4, (2,), cp.UNDIRECTED)
    c = cp.partition_by_cycle(g)
    assert [p.arcs for p in c.parts] == [((0, 2), (2, 0)), ((1, 3), (3, 1))]
    assert [p.coset_rep for p in c.parts] == [0, 1]


def test_cycle_partition_mixed_orders():
    g = cp.build(6, (2, 3, 4), cp.UNDIRECTED)
    c = cp.partition_by_cycle(g)
    assert sorted(len(p) for p in c.parts) == [2, 2, 2, 6, 6]
    triangles = [p for p in c.parts if len(p) == 6]
    assert {frozenset(v for a in p.arcs for v in a) for p in triangles} == {
        frozenset({0, 2, 4}),
        frozenset({1, 3, 5}),
    }


def test_refines_examples():
    g = cp.from_instance("8:1,2:d")
    b = cp.partition_by_generator(g)
    c = cp.partition_by_cycle(g)
    assert refines(c, b) is True
    assert refines(b, c) is False
    assert refines(b, b) is True


def test_refines_rejects_mismatched_universes():
    b1 = cp.partition_by_generator(cp.from_instance("8:1,2:d"))
    b2 = cp.partition_by_generator(cp.from_instance("8:1,3:d"))
    with pytest.raises(ValueError):
        refines(b1, b2)


def test_part_identity_ignores_metadata():
    arcs = ((0, 1), (1, 2))
    assert cp.Part(arcs, (1,)) == cp.Part(arcs, (7,), coset_rep=3)
    assert hash(cp.Part(arcs, (1,))) == hash(cp.Part(arcs, (7,), coset_rep=3))
    assert cp.Part(arcs, (1,)) != cp.Part(((0, 1),), (1,))


def test_partition_rejects_overlapping_parts():
    with pytest.raises(ValueError):
        cp.ArcPartition("B", 3, (cp.Part(((0, 1),), (1,)), cp.Part(((0, 1), (1, 2)), (1,))))


@given(graphs())
@settings(max_examples=200)
def test_partitions_cover_exactly_and_refine(graph):
    b = cp.partition_by_generator(graph)
    c = cp.partition_by_cycle(graph)
    assert b.universe == graph.arc_set
    assert c.universe == graph.arc_set
    assert sum(len(p) for p in b.parts) == len(graph.arcs)
    assert sum(len(p) for p in c.parts) == len(graph.arcs)
    assert refines(c, b)
    assert len(graph.arcs) == graph.n * len(graph.elements)
    if not graph.directed:
        # an undirected edge is stored as its two opposite arcs, inside one part
        for arcs in [graph.arc_set] + [frozenset(p.arcs) for p in b.parts + c.parts]:
            assert {(v, u) for u, v in arcs} == arcs


@given(graphs(modes=(cp.DIRECTED,)))
@settings(max_examples=150)
def test_directed_cycle_partition_counts(graph):
    n = graph.n
    c = cp.partition_by_cycle(graph)
    assert len(c.parts) == sum(math.gcd(n, s) for s in graph.elements)
    sizes = {}
    for part in c.parts:
        for s in part.generators:
            sizes.setdefault(s, []).append(len(part))
    for s, lens in sizes.items():
        assert set(lens) == {order_mod(n, s)}


@given(graphs(modes=(cp.UNDIRECTED,)))
@settings(max_examples=150)
def test_undirected_partitions_share_inverse_generators(graph):
    n = graph.n
    for partition in (cp.partition_by_generator(graph), cp.partition_by_cycle(graph)):
        for part in partition.parts:
            gens = set(part.generators)
            # s and n-s always land in the same merged part
            assert all((n - s) % n in gens for s in gens)
    c = cp.partition_by_cycle(graph)
    for s in graph.elements:
        owning = [p for p in c.parts if s in p.generators]
        assert len(owning) == math.gcd(n, s)


@given(graphs(max_n=20))
@settings(max_examples=100)
def test_rotation_is_an_automorphism(graph):
    n = graph.n
    rotation = tuple((v + 1) % n for v in range(n))
    assert cp.is_automorphism(graph, rotation)
