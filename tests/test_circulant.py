import collections
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings

import circpart as cp
from conftest import (
    bfs_reachable,
    directed_subsets,
    graphs,
    inverse_closed_subsets,
    order_mod,
    parts_by_definition,
    random_partitions,
    refines,
)


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
    for elements in ((2, 1), (1, 1, 2)):  # out of order, repeated
        with pytest.raises(cp.InvalidInstanceError, match="^elements must be strictly ascending without duplicates$"):
            cp.ConnectionSet(8, elements, cp.DIRECTED)


def test_a_partition_refuses_an_unknown_kind():
    g = cp.parse_instance("6:1,5:u")
    with pytest.raises(ValueError, match=r"^kind must be one of \('B', 'C'\), got 'D'$"):
        cp.ArcPartition("D", g, (0, 1) * 6)


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
    # the type itself enforces the bound, so every path that makes a set is refused the same way
    for make in (lambda: cp.ConnectionSet(13, (1,), cp.DIRECTED), lambda: cp.parse_instance("13:1:d")):
        with pytest.raises(cp.ResourceLimitError) as refused:
            make()
        assert str(refused.value) == "Circ(13; S) would have 13 arcs, more than the limit 12"


def test_build_and_both_partitions_leave_the_arcs_to_their_first_read():
    tracemalloc.start()
    try:
        g = cp.build(50_000, (1, 49_999), cp.UNDIRECTED)  # 100,000 arcs, the limit
        built = tracemalloc.get_traced_memory()[1]
        partitions = [cp.arc_partition(g, kind) for kind in ("B", "C")]
    finally:
        tracemalloc.stop()
    assert built < 10_000  # the arcs would take about 19 MB
    assert "arcs" not in vars(g) and "arc_set" not in vars(g)
    assert [len(p.labels) for p in partitions] == [100_000, 100_000]
    assert len(g.arcs) == len(g.arc_set) == 100_000
    assert g.arcs[:3] == ((0, 1), (0, 49_999), (1, 0))


def test_partition_labels_repeat_with_the_period_of_the_steps():
    # kind "C" labels of vertex u depend on u mod gcd(n, s) for every s; kind "B" on nothing
    g = cp.build(12, (2, 3, 9, 10), cp.UNDIRECTED)
    for kind, period in (("B", 1), ("C", 6)):
        labels = cp.arc_partition(g, kind).labels
        assert labels == labels[: 4 * period] * (12 // period)
    assert cp.arc_partition(g, "C").labels[:24] == (0, 2, 2, 0, 1, 3, 3, 1, 0, 4, 4, 0, 1, 2, 2, 1, 0, 3, 3, 0, 1, 4, 4, 1)


def test_the_period_is_read_off_the_labels():
    """Every set to directed n = 10 and undirected n = 16: kind "B" has period 1 and kind "C" the lcm of
    gcd(n, s) over S; a copy with one arc given a new label has period n, whatever its kind says; and the
    period of a random partition is the least P dividing n with every label that of its arc mod P*|S|."""
    rng = random.Random(3)
    longer = 0
    for mode, n_max, subsets in ((cp.DIRECTED, 10, directed_subsets), (cp.UNDIRECTED, 16, inverse_closed_subsets)):
        for n in range(2, n_max + 1):
            for elements in subsets(n):
                g = cp.build(n, elements, mode)
                for kind, period in (("B", 1), ("C", math.lcm(*(math.gcd(n, s) for s in elements)))):
                    partition = cp.arc_partition(g, kind)
                    assert partition.period == period, (cp.instance_key(g), kind)
                    labels = list(partition.labels)
                    labels[rng.randrange(len(labels))] = partition.count
                    assert cp.ArcPartition(kind, g, tuple(labels)).period == n, (cp.instance_key(g), kind)
                    longer += period < n
                if n <= 10:
                    width = len(elements)
                    for partition in random_partitions(g, rng):
                        labels = partition.labels
                        assert partition.period == min(
                            p
                            for p in range(1, n + 1)
                            if n % p == 0 and all(label == labels[a % (p * width)] for a, label in enumerate(labels))
                        )
    assert longer > 1_000


@pytest.mark.parametrize(
    "labels",
    [(0,), (0,) * 13, (0, -1) * 6, (0, 2) * 6, (1,) * 12, (0.0, 1.0) * 6, ("0", "1") * 6],
    ids=["too-few", "too-many", "negative", "unused-label", "not-from-zero", "float", "str"],
)
def test_a_partition_refuses_labels_that_are_not_one_per_arc_numbered_from_zero(labels):
    # 6:1,5:u has 12 arcs; before the check, the first two made the search and ``respects`` raise
    # IndexError and ``period`` StopIteration, the third made the identity fail to respect the
    # partition, the next two made an empty part, and float labels made the search raise TypeError
    g = cp.parse_instance("6:1,5:u")
    with pytest.raises(ValueError, match="need 12 int labels, one per arc, numbered 0 to count-1 with each used"):
        cp.ArcPartition("B", g, labels)
    partition = cp.ArcPartition("B", g, (0, 1) * 6)  # the sizes are counted when the partition is made
    assert (partition.count, partition.sizes, vars(partition)["sizes"]) == (2, (6, 6), (6, 6))


def test_arc_partition_sizes_its_parts_from_its_classes(monkeypatch):
    # the builder counts no label: its count and sizes are those a Counter of its labels gives
    def uncounted(*args):
        raise AssertionError("the labels were counted")

    spec = cp.SweepSpec(n_min=2, n_max=14)
    built = 0
    for cs in cp.generate_instances(spec):
        for kind in ("B", "C"):
            with monkeypatch.context() as patched:
                patched.setattr(cp.circulant, "Counter", uncounted)
                partition = cp.arc_partition(cs, kind)
            sizes = collections.Counter(partition.labels)
            assert partition.count == len(sizes)
            assert partition.sizes == tuple(sizes[label] for label in range(len(sizes)))
            assert partition == cp.ArcPartition(kind, cs, partition.labels)
            built += 1
    assert built == 2 * len(list(cp.generate_instances(spec)))
    with pytest.raises(ValueError, match=r"^kind must be one of \('B', 'C'\), got 'D'$"):
        cp.arc_partition(cs, "D")


def test_a_large_inverse_closed_set_is_refused_quickly():
    # 40,000 elements: an inverse-closure test quadratic in |S| takes tens of seconds on this set
    elements = [*range(1, 20_001), *range(180_000, 200_000)]
    text = f"200000:{','.join(map(str, elements))}"
    started = time.perf_counter()
    with pytest.raises(cp.ResourceLimitError, match="more than the limit"):
        cp.build(200_000, elements, cp.UNDIRECTED)
    with pytest.raises(cp.ResourceLimitError, match="more than the limit"):
        cp.parse_instance(text)  # no suffix: parse_instance tests inverse closure to infer the mode
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
    graph = cp.parse_instance(text)
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
    g = cp.parse_instance("8:1,2:d")
    b = cp.partition_by_generator(g)
    assert b.kind == "B"
    assert [len(arcs) for arcs, _, _ in b.parts()] == [8, 8]
    assert [gens for _, gens, _ in b.parts()] == [(1,), (2,)]


def test_generator_partition_merges_inverse_pairs():
    g = cp.build(5, (1, 4), cp.UNDIRECTED)
    [(arcs, gens, _)] = cp.partition_by_generator(g).parts()
    assert len(arcs) == 10
    assert gens == (1, 4)

    g = cp.build(6, (2, 3, 4), cp.UNDIRECTED)
    parts = cp.partition_by_generator(g).parts()
    assert sorted(len(arcs) for arcs, _, _ in parts) == [6, 12]
    assert {gens for _, gens, _ in parts} == {(2, 4), (3,)}


def test_cycle_partition_directed():
    g = cp.parse_instance("8:1,2:d")
    parts = [arcs for arcs, _, _ in cp.partition_by_cycle(g).parts()]
    assert sorted(len(arcs) for arcs in parts) == [4, 4, 8]
    # each part is one cycle: following its arcs from any vertex walks the whole part
    for arcs in parts:
        succ = dict(arcs)
        x = arcs[0][0]
        seen = set()
        while x not in seen:
            seen.add(x)
            x = succ[x]
        assert len(seen) == len(arcs)


def test_cycle_partition_order_two_generator():
    g = cp.build(4, (2,), cp.UNDIRECTED)
    parts = cp.partition_by_cycle(g).parts()
    assert [arcs for arcs, _, _ in parts] == [((0, 2), (2, 0)), ((1, 3), (3, 1))]
    assert [coset for _, _, coset in parts] == [0, 1]


def test_cycle_partition_mixed_orders():
    g = cp.build(6, (2, 3, 4), cp.UNDIRECTED)
    parts = [arcs for arcs, _, _ in cp.partition_by_cycle(g).parts()]
    assert sorted(len(arcs) for arcs in parts) == [2, 2, 2, 6, 6]
    triangles = [arcs for arcs in parts if len(arcs) == 6]
    assert {frozenset(v for a in arcs for v in a) for arcs in triangles} == {
        frozenset({0, 2, 4}),
        frozenset({1, 3, 5}),
    }


def test_partitions_match_the_definitions_exhaustively_to_n10():
    """Every connection set with n <= 10, both modes and kinds: the parts derived from the
    labels are those built from the definitions, in arcs, order, generators and coset."""
    cases = 0
    for n in range(2, 11):
        for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n))):
            for elements in subsets:
                graph = cp.build(n, elements, mode)
                for kind in ("B", "C"):
                    partition = cp.arc_partition(graph, kind)
                    parts = partition.parts()
                    assert parts == parts_by_definition(graph, kind), (elements, mode, kind)
                    assert partition.sizes == tuple(len(arcs) for arcs, _, _ in parts)
                    cases += 1
    assert cases == 2 * (sum(2 ** (n - 1) - 1 for n in range(2, 11)) + sum(2 ** (n // 2) - 1 for n in range(2, 11)))


def test_refines_examples():
    g = cp.parse_instance("8:1,2:d")
    b = cp.partition_by_generator(g).parts()
    c = cp.partition_by_cycle(g).parts()
    assert refines(c, b) is True
    assert refines(b, c) is False
    assert refines(b, b) is True


def test_refines_rejects_mismatched_universes():
    b1 = cp.partition_by_generator(cp.parse_instance("8:1,2:d")).parts()
    b2 = cp.partition_by_generator(cp.parse_instance("8:1,3:d")).parts()
    with pytest.raises(ValueError):
        refines(b1, b2)


@given(graphs())
@settings(max_examples=200)
def test_partitions_cover_exactly_and_refine(graph):
    b = cp.partition_by_generator(graph).parts()
    c = cp.partition_by_cycle(graph).parts()
    for parts in (b, c):
        assert frozenset(a for arcs, _, _ in parts for a in arcs) == graph.arc_set
        assert sum(len(arcs) for arcs, _, _ in parts) == len(graph.arcs)
    assert refines(c, b)
    assert len(graph.arcs) == graph.n * len(graph.elements)
    if not graph.directed:
        # an undirected edge is stored as its two opposite arcs, inside one part
        for arcs in [graph.arc_set] + [frozenset(arcs) for arcs, _, _ in b + c]:
            assert {(v, u) for u, v in arcs} == arcs


@given(graphs(modes=(cp.DIRECTED,)))
@settings(max_examples=150)
def test_directed_cycle_partition_counts(graph):
    n = graph.n
    parts = cp.partition_by_cycle(graph).parts()
    assert len(parts) == sum(math.gcd(n, s) for s in graph.elements)
    sizes = {}
    for arcs, gens, _ in parts:
        for s in gens:
            sizes.setdefault(s, []).append(len(arcs))
    for s, lens in sizes.items():
        assert set(lens) == {order_mod(n, s)}


@given(graphs(modes=(cp.UNDIRECTED,)))
@settings(max_examples=150)
def test_undirected_partitions_share_inverse_generators(graph):
    n = graph.n
    for partition in (cp.partition_by_generator(graph), cp.partition_by_cycle(graph)):
        for _, gens, _ in partition.parts():
            # s and n-s always land in the same merged part
            assert all((n - s) % n in gens for s in gens)
    parts = cp.partition_by_cycle(graph).parts()
    for s in graph.elements:
        owning = [arcs for arcs, gens, _ in parts if s in gens]
        assert len(owning) == math.gcd(n, s)


@given(graphs(max_n=20))
@settings(max_examples=100)
def test_rotation_is_an_automorphism(graph):
    n = graph.n
    rotation = tuple((v + 1) % n for v in range(n))
    assert cp.is_automorphism(graph, rotation)
