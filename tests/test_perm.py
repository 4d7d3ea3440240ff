import itertools
import math
import random

import pytest
from hypothesis import given, settings

import circpart as cp
from conftest import (
    compose,
    directed_subsets,
    graphs,
    identity,
    inverse,
    inverse_closed_subsets,
    naive_respects,
    random_partitions,
)
from circpart.perm import multiplier_part_map, part_map


def test_compose_identities():
    p = (0, 2, 1, 4, 3)
    assert compose(identity(5), p) == p
    assert compose(p, inverse(p)) == identity(5)
    assert compose(inverse(p), p) == identity(5)


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == tuple(p[q[v]] for v in range(3))


def test_compose_of_multipliers_multiplies():
    m2 = cp.multiplier_perm(5, 2)
    m3 = cp.multiplier_perm(5, 3)
    assert compose(m2, m3) == identity(5)  # 2*3 = 6 = 1 mod 5
    assert compose(m2, m2) == cp.multiplier_perm(5, 4)


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_multiplier_perm_values():
    assert cp.multiplier_perm(8, 1) == identity(8)
    assert cp.multiplier_perm(8, 7) == (0, 7, 6, 5, 4, 3, 2, 1)
    assert cp.multiplier_perm(5, 2) == (0, 2, 4, 1, 3)


def test_multiplier_perm_rejects_non_units():
    with pytest.raises(ValueError):
        cp.multiplier_perm(8, 2)
    with pytest.raises(ValueError):
        cp.multiplier_perm(6, 3)


def test_is_automorphism_examples():
    g = cp.parse_instance("8:1,2:d")
    rotation = tuple((v + 1) % 8 for v in range(8))
    assert cp.is_automorphism(g, rotation)
    negate = tuple((7 * v) % 8 for v in range(8))
    assert not cp.is_automorphism(g, negate)  # arc (0,1) would map to (0,7)
    g5 = cp.build(5, (1, 4), cp.UNDIRECTED)
    assert cp.is_automorphism(g5, cp.multiplier_perm(5, 4))
    with pytest.raises(ValueError):
        cp.is_automorphism(g5, (0, 1, 2))
    # maps every arc of Circ(4; {2}) to an arc, but is not a permutation
    assert not cp.is_automorphism(cp.build(4, (2,), cp.DIRECTED), (0, 0, 2, 2))


def test_respects_examples():
    g = cp.parse_instance("8:1,2:d")
    c = cp.partition_by_cycle(g)
    assert cp.respects(identity(8), c)
    assert cp.respects(identity(8), cp.partition_by_generator(g))

    g8 = cp.build(8, (1, 2, 6, 7), cp.UNDIRECTED)
    assert cp.respects(cp.multiplier_perm(8, 7), cp.partition_by_cycle(g8))

    g6 = cp.build(6, (2, 4), cp.UNDIRECTED)
    c6 = cp.partition_by_cycle(g6)
    odd_cycle = (0, 3, 2, 5, 4, 1)  # fixes 0,2,4 and rotates 1 -> 3 -> 5
    assert cp.is_automorphism(g6, odd_cycle)
    assert cp.respects(odd_cycle, c6)


def test_respects_rejects_non_automorphisms():
    g = cp.parse_instance("8:1,2:d")
    c = cp.partition_by_cycle(g)
    negate = tuple((7 * v) % 8 for v in range(8))
    with pytest.raises(ValueError):
        cp.respects(negate, c)
    with pytest.raises(ValueError):
        cp.respects((0, 1, 2), c)
    # not injective, yet each part of Circ(4; {2}) maps onto a part
    with pytest.raises(ValueError):
        cp.respects((0, 0, 2, 2), cp.partition_by_cycle(cp.build(4, (2,), cp.DIRECTED)))


def test_respects_depends_only_on_part_arc_sets():
    # renumbering the parts by any permutation of the labels changes no answer
    rng = random.Random(7)
    outcomes = set()
    for text in ("6:2,4:u", "4:1,2,3:u", "8:1,2:d"):
        g = cp.parse_instance(text)
        for kind in ("B", "C"):
            partition = cp.arc_partition(g, kind)
            renumber = list(range(len(partition.sizes)))
            rng.shuffle(renumber)
            relabeled = cp.ArcPartition(kind, partition.cs, tuple(renumber[label] for label in partition.labels))
            assert sorted(relabeled.parts()) == sorted(partition.parts())
            for p in itertools.permutations(range(g.n)):
                if cp.is_automorphism(g, p):
                    outcomes.add(cp.respects(p, partition))
                    assert cp.respects(p, partition) == cp.respects(p, relabeled)
    assert outcomes == {True, False}


def test_part_map_is_the_induced_label_map_or_none():
    g = cp.parse_instance("8:1,2:d")
    ident = identity(8)
    assert part_map(ident, cp.partition_by_generator(g)) == [0, 1]
    assert part_map(ident, cp.partition_by_cycle(g)) == [0, 1, 2]
    # a rotation of two disjoint triangles swaps them
    triangles = cp.partition_by_cycle(cp.parse_instance("6:2,4:u"))
    assert part_map((1, 2, 3, 4, 5, 0), triangles) == [1, 0]
    # in K4, swapping 1 and 2 sends arcs of the 4-cycle {1, 3} to both classes: not well defined
    k4 = cp.partition_by_generator(cp.parse_instance("4:1,2,3:u"))
    assert part_map((0, 2, 1, 3), k4) is None
    assert part_map(cp.multiplier_perm(4, 3), k4) == [0, 1]
    # v -> 7v maps Circ(8; {1, 2}) onto Circ(8; {6, 7}), another graph
    with pytest.raises(ValueError, match="not an automorphism"):
        part_map(cp.multiplier_perm(8, 7), cp.partition_by_cycle(g))


def test_respects_matches_the_definition_exhaustively_to_n6():
    """Every connection set with n <= 6, both modes and kinds, every permutation of Z_n:
    ``is_automorphism`` is the literal arc-set image test, and ``respects`` raises exactly on
    non-automorphisms and otherwise is the literal definition."""
    cases = automorphisms = 0
    for n in range(2, 7):
        for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n))):
            for elements in subsets:
                graph = cp.build(n, elements, mode)
                arcs = {(u, (u + s) % n) for u in range(n) for s in elements}
                partitions = [cp.arc_partition(graph, kind) for kind in ("B", "C")]
                for p in itertools.permutations(range(n)):
                    automorphism = {(p[u], p[v]) for u, v in arcs} == arcs
                    assert cp.is_automorphism(graph, p) == automorphism, (elements, p)
                    automorphisms += automorphism
                    for partition in partitions:
                        cases += 1
                        if automorphism:
                            assert cp.respects(p, partition) == naive_respects(partition, p), (elements, p)
                        else:
                            with pytest.raises(ValueError):
                                cp.respects(p, partition)
    assert cases == 59_576 and automorphisms == 2_690


def test_non_permutations_are_never_automorphisms_to_n5():
    """Every connection set with n <= 5, both modes, every map of Z_n that is not a permutation:
    ``is_automorphism`` is False, ``respects`` raises and, on a connected graph, so does
    ``normalize_to_multiplier``."""
    cases = 0
    for n in range(2, 6):
        maps = [p for p in itertools.product(range(n), repeat=n) if len(set(p)) < n]
        for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n))):
            for elements in subsets:
                graph = cp.build(n, elements, mode)
                partitions = [cp.arc_partition(graph, kind) for kind in ("B", "C")]
                connected = cp.is_connected(graph)
                for p in maps:
                    cases += 1
                    assert not cp.is_automorphism(graph, p), (elements, p)
                    for partition in partitions:
                        with pytest.raises(ValueError):
                            cp.respects(p, partition)
                    if connected and p[0] == 0:
                        with pytest.raises(ValueError, match="not an automorphism"):
                            cp.normalize_to_multiplier(graph, p)
    assert cases == 56_498


@given(graphs(max_n=14))
@settings(max_examples=150)
def test_multipliers_respect_both_partitions(graph):
    n = graph.n
    b = cp.partition_by_generator(graph)
    c = cp.partition_by_cycle(graph)
    for j in cp.multipliers(n, graph.elements):
        p = cp.multiplier_perm(n, j)
        assert p[0] == 0
        assert cp.is_automorphism(graph, p)
        assert cp.respects(p, b)
        assert cp.respects(p, c)
        assert naive_respects(b, p)
        assert naive_respects(c, p)


def test_the_multiplier_check_is_part_map_of_the_multiplier():
    """``multiplier_part_map(j, p)`` returns what ``part_map(multiplier_perm(n, j), p)`` returns, or raises
    the same ValueError, for every unit j of Z_n, on every set to directed n = 11 and undirected n = 20:
    on both kinds, on a copy of each with one arc relabelled, and, to n = 10, on random partitions."""

    def outcome(check, *args):
        try:
            return check(*args)
        except ValueError as exc:
            return str(exc)

    rng = random.Random(29)
    results = []
    for mode, n_max, subsets in ((cp.DIRECTED, 11, directed_subsets), (cp.UNDIRECTED, 20, inverse_closed_subsets)):
        for n in range(2, n_max + 1):
            for elements in subsets(n):
                g = cp.build(n, elements, mode)
                partitions = [cp.arc_partition(g, kind) for kind in ("B", "C")]
                for partition in partitions[:2]:
                    labels = list(partition.labels)
                    a = rng.randrange(len(labels))
                    labels[a] = rng.choice([label for label in range(partition.count + 1) if label != labels[a]])
                    partitions.append(cp.ArcPartition(partition.kind, g, tuple(labels)))
                if n <= 10:
                    partitions += random_partitions(g, rng)
                for j in (j for j in range(1, n) if math.gcd(j, n) == 1):
                    p = cp.multiplier_perm(n, j)
                    for partition in partitions:
                        expected = outcome(part_map, p, partition)
                        assert outcome(multiplier_part_map, j, partition) == expected, (g, j, partition)
                        results.append(type(expected))
    assert len(results) == 199_208
    assert min(results.count(list), results.count(type(None)), results.count(str)) > 9_000


def test_the_multiplier_check_refuses_a_non_unit():
    partition = cp.arc_partition(cp.parse_instance("8:1,2:d"), "C")
    for j in (2, 4, 8, 0):
        with pytest.raises(ValueError, match=f"^{j} is not a unit mod 8$"):
            multiplier_part_map(j, partition)


@pytest.mark.parametrize("text, kind", [("6:2,4:u", "C"), ("8:1,2:d", "B"), ("4:1,2,3:u", "C")])
def test_respecting_automorphisms_form_a_group(text, kind):
    graph = cp.parse_instance(text)
    partition = cp.arc_partition(graph, kind)
    sols = cp.enumerate_respecting(graph, partition)
    members = set(sols)
    assert identity(graph.n) in members
    for p in sols:
        assert inverse(p) in members
        for q in sols:
            assert compose(p, q) in members


def test_format_and_parse_perm():
    p = (0, 3, 2, 5, 4, 1)
    assert cp.format_perm(p) == "[0, 3, 2, 5, 4, 1]"
    assert cp.parse_perm("[0, 3, 2, 5, 4, 1]") == p
    assert cp.parse_perm("0,3,2,5,4,1") == p
    with pytest.raises(ValueError):
        cp.parse_perm("[0, 0, 1]")
    with pytest.raises(ValueError):
        cp.parse_perm("[a, b]")


@given(graphs(max_n=10))
@settings(max_examples=60)
def test_identity_respects_everything(graph):
    ident = identity(graph.n)
    assert cp.respects(ident, cp.partition_by_generator(graph))
    assert cp.respects(ident, cp.partition_by_cycle(graph))
