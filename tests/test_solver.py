import itertools
import math
import random
import signal

import pytest
from hypothesis import given, settings

import circpart as cp
from circpart import circulant, solver
from conftest import (
    compose,
    connection_sets,
    directed_subsets,
    identity,
    inverse_closed_subsets,
    naive_respects,
    random_partitions,
    search_cap,
    solution_cap,
)


def closure_oracle(n, gens):
    """Independent re-run of the fixed-set closure using plain sets.

    Returns one (rounds, final, closed) triple per stage, where rounds are
    the strictly-new vertices added by each application of the rule.
    """

    def subgroup(values):
        g = n
        for v in values:
            g = math.gcd(g, v)
        return set(range(0, n, g))

    stages = []
    for k in range(1, len(gens)):
        s_next = gens[k]
        current = subgroup(gens[:k]) | subgroup([s_next])
        target = subgroup(gens[: k + 1])
        rounds = []
        while True:
            eligible = {
                x
                for x in target
                if x not in current
                and (x - s_next) % n in current
                and any((x - s_y) % n in current for s_y in gens[:k])
            }
            if not eligible:
                break
            rounds.append(tuple(sorted(eligible)))
            current |= eligible
        stages.append((tuple(rounds), frozenset(current), current == target))
    return stages


def test_enumerate_connected_directed_gives_identity_only():
    g = cp.parse_instance("8:1,2:d")
    c = cp.partition_by_cycle(g)
    assert cp.enumerate_respecting(g, c) == [identity(8)]
    assert cp.multipliers(8, (1, 2)) == (1,)


def test_enumerate_five_cycle():
    g = cp.build(5, (1, 4), cp.UNDIRECTED)
    c = cp.partition_by_cycle(g)
    assert cp.enumerate_respecting(g, c) == sorted([identity(5), cp.multiplier_perm(5, 4)])


def test_enumerate_disconnected_two_triangles():
    g = cp.build(6, (2, 4), cp.UNDIRECTED)
    c = cp.partition_by_cycle(g)
    sols = cp.enumerate_respecting(g, c)
    expected = sorted(
        (0, odd[0], even[0], odd[1], even[1], odd[2])
        for even in itertools.permutations((2, 4))
        for odd in itertools.permutations((1, 3, 5))
    )
    assert sols == expected
    assert len(sols) == 12
    assert [sols] == cp.brute_oracle(g, [c])
    multiplier_set = {cp.multiplier_perm(6, j) for j in cp.multipliers(6, (2, 4))}
    assert multiplier_set < set(sols)
    assert len(multiplier_set) == 2


def test_brute_oracle_small_cycles():
    g4 = cp.build(4, (1, 3), cp.UNDIRECTED)
    c4 = cp.partition_by_cycle(g4)
    assert cp.brute_oracle(g4, [c4]) == [sorted([identity(4), cp.multiplier_perm(4, 3)])]
    g3 = cp.build(3, (1, 2), cp.UNDIRECTED)
    c3 = cp.partition_by_cycle(g3)
    assert cp.brute_oracle(g3, [c3]) == [sorted([identity(3), cp.multiplier_perm(3, 2)])]


def test_one_oracle_scan_serves_every_partition(monkeypatch):
    draws = []  # one entry per scan: a call of the oracle's candidate generator
    candidates = solver._oracle_candidates

    def counted(*args):
        draws.append(args)
        return candidates(*args)

    def scan(g, partitions, fix_zero):
        before = len(draws)
        lists = cp.brute_oracle(g, partitions, fix_zero=fix_zero)
        assert len(draws) == before + 1
        return lists

    monkeypatch.setattr(solver, "_oracle_candidates", counted)
    for n in range(2, 7):
        foreign = cp.arc_partition(cp.build(n + 1, (1,), cp.DIRECTED), "C")
        for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n))):
            for elements in subsets:
                g = cp.build(n, elements, mode)
                b, c = cp.arc_partition(g, "B"), cp.arc_partition(g, "C")
                for fix_zero in (True, False):
                    both = scan(g, [b, c], fix_zero)
                    assert both == scan(g, [b], fix_zero) + scan(g, [c], fix_zero)
                    assert scan(g, [c, b], fix_zero) == both[::-1]
                    before = len(draws)
                    for partitions in ([foreign, b, c], [b, foreign, c], [b, c, foreign]):
                        with pytest.raises(ValueError, match="does not partition this graph's arcs"):
                            cp.brute_oracle(g, partitions, fix_zero=fix_zero)
                    assert len(draws) == before


def literal_oracle(g, partitions, fix_zero):
    """Every permutation whose arc image is the arc set and that respects each partition by ``naive_respects``."""
    found = [[] for _ in partitions]
    for p in itertools.permutations(range(g.n)):
        if fix_zero and p[0] != 0:
            continue
        if {(p[u], p[v]) for u, v in g.arcs} == g.arc_set:
            for partition, sols in zip(partitions, found):
                if naive_respects(partition, p):
                    sols.append(p)
    return found


def test_oracle_matches_the_literal_definition():
    graphs = [
        cp.build(n, elements, mode)
        for n in range(2, 7)
        for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n)))
        for elements in subsets
    ]
    assert len(graphs) == 72
    # K_n has no non-arcs; the near-complete sets have more arcs than non-arcs, so their non-arcs are scanned
    graphs += [cp.build(n, range(1, n), mode) for n in range(2, 8) for mode in (cp.DIRECTED, cp.UNDIRECTED)]
    near = [cp.parse_instance(text) for text in ("7:1,2,3,4,5:d", "7:1,2,5,6:u", "8:1,2,3,5,6,7:u")]
    for g in near:
        assert g.n * (g.n - 1) > len(g.arcs) > g.n * (g.n - 1) // 2
    graphs += near
    for g in graphs:
        partitions = [cp.arc_partition(g, kind) for kind in ("B", "C")]
        for fix_zero in (True, False) if g.n < 8 else (True,):  # 8! literal maps per set would dominate the suite
            assert cp.brute_oracle(g, partitions, fix_zero=fix_zero) == literal_oracle(g, partitions, fix_zero), (
                cp.instance_key(g),
                fix_zero,
            )


@pytest.mark.parametrize("text, order", [("9:1,8:u", 2), ("9:3,6:u", 144), ("9:1,2,4,5,7,8:u", 6)])
def test_oracle_agrees_with_the_search_at_its_limit(text, order):
    g = cp.parse_instance(text)
    assert g.n == solver.DEFAULT_ORACLE_LIMIT == 9
    partitions = [cp.arc_partition(g, kind) for kind in ("B", "C")]
    listed = cp.brute_oracle(g, partitions, fix_zero=True)
    assert [len(sols) for sols in listed] == [order, order]
    for partition, expected in zip(partitions, listed):
        assert cp.enumerate_respecting(g, partition, fix_zero=True) == expected


def small_graphs(n_max):
    return [
        cp.build(n, elements, mode)
        for n in range(2, n_max + 1)
        for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n)))
        for elements in subsets
    ]


def test_oracle_draws_exactly_the_permutations_that_map_s_onto_p0_plus_s():
    complete = [cp.build(n, range(1, n), mode) for n in range(2, 8) for mode in (cp.DIRECTED, cp.UNDIRECTED)]
    for g in small_graphs(6) + complete:
        n, elements = g.n, g.elements
        for fix_zero in (True, False):
            expected = [
                p
                for p in itertools.permutations(range(n))
                if (p[0] == 0 or not fix_zero) and {p[s] for s in elements} == {(p[0] + s) % n for s in elements}
            ]
            drawn = sorted(solver._oracle_candidates(g, fix_zero))  # ascending, so a repeat would show
            assert drawn == expected, (cp.instance_key(g), fix_zero)


def test_oracle_family_test_on_partitions_beyond_b_and_c():
    rng = random.Random(17)
    equal_sizes = nontrivial = 0
    for g in small_graphs(6):
        partitions = random_partitions(g, rng) + random_partitions(g, rng)
        families = []
        for partition in partitions:
            arcs = [[] for _ in range(partition.count)]
            for a, label in enumerate(partition.labels):  # arc a is (u, u + s_k) with a = u*|S| + k
                u, k = divmod(a, len(g.elements))
                arcs[label].append((u, (u + g.elements[k]) % g.n))
            assert all(arcs)
            families.append({frozenset(part) for part in arcs})
            equal_sizes += len(set(map(len, arcs))) < len(arcs)
        automorphisms = [
            p for p in itertools.permutations(range(g.n)) if {(p[u], p[v]) for u, v in g.arcs} == g.arc_set
        ]
        for fix_zero in (True, False):
            kept = [p for p in automorphisms if p[0] == 0 or not fix_zero]
            expected = [
                [p for p in kept if {frozenset((p[u], p[v]) for u, v in part) for part in family} == family]
                for family in families
            ]
            assert cp.brute_oracle(g, partitions, fix_zero=fix_zero) == expected, (cp.instance_key(g), fix_zero)
            nontrivial += sum(len(sols) > 1 for sols in expected)
    assert equal_sizes > 300 and nontrivial > 400, (equal_sizes, nontrivial)


def test_the_search_agrees_with_the_oracle_on_any_partition():
    """Every set to n = 7, both modes, on partitions beyond B and C (free labels, equal sizes, by vertex
    residue, unions of C parts), ``fix_zero`` both ways: the search lists what the oracle lists. A level
    is finished as forced only when each part lies inside one generator class; on a partition whose
    parts straddle classes the parent arc's part admits other candidates, so a skip that ignored the
    partition would lose elements (on 4:1,2,3:d with every arc in one part, 3 of the 6)."""
    rng = random.Random(5)
    cases = straddling = 0
    for g in small_graphs(7):
        n, elements = g.n, g.elements
        classes = [s if g.directed else min(s, n - s) for s in elements] * n  # the class of each arc
        for kind in ("B", "C"):  # inside classes as built and as relabelled by hand
            built = cp.arc_partition(g, kind)
            reversed_labels = tuple(built.count - 1 - label for label in built.labels)
            assert built.within_classes and cp.ArcPartition(kind, g, reversed_labels).within_classes
        if len(set(classes)) > 1:  # kind B with its first two classes merged straddles them
            merged = tuple(max(label - 1, 0) for label in cp.arc_partition(g, "B").labels)
            assert not cp.ArcPartition("B", g, merged).within_classes
        for partition in random_partitions(g, rng):
            owners = [set() for _ in range(partition.count)]
            for label, owner in zip(partition.labels, classes):
                owners[label].add(owner)
            assert partition.within_classes == all(len(owner) == 1 for owner in owners)
            straddling += not partition.within_classes
            for fix_zero in (True, False):
                expected = cp.brute_oracle(g, [partition], fix_zero=fix_zero)[0]
                assert cp.enumerate_respecting(g, partition, fix_zero=fix_zero) == expected, (
                    cp.instance_key(g),
                    partition.labels,
                    fix_zero,
                )
                cases += 1
    assert cases == 1_136 and straddling > 0, (cases, straddling)
    g = cp.parse_instance("4:1,2,3:d")
    one_part = cp.ArcPartition("B", g, (0,) * 12)
    assert not one_part.within_classes and len(cp.enumerate_respecting(g, one_part)) == 6


@pytest.mark.parametrize("rejection", ["none", "raise"])
def test_a_leaf_that_fails_its_recheck_is_not_a_generator(rejection, monkeypatch):
    checked = []

    def reject(p, partition):
        checked.append(p)
        if rejection == "raise":
            raise ValueError("an arc image that is not an arc")
        return None

    g = cp.parse_instance("6:2,4:u")
    partitions = [cp.arc_partition(g, kind) for kind in ("B", "C")]
    assert [cp.respecting_group(g, partition).order for partition in partitions] == [12, 12]
    monkeypatch.setattr(solver, "leaf_part_map", reject)
    monkeypatch.setattr(solver, "multiplier_part_map", lambda j, part: reject(cp.multiplier_perm(part.cs.n, j), part))
    for partition in partitions:
        for fix_zero in (True, False):
            group = cp.respecting_group(g, partition, fix_zero=fix_zero)
            assert group.order == 1
            assert group.strong_generators() == []
    assert cp.multiplier_perm(6, 5) in checked  # the shortcut of 6:2,4:u got the leaf's check


def test_no_leaf_fails_its_recheck_and_the_back_arcs_cover_the_graph_once(monkeypatch):
    """Every set to directed n = 10 and undirected n = 14, both kinds, ``fix_zero`` both ways: the
    incremental checks leave the leaf re-check nothing to reject, so a part that the unchecked
    identity path left unmapped would show as a failed leaf; the plan's order is a permutation whose
    roots are the least vertices of the components, and every other vertex's parent arc ends at it
    from an earlier vertex and is ``lone`` exactly when no other arc of its class leaves the parent
    for the vertex or a later one; and the plan's back arcs, over all depths, name each arc once when
    directed and each edge once when undirected."""
    results = []

    def recorded(check):  # a leaf's check of p, or a shortcut's of j
        def run(p, partition):
            try:
                image = check(p, partition)
            except ValueError:
                results.append(False)
                raise
            results.append(image is not None)
            return image

        return run

    monkeypatch.setattr(solver, "leaf_part_map", recorded(solver.leaf_part_map))
    monkeypatch.setattr(solver, "multiplier_part_map", recorded(solver.multiplier_part_map))
    for mode, n_max, subsets in ((cp.DIRECTED, 10, directed_subsets), (cp.UNDIRECTED, 14, inverse_closed_subsets)):
        for n in range(2, n_max + 1):
            for elements in subsets(n):
                g = cp.build(n, elements, mode)
                order, _, back, parent_arcs, lone, _ = g._search_plan
                assert sorted(order) == list(range(n))
                roots = [u for u in order if parent_arcs[u] is None]
                assert roots == list(range(math.gcd(n, *elements))), elements
                for depth, u in enumerate(order):  # every other vertex hangs off an arc from an earlier one
                    if parent_arcs[u] is not None:
                        tail, k = divmod(parent_arcs[u], len(elements))
                        assert (tail + elements[k]) % n == u and order.index(tail) < depth, elements
                        # lone: the parent arc is the only arc of its generator class from tail into order[depth:]
                        s = elements[k]
                        into = {t for t in {s, s if g.directed else n - s} if order.index((tail + t) % n) >= depth}
                        assert lone[depth] == (into == {s}), elements
                    else:
                        assert not lone[depth], elements
                covered = []
                for depth, (u, arcs) in enumerate(zip(order, back)):
                    for w, a, leaves in arcs:
                        tail, k = divmod(a, len(elements))  # arc a is (u, u + s_k) with a = u*|S| + k
                        covered.append((tail, (tail + elements[k]) % n))
                        assert covered[-1] == ((u, w) if leaves else (w, u)) and order.index(w) < depth
                arcs = sorted((u, (u + s) % n) for u in range(n) for s in elements)
                if g.directed:
                    assert sorted(covered) == arcs, elements
                else:
                    edges = sorted((min(arc), max(arc)) for arc in covered)
                    assert edges == sorted({(min(arc), max(arc)) for arc in arcs}), elements
                for kind in ("B", "C"):
                    partition = cp.arc_partition(g, kind)
                    for fix_zero in (True, False):
                        cp.respecting_group(g, partition, fix_zero=fix_zero)
    assert len(results) == 5_294 and all(results)


def test_identity_always_enumerated():
    for text in ("8:1,2:d", "6:2,4:u", "4:2:u", "7:1,2,3:d"):
        g = cp.parse_instance(text)
        for kind in ("B", "C"):
            sols = cp.enumerate_respecting(g, cp.arc_partition(g, kind))
            assert identity(g.n) in sols


def assert_stabilizer_chain(group, n):
    """Level i's generators and transversal fix the base above it; each transversal
    element sends base[i] to its key."""
    base = group.base
    assert sorted(base) == list(range(n))
    for i, (gens, trans) in enumerate(zip(group.generators, group.transversals)):
        for p in gens:
            assert all(p[b] == b for b in base[:i]), (i, p)
        for x, t in trans.items():
            assert t[base[i]] == x
            assert all(t[b] == b for b in base[:i]), (i, t)


def test_enumerator_matches_oracle_exhaustively_to_n7():
    # fix_zero=False starts the search from a free root, the path the search order shapes most
    for n in range(2, 8):
        for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n))):
            for elements in subsets:
                g = cp.build(n, elements, mode)
                partitions = [cp.arc_partition(g, kind) for kind in ("B", "C")]
                for fix_zero in (True, False):
                    for partition, expected in zip(partitions, cp.brute_oracle(g, partitions, fix_zero=fix_zero)):
                        assert cp.enumerate_respecting(g, partition, fix_zero=fix_zero) == expected
                        group = cp.respecting_group(g, partition, fix_zero=fix_zero)
                        assert group.order == len(expected)
                        assert_stabilizer_chain(group, n)


def test_group_order_is_the_oracle_count_at_n8():
    # n <= 7 is checked with the listings above. Without a fixed 0 the oracle
    # would scan 8! maps for each of the 284 cases, so only fix_zero=True runs
    n = 8
    for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n))):
        for elements in subsets:
            g = cp.build(n, elements, mode)
            partitions = [cp.arc_partition(g, kind) for kind in ("B", "C")]
            for partition, expected in zip(partitions, cp.brute_oracle(g, partitions)):
                group = cp.respecting_group(g, partition)
                assert group.order == len(expected)
                assert_stabilizer_chain(group, n)


def same_group(a, b, n):
    """Do two stabilizer chains hold the same group? Equal orders, and every strong generator of
    each sifts through the other's transversals down to the identity."""

    def sifts(p, group):
        for point, trans in zip(group.base, group.transversals):
            t = trans.get(p[point])
            if t is None:
                return False
            inverse = [0] * n
            for x, y in enumerate(t):
                inverse[y] = x
            p = tuple(inverse[y] for y in p)  # t^-1 after p, which fixes the point
        return p == identity(n)

    return (
        a.order == b.order
        and all(sifts(p, b) for p in a.strong_generators())
        and all(sifts(p, a) for p in b.strong_generators())
    )


def test_the_shortcuts_find_the_group_that_descent_finds():
    """Every set to directed n = 10 and undirected n = 14, both kinds, ``fix_zero`` both ways: with
    no multipliers but 1 there are no shortcuts, and every generator is found by descent. The two
    searches give the same order and the same group, compared element by element up to 2,000
    elements and by sifting above that; both are stabilizer chains. The slow searches run on a
    second, equal set whose M is seeded as (1,) before its plan, which holds the shortcuts, is built."""

    def without_shortcuts(g):
        h = cp.build(g.n, g.elements, g.mode)
        vars(h)["multipliers"] = (1,)
        return h

    compared = listed = 0
    for mode, n_max, subsets in ((cp.DIRECTED, 10, directed_subsets), (cp.UNDIRECTED, 14, inverse_closed_subsets)):
        for n in range(2, n_max + 1):
            for elements in subsets(n):
                g = cp.build(n, elements, mode)
                h = without_shortcuts(g)
                for kind in ("B", "C"):
                    partition = cp.arc_partition(g, kind)
                    for fix_zero in (True, False):
                        fast = cp.respecting_group(g, partition, fix_zero=fix_zero)
                        slow = cp.respecting_group(h, cp.arc_partition(h, kind), fix_zero=fix_zero)
                        assert fast.order == slow.order, (cp.instance_key(g), kind, fix_zero)
                        assert_stabilizer_chain(fast, n)
                        assert_stabilizer_chain(slow, n)
                        if fast.order <= 2_000:
                            assert fast.elements() == slow.elements(), (cp.instance_key(g), kind, fix_zero)
                            listed += 1
                        assert same_group(fast, slow, n), (cp.instance_key(g), kind, fix_zero)
                        compared += 1
    assert compared == 4 * (1_013 + 367) and listed > 0.99 * compared
    # only the generators show the shortcut: v -> 5v is taken as it is, where descent finds another
    g = cp.parse_instance("6:2,4:u")
    h = without_shortcuts(g)
    for kind in ("B", "C"):
        assert cp.respecting_group(g, cp.arc_partition(g, kind)).strong_generators()[0] == cp.multiplier_perm(6, 5)
        assert cp.respecting_group(h, cp.arc_partition(h, kind)).strong_generators()[0] == (0, 1, 4, 3, 2, 5)


def test_a_shortcut_that_is_not_a_multiplier_is_refused(monkeypatch):
    """Offered every unit of Z_n as a shortcut, most of which do not map S onto S, the search still
    finds the same groups, for every set to n = 9, both modes and kinds, ``fix_zero`` both ways:
    the leaf re-check refuses each unit that is no respecting automorphism."""
    groups = {}
    cases = [
        (cp.build(n, elements, mode), kind, fix_zero)
        for n in range(2, 10)
        for mode, subsets in ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n)))
        for elements in subsets
        for kind in ("B", "C")
        for fix_zero in (True, False)
    ]
    for g, kind, fix_zero in cases:
        groups[g, kind, fix_zero] = cp.respecting_group(g, cp.arc_partition(g, kind), fix_zero=fix_zero)
    rejected = []

    def recorded(check, perm):  # a leaf's check of p, or a shortcut's of j, as the vertex map perm(n, p)
        def run(p, partition):
            try:
                image = check(p, partition)
            except ValueError:
                rejected.append((perm(partition.cs.n, p), partition.cs))
                raise
            if image is None:
                rejected.append((perm(partition.cs.n, p), partition.cs))
            return image

        return run

    monkeypatch.setattr(solver, "leaf_part_map", recorded(solver.leaf_part_map, lambda n, p: p))
    monkeypatch.setattr(solver, "multiplier_part_map", recorded(solver.multiplier_part_map, cp.multiplier_perm))
    monkeypatch.setattr(circulant, "multipliers", lambda n, elements: tuple(j for j in range(1, n) if math.gcd(j, n) == 1))
    for g, kind, fix_zero in cases:
        g = cp.build(g.n, g.elements, g.mode)  # a fresh set, whose plan takes every unit as a shortcut
        group = cp.respecting_group(g, cp.arc_partition(g, kind), fix_zero=fix_zero)
        assert same_group(group, groups[g, kind, fix_zero], g.n), (cp.instance_key(g), kind, fix_zero)
        assert_stabilizer_chain(group, g.n)
    wrong = [
        (p, g)
        for p, g in rejected
        if p == tuple(p[1] * v % g.n for v in range(g.n)) and p[1] not in cp.multipliers(g.n, g.elements)
    ]
    assert wrong and len(wrong) == len(rejected)  # no leaf failed: every refusal was a wrong shortcut


@pytest.mark.parametrize(
    "text, order",
    [("14:7:u", 46_080), ("15:5,10:u", 62_208), ("64:32:u", math.factorial(31) * 2**31)],
)
def test_group_orders_of_disjoint_unions_without_listing(text, order, monkeypatch):
    # 7 edges, 5 triangles and 32 edges: the orbit of each component's root is every
    # vertex not yet fixed, so the order is a product of orbit lengths
    monkeypatch.setattr(cp.RespectingGroup, "elements", None)
    g = cp.parse_instance(text)
    for kind in ("B", "C"):
        group = cp.respecting_group(g, cp.arc_partition(g, kind))
        assert group.order == order
        assert len(group.strong_generators()) < g.n
        assert_stabilizer_chain(group, g.n)


def test_group_over_the_solution_cap_is_refused_before_listing():
    g = cp.parse_instance("64:32:u")
    with pytest.raises(cp.ResourceLimitError, match="more than max_solutions=100000"):
        cp.enumerate_respecting(g, cp.partition_by_cycle(g))
    assert cp.DEFAULT_MAX_SOLUTIONS == 100_000


def test_elements_are_the_distinct_transversal_products():
    g = cp.parse_instance("8:2,4,6:u")
    group = cp.respecting_group(g, cp.partition_by_cycle(g))
    sols = group.elements()
    assert len(sols) == len(set(sols)) == group.order == 16
    assert sols == sorted(sols)
    members = set(sols)
    for p in group.strong_generators():
        assert p in members
        assert all(compose(p, q) in members for q in sols)


def orbit_closure(point, gens):
    orbit, queue = {point}, [point]
    for x in queue:
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                queue.append(g[x])
    return orbit


def test_each_admission_extends_its_level_to_the_orbit_of_its_base_point(monkeypatch):
    # after every admission, level i's transversal sends base[i] to each key, fixes base[:i], and its
    # keys are the orbit of base[i] under the generators of level i and deeper, closed here afresh
    extend, admitted = solver._extend_transversal, []

    def recorded(trans, gens):
        extend(trans, gens)
        admitted.append((dict(trans), list(gens)))

    monkeypatch.setattr(solver, "_extend_transversal", recorded)
    spec = cp.SweepSpec(n_min=2, n_max=10)
    searches = extensions = admissions = regrown = 0
    for cs in cp.generate_instances(spec):
        for kind in ("B", "C"):
            partition = cp.arc_partition(cs, kind)
            for fix_zero in (True, False):
                admitted.clear()
                group = cp.respecting_group(cs, partition, fix_zero=fix_zero)
                base, searches = group.base, searches + 1
                extensions += len(admitted)
                admissions += len(group.strong_generators())
                for trans, gens in admitted:
                    point = next(iter(trans))
                    i = base.index(point)
                    deeper = {p for level in group.generators[i + 1 :] for p in level}
                    assert deeper <= set(gens) <= deeper | set(group.generators[i])
                    regrown += len(set(gens) - deeper) > 1  # a level's second generator or later
                    assert set(trans) == orbit_closure(point, gens)
                    assert all(t[point] == x for x, t in trans.items())
                    assert all(t[b] == b for t in trans.values() for b in base[:i])
                finished = {next(iter(trans)): trans for trans, _ in admitted}  # each level's last
                assert [finished.get(b, {b: identity(cs.n)}) for b in base] == list(group.transversals)
    assert searches == 4 * len(list(cp.generate_instances(spec)))
    assert extensions == admissions  # one extension per generator
    assert regrown > 0  # 40 of the 3,296 extensions grow an orbit that a generator already grew


def product_listing(group):
    elems = [identity(len(group.base))]
    for trans in reversed(group.transversals):  # every level, the fixed ones too
        elems = [compose(t, h) for t in trans.values() for h in elems]
    return sorted(elems)


@pytest.mark.parametrize(
    "text, kind, moving",
    [("7:1,3:d", "C", 0), ("7:1,6:u", "C", 1), ("12:1,11:u", "B", 1), ("8:2,4,6:u", "C", 3), ("6:3:u", "C", 2)],
)
def test_elements_are_the_product_listing_from_the_first_moving_level(text, kind, moving):
    g = cp.parse_instance(text)
    group = cp.respecting_group(g, cp.arc_partition(g, kind))
    assert sum(len(trans) > 1 for trans in group.transversals) == moving
    assert group.elements() == product_listing(group)


@pytest.mark.parametrize("text", ["7:1,6:u", "6:2,4:d", "6:3:u", "7:1,2,4:d", "6:1,2,3,4,5:d"])
def test_membership_sifts_through_the_transversals(text):
    # every permutation fixing 0 is in the group exactly when it is one of the listed elements
    g = cp.parse_instance(text)
    for partition in (cp.partition_by_generator(g), cp.partition_by_cycle(g)):
        group = cp.respecting_group(g, partition)
        members = set(group.elements())
        assert all((p in group) == (p in members) for p in itertools.permutations(range(g.n)) if p[0] == 0)
    # an element that sends its level's point where its key says but moves an earlier base point:
    # (0, 2, 1) then passes every lookup, and only the residue, (1, 0, 2), shows it is not a member
    one, bad = identity(3), (1, 2, 0)
    group = cp.RespectingGroup((0, 1, 2), ((), (), ()), ({0: one}, {1: one, 2: bad}, {2: one, 0: bad}), 3)
    assert (0, 2, 1) not in group


def multiplier_maps(n, elements):
    return sorted(cp.multiplier_perm(n, j) for j in cp.multipliers(n, elements))


@pytest.mark.parametrize("kind", ["B", "C"])
def test_units_of_z60_give_exactly_the_multipliers(kind):
    # 16 pairwise non-adjacent neighbours of 0: only the cycle-first order with
    # forced cycle images finishes this in milliseconds rather than minutes
    units = tuple(j for j in range(1, 60) if math.gcd(j, 60) == 1)
    g = cp.build(60, units, cp.UNDIRECTED)
    sols = cp.enumerate_respecting(g, cp.arc_partition(g, kind))
    assert len(sols) == 16
    assert sols == multiplier_maps(60, units)


@given(connection_sets(min_n=3, max_n=200, max_size=8).filter(lambda cs: math.gcd(cs.n, *cs.elements) == 1))
@settings(max_examples=100, deadline=None)
def test_connected_instances_to_n200_give_exactly_the_multipliers(cs):
    g = cp.build(cs.n, cs.elements, cs.mode)
    expected = multiplier_maps(cs.n, cs.elements)
    with search_cap(cs.n):
        for kind in ("B", "C"):
            assert cp.enumerate_respecting(g, cp.arc_partition(g, kind)) == expected


def test_connected_random_instances_match_multipliers():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        n = rng.randint(3, 32)
        size = rng.randint(1, min(6, n - 1))
        elements = tuple(sorted(rng.sample(range(1, n), size)))
        if math.gcd(n, *elements) != 1:
            continue
        mode = rng.choice((cp.DIRECTED, cp.UNDIRECTED))
        if mode == cp.UNDIRECTED:
            elements = tuple(sorted(set(elements) | {n - s for s in elements}))
        g = cp.build(n, elements, mode)
        sols = cp.enumerate_respecting(g, cp.partition_by_cycle(g))
        assert sols == sorted(cp.multiplier_perm(n, j) for j in cp.multipliers(n, elements))
        checked += 1


@pytest.mark.parametrize("text", ["8:1,2:d", "6:2,4:u", "12:4,3:d", "8:2,4,6:u"])
def test_free_group_size_is_n_times_stabilizer(text):
    # rotations respect both partitions, so the orbit of 0 is everything
    g = cp.parse_instance(text)
    for kind in ("B", "C"):
        partition = cp.arc_partition(g, kind)
        free = cp.enumerate_respecting(g, partition, fix_zero=False)
        fixed = cp.enumerate_respecting(g, partition, fix_zero=True)
        assert len(free) == g.n * len(fixed)
        assert free == sorted(free)
        assert fixed == sorted(fixed)


def test_enumerate_without_fixing_zero():
    g = cp.build(4, (1, 3), cp.UNDIRECTED)
    c = cp.partition_by_cycle(g)
    sols = cp.enumerate_respecting(g, c, fix_zero=False)
    assert len(sols) == 8  # the full dihedral group of the 4-cycle
    assert cp.brute_oracle(g, [c], fix_zero=False) == [sols]


def test_search_cap_and_oracle_limit():
    g = cp.build(70, (1,), cp.DIRECTED)
    c = cp.partition_by_cycle(g)
    with pytest.raises(cp.ResourceLimitError):
        cp.enumerate_respecting(g, c)
    g10 = cp.build(10, (1, 9), cp.UNDIRECTED)
    with pytest.raises(cp.ResourceLimitError):
        cp.brute_oracle(g10, [cp.partition_by_cycle(g10)])


def test_long_cycles_search_without_recursion():
    g = cp.build(1200, (1,), cp.DIRECTED)
    g2 = cp.build(1200, (1, 1199), cp.UNDIRECTED)
    identity_and_negation = sorted([identity(1200), cp.multiplier_perm(1200, 1199)])
    with search_cap(5000):
        assert cp.enumerate_respecting(g, cp.partition_by_cycle(g)) == [identity(1200)]
        assert cp.enumerate_respecting(g2, cp.partition_by_cycle(g2)) == identity_and_negation


def test_max_solutions_raises_instead_of_truncating():
    g = cp.build(6, (2, 4), cp.UNDIRECTED)
    c = cp.partition_by_cycle(g)
    with solution_cap(3), pytest.raises(cp.ResourceLimitError):
        cp.enumerate_respecting(g, c)
    with solution_cap(12):
        assert len(cp.enumerate_respecting(g, c)) == 12


def test_enumerate_rejects_foreign_partition():
    g = cp.parse_instance("8:1,2:d")
    other = cp.partition_by_cycle(cp.parse_instance("8:1,3:d"))
    with pytest.raises(ValueError):
        cp.enumerate_respecting(g, other)
    with pytest.raises(ValueError):
        cp.brute_oracle(g, [other])


def test_normalize_multiplier_inputs_return_themselves():
    g = cp.build(8, (1, 7), cp.UNDIRECTED)
    w = cp.normalize_to_multiplier(g, cp.multiplier_perm(8, 7))
    assert w.combined == 7
    assert w.residues == ((8, 7),)

    g6 = cp.build(6, (1, 5), cp.UNDIRECTED)
    negation = tuple((-v) % 6 for v in range(6))
    w6 = cp.normalize_to_multiplier(g6, negation)
    assert w6.combined == 5


def test_normalize_splits_residues_by_prime_power():
    g = cp.build(12, (1, 5, 7, 11), cp.UNDIRECTED)
    p = cp.multiplier_perm(12, 5)
    w = cp.normalize_to_multiplier(g, p)
    # oracle: recompute residues straight from p(1) at each prime power of 12
    assert p[1] == 5
    assert dict(w.residues) == {4: p[1] % 4, 3: p[1] % 3}
    assert dict(w.residues) == {4: 1, 3: 2}
    assert w.combined == 5


def test_normalize_round_trips_every_respecting_automorphism():
    for text in ("8:1,2:d", "5:1,4:u", "12:1,5,7,11:u", "9:1,2,7,8:u"):
        g = cp.parse_instance(text)
        c = cp.partition_by_cycle(g)
        for p in cp.enumerate_respecting(g, c):
            w = cp.normalize_to_multiplier(g, p)
            assert w is not None
            assert cp.multiplier_perm(g.n, w.combined) == p


def test_normalize_rejects_structural_violations():
    disconnected = cp.build(6, (2, 4), cp.UNDIRECTED)
    with pytest.raises(ValueError):
        cp.normalize_to_multiplier(disconnected, identity(6))
    g = cp.build(5, (1, 4), cp.UNDIRECTED)
    rotation = tuple((v + 1) % 5 for v in range(5))
    with pytest.raises(ValueError):
        cp.normalize_to_multiplier(g, rotation)  # moves 0
    with pytest.raises(ValueError):
        cp.normalize_to_multiplier(g, (0, 2, 1, 3, 4))  # not an automorphism
    with pytest.raises(ValueError):
        cp.normalize_to_multiplier(g, (0, 1, 2))  # degree mismatch


def test_normalize_fails_on_non_respecting_automorphisms():
    # K_4: swapping 1 and 2 is an automorphism fixing 0 but breaks the cycle partition
    k4 = cp.build(4, (1, 2, 3), cp.UNDIRECTED)
    swap = (0, 2, 1, 3)
    assert cp.is_automorphism(k4, swap)
    assert not cp.respects(swap, cp.partition_by_cycle(k4))
    assert cp.normalize_to_multiplier(k4, swap) is None

    # K_5: residues resolve but the global verification must miss
    k5 = cp.build(5, (1, 2, 3, 4), cp.UNDIRECTED)
    double_swap = (0, 2, 1, 4, 3)
    assert cp.is_automorphism(k5, double_swap)
    assert cp.normalize_to_multiplier(k5, double_swap) is None

    # 6:1,4:d: p agrees with j = 1 on S = {1, 4}, yet it is not the identity, and it breaks the
    # cycle partition, so the map must be checked on every vertex
    g6 = cp.parse_instance("6:1,4:d")
    fixes_s = (0, 1, 5, 3, 4, 2)
    assert cp.is_automorphism(g6, fixes_s)
    assert not cp.respects(fixes_s, cp.partition_by_cycle(g6))
    assert cp.normalize_to_multiplier(g6, fixes_s) is None


def test_normalize_succeeds_exactly_on_the_respecting_automorphisms():
    # every automorphism fixing 0 of every connected set to n = 8: those are the permutations
    # fixing 0 that map S onto S and pass the arc test
    checked = 0
    for n in range(2, 9):
        for mode, subsets in ((cp.DIRECTED, directed_subsets), (cp.UNDIRECTED, inverse_closed_subsets)):
            for elements in subsets(n):
                g = cp.build(n, elements, mode)
                if not cp.is_connected(g):
                    continue
                cycles = cp.partition_by_cycle(g)
                others = [v for v in range(1, n) if v not in elements]
                for on_s in itertools.permutations(elements):
                    for on_others in itertools.permutations(others):
                        images = dict(zip(elements + tuple(others), on_s + on_others))
                        p = tuple(images.get(v, 0) for v in range(n))
                        if not cp.is_automorphism(g, p):
                            continue
                        checked += 1
                        w = cp.normalize_to_multiplier(g, p)
                        assert (w is None) == (not cp.respects(p, cycles)), (cp.instance_key(g), p)
                        assert w is None or cp.multiplier_perm(n, w.combined) == p
    assert checked == 12_666  # 12,664 for n = 3..8, and the identity of 2:1:d and of 2:1:u


def test_propagation_full_cycle_closes_immediately():
    trace = cp.propagation_certifier(cp.parse_instance("8:1,2:d"))
    assert trace.covered
    assert len(trace.stages) == 1
    stage = trace.stages[0]
    assert stage.start == tuple(range(8))
    assert stage.rounds == ()
    assert stage.closed


def test_propagation_trace_on_two_coprime_generators():
    g = cp.parse_instance("12:4,3:d")
    expected = closure_oracle(12, (3, 4))
    assert expected == [(((7,), (10, 11), (1, 2), (5,)), frozenset(range(12)), True)]
    trace = cp.propagation_certifier(g)
    stage = trace.stages[0]
    assert stage.start == (0, 3, 4, 6, 8, 9)
    assert stage.rounds == ((7,), (10, 11), (1, 2), (5,))
    assert trace.total_rounds == 4
    assert trace.covered
    assert trace.final_fixed == tuple(range(12))
    # the stated generator order is recorded and respected
    reordered = cp.propagation_certifier(g, (4, 3))
    assert reordered.generator_order == (4, 3)
    assert reordered.covered
    assert closure_oracle(12, (4, 3))[0][0] == reordered.stages[0].rounds


def test_stages_that_run_rounds_leave_the_shared_starts_unchanged():
    graphs = [cp.build(n, elements, cp.DIRECTED) for n in range(2, 11) for elements in directed_subsets(n)]
    first = [cp.propagation_certifier(g) for g in graphs]
    assert sum(trace.total_rounds for trace in first) > 0
    assert [cp.propagation_certifier(g) for g in graphs] == first
    solver.propagation_stage.cache_clear()
    assert [cp.propagation_certifier(g) for g in graphs] == first


def test_propagation_disconnected_stays_in_span():
    trace = cp.propagation_certifier(cp.build(6, (2, 4), cp.UNDIRECTED))
    assert not trace.covered
    assert trace.final_fixed == (0, 2, 4)
    single = cp.propagation_certifier(cp.build(6, (2,), cp.DIRECTED))
    assert not single.covered
    assert single.final_fixed == (0, 2, 4)
    assert single.stages == ()


def test_propagation_agrees_with_set_closure_oracle():
    cases = [
        (12, (3, 4)),
        (12, (2, 3, 8)),
        (18, (4, 6, 9)),
        (16, (2, 4, 6)),
        (30, (6, 10, 15)),
        (24, (8, 18, 21)),
    ]
    for n, gens in cases:
        g = cp.build(n, gens, cp.DIRECTED)
        trace = cp.propagation_certifier(g)
        oracle = closure_oracle(n, gens)
        assert len(trace.stages) == len(oracle)
        for stage, (rounds, final, closed) in zip(trace.stages, oracle):
            assert stage.rounds == rounds
            assert frozenset(stage.final) == final
            assert stage.closed == closed


def test_propagation_trace_invariants():
    for n, gens in [(12, (3, 4)), (20, (4, 10, 15)), (9, (3, 6)), (14, (2, 7))]:
        trace = cp.propagation_certifier(cp.build(n, gens, cp.DIRECTED))
        step = math.gcd(n, gens[0])
        for stage in trace.stages:
            step = math.gcd(step, stage.s_next)
            enlarged = set(range(0, n, step))
            current = set(stage.start)
            assert current <= enlarged
            for added in stage.rounds:
                assert not current & set(added)  # strictly new each round
                current |= set(added)
                assert current <= enlarged
            assert current == set(stage.final)
            assert stage.coset_union_ok
            assert stage.d == math.gcd(stage.subgroup_order, stage.next_order)


def test_coset_union_check_matches_the_definition():
    from circpart.solver import _is_coset_union

    for n in range(1, 9):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            cosets = [set(range(rep, n, n // d)) for rep in range(n // d)]
            for size in range(n + 1):
                for subset in itertools.combinations(range(n), size):
                    fixed = set(subset)
                    literal = all(len(fixed & coset) in (0, d) for coset in cosets)
                    assert _is_coset_union(fixed, n, d) == literal, (n, d, subset)


def test_propagation_coverage_invariant_under_generator_order():
    for n, gens in [(12, (3, 4)), (12, (2, 3, 8)), (10, (2, 5)), (16, (4, 6))]:
        flags = {
            cp.propagation_certifier(cp.build(n, gens, cp.DIRECTED), order).covered
            for order in itertools.permutations(gens)
        }
        assert len(flags) == 1


def test_propagation_rejects_foreign_order():
    g = cp.parse_instance("12:4,3:d")
    with pytest.raises(ValueError):
        cp.propagation_certifier(g, (4, 5))


def test_propagation_rounds_cost_their_additions():
    """Circ(20002; {2, 10001}) adds one or two vertices per round, so its one stage takes 10,000
    rounds: well inside 10 s when a round tests only the successors of the last one's additions,
    about a minute when every round rescans the 20,002 members."""

    def out_of_time(signum, frame):
        raise TimeoutError("propagation_certifier took more than 10 s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        trace = cp.propagation_certifier(cp.build(20002, (2, 10001), cp.DIRECTED))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert trace.total_rounds == 10_000
    assert trace.covered


def test_coset_image_check_examples():
    g = cp.parse_instance("8:1,2:d")
    assert cp.coset_image_check(g, identity(8), (2,))
    assert cp.coset_image_check(g, identity(8), (1, 2))
    g6 = cp.build(6, (2, 4), cp.UNDIRECTED)
    odd_cycle = (0, 3, 2, 5, 4, 1)
    assert cp.coset_image_check(g6, odd_cycle, (2,))
    # a raw transposition scrambles the even coset
    assert not cp.coset_image_check(g6, (0, 2, 1, 3, 4, 5), (2,))
    assert cp.coset_image_check(g6, odd_cycle, ())
    with pytest.raises(ValueError):
        cp.coset_image_check(g6, (0, 1), (2,))


def coset_images_by_sets(n, p, subset):
    """Reference: every p(x + G) equals the coset p(x) + G, for G generated by ``subset``, as sets."""
    step = math.gcd(n, *subset) if subset else n
    subgroup = list(range(0, n, step))
    for x in range(step):
        image = {p[(x + h) % n] for h in subgroup}
        base = p[x]
        if image != {(base + h) % n for h in subgroup}:
            return False
    return True


def test_coset_image_check_agrees_with_the_set_test_on_every_permutation():
    checked = 0
    for n in range(2, 8):
        g = cp.build(n, (1,), cp.DIRECTED)
        subsets = [()] + [(d,) for d in range(1, n) if n % d == 0]
        for p in itertools.permutations(range(n)):
            for subset in subsets:
                assert cp.coset_image_check(g, p, subset) == coset_images_by_sets(n, p, subset), (p, subset)
                checked += 1
    assert checked == 13_288


def test_coset_image_check_refuses_a_non_permutation():
    # one step per vertex would pass (0,)*6 on (2,); the set test refuses it, as p(1 + G) = {0}
    g6 = cp.build(6, (2, 4), cp.UNDIRECTED)
    assert not coset_images_by_sets(6, (0,) * 6, (2,))
    with pytest.raises(ValueError):
        cp.coset_image_check(g6, (0,) * 6, (2,))


def test_coset_image_check_holds_for_respecting_automorphisms():
    for text in ("8:1,2:d", "6:2,4:u", "9:3,6:d", "8:2,4,6:u"):
        g = cp.parse_instance(text)
        c = cp.partition_by_cycle(g)
        for p in cp.enumerate_respecting(g, c):
            for size in range(len(g.elements) + 1):
                for subset in itertools.combinations(g.elements, size):
                    assert cp.coset_image_check(g, p, subset)
