"""An independent count of each connected set's respecting automorphisms above the oracle limit.

``respecting_group`` finds a group through its search plan, shortcuts, forced levels and
transversals, and the sweep's verdict compares its order with |M|. A search that missed an
automorphism beyond the multiplier maps would report "match", so its orders are checked here by a
plain depth-first search that shares none of that: it reads the parts from
``conftest.parts_by_definition``, places the vertices in breadth-first order from 0, tries as the
image of each vertex every unused neighbour of a placed neighbour's image, and checks every pair
with an earlier vertex, arc for arc, keeping the map of parts injective both ways. Each leaf, with
0 fixed, is one automorphism.

Tier-1 runs it on every connected set of directed n = 10-12 and undirected n = 10-20, about 7 s
on a 2-core machine. Run it as a script on larger sweeps, one mode and an inclusive range of n:

    PYTHONPATH=src python tests/test_completeness.py directed 13 14

or, where every set is too many, on K distinct connected sets per n drawn with a seeded
``random.Random``, which takes each generator class {s, n - s} (each s if directed) with
probability 1/2; 1,000 sets of undirected n = 30 take about 7 s:

    PYTHONPATH=src python tests/test_completeness.py undirected 30 30 --sample 1000 --seed 30
"""

from __future__ import annotations

import argparse
import math
import random

import pytest

import circpart as cp
from conftest import directed_subsets, inverse_closed_subsets, parts_by_definition


def count_respecting(cs: cp.ConnectionSet, kind: str) -> int:
    """The automorphisms of Circ(n; S) that fix 0 and map each part of ``kind`` onto a part, counted one by one."""
    n = cs.n
    parts = parts_by_definition(cs, kind)
    part = [[-1] * n for _ in range(n)]  # part[u][v]: the part of the arc (u, v), -1 if it is no arc
    for index, (arcs, _, _) in enumerate(parts):
        for u, v in arcs:
            part[u][v] = index
    order, seen = [0], {0}  # breadth-first from 0 over out- and in-neighbours
    for u in order:
        for s in cs.elements:
            for w in ((u + s) % n, (u - s) % n):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
    if len(order) != n:
        raise ValueError(f"{cp.instance_key(cs)} is not connected")
    # the earlier vertices of each position, its neighbours first, so that most images fail at once;
    # the first is a neighbour, so an image of v can only be a neighbour of its image
    earlier = [sorted(order[:i], key=lambda u: part[u][v] < 0 and part[v][u] < 0) for i, v in enumerate(order)]
    neighbours = [[w for w in range(n) if part[x][w] >= 0 or part[w][x] >= 0] for x in range(n)]
    image, used = [0] * n, [False] * n
    forward, backward = [-1] * len(parts), [-1] * len(parts)  # the map of parts and its inverse

    def fits(a: int, b: int, trail: list) -> bool:
        """Can the arc of part a (or the non-arc, -1) go to that of part b? Maps a to b if a is new and b free."""
        if a < 0 or b < 0:
            return a == b
        if forward[a] < 0 and backward[b] < 0:
            forward[a], backward[b] = b, a
            trail.append(a)
        return forward[a] == b

    def place(i: int) -> int:
        if i == n:
            return 1
        v, leaves = order[i], 0
        for w in neighbours[image[earlier[i][0]]]:
            if used[w]:
                continue
            trail: list = []
            if all(
                fits(part[u][v], part[image[u]][w], trail) and fits(part[v][u], part[w][image[u]], trail)
                for u in earlier[i]
            ):
                image[v], used[w] = w, True
                leaves += place(i + 1)
                used[w] = False
            for a in trail:
                backward[forward[a]] = forward[a] = -1
        return leaves

    used[0] = True
    return place(1)


def connected_sets(mode: str, n: int):
    subsets = directed_subsets(n) if mode == cp.DIRECTED else inverse_closed_subsets(n)
    return [cp.ConnectionSet(n, elements, mode) for elements in subsets if math.gcd(n, *elements) == 1]


def sampled_sets(mode: str, n: int, k: int, rng: random.Random) -> list:
    """``k`` distinct connected sets of one mode and n, in the order first drawn; each draw takes each
    generator class {s, n - s} (each s if directed) with probability 1/2. ``k`` must not exceed the
    connected sets of n."""
    classes = range(1, n) if mode == cp.DIRECTED else range(1, n // 2 + 1)
    drawn: dict = {}
    while len(drawn) < k:
        picked = [s for s in classes if rng.random() < 0.5]
        elements = picked if mode == cp.DIRECTED else sorted({*picked, *(n - s for s in picked)})
        if elements and math.gcd(n, *elements) == 1:
            drawn.setdefault(tuple(elements), None)
    return [cp.ConnectionSet(n, elements, mode) for elements in drawn]


def disagreements(sets) -> list:
    """Each (set, kind, searched order, counted order) of ``sets`` where the two orders differ."""
    differ = []
    for cs in sets:
        for kind in "BC":
            found = cp.respecting_group(cs, cp.arc_partition(cs, kind)).order
            if found != (counted := count_respecting(cs, kind)):
                differ.append((cp.instance_key(cs), kind, found, counted))
    return differ


def test_the_count_is_the_order_of_small_groups_listed_by_hand():
    # the 6-cycle: kind B keeps {1, 5}, so v -> -v; the complete graph K_5 directed: one part per
    # generator under B, so only the multipliers 1..4; under C each cycle of 5:1,2,3,4 is its own part
    assert count_respecting(cp.ConnectionSet(6, (1, 5), cp.UNDIRECTED), "B") == 2
    assert count_respecting(cp.ConnectionSet(5, (1, 2, 3, 4), cp.DIRECTED), "B") == 4
    assert count_respecting(cp.ConnectionSet(5, (1, 2, 3, 4), cp.DIRECTED), "C") == 4
    # 6:1,4:d has the automorphism (0, 1, 5, 3, 4, 2), which respects neither partition
    assert count_respecting(cp.ConnectionSet(6, (1, 4), cp.DIRECTED), "C") == 1


@pytest.mark.parametrize(
    "mode, n", [(cp.DIRECTED, n) for n in range(10, 13)] + [(cp.UNDIRECTED, n) for n in range(10, 21)]
)
def test_the_search_finds_every_respecting_automorphism_of_each_connected_set(mode, n):
    sets = connected_sets(mode, n)
    assert len(sets) > 0 and disagreements(sets) == []


def test_a_seeded_sample_is_distinct_connected_and_fixed_by_its_seed():
    # the first 40 sets of the undirected n = 30 sample the script checks with --seed 30; n = 30 is
    # the first n with three primes
    sample = sampled_sets(cp.UNDIRECTED, 30, 40, random.Random(30))
    again = sampled_sets(cp.UNDIRECTED, 30, 40, random.Random(30))
    assert [cs.elements for cs in sample] == [cs.elements for cs in again]
    assert len({cs.elements for cs in sample}) == 40
    for cs in sample:
        assert math.gcd(30, *cs.elements) == 1 and cs.elements == tuple(sorted(30 - s for s in cs.elements)), cs
    assert disagreements(sample) == []
    small = sampled_sets(cp.DIRECTED, 5, 15, random.Random(0))  # every connected directed set of Z_5
    assert sorted(cs.elements for cs in small) == sorted(cs.elements for cs in connected_sets(cp.DIRECTED, 5))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Count each connected set's respecting automorphisms independently.")
    parser.add_argument("mode", choices=(cp.DIRECTED, cp.UNDIRECTED))
    parser.add_argument("n_min", type=int)
    parser.add_argument("n_max", type=int)
    parser.add_argument("--sample", type=int, metavar="K", help="check K distinct connected sets per n, not all")
    parser.add_argument("--seed", type=int, default=0, help="the seed of the one random.Random the samples draw from")
    args = parser.parse_args()
    rng, failed = random.Random(args.seed), False
    for n in range(args.n_min, args.n_max + 1):
        if args.sample is None:
            sets, what = connected_sets(args.mode, n), "connected sets"
        else:
            sets = sampled_sets(args.mode, n, args.sample, rng)
            what = f"connected sets drawn with random.Random({args.seed})"
        differ = disagreements(sets)
        print(f"{args.mode} n={n}: {len(sets)} {what}, {len(differ)} disagreements", flush=True)
        for row in differ:
            print("  %s kind %s: the search found %d, the count is %d" % row)
        failed |= bool(differ)
    parser.exit(1 if failed else 0)
