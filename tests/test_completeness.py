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
"""

from __future__ import annotations

import math
import sys

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


def disagreements(mode: str, n: int) -> tuple[int, list]:
    """The connected sets of one mode and n, and each (set, kind, searched order, counted order) that differ."""
    sets, differ = connected_sets(mode, n), []
    for cs in sets:
        for kind in "BC":
            found = cp.respecting_group(cs, cp.arc_partition(cs, kind)).order
            if found != (counted := count_respecting(cs, kind)):
                differ.append((cp.instance_key(cs), kind, found, counted))
    return len(sets), differ


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
    checked, differ = disagreements(mode, n)
    assert checked > 0 and differ == []


if __name__ == "__main__":
    mode, n_min, n_max = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    failed = False
    for n in range(n_min, n_max + 1):
        checked, differ = disagreements(mode, n)
        print(f"{mode} n={n}: {checked} connected sets, {len(differ)} disagreements", flush=True)
        for row in differ:
            print("  %s kind %s: the search found %d, the count is %d" % row)
        failed |= bool(differ)
    sys.exit(1 if failed else 0)
