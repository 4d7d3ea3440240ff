"""Search and certification engines.

* ``respecting_group``: the group of automorphisms (optionally fixing
  vertex 0) that respect an arc partition, computed by backtracking along
  the graph's search plan, which both kinds share, as a base, generators
  and a transversal per level and the order. The multiplier maps of S are
  offered as shortcuts: each gets the leaf's check instead of a descent.
* ``enumerate_respecting``: that group's elements, listed.
* ``brute_oracle``: the same sets computed by filtering permutations
  straight from the definitions, as an independent cross-check; it draws
  only those that map S onto p(0) + S, and one scan answers for every
  partition passed.
* ``normalize_to_multiplier``: recovers the unit j with p = (v -> j*v), one
  residue per prime power, combined by CRT, and checks it on every vertex.
* ``propagation_certifier``: the fixed-set closure, one ``propagation_stage``
  per generator, that certifies, with no reference to any automorphism, that
  pointwise-fixed generators fix every vertex exactly when the graph is
  connected; ``propagation_closure`` gives a sweep its outcome from the
  stages that can grow alone.
* ``coset_image_check``: images of cosets of a subgroup generated by part
  of the connection set are again cosets, checked by one step per vertex.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .circulant import ArcPartition, ConnectionSet, ResourceLimitError, is_connected
from .perm import Perm, is_automorphism, is_permutation, multiplier_part_map, multiplier_perm
from .perm import part_map as leaf_part_map  # respecting_group has a local list named part_map
from .zmod import MultiplierWitness, crt_combine, factorize

DEFAULT_ORACLE_LIMIT = 9
DEFAULT_SEARCH_CAP = 64
DEFAULT_MAX_SOLUTIONS = 100_000


@dataclass(frozen=True)
class RespectingGroup:
    """A group of respecting automorphisms as a stabilizer chain along ``base``.

    Write G_i for the elements that fix ``base[:i]`` pointwise.
    ``generators[i]`` holds the elements the search found at level i; those
    of levels i and up generate G_i. For each image x of ``base[i]`` under
    G_i, ``transversals[i][x]`` is one element of G_i that sends ``base[i]``
    to x. ``order`` is |G|, the product of the orbit lengths along the base.
    """

    base: tuple[int, ...]
    generators: tuple[tuple[Perm, ...], ...]
    transversals: tuple[dict, ...]
    order: int

    def strong_generators(self) -> list[Perm]:
        """Every generator, level by level; together they generate G."""
        return [p for level in self.generators for p in level]

    def __contains__(self, p: Perm) -> bool:
        """Is p in G? Sims's sift: strip, level by level, the transversal element that agrees with p; 1 must be left.
        A tuple of another degree, or one that is no permutation of Z_n, is not: a value outside Z_n strips
        to None, which no transversal holds and the identity lacks."""
        if len(p) != len(self.base):
            return False
        for point, trans in zip(self.base, self.transversals):
            if p[point] != point:  # else the transversal's element is the identity
                if (t := trans.get(p[point])) is None:
                    return False
                p = tuple(map(dict(zip(t, range(len(t)))).get, p))  # t^-1 after p
        return p == tuple(range(len(p)))

    def elements(self) -> list[Perm]:
        """Every element of G, ascending: the products of one transversal element per level.

        The deepest level whose transversal moves gives its elements as they are; only the moving
        levels above it compose, so no element is composed with an identity."""
        moving = [trans for trans in self.transversals if len(trans) > 1]
        if not moving:
            return [tuple(range(len(self.base)))]
        elems = list(moving.pop().values())
        for trans in reversed(moving):
            elems = [tuple(map(t.__getitem__, h)) for t in trans.values() for h in elems]
        elems.sort()
        return elems


def _extend_transversal(trans: dict, gens: list) -> None:
    """Grow ``trans``, closed under all of ``gens`` but the last, in place to the orbit under all of them.

    The old points are closed under the old generators, so only the new one, ``gens[-1]``, is applied
    to them; every generator is applied to the points it adds. A point gets one element, g after the
    element of the point it is first reached from, and only a new point costs a composition.
    """
    g = gens[-1]
    queue = []
    for x, t in list(trans.items()):
        if (y := g[x]) not in trans:
            trans[y] = tuple(map(g.__getitem__, t))  # g after t
            queue.append(y)
    for x in queue:
        t = trans[x]
        for h in gens:
            if (y := h[x]) not in trans:
                trans[y] = tuple(map(h.__getitem__, t))
                queue.append(y)


def respecting_group(graph: ConnectionSet, partition: ArcPartition, *, fix_zero: bool = True) -> RespectingGroup:
    """The group of automorphisms of ``graph`` respecting ``partition``, by generators.

    Depth-first assignment of vertex images along the graph's search plan
    (``ConnectionSet._search_plan``, shared by every partition of the graph):
    its cycle-first order is also the base. Two incremental invariants prune:
    each back arc of a level, between its vertex and an earlier one, must map
    to an arc, read through ``slot``, and the induced map of part labels, read
    as ``partition.labels[index]``, must stay injective in both directions
    (with matching part sizes). A vertex's candidates are the endpoints of
    arcs leaving its parent's image; once the part of its parent arc is
    mapped, only arcs of the image part qualify, which forces the rest of a
    monochromatic cycle after its first arc.

    The identity passes every check, so the identity path is laid down whole,
    unchecked, and the levels are finished one at a time from the last up.
    Level i's pass undoes its part of the lay-down, so every level above it
    holds the identity's state and every level below it is complete, and
    lists the identity's candidates for ``order[i]``; a candidate already in
    the level's orbit is skipped. A forced level is finished with no list:
    when each part lies inside one generator class
    (``partition.within_classes``), the plan's ``lone[i]`` holds and the part
    of ``order[i]``'s parent arc was mapped by a depth above i, the only
    candidate is ``order[i]`` itself. Below any other candidate a depth-first
    descent stops at the first leaf that passes a full re-check, one
    ``part_map`` pass (every arc's image is an arc, and the label map is
    well defined and injective): that leaf joins the generators of level i
    and the level's orbit is extended from the new generator
    (``_extend_transversal``). ``fix_zero`` keeps vertex 0 in place.

    Multiplier maps v -> j*v with j*S = S are shortcuts. The plan's table
    ``shortcuts[d]`` maps an image x of ``order[d]`` to a unit j != 1 of
    ``graph.multipliers`` that fixes ``order[:d]`` and sends ``order[d]`` to
    x. A candidate of an identity-path level that is outside the level's orbit
    and has a shortcut gets the leaf's re-check as the map v -> j*v, read
    over one period of the labels (``multiplier_part_map``): if it passes,
    it joins the level's generators with no descent; if not, the search
    descends into the candidate as into any other.

    Graphs of more than ``DEFAULT_SEARCH_CAP`` vertices, and partitions of
    another connection set, are refused. There is no solution cap: the group is held as at
    most n transversals of at most n elements each, whatever its order.
    """
    n = graph.n
    if n > DEFAULT_SEARCH_CAP:
        raise ResourceLimitError(f"n={n} exceeds the search cap {DEFAULT_SEARCH_CAP}")
    if partition.cs != graph:
        raise ValueError("partition does not partition this graph's arcs")

    order, outs, back, parent_arcs, lone, shortcuts = graph._search_plan
    labels, slot, part_sizes, width = partition.labels, graph.slot, partition.sizes, len(graph.elements)
    # The identity path, laid down whole: each depth maps to themselves the parts of its back arcs
    # that no earlier depth mapped, and records them for ``undo``. A depth is forced when its vertex is
    # the identity's only candidate: its parent arc is lone and its part is mapped above it.
    images = list(range(n))
    used = [True] * n
    part_map = [-1] * len(part_sizes)
    added_at: list = []
    forced: list = []
    for depth, arcs in enumerate(back):
        forced.append(partition.within_classes and lone[depth] and part_map[labels[parent_arcs[order[depth]]]] >= 0)
        added_at.append(added := [])
        for _, a, _ in arcs:
            if part_map[sp := labels[a]] < 0:
                part_map[sp] = sp
                added.append((sp, sp))
    part_map_inv = part_map.copy()
    identity = tuple(range(n))
    generators: list[list] = [[] for _ in range(n)]  # those above the current level are still empty
    found: list = []  # every generator, in the order admitted
    transversals = [{u: identity} for u in order]

    def candidates(u):
        arc = parent_arcs[u]
        if arc is None:  # a root
            return [0] if u == 0 and fix_zero else [v for v in range(n) if not used[v]]
        # the parent image's out-neighbours, ascending, along the mapped part once there is one
        mapped = part_map[labels[arc]]
        return [v for v, a in outs[images[arc // width]] if not used[v] and (mapped < 0 or labels[a] == mapped)]

    def try_assign(depth, v):
        added = []
        for w, a, leaves in back[depth]:
            pw = images[w]
            if leaves:
                k, tail = slot[pw - v], v  # slot[d - n] is slot[d]
            else:
                k, tail = slot[v - pw], pw
            if k < 0:
                break
            sp, dp = labels[a], labels[tail * width + k]
            mapped = part_map[sp]
            if mapped < 0 and part_map_inv[dp] < 0 and part_sizes[sp] == part_sizes[dp]:
                part_map[sp] = dp
                part_map_inv[dp] = sp
                added.append((sp, dp))
            elif mapped != dp:
                break
        else:
            return added
        for sp, dp in added:
            part_map[sp] = -1
            part_map_inv[dp] = -1
        return None

    def passes(check, p):  # the leaf re-check of p, a leaf or the j of a shortcut: every arc maps to
        try:  # an arc, and the label map is well defined and injective
            return check(p, partition) is not None
        except ValueError:  # an arc image that is not an arc
            return False

    def admit(level, p):
        generators[level].append(p)
        found.append(p)  # the generators of this level and deeper: levels are finished deepest first
        _extend_transversal(transversals[level], found)

    def undo(depth):
        used[images[order[depth]]] = False
        for sp, dp in added_at[depth]:
            part_map[sp] = -1
            part_map_inv[dp] = -1

    def first_leaf(top, v):
        """Map ``order[top]`` to v, then descend: the first leaf that passes, or None; all it assigned is undone."""
        untried = [iter((v,))]  # per depth from ``top`` down, an iterator over the candidates not yet tried
        while untried:
            depth = top + len(untried) - 1
            for w in untried[-1]:
                if (added := try_assign(depth, w)) is not None:
                    break
            else:  # every candidate tried: back up one depth
                untried.pop()
                if depth > top:
                    undo(depth - 1)
                continue
            images[order[depth]], used[w], added_at[depth] = w, True, added
            if depth + 1 < n:
                untried.append(iter(candidates(order[depth + 1])))
            elif passes(leaf_part_map, p := tuple(images)):
                for d in range(top, n):
                    undo(d)
                return p
            else:
                undo(depth)
        return None

    for top in reversed(range(n)):
        undo(top)  # the levels above hold the identity's state, so these are its candidates
        if forced[top]:  # order[top] alone, already in the orbit
            continue
        for v in candidates(order[top]):
            if v in transversals[top]:  # order[top] itself among them: its subtree is done
                continue
            if top < len(shortcuts) and v in shortcuts[top]:
                if passes(multiplier_part_map, j := shortcuts[top][v]):  # a generator of this level with no descent
                    admit(top, multiplier_perm(n, j))
                    continue
            if (p := first_leaf(top, v)) is not None:
                admit(top, p)

    return RespectingGroup(
        tuple(order), tuple(map(tuple, generators)), tuple(transversals), math.prod(map(len, transversals))
    )


def enumerate_respecting(graph: ConnectionSet, partition: ArcPartition, *, fix_zero: bool = True) -> list[Perm]:
    """All automorphisms of ``graph`` respecting ``partition``, ascending by image tuple.

    Computes the group with ``respecting_group`` and expands it. A group of
    more than the fixed ``DEFAULT_MAX_SOLUTIONS`` elements, read at call
    time, raises ResourceLimitError before any element is listed, so a
    refused run can never be mistaken for a complete one.
    """
    group = respecting_group(graph, partition, fix_zero=fix_zero)
    if group.order > DEFAULT_MAX_SOLUTIONS:
        raise ResourceLimitError(f"more than max_solutions={DEFAULT_MAX_SOLUTIONS} respecting automorphisms")
    return group.elements()


def _oracle_candidates(graph: ConnectionSet, fix_zero: bool):
    """Every permutation p of Z_n with p(S) = p(0) + S, each once (only p(0) = 0 when ``fix_zero``).

    For each image w of 0, an arrangement of S onto w + S times an
    arrangement of the other vertices onto the rest, laid out in vertex
    order by one ``itemgetter``.
    """
    n, elements = graph.n, graph.elements
    others = sorted(set(range(1, n)).difference(elements))
    sources = [0, *elements, *others]  # the vertex at each position of (w, *onto S, *onto the rest)
    layout = operator.itemgetter(*map(sources.index, range(n)))
    for w in (0,) if fix_zero else range(n):
        ring = [(w + s) % n for s in elements]
        rest = sorted(set(range(n)).difference(ring, (w,)))
        for onto_s in itertools.permutations(ring):
            head = (w, *onto_s)
            for onto_rest in itertools.permutations(rest):
                yield layout(head + onto_rest)


def brute_oracle(
    graph: ConnectionSet, partitions: list[ArcPartition], fix_zero: bool = True
) -> list[list[Perm]]:
    """Filter the permutations (fixing 0 when asked) straight by the definitions.

    Returns one ascending list per partition in ``partitions``, in the order
    given. One scan answers for all of them: the arc-set test does not depend
    on the partition, so each permutation is tested once for automorphy and
    each automorphism once per partition for respect. Every partition must
    be of the graph's connection set, checked before any permutation is drawn.

    Four shortcuts keep the scan short, all exact:

    * Only the permutations p with p(S) = p(0) + S are drawn: they are
      exactly those that pass every pair (0, x) of the arc test below. The
      arc (0, s) maps to an arc exactly when p(s) is in p(0) + S, so the
      arcs of 0 pass when p(S) = p(0) + S; the non-arcs (0, x) pass when p
      sends every non-neighbour x of 0 outside p(0) + S, the same condition.
      Every drawn permutation still gets the full test, the pairs of 0 last.
    * The arc test checks the smaller of the arcs and the non-arcs (ordered
      pairs of distinct vertices that are not arcs), each pair against its
      own set. A permutation p of Z_n permutes the ordered pairs of distinct
      vertices, so p maps the arcs into, hence onto, the arcs exactly when
      it maps the non-arcs onto the non-arcs. A complete graph has no
      non-arcs and passes every permutation with no check.
    * Each part's image is tested against one part only: the part that holds
      the image of its first arc. It passes when that part has the same size
      and holds every image arc; p is injective on arcs, so an image inside a
      part of its size is that part, and no other part can equal it.
    * The image family is built one part at a time and dropped at the first
      image part that is not a part: the image family then holds a set the
      family lacks, so the two cannot be equal. A family that survives is
      still compared with the family by set equality.

    Graphs with more than the fixed ``DEFAULT_ORACLE_LIMIT`` vertices are
    refused: the scan draws |S|! (n-1-|S|)! permutations per image of 0, up
    to (n-1)! for a complete graph. Deliberately shares no machinery with
    the backtracking path: the candidates come from S alone, the arc test
    reads the pair set wholesale and the respect condition is literal set
    equality between the family of parts (their arcs, from ``parts()``) and
    its image.
    """
    n = graph.n
    if n > DEFAULT_ORACLE_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}")
    if any(partition.cs != graph for partition in partitions):
        raise ValueError("partition does not partition this graph's arcs")
    pairs, pair_set = graph.arcs, graph.arc_set
    if 2 * len(pairs) > n * (n - 1):  # more arcs than non-arcs: test the non-arcs, ascending
        pairs = tuple((u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in pair_set)
        pair_set = frozenset(pairs)
    pairs = sorted(pairs, key=lambda pair: 0 in pair)  # the pairs touching 0 last: every draw passes (0, x)
    families = []
    for partition in partitions:
        parts = [arcs for arcs, _, _ in partition.parts()]
        keys = [frozenset(arcs) for arcs in parts]
        owner = {arc: key for key in keys for arc in key}
        families.append((parts, owner, set(keys)))

    found: list[list[Perm]] = [[] for _ in families]
    for p in _oracle_candidates(graph, fix_zero):
        for u, v in pairs:
            if (p[u], p[v]) not in pair_set:
                break
        else:
            for (parts, owner, part_keys), sols in zip(families, found):
                image = set()
                for arcs in parts:
                    u, v = arcs[0]
                    target = owner[p[u], p[v]]
                    if len(target) != len(arcs):
                        break
                    for u, v in arcs:
                        if (p[u], p[v]) not in target:
                            break
                    else:
                        image.add(target)
                        continue
                    break  # the target lacks an image arc
                else:
                    if image == part_keys:
                        sols.append(p)
    for sols in found:
        sols.sort()
    return found


def normalize_to_multiplier(graph: ConnectionSet, p: Perm) -> MultiplierWitness | None:
    """Recover the multiplier behind an automorphism of a connected circulant.

    For each prime power q dividing n, picks the smallest generator s not
    divisible by that prime (one exists by connectivity), solves
    p(s) = j_q * s (mod q), and combines the residues by CRT into j. Returns
    the witness exactly when p is the whole map v -> j*v; returns None when
    the construction breaks down (a residue fails to be a unit, or p is
    not that map), which happens exactly when p does not respect the cycle
    partition. Agreeing with j on S is not enough: on 6:1,4:d,
    (0, 1, 5, 3, 4, 2) fixes 1 and 4 but is no multiplier map. Structural
    violations (disconnected graph, p moving 0, p not an automorphism)
    raise ValueError instead.
    """
    n = graph.n
    if len(p) != n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on graph of order {n}")
    if not is_connected(graph):
        raise ValueError("normalization requires a connected graph")
    if p[0] != 0:
        raise ValueError("normalization requires an automorphism fixing vertex 0")
    if not is_automorphism(graph, p):
        raise ValueError("not an automorphism of the graph")

    residues = []
    for prime, exponent in factorize(n):
        q = prime**exponent
        s = next(s for s in graph.elements if s % prime != 0)
        j_q = (p[s] * pow(s % q, -1, q)) % q
        if j_q % prime == 0:
            return None  # p(s) has the wrong order mod q
        residues.append((q, j_q))
    combined = crt_combine((r, q) for q, r in residues)
    return MultiplierWitness(tuple(residues), combined) if p == multiplier_perm(n, combined) else None


class PropagationStage(NamedTuple):
    """One outer step of the closure: extending the fixed subgroup by one generator.

    ``subgroup_order`` is the order of the subgroup spanned by the previous
    generators, ``next_order`` the order of the incoming generator, and
    ``d`` their gcd; every intermediate fixed set must be a union of cosets
    of the subgroup of order d. ``rounds`` records the vertices newly added
    by each application of the closure rule.
    """

    k: int
    s_next: int
    subgroup_order: int
    next_order: int
    d: int
    start: tuple[int, ...]
    rounds: tuple[tuple[int, ...], ...]
    final: tuple[int, ...]
    closed: bool
    coset_union_ok: bool


class PropagationTrace(NamedTuple):
    n: int
    generator_order: tuple[int, ...]
    stages: tuple[PropagationStage, ...]
    final_fixed: tuple[int, ...]
    covered: bool

    @property
    def total_rounds(self) -> int:
        return sum(len(stage.rounds) for stage in self.stages)


def _is_coset_union(fixed: set, n: int, d: int) -> bool:
    """Is the set a union of cosets of the subgroup of order d?

    Those cosets are the residue classes mod n/d, of d points each. The set
    is a union of them when each class meets it in 0 or d points, that is,
    when it has d points in every class it meets.
    """
    q = n // d
    return len({x % q for x in fixed}) * d == len(fixed)


@functools.lru_cache(maxsize=64)  # a sweep's sets come in prefix order; the bound caps the memory held
def propagation_stage(n: int, step: int, gens: tuple[int, ...]) -> PropagationStage:
    """Stage k = len(gens) - 1: the subgroup of step ``step`` = gcd(n, s_1..s_k) joined with the cycle of
    s_next = s_{k+1}, then each round adds every x of the enlarged subgroup whose predecessors x - s_next
    and x - s_y (some earlier s_y) are both in the set. A later round tests only the successors of the
    last round's additions, the only vertices whose predecessors changed: its cost follows its additions.
    """
    k, s_next = len(gens) - 1, gens[-1]
    next_step = math.gcd(n, s_next)
    subgroup_order, next_order = n // step, n // next_step
    d = math.gcd(subgroup_order, next_order)
    members = range(0, n, math.gcd(step, s_next))  # the enlarged subgroup
    fixed = {*range(0, n, step), *range(0, n, next_step)}
    start, coset_ok = tuple(sorted(fixed)), _is_coset_union(fixed, n, d)
    rounds = []
    if len(start) < len(members):
        earlier, q, tested = gens[:k], n // d, members
        cosets = {x % q for x in fixed}  # the cosets of the order-d subgroup that the set meets
        while len(fixed) < len(members):
            added = tuple(
                x
                for x in tested
                if x not in fixed
                and (x - s_next) % n in fixed
                and any((x - s_y) % n in fixed for s_y in earlier)
            )
            if not added:
                break
            fixed.update(added)
            rounds.append(added)
            cosets.update(x % q for x in added)
            coset_ok = coset_ok and len(cosets) * d == len(fixed)
            tested = sorted({(a + s) % n for a in added for s in (s_next, *earlier)})  # all that can be new

    final, closed = tuple(sorted(fixed)) if rounds else start, len(fixed) == len(members)
    return PropagationStage(k, s_next, subgroup_order, next_order, d, start, tuple(rounds), final, closed, coset_ok)


def propagation_closure(n: int, gens: tuple[int, ...]) -> tuple[bool, int, bool]:
    """The closure over ``gens``: whether it covers Z_n, its rounds, and whether every stage kept its coset
    union. Only a stage whose generator s_{k+1} lies outside the subgroup of step gcd(n, s_1..s_k) is made: for
    any other, the start is that subgroup, which is the enlarged one, so it runs no round, is closed, and is a
    union of cosets of the subgroup of order d, the cycle of s_{k+1}, which it contains."""
    step, closed, rounds, coset_ok = math.gcd(n, gens[0]), True, 0, True
    for k in range(1, len(gens)):
        if gens[k] % step:
            stage = propagation_stage(n, step, gens[: k + 1])
            step, closed, coset_ok = math.gcd(step, gens[k]), closed and stage.closed, coset_ok and stage.coset_union_ok
            rounds += len(stage.rounds)
    return closed and step == 1, rounds, coset_ok


def propagation_certifier(graph: ConnectionSet, order: tuple[int, ...] | None = None) -> PropagationTrace:
    """Replay the fixed-set closure over the generators, one stage per new generator, those that cannot grow
    too. Each should close up to its enlarged subgroup; the last leaves Z_n exactly when connected."""
    n, gens = graph.n, graph.elements if order is None else tuple(order)
    if sorted(gens) != list(graph.elements):
        raise ValueError(f"order {order!r} is not an arrangement of the connection set")
    step, stages = math.gcd(n, gens[0]), []
    for k in range(1, len(gens)):
        stages.append(propagation_stage(n, step, gens[: k + 1]))
        step = math.gcd(step, gens[k])
    final_fixed = stages[-1].final if stages else tuple(range(0, n, step))
    return PropagationTrace(n, gens, tuple(stages), final_fixed, all(stage.closed for stage in stages) and step == 1)


def coset_image_check(graph: ConnectionSet, p: Perm, subset) -> bool:
    """For G the subgroup generated by ``subset``, is every p(x + G) a coset of G?

    Holds for every automorphism that respects the cycle partition. G is
    generated by its step g = gcd(n, *subset), which is n for the empty
    subset, so the check is one step per vertex: p(x + g) = p(x) mod g. For
    a permutation that says p(x + G) lies in the coset p(x) + G, and so,
    as p is injective, is all of it. Raises ValueError unless p is a
    permutation of Z_n.
    """
    n = graph.n
    if len(p) != n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on graph of order {n}")
    if not is_permutation(p):
        raise ValueError("not a permutation of the vertices")
    step = math.gcd(n, *subset)
    return all((p[(x + step) % n] - p[x]) % step == 0 for x in range(n))
