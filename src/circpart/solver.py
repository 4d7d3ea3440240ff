"""Search and certification engines.

* ``respecting_group``: the group of automorphisms (optionally fixing
  vertex 0) that respect an arc partition, computed by backtracking as a
  base with one transversal per level.
* ``enumerate_respecting``: that group's elements, listed.
* ``brute_oracle``: the same sets computed by filtering every permutation,
  straight from the definitions, as an independent cross-check; one scan
  answers for every partition passed.
* ``normalize_to_multiplier``: recovers the unit j with p(s) = j*s for all
  generators s, one residue per prime power, combined by CRT.
* ``propagation_certifier``: the fixed-set closure that certifies, with no
  reference to any particular automorphism, that pointwise-fixed generators
  force every vertex to be fixed exactly when the graph is connected.
* ``coset_image_check``: images of cosets of a subgroup generated by part
  of the connection set are again cosets.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .circulant import ArcPartition, CirculantGraph, ResourceLimitError, is_connected
from .perm import Perm, is_automorphism, multiplier_perm, respects
from .zmod import MultiplierWitness, crt_combine, factorize

DEFAULT_ORACLE_LIMIT = 9
DEFAULT_SEARCH_CAP = 64
DEFAULT_MAX_SOLUTIONS = 100_000


def _search_order(graph: CirculantGraph):
    """Cycle-first vertex order from 0 (then any later components from their
    smallest vertex). Visiting ``u`` walks ``u+s, u+2s, ...`` for each
    generator ``s`` in ascending order until the walk meets a vertex already
    seen, so every generator's cycle is laid out before the search branches
    off it. Returns the order plus, for each non-root vertex, its parent:
    the previous vertex on its cycle, from which an arc points to it (the
    forward walks alone reach every vertex of a component)."""
    n = graph.n
    parents: list = [None] * n
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for s in graph.elements:
                prev, w = u, (u + s) % n
                while not seen[w]:
                    seen[w] = True
                    parents[w] = prev
                    order.append(w)
                    queue.append(w)
                    prev, w = w, (w + s) % n
    return order, parents


class RespectingGroup(NamedTuple):
    """A group of respecting automorphisms as a stabilizer chain along ``base``.

    Write G_i for the elements that fix ``base[:i]`` pointwise. For each
    image x of ``base[i]`` under G_i, ``transversals[i][x]`` is one element
    of G_i that sends ``base[i]`` to x. ``generators[i]`` holds the elements
    the search found at level i; those of levels i and up generate G_i.
    """

    base: tuple[int, ...]
    generators: tuple[tuple[Perm, ...], ...]
    transversals: tuple[dict, ...]

    @property
    def order(self) -> int:
        """|G|, the product of the orbit lengths along the base."""
        return math.prod(len(t) for t in self.transversals)

    def strong_generators(self) -> list[Perm]:
        """Every generator, level by level; together they generate G."""
        return [p for level in self.generators for p in level]

    def elements(self) -> list[Perm]:
        """Every element of G, ascending: the products of one transversal element per level."""
        elems = [tuple(range(len(self.base)))]
        for trans in reversed(self.transversals):
            if len(trans) > 1:
                elems = [tuple(map(t.__getitem__, h)) for t in trans.values() for h in elems]
        elems.sort()
        return elems

    def conjugate(self, m: Perm) -> "RespectingGroup":
        """m G m^-1 along the base m[base]: every element g becomes v -> m(g(m^-1(v))).

        When m maps one graph onto another and the parts of a partition of the
        first onto the parts of one of the second, it carries the first
        respecting group onto the second.
        """
        inverse = [0] * len(m)
        for v, w in enumerate(m):
            inverse[w] = v
        image = m.__getitem__
        done: dict = {}  # every level's transversal holds the identity

        def conj(p):
            q = done.get(p)
            if q is None:
                q = done[p] = tuple(map(image, map(p.__getitem__, inverse)))
            return q

        return RespectingGroup(
            tuple(map(image, self.base)),
            tuple([tuple(map(conj, level)) for level in self.generators]),
            tuple([{image(x): conj(t) for x, t in trans.items()} for trans in self.transversals]),
        )


def _transversal(point: int, gens, identity: Perm) -> dict:
    """For each image of ``point`` under the group ``gens`` generate, one element sending it there."""
    trans = {point: identity}
    queue = [point]
    for x in queue:
        t = trans[x]
        for g in gens:
            y = g[x]
            if y not in trans:
                trans[y] = tuple(map(g.__getitem__, t))  # g after t
                queue.append(y)
    return trans


def respecting_group(graph: CirculantGraph, partition: ArcPartition, *, fix_zero: bool = True) -> RespectingGroup:
    """The group of automorphisms of ``graph`` respecting ``partition``, by generators.

    Depth-first assignment of vertex images in the cycle-first order of
    ``_search_order``, which is also the base, pruned by two incremental
    invariants: every arc between assigned vertices must map to an arc, and
    the induced part-to-part map must stay injective in both directions
    (with matching part sizes). A vertex's candidates are the endpoints of
    arcs leaving its parent's image; once the part of its parent arc is
    mapped, only arcs of the image part qualify, which forces the rest of a
    monochromatic cycle after its first arc.

    Along the identity path each vertex tries its own image first, so the
    deeper levels are complete before a level branches, and a candidate
    already in the level's orbit is skipped. Below a non-identity choice at
    depth i the search stops at the first leaf that passes the full
    automorphism-plus-respect re-check: that leaf joins the generators of
    level i, the level's orbit is recomputed and the stack is cut back to
    depth i. ``fix_zero`` keeps vertex 0 in place. Graphs of more than
    ``DEFAULT_SEARCH_CAP`` vertices are refused. There is no solution cap:
    the group is held as at most n transversals of at most n elements each,
    whatever its order.
    """
    n = graph.n
    if n > DEFAULT_SEARCH_CAP:
        raise ResourceLimitError(f"n={n} exceeds the search cap {DEFAULT_SEARCH_CAP}")
    if partition.universe != graph.arc_set:
        raise ValueError("partition does not partition this graph's arcs")

    part_at = {arc: idx for idx, part in enumerate(partition.parts) for arc in part.arcs}
    part_sizes = tuple(len(part.arcs) for part in partition.parts)
    part_succ: list[dict] = [{} for _ in partition.parts]  # part -> vertex -> endpoints along its arcs
    incident: list[list] = [[] for _ in range(n)]  # vertex -> (other end, part, arc points out)
    directed = graph.directed
    for (u, v), idx in part_at.items():
        part_succ[idx].setdefault(u, []).append(v)
        incident[u].append((v, idx, True))
        # In undirected mode each in-arc is an out-arc reversed, in the same
        # part, so in-arc entries would double the checks and prune nothing.
        if directed:
            incident[v].append((u, idx, False))

    order, parents = _search_order(graph)
    parent_part = [None if w is None else part_at[(w, u)] for u, w in enumerate(parents)]

    images = [-1] * n
    used = [False] * n
    part_map = [-1] * len(partition.parts)
    part_map_inv = [-1] * len(partition.parts)
    identity = tuple(range(n))
    generators: list[list] = [[] for _ in range(n)]
    found: list[Perm] = []  # every generator so far; all fix the base above the current level
    transversals = [{u: identity} for u in order]

    def candidates(u, on_path):
        parent = parents[u]
        if parent is None:
            if u == 0 and fix_zero:
                return (0,)
            pool = [v for v in range(n) if not used[v]]
        else:
            mapped = part_map[parent_part[u]]
            if mapped >= 0:
                pool = part_succ[mapped].get(images[parent], ())
            else:  # every out-neighbour, ascending
                pool = sorted((images[parent] + s) % n for s in graph.elements)
            pool = [v for v in pool if not used[v]]
        if on_path:  # the identity extends the identity path, so u is always a candidate
            pool.remove(u)
            pool.insert(0, u)
        return pool

    def try_assign(u, v):
        added = []
        for w, sp, points_out in incident[u]:
            pw = images[w]
            if pw < 0:
                continue
            dp = part_at.get((v, pw) if points_out else (pw, v))
            ok = dp is not None
            if ok:
                mapped = part_map[sp]
                if mapped >= 0:
                    ok = mapped == dp
                elif part_map_inv[dp] >= 0 or part_sizes[sp] != part_sizes[dp]:
                    ok = False
                else:
                    part_map[sp] = dp
                    part_map_inv[dp] = sp
                    added.append((sp, dp))
            if not ok:
                for sp, dp in added:
                    part_map[sp] = -1
                    part_map_inv[dp] = -1
                return None
        return added

    def undo(depth):
        u = order[depth]
        used[images[u]] = False
        images[u] = -1
        for sp, dp in added_at[depth]:
            part_map[sp] = -1
            part_map_inv[dp] = -1
        added_at[depth] = None

    # Explicit depth-first stack: per depth, the candidate list, the cursor
    # into it and the part-map entries added by the current assignment.
    # ``split`` is the depth of the path's first non-identity image, n on
    # the identity path.
    pending: list = [None] * n
    cursor = [0] * n
    added_at: list = [None] * n
    split = n
    pending[0] = candidates(order[0], True)
    depth = 0
    while depth >= 0:
        u = order[depth]
        if added_at[depth] is not None:
            undo(depth)
        if depth == split:
            split = n
        on_path = split == n
        orbit = transversals[depth]
        pool = pending[depth]
        i = cursor[depth]
        while i < len(pool):
            v = pool[i]
            i += 1
            if on_path and v != u and v in orbit:
                continue
            added = try_assign(u, v)
            if added is not None:
                break
        else:
            depth -= 1
            continue
        cursor[depth] = i
        images[u] = v
        used[v] = True
        added_at[depth] = added
        if on_path and v != u:
            split = depth
        if depth + 1 < n:
            depth += 1
            pending[depth] = candidates(order[depth], split == n)
            cursor[depth] = 0
            continue
        if split == n:
            continue  # the identity
        p = tuple(images)
        if is_automorphism(graph, p) and respects(p, partition):
            generators[split].append(p)
            found.append(p)
            transversals[split] = _transversal(order[split], found, identity)
            while depth > split:
                undo(depth)
                depth -= 1

    return RespectingGroup(tuple(order), tuple(map(tuple, generators)), tuple(transversals))


def enumerate_respecting(graph: CirculantGraph, partition: ArcPartition, *, fix_zero: bool = True) -> list[Perm]:
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


def brute_oracle(
    graph: CirculantGraph, partitions: list[ArcPartition], fix_zero: bool = True
) -> list[list[Perm]]:
    """Filter every permutation (fixing 0 when asked) straight by the definitions.

    Returns one ascending list per partition in ``partitions``, in the order
    given. One scan answers for all of them: the arc-set test does not depend
    on the partition, so each permutation is tested once for automorphy and
    each automorphism once per partition for respect. Every partition is
    checked against the graph's arcs before any permutation is drawn.

    Graphs with more than the fixed ``DEFAULT_ORACLE_LIMIT`` vertices are
    refused, since the scan covers (n-1)! or n! permutations. Deliberately
    shares no machinery with the backtracking path: the arc-set image is
    compared wholesale and the respect condition is literal set equality
    between the family of parts and its image.
    """
    n = graph.n
    if n > DEFAULT_ORACLE_LIMIT:
        raise ResourceLimitError(f"n={n} exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}")
    universe = graph.arc_set
    if any(partition.universe != universe for partition in partitions):
        raise ValueError("partition does not partition this graph's arcs")
    families = [
        (partition.parts, {frozenset(part.arcs) for part in partition.parts}) for partition in partitions
    ]

    if fix_zero:
        candidates = ((0,) + rest for rest in itertools.permutations(range(1, n)))
    else:
        candidates = itertools.permutations(range(n))

    found: list[list[Perm]] = [[] for _ in families]
    for p in candidates:
        for u, v in universe:
            if (p[u], p[v]) not in universe:
                break
        else:
            for (parts, part_keys), sols in zip(families, found):
                if {frozenset((p[u], p[v]) for u, v in part.arcs) for part in parts} == part_keys:
                    sols.append(p)
    for sols in found:
        sols.sort()
    return found


def normalize_to_multiplier(graph: CirculantGraph, p: Perm) -> MultiplierWitness | None:
    """Recover the multiplier behind an automorphism of a connected circulant.

    For each prime power q dividing n, picks the smallest generator s not
    divisible by that prime (one exists by connectivity), solves
    p(s) = j_q * s (mod q), and combines the residues by CRT into j. Returns
    the witness when p(s) = j*s holds for every generator; returns None when
    the construction breaks down (a residue fails to be a unit, or the final
    verification misses), which happens exactly when p does not respect the
    cycle partition. Structural violations (disconnected graph, p moving 0,
    p not an automorphism) raise ValueError instead.
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
    for s in graph.elements:
        if p[s] != (combined * s) % n:
            return None
    return MultiplierWitness(tuple(residues), combined)


@dataclass(frozen=True)
class PropagationStage:
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


@dataclass(frozen=True)
class PropagationTrace:
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


def propagation_certifier(graph: CirculantGraph, order: tuple[int, ...] | None = None) -> PropagationTrace:
    """Replay the fixed-set closure over the generators, one stage per new generator.

    Stage k starts from the union of the subgroup spanned by the first k
    generators with the cycle of the next one, then repeatedly adds every
    vertex x of the enlarged subgroup whose two predecessors x - s_next and
    x - s_y (for some earlier generator s_y) are both already in the set.
    Each stage should close up to the enlarged subgroup; after the last
    stage the set covers Z_n exactly when the graph is connected.
    """
    n = graph.n
    if order is None:
        gens = graph.elements
    else:
        gens = tuple(order)
        if sorted(gens) != list(graph.elements):
            raise ValueError(f"order {order!r} is not an arrangement of the connection set")

    stages = []
    step = math.gcd(n, gens[0])  # the fixed subgroup starts as <s_1>
    for k in range(1, len(gens)):
        s_next = gens[k]
        subgroup_order = n // step
        next_order = n // math.gcd(n, s_next)
        d = math.gcd(subgroup_order, next_order)
        new_step = math.gcd(step, s_next)
        members = range(0, n, new_step)

        fixed = set(range(0, n, step)) | set(range(0, n, math.gcd(n, s_next)))
        start = tuple(sorted(fixed))
        coset_ok = _is_coset_union(fixed, n, d)
        earlier = gens[:k]
        rounds = []
        while True:
            added = tuple(
                x
                for x in members
                if x not in fixed
                and (x - s_next) % n in fixed
                and any((x - s_y) % n in fixed for s_y in earlier)
            )
            if not added:
                break
            fixed.update(added)
            rounds.append(added)
            coset_ok = coset_ok and _is_coset_union(fixed, n, d)

        stages.append(
            PropagationStage(
                k=k,
                s_next=s_next,
                subgroup_order=subgroup_order,
                next_order=next_order,
                d=d,
                start=start,
                rounds=tuple(rounds),
                final=tuple(sorted(fixed)),
                closed=fixed == set(members),
                coset_union_ok=coset_ok,
            )
        )
        step = new_step

    final_fixed = stages[-1].final if stages else tuple(range(0, n, step))
    covered = len(final_fixed) == n and all(stage.closed for stage in stages)
    return PropagationTrace(n, gens, tuple(stages), final_fixed, covered)


def coset_image_check(graph: CirculantGraph, p: Perm, subset) -> bool:
    """For G the subgroup generated by ``subset``, is every p(x + G) a coset of G?

    Holds for every automorphism that respects the cycle partition. The
    empty subset generates the trivial subgroup, for which the check is
    vacuous.
    """
    n = graph.n
    if len(p) != n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on graph of order {n}")
    step = math.gcd(n, *subset) if subset else n
    subgroup = list(range(0, n, step))
    for x in range(step):
        image = {p[(x + h) % n] for h in subgroup}
        base = p[x]
        if image != {(base + h) % n for h in subgroup}:
            return False
    return True
