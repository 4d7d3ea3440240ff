"""Permutations of Z_n as image tuples.

A permutation of degree n is a tuple p of length n with p[v] the image of
vertex v.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .circulant import ArcPartition, ConnectionSet

Perm = tuple[int, ...]
_NOT_AN_AUTOMORPHISM = "permutation is not an automorphism of the partitioned graph"


def is_permutation(p) -> bool:
    return sorted(p) == list(range(len(p)))


def multiplier_perm(n: int, j: int) -> Perm:
    """The map v -> j*v mod n for a unit j; fixes 0 and is a group automorphism."""
    if math.gcd(j % n, n) != 1:
        raise ValueError(f"{j} is not a unit mod {n}")
    return tuple((j * v) % n for v in range(n))


def is_automorphism(graph: "ConnectionSet", p: Perm) -> bool:
    """True iff p is a permutation of the vertices that maps the arc set onto itself: being
    injective on arcs, exactly when every arc's image is an arc, read through ``slot``."""
    if len(p) != graph.n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on graph of order {graph.n}")
    slot, wrapped = graph.slot, p + p  # wrapped[u+s] is p[(u+s) mod n], and slot[d-n] is slot[d]
    return is_permutation(p) and all(slot[wrapped[u + s] - pu] >= 0 for u, pu in enumerate(p) for s in graph.elements)


def part_map(p: Perm, partition: "ArcPartition") -> list[int] | None:
    """The map of part labels, as a list indexed by label, that the vertex map p
    induces on ``partition``; None when it is not well defined or not injective.
    Raises ValueError unless p is an automorphism of the partitioned graph; then
    each part maps onto a part exactly when the label map is well defined and
    injective.
    """
    graph = partition.cs
    n = graph.n
    if len(p) != n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on partition of order {n}")
    if not is_permutation(p):
        raise ValueError(_NOT_AN_AUTOMORPHISM)
    slot, labels, width = graph.slot, partition.labels, len(graph.elements)
    image = [-1] * partition.count
    clash = False
    wrapped = p + p  # wrapped[u+s] is p[(u+s) mod n], and slot[d-n] is slot[d]
    a = 0  # the index u*|S|+k of the arc (u, u+s_k)
    for u, pu in enumerate(p):
        for s in graph.elements:
            k = slot[wrapped[u + s] - pu]
            if k < 0:
                raise ValueError(_NOT_AN_AUTOMORPHISM)
            mapped = labels[pu * width + k]
            if image[labels[a]] != mapped:
                clash = clash or image[labels[a]] >= 0
                image[labels[a]] = mapped
            a += 1
    return None if clash or len(set(image)) < len(image) else image


def multiplier_part_map(j: int, partition: "ArcPartition") -> list[int] | None:
    """``part_map(multiplier_perm(n, j), partition)``, raising as it does, read off one period of the labels.

    v -> j*v sends the arc (u, u+s_k) to (ju, ju+js_k), of slot ``slot[js_k]`` whatever u is. The labels
    of u's arcs depend on u mod P, ``partition.period``, and P divides n, so both labels of the pair depend
    on u mod P only: the arcs with u < P, which hold every label, give the whole label map.
    """
    graph = partition.cs
    n, width, period, labels = graph.n, len(graph.elements), partition.period, partition.labels
    if math.gcd(j % n, n) != 1:
        raise ValueError(f"{j} is not a unit mod {n}")
    slots = [graph.slot[j * s % n] for s in graph.elements]
    if min(slots) < 0:
        raise ValueError(_NOT_AN_AUTOMORPHISM)
    image = [-1] * partition.count
    targets = [labels[j * u % period * width + k] for u in range(period) for k in slots]
    for label, mapped in set(zip(labels[: period * width], targets)):
        if image[label] >= 0:  # two images: not well defined
            return None
        image[label] = mapped
    return None if len(set(image)) < len(image) else image


def respects(p: Perm, partition: "ArcPartition") -> bool:
    """True iff p maps every part of ``partition`` onto a part.

    Defined only for automorphisms of the partitioned graph; anything else
    raises ValueError. Parts may permute among themselves, and the answer
    depends only on the parts' arc sets, not on how they are numbered.
    """
    return part_map(p, partition) is not None


def format_perm(p: Perm) -> str:
    """One-line image list, e.g. ``[0, 3, 2, 5, 4, 1]``."""
    return "[" + ", ".join(str(v) for v in p) + "]"


def parse_perm(text: str) -> Perm:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        p = tuple(int(tok) for tok in body.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"malformed permutation {text!r}: {exc}") from None
    if not is_permutation(p):
        raise ValueError(f"{text!r} is not a permutation of 0..{len(p) - 1}")
    return p
