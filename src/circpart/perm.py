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
    """True iff p is a permutation of the vertices that maps the arc set onto itself."""
    if len(p) != graph.n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on graph of order {graph.n}")
    arcs = graph.arc_set
    return is_permutation(p) and all((p[u], p[v]) in arcs for u, v in graph.arcs)


def part_map(p: Perm, source: "ArcPartition", target: "ArcPartition") -> list[int] | None:
    """The map of part labels, as a list indexed by source label, that the vertex
    map p induces from ``source``'s graph to ``target``'s; None when it is not
    well defined or not injective. Raises ValueError unless p is a permutation
    of Z_n that maps every source arc to a target arc, and so onto the target
    arcs; then each source part maps onto a target part exactly when the
    label map is well defined and injective.
    """
    n = source.cs.n
    if len(p) != n or target.cs.n != n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on partition of order {n}")
    if len(source.labels) != len(target.labels) or not is_permutation(p):
        raise ValueError(_NOT_AN_AUTOMORPHISM)
    slot, labels, image_labels, width = target.cs.slot, source.labels, target.labels, len(target.cs.elements)
    image = [-1] * source.count
    clash = False
    wrapped = p + p  # wrapped[u+s] is p[(u+s) mod n], and slot[d-n] is slot[d]
    a = 0  # the index u*|S|+k of the arc (u, u+s_k)
    for u, pu in enumerate(p):
        for s in source.cs.elements:
            k = slot[wrapped[u + s] - pu]
            if k < 0:
                raise ValueError(_NOT_AN_AUTOMORPHISM)
            mapped = image_labels[pu * width + k]
            if image[labels[a]] != mapped:
                clash = clash or image[labels[a]] >= 0
                image[labels[a]] = mapped
            a += 1
    return None if clash or len(set(image)) < len(image) else image


def respects(p: Perm, partition: "ArcPartition") -> bool:
    """True iff p maps every part of ``partition`` onto a part.

    Defined only for automorphisms of the partitioned graph; anything else
    raises ValueError. Parts may permute among themselves, and the answer
    depends only on the parts' arc sets, not on how they are numbered.
    """
    return part_map(p, partition, partition) is not None


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
