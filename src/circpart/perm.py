"""Permutations of Z_n as image tuples.

A permutation of degree n is a tuple p of length n with p[v] the image of
vertex v.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .circulant import ArcPartition, CirculantGraph

Perm = tuple[int, ...]


def is_permutation(p) -> bool:
    return sorted(p) == list(range(len(p)))


def multiplier_perm(n: int, j: int) -> Perm:
    """The map v -> j*v mod n for a unit j; fixes 0 and is a group automorphism."""
    if math.gcd(j % n, n) != 1:
        raise ValueError(f"{j} is not a unit mod {n}")
    return tuple((j * v) % n for v in range(n))


def is_automorphism(graph: "CirculantGraph", p: Perm) -> bool:
    """True iff p is a permutation of the vertices that maps the arc set onto itself."""
    if len(p) != graph.n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on graph of order {graph.n}")
    arcs = graph.arc_set
    return is_permutation(p) and all((p[u], p[v]) in arcs for u, v in graph.arcs)


def respects(p: Perm, partition: "ArcPartition") -> bool:
    """True iff the image of the set of parts equals the set of parts.

    Defined only for automorphisms of the partitioned graph; anything else
    raises ValueError. Parts may permute among themselves. Depends only on
    the parts' arc sets, not on their metadata or order. When the part
    images are exactly the parts, they cover the arc set, so p maps it onto
    itself and is an automorphism; only otherwise is the arc set's image
    built, to tell False from a non-automorphism.
    """
    if len(p) != partition.n:
        raise ValueError(f"degree mismatch: permutation of {len(p)} on partition of order {partition.n}")
    if {frozenset((p[u], p[v]) for u, v in part.arcs) for part in partition.parts} == partition.part_keys():
        return True
    universe = partition.universe
    if {(p[u], p[v]) for u, v in universe} != universe:
        raise ValueError("permutation is not an automorphism of the partitioned graph")
    return False


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
