"""Arithmetic in the cyclic group of integers modulo n.

Prime factorization, Chinese remainder combination, and the group of unit
multipliers that stabilize a connection set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_residue(n: int, s: int) -> None:
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if not 0 <= s < n:
        raise ValueError(f"residue {s} outside 0..{n - 1}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer as (prime, exponent) pairs, primes ascending."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def crt_combine(congruences) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli m_i.

    Returns the unique solution modulo the product of the moduli.
    Raises ValueError if the moduli are not pairwise coprime.
    """
    pairs = list(congruences)
    if not pairs:
        raise ValueError("need at least one congruence")
    x = 0
    modulus = 1
    for residue, m in pairs:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        if math.gcd(modulus, m) != 1:
            raise ValueError(f"moduli are not pairwise coprime at {m}")
        shift = ((residue - x) * pow(modulus, -1, m)) % m
        x += modulus * shift
        modulus *= m
    return x


def multipliers(n: int, elements) -> tuple[int, ...]:
    """Units j of Z_n whose multiplication map sends the set S onto itself.

    Always contains 1 and is closed under multiplication mod n, so the
    result is a subgroup of the unit group.
    """
    s_set = frozenset(elements)
    for s in s_set:
        _check_residue(n, s)
    return tuple(
        j
        for j in range(1, n)
        if math.gcd(j, n) == 1 and {(j * s) % n for s in s_set} == s_set
    )


@dataclass(frozen=True)
class MultiplierWitness:
    """Per-prime-power residues of a multiplier, plus their combined value mod n.

    ``residues`` holds (prime-power modulus, residue) pairs; ``combined`` is
    the unique unit j mod n agreeing with every residue.
    """

    residues: tuple[tuple[int, int], ...]
    combined: int

    def __post_init__(self):
        n = 1
        for q, _ in self.residues:
            n *= q
        if n < 2:
            raise ValueError("witness needs a combined modulus of at least 2")
        if not 1 <= self.combined <= n - 1:
            raise ValueError(f"combined value {self.combined} outside 1..{n - 1}")
        for q, r in self.residues:
            if self.combined % q != r % q:
                raise ValueError(f"combined value does not reduce to {r} mod {q}")
        if math.gcd(self.combined, n) != 1:
            raise ValueError(f"combined value {self.combined} is not a unit mod {n}")

    @property
    def modulus(self) -> int:
        out = 1
        for q, _ in self.residues:
            out *= q
        return out
