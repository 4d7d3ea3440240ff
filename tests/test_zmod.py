import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circpart as cp
from circpart import zmod
from circpart.zmod import MultiplierWitness
from conftest import order_mod


def additive_order_oracle(n, s):
    """Iterate s, 2s, 3s, ... until 0 comes around."""
    k = 1
    x = s % n
    while x != 0:
        x = (x + s) % n
        k += 1
    return k


@pytest.mark.parametrize(
    "n, s, expected",
    [(8, 1, 8), (8, 2, 4), (8, 0, 1), (1, 0, 1)],
)
def test_order_mod_small(n, s, expected):
    assert order_mod(n, s) == expected


def test_order_mod_matches_repeated_addition():
    assert additive_order_oracle(12, 9) == 4
    assert order_mod(12, 9) == 4


@given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_order_times_gcd_is_n(pair):
    n, s = pair
    assert order_mod(n, s) * math.gcd(n, s) == n
    if s != 0:
        assert order_mod(n, s) == additive_order_oracle(n, s)


def test_order_mod_rejects_bad_residue():
    with pytest.raises(ValueError):
        order_mod(8, 8)
    with pytest.raises(ValueError):
        order_mod(0, 0)


def crt_scan_oracle(congruences):
    total = math.prod(m for _, m in congruences)
    hits = [x for x in range(total) if all(x % m == r % m for r, m in congruences)]
    assert len(hits) == 1
    return hits[0]


def test_crt_single_congruence():
    assert cp.crt_combine([(1, 8)]) == 1


def test_crt_two_primes():
    assert crt_scan_oracle([(2, 3), (3, 5)]) == 8
    assert cp.crt_combine([(2, 3), (3, 5)]) == 8


def test_crt_prime_powers():
    assert crt_scan_oracle([(1, 4), (3, 9)]) == 21
    assert cp.crt_combine([(1, 4), (3, 9)]) == 21


@st.composite
def coprime_congruences(draw):
    primes = draw(st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1, max_size=3))
    pairs = []
    for p in sorted(primes):
        m = p ** draw(st.integers(1, 2))
        pairs.append((draw(st.integers(0, m - 1)), m))
    return pairs


@given(coprime_congruences())
def test_crt_substitution_and_scan(pairs):
    x = cp.crt_combine(pairs)
    total = math.prod(m for _, m in pairs)
    assert 0 <= x < total
    for r, m in pairs:
        assert x % m == r % m
    if total <= 10_000:
        assert x == crt_scan_oracle(pairs)


def test_crt_rejects_non_coprime():
    with pytest.raises(ValueError):
        cp.crt_combine([(1, 4), (3, 6)])


def test_crt_rejects_empty():
    with pytest.raises(ValueError):
        cp.crt_combine([])


def units_scan_oracle(n, elements):
    s_set = set(elements)
    return tuple(
        j
        for j in range(1, n)
        if math.gcd(j, n) == 1 and {(j * s) % n for s in s_set} == s_set
    )


@pytest.mark.parametrize(
    "n, elements, expected",
    [
        (8, (1, 2), (1,)),
        (5, (1, 4), (1, 4)),
        (6, (2, 4), (1, 5)),
    ],
)
def test_multipliers_small(n, elements, expected):
    assert units_scan_oracle(n, elements) == expected
    assert cp.multipliers(n, elements) == expected


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.just(n), st.sets(st.integers(1, n - 1), min_size=1, max_size=6)
        )
    )
)
@settings(max_examples=150)
def test_multipliers_form_a_group(pair):
    n, elements = pair
    group = cp.multipliers(n, tuple(sorted(elements)))
    assert 1 in group
    members = set(group)
    for a in group:
        assert pow(a, -1, n) in members
        for b in group:
            assert (a * b) % n in members


def test_cached_unit_groups_are_the_units_and_give_the_multipliers():
    rng = random.Random(13)
    for n in range(2, 201):
        assert zmod._units(n) == tuple(j for j in range(n) if math.gcd(j, n) == 1)
        for _ in range(3):
            elements = tuple(sorted(rng.sample(range(1, n), rng.randint(1, min(n - 1, 6)))))
            assert cp.multipliers(n, elements) == units_scan_oracle(n, elements)
    assert cp.multipliers(12, ()) == (1, 5, 7, 11)  # every unit maps the empty set onto itself


@given(st.integers(1, 100_000))
def test_factorize_reconstructs(n):
    factors = cp.factorize(n)
    assert math.prod(p**e for p, e in factors) == n
    for p, e in factors:
        assert e >= 1
        assert all(p % d != 0 for d in range(2, p))
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_witness_validation():
    w = MultiplierWitness(((4, 1), (3, 2)), 5)
    assert w.modulus == 12
    with pytest.raises(ValueError):
        MultiplierWitness(((4, 1), (3, 2)), 7)  # 7 mod 3 = 1, not 2
    with pytest.raises(ValueError):
        MultiplierWitness(((4, 2), (3, 0)), 6)  # 6 is not a unit mod 12
    with pytest.raises(ValueError):
        MultiplierWitness(((4, 1), (3, 2)), 17)  # outside 1..11
