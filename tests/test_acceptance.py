"""Acceptance suite: the package's exit criteria, one test per numbered criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. Expensive sweeps are shared through module-scoped fixtures.
"""

import itertools
import math
import random
import time
from collections import namedtuple

import pytest

import circpart as cp
from conftest import directed_subsets, inverse_closed_subsets

TheoremRow = namedtuple(
    "TheoremRow", "graph generator_partition resp_cycle resp_generator mult_perms"
)


def _connected(n, subsets):
    for elements in subsets:
        if math.gcd(n, *elements) == 1:
            yield elements


@pytest.fixture(scope="module")
def directed_sweep():
    """Connected directed instances for n = 3..10 with both enumerations."""
    started = time.perf_counter()
    rows = []
    for n in range(3, 11):
        for elements in _connected(n, directed_subsets(n)):
            graph = cp.build(n, elements, cp.DIRECTED)
            b = cp.partition_by_generator(graph)
            c = cp.partition_by_cycle(graph)
            rows.append(
                TheoremRow(
                    graph=graph,
                    generator_partition=b,
                    resp_cycle=cp.enumerate_respecting(graph, c),
                    resp_generator=cp.enumerate_respecting(graph, b),
                    mult_perms=sorted(cp.multiplier_perm(n, j) for j in cp.multipliers(n, elements)),
                )
            )
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def undirected_sweep():
    """Connected undirected instances for n = 3..12."""
    started = time.perf_counter()
    rows = []
    for n in range(3, 13):
        for elements in _connected(n, inverse_closed_subsets(n)):
            graph = cp.build(n, elements, cp.UNDIRECTED)
            c = cp.partition_by_cycle(graph)
            rows.append(
                TheoremRow(
                    graph=graph,
                    generator_partition=None,
                    resp_cycle=cp.enumerate_respecting(graph, c),
                    resp_generator=None,
                    mult_perms=sorted(cp.multiplier_perm(n, j) for j in cp.multipliers(n, elements)),
                )
            )
    return rows, time.perf_counter() - started


@pytest.fixture(scope="module")
def oracle_sweep():
    """Every instance with n <= 8, both modes, connected or not, both kinds."""
    rows = []
    for n in range(2, 9):
        per_mode = ((cp.DIRECTED, directed_subsets(n)), (cp.UNDIRECTED, inverse_closed_subsets(n)))
        for mode, subsets in per_mode:
            for elements in subsets:
                graph = cp.build(n, elements, mode)
                partitions = [cp.arc_partition(graph, kind) for kind in ("B", "C")]
                per_kind = {
                    partition.kind: (cp.enumerate_respecting(graph, partition), brute)
                    for partition, brute in zip(partitions, cp.brute_oracle(graph, partitions))
                }
                rows.append((graph, per_kind))
    return rows


def test_01_directed_cycle_partition_gives_exactly_the_multipliers(directed_sweep):
    rows, elapsed = directed_sweep
    assert len(rows) == 981  # inclusion-exclusion over common divisors, n = 3..10
    mismatches = [cp.instance_key(r.graph) for r in rows if r.resp_cycle != r.mult_perms]
    assert mismatches == []
    assert elapsed < 300.0
    print(
        f"\n[1] directed, kind C, n=3..10: {len(rows)} connected instances, "
        f"0 mismatches in {elapsed:.1f}s PASS"
    )


def test_02_undirected_cycle_partition_gives_exactly_the_multipliers(undirected_sweep):
    rows, elapsed = undirected_sweep
    assert len(rows) == 156
    mismatches = [cp.instance_key(r.graph) for r in rows if r.resp_cycle != r.mult_perms]
    assert mismatches == []
    assert elapsed < 300.0
    print(
        f"\n[2] undirected, kind C, n=3..12: {len(rows)} connected instances, "
        f"0 mismatches in {elapsed:.1f}s PASS"
    )


def test_03_generator_partition_and_refinement_corollary(directed_sweep):
    rows, _ = directed_sweep
    b_mismatches = 0
    corollary_violations = 0
    for row in rows:
        if row.resp_generator != row.mult_perms:
            b_mismatches += 1
        for p in row.resp_cycle:
            if not cp.respects(p, row.generator_partition):
                corollary_violations += 1
    assert b_mismatches == 0
    assert corollary_violations == 0
    print(
        f"\n[3] directed, kind B, n=3..10: 0 mismatches over {len(rows)} instances; "
        f"every cycle-respecting automorphism respects the generator partition PASS"
    )


def test_04_backtracking_agrees_with_brute_force(oracle_sweep):
    assert len(oracle_sweep) == 284  # 247 directed + 37 undirected instances, n = 2..8
    discrepancies = [
        (cp.instance_key(graph), kind)
        for graph, per_kind in oracle_sweep
        for kind, (bt, brute) in per_kind.items()
        if bt != brute
    ]
    assert discrepancies == []
    print(
        f"\n[4] oracle equivalence, n<=8, both modes and kinds: "
        f"{2 * len(oracle_sweep)} enumerations, 0 discrepancies PASS"
    )


def test_05_connectivity_hypothesis_is_necessary():
    graph = cp.build(6, (2, 4), cp.UNDIRECTED)
    c = cp.partition_by_cycle(graph)
    sols = cp.enumerate_respecting(graph, c)
    assert [sols] == cp.brute_oracle(graph, [c])
    assert len(sols) == 12
    assert cp.multipliers(6, (2, 4)) == (1, 5)
    mult_perms = {cp.multiplier_perm(6, j) for j in (1, 5)}
    assert mult_perms < set(sols)
    print(
        "\n[5] Circ(6;{2,4}) undirected: 12 cycle-respecting automorphisms fixing 0 "
        "strictly contain the 2 multipliers PASS"
    )


def test_06_normalization_round_trip(directed_sweep, undirected_sweep):
    checked = 0
    for rows, _ in (directed_sweep, undirected_sweep):
        for row in rows:
            graph = row.graph
            n = graph.n
            prime_powers = [p**e for p, e in cp.factorize(n)]
            for p in row.resp_cycle:
                witness = cp.normalize_to_multiplier(graph, p)
                assert witness is not None
                assert cp.multiplier_perm(n, witness.combined) == p
                assert [q for q, _ in witness.residues] == prime_powers
                for q, j_q in witness.residues:
                    for s in graph.elements:
                        assert p[s] % q == (j_q * s) % q
                checked += 1
    print(f"\n[6] multiplier normalization: {checked} automorphisms round-tripped, 0 failures PASS")


def test_07_propagation_certifier():
    exhaustive = 0
    for n in range(2, 13):
        for elements in directed_subsets(n):
            graph = cp.build(n, elements, cp.DIRECTED)
            trace = cp.propagation_certifier(graph)
            assert trace.covered == (math.gcd(n, *elements) == 1)
            assert all(stage.coset_union_ok for stage in trace.stages)
            assert all(stage.closed for stage in trace.stages)
            exhaustive += 1

    rng = random.Random(0x5EED)
    for _ in range(500):
        n = rng.randint(2, 64)
        size = rng.randint(1, min(8, n - 1))
        elements = tuple(sorted(rng.sample(range(1, n), size)))
        trace = cp.propagation_certifier(cp.build(n, elements, cp.DIRECTED))
        assert trace.covered == (math.gcd(n, *elements) == 1)
        assert all(stage.coset_union_ok for stage in trace.stages)

    order_checked = 0
    for n in range(2, 13):
        for size in (1, 2, 3):
            for elements in itertools.combinations(range(1, n), size):
                graph = cp.build(n, elements, cp.DIRECTED)
                flags = {
                    cp.propagation_certifier(graph, order).covered
                    for order in itertools.permutations(elements)
                }
                assert len(flags) == 1
                order_checked += 1

    trace = cp.propagation_certifier(cp.parse_instance("12:4,3:d"))
    stage = trace.stages[0]
    assert stage.start == (0, 3, 4, 6, 8, 9)
    assert stage.rounds == ((7,), (10, 11), (1, 2), (5,))
    assert trace.total_rounds == 4
    assert trace.covered
    print(
        f"\n[7] propagation: coverage = connectivity on {exhaustive} exhaustive + 500 random "
        f"instances; order-invariant on {order_checked} small instances; coset invariant held; "
        f"Circ(12;{{4,3}}) closes in 4 rounds PASS"
    )


def test_08_coset_images_stay_cosets(oracle_sweep):
    checked = 0
    for graph, per_kind in oracle_sweep:
        resp_cycle = per_kind["C"][0]
        elements = graph.elements
        for p in resp_cycle:
            for size in range(len(elements) + 1):
                for subset in itertools.combinations(elements, size):
                    assert cp.coset_image_check(graph, p, subset)
            checked += 1
    print(
        f"\n[8] coset images: every subgroup-coset image is a coset for {checked} "
        f"cycle-respecting automorphisms over all subsets PASS"
    )


def test_09_parallel_sweeps_are_byte_identical(tmp_path):
    payloads = {}
    for jobs in (1, 8):
        spec = cp.SweepSpec(n_min=3, n_max=8, jobs=jobs)
        report = cp.verify_theorem(spec)
        assert report.aggregates["mismatch"] == 0
        assert report.aggregates["error"] == 0
        dest = tmp_path / f"report_jobs{jobs}.json"
        cp.export_report(report, "json", dest)
        payloads[jobs] = dest.read_bytes()
    assert payloads[1] == payloads[8]
    print(f"\n[9] determinism: jobs=1 and jobs=8 reports are byte-identical ({len(payloads[1])} bytes) PASS")
