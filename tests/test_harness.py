import collections
import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import circpart as cp
from circpart import harness, solver
from conftest import directed_subsets, failing_at_n5, inverse_closed_subsets


def test_generate_instances_directed_counts_subsets():
    spec = cp.SweepSpec(n_min=4, n_max=4, modes=(cp.DIRECTED,), connectivity="all")
    got = list(cp.generate_instances(spec))
    assert len(got) == 7  # nonempty subsets of {1,2,3}
    assert all(cs.mode == cp.DIRECTED for cs in got)


def test_generate_instances_undirected_inverse_closed():
    spec = cp.SweepSpec(n_min=4, n_max=4, modes=(cp.UNDIRECTED,), connectivity="all")
    got = {cs.elements for cs in cp.generate_instances(spec)}
    assert got == {(2,), (1, 3), (1, 2, 3)}


def test_generate_instances_connected_filter():
    spec = cp.SweepSpec(n_min=5, n_max=5, modes=(cp.UNDIRECTED,), connectivity="connected")
    got = {cs.elements for cs in cp.generate_instances(spec)}
    assert got == {(1, 4), (2, 3), (1, 2, 3, 4)}
    spec = cp.SweepSpec(n_min=6, n_max=6, modes=(cp.UNDIRECTED,), connectivity="disconnected")
    got = {cs.elements for cs in cp.generate_instances(spec)}
    assert got == {(2, 4), (3,)}


def test_the_sweep_arcs_are_counted_without_generating_a_set():
    for n_max in range(2, 13):
        for modes in ((cp.DIRECTED,), (cp.UNDIRECTED,), (cp.DIRECTED, cp.UNDIRECTED)):
            spec = cp.SweepSpec(n_min=2, n_max=n_max, modes=modes)
            sets = list(cp.generate_instances(spec))
            assert harness._sweep_arcs(spec) == sum(cs.n * len(cs.elements) for cs in sets), (n_max, modes)
            # counted before the connectivity filter
            connected = dataclasses.replace(spec, connectivity="connected")
            assert harness._sweep_arcs(connected) == harness._sweep_arcs(spec)
    assert harness._sweep_arcs(cp.SweepSpec(n_min=5, n_max=4)) == 0


def test_the_arc_ceiling_admits_both_modes_to_n20_and_refuses_directed_n21_and_undirected_n38():
    ceiling, directed, undirected = harness.MAX_SWEEP_ARCS, (cp.DIRECTED,), (cp.UNDIRECTED,)
    assert harness._sweep_arcs(cp.SweepSpec(n_min=2, n_max=20)) == 180_819_942 <= ceiling
    assert harness._sweep_arcs(cp.SweepSpec(n_min=36, n_max=36, modes=undirected)) == 165_150_720 <= ceiling
    assert harness._sweep_arcs(cp.SweepSpec(n_min=21, n_max=21, modes=directed)) == 220_200_960 > ceiling
    assert harness._sweep_arcs(cp.SweepSpec(n_min=38, n_max=38, modes=undirected)) == 368_574_464 > ceiling
    assert harness._sweep_arcs(cp.SweepSpec(n_min=40, n_max=40, modes=undirected)) == 817_889_280 > ceiling
    # past the ceiling the count stops at the first n past it, and caps each exponent
    assert harness._sweep_arcs(cp.SweepSpec(n_min=2, n_max=10**9, modes=directed)) == 400_556_030
    assert ceiling < harness._sweep_arcs(cp.SweepSpec(n_min=10**9, n_max=2 * 10**9)) < 10**9 * 10**9 * 2**30


def test_the_arc_ceiling_admits_at_most_the_sets_of_both_modes_to_n20():
    # the ceiling bounds a sweep's rows too: no range under it has more sets than both modes to n = 20
    ceiling, directed, undirected = harness.MAX_SWEEP_ARCS, (cp.DIRECTED,), (cp.UNDIRECTED,)

    def sets(spec):
        ns = range(spec.n_min, spec.n_max + 1)
        return sum(2 ** (n - 1 if mode == cp.DIRECTED else n // 2) - 1 for n in ns for mode in spec.modes)

    kept = [
        spec
        for modes in (directed, undirected, (cp.DIRECTED, cp.UNDIRECTED))
        for n_min in range(2, 45)
        for n_max in range(n_min, 45)
        if harness._sweep_arcs(spec := cp.SweepSpec(n_min=n_min, n_max=n_max, modes=modes)) <= ceiling
    ]
    assert max(map(sets, kept)) == sets(cp.SweepSpec(n_min=2, n_max=20)) == 1_051_604
    assert harness._sweep_arcs(cp.SweepSpec(n_min=21, n_max=21, modes=directed)) > ceiling
    assert harness._sweep_arcs(cp.SweepSpec(n_min=38, n_max=38, modes=undirected)) > ceiling


def test_a_sweep_over_the_arc_ceiling_is_refused_before_any_set_is_made(monkeypatch):
    spec = cp.SweepSpec(n_min=2, n_max=6, modes=(cp.UNDIRECTED,))
    arcs = harness._sweep_arcs(spec)
    assert arcs == sum(cs.n * len(cs.elements) for cs in cp.generate_instances(spec)) == 192
    monkeypatch.setattr(harness, "MAX_SWEEP_ARCS", arcs)
    assert cp.verify_theorem(spec).aggregates["instances"] > 0  # at the ceiling, the sweep runs

    def unmade(*args):
        raise AssertionError("a set was made")

    monkeypatch.setattr(harness, "MAX_SWEEP_ARCS", arcs - 1)
    monkeypatch.setattr(harness, "_sweep_block", unmade)
    monkeypatch.setattr(harness, "_block_sets", unmade)
    with pytest.raises(cp.ResourceLimitError, match=f"the sweep has at least {arcs} arcs, more than the limit {arcs - 1}"):
        cp.verify_theorem(spec)


def test_blocks_concatenate_to_the_sweep_and_each_holds_the_unit_images_of_its_sets():
    # a unit j keeps n, the mode, |S|, the number of classes {s, n-s} and gcd(n, S), so j*S
    # never leaves the (n, mode, size) block of S, and a worker can group its block on its own
    for connectivity in harness.CONNECTIVITY_CHOICES:
        spec = cp.SweepSpec(n_min=2, n_max=14, connectivity=connectivity)
        blocks = harness._blocks(spec)
        assert len(blocks) == sum((n - 1) + n // 2 for n in range(2, 15))
        block_sets = [list(harness._block_sets(spec, block)) for block in blocks]
        assert [cs for sets in block_sets for cs in sets] == list(cp.generate_instances(spec))
        for (n, mode, size), sets in zip(blocks, block_sets):
            members = {cs.elements for cs in sets}
            units = [j for j in range(2, n) if math.gcd(j, n) == 1]
            for cs in sets:
                classes = {min(s, n - s) for s in cs.elements} if mode == cp.UNDIRECTED else cs.elements
                assert (cs.n, cs.mode, len(classes)) == (n, mode, size)
                assert all(tuple(sorted(j * s % n for s in cs.elements)) in members for j in units)


def report_order(key):
    n, mode, elements = key
    return n, mode, len(elements), elements


def test_an_undirected_first_sweep_comes_out_in_report_order(monkeypatch):
    # an even undirected block of k classes holds sets of 2k - 1 elements (those with n/2) and of 2k;
    # they come out in (n, mode, |S|, S) order whatever the order of ``modes``, with no sort, and every
    # set records one failure, so the failures must come out in the same order
    propagate = harness.propagation_closure
    monkeypatch.setattr(harness, "propagation_closure", lambda n, gens: (*propagate(n, gens)[:2], False))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    spec = cp.SweepSpec(n_min=2, n_max=10, modes=(cp.UNDIRECTED, cp.DIRECTED))
    generated = [(cs.n, cs.mode, cs.elements) for cs in cp.generate_instances(spec)]
    assert generated == sorted(generated, key=report_order)
    assert [elements for n, mode, elements in generated if (n, mode) == (6, cp.UNDIRECTED)] == [
        (3,), (1, 5), (2, 4), (1, 3, 5), (2, 3, 4), (1, 2, 4, 5), (1, 2, 3, 4, 5)
    ]
    directed_first = dataclasses.replace(spec, modes=(cp.DIRECTED, cp.UNDIRECTED))
    assert [(cs.n, cs.mode, cs.elements) for cs in cp.generate_instances(directed_first)] == generated
    for jobs in (1, 3):
        report = cp.verify_theorem(dataclasses.replace(spec, jobs=jobs))
        assert [(r.n, r.mode, r.elements) for r in report.instances] == generated
        keys = [cp.instance_key(cp.ConnectionSet(n, elements, mode)) for n, mode, elements in generated]
        assert report.failures == tuple(cp.SweepFailure(key, "a propagation stage broke its union of cosets") for key in keys)
        text = cp.report_to_json(report)
        other = cp.report_to_json(cp.verify_theorem(dataclasses.replace(directed_first, jobs=jobs)))
        # the same bytes up to the echo, which states the modes as given
        assert text[:text.index('"sweep": ')] == other[:other.index('"sweep": ')]
        echo = json.loads(text)["sweep"]
        assert echo == {**json.loads(other)["sweep"], "modes": [cp.UNDIRECTED, cp.DIRECTED]}


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        cp.SweepSpec(n_min=1, n_max=4)
    with pytest.raises(ValueError, match="oracle limit"):
        cp.SweepSpec(n_min=3, n_max=12, enumerator="both")
    for enumerator in ("guess", "oracle"):
        with pytest.raises(ValueError, match="enumerator"):
            cp.SweepSpec(n_min=3, n_max=4, enumerator=enumerator)
    with pytest.raises(ValueError):
        cp.SweepSpec(n_min=3, n_max=4, kinds=("D",))
    with pytest.raises(ValueError):
        cp.SweepSpec(n_min=3, n_max=4, jobs=0)
    with pytest.raises(ValueError):
        cp.SweepSpec(n_min=3, n_max=4, connectivity="sometimes")
    # a repeat would list every block twice, or echo the kind twice
    with pytest.raises(ValueError, match="modes must be distinct"):
        cp.SweepSpec(n_min=3, n_max=4, modes=(cp.DIRECTED, cp.DIRECTED))
    with pytest.raises(ValueError, match="kinds must be distinct"):
        cp.SweepSpec(n_min=3, n_max=4, kinds=("B", "B"))
    # a str would pass as its letters, and the report would echo it as a str
    with pytest.raises(ValueError, match="kinds must be distinct"):
        cp.SweepSpec(n_min=3, n_max=4, kinds="BC")
    with pytest.raises(ValueError, match="modes must be distinct"):
        cp.SweepSpec(n_min=3, n_max=4, modes=cp.DIRECTED)


def recording(monkeypatch, *names):
    """Record the first argument of every call the harness makes to each named function."""
    import circpart.harness as harness

    calls = collections.defaultdict(list)
    for name in names:
        def wrapper(first, *args, _name=name, _real=getattr(harness, name), **kwargs):
            calls[_name].append(first)
            return _real(first, *args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)
    return calls


def test_a_sweep_makes_each_set_once_and_frees_it_after_its_row(monkeypatch):
    import circpart.harness as harness

    spec = cp.SweepSpec(n_min=2, n_max=8, modes=(cp.DIRECTED,), jobs=1)
    sets = [(cs.n, cs.elements, cs.mode) for cs in cp.generate_instances(spec)]
    counts = collections.Counter()
    done = []  # the key of, and a weak reference to, each set whose row is out
    held = []  # the keys of those still alive at a later check; the sweep turns an exception into a row

    def counted(name, fn):
        def wrapper(cs):
            counts[name, (cs.n, cs.elements, cs.mode)] += 1
            return fn(cs)

        return wrapper

    def freeing(original):  # the set to check is the one ConnectionSet argument
        def wrapper(*args):
            gc.collect()
            # no earlier set, nor what it cached, is still held: not even a representative
            # whose orbit is still being derived
            held.extend(key for key, ref in done if ref() is not None)
            (cs,) = [arg for arg in args if isinstance(arg, cp.ConnectionSet)]
            done.append((cp.instance_key(cs), weakref.ref(cs)))
            return original(*args)

        return wrapper

    plans = collections.defaultdict(list)  # per set, the plan each of its searches reads; it holds no set
    respecting_group = harness.respecting_group

    def searched(graph, partition, **kwargs):
        plans[graph.n, graph.elements, graph.mode].append(graph._search_plan)
        return respecting_group(graph, partition, **kwargs)

    monkeypatch.setattr(cp.ConnectionSet, "__post_init__", counted("validate", cp.ConnectionSet.__post_init__))
    for name in ("slot", "multipliers", "_search_plan", "arcs"):
        cached = cp.ConnectionSet.__dict__[name]
        monkeypatch.setattr(cached, "func", counted(name, cached.func))
    for name in ("_check_instance", "_derived"):
        monkeypatch.setattr(harness, name, freeing(getattr(harness, name)))
    monkeypatch.setattr(harness, "respecting_group", searched)
    report = cp.verify_theorem(spec)
    assert held == []
    assert len(report.instances) == len(sets) == len(done) == 247 and report.failures == ()
    # the generated set is the graph: no second set is made, and no arc tuple is ever built; only the
    # representative of each unit orbit, whose row the others take, computes its M, once (a derived
    # set never does), and builds a slot table and a search plan, and its kinds B and C search with
    # that one plan, whose shortcut table is empty exactly when M is {1}
    reps = {(n, rep, cp.DIRECTED) for n in range(2, 9) for rep in unit_orbit_minima(n, directed_subsets(n))}
    assert len(reps) == 92
    built = {(name, key): 1 for key in reps for name in ("multipliers", "slot", "_search_plan")}
    assert counts == {("validate", key): 1 for key in sets} | built
    assert plans.keys() == reps and all(len(read) == 2 and read[0] is read[1] for read in plans.values())
    assert all(bool(read[0][-1]) == (len(cp.multipliers(*key[:2])) > 1) for key, read in plans.items())


def unit_orbit_minima(n, subsets):
    """The least set of each orbit of S -> j*S under the units j of Z_n, by size then lexicographically."""
    units = [j for j in range(1, n) if math.gcd(j, n) == 1]
    minima = {min(tuple(sorted(j * s % n for s in elements)) for j in units) for elements in subsets}
    return sorted(minima, key=lambda rep: (len(rep), rep))


def test_sweeps_search_once_per_unit_orbit_and_check_every_set(monkeypatch):
    calls = recording(monkeypatch, "respecting_group", "normalize_to_multiplier", "coset_image_check", "brute_oracle")
    propagate = harness.propagation_closure

    def propagated(n, gens):
        calls["propagation_closure"].append((n, gens))
        return propagate(n, gens)

    monkeypatch.setattr(harness, "propagation_closure", propagated)
    spec = cp.SweepSpec(n_min=2, n_max=10, modes=(cp.DIRECTED,))
    report = cp.verify_theorem(spec)
    minima = [(n, rep) for n in range(2, 11) for rep in unit_orbit_minima(n, directed_subsets(n))]
    assert len(minima) == 282 and len(report.instances) == 1013
    # two searches per orbit, kinds B and C, on its least set
    assert [(g.n, g.elements) for g in calls["respecting_group"]] == [pair for pair in minima for _ in "BC"]
    assert sorted(calls["propagation_closure"]) == sorted((cs.n, cs.elements) for cs in cp.generate_instances(spec))
    # each generator of a representative's cycle-respecting group that is not one of its multiplier
    # maps, which pass both checks by construction, is normalized once if the set is connected and
    # coset-checked once per step; here only disconnected representatives have such generators
    normalized, coset_checked, skipped = [], [], 0
    for n, rep in minima:
        g = cp.build(n, rep, cp.DIRECTED)
        maps = {cp.multiplier_perm(n, j) for j in cp.multipliers(n, rep)}
        generators = cp.respecting_group(g, cp.partition_by_cycle(g)).strong_generators()
        others = [p for p in generators if p not in maps]
        skipped += len(generators) - len(others)
        steps = ({math.gcd(n, s) for s in rep} | {math.gcd(n, *rep)}) - {1}
        normalized += [(n, rep)] * len(others) * cp.is_connected(g)
        coset_checked += [(n, rep)] * len(others) * len(steps)
    assert [(g.n, g.elements) for g in calls["normalize_to_multiplier"]] == normalized
    assert [(g.n, g.elements) for g in calls["coset_image_check"]] == coset_checked
    assert len(coset_checked) > 0 and skipped > 0
    assert report.failures == () and report.aggregates["mismatch"] == 0

    calls.clear()
    report = cp.verify_theorem(cp.SweepSpec(n_min=2, n_max=6, enumerator="both"))
    # the oracle-checked reference searches and scans every set on its own
    assert len(calls["respecting_group"]) == 2 * len(report.instances)
    assert len(calls["brute_oracle"]) == len(report.instances) == 72
    assert report.failures == ()


@pytest.mark.parametrize(
    "rep, member, j, message, carried",
    [
        ("7:1,2:d", "7:3,6:d", 5, "5 times the set of 7:1,2:d is [3, 5], not this set", None),
        ("8:1,5:d", "8:2:d", 1, "1 times the set of 8:1,5:d is [1, 5], not this set", None),
        ("8:1:d", "8:2:d", 3, "3 times the set of 8:1:d is [3], not this set", None),
        ("8:1:d", "8:3:d", 3, "multiplier 5 of 8:1:d maps this set to [7]", (1, 5)),
    ],
)
def test_a_set_its_unit_does_not_reach_gets_an_error_row(rep, member, j, message, carried):
    # 3 * {1, 2} = {3, 6} mod 7, so 5 = 3^-1 is the wrong unit. {2} lies in another orbit than
    # {1, 5}, with the same multipliers but 4 cycle-respecting automorphisms to its 2, and in
    # another orbit than {1}, with other multipliers. {3} = 3 * {1}, but carried with the
    # multipliers of {2}, {1, 5}, {1} brings a unit that does not map {3} onto itself. Each
    # raises, never giving the representative's counts
    import circpart.harness as harness

    spec = cp.SweepSpec(n_min=7, n_max=8, modes=(cp.DIRECTED,))
    failures = []
    source = cp.parse_instance(rep)
    orbit = harness._check_instance(spec, source, failures)
    assert (orbit[-1], failures) == ("match", [])
    units = source.multipliers if carried is None else carried
    with pytest.raises(ValueError) as raised:
        harness._derived(rep, source.elements, orbit, units, cp.parse_instance(member), j)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "name, failing, message",
    [
        (
            "_derived",
            lambda real: lambda rep, elements, orbit, units, cs, j: real(
                rep, elements, orbit, units + (6,) if cs.elements == (3, 6) else units, cs, j
            ),
            "ValueError: multiplier 6 of 7:1,2:d maps this set to [1, 4]",
        ),
        (
            "propagation_closure",
            lambda real: lambda n, gens: 1 / 0 if gens == (3, 6) else real(n, gens),
            "ZeroDivisionError: division by zero",
        ),
    ],
    ids=["multipliers", "trace"],
)
def test_a_derived_set_whose_check_fails_gets_an_error_row_and_the_rest_of_its_orbit_is_derived(
    monkeypatch, name, failing, message
):
    # {3, 6} = 3 * {1, 2} mod 7 is not its orbit's representative; made to carry, as {1, 2}'s, a
    # multiplier 6 that does not map it onto itself, or to raise in its own propagation, it gets an
    # error row, while the orbit's other four sets still take {1, 2}'s row
    spec = cp.SweepSpec(n_min=7, n_max=7, modes=(cp.DIRECTED,))
    clean = cp.verify_theorem(spec)
    monkeypatch.setattr(harness, name, failing(getattr(harness, name)))
    calls = recording(monkeypatch, "respecting_group")
    report = cp.verify_theorem(spec)
    assert report.failures == (cp.SweepFailure("7:3,6:d", message),)
    (row,) = [row for row in report.instances if row.elements == (3, 6)]
    assert (row.verdict, row.connected) == ("error", True)
    assert (row.parts_b, row.parts_c, row.aut_b, row.aut_c, row.multiplier_count) == (None,) * 5
    assert (row.prop_covered, row.prop_rounds) == (None, None)
    assert [row for row in report.instances if row.elements != (3, 6)] == [
        row for row in clean.instances if row.elements != (3, 6)
    ]
    orbit = {tuple(sorted(j * s % 7 for s in (1, 2))) for j in range(1, 7)}
    searched = [g.elements for g in calls["respecting_group"]]
    assert len(orbit) == 6 and [elements for elements in searched if elements in orbit] == [(1, 2), (1, 2)]


def one_set_orbits(monkeypatch):
    """Make every sweep check each set in full, as its own unit orbit: with 1 the only unit, no set is an image."""
    monkeypatch.setattr(harness, "_units", lambda n: (1,))


def test_a_representative_that_records_a_failure_leaves_its_orbit_to_a_check_per_set(monkeypatch):
    # {2} ~ {4} mod 6, with multipliers {1}; Circ(6; {2}) is two directed triangles, and its kind-C
    # group turns the one without 0 by its one generator, no multiplier map, so its coset check on
    # the step 2 runs. A coset check that fails on the representative alone fails no other set, and
    # the other is searched on its own
    spec = cp.SweepSpec(n_min=6, n_max=6, modes=(cp.DIRECTED,))
    check = harness.coset_image_check
    monkeypatch.setattr(
        harness, "coset_image_check", lambda g, p, subset: g.elements != (2,) and check(g, p, subset)
    )
    calls = recording(monkeypatch, "respecting_group")
    report = cp.verify_theorem(spec)
    searched = [g.elements for g in calls["respecting_group"]]
    assert all(searched.count(elements) == 2 for elements in ((2,), (4,)))
    assert {f.instance for f in report.failures} == {"6:2:d"}
    assert [f.message for f in report.failures] == ["coset image check failed for (0, 3, 2, 5, 4, 1) on (2,)"]
    one_set_orbits(monkeypatch)
    per_set = cp.verify_theorem(spec)
    assert (report.instances, report.failures) == (per_set.instances, per_set.failures)


def test_derived_rows_equal_a_check_per_set(monkeypatch):
    # every row but each orbit's first is derived from the first; checked on its own, every set
    # gives the same row (timings aside) and the same failures
    specs = [
        cp.SweepSpec(n_min=2, n_max=12, modes=(cp.DIRECTED,)),
        cp.SweepSpec(n_min=2, n_max=16, modes=(cp.UNDIRECTED,)),
    ]
    derived = [cp.verify_theorem(spec) for spec in specs]
    orbits = [
        sum(len(unit_orbit_minima(n, subsets(n))) for n in range(2, n_max + 1))
        for subsets, n_max in ((directed_subsets, 12), (inverse_closed_subsets, 16))
    ]
    assert [len(report.instances) for report in derived] == [4083, 749] and orbits == [1012, 298]
    one_set_orbits(monkeypatch)
    for spec, report in zip(specs, derived):
        per_set = cp.verify_theorem(spec)
        assert report.instances == per_set.instances
        assert report.failures == per_set.failures == ()


def recorded_stages(monkeypatch):
    """Record every request to ``solver.propagation_stage`` as its arguments and the stage it returns."""
    stage, made = solver.propagation_stage, []

    def recording_stage(n, step, gens):
        made.append(((n, step, gens), stage(n, step, gens)))
        return made[-1][1]

    monkeypatch.setattr(solver, "propagation_stage", recording_stage)
    return made


@pytest.mark.parametrize("connectivity", harness.CONNECTIVITY_CHOICES)
def test_the_closure_gives_each_set_the_certifiers_coverage_and_rounds(monkeypatch, connectivity):
    # the closure makes only some of a set's stages, each the certifier's stage at the same k; every
    # stage it skips adds no round, closes on its start and keeps its coset union in the certifier's trace
    made = recorded_stages(monkeypatch)
    for mode, n_max in ((cp.DIRECTED, 14), (cp.UNDIRECTED, 22)):
        spec = cp.SweepSpec(n_min=2, n_max=n_max, modes=(mode,), connectivity=connectivity)
        for cs in cp.generate_instances(spec):
            trace = cp.propagation_certifier(cs)
            coset_ok = all(stage.coset_union_ok for stage in trace.stages)
            made.clear()
            assert solver.propagation_closure(cs.n, cs.elements) == (trace.covered, trace.total_rounds, coset_ok), cs
            assert all(stage == trace.stages[stage.k - 1] for _, stage in made), cs
            skipped = [stage for stage in trace.stages if stage.k not in {kept.k for _, kept in made}]
            assert all(
                (stage.rounds, stage.final, stage.closed, stage.coset_union_ok) == ((), stage.start, True, True)
                for stage in skipped
            ), cs


def test_sweeps_make_only_the_propagation_stages_that_can_grow(monkeypatch):
    # a stage whose generator is a multiple of the step so far starts as the enlarged subgroup, so no
    # sweep asks for one; the count pins the stages asked for, cache hits included
    made = recorded_stages(monkeypatch)
    counts = []
    for mode, n_max in ((cp.DIRECTED, 12), (cp.UNDIRECTED, 16)):
        made.clear()
        report = cp.verify_theorem(cp.SweepSpec(n_min=2, n_max=n_max, modes=(mode,)))
        assert report.failures == ()
        assert all(gens[-1] % step != 0 for (_, step, gens), _ in made)
        counts.append(len(made))
    assert counts == [1208, 159]


def test_a_set_after_one_whose_propagation_raised_gets_the_certifiers_coverage_and_rounds(monkeypatch):
    # the stage of s_1, s_2 = 3, 4 mod 9, which grows <3> to Z_9, raises: each set that begins with them
    # raises, and every other set still gets the certifier's numbers, traced before the stage was made to
    # raise, since the certifier reads the same stage function
    spec = cp.SweepSpec(n_min=9, n_max=9, modes=(cp.DIRECTED,))
    traces = [(cs, cp.propagation_certifier(cs)) for cs in cp.generate_instances(spec)]
    stage = solver.propagation_stage

    def failing(n, step, gens):
        if gens == (3, 4):
            raise ZeroDivisionError
        return stage(n, step, gens)

    monkeypatch.setattr(solver, "propagation_stage", failing)
    raised = []
    for cs, trace in traces:
        try:
            assert solver.propagation_closure(cs.n, cs.elements)[:2] == (trace.covered, trace.total_rounds), cs
        except ZeroDivisionError:
            raised.append(cs.elements)
    assert len(raised) == 16 and all(elements[:2] == (3, 4) for elements in raised)


def test_a_stage_that_breaks_its_coset_union_is_a_failure_of_each_set_whose_walk_includes_it(monkeypatch):
    # made to report its fixed sets as no union of cosets, the stage of s_1, s_2 = 3, 4 mod 9 is a
    # failure of exactly the 16 sets that begin with them; every row stays as it was
    spec = cp.SweepSpec(n_min=8, n_max=9, modes=(cp.DIRECTED,))
    clean = cp.verify_theorem(spec)
    stage = solver.propagation_stage

    def broken(n, step, gens):
        made = stage(n, step, gens)
        return made._replace(coset_union_ok=False) if (n, gens) == (9, (3, 4)) else made

    monkeypatch.setattr(solver, "propagation_stage", broken)
    report = cp.verify_theorem(spec)
    walked = [cs for cs in cp.generate_instances(spec) if (cs.n, cs.elements[:2]) == (9, (3, 4))]
    assert len(walked) == 16 and clean.failures == ()
    message = "a propagation stage broke its union of cosets"
    assert report.failures == tuple(cp.SweepFailure(cp.instance_key(cs), message) for cs in walked)
    assert report.instances == clean.instances


def test_the_orbit_of_a_failing_representative_is_searched_set_by_set(monkeypatch):
    import circpart.harness as harness

    spec = cp.SweepSpec(n_min=7, n_max=7, modes=(cp.DIRECTED,))
    clean = cp.verify_theorem(spec)
    propagate = harness.propagation_closure
    monkeypatch.setattr(harness, "propagation_closure", lambda n, gens: 1 / 0 if gens == (1, 2) else propagate(n, gens))
    calls = recording(monkeypatch, "respecting_group")
    report = cp.verify_theorem(spec)
    assert report.failures == (cp.SweepFailure("7:1,2:d", "ZeroDivisionError: division by zero"),)
    assert [row for row in report.instances if row.elements != (1, 2)] == [
        row for row in clean.instances if row.elements != (1, 2)
    ]
    orbit = {tuple(sorted(j * s % 7 for s in (1, 2))) for j in range(1, 7)}
    searched = [g.elements for g in calls["respecting_group"]]
    assert len(orbit) == 6 and all(searched.count(elements) == 2 for elements in orbit)


def test_sweeps_count_and_certify_without_listing(monkeypatch):
    # only enumerator="both" lists a group, to compare it with the oracle
    monkeypatch.setattr(cp.RespectingGroup, "elements", None)
    spec = cp.SweepSpec(n_min=2, n_max=12, modes=(cp.UNDIRECTED,), connectivity="disconnected")
    report = cp.verify_theorem(spec)
    assert report.failures == ()
    assert {row.verdict for row in report.instances} == {"match", "expected-mismatch"}
    assert max(row.aut_c for row in report.instances) == 3840  # 12:6:u, six edges


def test_sweeps_never_pass_the_identity_to_respects(monkeypatch):
    import circpart.harness as harness

    seen, sifted = [], []
    real, sift = harness.respects, cp.RespectingGroup.__contains__

    def recording(p, partition):
        seen.append(p)
        return real(p, partition)

    def sifting(group, p):
        sifted.append(p)
        return sift(group, p)

    monkeypatch.setattr(harness, "respects", recording)
    monkeypatch.setattr(cp.RespectingGroup, "__contains__", sifting)
    spec = cp.SweepSpec(n_min=2, n_max=9)
    report = cp.verify_theorem(spec)
    assert report.failures == ()
    assert all(p != tuple(range(len(p))) for p in seen + sifted)
    # on each representative: every other multiplier, once per kind, sifted through that kind's
    # group, and every generator of G_B, and of G_C when connected, against the other kind's partition,
    # except on a connected one where both groups equal M, so G_B = M = G_C
    multipliers = generators = skipped = 0
    for mode, subsets in ((cp.DIRECTED, directed_subsets), (cp.UNDIRECTED, inverse_closed_subsets)):
        for g in (cp.build(n, rep, mode) for n in range(2, 10) for rep in unit_orbit_minima(n, subsets(n))):
            ms = cp.multipliers(g.n, g.elements)
            multipliers += 2 * (len(ms) - 1)
            gb, gc = (cp.respecting_group(g, cp.arc_partition(g, kind)) for kind in ("B", "C"))
            if cp.is_connected(g) and sorted(gb.elements()) == sorted(gc.elements()) == sorted(
                cp.multiplier_perm(g.n, j) for j in ms
            ):
                skipped += 1
                continue
            generators += len(gb.strong_generators())
            if cp.is_connected(g):
                generators += len(gc.strong_generators())
    assert len(sifted) == multipliers > 0 and len(seen) == generators > 0 and skipped > 0


def test_sweeps_check_each_multiplier_and_each_generator(monkeypatch):
    # the real checks never fail, so stubs that always fail show what the sweep checks
    import circpart.harness as harness

    monkeypatch.setattr(cp.RespectingGroup, "__contains__", lambda group, p: p == tuple(range(len(p))))
    monkeypatch.setattr(harness, "coset_image_check", lambda graph, p, subset: False)
    monkeypatch.setattr(harness, "normalize_to_multiplier", lambda graph, p: None)
    spec = cp.SweepSpec(n_min=6, n_max=6, modes=(cp.UNDIRECTED,), kinds=("C",))
    report = cp.verify_theorem(spec)
    # j = 5 is a multiplier of every inverse-closed set, and it no longer sifts through the group
    assert {row.verdict for row in report.instances} == {"mismatch"}
    expected, skipped = set(), 0
    for cs in cp.generate_instances(spec):
        g = cp.build(cs.n, cs.elements, cs.mode)
        # one check per distinct proper subgroup <s> or <S>, on its step gcd(n, ...) above 1
        steps = ({math.gcd(cs.n, s) for s in cs.elements} | {math.gcd(cs.n, *cs.elements)}) - {1}
        maps = {cp.multiplier_perm(cs.n, j) for j in cs.multipliers}
        for p in cp.respecting_group(g, cp.partition_by_cycle(g)).strong_generators():
            if p in maps:  # a multiplier map passes both checks by construction, and is not checked
                skipped += 1
                continue
            expected |= {(cp.instance_key(cs), f"coset image check failed for {p} on {(step,)}") for step in steps}
            if cp.is_connected(g):
                expected.add((cp.instance_key(cs), f"multiplier normalization failed for {p}"))
    assert {(f.instance, f.message) for f in report.failures} == expected
    assert len(report.failures) == len(expected) > 0 and skipped > 0


def test_a_generator_that_is_no_multiplier_map_is_checked_whatever_its_image_of_1(monkeypatch):
    # (0, 1, 5, 3, 4, 2) is an automorphism of Circ(6; {1, 4}) that fixes 1, a unit, yet is no
    # multiplier map: added to that set's kind-C generators, it fails normalization and the coset
    # check on the step 2, with the messages a check of every generator gives it, while the
    # multiplier-map generators of every set reach neither check
    spec = cp.SweepSpec(n_min=6, n_max=6, modes=(cp.DIRECTED,))
    clean = cp.verify_theorem(spec)
    extra, search, checked = (0, 1, 5, 3, 4, 2), harness.respecting_group, []
    found = []  # (set, generator) for every kind-C generator the search found that is a multiplier map

    def with_extra(graph, partition, **kwargs):
        group = search(graph, partition, **kwargs)
        if partition.kind == "C":
            maps = {cp.multiplier_perm(graph.n, j) for j in graph.multipliers}
            found.extend((cp.instance_key(graph), p) for p in group.strong_generators() if p in maps)
            if graph.elements == (1, 4):
                return dataclasses.replace(group, generators=((*group.generators[0], extra), *group.generators[1:]))
        return group

    def recorded(name):
        real = getattr(harness, name)

        def record(graph, p, *args):
            checked.append((name, cp.instance_key(graph), p))
            return real(graph, p, *args)

        return record

    monkeypatch.setattr(harness, "respecting_group", with_extra)
    for name in ("normalize_to_multiplier", "coset_image_check"):
        monkeypatch.setattr(harness, name, recorded(name))
    report = cp.verify_theorem(spec)
    assert report.failures == (
        cp.SweepFailure("6:1,4:d", "multiplier normalization failed for (0, 1, 5, 3, 4, 2)"),
        cp.SweepFailure("6:1,4:d", "coset image check failed for (0, 1, 5, 3, 4, 2) on (2,)"),
    )
    assert report.instances == clean.instances and clean.failures == ()
    assert [(key, p) for name, key, p in checked if name == "normalize_to_multiplier"] == [("6:1,4:d", extra)]
    assert ("coset_image_check", "6:1,4:d", extra) in checked
    assert len(found) > 0 and not {(key, p) for _, key, p in checked} & set(found)


def test_a_sweep_checks_the_multipliers_against_the_transversals_the_search_found(monkeypatch):
    # each element of the first nontrivial transversal of every kind-B group is made to stand for
    # the next point of its orbit; the order and the generators stay, so only a check that reads
    # the transversals sees that a multiplier moving that level's point is no longer in the group
    spec = cp.SweepSpec(n_min=2, n_max=10)
    clean = cp.verify_theorem(spec)
    search = harness.respecting_group

    def moved(graph, partition, **kwargs):
        group = search(graph, partition, **kwargs)
        levels = [i for i, trans in enumerate(group.transversals) if len(trans) > 1]
        if partition.kind != "B" or not levels:
            return group
        trans = group.transversals[levels[0]]
        points = list(trans)
        corrupted = dict(zip(points[1:] + points[:1], trans.values()))
        transversals = group.transversals[: levels[0]] + (corrupted,) + group.transversals[levels[0] + 1 :]
        return dataclasses.replace(group, transversals=transversals)

    monkeypatch.setattr(harness, "respecting_group", moved)
    report = cp.verify_theorem(spec)
    # on a connected set G_B is M, so a set with a multiplier other than 1 has a nontrivial
    # transversal, and some multiplier moves its point
    assert clean.aggregates["mismatch"] == 0 and report.failures == clean.failures == ()
    for row, before in zip(report.instances, clean.instances):
        if row.connected:
            assert row.verdict == ("mismatch" if row.multiplier_count > 1 else "match")
        assert dataclasses.replace(row, verdict=before.verdict) == before
    assert report.aggregates["mismatch"] > 0


def test_a_failing_instance_does_not_abort_the_sweep(monkeypatch):
    spec = cp.SweepSpec(n_min=2, n_max=6, modes=(cp.DIRECTED,))
    clean = cp.verify_theorem(spec)
    failing_at_n5(monkeypatch)
    report = cp.verify_theorem(spec)
    at5 = [cs for cs in cp.generate_instances(spec) if cs.n == 5]
    assert len(at5) == 15
    assert [row for row in report.instances if row.n != 5] == [row for row in clean.instances if row.n != 5]
    for row, cs in zip([row for row in report.instances if row.n == 5], at5):
        assert (row.elements, row.verdict, row.connected) == (cs.elements, "error", True)
        assert (row.parts_b, row.aut_c, row.multiplier_count, row.prop_covered, row.prop_rounds) == (None,) * 5
    assert report.failures == tuple(cp.SweepFailure(cp.instance_key(cs), "ValueError: boom") for cs in at5)
    assert report.aggregates["error"] == 15
    assert cp.load_report(cp.report_to_json(report)).instances == report.instances
    assert "\n5,1,d,true,,,,,,error,," in cp.report_to_csv(report)


def test_pool_size_is_capped_by_instances_and_cores(monkeypatch):
    # the caller sweeps too, so a cap of k processes starts k - 1 workers
    started = []

    def start(worker, _start=multiprocessing.Process.start):
        started.append(worker)
        _start(worker)

    def workers(spec):
        """The number of worker processes the sweep of ``spec`` starts, and its JSON report."""
        before = len(started)
        report = cp.verify_theorem(spec)
        return len(started) - before, cp.report_to_json(report)

    monkeypatch.setattr(multiprocessing.Process, "start", start)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    count, serial = workers(cp.SweepSpec(n_min=3, n_max=5))
    assert count == 0
    assert workers(cp.SweepSpec(n_min=3, n_max=5, jobs=10**6)) == (3, serial)
    # 2 (n, mode, size) blocks, {1}, {2} and {1, 2}; each process takes one block at a time
    assert workers(cp.SweepSpec(n_min=3, n_max=3, modes=(cp.DIRECTED,), jobs=10**6))[0] == 1
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert workers(cp.SweepSpec(n_min=3, n_max=5, jobs=10**6))[0] == 0
    assert multiprocessing.active_children() == []


def test_only_the_spec_and_blocks_cross_the_pool(monkeypatch):
    # each worker generates the sets of its own blocks, so no connection set is pickled, and it
    # sends its rows back as plain tuples, so no row is pickled either
    spec = cp.SweepSpec(n_min=2, n_max=8, modes=(cp.DIRECTED,))
    serial = cp.report_to_json(cp.verify_theorem(spec))

    def refuse(obj, protocol):
        raise AssertionError(f"{obj!r} was pickled")

    monkeypatch.setattr(cp.ConnectionSet, "__reduce_ex__", refuse)
    monkeypatch.setattr(cp.InstanceResult, "__reduce_ex__", refuse)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert cp.report_to_json(cp.verify_theorem(dataclasses.replace(spec, jobs=2))) == serial


def test_the_caller_sweeps_every_pth_block_from_the_first_in_order(monkeypatch):
    # with p processes, process i sweeps the stripe blocks[i::p] in generation order; the caller
    # is process 0, so what it sweeps does not depend on how fast the workers are
    spec = cp.SweepSpec(n_min=2, n_max=9, jobs=2)
    serial = cp.report_to_json(cp.verify_theorem(dataclasses.replace(spec, jobs=1)))
    swept, sweep = [], harness._sweep_block

    def recorded(spec, block):
        swept.append(block)  # a forked worker appends to its own copy of the list
        return sweep(spec, block)

    monkeypatch.setattr(harness, "_sweep_block", recorded)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert cp.report_to_json(cp.verify_theorem(spec)) == serial
    assert swept == harness._blocks(spec)[0::2]


def test_a_parallel_sweep_makes_no_shared_object(monkeypatch):
    # each worker is started with its own stripe, so no counter or lock is shared
    spec = cp.SweepSpec(n_min=2, n_max=8)
    serial = cp.report_to_json(cp.verify_theorem(spec))

    def unshared(*args, **kwargs):
        raise AssertionError("a shared value was made")

    monkeypatch.setattr(harness.multiprocessing, "Value", unshared)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert cp.report_to_json(cp.verify_theorem(dataclasses.replace(spec, jobs=2))) == serial


# Runs `circpart verify` to n=8 at --jobs 2 in a fresh interpreter, with the blocks a worker takes
# replaced by WORKER and the caller's by CALLER, which runs once a worker has taken a block.
FAULTY_SWEEP = """
import multiprocessing, os, sys, time
from circpart import cli, harness

caller, sweep, taken = os.getpid(), harness._sweep_block, multiprocessing.Event()
os.cpu_count = lambda: 2

def faulty(spec, block):
    if os.getpid() != caller:
        taken.set()
        WORKER
    taken.wait()
    CALLER

harness._sweep_block = faulty
code = cli.main(["verify", "--n-min", "2", "--n-max", "8", "--mode", "d", "--jobs", "2", "--out", sys.argv[1]])
print("children", multiprocessing.active_children())
sys.exit(code)
"""


@pytest.mark.parametrize(
    "worker, caller, code, message",
    [
        ("os._exit(1)", "return sweep(spec, block)", 3,
         "resource limit: a sweep worker ended with exit code 1 before it sent its rows"),
        ("raise ValueError('worker boom')", "return sweep(spec, block)", 2, "error: worker boom"),
        ("time.sleep(600)", "raise ValueError('caller boom')", 2, "error: caller boom"),
    ],
    ids=["a-worker-dies", "a-worker-raises", "the-caller-raises"],
)
def test_a_fault_in_any_process_ends_the_sweep_and_every_worker(tmp_path, worker, caller, code, message):
    # patched in __main__, the fault reaches the workers only if they are forked
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched sweep reaches the workers only through fork")
    program = FAULTY_SWEEP.replace("WORKER", worker).replace("CALLER", caller)
    env = {**os.environ, "PYTHONPATH": str(Path(cp.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", program, str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (done.returncode, done.stdout, done.stderr.splitlines()[-1:]) == (code, "children []\n", [message])
    assert not (tmp_path / "r.json").exists()


CUT_OFF_SEND = """
import os, struct, sys
from circpart import cli, harness

os.cpu_count = lambda: 2

def cut_off(spec, stripe, conn):  # a header that announces 1,000 bytes, then 10 of them
    os.write(conn.fileno(), struct.pack("!i", 1000) + bytes(10))
    os._exit(1)

harness._worker = cut_off
sys.exit(cli.main(["verify", "--n-min", "2", "--n-max", "8", "--mode", "d", "--jobs", "2", "--out", sys.argv[1]]))
"""


def test_a_worker_cut_off_while_it_sends_ends_the_sweep_with_exit_3(tmp_path):
    # the caller's recv raises OSError("got end of file during message"), not EOFError, on a cut-off message
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker reaches the child only through fork")
    env = {**os.environ, "PYTHONPATH": str(Path(cp.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", CUT_OFF_SEND, str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    message = "resource limit: a sweep worker ended with exit code 1 before it sent its rows"
    assert (done.returncode, done.stdout, done.stderr.splitlines()[-1:]) == (3, "", [message])
    assert not (tmp_path / "r.json").exists()


def test_connected_sweep_all_match():
    spec = cp.SweepSpec(n_min=3, n_max=6, modes=(cp.DIRECTED,), connectivity="connected", kinds=("C",))
    report = cp.verify_theorem(spec)
    assert report.aggregates["instances"] > 0
    assert report.aggregates["mismatch"] == 0
    assert report.aggregates["match"] == report.aggregates["instances"]
    assert report.failures == ()
    for row in report.instances:
        assert row.connected
        assert row.aut_c == row.multiplier_count
        assert row.prop_covered
        assert row.aut_b is None  # kind B not requested


def test_disconnected_rows_report_expected_mismatch():
    spec = cp.SweepSpec(n_min=6, n_max=6, modes=(cp.UNDIRECTED,), connectivity="disconnected", kinds=("C",))
    report = cp.verify_theorem(spec)
    rows = {row.elements: row for row in report.instances}
    assert set(rows) == {(2, 4), (3,)}
    two_four = rows[(2, 4)]
    assert two_four.aut_c == 12
    assert two_four.multiplier_count == 2
    assert two_four.verdict == "expected-mismatch"
    assert not two_four.prop_covered
    assert rows[(3,)].verdict == "expected-mismatch"
    assert report.aggregates["mismatch"] == 0


def test_oracle_cross_check_in_sweep():
    spec = cp.SweepSpec(n_min=3, n_max=6, connectivity="all", enumerator="both")
    report = cp.verify_theorem(spec)
    assert report.aggregates["failures"] == 0
    assert report.aggregates["mismatch"] == 0


def test_oracle_checked_sweep_fails_when_the_generator_group_is_not_inside_the_cycle_group(monkeypatch):
    # G_B <= G_C on every circulant; swapping the two partitions swaps the groups, so the
    # one directed set to n=6 with G_B < G_C (6:2,4:d, orders 6 and 12) breaks the inclusion
    # while each listing still agrees with the oracle scan. Each generator of G_B is checked
    # against the C partition, so a sweep without the oracle fails there too
    spec = cp.SweepSpec(n_min=2, n_max=6, modes=(cp.DIRECTED,), enumerator="both")
    assert cp.verify_theorem(spec).failures == ()
    monkeypatch.setattr(harness, "partition_by_generator", cp.partition_by_cycle)
    monkeypatch.setattr(harness, "partition_by_cycle", cp.partition_by_generator)
    expected = (cp.SweepFailure("6:2,4:d", "kind B group is not inside the kind C group"),)
    assert cp.verify_theorem(spec).failures == expected
    assert cp.verify_theorem(dataclasses.replace(spec, enumerator="backtracking")).failures == expected


def test_a_connected_sweep_fails_when_the_cycle_group_is_not_inside_the_generator_group(monkeypatch):
    # The paper's direction, G_C <= G_B, is checked on connected sets, where it always holds.
    # Taken for connected, 6:2,4:d (G_C of order 12 against G_B of order 6) is the one directed
    # set to n=6 to break it; normalization, meant for connected sets, is stubbed out
    spec = cp.SweepSpec(n_min=2, n_max=6, modes=(cp.DIRECTED,))
    monkeypatch.setattr(harness, "is_connected", lambda graph: True)
    monkeypatch.setattr(harness, "normalize_to_multiplier", lambda graph, p: None)

    def inclusions(spec):
        return [f for f in cp.verify_theorem(spec).failures if "inside" in f.message]

    assert inclusions(spec) == [cp.SweepFailure("6:2,4:d", "kind C group is not inside the kind B group")]
    assert inclusions(dataclasses.replace(spec, kinds=("C",))) == []  # no G_B to compare with


def test_empty_range_gives_empty_report():
    spec = cp.SweepSpec(n_min=5, n_max=4)
    report = cp.verify_theorem(spec)
    assert report.instances == ()
    assert report.failures == ()
    assert report.aggregates == {
        "instances": 0,
        "connected": 0,
        "match": 0,
        "expected_mismatch": 0,
        "mismatch": 0,
        "error": 0,
        "failures": 0,
    }
    payload = json.loads(cp.report_to_json(report))
    assert payload["instances"] == []
    assert payload["aggregates"]["instances"] == 0


def test_aggregates_match_recomputation():
    spec = cp.SweepSpec(n_min=3, n_max=6)
    report = cp.verify_theorem(spec)
    agg = report.aggregates
    assert agg["instances"] == len(report.instances)
    assert agg["connected"] == sum(1 for r in report.instances if r.connected)
    for verdict, key in (("match", "match"), ("expected-mismatch", "expected_mismatch"), ("mismatch", "mismatch")):
        assert agg[key] == sum(1 for r in report.instances if r.verdict == verdict)
    assert agg["failures"] == len(report.failures)


def test_csv_layout():
    spec = cp.SweepSpec(n_min=4, n_max=4, modes=(cp.UNDIRECTED,), kinds=("B", "C"))
    report = cp.verify_theorem(spec)
    text = cp.report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == "n,set,mode,connected,parts_B,parts_C,aut_B,aut_C,multipliers,verdict,prop_rounds,ms"
    assert len(lines) == 1 + len(report.instances)
    first = lines[1].split(",")
    assert first[0] == "4"
    # one float column at the end
    assert float(lines[1].rsplit(",", 1)[1]) >= 0.0


def test_csv_empty_report_is_header_only():
    report = cp.verify_theorem(cp.SweepSpec(n_min=5, n_max=4))
    assert cp.report_to_csv(report) == "n,set,mode,connected,parts_B,parts_C,aut_B,aut_C,multipliers,verdict,prop_rounds,ms\n"


def test_json_round_trip(tmp_path):
    spec = cp.SweepSpec(n_min=3, n_max=5, kinds=("B", "C"))
    report = cp.verify_theorem(spec)
    dest = tmp_path / "report.json"
    cp.export_report(report, "json", dest)
    text = dest.read_text(encoding="utf-8")
    loaded = cp.load_report(text)
    assert loaded.spec_echo == report.spec_echo
    assert loaded.aggregates == report.aggregates
    assert loaded.failures == report.failures
    assert len(loaded.instances) == len(report.instances)
    for a, b in zip(loaded.instances, report.instances):
        assert a == b  # timings do not participate in equality
    assert cp.report_to_json(loaded) == text


def reference_json(report):
    """The report through json.dumps, with every row key written out here."""
    rows = [
        {
            "n": r.n, "set": list(r.elements), "mode": r.mode, "connected": r.connected,
            "parts_B": r.parts_b, "parts_C": r.parts_c, "aut_B": r.aut_b, "aut_C": r.aut_c,
            "multipliers": r.multiplier_count, "verdict": r.verdict,
            "prop_covered": r.prop_covered, "prop_rounds": r.prop_rounds,
        }
        for r in report.instances
    ]
    payload = {
        "sweep": report.spec_echo,
        "aggregates": report.aggregates,
        "instances": rows,
        "failures": [{"instance": f.instance, "message": f.message} for f in report.failures],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_json_rows_are_written_as_json_dumps_writes_them():
    swept = cp.verify_theorem(cp.SweepSpec(n_min=2, n_max=7))
    error = cp.InstanceResult(
        6, (2, 4), cp.UNDIRECTED, False, None, None, None, None, None, "error", None, None, ms=0.5
    )
    odd = cp.InstanceResult(5, (1,), cp.DIRECTED, True, 1, 1, 1, 1, 1, 'qu"ote \\ caf\u00e9 \u2203', False, 0)
    failures = (
        cp.SweepFailure("6:2,4:u", 'ZeroDivisionError: "x" \\ n/0 \u2260 \u00e9\t\n'),
        cp.SweepFailure("5:1:d", "kind C: \U0001d4aa"),
    )
    crafted = cp.VerificationReport(
        {**swept.spec_echo, "note": 'a "b" \\ \u00fc'}, swept.instances[:3] + (error, odd),
        {**swept.aggregates, "error": 1}, failures,
    )
    empty = cp.verify_theorem(cp.SweepSpec(n_min=5, n_max=4))
    for report in (swept, crafted, empty):
        text = cp.report_to_json(report)
        assert text == reference_json(report)
        loaded = cp.load_report(text)
        assert cp.report_to_json(loaded) == reference_json(loaded) == text
    assert cp.report_to_json(empty).count("[]") == 2  # no rows and no failures


@pytest.mark.parametrize(
    "spec",
    [
        cp.SweepSpec(n_min=2, n_max=10, modes=(cp.DIRECTED,)),
        cp.SweepSpec(n_min=2, n_max=12, modes=(cp.UNDIRECTED,)),
        cp.SweepSpec(n_min=2, n_max=8, enumerator="both"),
        cp.SweepSpec(n_min=2, n_max=12, modes=(cp.UNDIRECTED,), connectivity="disconnected"),
    ],
    ids=["directed", "undirected", "oracle", "disconnected"],
)
def test_a_report_rendered_where_it_was_swept_has_the_bytes_of_its_rows(monkeypatch, spec):
    # verify_theorem's report carries its rows rendered by the sweep's processes; a report rebuilt from
    # its four fields, or one with other rows, renders its own rows, and each gives json.dumps's bytes
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    texts = set()
    for jobs in (1, 2, 4):
        report = cp.verify_theorem(dataclasses.replace(spec, jobs=jobs))
        text = cp.report_to_json(report)
        rebuilt = cp.VerificationReport(report.spec_echo, report.instances, report.aggregates, report.failures)
        assert rebuilt == report and text == reference_json(report) == cp.report_to_json(rebuilt)
        texts.add(text)
        cut = dataclasses.replace(report, instances=report.instances[:5])
        assert cp.report_to_json(cut) == reference_json(cut)
        assert len(json.loads(cp.report_to_json(cut))["instances"]) == 5
    assert len(texts) == 1


class RecordedWrites:
    """A file object that records the length of each write before it passes the write on."""

    def __init__(self, file, lengths):
        self.file, self.lengths = file, lengths

    def write(self, text):
        self.lengths.append(len(text))
        return self.file.write(text)

    def __getattr__(self, name):
        return getattr(self.file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def test_a_json_export_writes_the_report_a_block_at_a_time(tmp_path, monkeypatch):
    # no write is longer than the sections other than "instances" plus the longest block, whose rows
    # the sweep rendered; a report without rendered blocks is written a row at a time
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    report = cp.verify_theorem(cp.SweepSpec(n_min=2, n_max=9, jobs=2))
    loaded = cp.load_report(cp.report_to_json(report))
    lengths = []
    opened = Path.open
    monkeypatch.setattr(Path, "open", lambda path, *args, **kwargs: RecordedWrites(opened(path, *args, **kwargs), lengths))
    sections = len(reference_json(dataclasses.replace(report, instances=())))
    longest_row = max(len(reference_json(dataclasses.replace(report, instances=(row,)))) for row in report.instances)
    for exported, longest in ((report, max(map(len, report._json_blocks))), (loaded, longest_row - sections)):
        lengths.clear()
        cp.export_report(exported, "json", tmp_path / "r.json")
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        assert text == cp.report_to_json(exported) == cp.report_to_json(report)
        assert len(lengths) > 2 and sum(lengths) == len(text)
        assert max(lengths) <= sections + longest < len(text) // 5
    lengths.clear()
    cp.export_report(report, "csv", tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text(encoding="utf-8") == cp.report_to_csv(report)
    assert lengths == [len(cp.report_to_csv(report))]


def test_export_rejects_unknown_format(tmp_path):
    report = cp.verify_theorem(cp.SweepSpec(n_min=5, n_max=4))
    with pytest.raises(ValueError):
        cp.export_report(report, "xml", tmp_path / "report.xml")


class FailingWrites(RecordedWrites):
    """A file object that takes ``limit`` characters, then raises OSError, as a full disk would."""

    def __init__(self, file, lengths, limit):
        super().__init__(file, lengths)
        self.limit = limit

    def write(self, text):
        room = self.limit - sum(self.lengths)
        if len(text) > room:
            super().write(text[:room])
            raise OSError(28, "No space left on device")
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("earlier", [None, "an earlier report\n"], ids=["new", "earlier"])
def test_an_export_that_fails_mid_report_leaves_no_partial_report_and_the_earlier_one_as_it_was(
    tmp_path, monkeypatch, fmt, earlier
):
    # the writes stop half-way through the report; the destination is left as it was, and the
    # file the report was being written to is gone
    report = cp.verify_theorem(cp.SweepSpec(n_min=2, n_max=7))
    half = len(cp.report_to_json(report) if fmt == "json" else cp.report_to_csv(report)) // 2
    destination = tmp_path / f"r.{fmt}"
    if earlier is not None:
        destination.write_text(earlier, encoding="utf-8")
    opened, lengths = Path.open, []
    monkeypatch.setattr(
        Path, "open", lambda path, *args, **kwargs: FailingWrites(opened(path, *args, **kwargs), lengths, half)
    )
    with pytest.raises(OSError, match="No space left on device"):
        cp.export_report(report, fmt, destination)
    assert sum(lengths) == half > 0
    if earlier is None:
        assert not destination.exists()
    else:
        assert destination.read_text(encoding="utf-8") == earlier
    assert [path.name for path in tmp_path.iterdir()] == ([] if earlier is None else [destination.name])


def test_export_propagates_io_errors(tmp_path):
    report = cp.verify_theorem(cp.SweepSpec(n_min=5, n_max=4))
    with pytest.raises(OSError):
        cp.export_report(report, "json", tmp_path / "missing" / "report.json")


GOLDEN_N3_JSON = """\
{
  "aggregates": {
    "connected": 3,
    "error": 0,
    "expected_mismatch": 0,
    "failures": 0,
    "instances": 3,
    "match": 3,
    "mismatch": 0
  },
  "failures": [],
  "instances": [
    {
      "aut_B": null,
      "aut_C": 1,
      "connected": true,
      "mode": "directed",
      "multipliers": 1,
      "n": 3,
      "parts_B": 1,
      "parts_C": 1,
      "prop_covered": true,
      "prop_rounds": 0,
      "set": [
        1
      ],
      "verdict": "match"
    },
    {
      "aut_B": null,
      "aut_C": 1,
      "connected": true,
      "mode": "directed",
      "multipliers": 1,
      "n": 3,
      "parts_B": 1,
      "parts_C": 1,
      "prop_covered": true,
      "prop_rounds": 0,
      "set": [
        2
      ],
      "verdict": "match"
    },
    {
      "aut_B": null,
      "aut_C": 2,
      "connected": true,
      "mode": "directed",
      "multipliers": 2,
      "n": 3,
      "parts_B": 2,
      "parts_C": 2,
      "prop_covered": true,
      "prop_rounds": 0,
      "set": [
        1,
        2
      ],
      "verdict": "match"
    }
  ],
  "sweep": {
    "connectivity": "all",
    "enumerator": "backtracking",
    "hard_cap": 64,
    "kinds": [
      "C"
    ],
    "max_solutions": null,
    "modes": [
      "directed"
    ],
    "n_max": 3,
    "n_min": 3,
    "oracle_limit": 9
  }
}
"""


def test_json_rendering_is_frozen():
    spec = cp.SweepSpec(n_min=3, n_max=3, modes=(cp.DIRECTED,), connectivity="all", kinds=("C",))
    assert cp.report_to_json(cp.verify_theorem(spec)) == GOLDEN_N3_JSON


def test_parallel_sweep_is_byte_identical():
    specs = [
        cp.SweepSpec(n_min=3, n_max=6),
        cp.SweepSpec(n_min=2, n_max=6, enumerator="both"),
        cp.SweepSpec(n_min=2, n_max=12, modes=(cp.UNDIRECTED,), connectivity="disconnected"),
    ]
    for spec in specs:
        baseline = cp.report_to_json(cp.verify_theorem(spec))
        assert cp.report_to_json(cp.verify_theorem(dataclasses.replace(spec, jobs=2))) == baseline


def test_disconnected_sweep_json_digest():
    """The report of every disconnected undirected set with n <= 14, whose largest groups have 46,080 elements."""
    spec = cp.SweepSpec(n_min=2, n_max=14, modes=(cp.UNDIRECTED,), connectivity="disconnected")
    text = cp.report_to_json(cp.verify_theorem(spec))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "85bd207efd1ebbb0645130c0a3d679e5efa7197f92c38cde8e9b865e3d53dd52"
    )
