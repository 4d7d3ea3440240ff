import collections
import dataclasses
import gc
import hashlib
import json
import math
import weakref

import pytest

import circpart as cp
from circpart import harness
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


def test_the_sweep_size_is_counted_without_generating_a_set():
    for n_max in range(2, 13):
        for modes in ((cp.DIRECTED,), (cp.UNDIRECTED,), (cp.DIRECTED, cp.UNDIRECTED)):
            spec = cp.SweepSpec(n_min=2, n_max=n_max, modes=modes)
            assert harness._sweep_size(spec) == len(list(cp.generate_instances(spec))), (n_max, modes)
            # counted before the connectivity filter
            connected = dataclasses.replace(spec, connectivity="connected")
            assert harness._sweep_size(connected) == harness._sweep_size(spec)
    assert harness._sweep_size(cp.SweepSpec(n_min=2, n_max=20)) == 1_051_604 <= harness.MAX_SWEEP_SETS
    assert harness._sweep_size(cp.SweepSpec(n_min=2, n_max=21, modes=(cp.DIRECTED,))) == 2_097_130
    assert harness._sweep_size(cp.SweepSpec(n_min=5, n_max=4)) == 0
    # past the budget the count stops early and caps each exponent, so a huge range is not summed
    for n_min, n_max in ((2, 10**9), (10**9, 10**9), (10**9, 2 * 10**9)):
        size = harness._sweep_size(cp.SweepSpec(n_min=n_min, n_max=n_max))
        assert harness.MAX_SWEEP_SETS < size < 8 * harness.MAX_SWEEP_SETS


def test_a_sweep_over_the_budget_is_refused_before_any_set_is_made(monkeypatch):
    spec = cp.SweepSpec(n_min=2, n_max=6, connectivity="connected")
    size = harness._sweep_size(spec)
    monkeypatch.setattr(harness, "MAX_SWEEP_SETS", size)
    assert cp.verify_theorem(spec).aggregates["instances"] > 0  # at the budget, the sweep runs

    def unmade(*args):
        raise AssertionError("a set was made")

    monkeypatch.setattr(harness, "MAX_SWEEP_SETS", size - 1)
    monkeypatch.setattr(harness, "_sweep_block", unmade)
    monkeypatch.setattr(harness, "_block_sets", unmade)
    message = f"the sweep has at least {size} connection sets, more than the limit {size - 1}"
    with pytest.raises(cp.ResourceLimitError, match=message):
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
    calls = recording(monkeypatch, "respecting_group", "_propagate", "normalize_to_multiplier", "brute_oracle")
    spec = cp.SweepSpec(n_min=2, n_max=10, modes=(cp.DIRECTED,))
    report = cp.verify_theorem(spec)
    minima = [(n, rep) for n in range(2, 11) for rep in unit_orbit_minima(n, directed_subsets(n))]
    assert len(minima) == 282 and len(report.instances) == 1013
    # two searches per orbit, kinds B and C, on its least set
    assert [(g.n, g.elements) for g in calls["respecting_group"]] == [pair for pair in minima for _ in "BC"]
    traced = sorted(cp.instance_key(g) for g in calls["_propagate"])
    assert traced == sorted(cp.instance_key(cs) for cs in cp.generate_instances(spec))
    # one normalization per generator of each connected representative's cycle-respecting group
    generators = 0
    for n, rep in minima:
        g = cp.build(n, rep, cp.DIRECTED)
        if cp.is_connected(g):
            generators += len(cp.respecting_group(g, cp.partition_by_cycle(g)).strong_generators())
    assert len(calls["normalize_to_multiplier"]) == generators > 0
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
            "_propagate",
            lambda real: lambda cs, walk: 1 / 0 if cs.elements == (3, 6) else real(cs, walk),
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
    # {1, 6} ~ {2, 5} ~ {3, 4} mod 7, with multipliers {1, 6}; a coset check that fails on the
    # representative alone fails no other set, and the others are searched on their own
    spec = cp.SweepSpec(n_min=7, n_max=7, modes=(cp.DIRECTED,))
    check = harness.coset_image_check
    monkeypatch.setattr(
        harness, "coset_image_check", lambda g, p, sub: g.elements != (1, 6) and check(g, p, sub)
    )
    calls = recording(monkeypatch, "respecting_group")
    report = cp.verify_theorem(spec)
    searched = [g.elements for g in calls["respecting_group"]]
    assert all(searched.count(elements) == 2 for elements in ((1, 6), (2, 5), (3, 4)))
    assert {f.instance for f in report.failures} == {"7:1,6:d"}
    assert {f.message for f in report.failures} == {
        "coset image check failed for (0, 6, 5, 4, 3, 2, 1) on (1,)",
        "coset image check failed for (0, 6, 5, 4, 3, 2, 1) on (6,)",
        "coset image check failed for (0, 6, 5, 4, 3, 2, 1) on (1, 6)",
    }
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


@pytest.mark.parametrize("connectivity", harness.CONNECTIVITY_CHOICES)
def test_the_propagation_walk_gives_every_set_the_certifiers_coverage_and_rounds(connectivity):
    # one walk per n and mode, across its blocks: a block's first set, a new size, and the sets the
    # connectivity filter drops all break the prefix that a set shares with the one before it
    for mode, n_max in ((cp.DIRECTED, 14), (cp.UNDIRECTED, 22)):
        spec = cp.SweepSpec(n_min=2, n_max=n_max, modes=(mode,), connectivity=connectivity)
        walks = collections.defaultdict(list)
        for cs in cp.generate_instances(spec):
            trace = cp.propagation_certifier(cs)
            assert harness._propagate(cs, walks[cs.n]) == (trace.covered, trace.total_rounds), cs
            assert all(
                type(prefix) is tuple and {type(value) for value in (*prefix, *rest)} <= {int, bool}
                for prefix, *rest in walks[cs.n]
            )


def test_a_set_after_one_whose_propagation_raised_gets_the_certifiers_coverage_and_rounds(monkeypatch):
    # the stage of s_1..s_3 = 1, 3, 4 raises after the stages before it were kept: each set that
    # begins with them raises, and every other set still gets the certifier's numbers
    stage = harness.propagation_stage

    def failing(n, step, gens):
        if gens == (1, 3, 4):
            raise ZeroDivisionError
        return stage(n, step, gens)

    monkeypatch.setattr(harness, "propagation_stage", failing)
    walk, raised = [], []
    for cs in cp.generate_instances(cp.SweepSpec(n_min=9, n_max=9, modes=(cp.DIRECTED,))):
        trace = cp.propagation_certifier(cs)
        try:
            assert harness._propagate(cs, walk) == (trace.covered, trace.total_rounds), cs
        except ZeroDivisionError:
            raised.append(cs.elements)
    assert len(raised) == 16 and all(elements[:3] == (1, 3, 4) for elements in raised)


def test_the_orbit_of_a_failing_representative_is_searched_set_by_set(monkeypatch):
    import circpart.harness as harness

    spec = cp.SweepSpec(n_min=7, n_max=7, modes=(cp.DIRECTED,))
    clean = cp.verify_theorem(spec)
    propagate = harness._propagate
    monkeypatch.setattr(harness, "_propagate", lambda cs, walk: 1 / 0 if cs.elements == (1, 2) else propagate(cs, walk))
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
    expected = set()
    for cs in cp.generate_instances(spec):
        g = cp.build(cs.n, cs.elements, cs.mode)
        subsets = [(s,) for s in cs.elements] + ([cs.elements] if len(cs.elements) > 1 else [])
        for p in cp.respecting_group(g, cp.partition_by_cycle(g)).strong_generators():
            expected |= {(cp.instance_key(cs), f"coset image check failed for {p} on {sub}") for sub in subsets}
            if cp.is_connected(g):
                expected.add((cp.instance_key(cs), f"multiplier normalization failed for {p}"))
    assert {(f.instance, f.message) for f in report.failures} == expected
    assert len(report.failures) == len(expected) > 0


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
    import circpart.harness as harness

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

        def imap_unordered(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness.multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    serial = cp.report_to_json(cp.verify_theorem(cp.SweepSpec(n_min=3, n_max=5)))
    assert cp.report_to_json(cp.verify_theorem(cp.SweepSpec(n_min=3, n_max=5, jobs=10**6))) == serial
    # 2 (n, mode, size) blocks, {1}, {2} and {1, 2}; the pool takes one block at a time
    cp.verify_theorem(cp.SweepSpec(n_min=3, n_max=3, modes=(cp.DIRECTED,), jobs=10**6))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    cp.verify_theorem(cp.SweepSpec(n_min=3, n_max=5, jobs=10**6))
    assert sizes == [4, 2]


def test_only_the_spec_and_blocks_cross_the_pool(monkeypatch):
    # each worker generates the sets of its own blocks, so no connection set is pickled
    spec = cp.SweepSpec(n_min=2, n_max=8, modes=(cp.DIRECTED,))
    serial = cp.report_to_json(cp.verify_theorem(spec))

    def refuse(cs, protocol):
        raise AssertionError(f"{cp.instance_key(cs)} was pickled")

    monkeypatch.setattr(cp.ConnectionSet, "__reduce_ex__", refuse)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert cp.report_to_json(cp.verify_theorem(dataclasses.replace(spec, jobs=2))) == serial


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


def test_export_rejects_unknown_format(tmp_path):
    report = cp.verify_theorem(cp.SweepSpec(n_min=5, n_max=4))
    with pytest.raises(ValueError):
        cp.export_report(report, "xml", tmp_path / "report.xml")


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
