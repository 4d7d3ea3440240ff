import json

import pytest

import circpart as cp


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


def test_solution_cap_applies_to_the_search_half_of_both():
    both = cp.SweepSpec(n_min=6, n_max=6, modes=(cp.UNDIRECTED,), enumerator="both", max_solutions=0)
    assert cp.verify_theorem(both).aggregates["error"] == 7


def test_negative_max_solutions_rejected_before_any_search():
    with pytest.raises(ValueError, match="max_solutions"):
        cp.SweepSpec(n_min=3, n_max=4, max_solutions=-1)
    with pytest.raises(ValueError, match="max_solutions"):
        cp.SearchConfig(max_solutions=-1)
    assert cp.SearchConfig(max_solutions=0).max_solutions == 0


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

    monkeypatch.setattr(harness.multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    serial = cp.report_to_json(cp.verify_theorem(cp.SweepSpec(n_min=3, n_max=5)))
    assert cp.report_to_json(cp.verify_theorem(cp.SweepSpec(n_min=3, n_max=5, jobs=10**6))) == serial
    cp.verify_theorem(cp.SweepSpec(n_min=3, n_max=3, modes=(cp.DIRECTED,), jobs=10**6))  # 3 instances
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    cp.verify_theorem(cp.SweepSpec(n_min=3, n_max=5, jobs=10**6))
    assert sizes == [4, 3]


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
    for jobs in (1, 2):
        spec = cp.SweepSpec(n_min=3, n_max=6, jobs=jobs)
        if jobs == 1:
            baseline = cp.report_to_json(cp.verify_theorem(spec))
        else:
            assert cp.report_to_json(cp.verify_theorem(spec)) == baseline
