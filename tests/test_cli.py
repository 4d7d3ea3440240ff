import json
import runpy
import sys

import pytest

import circpart as cp
from circpart.cli import main
from conftest import failing_at_n5


def test_build_summary(capsys):
    assert main(["build", "--instance", "8:1,2:d"]) == 0
    out = capsys.readouterr().out
    assert "instance: 8:1,2:d" in out
    assert "arcs: 16" in out
    assert "connected: true" in out


def test_build_counts_arcs_without_building_them(monkeypatch, capsys):
    def unbuilt(graph):
        raise AssertionError("build read the arcs")

    for name in ("arcs", "arc_set"):
        monkeypatch.setattr(cp.ConnectionSet.__dict__[name], "func", unbuilt)
    for text, count in (("8:1,2:d", "arcs: 16"), ("8:1,4,7:u", "edges: 12"), ("100000:1", "arcs: 100000")):
        assert main(["build", "--instance", text]) == 0
        assert count in capsys.readouterr().out.splitlines()


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["circpart", "build", "--instance", "8:1,2:d"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("circpart", run_name="__main__")
    assert exc.value.code == 0
    assert "arcs: 16" in capsys.readouterr().out


def test_partition_listing(capsys):
    assert main(["partition", "--instance", "4:2:u", "--kind", "C"]) == 0
    out = capsys.readouterr().out
    assert "parts: 2" in out
    assert "(0,2)" in out and "(1,3)" in out


def test_autos_fix_zero(capsys):
    assert main(["autos", "--instance", "5:1,4:u", "--kind", "C", "--fix-zero"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[0, 1, 2, 3, 4]"
    assert out[1] == "[0, 4, 3, 2, 1]"
    assert out[2] == "count: 2"


def test_autos_oracle_agrees(capsys):
    assert main(["autos", "--instance", "6:2,4:u", "--kind", "C", "--fix-zero", "--oracle"]) == 0
    oracle_out = capsys.readouterr().out
    assert main(["autos", "--instance", "6:2,4:u", "--kind", "C", "--fix-zero"]) == 0
    assert capsys.readouterr().out == oracle_out
    assert "count: 12" in oracle_out


def test_normalize_witness_and_failure(capsys):
    assert main(["normalize", "--instance", "8:1,7:u", "--perm", "[0,7,6,5,4,3,2,1]"]) == 0
    out = capsys.readouterr().out
    assert "combined: j = 7 (mod 8)" in out
    assert main(["normalize", "--instance", "4:1,2,3:u", "--perm", "[0,2,1,3]"]) == 0
    failure = capsys.readouterr().out
    assert "failure" in failure
    # agrees with j = 1 on S = {1, 4} but is not the identity
    assert main(["normalize", "--instance", "6:1,4:d", "--perm", "[0,1,5,3,4,2]"]) == 0
    assert capsys.readouterr().out == failure


def test_propagate_trace(capsys):
    assert main(["propagate", "--instance", "12:4,3:d"]) == 0
    out = capsys.readouterr().out
    assert "round 1 adds: {7}" in out
    assert "round 2 adds: {10, 11}" in out
    assert "round 3 adds: {1, 2}" in out
    assert "round 4 adds: {5}" in out
    assert "covered: true" in out


def test_propagate_respects_order_flag(capsys):
    assert main(["propagate", "--instance", "12:4,3:d", "--order", "4,3"]) == 0
    assert "generator order: 4, 3" in capsys.readouterr().out


def test_propagate_refuses_a_malformed_order(capsys):
    assert main(["propagate", "--instance", "12:4,3:d", "--order", "1,x"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: malformed --order '1,x': invalid literal for int() with base 10: 'x'\n"
    )


def test_verify_writes_json_and_csv(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert main([
        "verify", "--n-min", "3", "--n-max", "5", "--mode", "both",
        "--kind", "both", "--out", str(out_json),
    ]) == 0
    payload = json.loads(out_json.read_text())
    assert payload["aggregates"]["mismatch"] == 0
    out_csv = tmp_path / "report.csv"
    assert main([
        "verify", "--n-min", "3", "--n-max", "5", "--mode", "d",
        "--kind", "C", "--connected-only", "--out", str(out_csv),
    ]) == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("n,set,mode,connected")
    capsys.readouterr()


def test_verify_with_oracle_check(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    assert main([
        "verify", "--n-min", "3", "--n-max", "5", "--oracle-check", "--out", str(out_json),
    ]) == 0
    capsys.readouterr()


def test_verify_parallel_jobs_flag(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["verify", "--n-min", "3", "--n-max", "6", "--out", str(serial)]) == 0
    assert main(["verify", "--n-min", "3", "--n-max", "6", "--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    capsys.readouterr()


def test_invalid_input_exit_code(capsys):
    assert main(["build", "--instance", "8:0,1:d"]) == 2
    assert main(["autos", "--instance", "8:nope", "--kind", "C"]) == 2
    assert main(["verify", "--n-min", "3", "--n-max", "4", "--out", "report.txt"]) == 2
    capsys.readouterr()


def test_verify_checks_out_before_sweeping(tmp_path, monkeypatch, capsys):
    def no_sweep(spec):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr("circpart.cli.verify_theorem", no_sweep)
    (tmp_path / "d.json").mkdir()
    for out in ("r.txt", str(tmp_path / "missing" / "e.json"), str(tmp_path / "d.json")):
        assert main(["verify", "--n-min", "2", "--n-max", "11", "--mode", "d", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--out must end with .json or .csv" in err
    assert "does not exist" in err
    assert "is a directory" in err


def test_autos_oracle_runs_at_the_oracle_limit(capsys):
    assert main(["autos", "--instance", "9:1,8:u", "--kind", "C", "--fix-zero", "--oracle"]) == 0
    assert "count: 2" in capsys.readouterr().out


def test_resource_cap_exit_code(capsys):
    assert main(["autos", "--instance", "100:1:d", "--kind", "C"]) == 3
    assert main(["autos", "--instance", "10:1,9:u", "--kind", "C", "--oracle"]) == 3
    capsys.readouterr()


def test_verify_is_refused_above_the_sweep_budget_before_any_set_is_swept(tmp_path, monkeypatch, capsys):
    import circpart.harness as harness

    def unswept(spec, block):
        raise AssertionError("a block was swept")

    monkeypatch.setattr(harness, "_sweep_block", unswept)
    out = tmp_path / "r.json"
    # both modes to n = 40, and directed to n = 21 alone (2,097,130 sets)
    for n_max, mode in (("40", "both"), ("21", "d")):
        assert main(["verify", "--n-min", "2", "--n-max", n_max, "--mode", mode, "--out", str(out)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: the sweep has at least ")
        assert captured.err.endswith(f" arcs, more than the limit {harness.MAX_SWEEP_ARCS}\n")


def test_build_is_refused_above_the_arc_limit(monkeypatch, capsys):
    monkeypatch.setattr(cp.circulant, "MAX_ARCS", 12)
    assert main(["build", "--instance", "6:1,2:d"]) == 0
    assert "arcs: 12" in capsys.readouterr().out
    assert main(["build", "--instance", "13:1:d"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "resource limit: Circ(13; S) would have 13 arcs, more than the limit 12\n"


def test_a_failed_check_makes_verify_exit_3_with_a_report(tmp_path, monkeypatch, capsys):
    import circpart.harness as harness

    # a multiplier map passes the coset checks by construction, so they run only on the other
    # generators, which the disconnected sets 6:2, 6:3, 6:4 and 6:2,4 have; failing them changes no verdict
    monkeypatch.setattr(harness, "coset_image_check", lambda graph, p, subset: False)
    out = tmp_path / "r.json"
    assert main(["verify", "--n-min", "3", "--n-max", "6", "--mode", "d", "--out", str(out)]) == 3
    assert "errors: 0  failures: " in capsys.readouterr().out
    report = cp.load_report(out.read_text())
    assert {row.verdict for row in report.instances} == {"match", "expected-mismatch"}
    assert report.aggregates["error"] == report.aggregates["mismatch"] == 0 < report.aggregates["failures"]
    assert {f.instance for f in report.failures} == {"6:2:d", "6:3:d", "6:4:d", "6:2,4:d"}


def test_a_failing_instance_makes_verify_exit_3_with_a_report(tmp_path, monkeypatch, capsys):
    failing_at_n5(monkeypatch)
    out = tmp_path / "r.json"
    assert main(["verify", "--n-min", "2", "--n-max", "6", "--mode", "d", "--out", str(out)]) == 3
    assert "errors: 15  failures: 15" in capsys.readouterr().out
    report = cp.load_report(out.read_text())
    assert [f.message for f in report.failures] == ["ValueError: boom"] * 15


def test_a_mismatch_makes_verify_exit_1_with_a_report(tmp_path, monkeypatch, capsys):
    # {1, 2, 3, 4} is the only set of its unit orbit mod 5; told its only multiplier is 1, its
    # 4 respecting automorphisms no longer match
    import circpart.circulant as circulant

    real = circulant.multipliers
    monkeypatch.setattr(
        circulant, "multipliers", lambda n, elements: (1,) if (n, elements) == (5, (1, 2, 3, 4)) else real(n, elements)
    )
    out = tmp_path / "r.json"
    assert main(["verify", "--n-min", "3", "--n-max", "5", "--mode", "d", "--out", str(out)]) == 1
    assert "mismatch: 1  errors: 0  failures: 0" in capsys.readouterr().out
    report = cp.load_report(out.read_text())
    assert [(row.n, row.elements) for row in report.instances if row.verdict == "mismatch"] == [(5, (1, 2, 3, 4))]
    assert report.aggregates["mismatch"] == 1 and report.failures == ()


def test_an_oracle_disagreement_makes_verify_exit_3_with_a_report(tmp_path, monkeypatch, capsys):
    # the oracle's scan made to miss one kind-C automorphism of 5:1,2,3,4:d is that set's one failure;
    # the row keeps the search's groups, so its verdict is still "match"
    import circpart.harness as harness

    scan = harness.brute_oracle

    def short(cs, partitions, fix_zero):
        groups = scan(cs, partitions, fix_zero=fix_zero)
        if (cs.n, cs.elements) == (5, (1, 2, 3, 4)):
            groups[-1] = groups[-1][:-1]  # kinds B and C, in that order
        return groups

    monkeypatch.setattr(harness, "brute_oracle", short)
    out = tmp_path / "r.json"
    assert main(["verify", "--n-min", "3", "--n-max", "5", "--mode", "d", "--oracle-check", "--out", str(out)]) == 3
    assert "mismatch: 0  errors: 0  failures: 1" in capsys.readouterr().out
    report = cp.load_report(out.read_text())
    assert report.failures == (cp.SweepFailure("5:1,2,3,4:d", "kind C: backtracking disagrees with brute oracle"),)
    assert {row.verdict for row in report.instances} == {"match"}


def test_a_propagation_coverage_that_differs_from_connectivity_is_a_failure(tmp_path, monkeypatch, capsys):
    # every set of directed n <= 14 and undirected n <= 18 is covered exactly when connected; a trace
    # made to say otherwise on one connected set is that set's one failure, and its row keeps the trace
    import circpart.harness as harness

    propagate = harness.propagation_closure

    def flipped(n, gens):
        covered, rounds, coset_ok = propagate(n, gens)
        return (covered != ((n, gens) == (5, (1, 2)))), rounds, coset_ok

    monkeypatch.setattr(harness, "propagation_closure", flipped)
    out = tmp_path / "r.json"
    assert main(["verify", "--n-min", "3", "--n-max", "5", "--mode", "d", "--out", str(out)]) == 3
    assert "mismatch: 0  errors: 0  failures: 1" in capsys.readouterr().out
    report = cp.load_report(out.read_text())
    assert report.failures == (cp.SweepFailure("5:1,2:d", "propagation coverage False differs from connectivity True"),)
    (row,) = [row for row in report.instances if (row.n, row.elements) == (5, (1, 2))]
    assert (row.verdict, row.connected, row.prop_covered) == ("match", True, False)


def test_autos_has_a_default_solution_cap(monkeypatch, capsys):
    # a perfect matching: 31! * 2**31 respecting automorphisms fix 0, refused before any is listed
    monkeypatch.setattr(cp.RespectingGroup, "elements", None)
    assert main(["autos", "--instance", "64:32:u", "--kind", "C", "--fix-zero"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"resource limit: more than max_solutions={cp.DEFAULT_MAX_SOLUTIONS} respecting automorphisms\n"


def test_oracle_rejects_a_solution_cap(capsys):
    # the solution cap is a fixed constant, so argparse refuses the old flag with or without --oracle
    argv = ["autos", "--instance", "6:2,4:u", "--kind", "C", "--fix-zero", "--oracle", "--max-solutions", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --max-solutions 1" in out.err


def test_negative_max_solutions_is_invalid_input(tmp_path, capsys):
    out = tmp_path / "r.json"
    for argv in (
        ["autos", "--instance", "6:2,4:u", "--kind", "C", "--fix-zero", "--max-solutions", "-1"],
        ["verify", "--n-min", "3", "--n-max", "4", "--max-solutions", "-1", "--out", str(out)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-solutions -1" in capsys.readouterr().err
    assert not out.exists()
