import json

import circpart as cp
from circpart.cli import main


def test_build_summary(capsys):
    assert main(["build", "--instance", "8:1,2:d"]) == 0
    out = capsys.readouterr().out
    assert "instance: 8:1,2:d" in out
    assert "arcs: 16" in out
    assert "connected: true" in out


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
    assert "failure" in capsys.readouterr().out


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
    for out in ("r.txt", str(tmp_path / "missing" / "e.json")):
        assert main(["verify", "--n-min", "2", "--n-max", "11", "--mode", "d", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--out must end with .json or .csv" in err
    assert "does not exist" in err


def test_resource_cap_exit_code(capsys):
    assert main(["autos", "--instance", "100:1:d", "--kind", "C"]) == 3
    assert main(["autos", "--instance", "10:1,9:u", "--kind", "C", "--oracle"]) == 3
    capsys.readouterr()


def test_oracle_rejects_a_solution_cap(capsys):
    argv = ["autos", "--instance", "6:2,4:u", "--kind", "C", "--fix-zero", "--oracle", "--max-solutions", "1"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--max-solutions" in out.err


def test_negative_max_solutions_is_invalid_input(tmp_path, capsys):
    assert main(["autos", "--instance", "6:2,4:u", "--kind", "C", "--fix-zero", "--max-solutions", "-1"]) == 2
    out = tmp_path / "r.json"
    assert main(["verify", "--n-min", "3", "--n-max", "4", "--max-solutions", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "max_solutions must be at least 0" in capsys.readouterr().err
