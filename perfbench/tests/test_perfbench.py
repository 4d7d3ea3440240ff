"""The benchmark's own checks, on toy-sized workloads (n <= 6).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
from bench import DenseWorkload, SweepWorkload  # noqa: E402
from tracer import Tracer  # noqa: E402

TOY = {
    w.name: w
    for w in (
        SweepWorkload(
            "sweep",
            (
                {"n_min": 2, "n_max": 6, "modes": ("directed",), "jobs": 2},
                {"n_min": 2, "n_max": 6, "modes": ("undirected",), "jobs": 2},
            ),
        ),
        DenseWorkload("dense", (5, 6)),
        SweepWorkload(
            "disconnected",
            ({"n_min": 2, "n_max": 6, "modes": ("undirected",), "connectivity": "disconnected"},),
        ),
        SweepWorkload("oracle", ({"n_min": 2, "n_max": 5, "enumerator": "both"},)),
    )
}


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """Toy workloads in place of the real ones, with references captured now."""
    import circpart as cp

    monkeypatch.setattr(bench, "REFERENCE_DIR", tmp_path)
    monkeypatch.setattr(run, "WORKLOADS", TOY)
    for workload in TOY.values():
        if isinstance(workload, SweepWorkload):
            (tmp_path / f"{workload.name}.json").write_text(
                make_reference.render(workload, workload.capture_reference(cp))
            )
    return tmp_path


def run_main(capsys, workload, trace):
    """Run the CLI in-process; return its result line and its standard error."""
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]) == 0
    out, err = capsys.readouterr()
    return json.loads(out.strip().splitlines()[-1]), err


def test_benchmark_json_names_the_metrics_and_workloads_in_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", list(TOY))
@pytest.mark.parametrize("trace", [0, 1])
def test_each_workload_runs_and_yields_every_named_metric(toy, capsys, workload, trace):
    result, _ = run_main(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {k: u for k, (u, _) in expected.items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_search_counters_at_toy_size(toy, capsys):
    metrics = {k: m["value"] for k, m in run_main(capsys, "oracle", 1)[0]["metrics"].items()}
    assert metrics["solver.enumerate_respecting.leaf_rejects"] == 0
    assert metrics["solver.enumerate_respecting.leaves"] == metrics["solver.enumerate_respecting.solutions"] > 0
    assert metrics["solver.brute_oracle.solutions"] == metrics["solver.enumerate_respecting.solutions"]
    assert metrics["solver.enumerate_respecting.calls"] == metrics["solver.brute_oracle.calls"]


@pytest.mark.parametrize("workload", ["oracle", "disconnected"])
def test_corrupted_reference_row_makes_failed_share_nonzero(toy, capsys, workload):
    path = toy / f"{workload}.json"
    payload = json.loads(path.read_text())
    row = payload["rows"][0][-1]
    row[bench.COLUMNS.index("aut_C")] += 1
    path.write_text(json.dumps(payload))
    result, err = run_main(capsys, workload, 0)
    assert not result["correct"]
    assert result["failed"] == 1 < result["attempted"]
    assert f"FAILED {row[0]}:{','.join(map(str, row[1]))}:{row[2][0]}:" in err


@pytest.mark.parametrize("workload", list(TOY))
def test_traced_and_untraced_runs_give_identical_solution_counts(workload):
    import circpart as cp

    w = TOY[workload]
    instances = w.setup(cp)
    plain = w.run_pass(cp, instances, random.Random(1), jobs=1)
    tracer = Tracer()
    with tracer.installed(cp):
        traced = w.run_pass(cp, instances, random.Random(1), jobs=1)
    assert w.solution_counts(traced.outputs) == w.solution_counts(plain.outputs)
    assert tracer.calls("solver.enumerate_respecting") > 0
    assert cp.enumerate_respecting is cp.solver.enumerate_respecting  # wrappers removed


def test_speed_gauge_samples_during_a_pass_and_restores_the_alarm():
    gauge = bench.SpeedGauge()
    previous = signal.getsignal(signal.SIGALRM)
    with gauge.sampling():
        deadline = time.perf_counter() + 3.5 * bench.GAUGE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(gauge.samples) >= 3
    assert gauge.scale() > 0
    first_at, first_seconds = gauge.samples[0]
    assert gauge.scale(first_at, first_at) == bench.GAUGE_REF_S / first_seconds
    assert gauge.scale(first_at - 2, first_at - 1) == bench.GAUGE_REF_S / first_seconds  # no sample inside
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
