"""Very short runs of each workload through the output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run
import workloads as w


@pytest.fixture
def short_sims(monkeypatch):
    monkeypatch.setattr(w, "MESH_WARMUP", 7.0)
    monkeypatch.setattr(w, "MESH_MEASURE", 2.0)
    monkeypatch.setattr(w, "APP_WARMUP", 20.0)
    monkeypatch.setattr(w, "APP_MEASURE", 70.0)


def test_mesh_outcome_repeats_and_is_checked(short_sims):
    mesh = w.SIMULATED["mesh_24flows"]
    a = w.simulated_rep(mesh, w.DEFAULT_SEED)
    b = w.simulated_rep(mesh, w.DEFAULT_SEED)
    assert a.attempted == 24 and a.events > 0 and a.frames_tx > 0
    assert measure.repeat_problems([a, b], "rep") == []
    other = w.simulated_rep(mesh, w.DEFAULT_SEED + 1)
    assert measure.repeat_problems([a, other], "rep")

    recorded = {"mesh_24flows": dict(a.outcome)}
    assert w.check_expected("mesh_24flows", w.DEFAULT_SEED, a, recorded) == []
    recorded["mesh_24flows"]["flows_connected"] += 1
    assert len(w.check_expected("mesh_24flows", w.DEFAULT_SEED, a, recorded)) == 1
    # outcomes are recorded for the default seed only
    assert w.check_expected("mesh_24flows", w.DEFAULT_SEED + 1, a, recorded) == []
    assert w.check_expected("mesh_24flows", w.DEFAULT_SEED, a, {}) != []


def test_anemometer_counts_readings(short_sims):
    rep = w.simulated_rep(w.SIMULATED["anemometer_tcp"], 2)
    assert rep.problems == []
    out = rep.outcome
    assert 0 < out["readings_delivered"] <= rep.layer["app.readings_delivered"]
    assert rep.layer["app.readings_delivered"] <= rep.layer["app.readings_generated"]
    assert rep.echo_s and min(rep.echo_s) > 0
    assert 0 < rep.e2e["reliability"] <= 1


def test_gateway_batch_echoes_every_payload():
    rep = w.gateway_rep(3, 20)
    assert rep.problems == []
    assert (rep.attempted, rep.completed, rep.failed) == (20, 20, 0)
    assert rep.e2e["echo_p50_s"] > 0
    assert rep.layer["gw.sim_events_per_session"] > 0


def test_failed_checks_count_as_failed_operations():
    tally = measure.Run()
    tally.add(w.Rep(attempted=10, failed=1))
    tally.add(w.Rep(attempted=5, failed=0, problems=["bad echo"]))
    tally.check([])
    tally.check(["mismatch"])
    assert (tally.attempted, tally.failed) == (17, 7)
    assert tally.problems == ["bad echo", "mismatch"]


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_run_prints_every_layer_metric(short_sims, monkeypatch, capsys):
    monkeypatch.setattr(measure, "MIN_TIMED_REPS", 1)
    assert run.main(["--workload", "mesh_24flows", "--seed", "2",
                     "--seconds", "0", "--trace", "1"]) == 0
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == list(measure.LAYER_UNITS)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    mix = sum(v for k, v in metrics.items() if k.startswith("sim.mix."))
    assert 0 < mix <= metrics["sim.events"]
    assert metrics["phy.self_s"] > 0 and metrics["mac.self_s"] > 0
    assert metrics["trace.overhead_ratio"] > 0


def test_untraced_run_flags_an_unsupported_percentile(short_sims, monkeypatch, capsys):
    monkeypatch.setattr(measure, "MIN_TIMED_REPS", 1)
    assert run.main(["--workload", "mesh_24flows", "--seed", "2",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = _result(capsys)
    assert list(result["metrics"]) == list(measure.E2E_UNITS)
    # nine simulated seconds give too few RTT samples for a p99
    assert result["correct"] is False
    assert result["metrics"]["goodput_kbps"]["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh_24flows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((Path(run.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.LAYER_UNITS
