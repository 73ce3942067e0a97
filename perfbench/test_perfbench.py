"""Tests of the benchmark itself, on the current rollsim code.

Run from the repository root:  python -m pytest perfbench -q

Each workload runs a shortened traced pass (step sizes ten times larger,
so the same dynamics and fault times in a tenth of the steps) and the
per-layer counts must match the predictions in perfbench/README.md.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, build_jobs

DT_SCALE = 10.0
SEED = 7


@pytest.fixture(scope="module")
def traced():
    return {w: harness.run_workload(w, SEED, 0.0, True, DT_SCALE)[0] for w in WORKLOADS}


def value(result, name):
    return result["metrics"][name]["value"]


def test_no_job_fails_on_any_workload(traced):
    for workload, result in traced.items():
        assert result["attempted"] > 0, workload
        assert result["failed"] == 0 and result["correct"], workload


def test_every_per_layer_metric_is_reported(traced):
    for result in traced.values():
        assert set(result["metrics"]) == set(tracing.PER_LAYER)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_sensor_path_runs_only_on_fault_sweep(traced):
    assert value(traced["fault_sweep"], "faults.apply_sensor.calls") > 0
    assert value(traced["fault_sweep"], "faults.counter_gauss.calls") > 0
    assert value(traced["fault_sweep"], "faults.detected_frac") == 1.0
    for workload in ("tune", "multibody"):
        assert value(traced[workload], "faults.apply_sensor.calls") == 0


def test_open_loop_integrator_runs_only_on_multibody(traced):
    assert value(traced["multibody"], "lti.simulate_lti.calls") > 0
    for workload in ("tune", "fault_sweep"):
        assert value(traced[workload], "lti.simulate_lti.calls") == 0


def test_tuner_runs_only_on_tune(traced):
    assert value(traced["tune"], "tuning.evals") > 0
    for workload in ("fault_sweep", "multibody"):
        assert value(traced[workload], "tuning.evals") == 0


def test_end_to_end_run_reports_every_metric_and_no_failure():
    result, info = harness.run_workload("tune", SEED, 0.0, False, DT_SCALE)
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert value(result, "passed_frac") == 1.0 and info["failed_frac"] == 0.0


def test_tracer_restores_every_site_and_reports_a_missing_one(monkeypatch):
    rollsim = harness.import_rollsim()
    original = rollsim.loops.pid_step, rollsim.loops.SetpointProfile.value
    bogus = ("rollsim.loops", "no_such_function", "pid.pid_step", True)
    monkeypatch.setattr(tracing, "SITES", tracing.SITES + (bogus,))
    with tracing.Tracer() as tracer:
        assert rollsim.loops.pid_step is not original[0]
    assert (rollsim.loops.pid_step, rollsim.loops.SetpointProfile.value) == original
    metrics = tracing.per_layer_metrics(tracer, 0.0)
    assert metrics["pid.pid_step.calls"]["value"] is None
    assert metrics["loops.steps"]["value"] == 0


def _corrupt_event(report):
    fault = report["scenario"]["simulate"]["fault"]
    report["results"]["fault_events"][0]["detected_t"] = fault["onset_t"] - 1.0


def _corrupt_value(report):
    report["results"]["metrics"]["final_value"] *= 1.0 + 1e-6


def _drop_field(report):
    del report["results"]["samples"]


def _extra_tool_field(report):
    report["tool"]["host"] = "x"


@pytest.mark.parametrize("corrupt", [_corrupt_event, _corrupt_value, _drop_field, _extra_tool_field])
def test_check_rejects_a_corrupted_report_copy(tmp_path, corrupt):
    rollsim = harness.import_rollsim()
    job = build_jobs("fault_sweep", DEFAULT_SEED, harness.SCENARIOS)[0]
    scenario = rollsim.scenario.parse_scenario(job.text)
    bundle = rollsim.cli.run(scenario, out_prefix=str(tmp_path / job.name), jobs=1)
    reference = harness.load_reference("fault_sweep")[job.name]
    schema, required = rollsim.cli.REPORT_SCHEMA, rollsim.cli.RESULT_REQUIRED
    assert checks.check_job(bundle, schema, required, reference)[0] == []

    report = json.loads(bundle.json_path.read_text())
    corrupt(report)
    copy_path = tmp_path / "corrupted.json"
    copy_path.write_text(json.dumps(report))
    corrupted = dataclasses.replace(bundle, json_path=copy_path)
    assert checks.check_job(corrupted, schema, required, reference)[0] != []


def test_check_rejects_a_truncated_csv(tmp_path):
    rollsim = harness.import_rollsim()
    job = build_jobs("tune", DEFAULT_SEED, harness.SCENARIOS, DT_SCALE)[1]
    bundle = rollsim.cli.run(rollsim.scenario.parse_scenario(job.text), out_prefix=str(tmp_path / "t"))
    schema, required = rollsim.cli.REPORT_SCHEMA, rollsim.cli.RESULT_REQUIRED
    assert checks.check_job(bundle, schema, required)[0] == []
    csv = bundle.csv_paths[0]
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    assert checks.check_job(bundle, schema, required)[0] != []


def test_same_seed_same_texts_other_seed_other_texts():
    for workload in ("tune", "fault_sweep"):
        first = build_jobs(workload, SEED, harness.SCENARIOS)
        assert first == build_jobs(workload, SEED, harness.SCENARIOS)
        assert first != build_jobs(workload, SEED + 1, harness.SCENARIOS)


def test_benchmark_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _needs) in tracing.PER_LAYER.items()
    }
