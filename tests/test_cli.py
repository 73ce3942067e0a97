"""Command-line runs end to end: shipped scenarios, report schema, input
errors, overrides, and reuse of the multibody demo's filtered loop."""

import copy
import json
from pathlib import Path

import pytest
import yaml

import rollsim.cli as cli
import rollsim.loops as loops
from rollsim.scenario import parse_scenario_file

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _valid_report(path: Path) -> dict:
    jsonschema = pytest.importorskip("jsonschema")
    report = json.loads(path.read_text(encoding="utf-8"))
    jsonschema.validate(report, cli.REPORT_SCHEMA)
    results = report["results"]
    missing = [k for k in cli.RESULT_REQUIRED[report["scenario"]["kind"]] if k not in results]
    assert not missing, f"results lack {missing}"
    return report


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_scenario_writes_a_valid_report(tmp_path, path):
    scenario = parse_scenario_file(str(path))
    bundle = cli.run(scenario, out_prefix=str(tmp_path / path.stem))
    assert bundle.exit_code == cli.EXIT_OK
    report = _valid_report(bundle.json_path)
    assert report["scenario"]["kind"] == scenario.kind
    assert all(p.exists() for p in bundle.csv_paths)


def _multibody_scenario(tmp_path: Path, **changes) -> Path:
    doc = yaml.safe_load((SCENARIOS / "multibody_demo.yaml").read_text(encoding="utf-8"))
    section = doc["simulate"]
    section["sim"]["t_end"] = 5.0
    for key, value in changes.items():
        section[key] = value
    path = tmp_path / "multibody.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "changes, expected_loops",
    [
        ({}, 2),  # the scenario's loop is the demo's filtered loop
        ({"setpoint": [{"t": 0.0, "kind": "step", "value": 0.5}]}, 3),
    ],
    ids=["same_loop", "other_setpoint"],
)
def test_multibody_scenario_simulates_each_loop_once(tmp_path, monkeypatch, changes, expected_loops):
    simulated = []
    original = loops.simulate_loop

    def counting(spec):
        simulated.append(spec)
        return original(spec)

    monkeypatch.setattr(loops, "simulate_loop", counting)
    monkeypatch.setattr(cli, "simulate_loop", counting)
    scenario = parse_scenario_file(str(_multibody_scenario(tmp_path, **changes)))
    bundle = cli.run(scenario, out_prefix=str(tmp_path / "out"))
    assert bundle.exit_code == cli.EXIT_OK
    assert len(simulated) == expected_loops
    assert _valid_report(bundle.json_path)["results"]["samples"] == 2501


def test_multibody_with_saturation_withholds_verdicts(tmp_path, capsys):
    controller = {"kp": 0.00941, "ki": 6.53e-05, "kd": 0.339, "n": 100.0, "umin": -5.0, "umax": 5.0}
    path = _multibody_scenario(tmp_path, controller=controller)
    out = tmp_path / "saturated"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    results = _valid_report(out.with_suffix(".json"))["results"]
    assert results["stability_verdict"] is None
    assert results["multibody"]["filtered"]["stability_verdict"] is None
    assert results["multibody"]["filtered"]["characteristic"] is None
    assert results["multibody"]["ideal"]["stability_verdict"] == "poles_unstable"
    assert "error" not in capsys.readouterr().err


_SPEED_LOOP = (SCENARIOS / "speed_loop_pi.yaml").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "command, text, extra_args, message",
    [
        ("simulate", "kind: simulate\nsimulate:\n  sim: {t_end: .nan}\n", [], "simulate.sim: t_end"),
        ("simulate", "kind: simulate\nsimulate:\n  sim: {t_end: .inf}\n", [], "simulate.sim: t_end"),
        ("simulate", "kind: simulate\nsimulate:\n  sim: {dt: .inf, t_end: .inf}\n", [], "simulate.sim: dt"),
        ("poles", "kind: poles\npoles:\n  den: [0.0, 2.0]\n", [], "poles.den"),
        ("simulate", _SPEED_LOOP, ["--t-end", "inf"], "sim override: t_end"),
    ],
    ids=["t_end_nan", "t_end_inf", "dt_inf", "poles_constant_den", "t_end_override_inf"],
)
def test_malformed_input_exits_1_naming_the_key(tmp_path, capsys, command, text, extra_args, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main([command, "--scenario", str(path), "--out", str(out), *extra_args])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert not out.with_suffix(".json").exists()


def test_overrides_leave_the_parsed_scenario_unchanged(tmp_path):
    scenario = parse_scenario_file(str(SCENARIOS / "speed_loop_pi.yaml"))
    before = copy.deepcopy(scenario.resolved)
    reports = []
    for t_end in (1.0, 2.0):
        bundle = cli.run(scenario, out_prefix=str(tmp_path / f"run_{t_end:g}"), t_end=t_end)
        reports.append(_valid_report(bundle.json_path))
    assert scenario.resolved == before
    assert scenario.payload[0].sim.t_end == 20.0
    assert [r["scenario"]["simulate"]["sim"]["t_end"] for r in reports] == [1.0, 2.0]
    assert [r["results"]["samples"] for r in reports] == [1001, 2001]



_HUGE = "9" * 401
_SIM = "kind: simulate\nsimulate:\n  "


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("simulate", _SIM + "controller: {kp: .nan}\n", "simulate.controller.kp"),
        ("simulate", _SIM + "controller: {n: .nan}\n", "simulate.controller.n"),
        ("simulate", _SIM + "controller: {kp: " + _HUGE + "}\n", "simulate.controller.kp"),
        ("simulate", _SIM + "sensor: {noise_sigma: .nan}\n", "simulate.sensor.noise_sigma"),
        ("simulate", _SIM + "fault: {kind: stuck, onset_t: .nan}\n", "simulate.fault.onset_t"),
        ("simulate", _SIM + "setpoint: [{t: .nan}]\n", "simulate.setpoint[0].t"),
        ("simulate", _SIM + "sim: {t_end: 1.0e+15}\n", "simulate.sim: t_end / dt"),
        ("simulate", _SIM + "sim: {dt: 1.0e-300, t_end: 1.0e+300}\n", "simulate.sim: t_end / dt"),
        ("tune", "kind: tune\ntune:\n  bounds: {kp: [.nan, 1.0]}\n", "tune.bounds.kp[0]"),
        ("size", "kind: size\nsizing: {width: " + _HUGE + "}\n", "sizing.width"),
    ],
    ids=[
        "kp_nan", "n_nan", "kp_huge", "noise_nan", "onset_nan", "setpoint_t_nan",
        "t_end_1e15", "dt_1e-300", "bounds_nan", "width_huge",
    ],
)
def test_nan_huge_and_long_inputs_exit_1_at_parse_time(
    tmp_path, capsys, monkeypatch, command, text, message
):
    def no_simulation(spec):
        raise AssertionError("a malformed scenario reached the simulator")

    monkeypatch.setattr(cli, "simulate_loop", no_simulation)
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    code = cli.main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


_OVERFLOWING_RAMP = "setpoint: [{t: 0.0, kind: step, value: 1.0}, {t: 1.0, kind: ramp, value: 1.0e+305}]\n"


@pytest.mark.parametrize(
    "command, text, override, message",
    [
        ("simulate", _SIM + "setpoint: [{t: 0.0, kind: step, value: .inf}]\n", [],
         "simulate.setpoint[0].value"),
        ("simulate", _SIM + "setpoint: [{t: 0.0, kind: step, value: 1.0}, {t: 2.0, value: -.inf}]\n", [],
         "simulate.setpoint[1].value"),
        ("simulate", _SIM + "setpoint: [{t: 0.0, kind: ramp, value: 1.0e+308}]\n", [],
         "simulate.setpoint[0].value"),
        ("tune", "kind: tune\ntune:\n  loop:\n    setpoint: [{t: 0.0, value: .inf}]\n", [],
         "tune.loop.setpoint[0].value"),
        ("simulate", _SIM + _OVERFLOWING_RAMP + "  sim: {t_end: 3.0}\n", ["--t-end", "5000"],
         "sim override: setpoint[1].value"),
    ],
    ids=["step_inf", "step_minus_inf", "ramp_overflow", "tune_loop", "override_overflow"],
)
def test_nonfinite_setpoints_exit_1_before_simulating(
    tmp_path, capsys, monkeypatch, command, text, override, message
):
    def no_simulation(spec):
        raise AssertionError("a non-finite setpoint reached the simulator")

    monkeypatch.setattr(cli, "simulate_loop", no_simulation)
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    code = cli.main([command, "--scenario", str(path), "--out", str(tmp_path / "out"), *override])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert err.startswith(f"error: {message}: ")
    assert "Traceback" not in err


def test_ramp_that_overflows_after_the_horizon_runs(tmp_path):
    path = tmp_path / "ramp.yaml"
    path.write_text(_SIM + _OVERFLOWING_RAMP + "  sim: {t_end: 3.0}\n", encoding="utf-8")
    assert cli.run(parse_scenario_file(str(path)), out_prefix=str(tmp_path / "out")).exit_code == cli.EXIT_OK
