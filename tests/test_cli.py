"""Command-line runs end to end: shipped scenarios, report schema, input
errors, overrides, and reuse of the multibody demo's filtered loop."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import rollsim
import rollsim.cli as cli
import rollsim.csvfmt as csvfmt
import rollsim.loops as loops
import rollsim.scenario as scenario_module
from rollsim.faults import FaultSpec, SensorModel
from rollsim.loops import LoopSpec, Segment, SetpointProfile
from rollsim.lti import SimConfig, TimeSeries
from rollsim.pid import PidGains
from rollsim.plants import KinematicsMode, PowerScrewParams, power_screw_tf
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
        # the scenario's loop is the demo's ideal-derivative loop
        ({"controller": {"kp": 0.00941, "ki": 6.53e-05, "kd": 0.339, "n": math.inf}}, 2),
        # without a derivative term the scenario's, ideal and filtered loops are one
        ({"controller": {"kp": 0.00941, "ki": 6.53e-05}}, 1),
    ],
    ids=["same_loop", "other_setpoint", "ideal_loop", "no_derivative"],
)
def test_multibody_scenario_simulates_each_loop_once(tmp_path, monkeypatch, changes, expected_loops):
    simulated = []
    original = loops.simulate_loop

    def counting(spec, *frame):
        simulated.append(spec)
        return original(spec, *frame)

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
_SIM = "kind: simulate\nsimulate:\n  "


def _nested(depth: int) -> str:
    """A poles scenario whose collections nest ``depth`` deep: the document's
    mapping, the ``poles`` section, and ``den`` as lists in lists."""
    return "kind: poles\npoles: {den: " + "[" * (depth - 2) + "]" * (depth - 2) + "}\n"


_MALFORMED = [
    ("simulate", "kind: simulate\nsimulate:\n  sim: {t_end: .nan}\n", [], "simulate.sim: t_end"),
    ("simulate", "kind: simulate\nsimulate:\n  sim: {t_end: .inf}\n", [], "simulate.sim: t_end"),
    ("simulate", "kind: simulate\nsimulate:\n  sim: {dt: .inf, t_end: .inf}\n", [], "simulate.sim: dt"),
    ("poles", "kind: poles\npoles:\n  den: [0.0, 2.0]\n", [], "poles.den"),
    ("simulate", _SPEED_LOOP, ["--t-end", "inf"], "sim override: simulate.sim: t_end"),
    ("simulate", "kind: simulate\nsimulate:\n  controller: {kp: 1, umin: .inf}\n", [], "simulate.controller: output_min"),
    ("size", "kind: size\nsizing: {line_speed: .inf}\n", [], "sizing.line_speed: must be finite"),
    ("size", "kind: size\nsizing: {line_speed: 1.0e308, roll_diameter: 1.0e-300, t_initial: 1.0e-301,"
     " t_final: 1.0e-302}\n", [], "sizing.line_speed: the roll speed"),
    ("size", "kind: size\nsizing: {sigma_y: .inf}\n", [], "sizing.sigma_y: must be finite"),
    ("size", "kind: size\nsizing: {width: .inf}\n", [], "sizing.width: must be finite"),
    ("size", "kind: size\nsizing: {motor_rpm: .inf}\n", [], "sizing.motor_rpm: must be finite"),
    ("size", "kind: size\nsizing: {roll_diameter: .inf}\n", [], "sizing.roll_diameter: must be finite"),
    ("size", "kind: size\nsizing: {sigma_y: 1.0e300, width: 1.0e100}\n", [], "sizing: force_F overflows"),
    ("size", "kind: size\nsizing: {motor_rpm: 1.0e308}\n", [], "sizing: vfd_frequency overflows"),
    ("size", "kind: size\nsizing: {sigma_y: 0}\n", [], "sizing.sigma_y: must be > 0"),
    ("size", "kind: size\nsizing: {width: -1}\n", [], "sizing.width: must be > 0"),
    ("size", "kind: size\nsizing: {line_speed: -1}\n", [], "sizing.line_speed: must be >= 0"),
    ("size", "kind: size\nsizing: {motor_rpm: 0}\n", [], "sizing.motor_rpm: must be > 0"),
    # Half the least subnormal diameter rounds to zero: no division by it.
    ("size", "kind: size\nsizing: {roll_diameter: 5.0e-324, t_initial: 1 mm, t_final: 1 mm}\n", [],
     "sizing.line_speed: the roll speed"),
    ("poles", "kind: poles\npoles:\n  den: [1, 1.0e+100, 1.0e-200]\n", [], "poles.den: pole 0.0 is not accurate"),
    ("poles", "kind: poles\npoles:\n  den: [1.0e-300, 1.0e+300, 1]\n", [],
     "poles: transfer function coefficients must be finite, also with the denominator made monic"),
    ("poles", "kind: poles\npoles: {num: [1.0e+300], den: [1.0e-300, 1]}\n", [], "poles: transfer function"),
    ("simulate", _SIM + "plant: {kind: tf, num: [1], den: [1.0e-300, 1.0e+300, 1]}\n", [],
     "simulate.plant: transfer function coefficients must be finite"),
    # Found by the end-to-end fuzz: a RuntimeWarning, then a traceback, in the realization.
    ("simulate", _SIM + "plant: {kind: tf, num: [-2.2, 1.0e-300], den: [1.0e-300, 2.75]}\n", [],
     "simulate.plant: the state-space output map C = b - a D overflows"),
    # Every run uses the exact hold map; the former step-map option is no key.
    ("simulate", _SIM + "sim: {dt: 0.01, integrator: rk4}\n", [], "unknown key(s): simulate.sim.integrator"),
    ("tune", "kind: tune\ntune:\n  loop: {sim: {integrator: euler}}\n", [],
     "unknown key(s): tune.loop.sim.integrator"),
    # The tuner sets every candidate's gains; the loop keeps n, umin and umax.
    ("tune", "kind: tune\ntune:\n  loop: {controller: {kp: 5.0, ki: 2.0, kd: 0.1, n: 50.0}}\n", [],
     "unknown key(s): tune.loop.controller.kd, tune.loop.controller.ki, tune.loop.controller.kp"),
    # With n 0 the loop has no derivative, so kd would change no run.
    ("tune", "kind: tune\ntune:\n  method: grid\n  bounds: {kp: [1, 10], kd: [0, 5]}\n  grid_points: 3\n", [],
     "tune: kd_bounds must be [0, 0] where derivative_filter_n is 0"),
    ("tune", "kind: tune\ntune:\n  grid_points: 3\n", [], "tune.grid_points: read only with method: grid"),
    ("tune", "kind: tune\ntune:\n  method: nelder_mead\n  grid_points: 9\n", [],
     "tune.grid_points: read only with method: grid"),
    # Only a bias jump and a drift read a magnitude.
    ("simulate", _SIM + "fault: {kind: stuck, onset_t: 1.0, magnitude: 0.7}\n", [],
     "simulate.fault.magnitude: read only with kind: bias_jump or drift"),
    ("simulate", _SIM + "fault: {kind: dropout, onset_t: 1.0, duration: 2.0, magnitude: 0.7}\n", [],
     "simulate.fault.magnitude: read only with kind: bias_jump or drift"),
    # Composing recurses, so nesting is bounded before anything composes;
    # a document at the bound loads and reaches the reader.
    ("poles", _nested(1000), [], f"scenario nests deeper than {scenario_module.MAX_DEPTH} levels at line 2"),
    ("poles", _nested(scenario_module.MAX_DEPTH), [], "poles.den[0]: expected a number, got list"),
]
_MALFORMED_IDS = [
    "t_end_nan", "t_end_inf", "dt_inf", "poles_constant_den", "t_end_override_inf", "umin_inf",
    "line_speed_inf", "roll_speed_overflow", "sigma_y_inf", "width_inf", "motor_rpm_inf", "roll_diameter_inf",
    "force_overflow", "vfd_frequency_overflow", "sigma_y_zero", "width_negative", "line_speed_negative",
    "motor_rpm_zero", "roll_diameter_subnormal", "inaccurate_pole", "den_overflows_monic", "num_overflows_monic",
    "plant_den_overflows_monic", "plant_realization_overflows", "simulate_integrator", "tune_integrator",
    "tune_loop_gains", "tune_kd_without_derivative", "tune_grid_points_default_method",
    "tune_grid_points_nelder_mead", "stuck_magnitude", "dropout_magnitude", "nested_1000_deep", "nested_at_the_bound",
]


@pytest.mark.parametrize("command, text, extra_args, message", _MALFORMED, ids=_MALFORMED_IDS)
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


# ``python -m rollsim`` with the scenario loader swapped for its twin on
# PyYAML's pure-Python parser.
_PURE_PYTHON_MAIN = """\
import runpy, yaml
import rollsim.scenario as sc
sc._Loader = type("Twin", (yaml.SafeLoader,), {"yaml_implicit_resolvers": sc._Loader.yaml_implicit_resolvers})
runpy.run_module("rollsim", run_name="__main__")
"""


@pytest.mark.parametrize("main", [["-m", "rollsim"], ["-c", _PURE_PYTHON_MAIN]], ids=["loader", "pure_python_twin"])
def test_a_document_nested_40000_deep_exits_1_from_a_fresh_interpreter(tmp_path, main):
    # Composing 40,000 levels overflows the C stack; in a child process a
    # broken guard fails this assertion instead of killing the test run.
    path = tmp_path / "deep.yaml"
    path.write_text(_nested(40_000), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["poles", "--scenario", str(path), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, *main, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == cli.EXIT_INPUT_ERROR, proc.stderr
    assert proc.stderr.startswith(f"error: scenario nests deeper than {scenario_module.MAX_DEPTH} levels")
    assert "Traceback" not in proc.stderr


def test_a_tune_loop_detector_exits_1_naming_the_key(tmp_path, capsys):
    path = tmp_path / "tune.yaml"
    path.write_text("kind: tune\ntune:\n  loop: {detector: {residual_threshold: 0.5}}\n", encoding="utf-8")
    code = cli.main(["tune", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: unknown key(s): tune.loop.detector\n"
    assert not (tmp_path / "out.json").exists()


# A usage error exits 1, like any input error: 2 means a divergence.
_USAGE_ERRORS = {
    "no_command": [],
    "unknown_command": ["bogus"],
    "no_scenario": ["simulate"],
    "dt_not_a_number": ["simulate", "--scenario", "x.yaml", "--dt", "abc"],
    # Only simulate and tune runs have a step and a horizon to override.
    "size_dt": ["size", "--scenario", "x.yaml", "--dt", "0.01"],
    "size_t_end": ["size", "--scenario", "x.yaml", "--t-end", "-3"],
    "poles_dt": ["poles", "--scenario", "x.yaml", "--dt", "0.01"],
    "poles_t_end": ["poles", "--scenario", "x.yaml", "--t-end", "5"],
}


@pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.EXIT_INPUT_ERROR
    assert "error: " in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--help"])
    assert info.value.code == cli.EXIT_OK
    assert "--scenario" in capsys.readouterr().out


def test_a_usage_error_exits_1_from_a_fresh_interpreter():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in (["simulate"], ["simulate", "--scenario", "x.yaml", "--dt", "abc"]):
        proc = subprocess.run([sys.executable, "-m", "rollsim", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == cli.EXIT_INPUT_ERROR, proc.stderr
        assert "rollsim simulate: error: " in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "den, expected",
    [
        # s^4 = -1e300: modulus 1e75 on the diagonals, sorted by real part, then imaginary part.
        ([1, 0, 0, 0, 1.0e300], [(a * 7.0710678118654752e74, b * 7.0710678118654752e74)
                                 for a in (-1, 1) for b in (-1, 1)]),
        ([1, 1.0e200, 1], [(-1.0e200, 0.0), (-1.0e-200, 0.0)]),
        ([1.0e-300, 1, 1], [(-1.0e300, 0.0), (-1.0, 0.0)]),
    ],
    ids=["quartic_1e300", "spread_1e200", "tiny_lead"],
)
def test_poles_of_widely_scaled_denominators_are_reported(tmp_path, den, expected):
    path = tmp_path / "poles.yaml"
    path.write_text(f"kind: poles\npoles:\n  den: {den}\n", encoding="utf-8")
    out = tmp_path / "poles"
    assert cli.main(["poles", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    reported = _valid_report(out.with_suffix(".json"))["results"]["poles"]
    assert [r["re"] for r in reported] == pytest.approx([re for re, _ in expected], rel=1e-12)
    assert [r["im"] for r in reported] == pytest.approx([im for _, im in expected], rel=1e-12)


@pytest.mark.parametrize(
    "kind, name, stem", [("poles", "poles", "poles_multibody"), ("size", "size_report", "size_mill")]
)
def test_a_run_computes_its_analysis_once(tmp_path, monkeypatch, kind, name, stem):
    # Wrapped in every rollsim module that binds it, so a call while parsing counts too.
    calls = []
    original = getattr(cli, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in [m for key, m in sys.modules.items() if key.startswith("rollsim")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    out = tmp_path / kind
    assert cli.main([kind, "--scenario", str(SCENARIOS / f"{stem}.yaml"), "--out", str(out)]) == cli.EXIT_OK
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "name, sim_path", [("speed_loop_pi", ["simulate"]), ("tune_speed_grid", ["tune", "loop"])],
    ids=["simulate", "tune"],
)
def test_an_override_runs_the_file_with_it_written_in(tmp_path, name, sim_path):
    shipped = str(SCENARIOS / f"{name}.yaml")
    doc = yaml.safe_load(Path(shipped).read_text(encoding="utf-8"))
    section = doc
    for key in sim_path:
        section = section[key]
    section["sim"]["t_end"] = 2.5
    edited = tmp_path / "edited.yaml"
    edited.write_text(yaml.safe_dump(doc), encoding="utf-8")
    overridden = cli._apply_overrides(parse_scenario_file(shipped), None, 2.5)
    written = parse_scenario_file(str(edited))
    assert overridden.resolved == written.resolved
    assert overridden.payload == written.payload

    a = cli.run(parse_scenario_file(shipped), out_prefix=str(tmp_path / "a"), t_end=2.5)
    b = cli.run(written, out_prefix=str(tmp_path / "b"))
    ra, rb = (json.loads(x.json_path.read_text(encoding="utf-8")) for x in (a, b))
    assert (ra["scenario"], ra["results"]) == (rb["scenario"], rb["results"])
    assert a.csv_paths[0].read_bytes() == b.csv_paths[0].read_bytes()


@pytest.mark.parametrize("override", [{"dt": 0.01}, {"t_end": -3.0}, {"dt": 0.01, "t_end": 5.0}],
                         ids=["dt", "t_end", "both"])
@pytest.mark.parametrize("name", ["size_mill", "poles_multibody"])
def test_an_override_of_a_run_without_a_simulation_is_an_error(tmp_path, name, override):
    scenario = parse_scenario_file(str(SCENARIOS / f"{name}.yaml"))
    with pytest.raises(scenario_module.ScenarioError, match=f"^sim override: a {scenario.kind} scenario has no dt"):
        cli.run(scenario, out_prefix=str(tmp_path / "out"), **override)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["run_1.5ms", "run_1.25ms", "v2.0.json"])
def test_a_dotted_prefix_keeps_its_dots(tmp_path, name):
    # The file names append to the prefix; no part of it is read as a suffix.
    text = _SPEED_LOOP.replace("output_prefix: runs/speed_loop_pi", f"output_prefix: {tmp_path / name}")
    path = tmp_path / "loop.yaml"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "b" / name
    assert cli.main(["simulate", "--scenario", str(path), "--t-end", "0.1"]) == cli.EXIT_OK
    assert cli.main(["simulate", "--scenario", str(path), "--t-end", "0.2", "--out", str(out)]) == cli.EXIT_OK
    for prefix, samples in ((tmp_path / name, 101), (out, 201)):
        report = _valid_report(Path(f"{prefix}.json"))
        assert report["results"]["samples"] == samples
        assert len(Path(f"{prefix}.csv").read_text(encoding="utf-8").splitlines()) == samples + 1


@pytest.mark.parametrize("prefix", ["", ".", "..", "runs/", "runs/.", "runs/.."])
@pytest.mark.parametrize("where", ["--out", "output_prefix"])
def test_a_prefix_that_ends_in_a_directory_exits_1_naming_its_key(tmp_path, monkeypatch, capsys, prefix, where):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "poles.yaml"
    if where == "--out":
        path.write_text("kind: poles\npoles: {den: [1, 1]}\n", encoding="utf-8")
        argv = ["poles", "--scenario", str(path), "--out", prefix]
    else:
        path.write_text(f"kind: poles\noutput_prefix: '{prefix}'\npoles: {{den: [1, 1]}}\n", encoding="utf-8")
        argv = ["poles", "--scenario", str(path)]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: the prefix {prefix!r} ends in a directory") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["poles.yaml"]


_HUGE = "9" * 401


_AT_PARSE_TIME = [
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
    ("simulate", _SIM + "fault: {kind: drift, onset_t: 0.5, magnitude: .inf}\n",
     "simulate.fault: magnitude must be finite"),
    ("simulate", _SIM + "fault: {kind: bias_jump, onset_t: 0.5, magnitude: -.inf}\n",
     "simulate.fault: magnitude must be finite"),
    ("simulate", _SIM + "sensor: {bias: .inf}\n", "simulate.sensor: bias must be finite"),
    ("simulate", _SIM + "sensor: {noise_sigma: .inf}\n", "simulate.sensor: noise_sigma must be finite"),
    ("simulate", _SIM + "sensor: {quantization_step: .inf}\n",
     "simulate.sensor: quantization_step must be finite"),
    ("simulate", _SIM + "controller: {kp: .inf}\n", "simulate.controller: PID gains must be >= 0 and finite: kp"),
    ("simulate", _SIM + "controller: {ki: .inf}\n", "simulate.controller: PID gains must be >= 0 and finite: ki"),
    ("simulate", _SIM + "controller: {kd: .inf, n: 100}\n",
     "simulate.controller: PID gains must be >= 0 and finite: kd"),
    ("tune", "kind: tune\ntune:\n  bounds: {kp: [0, .inf]}\n", "tune: kp_bounds must be finite"),
]
_AT_PARSE_TIME_IDS = [
    "kp_nan", "n_nan", "kp_huge", "noise_nan", "onset_nan", "setpoint_t_nan",
    "t_end_1e15", "dt_1e-300", "bounds_nan", "width_huge",
    "drift_inf", "bias_jump_minus_inf", "bias_inf", "noise_inf", "quantization_inf",
    "kp_inf", "ki_inf", "kd_inf", "bounds_inf",
]


@pytest.mark.parametrize("command, text, message", _AT_PARSE_TIME, ids=_AT_PARSE_TIME_IDS)
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
         "sim override: simulate.setpoint[1].value"),
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


def _reference_series_csv(path: Path, series) -> None:
    """The per-value writer the chunked one must match byte for byte."""
    columns = ["t", "setpoint", "y_true", "y_measured", "error", "u"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        data = [series.t] + [series[c] for c in columns[1:]]
        for row in zip(*data):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")


def test_series_csv_bytes_match_the_per_value_writer(tmp_path):
    rng = np.random.default_rng(4)
    rows = 1024 * 2 + 17  # two full chunks and a partial one
    special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
               1e-310, 1.7976931348623157e308, 123456789012.5, 1e-5, 0.1 + 0.2]
    channels = {}
    for i, name in enumerate(["setpoint", "y_true", "y_measured", "error", "u"]):
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
        values[i::len(special)][: len(special)] = special
        channels[name] = values
    series = TimeSeries(t=np.arange(rows) * 1e-3, channels=channels)
    cli._write_csv(tmp_path / "chunked.csv", *cli._series_table(series))
    _reference_series_csv(tmp_path / "reference.csv", series)
    written = (tmp_path / "chunked.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert b"-0," in written and b"nan" in written and b"-inf" in written and b"e-324" in written


def _per_value_rows(values: np.ndarray) -> bytes:
    return "".join(["%.12g\n" % v for v in values.tolist()]).encode()


def _ulps(values: np.ndarray, count: int) -> np.ndarray:
    """``values`` and their neighbours up to ``count`` ulps away on each side."""
    out = [values]
    for direction in (math.inf, -math.inf):
        step = values
        for _ in range(count):
            with np.errstate(over="ignore"):  # the largest double steps to inf
                step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def _boundary_values() -> np.ndarray:
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # Twelve nines and a 5: where rounding to 12 digits carries into the next power of ten.
    rollover = np.array([float(f"9.999999999995e{e}") for e in range(-324, 308)])
    switches = np.array([1e-5, 1e-4, 1e11, 1e12, 9.99999999999e-6, 9.99999999999e-5, 99999999999.0])
    twelve = np.random.default_rng(5).integers(10**11, 10**12, 200)
    ties = np.concatenate([
        (10 * twelve + 5).astype(float),          # 13 digits ending in 5
        (10 * twelve + 5).astype(float) * 100.0,
        twelve + 0.5,
        twelve // 10 + 0.25,
        twelve // 100 + 0.125,
        twelve // 1000 + 0.0625,
    ])
    grid = np.arange(-100_000, 100_001) * 1e-6   # the quantizer's 1e-6 step
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310,
                        2.2250738585072014e-308, 1.7976931348623157e308, 1e-280, 1e280])
    values = np.concatenate([_ulps(powers, 3), _ulps(rollover, 3), _ulps(switches, 3), ties, grid,
                             _ulps(special[5:], 2)])
    return np.concatenate([values, -values, special[:5]])


def test_formatted_values_match_percent_g_at_every_boundary():
    values = _boundary_values()
    assert csvfmt.format_rows([values]) == _per_value_rows(values)


def _per_row(data: np.ndarray) -> bytes:
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in data.T.tolist()).encode()


@given(values=st.lists(st.floats(), min_size=1, max_size=120), columns=st.integers(1, 6))
def test_formatted_rows_match_percent_g(values, columns):
    rows = max(len(values) // columns, 1)
    # Tiled to at least _SMALL values, so the numpy path formats them.
    data = np.tile(np.resize(np.array(values), (columns, rows)), -(-csvfmt._SMALL // (columns * rows)))
    assert data.size >= csvfmt._SMALL
    assert csvfmt.format_rows(list(data)) == _per_row(data)


@pytest.mark.parametrize("columns", [1, 5, 6])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_rows_either_side_of_the_small_table_crossover_match_percent_g(columns, offset):
    # The fewest rows that reach _SMALL values, and a row fewer or more.
    rows = -(-csvfmt._SMALL // columns) + offset
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(columns * rows) * 10.0 ** rng.integers(-30, 30, columns * rows)
    values[:8] = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 9.999999999995e-5, 1e12]
    data = values.reshape(columns, rows)
    assert csvfmt.format_rows(list(data)) == _per_row(data)


def test_a_small_table_builds_no_word_tables(monkeypatch):
    def fail():
        raise AssertionError("the word tables were built")

    monkeypatch.setattr(csvfmt, "_tables", fail)
    rows = (csvfmt._SMALL - 1) // 5
    data = np.arange(5 * rows, dtype=float).reshape(5, rows) / 7.0
    assert csvfmt.format_rows(list(data)) == _per_row(data)
    assert csvfmt.format_rows([np.empty(0)] * 5) == b""


def _reference_history_csv(path: Path, history) -> None:
    """The f-string writer the history CSV must match byte for byte."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("eval,kp,ki,kd,cost\n")
        for i, (gains, cost) in enumerate(history):
            fh.write(f"{i},{gains.kp:.12g},{gains.ki:.12g},{gains.kd:.12g},{cost:.12g}\n")


@pytest.mark.parametrize("evals", [0, 1, 1500])
def test_history_csv_bytes_match_the_fstring_writer(tmp_path, evals):
    rng = np.random.default_rng(evals)
    costs = rng.standard_normal(evals) * 10.0 ** rng.integers(-8, 8, evals)
    costs[::7] = math.inf
    history = [
        (PidGains(kp=kp, ki=ki, kd=kd), cost)
        for kp, ki, kd, cost in zip(*rng.uniform(0.0, 50.0, (3, evals)).tolist(), costs.tolist())
    ]
    cli._write_csv(tmp_path / "history.csv", *cli._history_table(history))
    _reference_history_csv(tmp_path / "reference.csv", history)
    written = (tmp_path / "history.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\n") == evals + 1


def test_a_fault_sweep_series_rarely_takes_the_percent_g_fallback():
    # Shaped like a fault-sweep job: gap loop, fine noisy quantizer, a fault.
    spec = LoopSpec(
        plant=power_screw_tf(PowerScrewParams(lead=0.005), KinematicsMode.INTEGRATED),
        gains=PidGains(kp=4000.0, ki=800.0),
        setpoint=SetpointProfile(segments=(Segment(0.0, "step", 0.002), Segment(6.0, "step", 0.0025))),
        sensor=SensorModel(noise_sigma=1e-6, quantization_step=1e-6),
        fault=FaultSpec(kind="drift", onset_t=5.0, magnitude=1e-4), seed=3, sim=SimConfig(dt=1e-3, t_end=10.0),
    )
    series = loops.simulate_loop(spec).series
    values = np.concatenate([series.t] + [series[c] for c in ("setpoint", "y_true", "y_measured", "error", "u")])
    _, _, fast = csvfmt._decompose(np.concatenate([values, [0.0, -0.0]]))
    assert np.count_nonzero(~fast) < 0.01 * len(values)
    assert fast[-2:].all()  # a series at rest is mostly zeros


def test_the_reported_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SCENARIOS.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert rollsim.__version__ == pyproject["project"]["version"]


def test_version_command_prints_the_package_version(capsys):
    assert cli.main(["version"]) == cli.EXIT_OK
    assert capsys.readouterr().out == f"rollsim {rollsim.__version__}\n"


_PURE_GAIN = """\
kind: simulate
simulate:
  plant: {{kind: tf, num: [{num}], den: [1.0]}}
  controller: {{kp: 1.0}}
  sim: {{dt: 0.01, t_end: 1.0}}
"""


@pytest.mark.parametrize("num, verdict", [(2.0, "poles_stable"), (-1.0, None)], ids=["constant", "zero"])
def test_loop_with_a_constant_characteristic_polynomial_runs(tmp_path, capsys, num, verdict):
    # 1 + 2 = 3 has no poles; 1 + (-1) = 0 makes the loop equation singular.
    path = tmp_path / "gain.yaml"
    path.write_text(_PURE_GAIN.format(num=num), encoding="utf-8")
    out = tmp_path / "gain"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    assert _valid_report(out.with_suffix(".json"))["results"]["stability_verdict"] == verdict


def test_diverging_quantized_loop_exits_2_with_partial_outputs(tmp_path, capsys):
    path = tmp_path / "unstable.yaml"
    path.write_text(
        "kind: simulate\nsimulate:\n"
        "  plant: {kind: tf, num: [1.0], den: [1.0, -60.0]}\n"
        "  controller: {kp: 1.0}\n"
        "  sensor: {noise_sigma: 1.0e-6, quantization_step: 1.0e-6}\n"
        "  sim: {dt: 0.01, t_end: 30.0}\n",
        encoding="utf-8",
    )
    out = tmp_path / "unstable"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_DIVERGED
    assert "Traceback" not in capsys.readouterr().err
    results = _valid_report(out.with_suffix(".json"))["results"]
    assert results["diverged"] and 0.0 < results["divergence_time"] < 30.0


def test_an_overflowing_step_map_diverges_at_once_without_a_warning(tmp_path):
    # A pole at +1e300 overflows the hold map.  Run in a fresh interpreter,
    # where a RuntimeWarning would print to stderr instead of being raised.
    path = tmp_path / "overflow.yaml"
    path.write_text(
        "kind: simulate\nsimulate:\n"
        "  plant: {kind: tf, num: [1.0], den: [1.0e-300, -1.0]}\n"
        "  controller: {kp: 1.0}\n"
        "  sim: {dt: 1.0e-3, t_end: 1.0}\n",
        encoding="utf-8",
    )
    out = tmp_path / "overflow"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "rollsim", "simulate", "--scenario", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == cli.EXIT_DIVERGED
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    results = _valid_report(out.with_suffix(".json"))["results"]
    assert results["diverged"] and results["divergence_time"] == 1e-3


@pytest.mark.parametrize(
    "body, divergence_time",
    [
        ("plant: {kind: tf, num: [-0.13], den: [1.0e-300, 1.0e-300]}\n"
         "  controller: {ki: 9.0, kd: 1.0e+300, n: 100.0, umax: 9.0}\n", 0.003),
        ("plant: {kind: tf, num: [1.0e+300, 1.0e+300], den: [4.08, -1.07]}\n"
         "  controller: {ki: 1.0e+300, n: .inf}\n  fault: {kind: bias_jump, onset_t: 1.23}\n", 0.001),
        ("plant: {kind: tf, num: [1.0e+300, 1.0e+300], den: [4.08, -1.07]}\n"
         "  controller: {ki: 1.0e+300, n: .inf}\n", 0.001),
    ],
    ids=["clamped", "faulty", "linear"],
)
def test_loops_whose_maps_overflow_diverge_without_a_warning(tmp_path, capsys, body, divergence_time):
    # Found by the end-to-end fuzz: the clamped and faulty loops raised a
    # RuntimeWarning building their maps (an error under this suite), and
    # the linear loop's overflowed characteristic polynomial a LinAlgError.
    path = tmp_path / "overflow.yaml"
    path.write_text(_SIM + body + "  sim: {dt: 0.001, t_end: 2.0}\n", encoding="utf-8")
    out = tmp_path / "overflow"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == cli.EXIT_DIVERGED
    assert "Traceback" not in capsys.readouterr().err
    results = _valid_report(out.with_suffix(".json"))["results"]
    assert results["diverged"] and results["divergence_time"] == divergence_time
    assert results["stability_verdict"] is None


def test_jobs_is_a_usage_error_and_tuning_runs_no_process_pool(tmp_path, monkeypatch, capsys):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("tuning started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    out = tmp_path / "tune"
    args = ["tune", "--scenario", str(SCENARIOS / "tune_speed_grid.yaml"), "--out", str(out)]
    with pytest.raises(SystemExit) as info:
        cli.main([*args, "--jobs", "3"])
    assert info.value.code == cli.EXIT_INPUT_ERROR
    assert "unrecognized arguments: --jobs 3" in capsys.readouterr().err
    assert not out.with_suffix(".json").exists()
    assert cli.main(args) == cli.EXIT_OK
    assert _valid_report(out.with_suffix(".json"))["results"]["evals"] > 1


def test_every_list_of_kinds_holds_the_same_kinds():
    kinds = list(cli.RESULT_REQUIRED)
    subcommands = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
    assert {kind: runner.__name__ for kind, runner in cli._RUNNERS.items()} == {k: f"_run_{k}" for k in kinds}
    assert cli.REPORT_SCHEMA["properties"]["scenario"]["properties"]["kind"]["enum"] == kinds
    assert [name for name in subcommands if name != "version"] == kinds
    assert list(scenario_module._SECTIONS) == kinds


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_run_writes_the_csv_before_the_report(tmp_path, monkeypatch, path):
    written = []

    def recording(write):
        def wrapper(path, *args):
            written.append(path.name)
            return write(path, *args)
        return wrapper

    for name in ("_write_csv", "_write_json"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    scenario = parse_scenario_file(str(path))
    bundle = cli.run(scenario, out_prefix=str(tmp_path / "out"))
    assert bundle.csv_paths == ([] if scenario.kind in ("size", "poles") else [tmp_path / "out.csv"])
    assert written == [p.name for p in [*bundle.csv_paths, bundle.json_path]]


# End-to-end fuzz: mostly valid scenarios of every kind, now and then with an
# extreme magnitude, run through ``cli.main`` over at most 2,001 samples.
_EXTREME = st.sampled_from([1.0e300, -1.0e300, 1.0e-300])


def _value(lo, hi):
    """Mostly a plausible number, a quarter of the time an extreme one."""
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi), _EXTREME)


def _some(**fields):
    return st.fixed_dictionaries({}, optional=fields)


_E2E_PLANT = st.one_of(
    st.fixed_dictionaries({"kind": st.just("roll_drive")}, optional={k: _value(0.01, 10.0) for k in "KJBr"}),
    st.fixed_dictionaries(
        {"kind": st.just("power_screw")},
        optional={"lead": _value(0.001, 0.01), "mode": st.sampled_from(["integrated", "paper_literal"])},
    ),
    st.just({"kind": "multibody"}),
    st.fixed_dictionaries({
        "kind": st.just("tf"),
        "num": st.lists(_value(-5.0, 5.0), min_size=1, max_size=2),
        "den": st.lists(_value(-5.0, 5.0), min_size=2, max_size=4),
    }),
)
_E2E_LOOP = {
    "plant": _E2E_PLANT,
    "controller": _some(
        kp=_value(0.0, 50.0), ki=_value(0.0, 20.0), kd=_value(0.0, 1.0),
        n=st.sampled_from([0.0, 100.0, math.inf]), umin=_value(-10.0, -0.1), umax=_value(0.1, 10.0),
    ),
    "setpoint": st.lists(
        _some(kind=st.sampled_from(["step", "ramp", "hold"]), value=_value(-2.0, 2.0)), min_size=1, max_size=3
    ).map(lambda segments: [{"t": 0.5 * i, **segment} for i, segment in enumerate(segments)]),
    "sim": st.fixed_dictionaries({"dt": st.sampled_from([1e-3, 2e-3, 5e-3])}),
    "seed": st.integers(-5, 10**6),
}
_E2E_SIMULATE = _some(
    **_E2E_LOOP,
    sensor=_some(
        noise_sigma=_value(0.0, 0.01), bias=_value(-0.01, 0.01), quantization_step=_value(0.0, 0.01),
        sample_dt=st.sampled_from([0.0, 2e-3, 3.5e-3]),
    ),
    fault=st.fixed_dictionaries(
        {"kind": st.sampled_from(["stuck", "bias_jump", "drift", "dropout"]), "onset_t": _value(0.0, 2.0)},
        optional={"magnitude": _value(-0.1, 0.1), "duration": _value(0.01, 1.0)},
    ),
    detector=st.fixed_dictionaries(
        {"residual_threshold": _value(1e-4, 0.1)}, optional={"consecutive_required": st.integers(1, 5)}
    ),
)
_E2E_BODIES = {
    "size": _some(
        sigma_y=_value(1e6, 5e8), width=_value(0.1, 3.0), t_initial=_value(0.002, 0.05),
        t_final=_value(0.0005, 0.002), roll_diameter=_value(0.1, 1.0), line_speed=_value(0.0, 5.0),
        motor_rpm=_value(100.0, 3000.0), motor_poles=st.sampled_from([2, 4, 6]),
        contact_mode=st.sampled_from(["approx", "exact"]),
    ),
    "simulate": _E2E_SIMULATE,
    "tune": _some(
        loop=_some(**_E2E_LOOP),
        bounds=_some(**{g: st.tuples(_value(0.0, 5.0), _value(5.0, 50.0)).map(list) for g in ("kp", "ki")}),
        initial=_some(kp=_value(0.0, 10.0), ki=_value(0.0, 10.0)),
        cost=st.sampled_from(["itae", "ise", "iae"]),
        method=st.sampled_from(["nelder_mead", "grid"]),
        grid_points=st.integers(1, 3),
        max_evals=st.integers(1, 6),
    ),
    "poles": st.fixed_dictionaries(
        {"den": st.lists(_value(-5.0, 5.0), min_size=2, max_size=6)},
        optional={"num": st.lists(_value(-5.0, 5.0), min_size=1, max_size=3)},
    ),
}
_E2E_DOCS = st.sampled_from(sorted(_E2E_BODIES)).flatmap(
    lambda kind: _E2E_BODIES[kind].map(lambda body: {"kind": kind, scenario_module._SECTIONS[kind][0]: body})
)


@given(doc=_E2E_DOCS)
@settings(max_examples=60, deadline=None)
def test_fuzzed_scenarios_run_end_to_end(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("fuzz")
    path, out = tmp / "doc.yaml", tmp / "out"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    kind = doc["kind"]
    horizon = ["--t-end", "2.0"] if kind in ("simulate", "tune") else []
    code = cli.main([kind, "--scenario", str(path), "--out", str(out), *horizon])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT_ERROR, cli.EXIT_DIVERGED)
    if code == cli.EXIT_INPUT_ERROR:
        assert not out.with_suffix(".json").exists()
        return
    results = _valid_report(out.with_suffix(".json"))["results"]
    rows = {"simulate": "samples", "tune": "evals"}.get(kind)
    if rows is not None:
        assert out.with_suffix(".csv").read_bytes().count(b"\n") == results[rows] + 1


# A report's scenario echo reads back: the writer spells infinities as the
# reader takes them.
_INFINITE_GAINS = {
    "n_and_umax_inf": "kind: simulate\nsimulate:\n  controller: {kp: 1.0, kd: 0.5, n: .inf, umax: .inf}\n",
    "umin_minus_inf": "kind: tune\ntune:\n  loop:\n    controller: {umin: -.inf}\n",
}
_ECHOED = {
    **{p.stem: p.read_text(encoding="utf-8") for p in sorted(SCENARIOS.glob("*.yaml"))},
    **_INFINITE_GAINS,
    # A string prefix that reads as a float where unquoted.
    "float_looking_prefix": "kind: size\noutput_prefix: '1e5'\n",
}


def _assert_echo_reads_back(tmp_path: Path, scenario) -> str:
    path = tmp_path / "echo.json"
    cli._write_json(path, scenario, {}, 0.0)
    text = path.read_text(encoding="utf-8")
    again = scenario_module.read_scenario(json.loads(text)["scenario"])
    assert again.resolved == scenario.resolved
    assert again.payload == scenario.payload
    return text


@pytest.mark.parametrize("text", _ECHOED.values(), ids=_ECHOED.keys())
def test_report_echo_reads_back_to_the_same_scenario(tmp_path, text):
    report = _assert_echo_reads_back(tmp_path, scenario_module.parse_scenario(text))
    assert ('"infinite"' in report or '"-infinite"' in report) == (text in _INFINITE_GAINS.values())


@given(doc=_E2E_DOCS)
@settings(max_examples=60, deadline=None)
def test_fuzzed_report_echoes_read_back(tmp_path_factory, doc):
    try:
        scenario = scenario_module.parse_scenario(yaml.safe_dump(doc))
    except scenario_module.ScenarioError:
        return
    _assert_echo_reads_back(tmp_path_factory.mktemp("echo"), scenario)
