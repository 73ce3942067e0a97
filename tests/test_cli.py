"""Command-line runs end to end: shipped scenarios, report schema, input
errors, overrides, and reuse of the multibody demo's filtered loop."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

import rollsim
import rollsim.cli as cli
import rollsim.csvfmt as csvfmt
import rollsim.loops as loops
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
        ("simulate", _SIM + "fault: {kind: drift, onset_t: 0.5, magnitude: .inf}\n",
         "simulate.fault: magnitude must be finite"),
        ("simulate", _SIM + "fault: {kind: bias_jump, onset_t: 0.5, magnitude: -.inf}\n",
         "simulate.fault: magnitude must be finite"),
        ("simulate", _SIM + "sensor: {bias: .inf}\n", "simulate.sensor: bias must be finite"),
        ("simulate", _SIM + "sensor: {noise_sigma: .inf}\n", "simulate.sensor: noise_sigma must be finite"),
        ("simulate", _SIM + "sensor: {quantization_step: .inf}\n",
         "simulate.sensor: quantization_step must be finite"),
    ],
    ids=[
        "kp_nan", "n_nan", "kp_huge", "noise_nan", "onset_nan", "setpoint_t_nan",
        "t_end_1e15", "dt_1e-300", "bounds_nan", "width_huge",
        "drift_inf", "bias_jump_minus_inf", "bias_inf", "noise_inf", "quantization_inf",
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
    cli._write_series_csv(tmp_path / "chunked.csv", series)
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


@given(values=st.lists(st.floats(), min_size=1, max_size=120), columns=st.integers(1, 6))
def test_formatted_rows_match_percent_g(values, columns):
    rows = max(len(values) // columns, 1)
    data = np.resize(np.array(values), (columns, rows))
    expected = "".join(",".join("%.12g" % v for v in row) + "\n" for row in data.T.tolist()).encode()
    assert csvfmt.format_rows(list(data)) == expected


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
    cli._write_history_csv(tmp_path / "history.csv", history)
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


def test_jobs_is_accepted_and_runs_no_process_pool(tmp_path, monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("tuning started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    out = tmp_path / "tune"
    args = ["tune", "--scenario", str(SCENARIOS / "tune_speed_grid.yaml"), "--out", str(out), "--jobs", "3"]
    assert cli.main(args) == cli.EXIT_OK
    assert _valid_report(out.with_suffix(".json"))["results"]["evals"] > 1
