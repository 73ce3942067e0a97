"""Scenario parsing: the resolved echo round-trips, malformed input names
its key path, and no input raises anything but ScenarioError."""

import copy
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rollsim import scenario as sc
from rollsim.lti import MAX_STEPS
from rollsim.scenario import ScenarioError, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_TF_PLANT_WITH_UMIN = """\
kind: simulate
simulate:
  plant: {kind: tf, num: [2.0], den: [1.0, 3.0, 2.0]}
  controller: {kp: 1.5, ki: 0.5, umin: -1.0}
  setpoint: [{t: 0.0, kind: step, value: 0.5}, {t: 1.0, kind: ramp, value: 0.1}]
  sim: {dt: 0.01, t_end: 2.0}
"""

ROUND_TRIP = {
    **{p.stem: p.read_text(encoding="utf-8") for p in sorted(SCENARIOS.glob("*.yaml"))},
    "size_defaults": "kind: size\n",
    "tune_defaults": "kind: tune\n",
    "tf_plant_with_umin": _TF_PLANT_WITH_UMIN,
}


@pytest.mark.parametrize("text", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
def test_resolved_echo_reparses_to_the_same_scenario(text):
    first = parse_scenario(text)
    again = parse_scenario(yaml.safe_dump(first.resolved))
    assert again.resolved == first.resolved
    assert again.payload == first.payload


def test_defaults_fill_every_key():
    resolved = parse_scenario("kind: simulate\n").resolved["simulate"]
    assert resolved["plant"] == {"kind": "roll_drive", "K": 1.0, "J": 1.0, "B": 1.0, "r": 0.125}
    assert resolved["controller"]["umin"] is None
    assert resolved["sensor"] is None and resolved["fault"] is None
    assert resolved["sim"] == {"dt": 1e-3, "t_end": 20.0}
    null_sim = parse_scenario("kind: simulate\nsimulate: {sim: null}\n")
    assert null_sim.resolved == parse_scenario("kind: simulate\n").resolved


# Guard: every key of every section table reaches the payload.  Each section
# gives its table's keys, a document holding it, where it sits there, and one
# valid non-default value per key; a key without one fails.
_SIMULATE_DOC = {
    "kind": "simulate",
    "simulate": {
        "controller": {},
        "sim": {},
        "sensor": {},
        "fault": {"kind": "stuck", "onset_t": 1.0},
        "detector": {"residual_threshold": 0.1},
        "setpoint": [{}],
    },
}


def _with_plant(**plant):
    return {"kind": "simulate", "simulate": {**_SIMULATE_DOC["simulate"], "plant": plant}}


def _plant_keys(**plant):
    """The keys of a plant kind's table: those of its echo but ``kind``."""
    resolved = sc.read_scenario(_with_plant(**plant)).resolved["simulate"]["plant"]
    return [key for key in resolved if key != "kind"]


_TF = {"kind": "tf", "den": [1.0, 1.0]}
_TUNE_DOC = {"kind": "tune", "tune": {"bounds": {}, "initial": {}}}
# The tuned loop's keys are those of its echo.
_TUNE_LOOP_DOC = {"kind": "tune", "tune": {"loop": {}}}
_TUNE_LOOP_KEYS = list(sc.read_scenario(_TUNE_LOOP_DOC).resolved["tune"]["loop"])
_GUARD = {
    "simulate": (sc._SIMULATE, _SIMULATE_DOC, ("simulate",), {
        "plant": {"kind": "multibody"}, "controller": {"kp": 2.0}, "setpoint": [{"value": 2.0}],
        "sensor": {"bias": 0.1}, "fault": {"kind": "drift", "onset_t": 1.0},
        "detector": {"residual_threshold": 0.5}, "sim": {"dt": 0.002}, "seed": 7,
    }),
    "sim": (sc._SIM, _SIMULATE_DOC, ("simulate", "sim"), {"dt": 0.002, "t_end": 10.0}),
    "sensor": (sc._SENSOR, _SIMULATE_DOC, ("simulate", "sensor"), {
        "noise_sigma": 0.01, "bias": 0.1, "quantization_step": 0.01, "sample_dt": 0.002,
    }),
    "fault": (sc._FAULT, _SIMULATE_DOC, ("simulate", "fault"), {
        "kind": "drift", "onset_t": 2.0, "magnitude": 0.1, "duration": 1.0,
    }),
    "detector": (sc._DETECTOR, _SIMULATE_DOC, ("simulate", "detector"), {
        "residual_threshold": 0.2, "rate_threshold": 1.0, "consecutive_required": 2, "window": 5,
    }),
    "controller": (sc._CONTROLLER, _SIMULATE_DOC, ("simulate", "controller"), {
        "kp": 1.0, "ki": 1.0, "kd": 1.0, "n": 100.0, "umin": -1.0, "umax": 1.0,
    }),
    "segment": (sc._SEGMENT, _SIMULATE_DOC, ("simulate", "setpoint", 0), {"kind": "ramp", "t": 0.5, "value": 2.0}),
    "roll_drive": (_plant_keys(kind="roll_drive"), _with_plant(kind="roll_drive"), ("simulate", "plant"), {
        "K": 2.0, "J": 2.0, "B": 2.0, "r": 0.25,
    }),
    "power_screw": (_plant_keys(kind="power_screw"), _with_plant(kind="power_screw"), ("simulate", "plant"), {
        "K_ps": 2.0, "J_ps": 2.0, "B_ps": 2.0, "lead": "10 mm", "mode": "paper_literal",
    }),
    "tf": (_plant_keys(**_TF), _with_plant(**_TF), ("simulate", "plant"), {"num": [2.0], "den": [1.0, 2.0]}),
    "multibody": (_plant_keys(kind="multibody"), _with_plant(kind="multibody"), ("simulate", "plant"), {}),
    "sizing": (sc._SIZING, {"kind": "size", "sizing": {}}, ("sizing",), {
        "sigma_y": "200 MPa", "width": 1.5, "t_initial": "6 mm", "t_final": "2 mm", "roll_diameter": 0.3,
        "line_speed": 1.0, "motor_rpm": 1000.0, "motor_poles": 6, "contact_mode": "exact",
    }),
    "tune": (sc._TUNE, {"kind": "tune", "tune": {"bounds": {}, "initial": {}, "method": "grid"}}, ("tune",), {
        "loop": {"seed": 7}, "bounds": {"kp": [0.0, 1.0]}, "initial": {"kp": 1.0}, "cost": "ise",
        "method": "nelder_mead", "grid_points": 3, "max_evals": 10,
    }),
    "tune.loop": (_TUNE_LOOP_KEYS, _TUNE_LOOP_DOC, ("tune", "loop"), {
        "plant": {"kind": "multibody"}, "controller": {"n": 50.0}, "setpoint": [{"value": 2.0}],
        "sensor": {"bias": 0.1}, "fault": {"kind": "drift", "onset_t": 1.0}, "sim": {"dt": 0.002}, "seed": 7,
    }),
    "bounds": (sc._BOUNDS, _TUNE_DOC, ("tune", "bounds"), {"kp": [0.0, 1.0], "ki": [0.0, 1.0], "kd": [0.0, 1.0]}),
    "gains": (sc._GAINS, _TUNE_DOC, ("tune", "initial"), {"kp": 1.0, "ki": 1.0, "kd": 1.0}),
}


@pytest.mark.parametrize(
    "section, key", [(section, key) for section, (keys, *_) in _GUARD.items() for key in keys], ids=str
)
def test_no_key_is_accepted_and_ignored(section, key):
    _, doc, path, values = _GUARD[section]
    assert key in values, f"{section}.{key}: give the guard a valid non-default value"
    doc = copy.deepcopy(doc)
    base = sc.read_scenario(copy.deepcopy(doc))
    mapping = doc
    for step in path:
        mapping = mapping[step]
    assert mapping.get(key) != values[key]
    mapping[key] = values[key]
    assert sc.read_scenario(doc).payload != base.payload


def test_units_convert_to_si():
    inputs, _ = parse_scenario("kind: size\nsizing: {width: 800 mm, sigma_y: 150 MPa}\n").payload
    assert inputs.width_w == pytest.approx(0.8)
    assert inputs.sigma_y == pytest.approx(150e6)


def test_ideal_derivative_infinity_still_parses():
    spec, _ = parse_scenario("kind: simulate\nsimulate:\n  controller: {kd: 1.0, n: .inf}\n").payload
    assert spec.gains.derivative_filter_n == math.inf


def test_a_report_spelled_infinity_reads_as_the_number():
    text = "kind: simulate\nsimulate:\n  controller: {kd: 1.0, n: %s, umin: %s}\n"
    spelled, plain = parse_scenario(text % ("infinite", "'-infinite'")), parse_scenario(text % (".inf", "-.inf"))
    assert spelled.payload == plain.payload and spelled.payload[0].gains.output_min == -math.inf
    for other in ("inf", "Infinite", "nan"):
        with pytest.raises(ScenarioError, match="simulate.controller.n: expected a number, got str"):
            parse_scenario(text % (other, -1.0))


_S = "kind: simulate\nsimulate:\n  "
_HUGE = "9" * 401


@pytest.mark.parametrize("text, value", [("1e-3", 1e-3), ("1E5", 1e5), ("-2e+1", -20.0), ("1.5e3", 1500.0)])
def test_a_plain_exponent_reads_as_a_float(text, value):
    spec, _ = parse_scenario(_S + f"setpoint: [{{t: 0.0, value: {text}}}]\n  sim: {{dt: 1e-3}}\n").payload
    assert spec.setpoint.segments[0].value == value
    assert spec.sim.dt == 1e-3


MALFORMED = [
    ("kind: roll\n", "kind: expected one of"),
    ("kind: size\nextra: 1\n", "unknown key(s): extra"),
    ("kind: size\nsizing: {width: " + _HUGE + "}\n", "sizing.width: integer too large"),
    ("kind: size\nsizing: {width: 5 furlongs}\n", "sizing.width: unknown unit"),
    ("kind: size\nsizing: {t_final: 10 mm}\n", "sizing.t_final: must be <="),
    ("kind: size\nsizing: {motor_poles: 3}\n", "sizing.motor_poles"),
    ("kind: size\nsizing: {motor_poles: 1" + "0" * 400 + "}\n", "sizing.motor_poles: integer too large"),
    ("kind: size\nsizing: {motor_poles: " + "1" * 5000 + "}\n", "scenario is not valid YAML"),
    (_S + "plant: {kind: tf}\n", "simulate.plant.den: required"),
    (_S + "plant: {kind: tf, num: [1, 2, 3], den: [1, 1]}\n", "simulate.plant: improper"),
    (_S + "plant: {kind: roll_drive, J: -1}\n", "simulate.plant: RollDriveParams.J"),
    (_S + "plant: {kind: power_screw, mode: fast}\n", "simulate.plant.mode"),
    (_S + "plant: {kind: multibody, K: 1}\n", "unknown key(s): simulate.plant.K"),
    (_S + "controller: {kp: .nan}\n", "simulate.controller.kp: expected a number, got NaN"),
    (_S + "controller: {n: .nan}\n", "simulate.controller.n: expected a number, got NaN"),
    (_S + "controller: {kp: " + _HUGE + "}\n", "simulate.controller.kp: integer too large"),
    (_S + "controller: {kp: true}\n", "simulate.controller.kp: expected a number, got a boolean"),
    (_S + "controller: {umin: 1.0, umax: 0.0}\n", "simulate.controller: output_min"),
    (_S + "setpoint: [{t: .nan}]\n", "simulate.setpoint[0].t: expected a number, got NaN"),
    (_S + "setpoint: [{t: 2.0}, {t: 1.0}]\n", "simulate.setpoint: setpoint segments must be time-ordered"),
    (_S + "setpoint: [{t: 0.0, kind: jump}]\n", "simulate.setpoint[0].kind"),
    (_S + "setpoint: [~]\n", "simulate.setpoint[0]: expected a mapping"),
    (_S + "setpoint:\n  - {t: 0.0}\n  -\n", "simulate.setpoint[1]: expected a mapping"),
    (_S + "sensor: {noise_sigma: .nan}\n", "simulate.sensor.noise_sigma: expected a number, got NaN"),
    (_S + "sensor: {noise_sigma: -1.0}\n", "simulate.sensor: noise_sigma must be >= 0"),
    (_S + "fault: {kind: stuck}\n", "simulate.fault.onset_t: required"),
    (_S + "fault: {kind: stuck, onset_t: .nan}\n", "simulate.fault.onset_t: expected a number, got NaN"),
    (_S + "detector: {window: 2}\n", "simulate.detector.residual_threshold: required"),
    (_S + "detector: {residual_threshold: 1.0, window: 1.5}\n", "simulate.detector.window"),
    (_S + "sim: {t_end: .nan}\n", "simulate.sim: t_end must be finite"),
    (_S + "sim: {t_end: 1.0e+15}\n", f"simulate.sim: t_end / dt is 1e+18 steps, more than MAX_STEPS = {MAX_STEPS}"),
    (_S + "sim: {dt: 1.0e-300, t_end: 1.0e+300}\n", "simulate.sim: t_end / dt is inf steps"),
    (_S + "seed: 1.5\n", "simulate.seed: expected an integer"),
    (_S + "seed: 1e3\n", "simulate.seed: expected an integer, got float"),
    (_S + "sim: {dt: '1e-3'}\n", "simulate.sim.dt: expected a number, got str"),
    ("kind: tune\ntune: {bounds: {kp: [.nan, 1.0]}}\n", "tune.bounds.kp[0]: expected a number, got NaN"),
    ("kind: tune\ntune: {bounds: {kp: [1.0]}}\n", "tune.bounds.kp: expected [lo, hi]"),
    ("kind: tune\ntune: {bounds: {kp: [2.0, 1.0]}}\n", "tune: kp_bounds is an empty interval"),
    ("kind: tune\ntune: {initial: {kp: -1.0}}\n", "tune: PID gains must be >= 0"),
    ("kind: tune\ntune: {method: anneal}\n", "tune.method"),
    ("kind: tune\ntune: {loop: {sim: {dt: 0.0}}}\n", "tune.loop.sim: dt must be finite and positive"),
    ("kind: poles\npoles: {den: [0.0, 2.0]}\n", "poles.den: pole analysis needs degree >= 1"),
    ("kind: poles\npoles: {num: [1.0]}\n", "poles.den: required"),
]


@pytest.mark.parametrize("text, message", MALFORMED, ids=[m for _, m in MALFORMED])
def test_malformed_input_names_its_key_path(text, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert str(info.value).startswith(message)


# A null section body means every default: the same scenario as leaving the
# section out (for the optional sensor, fault and detector, no section).
NULL_SECTIONS = {
    "sizing": ("kind: size\nsizing:\n", "kind: size\n"),
    "simulate": ("kind: simulate\nsimulate:\n", "kind: simulate\n"),
    "tune": ("kind: tune\ntune:\n", "kind: tune\n"),
    **{
        f"simulate.{key}": (_S + f"{key}:\n", "kind: simulate\n")
        for key in ("plant", "controller", "sensor", "fault", "detector", "sim")
    },
    **{
        f"tune.{key}": (f"kind: tune\ntune:\n  {key}:\n", "kind: tune\n")
        for key in ("loop", "bounds", "initial")
    },
    "tune.loop.controller": ("kind: tune\ntune:\n  loop:\n    controller:\n", "kind: tune\n"),
}


@pytest.mark.parametrize("null, absent", NULL_SECTIONS.values(), ids=NULL_SECTIONS.keys())
def test_null_section_body_takes_every_default(null, absent):
    got, expected = parse_scenario(null), parse_scenario(absent)
    assert got.resolved == expected.resolved
    assert got.payload == expected.payload


def test_null_section_body_still_needs_its_required_keys():
    with pytest.raises(ScenarioError) as info:
        parse_scenario("kind: poles\npoles:\n")
    assert str(info.value).startswith("poles.den: required")


def test_unknown_keys_always_raise(monkeypatch):
    monkeypatch.setenv("ROLLSIM_STRICT", "0")
    with pytest.raises(ScenarioError, match="simulate.controller.kq"):
        parse_scenario(_S + "controller: {kq: 1.0}\n")


_WORDS = [
    "roll_drive", "power_screw", "multibody", "tf", "step", "ramp", "hold", "stuck",
    "bias_jump", "drift", "dropout", "rk4", "euler", "grid", "nelder_mead", "itae",
    "exact", "integrated", "5 mm", "150 MPa", "1e5", "3 furlongs", "nan mm", "",
]
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e-300, 1e300]),
    st.text(st.characters(codec="ascii"), max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# Mostly plausible values, so that fuzzed sections get past their first
# field and reach the readers and constructors behind it.
_LEAF = st.one_of(
    st.floats(-5.0, 50.0), st.integers(-2, 8), st.sampled_from(_WORDS), _JUNK
)
_LIST = st.one_of(st.lists(_LEAF, max_size=4), _LEAF)


def _section(keys, values=_LEAF):
    """Mappings over a table's keys plus a stray one, or a junk value."""
    keys = sorted(keys) + ["stray"]
    return st.one_of(st.dictionaries(st.sampled_from(keys), values, max_size=len(keys)), _JUNK)


_PLANT_KEYS = {"kind", "num", "den", "K", "J", "B", "r", "K_ps", "J_ps", "B_ps", "lead", "mode"}
_SIMULATE = st.fixed_dictionaries(
    {},
    optional={
        "plant": _section(_PLANT_KEYS, _LIST),
        "controller": _section(sc._CONTROLLER),
        "setpoint": st.one_of(st.lists(_section(sc._SEGMENT), max_size=3), _JUNK),
        "sensor": _section(sc._SENSOR),
        "fault": _section(sc._FAULT),
        "detector": _section(sc._DETECTOR),
        "sim": _section(sc._SIM),
        "seed": _LEAF,
    },
)
_BODIES = {
    "size": _section(sc._SIZING),
    "simulate": _SIMULATE,
    "tune": st.fixed_dictionaries(
        {},
        optional={
            "loop": _SIMULATE,
            "bounds": _section(sc._BOUNDS, _LIST),
            "initial": _section(sc._GAINS),
            **{key: _LEAF for key in ("cost", "method", "grid_points", "max_evals")},
        },
    ),
    "poles": _section({"num", "den"}, _LIST),
}
_DOCS = st.sampled_from(sorted(_BODIES)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind)},
        optional={
            sc._SECTIONS[kind][0]: _BODIES[kind],
            "output_prefix": st.sampled_from([None, "runs/x", 3]),
        },
    )
)


@given(doc=_DOCS)
@settings(max_examples=200, deadline=None)
def test_fuzzed_mappings_raise_only_scenario_errors(doc):
    try:
        parse_scenario(yaml.safe_dump(doc))
    except ScenarioError:
        pass
