"""Scenario files: parsing, validation, and defaults.

A scenario is a YAML document with a ``kind`` (size, simulate, tune, or
poles), an optional ``output_prefix``, and one section named after the
kind (the size kind uses a ``sizing`` section).  Parsing is strict:
unknown keys are rejected with their full dotted path unless the
environment variable ``ROLLSIM_STRICT=0`` downgrades them to warnings.

Sizing fields accept explicit unit suffixes ("5 mm", "150 MPa"); they are
converted to SI here, at the boundary, and nowhere else.  The parsed
result carries both the typed payload and a fully resolved plain-data
echo of the inputs (defaults filled in), which the JSON report embeds and
which re-parses to an equivalent scenario.

The reference schema is documented in the README.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Any

import yaml

from .faults import DetectorConfig, FaultSpec, SensorModel
from .loops import LoopSpec, Segment, SetpointProfile
from .lti import SimConfig, TransferFunction, tf_new
from .pid import PidGains
from .plants import (
    KinematicsMode,
    PowerScrewParams,
    RollDriveParams,
    multibody_tf,
    power_screw_tf,
    roll_drive_tf,
)
from .sizing import ContactModel, SizingInputs
from .tuning import TuneSpec

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "parse_scenario_file"]

KINDS = ("size", "simulate", "tune", "poles")
_SECTION_FOR_KIND = {"size": "sizing", "simulate": "simulate", "tune": "tune", "poles": "poles"}

_UNIT_FACTORS = {
    "m": 1.0,
    "mm": 1e-3,
    "cm": 1e-2,
    "pa": 1.0,
    "kpa": 1e3,
    "mpa": 1e6,
    "gpa": 1e9,
}


class ScenarioError(ValueError):
    """Invalid scenario input; the message names the offending key path."""


@dataclass
class Scenario:
    """Parsed scenario: the kind, typed payload, and resolved input echo."""

    kind: str
    output_prefix: str | None
    resolved: dict[str, Any]
    payload: Any


# ---------------------------------------------------------------------------
# Primitive readers
# ---------------------------------------------------------------------------

def _strict() -> bool:
    return os.environ.get("ROLLSIM_STRICT", "1") != "0"


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = [k for k in mapping if k not in allowed]
    if not unknown:
        return
    joined = ", ".join(f"{path}.{k}" if path else str(k) for k in sorted(map(str, unknown)))
    if _strict():
        raise ScenarioError(f"unknown key(s): {joined}")
    warnings.warn(f"ignoring unknown scenario key(s): {joined}", stacklevel=2)


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _number(value: Any, path: str, *, allow_unit: bool = False) -> float:
    if isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if allow_unit and isinstance(value, str):
        return _unit_value(value, path)
    raise ScenarioError(f"{path}: expected a number, got {type(value).__name__}")


def _unit_value(raw: str, path: str) -> float:
    text = raw.strip()
    split = len(text)
    while split > 0 and not (text[split - 1].isdigit() or text[split - 1] == "."):
        split -= 1
    magnitude, unit = text[:split].strip(), text[split:].strip().lower()
    try:
        value = float(magnitude)
    except ValueError:
        raise ScenarioError(f"{path}: cannot parse quantity '{raw}'") from None
    if not unit:
        return value
    if unit not in _UNIT_FACTORS:
        raise ScenarioError(f"{path}: unknown unit suffix '{unit}' in '{raw}'")
    return value * _UNIT_FACTORS[unit]


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _choice(value: Any, options: tuple[str, ...], path: str) -> str:
    if value not in options:
        raise ScenarioError(f"{path}: expected one of {options}, got {value!r}")
    return value


def _number_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(f"{path}: expected a non-empty list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


# ---------------------------------------------------------------------------
# Section resolvers: raw mapping -> (resolved plain dict, typed object)
# ---------------------------------------------------------------------------

def _resolve_sizing(raw: dict, path: str) -> tuple[dict, tuple[SizingInputs, ContactModel]]:
    defaults = SizingInputs()
    _check_keys(
        raw,
        {
            "sigma_y", "width", "t_initial", "t_final", "roll_diameter",
            "line_speed", "motor_rpm", "motor_poles", "contact_mode",
        },
        path,
    )
    resolved = {
        "sigma_y": _number(raw.get("sigma_y", defaults.sigma_y), f"{path}.sigma_y", allow_unit=True),
        "width": _number(raw.get("width", defaults.width_w), f"{path}.width", allow_unit=True),
        "t_initial": _number(raw.get("t_initial", defaults.t_initial), f"{path}.t_initial", allow_unit=True),
        "t_final": _number(raw.get("t_final", defaults.t_final), f"{path}.t_final", allow_unit=True),
        "roll_diameter": _number(
            raw.get("roll_diameter", defaults.roll_diameter_D), f"{path}.roll_diameter", allow_unit=True
        ),
        "line_speed": _number(raw.get("line_speed", defaults.line_speed_v), f"{path}.line_speed"),
        "motor_rpm": _number(raw.get("motor_rpm", defaults.motor_rpm), f"{path}.motor_rpm"),
        "motor_poles": _integer(raw.get("motor_poles", defaults.motor_poles), f"{path}.motor_poles"),
        "contact_mode": _choice(
            raw.get("contact_mode", ContactModel.APPROX.value), ("approx", "exact"), f"{path}.contact_mode"
        ),
    }
    if resolved["t_final"] > resolved["t_initial"]:
        raise ScenarioError(f"{path}.t_final: must be <= {path}.t_initial")
    if resolved["t_final"] <= 0:
        raise ScenarioError(f"{path}.t_final: must be > 0")
    if resolved["t_initial"] - resolved["t_final"] >= resolved["roll_diameter"]:
        raise ScenarioError(f"{path}.roll_diameter: must exceed the draft t_initial - t_final")
    if resolved["motor_poles"] < 2 or resolved["motor_poles"] % 2:
        raise ScenarioError(f"{path}.motor_poles: must be an even count >= 2")
    try:
        inputs = SizingInputs(
            sigma_y=resolved["sigma_y"],
            width_w=resolved["width"],
            t_initial=resolved["t_initial"],
            t_final=resolved["t_final"],
            roll_diameter_D=resolved["roll_diameter"],
            line_speed_v=resolved["line_speed"],
            motor_rpm=resolved["motor_rpm"],
            motor_poles=resolved["motor_poles"],
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, (inputs, ContactModel(resolved["contact_mode"]))


def _resolve_plant(raw: dict, path: str) -> tuple[dict, TransferFunction]:
    kind = _choice(
        raw.get("kind", "roll_drive"),
        ("roll_drive", "power_screw", "multibody", "tf"),
        f"{path}.kind",
    )
    try:
        if kind == "roll_drive":
            _check_keys(raw, {"kind", "K", "J", "B", "r"}, path)
            d = RollDriveParams()
            resolved = {
                "kind": kind,
                "K": _number(raw.get("K", d.K), f"{path}.K"),
                "J": _number(raw.get("J", d.J), f"{path}.J"),
                "B": _number(raw.get("B", d.B), f"{path}.B"),
                "r": _number(raw.get("r", d.r), f"{path}.r"),
            }
            tf = roll_drive_tf(
                RollDriveParams(K=resolved["K"], J=resolved["J"], B=resolved["B"], r=resolved["r"])
            )
        elif kind == "power_screw":
            _check_keys(raw, {"kind", "K_ps", "J_ps", "B_ps", "lead", "mode"}, path)
            d = PowerScrewParams()
            resolved = {
                "kind": kind,
                "K_ps": _number(raw.get("K_ps", d.K_ps), f"{path}.K_ps"),
                "J_ps": _number(raw.get("J_ps", d.J_ps), f"{path}.J_ps"),
                "B_ps": _number(raw.get("B_ps", d.B_ps), f"{path}.B_ps"),
                "lead": _number(raw.get("lead", d.lead), f"{path}.lead", allow_unit=True),
                "mode": _choice(
                    raw.get("mode", KinematicsMode.INTEGRATED.value),
                    ("integrated", "paper_literal"),
                    f"{path}.mode",
                ),
            }
            tf = power_screw_tf(
                PowerScrewParams(
                    K_ps=resolved["K_ps"], J_ps=resolved["J_ps"],
                    B_ps=resolved["B_ps"], lead=resolved["lead"],
                ),
                KinematicsMode(resolved["mode"]),
            )
        elif kind == "multibody":
            _check_keys(raw, {"kind"}, path)
            resolved = {"kind": kind}
            tf = multibody_tf()
        else:
            _check_keys(raw, {"kind", "num", "den"}, path)
            if "den" not in raw:
                raise ScenarioError(f"{path}.den: required for a tf plant")
            resolved = {
                "kind": kind,
                "num": _number_list(raw.get("num", [1.0]), f"{path}.num"),
                "den": _number_list(raw["den"], f"{path}.den"),
            }
            tf = tf_new(resolved["num"], resolved["den"])
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, tf


def _resolve_controller(raw: dict, path: str) -> tuple[dict, PidGains]:
    _check_keys(raw, {"kp", "ki", "kd", "n", "umin", "umax"}, path)
    resolved = {
        "kp": _number(raw.get("kp", 0.0), f"{path}.kp"),
        "ki": _number(raw.get("ki", 0.0), f"{path}.ki"),
        "kd": _number(raw.get("kd", 0.0), f"{path}.kd"),
        "n": _number(raw.get("n", 0.0), f"{path}.n"),
        "umin": None if raw.get("umin") is None else _number(raw["umin"], f"{path}.umin"),
        "umax": None if raw.get("umax") is None else _number(raw["umax"], f"{path}.umax"),
    }
    try:
        gains = PidGains(
            kp=resolved["kp"], ki=resolved["ki"], kd=resolved["kd"],
            derivative_filter_n=resolved["n"],
            output_min=resolved["umin"], output_max=resolved["umax"],
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, gains


def _resolve_setpoint(raw: Any, path: str) -> tuple[list, SetpointProfile]:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{path}: expected a non-empty list of segments")
    resolved = []
    segments = []
    for i, entry in enumerate(raw):
        seg_path = f"{path}[{i}]"
        entry = _require_mapping(entry, seg_path)
        _check_keys(entry, {"t", "kind", "value"}, seg_path)
        kind = _choice(entry.get("kind", "step"), ("step", "ramp", "hold"), f"{seg_path}.kind")
        item = {
            "t": _number(entry.get("t", 0.0), f"{seg_path}.t"),
            "kind": kind,
            "value": _number(entry.get("value", 0.0), f"{seg_path}.value"),
        }
        resolved.append(item)
        try:
            segments.append(Segment(t_start=item["t"], kind=kind, value=item["value"]))
        except ValueError as exc:
            raise ScenarioError(f"{seg_path}: {exc}") from exc
    try:
        profile = SetpointProfile(segments=tuple(segments))
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, profile


def _resolve_sensor(raw: Any, path: str) -> tuple[dict | None, SensorModel | None]:
    if raw is None:
        return None, None
    raw = _require_mapping(raw, path)
    _check_keys(raw, {"noise_sigma", "bias", "quantization_step", "sample_dt"}, path)
    resolved = {
        "noise_sigma": _number(raw.get("noise_sigma", 0.0), f"{path}.noise_sigma"),
        "bias": _number(raw.get("bias", 0.0), f"{path}.bias"),
        "quantization_step": _number(raw.get("quantization_step", 0.0), f"{path}.quantization_step"),
        "sample_dt": _number(raw.get("sample_dt", 0.0), f"{path}.sample_dt"),
    }
    try:
        model = SensorModel(**resolved)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, model


def _resolve_fault(raw: Any, path: str) -> tuple[dict | None, FaultSpec | None]:
    if raw is None:
        return None, None
    raw = _require_mapping(raw, path)
    _check_keys(raw, {"kind", "onset_t", "magnitude", "duration"}, path)
    if "kind" not in raw:
        raise ScenarioError(f"{path}.kind: required")
    if "onset_t" not in raw:
        raise ScenarioError(f"{path}.onset_t: required")
    resolved = {
        "kind": _choice(raw["kind"], ("stuck", "bias_jump", "drift", "dropout"), f"{path}.kind"),
        "onset_t": _number(raw["onset_t"], f"{path}.onset_t"),
        "magnitude": _number(raw.get("magnitude", 0.0), f"{path}.magnitude"),
        "duration": None if raw.get("duration") is None else _number(raw["duration"], f"{path}.duration"),
    }
    try:
        fault = FaultSpec(**resolved)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, fault


def _resolve_detector(raw: Any, path: str) -> tuple[dict | None, DetectorConfig | None]:
    if raw is None:
        return None, None
    raw = _require_mapping(raw, path)
    _check_keys(
        raw, {"residual_threshold", "rate_threshold", "consecutive_required", "window"}, path
    )
    if "residual_threshold" not in raw:
        raise ScenarioError(f"{path}.residual_threshold: required")
    resolved = {
        "residual_threshold": _number(raw["residual_threshold"], f"{path}.residual_threshold"),
        "rate_threshold": _number(raw.get("rate_threshold", 0.0), f"{path}.rate_threshold"),
        "consecutive_required": _integer(
            raw.get("consecutive_required", 1), f"{path}.consecutive_required"
        ),
        "window": _integer(raw.get("window", 0), f"{path}.window"),
    }
    try:
        cfg = DetectorConfig(**resolved)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, cfg


def _resolve_sim(raw: Any, path: str) -> tuple[dict, SimConfig]:
    raw = _require_mapping(raw if raw is not None else {}, path)
    _check_keys(raw, {"dt", "t_end", "integrator"}, path)
    defaults = SimConfig()
    resolved = {
        "dt": _number(raw.get("dt", defaults.dt), f"{path}.dt"),
        "t_end": _number(raw.get("t_end", defaults.t_end), f"{path}.t_end"),
        "integrator": _choice(
            raw.get("integrator", defaults.integrator.value), ("rk4", "euler"), f"{path}.integrator"
        ),
    }
    try:
        cfg = SimConfig(dt=resolved["dt"], t_end=resolved["t_end"], integrator=resolved["integrator"])
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, cfg


def _resolve_simulate(raw: dict, path: str) -> tuple[dict, tuple[LoopSpec, DetectorConfig | None]]:
    _check_keys(
        raw, {"plant", "controller", "setpoint", "sensor", "fault", "detector", "seed", "sim"}, path
    )
    plant_res, plant = _resolve_plant(
        _require_mapping(raw.get("plant", {"kind": "roll_drive"}), f"{path}.plant"), f"{path}.plant"
    )
    ctrl_res, gains = _resolve_controller(
        _require_mapping(raw.get("controller", {}), f"{path}.controller"), f"{path}.controller"
    )
    sp_res, setpoint = _resolve_setpoint(
        raw.get("setpoint", [{"t": 0.0, "kind": "step", "value": 1.0}]), f"{path}.setpoint"
    )
    sensor_res, sensor = _resolve_sensor(raw.get("sensor"), f"{path}.sensor")
    fault_res, fault = _resolve_fault(raw.get("fault"), f"{path}.fault")
    det_res, detector = _resolve_detector(raw.get("detector"), f"{path}.detector")
    sim_res, sim = _resolve_sim(raw.get("sim"), f"{path}.sim")
    seed = _integer(raw.get("seed", 0), f"{path}.seed")
    resolved = {
        "plant": plant_res,
        "controller": ctrl_res,
        "setpoint": sp_res,
        "sensor": sensor_res,
        "fault": fault_res,
        "detector": det_res,
        "seed": seed,
        "sim": sim_res,
    }
    spec = LoopSpec(
        plant=plant, gains=gains, setpoint=setpoint,
        sensor=sensor, fault=fault, sim=sim, seed=seed,
    )
    return resolved, (spec, detector)


def _resolve_bounds(raw: Any, path: str) -> tuple[dict, dict[str, tuple[float, float]]]:
    raw = _require_mapping(raw if raw is not None else {}, path)
    _check_keys(raw, {"kp", "ki", "kd"}, path)
    resolved: dict[str, Any] = {}
    pairs: dict[str, tuple[float, float]] = {}
    for gain in ("kp", "ki", "kd"):
        entry = raw.get(gain, [0.0, 0.0])
        values = _number_list(entry, f"{path}.{gain}")
        if len(values) != 2:
            raise ScenarioError(f"{path}.{gain}: expected [lo, hi]")
        resolved[gain] = values
        pairs[gain] = (values[0], values[1])
    return resolved, pairs


def _resolve_tune(raw: dict, path: str) -> tuple[dict, TuneSpec]:
    _check_keys(
        raw, {"loop", "cost", "method", "bounds", "initial", "grid_points", "max_evals"}, path
    )
    loop_res, (loop_spec, _detector) = _resolve_simulate(
        _require_mapping(raw.get("loop", {}), f"{path}.loop"), f"{path}.loop"
    )
    bounds_res, bounds = _resolve_bounds(raw.get("bounds"), f"{path}.bounds")
    initial_raw = _require_mapping(raw.get("initial", {}), f"{path}.initial")
    _check_keys(initial_raw, {"kp", "ki", "kd"}, f"{path}.initial")
    initial_res = {
        "kp": _number(initial_raw.get("kp", 0.0), f"{path}.initial.kp"),
        "ki": _number(initial_raw.get("ki", 0.0), f"{path}.initial.ki"),
        "kd": _number(initial_raw.get("kd", 0.0), f"{path}.initial.kd"),
    }
    resolved = {
        "loop": loop_res,
        "cost": _choice(raw.get("cost", "itae"), ("itae", "ise", "iae"), f"{path}.cost"),
        "method": _choice(
            raw.get("method", "nelder_mead"), ("nelder_mead", "grid"), f"{path}.method"
        ),
        "bounds": bounds_res,
        "initial": initial_res,
        "grid_points": _integer(raw.get("grid_points", 5), f"{path}.grid_points"),
        "max_evals": _integer(raw.get("max_evals", 200), f"{path}.max_evals"),
    }
    try:
        spec = TuneSpec(
            loop=loop_spec,
            cost_kind=resolved["cost"],
            kp_bounds=bounds["kp"],
            ki_bounds=bounds["ki"],
            kd_bounds=bounds["kd"],
            initial=PidGains(**initial_res),
            method=resolved["method"],
            grid_points=resolved["grid_points"],
            max_evals=resolved["max_evals"],
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return resolved, spec


def _resolve_poles(raw: dict, path: str) -> tuple[dict, TransferFunction]:
    _check_keys(raw, {"num", "den"}, path)
    if "den" not in raw:
        raise ScenarioError(f"{path}.den: required")
    resolved = {
        "num": _number_list(raw.get("num", [1.0]), f"{path}.num"),
        "den": _number_list(raw["den"], f"{path}.den"),
    }
    try:
        tf = tf_new(resolved["num"], resolved["den"])
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if len(tf.den) < 2:
        raise ScenarioError(f"{path}.den: pole analysis needs degree >= 1 after leading zeros")
    return resolved, tf


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a typed :class:`Scenario`.

    Raises :class:`ScenarioError` for malformed YAML, a missing or unknown
    ``kind``, unknown keys (strict mode), type mismatches, or invariant
    violations; messages name the offending key path.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    raw = _require_mapping(raw if raw is not None else {}, "scenario")
    if "kind" not in raw:
        raise ScenarioError("kind: required (one of size, simulate, tune, poles)")
    kind = _choice(raw["kind"], KINDS, "kind")
    section = _SECTION_FOR_KIND[kind]
    _check_keys(raw, {"kind", "output_prefix", section}, "")

    prefix = raw.get("output_prefix")
    if prefix is not None and not isinstance(prefix, str):
        raise ScenarioError("output_prefix: expected a string")

    body = _require_mapping(raw.get(section, {}), section)
    if kind == "size":
        section_resolved, payload = _resolve_sizing(body, section)
    elif kind == "simulate":
        section_resolved, payload = _resolve_simulate(body, section)
    elif kind == "tune":
        section_resolved, payload = _resolve_tune(body, section)
    else:
        section_resolved, payload = _resolve_poles(body, section)

    resolved = {"kind": kind, "output_prefix": prefix, section: section_resolved}
    return Scenario(kind=kind, output_prefix=prefix, resolved=resolved, payload=payload)


def parse_scenario_file(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)
