"""Scenario files: parsing, validation, and defaults.

A scenario is a YAML document with a ``kind`` (size, simulate, tune, or
poles), an optional ``output_prefix``, and one section named after the
kind (the size kind uses a ``sizing`` section).  Parsing is strict:
unknown keys are rejected with their full dotted path.

Sizing fields accept explicit unit suffixes ("5 mm", "150 MPa"); they are
converted to SI here, at the boundary, and nowhere else.  The parsed
result carries both the typed payload and a fully resolved plain-data
echo of the inputs (defaults filled in), which the JSON report embeds and
which :func:`read_scenario` reads back to an equivalent scenario; the
command line's ``dt``/``t_end`` overrides are written into a copy of the
echo and read back, so they are checked like any other input.  A report
spells an infinite number ``infinite`` or ``-infinite`` (``INFINITIES``),
and so may a scenario.  YAML is 1.1, but ``1e-3`` and other plain numbers
with an exponent are floats, and a document nests at most ``MAX_DEPTH``
collections deep.

The section tables below are the schema: each maps a scenario key to its
reader and default (``_SIZING``, ``_CONTROLLER``, ``_SIMULATE``, ...).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable

import yaml

from .faults import DetectorConfig, FaultSpec, SensorModel
from .loops import LoopSpec, Segment, SetpointProfile
from .lti import SimConfig, TransferFunction, tf_new, tf_to_state_space
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


# A reader turns one raw value into its resolved form, or raises
# ScenarioError naming ``path``.
Reader = Callable[[Any, str], Any]

# Default that marks a key as required.
_REQUIRED = object()


# ---------------------------------------------------------------------------
# Primitive readers
# ---------------------------------------------------------------------------

def _check_keys(mapping: dict, allowed, path: str) -> None:
    unknown = sorted(str(k) for k in mapping if k not in allowed)
    if unknown:
        joined = ", ".join(f"{path}.{k}" if path else k for k in unknown)
        raise ScenarioError(f"unknown key(s): {joined}")


def _require_mapping(value: Any, path: str) -> dict:
    """A mapping; a null section body is an empty one, so it takes every default."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


# How a report spells the infinities, which JSON lacks; wherever an
# infinite number is read, its spelling reads too.
INFINITIES = {"infinite": math.inf, "-infinite": -math.inf}


def _float(value: Any, path: str) -> float:
    """Any float, NaN included, for fields whose constructor rejects it."""
    if isinstance(value, str) and value in INFINITIES:
        return INFINITIES[value]
    if isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got a boolean")
    if not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{path}: integer too large for a float") from None


def _number(value: Any, path: str) -> float:
    """A float that is not NaN; infinities pass (``n: .inf`` is meaningful)."""
    number = _float(value, path)
    if math.isnan(number):
        raise ScenarioError(f"{path}: expected a number, got NaN")
    return number


def _quantity(value: Any, path: str) -> float:
    """A number, or a string with a unit suffix converted to SI."""
    return _number(_unit_value(value, path) if isinstance(value, str) else value, path)


def _unit_value(raw: str, path: str) -> float:
    if raw in INFINITIES:
        return INFINITIES[raw]
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
    _float(value, path)  # integers meet floats downstream, so they must fit one
    return value


def _choice(*options: str) -> Reader:
    def read(value: Any, path: str) -> str:
        if value not in options:
            raise ScenarioError(f"{path}: expected one of {options}, got {value!r}")
        return value

    return read


def _number_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(f"{path}: expected a non-empty list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _interval(value: Any, path: str) -> list[float]:
    pair = _number_list(value, path)
    if len(pair) != 2:
        raise ScenarioError(f"{path}: expected [lo, hi]")
    return pair


def _fields(raw: Any, path: str, table: dict[str, tuple[Reader, Any]]) -> dict[str, Any]:
    """Read a mapping through ``table`` (key -> (reader, default)).

    A null ``raw`` reads as an empty mapping.  Unknown keys and absent
    required keys are errors.  An absent key takes its default, which goes
    through the reader like a given value, so the result is the resolved
    echo with every key of the table.  A key whose default is None is
    optional: null or absent, it resolves to None.
    """
    raw = _require_mapping(raw, path)
    _check_keys(raw, table, path)
    for key, (_, default) in table.items():
        if default is _REQUIRED and key not in raw:
            raise ScenarioError(f"{path}.{key}: required")
    resolved = {}
    for key, (read, default) in table.items():
        value = raw.get(key, default)
        resolved[key] = None if value is None and default is None else read(value, f"{path}.{key}")
    return resolved


def _drop_unread(raw: Any, path: str, resolved: dict, key: str, read: bool, when: str) -> None:
    """Drop ``key`` from ``resolved`` unless it is ``read``; an unread key
    given in ``raw`` would change nothing, so it is an error."""
    if not read:
        if key in _require_mapping(raw, path):
            raise ScenarioError(f"{path}.{key}: read only {when}")
        del resolved[key]


def _build(path: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call a constructor or analysis, reporting its ``ValueError`` under ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _record(table: dict, make: Callable[..., Any]) -> Reader:
    """Reader of a section: its keys through ``table``, then ``make`` called
    with them; returns (resolved echo, typed object)."""

    def read(raw: Any, path: str) -> tuple[dict, Any]:
        resolved = _fields(raw, path, table)
        return resolved, _build(path, make, **resolved)

    return read


# ---------------------------------------------------------------------------
# Section tables and resolvers: raw mapping -> (resolved plain data, typed object)
# ---------------------------------------------------------------------------

_SIZING = {
    "sigma_y": (_quantity, SizingInputs.sigma_y),
    "width": (_quantity, SizingInputs.width),
    "t_initial": (_quantity, SizingInputs.t_initial),
    "t_final": (_quantity, SizingInputs.t_final),
    "roll_diameter": (_quantity, SizingInputs.roll_diameter),
    "line_speed": (_number, SizingInputs.line_speed),
    "motor_rpm": (_number, SizingInputs.motor_rpm),
    "motor_poles": (_integer, SizingInputs.motor_poles),
    "contact_mode": (_choice("approx", "exact"), ContactModel.APPROX.value),
}


def _resolve_sizing(raw: Any, path: str) -> tuple[dict, tuple[SizingInputs, ContactModel]]:
    resolved = _fields(raw, path, _SIZING)
    try:
        inputs = SizingInputs(**{k: v for k, v in resolved.items() if k != "contact_mode"})
    except ValueError as exc:  # SizingInputs names the field: t_final: must be <= t_initial
        raise ScenarioError(f"{path}.{exc}") from exc
    return resolved, (inputs, ContactModel(resolved["contact_mode"]))


# A rational transfer function: the ``tf`` plant and the ``poles`` section.
_resolve_tf = _record({"num": (_number_list, [1.0]), "den": (_number_list, _REQUIRED)}, tf_new)

# Plant kind -> reader of its keys besides ``kind``.
_PLANTS = {
    "roll_drive": _record(
        {name: (_number, getattr(RollDriveParams, name)) for name in ("K", "J", "B", "r")},
        lambda **params: roll_drive_tf(RollDriveParams(**params)),
    ),
    "power_screw": _record(
        {
            "K_ps": (_number, PowerScrewParams.K_ps),
            "J_ps": (_number, PowerScrewParams.J_ps),
            "B_ps": (_number, PowerScrewParams.B_ps),
            "lead": (_quantity, PowerScrewParams.lead),
            "mode": (_choice("integrated", "paper_literal"), KinematicsMode.INTEGRATED.value),
        },
        lambda mode, **params: power_screw_tf(PowerScrewParams(**params), KinematicsMode(mode)),
    ),
    "multibody": _record({}, multibody_tf),
    "tf": _resolve_tf,
}
_PLANT_KIND = _choice(*_PLANTS)


def _resolve_plant(raw: Any, path: str) -> tuple[dict, TransferFunction]:
    raw = _require_mapping(raw, path)
    kind = _PLANT_KIND(raw.get("kind", "roll_drive"), f"{path}.kind")
    params, tf = _PLANTS[kind]({k: v for k, v in raw.items() if k != "kind"}, path)
    _build(path, tf_to_state_space, tf)  # a realization that overflows
    return {"kind": kind, **params}, tf


_CONTROLLER = {
    "kp": (_number, 0.0),
    "ki": (_number, 0.0),
    "kd": (_number, 0.0),
    "n": (_number, 0.0),
    "umin": (_number, None),
    "umax": (_number, None),
}


def _pid_gains(
    kp: float = 0.0, ki: float = 0.0, kd: float = 0.0, n: float = 0.0,
    umin: float | None = None, umax: float | None = None,
) -> PidGains:
    return PidGains(kp=kp, ki=ki, kd=kd, derivative_filter_n=n, output_min=umin, output_max=umax)


_resolve_controller = _record(_CONTROLLER, _pid_gains)

_SEGMENT = {
    "kind": (_choice("step", "ramp", "hold"), "step"),
    "t": (_number, 0.0),
    "value": (_number, 0.0),
}
_resolve_segment = _record(
    _SEGMENT, lambda kind, t, value: Segment(t_start=t, kind=kind, value=value)
)


def _resolve_setpoint(raw: Any, path: str) -> tuple[list, SetpointProfile]:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{path}: expected a non-empty list of segments")
    # A null segment is a slip, not a section body taking its defaults.
    for i, entry in enumerate(raw):
        if entry is None:
            raise ScenarioError(f"{path}[{i}]: expected a mapping, got null")
    resolved, segments = zip(*(_resolve_segment(e, f"{path}[{i}]") for i, e in enumerate(raw)))
    return list(resolved), _build(path, SetpointProfile, segments=segments)


_SENSOR = {
    name: (_number, 0.0) for name in ("noise_sigma", "bias", "quantization_step", "sample_dt")
}

_FAULT = {
    "kind": (_choice("stuck", "bias_jump", "drift", "dropout"), _REQUIRED),
    "onset_t": (_number, _REQUIRED),
    "magnitude": (_number, 0.0),
    "duration": (_number, None),
}


def _resolve_fault(raw: Any, path: str) -> tuple[dict, FaultSpec]:
    resolved = _fields(raw, path, _FAULT)
    # The jump of a bias jump and the slope of a drift; the other kinds hold
    # or clear the reading.
    reads = resolved["kind"] in ("bias_jump", "drift")
    _drop_unread(raw, path, resolved, "magnitude", reads, "with kind: bias_jump or drift")
    return resolved, _build(path, FaultSpec, **resolved)


_DETECTOR = {
    "residual_threshold": (_number, _REQUIRED),
    "rate_threshold": (_number, 0.0),
    "consecutive_required": (_integer, 1),
    "window": (_integer, 0),
}

# SimConfig itself rejects non-finite values (for overrides too).
_SIM = {
    "dt": (_float, SimConfig.dt),
    "t_end": (_float, SimConfig.t_end),
}


# Every reader here but ``seed``'s returns (resolved echo, typed object);
# the optional parts resolve to None when left out.
_SIMULATE = {
    "plant": (_resolve_plant, {"kind": "roll_drive"}),
    "controller": (_resolve_controller, {}),
    "setpoint": (_resolve_setpoint, [{"t": 0.0, "kind": "step", "value": 1.0}]),
    "sensor": (_record(_SENSOR, SensorModel), None),
    "fault": (_resolve_fault, None),
    "detector": (_record(_DETECTOR, DetectorConfig), None),
    "sim": (_record(_SIM, SimConfig), {}),
    "seed": (_integer, 0),
}
# A tuned loop runs no detector, and the tuner sets its gains: its
# controller keeps only the derivative filter and the output limits.
_TUNE_CONTROLLER = {key: _CONTROLLER[key] for key in ("n", "umin", "umax")}
_TUNE_LOOP = {
    **{key: entry for key, entry in _SIMULATE.items() if key != "detector"},
    "controller": (_record(_TUNE_CONTROLLER, _pid_gains), {}),
}


def _resolve_simulate(
    raw: Any, path: str, table: dict = _SIMULATE,
) -> tuple[dict, tuple[LoopSpec, DetectorConfig | None]]:
    parts = _fields(raw, path, table)
    resolved, made = {"seed": parts.pop("seed")}, {}
    for key, part in parts.items():
        resolved[key], made[key] = part or (None, None)
    try:
        spec = LoopSpec(
            plant=made["plant"], gains=made["controller"], setpoint=made["setpoint"],
            sensor=made["sensor"], fault=made["fault"], sim=made["sim"], seed=resolved["seed"],
        )
    except ValueError as exc:  # LoopSpec names the field: setpoint[i].value
        raise ScenarioError(f"{path}.{exc}") from exc
    return resolved, (spec, made.get("detector"))


_GAINS = {gain: (_number, 0.0) for gain in ("kp", "ki", "kd")}
_BOUNDS = {gain: (_interval, [0.0, 0.0]) for gain in ("kp", "ki", "kd")}

_TUNE = {
    "loop": (lambda raw, path: _resolve_simulate(raw, path, _TUNE_LOOP), {}),
    "bounds": (lambda raw, path: _fields(raw, path, _BOUNDS), {}),
    "initial": (lambda raw, path: _fields(raw, path, _GAINS), {}),
    "cost": (_choice("itae", "ise", "iae"), "itae"),
    "method": (_choice("nelder_mead", "grid"), "nelder_mead"),
    "grid_points": (_integer, 5),
    "max_evals": (_integer, 200),
}


def _resolve_tune(raw: Any, path: str) -> tuple[dict, TuneSpec]:
    resolved = _fields(raw, path, _TUNE)
    _drop_unread(raw, path, resolved, "grid_points", resolved["method"] == "grid", "with method: grid")
    resolved["loop"], (loop, _) = resolved["loop"]
    spec = _build(
        path,
        TuneSpec,
        loop=loop,
        cost_kind=resolved["cost"],
        initial=_build(path, PidGains, **resolved["initial"]),
        **{f"{gain}_bounds": tuple(pair) for gain, pair in resolved["bounds"].items()},
        **{key: resolved[key] for key in ("method", "grid_points", "max_evals") if key in resolved},
    )
    return resolved, spec


def _resolve_poles(raw: Any, path: str) -> tuple[dict, TransferFunction]:
    resolved, tf = _resolve_tf(raw, path)
    if len(tf.den) < 2:
        raise ScenarioError(f"{path}.den: pole analysis needs degree >= 1 after leading zeros")
    return resolved, tf


# Scenario kind -> (name of its section, resolver of that section).
_SECTIONS = {
    "size": ("sizing", _resolve_sizing),
    "simulate": ("simulate", _resolve_simulate),
    "tune": ("tune", _resolve_tune),
    "poles": ("poles", _resolve_poles),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

# libyaml's C code scans, parses and composes where PyYAML was built with it;
# the resolvers and constructors stay PyYAML's Python, so the data are the same.
class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, also reading plain numbers with an exponent but no
    dot or no exponent sign (``1e-3``, ``1.5e3``) as floats, not strings."""


# On the class itself: ``yaml.add_implicit_resolver`` would also add it to
# PyYAML's global ``yaml.Dumper``.
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)

# Deepest nesting of collections a scenario may have; the shipped ones nest
# at most 5.  Composing recurses (libyaml's composer on the C stack), so a
# deeper document is rejected from its event stream, which is produced
# iteratively, before anything composes it.
MAX_DEPTH = 100


def _load(text: str) -> Any:
    """The data of the YAML document ``text``."""
    try:
        depth = 0
        for event in yaml.parse(text, Loader=_Loader):
            depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
            if depth > MAX_DEPTH:
                break
        else:
            return yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer past str->int limits
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    line, column = event.start_mark.line + 1, event.start_mark.column + 1
    raise ScenarioError(f"scenario nests deeper than {MAX_DEPTH} levels at line {line}, column {column}")


def parse_scenario(text: str) -> Scenario:
    """Parse scenario YAML text: :func:`read_scenario` on the loaded mapping."""
    return read_scenario(_load(text))


def read_scenario(raw: Any) -> Scenario:
    """Read a loaded scenario mapping into a typed :class:`Scenario`; any
    bad input raises :class:`ScenarioError` naming its key path."""
    raw = _require_mapping(raw, "scenario")
    if "kind" not in raw:
        raise ScenarioError("kind: required (one of size, simulate, tune, poles)")
    kind = _choice(*_SECTIONS)(raw["kind"], "kind")
    section, resolve = _SECTIONS[kind]
    _check_keys(raw, {"kind", "output_prefix", section}, "")

    prefix = raw.get("output_prefix")
    if prefix is not None and not isinstance(prefix, str):
        raise ScenarioError("output_prefix: expected a string")

    section_resolved, payload = resolve(raw.get(section, {}), section)
    resolved = {"kind": kind, "output_prefix": prefix, section: section_resolved}
    return Scenario(kind=kind, output_prefix=prefix, resolved=resolved, payload=payload)


def parse_scenario_file(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)
