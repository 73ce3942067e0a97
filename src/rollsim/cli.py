"""Command-line entry point.

Subcommands mirror the scenario kinds: ``size``, ``simulate``, ``tune``,
and ``poles`` each take ``--scenario <path>`` plus optional overrides;
``version`` prints the tool version.  Results are written as a JSON
report (resolved inputs echoed back, results, tool version, wall-clock
runtime) and, for time-domain and tuning runs, CSV files next to it.

CSV files hold one row per sample (simulate: ``t``, setpoint, true and
measured output, error, controller output) or per tuner evaluation (tune:
``eval``, gains, cost).  Every value is written as ``'%.12g' % value``
would write it; :func:`rollsim.csvfmt.format_rows` produces those bytes
with numpy, a chunk of rows per write, and the file is written in binary mode.

Exit codes: 0 success, 1 input error, 2 simulation divergence (partial
outputs are still written).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .csvfmt import format_rows
from .faults import DetectorConfig, detect_faults
from .loops import LoopResult, LoopSpec, multibody_demo, simulate_loop
from .lti import dc_gain, poles, routh_classification
from .scenario import Scenario, ScenarioError, parse_scenario_file
from .sizing import size_report
from .tuning import TuneSpec, tune_pid

__all__ = ["OutputBundle", "main", "run"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DIVERGED = 2

_CSV_CHUNK = 1024  # rows formatted per write

# JSON Schema for every report this tool writes; per-kind required result
# fields are listed in RESULT_REQUIRED.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["results", "scenario", "tool"],
    "additionalProperties": False,
    "properties": {
        "results": {"type": "object"},
        "scenario": {
            "type": "object",
            "required": ["kind", "output_prefix"],
            "properties": {"kind": {"enum": ["size", "simulate", "tune", "poles"]}},
        },
        "tool": {
            "type": "object",
            "required": ["name", "version", "runtime_s"],
            "additionalProperties": False,
            "properties": {
                "name": {"const": "rollsim"},
                "version": {"type": "string"},
                "runtime_s": {"type": "number"},
            },
        },
    },
}

RESULT_REQUIRED = {
    "size": [
        "contact_length_L", "contact_area_A", "force_F", "torque_T", "omega",
        "roll_rpm", "power_P", "gear_ratio_R", "gear_ratio_rounded", "vfd_frequency",
    ],
    "simulate": ["metrics", "stability_verdict", "diverged", "divergence_time", "samples"],
    "tune": ["best_gains", "best_cost", "evals"],
    "poles": ["poles", "routh", "dc_gain", "num", "den"],
}


@dataclasses.dataclass
class OutputBundle:
    csv_paths: list[Path]
    json_path: Path
    exit_code: int = EXIT_OK


def _json_safe(value: Any) -> Any:
    """Make a value JSON-serializable; non-finite floats become strings."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "infinite" if value > 0 else ("-infinite" if value < 0 else "nan")
    return value


def _write_json(path: Path, scenario: Scenario, results: dict, started: float) -> None:
    report = {
        "results": _json_safe(results),
        "scenario": _json_safe(scenario.resolved),
        "tool": {
            "name": "rollsim",
            "version": __version__,
            "runtime_s": round(time.perf_counter() - started, 6),
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            fh.write(format_rows([c[start:start + _CSV_CHUNK] for c in columns]))


def _write_series_csv(path: Path, series) -> None:
    channels = ["setpoint", "y_true", "y_measured", "error", "u"]
    _write_csv(path, ["t", *channels], [series.t] + [series[c] for c in channels])


def _write_history_csv(path: Path, history) -> None:
    # '%.12g' writes an eval index below 1e12 as its integer digits.
    rows = [(i, gains.kp, gains.ki, gains.kd, cost) for i, (gains, cost) in enumerate(history)]
    _write_csv(path, ["eval", "kp", "ki", "kd", "cost"], list(np.array(rows, dtype=float).reshape(-1, 5).T))


def _loop_result_dict(result: LoopResult) -> dict:
    out = {
        "metrics": dataclasses.asdict(result.metrics),
        "stability_verdict": result.stability_verdict.value if result.stability_verdict else None,
        "diverged": result.diverged,
        "divergence_time": result.divergence_time,
        "samples": len(result.series),
    }
    if result.characteristic is not None:
        out["characteristic"] = result.characteristic
    if result.closed_loop is not None:
        out["closed_loop"] = {"num": result.closed_loop.num, "den": result.closed_loop.den}
    return out


# ---------------------------------------------------------------------------
# Kind runners
# ---------------------------------------------------------------------------

def _run_size(scenario: Scenario, prefix: Path, started: float) -> OutputBundle:
    inputs, mode = scenario.payload
    report = size_report(inputs, mode)
    results = dataclasses.asdict(report)
    json_path = prefix.with_suffix(".json")
    _write_json(json_path, scenario, results, started)
    return OutputBundle(csv_paths=[], json_path=json_path)


def _run_simulate(scenario: Scenario, prefix: Path, started: float) -> OutputBundle:
    spec: LoopSpec
    detector: DetectorConfig | None
    spec, detector = scenario.payload
    is_multibody = scenario.resolved["simulate"]["plant"]["kind"] == "multibody"
    demo = multibody_demo(gains=spec.gains, sim=spec.sim) if is_multibody else None
    if demo is not None and spec == demo.filtered_spec:
        result = demo.closed_filtered
    else:
        result = simulate_loop(spec)
    results = _loop_result_dict(result)

    if detector is not None:
        residual = result.series["y_measured"] - result.series["y_true"]
        events = detect_faults(result.series.t, residual, detector)
        results["fault_events"] = [dataclasses.asdict(e) for e in events]

    if demo is not None:
        filtered_verdict = demo.filtered_verdict
        results["multibody"] = {
            "open_bounded": demo.open_bounded,
            "open_routh": demo.open_routh.value,
            "open_verdict": demo.open_verdict.value,
            "ideal": {
                "stability_verdict": demo.ideal_verdict.value,
                "bounded": demo.closed_ideal.bounded,
                "characteristic": demo.ideal_char,
            },
            "filtered": {
                "stability_verdict": filtered_verdict.value if filtered_verdict else None,
                "bounded": demo.closed_filtered.bounded,
                "characteristic": demo.closed_filtered.characteristic,
            },
        }

    csv_path = prefix.with_suffix(".csv")
    _write_series_csv(csv_path, result.series)
    json_path = prefix.with_suffix(".json")
    _write_json(json_path, scenario, results, started)
    code = EXIT_DIVERGED if result.diverged else EXIT_OK
    return OutputBundle(csv_paths=[csv_path], json_path=json_path, exit_code=code)


def _run_tune(scenario: Scenario, prefix: Path, started: float) -> OutputBundle:
    spec: TuneSpec = scenario.payload
    result = tune_pid(spec)
    results = {
        "best_gains": {
            "kp": result.best_gains.kp,
            "ki": result.best_gains.ki,
            "kd": result.best_gains.kd,
        },
        "best_cost": result.best_cost,
        "evals": result.evals,
    }
    csv_path = prefix.with_suffix(".csv")
    _write_history_csv(csv_path, result.history)
    json_path = prefix.with_suffix(".json")
    _write_json(json_path, scenario, results, started)
    return OutputBundle(csv_paths=[csv_path], json_path=json_path)


def _run_poles(scenario: Scenario, prefix: Path, started: float) -> OutputBundle:
    tf = scenario.payload
    roots = poles(tf)
    order = np.lexsort((roots.imag, roots.real))
    try:
        gain: Any = dc_gain(tf)
    except ValueError:
        gain = "indeterminate"
    results = {
        "poles": [{"re": float(r.real), "im": float(r.imag)} for r in roots[order]],
        "routh": routh_classification(tf.den).value,
        "dc_gain": gain,
        "num": tf.num,
        "den": tf.den,
    }
    json_path = prefix.with_suffix(".json")
    _write_json(json_path, scenario, results, started)
    return OutputBundle(csv_paths=[], json_path=json_path)


def run(
    scenario: Scenario,
    out_prefix: str | None = None,
    jobs: int = 1,
    dt: float | None = None,
    t_end: float | None = None,
) -> OutputBundle:
    """Dispatch a parsed scenario and write its outputs.

    ``dt``/``t_end`` override the scenario's simulation settings (simulate
    and tune kinds).  The output prefix resolution order is the ``--out``
    flag, then the scenario's ``output_prefix``, then the scenario kind in
    the current directory.  ``jobs`` is accepted for compatibility and
    ignored, like ``tune_pid``'s.
    """
    started = time.perf_counter()
    scenario = _apply_overrides(scenario, dt, t_end)
    prefix = Path(out_prefix or scenario.output_prefix or scenario.kind)
    if scenario.kind == "size":
        return _run_size(scenario, prefix, started)
    if scenario.kind == "simulate":
        return _run_simulate(scenario, prefix, started)
    if scenario.kind == "tune":
        return _run_tune(scenario, prefix, started)
    return _run_poles(scenario, prefix, started)


def _apply_overrides(scenario: Scenario, dt: float | None, t_end: float | None) -> Scenario:
    if dt is None and t_end is None:
        return scenario
    if scenario.kind not in ("simulate", "tune"):
        return scenario
    resolved = copy.deepcopy(scenario.resolved)
    section = resolved[scenario.kind]
    sim_block = section["sim"] if scenario.kind == "simulate" else section["loop"]["sim"]
    if dt is not None:
        sim_block["dt"] = float(dt)
    if t_end is not None:
        sim_block["t_end"] = float(t_end)
    try:
        if scenario.kind == "simulate":
            spec, detector = scenario.payload
            new_sim = dataclasses.replace(spec.sim, dt=sim_block["dt"], t_end=sim_block["t_end"])
            payload = (dataclasses.replace(spec, sim=new_sim), detector)
        else:
            tune_spec: TuneSpec = scenario.payload
            new_sim = dataclasses.replace(
                tune_spec.loop.sim, dt=sim_block["dt"], t_end=sim_block["t_end"]
            )
            payload = dataclasses.replace(
                tune_spec, loop=dataclasses.replace(tune_spec.loop, sim=new_sim)
            )
    except ValueError as exc:
        raise ScenarioError(f"sim override: {exc}") from exc
    return dataclasses.replace(scenario, resolved=resolved, payload=payload)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rollsim",
        description="Hot-mill drive sizing, loop simulation, PID tuning, and pole analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("size", "simulate", "tune", "poles"):
        p = sub.add_parser(name, help=f"run a '{name}' scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario YAML file")
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; ignored")
        p.add_argument("--dt", type=float, default=None, help="override simulation step, s")
        p.add_argument("--t-end", type=float, default=None, help="override simulation horizon, s")
    sub.add_parser("version", help="print the tool version")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print(f"rollsim {__version__}")
        return EXIT_OK
    try:
        scenario = parse_scenario_file(args.scenario)
        if scenario.kind != args.command:
            raise ScenarioError(
                f"scenario kind '{scenario.kind}' does not match subcommand '{args.command}'"
            )
        bundle = run(scenario, out_prefix=args.out, dt=args.dt, t_end=args.t_end)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for path in [*bundle.csv_paths, bundle.json_path]:
        print(f"wrote {path}")
    if bundle.exit_code == EXIT_DIVERGED:
        print("warning: simulation diverged; outputs are partial", file=sys.stderr)
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
