"""Command-line entry point.

Subcommands mirror the scenario kinds, the keys of :data:`RESULT_REQUIRED`
(``size``, ``simulate``, ``tune``, ``poles``), and each takes ``--scenario
<path>`` plus optional overrides; ``version`` prints the tool version.  Each
kind's runner returns its results and, for time-domain and tuning runs, a CSV
table; :func:`run` alone writes them: the CSV file, then the JSON report
(resolved inputs echoed back, results, tool version, wall-clock runtime).

CSV files hold one row per sample (simulate: ``t``, setpoint, true and
measured output, error, controller output) or per tuner evaluation (tune:
``eval``, gains, cost).  Every value is written as ``'%.12g' % value``
would write it; :func:`rollsim.csvfmt.format_rows` produces those bytes
with numpy, a chunk of rows per write, and the file is written in binary mode.

Exit codes: 0 success, 1 input error (a usage error too), 2 simulation
divergence (partial outputs are still written).
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
from .faults import detect_faults
from .loops import LoopResult, multibody_demo, simulate_loop
from .lti import dc_gain, poles, routh_classification
from .scenario import INFINITIES, Scenario, ScenarioError, _build, parse_scenario_file, read_scenario
from .sizing import size_report
from .tuning import tune_pid

__all__ = ["OutputBundle", "main", "run"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_DIVERGED = 2

_CSV_CHUNK = 1024  # rows formatted per write
_Table = tuple[list[str], list[np.ndarray]]  # a CSV table: header, columns
_SPELLINGS = {value: text for text, value in INFINITIES.items()}  # the reader's spellings

# Scenario kind -> the result fields every report of that kind has.
RESULT_REQUIRED = {
    "size": [
        "contact_length_L", "contact_area_A", "force_F", "torque_T", "omega",
        "roll_rpm", "power_P", "gear_ratio_R", "gear_ratio_rounded", "vfd_frequency",
    ],
    "simulate": ["metrics", "stability_verdict", "diverged", "divergence_time", "samples"],
    "tune": ["best_gains", "best_cost", "evals"],
    "poles": ["poles", "routh", "dc_gain", "num", "den"],
}

# JSON Schema for every report this tool writes.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["results", "scenario", "tool"],
    "additionalProperties": False,
    "properties": {
        "results": {"type": "object"},
        "scenario": {
            "type": "object",
            "required": ["kind", "output_prefix"],
            "properties": {"kind": {"enum": list(RESULT_REQUIRED)}},
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


@dataclasses.dataclass
class OutputBundle:
    csv_paths: list[Path]
    json_path: Path
    exit_code: int = EXIT_OK


def _json_safe(value: Any) -> Any:
    """Make a value JSON-serializable; an infinity becomes the spelling the
    scenario reader takes back (``INFINITIES``), NaN the string ``"nan"``."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return _SPELLINGS.get(value, "nan")
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
    # One write: json.dump would write each token of its encoder on its own.
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            fh.write(format_rows([c[start:start + _CSV_CHUNK] for c in columns]))


def _series_table(series) -> _Table:
    channels = ["setpoint", "y_true", "y_measured", "error", "u"]
    return ["t", *channels], [series.t] + [series[c] for c in channels]


def _history_table(history) -> _Table:
    # '%.12g' writes an eval index below 1e12 as its integer digits.
    rows = [(i, gains.kp, gains.ki, gains.kd, cost) for i, (gains, cost) in enumerate(history)]
    return ["eval", "kp", "ki", "kd", "cost"], list(np.array(rows, dtype=float).reshape(-1, 5).T)


def _verdict(result: LoopResult) -> str | None:
    return result.stability_verdict.value if result.stability_verdict else None


def _loop_result_dict(result: LoopResult) -> dict:
    out = {
        "metrics": dataclasses.asdict(result.metrics),
        "stability_verdict": _verdict(result),
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
# Kind runners: each returns (results, CSV table or None, exit code) and
# writes nothing; run() writes the files.  An analysis that rejects its
# input raises a ScenarioError naming the key, so no file is written.
# ---------------------------------------------------------------------------

def _run_size(scenario: Scenario) -> tuple[dict, _Table | None, int]:
    report = _build("sizing", size_report, *scenario.payload)  # finite inputs whose product overflows
    return dataclasses.asdict(report), None, EXIT_OK


def _run_simulate(scenario: Scenario) -> tuple[dict, _Table | None, int]:
    spec, detector = scenario.payload
    is_multibody = scenario.resolved["simulate"]["plant"]["kind"] == "multibody"
    demo = multibody_demo(gains=spec.gains, sim=spec.sim) if is_multibody else None
    demo_loops = (demo.closed_ideal, demo.closed_filtered) if demo is not None else ()
    result = next((r for r in demo_loops if r.spec == spec), None) or simulate_loop(spec)
    results = _loop_result_dict(result)

    if detector is not None:
        residual = result.series["y_measured"] - result.series["y_true"]
        events = detect_faults(result.series.t, residual, detector)
        results["fault_events"] = [dataclasses.asdict(e) for e in events]

    if demo is not None:
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
                "stability_verdict": _verdict(demo.closed_filtered),
                "bounded": demo.closed_filtered.bounded,
                "characteristic": demo.closed_filtered.characteristic,
            },
        }
    return results, _series_table(result.series), EXIT_DIVERGED if result.diverged else EXIT_OK


def _run_tune(scenario: Scenario) -> tuple[dict, _Table | None, int]:
    result = tune_pid(scenario.payload)
    gains = {"kp": result.best_gains.kp, "ki": result.best_gains.ki, "kd": result.best_gains.kd}
    results = {"best_gains": gains, "best_cost": result.best_cost, "evals": result.evals}
    return results, _history_table(result.history), EXIT_OK


def _run_poles(scenario: Scenario) -> tuple[dict, _Table | None, int]:
    tf = scenario.payload
    roots = _build("poles.den", poles, tf)  # a denominator whose roots come out inaccurate
    order = np.lexsort((roots.imag, roots.real))
    try:
        gain: Any = dc_gain(tf)
    except ValueError:
        gain = "indeterminate"
    return {
        "poles": [{"re": float(r.real), "im": float(r.imag)} for r in roots[order]],
        "routh": routh_classification(tf.den).value,
        "dc_gain": gain,
        "num": tf.num,
        "den": tf.den,
    }, None, EXIT_OK


# Scenario kind -> runner, in RESULT_REQUIRED's order.
_RUNNERS = dict(zip(RESULT_REQUIRED, (_run_size, _run_simulate, _run_tune, _run_poles), strict=True))


def run(
    scenario: Scenario,
    out_prefix: str | None = None,
    jobs: int = 1,
    dt: float | None = None,
    t_end: float | None = None,
) -> OutputBundle:
    """Run a parsed scenario through its kind's runner (``_RUNNERS``) and
    write its outputs: the CSV table, if any, to ``<prefix>.csv``, then the
    report to ``<prefix>.json``, so ``runtime_s`` covers the CSV write.

    ``dt``/``t_end`` override the scenario's simulation settings (simulate
    and tune kinds): they are written into a copy of the resolved echo and
    read again by :func:`~rollsim.scenario.read_scenario`, so the report
    echoes them and an invalid value is a :class:`ScenarioError` naming its
    key path.  The prefix is ``out_prefix``, else the scenario's
    ``output_prefix``, else the kind.  ``jobs`` is accepted and ignored.
    """
    started = time.perf_counter()
    scenario = _apply_overrides(scenario, dt, t_end)
    prefix = Path(out_prefix or scenario.output_prefix or scenario.kind)
    results, table, code = _RUNNERS[scenario.kind](scenario)
    csv_paths = [] if table is None else [prefix.with_suffix(".csv")]
    for path in csv_paths:
        _write_csv(path, *table)
    json_path = prefix.with_suffix(".json")
    _write_json(json_path, scenario, results, started)
    return OutputBundle(csv_paths=csv_paths, json_path=json_path, exit_code=code)


def _apply_overrides(scenario: Scenario, dt: float | None, t_end: float | None) -> Scenario:
    if (dt is None and t_end is None) or scenario.kind not in ("simulate", "tune"):
        return scenario
    resolved = copy.deepcopy(scenario.resolved)
    section = resolved[scenario.kind]
    sim_block = section["sim"] if scenario.kind == "simulate" else section["loop"]["sim"]
    for key, value in (("dt", dt), ("t_end", t_end)):
        if value is not None:
            sim_block[key] = float(value)
    try:
        return read_scenario(resolved)
    except ScenarioError as exc:
        raise ScenarioError(f"sim override: {exc}") from exc


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits ``EXIT_INPUT_ERROR`` on a usage error, not argparse's 2, the code
    of a divergence here; subcommand parsers are of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rollsim",
        description="Hot-mill drive sizing, loop simulation, PID tuning, and pole analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RESULT_REQUIRED:
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
            raise ScenarioError(f"scenario kind '{scenario.kind}' does not match subcommand '{args.command}'")
        bundle = run(scenario, out_prefix=args.out, dt=args.dt, t_end=args.t_end)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for path in [*bundle.csv_paths, bundle.json_path]:
        print(f"wrote {path}")
    if bundle.exit_code == EXIT_DIVERGED:
        print("warning: simulation diverged; outputs are partial", file=sys.stderr)
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
