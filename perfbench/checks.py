"""Correctness checks on one job's written outputs.

A job passes when ``cli.run`` returned the expected exit code, its JSON
report validates against ``cli.REPORT_SCHEMA`` and ``cli.RESULT_REQUIRED``,
its CSV has one row per reported sample or evaluation, the seed-independent
invariants hold, and, when reference results are given, every result
matches them to 1e-9 relative (``tool.runtime_s`` is never compared).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

EXPECTED_EXIT = 0  # every job exits 0 today, multibody too (unstable verdict)
REL_TOL = 1e-9
# Pole real parts that are zero in exact arithmetic come out near 1e-16;
# below this magnitude two values count as equal.
ABS_TOL = 1e-12


def horizon_samples(sim: dict) -> int:
    """Samples of one simulated run over ``sim``'s horizon, both ends included."""
    return int(round(sim["t_end"] / sim["dt"])) + 1


def nominal_samples(report: dict) -> int:
    """Plant samples a job delivers; fixed by its inputs, not by its timing."""
    scenario, results = report["scenario"], report["results"]
    if scenario["kind"] == "simulate":
        # A multibody plant adds the demo's open-loop run and its ideal and
        # filtered closed loops to the main run.
        runs = 4 if "multibody" in results else 1
        return runs * horizon_samples(scenario["simulate"]["sim"])
    if scenario["kind"] == "tune":
        return results["evals"] * horizon_samples(scenario["tune"]["loop"]["sim"])
    return 0


def compare(actual, expected, path: str = "results") -> list[str]:
    """Differences between two decoded JSON values, numbers to REL_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ from the reference"]
        return [p for k in expected for p in compare(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs from the reference"]
        return [p for i, (a, e) in enumerate(zip(actual, expected)) for p in compare(a, e, f"{path}[{i}]")]
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if (
            isinstance(actual, (int, float))
            and not isinstance(actual, bool)
            and math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ):
            return []
        return [f"{path}: {actual!r} != reference {expected!r}"]
    if actual != expected or type(actual) is not type(expected):
        return [f"{path}: {actual!r} != reference {expected!r}"]
    return []


def _csv_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1  # minus the header


def check_report(report: dict, schema: dict, required: dict) -> list[str]:
    """Schema, required fields and seed-independent invariants of a report."""
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return [f"report fails REPORT_SCHEMA: {exc.message}"]
    scenario, results = report["scenario"], report["results"]
    kind = scenario["kind"]
    problems = [f"results.{k}: missing" for k in required.get(kind, []) if k not in results]
    if problems:
        return problems
    if kind == "simulate":
        expected = horizon_samples(scenario["simulate"]["sim"])
        if results["diverged"] or results["samples"] != expected:
            problems.append(f"results.samples: {results['samples']} != horizon {expected}")
        fault = scenario["simulate"].get("fault")
        if fault is not None:
            events = results.get("fault_events", [])
            onset = fault["onset_t"]
            if not any(e["detected_t"] >= onset for e in events):
                problems.append(f"fault_events: no event after onset_t {onset}")
            early = [e["detected_t"] for e in events if e["detected_t"] < onset]
            if early:
                problems.append(f"fault_events: events before onset_t {onset}: {early}")
    return problems


def check_job(bundle, schema: dict, required: dict, reference: dict | None = None) -> tuple[list[str], int]:
    """(problems, nominal sample count) for the outputs ``bundle`` names."""
    problems = []
    if bundle.exit_code != EXPECTED_EXIT:
        problems.append(f"exit code {bundle.exit_code} != {EXPECTED_EXIT}")
    try:
        report = json.loads(Path(bundle.json_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"cannot read report {bundle.json_path}: {exc}"], 0
    try:
        problems += _check_outputs(report, bundle.csv_paths, schema, required, reference)
        samples = nominal_samples(report)
    except (KeyError, TypeError) as exc:
        return problems + [f"malformed report: {exc!r}"], 0
    return problems, samples


def _check_outputs(report: dict, csv_paths, schema: dict, required: dict, reference: dict | None) -> list[str]:
    problems = check_report(report, schema, required)
    if problems:
        return problems
    results = report["results"]
    expected_rows = {"simulate": results.get("samples"), "tune": results.get("evals")}.get(
        report["scenario"]["kind"]
    )
    if expected_rows is not None and not csv_paths:
        problems.append("no CSV written")
    for path in csv_paths:
        try:
            rows = _csv_rows(Path(path))
        except OSError as exc:
            problems.append(f"cannot read {path}: {exc}")
            continue
        if rows != expected_rows:
            problems.append(f"{Path(path).name}: {rows} rows != {expected_rows}")
    if reference is not None:
        problems += compare(results, reference)
    return problems
