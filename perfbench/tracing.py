"""Per-layer timing of ``rollsim`` from outside the package.

The benchmark never edits ``src/``.  Instead a :class:`Tracer` replaces
the public functions of each module with timing wrappers, at the place
where callers look the name up (most functions are imported by name, so
``rollsim.cli.simulate_loop`` and ``rollsim.loops.simulate_loop`` are two
sites of one function), and restores the originals afterwards.

Coarse calls become spans with name, start, end, parent and job, kept in
memory; the job is the id of the outermost span, so each ``cli.run`` call
and everything under it share one.  Per-step functions run over 10^5 times a pass, so for those only
the count and the total and self time per (name, parent name) are kept.
A span's self time is its duration minus that of its wrapped children.

A site whose target no longer exists is recorded as missing, and every
metric that needs it is reported as missing; it never stops the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, per-step?)
SITES = (
    ("rollsim.scenario", "parse_scenario", "scenario.parse_scenario", False),
    ("rollsim.scenario", "roll_drive_tf", "plants.tf", False),
    ("rollsim.scenario", "power_screw_tf", "plants.tf", False),
    ("rollsim.scenario", "multibody_tf", "plants.tf", False),
    ("rollsim.loops", "multibody_tf", "plants.tf", False),
    ("rollsim.cli", "run", "cli.run", False),
    ("rollsim.cli", "simulate_loop", "loops.simulate_loop", False),
    ("rollsim.cli", "tune_pid", "tuning.tune_pid", False),
    ("rollsim.cli", "detect_faults", "faults.detect_faults", False),
    ("rollsim.cli", "multibody_demo", "loops.multibody_demo", False),
    ("rollsim.cli", "size_report", "sizing.size_report", False),
    ("rollsim.cli", "poles", "lti.poles", False),
    ("rollsim.cli", "routh_classification", "lti.routh_classification", False),
    ("rollsim.tuning", "simulate_loop", "loops.simulate_loop", False),
    ("rollsim.loops", "simulate_loop", "loops.simulate_loop", False),
    ("rollsim.loops", "step_response", "lti.step_response", False),
    ("rollsim.loops", "response_metrics", "lti.response_metrics", False),
    ("rollsim.lti", "simulate_lti", "lti.simulate_lti", False),
    ("rollsim.loops", "pid_step", "pid.pid_step", True),
    ("rollsim.loops", "apply_sensor", "faults.apply_sensor", True),
    ("rollsim.loops", "SetpointProfile.value", "loops.SetpointProfile.value", True),
    ("rollsim.faults", "counter_gauss", "faults.counter_gauss", True),
)
# ``rollsim.tuning.loop_cost`` is deliberately absent: ``tune_pid`` binds it
# as a default argument, so a wrapper there is never called.  Tuner
# evaluations are counted at ``rollsim.tuning.simulate_loop`` instead.


class Tracer:
    """Installs timing wrappers on :data:`SITES` and collects what they see."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job id, self s)
        self.per_step: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, s, self s]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._root = ["", 0.0, None, None]  # frame: [name, child seconds, span id, job id]
        self._stack = [self._root]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, per_step in SITES:
            self._install(module_name, attr, name, per_step)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self, module_name: str, attr: str, name: str, per_step: bool) -> None:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # Read the class dict, not getattr, so a method is restored as
            # the plain function it was.
            original = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            self.missing.add(name)
            return
        hook = _HOOKS.get((module_name, attr)) or _HOOKS.get(name)
        wrapper = self._per_step(name, original) if per_step else self._span(name, original, hook)
        setattr(owner, leaf, wrapper)
        self._undo.append((owner, leaf, original))

    def _span(self, name: str, fn, hook):
        stack, spans, ids, perf = self._stack, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = next(ids)
            frame = [name, 0.0, span_id, parent[3] or span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                parent[1] += end - start
                spans.append((span_id, name, start, end, parent[2], frame[3], end - start - frame[1]))
            if hook is not None:
                hook(self.counts, result)
            return result

        return wrapper

    def _per_step(self, name: str, fn):
        stack, table, perf = self._stack, self.per_step, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, None, parent[3]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[1] += elapsed
                row = table.get((name, parent[0]))
                if row is None:
                    row = table[(name, parent[0])] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]

        return wrapper

    # -- reading ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, seconds, self seconds], spans and per-step rows together."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _id, name, start, end, _parent, _job, self_s in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        for (name, _parent), (calls, seconds, self_s) in self.per_step.items():
            row = out[name]
            row[0] += calls
            row[1] += seconds
            row[2] += self_s
        return out

    def dump(self, path: Path) -> None:
        """Write the spans and per-step rows as JSON."""
        doc = {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "job": j, "self_s": x}
                for i, n, s, e, p, j, x in self.spans
            ],
            "per_step": [
                {"name": n, "parent": p, "calls": c, "s": s, "self_s": x}
                for (n, p), (c, s, x) in sorted(self.per_step.items())
            ],
            "missing": sorted(self.missing),
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


# Counters read off return values.  Each reads attributes defensively so a
# later change to a result type loses a count rather than the run.

def _count_loop_steps(counts, result) -> None:
    series = getattr(result, "series", None)
    counts["loops.steps"] += len(series) if series is not None else 0


def _count_lti_steps(counts, result) -> None:
    counts["lti.simulate_lti.steps"] += len(result) if hasattr(result, "__len__") else 0


def _count_events(counts, result) -> None:
    counts["faults.events"] += len(result)
    counts["faults.detected_jobs"] += bool(result)


def _count_bytes(counts, bundle) -> None:
    paths = [*getattr(bundle, "csv_paths", []), getattr(bundle, "json_path", None)]
    counts["cli.bytes_written"] += sum(Path(p).stat().st_size for p in paths if p is not None)


def _count_tuning_eval(counts, result) -> None:
    counts["tuning.evals"] += 1
    counts["tuning.diverged"] += bool(getattr(result, "diverged", False))
    _count_loop_steps(counts, result)


_HOOKS = {
    ("rollsim.tuning", "simulate_loop"): _count_tuning_eval,
    "loops.simulate_loop": _count_loop_steps,
    "lti.simulate_lti": _count_lti_steps,
    "faults.detect_faults": _count_events,
    "cli.run": _count_bytes,
}

# Metric -> (unit, span names and counters it needs).
PER_LAYER = {
    "cli.run.self_s": ("s", ["cli.run"]),
    "cli.bytes_written": ("bytes", ["cli.run"]),
    "scenario.parse_scenario.calls": ("count", ["scenario.parse_scenario"]),
    "scenario.parse_scenario.s": ("s", ["scenario.parse_scenario"]),
    "plants.tf.calls": ("count", ["plants.tf"]),
    "plants.tf.us_per_call": ("us", ["plants.tf"]),
    "tuning.tune_pid.self_s": ("s", ["tuning.tune_pid"]),
    "tuning.evals": ("count", ["loops.simulate_loop"]),
    "tuning.ms_per_eval": ("ms", ["tuning.tune_pid", "loops.simulate_loop"]),
    "tuning.diverged_frac": ("frac", ["loops.simulate_loop"]),
    "loops.simulate_loop.calls": ("count", ["loops.simulate_loop"]),
    "loops.simulate_loop.self_s": ("s", ["loops.simulate_loop"]),
    "loops.steps": ("count", ["loops.simulate_loop"]),
    "loops.us_per_step": ("us", ["loops.simulate_loop"]),
    "loops.SetpointProfile.value.us_per_call": ("us", ["loops.SetpointProfile.value"]),
    "loops.multibody_demo.s": ("s", ["loops.multibody_demo"]),
    "pid.pid_step.calls": ("count", ["pid.pid_step"]),
    "pid.pid_step.us_per_call": ("us", ["pid.pid_step"]),
    "faults.apply_sensor.calls": ("count", ["faults.apply_sensor"]),
    "faults.apply_sensor.us_per_call": ("us", ["faults.apply_sensor"]),
    "faults.counter_gauss.calls": ("count", ["faults.counter_gauss"]),
    "faults.counter_gauss.us_per_call": ("us", ["faults.counter_gauss"]),
    "faults.detect_faults.s": ("s", ["faults.detect_faults"]),
    "faults.events": ("count", ["faults.detect_faults"]),
    "faults.detected_frac": ("frac", ["faults.detect_faults"]),
    "lti.simulate_lti.calls": ("count", ["lti.simulate_lti"]),
    "lti.simulate_lti.us_per_step": ("us", ["lti.simulate_lti"]),
    "lti.response_metrics.us_per_call": ("us", ["lti.response_metrics"]),
    "lti.poles.us_per_call": ("us", ["lti.poles"]),
    "lti.routh_classification.us_per_call": ("us", ["lti.routh_classification"]),
    "sizing.size_report.us_per_call": ("us", ["sizing.size_report"]),
    "trace.overhead_frac": ("frac", []),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, dict]:
    """Every :data:`PER_LAYER` metric; value ``None`` when a site is missing.

    Rates per call or per step read 0 when there were no calls.
    """
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot[name][0]

    def seconds(name):
        return tot[name][1]

    def us_per_call(name):
        return 1e6 * _ratio(seconds(name), calls(name))

    values = {
        "cli.run.self_s": tot["cli.run"][2],
        "cli.bytes_written": c["cli.bytes_written"],
        "scenario.parse_scenario.calls": calls("scenario.parse_scenario"),
        "scenario.parse_scenario.s": seconds("scenario.parse_scenario"),
        "plants.tf.calls": calls("plants.tf"),
        "plants.tf.us_per_call": us_per_call("plants.tf"),
        "tuning.tune_pid.self_s": tot["tuning.tune_pid"][2],
        "tuning.evals": c["tuning.evals"],
        "tuning.ms_per_eval": 1e3 * _ratio(seconds("tuning.tune_pid"), c["tuning.evals"]),
        "tuning.diverged_frac": _ratio(c["tuning.diverged"], c["tuning.evals"]),
        "loops.simulate_loop.calls": calls("loops.simulate_loop"),
        "loops.simulate_loop.self_s": tot["loops.simulate_loop"][2],
        "loops.steps": c["loops.steps"],
        "loops.us_per_step": 1e6 * _ratio(seconds("loops.simulate_loop"), c["loops.steps"]),
        "loops.SetpointProfile.value.us_per_call": us_per_call("loops.SetpointProfile.value"),
        "loops.multibody_demo.s": seconds("loops.multibody_demo"),
        "pid.pid_step.calls": calls("pid.pid_step"),
        "pid.pid_step.us_per_call": us_per_call("pid.pid_step"),
        "faults.apply_sensor.calls": calls("faults.apply_sensor"),
        "faults.apply_sensor.us_per_call": us_per_call("faults.apply_sensor"),
        "faults.counter_gauss.calls": calls("faults.counter_gauss"),
        "faults.counter_gauss.us_per_call": us_per_call("faults.counter_gauss"),
        "faults.detect_faults.s": seconds("faults.detect_faults"),
        "faults.events": c["faults.events"],
        "faults.detected_frac": _ratio(c["faults.detected_jobs"], calls("faults.detect_faults")),
        "lti.simulate_lti.calls": calls("lti.simulate_lti"),
        "lti.simulate_lti.us_per_step": 1e6 * _ratio(seconds("lti.simulate_lti"), c["lti.simulate_lti.steps"]),
        "lti.response_metrics.us_per_call": us_per_call("lti.response_metrics"),
        "lti.poles.us_per_call": us_per_call("lti.poles"),
        "lti.routh_classification.us_per_call": us_per_call("lti.routh_classification"),
        "sizing.size_report.us_per_call": us_per_call("sizing.size_report"),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for metric, (unit, needs) in PER_LAYER.items():
        value = None if tracer.missing.intersection(needs) else values[metric]
        out[metric] = {"value": value, "unit": unit}
    return out
