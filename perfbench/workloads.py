"""Benchmark workloads: scenario texts generated from a seed.

Each workload is a list of jobs.  A job is a file stem for its outputs
and the scenario YAML handed to ``rollsim.scenario.parse_scenario``;
nothing else about the workload reaches the program.  Horizons and step
sizes live in the scenario text, never in ``cli.run`` arguments, because
``cli.run``'s ``dt``/``t_end`` overrides edit the caller's
``scenario.resolved`` in place and repeated passes would share that state.

``dt_scale`` multiplies every step size; the benchmark's own tests use it
to run a shortened pass with the same dynamics and event times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

WORKLOADS = ("tune", "fault_sweep", "multibody")
DEFAULT_SEED = 1

FAULT_KINDS = ("stuck", "bias_jump", "drift", "dropout")
SENSOR_SEEDS_PER_KIND = 2
NELDER_MEAD_EVALS = 10

MULTIBODY_SCENARIOS = ("multibody_demo", "poles_multibody", "size_mill")

# Detector settings shared by every fault job.  Sensor noise (1e-6) and
# quantisation error (<= 5e-7) stay far below the threshold, so no seed
# can raise an alarm before the fault onset.
_SENSOR = {"noise_sigma": 1.0e-6, "quantization_step": 1.0e-6}
_DETECTOR = {"residual_threshold": 1.0e-4, "consecutive_required": 5}
_THICKNESS_PLANT = {"kind": "power_screw", "lead": 0.005, "mode": "integrated"}


@dataclass(frozen=True)
class Job:
    name: str
    text: str


def _dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False)


def _tune_jobs(rng: random.Random, dt: float) -> list[Job]:
    # The thickness plant is gain/(s(s+1)); under PI control it is stable
    # exactly when kp > ki, so this box holds both stable and unstable gains.
    grid = {
        "kind": "tune",
        "tune": {
            "loop": {
                "plant": dict(_THICKNESS_PLANT),
                "setpoint": [{"t": 0.0, "kind": "step", "value": 0.002 * rng.uniform(0.8, 1.2)}],
                "sim": {"dt": dt, "t_end": 10.0},
            },
            "cost": "itae",
            "method": "grid",
            "bounds": {
                "kp": [rng.uniform(400.0, 600.0), rng.uniform(6000.0, 10000.0)],
                "ki": [rng.uniform(150.0, 250.0), rng.uniform(12000.0, 20000.0)],
            },
            "initial": {"kp": rng.uniform(3000.0, 5000.0), "ki": rng.uniform(600.0, 1000.0)},
            "grid_points": 3,
            "max_evals": 50,
        },
    }
    nelder_mead = {
        "kind": "tune",
        "tune": {
            "loop": {
                "plant": {"kind": "roll_drive"},
                "setpoint": [{"t": 0.0, "kind": "step", "value": rng.uniform(0.4, 0.6)}],
                "sim": {"dt": dt, "t_end": 10.0},
            },
            "cost": "itae",
            "method": "nelder_mead",
            "bounds": {"kp": [0.5, 20.0], "ki": [0.5, 20.0]},
            "initial": {"kp": rng.uniform(4.0, 12.0), "ki": rng.uniform(4.0, 12.0)},
            "max_evals": NELDER_MEAD_EVALS,
        },
    }
    return [Job("tune_grid_thickness", _dump(grid)), Job("tune_nm_speed", _dump(nelder_mead))]


def _fault_job(kind: str, rng: random.Random, dt: float) -> dict:
    onset = rng.uniform(8.0, 11.0)
    level = 0.002 * rng.uniform(0.75, 1.25)
    fault: dict = {"kind": kind, "onset_t": onset}
    if kind == "bias_jump":
        fault["magnitude"] = rng.uniform(2.0e-4, 3.0e-4)
    elif kind == "drift":
        fault["magnitude"] = rng.uniform(1.0e-4, 2.0e-4)
    elif kind == "dropout":
        fault["duration"] = rng.uniform(3.0, 5.0)
    return {
        "kind": "simulate",
        "simulate": {
            "plant": dict(_THICKNESS_PLANT),
            "controller": {"kp": 4000.0, "ki": 800.0},
            # The second step, one second after onset, moves the true gap
            # away from a stuck or dropped-out reading so those faults show.
            "setpoint": [
                {"t": 0.0, "kind": "step", "value": level},
                {"t": onset + 1.0, "kind": "step", "value": 1.25 * level},
            ],
            "sensor": dict(_SENSOR),
            "fault": fault,
            "detector": dict(_DETECTOR),
            "seed": rng.randrange(2**31),
            "sim": {"dt": dt, "t_end": 20.0},
        },
    }


def _fault_sweep_jobs(rng: random.Random, dt: float) -> list[Job]:
    return [
        Job(f"fault_{kind}_{i}", _dump(_fault_job(kind, rng, dt)))
        for kind in FAULT_KINDS
        for i in range(SENSOR_SEEDS_PER_KIND)
    ]


def _multibody_jobs(scenario_dir: Path, dt_scale: float) -> list[Job]:
    jobs = []
    for name in MULTIBODY_SCENARIOS:
        text = (scenario_dir / f"{name}.yaml").read_text(encoding="utf-8")
        if dt_scale != 1.0:
            doc = yaml.safe_load(text)
            if "simulate" in doc:
                doc["simulate"]["sim"]["dt"] *= dt_scale
                text = _dump(doc)
        jobs.append(Job(name, text))
    return jobs


def build_jobs(workload: str, seed: int, scenario_dir: Path, dt_scale: float = 1.0) -> list[Job]:
    """The workload's jobs for ``seed``; the same seed gives the same texts.

    ``multibody`` runs the shipped scenarios unchanged, so its inputs do
    not depend on the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    dt = 0.001 * dt_scale
    if workload == "tune":
        return _tune_jobs(rng, dt)
    if workload == "fault_sweep":
        return _fault_sweep_jobs(rng, dt)
    if workload == "multibody":
        return _multibody_jobs(scenario_dir, dt_scale)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
