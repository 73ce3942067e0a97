"""Run one benchmark workload through ``rollsim.cli.run`` and measure it.

A run parses the workload's scenario texts once, makes one untimed
warm-up pass, then repeats timed passes for about ``seconds``.  A pass is
every job of the workload through ``cli.run`` with its JSON and CSV
reports written into a fresh directory; the outputs of every pass,
warm-up included, are checked after its clock stops.  With ``trace`` set,
one further pass runs under :class:`tracing.Tracer` and gives the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import hostspeed
import tracing
from workloads import DEFAULT_SEED, build_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "passed_frac": "frac",
}


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/rollsim`` to benchmark."""


def import_rollsim():
    """Import ``rollsim`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "rollsim" / "__init__.py").is_file():
        raise SourceMissing(f"no rollsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rollsim.cli
    import rollsim.scenario

    return rollsim


def load_reference(workload: str) -> dict[str, dict]:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _ready_seconds(args: list[str]) -> float:
    """Seconds from starting ``python3 *args`` until it prints the monotonic clock."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from starting a fresh interpreter until the workload is ready.

    Each sample is a new process that imports ``rollsim``, builds the
    scenario texts from the seed and parses them, then reports the system
    monotonic clock, which the parent compares with its own reading taken
    just before the start.  Each sample is scaled by the import probes
    (``hostspeed.IMPORT_PROBE``) started just before and after it.
    """
    probe = ["-c", hostspeed.IMPORT_PROBE]
    setup = [str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    before = _ready_seconds(probe)
    for _ in range(SETUP_PROBES):
        elapsed = _ready_seconds(setup)
        after = _ready_seconds(probe)
        samples.append(hostspeed.normalise(elapsed, before, after, hostspeed.REFERENCE_IMPORT_S))
        before = after
    return statistics.median(samples)


class Pass:
    """Runs the parsed jobs through ``cli.run`` and checks what they wrote."""

    def __init__(self, rollsim, jobs, scenarios, workdir: Path, reference: dict | None):
        self.cli = rollsim.cli
        self.jobs = jobs
        self.scenarios = scenarios
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.samples_per_pass = 0
        self.problems: list[str] = []
        self._count = 0

    def __call__(self) -> tuple[float, float]:
        """One pass; returns its (host, normalised) seconds, probes and checks excluded.

        Each job's host seconds are scaled by the host-speed probe run just
        before and just after it (see ``hostspeed``).
        """
        self._count += 1
        outdir = self.workdir / f"pass{self._count}"
        outcomes = []
        host_s = normalised_s = 0.0
        before = hostspeed.probe()
        for job, scenario in zip(self.jobs, self.scenarios):
            start = time.perf_counter()
            try:
                outcomes.append(self.cli.run(scenario, out_prefix=str(outdir / job.name), jobs=1))
            except Exception:  # a job that raises is a failed job, not a failed run
                outcomes.append(traceback.format_exc())
            elapsed = time.perf_counter() - start
            after = hostspeed.probe()
            host_s += elapsed
            normalised_s += hostspeed.normalise(elapsed, before, after)
            before = after
        self._check(outcomes)
        shutil.rmtree(outdir, ignore_errors=True)
        return host_s, normalised_s

    def _check(self, outcomes) -> None:
        schema = self.cli.REPORT_SCHEMA
        required = self.cli.RESULT_REQUIRED
        samples = 0
        for job, outcome in zip(self.jobs, outcomes):
            self.attempted += 1
            if isinstance(outcome, str):
                problems, n = [f"cli.run raised:\n{outcome}"], 0
            else:
                ref = None if self.reference is None else self.reference.get(job.name)
                if self.reference is not None and ref is None:
                    problems, n = ["no reference results"], 0
                else:
                    problems, n = checks.check_job(outcome, schema, required, ref)
            samples += n
            if problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in problems]
        self.samples_per_pass = samples


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, dt_scale: float = 1.0
) -> tuple[dict, dict]:
    """Measure one workload.

    Returns the result object the benchmark prints last and a dict of
    context printed beside it: the timed pass count, the median host
    seconds of a pass before normalisation, the plant samples a pass
    delivers (the numerator of ``steps_per_s``) and ``failed_frac``.
    """
    rollsim = import_rollsim()
    setup_s = None if trace else measure_setup(workload, seed)
    jobs = build_jobs(workload, seed, SCENARIOS, dt_scale)
    scenarios = [rollsim.scenario.parse_scenario(job.text) for job in jobs]
    full_size = dt_scale == 1.0
    reference = load_reference(workload) if seed == DEFAULT_SEED and full_size else None

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        run_pass = Pass(rollsim, jobs, scenarios, Path(tmp), reference)
        run_pass()  # warm-up
        # Stop before a pass that would overrun the budget, as far as the
        # last pass predicts, so a run lasts about ``seconds``.
        deadline = time.perf_counter() + seconds
        passes = [run_pass()]
        while time.perf_counter() + passes[-1][0] <= deadline:
            passes.append(run_pass())
        host_s = statistics.median(host for host, _ in passes)
        wall_s = statistics.median(normalised for _, normalised in passes)

        if trace:
            with tracing.Tracer() as tracer:
                run_pass.scenarios = [rollsim.scenario.parse_scenario(job.text) for job in jobs]
                traced_wall = run_pass()[1]
            tracer.dump(OUT_DIR / f"trace_{workload}_seed{seed}.json")
            metrics = tracing.per_layer_metrics(tracer, traced_wall / wall_s - 1.0)
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "steps_per_s": run_pass.samples_per_pass / wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "passed_frac": 1.0 - run_pass.failed / run_pass.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    for problem in run_pass.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": run_pass.failed == 0,
        "attempted": run_pass.attempted,
        "failed": run_pass.failed,
        "metrics": metrics,
    }
    info = {
        "timed_passes": len(passes),
        "host_s": host_s,
        "samples_per_pass": run_pass.samples_per_pass,
        "failed_frac": run_pass.failed / run_pass.attempted,
    }
    return result, info
