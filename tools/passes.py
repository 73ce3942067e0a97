"""Time in-process passes of a benchmark workload and count their page faults.

Usage, from the repository root:

    python3 tools/passes.py tune --passes 20 --seed 1
    python3 tools/passes.py fault_sweep --phases

A pass runs every job of the workload, the scenario texts that
``perfbench/workloads.py`` builds from the seed, through
``rollsim.cli.run``, writing the reports into a fresh temporary directory.
The scenarios are parsed once, and one untimed warm-up pass runs first.
The tool prints each pass's wall seconds and the minor page faults
(``ru_minflt``) the process took during it, then the median of each, then
each job's median seconds (for ``tune``, the grid job against the
Nelder-Mead job).

``--phases`` also prints, for each function of ``PHASES`` that the
workload enters, the median milliseconds per pass spent inside it.  Each
is wrapped from outside wherever a ``rollsim`` module holds it, only its
outermost call is timed (a plan builds and scans its lone members through
the same methods), and the originals are restored after the passes.  A
phase's time includes the phases it calls: ``loops.simulate_loop`` holds
the draws, sensor calls and plan calls of nonlinear loops, and
``loops.LoopFrame._scan`` the maps, plan build and scan of a tuner
evaluation.  Unlike cProfile, this costs one wrapper per call of the
listed functions only, so small calls are not inflated.

Page faults show the allocator returning freed pages to the system and
faulting them in again, which ``perfbench`` does not report.  Unlike
``perfbench`` it neither normalises for host speed nor checks outputs: run
it on two trees in turn, several times, and compare.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The functions --phases times, by their path in the rollsim package.
PHASES = (
    "cli._write_csv",
    "cli._write_json",
    "tuning.loop_cost",
    "loops.simulate_loop",
    "loops.LoopFrame._scan",
    "loops._loop_maps",
    "faults.counter_gauss",
    "faults.apply_sensor",
    "lti.PropagationPlan.__init__",
    "lti.PropagationPlan.scan",
    "lti.PropagationPlan._rows",
)


def _import_paths() -> None:
    """Let this checkout's ``rollsim`` and ``perfbench`` modules be imported."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _timed(function, name: str, spent: dict[str, float]):
    """``function``, adding the seconds of each outermost call to ``spent[name]``."""
    depth = 0

    @functools.wraps(function)
    def timed(*args, **kwargs):
        nonlocal depth
        if depth:
            return function(*args, **kwargs)
        depth += 1
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - start
            depth -= 1

    return timed


@contextlib.contextmanager
def timed_phases(spent: dict[str, float]):
    """Wrap each function of ``PHASES`` wherever a loaded ``rollsim``
    module holds it (a method, on its class), adding its time to
    ``spent`` under its name once it is entered; the originals are back
    on exit."""
    modules = [module for key, module in list(sys.modules.items()) if key.split(".")[0] == "rollsim"]
    patched = []
    try:
        for name in PHASES:
            module, *owners, attribute = name.split(".")
            owner = importlib.import_module(f"rollsim.{module}")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            holders = [owner] if owners else [m for m in modules if m.__dict__.get(attribute) is original]
            wrapper = _timed(original, name, spent)
            for holder in holders:
                setattr(holder, attribute, wrapper)
                patched.append((holder, attribute, original))
        yield
    finally:
        for holder, attribute, original in reversed(patched):
            setattr(holder, attribute, original)


def run_passes(
    workload: str, passes: int, seed: int = 1, phases: bool = False,
) -> list[tuple[float, int, dict[str, float], dict[str, float]]]:
    """(wall seconds, minor page faults, seconds per job name, seconds per
    phase entered, empty unless ``phases``) of each of ``passes`` passes
    of ``workload``, after one warm-up pass."""
    _import_paths()
    import rollsim.cli
    import rollsim.scenario
    from workloads import build_jobs

    jobs = build_jobs(workload, seed, ROOT / "scenarios")
    scenarios = [rollsim.scenario.parse_scenario(job.text) for job in jobs]
    results = []
    spent: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp, timed_phases(spent) if phases else contextlib.nullcontext():
        for index in range(passes + 1):
            outdir = Path(tmp) / f"pass{index}"
            spent.clear()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            times = {}
            start = time.perf_counter()
            for job, scenario in zip(jobs, scenarios):
                times[job.name] = time.perf_counter()
                rollsim.cli.run(scenario, out_prefix=str(outdir / job.name))
                times[job.name] = time.perf_counter() - times[job.name]
            elapsed = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if index:  # the first pass warms up
                results.append((elapsed, faults, times, dict(spent)))
    return results


def main(argv: list[str] | None = None) -> int:
    _import_paths()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--passes", type=int, default=10, help="timed passes after the warm-up")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--phases", action="store_true", help="also time the functions of PHASES")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    results = run_passes(args.workload, args.passes, args.seed, args.phases)
    for index, (seconds, faults, _, _) in enumerate(results, 1):
        print(f"pass {index:3d}  {seconds:.6f} s  {faults:6d} minor faults")
    seconds = statistics.median(result[0] for result in results)
    faults = statistics.median(result[1] for result in results)
    print(f"median  {seconds:.6f} s  {faults:g} minor faults per pass over {len(results)} passes")
    for name in results[0][2]:
        print(f"job  {statistics.median(result[2][name] for result in results):.6f} s  median of {name}")
    for name in PHASES:
        if any(name in result[3] for result in results):
            per_pass = statistics.median(result[3].get(name, 0.0) for result in results)
            print(f"phase  {per_pass * 1e3:.3f} ms  median per pass in {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
