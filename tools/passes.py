"""Time in-process passes of a benchmark workload and count their page faults.

Usage, from the repository root:

    python3 tools/passes.py tune --passes 20 --seed 1

A pass runs every job of the workload, the scenario texts that
``perfbench/workloads.py`` builds from the seed, through
``rollsim.cli.run``, writing the reports into a fresh temporary directory.
The scenarios are parsed once, and one untimed warm-up pass runs first.
The tool prints each pass's wall seconds and the minor page faults
(``ru_minflt``) the process took during it, then the median of each, then
each job's median seconds (for ``tune``, the grid job against the
Nelder-Mead job).

Page faults show the allocator returning freed pages to the system and
faulting them in again, which ``perfbench`` does not report.  Unlike
``perfbench`` it neither normalises for host speed nor checks outputs: run
it on two trees in turn, several times, and compare.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_paths() -> None:
    """Let this checkout's ``rollsim`` and ``perfbench`` modules be imported."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def run_passes(workload: str, passes: int, seed: int = 1) -> list[tuple[float, int, dict[str, float]]]:
    """(wall seconds, minor page faults, seconds per job name) of each of
    ``passes`` passes of ``workload``, after one warm-up pass."""
    _import_paths()
    import rollsim.cli
    import rollsim.scenario
    from workloads import build_jobs

    jobs = build_jobs(workload, seed, ROOT / "scenarios")
    scenarios = [rollsim.scenario.parse_scenario(job.text) for job in jobs]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(passes + 1):
            outdir = Path(tmp) / f"pass{index}"
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            times = {}
            start = time.perf_counter()
            for job, scenario in zip(jobs, scenarios):
                times[job.name] = time.perf_counter()
                rollsim.cli.run(scenario, out_prefix=str(outdir / job.name), jobs=1)
                times[job.name] = time.perf_counter() - times[job.name]
            elapsed = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if index:  # the first pass warms up
                results.append((elapsed, faults, times))
    return results


def main(argv: list[str] | None = None) -> int:
    _import_paths()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--passes", type=int, default=10, help="timed passes after the warm-up")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    results = run_passes(args.workload, args.passes, args.seed)
    for index, (seconds, faults, _) in enumerate(results, 1):
        print(f"pass {index:3d}  {seconds:.6f} s  {faults:6d} minor faults")
    seconds = statistics.median(s for s, _, _ in results)
    faults = statistics.median(f for _, f, _ in results)
    print(f"median  {seconds:.6f} s  {faults:g} minor faults per pass over {len(results)} passes")
    for name in results[0][2]:
        print(f"job  {statistics.median(times[name] for _, _, times in results):.6f} s  median of {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
