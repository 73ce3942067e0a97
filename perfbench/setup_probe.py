"""Set-up probe, run by the benchmark in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports ``rollsim`` from the checkout's ``src/``, builds the workload's
scenario texts from the seed and parses each one, then prints the system
monotonic clock so the parent can time the whole start-up.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import rollsim.cli  # noqa: F401  (the jobs run through it)
    from rollsim.scenario import parse_scenario
    from workloads import build_jobs

    for job in build_jobs(workload, seed, ROOT / "scenarios"):
        parse_scenario(job.text)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


if __name__ == "__main__":
    main()
