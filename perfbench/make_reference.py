"""Regenerate the reference results the default seed is checked against.

Usage, from the repository root:

    python3 perfbench/make_reference.py

Runs every workload once with the default seed and writes the ``results``
block of each job's report to ``perfbench/reference/<workload>.json``.
Only do this when a change to rollsim is meant to change its results.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import checks
import harness
from workloads import DEFAULT_SEED, WORKLOADS, build_jobs


def main() -> None:
    rollsim = harness.import_rollsim()
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        reference = {}
        with tempfile.TemporaryDirectory() as tmp:
            for job in build_jobs(workload, DEFAULT_SEED, harness.SCENARIOS):
                scenario = rollsim.scenario.parse_scenario(job.text)
                bundle = rollsim.cli.run(scenario, out_prefix=str(Path(tmp) / job.name), jobs=1)
                problems, _ = checks.check_job(
                    bundle, rollsim.cli.REPORT_SCHEMA, rollsim.cli.RESULT_REQUIRED
                )
                if problems:
                    raise SystemExit(f"{workload}/{job.name}: {problems}")
                report = json.loads(Path(bundle.json_path).read_text(encoding="utf-8"))
                reference[job.name] = report["results"]
        path = harness.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
