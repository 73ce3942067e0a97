"""Benchmark entry point for rollsim.

Usage, from the repository root:

    python3 perfbench/run.py --workload tune --seed 1 --seconds 35 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics and ``--trace 1``
the per-layer ones.  Exits 2 without a result when the checkout holds no
``src/rollsim``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from workloads import DEFAULT_SEED, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0, help="timed measurement length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']!s:>24} {metric['unit']}")
    print(
        f"# {info['timed_passes']} timed passes; median host seconds per pass "
        f"{info['host_s']:.6g} before host-speed normalisation; steps_per_s counts "
        f"{info['samples_per_pass']} plant samples per pass; "
        f"failed_frac {info['failed_frac']:g} ({result['failed']}/{result['attempted']} jobs)"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
