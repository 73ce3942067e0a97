"""Time each shipped scenario as its own ``python -m rollsim`` process, on a
commit and on the working tree.

Usage, from the repository root:

    python3 tools/oneshot.py fbe15b6 --rounds 10

The named commit is copied with ``git archive`` into a temporary directory.
Each round runs every ``scenarios/*.yaml`` of the working tree once on each
side: ``python -m rollsim <kind> --scenario <file> --out <tmp>`` in a fresh
interpreter that imports the side's ``src/``, the copy (the parent) and the
working tree (the change) one after the other.  The parent runs first in the
first round, and each later round swaps the order.  Both sides read the
working tree's scenario files, and a run that exits other than 0 stops the
tool.  A run's time is its process's wall time, start-up included, as a user
running one scenario sees it.

For each scenario the tool prints each side's median and quartiles (as
``tools/pairs.py``), the change's relative move from the parent median, and
in how many rounds the change ran faster.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pairs import ROOT, SIDES, copy_commit, quartiles

_KIND = re.compile(r"^kind:\s*(\w+)", re.MULTILINE)


def run_once(tree: Path, kind: str, scenario: Path, out: Path) -> float:
    """Seconds one ``python -m rollsim`` process over ``scenario`` takes in ``tree``."""
    command = [sys.executable, "-m", "rollsim", kind, "--scenario", str(scenario), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return seconds


def measure(repo: Path, commit: str, names: list[str] | None, rounds: int, log=print) -> dict:
    """``rounds`` alternating rounds over the scenarios ``names`` (default:
    every one); returns scenario -> side -> the seconds of each round."""
    if names:
        scenarios = [repo / "scenarios" / f"{name}.yaml" for name in names]
    else:
        scenarios = sorted((repo / "scenarios").glob("*.yaml"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        copy_commit(repo, commit, tmp / "parent")
        trees = {"parent": tmp / "parent", "change": repo}
        times = {path.stem: {side: [] for side in SIDES} for path in scenarios}
        for k in range(rounds):
            for path in scenarios:
                kind = _KIND.search(path.read_text(encoding="utf-8")).group(1)
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    out = tmp / "out" / side / path.stem
                    times[path.stem][side].append(run_once(trees[side], kind, path, out))
            log(f"round {k + 1}/{rounds}: done")
    return times


def report(times: dict) -> list[str]:
    lines = []
    for name, runs in times.items():
        p, c = quartiles(runs["parent"]), quartiles(runs["change"])
        wins = sum(change < parent for parent, change in zip(runs["parent"], runs["change"]))
        lines.append(
            f"{name:16s} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
            f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
            f"  {100 * (c['median'] - p['median']) / p['median']:+.1f}%  wins {wins}/{len(runs['change'])}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commit", help="the parent commit, any name git accepts")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--scenario", action="append", help="a scenario's file stem (repeatable); default all")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the working tree (default: this checkout)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    times = measure(args.repo.resolve(), args.commit, args.scenario, args.rounds,
                    log=lambda line: print(line, file=sys.stderr, flush=True))
    print("\n".join(report(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
