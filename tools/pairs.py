"""Run the benchmark on a commit and on the working tree in alternating pairs.

Usage, from the repository root:

    python3 tools/pairs.py cddd340 --pairs 10 --seed 1 --seconds 35 --out BENCH.json

The named commit is copied with ``git archive`` into a temporary directory.
``BENCHMARK.json``'s command, followed by ``--workload <w> --seed <s>
--seconds <t>``, then runs in that copy (the parent) and in the working
tree (the change), one run at a time, in pairs.  The first pair of each
workload runs the parent first, and each later pair swaps the order.  A run's
last output line is its result: a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> ``value``, ``unit``).

For every workload and every end-to-end metric of ``BENCHMARK.json`` the
tool prints, and writes to ``--out`` as JSON, each side's median and
quartiles (linear interpolation, as numpy's default percentiles), the
change's relative move from the parent median, how many pairs the change
won in the metric's direction, and every run's value.  A metric is
``unresolved`` when either side's interquartile range, relative to its
median, exceeds the metric's bound: the runs spread too widely to tell.
``worse_than_bound`` says whether the change median is worse than the
parent median by more than the bound.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def copy_commit(repo: Path, commit: str, dest: Path) -> str:
    """Extract ``commit``'s files into ``dest``; returns its full hash."""
    sha = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--verify", f"{commit}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "-C", str(repo), "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(command: list[str], cwd: Path) -> dict:
    """One benchmark run in ``cwd``: the JSON object of its last output line."""
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {cwd} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """The per-metric summary of one workload's pairs (``runs[side][k]`` is
    pair k's result on that side)."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        gains = [(c - p) if higher else (p - c) for p, c in zip(values["parent"], values["change"])]
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        move = (change - parent) / abs(parent) if parent else None
        worse = None if move is None else (-move if higher else move)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **stats,
            "change_vs_parent_median": move,
            "change_wins": sum(g > 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "unresolved": any(s["q3"] - s["q1"] > metric["bound"] * abs(s["median"]) for s in stats.values()),
            "worse_than_bound": worse is not None and worse > metric["bound"],
            "runs": values,
        }
    return out


def measure(
    repo: Path, commit: str, workloads: list[str] | None, pairs: int, seed: int, seconds: float, log=print,
) -> dict:
    """Run ``pairs`` alternating pairs of each workload (default: every one
    ``BENCHMARK.json`` lists); returns the JSON summary."""
    bench = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        sha = copy_commit(repo, commit, parent)
        trees = {"parent": parent, "change": repo}
        summary = {
            "command": bench["command"],
            "parent_commit": sha,
            "seed": seed,
            "seconds": seconds,
            "pairs": pairs,
            "workloads": {},
        }
        for workload in workloads:
            command = [*bench["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for k in range(pairs):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_once(command, trees[side]))
                    log(f"{workload} pair {k + 1}/{pairs} {side}: done")
            summary["workloads"][workload] = {
                "first_pair_order": ", ".join(SIDES),
                "correct": all(run["correct"] for side in SIDES for run in runs[side]),
                "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
                "metrics": summarise(runs, bench["end_to_end"]),
            }
    return summary


def report(summary: dict) -> list[str]:
    lines = []
    for workload, result in summary["workloads"].items():
        for name, m in result["metrics"].items():
            p, c = m["parent"], m["change"]
            move = "n/a" if m["change_vs_parent_median"] is None else f"{100 * m['change_vs_parent_median']:+.1f}%"
            flags = "".join(f"  {flag}" for flag in ("unresolved", "worse_than_bound") if m[flag])
            lines.append(
                f"{workload:12s} {name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  {move}"
                f"  wins {m['change_wins']}/{summary['pairs']}{flags}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commit", help="the parent commit, any name git accepts")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0, help="timed length of each run")
    parser.add_argument("--workload", action="append", help="a workload to run (repeatable); default all")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the working tree (default: this checkout)")
    parser.add_argument("--out", type=Path, default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    summary = measure(
        args.repo.resolve(), args.commit, args.workload, args.pairs, args.seed, args.seconds,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )
    print("\n".join(report(summary)))
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
