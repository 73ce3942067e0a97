"""Compare the output files of a commit and of the working tree.

Usage, from the repository root:

    python3 tools/outputs.py 3eaf5cd

Every job of every benchmark workload (``perfbench/workloads.py``) for
seeds 1-3, and every shipped ``scenarios/*.yaml``, runs through
``rollsim.cli.run`` twice: in a ``git archive`` copy of the named commit
(the parent) and in the working tree (the change), each side in a fresh
interpreter importing its own ``src/``.  The scenario texts are built
once, from the working tree, so both sides read the same inputs.  A job's
exit code, or the exception it raised, is written beside its outputs as
``<job>.exit``.

Every file written is then compared byte for byte, JSON reports with the
number of their ``"runtime_s"`` key masked.  The tool prints each file
that differs, with the key path of a report's first difference in content
(or a note that only its layout differs), or that only one side wrote,
and exits 1 if there is any, else 0.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import ROOT, SIDES, copy_commit

SEEDS = (1, 2, 3)

# The number a report's run time is written as, which differs on every run.
RUNTIME = re.compile(rb'("runtime_s": *)-?[0-9][0-9.eE+-]*')

# Runs in each tree: argv[1] is the JSON list of (name, scenario text),
# argv[2] the directory the outputs go to.
DRIVER = """\
import json, sys
from pathlib import Path
sys.path.insert(0, str(Path.cwd() / "src"))
import rollsim.cli, rollsim.scenario
out = Path(sys.argv[2])
for name, text in json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")):
    prefix = out / name
    prefix.parent.mkdir(parents=True, exist_ok=True)
    try:
        scenario = rollsim.scenario.parse_scenario(text)
        status = str(rollsim.cli.run(scenario, out_prefix=str(prefix), jobs=1).exit_code)
    except Exception as exc:
        status = f"{type(exc).__name__}: {exc}"
    (out / f"{name}.exit").write_text(status + "\\n", encoding="utf-8")
"""


def build_jobs(repo: Path) -> list[tuple[str, str]]:
    """(output name, scenario text) of every workload job for each seed and
    of every shipped scenario, from ``repo``'s ``perfbench`` and ``scenarios``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", repo / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    jobs = [
        (f"{workload}_seed{seed}/{job.name}", job.text)
        for workload in workloads.WORKLOADS
        for seed in SEEDS
        for job in workloads.build_jobs(workload, seed, repo / "scenarios")
    ]
    jobs += [(f"scenarios/{path.stem}", path.read_text(encoding="utf-8"))
             for path in sorted((repo / "scenarios").glob("*.yaml"))]
    return jobs


def run_jobs(tree: Path, jobs_file: Path, out: Path, env: dict[str, str] | None = None) -> None:
    """Run the jobs of ``jobs_file`` in ``tree``'s ``src/``, writing their
    outputs under ``out``, in a fresh interpreter with the environment
    ``env`` (this process's when None)."""
    done = subprocess.run([sys.executable, "-c", DRIVER, str(jobs_file), str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the jobs in {tree} exited {done.returncode}: {done.stderr.strip()[-2000:]}")


def first_difference(parent, change, path: str = "") -> str | None:
    """The key path (``scenario.tune.loop``, ``results.poles[0].re``) of
    the first place, in sorted key order, where two parsed JSON values
    differ; ``path`` itself for values of another kind or length, None
    when they agree."""
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in sorted(parent.keys() | change.keys()):
            where = f"{path}.{key}" if path else key
            if key not in parent or key not in change:
                return where
            found = first_difference(parent[key], change[key], where)
            if found is not None:
                return found
        return None
    if isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        for i, (a, b) in enumerate(zip(parent, change)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    return None if json.dumps(parent) == json.dumps(change) else path


def difference(parent: Path, change: Path) -> str | None:
    """Where two output files disagree, compared byte for byte, a JSON
    report with its ``runtime_s`` number masked: None when they agree, ""
    for any other file, and for reports the key path of the first
    difference in content, without ``tool.runtime_s``, or a note that
    the same content is written in another layout."""
    texts = [path.read_bytes() for path in (parent, change)]
    if parent.suffix != ".json":
        return None if texts[0] == texts[1] else ""
    if RUNTIME.sub(rb"\1?", texts[0]) == RUNTIME.sub(rb"\1?", texts[1]):
        return None
    reports = []
    for text in texts:
        report = json.loads(text)
        if isinstance(report.get("tool"), dict):
            report["tool"].pop("runtime_s", None)
        reports.append(report)
    found = first_difference(*reports)
    return "(the whole report)" if found == "" else found or "(the layout; the content agrees)"


def same(parent: Path, change: Path) -> bool:
    """Whether two output files agree (see :func:`difference`)."""
    return difference(parent, change) is None


def compare(repo: Path, commit: str, log=print) -> tuple[int, list[str]]:
    """Run the jobs on both sides; returns how many files were compared
    and a line for each that differs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        sha = copy_commit(repo, commit, tmp / "parent")
        trees = {"parent": tmp / "parent", "change": repo}
        jobs_file = tmp / "jobs.json"
        jobs_file.write_text(json.dumps(build_jobs(repo)), encoding="utf-8")
        files = {}
        for side in SIDES:
            out = tmp / "out" / side
            run_jobs(trees[side], jobs_file, out)
            files[side] = {path.relative_to(out) for path in out.rglob("*") if path.is_file()}
            log(f"{side} {sha[:12] if side == 'parent' else repo}: {len(files[side])} files")
        parent, change = files["parent"], files["change"]
        shared = sorted(parent & change)
        differences = [f"only in parent: {path}" for path in sorted(parent - change)]
        differences += [f"only in change: {path}" for path in sorted(change - parent)]
        for path in shared:
            where = difference(tmp / "out" / "parent" / path, tmp / "out" / "change" / path)
            if where is not None:
                differences.append(f"differs: {path}" + (f" at {where}" if where else ""))
    return len(shared), differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commit", help="the parent commit, any name git accepts")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the working tree (default: this checkout)")
    args = parser.parse_args(argv)
    compared, differences = compare(args.repo.resolve(), args.commit,
                                    log=lambda line: print(line, file=sys.stderr, flush=True))
    print("\n".join(differences + [f"{compared} files compared, {len(differences)} differences"]))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
