"""Run the numeric tests and the output job set under each OpenBLAS kernel.

Usage, from the repository root:

    python3 tools/kernels.py --out kernels.json

numpy's OpenBLAS picks its compute kernel when it loads, and the
``OPENBLAS_CORETYPE`` environment variable selects another for one
process.  Kernels sum a matrix product in different orders, so a result
that is byte-identical on one kernel may differ in its last digits on
another.  For the default kernel and then each of ``CORETYPES``, the tool,
in fresh interpreters:

- asks OpenBLAS which kernel runs (it ignores a name it does not know, so
  the report shows what ran, or ``unknown`` where numpy's OpenBLAS cannot
  be asked);
- runs the numeric test files ``TEST_FILES`` with pytest, ``src/`` on the
  path, and collects the ids of the tests that failed;
- runs ``tools/outputs.py``'s job set (every benchmark workload job for
  seeds 1-3 and every shipped scenario) through ``outputs.run_jobs``.

It prints, per kernel, the tests that failed and each output file that
differs from the default kernel's, with its largest relative difference:
for a CSV the largest difference in a column over that column's largest
magnitude, for a JSON report (its ``runtime_s`` left out) the largest
difference of a number over the larger of the two, and ``inf`` where the
files differ in anything but finite numbers.  ``--out`` writes the whole
survey as JSON, every file's difference included.  Exits 1 if any test
failed under any kernel, else 0.  One pytest run takes about 25 s, so the
tool stays out of the tier-1 tests.  Only the standard library and numpy
are used.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from outputs import build_jobs, run_jobs
from pairs import ROOT

DEFAULT = "default"  # OPENBLAS_CORETYPE unset
CORETYPES = ("Haswell", "SkylakeX", "Nehalem", "Sandybridge")
TEST_FILES = ("tests/test_lti.py", "tests/test_loops.py", "tests/test_faults.py", "tests/test_tuning.py")

# Prints the name of the kernel numpy's bundled OpenBLAS runs.
CORENAME = """\
import ctypes, glob, os, numpy
name = "unknown"
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.restype = ctypes.c_char_p
        name = get().decode()
print(name)
"""


def kernel_env(kernel: str, repo: Path) -> dict[str, str]:
    """This process's environment with ``kernel`` selected and ``repo``'s
    ``src/`` first on the import path."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    if kernel != DEFAULT:
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    return env


def run_kernel(kernel: str, repo: Path, jobs_file: Path, out: Path) -> tuple[str, list[str]]:
    """(the kernel OpenBLAS reports, the failed test ids) under ``kernel``;
    the outputs of the jobs in ``jobs_file`` go under ``out``."""
    env = kernel_env(kernel, repo)
    core = subprocess.run([sys.executable, "-c", CORENAME], cwd=repo, env=env, capture_output=True, text=True)
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *TEST_FILES],
        cwd=repo, env=env, capture_output=True, text=True,
    )
    failures = [line.split()[1] for line in tests.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if tests.returncode not in (0, 1) or (tests.returncode == 1 and not failures):
        failures.append(f"pytest exited {tests.returncode}: {tests.stdout.strip()[-500:]}")
    run_jobs(repo, jobs_file, out, env=env)
    return core.stdout.strip() or "unknown", failures


def _relative(default: np.ndarray, other: np.ndarray) -> float:
    """Largest |other - default| per column over the column's largest
    magnitude in ``default``; equal values (NaN too) count 0, and a
    difference in a non-finite value, or in an all-zero column, inf."""
    same = (default == other) | (np.isnan(default) & np.isnan(other))
    if np.all(same):
        return 0.0
    if not (np.all(np.isfinite(default[~same])) and np.all(np.isfinite(other[~same]))):
        return math.inf
    with np.errstate(invalid="ignore"):
        difference = np.where(same, 0.0, np.abs(other - default)).max(axis=0)
        scale = np.abs(np.where(np.isfinite(default), default, 0.0)).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(difference > 0.0, difference / scale, 0.0)))


def _leaves(value, path: str = "") -> list[tuple[str, object]]:
    """The leaves of a parsed JSON value, each with its key path."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in _leaves(value[key], f"{path}.{key}")]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in _leaves(item, f"{path}[{i}]")]
    return [(path, value)]


def largest_difference(default: Path, other: Path) -> float:
    """The largest relative difference of ``other`` from ``default`` (see
    the module docstring): 0.0 for equal files."""
    texts = [default.read_bytes(), other.read_bytes()]
    if texts[0] == texts[1]:
        return 0.0
    if default.suffix == ".csv":
        tables = [list(csv.reader(text.decode("utf-8").splitlines())) for text in texts]
        if tables[0][:1] != tables[1][:1] or len(tables[0]) != len(tables[1]):
            return math.inf
        try:
            return _relative(*(np.array(table[1:], dtype=float) for table in tables))
        except ValueError:  # a cell that is not a number
            return math.inf
    if default.suffix == ".json":
        reports = [json.loads(text) for text in texts]
        for report in reports:
            if isinstance(report.get("tool"), dict):
                report["tool"].pop("runtime_s", None)
        leaves = [_leaves(report) for report in reports]
        if [path for path, _ in leaves[0]] != [path for path, _ in leaves[1]]:
            return math.inf
        worst = 0.0
        for (_, a), (_, b) in zip(*leaves):
            if a == b:
                continue
            numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
            if not (numbers and math.isfinite(a) and math.isfinite(b)):
                return math.inf
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        return worst
    return math.inf


def survey(repo: Path, kernels, run, log=print) -> dict:
    """Run ``run(kernel, repo, jobs_file, out)`` for the default kernel
    and each of ``kernels``; returns, per kernel, the core that ran, the
    failed tests and each output file's largest relative difference from
    the default kernel's (inf for a file only one side wrote)."""
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        jobs_file = tmp / "jobs.json"
        jobs_file.write_text(json.dumps(build_jobs(repo)), encoding="utf-8")
        for kernel in (DEFAULT, *kernels):
            log(f"running under {kernel}")
            core, failures = run(kernel, repo, jobs_file, tmp / kernel)
            report[kernel] = {"core": core, "failures": failures, "files": {}}
        base = tmp / DEFAULT
        for kernel in kernels:
            out = tmp / kernel
            paths = {p.relative_to(base) for p in base.rglob("*") if p.is_file()}
            paths |= {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
            report[kernel]["files"] = {
                str(path): largest_difference(base / path, out / path)
                if (base / path).is_file() and (out / path).is_file() else math.inf
                for path in sorted(paths)
            }
    return report


def report_lines(report: dict) -> list[str]:
    lines = []
    for kernel, found in report.items():
        differing = {path: value for path, value in found["files"].items() if value}
        line = f"{kernel:12s} ran {found['core']:12s} {len(found['failures'])} test failures"
        if kernel != DEFAULT:
            largest = max(found["files"].values(), default=0.0)
            line += f"; {len(differing)} of {len(found['files'])} files differ from the default, largest {largest:.3g}"
        lines.append(line)
        lines += [f"  failed  {test}" for test in found["failures"]]
        lines += [f"  {value:9.3g}  {path}" for path, value in differing.items()]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None, help="write the survey here as JSON")
    args = parser.parse_args(argv)
    report = survey(ROOT, CORETYPES, run_kernel, log=lambda line: print(line, file=sys.stderr, flush=True))
    print("\n".join(report_lines(report)))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 1 if any(found["failures"] for found in report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
