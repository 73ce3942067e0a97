"""List the lines of ``rollsim`` that no benchmark or shipped-scenario job reaches.

Usage, from the repository root:

    python3 tools/traffic.py
    python3 tools/traffic.py --require
    python3 tools/traffic.py --require loops._NonlinearLoop._step lti.PropagationPlan.scan

The jobs are those ``tools/outputs.py`` runs: every job of every benchmark
workload (``perfbench/workloads.py``) for seeds 1-3, and every shipped
``scenarios/*.yaml``.  Each is parsed and run through ``rollsim.cli.run``
in this process, under the standard library's ``trace`` counting lines,
with its outputs written into a temporary directory.  ``rollsim`` is
first imported under the trace too, so a function that runs at import
counts as reached.  Code outside the Python installation's directories
is traced.

For each function of each module in ``src/rollsim`` with a line that no
job reached, the tool then prints the module and the function's first
line, its qualified name and those lines, as runs of consecutive
executable lines (a comment between two lines does not split a run), and
marks a function that no job entered.  A comprehension, generator
expression or lambda counts as part of the function that holds it.
Module and class bodies run at import and are not listed.  A last line
counts the executable lines reached, and any job that raised is named.
It takes a few seconds.  Only the standard library is used.

``--require FUNC ...`` names functions by their module in ``src/rollsim``
and qualified name, ``loops._NonlinearLoop._step``; without names it
requires ``ROUTES``, the functions of the loop routes in ``loops.py`` and
``lti.py``.  The tool then exits 1 when a required function was never
entered, naming it, and 2 when a name is not a function of the package.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import tempfile
import trace
from pathlib import Path
from typing import Callable, Sequence

from outputs import build_jobs
from pairs import ROOT

# The functions of each loop route: the closed form of linear loops, the
# verified blocks and the stepped samples of nonlinear ones, and the plan
# behind both.
ROUTES = (
    "loops.simulate_loop",
    "loops.LoopFrame.batches",
    "loops.LoopFrame._scan",
    "loops.LoopFrame.linear_rows",
    "loops._loop_maps",
    "loops._NonlinearLoop.run",
    "loops._NonlinearLoop._block",
    "loops._NonlinearLoop._step",
    "lti.zoh_step_matrices",
    "lti.simulate_lti",
    "lti.PropagationPlan.__init__",
    "lti.PropagationPlan.scan",
    "lti.PropagationPlan._rows",
    "lti.PropagationPlan.apply",
)


def executable_lines(path: Path) -> dict[tuple[int, str], set[int]]:
    """The executable lines of each function of the module at ``path``,
    keyed by its (first line, qualified name).  A function's first line
    (its ``def`` or first decorator) is left out: no line event reports it."""
    functions: dict[tuple[int, str], set[int]] = {}

    def walk(code, owner: set[int] | None) -> None:
        lines = {line for *_, line in code.co_lines() if line is not None}
        if not code.co_flags & inspect.CO_OPTIMIZED:
            owner = None  # a module or class body
        elif not code.co_name.startswith("<"):
            owner = functions[code.co_firstlineno, getattr(code, "co_qualname", code.co_name)] = set()
            lines.discard(code.co_firstlineno)
        if owner is not None:
            owner |= lines
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const, owner)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), None)
    return functions


def ranges(executable: set[int], missing: Sequence[int]) -> str:
    """The sorted ``missing`` lines as runs of consecutive lines of
    ``executable``: ``"463-468, 536"``."""
    index = {line: i for i, line in enumerate(sorted(executable))}
    runs: list[list[int]] = []
    for line in missing:
        if runs and index[line] == index[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace_lines(run: Callable[[], object]) -> set[tuple[str, int]]:
    """The (resolved file name, line) pairs that ``run()`` reaches, outside
    the Python installation's directories."""
    tracer = trace.Trace(count=1, trace=0, ignoredirs=sorted({sys.prefix, sys.exec_prefix, sys.base_prefix}))
    tracer.runfunc(run)
    return {(str(Path(name).resolve()), line) for name, line in tracer.results().counts}


def report(paths: Sequence[Path], reached: set[tuple[str, int]], root: Path) -> list[str]:
    """A line for each function of the modules at ``paths`` that has an
    executable line outside ``reached``, then the count of lines reached."""
    out, total, missed = [], 0, 0
    for path in paths:
        name = str(path.resolve())
        hits = {line for file, line in reached if file == name}
        for (first, function), executable in sorted(executable_lines(path).items()):
            missing = sorted(executable - hits)
            total, missed = total + len(executable), missed + len(missing)
            if missing:
                never = "" if executable & hits else " (never entered)"
                out.append(f"{path.resolve().relative_to(root.resolve())}:{first} {function}: "
                           f"{ranges(executable, missing)}{never}")
    out.append(f"{total - missed} of {total} executable lines reached")
    return out


def never_entered(required: Sequence[str], paths: Sequence[Path], reached: set[tuple[str, int]]) -> list[str]:
    """The names of ``required``, ``module.qualified_name`` for the modules
    at ``paths``, whose functions reached no line, in the order given.
    Raises ``KeyError`` naming one that is not a function of them."""
    entered = {}
    for path in paths:
        name = str(path.resolve())
        hits = {line for file, line in reached if file == name}
        for (_, function), executable in executable_lines(path).items():
            entered[f"{path.stem}.{function}"] = bool(executable & hits)
    unknown = [function for function in required if function not in entered]
    if unknown:
        raise KeyError(f"not a function of the package: {', '.join(unknown)}")
    return [function for function in required if not entered[function]]


def run_jobs(jobs: Sequence[tuple[str, str]], out: Path) -> list[str]:
    """Parse and run each (name, scenario text) of ``jobs``, writing its
    outputs under ``out``; returns a line for each job that raised."""
    import rollsim.cli
    import rollsim.scenario

    raised = []
    for name, text in jobs:
        prefix = out / name
        prefix.parent.mkdir(parents=True, exist_ok=True)
        try:
            rollsim.cli.run(rollsim.scenario.parse_scenario(text), out_prefix=str(prefix))
        except Exception as exc:
            raised.append(f"{name} raised {type(exc).__name__}: {exc}")
    return raised


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require", nargs="*", metavar="FUNC",
                        help="exit 1 if a named function (default: ROUTES) is never entered")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    jobs = build_jobs(ROOT)
    raised: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        reached = trace_lines(lambda: raised.extend(run_jobs(jobs, Path(tmp))))
    import rollsim

    paths = sorted(Path(rollsim.__file__).parent.glob("*.py"))
    print("\n".join(report(paths, reached, ROOT) + raised))
    print(f"{len(jobs)} jobs, {len(raised)} raised")
    if args.require is None:
        return 0
    try:
        missing = never_entered(args.require or ROUTES, paths, reached)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    for function in missing:
        print(f"required but never entered: {function}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
