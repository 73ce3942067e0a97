"""tools/outputs.py: the output files of a commit against the working tree."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# A stand-in package: each job writes <prefix>.csv and a <prefix>.json
# report whose runtime differs on every run.  VALUE is what the commits change.
CLI = """\
import json, time
from pathlib import Path

VALUE = {value!r}


class Bundle:
    exit_code = 0


def run(scenario, out_prefix):
    prefix = Path(out_prefix)
    csv = VALUE if scenario == "demo" else "same"
    prefix.with_suffix(".csv").write_text(csv + "\\n")
    report = {{"results": {{"scenario": scenario}}, "tool": {{"runtime_s": time.perf_counter()}}}}
    prefix.with_suffix(".json").write_text(json.dumps(report))
    if scenario == "seed 2" and VALUE == "changed":
        raise ValueError("seed 2 fails")
    return Bundle()
"""

WORKLOADS = """\
from collections import namedtuple

Job = namedtuple("Job", "name text")
WORKLOADS = ("only",)


def build_jobs(workload, seed, scenario_dir):
    return [Job("job", f"seed {seed}")]
"""


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # the tool imports its neighbour pairs.py
    spec = importlib.util.spec_from_file_location("outputs", TOOLS / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


def commit(repo, value):
    (repo / "src" / "rollsim" / "cli.py").write_text(CLI.format(value=value), encoding="utf-8")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", value)


def test_outputs_list_each_differing_file_of_two_commits(tool, tmp_path, capsys):
    repo = tmp_path / "repo"
    for directory in ("src/rollsim", "perfbench", "scenarios"):
        (repo / directory).mkdir(parents=True)
    (repo / "src" / "rollsim" / "__init__.py").write_text("", encoding="utf-8")
    (repo / "src" / "rollsim" / "scenario.py").write_text("def parse_scenario(text):\n    return text\n")
    (repo / "perfbench" / "workloads.py").write_text(WORKLOADS, encoding="utf-8")
    (repo / "scenarios" / "demo.yaml").write_text("demo", encoding="utf-8")
    git(repo, "init", "-q")
    commit(repo, "original")
    commit(repo, "changed")

    # Seeds 1-3 of the workload and the shipped scenario, each a CSV, a
    # report and its .exit; the reports differ only in their runtimes.
    assert tool.main(["HEAD", "--repo", str(repo)]) == 0
    assert capsys.readouterr().out == "12 files compared, 0 differences\n"

    assert tool.main(["HEAD~1", "--repo", str(repo)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: only_seed2/job.exit",
        "differs: scenarios/demo.csv",
        "12 files compared, 2 differences",
    ]


def test_json_reports_compare_without_their_runtime(tool, tmp_path):
    def write(name, text):
        (tmp_path / name).write_text(text, encoding="utf-8")
        return tmp_path / name

    same = tool.same
    a = write("a.json", '{"results": {"x": 1.5}, "tool": {"name": "rollsim", "runtime_s": 0.1}}')
    b = write("b.json", '{"results": {"x": 1.5}, "tool": {"name": "rollsim", "runtime_s": 7.25e-05}}')
    c = write("c.json", '{"results": {"x": 1.25}, "tool": {"name": "rollsim", "runtime_s": 0.1}}')
    assert same(a, b) and not same(a, c)
    assert not same(write("d.csv", "1\n"), write("e.csv", "1.0\n"))


def test_json_reports_compare_their_bytes(tool, tmp_path):
    def write(name, text):
        (tmp_path / name).write_text(text, encoding="utf-8")
        return tmp_path / name

    a = write("a.json", '{"results": {"x": 1.5}, "tool": {"name": "rollsim", "runtime_s": 0.1}}\n')
    layouts = [
        '{"tool": {"runtime_s": 0.7, "name": "rollsim"}, "results": {"x": 1.5}}\n',  # key order
        '{"results": {"x": 1.5},\n "tool": {"name": "rollsim", "runtime_s": 0.1}}\n',  # whitespace
        '{"results": {"x": 1.5}, "tool": {"name": "rollsim", "runtime_s": 0.1}}',  # no newline
    ]
    for i, text in enumerate(layouts):
        assert tool.difference(a, write(f"{i}.json", text)) == "(the layout; the content agrees)", text
    changed = write("c.json", '{"results": {"x": 1.5}, "tool": {"name": "rollsim", "runtime_s": 0.1, "v": 2}}\n')
    assert tool.difference(a, changed) == "tool.v"


def test_a_differing_report_names_its_first_differing_key(tool, tmp_path):
    def write(name, report):
        (tmp_path / name).write_text(json.dumps(report), encoding="utf-8")
        return tmp_path / name

    loop = {"detector": None, "seed": 0}
    parent = write("a.json", {"results": {"x": [1.0, 2.0]}, "scenario": {"tune": {"loop": loop}},
                              "tool": {"runtime_s": 0.1}})
    echo = write("b.json", {"results": {"x": [1.0, 2.0]}, "scenario": {"tune": {"loop": {"seed": 0}}},
                            "tool": {"runtime_s": 0.2}})
    result = write("c.json", {"results": {"x": [1.0, 2.5]}, "scenario": {"tune": {"loop": {"seed": 1}}}})
    assert tool.difference(parent, echo) == "scenario.tune.loop.detector"
    assert tool.difference(parent, result) == "results.x[1]"  # the first in sorted key order
    assert tool.difference(parent, parent) is None
    assert tool.difference(write("d.csv", "1\n"), write("e.csv", "2\n")) == ""
