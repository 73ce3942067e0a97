"""tools/pairs.py: alternating parent/change benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"

# A stand-in benchmark: one result line whose wall_s is the tree's value.txt;
# each run also logs its value and arguments, so the run order shows.
STUB = """\
import json, os, sys
value = float(open("value.txt").read())
with open(os.environ["PAIRS_LOG"], "a") as log:
    log.write(json.dumps([value, sys.argv[1:]]) + "\\n")
print("wall_s", value)
metrics = {"wall_s": {"value": value, "unit": "s"}, "passed_frac": {"value": 1.0, "unit": "frac"}}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


def test_pairs_alternate_and_summarise_against_a_stub_benchmark(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "bench.py").write_text(STUB, encoding="utf-8")
    (repo / "value.txt").write_text("2.0", encoding="utf-8")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench.py"],
        "workloads": [{"name": "only"}],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "passed_frac", "unit": "frac", "better": "higher", "bound": 0.01},
        ],
    }), encoding="utf-8")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    (repo / "value.txt").write_text("1.0", encoding="utf-8")  # the change, uncommitted
    log = tmp_path / "runs.log"
    monkeypatch.setenv("PAIRS_LOG", str(log))
    out = tmp_path / "summary.json"

    args = ["HEAD", "--repo", str(repo), "--pairs", "3", "--seed", "4", "--seconds", "0.5", "--out", str(out)]
    assert load_tool().main(args) == 0

    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [value for value, _ in runs] == [2.0, 1.0, 1.0, 2.0, 2.0, 1.0]  # parent first, then swapped
    assert all(argv == ["--workload", "only", "--seed", "4", "--seconds", "0.5"] for _, argv in runs)
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["pairs"] == 3 and len(summary["parent_commit"]) == 40
    result = summary["workloads"]["only"]
    assert result["correct"] and result["failed"] == {"parent": 0, "change": 0}
    wall = result["metrics"]["wall_s"]
    assert wall["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert wall["change"]["median"] == 1.0 and wall["change_vs_parent_median"] == -0.5
    assert (wall["change_wins"], wall["ties"], wall["unresolved"], wall["worse_than_bound"]) == (3, 0, False, False)
    passed = result["metrics"]["passed_frac"]
    assert (passed["change_wins"], passed["ties"], passed["worse_than_bound"]) == (0, 3, False)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split()[:2] == ["only", "wall_s"] and printed[0].endswith("-50.0%  wins 3/3")


def test_the_quartiles_are_numpys_linear_percentiles():
    quartiles = load_tool().quartiles
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert quartiles([5.0]) == {"q1": 5.0, "median": 5.0, "q3": 5.0}
