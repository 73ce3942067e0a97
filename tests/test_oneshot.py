"""tools/oneshot.py: one process per scenario run, parent and change alternating."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# A stand-in package: ``python -m rollsim`` logs which tree ran it and its
# arguments, and writes the report its --out names.
MAIN = """\
import json, os, sys
from pathlib import Path
with open(os.environ["ONESHOT_LOG"], "a") as log:
    log.write(json.dumps([{side!r}, sys.argv[1:]]) + "\\n")
Path(sys.argv[-1]).parent.mkdir(parents=True, exist_ok=True)
Path(sys.argv[-1] + ".json").write_text("null")
"""


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # the tool imports its neighbour pairs.py
    spec = importlib.util.spec_from_file_location("oneshot", TOOLS / "oneshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   check=True, capture_output=True)


def test_one_round_runs_one_scenario_once_on_each_side(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    (repo / "src" / "rollsim").mkdir(parents=True)
    (repo / "scenarios").mkdir()
    main = repo / "src" / "rollsim" / "__main__.py"
    main.write_text(MAIN.format(side="parent"), encoding="utf-8")
    (repo / "scenarios" / "mill.yaml").write_text("# a comment\nkind: size\n", encoding="utf-8")
    (repo / "scenarios" / "other.yaml").write_text("kind: poles\n", encoding="utf-8")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    main.write_text(MAIN.format(side="change"), encoding="utf-8")  # uncommitted
    log = tmp_path / "runs.log"
    monkeypatch.setenv("ONESHOT_LOG", str(log))

    assert load_tool(monkeypatch).main(["HEAD", "--repo", str(repo), "--rounds", "1", "--scenario", "mill"]) == 0

    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [side for side, _ in runs] == ["parent", "change"]
    for _, argv in runs:
        assert argv[:3] == ["size", "--scenario", str(repo / "scenarios" / "mill.yaml")]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 and printed[0].split()[:2] == ["mill", "parent"]
    assert printed[0].split()[-2:] in (["wins", "0/1"], ["wins", "1/1"])
