"""tools/kernels.py: the numeric tests and outputs under each BLAS kernel,
driven here by a stub runner."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# One file of each kind; under the listed kernels one value moves.
CSV = "t,y\n0,{y0}\n0.001,{y1}\n"
REPORT = {"results": {"final_value": 2.0, "verdict": "poles_stable"}, "tool": {"runtime_s": 0.0}}


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # the tool imports its neighbours
    spec = importlib.util.spec_from_file_location("kernels", TOOLS / "kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "build_jobs", lambda repo: [("job", "text")])
    return module


def stub(kernel, repo, jobs_file, out):
    """Writes what a run of the one job would, with a value that moves by
    1e-12 of its column's largest under Nehalem, and fails one test there."""
    assert json.loads(jobs_file.read_text(encoding="utf-8")) == [["job", "text"]]
    out.mkdir(parents=True)
    moved = kernel == "Nehalem"
    (out / "job.csv").write_text(CSV.format(y0=-4.0, y1=0.5 + (4e-12 if moved else 0.0)), encoding="utf-8")
    report = json.loads(json.dumps(REPORT))
    report["tool"]["runtime_s"] = len(kernel)  # differs on every run
    if kernel == "Haswell":
        report["results"]["verdict"] = "poles_unstable"
    (out / "job.json").write_text(json.dumps(report), encoding="utf-8")
    (out / "job.exit").write_text("0\n", encoding="utf-8")
    failures = ["tests/test_lti.py::test_propagate_is_the_plain_recurrence[3-1001]"] if moved else []
    return ("SkylakeX" if kernel == "default" else kernel), failures


def test_a_survey_reports_each_kernels_failures_and_largest_differences(tool, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(tool, "run_kernel", stub)
    out = tmp_path / "kernels.json"
    assert tool.main(["--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert tool.CORETYPES == ("Haswell", "SkylakeX", "Nehalem", "Sandybridge")
    assert lines[0].split() == ["default", "ran", "SkylakeX", "0", "test", "failures"]
    assert lines[1].startswith("Haswell      ran Haswell      0 test failures; 1 of 3 files differ")
    assert lines[2].split() == ["inf", "job.json"]  # a verdict is not a number
    assert lines[3].endswith("0 test failures; 0 of 3 files differ from the default, largest 0")
    assert lines[4].startswith("Nehalem      ran Nehalem      1 test failures; 1 of 3 files differ")
    assert lines[5].split() == ["failed", "tests/test_lti.py::test_propagate_is_the_plain_recurrence[3-1001]"]
    assert lines[6].split() == ["1e-12", "job.csv"]
    assert lines[7].startswith("Sandybridge  ran Sandybridge") and len(lines) == 8
    survey = json.loads(out.read_text(encoding="utf-8"))
    assert survey["Nehalem"]["files"] == {"job.csv": pytest.approx(1e-12), "job.exit": 0.0, "job.json": 0.0}
    assert survey["Haswell"]["files"]["job.json"] == math.inf


def test_a_survey_without_failures_exits_0(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "run_kernel", lambda kernel, repo, jobs_file, out: stub("default", repo, jobs_file, out))
    assert tool.main([]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("0 of 3 files differ from the default, largest 0")


@pytest.mark.parametrize("default, other, expected", [
    ("1.0,2.0", "1.0,2.0", 0.0),
    ("4.0,nan", "4.0,nan", 0.0),  # NaN where the default has NaN
    ("4.0,1.0", "3.0,1.0", 0.25),
    ("0.0,1.0", "1e-300,1.0", math.inf),  # a column of zeros
    ("inf,1.0", "1.0,1.0", math.inf),
], ids=["equal", "nan", "moved", "zero_column", "non_finite"])
def test_a_csv_difference_is_relative_to_its_columns_largest(tool, tmp_path, default, other, expected):
    paths = []
    for name, row in (("default", default), ("other", other)):
        path = tmp_path / name / "x.csv"
        path.parent.mkdir()
        path.write_text(f"a,b\n{row}\n0.0,0.5\n", encoding="utf-8")
        paths.append(path)
    assert tool.largest_difference(*paths) == expected
