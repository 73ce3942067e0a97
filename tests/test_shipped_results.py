"""Refactor gate: every shipped scenario still reports the results pinned
in ``tests/data/shipped_results.json``.

Floats agree to ``rel_tol=1e-9, abs_tol=1e-12``, the allowance for a
changed floating-point order; every other value must be equal.  The file
holds the ``results`` section of each scenario's JSON report.  Regenerate
it only for a deliberate change of results, from the commit that is to
define them::

    PYTHONPATH=src python tests/test_shipped_results.py
"""

import json
import math
import tempfile
from pathlib import Path

import pytest

import rollsim.cli as cli
from rollsim.scenario import parse_scenario_file

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))
PINNED = Path(__file__).resolve().parent / "data" / "shipped_results.json"


def _results(path: Path, out_dir: Path) -> dict:
    bundle = cli.run(parse_scenario_file(str(path)), out_prefix=str(out_dir / path.stem))
    return json.loads(bundle.json_path.read_text(encoding="utf-8"))["results"]


def _mismatches(got, want, where: str = "results") -> list[str]:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_shipped_scenario_results_match_the_pinned_results(tmp_path, path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert not _mismatches(_results(path, tmp_path), pinned[path.stem])


def test_every_shipped_scenario_is_pinned():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted(pinned) == [p.stem for p in SCENARIOS]


def test_the_comparison_allows_only_rounding():
    want = {"a": 1.0, "b": [0.0, "x", None, 3]}
    assert not _mismatches({"a": 1.0 + 1e-12, "b": [1e-13, "x", None, 3]}, want)
    assert _mismatches({"a": 1.0 + 1e-8, "b": [0.0, "x", None, 3]}, want)
    assert _mismatches({"a": 1.0, "b": [0.0, "y", None, 3]}, want)
    assert _mismatches({"a": 1.0, "b": [0.0, "x", None, 3.0]}, want)
    assert _mismatches({"a": 1.0, "b": [0.0, "x", None]}, want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {p.stem: _results(p, Path(tmp)) for p in SCENARIOS}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
