"""tools/traffic.py: the executable lines that a run leaves unreached, on a toy module."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

TOY = '''\
"""A toy module."""

SQUARES = [i * i for i in range(3)]


class Counter:
    start = 0

    def count(self, items, limit):
        total = self.start
        for item in items:
            if item > limit:
                total += 1
            else:
                total -= 1
        return total

    @property
    def doubled(self):
        return [2 * i for i in range(3)]


def never(x):
    y = x + 1
    # a comment between two executable lines
    return y
'''


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # the tool imports its neighbours
    spec = importlib.util.spec_from_file_location("traffic", TOOLS / "traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # module and class bodies are not listed, so run them untraced
    return path, module


def test_functions_hold_their_lines_and_their_comprehensions(tool, toy):
    path, _ = toy
    # Module and class bodies are left out, and each def or decorator line.
    assert tool.executable_lines(path) == {
        (9, "Counter.count"): {10, 11, 12, 13, 15, 16},
        (18, "Counter.doubled"): {20},
        (23, "never"): {24, 26},
    }


def test_the_report_lists_each_unreached_run_and_each_function_never_entered(tool, toy, tmp_path):
    path, module = toy
    reached = tool.trace_lines(lambda: module.Counter().count([5, 6], 3))
    assert tool.report([path], reached, tmp_path) == [
        "toy.py:9 Counter.count: 15",
        "toy.py:18 Counter.doubled: 20 (never entered)",
        "toy.py:23 never: 24-26 (never entered)",
        "5 of 9 executable lines reached",
    ]


def test_runs_follow_executable_lines(tool):
    assert tool.ranges({3, 5, 8, 9, 12}, [3, 5, 9, 12]) == "3-5, 9-12"
    assert tool.ranges({3, 5, 8}, [8]) == "8"
