"""tools/passes.py: in-process passes of a benchmark workload."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "passes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("passes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_tune_passes_print_their_times_and_page_faults(capsys):
    assert load_tool().main(["tune", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [["pass", "1"], ["pass", "2"]]
    assert all(line.endswith("minor faults") for line in lines[:2])
    assert lines[2].startswith("median") and lines[2].endswith("minor faults per pass over 2 passes")
    for line in lines:
        seconds = float(line.split()[2 if line.startswith("pass") else 1])
        assert 0.0 < seconds < 60.0


def test_each_jobs_median_follows_the_pass_median(capsys):
    assert load_tool().main(["tune", "--passes", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith("median")
    jobs = lines[4:]
    assert [line.split()[-1] for line in jobs] == ["tune_grid_thickness", "tune_nm_speed"]
    seconds = [float(line.split()[1]) for line in jobs]
    assert all(line.startswith("job") and " s  median of " in line for line in jobs)
    assert 0.0 < sum(seconds) <= float(lines[3].split()[1]) * 1.5


# The phases a workload never enters, and so does not print: a tune and the
# multibody jobs run only linear loops, which verify no block, draw no noise
# and read no sensor, and only a tune runs tuner evaluations.
SENSOR_PATH = {"loops._NonlinearLoop._block", "faults.sensor_terms", "faults.counter_gauss", "faults.apply_sensor"}
NOT_ENTERED = {
    "fault_sweep": {"tuning.loop_cost", "loops.LoopFrame._scan"},
    "tune": SENSOR_PATH,
    "multibody": SENSOR_PATH | {"tuning.loop_cost"},
}


def test_every_phase_is_reported_and_none_exceeds_its_pass(capsys):
    tool = load_tool()
    for workload, skipped in NOT_ENTERED.items():
        assert tool.main([workload, "--passes", "2", "--phases"]) == 0
        lines = capsys.readouterr().out.splitlines()
        phases = [line.split() for line in lines if line.startswith("phase")]
        assert [words[-1] for words in phases] == [name for name in tool.PHASES if name not in skipped]
        assert all(words[2:6] == ["ms", "median", "per", "pass"] for words in phases)
        median = float(next(line for line in lines if line.startswith("median")).split()[1])
        assert all(0.0 < float(words[1]) <= median * 1e3 for words in phases), workload
    # The wrappers are gone afterwards.
    import rollsim.faults
    import rollsim.loops
    import rollsim.tuning
    assert rollsim.loops.apply_sensor is rollsim.faults.apply_sensor
    assert not hasattr(rollsim.faults.apply_sensor, "__wrapped__")
    assert not hasattr(rollsim.tuning.loop_cost, "__wrapped__")
