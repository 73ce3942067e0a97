"""Gain search: cost indices, grid and Nelder-Mead behavior, determinism."""

import itertools
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rollsim.loops as loops
import rollsim.tuning as tuning
from rollsim.loops import LoopFrame, LoopSpec, SetpointProfile, simulate_loop
from rollsim.lti import SimConfig, tf_new
from rollsim.pid import PidGains
from rollsim.plants import RollDriveParams, roll_drive_tf
from rollsim.tuning import (
    CostKind,
    DIVERGENCE_PENALTY,
    TuneMethod,
    TuneResult,
    TuneSpec,
    _grid_axis,
    loop_cost,
    tune_pid,
)


def speed_spec(kp=1.0, t_end=5.0, n=0.0) -> LoopSpec:
    return LoopSpec(
        plant=roll_drive_tf(RollDriveParams()),
        gains=PidGains(kp=kp, derivative_filter_n=n),
        setpoint=SetpointProfile.step(1.0),
        sim=SimConfig(dt=2e-3, t_end=t_end),
    )


# ---------------------------------------------------------------------------
# Cost
# ---------------------------------------------------------------------------

def test_zero_setpoint_zero_cost():
    spec = LoopSpec(
        plant=roll_drive_tf(RollDriveParams()),
        gains=PidGains(kp=1.0),
        setpoint=SetpointProfile.step(0.0),
        sim=SimConfig(dt=1e-3, t_end=2.0),
    )
    for kind in CostKind:
        assert loop_cost(spec, kind) == 0.0


def test_larger_kp_smaller_itae_on_first_order_loop():
    # No overshoot in a first-order loop, so more gain strictly helps.
    assert loop_cost(speed_spec(8.0), CostKind.ITAE) < loop_cost(speed_spec(1.0), CostKind.ITAE)


def test_divergence_penalty():
    spec = LoopSpec(
        plant=tf_new([1.0], [1.0, -60.0]),
        gains=PidGains(kp=1.0),
        setpoint=SetpointProfile.step(1.0),
        sim=SimConfig(dt=1e-2, t_end=30.0),
    )
    assert loop_cost(spec, CostKind.ISE) == DIVERGENCE_PENALTY


def test_a_growing_run_costs_at_most_the_divergence_penalty():
    # 1/(s - 50) grows as e^(50 - kp) t without diverging inside 8 s: kp 1
    # and 3.16 overflow the squared error, kp 10 integrates to 1.7e276.
    spec = grid_spec(
        loop=LoopSpec(
            plant=tf_new([1.0], [1.0, -50.0]),
            gains=PidGains(kp=1.0),
            setpoint=SetpointProfile.step(1.0),
            sim=SimConfig(dt=1e-3, t_end=8.0),
        ),
        cost_kind=CostKind.ISE,
        kp_bounds=(1.0, 100.0),
        initial=PidGains(kp=1.0),
        grid_points=5,
    )
    result = tune_pid(spec)
    costs = [cost for _, cost in result.history]
    assert costs[:4] == [DIVERGENCE_PENALTY] * 4
    assert costs[4] < 10.0
    assert result.best_gains.kp == 100.0


def test_loop_cost_skips_the_metrics_and_the_pole_analysis(monkeypatch):
    def unused(*args):
        raise AssertionError("the tuner reads only the series")

    monkeypatch.setattr(loops, "response_metrics", unused)
    monkeypatch.setattr(loops, "_analysis", unused)
    assert loop_cost(speed_spec(2.0), CostKind.ITAE) > 0.0


def test_cost_kinds_differ():
    spec = speed_spec(2.0, t_end=5.0)
    itae = loop_cost(spec, CostKind.ITAE)
    ise = loop_cost(spec, CostKind.ISE)
    iae = loop_cost(spec, CostKind.IAE)
    assert len({round(itae, 9), round(ise, 9), round(iae, 9)}) == 3


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

def grid_spec(**kwargs) -> TuneSpec:
    defaults = dict(
        cost_kind=CostKind.ITAE,
        kp_bounds=(0.1, 10.0),
        initial=PidGains(kp=0.1),
        method=TuneMethod.GRID,
        grid_points=3,
        max_evals=50,
    )
    defaults.update(kwargs)
    if "loop" not in defaults:  # built only when not given: a test counts setpoint checks
        defaults["loop"] = speed_spec()
    return TuneSpec(**defaults)


def test_grid_axis_is_geometric_decades():
    spec = grid_spec()
    result = tune_pid(spec)
    kps = sorted(g.kp for g, _ in result.history)
    assert kps == pytest.approx([0.1, 1.0, 10.0])


def test_grid_picks_highest_gain():
    result = tune_pid(grid_spec())
    assert result.best_gains.kp == pytest.approx(10.0)
    assert result.evals == 3  # initial coincides with the first grid point


def test_grid_collapsed_bounds_single_eval():
    spec = grid_spec(kp_bounds=(2.5, 2.5), initial=PidGains(kp=7.0))
    result = tune_pid(spec)
    assert result.evals == 1
    assert result.best_gains.kp == 2.5


def test_grid_keeps_incumbent():
    # Initial inside the box but off-grid is evaluated too.
    spec = grid_spec(initial=PidGains(kp=5.0))
    result = tune_pid(spec)
    assert any(g.kp == pytest.approx(5.0) for g, _ in result.history)
    init_cost = next(c for g, c in result.history if g.kp == pytest.approx(5.0))
    assert result.best_cost <= init_cost


def test_grid_respects_max_evals():
    spec = grid_spec(grid_points=9, max_evals=4)
    result = tune_pid(spec)
    assert result.evals == 4


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

def nm_spec(**kwargs) -> TuneSpec:
    defaults = dict(
        loop=speed_spec(),
        cost_kind=CostKind.ITAE,
        kp_bounds=(0.1, 10.0),
        initial=PidGains(kp=0.1),
        method=TuneMethod.NELDER_MEAD,
        max_evals=60,
    )
    defaults.update(kwargs)
    return TuneSpec(**defaults)


def test_nelder_mead_improves_far_past_initial():
    result = tune_pid(nm_spec())
    init_cost = result.history[0][1]
    assert result.history[0][0].kp == pytest.approx(0.1)
    assert result.best_cost <= 0.5 * init_cost
    assert result.best_gains.kp > 5.0  # walked toward the high-gain end


def test_nelder_mead_never_leaves_bounds():
    result = tune_pid(nm_spec(max_evals=80))
    for gains, _ in result.history:
        assert 0.1 <= gains.kp <= 10.0
        assert gains.ki == 0.0
        assert gains.kd == 0.0


def test_nelder_mead_two_free_dimensions():
    spec = nm_spec(ki_bounds=(0.0, 10.0), initial=PidGains(kp=0.5, ki=0.5), max_evals=40)
    result = tune_pid(spec)
    assert result.best_cost <= result.history[0][1]
    assert result.evals <= 40


def test_nelder_mead_collapsed_box_single_point():
    spec = nm_spec(kp_bounds=(3.0, 3.0), initial=PidGains(kp=3.0))
    result = tune_pid(spec)
    assert result.evals == 1
    assert result.best_gains.kp == 3.0


# ---------------------------------------------------------------------------
# Determinism and invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", [TuneMethod.GRID, TuneMethod.NELDER_MEAD])
def test_identical_specs_identical_histories(method):
    make = lambda: TuneSpec(
        loop=speed_spec(),
        kp_bounds=(0.1, 10.0),
        initial=PidGains(kp=0.1),
        method=method,
        grid_points=3,
        max_evals=30,
    )
    a, b = tune_pid(make()), tune_pid(make())
    assert a.best_cost == b.best_cost
    assert a.best_gains == b.best_gains
    assert a.history == b.history


def test_best_is_minimum_of_history():
    result = tune_pid(nm_spec(max_evals=30))
    assert result.best_cost == min(c for _, c in result.history)
    assert result.evals == len(result.history)


def test_tie_break_prefers_lexicographically_lowest(monkeypatch):
    costs = {0.1: 5.0, 1.0: 1.0, 10.0: 1.0}  # tie between kp=1 and kp=10

    def fake_cost(loop_spec, kind, frame):
        return costs[round(loop_spec.gains.kp, 6)]

    monkeypatch.setattr(tuning, "loop_cost", fake_cost)
    result = tune_pid(grid_spec())
    assert result.best_gains.kp == pytest.approx(1.0)


def test_a_kd_search_needs_a_derivative():
    # With n 0 the derivative is off, so kd changes no run: a kd axis would
    # only repeat each candidate's cost.
    with pytest.raises(ValueError, match="kd_bounds must be"):
        grid_spec(kd_bounds=(0.0, 5.0))
    with pytest.raises(ValueError, match="kd_bounds must be"):
        nm_spec(kd_bounds=(2.0, 2.0))
    assert grid_spec(kd_bounds=(0.0, 5.0), loop=speed_spec(n=50.0)).kd_bounds == (0.0, 5.0)
    assert grid_spec(initial=PidGains(kp=0.1, kd=3.0)).kd_bounds == (0.0, 0.0)


def test_empty_bounds_rejected():
    with pytest.raises(ValueError, match="empty"):
        grid_spec(kp_bounds=(2.0, 1.0))
    with pytest.raises(ValueError, match=">= 0"):
        grid_spec(kp_bounds=(-1.0, 1.0))


def test_grid_enumeration_stops_at_max_evals(monkeypatch):
    # 200 points per gain over three free gains is 8 million lattice points;
    # only the first max_evals may be enumerated.
    spec = TuneSpec(
        loop=speed_spec(n=50.0),
        method=TuneMethod.GRID,
        kp_bounds=(0.1, 10.0),
        ki_bounds=(0.0, 5.0),
        kd_bounds=(0.0, 1.0),
        grid_points=200,
        max_evals=50,
    )
    monkeypatch.setattr(tuning, "loop_cost", lambda loop, kind, frame: 0.0)
    result = tune_pid(spec)
    assert result.evals == 50
    triples = [(g.kp, g.ki, g.kd) for g, _ in result.history]
    assert len(set(triples)) == 50
    assert triples[:2] == [(0.1, 0.0, 0.0), (0.1, 0.0, 1.0 / 199)]


def test_linear_loop_cost_does_not_step_the_loop(monkeypatch):
    # A linear loop is propagated in closed form: pid_step only builds its
    # maps, once per state of z = [x, integral, prev_error,
    # prev_derivative, u_prev] and once for the setpoint.
    calls = []
    step = loops.pid_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(loops, "pid_step", counting)
    gains = PidGains(kp=2.0, ki=1.0, kd=0.1, derivative_filter_n=50.0)
    spec = replace(speed_spec(), gains=gains)
    assert spec.is_linear
    loop_cost(spec)
    states = len(spec.plant.den) - 1 + 4
    assert 0 < len(calls) <= states + 1


def test_a_grid_tune_derives_the_step_map_once_and_probes_once_per_branch_set(monkeypatch):
    maps, probes = [], []
    zoh, step = loops.zoh_step_matrices, loops.pid_step
    monkeypatch.setattr(loops, "zoh_step_matrices", lambda *a: maps.append(a) or zoh(*a))
    monkeypatch.setattr(loops, "pid_step", lambda *a: probes.append(a) or step(*a))
    # The ki axis starts at 0, so the evaluations run with and without the integral.
    result = tune_pid(grid_spec(ki_bounds=(0.0, 4.0), grid_points=4, max_evals=10))
    assert result.evals == 10
    assert {gains.ki > 0.0 for gains, _ in result.history} == {False, True}
    assert len(maps) == 1
    states = len(speed_spec().plant.den) - 1 + 4
    assert len(probes) == 2 * (states + 1)


def test_a_tune_checks_its_setpoint_once(monkeypatch):
    checks = []
    check = SetpointProfile.first_nonfinite
    monkeypatch.setattr(SetpointProfile, "first_nonfinite", lambda *a: checks.append(a) or check(*a))
    spec = grid_spec(
        loop=speed_spec(n=50.0), ki_bounds=(0.0, 4.0), kd_bounds=(0.0, 0.5), grid_points=3, max_evals=12
    )
    assert len(checks) == 1  # the template loop's
    loops_run = []
    cost = tuning.loop_cost
    monkeypatch.setattr(tuning, "loop_cost", lambda loop, *a, **k: loops_run.append(loop) or cost(loop, *a, **k))
    result = tune_pid(spec)
    assert result.evals == 12 and len(checks) == 1
    for loop, (gains, _) in zip(loops_run, result.history):
        assert loop == replace(spec.loop, gains=gains) and loop.gains is gains


@pytest.mark.parametrize("spec", [
    grid_spec(kd_bounds=(0.0, 0.5), loop=replace(speed_spec(), gains=PidGains(derivative_filter_n=50.0))),
    grid_spec(ki_bounds=(0.0, 4.0), kp_bounds=(0.0, 10.0), grid_points=4),
    nm_spec(loop=speed_spec(n=50.0), ki_bounds=(0.0, 10.0), kd_bounds=(0.0, 1.0), initial=PidGains(kp=0.5, ki=0.5),
            max_evals=25),
], ids=["grid-kd", "grid-ki-from-0", "nelder-mead"])
def test_a_tunes_costs_are_those_of_each_loop_run_alone(spec):
    # Every evaluation shares the tune's frame, also where the branch set changes.
    result = tune_pid(spec)
    assert len({(g.ki > 0.0, g.kd > 0.0) for g, _ in result.history}) > 1
    for gains, cost in result.history:
        assert cost.hex() == loop_cost(replace(spec.loop, gains=gains), spec.cost_kind).hex(), gains


def test_shared_time_and_setpoint_are_read_only():
    spec = speed_spec(2.0)
    frame = LoopFrame(spec)
    series = simulate_loop(spec, frame).series
    for shared in (series.t, series["setpoint"]):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1.0
    for name in ("y_true", "error", "u"):
        series[name][:] = 7.0  # this run's own rows: no other run sees them
    again, alone = simulate_loop(spec, frame).series, simulate_loop(spec).series
    assert again.t.tobytes() == alone.t.tobytes()
    for name in alone.channels:
        assert again[name].tobytes() == alone[name].tobytes(), name


def full_axis(lo, hi, points):
    return np.geomspace(lo, hi, points) if lo > 0 else np.linspace(lo, hi, points)


# The last three intervals hold fewer floats than the larger point counts,
# so their axes repeat values.
NARROW = [(1.0, 1.0 + 4e-16), (0.0, 2e-323), (0.25, 0.25 + 2e-16)]


@pytest.mark.parametrize(
    "lo, hi", [(0.0, 1.0), (0.0, 7.3), (0.1, 10.0), (1e-3, 2.5), (3.0, 1e6), (0.0, 1e-320), *NARROW]
)
def test_grid_axis_prefix_is_the_full_axis_prefix(lo, hi):
    for points in range(1, 30):
        distinct = np.array(list(dict.fromkeys(full_axis(lo, hi, points).tolist())))
        for count in (1, 4, points, points + 3):
            prefix = np.array(_grid_axis(lo, hi, points, count), dtype=float)
            assert prefix.tobytes() == distinct[:count].tobytes(), (points, count)


@pytest.mark.parametrize("max_evals", [1, 2, 3, 5, 8, 40])
def test_grid_candidates_are_those_of_the_full_lattice(monkeypatch, max_evals):
    # ki and kd repeat values within the first max_evals of their 7 points.
    bounds = {"kp": (0.0, 1.0), "ki": (0.0, 2e-323), "kd": (1.0, 1.0 + 4e-16)}
    spec = grid_spec(
        loop=speed_spec(n=50.0),
        **{f"{gain}_bounds": pair for gain, pair in bounds.items()},
        initial=PidGains(kp=0.5, ki=1e-323, kd=1.0),
        grid_points=7,
        max_evals=max_evals,
    )
    full = itertools.product(*(full_axis(lo, hi, 7).tolist() for lo, hi in bounds.values()))
    expected = list(dict.fromkeys([(0.5, 1e-323, 1.0), *full]))[:max_evals]
    monkeypatch.setattr(tuning, "loop_cost", lambda loop, kind, frame: 0.0)
    result = tune_pid(spec)
    assert [(g.kp, g.ki, g.kd) for g, _ in result.history] == expected


def test_huge_grid_on_a_narrow_interval_returns_at_once():
    start = time.perf_counter()
    values = _grid_axis(1.0, 1.0 + 1e-15, 10**9, 200)
    assert time.perf_counter() - start < 1.0
    every_double = [1.0]  # 10**9 points hit each double of the interval
    while every_double[-1] < 1.0 + 1e-15:
        every_double.append(float(np.nextafter(every_double[-1], 2.0)))
    assert values == every_double


def test_huge_grid_builds_only_the_budgeted_prefix(monkeypatch):
    spec = TuneSpec(
        loop=speed_spec(),
        method=TuneMethod.GRID,
        kp_bounds=(0.1, 10.0),
        ki_bounds=(0.0, 5.0),
        grid_points=10**9,
        max_evals=5,
    )
    monkeypatch.setattr(tuning, "loop_cost", lambda loop, kind, frame: 0.0)
    tracemalloc.start()
    try:
        result = tune_pid(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.evals == 5
    assert peak < 1_000_000  # one full axis would be 8 GB
    assert [(g.kp, g.ki) for g, _ in result.history][:2] == [(0.1, 0.0), (0.1, 5.0 / (10**9 - 1))]


def test_a_ten_candidate_grid_tune_builds_one_stacked_plan(monkeypatch):
    plans = []
    original = loops.PropagationPlan.__init__

    def counting(self, m, *args):
        plans.append(np.shape(m))
        original(self, m, *args)

    monkeypatch.setattr(loops.PropagationPlan, "__init__", counting)
    result = tune_pid(grid_spec(ki_bounds=(0.0, 4.0), grid_points=4, max_evals=10))
    assert result.evals == 10
    states = len(speed_spec().plant.den) - 1 + 4
    assert plans == [(10, states, states)]  # not ten plans of one loop


def test_a_tune_plans_its_loops_one_output_row_and_a_loop_run_three(monkeypatch):
    rows = []
    original = loops.PropagationPlan.__init__

    def counting(self, m, g, h, j, longest):
        rows.append(np.shape(j)[-1])
        original(self, m, g, h, j, longest)

    monkeypatch.setattr(loops.PropagationPlan, "__init__", counting)
    for spec in (grid_spec(ki_bounds=(0.0, 4.0), grid_points=4, max_evals=10),
                 nm_spec(ki_bounds=(0.0, 10.0), initial=PidGains(kp=0.5, ki=0.5), max_evals=25)):
        rows.clear()
        tune_pid(spec)
        assert rows and set(rows) == {1}  # y_true: all that loop_cost reads
    rows.clear()
    series = simulate_loop(speed_spec()).series
    assert rows == [3] and list(series.channels) == ["setpoint", "y_true", "y_measured", "error", "u"]


def test_a_cost_only_frame_runs_carry_what_the_cost_reads():
    spec = speed_spec(2.0)
    full = simulate_loop(spec).series
    costs_only = simulate_loop(spec, LoopFrame(spec, ("y_true",))).series
    assert list(costs_only.channels) == ["setpoint", "y_true", "y_measured"]
    for name in costs_only.channels:
        assert costs_only[name].tobytes() == full[name].tobytes(), name


def test_a_tunes_batches_hold_its_loops_in_history_order(monkeypatch):
    batched = []
    original = LoopFrame.batches

    def recording(self, specs):
        batched.extend(specs)
        return original(self, specs)

    monkeypatch.setattr(LoopFrame, "batches", recording)
    for spec in (grid_spec(loop=speed_spec(n=50.0), ki_bounds=(0.0, 4.0), kd_bounds=(0.0, 0.5), grid_points=3,
                           max_evals=12),
                 nm_spec(ki_bounds=(0.0, 10.0), initial=PidGains(kp=0.5, ki=0.5), max_evals=25)):
        batched.clear()
        result = tune_pid(spec)
        assert len(batched) == result.evals
        for loop, (gains, _) in zip(batched, result.history):
            assert loop == replace(spec.loop, gains=gains) and loop.gains is gains


def test_nelder_mead_costs_its_initial_simplex_and_each_shrink_as_one_batch():
    # Every point but the start costs 1, so reflection and contraction fail
    # and the simplex shrinks toward the start.
    start, sizes = (0.5, 0.5, 0.0), []

    def evaluate(triples):
        sizes.append(len(triples))
        if sum(sizes) > 30:
            raise tuning._BudgetSpent
        return [0.0 if triple == start else 1.0 for triple in triples]

    with pytest.raises(tuning._BudgetSpent):
        tuning._nelder_mead(evaluate, start, ((0.1, 10.0), (0.0, 10.0), (0.0, 0.0)))
    assert sizes[:8] == [3, 1, 1, 2, 1, 1, 2, 1]  # simplex; reflect, contract, shrink; ...
