"""Closed-loop simulation: setpoint profiles, steady-state analytics,
stability verdicts, and the multibody demo."""

import collections
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rollsim.loops as loops
import rollsim.lti as lti
from rollsim.faults import FaultKind, FaultSpec, SensorModel, counter_gauss
from rollsim.loops import (
    LoopFrame,
    LoopResult,
    LoopSpec,
    MULTIBODY_REFERENCE_GAINS,
    Segment,
    SetpointProfile,
    StabilityVerdict,
    classify_polynomial_stability,
    multibody_demo,
    series_is_bounded,
    simulate_loop,
)
from rollsim.lti import RouthVerdict, SimConfig, dc_gain, tf_new, tf_to_state_space, zoh_step_matrices
from rollsim.pid import PidGains, PidState, pid_step
from rollsim.plants import (
    KinematicsMode,
    PowerScrewParams,
    RollDriveParams,
    multibody_tf,
    power_screw_tf,
    roll_drive_tf,
)


# ---------------------------------------------------------------------------
# Setpoint profiles
# ---------------------------------------------------------------------------

def test_profile_step():
    p = SetpointProfile.step(0.5)
    assert p.value(0.0) == 0.5
    assert p.value(10.0) == 0.5


def test_profile_zero_before_first_segment():
    p = SetpointProfile.step(2.0, at=1.0)
    assert p.value(0.5) == 0.0
    assert p.value(1.0) == 2.0


def test_profile_ramp_and_hold():
    p = SetpointProfile(
        segments=(
            Segment(0.0, "step", 1.0),
            Segment(2.0, "ramp", 0.5),
            Segment(4.0, "hold"),
        )
    )
    assert p.value(1.0) == 1.0
    assert p.value(3.0) == pytest.approx(1.5)
    assert p.value(4.0) == pytest.approx(2.0)
    assert p.value(9.0) == pytest.approx(2.0)  # held


def test_profile_rejects_unordered():
    with pytest.raises(ValueError):
        SetpointProfile(segments=(Segment(2.0, "step", 1.0), Segment(1.0, "step", 0.0)))


def test_profile_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Segment(0.0, "pulse", 1.0)


PROFILES = {
    "step": SetpointProfile.step(0.5),
    "late_step": SetpointProfile.step(2.0, at=1.0),
    "ramp_hold": SetpointProfile(
        segments=(Segment(0.0, "step", 1.0), Segment(2.0, "ramp", 0.5), Segment(4.0, "hold"))
    ),
    "ramps": SetpointProfile(
        segments=(
            Segment(0.5, "ramp", -0.3), Segment(1.5, "ramp", 0.7),
            Segment(1.5, "step", 0.1), Segment(3.0, "ramp", 1e-3),
        )
    ),
}


def segment_law(profile, t):
    """Setpoint level at ``t``, one segment at a time in plain floats."""
    level, segs = 0.0, profile.segments
    for i, seg in enumerate(segs):
        if t < seg.t_start:
            break
        local_t = min(t, segs[i + 1].t_start) if i + 1 < len(segs) else t
        if seg.kind == "step":
            level = seg.value
        elif seg.kind == "ramp":
            level = level + seg.value * (local_t - seg.t_start)
    return level


@pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES.keys())
def test_profile_values_follow_the_segment_law_bit_for_bit(profile):
    edges = np.array([seg.t_start for seg in profile.segments])
    t = np.sort(np.concatenate([
        np.arange(6001) * 1e-3, edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
    ]))
    expected = np.array([segment_law(profile, tk) for tk in t], dtype=float)
    assert profile.values(t).tobytes() == expected.tobytes()
    assert [profile.value(tk) for tk in t[::97]] == list(expected[::97])


# ---------------------------------------------------------------------------
# Loop steady-state analytics
# ---------------------------------------------------------------------------

def test_zero_setpoint_all_channels_zero():
    r = simulate_loop(LoopSpec(
        plant=roll_drive_tf(RollDriveParams()), gains=PidGains(kp=8.0, ki=2.0),
        setpoint=SetpointProfile.step(0.0), sim=SimConfig(dt=1e-3, t_end=2.0),
    ))
    for name in ("setpoint", "y_true", "y_measured", "error", "u"):
        assert np.all(r.series[name] == 0.0)


def test_p_only_speed_loop_static_error():
    # Type-0 loop: e_ss = sp / (1 + kp * r * K / B).
    kp = 8.0
    r = simulate_loop(LoopSpec(
        plant=roll_drive_tf(RollDriveParams()), gains=PidGains(kp=kp), setpoint=SetpointProfile.step(1.0),
        sim=SimConfig(dt=1e-3, t_end=20.0),
    ))
    expected = 1.0 / (1.0 + kp * 0.125)
    assert r.metrics.steady_state_error == pytest.approx(expected, rel=5e-3)
    assert r.stability_verdict is StabilityVerdict.POLES_STABLE


def test_pi_speed_loop_zero_error():
    r = simulate_loop(LoopSpec(
        plant=roll_drive_tf(RollDriveParams()), gains=PidGains(kp=8.0, ki=8.0),
        setpoint=SetpointProfile.step(0.5), sim=SimConfig(dt=1e-3, t_end=20.0),
    ))
    assert abs(r.metrics.steady_state_error) < 0.005 * 0.5


def test_doubling_radius_halves_error_ratio():
    kp = 4.0
    sp = SetpointProfile.step(1.0)
    cfg = SimConfig(dt=1e-3, t_end=20.0)
    base, wide = (
        simulate_loop(LoopSpec(plant=roll_drive_tf(RollDriveParams(r=r)), gains=PidGains(kp=kp), setpoint=sp, sim=cfg))
        for r in (0.125, 0.25)
    )
    expect_base = 1.0 / (1.0 + kp * 0.125)
    expect_wide = 1.0 / (1.0 + kp * 0.25)
    assert base.metrics.steady_state_error == pytest.approx(expect_base, rel=5e-3)
    assert wide.metrics.steady_state_error == pytest.approx(expect_wide, rel=5e-3)


def test_thickness_literal_static_error():
    kp = 500.0
    p = PowerScrewParams()
    x_ref = 0.002
    r = simulate_loop(LoopSpec(
        plant=power_screw_tf(p, KinematicsMode.PAPER_LITERAL), gains=PidGains(kp=kp),
        setpoint=SetpointProfile.step(x_ref), sim=SimConfig(dt=1e-3, t_end=30.0),
    ))
    gain = p.lead * p.K_ps / (2.0 * math.pi * p.B_ps)
    expected = x_ref / (1.0 + kp * gain)
    assert r.metrics.steady_state_error == pytest.approx(expected, rel=5e-3)


def test_thickness_integrated_type1_zero_error():
    r = simulate_loop(LoopSpec(
        plant=power_screw_tf(PowerScrewParams(), KinematicsMode.INTEGRATED), gains=PidGains(kp=5000.0),
        setpoint=SetpointProfile.step(0.002), sim=SimConfig(dt=1e-3, t_end=20.0),
    ))
    assert abs(r.metrics.steady_state_error) < 0.005 * 0.002


def test_ki_strictly_reduces_steady_state_error():
    sp = SetpointProfile.step(1.0)
    cfg = SimConfig(dt=1e-3, t_end=10.0)
    errors = []
    for ki in (0.0, 0.25, 0.5, 1.0):
        spec = LoopSpec(plant=roll_drive_tf(RollDriveParams()), gains=PidGains(kp=4.0, ki=ki), setpoint=sp, sim=cfg)
        r = simulate_loop(spec)
        errors.append(abs(r.metrics.steady_state_error))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_final_value_tracks_closed_loop_dc_gain():
    # Linear stable loops must land on the closed-loop DC gain.
    for kp, ki in ((2.0, 0.0), (8.0, 0.0), (3.0, 2.0)):
        r = simulate_loop(LoopSpec(
            plant=roll_drive_tf(RollDriveParams()), gains=PidGains(kp=kp, ki=ki),
            setpoint=SetpointProfile.step(1.0), sim=SimConfig(dt=1e-3, t_end=25.0),
        ))
        assert r.stability_verdict is StabilityVerdict.POLES_STABLE
        assert r.closed_loop is not None
        assert r.metrics.final_value == pytest.approx(dc_gain(r.closed_loop), rel=5e-3)


# ---------------------------------------------------------------------------
# Stability verdicts vs time-domain boundedness
# ---------------------------------------------------------------------------

def test_verdict_matches_boundedness_on_randomized_loops():
    # Plant denominators constructed so the closed-loop characteristic
    # polynomial has planted roots with |Re| >= 0.2; P control with kp=1.
    rng = np.random.default_rng(99)
    for trial in range(20):
        stable = trial % 2 == 0
        re = -rng.uniform(0.2, 1.5) if stable else rng.uniform(0.2, 0.8)
        if rng.random() < 0.5:
            im = rng.uniform(0.2, 1.5)
            char = np.array([1.0, -2.0 * re, re * re + im * im])
        else:
            r2 = -rng.uniform(0.2, 1.5)
            char = np.polymul([1.0, -re], [1.0, -r2])
        kp = 1.0
        plant_den = char.copy()
        plant_den[-1] -= kp  # closed char = plant_den + kp
        spec = LoopSpec(
            plant=tf_new([1.0], plant_den),
            gains=PidGains(kp=kp),
            setpoint=SetpointProfile.step(1.0),
            sim=SimConfig(dt=5e-3, t_end=60.0),
        )
        result = simulate_loop(spec)
        expected = (
            StabilityVerdict.POLES_STABLE if stable else StabilityVerdict.POLES_UNSTABLE
        )
        assert result.stability_verdict is expected
        assert result.bounded == stable, f"trial {trial}: verdict/boundedness mismatch"


def test_divergence_is_flagged_not_fatal():
    spec = LoopSpec(
        plant=tf_new([1.0], [1.0, -60.0]),  # pole at +60; kp=1 cannot hold it
        gains=PidGains(kp=1.0),
        setpoint=SetpointProfile.step(1.0),
        sim=SimConfig(dt=1e-2, t_end=30.0),
    )
    r = simulate_loop(spec)
    assert r.diverged
    assert r.divergence_time is not None
    assert 0.0 < r.divergence_time <= 30.0
    assert not r.bounded
    assert np.all(np.isfinite(r.series["y_true"]))


CHANNELS = ("setpoint", "y_true", "y_measured", "error", "u")

PLANTS = {
    "lag": lambda rng: tf_new([rng.uniform(0.5, 2.0)], [1.0, rng.uniform(0.5, 5.0)]),
    "second_order": lambda rng: tf_new(
        [rng.uniform(0.5, 2.0)], [1.0, rng.uniform(0.5, 3.0), rng.uniform(1.0, 9.0)]
    ),
    # Feedthrough D closes a loop through u_prev; D * (kp + kd / dt) < 1
    # keeps it from growing by a factor per step.
    "biproper": lambda rng: tf_new([rng.uniform(0.01, 0.05), 1.0], [1.0, rng.uniform(0.5, 5.0)]),
    "gain": lambda rng: tf_new([rng.uniform(0.02, 0.1)], [1.0]),
}

CONTROLLERS = {
    "p": lambda rng: PidGains(kp=rng.uniform(0.5, 5.0)),
    "pi": lambda rng: PidGains(kp=rng.uniform(0.5, 5.0), ki=rng.uniform(0.5, 5.0)),
    "pid_filtered": lambda rng: PidGains(
        kp=rng.uniform(0.5, 5.0), ki=rng.uniform(0.5, 5.0), kd=rng.uniform(0.01, 0.1),
        derivative_filter_n=rng.uniform(20.0, 200.0),
    ),
    "pid_ideal": lambda rng: PidGains(
        kp=rng.uniform(0.5, 5.0), ki=rng.uniform(0.5, 5.0), kd=rng.uniform(1e-4, 1e-3),
        derivative_filter_n=math.inf,
    ),
}


def stepped_twin(spec: LoopSpec) -> LoopSpec:
    """The same loop with output limits at +-inf: they never bind, but they
    make the loop nonlinear, so simulate_loop steps it."""
    return replace(spec, gains=replace(spec.gains, output_min=-math.inf, output_max=math.inf))


def assert_same_run(closed, stepped):
    assert closed.diverged == stepped.diverged
    assert closed.divergence_time == stepped.divergence_time
    assert len(closed.series) == len(stepped.series)
    for name in CHANNELS:
        np.testing.assert_allclose(
            closed.series[name], stepped.series[name], rtol=1e-9, atol=1e-12, err_msg=name
        )


PAIRS = [(p, c) for p in PLANTS for c in CONTROLLERS]


@pytest.mark.parametrize("plant, controller", PAIRS, ids=[f"{p}-{c}" for p, c in PAIRS])
def test_closed_form_matches_the_step_loop(plant, controller):
    rng = np.random.default_rng(sorted(PLANTS).index(plant) * 10 + sorted(CONTROLLERS).index(controller))
    for _ in range(3):
        spec = LoopSpec(
            plant=PLANTS[plant](rng),
            gains=CONTROLLERS[controller](rng),
            setpoint=PROFILES["ramp_hold"],
            sim=SimConfig(dt=1e-3, t_end=float(rng.uniform(1.0, 5.0))),
        )
        assert spec.is_linear and not stepped_twin(spec).is_linear
        closed = simulate_loop(spec)
        assert not closed.diverged
        assert_same_run(closed, simulate_loop(stepped_twin(spec)))


@pytest.mark.parametrize("kp", [1.0, 40.0])  # 40: a growing oscillation
def test_closed_form_diverges_where_the_step_loop_does(kp):
    # Both paths keep the samples before the first non-finite state or
    # output and flag its time.
    spec = LoopSpec(
        plant=tf_new([1.0], [1.0, -60.0]),
        gains=PidGains(kp=kp),
        setpoint=SetpointProfile.step(1.0),
        sim=SimConfig(dt=1e-2, t_end=30.0),
    )
    closed = simulate_loop(spec)
    assert closed.diverged
    assert_same_run(closed, simulate_loop(stepped_twin(spec)))


# ---------------------------------------------------------------------------
# Nonlinear loops against a plain-Python stepper
# ---------------------------------------------------------------------------

def reference_loop(spec: LoopSpec):
    """The loop one sample at a time in plain Python: the plant's step map,
    ``pid_step`` per sample, and a sensor that keeps its own tick time,
    draw counter and hold.  Returns (t, rows of (y_true, y_measured,
    error, u), end) with ``end`` the first sample whose plant state or
    output is not finite."""
    ss = tf_to_state_space(spec.plant)
    cfg = spec.sim
    m, nvec = zoh_step_matrices(ss, cfg.dt)
    t = np.arange(cfg.steps + 1) * cfg.dt
    sp = spec.setpoint.values(t).tolist()
    model = spec.sensor if spec.sensor is not None else SensorModel()
    fault = spec.fault
    measured = spec.sensor is not None or fault is not None
    x, pid, u_prev = np.zeros(ss.n), PidState(), 0.0
    counter, last_t, last_out, hold = 0, None, None, None
    rows, end = [], len(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, tk in enumerate(t.tolist()):
            y = (float(ss.C.ravel() @ x) if ss.n else 0.0) + ss.D * u_prev
            if not math.isfinite(y):
                end = k
                break
            ym = y
            if measured:
                if last_t is None or not tk - last_t < model.sample_dt * (1.0 - 1e-9):
                    value = y + model.bias
                    if model.noise_sigma > 0.0:
                        value += model.noise_sigma * counter_gauss(spec.seed, counter)
                        counter += 1
                    active = fault is not None and fault.onset_t <= tk and (
                        fault.duration is None or tk < fault.onset_t + fault.duration
                    )
                    if active and fault.kind is FaultKind.BIAS_JUMP:
                        value += fault.magnitude
                    elif active and fault.kind is FaultKind.DRIFT:
                        value += fault.magnitude * (tk - fault.onset_t)
                    if model.quantization_step > 0.0:
                        try:
                            value = round(value / model.quantization_step) * model.quantization_step
                        except OverflowError:
                            pass  # too large to count in steps: read as it is
                    if active and fault.kind in (FaultKind.STUCK, FaultKind.DROPOUT):
                        hold = (last_out if last_out is not None else value) if hold is None else hold
                        value = hold
                    last_t, last_out = tk, value
                ym = last_out
            e = sp[k] - ym
            u, pid = pid_step(pid, e, cfg.dt, spec.gains)
            rows.append((y, ym, e, u))
            if k == len(t) - 1:
                break
            if ss.n:
                x = m @ x + nvec * u
                if not np.all(np.isfinite(x)):
                    end = k + 1
                    break
            u_prev = u
    return t, np.array(rows).reshape(-1, 4)[:end], end


def assert_matches_reference(spec: LoopSpec) -> LoopResult:
    result = simulate_loop(spec)
    t, rows, end = reference_loop(spec)
    assert result.diverged == (end < len(t))
    assert result.divergence_time == (float(t[end]) if end < len(t) else None)
    assert len(result.series) == end
    np.testing.assert_array_equal(result.series.t, t[:end])
    for i, name in enumerate(("y_true", "y_measured", "error", "u")):
        np.testing.assert_allclose(result.series[name], rows[:, i], rtol=1e-9, atol=1e-12, err_msg=name)
    return result


def noisy(rng):
    return SensorModel(noise_sigma=rng.uniform(1e-3, 1e-2), quantization_step=rng.uniform(1e-3, 4e-3))


def slow(rng):
    return SensorModel(noise_sigma=rng.uniform(1e-3, 1e-2), bias=rng.uniform(-0.1, 0.1),
                       sample_dt=rng.uniform(2e-3, 2e-2))


def limits(rng):
    return dict(output_min=-rng.uniform(0.2, 0.5), output_max=rng.uniform(0.4, 0.8))


# (sensor, fault kind, output limits) per case; each fault kind appears,
# with and without a slow sample clock, and with limits that bind.
SENSOR_CASES = {
    "quantized_stuck": (noisy, "stuck", None),
    "slow_bias_jump": (slow, "bias_jump", None),
    "quantized_drift_clamped": (noisy, "drift", limits),
    "slow_dropout_clamped": (slow, "dropout", limits),
    "clamped_only": (None, None, limits),
    "fault_only": (None, "bias_jump", None),
}


@pytest.mark.parametrize("case", SENSOR_CASES)
@pytest.mark.parametrize("plant", PLANTS)
def test_nonlinear_loop_matches_the_reference_stepper(plant, case):
    rng = np.random.default_rng(sorted(PLANTS).index(plant) * 10 + sorted(SENSOR_CASES).index(case))
    sensor, kind, bounds = SENSOR_CASES[case]
    gains = CONTROLLERS[sorted(CONTROLLERS)[rng.integers(len(CONTROLLERS))]](rng)
    if bounds is not None:
        gains = replace(gains, **bounds(rng))
    fault = None if kind is None else FaultSpec(
        kind=kind, onset_t=float(rng.uniform(0.5, 1.0)),
        magnitude=float(rng.uniform(0.05, 0.2)), duration=0.5 if kind == "dropout" else None,
    )
    spec = LoopSpec(
        plant=PLANTS[plant](rng), gains=gains, setpoint=PROFILES["ramp_hold"],
        sensor=None if sensor is None else sensor(rng), fault=fault,
        seed=int(rng.integers(2**31)), sim=SimConfig(dt=1e-3, t_end=2.0),
    )
    result = assert_matches_reference(spec)
    assert not result.diverged
    if bounds is not None:
        assert np.any(result.series["u"] == gains.output_max)


@pytest.mark.parametrize("gains", [
    PidGains(kp=40.0),  # a growing oscillation
    PidGains(kp=1.0, ki=0.5, output_min=-1.0, output_max=1.0),  # limits too weak to hold it
], ids=["oscillating", "clamped"])
def test_diverging_noisy_loop_matches_the_reference_stepper(gains):
    spec = LoopSpec(
        plant=tf_new([1.0], [1.0, -60.0]), gains=gains, setpoint=SetpointProfile.step(1.0),
        sensor=SensorModel(noise_sigma=0.01), seed=5, sim=SimConfig(dt=1e-2, t_end=30.0),
    )
    assert assert_matches_reference(spec).diverged


@pytest.mark.parametrize("limits", [{}, dict(output_min=-math.inf, output_max=math.inf)], ids=["linear", "stepped"])
def test_a_stiff_loop_stays_bounded(limits):
    # 1000/(s+1000) sampled at 3 ms: a dt = 3.  A degree-4 Taylor step map
    # grows by 1.375 per step here, and this PI loop ended near -6.3e80
    # without being flagged; the exact map keeps it bounded.
    spec = LoopSpec(
        plant=tf_new([1000.0], [1.0, 1000.0]), gains=PidGains(kp=1.0, ki=1.0, **limits),
        setpoint=SetpointProfile.step(1.0), sim=SimConfig(dt=3e-3, t_end=1.0),
    )
    result = assert_matches_reference(spec)
    assert not result.diverged
    assert np.max(np.abs(result.series["y_true"])) < 1.5


def test_huge_poles_run_bounded_or_diverge_at_the_first_step():
    def run(den, **sensor):
        spec = LoopSpec(
            plant=tf_new([1.0], den), gains=PidGains(kp=1.0), setpoint=SetpointProfile.step(1.0),
            sim=SimConfig(dt=1e-3, t_end=1.0), **sensor,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return assert_matches_reference(spec)

    for sensor in ({}, dict(sensor=SensorModel(noise_sigma=0.01))):
        stable = run([1.0e-300, 1.0], **sensor)  # pole at -1e300
        assert not stable.diverged and np.all(np.isfinite(stable.series["y_true"]))
        unstable = run([1.0e-300, -1.0], **sensor)  # +1e300: the step map overflows
        assert unstable.diverged and unstable.divergence_time == 1e-3 and len(unstable.series) == 1


def test_nonlinear_loop_derives_its_maps_once(monkeypatch):
    calls = []
    original = loops.pid_step
    monkeypatch.setattr(loops, "pid_step", lambda *a: calls.append(a) or original(*a))
    spec = LoopSpec(
        plant=tf_new([1.0], [1.0, 3.0, 2.0]), gains=PidGains(kp=2.0, ki=1.0, output_max=0.5),
        setpoint=SetpointProfile.step(1.0), sensor=SensorModel(noise_sigma=0.01),
        sim=SimConfig(dt=1e-3, t_end=5.0),
    )
    simulate_loop(spec)
    assert len(calls) == 2 + 4 + 1  # nz + 1 unit steps, nz = plant order + 4


def probed_maps(spec: LoopSpec) -> tuple:
    """(F, g, h) of one loop step by running the step map and pid_step,
    limits lifted, on each unit state and on a unit error: the oracle
    for the maps that LoopFrame sums from its probed directions."""
    ss = tf_to_state_space(spec.plant)
    m, nvec = zoh_step_matrices(ss, spec.sim.dt)
    n, size = ss.n, ss.n + 4
    gains = replace(spec.gains, output_min=None, output_max=None)

    def step(z, err):
        u, pid = pid_step(PidState(*z[n:-1]), err, spec.sim.dt, gains)
        return [*(m @ z[:n] + nvec * u), pid.integral, pid.prev_error, pid.prev_derivative, u]

    with np.errstate(invalid="ignore"):
        columns = np.array([step(z, 0.0) for z in np.eye(size)] + [step(np.zeros(size), 1.0)]).T
    return columns[:, :size], columns[:, size], np.concatenate([ss.C.ravel(), [0.0, 0.0, 0.0, ss.D]])


@pytest.mark.parametrize("plant", [
    roll_drive_tf(RollDriveParams()),
    power_screw_tf(PowerScrewParams(), KinematicsMode.INTEGRATED),
    multibody_tf(),
    tf_new([2.0, 1.0, 3.0], [1.0, 4.0, 2.0]),  # biproper: D = 2
])
def test_summed_maps_equal_the_probed_maps_bit_for_bit(plant):
    rng = np.random.default_rng(16)
    spec = LoopSpec(plant=plant, gains=PidGains(), setpoint=SetpointProfile.step(1.0),
                    sim=SimConfig(dt=1e-3, t_end=0.01))
    frame = LoopFrame(spec)  # one frame for every gain set: branch sets come and go
    for ki_on, kd_on, n, _ in itertools.product((False, True), (False, True), (0.0, 40.0, math.inf), range(3)):
        kp, ki, kd = 10.0 ** rng.uniform(-3, 2, size=3)
        gains = PidGains(kp=kp, ki=ki if ki_on else 0.0, kd=kd if kd_on else 0.0,
                         derivative_filter_n=n, output_min=-0.5, output_max=0.5)
        loop = replace(spec, gains=gains)
        f, g, h = loops._loop_maps(frame, [gains])  # a batch of one
        for summed, probed in zip((f[0], g[0], h), probed_maps(loop)):
            assert summed.shape == probed.shape
            assert summed.tobytes() == probed.tobytes(), gains


def test_a_frame_runs_only_its_own_plant_step_and_setpoint():
    spec = LoopSpec(plant=tf_new([1.0], [1.0, 1.0]), gains=PidGains(kp=1.0),
                    setpoint=SetpointProfile.step(1.0), sim=SimConfig(dt=1e-3, t_end=1.0))
    frame = LoopFrame(spec)
    for other in (replace(spec, plant=tf_new([2.0], [1.0, 1.0])), replace(spec, sim=SimConfig(dt=2e-3, t_end=1.0)),
                  replace(spec, setpoint=SetpointProfile.step(2.0))):
        with pytest.raises(ValueError, match="another plant"):
            simulate_loop(other, frame)


def test_nonlinear_paths_withhold_verdict():
    sp = SetpointProfile.step(1.0)
    cfg = SimConfig(dt=1e-3, t_end=1.0)
    noisy = simulate_loop(LoopSpec(
        plant=tf_new([1], [1, 1]), gains=PidGains(kp=1.0), setpoint=sp,
        sensor=SensorModel(noise_sigma=0.01), sim=cfg,
    ))
    assert noisy.stability_verdict is None
    saturated = simulate_loop(LoopSpec(
        plant=tf_new([1], [1, 1]),
        gains=PidGains(kp=1.0, output_min=-1.0, output_max=1.0),
        setpoint=sp, sim=cfg,
    ))
    assert saturated.stability_verdict is None
    faulty = simulate_loop(LoopSpec(
        plant=tf_new([1], [1, 1]), gains=PidGains(kp=1.0), setpoint=sp,
        fault=FaultSpec(kind="bias_jump", onset_t=0.5, magnitude=0.1), sim=cfg,
    ))
    assert faulty.stability_verdict is None


def test_metrics_use_true_output_not_measurement():
    # A biased sensor shifts y_measured but must not corrupt metrics.
    clean = simulate_loop(LoopSpec(
        plant=tf_new([1], [1, 1]), gains=PidGains(kp=50.0),
        setpoint=SetpointProfile.step(1.0), sim=SimConfig(dt=1e-3, t_end=10.0),
    ))
    biased = simulate_loop(LoopSpec(
        plant=tf_new([1], [1, 1]), gains=PidGains(kp=50.0),
        setpoint=SetpointProfile.step(1.0),
        sensor=SensorModel(bias=0.2), sim=SimConfig(dt=1e-3, t_end=10.0),
    ))
    # The loop regulates the biased measurement, so y_true settles 0.2 low;
    # metrics reflect that truly.
    assert biased.metrics.final_value < clean.metrics.final_value
    assert biased.metrics.final_value == pytest.approx(
        float(biased.series["y_true"][-1])
    )


def test_loop_spec_value_equality():
    def spec(**changes):
        fields = dict(
            plant=tf_new([1], [1, 1]), gains=PidGains(kp=2.0, ki=1.0),
            setpoint=SetpointProfile.step(1.0), sim=SimConfig(dt=1e-3, t_end=1.0),
        )
        return LoopSpec(**{**fields, **changes})

    # Separately built plants compare by coefficients, not identity.
    assert spec() == spec()
    assert hash(spec()) == hash(spec())
    assert spec() != spec(plant=tf_new([1], [1, 2]))
    assert spec() != spec(gains=PidGains(kp=2.0, ki=1.0, kd=0.1, derivative_filter_n=100.0))
    assert spec() != spec(setpoint=SetpointProfile.step(0.5))
    assert spec() != spec(sensor=SensorModel())
    assert spec() != spec(seed=1)


# ---------------------------------------------------------------------------
# Multibody demo
# ---------------------------------------------------------------------------

def test_multibody_demo_verdicts_and_consistency():
    demo = multibody_demo(sim=SimConfig(dt=2e-3, t_end=50.0))
    # Open loop: not Hurwitz, poles in the right half-plane, growing response.
    assert demo.open_routh is RouthVerdict.NOT_HURWITZ
    assert demo.open_verdict is StabilityVerdict.POLES_UNSTABLE
    assert not demo.open_bounded

    # Ideal-derivative characteristic polynomial, expanded by hand:
    # s^9 + 3.571 s^7 + 0.339 s^2 + 1.00941 s + 6.53e-05.
    expected = np.zeros(10)
    expected[0] = 1.0
    expected[2] = 3.571
    expected[7] = 0.339
    expected[8] = 1.00941
    expected[9] = 6.53e-05
    assert demo.ideal_char == pytest.approx(expected, rel=1e-12)

    # Zero interior coefficients: cannot be Hurwitz; poles confirm unstable.
    assert demo.ideal_verdict is StabilityVerdict.POLES_UNSTABLE
    assert demo.closed_ideal.bounded is False

    # Filtered derivative (N=100): 10th-degree characteristic polynomial,
    # verdict pinned from the companion-matrix oracle: still unstable.
    assert demo.closed_filtered.characteristic is not None
    assert len(demo.closed_filtered.characteristic) - 1 == 10
    assert demo.closed_filtered.stability_verdict is StabilityVerdict.POLES_UNSTABLE
    assert demo.closed_filtered.bounded is False

    # Internal consistency: pole analysis agrees with time-domain behavior.
    assert demo.closed_ideal.stability_verdict is demo.ideal_verdict
    for result in (demo.closed_ideal, demo.closed_filtered):
        unstable = result.stability_verdict is StabilityVerdict.POLES_UNSTABLE
        assert unstable == (not result.bounded)


def test_the_shipped_multibody_demo_derives_two_step_maps(monkeypatch):
    # One for the open loop and one frame for both closed loops, which
    # differ in gains only.
    maps = []
    for module in (loops, lti):
        zoh = module.zoh_step_matrices
        monkeypatch.setattr(module, "zoh_step_matrices", lambda *a, _zoh=zoh: maps.append(a) or _zoh(*a))
    demo = multibody_demo(sim=SimConfig(dt=2e-3, t_end=100.0))
    assert len(maps) == 2
    assert demo.closed_ideal.spec.gains != demo.closed_filtered.spec.gains


def test_multibody_demo_ideal_uses_raw_derivative():
    demo = multibody_demo(sim=SimConfig(dt=5e-3, t_end=5.0))
    assert demo.closed_ideal.series["u"][0] != demo.closed_filtered.series["u"][0]


def test_classify_polynomial_stability_bands():
    assert classify_polynomial_stability([1, 2, 1]) is StabilityVerdict.POLES_STABLE
    assert classify_polynomial_stability([1, -2, 1]) is StabilityVerdict.POLES_UNSTABLE
    assert classify_polynomial_stability([1, 0, 1]) is StabilityVerdict.POLES_MARGINAL
    # The margin is 1e-9 on the largest real part: s + 2e-9 has its root at -2e-9.
    assert classify_polynomial_stability([1, 2e-9]) is StabilityVerdict.POLES_STABLE
    assert classify_polynomial_stability([1, -2e-9]) is StabilityVerdict.POLES_UNSTABLE
    assert classify_polynomial_stability([1, -5e-10]) is StabilityVerdict.POLES_MARGINAL


def test_series_is_bounded_on_growth():
    import rollsim.lti as lti
    t = np.arange(2000) * 0.01
    growing = lti.TimeSeries(t=t, channels={"y": np.exp(0.5 * t)})
    flat = lti.TimeSeries(t=t, channels={"y": np.sin(t)})
    assert not series_is_bounded(growing)
    assert series_is_bounded(flat)


# ---------------------------------------------------------------------------
# Verified blocks: loops read every sample, no output limits
# ---------------------------------------------------------------------------

def count_routes(monkeypatch) -> collections.Counter:
    """Count verified blocks, stepper runs and sensor calls (by argument
    type) of the loops run after this call."""
    calls = collections.Counter()
    for name, key in (("_block", "_block"), ("_step", "run")):  # stepped stretches count as "run"
        original = getattr(loops._NonlinearLoop, name)

        def counted(*args, _original=original, _key=key):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(loops._NonlinearLoop, name, counted)
    original_sensor = loops.apply_sensor

    def sensor(value, *args):
        calls[f"apply_sensor({type(value).__name__})"] += 1
        return original_sensor(value, *args)

    monkeypatch.setattr(loops, "apply_sensor", sensor)
    return calls


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal bit for bit: unlike ``==``, -0.0 differs from +0.0."""
    np.testing.assert_array_equal(np.asarray(actual).view(np.int64), np.asarray(expected).view(np.int64))


def assert_block_route_matches(spec: LoopSpec, monkeypatch) -> LoopResult:
    """As :func:`assert_matches_reference`, for a loop that runs verified
    blocks; with a quantizer its readings equal the stepper's bit for bit."""
    calls = count_routes(monkeypatch)
    result = assert_matches_reference(spec)
    assert calls["_block"] > 0
    if spec.sensor is not None and spec.sensor.quantization_step > 0.0:
        assert_same_bits(result.series["y_measured"], reference_loop(spec)[1][:len(result.series), 1])
    return result


def quantized(rng):
    return SensorModel(noise_sigma=rng.uniform(1e-3, 1e-2), quantization_step=rng.uniform(1e-3, 4e-3))


def unquantized(rng):
    return SensorModel(noise_sigma=rng.uniform(1e-3, 1e-2), bias=rng.uniform(-0.1, 0.1))


EDGE = 2 * loops._BLOCK * 1e-3  # the time of sample 2 * _BLOCK, two shortest blocks in, at dt = 1 ms

# (sensor, fault) per case: each fault kind behind a quantizer, a window
# open from the first sample, a window whose both edges fall on block
# boundaries, and a noisy sensor without a quantizer.
BLOCK_CASES = {
    "stuck": (quantized, lambda rng: FaultSpec(kind="stuck", onset_t=rng.uniform(0.5, 1.0))),
    "bias_jump": (quantized, lambda rng: FaultSpec(
        kind="bias_jump", onset_t=rng.uniform(0.5, 1.0), magnitude=rng.uniform(0.05, 0.2))),
    "drift": (quantized, lambda rng: FaultSpec(
        kind="drift", onset_t=rng.uniform(0.5, 1.0), magnitude=rng.uniform(0.05, 0.2))),
    "dropout": (quantized, lambda rng: FaultSpec(kind="dropout", onset_t=rng.uniform(0.5, 1.0), duration=0.5)),
    "stuck_from_the_start": (quantized, lambda rng: FaultSpec(kind="stuck", onset_t=0.0)),
    "dropout_on_block_edges": (quantized, lambda rng: FaultSpec(kind="dropout", onset_t=EDGE, duration=EDGE)),
    "unquantized_bias_jump": (unquantized, lambda rng: FaultSpec(
        kind="bias_jump", onset_t=rng.uniform(0.5, 1.0), magnitude=rng.uniform(0.05, 0.2))),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_verified_blocks_match_the_reference_stepper(case, monkeypatch):
    # The cases take the plants in turn, so each plant shape runs.
    index = list(BLOCK_CASES).index(case)
    rng = np.random.default_rng(100 + index)
    plant = list(PLANTS)[index % len(PLANTS)]
    sensor, fault = BLOCK_CASES[case]
    spec = LoopSpec(
        plant=PLANTS[plant](rng), gains=CONTROLLERS[sorted(CONTROLLERS)[rng.integers(len(CONTROLLERS))]](rng),
        setpoint=PROFILES["ramp_hold"], sensor=sensor(rng), fault=fault(rng),
        seed=int(rng.integers(2**31)), sim=SimConfig(dt=1e-3, t_end=2.0),
    )
    result = assert_block_route_matches(spec, monkeypatch)
    assert not result.diverged
    if case == "dropout_on_block_edges":
        edges = np.flatnonzero(np.diff(spec.fault.active(result.series.t))) + 1
        assert edges.tolist() == [2 * loops._BLOCK, 4 * loops._BLOCK]


def coarse_quantizer_loop(t_end: float = 20.0) -> LoopSpec:
    """No noise and a quantizer coarse enough that correcting one reading
    flips the next: its transient needs more rounds than a block allows."""
    return LoopSpec(
        plant=tf_new([1.0], [1.0, 1.0]), gains=PidGains(kp=2.0, ki=1.0), setpoint=SetpointProfile.step(1.0),
        sensor=SensorModel(quantization_step=0.1), sim=SimConfig(dt=1e-3, t_end=t_end),
    )


def test_coarse_quantizer_falls_back_to_the_stepper(monkeypatch):
    calls = count_routes(monkeypatch)
    assert_block_route_matches(coarse_quantizer_loop(5.0), monkeypatch)
    assert calls["run"] > 0


@pytest.mark.parametrize("sensor", [
    SensorModel(quantization_step=1e-6),
    SensorModel(bias=1e-3),  # no quantizer: each block is one pass, nothing to correct
], ids=["quantized", "unquantized"])
def test_diverging_loop_in_blocks_matches_the_stepper(sensor, monkeypatch):
    spec = LoopSpec(
        plant=tf_new([1.0], [1.0, -60.0]), gains=PidGains(kp=1.0), setpoint=SetpointProfile.step(1.0),
        sensor=sensor, sim=SimConfig(dt=1e-3, t_end=30.0),
    )
    calls = count_routes(monkeypatch)
    result = simulate_loop(spec)
    assert calls["_block"] > 0
    stepped = simulate_loop(stepped_twin(spec))
    assert result.diverged and 0.0 < result.divergence_time < 30.0
    assert_same_run(result, stepped)
    assert_matches_reference(spec)
    if sensor.quantization_step > 0.0:
        # Past |y| = step / 1e-9 the quantizer resolves finer than two summation
        # orders agree on y, so only the readings before that can match bit for bit.
        resolved = np.abs(stepped.series["y_true"]) * 1e-9 < sensor.quantization_step
        assert np.count_nonzero(resolved) > 150
        assert_same_bits(result.series["y_measured"][resolved], stepped.series["y_measured"][resolved])


def sweep_loop(t_end: float = 10.0) -> LoopSpec:
    """Shaped like a fault-sweep job: gap loop, fine noisy quantizer, a fault."""
    return LoopSpec(
        plant=power_screw_tf(PowerScrewParams(lead=0.005), KinematicsMode.INTEGRATED),
        gains=PidGains(kp=4000.0, ki=800.0),
        setpoint=SetpointProfile(segments=(Segment(0.0, "step", 0.002), Segment(6.0, "step", 0.0025))),
        sensor=SensorModel(noise_sigma=1e-6, quantization_step=1e-6),
        fault=FaultSpec(kind="dropout", onset_t=5.0, duration=3.0), seed=3, sim=SimConfig(dt=1e-3, t_end=t_end),
    )


def test_routes_and_rounds(monkeypatch):
    sweep = sweep_loop()
    for spec, steps in ((sweep, False), (coarse_quantizer_loop(), True)):
        calls = count_routes(monkeypatch)
        blocks = []
        original_block = loops._NonlinearLoop._block

        def block(*args):
            before = calls["apply_sensor(ndarray)"]
            done = original_block(*args)
            blocks.append(calls["apply_sensor(ndarray)"] - before)
            return done

        monkeypatch.setattr(loops._NonlinearLoop, "_block", block)
        simulate_loop(spec)
        assert (calls["run"] > 0) == steps
        # The guess, then at most _ROUNDS verifications, each one array call.
        assert blocks and max(blocks) <= 1 + loops._ROUNDS
        assert calls["apply_sensor(ndarray)"] == sum(blocks) < spec.sim.steps / 20
        if not steps:
            assert calls["apply_sensor(float)"] == 0
        monkeypatch.undo()


def test_a_sweep_loop_verifies_in_long_blocks(monkeypatch):
    # 20 s in blocks of up to 1,024 samples, a few array calls each, none
    # stepped, and read as the stepper reads them.
    spec = sweep_loop(20.0)
    calls = count_routes(monkeypatch)
    result = simulate_loop(spec)
    assert calls["run"] == 0 and calls["apply_sensor(float)"] == 0
    assert 0 < calls["apply_sensor(ndarray)"] < spec.sim.steps / 200
    _, rows, end = reference_loop(spec)
    assert not result.diverged and end == len(result.series)
    assert_same_bits(result.series["y_measured"], rows[:, 1])
    y_true = result.series["y_true"]
    assert np.max(np.abs(y_true - rows[:, 0])) <= 1e-12 * np.max(np.abs(rows[:, 0]))


@pytest.mark.parametrize("fault, edge", [
    (FaultSpec(kind="stuck", onset_t=1.0225), 1023),  # the first stuck sample
    (FaultSpec(kind="dropout", onset_t=1.5, duration=0.5485), 2049),  # the first reading after the window
], ids=["stuck_from_sample_1023", "dropout_to_sample_2049"])
def test_a_window_beside_a_multiple_of_the_longest_block_reads_as_the_stepper(fault, edge, monkeypatch):
    # Noise and quantizer as a fault-sweep job's.  The run takes one pass;
    # its blocks are cut at the window's edge, one sample off 1,024 or 2,048.
    spec = replace(sweep_loop(3.0), fault=fault)
    active = fault.active(np.arange(spec.sim.steps + 1) * spec.sim.dt)
    assert np.flatnonzero(np.diff(active)).tolist()[-1 if fault.duration else 0] + 1 == edge
    calls = collections.Counter()
    original_run = loops._NonlinearLoop.run

    def run(*args):
        calls["run"] += 1
        return original_run(*args)

    monkeypatch.setattr(loops._NonlinearLoop, "run", run)
    result = assert_block_route_matches(spec, monkeypatch)  # readings bit for bit, divergence_time equal
    assert calls["run"] == 1 and not result.diverged


def test_a_block_without_ticks_costs_one_plan_apply(monkeypatch):
    # A stuck quantized sensor from 5 s: each block of the window reads the
    # held value, so it needs no guess, no rounds and no stepping.
    spec = replace(sweep_loop(), fault=FaultSpec(kind="stuck", onset_t=5.0))
    calls = count_routes(monkeypatch)
    applies, held = [], []
    original_apply, original_block = loops.PropagationPlan.apply, loops._NonlinearLoop._block

    def apply(plan, *args):
        applies.append(plan)
        return original_apply(plan, *args)

    def block(loop, sp, ticking, *args):
        before = len(applies)
        done = original_block(loop, sp, ticking, *args)
        if not ticking:
            held.append((len(applies) == before + 1 and applies[-1] is loop.open, done == len(sp)))
        return done

    monkeypatch.setattr(loops.PropagationPlan, "apply", apply)
    monkeypatch.setattr(loops._NonlinearLoop, "_block", block)
    result = simulate_loop(spec)
    assert len(held) >= 5 and all(one and whole for one, whole in held)
    assert calls["run"] == 0 and calls["apply_sensor(float)"] == 0
    onset = int(np.argmax(result.series.t >= 5.0))
    ym = result.series["y_measured"]
    assert np.all(ym[onset:] == ym[onset - 1])


def test_the_stepper_takes_short_stretches(monkeypatch):
    # Where blocks do not verify, the stepper takes at most _BLOCK samples
    # at a time, and no more in all than 128-sample blocks left it.
    stretches = []
    original = loops._NonlinearLoop._step

    def step(self, sp, *args):
        stretches.append(len(sp))
        return original(self, sp, *args)

    monkeypatch.setattr(loops._NonlinearLoop, "_step", step)
    spec = coarse_quantizer_loop(20.0)
    result = simulate_loop(spec)
    assert stretches and max(stretches) <= loops._BLOCK == 128
    assert sum(stretches) <= 6014
    assert_same_bits(result.series["y_measured"], reference_loop(spec)[1][:, 1])


def test_a_stepped_loop_steps_a_longest_block_at_a_time(monkeypatch):
    # A stepped stretch holds its rows as Python floats until it writes
    # them, so a long run that does not verify blocks is stepped in pieces.
    stretches = []
    original = loops._NonlinearLoop._step

    def step(self, sp, *args):
        stretches.append(len(sp))
        return original(self, sp, *args)

    monkeypatch.setattr(loops._NonlinearLoop, "_step", step)
    spec = LoopSpec(
        plant=tf_new([1.0], [1.0, 3.0, 2.0]), gains=PidGains(kp=4.0, ki=2.0, output_min=-1.5, output_max=1.5),
        setpoint=SetpointProfile.step(1.0), sensor=SensorModel(noise_sigma=1e-3, quantization_step=2e-3),
        seed=11, sim=SimConfig(dt=1e-3, t_end=2.5),
    )
    result = assert_matches_reference(spec)
    assert stretches == [loops._LONGEST_BLOCK, loops._LONGEST_BLOCK, 453] and np.any(result.series["u"] == 1.5)


@pytest.mark.parametrize("fault", [
    # Opens at sample 1022, between the ticks at 1020 and 1023, and stays
    # open past the chunk edge at sample 1024.
    FaultSpec(kind="stuck", onset_t=1.0215),
    FaultSpec(kind="dropout", onset_t=0.0, duration=0.2505),  # no reading before it to hold
], ids=["stuck_across_the_chunk_edge", "dropout_from_the_start"])
def test_a_stepped_loop_holds_its_reading_through_the_window(fault, monkeypatch):
    spec = LoopSpec(
        plant=tf_new([1.0], [1.0, 3.0, 2.0]), gains=PidGains(kp=4.0, ki=2.0, output_min=-1.5, output_max=1.5),
        setpoint=SetpointProfile.step(1.0), fault=fault, seed=11, sim=SimConfig(dt=1e-3, t_end=2.0),
        sensor=SensorModel(noise_sigma=1e-3, quantization_step=2e-3, sample_dt=3e-3),
    )
    calls = count_routes(monkeypatch)
    result = assert_matches_reference(spec)
    assert calls["_block"] == 0 and calls["run"] > 0
    assert_same_bits(result.series["y_measured"], reference_loop(spec)[1][:, 1])
    assert np.any(result.series["u"] == 1.5)
    held = result.series["y_measured"][fault.active(result.series.t)]
    assert held.size > 200 and np.all(held == held[0])


@given(
    plant=st.sampled_from(sorted(PLANTS)), controller=st.sampled_from(sorted(CONTROLLERS)),
    seed=st.integers(0, 2**31 - 1), noise=st.sampled_from([0.0, 1e-3, 1e-2]),
    step=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 1e-1]),
    kind=st.one_of(st.none(), st.sampled_from(list(FaultKind))),
    onset=st.floats(0.0, 2.0), duration=st.one_of(st.none(), st.floats(1e-3, 1.0)),
    magnitude=st.floats(-0.5, 0.5), samples=st.integers(1, 2000),
)
@settings(max_examples=40, deadline=None)
def test_fuzzed_loops_match_the_reference_stepper(
    plant, controller, seed, noise, step, kind, onset, duration, magnitude, samples
):
    rng = np.random.default_rng(seed)
    fault = None if kind is None else FaultSpec(kind=kind, onset_t=onset, magnitude=magnitude, duration=duration)
    assert_matches_reference(LoopSpec(
        plant=PLANTS[plant](rng), gains=CONTROLLERS[controller](rng), setpoint=PROFILES["ramp_hold"],
        sensor=SensorModel(noise_sigma=noise, quantization_step=step), fault=fault, seed=seed,
        sim=SimConfig(dt=1e-3, t_end=samples * 1e-3),
    ))


# ---------------------------------------------------------------------------
# Batches: linear loops that differ in gains scanned through one plan
# ---------------------------------------------------------------------------

BRANCH_SETS = {  # ki = 0 or > 0; no kd, kd with a finite n, kd with the ideal n
    "p": lambda rng: PidGains(kp=rng.uniform(0.5, 5.0)),
    "pi": lambda rng: PidGains(kp=rng.uniform(0.5, 5.0), ki=rng.uniform(0.5, 5.0)),
    "pd_filtered": lambda rng: PidGains(kp=rng.uniform(0.5, 5.0), kd=rng.uniform(0.01, 0.1),
                                        derivative_filter_n=rng.uniform(20.0, 200.0)),
    "pid_ideal": lambda rng: PidGains(kp=rng.uniform(0.5, 5.0), ki=rng.uniform(0.5, 5.0),
                                      kd=rng.uniform(1e-4, 1e-3), derivative_filter_n=math.inf),
}


def diverging_gains(template: LoopSpec) -> PidGains:
    """The first proportional gain of a decade ladder whose loop diverges
    after its first block, or failing that the first that diverges."""
    diverging = []
    for exponent in range(2, 60):
        gains = PidGains(kp=10.0 ** exponent)
        result = simulate_loop(replace(template, gains=gains))
        if result.diverged and len(result.series) > 16:
            return gains
        if result.diverged:
            diverging.append(gains)
    return diverging[0]


@pytest.mark.parametrize("seed", range(12))
def test_a_batch_runs_each_loop_as_it_runs_alone_bit_for_bit(seed):
    rng = np.random.default_rng(9000 + seed)
    order = 1 + seed % 8  # 5 to 12 loop states
    plant = tf_new([rng.uniform(0.5, 2.0)], np.poly(-rng.uniform(0.5, 5.0, size=order)))
    template = LoopSpec(plant=plant, gains=PidGains(), setpoint=PROFILES["ramp_hold"],
                        sim=SimConfig(dt=1e-3, t_end=float(rng.uniform(0.5, 2.0))))
    size = 1 + int(rng.integers(12))
    gains = [BRANCH_SETS[kind](rng) for kind in rng.choice(list(BRANCH_SETS), size=size)]
    # One loop that diverges and, where the batch has room, one whose step
    # map's powers overflow before m^16, so it is planned with a shorter block.
    for extra, where in zip((diverging_gains(template), PidGains(kp=1e150)), rng.permutation(size)):
        gains[where] = extra
    specs = [replace(template, gains=g) for g in gains]
    frame = LoopFrame(template)
    batched = [simulate_loop(spec, frame) for run in frame.batches(specs) for spec in run]
    assert not frame.prepared  # every prepared loop used its starts
    for spec, result in zip(specs, batched):
        alone = simulate_loop(spec)
        assert result.diverged == alone.diverged and result.divergence_time == alone.divergence_time
        for name in CHANNELS:
            assert result.series[name].tobytes() == alone.series[name].tobytes(), (spec.gains, name)
        assert result.diverged == (spec.gains.kp >= 100.0), spec.gains


def test_the_multibody_demo_scans_its_two_loops_as_one_batch(monkeypatch):
    plans = []
    original = loops.PropagationPlan.__init__

    def counting(self, m, *args):
        plans.append(np.shape(m))
        original(self, m, *args)

    monkeypatch.setattr(loops.PropagationPlan, "__init__", counting)
    demo = multibody_demo(sim=SimConfig(dt=2e-3, t_end=20.0))
    # The open loop's 8 states, a batch of one, then the ideal and filtered
    # loops, 12 states each.
    assert plans == [(1, 8, 8), (2, 12, 12)]
    assert demo.closed_ideal.spec.gains != demo.closed_filtered.spec.gains
