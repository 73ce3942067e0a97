"""Closed-loop simulation: setpoint profiles, steady-state analytics,
stability verdicts, and the multibody demo."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rollsim.faults import FaultSpec, SensorModel
from rollsim.loops import (
    LoopSpec,
    MULTIBODY_REFERENCE_GAINS,
    Segment,
    SetpointProfile,
    StabilityVerdict,
    classify_polynomial_stability,
    multibody_demo,
    series_is_bounded,
    simulate_loop,
    speed_loop,
    thickness_loop,
)
from rollsim.lti import RouthVerdict, SimConfig, dc_gain, tf_new
from rollsim.pid import PidGains
from rollsim.plants import KinematicsMode, PowerScrewParams, RollDriveParams


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
    r = speed_loop(
        RollDriveParams(), PidGains(kp=8.0, ki=2.0),
        SetpointProfile.step(0.0), SimConfig(dt=1e-3, t_end=2.0),
    )
    for name in ("setpoint", "y_true", "y_measured", "error", "u"):
        assert np.all(r.series[name] == 0.0)


def test_p_only_speed_loop_static_error():
    # Type-0 loop: e_ss = sp / (1 + kp * r * K / B).
    kp = 8.0
    r = speed_loop(
        RollDriveParams(), PidGains(kp=kp), SetpointProfile.step(1.0),
        SimConfig(dt=1e-3, t_end=20.0),
    )
    expected = 1.0 / (1.0 + kp * 0.125)
    assert r.metrics.steady_state_error == pytest.approx(expected, rel=5e-3)
    assert r.stability_verdict is StabilityVerdict.POLES_STABLE


def test_pi_speed_loop_zero_error():
    r = speed_loop(
        RollDriveParams(), PidGains(kp=8.0, ki=8.0), SetpointProfile.step(0.5),
        SimConfig(dt=1e-3, t_end=20.0),
    )
    assert abs(r.metrics.steady_state_error) < 0.005 * 0.5


def test_doubling_radius_halves_error_ratio():
    kp = 4.0
    sp = SetpointProfile.step(1.0)
    cfg = SimConfig(dt=1e-3, t_end=20.0)
    base = speed_loop(RollDriveParams(r=0.125), PidGains(kp=kp), sp, cfg)
    wide = speed_loop(RollDriveParams(r=0.25), PidGains(kp=kp), sp, cfg)
    expect_base = 1.0 / (1.0 + kp * 0.125)
    expect_wide = 1.0 / (1.0 + kp * 0.25)
    assert base.metrics.steady_state_error == pytest.approx(expect_base, rel=5e-3)
    assert wide.metrics.steady_state_error == pytest.approx(expect_wide, rel=5e-3)


def test_thickness_literal_static_error():
    kp = 500.0
    p = PowerScrewParams()
    x_ref = 0.002
    r = thickness_loop(
        p, KinematicsMode.PAPER_LITERAL, PidGains(kp=kp),
        SetpointProfile.step(x_ref), SimConfig(dt=1e-3, t_end=30.0),
    )
    gain = p.lead * p.K_ps / (2.0 * math.pi * p.B_ps)
    expected = x_ref / (1.0 + kp * gain)
    assert r.metrics.steady_state_error == pytest.approx(expected, rel=5e-3)


def test_thickness_integrated_type1_zero_error():
    r = thickness_loop(
        PowerScrewParams(), KinematicsMode.INTEGRATED, PidGains(kp=5000.0),
        SetpointProfile.step(0.002), SimConfig(dt=1e-3, t_end=20.0),
    )
    assert abs(r.metrics.steady_state_error) < 0.005 * 0.002


def test_ki_strictly_reduces_steady_state_error():
    sp = SetpointProfile.step(1.0)
    cfg = SimConfig(dt=1e-3, t_end=10.0)
    errors = []
    for ki in (0.0, 0.25, 0.5, 1.0):
        r = speed_loop(RollDriveParams(), PidGains(kp=4.0, ki=ki), sp, cfg)
        errors.append(abs(r.metrics.steady_state_error))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_final_value_tracks_closed_loop_dc_gain():
    # Linear stable loops must land on the closed-loop DC gain.
    for kp, ki in ((2.0, 0.0), (8.0, 0.0), (3.0, 2.0)):
        r = speed_loop(
            RollDriveParams(), PidGains(kp=kp, ki=ki), SetpointProfile.step(1.0),
            SimConfig(dt=1e-3, t_end=25.0),
        )
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


# A P controller around a pure gain has a constant characteristic
# polynomial, which the pole analysis cannot classify; that pair is left out.
PAIRS = [(p, c) for p in PLANTS for c in CONTROLLERS if (p, c) != ("gain", "p")]


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
    assert demo.filtered_verdict is StabilityVerdict.POLES_UNSTABLE
    assert demo.closed_filtered.bounded is False

    # Internal consistency: pole analysis agrees with time-domain behavior.
    assert demo.closed_ideal.stability_verdict is demo.ideal_verdict
    for result in (demo.closed_ideal, demo.closed_filtered):
        unstable = result.stability_verdict is StabilityVerdict.POLES_UNSTABLE
        assert unstable == (not result.bounded)


def test_multibody_demo_ideal_uses_raw_derivative():
    demo = multibody_demo(sim=SimConfig(dt=5e-3, t_end=5.0))
    assert demo.closed_ideal.series["u"][0] != demo.closed_filtered.series["u"][0]


def test_classify_polynomial_stability_bands():
    assert classify_polynomial_stability([1, 2, 1]) is StabilityVerdict.POLES_STABLE
    assert classify_polynomial_stability([1, -2, 1]) is StabilityVerdict.POLES_UNSTABLE
    assert classify_polynomial_stability([1, 0, 1]) is StabilityVerdict.POLES_MARGINAL


def test_series_is_bounded_on_growth():
    import rollsim.lti as lti
    t = np.arange(2000) * 0.01
    growing = lti.TimeSeries(t=t, channels={"y": np.exp(0.5 * t)})
    flat = lti.TimeSeries(t=t, channels={"y": np.sin(t)})
    assert not series_is_bounded(growing)
    assert series_is_bounded(flat)
