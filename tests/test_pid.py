"""PID stepping, transfer-function form, and closed-loop composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollsim.lti import dc_gain, tf_new
from rollsim.loops import LoopSpec, SetpointProfile, simulate_loop
from rollsim.lti import SimConfig
from rollsim.pid import (
    PidGains,
    PidState,
    characteristic_polynomial,
    closed_loop_tf,
    pid_rational_terms,
    pid_step,
    pid_tf,
)
from rollsim.plants import RollDriveParams, roll_drive_tf

# Reference multibody tuning used across the demo tests.
REF = dict(kp=0.00941, ki=6.53e-05, kd=0.339)


# ---------------------------------------------------------------------------
# Discrete stepping
# ---------------------------------------------------------------------------

def test_zero_gains_zero_output():
    out, state = pid_step(PidState(), 3.7, 1e-3, PidGains())
    assert out == 0.0
    assert state.integral == 0.0


def test_pure_proportional():
    out, state = pid_step(PidState(), 1.0, 1e-3, PidGains(kp=2.0))
    assert out == 2.0
    assert state.prev_error == 1.0
    assert state.integral == 0.0
    assert state.prev_derivative == 0.0


def test_constant_error_integral_analytic():
    # Constant error 1 for 1 s: output = kp + ki * 1, derivative quiet.
    gains = PidGains(**REF)
    state = PidState()
    out = 0.0
    for _ in range(1000):
        out, state = pid_step(state, 1.0, 1e-3, gains)
    assert out == pytest.approx(0.00941 + 6.53e-05, abs=1e-6)


def test_trapezoid_integral_of_ramp():
    # e(t) = t integrated by trapezoid is exact: integral(T) = T^2/2.
    gains = PidGains(ki=1.0)
    state = PidState()
    dt = 1e-3
    out = 0.0
    for k in range(1, 1001):
        out, state = pid_step(state, k * dt, dt, gains)
    assert out == pytest.approx(0.5, rel=1e-9)


def test_derivative_disabled_when_n_zero():
    gains = PidGains(kd=5.0, derivative_filter_n=0.0)
    out, _ = pid_step(PidState(), 1.0, 1e-3, gains)
    assert out == 0.0


def test_raw_derivative_with_infinite_filter():
    gains = PidGains(kd=2.0, derivative_filter_n=math.inf)
    out, state = pid_step(PidState(), 0.5, 1e-3, gains)
    assert out == pytest.approx(2.0 * 0.5 / 1e-3)
    out2, _ = pid_step(state, 0.5, 1e-3, gains)
    assert out2 == 0.0  # flat error, zero difference


def test_filtered_derivative_lags_raw():
    raw = PidGains(kd=1.0, derivative_filter_n=math.inf)
    filt = PidGains(kd=1.0, derivative_filter_n=10.0)
    r, _ = pid_step(PidState(), 1.0, 1e-3, raw)
    f, _ = pid_step(PidState(), 1.0, 1e-3, filt)
    assert 0.0 < f < r


def test_saturation_clamps():
    gains = PidGains(kp=10.0, output_min=-1.0, output_max=1.0)
    hi, _ = pid_step(PidState(), 5.0, 1e-3, gains)
    lo, _ = pid_step(PidState(), -5.0, 1e-3, gains)
    assert hi == 1.0
    assert lo == -1.0


def test_anti_windup_integral_bound():
    # Step into a saturating PI loop: the integral term may never exceed
    # the value that alone would produce output_max.
    gains = PidGains(kp=2.0, ki=4.0, output_min=-1.0, output_max=1.0)
    state = PidState()
    for _ in range(5000):
        _, state = pid_step(state, 1.0, 1e-3, gains)
        assert gains.ki * state.integral <= gains.output_max + 1e-12


def test_anti_windup_still_integrates_against_saturation():
    # Saturated high with negative error must keep integrating downward.
    gains = PidGains(ki=1.0, output_min=-1.0, output_max=1.0)
    state = PidState(integral=5.0)  # wound up
    _, state2 = pid_step(state, -1.0, 1e-3, gains)
    assert state2.integral < state.integral


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pid_step(PidState(), math.nan, 1e-3, PidGains(kp=1.0))
    with pytest.raises(ValueError):
        pid_step(PidState(), 1.0, 0.0, PidGains(kp=1.0))
    with pytest.raises(ValueError):
        PidGains(kp=-1.0)
    with pytest.raises(ValueError):
        PidGains(output_min=1.0, output_max=-1.0)


@pytest.mark.parametrize(
    "bad", [
        dict(kp=math.nan), dict(ki=math.nan), dict(kd=math.nan), dict(derivative_filter_n=math.nan),
        pytest.param(dict(kp=math.inf), id="kp_inf"),
        pytest.param(dict(ki=math.inf), id="ki_inf"),
        pytest.param(dict(kd=math.inf, derivative_filter_n=100.0), id="kd_inf"),
    ],
)
def test_nan_gains_rejected(bad):
    with pytest.raises(ValueError):
        PidGains(**bad)


@pytest.mark.parametrize(
    "bad",
    [dict(output_min=math.nan), dict(output_max=math.nan), dict(output_min=math.inf), dict(output_max=-math.inf)],
    ids=["min_nan", "max_nan", "min_plus_inf", "max_minus_inf"],
)
def test_unusable_output_limits_rejected(bad):
    # A limit that pins every command to +-inf, or compares False, is an
    # input error; the open ends -inf and +inf stay allowed.
    with pytest.raises(ValueError, match=next(iter(bad))):
        PidGains(kp=1.0, **bad)
    assert PidGains(kp=1.0, output_min=-math.inf, output_max=math.inf).saturates


@given(
    scale=st.floats(0.1, 10.0),
    errors=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_unsaturated_output_linear_in_error_history(scale, errors):
    gains = PidGains(kp=1.3, ki=0.7, kd=0.2, derivative_filter_n=50.0)
    s1, s2 = PidState(), PidState()
    for e in errors:
        u1, s1 = pid_step(s1, e, 1e-2, gains)
        u2, s2 = pid_step(s2, scale * e, 1e-2, gains)
        assert u2 == pytest.approx(scale * u1, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Transfer-function form
# ---------------------------------------------------------------------------

def test_pid_tf_pure_gain():
    tf = pid_tf(PidGains(kp=1.0))
    assert tf.num.tolist() == [1.0]
    assert tf.den.tolist() == [1.0]


def test_pid_tf_pure_integrator():
    tf = pid_tf(PidGains(ki=1.0))
    assert tf.num.tolist() == [1.0]
    assert tf.den.tolist() == [1.0, 0.0]


def test_pid_tf_full_coefficients_pinned():
    # Expansion of kp + ki/s + kd N s/(s+N) at N=100, verified beforehand
    # with a symbolic algebra oracle and frozen here.
    tf = pid_tf(PidGains(**REF, derivative_filter_n=100.0))
    assert tf.num == pytest.approx([33.90941, 0.9410653, 0.00653], rel=1e-12)
    assert tf.den == pytest.approx([1.0, 100.0, 0.0], rel=1e-12)


def test_pid_tf_rejects_unfiltered_derivative():
    with pytest.raises(ValueError, match="improper"):
        pid_tf(PidGains(kd=1.0))
    with pytest.raises(ValueError, match="improper"):
        pid_tf(PidGains(kd=1.0, derivative_filter_n=math.inf))


def test_pid_tf_pd_form_has_no_origin_pole():
    tf = pid_tf(PidGains(kp=2.0, kd=0.5, derivative_filter_n=10.0))
    assert tf.den.tolist() == [1.0, 10.0]
    assert tf.num == pytest.approx([7.0, 20.0])


def test_rational_terms_ideal_derivative():
    num, den = pid_rational_terms(PidGains(**REF, derivative_filter_n=math.inf))
    assert num == pytest.approx([0.339, 0.00941, 6.53e-05])
    assert den == pytest.approx([1.0, 0.0])


# ---------------------------------------------------------------------------
# Closed-loop composition
# ---------------------------------------------------------------------------

def test_unity_loop_of_unity_plant():
    tf = closed_loop_tf(pid_tf(PidGains(kp=1.0)), tf_new([1], [1]))
    assert dc_gain(tf) == pytest.approx(0.5)
    assert len(tf.den) == 1  # static loop


def test_p_control_first_order():
    kp = 3.0
    tf = closed_loop_tf(pid_tf(PidGains(kp=kp)), tf_new([1], [1, 1]))
    assert tf.den == pytest.approx([1.0, 1.0 + kp])
    assert dc_gain(tf) == pytest.approx(kp / (1.0 + kp))


def test_pi_loop_dc_gain_exactly_one():
    tf = closed_loop_tf(pid_tf(PidGains(kp=2.0, ki=1.5)), tf_new([1], [1, 1]))
    assert dc_gain(tf) == pytest.approx(1.0, rel=1e-12)


def test_closed_loop_denominator_composition():
    c = pid_tf(PidGains(kp=2.0, ki=1.5))
    g = tf_new([1, 2], [1, 3, 2])
    t = closed_loop_tf(c, g)
    raw_den = np.polyadd(np.polymul(c.den, g.den), np.polymul(c.num, g.num))
    assert np.allclose(t.den * raw_den[0], raw_den, rtol=1e-12)


def test_no_common_factor_cancellation():
    # Controller zero at -1 against plant pole at -1: the factor stays.
    c = tf_new([1, 1], [1, 0])        # (s+1)/s
    g = tf_new([1], [1, 1])           # 1/(s+1)
    t = closed_loop_tf(c, g)
    assert len(t.den) - 1 == 2        # degree 2, nothing divided out


def test_characteristic_polynomial_matches_closed_loop_denominator():
    gains = PidGains(kp=2.0, ki=1.5)
    g = tf_new([0.125], [1, 1])
    num, den = pid_rational_terms(gains)
    char = characteristic_polynomial(num, den, g)
    t = closed_loop_tf(pid_tf(gains), g)
    assert np.allclose(char / char[0], t.den, rtol=1e-12)


def test_discrete_pi_converges_to_continuous_with_dt():
    # PI on the first-order speed plant: refining dt tenfold moves the
    # response by well under 0.5 percent of the setpoint.
    plant = roll_drive_tf(RollDriveParams())
    gains = PidGains(kp=8.0, ki=8.0)
    sp = SetpointProfile.step(1.0)
    coarse = simulate_loop(LoopSpec(plant=plant, gains=gains, setpoint=sp,
                                    sim=SimConfig(dt=1e-3, t_end=5.0)))
    fine = simulate_loop(LoopSpec(plant=plant, gains=gains, setpoint=sp,
                                  sim=SimConfig(dt=1e-4, t_end=5.0)))
    y_coarse = coarse.series["y_true"]
    y_fine = fine.series["y_true"][::10]
    assert np.max(np.abs(y_coarse - y_fine)) < 0.005
