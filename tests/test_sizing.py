"""Sizing chain: golden values, hand-derived spot checks, and identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollsim.sizing import (
    ContactModel,
    SizingInputs,
    compression_force,
    contact_length,
    gear_ratio,
    motor_power,
    roll_angular_velocity,
    roll_torque,
    size_report,
    vfd_frequency,
)

MILL = SizingInputs(
    sigma_y=150e6,
    width_w=1.0,
    t_initial=0.005,
    t_final=0.001,
    roll_diameter_D=0.25,
    line_speed_v=0.5,
    motor_rpm=1500,
    motor_poles=4,
)


# ---------------------------------------------------------------------------
# Individual operations
# ---------------------------------------------------------------------------

def test_contact_length_approx():
    assert contact_length(0.005, 0.001, 0.25, ContactModel.APPROX) == pytest.approx(0.004)


def test_contact_length_zero_draft():
    assert contact_length(0.003, 0.003, 0.25, ContactModel.APPROX) == 0.0
    assert contact_length(0.003, 0.003, 0.25, ContactModel.EXACT) == 0.0


def test_contact_length_exact():
    exact = contact_length(0.005, 0.001, 0.25, ContactModel.EXACT)
    assert exact == pytest.approx(0.25 * math.asin(0.016), rel=1e-12)
    assert exact == pytest.approx(0.0040002, abs=1e-6)
    assert abs(exact - 0.004) / 0.004 < 1e-4  # under 0.01 percent here


def test_contact_length_domain_error():
    with pytest.raises(ValueError, match="arcsin"):
        contact_length(2.0, 0.5, 1.0, ContactModel.EXACT)


def test_compression_force_golden():
    assert compression_force(MILL) == pytest.approx(600_000.0, rel=1e-12)


def test_compression_force_zero_draft():
    flat = SizingInputs(t_initial=0.003, t_final=0.003)
    assert compression_force(flat) == 0.0


def test_compression_force_hand_value():
    inputs = SizingInputs(sigma_y=200e6, width_w=0.5, t_initial=0.003, t_final=0.001)
    assert compression_force(inputs) == pytest.approx(200_000.0)


def test_roll_torque():
    assert roll_torque(600_000.0, 0.25) == pytest.approx(75_000.0)
    assert roll_torque(0.0, 0.25) == 0.0
    assert roll_torque(100_000.0, 0.3) == pytest.approx(15_000.0)


def test_roll_angular_velocity():
    omega, rpm = roll_angular_velocity(0.5, 0.25)
    assert omega == pytest.approx(4.0)
    assert rpm == pytest.approx(38.197, abs=1e-3)
    assert roll_angular_velocity(0.0, 0.25)[0] == 0.0
    assert roll_angular_velocity(1.0, 0.25)[0] == pytest.approx(8.0)


def test_motor_power():
    assert motor_power(75_000.0, 4.0) == pytest.approx(300_000.0)
    assert motor_power(0.0, 4.0) == 0.0
    assert motor_power(10_000.0, 2.0) == pytest.approx(20_000.0)


def test_gear_ratio_conventions():
    assert gear_ratio(1500, 38) == pytest.approx(39.47, abs=0.01)
    assert gear_ratio(1500, 38.197186) == pytest.approx(39.27, abs=0.01)
    assert gear_ratio(750, 750) == 1.0
    with pytest.raises(ValueError):
        gear_ratio(1500, 0.0)


def test_vfd_frequency():
    assert vfd_frequency(1500, 4) == pytest.approx(50.0)
    assert vfd_frequency(0, 4) == 0.0
    assert vfd_frequency(900, 8) == pytest.approx(60.0)
    with pytest.raises(ValueError):
        vfd_frequency(1500, 3)
    with pytest.raises(ValueError):
        vfd_frequency(1500, 0)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def test_size_report_golden_chain():
    r = size_report(MILL)
    assert r.contact_length_L == pytest.approx(0.004, rel=1e-12)
    assert r.contact_area_A == pytest.approx(0.004, rel=1e-12)
    assert r.force_F == pytest.approx(6.0e5, rel=1e-9)
    assert r.torque_T == pytest.approx(7.5e4, rel=1e-9)
    assert r.omega == pytest.approx(4.0, rel=1e-9)
    assert r.roll_rpm == pytest.approx(38.197, abs=1e-3)
    assert r.power_P == pytest.approx(3.0e5, rel=1e-9)
    assert r.gear_ratio_R == pytest.approx(39.27, abs=0.01)
    assert r.gear_ratio_rounded == pytest.approx(39.47, abs=0.01)
    assert r.vfd_frequency == 50.0


def test_size_report_zero_draft_keeps_kinematics():
    flat = SizingInputs(t_initial=0.003, t_final=0.003)
    r = size_report(flat)
    assert r.force_F == 0.0
    assert r.torque_T == 0.0
    assert r.power_P == 0.0
    assert r.omega == pytest.approx(4.0)
    assert r.vfd_frequency == 50.0


def test_size_report_speed_scaling():
    base = size_report(MILL)
    doubled = size_report(
        SizingInputs(
            sigma_y=MILL.sigma_y, width_w=MILL.width_w,
            t_initial=MILL.t_initial, t_final=MILL.t_final,
            roll_diameter_D=MILL.roll_diameter_D, line_speed_v=1.0,
            motor_rpm=MILL.motor_rpm, motor_poles=MILL.motor_poles,
        )
    )
    assert doubled.omega == pytest.approx(2 * base.omega)
    assert doubled.power_P == pytest.approx(2 * base.power_P)
    assert doubled.force_F == base.force_F
    assert doubled.torque_T == base.torque_T


def test_input_invariants():
    with pytest.raises(ValueError):
        SizingInputs(t_initial=0.001, t_final=0.005)   # growth, not reduction
    with pytest.raises(ValueError):
        SizingInputs(t_final=0.0)
    with pytest.raises(ValueError):
        SizingInputs(motor_poles=3)
    with pytest.raises(ValueError):
        SizingInputs(sigma_y=-1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "minus_inf", "nan"])
@pytest.mark.parametrize(
    "field", ["sigma_y", "width_w", "t_initial", "t_final", "roll_diameter_D", "line_speed_v", "motor_rpm"]
)
def test_non_finite_inputs_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        SizingInputs(**{field: value})


@pytest.mark.parametrize("field", ["motor_poles", "sigma_y"])
def test_an_integer_too_large_for_a_float_is_rejected(field):
    with pytest.raises(ValueError, match=f"^{field} is too large for a float$"):
        SizingInputs(**{field: 10**400})


def test_a_roll_speed_that_overflows_is_rejected():
    with pytest.raises(ValueError, match="roll speed"):
        SizingInputs(line_speed_v=1e308, roll_diameter_D=1e-300, t_initial=1e-301, t_final=1e-302)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"sigma_y": 1e300, "width_w": 1e100}, "force_F"),
        ({"sigma_y": 1e300, "width_w": 1e5, "roll_diameter_D": 1e10}, "torque_T"),
        ({"sigma_y": 1e300, "line_speed_v": 1e20}, "power_P"),
        ({"motor_rpm": 1e308}, "vfd_frequency"),
    ],
    ids=["force", "torque", "power", "vfd_frequency"],
)
def test_a_product_that_overflows_raises_naming_it(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} overflows"):
        size_report(SizingInputs(**kwargs))


# ---------------------------------------------------------------------------
# Identities over randomized inputs
# ---------------------------------------------------------------------------

@given(
    sigma=st.floats(1e6, 1e9),
    width=st.floats(0.05, 3.0),
    t_f=st.floats(1e-4, 5e-3),
    draft=st.floats(0.0, 5e-3),
    speed=st.floats(0.01, 5.0),
)
@settings(max_examples=100, deadline=None)
def test_power_and_torque_identities(sigma, width, t_f, draft, speed):
    inputs = SizingInputs(
        sigma_y=sigma, width_w=width, t_initial=t_f + draft, t_final=t_f,
        line_speed_v=speed,
    )
    r = size_report(inputs)
    assert r.torque_T == pytest.approx(r.force_F * inputs.roll_diameter_D / 2, rel=1e-9)
    assert r.power_P == pytest.approx(r.torque_T * r.omega, rel=1e-9)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_force_linear_in_each_factor(scale):
    base = compression_force(MILL)
    scaled_sigma = SizingInputs(
        sigma_y=150e6 * scale, width_w=1.0, t_initial=0.005, t_final=0.001
    )
    scaled_width = SizingInputs(
        sigma_y=150e6, width_w=scale, t_initial=0.005, t_final=0.001
    )
    assert compression_force(scaled_sigma) == pytest.approx(base * scale, rel=1e-12)
    assert compression_force(scaled_width) == pytest.approx(base * scale, rel=1e-12)


@given(draft_ratio=st.floats(1e-4, 0.0999))
@settings(max_examples=100, deadline=None)
def test_exact_vs_approx_below_half_percent(draft_ratio):
    D = 0.25
    draft = draft_ratio * D
    approx = contact_length(draft, 0.0, D, ContactModel.APPROX)
    exact = contact_length(draft, 0.0, D, ContactModel.EXACT)
    assert abs(exact - approx) / approx < 0.005


@given(rpm=st.floats(1.0, 4000.0), poles=st.sampled_from([2, 4, 6, 8, 12]))
@settings(max_examples=100, deadline=None)
def test_vfd_round_trip(rpm, poles):
    f = vfd_frequency(rpm, poles)
    assert 120.0 * f / poles == pytest.approx(rpm, rel=1e-12)
