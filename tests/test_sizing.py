"""Sizing chain: golden values, hand-derived spot checks, and identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollsim.sizing import ContactModel, SizingInputs, size_report

MILL = SizingInputs(
    sigma_y=150e6,
    width=1.0,
    t_initial=0.005,
    t_final=0.001,
    roll_diameter=0.25,
    line_speed=0.5,
    motor_rpm=1500,
    motor_poles=4,
)


# ---------------------------------------------------------------------------
# Individual operations, each read from the report
# ---------------------------------------------------------------------------

FLAT = SizingInputs(t_initial=0.003, t_final=0.003)  # zero draft


def test_contact_length_approx():
    assert size_report(MILL, ContactModel.APPROX).contact_length_L == pytest.approx(0.004)


def test_contact_length_zero_draft():
    assert size_report(FLAT, ContactModel.APPROX).contact_length_L == 0.0
    assert size_report(FLAT, ContactModel.EXACT).contact_length_L == 0.0


def test_contact_length_exact():
    exact = size_report(MILL, ContactModel.EXACT).contact_length_L
    assert exact == pytest.approx(0.25 * math.asin(0.016), rel=1e-12)
    assert exact == pytest.approx(0.0040002, abs=1e-6)
    assert abs(exact - 0.004) / 0.004 < 1e-4  # under 0.01 percent here


def test_contact_length_domain_error():
    # A draft past the roll diameter would leave the arcsin's domain.
    with pytest.raises(ValueError, match="^roll_diameter: must exceed the draft"):
        SizingInputs(t_initial=2.0, t_final=0.5, roll_diameter=1.0)


def test_compression_force_golden():
    assert size_report(MILL).force_F == pytest.approx(600_000.0, rel=1e-12)


def test_compression_force_zero_draft():
    assert size_report(FLAT).force_F == 0.0


def test_compression_force_hand_value():
    inputs = SizingInputs(sigma_y=200e6, width=0.5, t_initial=0.003, t_final=0.001)
    assert size_report(inputs).force_F == pytest.approx(200_000.0)


def test_roll_torque():
    assert size_report(MILL).torque_T == pytest.approx(75_000.0)
    assert size_report(FLAT).torque_T == 0.0
    inputs = SizingInputs(sigma_y=100e6, t_initial=0.002, t_final=0.001, roll_diameter=0.3)  # F = 100 kN
    assert size_report(inputs).torque_T == pytest.approx(15_000.0)


def test_roll_angular_velocity():
    r = size_report(MILL)
    assert r.omega == pytest.approx(4.0)
    assert r.roll_rpm == pytest.approx(38.197, abs=1e-3)
    assert size_report(SizingInputs(line_speed=0.0)).omega == 0.0
    assert size_report(SizingInputs(line_speed=1.0)).omega == pytest.approx(8.0)


def test_motor_power():
    assert size_report(MILL).power_P == pytest.approx(300_000.0)
    assert size_report(FLAT).power_P == 0.0
    inputs = SizingInputs(sigma_y=80e6, t_initial=0.002, t_final=0.001, line_speed=0.25)  # T = 10 kN m, omega = 2
    assert size_report(inputs).power_P == pytest.approx(20_000.0)


def test_gear_ratio_conventions():
    r = size_report(MILL)
    assert r.gear_ratio_rounded == pytest.approx(39.47, abs=0.01)  # 1500 / 38
    assert r.gear_ratio_R == pytest.approx(39.27, abs=0.01)  # 1500 / 38.197186
    # 750 roll rpm in rad/s times the roll radius, 0.125 m.
    at_750_rpm = SizingInputs(motor_rpm=750.0, line_speed=750.0 * 2.0 * math.pi / 60.0 * 0.125)
    assert size_report(at_750_rpm).gear_ratio_R == pytest.approx(1.0)
    assert size_report(SizingInputs(line_speed=0.0)).gear_ratio_R == math.inf


def test_vfd_frequency():
    assert size_report(MILL).vfd_frequency == pytest.approx(50.0)
    assert size_report(SizingInputs(motor_rpm=900.0, motor_poles=8)).vfd_frequency == pytest.approx(60.0)
    with pytest.raises(ValueError, match="^motor_poles: must be an even count"):
        SizingInputs(motor_poles=3)
    with pytest.raises(ValueError, match="^motor_poles: must be an even count"):
        SizingInputs(motor_poles=0)


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
    r = size_report(FLAT)
    assert r.force_F == 0.0
    assert r.torque_T == 0.0
    assert r.power_P == 0.0
    assert r.omega == pytest.approx(4.0)
    assert r.vfd_frequency == 50.0


def test_size_report_speed_scaling():
    base = size_report(MILL)
    doubled = size_report(
        SizingInputs(
            sigma_y=MILL.sigma_y, width=MILL.width,
            t_initial=MILL.t_initial, t_final=MILL.t_final,
            roll_diameter=MILL.roll_diameter, line_speed=1.0,
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
    "field", ["sigma_y", "width", "t_initial", "t_final", "roll_diameter", "line_speed", "motor_rpm"]
)
def test_non_finite_inputs_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field}: must be finite$"):
        SizingInputs(**{field: value})


@pytest.mark.parametrize("field", ["motor_poles", "sigma_y"])
def test_an_integer_too_large_for_a_float_is_rejected(field):
    with pytest.raises(ValueError, match=f"^{field}: too large for a float$"):
        SizingInputs(**{field: 10**400})


def test_a_roll_speed_that_overflows_is_rejected():
    with pytest.raises(ValueError, match="^line_speed: the roll speed"):
        SizingInputs(line_speed=1e308, roll_diameter=1e-300, t_initial=1e-301, t_final=1e-302)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"sigma_y": 1e300, "width": 1e100}, "force_F"),
        ({"sigma_y": 1e300, "width": 1e5, "roll_diameter": 1e10}, "torque_T"),
        ({"sigma_y": 1e300, "line_speed": 1e20}, "power_P"),
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
        sigma_y=sigma, width=width, t_initial=t_f + draft, t_final=t_f,
        line_speed=speed,
    )
    r = size_report(inputs)
    assert r.torque_T == pytest.approx(r.force_F * inputs.roll_diameter / 2, rel=1e-9)
    assert r.power_P == pytest.approx(r.torque_T * r.omega, rel=1e-9)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_force_linear_in_each_factor(scale):
    base = size_report(MILL).force_F
    scaled_sigma = SizingInputs(
        sigma_y=150e6 * scale, width=1.0, t_initial=0.005, t_final=0.001
    )
    scaled_width = SizingInputs(
        sigma_y=150e6, width=scale, t_initial=0.005, t_final=0.001
    )
    assert size_report(scaled_sigma).force_F == pytest.approx(base * scale, rel=1e-12)
    assert size_report(scaled_width).force_F == pytest.approx(base * scale, rel=1e-12)


@given(draft_ratio=st.floats(1e-4, 0.0999))
@settings(max_examples=100, deadline=None)
def test_exact_vs_approx_below_half_percent(draft_ratio):
    D = 0.25
    inputs = SizingInputs(t_initial=0.001 + draft_ratio * D, t_final=0.001, roll_diameter=D)
    approx = size_report(inputs, ContactModel.APPROX).contact_length_L
    exact = size_report(inputs, ContactModel.EXACT).contact_length_L
    assert abs(exact - approx) / approx < 0.005


@given(rpm=st.floats(1.0, 4000.0), poles=st.sampled_from([2, 4, 6, 8, 12]))
@settings(max_examples=100, deadline=None)
def test_vfd_round_trip(rpm, poles):
    f = size_report(SizingInputs(motor_rpm=rpm, motor_poles=poles)).vfd_frequency
    assert 120.0 * f / poles == pytest.approx(rpm, rel=1e-12)
