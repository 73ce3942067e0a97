"""Plant constructors: roll drive, power screw (both kinematics), multibody."""

import math

import numpy as np
import pytest

from rollsim.lti import RouthVerdict, SimConfig, dc_gain, poles, routh_classification, simulate_lti, tf_to_state_space
from rollsim.plants import (
    KinematicsMode,
    MULTIBODY_DEN,
    PowerScrewParams,
    RollDriveParams,
    multibody_tf,
    power_screw_tf,
    roll_drive_tf,
)

SCREW_GAIN = 0.005 / (2.0 * math.pi)  # lead K_ps/(2 pi) at defaults


def test_roll_drive_default_geometry():
    tf = roll_drive_tf(RollDriveParams(K=1, J=1, B=1, r=0.125))
    assert tf.num.tolist() == [0.125]
    assert tf.den.tolist() == [1.0, 1.0]


def test_roll_drive_unity_radius():
    tf = roll_drive_tf(RollDriveParams(K=1, J=1, B=1, r=1.0))
    assert tf.num.tolist() == [1.0]
    assert tf.den.tolist() == [1.0, 1.0]


def test_roll_drive_dc_gain():
    tf = roll_drive_tf(RollDriveParams(K=2, J=1, B=0.5, r=0.125))
    assert dc_gain(tf) == pytest.approx(0.5)


def test_roll_drive_pole_at_minus_b_over_j():
    tf = roll_drive_tf(RollDriveParams(K=1, J=2.0, B=0.6, r=0.1))
    assert poles(tf) == pytest.approx([-0.3])


def test_roll_drive_rejects_nonpositive():
    with pytest.raises(ValueError):
        RollDriveParams(J=0.0)


def test_power_screw_literal_gain():
    tf = power_screw_tf(PowerScrewParams(), KinematicsMode.PAPER_LITERAL)
    assert tf.num[0] == pytest.approx(7.9577e-4, rel=1e-4)
    assert tf.den.tolist() == [1.0, 1.0]


def test_power_screw_integrated_appends_origin_pole():
    tf = power_screw_tf(PowerScrewParams(), KinematicsMode.INTEGRATED)
    assert tf.den.tolist() == [1.0, 1.0, 0.0]
    p = sorted(poles(tf).real)
    assert p == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_power_screw_literal_pole():
    tf = power_screw_tf(
        PowerScrewParams(J_ps=4.0, B_ps=1.0), KinematicsMode.PAPER_LITERAL
    )
    assert poles(tf) == pytest.approx([-0.25])


def test_integrated_ramp_asymptote():
    # Type-1 plant under constant input: steady slope lead*K*V/(2 pi B).
    tf = power_screw_tf(PowerScrewParams(), KinematicsMode.INTEGRATED)
    cfg = SimConfig(dt=1e-3, t_end=20.0)
    ts = simulate_lti(tf_to_state_space(tf), np.ones(cfg.steps + 1), cfg)
    slope = (ts["y"][-1] - ts["y"][-1001]) / (ts.t[-1] - ts.t[-1001])
    assert slope == pytest.approx(SCREW_GAIN, rel=1e-6)


def test_multibody_exact_constant():
    tf = multibody_tf()
    assert tf.num.tolist() == [1.0]
    assert tf.den.tolist() == list(MULTIBODY_DEN)
    assert len(tf.den) - 1 == 8
    assert dc_gain(tf) == pytest.approx(1.0)
    assert routh_classification(tf.den) is RouthVerdict.NOT_HURWITZ


def test_plant_linearity_in_input():
    tf = roll_drive_tf(RollDriveParams())
    cfg = SimConfig(dt=1e-3, t_end=2.0)
    ss = tf_to_state_space(tf)
    one = simulate_lti(ss, np.ones(cfg.steps + 1), cfg)
    three = simulate_lti(ss, np.full(cfg.steps + 1, 3.0), cfg)
    assert np.allclose(three["y"], 3.0 * one["y"], rtol=1e-12, atol=1e-15)
