"""Drive-train sizing for a two-roll sheet mill.

From material and geometry inputs (yield strength, sheet width, draft,
roll diameter, line speed) the chain computes compression force, roll
torque, angular velocity, motor power, the gear reduction matching a
motor speed to the roll speed, and the VFD supply frequency for a given
pole count.

All quantities are strict SI (Pa, m, m/s, W); unit suffixes such as
"5 mm" or "150 MPa" are converted at the CLI boundary, never here.
Intermediates are kept unrounded; the conventional gear ratio quoted from
an integer-rounded roll speed is reported as a separate field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ContactModel(str, Enum):
    """Roll-sheet contact length model.

    ``APPROX`` is the small-angle rectangle model L = t_i - t_f used in
    the reference calculation; ``EXACT`` keeps the arcsin.  They differ by
    under 0.5 percent whenever the draft is below a tenth of the roll
    diameter.
    """

    APPROX = "approx"
    EXACT = "exact"


@dataclass(frozen=True)
class SizingInputs:
    """Material, geometry, and drive inputs for the sizing chain, all finite."""

    sigma_y: float = 150e6        # yield strength, Pa
    width_w: float = 1.0          # sheet width, m
    t_initial: float = 0.005      # entry thickness, m
    t_final: float = 0.001        # exit thickness, m
    roll_diameter_D: float = 0.25  # m
    line_speed_v: float = 0.5     # m/s
    motor_rpm: float = 1500.0
    motor_poles: int = 4

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int past the float range
                raise ValueError(f"{name} is too large for a float") from None
            if not finite:
                raise ValueError(f"{name} must be finite")
        if not self.sigma_y > 0:
            raise ValueError("sigma_y must be > 0")
        if not self.width_w > 0:
            raise ValueError("width_w must be > 0")
        if not 0 < self.t_final <= self.t_initial:
            raise ValueError("thicknesses must satisfy 0 < t_final <= t_initial")
        # Zero draft is allowed (pass-through roll); the draft may not reach
        # the roll diameter.
        if not self.t_initial - self.t_final < self.roll_diameter_D:
            raise ValueError("draft (t_initial - t_final) must be < roll_diameter_D")
        if self.line_speed_v < 0:
            raise ValueError("line_speed_v must be >= 0")
        if not self.motor_rpm > 0:
            raise ValueError("motor_rpm must be > 0")
        if self.motor_poles < 2 or self.motor_poles % 2:
            raise ValueError("motor_poles must be an even count >= 2")
        if not math.isfinite(roll_angular_velocity(self.line_speed_v, self.roll_diameter_D)[1]):
            raise ValueError("the roll speed line_speed_v / (roll_diameter_D / 2) is not finite")


@dataclass(frozen=True)
class SizingReport:
    """Computed drive-train requirements.

    ``gear_ratio_R`` uses the unrounded roll speed; ``gear_ratio_rounded``
    follows the hand-calculation convention of rounding the roll speed to
    an integer rpm first, which is how quoted catalog ratios like ~39.5
    arise.
    """

    contact_length_L: float   # m
    contact_area_A: float     # m^2
    force_F: float            # N
    torque_T: float           # N*m
    omega: float              # rad/s
    roll_rpm: float
    power_P: float            # W
    gear_ratio_R: float
    gear_ratio_rounded: float
    vfd_frequency: float      # Hz


def contact_length(
    t_i: float, t_f: float, D: float, mode: ContactModel = ContactModel.APPROX
) -> float:
    """Contact length between roll and sheet: D*arcsin(draft/D), or its
    small-angle limit t_i - t_f."""
    draft = t_i - t_f
    if draft < 0:
        raise ValueError("t_i must be >= t_f")
    if ContactModel(mode) is ContactModel.APPROX:
        return draft
    ratio = draft / D
    if ratio > 1.0:
        raise ValueError(f"draft/D = {ratio:.4g} > 1 is outside the arcsin domain")
    return D * math.asin(ratio)


def roll_torque(force: float, D: float) -> float:
    """T = F * D/2, the torque needed to spin one roll against the bite force."""
    if force < 0:
        raise ValueError("force must be >= 0")
    if not D > 0:
        raise ValueError("roll diameter must be > 0")
    return force * D / 2.0


def roll_angular_velocity(v: float, D: float) -> tuple[float, float]:
    """Roll speed from line speed: omega = v/r.  Returns (rad/s, rpm)."""
    if not D > 0:
        raise ValueError("roll diameter must be > 0")
    omega = v / (D / 2.0)
    return omega, omega * 60.0 / (2.0 * math.pi)


def motor_power(torque: float, omega: float) -> float:
    """P = T * omega."""
    if torque < 0 or omega < 0:
        raise ValueError("torque and omega must be >= 0")
    return torque * omega


def gear_ratio(motor_rpm: float, roll_rpm: float) -> float:
    """Speed reduction ratio motor rpm / roll rpm, unrounded."""
    if not roll_rpm > 0:
        raise ValueError("roll_rpm must be > 0 to size a reduction")
    return motor_rpm / roll_rpm


def vfd_frequency(rpm: float, poles: int) -> float:
    """Supply frequency for a synchronous speed: f = rpm * poles / 120.

    Note: for a 4-pole machine this relation gives 50 Hz at 1500 rpm; a
    sometimes-quoted 25 Hz figure for that operating point contradicts
    the relation and is not used.
    """
    if poles < 2 or poles % 2:
        raise ValueError("poles must be an even count >= 2")
    if rpm < 0:
        raise ValueError("rpm must be >= 0")
    return rpm * poles / 120.0


def size_report(
    inputs: SizingInputs, mode: ContactModel = ContactModel.APPROX
) -> SizingReport:
    """Run the full sizing chain with unrounded intermediates; raises
    ``ValueError`` if the area, force, torque, power or VFD frequency overflows."""
    L = contact_length(inputs.t_initial, inputs.t_final, inputs.roll_diameter_D, mode)
    A = inputs.width_w * L
    F = inputs.sigma_y * A
    T = roll_torque(F, inputs.roll_diameter_D)
    omega, rpm = roll_angular_velocity(inputs.line_speed_v, inputs.roll_diameter_D)
    P = motor_power(T, omega)
    if rpm > 0:
        R = gear_ratio(inputs.motor_rpm, rpm)
        rpm_int = round(rpm)
        R_rounded = gear_ratio(inputs.motor_rpm, rpm_int) if rpm_int > 0 else math.inf
    else:
        R = math.inf
        R_rounded = math.inf
    f = vfd_frequency(inputs.motor_rpm, inputs.motor_poles)
    products = (("contact_area_A", A), ("force_F", F), ("torque_T", T), ("power_P", P), ("vfd_frequency", f))
    for name, value in products:
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows: the inputs' product is not finite")
    return SizingReport(
        contact_length_L=L,
        contact_area_A=A,
        force_F=F,
        torque_T=T,
        omega=omega,
        roll_rpm=rpm,
        power_P=P,
        gear_ratio_R=R,
        gear_ratio_rounded=R_rounded,
        vfd_frequency=f,
    )
