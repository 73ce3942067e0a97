"""Drive-train sizing for a two-roll sheet mill.

One function, :func:`size_report`, runs the whole chain on a
:class:`SizingInputs`: from yield strength, sheet width, draft, roll
diameter and line speed it computes the bite force, roll torque, roll
speed, motor power, the gear reduction matching the motor speed to the
roll speed, and the VFD supply frequency for the motor's pole count.
``SizingInputs`` is the one check of these inputs; the report only
guards the products that overflow.

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
    """Material, geometry, and drive inputs for the sizing chain, all finite;
    the fields are the scenario's ``sizing`` keys, and a rejection's
    message starts with the field it names: ``t_final: must be <= t_initial``."""

    sigma_y: float = 150e6        # yield strength, Pa
    width: float = 1.0            # sheet width, m
    t_initial: float = 0.005      # entry thickness, m
    t_final: float = 0.001        # exit thickness, m
    roll_diameter: float = 0.25   # m
    line_speed: float = 0.5       # m/s
    motor_rpm: float = 1500.0
    motor_poles: int = 4

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int past the float range
                raise ValueError(f"{name}: too large for a float") from None
            if not finite:
                raise ValueError(f"{name}: must be finite")
        if not self.sigma_y > 0:
            raise ValueError("sigma_y: must be > 0")
        if not self.width > 0:
            raise ValueError("width: must be > 0")
        if self.t_final > self.t_initial:
            raise ValueError("t_final: must be <= t_initial")
        if not self.t_final > 0:
            raise ValueError("t_final: must be > 0")
        # Zero draft is allowed (pass-through roll); the draft may not reach
        # the roll diameter, which keeps the exact contact's arcsin defined.
        if not self.t_initial - self.t_final < self.roll_diameter:
            raise ValueError("roll_diameter: must exceed the draft t_initial - t_final")
        if self.line_speed < 0:
            raise ValueError("line_speed: must be >= 0")
        if not self.motor_rpm > 0:
            raise ValueError("motor_rpm: must be > 0")
        if self.motor_poles < 2 or self.motor_poles % 2:
            raise ValueError("motor_poles: must be an even count >= 2")
        # The roll speed in rpm, as size_report computes it.
        if not math.isfinite(2.0 * self.line_speed / self.roll_diameter * 60.0 / (2.0 * math.pi)):
            raise ValueError("line_speed: the roll speed 2 line_speed / roll_diameter is not finite")


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


def size_report(
    inputs: SizingInputs, mode: ContactModel = ContactModel.APPROX
) -> SizingReport:
    """Run the sizing chain with unrounded intermediates, one line per formula.

    - Contact length L between roll and sheet: D asin(draft / D) for the
      roll diameter D, or its small-angle limit, the draft t_i - t_f
      (``mode``).
    - Contact area A = w L for the sheet width w, and bite force
      F = sigma_y A.
    - Roll torque T = F D / 2, the torque that spins one roll against the
      bite force.
    - Roll speed from the line speed v over the roll radius:
      omega = 2 v / D rad/s, and in rpm.
    - Motor power P = T omega.
    - Gear ratio R = motor rpm / roll rpm, unrounded and from the roll rpm
      rounded to an integer; infinite for a roll that does not turn.
    - VFD frequency f = motor rpm * poles / 120, the supply frequency of
      the motor's synchronous speed.  For a 4-pole machine this gives
      50 Hz at 1500 rpm; a sometimes-quoted 25 Hz figure for that
      operating point contradicts the relation and is not used.

    ``SizingInputs`` guarantees every input; raises ``ValueError`` if the
    area, force, torque, power or VFD frequency overflows.
    """
    draft, D = inputs.t_initial - inputs.t_final, inputs.roll_diameter
    L = draft if ContactModel(mode) is ContactModel.APPROX else D * math.asin(draft / D)
    A = inputs.width * L
    F = inputs.sigma_y * A
    T = F * D / 2.0
    omega = 2.0 * inputs.line_speed / D
    rpm = omega * 60.0 / (2.0 * math.pi)
    P = T * omega
    R = inputs.motor_rpm / rpm if rpm > 0 else math.inf
    R_rounded = inputs.motor_rpm / round(rpm) if round(rpm) > 0 else math.inf
    f = inputs.motor_rpm * inputs.motor_poles / 120.0
    products = (("contact_area_A", A), ("force_F", F), ("torque_T", T), ("power_P", P), ("vfd_frequency", f))
    for name, value in products:
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows: the inputs' product is not finite")
    return SizingReport(L, A, F, T, omega, rpm, P, R, R_rounded, f)
