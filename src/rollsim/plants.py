"""Plant models for the mill's two control paths plus the multibody rig.

Three transfer functions are built here: the roll-drive model mapping
motor voltage to sheet speed, the power-screw model mapping actuator
voltage to roll-gap displacement, and a fixed eighth-order model exported
from a multibody analysis of the full stand.

The default motor parameters (K = J = B = 1) are unit-normalized
placeholders: no measured motor constants exist for this design, only the
roll geometry is physical (r = 0.125 m from the 0.25 m roll diameter,
5 mm screw lead).  Replace them with identified values before trusting
absolute time scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lti import TransferFunction, tf_new

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RollDriveParams:
    """First-order roll-drive motor: K/(Js + B), output scaled by roll radius r."""

    K: float = 1.0
    J: float = 1.0
    B: float = 1.0
    r: float = 0.125

    def __post_init__(self) -> None:
        for name in ("K", "J", "B", "r"):
            if not getattr(self, name) > 0:
                raise ValueError(f"RollDriveParams.{name} must be > 0")


@dataclass(frozen=True)
class PowerScrewParams:
    """Gap-adjustment screw drive: motor K_ps/(J_ps s + B_ps), lead metres per rev."""

    K_ps: float = 1.0
    J_ps: float = 1.0
    B_ps: float = 1.0
    lead: float = 0.005

    def __post_init__(self) -> None:
        for name in ("K_ps", "J_ps", "B_ps", "lead"):
            if not getattr(self, name) > 0:
                raise ValueError(f"PowerScrewParams.{name} must be > 0")


class KinematicsMode(str, Enum):
    """How screw rotation maps to gap displacement.

    ``PAPER_LITERAL`` scales angular velocity directly into displacement,
    x = lead * w / (2 pi), which is dimensionally a velocity relation.
    ``INTEGRATED`` (the default) adds the missing free integrator so that
    displacement is the integral of screw speed, which is the physically
    consistent kinematics.
    """

    PAPER_LITERAL = "paper_literal"
    INTEGRATED = "integrated"


def roll_drive_tf(p: RollDriveParams = RollDriveParams()) -> TransferFunction:
    """Voltage-to-sheet-speed model: v(s) = r * K / (Js + B) * V(s)."""
    return tf_new([p.r * p.K], [p.J, p.B])


def power_screw_tf(
    p: PowerScrewParams = PowerScrewParams(),
    mode: KinematicsMode = KinematicsMode.INTEGRATED,
) -> TransferFunction:
    """Voltage-to-gap model: x(s) = lead * K_ps / (2 pi (J_ps s + B_ps)) * V(s).

    ``INTEGRATED`` mode appends a pole at the origin (type-1 plant); see
    :class:`KinematicsMode`.
    """
    gain = p.lead * p.K_ps / TWO_PI
    if KinematicsMode(mode) is KinematicsMode.PAPER_LITERAL:
        return tf_new([gain], [p.J_ps, p.B_ps])
    return tf_new([gain], [p.J_ps, p.B_ps, 0.0])


# Denominator of the multibody model: s^8 + 3.571 s^6 + 1.  A fixed export,
# not parameterized; note several interior coefficients are zero, so the
# open-loop model cannot be Hurwitz stable.
MULTIBODY_DEN = (1.0, 0.0, 3.571, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def multibody_tf() -> TransferFunction:
    """Fixed eighth-order multibody stand model, 1/(s^8 + 3.571 s^6 + 1)."""
    return tf_new([1.0], MULTIBODY_DEN)
