"""PID control law in stepped and transfer-function form.

The discrete form (:func:`pid_step`) is what the loop simulator runs:
trapezoidal integral, first-difference derivative through a first-order
filter, optional output saturation with conditional-integration
anti-windup.  The continuous form (:func:`pid_tf`) exists for pole
analysis and requires a finite derivative filter, since the ideal PID is
improper.  :func:`pid_rational_terms` additionally exposes the improper
ideal-derivative numerator/denominator pair for characteristic-polynomial
work where a realizable transfer function is not needed.

State is an explicit value threaded in and out of :func:`pid_step`;
nothing here mutates, so controllers can run in parallel loops freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import TransferFunction, tf_new

__all__ = [
    "PidGains",
    "PidState",
    "characteristic_polynomial",
    "closed_loop_tf",
    "pid_rational_terms",
    "pid_step",
    "pid_tf",
    "saturate",
]


@dataclass(frozen=True)
class PidGains:
    """Controller parameters.

    ``derivative_filter_n`` shapes the derivative: 0 disables the term
    entirely, a finite positive value places the filter pole at n (time
    constant 1/n), and ``math.inf`` selects the raw, unfiltered first
    difference (the ideal-derivative limit, usable in stepped form only).
    ``output_min``/``output_max`` enable saturation when set; the
    integrator then stops accumulating while the output is pinned in the
    direction of the error.
    """

    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    derivative_filter_n: float = 0.0
    output_min: float | None = None
    output_max: float | None = None

    def __post_init__(self) -> None:
        # Written as `not x >= 0` so that NaN is rejected too.
        if not (self.kp >= 0 and self.ki >= 0 and self.kd >= 0):
            raise ValueError("PID gains must be >= 0")
        if not self.derivative_filter_n >= 0:
            raise ValueError("derivative_filter_n must be >= 0 (or inf)")
        if (
            self.output_min is not None
            and self.output_max is not None
            and not self.output_min < self.output_max
        ):
            raise ValueError("output_min must be < output_max")

    @property
    def saturates(self) -> bool:
        return self.output_min is not None or self.output_max is not None


@dataclass(frozen=True)
class PidState:
    """Integrator and derivative memory; start from ``PidState()``."""

    integral: float = 0.0        # accumulated integral of error, error*s
    prev_error: float = 0.0
    prev_derivative: float = 0.0


def pid_step(
    state: PidState, error: float, dt: float, gains: PidGains
) -> tuple[float, PidState]:
    """One controller update; returns (output, next state).

    Trapezoidal integration of the error, filtered first-difference
    derivative, then saturation.  Anti-windup by conditional integration:
    the trapezoid is discarded whenever the unsaturated output exceeds the
    active limit in the direction of the error.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if not math.isfinite(error):
        raise ValueError(f"non-finite controller error: {error}")

    # The integrator only accumulates while integral action is present.
    integral = state.integral
    if gains.ki > 0.0:
        integral = state.integral + 0.5 * (error + state.prev_error) * dt

    derivative = 0.0
    if gains.kd > 0.0 and gains.derivative_filter_n > 0.0:
        t_f = 0.0 if math.isinf(gains.derivative_filter_n) else 1.0 / gains.derivative_filter_n
        derivative = (t_f * state.prev_derivative + (error - state.prev_error)) / (t_f + dt)

    u, discard = saturate(gains.kp * error + gains.ki * integral + gains.kd * derivative, error, gains)
    if discard:
        integral = state.integral

    return u, PidState(integral=integral, prev_error=error, prev_derivative=derivative)


def saturate(u: float, error: float, gains: PidGains) -> tuple[float, bool]:
    """Clamp an output to the gains' limits: (output, discard), where
    ``discard`` drops this step's integrator update (conditional
    integration: the output is pinned in the direction of the error)."""
    lo, hi = gains.output_min, gains.output_max
    if hi is not None and u > hi:
        return hi, error > 0.0
    if lo is not None and u < lo:
        return lo, error < 0.0
    return u, False


def pid_rational_terms(gains: PidGains) -> tuple[np.ndarray, np.ndarray]:
    """(num, den) of the controller as raw polynomials, possibly improper.

    With ``derivative_filter_n = inf`` this returns the ideal form
    (kd s^2 + kp s + ki)/s, which has no realizable transfer function but
    is exactly what closed-loop characteristic polynomials need.
    """
    kp, ki, kd, n = gains.kp, gains.ki, gains.kd, gains.derivative_filter_n
    if kd == 0.0 or n == 0.0:
        if ki == 0.0:
            return np.array([kp]), np.array([1.0])
        return np.array([kp, ki]), np.array([1.0, 0.0])
    if math.isinf(n):
        return np.array([kd, kp, ki]), np.array([1.0, 0.0])
    if ki == 0.0:
        return np.array([kp + kd * n, kp * n]), np.array([1.0, n])
    return (
        np.array([kp + kd * n, kp * n + ki, ki * n]),
        np.array([1.0, n, 0.0]),
    )


def pid_tf(gains: PidGains) -> TransferFunction:
    """Controller as a proper transfer function.

    Requires a finite positive derivative filter when kd > 0; the
    unfiltered derivative makes the controller improper and is rejected.
    """
    if gains.kd > 0.0 and not 0.0 < gains.derivative_filter_n < math.inf:
        raise ValueError(
            "kd > 0 needs a finite derivative_filter_n > 0: the ideal PID is improper"
        )
    num, den = pid_rational_terms(gains)
    return tf_new(num, den)


def closed_loop_tf(controller: TransferFunction, plant: TransferFunction) -> TransferFunction:
    """Unity-negative-feedback loop: T = C G / (1 + C G).

    Pure polynomial arithmetic; common factors between the resulting
    numerator and denominator are deliberately not cancelled, so pole
    listings retain any controller/plant cancellations.
    """
    return tf_new(
        np.polymul(controller.num, plant.num),
        characteristic_polynomial(controller.num, controller.den, plant),
    )


def characteristic_polynomial(
    ctrl_num: np.ndarray, ctrl_den: np.ndarray, plant: TransferFunction
) -> np.ndarray:
    """Closed-loop characteristic polynomial den_C den_G + num_C num_G.

    Accepts improper controller terms (from :func:`pid_rational_terms`),
    which keeps ideal-derivative stability analysis possible even though
    no realizable controller transfer function exists for it.
    """
    return np.polyadd(
        np.polymul(np.asarray(ctrl_den, float), plant.den),
        np.polymul(np.asarray(ctrl_num, float), plant.num),
    )
