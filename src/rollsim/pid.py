"""PID control law in stepped and rational form.

The discrete form (:func:`pid_step`) has a trapezoidal integral, a
first-difference derivative through a first-order filter, and optional
output saturation with conditional-integration anti-windup.  The loop
simulator runs the maps :func:`rollsim.loops._loop_maps` probes from it
with the limits lifted, and applies the limits by :func:`saturate`; with
its limits it is the reference the loop tests step.  The continuous
form, for pole analysis, is the raw numerator/denominator pair of
:func:`pid_rational_terms`; it is improper for the ideal (unfiltered)
derivative, which characteristic polynomials handle all the same.
:func:`rollsim.loops._analysis` composes it with a plant into the loop.

State is an explicit value threaded in and out of :func:`pid_step`;
nothing here mutates, so controllers can run in parallel loops freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import TransferFunction


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
        for name in ("kp", "ki", "kd"):  # NaN fails the test too
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"PID gains must be >= 0 and finite: {name} = {getattr(self, name)}")
        if not self.derivative_filter_n >= 0:
            raise ValueError("derivative_filter_n must be >= 0 (or inf)")
        low = -math.inf if self.output_min is None else self.output_min
        high = math.inf if self.output_max is None else self.output_max
        if not (low < high and low < math.inf and high > -math.inf):
            raise ValueError("output_min must be < output_max, output_min < inf and output_max > -inf")

    @property
    def saturates(self) -> bool:
        return self.output_min is not None or self.output_max is not None


@dataclass(frozen=True)
class PidState:
    """Integral and derivative memory; start from ``PidState()``."""

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
