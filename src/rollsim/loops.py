"""Closed-loop assembly and simulation.

A :class:`LoopSpec` bundles a plant transfer function, PID gains, a
setpoint profile, an optional sensor/fault path, and simulation settings.
:func:`simulate_loop` runs the discrete co-simulation: at each step the
setpoint is evaluated, the plant output is measured through the sensor
path, the PID produces a command, and the plant state advances one step
under a zero-order hold of that command through the
:func:`~rollsim.lti.zoh_step_matrices` map x+ = M x + N u, the same
discretisation open-loop runs use.

A linear loop (ideal sensor, no fault, no saturation) is one linear
recurrence over the plant state and the controller memory, so it is
propagated in closed form by :func:`~rollsim.lti.propagate`; its maps
come from applying that same step to unit states.  Nonlinear loops are
stepped one sample at a time.

Alongside the time series, the loop reports a stability verdict from the
closed-loop characteristic polynomial whenever the loop is linear.
Convenience wrappers build the sheet-speed loop, the gap/thickness loop,
and the multibody demo that contrasts open-loop behavior with PID control
under both the ideal and the filtered derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .faults import FaultSpec, SensorModel, SensorState, apply_sensor
from .lti import (
    ResponseMetrics,
    SimConfig,
    SimulationDiverged,
    StateSpaceModel,
    TimeSeries,
    TransferFunction,
    polynomial_roots,
    propagate,
    response_metrics,
    routh_classification,
    RouthVerdict,
    step_response,
    tf_new,
    tf_to_state_space,
    zoh_step_matrices,
)
from .pid import PidGains, PidState, characteristic_polynomial, pid_rational_terms, pid_step
from .plants import (
    KinematicsMode,
    PowerScrewParams,
    RollDriveParams,
    multibody_tf,
    power_screw_tf,
    roll_drive_tf,
)

__all__ = [
    "LoopResult",
    "LoopSpec",
    "MULTIBODY_REFERENCE_GAINS",
    "MultibodyDemo",
    "Segment",
    "SetpointProfile",
    "StabilityVerdict",
    "classify_polynomial_stability",
    "multibody_demo",
    "series_is_bounded",
    "simulate_loop",
    "speed_loop",
    "thickness_loop",
]

# Tuning reported for the multibody stand model; origin undocumented, kept
# as the demo's reference point.  Pole analysis shows it does not stabilize
# the plant (see multibody_demo).
MULTIBODY_REFERENCE_GAINS = PidGains(kp=0.00941, ki=6.53e-05, kd=0.339)

# ---------------------------------------------------------------------------
# Setpoint profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """One piece of a setpoint profile.

    ``kind`` is "step" (jump to ``value``), "ramp" (slope ``value`` per
    second from the previous level), or "hold" (keep the previous level).
    """

    t_start: float
    kind: str
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("step", "ramp", "hold"):
            raise ValueError(f"unknown segment kind '{self.kind}'")
        if self.t_start < 0:
            raise ValueError("segment t_start must be >= 0")


@dataclass(frozen=True)
class SetpointProfile:
    """Piecewise setpoint, zero before the first segment."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        if any(b.t_start < a.t_start for a, b in zip(segs, segs[1:])):
            raise ValueError("setpoint segments must be time-ordered")
        object.__setattr__(self, "segments", segs)

    @staticmethod
    def step(value: float, at: float = 0.0) -> "SetpointProfile":
        return SetpointProfile(segments=(Segment(t_start=at, kind="step", value=value),))

    def value(self, t: float) -> float:
        """Setpoint level at time ``t``."""
        return float(self.values(np.array([t], dtype=float))[0])

    def values(self, t: np.ndarray) -> np.ndarray:
        """Setpoint level at each time in ``t``."""
        t = np.asarray(t, dtype=float)
        level = np.zeros_like(t)
        # A ramp may overflow; first_nonfinite looks for exactly that.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, seg in enumerate(self.segments):
                reached = t >= seg.t_start
                if seg.kind == "step":
                    level = np.where(reached, seg.value, level)
                elif seg.kind == "ramp":
                    local_t = (
                        np.minimum(t, self.segments[i + 1].t_start)
                        if i + 1 < len(self.segments) else t
                    )
                    level = np.where(reached, level + seg.value * (local_t - seg.t_start), level)
                # hold keeps the running level
        return level

    def first_nonfinite(self, sim: SimConfig) -> int | None:
        """Index of the first segment whose level is not finite at some time
        of ``sim``'s horizon, or None.  A ramp's level is monotone over its
        segment, so only each segment's end needs testing."""
        # Sample times run to steps * dt, which rounding can put past t_end.
        t_last = max(sim.t_end, sim.steps * sim.dt)
        segs = self.segments
        for i, seg in enumerate(segs):
            end = min(segs[i + 1].t_start, t_last) if i + 1 < len(segs) else t_last
            if seg.t_start <= end and not math.isfinite(SetpointProfile(segs[: i + 1]).value(end)):
                return i
        return None


# ---------------------------------------------------------------------------
# Loop spec and result
# ---------------------------------------------------------------------------

class StabilityVerdict(str, Enum):
    POLES_STABLE = "poles_stable"
    POLES_UNSTABLE = "poles_unstable"
    POLES_MARGINAL = "poles_marginal"


def classify_polynomial_stability(
    coeffs: Sequence[float], tol: float = 1e-9
) -> StabilityVerdict:
    """Verdict from the real parts of a polynomial's roots.

    Max real part below -tol is stable, above +tol unstable, otherwise
    marginal (roots on or numerically indistinguishable from the axis).
    """
    roots = polynomial_roots(coeffs)
    max_re = float(np.max(roots.real))
    if max_re < -tol:
        return StabilityVerdict.POLES_STABLE
    if max_re > tol:
        return StabilityVerdict.POLES_UNSTABLE
    return StabilityVerdict.POLES_MARGINAL


@dataclass(frozen=True)
class LoopSpec:
    """Everything needed to run one closed loop."""

    plant: TransferFunction
    gains: PidGains
    setpoint: SetpointProfile
    sensor: SensorModel | None = None
    fault: FaultSpec | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        bad = self.setpoint.first_nonfinite(self.sim)
        if bad is not None:
            raise ValueError(f"setpoint[{bad}].value: the setpoint level is not finite within the horizon")

    @property
    def is_linear(self) -> bool:
        """True when pole analysis describes the simulated loop exactly."""
        sensor_ideal = self.sensor is None or self.sensor.is_ideal
        return sensor_ideal and self.fault is None and not self.gains.saturates


@dataclass
class LoopResult:
    """Simulated loop: time series, metrics, and linear-analysis verdict.

    ``stability_verdict`` (and the characteristic polynomial behind it) is
    only populated for linear specs; with noise, faults, or saturation in
    the path the continuous pole analysis does not describe the simulated
    system, so it is withheld.  Metrics are computed on ``y_true`` against
    the final setpoint level, so sensor noise never corrupts them.
    """

    series: TimeSeries
    metrics: ResponseMetrics
    stability_verdict: StabilityVerdict | None
    characteristic: np.ndarray | None
    closed_loop: TransferFunction | None
    diverged: bool = False
    divergence_time: float | None = None

    @property
    def bounded(self) -> bool:
        return not self.diverged and series_is_bounded(self.series, "y_true")


def series_is_bounded(ts: TimeSeries, channel: str = "y") -> bool:
    """Crude envelope test: did the second half outgrow the first half?

    Non-finite samples are unbounded; otherwise the peak magnitude over
    the second half must stay within twice the peak over the first half.
    Slow divergences need a horizon long enough for the envelope to
    double; the multibody demo's 100 s horizon grows by ~e^35.
    """
    y = ts[channel]
    if not np.all(np.isfinite(y)):
        return False
    half = len(y) // 2
    if half == 0:
        return True
    m1 = float(np.max(np.abs(y[:half])))
    m2 = float(np.max(np.abs(y[half:])))
    return m2 <= max(2.0 * m1, 1e-12)


# ---------------------------------------------------------------------------
# Discrete co-simulation
# ---------------------------------------------------------------------------

def _analysis(spec: LoopSpec) -> tuple[StabilityVerdict | None, np.ndarray | None, TransferFunction | None]:
    if not spec.is_linear:
        return None, None, None
    ctrl_num, ctrl_den = pid_rational_terms(spec.gains)
    char = characteristic_polynomial(ctrl_num, ctrl_den, spec.plant)
    verdict = classify_polynomial_stability(char)
    closed: TransferFunction | None
    try:
        closed = tf_new(np.polymul(ctrl_num, spec.plant.num), char)
    except ValueError:
        closed = None  # improper composition (ideal derivative on a biproper plant)
    return verdict, char, closed


def _closed_loop_maps(
    spec: LoopSpec, ss: StateSpaceModel, m: np.ndarray, nvec: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(F, G, H, J) of a linear loop over z = [x, integral, prev_error,
    prev_derivative, u_prev]: z[k+1] = F z[k] + G sp[k] and
    (y_true, error, u)[k] = H z[k] + J sp[k].

    Each column is one loop step, the plant's step map and
    :func:`~rollsim.pid.pid_step`, applied to a unit state or to a unit
    setpoint, so the control law is written only once.
    """
    n, c_row, d_term = ss.n, ss.C.ravel(), ss.D
    size = n + 4

    def step(z: np.ndarray, sp: float) -> tuple[list, list]:
        x = z[:n]
        y_true = float(c_row @ x) + d_term * z[-1]
        err = sp - y_true
        u, pid = pid_step(PidState(*z[n:-1]), err, spec.sim.dt, spec.gains)
        nxt = [*(m @ x + nvec * u), pid.integral, pid.prev_error, pid.prev_derivative, u]
        return nxt, [y_true, err, u]

    columns = [step(z, 0.0) for z in np.eye(size)] + [step(np.zeros(size), 1.0)]
    nxt = np.array([c[0] for c in columns]).T
    out = np.array([c[1] for c in columns]).T
    return nxt[:, :size], nxt[:, size], out[:, :size], out[:, size]


def _stepped(
    spec: LoopSpec, ss: StateSpaceModel, m: np.ndarray, nvec: np.ndarray, t: np.ndarray, sp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Step the loop one sample at a time through the sensor/fault path.

    Returns (y_true, y_measured, error, u, end): the channels are valid
    up to ``end``, the first sample with a non-finite plant state or
    output (``len(t)`` when there is none).
    """
    steps = len(t) - 1
    y_out = np.empty(steps + 1)
    ym_out = np.empty(steps + 1)
    e_out = np.empty(steps + 1)
    u_out = np.empty(steps + 1)

    x = np.zeros(ss.n)
    pid_state = PidState()
    sensor_state = SensorState(seed=spec.seed)
    sensor = spec.sensor
    fault = spec.fault
    needs_sensor = sensor is not None or fault is not None
    model = sensor if sensor is not None else SensorModel()
    c_row, d_term = ss.C.ravel(), ss.D
    dt, gains = spec.sim.dt, spec.gains
    setpoints = sp.tolist()  # Python floats keep the per-step arithmetic fast
    u_prev = 0.0

    end = steps + 1
    # Overflow in an unstable loop is how divergence is detected, not noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            tk = t[k]
            # Direct feedthrough uses the previous command: the measurement
            # must exist before the current command does.
            y_true = (float(c_row @ x) if ss.n else 0.0) + d_term * u_prev
            if not math.isfinite(y_true):
                # Output projection can overflow a step before the state does.
                end = k
                break
            if needs_sensor:
                y_meas, sensor_state = apply_sensor(y_true, model, fault, tk, sensor_state)
            else:
                y_meas = y_true
            err = setpoints[k] - y_meas
            u, pid_state = pid_step(pid_state, err, dt, gains)
            y_out[k], ym_out[k], e_out[k], u_out[k] = y_true, y_meas, err, u
            if k == steps:
                break
            if ss.n:
                x = m @ x + nvec * u
                if not np.all(np.isfinite(x)):
                    end = k + 1
                    break
            u_prev = u
    return y_out, ym_out, e_out, u_out, end


def simulate_loop(spec: LoopSpec) -> LoopResult:
    """Run the discrete closed loop described by ``spec``.

    Per step: evaluate setpoint, measure the plant output through the
    sensor/fault path, form the error, run :func:`~rollsim.pid.pid_step`,
    and hold the command over the next integration step.  A linear spec
    runs the same steps in closed form through
    :func:`~rollsim.lti.propagate`.  The first sample with a non-finite
    plant state or output flags the result diverged at its time, and the
    series ends just before it.
    """
    ss = tf_to_state_space(spec.plant)
    cfg = spec.sim
    steps = cfg.steps
    m, nvec = zoh_step_matrices(ss, cfg.dt, cfg.integrator.value)
    t = np.arange(steps + 1) * cfg.dt
    sp = spec.setpoint.values(t)

    if spec.is_linear:
        f, g, h, j = _closed_loop_maps(spec, ss, m, nvec)
        rows, end = propagate(f, g, sp, h, j)
        y_true, err, u = rows.T.copy()
        bad_output = np.flatnonzero(~np.isfinite(y_true))
        if bad_output.size:
            end = int(bad_output[0])
        y_meas = y_true
    else:
        y_true, y_meas, err, u, end = _stepped(spec, ss, m, nvec, t, sp)

    diverged = end <= steps
    series = TimeSeries(
        t=t[:end],
        channels={
            "setpoint": sp[:end],
            "y_true": y_true[:end],
            "y_measured": y_meas[:end],
            "error": err[:end],
            "u": u[:end],
        },
    )
    metrics = response_metrics(series, spec.setpoint.value(cfg.t_end), channel="y_true")
    verdict, char, closed = _analysis(spec)
    return LoopResult(
        series=series,
        metrics=metrics,
        stability_verdict=verdict,
        characteristic=char,
        closed_loop=closed,
        diverged=diverged,
        divergence_time=float(t[end]) if diverged else None,
    )


# ---------------------------------------------------------------------------
# Named loops
# ---------------------------------------------------------------------------

def speed_loop(
    p: RollDriveParams,
    gains: PidGains,
    setpoint: SetpointProfile,
    sim: SimConfig = SimConfig(),
    **kwargs,
) -> LoopResult:
    """Sheet-speed loop around the roll-drive plant."""
    return simulate_loop(
        LoopSpec(plant=roll_drive_tf(p), gains=gains, setpoint=setpoint, sim=sim, **kwargs)
    )


def thickness_loop(
    p: PowerScrewParams,
    mode: KinematicsMode,
    gains: PidGains,
    setpoint: SetpointProfile,
    sim: SimConfig = SimConfig(),
    **kwargs,
) -> LoopResult:
    """Gap/thickness loop around the power-screw plant."""
    return simulate_loop(
        LoopSpec(plant=power_screw_tf(p, mode), gains=gains, setpoint=setpoint, sim=sim, **kwargs)
    )


@dataclass
class MultibodyDemo:
    """Open-loop vs PID comparison on the multibody stand model.

    The closed loop is simulated twice: once with the raw first-difference
    (ideal) derivative and once with the filtered derivative, because the
    ideal PID has no realizable transfer function and its stability can
    only be judged from the characteristic polynomial.  The filtered
    variant is the one a real controller would run; ``filtered_spec`` is
    the loop it simulated, so a caller whose own loop spec equals it can
    reuse ``closed_filtered`` instead of simulating the same loop again.
    """

    open: TimeSeries
    open_bounded: bool
    open_routh: RouthVerdict
    open_verdict: StabilityVerdict
    closed_ideal: LoopResult
    closed_filtered: LoopResult
    filtered_spec: LoopSpec
    ideal_char: np.ndarray
    ideal_verdict: StabilityVerdict

    @property
    def filtered_verdict(self) -> StabilityVerdict | None:
        return self.closed_filtered.stability_verdict


def multibody_demo(
    gains: PidGains = MULTIBODY_REFERENCE_GAINS,
    sim: SimConfig = SimConfig(),
    filter_n: float = 100.0,
) -> MultibodyDemo:
    """Step the multibody plant open-loop and under PID control.

    Setpoint and responses are in normalized units: the exported model
    carries no physical input/output scaling.
    """
    plant = multibody_tf()
    try:
        open_ts = step_response(plant, sim)
        open_bounded = series_is_bounded(open_ts, "y")
    except SimulationDiverged as d:
        open_ts = d.partial
        open_bounded = False

    setpoint = SetpointProfile.step(1.0)
    ideal_gains = replace(gains, derivative_filter_n=math.inf)
    filtered_gains = replace(
        gains,
        derivative_filter_n=(
            gains.derivative_filter_n
            if 0.0 < gains.derivative_filter_n < math.inf
            else filter_n
        ),
    )
    closed_ideal = simulate_loop(
        LoopSpec(plant=plant, gains=ideal_gains, setpoint=setpoint, sim=sim)
    )
    filtered_spec = LoopSpec(plant=plant, gains=filtered_gains, setpoint=setpoint, sim=sim)
    closed_filtered = simulate_loop(filtered_spec)
    ideal_num, ideal_den = pid_rational_terms(ideal_gains)
    ideal_char = characteristic_polynomial(ideal_num, ideal_den, plant)
    return MultibodyDemo(
        open=open_ts,
        open_bounded=open_bounded,
        open_routh=routh_classification(plant.den),
        open_verdict=classify_polynomial_stability(plant.den),
        closed_ideal=closed_ideal,
        closed_filtered=closed_filtered,
        filtered_spec=filtered_spec,
        ideal_char=ideal_char,
        ideal_verdict=classify_polynomial_stability(ideal_char),
    )
