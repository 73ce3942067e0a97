"""Closed-loop assembly and simulation.

A :class:`LoopSpec` bundles a plant transfer function, PID gains, a
setpoint profile, an optional sensor/fault path, and simulation settings.
:func:`simulate_loop` runs the discrete co-simulation: at each step the
setpoint is evaluated, the plant output is measured through the sensor
path, the PID produces a command, and the plant state advances one step
under a zero-order hold of that command through the
:func:`~rollsim.lti.zoh_step_matrices` map x+ = M x + N u, the same
discretisation open-loop runs use.

One loop step is linear in z = [x, integral, prev_error,
prev_derivative, u_prev] and the error: z+ = F z + g e, y_true = h z,
with maps built by applying the step to unit states.  A loop runs those
maps by one of three routes:

- closed form: a linear loop (ideal sensor, no fault, no saturation)
  closes them with e = sp - y_true and is propagated by its
  :class:`LoopFrame`'s :class:`~rollsim.lti.PropagationPlan`, one plan
  for each batch of loops that differ in gains only;
- verified blocks: a loop whose sensor clock ticks every sample and
  whose controller has no output limits is propagated a block of up to
  1,024 samples at a time from a guess of its readings, which one array
  call of :func:`~rollsim.faults.apply_sensor` then checks and corrects;
- stepped: any other loop (output limits, a slower sensor clock) runs one
  small product per sample, and only the sensor reading and the output
  clamp, which depend on the previous sample, are evaluated in between.
  Where verified blocks do not settle in a few rounds, short stretches
  are stepped.

One object, :class:`_NonlinearLoop`, runs the last two routes from one
run state, and keeps the last reading wherever the sensor does not tick.

Alongside the time series, the loop reports a stability verdict from the
closed-loop characteristic polynomial whenever the loop is linear.
The sheet-speed and gap/thickness loops are specs around
:func:`~rollsim.plants.roll_drive_tf` and :func:`~rollsim.plants.power_screw_tf`;
:func:`multibody_demo` contrasts open-loop behavior with PID control
under both the ideal and the filtered derivative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .faults import FaultSpec, SensorModel, apply_sensor, sensor_terms
from .lti import (
    ResponseMetrics,
    SimConfig,
    TimeSeries,
    TransferFunction,
    poly_trim,
    polynomial_roots,
    PropagationPlan,
    batch_size,
    response_metrics,
    routh_classification,
    RouthVerdict,
    step_response,
    tf_new,
    tf_to_state_space,
    zoh_step_matrices,
)
from .pid import (
    PidGains,
    PidState,
    characteristic_polynomial,
    pid_rational_terms,
    pid_step,
    saturate,
)
from .plants import multibody_tf

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
        if not self.t_start >= 0:
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


_MARGIN = 1e-9  # real parts within this of the imaginary axis are marginal


def classify_polynomial_stability(coeffs: Sequence[float]) -> StabilityVerdict:
    """Verdict from the real parts of a polynomial's roots.

    Max real part below -``_MARGIN`` is stable, above +``_MARGIN``
    unstable, otherwise marginal (roots on or numerically
    indistinguishable from the axis).
    A nonzero constant has no roots and is stable; the zero polynomial
    has no verdict and raises ``ValueError``.
    """
    c = poly_trim(coeffs)
    if len(c) == 1:
        if c[0] == 0.0:
            raise ValueError("the zero polynomial has no stability verdict")
        return StabilityVerdict.POLES_STABLE
    roots = polynomial_roots(c)
    max_re = float(np.max(roots.real))
    if max_re < -_MARGIN:
        return StabilityVerdict.POLES_STABLE
    if max_re > _MARGIN:
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
    the final setpoint level, so sensor noise never corrupts them.  Both
    are computed from ``spec`` on first access: the tuner reads only the
    series.
    """

    series: TimeSeries
    spec: LoopSpec
    diverged: bool = False
    divergence_time: float | None = None

    @cached_property
    def metrics(self) -> ResponseMetrics:
        setpoint = self.spec.setpoint.value(self.spec.sim.t_end)
        return response_metrics(self.series, setpoint, channel="y_true")

    @cached_property
    def _linear_analysis(self) -> tuple:  # (verdict, characteristic, closed loop)
        return _analysis(self.spec.gains, self.spec.plant) if self.spec.is_linear else (None,) * 3

    @property
    def stability_verdict(self) -> StabilityVerdict | None:
        return self._linear_analysis[0]

    @property
    def characteristic(self) -> np.ndarray | None:
        return self._linear_analysis[1]

    @property
    def closed_loop(self) -> TransferFunction | None:
        return self._linear_analysis[2]

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

def _analysis(gains: PidGains, plant: TransferFunction) -> tuple:
    """(verdict, characteristic polynomial, closed loop) of ``gains`` around
    ``plant`` under unity feedback, whether or not a loop runs it.  The
    closed loop is C G / (1 + C G) with no common factor cancelled, so its
    poles keep any controller/plant cancellation."""
    ctrl_num, ctrl_den = pid_rational_terms(gains)
    with np.errstate(over="ignore", invalid="ignore"):
        char = characteristic_polynomial(ctrl_num, ctrl_den, plant)
    # 1 + C G = 0 identically (the loop equation is singular), or it overflowed.
    verdict = classify_polynomial_stability(char) if np.any(char) and np.all(np.isfinite(char)) else None
    closed: TransferFunction | None
    try:
        closed = tf_new(np.polymul(ctrl_num, plant.num), char)
    except ValueError:
        closed = None  # improper composition (ideal derivative on a biproper plant)
    return verdict, char, closed


_LINEAR_CHANNELS = ("y_true", "error", "u")  # the rows a linear loop can form


class LoopFrame:
    """What the loops around one plant, step and setpoint share, whatever
    their gains: the step map (m, nvec), the read-only time grid ``t`` and
    setpoint ``sp``, and the gain-free parts of :func:`_loop_maps`' probes.

    Linear loops that differ in gains run as one batch: :meth:`batches`
    scans each batch's block starts through one stacked
    :class:`~rollsim.lti.PropagationPlan`, and :func:`simulate_loop` then
    forms each loop's rows from its own starts.  A loop that was not
    prepared is a batch of one.

    ``channels`` names the rows a linear loop forms, ``y_true`` first (the
    plan stops a run at its first non-finite output row), then any of
    ``error`` and ``u``.  A frame of ``("y_true",)`` serves costs only:
    its linear results carry ``setpoint``, ``y_true`` and ``y_measured``
    and lack ``error`` and ``u``.  Its ``y_true`` is that of a full frame
    bit for bit; a loop with a sensor path or limits forms every channel."""

    def __init__(self, spec: LoopSpec, channels: Sequence[str] = _LINEAR_CHANNELS) -> None:
        self.channels = tuple(channels)
        self.key = (spec.plant, spec.sim, spec.setpoint)
        self.dt = spec.sim.dt
        self.ss = tf_to_state_space(spec.plant)
        self.m, self.nvec = zoh_step_matrices(self.ss, self.dt)
        self.t = np.arange(spec.sim.steps + 1) * self.dt
        self.sp = spec.setpoint.values(self.t)
        self.t.flags.writeable = False
        self.sp.flags.writeable = False
        n = self.ss.n
        with np.errstate(invalid="ignore"):  # a step map that overflowed is not finite
            self.mz = np.array([self.m @ z[:n] for z in np.eye(n + 5)])
        self.branches: dict = {}  # active branches -> the controller's probed directions
        self.batch = batch_size(n + 4, len(self.t))  # loops per batch
        self.prepared: dict = {}  # gains -> the rows of its loop

    def batches(self, specs: Sequence[LoopSpec]):
        """Yield ``specs`` in runs of at most ``batch``, each run's linear
        loops prepared as one batch just before it is yielded; a batch
        replaces the one before."""
        for first in range(0, len(specs), self.batch):
            run = specs[first:first + self.batch]
            gains = [spec.gains for spec in run if spec.is_linear]
            self.prepared = dict(zip(gains, self._scan(gains))) if gains else {}
            yield run

    def _scan(self, gains: Sequence[PidGains]) -> list:
        """One plan of the linear loops of ``gains``, its members in that
        order, scanned over the setpoint: a callable per loop giving its
        (rows, end, z_end), one row per channel of the frame.  A loop run
        alone is a batch of one."""
        f, g, h = _loop_maps(self, gains)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed map diverges at once
            closed = f - g[..., None] * h  # e = sp - h z
        maps = {"y_true": (h, 0.0), "error": (-h, 1.0), "u": (closed[:, -1], g[:, -1])}
        outputs = np.empty((len(gains), len(self.channels), len(h)))
        through = np.empty((len(gains), len(self.channels)))
        for i, name in enumerate(self.channels):
            outputs[:, i], through[:, i] = maps[name]
        return PropagationPlan(closed, g, outputs, through, len(self.sp)).scan(self.sp)

    def linear_rows(self, gains: PidGains) -> tuple[np.ndarray, int]:
        """(rows, end) of the linear loop of ``gains``: from its prepared
        starts, which it uses up, or as a batch of one.  Equal gains give
        the same rows, as each member's rows are its batch of one's."""
        rows = self.prepared.pop(gains, None) or self._scan([gains])[0]
        return rows()[:2]


def _loop_maps(frame: LoopFrame, gains: Sequence[PidGains]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, g, h) of one unsaturated loop step over z = [x, integral,
    prev_error, prev_derivative, u_prev] with the error as input:
    z[k+1] = F z[k] + g e[k] and y_true[k] = h z[k].  F (B, n + 4, n + 4)
    and g (B, n + 4) stack one loop per gain set of ``gains``, a batch of
    B; h is shared.

    Column j is the plant's step map and :func:`~rollsim.pid.pid_step`,
    limits lifted, applied to unit state j, or to a unit error.  The
    controller's next state over the columns, I, E and D, depends only on
    the active branches (ki > 0; kd > 0 and n > 0; n): it is probed once
    per frame and branch set.  Summed in ``pid_step``'s order, u = kp E +
    ki I + kd D and m z + nvec u are then the probed maps bit for bit.
    Direct feedthrough uses the previous command.
    """
    ss = frame.ss
    n = ss.n
    keys = [(g.ki > 0.0, g.derivative_filter_n if g.kd > 0.0 else 0.0) for g in gains]
    for key, g in zip(keys, gains):
        if key not in frame.branches:
            probe = replace(g, output_min=None, output_max=None)
            states = [pid_step(PidState(*z[n:-2]), z[-1], frame.dt, probe)[1] for z in np.eye(n + 5)]
            frame.branches[key] = np.array([[s.integral, s.prev_error, s.prev_derivative] for s in states]).T
    i, e, d = np.array([frame.branches[key] for key in keys]).transpose(1, 0, 2)
    kp, ki, kd = np.array([(g.kp, g.ki, g.kd) for g in gains]).T[..., None]
    columns = np.empty((len(gains), n + 5, n + 4))  # one row per unit state or error
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed map diverges at once
        u = kp * e + ki * i + kd * d
        columns[..., :n] = frame.mz + u[..., None] * frame.nvec
    columns[..., n], columns[..., n + 1], columns[..., n + 2], columns[..., n + 3] = i, e, d, u
    maps = columns.swapaxes(-1, -2)
    h = np.concatenate([ss.C.ravel(), [0.0, 0.0, 0.0, ss.D]])
    return maps[..., :n + 4], maps[..., n + 4], h


_LONGEST_BLOCK = 1024  # longest verified block, in samples
_BLOCK = 128  # shortest verified block, and the most a failed block hands the stepper
_ROUNDS = 4  # verification rounds before the stepper takes over
# Largest open-loop growth over a block: the closed form sums terms that
# large to get an output of the loop's own size, so each decade costs a digit.
_GROWTH = 1e4


def _radius(f: np.ndarray) -> float:
    """Spectral radius of ``f``, estimated from the growth of its powers
    from f^128 to f^256 (Gelfand's formula); NaN or inf when they overflow."""
    power = f
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(7):
            power = power @ power
        low, high = np.max(np.abs(power)), np.max(np.abs(power @ power))
        return float((high / low) ** (1.0 / 128)) if low > 0.0 else 0.0


class _NonlinearLoop:
    """A loop with a sensor path or output limits, run over its whole
    horizon in one :meth:`run` call from one run state.

    It steps one sample at a time: one product per sample of [[F, g],
    [hF, hg]] (the next state and the next ``y_true`` at once), with only
    the sensor reading and the output clamp in Python between.

    A loop whose sensor clock ticks every sample and whose controller has
    no limits verifies blocks instead.  Only the reading depends on the
    measured value, and a reading depends only on earlier errors.  From
    the block's start state, a guess of its readings gives its errors, and
    one apply of a :class:`~rollsim.lti.PropagationPlan` of the open loop
    of :func:`_loop_maps` gives its outputs, commands and end state; one
    :func:`~rollsim.faults.apply_sensor` call then reads all the outputs
    again.  Where a reading changed the block is recomputed with it, and
    read again, until none changes.  Each round leaves every sample before
    its first changed reading final, so the rounds end, and they end on
    the readings stepping would take.

    The guess is a plan of the loop closed through an unquantized sensor,
    so only the quantizer's own error is left to correct: without one it is
    exact, one pass.  A block without ticks (a stuck or dropout window)
    reads the last reading throughout: one apply of the open-loop plan.  A
    block that needs more than ``_ROUNDS`` rounds, or whose outputs are not
    finite, ends at its last verified sample.  If it verified fewer than
    ``_BLOCK // 2``, its rounds cost more than stepping would, so the next
    ``_BLOCK`` samples are stepped before the next block.

    The run state: ``cur`` is [z; y_true] of the next sample and ``prev``
    the buffer of the sample before it (its state and error); ``ym`` is the
    last reading, None until the first sample (which always ticks) is
    read.  Verified blocks do not update ``prev``: their states are all
    finite, so when stepping next looks one step back for an overflowed
    state, a stale but finite buffer gives the same answer.
    """

    def __init__(self, spec: LoopSpec, maps: tuple, m: np.ndarray, nvec: np.ndarray) -> None:
        fs, gs, h = maps  # :func:`_loop_maps` of a batch of one
        f, g = fs[0], gs[0]
        self.size = len(g)
        self.step_map = np.vstack([np.column_stack([f, g]), np.append(h @ f, h @ g)])
        self.h, self.m, self.nvec, self.gains = h, m, nvec, spec.gains
        self.model = spec.sensor if spec.sensor is not None else SensorModel()
        # Samples per verified block: the longest power of two up to _LONGEST_BLOCK
        # over which neither the open loop nor the loop closed through an
        # unquantized sensor grows by more than _GROWTH, or 0 (it is stepped)
        # when that is under _BLOCK.  Open-loop growth costs the closed form
        # digits; closed-loop growth amplifies each quantization error, so
        # the block would not verify in a few rounds.
        self.length = 0
        if not (spec.gains.saturates or self.model.sample_dt > 0.0):
            closed = f - np.outer(g, h)
            radius = max(_radius(f), _radius(closed))
            # Compared as a root: radius ** length may overflow, and NaN (an
            # overflowed estimate) fails every test.
            lengths = (_BLOCK << k for k in range((_LONGEST_BLOCK // _BLOCK).bit_length()))
            self.length = max((n for n in lengths if radius <= _GROWTH ** (1.0 / n)), default=0)
        if self.length:
            self.guess = PropagationPlan(closed[None], gs, h[None, None], [[0.0]], self.length)
            # u[i] is the next state's last entry: F[-1] z[i] + g[-1] e[i].
            self.open = PropagationPlan(fs, gs, np.array([[h, f[-1]]]), [[0.0, g[-1]]], self.length)
        self.cur, self.prev = np.zeros(self.size + 1), np.zeros(self.size + 1)
        self.ym = None

    def run(self, sp: np.ndarray, terms: tuple | None, out: np.ndarray) -> int:
        """Run the samples of ``sp``, a whole run, on from the run state,
        writing their y_true, y_measured, error and u to the rows of
        ``out``; ``terms`` are their :func:`~rollsim.faults.sensor_terms`,
        None without a sensor path.

        A loop that does not verify blocks steps them all, a longest block
        at a time to bound the Python floats that hold its rows.  One that
        does cuts them at multiples of the block length and where ticking
        starts or stops, so each block reads every sample or none.

        Returns how many samples hold valid rows: ``len(sp)``, or fewer
        when a plant state or output became non-finite (one fewer than
        stepped, possibly -1, when the state overflowed a step before the
        output did).
        """
        if not self.length:
            for a in range(0, len(sp), _LONGEST_BLOCK):
                b = min(len(sp), a + _LONGEST_BLOCK)
                stepped = self._step(sp[a:b], None if terms is None else [x[a:b] for x in terms], out[:, a:b])
                if stepped < b - a:
                    return a + stepped
            return len(sp)
        tick, noise, offset = terms
        edges = np.flatnonzero(tick[1:] != tick[:-1]) + 1
        cuts = sorted({*range(0, len(sp), self.length), *edges.tolist(), len(sp)})
        for a, b in zip(cuts, cuts[1:]):
            while a < b:
                done = self._block(sp[a:b], bool(tick[a]), noise[a:b], offset[a:b], out[:, a:b])
                a += done
                if a < b and done < _BLOCK // 2:
                    stop = min(b, a + _BLOCK)
                    stepped = self._step(sp[a:stop], (tick[a:stop], noise[a:stop], offset[a:stop]), out[:, a:stop])
                    if stepped < stop - a:
                        return a + stepped
                    a = stop
        return len(sp)

    def _step(self, sp: np.ndarray, terms: tuple | None, out: np.ndarray) -> int:
        """As :meth:`run`, one sample at a time; ``terms`` are the ticks,
        noise and offsets of the samples, None without a sensor path."""
        size, n = self.size, self.size - 4
        step_map, h, m, nvec = self.step_map, self.h, self.m, self.nvec
        model, gains, clamps, dot = self.model, self.gains, self.gains.saturates, np.dot
        cur, nxt, ym = self.cur, self.prev, self.ym
        readings = zip(*(a.tolist() for a in terms)) if terms is not None else itertools.repeat(None)
        rows: list[float] = []
        valid = len(sp)
        # Overflow in an unstable loop is how divergence is detected, not noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for setpoint, term in zip(sp.tolist(), readings):
                y = cur.item(size)
                if not math.isfinite(y):
                    valid = len(rows) // 4
                    # y is read a step ahead of z: a plant state (or command) that
                    # overflowed while its output did not ends the run there.
                    if n and not (np.all(np.isfinite(nxt[:n])) and math.isfinite(nxt[size - 1])):
                        valid -= 1
                    break
                if term is None:
                    ym = y
                elif term[0]:  # a sensor tick; in between, the last reading holds
                    ym = apply_sensor(y, model, term[1], term[2])
                e = setpoint - ym
                cur[size] = e
                dot(step_map, cur, out=nxt)
                if clamps:
                    u_lin = nxt.item(size - 1)
                    u_out, discard = saturate(u_lin, e, gains)
                    if u_out != u_lin:
                        nxt[:n] = m @ cur[:n] + nvec * u_out
                        nxt[size - 1] = u_out
                        if discard:
                            nxt[n] = cur[n]
                        nxt[size] = h @ nxt[:size]
                cur, nxt = nxt, cur
                rows += (y, ym, e, cur.item(size - 1))
        out[:, :len(rows) // 4] = np.reshape(rows, (-1, 4)).T
        self.cur, self.prev, self.ym = cur, nxt, ym
        return valid

    def _block(
        self, sp: np.ndarray, ticking: bool, noise: np.ndarray, offset: np.ndarray, out: np.ndarray,
    ) -> int:
        """Verify one block from the run state, whose samples all tick or
        none does; returns how many of its samples are final and written
        (0 when it must be stepped at once)."""
        count, size, model = len(sp), self.size, self.model
        z = self.cur[:size]
        with np.errstate(over="ignore", invalid="ignore"):
            if ticking:
                guess, end, _ = self.guess.apply(sp - (model.bias + noise + offset), z[None])[0]
                if end < count:
                    return 0
                readings = apply_sensor(guess[:, 0], model, noise, offset)
            else:
                readings = np.full(count, self.ym)
            errors = sp - readings
            rows, end, z_end = self.open.apply(errors, z[None])[0]
            final = count
            if model.quantization_step > 0.0 and ticking:
                for left in range(_ROUNDS - 1, -1, -1):
                    if end < count:
                        return 0
                    again = apply_sensor(rows[:, 0], model, noise, offset)
                    changed = np.flatnonzero(again != readings)
                    final = int(changed[0]) if changed.size else count
                    if final == count:
                        break
                    readings = again
                    errors = sp - readings
                    # The last round keeps only its final samples.
                    rows, end, z_end = self.open.apply(errors if left else errors[:final], z[None])[0]
            if final == 0 or z_end is None:
                return 0
        for row, values in zip(out, (rows[:, 0], readings, errors, rows[:, 1])):
            row[:final] = values[:final]
        self.cur[:size] = z_end
        self.cur[size] = self.h @ z_end
        self.ym = readings.item(final - 1)
        return final


def simulate_loop(spec: LoopSpec, frame: LoopFrame | None = None) -> LoopResult:
    """Run the discrete closed loop described by ``spec``.

    Per step: evaluate setpoint, measure the plant output through the
    sensor/fault path, form the error, run :func:`~rollsim.pid.pid_step`,
    and hold the command over the next integration step.  Every route runs
    that step as the maps of :func:`_loop_maps`: a linear spec in closed
    form through its frame's plan (:meth:`LoopFrame.linear_rows`), any
    other through :class:`_NonlinearLoop`.  The first sample with a
    non-finite plant state or output flags the result diverged at its
    time, and the series ends just before it.  ``frame``, built here when not given, is shared
    by loops that differ in gains only; ``t`` and ``setpoint`` are its views,
    and a linear loop's series holds the channels it forms.
    """
    frame = frame or LoopFrame(spec)
    if frame.key != (spec.plant, spec.sim, spec.setpoint):
        raise ValueError("the loop frame belongs to another plant, step or setpoint")
    t = frame.t
    sp = frame.sp
    steps = spec.sim.steps
    if spec.is_linear:
        rows, end = frame.linear_rows(spec.gains)
        y_true, *others = rows.T
        formed = dict(zip(("y_true", "y_measured", *frame.channels[1:]), (y_true, y_true, *others)))
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed map diverges at once
            loop = _NonlinearLoop(spec, _loop_maps(frame, [spec.gains]), frame.m, frame.nvec)
        measured = spec.sensor is not None or spec.fault is not None
        terms = sensor_terms(loop.model, spec.fault, spec.seed, t) if measured else None
        channels = np.empty((4, len(t)))  # y_true, y_measured, error, u
        end = loop.run(sp, terms, channels)
        formed = dict(zip(("y_true", "y_measured", "error", "u"), channels))

    diverged = end <= steps
    series = TimeSeries(
        t=t[:end],
        channels={
            "setpoint": sp[:end],
            **{name: values[:end] for name, values in formed.items()},
        },
    )
    divergence_time = float(t[end]) if diverged else None
    return LoopResult(series=series, spec=spec, diverged=diverged, divergence_time=divergence_time)


# ---------------------------------------------------------------------------
# The multibody demo
# ---------------------------------------------------------------------------

@dataclass
class MultibodyDemo:
    """Open-loop vs PID comparison on the multibody stand model.

    The closed loop is run with the raw first-difference (ideal)
    derivative and with the filtered derivative, because the ideal PID has
    no realizable transfer function and its stability can only be judged
    from the characteristic polynomial.  The filtered variant is the one a
    real controller would run.  Each distinct loop is simulated once:
    without a derivative term both are the loop of the given gains.  A
    caller whose own loop spec equals a result's ``spec`` can reuse that
    result instead of simulating the same loop again.
    """

    open: TimeSeries
    open_bounded: bool
    open_routh: RouthVerdict
    open_verdict: StabilityVerdict
    closed_ideal: LoopResult
    closed_filtered: LoopResult
    ideal_char: np.ndarray
    ideal_verdict: StabilityVerdict


_FILTER_N = 100.0  # derivative filter of the demo's filtered loop when gains set none


def multibody_demo(gains: PidGains = MULTIBODY_REFERENCE_GAINS, sim: SimConfig = SimConfig()) -> MultibodyDemo:
    """Step the multibody plant open-loop and under PID control.

    Setpoint and responses are in normalized units: the exported model
    carries no physical input/output scaling.
    """
    plant = multibody_tf()
    open_ts = step_response(plant, sim)  # shorter than the horizon: it diverged
    open_bounded = len(open_ts) == sim.steps + 1 and series_is_bounded(open_ts, "y")

    setpoint = SetpointProfile.step(1.0)
    ideal_gains = filtered_gains = gains  # without a derivative term the filter changes nothing
    if gains.kd:
        n = gains.derivative_filter_n
        ideal_gains = replace(gains, derivative_filter_n=math.inf)
        filtered_gains = replace(gains, derivative_filter_n=n if 0.0 < n < math.inf else _FILTER_N)
    specs = [
        LoopSpec(plant=plant, gains=g, setpoint=setpoint, sim=sim)
        for g in dict.fromkeys((ideal_gains, filtered_gains))
    ]
    frame = LoopFrame(specs[0])  # the loops differ in gains only: one batch
    closed = {spec.gains: simulate_loop(spec, frame) for run in frame.batches(specs) for spec in run}
    closed_ideal, closed_filtered = closed[ideal_gains], closed[filtered_gains]
    ideal_verdict, ideal_char, _ = _analysis(ideal_gains, plant)
    return MultibodyDemo(
        open=open_ts,
        open_bounded=open_bounded,
        open_routh=routh_classification(plant.den),
        open_verdict=classify_polynomial_stability(plant.den),
        closed_ideal=closed_ideal,
        closed_filtered=closed_filtered,
        ideal_char=ideal_char,
        ideal_verdict=ideal_verdict,
    )
