"""Sensor models, fault injection, and residual-based fault detection.

A :class:`SensorModel` adds bias, Gaussian noise, quantization, and an
optional slower sample clock to a true signal value.  A :class:`FaultSpec`
overrides the measurement after an onset time: stuck-at (hold the last
healthy reading), bias jump, drift, or dropout (hold-last for a fixed
duration).

A reading splits in two.  What does not depend on the measured value
(which samples the sensor reads, each tick's noise draw and the bias-jump
or drift term) is a function of the time grid alone, computed with numpy
for the whole run at once by :func:`sensor_terms`; a stuck or dropout
window is a stretch without ticks.  What does, adding those terms to the
value and quantizing, is :func:`apply_sensor`.  The loop calls it on one
reading at a time when it steps, on a block of readings at once when it
verifies a block, and not at all where nothing ticks.

Randomness is a pure function of (seed, draw counter) via a splitmix64
bit mixer feeding Box-Muller, and the n-th clock tick of a run owns counter n,
drawn only when the sensor reads at that tick, so a measurement stream is
reproducible from its seed alone; no global generator is touched.
Detection works on a residual series supplied by the caller (the command
line passes measured minus true output, which is ground truth, not a
model prediction) with run-length-confirmed threshold and rate tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


# ---------------------------------------------------------------------------
# Counter-based Gaussian draws
# ---------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO53 = 9007199254740992.0  # 2**53


def _splitmix64(z: np.ndarray, scratch: np.ndarray) -> None:
    """Mix every word of ``z`` in place by SplitMix64's output function;
    ``scratch`` is a buffer of z's shape.  uint64 arithmetic wraps modulo
    2**64, which is the 64-bit mask."""
    z += np.uint64(0x9E3779B97F4A7C15)
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def counter_gauss(seed: int, counter: np.ndarray) -> np.ndarray:
    """Standard normal deviates as a pure function of (seed, counter).

    ``counter`` is an integer array, 0-d included, giving an array of
    draws of the same shape.  The bit mixing runs in numpy
    ``uint64``, in place on two buffers: the counters are mixed, xored
    with the seed's word and mixed again into the base, and one call
    mixes the stacked [base, base + 1] that give both uniforms.  They are
    scaled into the second buffer, and the float stage runs in place on
    them and on the logs.  ``cos`` is numpy's, whose float64 results
    equal ``math.cos`` bit for bit on the angles 2*pi*u2 in [0, 2*pi)
    (pinned by the tests against a plain-``math`` reference).  ``log``
    stays a ``math`` call mapped over the elements (a ``memoryview``
    yields them as floats without a list), because numpy's float64
    ``log`` differs from libm's in the last ulp on about 0.35 % of the
    arguments u1 in (0, 1).  The scaling, ``sqrt`` and product are
    correctly rounded IEEE operations, so numpy gives the same bits for
    them.
    """
    pair, scratch = np.empty((2, 2, np.size(counter)), dtype=np.uint64)  # [base, base + 1]
    base = pair[0]
    base[:] = np.ravel(counter)  # wraps as uint64
    _splitmix64(base, scratch[0])
    base ^= np.uint64(((seed & _MASK64) << 1) & _MASK64)
    _splitmix64(base, scratch[0])
    np.add(base, np.uint64(1), out=pair[1])
    _splitmix64(pair, scratch)
    pair >>= np.uint64(11)
    u1, u2 = np.divide(pair, _TWO53, out=scratch.view(float))
    np.maximum(u1, 5e-324, out=u1)  # only 0 is below it
    draws = np.fromiter(map(math.log, memoryview(u1)), float, len(u1))  # log u1, then the draws
    draws *= -2.0
    np.sqrt(draws, out=draws)
    u2 *= 2.0 * math.pi
    draws *= np.cos(u2, out=u2)
    return draws.reshape(np.shape(counter))


# ---------------------------------------------------------------------------
# Sensor and fault models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensorModel:
    """Measurement imperfections; all defaults give an ideal pass-through."""

    noise_sigma: float = 0.0        # Gaussian std, output units
    bias: float = 0.0               # constant offset, output units
    quantization_step: float = 0.0  # 0 disables
    # 0 reads every step.  A tick is spaced from the previous tick, not on a fixed
    # clock, so sample_dt / dt = r reads every ceil(r) steps: 1.5 ms at dt 1 ms, every 2 ms.
    sample_dt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("noise_sigma", "bias", "quantization_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.quantization_step < 0:
            raise ValueError("quantization_step must be >= 0")
        if not self.sample_dt >= 0:  # NaN too: it would read every sample
            raise ValueError("sample_dt must be >= 0")

    @property
    def is_ideal(self) -> bool:
        return (
            self.noise_sigma == 0.0
            and self.bias == 0.0
            and self.quantization_step == 0.0
            and self.sample_dt == 0.0
        )


class FaultKind(str, Enum):
    STUCK = "stuck"
    BIAS_JUMP = "bias_jump"
    DRIFT = "drift"
    DROPOUT = "dropout"


@dataclass(frozen=True)
class FaultSpec:
    """One injected sensor fault.

    ``magnitude`` is the jump for BIAS_JUMP and the slope (units/s) for
    DRIFT; STUCK and DROPOUT ignore it.  ``duration`` bounds the active
    window [onset_t, onset_t + duration); ``None`` means permanent, which
    is the usual choice for STUCK.
    """

    kind: FaultKind
    onset_t: float
    magnitude: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", FaultKind(self.kind))
        if not self.onset_t >= 0:
            raise ValueError("onset_t must be >= 0")
        if not math.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")
        if self.duration is not None and not self.duration > 0:
            raise ValueError("duration must be > 0 when given")

    def active(self, t: float | np.ndarray) -> bool | np.ndarray:
        """Whether the fault acts at time ``t`` (elementwise for an array)."""
        return (t >= self.onset_t) & (self.duration is None or t < self.onset_t + self.duration)


def sensor_terms(
    model: SensorModel, fault: FaultSpec | None, seed: int, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The value-independent part of every reading over the whole time grid ``t``.

    Returns the arrays ``(tick, noise, offset)``, one entry per sample of
    ``t``: whether the sensor reads the sample, and for
    :func:`apply_sensor` sigma times the tick's draw and the bias-jump or
    drift term, unused between ticks, where the last reading holds.  They
    scale with the run's horizon, as its series does, and the draws take
    one :func:`counter_gauss` call.  The n-th clock tick, the first sample
    at least ``sample_dt`` after the previous one, owns counter n.  A
    stuck or dropout window clears the ticks inside it, except the run's
    first sample, which has no earlier reading to hold; its ticks keep
    their counter numbers, so the noise after the window is unchanged,
    but they are not drawn.
    """
    spacing = model.sample_dt * (1.0 - 1e-9)  # slack: float error must not skip a tick
    tick = np.ones(len(t), dtype=bool)
    if model.sample_dt > 0.0:
        last_tick = -math.inf
        for i, ti in enumerate(t.tolist()):
            tick[i] = ti - last_tick >= spacing
            last_tick = ti if tick[i] else last_tick
    # -0.0 is the exact additive identity, so an absent term changes no reading.
    noise, offset = np.full(len(t), -0.0), np.full(len(t), -0.0)
    reading = tick
    if fault is not None:
        active = fault.active(t)
        if fault.kind is FaultKind.BIAS_JUMP:
            offset[active] = fault.magnitude
        elif fault.kind is FaultKind.DRIFT:
            offset[active] = fault.magnitude * (t[active] - fault.onset_t)
        else:
            active[:1] = False
            reading = tick & ~active
    if model.noise_sigma > 0.0 and reading.any():
        counters = np.cumsum(tick)[reading]
        counters -= 1  # the clock-tick numbers of the readings
        draws = counter_gauss(seed, counters)
        draws *= model.noise_sigma
        noise[reading] = draws
    return reading, noise, offset


def apply_sensor(
    true_value: float | np.ndarray, model: SensorModel, noise: float | np.ndarray = -0.0,
    offset: float | np.ndarray = -0.0,
) -> float | np.ndarray:
    """One reading at a sensor tick, or elementwise a block of them.

    Adds the terms in the order ((true_value + bias) + noise) + offset,
    then quantizes.  ``noise`` and ``offset`` come from
    :func:`sensor_terms`.  A stuck or dropped-out sensor has no ticks, so
    it is never called for one: the loop keeps its last reading.
    """
    value = true_value + model.bias + noise + offset
    step = model.quantization_step
    if step > 0.0:
        if isinstance(value, np.ndarray):
            with np.errstate(over="ignore"):
                scaled = value / step
            # Too large to count in steps: already coarser than one, read as is.
            # Adding +0.0 turns -0.0 into +0.0, as the scalar int round gives.
            value = np.where(np.isfinite(scaled), np.round(scaled) * step + 0.0, value)
        else:
            try:
                value = round(value / step) * step
            except OverflowError:
                pass  # too large to count in steps: already coarser than one
    return value


# ---------------------------------------------------------------------------
# Residual-based detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorConfig:
    """Run-length-confirmed residual thresholding.

    An alarm needs ``consecutive_required`` successive samples with
    |residual| above ``residual_threshold`` (or rate of change above
    ``rate_threshold``, when enabled).  ``window`` > 0 subtracts the mean
    of the first ``window`` samples as a baseline before testing, which
    calibrates out constant model mismatch.
    """

    residual_threshold: float
    rate_threshold: float = 0.0     # units/s, 0 disables the rate test
    consecutive_required: int = 1
    window: int = 0

    def __post_init__(self) -> None:
        if not self.residual_threshold > 0:
            raise ValueError("residual_threshold must be > 0")
        if not self.rate_threshold >= 0:
            raise ValueError("rate_threshold must be >= 0")
        if self.consecutive_required < 1:
            raise ValueError("consecutive_required must be >= 1")
        if self.window < 0:
            raise ValueError("window must be >= 0")


@dataclass(frozen=True)
class FaultEvent:
    detected_t: float
    kind_hint: str        # "threshold" or "rate"
    peak_residual: float


def _qualifying_runs(mask: np.ndarray, min_len: int) -> list[tuple[int, int]]:
    """Maximal True runs of length >= min_len as (start, end) inclusive."""
    runs: list[tuple[int, int]] = []
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return runs
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[idx[0]], idx[breaks + 1]])
    ends = np.concatenate([idx[breaks], [idx[-1]]])
    for s, e in zip(starts, ends):
        if e - s + 1 >= min_len:
            runs.append((int(s), int(e)))
    return runs


def detect_faults(
    t: np.ndarray, residual: np.ndarray, cfg: DetectorConfig
) -> list[FaultEvent]:
    """Scan a uniformly sampled residual series for confirmed alarms.

    Overlapping threshold and rate alarms merge into a single event whose
    ``detected_t`` is the first sample of the merged run and whose
    ``kind_hint`` comes from the earliest-starting contributor (threshold
    wins ties).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(residual, dtype=float)
    if t.shape != r.shape:
        raise ValueError("time and residual arrays must have the same shape")
    if len(t) < 2:
        return []
    dt = float(t[1] - t[0])

    if cfg.window > 0:
        r = r - float(np.mean(r[: cfg.window]))

    intervals: list[tuple[int, int, str]] = []
    for s, e in _qualifying_runs(np.abs(r) > cfg.residual_threshold, cfg.consecutive_required):
        intervals.append((s, e, "threshold"))
    if cfg.rate_threshold > 0.0:
        rate_mask = np.zeros(len(r), dtype=bool)
        rate_mask[1:] = np.abs(np.diff(r)) / dt > cfg.rate_threshold
        for s, e in _qualifying_runs(rate_mask, cfg.consecutive_required):
            intervals.append((s, e, "rate"))

    # Merge overlapping intervals; threshold outranks rate on equal starts.
    intervals.sort(key=lambda iv: (iv[0], 0 if iv[2] == "threshold" else 1))
    events: list[FaultEvent] = []
    merged: tuple[int, int, str] | None = None
    for iv in intervals:
        if merged is not None and iv[0] <= merged[1]:
            merged = (merged[0], max(merged[1], iv[1]), merged[2])
        else:
            if merged is not None:
                events.append(_event_from(t, r, merged))
            merged = iv
    if merged is not None:
        events.append(_event_from(t, r, merged))
    return events


def _event_from(t: np.ndarray, r: np.ndarray, interval: tuple[int, int, str]) -> FaultEvent:
    s, e, hint = interval
    return FaultEvent(
        detected_t=float(t[s]),
        kind_hint=hint,
        peak_residual=float(np.max(np.abs(r[s : e + 1]))),
    )
