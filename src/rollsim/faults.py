"""Sensor models, fault injection, and residual-based fault detection.

A :class:`SensorModel` adds bias, Gaussian noise, quantization, and an
optional slower sample clock to a true signal value.  A :class:`FaultSpec`
overrides the measurement after an onset time: stuck-at (hold the last
healthy reading), bias jump, drift, or dropout (hold-last for a fixed
duration).

A reading splits in two.  What does not depend on the measured value
(the sensor ticks, the noise draw of each tick, the bias-jump or drift
term and the stuck/dropout window) is a function of the time grid alone,
computed with numpy a chunk of samples at a time by :func:`sensor_terms`.
What does, adding those terms to the value, quantizing and holding, is
:func:`apply_sensor`.  The loop calls it on one reading at a time when it
steps sample by sample, and on a whole block of readings at once when it
verifies a block (see :mod:`rollsim.loops`).

Randomness is a pure function of (seed, draw counter) via a splitmix64
bit mixer feeding Box-Muller, and the n-th tick of a run draws counter n,
so a measurement stream is reproducible from its seed alone; no global
generator is touched.
Detection works on a residual series (measured minus model-predicted,
supplied by the caller) with run-length-confirmed threshold and rate
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

__all__ = [
    "DetectorConfig",
    "FaultEvent",
    "FaultKind",
    "FaultSpec",
    "SensorModel",
    "apply_sensor",
    "counter_gauss",
    "detect_faults",
    "sensor_terms",
]


# ---------------------------------------------------------------------------
# Counter-based Gaussian draws
# ---------------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO53 = 9007199254740992.0  # 2**53


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps modulo 2**64, which is the 64-bit mask.
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def counter_gauss(seed: int, counter: int | np.ndarray) -> float | np.ndarray:
    """Standard normal deviate as a pure function of (seed, counter).

    ``counter`` is an int, giving a float, or an integer array, giving an
    array of draws of the same shape.  The bit mixing runs in numpy
    ``uint64``.  ``log`` and ``cos`` stay ``math`` calls mapped over the
    elements, because numpy's differ from them in the last ulp on some
    inputs; the scaling, ``sqrt`` and product are correctly rounded IEEE
    operations, so numpy gives the same bits for them.
    """
    scalar = np.ndim(counter) == 0
    counters = np.atleast_1d(
        np.uint64(int(counter) & _MASK64) if scalar else np.asarray(counter).astype(np.uint64)
    )
    base = _splitmix64(np.uint64(((seed & _MASK64) << 1) & _MASK64) ^ _splitmix64(counters.ravel()))
    u1 = (_splitmix64(base) >> np.uint64(11)).astype(float) / _TWO53
    u2 = (_splitmix64(base + np.uint64(1)) >> np.uint64(11)).astype(float) / _TWO53
    u1[u1 <= 0.0] = 5e-324
    log_u1 = np.fromiter(map(math.log, u1.tolist()), float, len(u1))
    cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), float, len(u2))
    draws = np.sqrt(-2.0 * log_u1) * cos_u2
    return float(draws[0]) if scalar else draws.reshape(counters.shape)


# ---------------------------------------------------------------------------
# Sensor and fault models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensorModel:
    """Measurement imperfections; all defaults give an ideal pass-through."""

    noise_sigma: float = 0.0        # Gaussian std, output units
    bias: float = 0.0               # constant offset, output units
    quantization_step: float = 0.0  # 0 disables
    sample_dt: float = 0.0          # 0 samples every simulation step

    def __post_init__(self) -> None:
        for name in ("noise_sigma", "bias", "quantization_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.quantization_step < 0:
            raise ValueError("quantization_step must be >= 0")
        if self.sample_dt < 0:
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
        if self.onset_t < 0:
            raise ValueError("onset_t must be >= 0")
        if not math.isfinite(self.magnitude):
            raise ValueError("magnitude must be finite")
        if self.duration is not None and not self.duration > 0:
            raise ValueError("duration must be > 0 when given")

    def active(self, t: float | np.ndarray) -> bool | np.ndarray:
        """Whether the fault acts at time ``t`` (elementwise for an array)."""
        return (t >= self.onset_t) & (self.duration is None or t < self.onset_t + self.duration)


def sensor_terms(
    model: SensorModel, fault: FaultSpec | None, seed: int, t: np.ndarray, chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The value-independent part of every reading over the time grid ``t``.

    Yields, per ``chunk`` samples of ``t``, the arrays ``(tick, noise,
    offset, window)``: whether the sample is a sensor tick, and for
    :func:`apply_sensor` sigma times the tick's draw, the bias-jump or
    drift term, and whether a stuck or dropout window is open.  Between
    ticks the last reading holds and the other three are not used.  A tick
    is the first sample at least ``sample_dt`` after the previous one, and
    the n-th tick draws counter n.
    """
    spacing = model.sample_dt * (1.0 - 1e-9)  # slack: float error must not skip a tick
    last_tick, drawn = -math.inf, 0
    for start in range(0, len(t), chunk):
        tc = t[start:start + chunk]
        tick = np.ones(len(tc), dtype=bool)
        if model.sample_dt > 0.0:
            for i, ti in enumerate(tc.tolist()):
                tick[i] = ti - last_tick >= spacing
                last_tick = ti if tick[i] else last_tick
        # -0.0 is the exact additive identity, so an absent term changes no reading.
        noise, offset = np.full(len(tc), -0.0), np.full(len(tc), -0.0)
        window = np.zeros(len(tc), dtype=bool)
        if model.noise_sigma > 0.0:
            count = int(np.count_nonzero(tick))
            noise[tick] = model.noise_sigma * counter_gauss(seed, np.arange(drawn, drawn + count))
            drawn += count
        if fault is not None:
            active = fault.active(tc)
            if fault.kind is FaultKind.BIAS_JUMP:
                offset[active] = fault.magnitude
            elif fault.kind is FaultKind.DRIFT:
                offset[active] = fault.magnitude * (tc[active] - fault.onset_t)
            else:
                window = active
        yield tick, noise, offset, window


def apply_sensor(
    true_value: float | np.ndarray, model: SensorModel, noise: float | np.ndarray = -0.0,
    offset: float | np.ndarray = -0.0, hold: float | None = None,
) -> float | np.ndarray:
    """One reading at a sensor tick, or elementwise a block of them.

    Adds the terms in the order ((true_value + bias) + noise) + offset,
    quantizes, then a stuck or dropped-out sensor reads ``hold`` (the last
    reading before its window opened) instead.  ``noise`` and ``offset``
    come from :func:`sensor_terms`.  For arrays, every element reads a
    given ``hold``.
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
    if hold is None:
        return value
    return np.full(value.shape, hold) if isinstance(value, np.ndarray) else hold


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
        if self.rate_threshold < 0:
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
