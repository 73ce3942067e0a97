"""Sensor and fault semantics: ticks, the order of the reading's terms,
stuck/dropout holds, reproducible noise draws, and detector merge rules."""

import math

import numpy as np
import pytest

import rollsim.faults as faults
from rollsim.faults import (
    DetectorConfig,
    FaultKind,
    FaultSpec,
    SensorModel,
    apply_sensor,
    counter_gauss,
    detect_faults,
    sensor_terms,
)
from rollsim.loops import LoopSpec, Segment, SetpointProfile, simulate_loop
from rollsim.lti import SimConfig, tf_new
from rollsim.pid import PidGains

MASK64 = 0xFFFFFFFFFFFFFFFF


def reference_splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_gauss(seed: int, counter: int) -> float:
    """The draw in plain Python integers: splitmix64 feeding Box-Muller."""
    base = reference_splitmix64(((seed & MASK64) << 1) ^ reference_splitmix64(counter & MASK64))
    u1 = (reference_splitmix64(base) >> 11) / 2.0**53
    u2 = (reference_splitmix64(base + 1) >> 11) / 2.0**53
    if u1 <= 0.0:
        u1 = 5e-324
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def per_sample(arrays) -> list:
    """The arrays of ``sensor_terms`` as one entry per sample: None between
    ticks, else (noise, offset)."""
    return [(noise, offset) if tick else None for tick, noise, offset in zip(*(a.tolist() for a in arrays))]


def loop(sensor=None, fault=None, seed=0, t_end=2.0, dt=1e-3) -> LoopSpec:
    return LoopSpec(
        plant=tf_new([2.0], [1.0, 3.0]),
        gains=PidGains(kp=2.0, ki=1.0),
        setpoint=SetpointProfile.step(1.0),
        sensor=sensor,
        fault=fault,
        seed=seed,
        sim=SimConfig(dt=dt, t_end=t_end),
    )


# ---------------------------------------------------------------------------
# Noise draws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, -5, 2**64 - 1, 2**70 + 3])
def test_array_draws_equal_the_plain_python_draws_bit_for_bit(seed):
    # 25,000 counters per seed, 10^5 over the four seeds, including the
    # wrap-around just below 2**64.
    low = np.arange(24_000, dtype=np.uint64)
    high = np.arange(2**64 - 1000, 2**64 - 1, dtype=np.uint64)
    counters = np.concatenate([low, high, np.array([2**64 - 1], dtype=np.uint64)])
    draws = counter_gauss(seed, counters)
    expected = [reference_gauss(seed, c) for c in counters.tolist()]
    assert draws.dtype == np.float64 and draws.shape == counters.shape
    assert draws.tolist() == expected  # exact float equality, not a tolerance
    assert all(counter_gauss(seed, c) == reference_gauss(seed, c) for c in (0, 1, 2**64 - 1))


def test_signed_and_shaped_counters():
    counters = np.array([[-1, 0], [7, -(2**63)]], dtype=np.int64)
    draws = counter_gauss(3, counters)
    assert draws.shape == (2, 2)
    assert draws.tolist() == [[reference_gauss(3, int(c)) for c in row] for row in counters.tolist()]
    assert counter_gauss(3, np.int64(-1)) == reference_gauss(3, -1)


def test_same_seed_same_stream_other_seed_other_stream():
    sensor = SensorModel(noise_sigma=0.01, quantization_step=1e-3)
    first = simulate_loop(loop(sensor, seed=11)).series["y_measured"]
    again = simulate_loop(loop(sensor, seed=11)).series["y_measured"]
    other = simulate_loop(loop(sensor, seed=12)).series["y_measured"]
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_the_nth_tick_draws_counter_n():
    t = np.arange(10_001) * 1e-3
    model = SensorModel(noise_sigma=0.5, sample_dt=2e-3)
    terms = per_sample(sensor_terms(model, None, 9, t))
    ticks = [term for term in terms if term is not None]
    assert len(terms) == len(t)
    assert [noise for noise, _ in ticks] == [0.5 * reference_gauss(9, n) for n in range(len(ticks))]


# ---------------------------------------------------------------------------
# Ticks and holds between them
# ---------------------------------------------------------------------------

def reference_ticks(t: np.ndarray, sample_dt: float) -> list[int]:
    """A tick is the first sample, then each first sample at least
    sample_dt (less a 1e-9 relative slack) after the previous tick."""
    ticks, last = [], None
    for k, tk in enumerate(t.tolist()):
        if last is None or not tk - last < sample_dt * (1.0 - 1e-9):
            ticks.append(k)
            last = tk
    return ticks


@pytest.mark.parametrize("dt, sample_dt", [(1e-3, 1e-2), (1e-3, 2.5e-3), (1e-3, 1e-3), (3e-3, 1e-3), (0.1, 0.3)])
def test_sample_ticks_follow_the_spacing_rule(dt, sample_dt):
    t = np.arange(9001) * dt
    terms = per_sample(sensor_terms(SensorModel(sample_dt=sample_dt), None, 0, t))
    assert [k for k, term in enumerate(terms) if term is not None] == reference_ticks(t, sample_dt)


@pytest.mark.parametrize("field", ["noise_sigma", "bias", "quantization_step", "sample_dt"])
def test_sensor_model_rejects_nan(field):
    # A NaN sample_dt compares False against 0 and would read every sample.
    with pytest.raises(ValueError, match=field):
        SensorModel(**{field: math.nan})


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: FaultSpec(kind="bias_jump", onset_t=math.nan), "onset_t"),
        (lambda: Segment(t_start=math.nan, kind="step"), "t_start"),
        (lambda: DetectorConfig(residual_threshold=1.0, rate_threshold=math.nan), "rate_threshold"),
    ],
    ids=["fault_onset_t", "segment_t_start", "detector_rate_threshold"],
)
def test_constructors_reject_nan(make, field):
    # NaN compares False against 0: the fault would never fire, the rate
    # test would be silently off.  The scenario reader rejects NaN too.
    with pytest.raises(ValueError, match=field):
        make()


def test_measurement_is_held_between_ticks():
    spec = loop(SensorModel(noise_sigma=0.01, sample_dt=0.01))
    ym = simulate_loop(spec).series["y_measured"]
    ticks = reference_ticks(simulate_loop(spec).series.t, 0.01)
    assert ticks[:3] == [0, 10, 20]
    for a, b in zip(ticks, ticks[1:] + [len(ym)]):
        assert np.all(ym[a:b] == ym[a])
    assert len(set(ym[ticks].tolist())) == len(ticks)  # every tick draws afresh


# ---------------------------------------------------------------------------
# One reading: the order of its terms
# ---------------------------------------------------------------------------

def test_terms_add_left_to_right_before_quantizing():
    # 1e16 + 1 rounds back to 1e16, so the grouping shows in the result.
    model = SensorModel(bias=1.0)
    assert apply_sensor(1e16, model, 1.0, 1.0) == ((1e16 + 1.0) + 1.0) + 1.0 == 1e16
    assert apply_sensor(1e16, model, 1.0, 1.0) != 1e16 + (1.0 + 1.0 + 1.0)


def test_bias_noise_and_fault_come_before_quantization_and_hold_after():
    model = SensorModel(bias=0.2, quantization_step=1.0)
    # Quantizing first would give round(0.4) + 0.2 + 0.3 + 0.1 = 0.6.
    assert apply_sensor(0.4, model, 0.3, 0.1) == 1.0
    assert apply_sensor(0.4, model, 0.3, -0.6) == 0.0
    assert apply_sensor(0.4, SensorModel()) == 0.4


def test_a_value_too_large_to_quantize_is_read_as_is():
    model = SensorModel(quantization_step=1e-6)
    assert apply_sensor(1e305, model) == 1e305
    assert apply_sensor(-1e305, model, offset=-1e305) == -2e305


@pytest.mark.parametrize("model", [
    SensorModel(bias=0.1, quantization_step=1e-3),
    SensorModel(quantization_step=0.5),  # k + 1/2 steps: ties round to even
    SensorModel(quantization_step=1e-6),  # 1e305 is too large to count in steps
    SensorModel(bias=-0.2),
], ids=["fine", "ties", "huge", "unquantized"])
def test_a_block_of_readings_equals_its_readings_one_at_a_time(model):
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.normal(0.0, 2.0, 500), [0.25, 0.75, -0.25, 1.25, 1e305, -1e305, 0.0, -0.0]])
    noise = np.where(rng.random(len(values)) < 0.5, -0.0, rng.normal(0.0, 1e-3, len(values)))
    offset = np.where(rng.random(len(values)) < 0.5, -0.0, 0.05)
    expected = [apply_sensor(v, model, n, o) for v, n, o in zip(values.tolist(), noise.tolist(), offset.tolist())]
    # Compared as bits, so a -0.0 where one at a time reads +0.0 fails.
    block = apply_sensor(values, model, noise, offset)
    assert block.view(np.int64).tolist() == np.array(expected, dtype=float).view(np.int64).tolist()


def test_fault_terms_act_only_inside_their_window():
    t = np.arange(2001) * 1e-3
    bias = FaultSpec(kind="bias_jump", onset_t=0.5, magnitude=0.25, duration=0.5)
    drift = FaultSpec(kind="drift", onset_t=1.0, magnitude=2.0)
    for fault in (bias, drift):
        terms = per_sample(sensor_terms(SensorModel(), fault, 0, t))
        assert None not in terms  # clears no tick
        offsets = np.array([offset for _, offset in terms])
        active = np.array([fault.active(tk) for tk in t.tolist()])
        assert np.all(offsets[~active] == 0.0)
        if fault is bias:
            assert np.all(offsets[active] == 0.25)
        else:
            assert np.array_equal(offsets[active], 2.0 * (t[active] - 1.0))


@pytest.mark.parametrize("onset_t", [0.0, 0.2505], ids=["from_the_first_sample", "across_chunk_edges"])
@pytest.mark.parametrize("sample_dt", [0.0, 2.5e-3])
@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
def test_only_stuck_and_dropout_windows_clear_ticks(kind, sample_dt, onset_t):
    # A window over samples 251-750, or from the first sample.  The n-th
    # clock tick draws counter n whether or not a window cleared it, so the
    # noise after a window is unchanged.
    t = np.arange(2001) * 1e-3
    fault = FaultSpec(kind=kind, onset_t=onset_t, magnitude=0.1, duration=0.5)
    terms = per_sample(sensor_terms(SensorModel(noise_sigma=0.5, sample_dt=sample_dt), fault, 9, t))
    holds = kind in (FaultKind.STUCK, FaultKind.DROPOUT)
    expected = [None] * len(t)
    for n, k in enumerate(reference_ticks(t, sample_dt)):
        if not (holds and k > 0 and fault.active(t[k])):  # the run's first sample always reads
            expected[k] = 0.5 * reference_gauss(9, n)
    assert [None if term is None else term[0] for term in terms] == expected
    assert np.count_nonzero(fault.active(t)) == 500 and terms[0] is not None


@pytest.mark.parametrize("sample_dt", [0.0, 2e-3])
@pytest.mark.parametrize("kind", [FaultKind.STUCK, FaultKind.DROPOUT], ids=lambda k: k.value)
def test_a_window_draws_only_the_ticks_that_read(monkeypatch, kind, sample_dt):
    # The window over samples 251-750: one call draws the ticks on both sides.
    t = np.arange(2001) * 1e-3
    fault = FaultSpec(kind=kind, onset_t=0.2505, duration=0.5)
    passed = []
    original = faults.counter_gauss
    monkeypatch.setattr(faults, "counter_gauss", lambda seed, c: passed.append(np.array(c)) or original(seed, c))
    terms = per_sample(sensor_terms(SensorModel(noise_sigma=0.5, sample_dt=sample_dt), fault, 9, t))

    # (clock-tick number, sample) of every tick outside the window
    reading = [(n, k) for n, k in enumerate(reference_ticks(t, sample_dt)) if not fault.active(t[k])]
    assert len(passed) == 1 and sum(len(c) for c in passed) == len(reading)
    assert np.concatenate(passed).tolist() == [n for n, _ in reading]
    assert [k for k, term in enumerate(terms) if term is not None] == [k for _, k in reading]
    assert [terms[k][0] for _, k in reading] == [0.5 * reference_gauss(9, n) for n, _ in reading]


# ---------------------------------------------------------------------------
# Stuck and dropout holds
# ---------------------------------------------------------------------------

def test_stuck_sensor_holds_the_last_reading_before_onset():
    sensor = SensorModel(noise_sigma=0.01, quantization_step=1e-3)
    result = simulate_loop(loop(sensor, FaultSpec(kind="stuck", onset_t=0.5)))
    t, ym = result.series.t, result.series["y_measured"]
    onset = int(np.argmax(t >= 0.5))
    assert np.all(ym[onset:] == ym[onset - 1])
    assert len(set(ym[:onset].tolist())) > 10


def test_dropout_holds_only_for_its_duration():
    sensor = SensorModel(noise_sigma=0.01, quantization_step=1e-3)
    fault = FaultSpec(kind="dropout", onset_t=0.5, duration=0.25)
    result = simulate_loop(loop(sensor, fault))
    t, ym = result.series.t, result.series["y_measured"]
    start, stop = int(np.argmax(t >= 0.5)), int(np.argmax(t >= 0.75))
    assert np.all(ym[start:stop] == ym[start - 1])
    assert ym[stop] != ym[start - 1] and len(set(ym[stop:].tolist())) > 10


def test_hold_from_the_first_reading_is_that_reading():
    # A window open at t = 0 has no earlier reading: it holds the first one.
    sensor = SensorModel(bias=0.125, sample_dt=0.01)
    result = simulate_loop(loop(sensor, FaultSpec(kind="stuck", onset_t=0.0)))
    assert np.all(result.series["y_measured"] == 0.125)


def test_hold_sits_on_the_last_tick_with_a_slow_sensor():
    sensor = SensorModel(noise_sigma=0.01, sample_dt=0.1)
    result = simulate_loop(loop(sensor, FaultSpec(kind="stuck", onset_t=0.55)))
    t, ym = result.series.t, result.series["y_measured"]
    last_tick = int(np.argmax(t >= 0.5))  # ticks at 0, 0.1, ..., 0.5 before onset
    assert np.all(ym[last_tick:] == ym[last_tick])
    assert ym[last_tick] != ym[last_tick - 1]


# ---------------------------------------------------------------------------
# Detector merge rules
# ---------------------------------------------------------------------------

def test_runs_shorter_than_consecutive_required_do_not_alarm():
    t = np.arange(20) * 0.1
    r = np.zeros(20)
    r[3:5] = 1.0    # 2 samples: too short
    r[10:13] = 1.0  # 3 samples: confirmed
    events = detect_faults(t, r, DetectorConfig(residual_threshold=0.5, consecutive_required=3))
    assert [(e.detected_t, e.kind_hint, e.peak_residual) for e in events] == [(t[10], "threshold", 1.0)]


def test_overlapping_rate_and_threshold_alarms_merge_into_one_event():
    t = np.arange(40) * 0.1
    r = np.zeros(40)
    r[10:20] = np.linspace(0.0, 9.0, 10)  # steep rise crossing the threshold at 1.5
    cfg = DetectorConfig(residual_threshold=1.5, rate_threshold=5.0, consecutive_required=2)
    events = detect_faults(t, r, cfg)
    assert len(events) == 1
    # The rate alarm starts first (at the second rising sample), so it names the event.
    assert events[0].kind_hint == "rate" and events[0].detected_t == t[11]
    assert events[0].peak_residual == 9.0


def test_threshold_wins_a_tie_and_runs_that_only_touch_stay_apart():
    t = np.arange(30) * 0.1
    r = np.zeros(30)
    r[5:8] = 10.0  # the step up at sample 5 trips both tests at once
    r[20:23] = 10.0
    cfg = DetectorConfig(residual_threshold=1.0, rate_threshold=1.0, consecutive_required=1)
    events = detect_faults(t, r, cfg)
    # The step down at sample 8 is a rate alarm right after the threshold
    # run (samples 5-7) ends: adjacent, not overlapping, so its own event.
    assert [(e.detected_t, e.kind_hint) for e in events] == [
        (t[5], "threshold"), (t[8], "rate"), (t[20], "threshold"), (t[23], "rate"),
    ]


def test_window_baseline_calibrates_out_a_constant_offset():
    t = np.arange(50) * 0.1
    r = np.full(50, 3.0)
    r[30:] += 1.0
    assert len(detect_faults(t, r, DetectorConfig(residual_threshold=0.5))) == 1
    calibrated = detect_faults(t, r, DetectorConfig(residual_threshold=0.5, window=10))
    assert [e.detected_t for e in calibrated] == [t[30]]


# ---------------------------------------------------------------------------
# Work per run
# ---------------------------------------------------------------------------

def test_noise_is_drawn_once_per_run(monkeypatch):
    calls = []
    original = faults.counter_gauss
    monkeypatch.setattr(faults, "counter_gauss", lambda *a: calls.append(a) or original(*a))
    simulate_loop(loop(SensorModel(noise_sigma=0.01), t_end=10.0))  # 10,001 samples
    assert len(calls) == 1 and len(calls[0][1]) == 10_001
