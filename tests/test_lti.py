"""Core LTI machinery: construction, realization, poles, Routh, simulation,
and response metrics."""

import math

import numpy as np
import pytest

from rollsim.lti import (
    Integrator,
    RouthVerdict,
    SimConfig,
    SimulationDiverged,
    dc_gain,
    poles,
    polynomial_roots,
    propagate,
    response_metrics,
    routh_classification,
    simulate_lti,
    step_response,
    tf_new,
    tf_to_state_space,
    TimeSeries,
    zoh_step_matrices,
)
from rollsim.plants import MULTIBODY_DEN, multibody_tf

# Regression values for the eighth-order multibody denominator, computed
# beforehand with an independent companion-matrix eigenvalue oracle and
# frozen here; sorted by (real, imag).
MULTIBODY_ROOTS = [
    (-0.697669773740, -0.382066697874),
    (-0.697669773740, +0.382066697874),
    (0.0, -1.883778656269),
    (0.0, -0.838995993624),
    (0.0, +0.838995993624),
    (0.0, +1.883778656269),
    (+0.697669773740, -0.382066697874),
    (+0.697669773740, +0.382066697874),
]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_tf_new_first_order():
    tf = tf_new([1], [1, 1])
    assert tf.num.tolist() == [1.0]
    assert tf.den.tolist() == [1.0, 1.0]


def test_tf_new_normalizes_denominator():
    tf = tf_new([2], [2, 1])
    assert tf.den.tolist() == [1.0, 0.5]
    assert tf.num.tolist() == [1.0]


def test_tf_new_accepts_degree_eight():
    tf = tf_new([1], MULTIBODY_DEN)
    assert len(tf.den) - 1 == 8


def test_tf_new_rejects_improper():
    with pytest.raises(ValueError, match="improper"):
        tf_new([1, 0], [1])


def test_tf_new_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero polynomial"):
        tf_new([1], [0, 0])


def test_tf_new_strips_leading_zeros():
    tf = tf_new([0.0, 1.0], [0.0, 1.0, 2.0])
    assert tf.den.tolist() == [1.0, 2.0]
    assert tf.num.tolist() == [1.0]


def test_tf_value_equality_and_hash():
    a = tf_new([1], [1, 1])
    # Same function after normalization: equal, with equal hashes.
    b = tf_new([0, 2], [2, 2])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != tf_new([1], [1, 2])
    assert a != tf_new([1, 0], [1, 1])
    assert a != tf_new([1], [1, 1, 0])
    assert a != "1/(s+1)"


# ---------------------------------------------------------------------------
# State-space realization
# ---------------------------------------------------------------------------

def test_canonical_first_order():
    ss = tf_to_state_space(tf_new([1], [1, 1]))
    assert ss.A.tolist() == [[-1.0]]
    assert ss.B.tolist() == [[1.0]]
    assert ss.C.tolist() == [[1.0]]
    assert ss.D == 0.0


def test_canonical_motor_form():
    # K/(Js + B) with K=2, J=1, B=0.5: hand algebra on the canonical form.
    ss = tf_to_state_space(tf_new([2], [1, 0.5]))
    assert ss.A.tolist() == [[-0.5]]
    assert ss.B.tolist() == [[1.0]]
    assert ss.C.tolist() == [[2.0]]
    assert ss.D == 0.0


def test_canonical_second_order_poles():
    # (s+2)/(s^2+3s+2): denominator factored by hand into {-1, -2}.
    ss = tf_to_state_space(tf_new([1, 2], [1, 3, 2]))
    eig = sorted(np.linalg.eigvals(ss.A).real)
    assert eig == pytest.approx([-2.0, -1.0])


def _reconstruct_tf(ss):
    """Independent realization check via the determinant identity
    C (sI - A)^{-1} B = (det(sI - A + BC) - det(sI - A)) / det(sI - A)."""
    den = np.poly(ss.A) if ss.n else np.ones(1)
    shifted = np.poly(ss.A - ss.B @ ss.C) if ss.n else np.ones(1)
    num = np.polyadd(np.polysub(shifted, den), ss.D * den)
    return num, den


@pytest.mark.parametrize(
    "num,den",
    [
        ([1], [1, 1]),
        ([2], [1, 0.5]),
        ([1, 2], [1, 3, 2]),
        ([0.3, 0, 1], [1, 2, 2, 1]),
        ([1], MULTIBODY_DEN),
        ([2, 1], [1, 4]),  # biproper, D != 0
    ],
)
def test_realization_recovers_tf(num, den):
    tf = tf_new(num, den)
    ss = tf_to_state_space(tf)
    rnum, rden = _reconstruct_tf(ss)
    padded = np.concatenate([np.zeros(len(rden) - len(tf.num)), tf.num])
    assert np.allclose(rden, tf.den, atol=1e-9)
    assert np.allclose(rnum, padded, atol=1e-9)


# ---------------------------------------------------------------------------
# Poles and Routh
# ---------------------------------------------------------------------------

def test_poles_first_order():
    assert poles(tf_new([1], [1, 1])) == pytest.approx([-1.0])


def test_poles_quadratic():
    roots = sorted(poles(tf_new([1], [1, 3, 2])).real)
    assert roots == pytest.approx([-2.0, -1.0])


def test_poles_multibody_regression():
    roots = poles(multibody_tf())
    got = sorted((round(r.real, 9), round(r.imag, 9)) for r in roots)
    expected = sorted(MULTIBODY_ROOTS)
    for (gr, gi), (er, ei) in zip(got, expected):
        assert gr == pytest.approx(er, abs=1e-9)
        assert gi == pytest.approx(ei, abs=1e-9)
    assert any(r.real >= 0 for r in roots)
    residuals = np.abs(np.polyval(np.asarray(MULTIBODY_DEN), roots))
    assert np.max(residuals) < 1e-8


def test_routh_trivial_and_quadratic():
    assert routh_classification([1, 1]) is RouthVerdict.HURWITZ_STABLE
    assert routh_classification([1, 1, 1]) is RouthVerdict.HURWITZ_STABLE


def test_routh_multibody_not_hurwitz():
    # Missing coefficients violate the positive-coefficient necessary condition.
    assert routh_classification(MULTIBODY_DEN) is RouthVerdict.NOT_HURWITZ


def test_routh_third_order_with_positive_coefficients_can_fail():
    # All-positive coefficients are necessary but not sufficient.
    assert routh_classification([1, 1, 1, 10]) is RouthVerdict.NOT_HURWITZ


def test_routh_negative_leading_sign_normalized():
    assert routh_classification([-1, -1]) is RouthVerdict.HURWITZ_STABLE


def test_routh_agrees_with_roots_on_random_polynomials():
    # 100 polynomials of degree <= 6 built by multiplying out randomly
    # placed roots (real or conjugate pairs), half-ish of them stable.
    rng = np.random.default_rng(20240612)
    checked = 0
    while checked < 100:
        degree = int(rng.integers(1, 7))
        poly = np.ones(1)
        actual_roots = []
        d = 0
        while d < degree:
            stable = bool(rng.random() < 0.5)
            re = -rng.uniform(0.1, 2.0) if stable else rng.uniform(0.1, 2.0)
            if degree - d >= 2 and rng.random() < 0.5:
                im = rng.uniform(0.1, 2.0)
                poly = np.polymul(poly, [1.0, -2.0 * re, re * re + im * im])
                actual_roots += [complex(re, im), complex(re, -im)]
                d += 2
            else:
                poly = np.polymul(poly, [1.0, -re])
                actual_roots.append(complex(re, 0.0))
                d += 1
        verdict = routh_classification(poly)
        stable_truth = all(r.real < 0 for r in actual_roots)
        assert (verdict is RouthVerdict.HURWITZ_STABLE) == stable_truth, (
            f"disagreement on {poly} with roots {actual_roots}"
        )
        # Cross-check the companion-matrix route on the same polynomial.
        computed = polynomial_roots(poly)
        assert np.max(np.abs(np.polyval(poly / poly[0], computed))) < 1e-8
        assert (np.max(computed.real) < 0) == stable_truth
        checked += 1


# ---------------------------------------------------------------------------
# DC gain
# ---------------------------------------------------------------------------

def test_dc_gain_motor():
    assert dc_gain(tf_new([2], [1, 0.5])) == pytest.approx(4.0)


def test_dc_gain_multibody_is_one():
    assert dc_gain(multibody_tf()) == pytest.approx(1.0)


def test_dc_gain_integrator_infinite():
    assert dc_gain(tf_new([1], [1, 0])) == math.inf


def test_dc_gain_indeterminate():
    with pytest.raises(ValueError, match="indeterminate"):
        dc_gain(tf_new([1, 0], [1, 0]))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_zero_input_stays_zero():
    ss = tf_to_state_space(tf_new([1, 2], [1, 3, 2]))
    ts = simulate_lti(ss, lambda t: 0.0, SimConfig(dt=1e-3, t_end=1.0))
    assert np.all(ts["y"] == 0.0)


def test_first_order_step_matches_analytic():
    ts = step_response(tf_new([1], [1, 1]), SimConfig(dt=1e-3, t_end=5.0))
    analytic = 1.0 - np.exp(-ts.t)
    assert np.max(np.abs(ts["y"] - analytic)) < 1e-6
    k = int(round(1.0 / 1e-3))
    assert ts["y"][k] == pytest.approx(0.632121, abs=1e-5)


def test_step_final_value_matches_dc_gain():
    tf = tf_new([1], [1, 1])   # K/(Js+B) with K=J=B=1
    ts = step_response(tf, SimConfig(dt=1e-3, t_end=10.0))
    assert ts["y"][-1] == pytest.approx(dc_gain(tf), rel=1e-4)


def test_pure_gain_step():
    ts = step_response(tf_new([2], [1]), SimConfig(dt=1e-2, t_end=1.0))
    assert np.all(ts["y"] == 2.0)


@pytest.mark.parametrize("den", [[1, 3, 2], [1, -60]], ids=["stable", "diverging"])
def test_sampled_input_equals_the_callable_bit_for_bit(den):
    tf = tf_new([1, 2], den)
    ss = tf_to_state_space(tf)
    cfg = SimConfig(dt=1e-3, t_end=20.0)
    t = np.arange(cfg.steps + 1) * cfg.dt

    def run(sim, *args):
        try:
            return sim(*args)
        except SimulationDiverged as exc:
            return exc.partial

    runs = [
        run(step_response, tf, cfg),
        run(simulate_lti, ss, lambda _t: 1.0, cfg),
        run(simulate_lti, ss, np.ones(len(t)), cfg),
    ]
    for ts in runs[1:]:
        assert len(ts) == len(runs[0])
        for name in ("u", "y"):
            np.testing.assert_array_equal(ts[name].view(np.int64), runs[0][name].view(np.int64))
    assert (len(runs[0]) < len(t)) == (den[1] < 0)
    wave = run(simulate_lti, ss, np.sin(3 * t), cfg)
    np.testing.assert_array_equal(wave["y"], run(simulate_lti, ss, lambda tk: np.sin(3 * tk), cfg)["y"])


def test_sampled_input_needs_one_sample_per_step_start():
    cfg = SimConfig(dt=1e-3, t_end=1.0)
    with pytest.raises(ValueError, match="1001 input samples"):
        simulate_lti(tf_to_state_space(tf_new([1], [1, 1])), np.ones(cfg.steps), cfg)


def test_rk4_order_ratio():
    # Truncation error must dominate roundoff for the order to show, so the
    # ratio is measured at coarse steps; halving dt should give ~2^4.
    tf = tf_new([1], [1, 1])

    def max_err(dt):
        ts = step_response(tf, SimConfig(dt=dt, t_end=5.0))
        return np.max(np.abs(ts["y"] - (1.0 - np.exp(-ts.t))))

    ratio = max_err(0.1) / max_err(0.05)
    assert 12.0 <= ratio <= 20.0


def test_euler_integrator_first_order_error():
    ts = simulate_lti(
        tf_to_state_space(tf_new([1], [1, 1])),
        lambda t: 1.0,
        SimConfig(dt=1e-3, t_end=2.0, integrator=Integrator.EULER),
    )
    err = np.max(np.abs(ts["y"] - (1.0 - np.exp(-ts.t))))
    assert 1e-6 < err < 1e-3  # first-order accurate, far worse than RK4


def test_linearity_of_response():
    ss = tf_to_state_space(tf_new([1, 2], [1, 3, 2]))
    cfg = SimConfig(dt=1e-3, t_end=2.0)
    base = simulate_lti(ss, lambda t: np.sin(3 * t), cfg)
    scaled = simulate_lti(ss, lambda t: 7.5 * np.sin(3 * t), cfg)
    mask = np.abs(base["y"]) > 1e-12
    rel = np.abs(scaled["y"][mask] - 7.5 * base["y"][mask]) / np.abs(7.5 * base["y"][mask])
    assert np.max(rel) < 1e-9


def test_final_value_matches_dc_gain_on_random_stable_systems():
    rng = np.random.default_rng(7)
    for _ in range(20):
        degree = int(rng.integers(1, 5))
        den = np.ones(1)
        slowest = 0.0
        fastest = math.inf
        for _ in range(degree):
            p = rng.uniform(0.2, 3.0)
            den = np.polymul(den, [1.0, p])
            slowest = max(slowest, 1.0 / p)
            fastest = min(fastest, 1.0 / p)
        num = [rng.uniform(0.5, 2.0)]
        tf = tf_new(num, den)
        # Clustered poles can leave opposing residues that decay slowly, so
        # give the transient a generous >= 10 time constants to die out.
        # dt only needs to resolve the fastest mode for a final-value check.
        t_end = max(15.0 * slowest, 2.0)
        dt = min(max(fastest / 100.0, 1e-3), 1e-2)
        ts = step_response(tf, SimConfig(dt=dt, t_end=t_end))
        assert ts["y"][-1] == pytest.approx(dc_gain(tf), rel=1e-3)


def test_divergence_reports_time_and_prefix():
    ss = tf_to_state_space(tf_new([1], [1, -80.0]))  # pole at +80
    with pytest.raises(SimulationDiverged) as info:
        simulate_lti(ss, lambda t: 1.0, SimConfig(dt=0.1, t_end=50.0))
    assert info.value.time > 0
    assert np.all(np.isfinite(info.value.partial["y"]))


@pytest.mark.parametrize("integrator", list(Integrator))
def test_simulate_lti_is_the_zoh_recurrence(integrator):
    # A piecewise-constant input is sampled at each step start and held:
    # the result is the x <- M x + N u recurrence of zoh_step_matrices.
    ss = tf_to_state_space(tf_new([1, 2], [1, 3, 2]))
    cfg = SimConfig(dt=0.01, t_end=2.0, integrator=integrator)

    def input_fn(t):
        return 1.0 if t < 0.5 else (-2.0 if t < 1.25 else 0.5)

    ts = simulate_lti(ss, input_fn, cfg)

    m, nvec = zoh_step_matrices(ss, cfg.dt, integrator.value)
    c = ss.C.ravel()
    x = np.zeros(ss.n)
    u_ref, y_ref = [], []
    for tk in np.arange(cfg.steps + 1) * cfg.dt:
        uk = input_fn(tk)
        u_ref.append(uk)
        y_ref.append(float(c @ x) + ss.D * uk)
        x = m @ x + nvec * uk
    assert ts["u"].tolist() == u_ref
    # Only the output projection's summation order may differ.
    np.testing.assert_allclose(ts["y"], y_ref, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# Block propagation
# ---------------------------------------------------------------------------

def plain_recurrence(m, g, w):
    """States z[0 .. len(w)-1] of z[k+1] = m z[k] + g w[k], one step at a time."""
    z = np.zeros(len(g))
    states = []
    with np.errstate(over="ignore", invalid="ignore"):
        for wk in w:
            states.append(z)
            z = m @ z + np.asarray(g) * wk
    return np.array(states).reshape(len(w), len(g))


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 1001])
@pytest.mark.parametrize("order", [0, 1, 3, 12])
def test_propagate_is_the_plain_recurrence(order, count):
    rng = np.random.default_rng(100 * order + count)
    m = rng.normal(size=(order, order))
    if order:
        m *= 0.98 / np.max(np.abs(np.linalg.eigvals(m)))  # decaying modes
    g, w = rng.normal(size=order), rng.normal(size=count)
    h, j = rng.normal(size=(3, order)), rng.normal(size=3)
    expected = plain_recurrence(m, g, w)

    states, end = propagate(m, g, w, np.eye(order), np.zeros(order))
    assert end == count and states.shape == (count, order)
    np.testing.assert_allclose(states, expected, rtol=1e-12, atol=1e-13)
    rows, end = propagate(m, g, w, h, j)
    assert end == count and rows.shape == (count, 3)
    np.testing.assert_allclose(rows, expected @ h.T + np.outer(w, j), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("growth", [2.0, 1e30])  # 1e30: m^16 itself overflows
def test_propagate_stops_at_the_first_nonfinite_state(growth):
    m = np.array([[growth, 1.0], [0.0, 0.5]])
    g, w = np.array([1.0, 1.0]), np.ones(3000)
    expected = plain_recurrence(m, g, w)
    first = int(np.argmin(np.all(np.isfinite(expected), axis=1)))
    assert 0 < first < len(w)

    states, end = propagate(m, g, w, np.eye(2), np.zeros(2))
    assert end == first and len(states) == first
    np.testing.assert_allclose(states, expected[:first], rtol=1e-12)


def test_propagate_rejects_nonfinite_inputs():
    with pytest.raises(ValueError):
        propagate(np.eye(1), [1.0], [0.0, math.inf], np.eye(1), [0.0])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_first_order_analytic():
    ts = step_response(tf_new([1], [1, 1]), SimConfig(dt=1e-3, t_end=20.0))
    m = response_metrics(ts, 1.0)
    assert m.rise_time_10_90 == pytest.approx(math.log(9), abs=0.01)
    assert m.overshoot_pct == 0.0
    assert m.settling_time_2pct == pytest.approx(math.log(50), abs=0.02)
    assert abs(m.steady_state_error) < 1e-3


def test_metrics_second_order_overshoot():
    # zeta = 0.5, wn = 1: classical overshoot 100 exp(-pi zeta / sqrt(1-zeta^2)).
    ts = step_response(tf_new([1], [1, 1, 1]), SimConfig(dt=1e-3, t_end=30.0))
    m = response_metrics(ts, 1.0)
    assert m.overshoot_pct == pytest.approx(16.3, abs=0.2)


def test_metrics_constant_series_edge():
    ts = TimeSeries(t=np.arange(100) * 0.01, channels={"y": np.ones(100)})
    m = response_metrics(ts, 1.0)
    assert m.steady_state_error == 0.0
    assert m.overshoot_pct == 0.0
    assert m.rise_time_10_90 is None     # never below 10 percent
    assert m.settling_time_2pct == 0.0   # never outside the band


def test_metrics_zero_setpoint_fallback():
    ts = TimeSeries(t=np.arange(10) * 0.1, channels={"y": np.zeros(10)})
    m = response_metrics(ts, 0.0)
    assert m.steady_state_error == 0.0
    assert m.overshoot_pct == 0.0
    assert m.rise_time_10_90 is None


def test_metrics_settling_never_reached():
    ts = TimeSeries(t=np.arange(10) * 0.1, channels={"y": np.full(10, 2.0)})
    m = response_metrics(ts, 1.0)
    assert m.settling_time_2pct is None
    assert m.overshoot_pct == pytest.approx(100.0)
