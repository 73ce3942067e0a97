"""Core LTI machinery: construction, realization, poles, Routh, simulation,
and response metrics."""

import math
import sys
import warnings

import numpy as np
import pytest

from rollsim.lti import (
    _finite_chain,
    PropagationPlan,
    RouthVerdict,
    SimConfig,
    StateSpaceModel,
    dc_gain,
    poles,
    polynomial_roots,
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


@pytest.mark.parametrize(
    "den, expected",
    [
        # r^4 = -1e300: four roots of modulus 1e75 on the diagonals.
        ([1.0, 0.0, 0.0, 0.0, 1.0e300], [1.0e75 * np.exp(1j * np.pi * k / 4) for k in (1, 3, 5, 7)]),
        ([1.0, 1.0e200, 1.0], [-1.0e200, -1.0e-200]),
        ([1.0e-300, 1.0, 1.0], [-1.0e300, -1.0]),
        ([1.0, 1.0, 0.0], [-1.0, 0.0]),
    ],
    ids=["quartic_1e300", "spread_1e200", "tiny_lead", "root_at_zero"],
)
def test_poles_pass_a_residual_relative_to_the_coefficients(den, expected):
    # The absolute residual |den(r)| of the first two reaches 1e285 and 1.
    roots = poles(tf_new([1], den))
    assert len(roots) == len(expected)
    for w in expected:
        assert np.min(np.abs(roots - w)) <= 1e-12 * abs(w)


def test_an_inaccurate_pole_raises():
    # The computed roots are -1e100 and 0; den(0) = 1e-200 is all of den's size there.
    with pytest.raises(ValueError, match="is not accurate: relative residual 1.000e"):
        poles(tf_new([1], [1.0, 1.0e100, 1.0e-200]))


@pytest.mark.parametrize("num, den", [([1.0], [1.0e-300, 1.0e300, 1.0]), ([1.0e300], [1.0e-300, 1.0])])
def test_coefficients_that_overflow_when_made_monic_are_rejected(num, den):
    with pytest.raises(ValueError, match="also with the denominator made monic"):
        tf_new(num, den)


def test_a_realization_that_overflows_is_rejected():
    # Monic: (-2.2e300 s + 1) / (s + 2.75e300), so C = 1 - 2.75e300 * -2.2e300.
    with pytest.raises(ValueError, match="output map C = b - a D overflows"):
        tf_to_state_space(tf_new([-2.2, 1.0e-300], [1.0e-300, 2.75]))


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


@pytest.mark.parametrize(
    "den, verdict",
    [
        ([1.0e-300, 1.0, 1.0], RouthVerdict.HURWITZ_STABLE),  # roots -1e300 and -1
        ([1.0, 1.0e200, 1.0e200, 1.0e200], RouthVerdict.HURWITZ_STABLE),  # about -1e200, -0.5 +- 0.87j
        ([1.0, 1.0e200, 1.0e-200, 1.0e200], RouthVerdict.NOT_HURWITZ),  # about -1e200 and 5e-201 +- 1j
    ],
    ids=["tiny_lead", "wide_stable", "wide_unstable"],
)
def test_routh_keeps_widely_scaled_rows_finite(den, verdict):
    # The unscaled array overflows on all three (a RuntimeWarning, an error here).
    assert routh_classification(den) is verdict


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
    cfg = SimConfig(dt=1e-3, t_end=1.0)
    ts = simulate_lti(ss, np.zeros(cfg.steps + 1), cfg)
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
def test_sampled_input_equals_the_step_response_bit_for_bit(den):
    tf = tf_new([1, 2], den)
    ss = tf_to_state_space(tf)
    cfg = SimConfig(dt=1e-3, t_end=20.0)
    u = np.ones(cfg.steps + 1)
    # The oracle: the plain recurrence over the hold map, y = C x + D u.
    m, nvec = zoh_step_matrices(ss, cfg.dt)
    with np.errstate(over="ignore", invalid="ignore"):
        y = (plain_recurrence(m, nvec, u) @ ss.C.T).ravel() + ss.D * u
    finite = np.isfinite(y)
    first = len(u) if finite.all() else int(np.argmin(finite))
    assert (first < len(u)) == (den[1] < 0)

    step, sampled = step_response(tf, cfg), simulate_lti(ss, u, cfg)
    # A diverging run's series ends at the oracle's first non-finite output.
    assert len(sampled) == len(step) == first
    for name in ("u", "y"):
        np.testing.assert_array_equal(sampled[name].view(np.int64), step[name].view(np.int64))
    assert step["u"].tolist() == u[:first].tolist()
    np.testing.assert_allclose(step["y"], y[:first], rtol=1e-12)


def test_sampled_input_needs_one_sample_per_step_start():
    cfg = SimConfig(dt=1e-3, t_end=1.0)
    with pytest.raises(ValueError, match="1001 input samples"):
        simulate_lti(tf_to_state_space(tf_new([1], [1, 1])), np.ones(cfg.steps), cfg)


def test_linearity_of_response():
    ss = tf_to_state_space(tf_new([1, 2], [1, 3, 2]))
    cfg = SimConfig(dt=1e-3, t_end=2.0)
    wave = np.sin(3 * np.arange(cfg.steps + 1) * cfg.dt)
    base = simulate_lti(ss, wave, cfg)
    scaled = simulate_lti(ss, 7.5 * wave, cfg)
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
    cfg = SimConfig(dt=0.1, t_end=50.0)
    ts = simulate_lti(ss, np.ones(cfg.steps + 1), cfg)
    assert 0 < len(ts) < cfg.steps + 1  # stopped at t = len(ts) dt > 0
    assert ts.t[-1] == (len(ts) - 1) * cfg.dt
    assert np.all(np.isfinite(ts["y"]))


def test_open_loop_ends_at_the_first_nonfinite_output():
    # The state grows as e^t and stays finite for about 700 s, but the
    # output 1e300 x overflows near t = 19 s.
    tf, cfg = tf_new([1e300], [1, -1]), SimConfig(dt=1e-3, t_end=30.0)
    ss = tf_to_state_space(tf)
    m, nvec = zoh_step_matrices(ss, cfg.dt)
    u = np.ones(cfg.steps + 1)
    with np.errstate(over="ignore"):
        y = (plain_recurrence(m, nvec, u) @ ss.C.T).ravel() + ss.D * u
    first = int(np.argmin(np.isfinite(y)))
    assert 0 < first < cfg.steps

    ts = step_response(tf, cfg)
    assert len(ts) == first and ts.t[-1] == pytest.approx((first - 1) * cfg.dt)
    np.testing.assert_allclose(ts["y"], y[:first], rtol=1e-12)


# The ids are those of the cases from when the step map was selectable;
# each case is now a plant and a step run through the one exact map.
@pytest.mark.parametrize(
    "num, den, dt",
    [([1, 2], [1, 3, 2], 0.01), ([2, 1], [1, 4, 6, 4], 0.05)],
    ids=["euler", "rk4"],
)
def test_simulate_lti_is_the_zoh_recurrence(num, den, dt):
    # A piecewise-constant input is sampled at each step start and held:
    # the result is the x <- M x + N u recurrence of zoh_step_matrices.
    ss = tf_to_state_space(tf_new(num, den))
    cfg = SimConfig(dt=dt, t_end=2.0)

    t = np.arange(cfg.steps + 1) * cfg.dt
    u = np.where(t < 0.5, 1.0, np.where(t < 1.25, -2.0, 0.5))
    ts = simulate_lti(ss, u, cfg)

    m, nvec = zoh_step_matrices(ss, cfg.dt)
    c = ss.C.ravel()
    x = np.zeros(ss.n)
    y_ref = []
    for uk in u.tolist():
        y_ref.append(float(c @ x) + ss.D * uk)
        x = m @ x + nvec * uk
    assert ts["u"].tolist() == u.tolist()
    # Only the output projection's summation order may differ.
    np.testing.assert_allclose(ts["y"], y_ref, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# The zero-order-hold step map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a, dt", [(1.0, 1e-3), (1.0, 0.1), (1000.0, 3e-3), (50.0, 1.0), (1e-6, 1e-3)])
def test_hold_map_of_a_first_order_lag(a, dt):
    # a/(s+a): x' = -a x + u, so M = e^(-a dt) and N = (1 - e^(-a dt))/a.
    m, nvec = zoh_step_matrices(tf_to_state_space(tf_new([a], [1.0, a])), dt)
    assert m.shape == (1, 1) and nvec.shape == (1,)
    assert m[0, 0] == pytest.approx(math.exp(-a * dt), rel=1e-13, abs=1e-300)
    assert nvec[0] == pytest.approx(-math.expm1(-a * dt) / a, rel=1e-13)


@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.7, 4.0])
def test_hold_map_of_two_distinct_real_poles(dt):
    # By Sylvester's formula, with l1 != l2 the eigenvalues of A:
    # e^(A dt) = sum_i e^(li dt) P_i and its integral sum_i (e^(li dt) - 1)/li P_i,
    # where P_1 = (A - l2 I)/(l1 - l2) and P_2 = (A - l1 I)/(l2 - l1).
    ss = tf_to_state_space(tf_new([3.0], [1.0, 9.0, 14.0]))  # poles -2 and -7
    eye, (l1, l2) = np.eye(2), (-2.0, -7.0)
    p1, p2 = (ss.A - l2 * eye) / (l1 - l2), (ss.A - l1 * eye) / (l2 - l1)
    m_ref = math.exp(l1 * dt) * p1 + math.exp(l2 * dt) * p2
    n_ref = (math.expm1(l1 * dt) / l1 * p1 + math.expm1(l2 * dt) / l2 * p2) @ ss.B.ravel()
    m, nvec = zoh_step_matrices(ss, dt)
    assert np.max(np.abs(m - m_ref)) <= 1e-13 * np.max(np.abs(m_ref))
    assert np.max(np.abs(nvec - n_ref)) <= 1e-13 * np.max(np.abs(n_ref))


@pytest.mark.parametrize("kind", ["stable", "unstable"])
def test_hold_map_is_the_matrix_exponential(kind):
    # Van Loan: exp([[A, B], [0, 0]] dt) = [[M, N], [0, 1]].
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11 if kind == "stable" else 12)
    worst = 0.0
    for _ in range(150):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-1.0, 2.0) / math.sqrt(n)
        abscissa = float(np.max(np.linalg.eigvals(a).real))
        # Stable: the rightmost eigenvalue at -0.1..-5; unstable: at +0.1..+2.
        a -= (abscissa + rng.uniform(0.1, 5.0) if kind == "stable" else abscissa - rng.uniform(0.1, 2.0)) * np.eye(n)
        b = rng.normal(size=(n, 1))
        dt = 10.0 ** rng.uniform(-3.0, 0.0)
        m, nvec = zoh_step_matrices(StateSpaceModel(A=a, B=b, C=np.ones((1, n)), D=0.0), dt)
        x = np.zeros((n + 1, n + 1))
        x[:n, :n], x[:n, n:] = a * dt, b * dt
        ref = linalg.expm(x)
        got = np.block([[m, nvec[:, None]], [np.zeros((1, n)), np.ones((1, 1))]])
        worst = max(worst, np.max(np.sum(np.abs(got - ref), axis=1)) / np.max(np.sum(np.abs(ref), axis=1)))
    assert worst <= 1e-10


def test_stiff_step_response_settles_at_its_dc_gain():
    # a dt = 3: a degree-4 Taylor map grows by |1 - 3 + 9/2 - 27/6 + 81/24| = 1.375
    # per step and ended near -1.1e46; the exact map settles at 1.
    ts = step_response(tf_new([1000.0], [1.0, 1000.0]), SimConfig(dt=3e-3, t_end=1.0))
    assert abs(ts["y"][-1] - 1.0) <= 1e-12
    np.testing.assert_allclose(ts["y"], -np.expm1(-1000.0 * ts.t), rtol=0, atol=1e-12)


def test_a_huge_stable_pole_runs_bounded():
    # Pole at -1e300: the state reaches its steady state within one step.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = step_response(tf_new([1.0], [1.0e-300, 1.0]), SimConfig(dt=1e-3, t_end=1.0))
    assert ts["y"][0] == 0.0 and np.all(ts["y"][1:] == pytest.approx(1.0, rel=1e-12))


def test_a_huge_unstable_pole_diverges_at_the_first_step_without_a_warning():
    # Pole at +1e300: the step map overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, nvec = zoh_step_matrices(tf_to_state_space(tf_new([1.0], [1.0e-300, -1.0])), 1e-3)
        assert not np.all(np.isfinite(m))
        ts = step_response(tf_new([1.0], [1.0e-300, -1.0]), SimConfig(dt=1e-3, t_end=1.0))
    assert len(ts) == 1 and ts.t[-1] == 0.0  # stopped at t = 1e-3


# ---------------------------------------------------------------------------
# Block propagation
# ---------------------------------------------------------------------------

def one_loop(m, g, h, j, longest):
    """The plan of one loop: its maps as a batch of one."""
    return PropagationPlan(*(np.asarray(a, dtype=float)[None] for a in (m, g, h, j)), longest)


def plan_rows(m, g, w, h, j):
    """``(rows, end)`` of one loop's plan over ``w``, applied from zero."""
    return one_loop(m, g, h, j, len(w)).apply(w)[0][:2]


def plain_recurrence(m, g, w, z0=None):
    """States z[0 .. len(w)-1] of z[k+1] = m z[k] + g w[k], one step at a
    time from z[0] = ``z0`` (zero when None)."""
    z = np.zeros(len(g)) if z0 is None else np.asarray(z0, dtype=float)
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

    states, end = plan_rows(m, g, w, np.eye(order), np.zeros(order))
    assert end == count and states.shape == (count, order)
    assert_columnwise_close(states, expected)
    rows, end = plan_rows(m, g, w, h, j)
    assert end == count and rows.shape == (count, 3)
    assert_columnwise_close(rows, expected @ h.T + np.outer(w, j))


def assert_columnwise_close(actual, expected):
    """Each column within 1e-12 of its largest magnitude.  A value near
    zero carries the rounding of its large neighbours, whose size depends
    on the BLAS kernel's summation order; an elementwise tolerance would
    mistake that for an error."""
    error = np.max(np.abs(actual - expected), axis=0, initial=0.0)
    assert np.all(error <= 1e-12 * np.max(np.abs(expected), axis=0, initial=0.0))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("count", [1001, 5001])
@pytest.mark.parametrize("order", [3, 12])
def test_propagate_is_the_plain_recurrence_normwise(order, count, seed):
    # States to 1e-12 of the largest state and rows to 1e-12 of their
    # column's largest: a value near zero may carry the rounding of its
    # large neighbours under any product order, which an elementwise
    # tolerance can mistake for an error.
    m, g = decaying(order, 1000 * order + count + seed)
    rng = np.random.default_rng(seed)
    w, h, j = rng.normal(size=count), rng.normal(size=(3, order)), rng.normal(size=3)
    assert_plain_states(m, g, w)
    expected = plain_recurrence(m, g, w) @ h.T + np.outer(w, j)
    rows, end = plan_rows(m, g, w, h, j)
    assert end == count
    assert np.all(np.max(np.abs(rows - expected), axis=0) <= 1e-12 * np.max(np.abs(expected), axis=0))


@pytest.mark.parametrize("growth", [2.0, 1e30])  # 1e30: m^16 itself overflows
def test_propagate_stops_at_the_first_nonfinite_state(growth):
    m = np.array([[growth, 1.0], [0.0, 0.5]])
    g, w = np.array([1.0, 1.0]), np.ones(3000)
    expected = plain_recurrence(m, g, w)
    first = int(np.argmin(np.all(np.isfinite(expected), axis=1)))
    assert 0 < first < len(w)

    states, end = plan_rows(m, g, w, np.eye(2), np.zeros(2))
    assert end == first and len(states) == first
    np.testing.assert_allclose(states, expected[:first], rtol=1e-12)


def test_simulate_lti_rejects_nonfinite_inputs():
    ss, cfg = tf_to_state_space(tf_new([1], [1, 1])), SimConfig(dt=0.5, t_end=1.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite inputs: u"):
            simulate_lti(ss, np.array([0.0, bad, 0.0]), cfg)


# The block starts come from a doubling scan: ends[2^k:] += ends[:-2^k] P_k^T
# with P_k = m^(16 * 2^k).  These cases sit on its edges.

def assert_plain_states(m, g, w):
    """A plan's states are the plain recurrence's, to 1e-12 of the
    largest state (the scan sums in another order, so a state near zero
    may carry the rounding of its large neighbours)."""
    expected = plain_recurrence(m, g, w)
    states, end = plan_rows(m, g, w, np.eye(len(g)), np.zeros(len(g)))
    assert end == len(w) and states.shape == expected.shape
    assert np.max(np.abs(states - expected), initial=0.0) <= 1e-12 * np.max(np.abs(expected), initial=0.0)


def decaying(order, seed, radius=0.98):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(order, order))
    return m * (radius / np.max(np.abs(np.linalg.eigvals(m)))), rng.normal(size=order)


@pytest.mark.parametrize("count", [16 * 2 ** k + d for k in range(9) for d in (-1, 0, 1)])
def test_propagate_scan_edges(count):
    m, g = decaying(3, count)
    assert_plain_states(m, g, np.random.default_rng(count).normal(size=count))


def test_propagate_scans_a_long_high_order_run():
    # 50,001 steps of 12 states: several scans and many chunks.
    m, g = decaying(12, 7)
    assert_plain_states(m, g, np.random.default_rng(8).normal(size=50_001))


def test_propagate_through_underflowing_doubling_powers():
    m, g = decaying(4, 9, radius=0.01)
    assert not np.any(np.linalg.matrix_power(m, 16 * 2 ** 5))  # P_5 is zero
    assert_plain_states(m, g, np.random.default_rng(10).normal(size=5000))


def first_nonfinite(states):
    return int(np.argmin(np.all(np.isfinite(states), axis=1)))


@pytest.mark.parametrize(
    "growth, count, zeros",
    [(1.01, 150_000, 0), (1.05, 20_000, 0), (1.05, 20_000, 5000)],
)
def test_propagate_finds_divergence_when_deep_doubling_powers_overflow(growth, count, zeros):
    # m^16 is finite but the power that one scan over all blocks would
    # need is not, so scans are cut short.  Leading zero inputs guard
    # against inf * 0 = NaN flagging a zero state.
    blocks = -(-count // 16)
    deepest = 16 * 2 ** ((blocks - 1).bit_length() - 1)
    assert 16 * math.log10(growth) < 308 < deepest * math.log10(growth)
    m, g = np.array([[growth]]), np.ones(1)
    w = np.ones(count)
    w[:zeros] = 0.0
    expected = plain_recurrence(m, g, w)
    first = first_nonfinite(expected)
    assert zeros < first < count

    states, end = plan_rows(m, g, w, np.eye(1), np.zeros(1))
    assert end == first and len(states) == first
    assert not np.any(states[:zeros + 1])
    np.testing.assert_allclose(states, expected[:first], rtol=1e-12)


def test_propagate_carries_from_scan_to_scan_past_overflowing_doubling_powers():
    # The input never excites the growing mode, so every state is finite,
    # but that mode overflows P_10 and the 2,500 blocks take three scans.
    m, g = np.diag([1.05, 0.999]), np.array([0.0, 1.0])
    assert_plain_states(m, g, np.random.default_rng(12).normal(size=40_000))


def test_propagate_runs_no_python_line_per_block():
    m, g = decaying(2, 11)
    w = np.ones(16 * 4000)
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code in {getattr(PropagationPlan, name).__code__ for name in ("__init__", "apply", "scan", "_rows")}:
            lines += event == "line"
            return tracer
        return None

    sys.settrace(tracer)
    try:
        plan_rows(m, g, w, np.eye(2), np.zeros(2))
    finally:
        sys.settrace(None)
    assert 0 < lines < 4000 / 10


# Rows come straight from the block map projected through h, with j on
# the input diagonal, and each chunk's states are tested once by their sum.

def assert_plain_rows(m, g, w, h, j, states=None):
    """A plan's rows are h z + j w of the plain recurrence (``states``
    when given), to 1e-12 of the largest row."""
    states = plain_recurrence(m, g, w) if states is None else states
    expected = states @ h.T + np.outer(w, j)
    rows, end = plan_rows(m, g, w, h, j)
    assert end == len(w) and rows.shape == expected.shape
    assert np.max(np.abs(rows - expected), initial=0.0) <= 1e-12 * np.max(np.abs(expected), initial=0.0)


@pytest.mark.parametrize("outputs", [1, 3])
@pytest.mark.parametrize("order", [1, 3, 12])
def test_propagate_projects_rows_inside_the_block_product(order, outputs):
    m, g = decaying(order, 20 + order)
    rng = np.random.default_rng(10 * order + outputs)
    h, j = rng.normal(size=(outputs, order)), rng.normal(size=outputs)
    assert_plain_rows(m, g, rng.normal(size=6001), h, j)


@pytest.mark.parametrize("seed", range(60))
def test_propagate_on_random_decaying_loops(seed):
    rng = np.random.default_rng(1000 + seed)
    order, count, outputs = int(rng.integers(1, 13)), int(rng.integers(0, 2001)), int(rng.integers(1, 4))
    m, g = decaying(order, 2000 + seed, radius=rng.uniform(0.5, 0.999))
    w = rng.normal(size=count)
    h, j = rng.normal(size=(outputs, order)), rng.normal(size=outputs)
    expected = plain_recurrence(m, g, w)
    states, end = plan_rows(m, g, w, np.eye(order), np.zeros(order))
    assert end == count and states.shape == expected.shape
    assert np.max(np.abs(states - expected), initial=0.0) <= 1e-12 * np.max(np.abs(expected), initial=0.0)
    assert_plain_rows(m, g, w, h, j, expected)


def test_propagate_runs_past_finite_states_whose_sum_overflows():
    m, g, w = np.zeros((2, 2)), np.ones(2), np.full(100, 1.5e308)
    expected = plain_recurrence(m, g, w)
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(expected)) and not np.isfinite(expected.sum())

    states, end = plan_rows(m, g, w, np.eye(2), np.zeros(2))
    assert end == len(w)
    np.testing.assert_array_equal(states, expected)


def test_propagate_finds_the_first_overflowing_state_exactly():
    # z[k] = (2 - 2^(1-k)) 1e308 passes the largest double at k = 4.
    m, g, w = 0.5 * np.eye(2), np.ones(2), np.full(100, 1e308)
    expected = plain_recurrence(m, g, w)
    assert first_nonfinite(expected) == 4

    states, end = plan_rows(m, g, w, np.eye(2), np.zeros(2))
    assert end == 4
    np.testing.assert_allclose(states, expected[:4], rtol=1e-15)


def test_propagate_tests_finiteness_once_per_array(monkeypatch):
    # One test per power stack and one per chunk of states: never a test
    # per power, and no state tested one by one while the chunk sums are
    # finite.  The inputs are simulate_lti's to test, not the plan's.
    m, g = decaying(2, 13)
    w = np.ones(16 * 1000)
    tested = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        tested.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    plan_rows(m, g, w, np.eye(2), np.zeros(2))
    monkeypatch.undo()
    chunks = len(tested) - 2  # the two power stacks
    assert 1 <= chunks <= 4
    # At most 16 powers m^i and 10 doubling powers of 2 x 2 entries, and
    # one sum per chunk.
    assert sum(tested) <= 16 * 4 + 10 * 4 + chunks


# A plan is built once and applied from any start state; each apply also
# returns the state after its last sample, to start the next one from.

def assert_plan_from(plan, m, g, w, h, j, z0):
    """One apply from ``z0`` gives the plain recurrence's rows, end and
    end state, to 1e-12 of the largest state or row."""
    states = plain_recurrence(m, g, np.append(w, 0.0), z0)  # z[0 .. len(w)]
    rows, end, z_end = plan.apply(w, z0[None])[0]
    expected = states[:-1] @ h.T + np.outer(w, j)
    assert end == len(w) and rows.shape == expected.shape
    assert np.max(np.abs(rows - expected), initial=0.0) <= 1e-12 * np.max(np.abs(expected), initial=0.0)
    assert np.max(np.abs(z_end - states[-1])) <= 1e-12 * np.max(np.abs(states))
    return z_end


@pytest.mark.parametrize(
    "order, count",
    [(order, count) for order in range(1, 13) for count in (0, 1, 15, 16, 17, 5000)]
    + [(1 + k % 12, 16 * 2 ** k + d) for k in range(9) for d in (-1, 1)],
)
def test_a_plan_is_the_plain_recurrence_from_any_start(order, count):
    m, g = decaying(order, 3000 + count)
    rng = np.random.default_rng(10 * order + count)
    w, h, j = rng.normal(size=count), rng.normal(size=(2, order)), rng.normal(size=2)
    plan = one_loop(m, g, h, j, count)
    for z0 in rng.normal(scale=5.0, size=(2, order)):  # one plan, two starts
        assert_plan_from(plan, m, g, w, h, j, z0)
    # Reused from zero, the plan is a fresh plan, bit for bit; no start
    # is the zero start.
    np.testing.assert_array_equal(plan.apply(w)[0][0], plan_rows(m, g, w, h, j)[0])
    np.testing.assert_array_equal(plan.apply(w)[0][0], plan.apply(w, np.zeros((1, order)))[0][0])


def test_applies_carry_their_end_state():
    m, g = decaying(6, 31)
    rng = np.random.default_rng(32)
    w, h, j, z = rng.normal(size=3000), rng.normal(size=(1, 6)), rng.normal(size=1), rng.normal(size=6)
    plan = one_loop(m, g, h, j, 1024)
    for first in range(0, len(w), 1000):
        z = assert_plan_from(plan, m, g, w[first:first + 1000], h, j, z)


@pytest.mark.parametrize("growth", [2.0, 1e30])  # 1e30: m^16 overflows, L is cut
@pytest.mark.parametrize("z0", [[1.0, 0.0], [0.0, 1.0]], ids=["growing_mode", "through_the_coupling"])
def test_a_plan_stops_at_the_first_nonfinite_state_from_a_start(growth, z0):
    # Zero inputs: only the start state drives the growth, and its zero
    # entry must not read an overflowed power as NaN.
    m, g, w = np.array([[growth, 1.0], [0.0, 0.5]]), np.array([1.0, 1.0]), np.zeros(3000)
    expected = plain_recurrence(m, g, w, z0)
    first = first_nonfinite(expected)
    assert 0 < first < len(w)

    states, end, z_end = one_loop(m, g, np.eye(2), np.zeros(2), len(w)).apply(w, np.array([z0]))[0]
    assert end == first and len(states) == first and z_end is None
    np.testing.assert_allclose(states, expected[:first], rtol=1e-12)


def test_an_overflowing_impulse_term_cuts_the_block():
    # m^9 g overflows while m^9 does not: times the zero first input, it
    # would make z[10] NaN, a state the recurrence meets as finite.
    m, g = np.array([[1e30, 1.0], [0.0, 0.5]]), np.array([1e40, 0.0])
    w = np.ones(12)
    w[0] = 0.0
    expected = plain_recurrence(m, g, w)
    assert first_nonfinite(expected) == 11
    states, end = plan_rows(m, g, w, np.eye(2), np.zeros(2))
    assert end == 11
    np.testing.assert_allclose(states, expected[:11], rtol=1e-12)


def test_an_overflowing_row_map_cuts_the_block():
    # h m^9 overflows, but every state is finite and so is every row
    # before the last: an overflowed map entry times a zero start would
    # read rows[9] as NaN.  The overflowed output rows[11] ends the run.
    m, g, h = np.array([[1e30, 1.0], [0.0, 0.5]]), np.array([1.0, 1.0]), np.array([[1e40, 0.0]])
    w = np.ones(12)
    w[0] = 0.0
    with np.errstate(over="ignore"):
        expected = plain_recurrence(m, g, w) @ h.T
    assert np.all(np.isfinite(expected[:11])) and np.isinf(expected[11, 0])
    rows, end = plan_rows(m, g, w, h, np.zeros(1))
    assert end == 11
    np.testing.assert_allclose(rows[:11], expected[:11], rtol=1e-12)


# An apply of several chunks whose operands times the plan's state gain stay
# below 1e300 cannot overflow a state, so it computes states only for the
# end state; any other apply searches every chunk's states.

def block_products(monkeypatch, plan):
    """A list that gets one entry per state product of ``plan`` from now on."""
    products = []
    dot = np.dot

    def counting(a, b, *args, **kwargs):
        if np.shares_memory(b, plan.block_map):
            products.append(len(a))
        return dot(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "dot", counting)
    return products


def searching(plan):
    """A copy of ``plan`` whose bound never holds, so it searches every chunk."""
    copy = PropagationPlan.__new__(PropagationPlan)
    copy.__dict__.update(plan.__dict__, state_gain=[math.inf] * len(plan.state_gain))
    return copy


@pytest.mark.parametrize("count", [16 * 1000, 16 * 1000 + 5, 16 * 3000 - 1])
@pytest.mark.parametrize("order", [2, 6])
def test_a_bounded_apply_computes_states_for_the_end_state_only(monkeypatch, order, count):
    m, g = decaying(order, 40 + order)
    rng = np.random.default_rng(count)
    w, h, j, z0 = rng.normal(size=count), rng.normal(size=(3, order)), rng.normal(size=3), rng.normal(size=order)
    plan = one_loop(m, g, h, j, count)
    assert count > plan.per_chunk * plan.size  # more than one chunk
    expected = searching(plan).apply(w, z0[None])[0]

    products = block_products(monkeypatch, plan)
    rows, end, z_end = plan.apply(w, z0[None])[0]
    monkeypatch.undo()
    assert len(products) == (1 if count % plan.size else 0)
    assert end == expected[1] == count
    np.testing.assert_array_equal(rows, expected[0])
    np.testing.assert_array_equal(z_end, expected[2])


def nan_input():
    m, g = decaying(2, 41)
    w = np.ones(16 * 1000)
    w[9000] = math.nan
    return m, g, w


def growing_by_1e30_per_block():
    return np.array([[10 ** (30 / 16), 0.0], [1.0, 0.5]]), np.array([1.0, 0.0]), np.ones(16 * 3000)


def finite_states_past_the_bound():
    return 0.5 * np.eye(2), np.ones(2), np.full(16 * 1000, 1e300)


@pytest.mark.parametrize("case", [nan_input, growing_by_1e30_per_block, finite_states_past_the_bound])
def test_an_apply_that_fails_the_bound_ends_at_the_first_nonfinite_state(monkeypatch, case):
    m, g, w = case()
    expected = plain_recurrence(m, g, w)
    finite = np.all(np.isfinite(expected), axis=1)
    first = len(w) if np.all(finite) else int(np.argmin(finite))
    plan = one_loop(m, g, np.eye(2), np.zeros(2), len(w))
    assert len(w) > plan.per_chunk * plan.size
    # A non-finite input times a zero entry of the block map is NaN, so the
    # block product reads it as non-finite states from its block's start.
    bad_input = np.flatnonzero(~np.isfinite(w))
    if bad_input.size:
        assert first == bad_input[0] + 1
        first = bad_input[0] // plan.size * plan.size

    products = block_products(monkeypatch, plan)
    states, end, z_end = plan.apply(w)[0]
    monkeypatch.undo()
    assert end == first and len(states) == first and (z_end is None) == (first < len(w))
    # Every chunk is searched, up to the one holding the first non-finite state.
    assert len(products) == min(first, len(w) - 1) // plan.size // plan.per_chunk + 1
    assert np.max(np.abs(states - expected[:first])) <= 1e-12 * np.max(np.abs(expected[:first]))


@pytest.mark.parametrize("count", [1024, 1000])
def test_a_bounded_apply_of_one_chunk_computes_states_only_for_an_end_state_inside_a_block(monkeypatch, count):
    # A verified block of a noisy loop: 1,024 samples or fewer, one chunk.
    m, g = decaying(6, 42)
    rng = np.random.default_rng(43)
    w, h, j, z0 = rng.normal(size=count), rng.normal(size=(2, 6)), rng.normal(size=2), rng.normal(size=6)
    plan = one_loop(m, g, h, j, 1024)
    assert count <= plan.per_chunk * plan.size  # one chunk
    expected = searching(plan).apply(w, z0[None])[0]

    products = block_products(monkeypatch, plan)
    rows, end, z_end = plan.apply(w, z0[None])[0]
    monkeypatch.undo()
    assert len(products) == (1 if count % plan.size else 0)
    assert end == expected[1] == count
    np.testing.assert_array_equal(rows, expected[0])
    np.testing.assert_array_equal(z_end, expected[2])


def growing(order, seed, radius):
    """A loop of nonnegative maps, inputs and start growing by ``radius``
    per step: no sum cancels, so the block products and the step-by-step
    recurrence overflow at the same sample."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(size=(order, order))
    m *= radius / np.max(np.abs(np.linalg.eigvals(m)))
    return m, rng.uniform(size=order), rng.uniform(size=(2, order)), rng.uniform(size=2), rng.uniform(size=order)


REGIMES = ("one_chunk", "several_chunks", "overflowing_maps")


@pytest.mark.parametrize("overflows", ["state", "output"])
@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("order", range(1, 13))
def test_an_apply_ends_at_the_first_nonfinite_state_or_output(order, regime, overflows):
    # The overflowing maps grow by 1e25 per step, so m^16 overflows and
    # the block is cut.  A small output map leaves the state to overflow
    # first, a large one the output.
    probe = one_loop(*growing(order, 0, 1.0)[:4], 1)
    chunk = probe.per_chunk * probe.size
    count, radius = {
        "one_chunk": (min(1024, chunk), 10 ** (308 / (0.6 * min(1024, chunk)))),
        "several_chunks": (3 * chunk, 10 ** (308 / (1.5 * chunk))),
        "overflowing_maps": (64, 1e25),
    }[regime]
    m, g, h, j, z0 = growing(order, 100 * order + REGIMES.index(regime), radius)
    h[0] *= 1e150 if overflows == "output" else 1e-10
    w = np.random.default_rng(order).uniform(size=count)
    z = plain_recurrence(m, g, np.append(w, 0.0), z0)  # z[0 .. count]
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = z[:-1] @ h[0] + w * j[0]
    first_state = first_nonfinite(z)
    assert 0 < first_state < count
    assert regime != "several_chunks" or first_state > chunk
    plan = one_loop(m, g, h, j, count)
    assert plan.size < 16 if regime == "overflowing_maps" else plan.size == 16

    # The whole run, the run whose z[len(w)] is the first non-finite
    # state, and the one a sample shorter.
    for stop in (count, first_state, first_state - 1):
        finite = np.all(np.isfinite(z[:stop]), axis=1) & np.isfinite(outputs[:stop])
        first = stop if np.all(finite) else int(np.argmin(finite))
        rows, end, z_end = plan.apply(w[:stop], z0[None])[0]
        assert end == first and len(rows) == first
        assert (z_end is None) == (end < stop or not np.all(np.isfinite(z[stop])))
        assert (z_end is None) == (stop != first_state - 1 or overflows == "output")
        np.testing.assert_allclose(rows[:, 0], outputs[:first], rtol=1e-10)
        if z_end is not None:
            np.testing.assert_allclose(z_end, z[stop], rtol=1e-10)


def list_chain(first, advance, length):
    """A power chain built as a list of products and cut before its first
    non-finite item: the reference for the chains written in place."""
    chain = [first]
    for _ in range(length - 1):
        chain.append(advance(chain[-1]))
    chain = np.array(chain)
    bad = np.flatnonzero(~np.all(np.isfinite(chain[1:]), axis=(1, 2)))
    return chain[:1 + bad[0]] if bad.size else chain


@pytest.mark.parametrize("seed", range(40))
def test_power_chains_written_in_place_are_the_list_built_ones(seed):
    # With a unit g and h every m^i g and row map column is part of m^i,
    # so the block is cut where the powers overflow: the plan's block map
    # holds m^0 .. m^(L-1) and its leap is m^L.
    rng = np.random.default_rng(5000 + seed)
    order = 1 + seed % 12
    m = rng.normal(size=(order, order)) * 10 ** rng.uniform(-3.0, 25.0)  # large ones overflow
    unit = np.eye(order)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        powers = list_chain(m, lambda p: m @ p, 16)
        doubling = list_chain(powers[-1], lambda p: p @ p, 10)
        plan = one_loop(m, unit, unit[None], [0.0], 16)
        stack = np.empty((10, order, order))
        stack[0] = powers[-1]
        squares = stack[:_finite_chain(stack)]
    size = len(powers)
    assert plan.size == size and plan.leap.tobytes() == powers[-1].tobytes()
    in_place = plan.block_map[0, :order].reshape(order, size, order).transpose(1, 2, 0)
    assert in_place[1:].tobytes() == powers[:-1].tobytes()
    assert squares.shape == doubling.shape and squares.tobytes() == doubling.tobytes()


# A stacked plan scans B members at once; each member's rows, end and end
# state are those of the member planned alone, bit for bit.

MEMBER_KINDS = ("decaying", "diverging", "overflowing")


def member(kind, order, count, seed):
    """(m, g, h, j, z0) of one member: a decaying loop, one that grows to
    overflow late in a run of ``count`` samples, or one growing by 1e25
    per step, whose m^16 overflows.  The growing ones are nonnegative,
    so no sum cancels and the recurrence overflows where the plan does."""
    if kind == "decaying":
        rng = np.random.default_rng(seed)
        m, g = decaying(order, seed, radius=rng.uniform(0.5, 0.999))
        return m, g, rng.normal(size=(2, order)), rng.normal(size=2), rng.normal(scale=3.0, size=order)
    radius = 10 ** (308 / (0.6 * count)) if kind == "diverging" else 1e25
    return growing(order, seed, radius)


@pytest.mark.parametrize("seed", range(36))
def test_a_stacked_plan_gives_each_member_its_plan_alone_bit_for_bit(seed):
    rng = np.random.default_rng(8000 + seed)
    order, size, count = 1 + seed % 12, 1 + int(rng.integers(12)), int(rng.integers(40, 3000))
    kinds = ["decaying"] * size
    for kind, where in zip(MEMBER_KINDS[1:], rng.permutation(size)):
        kinds[where] = kind  # one diverging and one overflowing member where the batch has room
    maps = [member(kind, order, count, 100 * seed + b) for b, kind in enumerate(kinds)]
    w = rng.uniform(size=count)
    plan = PropagationPlan(*(np.array([mp[i] for mp in maps]) for i in range(4)), count)
    results = plan.apply(w, np.array([mp[4] for mp in maps]))
    assert len(results) == size
    # All or none: members that agree on block length and span share one
    # set of maps, else each is planned alone.  An overflowing member's
    # block is shorter than the others'.
    plans = [one_loop(m, g, h, j, count) for m, g, h, j, _ in maps]  # each member's batch of one
    agree = len({(alone.size, alone.span) for alone in plans}) == 1
    assert len(plan.alone) == (0 if agree else size) == (size if "overflowing" in kinds else 0)
    for (m, g, h, j, z0), kind, (rows, end, z_end), alone in zip(maps, kinds, results, plans):
        expected_rows, expected_end, expected_z_end = alone.apply(w, z0[None])[0]
        assert rows.tobytes() == expected_rows.tobytes() and end == expected_end, kind
        assert (z_end is None) == (expected_z_end is None)
        assert z_end is None or z_end.tobytes() == expected_z_end.tobytes()
        assert (alone.size < 16) == (kind == "overflowing")
        # The plain recurrence: the same end, and rows within today's tolerances.
        z = plain_recurrence(m, g, np.append(w, 0.0), z0)  # z[0 .. count]
        with np.errstate(over="ignore", invalid="ignore"):
            outputs = z[:-1] @ h.T + np.outer(w, j)
        finite = np.all(np.isfinite(z[:-1]), axis=1) & np.isfinite(outputs[:, 0])
        assert end == (count if np.all(finite) else int(np.argmin(finite))), kind
        assert (end < count) == (kind != "decaying")
        if kind == "decaying":
            assert np.max(np.abs(rows - outputs)) <= 1e-12 * np.max(np.abs(outputs))
            assert np.max(np.abs(z_end - z[-1])) <= 1e-12 * np.max(np.abs(z))
        else:
            np.testing.assert_allclose(rows, outputs[:end], rtol=1e-10)


# A plan tests its maps and its doubling chain as whole arrays, each by one
# sum, and searches them item by item only when that sum is not finite.
# Those whole-array tests are shortcuts: the plan is the one the search gives.

def searched(monkeypatch, *args):
    """The plan of ``args`` with every whole-array finiteness test failing,
    so each block length and chain length comes from the item-by-item
    search."""
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x, *a, **k: isfinite(x, *a, **k) if np.ndim(x) else np.False_)
    try:
        return PropagationPlan(*args)
    finally:
        monkeypatch.undo()


def chain_overflowing(seed):
    """A member whose maps are finite but whose doubling chain M^(2^k),
    M = m^16 of size 1e60, overflows at k = 3: its span is 8 blocks."""
    rng = np.random.default_rng(seed)
    m = np.array([[10 ** (60 / 16), 0.0], [1.0, 0.5]])
    return m, rng.uniform(size=2), rng.uniform(size=(2, 2)), rng.uniform(size=2)


SECOND_MEMBERS = {
    "block_maps_overflow": lambda: growing(2, 2, 1e25)[:4],  # m^16 overflows: a shorter block
    "chain_overflows": lambda: chain_overflowing(2),
    "all_finite": lambda: (*decaying(2, 4), np.ones((2, 2)), np.ones(2)),
}


@pytest.mark.parametrize("second", SECOND_MEMBERS)
def test_the_whole_array_finiteness_tests_give_the_plan_the_search_gives(monkeypatch, second):
    count = 5000
    args = (*(np.array(pair) for pair in zip(chain_overflowing(1), SECOND_MEMBERS[second]())), count)
    plan, reference = PropagationPlan(*args), searched(monkeypatch, *args)
    # Members that disagree on block length or on span are planned alone;
    # two whose chains overflow at the same square share the plan.
    assert len(plan.alone) == len(reference.alone) == (0 if second == "chain_overflows" else 2)
    for made, expected in zip(plan.alone or [plan], reference.alone or [reference]):
        assert (made.size, made.span) == (expected.size, expected.span)
        assert len(made.transposed) == len(expected.transposed)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(made.transposed, expected.transposed))
    first, *others = plan.alone or [plan]
    assert (first.size, first.span) == (16, 8)
    assert all((other.size < 16) == (second == "block_maps_overflow") for other in others)
    # Each member's rows are its batch of one's, bit for bit.
    w, z0 = np.random.default_rng(3).uniform(size=count), np.ones((2, 2))
    for b, (rows, end, z_end) in enumerate(plan.apply(w, z0)):
        alone = one_loop(*(a[b] for a in args[:4]), count)
        expected_rows, expected_end, expected_z_end = alone.apply(w, z0[b:b + 1])[0]
        assert rows.tobytes() == expected_rows.tobytes() and end == expected_end
        assert (z_end is None) == (expected_z_end is None)
        assert z_end is None or z_end.tobytes() == expected_z_end.tobytes()


def test_members_planned_together_share_one_scan():
    # Decaying members of six states: one doubling scan for all of them,
    # so the scan runs the same lines for ten members as for one.
    def scan_lines(members):
        maps = [member("decaying", 6, 5000, seed) for seed in range(members)]
        plan = PropagationPlan(*(np.array([mp[i] for mp in maps]) for i in range(4)), 5000)
        assert not plan.alone  # no member is planned alone
        lines = 0

        def tracer(frame, event, arg):
            nonlocal lines
            if frame.f_code is PropagationPlan.scan.__code__:
                lines += event == "line"
                return tracer
            return None

        sys.settrace(tracer)
        try:
            scanned = plan.scan(np.ones(5000))
        finally:
            sys.settrace(None)
        assert len(scanned) == members
        return lines

    assert scan_lines(10) == scan_lines(1)


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
