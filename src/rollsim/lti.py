"""Continuous-time LTI machinery shared by every other module.

Polynomials in the Laplace variable s are plain 1-D float arrays in
descending powers (``coeffs[0]`` multiplies the highest power), the same
convention numpy's ``polyval``/``polymul``/``roots`` use.  On top of that
sit a rational :class:`TransferFunction`, its controllable-canonical
:class:`StateSpaceModel` realization, fixed-step time simulation, pole
analysis via companion-matrix eigenvalues, a Routh-array stability test,
and step-response metrics.

There is one discretisation: :func:`zoh_step_matrices` gives the linear
step map x+ = M x + N u for an input held constant over the step (RK4 or
forward Euler, chosen by :class:`SimConfig`).  Open-loop runs here and
the closed loops in :mod:`rollsim.loops` both advance plant states with
it, sampling the input once at each step start and holding it.  A linear
recurrence over a whole horizon is evaluated in closed form, a block of
steps at a time, by :func:`propagate`: open-loop runs always, closed
loops when they are linear.

Everything here is SISO and immutable after construction; all functions
are pure and safe to call from parallel scenario runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Integrator",
    "MAX_STEPS",
    "ResponseMetrics",
    "RouthVerdict",
    "SimConfig",
    "SimulationDiverged",
    "StateSpaceModel",
    "TimeSeries",
    "TransferFunction",
    "dc_gain",
    "poly_trim",
    "polynomial_roots",
    "poles",
    "propagate",
    "response_metrics",
    "routh_classification",
    "simulate_lti",
    "step_response",
    "tf_new",
    "zoh_step_matrices",
]


# ---------------------------------------------------------------------------
# Polynomial helpers (descending powers of s)
# ---------------------------------------------------------------------------

def poly_trim(coeffs: Sequence[float]) -> np.ndarray:
    """Strip leading zeros; the zero polynomial collapses to ``[0.0]``."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("polynomial coefficients must be a non-empty 1-D sequence")
    nz = np.flatnonzero(c)
    if nz.size == 0:
        return np.zeros(1)
    return c[nz[0]:].copy()


def polynomial_roots(coeffs: Sequence[float]) -> np.ndarray:
    """All complex roots of a polynomial, via companion-matrix eigenvalues.

    The companion matrix is assembled here and handed to
    ``numpy.linalg.eigvals``; degree 1 is solved directly.
    """
    c = poly_trim(coeffs)
    n = len(c) - 1
    if n < 1:
        raise ValueError("root finding requires degree >= 1")
    monic = c / c[0]
    if n == 1:
        return np.array([-monic[1]], dtype=complex)
    comp = np.zeros((n, n))
    comp[0, :] = -monic[1:]
    comp[1:, :-1] = np.eye(n - 1)
    return np.linalg.eigvals(comp)


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransferFunction:
    """Proper rational function num(s)/den(s), den normalized to monic.

    Construct through :func:`tf_new`, which validates and normalizes.
    Equality and hashing go by coefficient values.
    """

    num: np.ndarray
    den: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferFunction):
            return NotImplemented
        return np.array_equal(self.num, other.num) and np.array_equal(self.den, other.den)

    def __hash__(self) -> int:
        return hash((tuple(self.num.tolist()), tuple(self.den.tolist())))

    def __repr__(self) -> str:
        return f"TransferFunction(num={self.num.tolist()}, den={self.den.tolist()})"


def tf_new(num: Sequence[float], den: Sequence[float]) -> TransferFunction:
    """Build a proper transfer function.

    Leading zeros are stripped, then both polynomials are scaled so the
    denominator is monic.  Raises ``ValueError`` for a zero denominator or
    an improper (deg num > deg den) ratio.
    """
    n = poly_trim(num)
    d = poly_trim(den)
    if np.all(d == 0.0):
        raise ValueError("transfer function denominator is the zero polynomial")
    if not np.all(np.isfinite(n)) or not np.all(np.isfinite(d)):
        raise ValueError("transfer function coefficients must be finite")
    if len(n) > len(d):
        raise ValueError(
            f"improper transfer function: deg(num)={len(n) - 1} > deg(den)={len(d) - 1}"
        )
    lead = d[0]
    return TransferFunction(num=n / lead, den=d / lead)


def dc_gain(tf: TransferFunction) -> float:
    """num(0)/den(0).  Returns ``math.inf`` for a pole at the origin.

    Raises ``ValueError`` on the indeterminate 0/0 case.
    """
    n0 = float(tf.num[-1])
    d0 = float(tf.den[-1])
    if d0 == 0.0:
        if n0 == 0.0:
            raise ValueError("dc gain is indeterminate: num(0) = den(0) = 0")
        return math.inf
    return n0 / d0


def poles(tf: TransferFunction, residual_tol: float = 1e-8) -> np.ndarray:
    """Denominator roots, each checked against |den(root)| < residual_tol.

    The residual is evaluated on the monic denominator.  A residual above
    the tolerance means the eigenvalue iteration did not converge for this
    polynomial; that raises with the worst offender reported.
    """
    if len(tf.den) < 2:
        raise ValueError("pole computation requires deg(den) >= 1")
    roots = polynomial_roots(tf.den)
    residuals = np.abs(np.polyval(tf.den, roots))
    worst = int(np.argmax(residuals))
    if residuals[worst] >= residual_tol:
        raise ArithmeticError(
            f"pole computation did not converge: |den(root)| = {residuals[worst]:.3e} "
            f"at root {roots[worst]} (tolerance {residual_tol:.1e})"
        )
    return roots


class RouthVerdict(str, Enum):
    HURWITZ_STABLE = "hurwitz_stable"
    NOT_HURWITZ = "not_hurwitz"


def routh_classification(den: Sequence[float]) -> RouthVerdict:
    """Routh-array test: are all roots strictly in the left half-plane?

    The sign of the leading coefficient is normalized first.  Any
    nonpositive first-column entry, including a zero pivot caused by
    missing polynomial coefficients, immediately yields ``NOT_HURWITZ``;
    no epsilon substitution is attempted, since only a strict
    stable/not-stable verdict is needed.
    """
    c = poly_trim(den)
    if len(c) < 2:
        raise ValueError("Routh classification requires degree >= 1")
    if c[0] < 0:
        c = -c
    # Rows of the Routh array, highest two built from alternating coefficients.
    row_hi = c[0::2].astype(float)
    row_lo = c[1::2].astype(float)
    if len(row_lo) < len(row_hi):
        row_lo = np.append(row_lo, 0.0)
    if row_hi[0] <= 0.0:
        return RouthVerdict.NOT_HURWITZ
    for _ in range(len(c) - 1):
        pivot = row_lo[0]
        if pivot <= 0.0:
            return RouthVerdict.NOT_HURWITZ
        nxt = np.zeros_like(row_lo)
        for i in range(len(row_lo) - 1):
            nxt[i] = (pivot * row_hi[i + 1] - row_hi[0] * row_lo[i + 1]) / pivot
        row_hi, row_lo = row_lo, nxt
    return RouthVerdict.HURWITZ_STABLE


# ---------------------------------------------------------------------------
# State-space realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpaceModel:
    """SISO state-space model x' = Ax + Bu, y = Cx + Du.

    ``n`` may be zero (pure gain), in which case A, B, C are empty and the
    output is D times the input.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float

    @property
    def n(self) -> int:
        return self.A.shape[0]


def tf_to_state_space(tf: TransferFunction) -> StateSpaceModel:
    """Controllable canonical form of a proper transfer function.

    D equals the leading numerator coefficient when deg(num) = deg(den),
    otherwise 0.
    """
    den = tf.den
    n = len(den) - 1
    num = np.concatenate([np.zeros(n + 1 - len(tf.num)), tf.num])
    d = float(num[0])
    if n == 0:
        empty = np.zeros((0, 0))
        return StateSpaceModel(A=empty, B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=d)
    a = den[1:]           # den monic: [1, a1 ... an]
    b = num[1:]
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -a[::-1]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = (b - a * d)[::-1].reshape(1, n)
    return StateSpaceModel(A=A, B=B, C=C, D=d)


# ---------------------------------------------------------------------------
# Fixed-step simulation
# ---------------------------------------------------------------------------

class Integrator(str, Enum):
    RK4 = "rk4"
    EULER = "euler"


# Longest horizon, in steps, that a SimConfig may ask for.  The longest
# shipped run is 50,000 steps; 10^7 samples is about 400 MB of loop arrays.
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation settings.

    The defaults (dt = 1 ms over 20 s) resolve the fastest time constants
    of the shipped plant models while keeping desk-scale runtimes.  A
    horizon of more than ``MAX_STEPS`` steps is rejected.
    """

    dt: float = 1e-3
    t_end: float = 20.0
    integrator: Integrator = Integrator.RK4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end ({self.t_end}) must be >= dt ({self.dt})")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValueError(
                f"t_end / dt is {self.t_end / self.dt:.3g} steps, more than MAX_STEPS = {MAX_STEPS}"
            )
        object.__setattr__(self, "integrator", Integrator(self.integrator))

    @property
    def steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class TimeSeries:
    """Uniformly sampled time axis plus named channels of equal length."""

    t: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        for name, values in self.channels.items():
            values = np.asarray(values, dtype=float)
            if values.shape != self.t.shape:
                raise ValueError(f"channel '{name}' length does not match time axis")
            self.channels[name] = values

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.channels

    def __len__(self) -> int:
        return len(self.t)


class SimulationDiverged(RuntimeError):
    """State became non-finite; carries the divergence time and the finite prefix."""

    def __init__(self, time: float, partial: TimeSeries):
        super().__init__(f"simulation diverged at t = {time:.6g} s")
        self.time = time
        self.partial = partial


def zoh_step_matrices(
    ss: StateSpaceModel, dt: float, integrator: str = "rk4"
) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) with x+ = M x + N u for one fixed step under constant input.

    For RK4 these are the degree-4 Taylor truncations of the exact
    zero-order-hold discretization (what classical RK4 computes when the
    input is held over the step); for Euler the degree-1 ones.
    """
    A = ss.A
    n = ss.n
    eye = np.eye(n)
    hA = dt * A
    if integrator == "rk4":
        m = eye + hA @ (eye + hA @ (eye / 2.0 + hA @ (eye / 6.0 + hA / 24.0)))
        ng = dt * (eye + hA @ (eye / 2.0 + hA @ (eye / 6.0 + hA / 24.0)))
    else:
        m = eye + hA
        ng = dt * eye
    return m, (ng @ ss.B).ravel()


# Steps per block in :func:`propagate`.  16 measured fastest for up to 12
# states (a closed loop around the 8th-order multibody plant); longer
# blocks spend more on the in-block products than they save in Python.
_BLOCK = 16
# Largest m*n*k of one matrix product in :func:`propagate`.  OpenBLAS runs
# bigger products on several threads, and on a loaded two-core machine
# waking them cost up to 8 ms per product against 0.1 ms on one thread.
_SERIAL_PRODUCT = 4 * 65536


def propagate(
    m: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    j: np.ndarray,
) -> tuple[np.ndarray, int]:
    """States of z[k+1] = m z[k] + g w[k] from z[0] = 0, for k < len(w).

    Returns ``(rows, end)``.  ``end`` is the index of the first non-finite
    state, or ``len(w)`` when all are finite; ``rows[k]`` for k < end is
    the projection h z[k] + j w[k], with ``h`` p x n and ``j`` of length p.
    The inputs must be finite.

    The recurrence is evaluated in blocks of ``_BLOCK`` steps (G. Blelloch,
    *Prefix sums and their applications*, 1990): within a block starting at
    b, z[b+i] = m^i z[b] + sum_{l<i} m^(i-1-l) g w[b+l], one matrix product
    for a chunk of blocks, so Python only carries the block-start states.
    """
    m = np.asarray(m, dtype=float)
    g = np.asarray(g, dtype=float).ravel()
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("propagate needs finite inputs")
    n, count = len(g), len(w)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    j = np.ravel(np.asarray(j, dtype=float))

    # Overflow is how divergence shows, not an anomaly.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [np.eye(n), m]
        while len(powers) <= _BLOCK and np.all(np.isfinite(powers[-1])):
            powers.append(m @ powers[-1])
        if len(powers) > 2 and not np.all(np.isfinite(powers[-1])):
            # An overflowing power times a zero state is NaN, which would
            # flag finite states: shorter blocks keep the first bad index.
            powers.pop()
        size = len(powers) - 1
        m_block = powers[size]
        impulse = np.array(powers[:size]) @ g  # impulse[i] = m^i g
        # Row l of the in-block map feeds input w[b+l] to offsets i > l;
        # the rows above it carry z[b] to offset i as m^i z[b].
        toeplitz = np.zeros((size, size, n))
        for i in range(1, size):
            toeplitz[:i, i] = impulse[i - 1::-1]
        block_map = np.concatenate([
            np.array(powers[:size]).transpose(2, 0, 1).reshape(n, size * n),
            toeplitz.reshape(size, size * n),
        ])

        blocks = -(-count // size)
        inputs = np.zeros(blocks * size)
        inputs[:count] = w
        inputs = inputs.reshape(blocks, size)
        rows = np.empty((blocks * size, len(h)))
        start = np.zeros(n)
        per_chunk = max(1, _SERIAL_PRODUCT // max(1, (n + size) * size * n))
        for first in range(0, blocks, per_chunk):
            chunk = inputs[first:first + per_chunk]
            starts = np.empty((len(chunk), n))
            for b, carried in enumerate(chunk @ impulse[::-1]):
                starts[b] = start
                start = m_block @ start + carried
            states = (np.hstack([starts, chunk]) @ block_map).reshape(len(chunk) * size, n)
            offset = first * size
            rows[offset:offset + len(states)] = states @ h.T + np.outer(chunk, j)
            finite = np.all(np.isfinite(states), axis=1)
            if not np.all(finite):
                end = min(count, offset + int(np.argmin(finite)))
                return rows[:end], end
    return rows[:count], count


def simulate_lti(
    ss: StateSpaceModel,
    input_fn: Callable[[float], float] | np.ndarray,
    cfg: SimConfig,
) -> TimeSeries:
    """Run a state-space model from zero initial state.

    ``input_fn`` is sampled once at each step start and held over the
    step, and must return finite values; an array gives those samples
    directly, one per step start (``cfg.steps + 1``).  The state advances
    by the :func:`zoh_step_matrices` map of ``cfg.integrator``, evaluated
    by :func:`propagate`.  Returns channels ``u`` and ``y``.  Raises
    :class:`SimulationDiverged` when the state leaves the finite range,
    with the finite prefix attached.
    """
    steps = cfg.steps
    t = np.arange(steps + 1) * cfg.dt
    if callable(input_fn):
        u = np.array([float(input_fn(tk)) for tk in t])
    else:
        u = np.array(input_fn, dtype=float)
        if u.shape != t.shape:
            raise ValueError(f"expected {len(t)} input samples, got shape {u.shape}")
    m, nvec = zoh_step_matrices(ss, cfg.dt, cfg.integrator.value)
    rows, end = propagate(m, nvec, u, ss.C, [ss.D])
    y = rows[:, 0]
    if end <= steps:
        partial = TimeSeries(t=t[:end], channels={"u": u[:end].copy(), "y": y})
        raise SimulationDiverged(time=float(t[end]), partial=partial)
    return TimeSeries(t=t, channels={"u": u, "y": y})


def step_response(tf: TransferFunction, cfg: SimConfig) -> TimeSeries:
    """Unit-step response of a transfer function."""
    return simulate_lti(tf_to_state_space(tf), np.ones(cfg.steps + 1), cfg)


# ---------------------------------------------------------------------------
# Response metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResponseMetrics:
    """Step-response figures of merit.

    ``rise_time_10_90`` and ``settling_time_2pct`` are ``None`` when the
    corresponding threshold is never reached within the horizon.  With a
    nonzero setpoint all thresholds are relative to it; with a zero
    setpoint the overshoot and the 2 percent band fall back to absolute
    output units (documented edge, rise time is then undefined).
    """

    rise_time_10_90: float | None
    overshoot_pct: float
    settling_time_2pct: float | None
    steady_state_error: float
    final_value: float


def response_metrics(ts: TimeSeries, setpoint: float, channel: str = "y") -> ResponseMetrics:
    """Compute :class:`ResponseMetrics` for one channel against a setpoint.

    Conventions: rise time is the first 10 to 90 percent crossing
    interval, overshoot is max(y - setpoint, 0) relative to |setpoint|,
    settling time is the instant after the last sample outside the
    +-2 percent band, and the steady-state error subtracts the mean of
    the final 5 percent of samples from the setpoint.
    """
    t = ts.t
    y = ts[channel]
    if len(t) == 0:
        raise ValueError("cannot compute metrics on an empty series")

    # Near-divergent series can overflow the intermediate reductions; the
    # resulting inf metrics are still the honest answer.
    with np.errstate(over="ignore", invalid="ignore"):
        return _metrics(t, y, setpoint)


def _metrics(t: np.ndarray, y: np.ndarray, setpoint: float) -> ResponseMetrics:
    if setpoint != 0.0:
        yn = y / setpoint
        band = np.abs(yn - 1.0) <= 0.02
        over = max(float(np.max(yn)) - 1.0, 0.0) * 100.0
    else:
        yn = None
        band = np.abs(y) <= 0.02
        over = max(float(np.max(y)), 0.0) * 100.0

    rise: float | None = None
    if yn is not None:
        below = yn < 0.1
        if bool(np.any(below)):
            start = int(np.argmax(below))
            after = yn[start:]
            hit10 = np.flatnonzero(after >= 0.1)
            if hit10.size:
                i10 = start + int(hit10[0])
                hit90 = np.flatnonzero(yn[i10:] >= 0.9)
                if hit90.size:
                    rise = float(t[i10 + int(hit90[0])] - t[i10])

    settle: float | None
    outside = np.flatnonzero(~band)
    if outside.size == 0:
        settle = 0.0
    elif outside[-1] == len(t) - 1:
        settle = None
    else:
        settle = float(t[outside[-1] + 1])

    tail = max(1, int(math.ceil(0.05 * len(y))))
    sse = setpoint - float(np.mean(y[-tail:]))
    return ResponseMetrics(
        rise_time_10_90=rise,
        overshoot_pct=over,
        settling_time_2pct=settle,
        steady_state_error=sse,
        final_value=float(y[-1]),
    )
