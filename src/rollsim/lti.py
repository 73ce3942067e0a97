"""Continuous-time LTI machinery shared by every other module.

Polynomials in the Laplace variable s are plain 1-D float arrays in
descending powers (``coeffs[0]`` multiplies the highest power), the same
convention numpy's ``polyval``/``polymul``/``roots`` use.  On top of that
sit a rational :class:`TransferFunction`, its controllable-canonical
:class:`StateSpaceModel` realization, fixed-step time simulation, pole
analysis via companion-matrix eigenvalues, a Routh-array stability test,
and step-response metrics.

There is one discretisation: :func:`zoh_step_matrices` gives the exact
step map x+ = M x + N u for an input held constant over the step (the
zero-order hold).  Open-loop runs here and the closed loops in
:mod:`rollsim.loops` both advance plant states with it.  A linear
recurrence is evaluated in closed form, a block of steps at a time, by a
:class:`PropagationPlan`, the one place that decides where a run stops:
at the first sample whose state or output is not finite.  Open-loop runs
plan theirs through :func:`propagate`, a nonlinear loop reuses one for
its verified blocks, and linear closed loops that differ in gains only
are the members of one stacked plan: they share its maps when all agree
on its block length and scan span, and are each planned alone if not.

Everything here is SISO and immutable after construction; all functions
are pure and safe to call from parallel scenario runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

__all__ = [
    "MAX_STEPS",
    "ResponseMetrics",
    "RouthVerdict",
    "SimConfig",
    "SimulationDiverged",
    "StateSpaceModel",
    "TimeSeries",
    "TransferFunction",
    "batch_size",
    "dc_gain",
    "poly_trim",
    "polynomial_roots",
    "poles",
    "PropagationPlan",
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
    denominator is monic.  Raises ``ValueError`` for a zero denominator, an
    improper (deg num > deg den) ratio, or a coefficient that is not finite.
    """
    n = poly_trim(num)
    d = poly_trim(den)
    if np.all(d == 0.0):
        raise ValueError("transfer function denominator is the zero polynomial")
    if len(n) > len(d):
        raise ValueError(
            f"improper transfer function: deg(num)={len(n) - 1} > deg(den)={len(d) - 1}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        n, d = n / d[0], d / d[0]
    if not np.all(np.isfinite(n)) or not np.all(np.isfinite(d)):
        raise ValueError("transfer function coefficients must be finite, also with the denominator made monic")
    return TransferFunction(num=n, den=d)


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


_RESIDUAL_TOL = 1e-8  # largest relative residual of an accepted pole


def poles(tf: TransferFunction) -> np.ndarray:
    """Denominator roots, each checked by its relative residual.

    A root r of the monic denominator c_0 s^n + ... + c_n passes when
    |den(r)| / sum_i |c_i| |r|^(n-i) < ``_RESIDUAL_TOL``, a test that does not
    scale with the coefficients.  For |r| > 1 both sums are divided by |r|^n
    and evaluated in 1/r, so no term overflows.  A root that fails is not
    accurate; that raises ``ValueError`` naming the worst one.
    """
    roots = polynomial_roots(tf.den)
    outer = np.abs(roots) > 1.0
    x = np.where(outer, 1.0 / np.where(outer, roots, 1.0), roots)
    terms = np.where(outer[:, None], tf.den[::-1], tf.den) * x[:, None] ** np.arange(len(tf.den) - 1, -1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.abs(terms.sum(axis=1))
        residuals = np.where(value == 0.0, 0.0, value / np.abs(terms).sum(axis=1))
    worst = int(np.argmax(residuals))  # a NaN residual is the first maximum
    if not residuals[worst] < _RESIDUAL_TOL:
        raise ValueError(f"pole {roots[worst]} is not accurate: relative residual {residuals[worst]:.3e}")
    return roots


class RouthVerdict(str, Enum):
    HURWITZ_STABLE = "hurwitz_stable"
    NOT_HURWITZ = "not_hurwitz"


def routh_classification(den: Sequence[float]) -> RouthVerdict:
    """Routh-array test: are all roots strictly in the left half-plane?

    The sign of the leading coefficient is normalized first.  Any
    nonpositive first-column entry, including a zero pivot caused by
    missing polynomial coefficients, immediately yields ``NOT_HURWITZ``;
    no epsilon substitution is attempted, since only a strict verdict is
    needed.  Every row is scaled to a largest magnitude of 1: a positive
    factor keeps its signs, and the products stay finite.
    """
    c = poly_trim(den)
    if len(c) < 2:
        raise ValueError("Routh classification requires degree >= 1")
    c = c / (np.sign(c[0]) * np.max(np.abs(c)))
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
        nxt = np.append(pivot * row_hi[1:] - row_hi[0] * row_lo[1:], 0.0)
        row_hi, row_lo = row_lo, nxt / (np.max(np.abs(nxt)) or 1.0)
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
    otherwise 0.  Raises ``ValueError`` when C = b - a D overflows.
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
    with np.errstate(over="ignore"):
        C = (b - a * d)[::-1].reshape(1, n)
    if not np.all(np.isfinite(C)):
        raise ValueError("the state-space output map C = b - a D overflows")
    return StateSpaceModel(A=A, B=B, C=C, D=d)


# ---------------------------------------------------------------------------
# Fixed-step simulation
# ---------------------------------------------------------------------------

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


def zoh_step_matrices(ss: StateSpaceModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) with x+ = M x + N u for one step of ``dt`` under an input held
    over the step: the exact zero-order-hold map, read from
    exp(X) = [[M, N], [0, 1]] with X = [[A, B], [0, 0]] dt (C. Van Loan,
    IEEE TAC 1978).  Scaling and squaring (C. Moler & C. Van Loan, SIAM
    Review 2003): X is halved s times to ||X||_inf <= 1/2, where the
    degree-13 Taylor polynomial in Horner form leaves a remainder below
    1e-15, and the result is squared s times.  A map that overflows comes
    back non-finite, without a warning, and runs on it diverge at once.
    """
    n, eye = ss.n, np.eye(ss.n + 1)
    x = np.zeros((n + 1, n + 1))
    x[:n, :n], x[:n, n:] = ss.A, ss.B
    with np.errstate(over="ignore", invalid="ignore"):
        x *= dt
        squarings = max(0, math.frexp(float(np.abs(x).sum(axis=1).max()))[1] + 1)
        x, e = np.ldexp(x, -squarings), eye
        for k in range(13, 0, -1):
            e = eye + x @ e / k
        for _ in range(squarings):
            e = e @ e
    return e[:n, :n].copy(), e[:n, n].copy()


# Steps per block in :func:`propagate`.  16 measured fastest for up to 12
# states (a closed loop around the 8th-order multibody plant); longer
# blocks spend more on the in-block products than they save in Python.
_BLOCK = 16
# Largest m*n*k of one matrix product in :func:`propagate`.  OpenBLAS runs
# bigger products on several threads, and on a loaded two-core machine
# waking them cost up to 8 ms per product against 0.1 ms on one thread.
_SERIAL_PRODUCT = 4 * 65536
# Most bytes of block starts that one batched scan holds (members x blocks
# x states doubles): ten 6-state loops over 10,001 samples take 0.3 MB,
# the multibody demo's two 12-state loops over 50,001 samples 0.6 MB.
_BATCH_BYTES = 1 << 20
# The offsets of a block, and where block map row n + l reads m^(i-1-l) g
# for offset i: below 0 it reads one of the zero rows after m^15 g.
_OFFSETS = np.arange(_BLOCK)
_LAGS = _OFFSETS - _OFFSETS[:, None] - 1


def batch_size(states: int, longest: int) -> int:
    """How many loops of ``states`` states one :class:`PropagationPlan`
    over ``longest`` samples batches within ``_BATCH_BYTES``."""
    return max(1, _BATCH_BYTES // (8 * max(1, states) * (longest // _BLOCK + 1)))


def _finite_chain(chain: np.ndarray) -> np.ndarray:
    """Fill ``chain[1:]`` in place, item i = item i-1 squared, and return
    how many leading items each member keeps: all, or those before its
    first non-finite one after ``chain[0]``, found with one finiteness
    test.  Items are n x n matrices, or stacks of them."""
    product = np.dot if chain.ndim == 3 else np.matmul  # np.dot calls cost less
    for i in range(1, len(chain)):
        product(chain[i - 1], chain[i - 1], out=chain[i])
    finite = np.all(np.isfinite(chain[1:]), axis=(-2, -1))
    return 1 + np.logical_and.accumulate(finite).sum(axis=0)


class PropagationPlan:
    """The block maps and doubling powers of :func:`propagate` for a batch
    of loops, built once for inputs of up to ``longest`` samples and
    applied from any start.

    Maps with a leading axis, m (B, n, n), g (B, n), h (B, p, n) and
    j (B, p), stack B members; without it they are one loop, and the
    plan's arrays lack it too.  Each member's products keep the shapes of
    a plan of that member alone (a stacked product runs one per member),
    so its rows are those of its batch of one, bit for bit.

    The plan alone decides where a run stops: at ``end``, the first sample
    whose state or first row (the output) is not finite.  Overflow is how
    divergence shows, but an overflowed map entry times a zero state or
    input is NaN, which would flag finite samples; so every map is finite.
    The block length L is the first offset i whose m^(i+1), m^i g or row
    map column overflowed (at least 1), found by one test of the maps'
    sum, and one scan covers at most 2^K blocks for K finite doubling
    powers.  Members share L and that span when all of them agree on both;
    when any member's maps give another (they overflow), the plan holds
    one plan per member, ``alone``, in batch order.  No state or row of a
    block exceeds its largest operand (start or input) times
    ``state_gain``, the largest column sum of the block and row maps, and
    rounding adds at most a factor 1 + (n + L)u to that (N. Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 3.5).
    So an apply whose bound is below 1e300 computes states only for an end
    state inside its last block; any other tests each chunk's states and
    first row by their sum, and one by one only when that is not finite.
    """

    def __init__(self, m: np.ndarray, g: np.ndarray, h: np.ndarray, j: np.ndarray, longest: int) -> None:
        m = np.asarray(m, dtype=float)
        n, batch = m.shape[-1], m.shape[:-2]  # batch: () or (B,)
        g = np.asarray(g, dtype=float).reshape(*batch, n)
        j = np.asarray(j, dtype=float).reshape(*batch, -1)
        outputs = j.shape[-1]
        h = np.asarray(h, dtype=float).reshape(*batch, outputs, n)
        product = np.matmul if batch else np.dot  # np.dot calls cost less
        k = len(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.empty((_BLOCK + 1, *batch, n, n))  # m^0 .. m^16
            powers[0], powers[1] = np.eye(n), m
            for i in range(2, _BLOCK + 1):
                product(m, powers[i - 1], out=powers[i])
            markov = np.zeros((2 * _BLOCK, *batch, n))  # m^i g, then zeros
            markov[:_BLOCK] = (powers[:_BLOCK] @ g[..., None])[..., 0]
            # The first n rows carry z[b] to offset i as m^i z[b]; row n + l
            # feeds input w[b+l] to offsets i > l.
            block_map = np.concatenate([
                powers[:_BLOCK].transpose(*range(1, k + 1), k + 2, 0, k + 1).reshape(*batch, n, _BLOCK * n),
                markov[_LAGS].transpose(*range(2, k + 2), 0, 1, k + 2).reshape(*batch, _BLOCK, _BLOCK * n),
            ], axis=-2)
            row_map = block_map.reshape(*batch, n + _BLOCK, _BLOCK, n) @ h.swapaxes(-1, -2)[..., None, :, :]
            row_map[..., n + _OFFSETS, _OFFSETS, :] += j[..., None, :]  # input l at offset l
            size = sizes = _BLOCK
            if not np.isfinite(powers[1:].sum() + markov.sum() + row_map.sum()):
                # Offset i needs m^(i+1), m^i g and row map column i; a shorter
                # block's maps are the top-left corner of these.
                finite = np.all(np.isfinite(powers[1:]), axis=(-2, -1)) & np.all(np.isfinite(markov[:_BLOCK]), axis=-1)
                finite &= np.moveaxis(np.all(np.isfinite(row_map), axis=(-3, -1)), -1, 0)
                sizes = np.maximum(1, np.logical_and.accumulate(finite).sum(axis=0))
                size = int(sizes.min())

            # Block starts, a scan of up to ``span`` blocks at a time; shift 2^k
            # needs P_k for 2^k < len(ends).
            blocks = -(-longest // size)
            span = max(1, _SERIAL_PRODUCT // max(1, n * max(n, size)))
            depth = max(1, (min(blocks, span) - 1).bit_length())
            doubling = np.empty((depth, *powers[size].shape))  # M^(2^k)
            doubling[0] = powers[size]
            finite = _finite_chain(doubling)
            spans = np.minimum(span, 2 ** finite)
            span, finite = int(spans.min()), int(finite.min())
            # Members share the plan when they agree on L and span; else each
            # is planned alone.  A plan of one loop has no member axis.
            self.alone = [] if batch else None
            if batch and np.any((sizes != size) | (spans != span)):
                self.alone = [PropagationPlan(m[b], g[b], h[b], j[b], longest) for b in range(len(m))]
                return
            self.block_map = block_map[..., :n + size, :size * n]
            self.row_map = row_map[..., :n + size, :size, :].reshape(*self.block_map.shape[:-2], n + size, -1)
            self.state_gain = np.maximum(  # the largest column sum of both maps
                np.abs(self.block_map).sum(axis=-2).max(axis=-1, initial=0.0),
                np.abs(self.row_map).sum(axis=-2).max(axis=-1, initial=0.0),
            ).tolist()
            # Carries a block's inputs to its end: m^(L-1-l) g, read backwards.
            self.carry = np.moveaxis(markov[size - 1::-1], 0, -2)
            self.leap = doubling[0]
            self.transposed = doubling[:finite].swapaxes(-1, -2).copy()  # contiguous: faster products
            self.span = span
        self.n, self.size, self.outputs = n, size, outputs
        self.per_chunk = max(1, _SERIAL_PRODUCT // max(1, (n + size) * size * max(n, outputs)))

    def scan(self, w: np.ndarray, z0: np.ndarray | None = None) -> list:
        """The block starts of every member from the start state ``z0``
        (zero when None; one row per member for a stacked plan), one scan
        for all of them.  Returns one callable per member, in batch order,
        that forms that member's rows from its starts: see :meth:`apply`.
        Members share the block inputs, so only one member's rows and
        operands exist at a time."""
        if self.alone:
            return [plan.scan(w, None if z0 is None else z0[b])[0] for b, plan in enumerate(self.alone)]
        w = np.asarray(w, dtype=float)
        n, size, count = self.n, self.size, len(w)
        blocks, full = -(-count // size), count // size
        operands = np.zeros((blocks, n + size))  # a block's [start | inputs]
        inputs = operands[:, n:]
        inputs[:full] = w[:full * size].reshape(full, size)
        inputs[full:, :count - full * size] = w[full * size:]
        starts = np.empty((*self.leap.shape[:-2], blocks + 1, n))  # each member's z[b * L], b <= blocks
        starts[..., 0, :] = 0.0 if z0 is None else z0
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, blocks, self.span):
                ends = starts[..., first + 1:first + 1 + self.span, :]
                length = ends.shape[-2]
                np.matmul(inputs[first:first + length], self.carry, out=ends)
                ends[..., 0, :] += (self.leap @ starts[..., first, :, None])[..., 0]
                for k, power in enumerate(self.transposed[:(length - 1).bit_length()]):
                    ends[..., 2 ** k:, :] += ends[..., :-2 ** k, :] @ power
        if self.alone is None:
            return [partial(self._rows, None, operands, starts, count)]
        return [partial(self._rows, b, operands, starts[b], count) for b in range(len(starts))]

    def _rows(
        self, member: int | None, operands: np.ndarray, starts: np.ndarray, count: int,
    ) -> tuple[np.ndarray, int, np.ndarray | None]:
        """Rows, ``end`` and ``z_end`` of one member (None: the plan is one
        loop) from its block starts; ``operands`` holds the inputs."""
        maps = (self.block_map, self.row_map, self.state_gain)
        block_map, row_map, state_gain = maps if member is None else (a[member] for a in maps)
        n, size, blocks = self.n, self.size, len(operands)
        operands[:, :n] = starts[:blocks]
        rows = np.empty((blocks * size, self.outputs))
        with np.errstate(over="ignore", invalid="ignore"):
            bounded = max(operands.max(initial=0.0), -operands.min(initial=0.0)) * state_gain < 1e300
            last = (blocks - 1) // self.per_chunk * self.per_chunk  # the last chunk's first block
            for first in range(0, blocks, self.per_chunk):
                chunk = operands[first:first + self.per_chunk]
                chunk_rows = rows[first * size:(first + len(chunk)) * size]
                np.dot(chunk, row_map, out=chunk_rows.reshape(len(chunk), -1))
                if bounded and (first < last or not count % size):
                    continue
                states = np.dot(chunk, block_map).reshape(len(chunk_rows), n)
                if not bounded and not np.isfinite(states.sum() + chunk_rows[:, 0].sum()):
                    finite = np.all(np.isfinite(states), axis=1) & np.isfinite(chunk_rows[:, 0])
                    end = first * size + int(np.argmin(finite)) if not np.all(finite) else count
                    if end < count:
                        return rows[:end], end, None
            # The end state: inside the last block, or the last block start.
            start = states[count - last * size].copy() if count % size else starts[blocks]
            return rows[:count], count, start if np.all(np.isfinite(start)) else None

    def apply(self, w: np.ndarray, z0: np.ndarray | None = None):
        """:func:`propagate` from the start state ``z0`` (zero when None),
        returning also ``z_end``, the state after the last sample: None
        unless it is finite and ``end`` is ``len(w)``.  A non-finite input
        shows as non-finite samples from the start of its block.  A stacked
        plan returns a list of these (rows, end, z_end), one per member."""
        results = [member() for member in self.scan(w, z0)]
        return results if self.alone is not None else results[0]


def propagate(
    m: np.ndarray,
    g: np.ndarray,
    w: np.ndarray,
    h: np.ndarray,
    j: np.ndarray,
) -> tuple[np.ndarray, int]:
    """States of z[k+1] = m z[k] + g w[k] from z[0] = 0, for k < len(w).

    Returns ``(rows, end)``.  ``end`` is the index of the first sample
    whose state or first row is not finite, or ``len(w)`` when all are
    finite; ``rows[k]`` for k < end is the projection h z[k] + j w[k],
    with ``h`` p x n and ``j`` of length p.  The inputs must be finite.
    This is one :class:`PropagationPlan` applied from z0 = 0; a caller
    that runs the same maps over many stretches builds the plan once and
    starts each apply from the state the one before ended on.

    The recurrence is evaluated in blocks of L = ``_BLOCK`` steps (G.
    Blelloch, *Prefix sums and their applications*, 1990).  Within a block
    starting at b, z[b+i] = m^i z[b] + sum_{l<i} m^(i-1-l) g w[b+l], one
    matrix product for a chunk of blocks; that map projected through ``h``,
    plus ``j`` where input l meets offset l, writes their rows in one more.
    The block starts obey s[b+1] = M s[b] + c[b], with M = m^L and c[b] the
    block's inputs carried to its end.  A doubling scan (P. Kogge & H.
    Stone, IEEE Trans. Computers, 1973) solves that first-order recurrence
    for B blocks in ceil(log2 B) array steps, ends[2^k:] += ends[:-2^k]
    P_k^T with P_k = M^(2^k), so Python never steps once per block; the
    first start is z0.

    Only finite maps are used, so ``end`` is where the step-by-step
    recurrence meets its first non-finite sample (see
    :class:`PropagationPlan`).
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("propagate needs finite inputs")
    return PropagationPlan(m, g, h, j, len(w)).apply(w)[:2]


def simulate_lti(ss: StateSpaceModel, u: np.ndarray, cfg: SimConfig) -> TimeSeries:
    """Run a state-space model from zero initial state.

    ``u`` holds one finite input sample per step start (``cfg.steps + 1``),
    each held over its step.  The state advances by the exact hold map of
    :func:`zoh_step_matrices`, evaluated by :func:`propagate`.  Returns
    channels ``u`` and ``y``.  Raises :class:`SimulationDiverged` at the
    first sample whose state or output is not finite, with the finite
    prefix attached.
    """
    steps = cfg.steps
    t = np.arange(steps + 1) * cfg.dt
    u = np.array(u, dtype=float)
    if u.shape != t.shape:
        raise ValueError(f"expected {len(t)} input samples, got shape {u.shape}")
    m, nvec = zoh_step_matrices(ss, cfg.dt)
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
