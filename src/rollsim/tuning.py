"""PID gain search over simulated loop cost.

Cost is an integral performance index (ITAE, ISE, or IAE) of the tracking
error over the simulation horizon; runs that diverge are charged a large
finite penalty so unstable regions of the gain box do not abort a search.
The penalty is also the ceiling of every cost: a run that grows without
diverging inside the horizon can integrate to more, or overflow, and is
charged no more than one that diverges.
Two deterministic methods are provided: exhaustive grid search and a
bounded Nelder-Mead simplex with fixed coefficients.  Determinism is a
hard requirement here; identical specs must reproduce identical
evaluation histories, so there is no stochastic restart or adaptive
scaling anywhere.
"""

from __future__ import annotations

import copy
import itertools
from contextlib import suppress
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from .loops import LoopFrame, LoopSpec, simulate_loop
from .pid import PidGains

__all__ = [
    "CostKind",
    "DIVERGENCE_PENALTY",
    "TuneMethod",
    "TuneResult",
    "TuneSpec",
    "loop_cost",
    "tune_pid",
]

DIVERGENCE_PENALTY = 1e12


class CostKind(str, Enum):
    ITAE = "itae"   # integral of time-weighted absolute error
    ISE = "ise"     # integral of squared error
    IAE = "iae"     # integral of absolute error


class TuneMethod(str, Enum):
    NELDER_MEAD = "nelder_mead"
    GRID = "grid"


def loop_cost(spec: LoopSpec, cost_kind: CostKind = CostKind.ITAE, frame: LoopFrame | None = None) -> float:
    """Simulate the loop (through ``frame`` when given) and integrate its tracking error.

    The error used is setpoint minus true output, matching how response
    metrics are scored, so the run's ``t``, ``setpoint`` and ``y_true``
    are all it reads: a frame that forms only ``y_true`` (see
    :class:`~rollsim.loops.LoopFrame`) gives the same cost.  A diverged
    run returns ``DIVERGENCE_PENALTY``, which also caps the cost of any
    other run.
    """
    result = simulate_loop(spec, frame)
    if result.diverged:
        return DIVERGENCE_PENALTY
    t = result.series.t
    e = np.abs(result.series["setpoint"] - result.series["y_true"])
    dt = spec.sim.dt
    weight = {CostKind.ITAE: t, CostKind.ISE: e, CostKind.IAE: 1.0}[CostKind(cost_kind)]
    with np.errstate(over="ignore"):  # a growing run may overflow: it pays the ceiling
        cost = float(np.sum(weight * e) * dt)
    return cost if cost < DIVERGENCE_PENALTY else DIVERGENCE_PENALTY


@dataclass(frozen=True)
class TuneSpec:
    """Search definition over (kp, ki, kd).

    ``loop`` is the template; candidate triples replace its gains while
    keeping the derivative filter and saturation settings.  A bound pair
    with lo == hi pins that gain.  ``initial`` supplies the starting
    triple (projected onto the bounds box) and is always evaluated, so the
    incumbent can never be lost.
    """

    loop: LoopSpec
    cost_kind: CostKind = CostKind.ITAE
    kp_bounds: tuple[float, float] = (0.0, 10.0)
    ki_bounds: tuple[float, float] = (0.0, 0.0)
    kd_bounds: tuple[float, float] = (0.0, 0.0)
    initial: PidGains = field(default_factory=PidGains)
    method: TuneMethod = TuneMethod.NELDER_MEAD
    grid_points: int = 5
    max_evals: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost_kind", CostKind(self.cost_kind))
        object.__setattr__(self, "method", TuneMethod(self.method))
        for name in ("kp_bounds", "ki_bounds", "kd_bounds"):
            lo, hi = getattr(self, name)
            if not np.isfinite([lo, hi]).all():
                raise ValueError(f"{name} must be finite: [{lo}, {hi}]")
            if lo < 0:
                raise ValueError(f"{name} lower bound must be >= 0")
            if lo > hi:
                raise ValueError(f"{name} is an empty interval: {lo} > {hi}")
        if self.grid_points < 1:
            raise ValueError("grid_points must be >= 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return (self.kp_bounds, self.ki_bounds, self.kd_bounds)


@dataclass
class TuneResult:
    best_gains: PidGains
    best_cost: float
    evals: int
    history: list[tuple[PidGains, float]]


def _project(triple: tuple[float, float, float], bounds) -> tuple[float, float, float]:
    return tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(triple, bounds))


def _with_gains(spec: TuneSpec, triple: tuple[float, float, float]) -> LoopSpec:
    """``replace(spec.loop, gains=...)`` without re-running ``LoopSpec``'s
    setpoint check: the template passed it, and its setpoint and horizon
    are every candidate's.  ``PidGains`` still checks each triple."""
    gains = replace(spec.loop.gains, kp=triple[0], ki=triple[1], kd=triple[2])
    loop = copy.copy(spec.loop)
    object.__setattr__(loop, "gains", gains)
    return loop


def _grid_axis(lo: float, hi: float, points: int, count: int) -> list[float]:
    """The first ``count`` distinct values, in order, of one gain's grid
    axis of ``points`` values: geometric when the interval is strictly
    positive (gains act as scale parameters, so decades matter), linear
    when it starts at zero.

    The values are those ``np.geomspace``/``np.linspace`` give, formed the
    same way, but only as many as needed are built: ``points`` may be far
    larger than the evaluation budget.
    """
    if lo == hi or points == 1:
        return [lo]
    geometric = lo > 0
    start, stop = (np.log10(lo), np.log10(hi)) if geometric else (lo, hi)
    delta = np.subtract(stop, start)
    step = delta / (points - 1)

    def at(index: np.ndarray) -> np.ndarray:
        """Values at the given indices, before the endpoints are pinned."""
        axis = np.asarray(index, dtype=float)
        # linspace scales by delta directly when the step underflows to zero.
        axis = axis / (points - 1) * delta if step == 0 else axis * step
        axis += start
        return np.power(10.0, axis) if geometric else axis

    axis = at(np.arange(min(points, count)))
    axis[0] = lo
    if len(axis) == points:
        axis[-1] = hi
    values = list(dict.fromkeys(axis.tolist()))
    # An interval narrow for its point count repeats values, so the prefix
    # holds fewer distinct ones than needed.  The values between the pinned
    # endpoints are monotone in the index: bisect to the end of each run.
    index = len(axis)
    while len(values) < count and index < points - 1:
        value = at([index])[0]
        if value not in values:
            values.append(float(value))
        low, high = index, points - 1
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if at([mid])[0] == value else (low, mid)
        index = high
    if len(values) < count and index == points - 1 and hi not in values:
        values.append(hi)
    return values


class _BudgetSpent(Exception):
    """An evaluation was asked for after ``max_evals``: the search ends."""


def tune_pid(spec: TuneSpec, cost_fn: Callable[[LoopSpec, CostKind], float] | None = None) -> TuneResult:
    """Minimize the loop cost over the bounds box.

    Grid: the projected initial triple plus an exhaustive lattice of
    ``grid_points`` per free gain (geometric spacing on strictly positive
    intervals, linear otherwise), evaluated in (kp, ki, kd) lexicographic
    order.  Nelder-Mead: deterministic simplex from the projected initial
    with coefficients (1, 2, 0.5, 0.5) for reflection, expansion,
    contraction, and shrink, every candidate clipped to the box.  Both
    stop at ``max_evals``; Nelder-Mead also stops once the simplex spread
    drops below 1e-8.  Cost ties are broken toward the lexicographically
    lowest (kp, ki, kd).

    ``cost_fn`` is injectable for testing; the default is :func:`loop_cost`
    through one :class:`~rollsim.loops.LoopFrame`, as candidates differ in
    gains only, and the frame forms only the ``y_true`` row the cost reads.
    Candidates known together (the grid's lattice prefix, Nelder-Mead's
    initial simplex and each shrink) are scanned as one batch by
    :meth:`~rollsim.loops.LoopFrame.batches` before each is costed in turn,
    whatever ``cost_fn``.
    """
    bounds = spec.bounds
    frame = LoopFrame(spec.loop, ("y_true",))
    cost_fn = cost_fn or partial(loop_cost, frame=frame)
    history: list[tuple[PidGains, float]] = []

    def evaluate(triples: list[tuple[float, float, float]]) -> list[float]:
        """The costs of ``triples``, in order; past ``max_evals`` the search ends."""
        loops = [_with_gains(spec, triple) for triple in triples[:spec.max_evals - len(history)]]
        costs = []
        for run in frame.batches(loops):
            for loop in run:
                costs.append(cost_fn(loop, spec.cost_kind))
                history.append((loop.gains, costs[-1]))
        if len(loops) < len(triples):
            raise _BudgetSpent
        return costs

    start = _project((spec.initial.kp, spec.initial.ki, spec.initial.kd), bounds)

    with suppress(_BudgetSpent):
        if spec.method is TuneMethod.GRID:
            # Axis values are distinct, so only the start point can repeat, and
            # the max_evals points that can be needed use no axis value past
            # the max_evals-th: the full lattice can be far larger than the budget.
            axes = [_grid_axis(lo, hi, spec.grid_points, spec.max_evals) for lo, hi in bounds]
            lattice = (point for point in itertools.product(*axes) if point != start)
            evaluate(list(itertools.islice(itertools.chain([start], lattice), spec.max_evals)))
        else:
            _nelder_mead(evaluate, start, bounds)

    best_gains, best_cost = min(
        history, key=lambda item: (item[1], item[0].kp, item[0].ki, item[0].kd)
    )
    return TuneResult(
        best_gains=best_gains, best_cost=best_cost, evals=len(history), history=history
    )


_SPREAD_TOL = 1e-8  # simplex spread at which Nelder-Mead stops


def _nelder_mead(evaluate, start: tuple[float, float, float], bounds) -> None:
    """Bounded Nelder-Mead on the free gain dimensions; it runs until the
    simplex spread drops below ``_SPREAD_TOL`` or ``evaluate``, which costs
    a list of triples at once, raises."""
    free = [i for i, (lo, hi) in enumerate(bounds) if lo < hi]
    full = list(start)

    def assemble(xf: np.ndarray) -> tuple[float, float, float]:
        triple = list(full)
        for j, i in enumerate(free):
            lo, hi = bounds[i]
            triple[i] = min(max(float(xf[j]), lo), hi)
        return tuple(triple)

    def f(*vertices: np.ndarray) -> list[float]:
        return evaluate([assemble(xf) for xf in vertices])

    if not free:
        evaluate([tuple(full)])
        return

    dim = len(free)
    x0 = np.array([start[i] for i in free])
    simplex = [x0]
    for j, i in enumerate(free):
        lo, hi = bounds[i]
        step = 0.05 * (hi - lo)
        vertex = x0.copy()
        vertex[j] = min(vertex[j] + step, hi)
        if vertex[j] == x0[j]:  # started at the upper bound, step inward
            vertex[j] = max(x0[j] - step, lo)
        simplex.append(vertex)

    values = f(*simplex)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    while True:
        order = sorted(range(dim + 1), key=lambda i: (values[i], tuple(simplex[i])))
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        spread = max(float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:])
        if spread < _SPREAD_TOL:
            return

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]

        reflected = centroid + alpha * (centroid - worst)
        fr, = f(reflected)
        if fr < values[0]:
            expanded = centroid + gamma * (centroid - worst)
            fe, = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        contracted = centroid + rho * (worst - centroid)
        fc, = f(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        # Shrink toward the best vertex.
        simplex[1:] = [simplex[0] + sigma * (vertex - simplex[0]) for vertex in simplex[1:]]
        values[1:] = f(*simplex[1:])
