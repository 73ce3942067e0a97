"""Host-speed probes for normalising pass and set-up times.

The CPU speed of a shared virtual host drifts: on the two-vCPU Intel Xeon
virtual machine this benchmark was written on, the same pure-Python loop
took anywhere from 10.5 to 16.5 ms over a few minutes, with stalls of
twice that, and a pass's host seconds moved by up to 1.6x between runs of
identical inputs.  Dividing each job's time by the time of a fixed probe,
run just before and after it, cancels about half of that drift, because
the probe slows down with the host much as the job does.

The probe mimics the simulator's inner loop: Python function calls and
float arithmetic, a frozen-dataclass ``replace`` per step, a small dense
matrix-vector product and a finiteness test, and text formatting as in the
CSV writer.  It is fixed benchmark code; nothing in ``rollsim`` changes
its duration.  Set-up times are scaled the same way by a second probe,
``IMPORT_PROBE``, below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

# Probe seconds at the reference speed.  A normalised time is the job's
# host seconds times REFERENCE_PROBE_S / (probe seconds next to the job),
# i.e. the seconds the job would take on a host where the probe takes
# this long.  The probe took 23 to 30 ms on the host named above outside
# its brief stalls, so normalised times stay close to its host seconds.
REFERENCE_PROBE_S = 0.025

_STEPS = 2000


@dataclass(frozen=True)
class _State:
    integral: float = 0.0
    prev: float = 0.0


def _step(state: _State, error: float, dt: float) -> tuple[float, _State]:
    integral = state.integral + 0.5 * (error + state.prev) * dt
    return 2.0 * error + 0.5 * integral, replace(state, integral=integral, prev=error)


def probe() -> float:
    """Seconds the fixed probe takes now."""
    m = np.eye(8) * 0.999
    x = np.zeros(8)
    state = _State()
    lines = []
    start = time.perf_counter()
    for k in range(_STEPS):
        y = float(x[0])
        u, state = _step(state, math.sin(0.001 * k) - y, 0.001)
        x = m @ x + 0.001 * u
        if not np.all(np.isfinite(x)):
            raise ArithmeticError("probe state left the finite range")
        lines.append(f"{k * 0.001:.12g},{y:.12g},{u:.12g}")
    return time.perf_counter() - start


# Set-up is process start and imports, which track the CPU probe poorly,
# so set-up times are scaled by a fresh interpreter that imports numpy and
# PyYAML and prints the system monotonic clock; at the reference speed that
# takes REFERENCE_IMPORT_S, about what it took on the host named above.
IMPORT_PROBE = "import time, numpy, yaml; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
REFERENCE_IMPORT_S = 0.14


def normalise(
    seconds: float, probe_before: float, probe_after: float, reference: float = REFERENCE_PROBE_S
) -> float:
    """``seconds`` measured between two probes, scaled to the reference speed."""
    return seconds * reference / (0.5 * (probe_before + probe_after))
