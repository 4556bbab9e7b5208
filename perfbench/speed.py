"""Host speed reference: times a fixed piece of work to scale wall times.

On a shared host the speed of a core changes with what the other tenants
run, for stretches of seconds to a minute, and a whole run can fall inside
a slow stretch.  The benchmark therefore times, next to every measured
sample, a fixed reference chunk of the same kind of work as pfltank's hot
path (interpreted float arithmetic, small numpy arrays and linear solves,
float formatting) and reports the sample scaled to the speed at which the
chunk takes ``REFERENCE_S``::

    reported = measured * REFERENCE_S / (mean time of the chunks around it)

A change to pfltank moves the measured time and not the chunks, so it moves
the reported figure in proportion; a slow stretch of the host moves both,
and cancels.  The chunk does not depend on pfltank and must not change
between the commits whose figures are compared.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one chunk takes at the reference speed: a 2.1 GHz Xeon vCPU when
#: no other tenant contends for its core.  Reported times are in seconds at
#: that speed.
REFERENCE_S = 0.020
#: Loop trips in one chunk.
_TRIPS = 2200


def _chunk() -> int:
    lam = np.array([[2.0, 0.3], [0.3, 1.5]])
    v = np.array([0.1, -0.2])
    energy = 0.0
    parts = []
    for i in range(_TRIPS):
        v = np.linalg.solve(lam, v + 0.01) * 0.999
        energy = 0.5 * float(v @ lam @ v) + 1e-3 * (i % 7)
        if energy > 1.0:
            energy = 1.0 - energy
        parts.append(f"{energy:.17g}")
    return len(",".join(parts))


def sample(chunks: int) -> list[float]:
    """Wall times of ``chunks`` reference chunks run back to back."""
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - t0)
    return times


def slowdown(chunk_times) -> float:
    """How much slower than the reference speed the host ran the chunks."""
    return statistics.fmean(chunk_times) / REFERENCE_S
