"""Machine-speed gauge for normalising wall times.

The host the benchmark was written on (a 2-vCPU VM) changes speed by up
to 1.6x within minutes as other tenants load it, and its two vCPUs do not
always run at the same speed.  The gauge times a fixed pure-Python kernel,
unrelated to logtrig but of the same kind of work (float math through
``math``, small tuples, a heap), in the process that runs a pass, just
before and just after it.  A pass's wall time times ``REFERENCE_S`` over
the mean of the two readings is its time at the reference speed; see
perfbench/METRICS.md.
"""

from __future__ import annotations

import heapq
import math
import time

# A typical gauge reading on the machine the benchmark was written on
# (Intel Xeon VM, 2 vCPUs at 2.1 GHz, Python 3.11.7), so that reference
# seconds read close to wall seconds there.  Only the scale of the
# reported times depends on it.
REFERENCE_S = 0.036

_NODES = ((-0.906179845938664, 0.236926885056189),
          (-0.538469310105683, 0.478628670499366),
          (0.0, 0.568888888888889),
          (0.538469310105683, 0.478628670499366),
          (0.906179845938664, 0.236926885056189))


def _integrand(x: float, a: float) -> float:
    w = math.log(2.0 * math.cos(x))
    return x * x * math.cos(w / a) / (1.0 + math.exp(-abs(w)))


def _panel(a: float, lo: float, hi: float) -> float:
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return h * sum(wt * _integrand(c + h * t, a) for t, wt in _NODES)


def kernel() -> float:
    """Bisect the largest panel 300 times for each of 12 parameters."""
    total = 0.0
    for r in range(12):
        a = 0.3 + 0.1 * r
        heap = [(-1.0, 0.0, 1.5)]
        parts = []
        for _ in range(300):
            _, lo, hi = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            left, right = _panel(a, lo, mid), _panel(a, mid, hi)
            heapq.heappush(heap, (-abs(left), lo, mid))
            heapq.heappush(heap, (-abs(right), mid, hi))
            parts.append(left + right)
        total += math.fsum(parts)
    return total


def reading() -> float:
    """Seconds for one kernel run, the faster of two."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
