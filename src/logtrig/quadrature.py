"""Adaptive quadrature for integrands that mix x with log(2 cos x) type terms.

Two engines cooperate here:

* ``integrate_adaptive`` is a nested Gauss-Kronrod (7, 15) pair with
  bisection driven by the worst-panel error, the workhorse for smooth and
  mildly singular panels.
* ``integrate_endpoint_oscillatory`` handles the interval ends where
  log(2 cos x), log(2 sin x) or log(2 sin(x/2)) diverges.  Near such an end
  the substitution t = -log(...) maps the endpoint to t -> infinity, where
  the transformed integrand decays like exp(-t) while any trigonometric
  dependence on the log term becomes exactly periodic in t.  Whole periods
  then shrink by the known ratio exp(-period), so the tail is summed period
  by period and closed by its geometric remainder once that is accurate.
  The map is chosen once per integral and end, from ``map_kind`` and the
  end's name: each tail node costs one exp, one arc sine or cosine and one
  square root before the caller's integrand runs.

A fixed-rule tanh-sinh integrator is included as an independent route for
defining-integral oracles and endpoint-singular panels.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_endpoint_oscillatory",
    "tanh_sinh",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integration run plus its a-posteriori error bound."""

    value: float | complex
    error_estimate: float
    evaluations: int
    subdivisions: int

    def __post_init__(self):
        if self.error_estimate < 0 or self.evaluations < 1:
            raise ValueError("inconsistent quadrature result")


# 15-point Kronrod nodes with the embedded 7-point Gauss rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _qk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    # straight-line panel: pair sums s0..s6 from the outermost node in; each
    # rule adds the centre term first, then the pairs in that order
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    fc = f(c)
    s0 = f(c - h * x0) + f(c + h * x0)
    s1 = f(c - h * x1) + f(c + h * x1)
    s2 = f(c - h * x2) + f(c + h * x2)
    s3 = f(c - h * x3) + f(c + h * x3)
    s4 = f(c - h * x4) + f(c + h * x4)
    s5 = f(c - h * x5) + f(c + h * x5)
    s6 = f(c - h * x6) + f(c + h * x6)
    resk = (k7 * fc + k0 * s0 + k1 * s1 + k2 * s2 + k3 * s3 + k4 * s4
            + k5 * s5 + k6 * s6)
    resg = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
    return resk * h, abs((resk - resg) * h)


def _fsum(values: Iterable[float | complex]) -> float | complex:
    """math.fsum that also takes complex values, summing each part exactly."""
    values = list(values)
    if any(isinstance(v, complex) for v in values):
        return complex(math.fsum(v.real for v in values),
                       math.fsum(v.imag for v in values))
    return math.fsum(values)


def _initial_segments(a: float, b: float, points: Iterable[float]) -> list[tuple[float, float]]:
    cuts = sorted({p for p in points if a < p < b})
    edges = [a] + cuts + [b]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def integrate_adaptive(f: Callable[[float], float | complex], a: float, b: float,
                       tol: float = 1e-10, *, atol: float = 1e-14,
                       points: Sequence[float] = (),
                       limit: int = 4096) -> QuadratureResult:
    """Integrate f over [a, b] to relative tolerance ``tol`` (floor ``atol``).

    ``points`` lists interior abscissae where the integrand has known
    features (near-poles, jumps, boundary layers); they become panel
    boundaries so bisection can chase the feature from both sides.  A
    complex f is integrated in one pass; a panel's error is then the modulus
    of its complex Kronrod-Gauss difference.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    evaluations = 0
    subdivisions = 0
    heap: list[tuple[float, int, float, float, float, float]] = []
    frozen_vals: list[float] = []
    frozen_err = 0.0
    counter = 0
    total_val = 0.0
    total_err = 0.0
    for lo, hi in _initial_segments(a, b, points):
        val, err = _qk15(f, lo, hi)
        evaluations += 15
        counter += 1
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        total_val += val
        total_err += err
    while total_err > max(atol, tol * abs(total_val)):
        if not heap:
            break
        if len(heap) + len(frozen_vals) >= limit:
            raise AccuracyError(
                f"subdivision limit {limit} reached (err {total_err:.3e})",
                best=total_val, error_estimate=total_err, evaluations=evaluations)
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # panel narrower than float spacing; accept as is
            frozen_vals.append(val)
            frozen_err += err
            total_err = frozen_err + sum(e for (ne, c, l, h, v, e) in heap)
            continue
        v1, e1 = _qk15(f, lo, mid)
        v2, e2 = _qk15(f, mid, hi)
        evaluations += 30
        subdivisions += 1
        counter += 2
        heapq.heappush(heap, (-e1, counter - 1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
    vals = frozen_vals + [v for (_, _, _, _, v, _) in heap]
    errs = frozen_err + math.fsum(e for (_, _, _, _, _, e) in heap)
    value = _fsum(vals)
    if errs > max(atol, tol * abs(value)) * 1.001:
        raise AccuracyError(
            f"tolerance not reached (err {errs:.3e})",
            best=value, error_estimate=errs, evaluations=evaluations)
    return QuadratureResult(value, errs, evaluations, subdivisions)


def tanh_sinh(f: Callable[[float], float], a: float, b: float,
              eps: float = 1e-13, max_level: int = 12) -> QuadratureResult:
    """Tanh-sinh rule on [a, b]; robust for integrable endpoint singularities.

    Doubles the node density per level until two successive levels agree to
    ``eps`` relative.  Endpoint nodes that round onto a or b are skipped,
    their weights being negligible by then.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    half = 0.5 * (b - a)
    piover2 = 0.5 * math.pi
    evaluations = 0
    prev = None
    value = 0.0
    err = math.inf
    for level in range(3, max_level + 1):
        h = 0.5 ** level
        total = 0.0
        j = 0
        small = 0
        while True:
            u = j * h
            sh = piover2 * math.sinh(u)
            # distance of the node to its endpoint, free of cancellation:
            # 1 - tanh(sh) = 2 e^{-2 sh} / (1 + e^{-2 sh})
            e2 = math.exp(-2.0 * sh)
            delta = half * 2.0 * e2 / (1.0 + e2)
            w = piover2 * math.cosh(u) * 4.0 * e2 / (1.0 + e2) ** 2
            if delta <= 0.0 or w <= 0.0:
                break
            contrib = w * f(b - delta)
            evaluations += 1
            if j > 0:
                contrib += w * f(a + delta)
                evaluations += 1
            total += contrib
            if abs(contrib) <= 1e-18 * (abs(total) + 1e-300) and j * h > 3.0:
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
            j += 1
            if j * h > 7.0:
                break
        value = total * h * half
        if prev is not None:
            err = abs(value - prev)
            if err <= eps * max(1.0, abs(value)):
                return QuadratureResult(value, err, evaluations, level)
        prev = value
    raise AccuracyError("tanh-sinh did not converge", best=value,
                        error_estimate=err, evaluations=evaluations)


# ---------------------------------------------------------------------------
# endpoint substitution machinery


# map_kind -> (trig, c, arc, (offset, scale) at the lower end, at the upper
# end).  The log-trig value w = log(2 trig(c x)) diverges at each end, arc
# inverts trig next to it, and on that end's side w(x) = -t at
# x = offset + scale * arc(u) with u = exp(-t) / 2.
_MAPS = {
    "log-cos": (math.cos, 1.0, math.acos, (0.0, -1.0), (0.0, 1.0)),
    "log-sin": (math.sin, 1.0, math.asin, (0.0, 1.0), (math.pi, -1.0)),
    "log-sin-half": (math.sin, 0.5, math.asin, (0.0, 2.0), (2.0 * math.pi, -2.0)),
}


@dataclass(frozen=True)
class _EndpointMap:
    """The substitution w = -t at one interval end, chosen once per integral.

    Both the hot integrands and the cold cut mapping read this one
    definition; |dx/dt| = |scale| * u / sqrt(1 - u^2).
    """

    trig: Callable[[float], float]
    c: float
    arc: Callable[[float], float]
    offset: float
    scale: float

    @classmethod
    def at(cls, map_kind: str, end: str) -> "_EndpointMap":
        if map_kind not in _MAPS or end not in ("lower", "upper"):
            raise DomainError(f"unknown map kind or end: {map_kind!r}, {end!r}")
        trig, c, arc, lower, upper = _MAPS[map_kind]
        return cls(trig, c, arc, *(lower if end == "lower" else upper))

    def x(self, t: float) -> float:
        """Abscissa at which the log-trig value equals -t."""
        return self.offset + self.scale * self.arc(0.5 * math.exp(-t))

    def interior(self, f: Callable[[float, float], float | complex]
                 ) -> Callable[[float], float | complex]:
        """x -> f(x, w(x)), for the panel away from the ends."""
        trig, c, log = self.trig, self.c, math.log
        return lambda x: f(x, log(2.0 * trig(c * x)))

    def tail(self, f: Callable[[float, float], float | complex]
             ) -> Callable[[float], float | complex]:
        """t -> f(x(t), -t) |dx/dt|, the integrand of the transformed tail."""
        arc, offset, scale = self.arc, self.offset, self.scale
        half = 0.5 * abs(scale)
        exp, sqrt = math.exp, math.sqrt

        def g(t: float) -> float | complex:
            e = exp(-t)
            u = 0.5 * e
            # e * half is exact, so the measure rounds once
            return f(offset + scale * arc(u), -t) * (e * half / sqrt(1.0 - u * u))

        return g


def _tail_split(period: float | None) -> float:
    """t at which integration switches from x-space to the transformed tail.

    One full oscillation period into the tail, floored so the interior
    keeps a little slowly-varying room and capped so the split abscissa
    stays representable away from the interval end.
    """
    if period is None or period <= 0.0:
        return 2.0
    return max(2.0, min(period, 30.0))


def _feature_cuts(lo: float, hi: float, quarter: float | None,
                  tail_points: Callable[[float, float], Sequence[float]] | None
                  ) -> list[float]:
    """t-positions in (lo, hi) where panels are cut: the quarter-period
    lattice, where tan poles and cos = -1 pinch points sit, plus the
    caller's narrow features (``tail_points``)."""
    cuts: list[float] = []
    if quarter is not None:
        j = math.floor(lo / quarter) + 1
        while j * quarter < hi:
            cuts.append(j * quarter)
            j += 1
    if tail_points is not None:
        cuts.extend(tail_points(lo, hi))
    return cuts


def integrate_endpoint_oscillatory(
        f: Callable[[float, float], float | complex], a: float, b: float,
        map_kind: str, ends: Sequence[str], period: float | None = None,
        tol: float = 1e-9, *, atol: float = 1e-11,
        points: Sequence[float] = (), t_max: float = 60.0,
        tail_points: Callable[[float, float], Sequence[float]] | None = None
        ) -> QuadratureResult:
    """Integrate f(x, w) over [a, b], w being the ``map_kind`` log-trig value.

    The interior panel evaluates w directly from x.  Near each of ``ends``
    ("lower", "upper") the integral continues in t = -w, so the integrand
    receives the exact pair (x(t), -t); one chunk spans one ``period`` (a
    step of 2 when it is None: a tail that decays without oscillating).
    Whole chunks shrink by r = exp(-step) up to the slow variation of f over
    a period, so the tail stops at the first whole chunk n >= 1 whose bound
    2 d_n r / (1 - r)^2, d_n = |S_n - r S_(n-1)|, plus its own estimate is
    below tolerance, and closes with the remainder S_n r / (1 - r).  A tail
    that reaches ``t_max`` first raises AccuracyError unless its last chunk
    times r / (1 - r) is below tolerance.  A complex f takes one pass.

    Log-periodic features are cut on both sides of the split point: the
    quarter-period lattice in t and the t-positions from ``tail_points``
    become panel boundaries of every tail chunk and, mapped through x(t),
    of the interior panel.  ``points`` adds features fixed in x.
    """
    if not ends or len(set(ends)) != len(ends):
        raise DomainError(f"need distinct interval ends, got {ends!r}")
    maps = [_EndpointMap.at(map_kind, end) for end in ends]
    quarter = period / 4.0 if period is not None else None
    t_split = _tail_split(period)
    t_cuts = _feature_cuts(0.0, t_split, quarter, tail_points)

    evaluations = 0
    subdivisions = 0
    pieces: list[float | complex] = []
    err_total = 0.0

    # the interior stops at each end's split point and gets that end's
    # log-periodic cuts below the split
    x_lo, x_hi = a, b
    x_cuts = list(points)
    for end, emap in zip(ends, maps):
        if end == "lower":
            x_lo = max(x_lo, emap.x(t_split))
        else:
            x_hi = min(x_hi, emap.x(t_split))
        x_cuts += [emap.x(t) for t in t_cuts]

    if x_hi > x_lo:
        # w(x) depends only on map_kind, so either end's map serves
        interior = integrate_adaptive(
            maps[-1].interior(f), x_lo, x_hi,
            tol=0.4 * tol, atol=0.4 * atol,
            points=[p for p in x_cuts if x_lo < p < x_hi], limit=8192)
        pieces.append(interior.value)
        err_total += interior.error_estimate
        evaluations += interior.evaluations
        subdivisions += interior.subdivisions

    chunk_tol = max(0.2 * tol, 1e-13)
    chunk_atol = max(0.05 * atol, 1e-17)
    step = period if period is not None else 2.0
    r = math.exp(-step)
    tail_gain = r / (1.0 - r)          # r + r^2 + ...: all later periods
    for emap in maps:
        g = emap.tail(f)
        t = t_split
        running = _fsum(pieces)
        previous = None
        while True:
            t_next = min(t + step, t_max)
            cuts = _feature_cuts(t, t_next, quarter, tail_points)
            res = integrate_adaptive(g, t, t_next, tol=chunk_tol,
                                     atol=chunk_atol, points=cuts, limit=4096)
            pieces.append(res.value)
            err_total += res.error_estimate
            evaluations += res.evaluations
            subdivisions += res.subdivisions
            running += res.value
            if previous is not None and t_next == t + step:
                # twice the remainder's error when f varies linearly in t
                bound = 2.0 * abs(res.value - r * previous) * tail_gain / (1.0 - r)
                stop_at = max(0.25 * atol, 0.25 * tol * abs(running), 1e-16)
                if bound + res.error_estimate <= stop_at:
                    pieces.append(res.value * tail_gain)
                    err_total += bound + res.error_estimate * tail_gain
                    break
            if t_next >= t_max:
                truncation = abs(res.value) * tail_gain
                if truncation > max(atol, tol * abs(running)):
                    raise AccuracyError("oscillatory tail did not settle",
                                        best=running, error_estimate=truncation,
                                        evaluations=evaluations)
                err_total += truncation
                break
            previous = res.value
            t = t_next

    value = _fsum(pieces)
    return QuadratureResult(value, err_total, evaluations, subdivisions)
