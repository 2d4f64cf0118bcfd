"""Adaptive quadrature for integrands that mix x with log(2 cos x) type terms.

Two engines cooperate here:

* ``integrate_adaptive`` is a nested Gauss-Kronrod (7, 15) pair with
  bisection driven by the worst-panel error, the workhorse for smooth and
  mildly singular panels.
* ``integrate_endpoint_oscillatory`` integrates the one integral to which
  the catalog brings every path: f(y, w) over (0, pi/2], w = log(2 sin y),
  which diverges at y = 0 alone.  Toward that end it continues in t = -w,
  where the integrand decays like exp(-t) and any trigonometric dependence
  on w is exactly periodic.  It sums that tail in chunks of whole periods,
  as QUADPACK's QAWF sums cycle by cycle, closes it by its geometric
  remainder, and subtracts from each chunk the poles that the caller
  declares next to the path ("subtracting out the singularity": Davis &
  Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984).
"""

from __future__ import annotations

import cmath
import heapq
import math
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import AccuracyError, DomainError

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "integrate_endpoint_oscillatory",
]


# the fields; a NamedTuple body cannot define the checking __new__
class _QuadratureFields(NamedTuple):
    value: float | complex
    error_estimate: float
    evaluations: int
    subdivisions: int


class QuadratureResult(_QuadratureFields):
    """Value of an integration run plus its a-posteriori error bound."""

    __slots__ = ()

    def __new__(cls, value, error_estimate, evaluations, subdivisions):
        if error_estimate < 0 or evaluations < 1:
            raise ValueError("inconsistent quadrature result")
        return tuple.__new__(cls, (value, error_estimate, evaluations, subdivisions))

    @classmethod
    def _make(cls, iterable):  # _replace copies through here: check copies too
        return cls(*iterable)


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

# the rule's nodes and weights, bound once rather than unpacked per panel
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK[:7]
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG


def _qk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    # straight-line panel: pair sums s0..s6 from the outermost node in; each
    # rule adds the centre term first, then the pairs in that order
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    s0 = f(c - h * _X0) + f(c + h * _X0)
    s1 = f(c - h * _X1) + f(c + h * _X1)
    s2 = f(c - h * _X2) + f(c + h * _X2)
    s3 = f(c - h * _X3) + f(c + h * _X3)
    s4 = f(c - h * _X4) + f(c + h * _X4)
    s5 = f(c - h * _X5) + f(c + h * _X5)
    s6 = f(c - h * _X6) + f(c + h * _X6)
    resk = (_K7 * fc + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4
            + _K5 * s5 + _K6 * s6)
    resg = _G3 * fc + _G0 * s1 + _G1 * s3 + _G2 * s5
    return resk * h, abs((resk - resg) * h)


def _fsum(values: Iterable[float | complex]) -> float | complex:
    """math.fsum that also takes complex values, summing each part exactly."""
    values = list(values)
    if any(isinstance(v, complex) for v in values):
        return complex(math.fsum(v.real for v in values),
                       math.fsum(v.imag for v in values))
    return math.fsum(values)


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
    # panels are disjoint, so lo breaks every tie of the error
    heap: list[tuple[float, float, float, float | complex, float]] = []
    frozen_vals: list[float] = []
    frozen_err = 0.0
    total_val = 0.0
    total_err = 0.0
    edges = [a, *sorted({p for p in points if a < p < b}), b]
    for lo, hi in zip(edges, edges[1:]):
        val, err = _qk15(f, lo, hi)
        evaluations += 15
        heap.append((-err, lo, hi, val, err))
        total_val += val
        total_err += err
    heapq.heapify(heap)
    while total_err > max(atol, tol * abs(total_val)):
        if not heap:
            break
        if len(heap) + len(frozen_vals) >= limit:
            raise AccuracyError(
                f"subdivision limit {limit} reached (err {total_err:.3e})",
                best=total_val, error_estimate=total_err, evaluations=evaluations)
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # panel narrower than float spacing; accept as is
            frozen_vals.append(val)
            frozen_err += err
            total_err = frozen_err + math.fsum(e for (_, _, _, _, e) in heap)
            continue
        v1, e1 = _qk15(f, lo, mid)
        v2, e2 = _qk15(f, mid, hi)
        evaluations += 30
        subdivisions += 1
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
    vals = frozen_vals + [v for (_, _, _, v, _) in heap]
    errs = frozen_err + math.fsum(e for (_, _, _, _, e) in heap)
    value = _fsum(vals)
    if errs > max(atol, tol * abs(value)) * 1.001:
        raise AccuracyError(
            f"tolerance not reached (err {errs:.3e})",
            best=value, error_estimate=errs, evaluations=evaluations)
    return QuadratureResult(value, errs, evaluations, subdivisions)


# ---------------------------------------------------------------------------
# endpoint substitution machinery


# The one substitution: w = log(2 sin y) equals -t at y(t) = asin(e^{-t}/2),
# where |dy/dt| = u / sqrt(1 - u^2), u = e^{-t}/2.  The cold cut mapping
# calls _y; the hot tail integrand writes it inline.
def _y(t: float) -> float:
    """The y at which log(2 sin y) = -t."""
    return math.asin(0.5 * math.exp(-t))


def _tail(g: Callable[[float, float], float | complex]
          ) -> Callable[[float], float | complex]:
    """t -> g(y(t), -t) |dy/dt|, the integrand of the transformed tail."""
    asin, exp, sqrt = math.asin, math.exp, math.sqrt

    def h(t: float) -> float | complex:
        e = exp(-t)
        u = 0.5 * e
        # e * 0.5 is exact, so the measure rounds once
        return g(asin(u), -t) * (e * 0.5 / sqrt(1.0 - u * u))

    return h


# t = -w at which the transformed tail starts, and the largest t it reaches.
_T_SPLIT = 2.0
_T_MAX = 60.0
# Shortest chunk of a periodic tail: a chunk spans the fewest whole periods
# that reach this far in t, so r = exp(-step) <= e^{-0.5} and the close's
# bound factor r / (1 - r)^2 stays below about 4; it grows like 1/step^2, so
# one-period chunks took DISC-P3/P4 over 30 seeded alphas in [0.002, 0.02]
# 150,840 evaluations instead of 38,940.  Default-sweep / offgrid-alpha
# (seed 1) evaluations at a shortest chunk of 0.25, 0.5 and 1: 50,415 /
# 133,230, 50,355 / 132,945 and 50,610 / 133,305.
_MIN_STEP = 0.5
# Shortest period whose tail chunks are cut at the kernel's pinch points on
# the quarter-period lattice; shorter chunks are cut only at their
# whole-period edges, and bisection finds the rest for fewer evaluations.
# Default-sweep / offgrid-alpha (seed 1) evaluations with the lattice
# dropped below a period of 1.5, 2, 2.5, 3 and 3.5 in every case: 51,210 /
# 134,865, 50,280 / 134,055, 50,355 / 132,945, 50,445 / 132,675 and 50,340
# / 133,005; 51,855 / 143,490 with the lattice at every period and 50,205 /
# 132,525 with none.  The tight sweep (rtol 1e-10) takes 74,460 at 2.5 and
# 76,140 with none, the loose one (rtol 1e-6) 36,240 and 35,070.  Without
# it the rows of ``test_pinch_lattice_keeps_long_period_estimates_honest``
# miss their estimates.
_LATTICE_PERIOD = 2.5
# t-positions at which a tail that starts at _T_SPLIT also cuts the
# interior panel: about one e-fold apart in distance to the singular end,
# all above the turning point t = -ln 2, so bisection need not grade toward
# the log singularity itself.  Default-sweep / offgrid-alpha (seed 1)
# evaluations with cuts at t = (1, 0): 51,060 / 133,500; (1, 0, -0.5):
# 50,355 / 132,945; (1, 0, -0.6): 50,175 / 133,155; (1.2, 0.4, -0.4):
# 50,415 / 132,195; (1.5, 1, 0.5, 0, -0.5): 52,275 / 137,775; (0.5):
# 55,425 / 145,755; with none, 59,550 / 154,830.
_INTERIOR_GRADING = (1.0, 0.0, -0.5)
# The t of y = pi/2, where 2 sin y peaks at 2: no cut lies beyond it.
_T_TOP = -math.log(2.0)
# The split of one integral's budget, the absolute ``tolerance`` that its
# caller states.  The engine asks itself for _QUADRATURE_SHARE (0.1) of it
# as its absolute tolerance (floor 5e-15), with a relative one of 5e-13; of
# that request the interior panel takes 0.4, each tail chunk 0.2 (1e-13
# relative, where a chunk's panels reach their rounding floor), and a tail
# closes once its bound plus its last chunk's estimate is below 0.25 of it.
# Every part is charged to that one number, as in QUADPACK's QAWF, and not
# to its own value, which the tails' cancellation can leave far below the
# total; asked relative to each part, an earlier engine took 76,080 /
# 186,255 default-sweep / offgrid-alpha (seed 1) evaluations instead of
# 70,440 / 170,355.  Here, at a share of 0.1, 0.15 and 0.2: 50,355 /
# 132,945, 48,855 / 128,625 and 47,940 / 125,850.  The share stays 0.1 for
# the decay-only tails with a kernel feature at t = |a| (ROADMAP item 3):
# at 0.2 seeded scans fail DISC-P1 at a = 13.95 (rtol 1e-8, error 1.4e-6
# against an estimate of 7.5e-12), and INTRO-1 at a = -11.72 (rtol 1e-6)
# and APPA at (theta, a) = (-1.4725, -24.53) miss their estimates.  The
# reported estimate also carries the last chunk's estimate times r / (1 -
# r), which the stop test does not count; over those two sweeps it reached
# at most 0.65 and 0.81 times the request, and ``verify_case`` still holds
# the total to the row tolerance.
_QUADRATURE_SHARE, _ABS_FLOOR, _REL_FLOOR = 0.1, 5e-15, 5e-13
_INTERIOR_SHARE, _CHUNK_SHARE, _CLOSE_SHARE = 0.4, 0.2, 0.25


def _feature_cuts(lo: float, hi: float, quarter: float | None,
                  pinches: Sequence[int]) -> list[float]:
    """t-positions j * quarter in (lo, hi) whose j mod 4 is one of
    ``pinches``, the quarter-period points where the kernel pinches the
    path; none when ``quarter`` is None, as it is for a period below
    ``_LATTICE_PERIOD``."""
    cuts: list[float] = []
    if quarter is not None:
        j = math.floor(lo / quarter) + 1
        while j * quarter < hi:
            if j % 4 in pinches:
                cuts.append(j * quarter)
            j += 1
    return cuts


def _pole(c: float, rho: complex) -> tuple[float, complex, complex]:
    """The (c, d, R) of ``_tail_chunk`` for a pole of f declared as (c, rho),
    f ~ i rho / (z + c) at z = w + i y = -c.  On the tail z(t) = -t + i y(t)
    has dz/dt = -1 - i m, m = |dy/dt| = u / sqrt(1 - u^2), u = e^{-t}/2, so
    g = f(y(t), -t) m has its pole at t = c + d, d = i y(c + d), with residue
    i rho m / (dz/dt) = rho m / (i - m).  Newton's method on d - i asin(u)
    (derivative 1 + i m) settles d from 0 in six steps for c >= 0.05."""
    e, d = 0.5 * math.exp(-c), 0j
    for _ in range(7):     # m is taken at the settled d
        u = e * cmath.exp(-d)
        m = u / cmath.sqrt(1.0 - u * u)
        d -= (d - 1j * cmath.asin(u)) / (1.0 + 1j * m)
    return c, d, rho * m / (1j - m)


def _tail_chunk(g: Callable[[float], float | complex], lo: float, hi: float,
                cuts: list[float], poles: Sequence[tuple[float, complex]],
                tol: float, atol: float) -> QuadratureResult:
    """g over the chunk [lo, hi], cut at ``cuts``, in one adaptive call.
    ``_pole`` maps each of ``poles``, (c, rho), to a simple pole of the real
    g at p = c + d with residue R, and p's conjugate carries R's conjugate:
    the call integrates g - 2 Re(R / (t - p)), smooth across c, and adds
    back the exact 2 Re(R [log(hi - p) - log(lo - p)]).  t - p is taken as
    (t - c) - d, so a d far below the spacing of floats at c is kept; Im d
    != 0 keeps the logs off their branch cut."""
    if not poles:
        return integrate_adaptive(g, lo, hi, tol=tol, atol=atol, points=cuts,
                                  limit=4096)
    terms = [(c, d, 2.0 * r) for c, d, r in (_pole(*p) for p in poles)]

    def smooth(t: float) -> float:
        s = g(t)
        for c, d, r2 in terms:
            s -= (r2 / ((t - c) - d)).real
        return s

    res = integrate_adaptive(smooth, lo, hi, tol=tol, atol=atol, points=cuts,
                             limit=4096)
    back = math.fsum((r2 * (cmath.log((hi - c) - d) - cmath.log((lo - c) - d))).real
                     for c, d, r2 in terms)
    return QuadratureResult(res.value + back, res.error_estimate,
                            res.evaluations, res.subdivisions)


def integrate_endpoint_oscillatory(
        f: Callable[[float, float], float | complex], period: float | None = None,
        *, tolerance: float, pinches: Sequence[int] = (0, 1, 2, 3),
        points: Sequence[float] = (),
        tail_points: Callable[[float, float],
                              Sequence[tuple[float, complex]]] | None = None
        ) -> QuadratureResult:
    """Integrate f(y, w) over (0, pi/2], w = log(2 sin y).

    w diverges at y = 0 alone.  The interior panel (y(2), pi/2] evaluates w
    directly from y; from t = -w = 2 on, toward y = 0, the integral
    continues in t, so the integrand receives the exact pair (y(t), -t).
    The interior panel is cut at y(t) for t in ``_INTERIOR_GRADING`` (1, 0
    and -0.5), about one e-fold apart in distance to y = 0, so that
    bisection does not grade toward it by computing panels only to throw
    them away.  One tail chunk spans the fewest whole periods that reach
    ``_MIN_STEP`` (0.5) in t, a step of 2 when ``period`` is None (a tail
    that decays without oscillating), and r = exp(-step) <= e^{-0.5}.
    ``tolerance`` is one absolute budget for the whole integral: the
    interior, each chunk and the close take their share of it
    (``_QUADRATURE_SHARE``), so every part is charged to that one number and
    not to its own value.

    Whole chunks of a periodic tail sum to S_n = sum_k a_k r^(kn), and
    those of a tail without a period to about a_1 r^n, so every tail closes
    by one rule.  It stops at the first whole chunk n >= 1 whose bound
    4 delta r / (1 - r)^2 plus its own estimate is below tolerance, and
    adds the remainder S_n r / (1 - r); its error counts the bound and the
    chunk's estimate times r / (1 - r).  delta is the larger of d_n =
    |S_n - r S_(n-1)| and r^2 d_(n-1), the next term's decay, since two
    terms of opposite sign can cancel in one difference.  A tail that
    reaches ``_T_MAX`` first raises AccuracyError unless its last chunk
    times r / (1 - r) is below tolerance.  A complex f takes one pass.

    When the period is at least ``_LATTICE_PERIOD``, every tail chunk is
    cut at the quarter-period points j period / 4 of t whose j mod 4 is one
    of ``pinches``: where the kernel's denominator is smallest and its poles
    come closest to the path (0 for whole periods, 2 for half periods, 1
    and 3 for the odd quarters).  A shorter period's chunks are cut only at
    their whole-period edges.
    ``points`` adds features as t-positions, mapped through y(t) like every
    other interior cut.  ``tail_points(lo, hi)``, when given, lists the
    poles of f next to the path with centres c in [lo, hi], as (c, rho): a
    simple pole where w + i y = -c, f ~ i rho / (w + i y + c), and its
    conjugate, which ``_pole`` maps onto the tail.  Each tail chunk subtracts
    the poles whose centres lie within one chunk step of it and adds back
    their exact integrals (``_tail_chunk``); the centres below
    t = 2, wide enough for bisection, cut the interior panel.  Every
    interior cut lies in t in (-ln 2, 2), between y = pi/2 and y(2).
    """
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tolerance}")
    if period is not None and not 0.0 < period < math.inf:
        raise DomainError(f"period must be None or positive and finite, got {period}")
    quarter = (period / 4.0 if period is not None and period >= _LATTICE_PERIOD
               else None)
    step = period * math.ceil(_MIN_STEP / period) if period is not None else 2.0
    poles = tail_points or (lambda lo, hi: ())
    tol, atol = _REL_FLOOR, max(tolerance * _QUADRATURE_SHARE, _ABS_FLOOR)

    # the interior stops at y(2), where the tail starts, and gets the
    # grading cuts, the centres of poles below t = 2 and the caller's points
    cuts = (*points, *_INTERIOR_GRADING, *(c for c, _ in poles(0.0, _T_SPLIT)))
    sin, log = math.sin, math.log
    interior = integrate_adaptive(
        lambda y: f(y, log(2.0 * sin(y))), _y(_T_SPLIT), 0.5 * math.pi,
        tol=_INTERIOR_SHARE * tol, atol=_INTERIOR_SHARE * atol,
        points=[_y(s) for s in cuts if _T_TOP < s < _T_SPLIT], limit=8192)
    pieces: list[float | complex] = [interior.value]
    err_total = interior.error_estimate
    evaluations, subdivisions = interior.evaluations, interior.subdivisions

    chunk_tol, chunk_atol = _CHUNK_SHARE * tol, _CHUNK_SHARE * atol
    r = math.exp(-step)
    tail_gain = r / (1.0 - r)          # r + r^2 + ...: all later chunks
    g = _tail(f)
    t = _T_SPLIT
    running = interior.value
    previous = None
    drift = 0.0                        # |S_n - r S_(n-1)| of the last chunk
    while True:
        t_next = min(t + step, _T_MAX)
        # a pole left in lies a step or more from the chunk, where its
        # panels resolve it (ROADMAP item 7 gives the narrower reaches)
        res = _tail_chunk(g, t, t_next,
                          _feature_cuts(t, t_next, quarter, pinches),
                          poles(t - step, t_next + step), chunk_tol, chunk_atol)
        pieces.append(res.value)
        err_total += res.error_estimate
        evaluations += res.evaluations
        subdivisions += res.subdivisions
        running += res.value
        if t_next == t + step and previous is not None:
            # four times the remainder's error when f varies linearly in t;
            # two terms of opposite sign can cancel in one difference, so it
            # is taken as at least r^2 times the one before, the ratio at
            # which the next term, a_2 r^(2n), falls
            d = abs(res.value - r * previous)
            bound = 4.0 * max(d, r * r * drift) * tail_gain / (1.0 - r)
            drift = d
            stop_at = max(_CLOSE_SHARE * atol, _CLOSE_SHARE * tol * abs(running))
            if bound + res.error_estimate <= stop_at:
                pieces.append(res.value * tail_gain)
                err_total += bound + res.error_estimate * tail_gain
                break
        if t_next >= _T_MAX:
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
