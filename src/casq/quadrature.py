"""Deterministic adaptive integration engine.

Every phase and rate in the toolkit is an integral, and every acceptance
check compares such an integral against an independently known value, so
the engine is deliberately boring: a fixed Gauss-Kronrod 7/15 embedded
pair with bisection of the worst interval, QUADPACK-style error
estimation, and correctly rounded sums over the panels. Identical inputs
give bit-identical outputs; there is no randomized cubature anywhere.

The panel (``_gk15``, QUADPACK's ``dqk15``) runs for every 15 integrand
evaluations, so it is written out node by node rather than as a loop over
the tables: the same nodes in the same order, and sums that add their
terms in the loop's order, so every panel has the loop's bits. Its one
check of the 15 values is its own integral of |f|: not finite only when a
node is NaN or +-inf, or finite values overflow the sum.
``tests/test_quadrature.py`` keeps the loop as the reference it is
checked against.

Each bisection costs O(log n) in the number n of live panels, so a run of
n bisections costs O(n log n). The panels sit in a binary heap keyed by
(-error, left end): the worst panel comes first, and of equal errors the
leftmost, like QUADPACK's ordered error list (``dqpsrt``). The summed value
and error estimate that the stopping test reads are exact running sums:
Shewchuk's non-overlapping partials (1997), to which each split adds the
two new panels and the negated old one. ``math.fsum`` of the partials then
rounds the same exact sum that ``math.fsum`` over the live panels rounds,
so the stopping decisions, and with them every result, are those of
re-summing all panels on every bisection, and the result reports these
sums. Integrals that converge on their first panels build neither the
heap nor the partials.

Callers declare where an integrand has kinks (``breaks``), such as the
sample times of a sampled path, and the first sweep puts a panel edge on
each: a kink inside a panel can give an error estimate below the true
error (QUADPACK's ``dqagp``).

Improper integrals over (-inf, inf) are mapped to (-pi/2, pi/2) with
u = tan(theta). The engine cannot verify integrand decay, so callers
certify it (the ``improper`` flag on a time window) and non-convergence
of an improper integral raises instead of returning quietly.
"""

from __future__ import annotations

import heapq
import math
import sys
from math import isfinite
from collections.abc import Callable, Sequence

from .errors import NonConvergent, NonFiniteEvaluation
from .value import DEFAULT_SPEC, IntegralResult, QuadratureSpec
from .vec3 import Vec3, dot3

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "DEFAULT_SPEC",
    "integrate_adaptive",
    "integrate_improper",
    "integrate_iterated",
    "line_integral",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (abscissae/weights as tabulated for QUADPACK's dqk15).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
)
# the same tables as names, for the written-out panel in :func:`_gk15`
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK[:7]
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _WGK
_G0, _G1, _G2, _G3 = _WG
#: abscissae of the panel's nodes on [-1, 1], in the order it evaluates them
_NODES = (0.0, *(u for x in _XGK[:7] for u in (-x, x)))

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

#: Hard floor for the convergence target so an identically-zero integral
#: with rel_tol-only settings cannot spin until the subdivision cap.
_TOL_FLOOR = 1e-300

#: Round-off floor of the convergence target per unit integral of |f|:
#: twice the floor of each panel's error estimate in :func:`_gk15`.
_ROUNDOFF = 100.0 * _EPMACH


class _Panel:
    """One Gauss-Kronrod panel: a private record, built per bisection, so
    plain (mutable) slots rather than a :class:`Value`."""

    __slots__ = ("a", "b", "value", "error", "resabs")

    def __init__(self, a: float, b: float, value: float, error: float, resabs: float):
        self.a = a
        self.b = b
        self.value = value
        self.error = error
        self.resabs = resabs  # integral of |f| over the panel, by the Kronrod rule


def _gk15(f, a: float, b: float) -> _Panel:
    """One Gauss-Kronrod 7/15 panel on [a, b] with QUADPACK error scaling.

    Evaluates all 15 nodes (centre first, then each pair from the outside
    in), then tests its integral of |f| once: if that is not finite, raises
    :class:`NonFiniteEvaluation` naming the first non-finite node, if any
    (finite values that only overflow the sum carry on). Written out node by
    node, every panel's hottest code: each sum adds its terms in the order
    of QUADPACK's ``dqk15`` loop, which ``tests/test_quadrature.py`` keeps.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    fc = f(center)
    # fl<j>, fr<j>: f at center -/+ half * _XGK[j]
    dx = half * _X0
    fl0, fr0 = f(center - dx), f(center + dx)
    dx = half * _X1
    fl1, fr1 = f(center - dx), f(center + dx)
    dx = half * _X2
    fl2, fr2 = f(center - dx), f(center + dx)
    dx = half * _X3
    fl3, fr3 = f(center - dx), f(center + dx)
    dx = half * _X4
    fl4, fr4 = f(center - dx), f(center + dx)
    dx = half * _X5
    fl5, fr5 = f(center - dx), f(center + dx)
    dx = half * _X6
    fl6, fr6 = f(center - dx), f(center + dx)

    # Python adds left to right: each sum below is the loop's running sum
    resabs = (abs(fc) * _K7 + _K0 * (abs(fl0) + abs(fr0)) + _K1 * (abs(fl1) + abs(fr1))
              + _K2 * (abs(fl2) + abs(fr2)) + _K3 * (abs(fl3) + abs(fr3))
              + _K4 * (abs(fl4) + abs(fr4)) + _K5 * (abs(fl5) + abs(fr5))
              + _K6 * (abs(fl6) + abs(fr6)))
    if not isfinite(resabs):
        for u, fx in zip(_NODES, (fc, fl0, fr0, fl1, fr1, fl2, fr2, fl3, fr3,
                                  fl4, fr4, fl5, fr5, fl6, fr6)):
            if not isfinite(fx):
                # the centre as evaluated: center + half * 0.0 drops a -0.0, is NaN if half is inf
                x = center + half * u if u else center
                raise NonFiniteEvaluation(
                    f"integrate_adaptive: integrand returned {fx!r} at x = {x!r}")
    resg = fc * _G3 + _G0 * (fl1 + fr1) + _G1 * (fl3 + fr3) + _G2 * (fl5 + fr5)
    resk = (fc * _K7 + _K0 * (fl0 + fr0) + _K1 * (fl1 + fr1) + _K2 * (fl2 + fr2)
            + _K3 * (fl3 + fr3) + _K4 * (fl4 + fr4) + _K5 * (fl5 + fr5) + _K6 * (fl6 + fr6))
    h = resk * 0.5
    resasc = (_K7 * abs(fc - h) + _K0 * (abs(fl0 - h) + abs(fr0 - h))
              + _K1 * (abs(fl1 - h) + abs(fr1 - h)) + _K2 * (abs(fl2 - h) + abs(fr2 - h))
              + _K3 * (abs(fl3 - h) + abs(fr3 - h)) + _K4 * (abs(fl4 - h) + abs(fr4 - h))
              + _K5 * (abs(fl5 - h) + abs(fr5 - h)) + _K6 * (abs(fl6 - h) + abs(fr6 - h)))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        err = max(_EPMACH * 50.0 * resabs, err)
    return _Panel(a, b, value, err, resabs)


def _grow_exact(partials: list[float], xs) -> list[float]:
    """Add each of ``xs`` to the running sum ``partials`` without rounding.

    ``partials`` holds the sum as non-overlapping floats (Shewchuk's
    expansion, which ``math.fsum`` uses internally), so ``math.fsum(partials)``
    is the correctly rounded sum of every number added: the same bits as a
    fresh ``math.fsum`` over the numbers still counted. A sum that leaves
    the float range raises ``OverflowError``, as ``math.fsum`` does.
    """
    for x in xs:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        if not math.isfinite(x):
            raise OverflowError("integrate_adaptive: running panel sum overflows")
        partials[i:] = [x]
    return partials


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
    breaks: Sequence[float] = (),
) -> IntegralResult:
    """Adaptive Gauss-Kronrod integration of ``f`` on [a, b].

    The first sweep has one panel, or one per stretch between the points
    of ``breaks`` that lie strictly inside the interval (others are
    ignored). Declare the points where ``f`` has a kink or a jump: a panel
    with one inside can report an error estimate below its true error.

    Bisects the interval with the largest local error estimate until the
    summed estimate meets the tolerance or the subdivision budget runs
    out (the latter returns ``converged=False`` rather than raising).
    The panels sit in a heap keyed by (-error, left end), so the worst
    one, the leftmost among equals, is found in O(log n). The summed value
    and estimate are exact running sums (each split adds two panels and
    takes one away), read with ``math.fsum``: the same bits as summing the
    live panels afresh, at a cost that does not grow with their number.
    Each panel's estimate is at least 50 eps times its integral of |f|,
    so an integral whose exact value is zero, or which cancels to far
    below its integral of |f|, could never meet a relative tolerance. A
    relative tolerance therefore also counts as met once the estimate is
    within twice that floor summed over the panels. A relative tolerance
    below twice the floor (about 2.2e-14) asks for more than any panel can
    certify, and keeps its plain target.
    Raises :class:`NonFiniteEvaluation` if the integrand returns NaN/inf,
    and ``OverflowError`` if the summed panels leave the float range.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return IntegralResult(0.0, 0.0, 0, True)
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    edges = (a, b)
    if breaks:
        edges = (a, *sorted({float(x) for x in breaks if a < x < b}), b)
    return _adaptive_core(f, edges, sign, spec)


def _adaptive_core(
    f: Callable[[float], float],
    breaks: Sequence[float],
    sign: float,
    spec: QuadratureSpec | None,
) -> IntegralResult:
    spec = spec or DEFAULT_SPEC
    panels = [_gk15(f, breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1)]
    # integral of |f|, kept up to date per bisection: it only sets a floor
    resabs = math.fsum(p.resabs for p in panels)
    total = math.fsum(p.value for p in panels)
    if not isfinite(total):
        # its target rel_tol * |total| would be met by any estimate
        raise OverflowError("integrate_adaptive: running panel sum overflows")
    toterr = math.fsum(p.error for p in panels)
    # built at the first bisection, so integrals that converge on their
    # first panels pay nothing for them
    heap = None
    nsub = 0
    converged = False
    while True:
        tol = max(spec.abs_tol, spec.rel_tol * abs(total), _TOL_FLOOR)
        if spec.rel_tol >= _ROUNDOFF:
            tol = max(tol, _ROUNDOFF * resabs)
        if toterr <= tol:
            converged = True
            break
        if nsub >= spec.max_subdivisions:
            break
        if heap is None:
            # worst interval first; ties broken by the left endpoint so the
            # subdivision sequence is reproducible (live panels never share one)
            heap = [(-p.error, p.a, p) for p in panels]
            heapq.heapify(heap)
            values = _grow_exact([], [p.value for p in panels])
            errors = _grow_exact([], [p.error for p in panels])
        worst = heap[0][2]
        mid = 0.5 * (worst.a + worst.b)
        if mid <= worst.a or mid >= worst.b:
            # interval at floating-point resolution: keep it, accept its error
            break
        left = _gk15(f, worst.a, mid)
        right = _gk15(f, mid, worst.b)
        heapq.heapreplace(heap, (-left.error, left.a, left))
        heapq.heappush(heap, (-right.error, right.a, right))
        _grow_exact(values, (left.value, right.value, -worst.value))
        _grow_exact(errors, (left.error, right.error, -worst.error))
        total = math.fsum(values)
        toterr = math.fsum(errors)
        resabs += left.resabs + right.resabs - worst.resabs
        nsub += 1

    # 15 evaluations per panel: the first sweep's panels, then two per bisection
    evals = 15 * (len(breaks) - 1 + 2 * nsub)
    return IntegralResult(sign * total, toterr, evals, converged)


def integrate_improper(
    f: Callable[[float], float],
    spec: QuadratureSpec | None = None,
    center: float = 0.0,
    scale: float = 1.0,
) -> IntegralResult:
    """Integrate ``f`` over (-inf, inf) via u = center + scale * tan(theta).

    ``center`` and ``scale`` should locate the region where the integrand
    lives: a feature much narrower than ``scale`` can fall between the
    quadrature nodes of every panel and be silently lost, which is the one
    failure mode adaptive error estimates cannot flag. The theta domain is
    pre-split so the first sweep samples 8 panels rather than one.

    The caller certifies that ``f`` decays at least as fast as a power
    law; a run that exhausts the subdivision budget raises
    :class:`NonConvergent` because silent non-convergence of an improper
    integral is indistinguishable from a wrong answer.
    """
    if not scale > 0.0:
        raise ValueError(f"integrate_improper: scale must be > 0, got {scale!r}")

    def mapped(theta: float) -> float:
        u = math.tan(theta)
        sec2 = 1.0 + u * u
        return f(center + scale * u) * scale * sec2

    n_pre = 8
    breaks = [-0.5 * math.pi + math.pi * i / n_pre for i in range(n_pre + 1)]
    result = _adaptive_core(mapped, breaks, 1.0, spec)
    if not result.converged:
        raise NonConvergent(
            "integrate_improper: subdivision budget exhausted "
            f"(value={result.value!r}, error_estimate={result.error_estimate!r})"
        )
    return result


def integrate_over_window(
    f: Callable[[float], float],
    window,
    spec: QuadratureSpec | None = None,
    *paths,
) -> IntegralResult:
    """Time integral of ``f`` over a window: the one window integrator.

    Pass every path whose kinks are kinks of ``f``, and whose motion is all
    of ``f``'s dependence on t. A bounded window goes to
    :func:`integrate_adaptive`, with the ``breakpoints`` of each path in the
    window as panel edges; an improper one to :func:`integrate_improper`,
    centred and scaled by the first path's ``improper_time_scale()`` (the
    window's ``improper`` flag is the caller's decay certification).

    When the paths share one period P (``_period()``: a harmonic path, with
    constant ones beside it) and a bounded window [t0, t1] holds N >= 2 whole
    periods, ``f`` is P-periodic and the window integrates as N times the
    integral over [t0, t0 + P], run at abs_tol / N, plus the integral over
    the remainder [t0 + N P, t1]. N is the rounded ratio (t1 - t0) / P when
    that is within a few ulps of a whole number, and the remainder is then
    dropped as rounding; otherwise N is its floor. The float ends and the
    rounding of P move the result by about N eps (P + |t0|) max|f|; on a
    window from t0 = 0, as every mirror window in casq's scenarios and
    checks, N eps P max|f|, far below every tolerance they ask for.
    The split reports ``converged`` only if both parts converged and N times
    the period's estimate plus the remainder's meets the window's own target
    max(abs_tol, rel_tol |value|); otherwise the window integrates unsplit,
    as a window under two periods or of paths without a common period
    always does. ``evaluations`` counts the work done: one period and the
    remainder, not N periods, plus the unsplit run when the split missed.
    """
    if window.improper:
        center, scale = paths[0].improper_time_scale()
        return integrate_improper(f, spec, center=center, scale=scale)
    t0, t1 = window.t_start, window.t_end

    def part(a: float, b: float, part_spec: QuadratureSpec | None) -> IntegralResult:
        breaks = [t for p in paths for t in p.breakpoints(a, b)]
        return integrate_adaptive(f, a, b, part_spec, breaks)

    periods = {p._period() for p in paths} - {0.0}  # 0.0: a constant path fits any period
    split = None
    if len(periods) == 1 and None not in periods:
        split = _over_whole_periods(part, t0, t1, *periods, spec or DEFAULT_SPEC)
        if split is not None and split.converged:
            return split
    res = part(t0, t1, spec)
    return res if split is None else res.replace(evaluations=res.evaluations + split.evaluations)


def _over_whole_periods(part, t0: float, t1: float, period: float,
                        spec: QuadratureSpec) -> IntegralResult | None:
    """N times ``part`` over one period plus ``part`` over the remainder of
    [t0, t1] (see :func:`integrate_over_window`); None under two periods."""
    ratio = (t1 - t0) / period
    if not isfinite(ratio):
        return None
    n = round(ratio)
    whole = abs(ratio - n) <= 4.0 * math.ulp(n)
    if not whole:
        n = math.floor(ratio)
    if n < 2:
        return None
    one = part(t0, t0 + period, spec.replace(abs_tol=spec.abs_tol / n))
    # no remainder when whole, and never a negative sliver past t1
    rest = part(t1 if whole else min(t0 + n * period, t1), t1, spec)
    value = n * one.value + rest.value
    error = n * one.error_estimate + rest.error_estimate
    # an overflowed value meets any relative target: the unsplit run raises instead
    target = max(spec.abs_tol, spec.rel_tol * abs(value), _TOL_FLOOR)
    return IntegralResult(value, error, one.evaluations + rest.evaluations,
                          one.converged and rest.converged and isfinite(value) and error <= target)


def line_integral(
    field: Callable[[Vec3], Vec3],
    traj,
    window,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Line integral of a vector field along a parametric path.

    Evaluates int_P dr . F(r) as the time integral of r'(t) . F(r(t)) over
    the window (:func:`integrate_over_window`), asking the path only for its
    position and its ``tangent`` r'(t), the exact derivative of that
    position, beyond what that needs. The caller checks where the path goes.
    """

    def integrand(t: float) -> float:
        return dot3(traj.tangent(t), field(traj.position(t)))

    return integrate_over_window(integrand, window, spec, traj)


#: Per-level tightening factor for iterated integrals, so inner-level noise
#: stays comfortably below the outer error estimate.
_LEVEL_FACTOR = 0.25


def integrate_iterated(
    f: Callable[..., float],
    bounds: Sequence[tuple],
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Nested adaptive integration of ``f(x0, .., x_{n-1})`` over n <= 3 axes.

    ``bounds[k]`` is ``(lo, hi)`` for axis k; either endpoint may be a
    callable of the outer variables ``(x0, .., x_{k-1})`` so triangular and
    chained domains work. The outermost level runs at the requested
    tolerance and each inner level is tightened by a fixed factor.
    """
    spec = spec or DEFAULT_SPEC
    n = len(bounds)
    if not 1 <= n <= 3:
        raise ValueError(f"integrate_iterated supports 1..3 axes, got {n}")

    evals = 0
    all_converged = True

    def level(k: int, outer: tuple) -> IntegralResult:
        nonlocal evals, all_converged
        lo, hi = bounds[k]
        lo_v = float(lo(*outer)) if callable(lo) else float(lo)
        hi_v = float(hi(*outer)) if callable(hi) else float(hi)
        lspec = spec.replace(
            rel_tol=spec.rel_tol * _LEVEL_FACTOR**k,
            abs_tol=spec.abs_tol * _LEVEL_FACTOR**k,
        )
        if k == n - 1:
            def inner(x: float) -> float:
                nonlocal evals
                evals += 1
                return f(*outer, x)
        else:
            def inner(x: float) -> float:
                return level(k + 1, outer + (x,)).value

        res = integrate_adaptive(inner, lo_v, hi_v, lspec)
        if not res.converged:
            all_converged = False
        return res

    top = level(0, ())
    return IntegralResult(top.value, top.error_estimate, evals, all_converged)
