"""Prescribed center-of-mass paths r(t) and time windows.

The atomic center of mass is the external parameter steering every
Hamiltonian in the toolkit, so trajectories are plain immutable data:
analytic kinds evaluate positions and velocities exactly (and extrapolate
beyond any window), sampled polylines interpolate linearly and take their
velocity as a central finite difference with a documented step. Every
number a path holds is finite: its constructor, and so ``replace``, raises
``ValueError`` otherwise.

Axial (1D) kinds describe the distance z(t) > 0 to a mirror at z = 0:

* ``Constant1D(h)``            z = h
* ``Linear1D(h, v)``           z = h + v t
* ``Harmonic1D(h, A, w, p0)``  z = h + A sin(w t + p0), requires h - A > 0
* ``SampledPolyline1D``        piecewise-linear through (t_i, z_i)

3D kinds (used around a spinning particle at the origin):

* ``StraightLine3D(r0, v)``    r = r0 + v t
* ``SampledPolyline3D``        piecewise-linear through (t_i, r_i)

Each kind answers every question asked of a path, so no caller switches on
the kind. ``tangent(t)`` is the exact derivative of ``position``, which line
integrals read: ``velocity`` itself on an analytic kind, the slope of the
segment holding t on a polyline. ``breakpoints(t0, t1)`` names its kinks
(the sample times of a polyline, none for an analytic kind). Both polylines
share the sample checks, segment lookup and difference stencil of their base
``_Sampled``. :func:`reparametrize` (t -> lambda t) and :func:`reverse`
(t -> t_start + t_end - t across a bounded window) hand the same geometric
path at a new pace to the kind's ``_reparametrized`` and ``_reversed``, exact
on the analytic kinds, which is what the geometric-phase invariance tests
lean on. :func:`validate_positive_between` checks the points a 1D kind's
``_lowest(t0, t1)`` names as candidates for its minimum over [t0, t1], and
``_fastest()`` its greatest |dz/dt| over all time. A 3D kind gives its exact
``closest_approach(window)`` to the origin and the ``improper_time_scale()``
of an all-time line integral.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .constants import C_LIGHT
from .errors import CollisionGuard, ImproperWindow, NonPositiveDistance, OutOfWindow
from .value import Value, check_fields, set_field
from .vec3 import Vec3, dot3, norm3, scale3, sub3, vec3

__all__ = [
    "TimeWindow",
    "Constant1D",
    "Linear1D",
    "Harmonic1D",
    "SampledPolyline1D",
    "StraightLine3D",
    "SampledPolyline3D",
    "reparametrize",
    "reparametrize_window",
    "reverse",
    "light_delay",
    "validate_positive_between",
]


class TimeWindow(Value):
    """Integration window [t_start, t_end], or all of time.

    ``improper=True`` means (-inf, inf), the window of an all-time Sagnac
    line integral along a straight line, whose integrand decays as r^-7.
    Mirror phases refuse it (:class:`casq.mirror_phases.MirrorScenario`).
    """

    __slots__ = ("t_start", "t_end", "improper")

    def __init__(self, t_start: float = -math.inf, t_end: float = math.inf,
                 improper: bool = False):
        if improper:
            t_start, t_end = -math.inf, math.inf
        else:
            check_fields("TimeWindow", t_start=t_start, t_end=t_end)
            if not t_start < t_end:
                raise ValueError(f"TimeWindow: t_start must be < t_end, got [{t_start}, {t_end}]")
        set_field(self, "t_start", t_start)
        set_field(self, "t_end", t_end)
        set_field(self, "improper", improper)

    @classmethod
    def all_time(cls) -> "TimeWindow":
        return cls(improper=True)


class _Analytic:
    """A kind smooth for all time: it has no kinks to declare."""

    __slots__ = ()

    def breakpoints(self, t0: float, t1: float) -> tuple[float, ...]:
        return ()


class _Sampled:
    """A piecewise-linear kind through strictly increasing sample times.

    Its kinks are its sample times, and evaluation outside their range raises
    :class:`OutOfWindow`. ``velocity`` is a central finite difference of the
    interpolant with step max(1e-6 * span, spacing / 2), which balances
    truncation against cancellation without per-call tuning; within one step
    of either end the difference is one-sided, so it never leaves the samples.
    """

    __slots__ = ()

    def _set_samples(self, times: tuple[float, ...], name: str, samples: tuple) -> None:
        if len(times) < 2:
            raise ValueError("sampled trajectory needs at least two samples")
        for i in range(1, len(times)):
            if not times[i] > times[i - 1]:
                raise ValueError("sampled trajectory times must be strictly increasing")
        if len(times) != len(samples):
            raise ValueError(f"times and {name} must have equal length")
        set_field(self, "times", times)
        set_field(self, name, samples)

    def _nearer(self, t: float) -> tuple[int, int, float]:
        """(i, j, w): t lies on the segment [t_i, t_j] at weight w of j.

        i is the nearer sample, so every sample time gives its sample exactly;
        an interior sample time lies on the segment that starts there.
        """
        times = self.times
        if t < times[0] or t > times[-1]:
            raise OutOfWindow(f"t = {t!r} outside sample range [{times[0]!r}, {times[-1]!r}]")
        j = min(bisect_right(times, t), len(times) - 1)
        t0, t1 = times[j - 1], times[j]
        if t - t0 <= t1 - t:
            return j - 1, j, (t - t0) / (t1 - t0)
        return j, j - 1, (t1 - t) / (t1 - t0)

    def _stencil(self, t: float) -> tuple[float, float, float]:
        """Nodes (t_minus, t_plus) and divisor of the velocity difference at t."""
        times = self.times
        span = times[-1] - times[0]
        dt = max(1e-6 * span, 0.5 * (span / (len(times) - 1)))
        if t - dt < times[0]:
            return t, t + dt, dt
        if t + dt > times[-1]:
            return t - dt, t, dt
        return t - dt, t + dt, 2.0 * dt

    def _inside(self, t0: float, t1: float) -> slice:
        """Indices of the sample times strictly inside (t0, t1)."""
        return slice(bisect_right(self.times, t0), bisect_left(self.times, t1))

    def breakpoints(self, t0: float, t1: float) -> tuple[float, ...]:
        return self.times[self._inside(t0, t1)]


# -- 1D kinds -----------------------------------------------------------------

class Constant1D(_Analytic, Value):
    __slots__ = ("h", "v_parallel")

    def __init__(self, h: float, v_parallel: float | None = None):
        check_fields("Constant1D", h=h, v_parallel=v_parallel)
        set_field(self, "h", h)
        set_field(self, "v_parallel", v_parallel)  # metadata only: velocity along the surface

    def position(self, t: float) -> float:
        return self.h

    def velocity(self, t: float) -> float:
        return 0.0

    tangent = velocity

    def _reparametrized(self, lam: float) -> "Constant1D":
        return self.replace(v_parallel=_scaled(self.v_parallel, lam))

    def _reversed(self, s: float) -> "Constant1D":
        return self.replace(v_parallel=_scaled(self.v_parallel, -1.0))

    def _lowest(self, t0: float, t1: float):
        yield self.h, "all t"

    def _fastest(self) -> float:
        return 0.0


class Linear1D(_Analytic, Value):
    __slots__ = ("h", "v", "v_parallel")

    def __init__(self, h: float, v: float, v_parallel: float | None = None):
        check_fields("Linear1D", h=h, v=v, v_parallel=v_parallel)
        set_field(self, "h", h)
        set_field(self, "v", v)
        set_field(self, "v_parallel", v_parallel)

    def position(self, t: float) -> float:
        return self.h + self.v * t

    def velocity(self, t: float) -> float:
        return self.v

    tangent = velocity

    def _reparametrized(self, lam: float) -> "Linear1D":
        return self.replace(v=self.v * lam, v_parallel=_scaled(self.v_parallel, lam))

    def _reversed(self, s: float) -> "Linear1D":
        return self.replace(h=self.h + self.v * s, v=-self.v,
                            v_parallel=_scaled(self.v_parallel, -1.0))

    def _lowest(self, t0: float, t1: float):
        yield self.position(t0), "window start"
        yield self.position(t1), "window end"

    def _fastest(self) -> float:
        return abs(self.v)


class Harmonic1D(_Analytic, Value):
    """z(t) = h + A sin(omega_cm t + phase0); h is the mean distance."""

    __slots__ = ("h", "amplitude", "omega_cm", "phase0", "v_parallel")

    def __init__(self, h: float, amplitude: float, omega_cm: float, phase0: float = 0.0,
                 v_parallel: float | None = None):
        check_fields("Harmonic1D", nonnegative=("amplitude",), h=h, amplitude=amplitude,
                     omega_cm=omega_cm, phase0=phase0, v_parallel=v_parallel)
        if h - amplitude <= 0.0:
            raise ValueError(
                f"Harmonic1D: h - A = {h - amplitude!r} must be > 0 "
                "(atom strictly on one side of the mirror)"
            )
        if omega_cm == 0.0:
            raise ValueError("Harmonic1D: omega_cm must be nonzero")
        set_field(self, "h", h)
        set_field(self, "amplitude", amplitude)
        set_field(self, "omega_cm", omega_cm)
        set_field(self, "phase0", phase0)
        set_field(self, "v_parallel", v_parallel)

    def position(self, t: float) -> float:
        return self.h + self.amplitude * math.sin(self.omega_cm * t + self.phase0)

    def velocity(self, t: float) -> float:
        return self.amplitude * self.omega_cm * math.cos(self.omega_cm * t + self.phase0)

    tangent = velocity

    def _reparametrized(self, lam: float) -> "Harmonic1D":
        return self.replace(omega_cm=self.omega_cm * lam,
                            v_parallel=_scaled(self.v_parallel, lam))

    def _reversed(self, s: float) -> "Harmonic1D":
        # z(s - t) = h + A sin(-w t + (w s + p0))
        return self.replace(omega_cm=-self.omega_cm,
                            phase0=self.omega_cm * s + self.phase0,
                            v_parallel=_scaled(self.v_parallel, -1.0))

    def _lowest(self, t0: float, t1: float):
        # the ends, unless the phase may pass a trough (3 pi/2 mod 2 pi) on
        # [t0, t1]: a span of 2 pi or more, a non-finite phase, or a trough
        # within rounding of either end all name the trough
        w, p = self.omega_cm, self.phase0
        lo, hi = sorted((w * t0 + p, w * t1 + p))
        slack = 8.0 * math.ulp(1.0) * (abs(w) * max(abs(t0), abs(t1)) + abs(p) + 2.0 * math.pi)
        ahead = (1.5 * math.pi - lo) % (2.0 * math.pi)  # from lo to the next trough
        if hi - lo + slack < ahead < 2.0 * math.pi - slack:
            yield self.position(t0), "window start"
            yield self.position(t1), "window end"
        else:
            yield self.h - self.amplitude, "harmonic minimum"

    def _fastest(self) -> float:
        return abs(self.amplitude * self.omega_cm)


class SampledPolyline1D(_Sampled, Value):
    """Piecewise-linear z(t) through (t_i, z_i)."""

    __slots__ = ("times", "values", "v_parallel")

    def __init__(self, times: tuple[float, ...], values: tuple[float, ...],
                 v_parallel: float | None = None):
        times = tuple(map(float, times))
        values = tuple(map(float, values))
        check_fields("SampledPolyline1D", times=times, values=values, v_parallel=v_parallel)
        self._set_samples(times, "values", values)
        set_field(self, "v_parallel", v_parallel)

    def position(self, t: float) -> float:
        i, j, w = self._nearer(t)
        # the weight first, so (z_j - z_i) * (t - t_i) cannot overflow
        return self.values[i] + (self.values[j] - self.values[i]) * w

    def velocity(self, t: float) -> float:
        lo, hi, width = self._stencil(t)
        return (self.position(hi) - self.position(lo)) / width

    def tangent(self, t: float) -> float:
        i, j, _ = self._nearer(t)
        return (self.values[j] - self.values[i]) / (self.times[j] - self.times[i])

    def _reparametrized(self, lam: float) -> "SampledPolyline1D":
        return self.replace(times=tuple(t / lam for t in self.times),
                            v_parallel=_scaled(self.v_parallel, lam))

    def _reversed(self, s: float) -> "SampledPolyline1D":
        return self.replace(times=tuple(s - t for t in reversed(self.times)),
                            values=tuple(reversed(self.values)),
                            v_parallel=_scaled(self.v_parallel, -1.0))

    def _lowest(self, t0: float, t1: float):
        if t0 < self.times[0] or t1 > self.times[-1]:
            raise OutOfWindow(
                f"window [{t0!r}, {t1!r}] exceeds sample range "
                f"[{self.times[0]!r}, {self.times[-1]!r}]"
            )
        within = slice(bisect_left(self.times, t0), bisect_right(self.times, t1))
        for t, z in zip(self.times[within], self.values[within]):
            yield z, f"sample t = {t!r}"
        yield self.position(t0), "window start"
        yield self.position(t1), "window end"

    def _fastest(self) -> float:
        t, z = self.times, self.values
        return max(abs((z[i + 1] - z[i]) / (t[i + 1] - t[i])) for i in range(len(t) - 1))


# -- 3D kinds -----------------------------------------------------------------

class StraightLine3D(_Analytic, Value):
    """r(t) = r0 + v t."""

    __slots__ = ("r0", "v")

    def __init__(self, r0: Vec3, v: Vec3):
        r0 = vec3(r0, "StraightLine3D: r0")
        v = vec3(v, "StraightLine3D: v")
        check_fields("StraightLine3D", r0=r0, v=v)
        set_field(self, "r0", r0)
        set_field(self, "v", v)

    def position(self, t: float) -> Vec3:
        return (
            self.r0[0] + self.v[0] * t,
            self.r0[1] + self.v[1] * t,
            self.r0[2] + self.v[2] * t,
        )

    def velocity(self, t: float) -> Vec3:
        return self.v

    tangent = velocity

    def closest_time(self) -> float:
        """Time t* = -(r0 . v)/|v|^2 of closest approach to the origin; 0 at rest."""
        v2 = dot3(self.v, self.v)
        return 0.0 if v2 == 0.0 else -dot3(self.r0, self.v) / v2

    def closest_approach(self, window: TimeWindow) -> float:
        """Distance to the origin at t*, clamped to a bounded window."""
        t = self.closest_time()
        if not window.improper:
            t = min(max(t, window.t_start), window.t_end)
        return norm3(self.position(t))

    def improper_time_scale(self) -> tuple[float, float]:
        """(center, width) in time of an all-time line integral along the line.

        Fields here decay in |r|, so the integrand lives around the closest
        approach: the center is t*, the width |r(t*)| / |v| (1 / |v| through
        the origin, 1 at rest), which maps that stretch onto an O(1) stretch
        of the tangent variable of :func:`casq.quadrature.integrate_improper`.
        """
        t0 = self.closest_time()
        speed = norm3(self.v)
        if speed == 0.0:
            return t0, 1.0
        return t0, (norm3(self.position(t0)) or 1.0) / speed

    def _reparametrized(self, lam: float) -> "StraightLine3D":
        return self.replace(v=tuple(lam * c for c in self.v))

    def _reversed(self, s: float) -> "StraightLine3D":
        return self.replace(r0=tuple(r + v * s for r, v in zip(self.r0, self.v)),
                            v=tuple(-v for v in self.v))


class SampledPolyline3D(_Sampled, Value):
    __slots__ = ("times", "points")

    def __init__(self, times: tuple[float, ...], points: tuple[Vec3, ...]):
        times = tuple(map(float, times))
        points = tuple(vec3(p, f"SampledPolyline3D: points[{i}]") for i, p in enumerate(points))
        check_fields("SampledPolyline3D", times=times, points=points)
        self._set_samples(times, "points", points)

    def position(self, t: float) -> Vec3:
        i, j, w = self._nearer(t)
        p0, p1 = self.points[i], self.points[j]
        return (
            p0[0] + (p1[0] - p0[0]) * w,
            p0[1] + (p1[1] - p0[1]) * w,
            p0[2] + (p1[2] - p0[2]) * w,
        )

    def velocity(self, t: float) -> Vec3:
        lo, hi, width = self._stencil(t)
        pp = self.position(hi)
        pm = self.position(lo)
        return (
            (pp[0] - pm[0]) / width,
            (pp[1] - pm[1]) / width,
            (pp[2] - pm[2]) / width,
        )

    def tangent(self, t: float) -> Vec3:
        i, j, _ = self._nearer(t)
        p0, p1, dt = self.points[i], self.points[j], self.times[j] - self.times[i]
        return ((p1[0] - p0[0]) / dt, (p1[1] - p0[1]) / dt, (p1[2] - p0[2]) / dt)

    def improper_time_scale(self) -> tuple[float, float]:
        """A polyline ends at its samples, so it has no all-time line integral."""
        raise OutOfWindow("sampled trajectory cannot cover an improper window")

    def _reparametrized(self, lam: float) -> "SampledPolyline3D":
        return self.replace(times=tuple(t / lam for t in self.times))

    def _reversed(self, s: float) -> "SampledPolyline3D":
        return self.replace(times=tuple(s - t for t in reversed(self.times)),
                            points=tuple(reversed(self.points)))

    def closest_approach(self, window: TimeWindow) -> float:
        """Distance to the origin over the segments clipped to the window
        (:class:`OutOfWindow` if the window leaves the samples)."""
        t0, t1 = window.t_start, window.t_end
        inner = self.points[self._inside(t0, t1)]
        pts = [self.position(t0), *inner, self.position(t1)]
        return min(_segment_distance(p, q) for p, q in zip(pts, pts[1:]))


def _segment_distance(p: Vec3, q: Vec3) -> float:
    """Distance from the origin to the segment p + s (q - p), 0 <= s <= 1.

    The closest point is taken from the nearer end, so an end that is the
    closest point gives its own distance exactly.
    """
    d = sub3(q, p)
    dd = dot3(d, d)
    s = min(max(-dot3(p, d) / dd, 0.0), 1.0) if dd > 0.0 else 0.0
    if s > 0.5:
        return norm3(sub3(q, scale3(1.0 - s, d)))
    return norm3(sub3(p, scale3(-s, d)))


# -- functional interface ------------------------------------------------------

def light_delay(z: float) -> float:
    """Round-trip light time 2 z / c for a perfect mirror at z = 0 (s)."""
    if not z > 0.0:
        raise NonPositiveDistance(f"light_delay: z must be > 0, got {z!r}")
    return 2.0 * z / C_LIGHT


def _scaled(v_parallel: float | None, factor: float) -> float | None:
    """Surface-velocity metadata times ``factor``; absent stays absent."""
    return None if v_parallel is None else v_parallel * factor


def reparametrize(traj, lam: float):
    """Same geometric path traversed at lambda times the speed.

    new.position(t) = old.position(lambda t); pair with
    :func:`reparametrize_window` to follow the same stretch of path.
    """
    check_fields("reparametrize", positive=("lambda",), **{"lambda": lam})
    return traj._reparametrized(lam)


def reparametrize_window(window: TimeWindow, lam: float) -> TimeWindow:
    """Window matching :func:`reparametrize`: endpoints divided by lambda."""
    check_fields("reparametrize_window", positive=("lambda",), **{"lambda": lam})
    if window.improper:
        return window
    return TimeWindow(window.t_start / lam, window.t_end / lam)


def reverse(traj, window: TimeWindow):
    """Same geometric path traversed backwards over the same bounded window.

    new.position(t) = old.position(t_start + t_end - t).
    """
    if window.improper:
        raise ImproperWindow("reverse requires a bounded window")
    return traj._reversed(window.t_start + window.t_end)


def validate_positive_between(traj, t0: float, t1: float, z_min: float = 0.0) -> None:
    """Check z(t) > 0 and z(t) >= z_min for t0 <= t <= t1.

    Exact for every 1D kind: the minimum is the height itself (Constant),
    the trough h - A when the window may hold one and else an end
    (Harmonic), at an end (Linear), or at a node or an end (a polyline is
    linear between its nodes). Crossing the mirror raises
    :class:`NonPositiveDistance`; dipping below a positive ``z_min`` raises
    :class:`CollisionGuard`; both name the point that fails.
    """
    for z, where in traj._lowest(t0, t1):
        if not z > 0.0:
            raise NonPositiveDistance(f"path reaches z = {z!r} at {where} (must stay > 0)")
        if z < z_min:
            raise CollisionGuard(
                f"path reaches z = {z!r} at {where}, below the near-contact "
                f"cutoff {z_min!r}"
            )
