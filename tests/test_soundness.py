"""Property tests: a converged result's error estimate bounds its true error.

Each test draws parameters over several decades, computes a phase that has
an exact closed form, and checks |value - exact| <= error_estimate whenever
the result reports ``converged``. Every oracle is written without a
difference of nearly equal numbers, so its own rounding stays a few ulps,
far below the engine's round-off floor (50 machine epsilons of the integral
of |f|, QUADPACK's).

The motional phase has an exact oracle too, but today's delay average
loses digits to cancellation, so its soundness check waits for that fix.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casq.constants import C_LIGHT, EPSILON_0, FOUR_PI_EPS0, HBAR
from casq.mirror_phases import MirrorScenario, nonlocal_phase, quasi_static_phase
from casq.quadrature import QuadratureSpec
from casq.sagnac import SpinningParticle, ell_omega, sagnac_phase
from casq.species import AtomSpecies, Transition, alpha_static, mean_square_dipole
from casq.trajectories import (
    Constant1D,
    Harmonic1D,
    Linear1D,
    SampledPolyline1D,
    SampledPolyline3D,
    StraightLine3D,
    TimeWindow,
)

TWO_LEVEL = AtomSpecies("two-level", (Transition(2.0e15, 1.0e-58),))
#: C3 / hbar of TWO_LEVEL, with U(z) = -C3 / z^3
C3_HBAR = mean_square_dipole(TWO_LEVEL) / (48.0 * math.pi * EPSILON_0 * HBAR)
SOUNDNESS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def decades(lo: int, hi: int):
    """Log-uniform floats in [10^lo, 10^hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def specs():
    return decades(-13, -6).map(lambda rel_tol: QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-300))


def assert_sound(res, exact):
    if res.converged:
        assert abs(res.value - exact) <= res.error_estimate, (res, exact)


@SOUNDNESS
@given(h=decades(-8, -5), duration=decades(-15, -6), ratio=decades(-1, 1), spec=specs())
def test_quasi_static_linear_estimate_is_sound(h, duration, ratio, spec):
    # z runs from h to z_b = ratio * h (>= 1 nm, the default near-contact cutoff)
    v = h * (ratio - 1.0) / duration
    path = Linear1D(h, v)
    z_b = path.position(duration)
    c3 = mean_square_dipole(TWO_LEVEL) / (48.0 * math.pi * EPSILON_0)
    # (C3/hbar) int_0^T dt/(h+vt)^3 = (C3/hbar) T (2h+vT) / (2 h^2 z_b^2), with 2h+vT = h+z_b
    exact = (c3 / HBAR) * duration * (h + z_b) / (2.0 * h**2 * z_b**2)
    res = quasi_static_phase(MirrorScenario(TWO_LEVEL, (path,), TimeWindow(0.0, duration)),
                             0, spec)
    assert_sound(res, exact)


@SOUNDNESS
@given(h=decades(-8, -5), reach=st.floats(0.0, 0.9), omega=decades(6, 12),
       periods=st.integers(1, 5), spec=specs())
def test_quasi_static_harmonic_estimate_is_sound(h, reach, omega, periods, spec):
    # N whole periods of h + A sin(wt); h - A >= 0.1 h stays above the 1 nm cutoff
    amp = reach * h
    path = Harmonic1D(h, amp, omega)
    # (C3/hbar)(N/w) pi (2h^2 + A^2) / (h^2 - A^2)^(5/2), with h^2 - A^2 = (h - A)(h + A)
    exact = (C3_HBAR * (periods / omega) * math.pi * (2.0 * h * h + amp * amp)
             / ((h - amp) * (h + amp)) ** 2.5)
    window = TimeWindow(0.0, periods * 2.0 * math.pi / omega)
    res = quasi_static_phase(MirrorScenario(TWO_LEVEL, (path,), window), 0, spec)
    assert_sound(res, exact)


@SOUNDNESS
@given(h=decades(-8, -5), ratios=st.lists(decades(-1, 1), min_size=1, max_size=5),
       step=decades(-15, -6), stretches=st.lists(st.floats(0.5, 2.0), min_size=5, max_size=5),
       spec=specs())
def test_quasi_static_polyline_estimate_is_sound(h, ratios, step, stretches, spec):
    # neighbouring samples within a factor 10 in height, as on Linear1D above,
    # and sample intervals within a factor 4, so the path's own rounding stays
    # below the engine's round-off floor
    heights, times = [h], [0.0]
    for ratio, stretch in zip(ratios, stretches):
        heights.append(heights[-1] * ratio)
        times.append(times[-1] + stretch * step)
    path = SampledPolyline1D(times, heights)
    # each linear segment from z_a to z_b over dt gives dt (z_a + z_b) / (2 z_a^2 z_b^2)
    ts, zs = path.times, path.values
    exact = C3_HBAR * math.fsum(
        (tb - ta) * (za + zb) / (2.0 * za * za * zb * zb)
        for ta, tb, za, zb in zip(ts, ts[1:], zs, zs[1:])
    )
    window = TimeWindow(ts[0], ts[-1])
    res = quasi_static_phase(MirrorScenario(TWO_LEVEL, (path,), window, z_min=0.0), 0, spec)
    assert_sound(res, exact)


@SOUNDNESS
@given(h=decades(-8, -5), duration=decades(-15, -6), reach=st.floats(0.0, 0.9), spec=specs())
def test_counterpropagating_nonlocal_estimate_is_sound(h, duration, reach, spec):
    # the paths h + vt and h - vt keep z1 + z2 = 2h; the second ends at (1 - reach) h
    v = reach * h / duration
    paths = (Linear1D(h, v), Linear1D(h, -v))
    k = 3.0 * TWO_LEVEL.transitions[0].omega_eg * alpha_static(TWO_LEVEL) / (FOUR_PI_EPS0 * C_LIGHT)
    exact = k * v * duration / (4.0 * h**3)
    res = nonlocal_phase(MirrorScenario(TWO_LEVEL, paths, TimeWindow(0.0, duration), z_min=0.0),
                         spec)
    assert_sound(res, exact)


@SOUNDNESS
@given(h=decades(-8, -5), ratios=st.lists(decades(-1, 1), min_size=1, max_size=5),
       step=decades(-15, -6), partner=decades(-1, 1), spec=specs())
@example(h=1e-6, ratios=[1.2, 1.1 / 1.2, 1.05 / 1.1], step=1e-9, partner=2.0,
         spec=QuadratureSpec(rel_tol=1e-12, abs_tol=0.0))
def test_polyline_nonlocal_estimate_is_sound(h, ratios, step, partner, spec):
    # beside a constant partner at h2 the integrand z1'/(z1 + h2)^3 is a total
    # derivative: phi_12 = k (b - a)(a + b) / (2 a^2 b^2), with a and b the
    # sums z1 + h2 at the window's ends, whatever the path does in between
    heights = [h]
    for ratio in ratios:
        heights.append(heights[-1] * ratio)
    path = SampledPolyline1D([i * step for i in range(len(heights))], heights)
    h2 = partner * h
    za, zb = path.values[0], path.values[-1]
    a, b = za + h2, zb + h2
    k = 3.0 * TWO_LEVEL.transitions[0].omega_eg * alpha_static(TWO_LEVEL) / (FOUR_PI_EPS0 * C_LIGHT)
    exact = k * (zb - za) * (a + b) / (2.0 * a * a * b * b)
    window = TimeWindow(path.times[0], path.times[-1])
    res = nonlocal_phase(MirrorScenario(TWO_LEVEL, (path, Constant1D(h2)), window, z_min=0.0),
                         spec)
    assert_sound(res, exact)


#: The path along y = 3e-7 m of ``test_polyline_sagnac_is_geometric``.
SAGNAC_XS = (-3e-6, -1e-6, 0.0, 1e-6, 3e-6)


@pytest.mark.filterwarnings("ignore::casq.errors.NearFieldValidityWarning")
@SOUNDNESS
@given(steps=st.lists(decades(-9, -7), min_size=4, max_size=4), spec=specs())
@example(steps=[1e-8, 2e-8, 5e-9, 2.5e-8], spec=QuadratureSpec(rel_tol=1e-12, abs_tol=0.0))
def test_polyline_sagnac_is_geometric(steps, spec):
    # the line integral of a field along a path does not depend on its pace:
    # any timing of one polyline gives the sum of the straight-line phases of
    # its segments, each taken over its own segment's window
    particle = SpinningParticle(alpha0=1.0e-32, omega_s=8.0e15, omega=(0.0, 0.0, 1.0e5))
    points = [(x, 3e-7, 0.0) for x in SAGNAC_XS]
    times = [0.0]
    for dt in steps:
        times.append(times[-1] + dt)
    path = SampledPolyline3D(times, points)
    segments = [
        sagnac_phase(TWO_LEVEL, particle,
                     StraightLine3D(p, tuple((qi - pi) / (tb - ta) for pi, qi in zip(p, q))),
                     TimeWindow(0.0, tb - ta), spec)
        for ta, tb, p, q in zip(path.times, path.times[1:], path.points, path.points[1:])
    ]
    res = sagnac_phase(TWO_LEVEL, particle, path, TimeWindow(path.times[0], path.times[-1]), spec)
    if res.converged and all(seg.converged for seg in segments):
        oracle = math.fsum(seg.value for seg in segments)
        bound = res.error_estimate + math.fsum(seg.error_estimate for seg in segments)
        assert abs(res.value - oracle) <= bound, (res, oracle)


@pytest.mark.filterwarnings("ignore::casq.errors.NearFieldValidityWarning")
@SOUNDNESS
@given(y=decades(-8, -5), offset=st.floats(-10.0, 10.0), speed=decades(0, 6),
       spin=decades(2, 7), spec=specs())
def test_straight_line_sagnac_estimate_is_sound(y, offset, speed, spin, spec):
    # all-time line past the particle at impact parameter y, perpendicular to Omega
    particle = SpinningParticle(alpha0=1.0e-32, omega_s=8.0e15, omega=(0.0, 0.0, spin))
    line = StraightLine3D((offset * y, y, 0.0), (speed, 0.0, 0.0))
    exact = (15.0 * math.pi / 16.0) * (ell_omega(TWO_LEVEL, particle) / y) ** 6
    res = sagnac_phase(TWO_LEVEL, particle, line, TimeWindow.all_time(), spec)
    # the sign follows the orientation convention of the line integral
    assert_sound(res.replace(value=abs(res.value)), exact)
