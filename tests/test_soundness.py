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

from hypothesis import given, settings
from hypothesis import strategies as st

from casq.constants import C_LIGHT, EPSILON_0, FOUR_PI_EPS0, HBAR
from casq.mirror_phases import MirrorScenario, nonlocal_phase, quasi_static_phase
from casq.quadrature import QuadratureSpec
from casq.sagnac import SpinningParticle, ell_omega, sagnac_phase
from casq.species import AtomSpecies, Transition, alpha_static, mean_square_dipole
from casq.trajectories import Linear1D, StraightLine3D, TimeWindow

TWO_LEVEL = AtomSpecies("two-level", (Transition(2.0e15, 1.0e-58),))
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
@given(y=decades(-8, -5), offset=st.floats(-10.0, 10.0), speed=decades(0, 6),
       spin=decades(2, 7), spec=specs())
def test_straight_line_sagnac_estimate_is_sound(y, offset, speed, spin, spec):
    # all-time line past the particle at impact parameter y, perpendicular to Omega
    particle = SpinningParticle(alpha0=1.0e-32, omega_s=8.0e15, omega=(0.0, 0.0, spin))
    line = StraightLine3D((offset * y, y, 0.0), (speed, 0.0, 0.0))
    exact = (15.0 * math.pi / 16.0) * (ell_omega(TWO_LEVEL, particle) / y) ** 6
    res = sagnac_phase(TWO_LEVEL, particle, line, TimeWindow.all_time(), spec,
                       near_field_warning=False)
    # the sign follows the orientation convention of the line integral
    assert_sound(res.replace(value=abs(res.value)), exact)
