"""Spinning-particle phases: polarizability model, length scale, line integrals."""

import math
import random
import sys
import warnings
from importlib.resources import files

import pytest

from casq.constants import FOUR_PI_EPS0, HBAR
from casq.errors import (
    CollisionGuard,
    NearFieldValidityWarning,
    NegativeRadicand,
    NonPositiveDistance,
    NotTwoLevel,
    OutOfWindow,
    PoleProximity,
    ZeroImpactParameter,
)
from casq.quadrature import QuadratureSpec, line_integral
from casq.sagnac import (
    SpinningParticle,
    alpha_s,
    ell_omega,
    re_alpha_second,
    sagnac_phase,
    sagnac_phase_straightline,
    sagnac_total_symmetric,
)
from casq.scenarios import parse_scenario_dict, run_scenario
from casq.schema import load_json
from casq.species import AtomSpecies, Transition, default_species_db
from casq.trajectories import SampledPolyline3D, StraightLine3D, TimeWindow
from casq.vec3 import cross3, dot3

TWO_LEVEL = AtomSpecies("two-level", (Transition(2.0e15, 1.0e-58),))
PARTICLE = SpinningParticle(alpha0=1.0e-32, omega_s=8.0e15, omega=(0.0, 0.0, 1.0e5))
TIGHT = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=2000)

#: Tests that want the near-field warning say so with ``pytest.warns``.
pytestmark = pytest.mark.filterwarnings("ignore::casq.errors.NearFieldValidityWarning")


# -- rest polarizability ---------------------------------------------------------

def test_alpha_s_static_limit():
    assert alpha_s(PARTICLE, 0.0) == PARTICLE.alpha0


def test_alpha_s_resonant_denominator():
    val = alpha_s(PARTICLE, PARTICLE.omega_s / math.sqrt(2.0))
    assert val.real == pytest.approx(2.0 * PARTICLE.alpha0, rel=1e-12)
    assert val.imag == 0.0


def test_alpha_s_passivity():
    damped = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5), gamma=1e14)
    for frac in (0.1, 0.9, 1.0, 1.5, 4.0):
        assert alpha_s(damped, frac * damped.omega_s).imag >= 0.0


def test_alpha_s_pole_guard():
    with pytest.raises(PoleProximity):
        alpha_s(PARTICLE, PARTICLE.omega_s * (1.0 + 1e-9))
    damped = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5), gamma=1e13)
    assert abs(alpha_s(damped, damped.omega_s)) > 0.0  # finite on resonance


def test_re_alpha_second_static():
    assert re_alpha_second(PARTICLE, 0.0) == pytest.approx(
        2.0 * PARTICLE.alpha0 / PARTICLE.omega_s**2, rel=1e-13
    )


def test_re_alpha_second_even_undamped():
    w = 0.4 * PARTICLE.omega_s
    assert re_alpha_second(PARTICLE, w) == re_alpha_second(PARTICLE, -w)


def test_re_alpha_second_finite_difference():
    step = 1e-4 * PARTICLE.omega_s
    for part in (PARTICLE, SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5), gamma=2e15)):
        for frac in (0.0, 0.3, 0.7):
            w = frac * part.omega_s
            fd = (
                alpha_s(part, w + step)
                - 2.0 * alpha_s(part, w)
                + alpha_s(part, w - step)
            ).real / step**2
            assert fd == pytest.approx(re_alpha_second(part, w), rel=1e-6)


# -- length scale ---------------------------------------------------------------

def test_ell_zero_rotation():
    still = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 0.0))
    assert ell_omega(TWO_LEVEL, still) == 0.0


def test_ell_sixth_root_scaling():
    fast = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 64.0e5))
    assert ell_omega(TWO_LEVEL, fast) == pytest.approx(
        2.0 * ell_omega(TWO_LEVEL, PARTICLE), rel=1e-12
    )


def test_ell_compositional_oracle_low_frequency():
    # w0 << wS: Re alpha'' ~ 2 alpha0 / wS^2, so ell^6 ~ d^2 2 alpha0 Om /(wS^2 (4pi eps0)^2 hbar)
    slow_atom = AtomSpecies("slow", (Transition(8e12, 1e-58),))
    om = 1e5
    expect6 = 1e-58 * 2.0 * PARTICLE.alpha0 * om / (
        PARTICLE.omega_s**2 * FOUR_PI_EPS0**2 * HBAR
    )
    assert ell_omega(slow_atom, PARTICLE) ** 6 == pytest.approx(expect6, rel=1e-5)


def test_ell_negative_radicand():
    # transition above the sphere resonance flips the sign of alpha''
    hot_atom = AtomSpecies("hot", (Transition(1.2e16, 1e-58),))
    with pytest.raises(NegativeRadicand) as err:
        ell_omega(hot_atom, SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5)))
    assert err.value.value < 0.0


# -- closed forms ------------------------------------------------------------------

def test_straightline_at_ell():
    ell = ell_omega(TWO_LEVEL, PARTICLE)
    val = sagnac_phase_straightline(TWO_LEVEL, PARTICLE, ell)
    assert val == pytest.approx(15.0 * math.pi / 16.0, rel=1e-12)
    assert val == pytest.approx(2.9452431, rel=1e-6)


def test_straightline_sign_and_power_law():
    y = 2e-7
    plus = sagnac_phase_straightline(TWO_LEVEL, PARTICLE, y)
    minus = sagnac_phase_straightline(TWO_LEVEL, PARTICLE, -y)
    assert minus == -plus
    assert sagnac_phase_straightline(TWO_LEVEL, PARTICLE, 2.0 * y) == pytest.approx(
        plus / 64.0, rel=1e-12
    )
    with pytest.raises(ZeroImpactParameter):
        sagnac_phase_straightline(TWO_LEVEL, PARTICLE, 0.0)


def test_symmetric_total_at_ell():
    ell = ell_omega(TWO_LEVEL, PARTICLE)
    res = sagnac_total_symmetric(TWO_LEVEL, PARTICLE, ell)
    assert res.value == pytest.approx(21.0 * math.pi / 16.0, rel=1e-12)
    assert res.value == pytest.approx(4.1233403, rel=1e-6)
    assert res.value / res.breakdown["local_difference"] == pytest.approx(0.7, rel=1e-13)
    doubled = sagnac_total_symmetric(TWO_LEVEL, PARTICLE, 2.0 * ell)
    assert doubled.value == pytest.approx(res.value / 64.0, rel=1e-12)
    with pytest.raises(NotTwoLevel):
        sagnac_total_symmetric(
            AtomSpecies("m", (Transition(1e15, 1e-59), Transition(2e15, 1e-59))),
            PARTICLE,
            1e-7,
        )


# -- line-integral phase -----------------------------------------------------------

def test_phase_zero_rotation():
    still = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 0.0))
    traj = StraightLine3D((0.0, 3e-7, 0.0), (100.0, 0.0, 0.0))
    res = sagnac_phase(TWO_LEVEL, still, traj, TimeWindow.all_time())
    assert res.value == 0.0


def test_phase_of_a_line_at_rest_is_zero():
    # at rest the all-time integral is centred on t* = 0 with unit width
    traj = StraightLine3D((1e-7, 2e-7, 2e-7), (0.0, 0.0, 0.0))
    assert traj.improper_time_scale() == (0.0, 1.0)
    res = sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow.all_time())
    assert res.value == 0.0 and res.converged


def test_phase_radial_path_zero():
    # dr parallel to r: the integrand vanishes identically
    traj = StraightLine3D((1e-7, 1e-7, 1e-8), (10.0, 10.0, 1.0))
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30)
    res = sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow(0.0, 1e-8), spec)
    assert abs(res.value) < 1e-25


def test_phase_matches_closed_form_magnitude():
    rng = random.Random(99)
    for _ in range(5):
        y = rng.choice([-1.0, 1.0]) * rng.uniform(5e-8, 5e-7)
        v = rng.uniform(1.0, 1e3)
        traj = StraightLine3D((0.0, y, 0.0), (v, 0.0, 0.0))
        num = sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow.all_time(), TIGHT)
        closed = sagnac_phase_straightline(TWO_LEVEL, PARTICLE, y)
        assert abs(num.value) == pytest.approx(abs(closed), rel=1e-6)
        # sign antisymmetry in the impact parameter
        mirror = StraightLine3D((0.0, -y, 0.0), (v, 0.0, 0.0))
        num2 = sagnac_phase(TWO_LEVEL, PARTICLE, mirror, TimeWindow.all_time(), TIGHT)
        assert num2.value == pytest.approx(-num.value, rel=1e-8)


def test_phase_linear_in_rotation():
    y, v = 3e-7, 100.0
    traj = StraightLine3D((0.0, y, 0.0), (v, 0.0, 0.0))
    base = sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow.all_time(), TIGHT)
    twice = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 2e5))
    res = sagnac_phase(TWO_LEVEL, twice, traj, TimeWindow.all_time(), TIGHT)
    assert res.value == pytest.approx(2.0 * base.value, rel=1e-9)


def test_phase_integrand_is_v_dot_field_bit_for_bit(monkeypatch):
    # the fused integrand keeps the arithmetic of dot3(r', F(r)) with this
    # field, r' the path's tangent, node for node, and the integral
    # line_integral gives
    omega = (3e4, -2e4, 1e5)
    particle = SpinningParticle(1e-32, 8e15, omega)

    def field(r):
        w = 1.0 / dot3(r, r) ** 4
        c = cross3(omega, r)
        return (c[0] * w, c[1] * w, c[2] * w)

    cases = [
        (StraightLine3D((1e-8, 3e-7, -2e-8), (100.0, 20.0, -5.0)), TimeWindow.all_time()),
        (StraightLine3D((-1e-6, 2e-7, 1e-7), (300.0, 0.0, 10.0)), TimeWindow(0.0, 6e-9)),
        (SampledPolyline3D((0.0, 1e-9, 3e-9), ((-2e-7, 3e-7, 0.0), (1e-7, 2e-7, 5e-8),
                                               (4e-7, 4e-7, 1e-7))), TimeWindow(0.0, 3e-9)),
    ]
    rng = random.Random(3)
    for traj, window in cases:
        res = sagnac_phase(TWO_LEVEL, particle, traj, window, TIGHT)
        assert res.breakdown["line_integral"] == line_integral(field, traj, window, TIGHT).value
        seen = []
        monkeypatch.setattr("casq.sagnac.integrate_over_window",
                            lambda f, *args: seen.append(f) or res)
        sagnac_phase(TWO_LEVEL, particle, traj, window, TIGHT)
        lo, hi = (-1e-8, 1e-8) if window.improper else (window.t_start, window.t_end)
        for t in [rng.uniform(lo, hi) for _ in range(2000)]:
            assert seen[0](t) == dot3(traj.tangent(t), field(traj.position(t))), t
        monkeypatch.undo()


class _Captured(Exception):
    pass


@pytest.mark.filterwarnings("ignore::casq.errors.NearFieldValidityWarning")
def test_phase_integrand_past_r8_overflow(monkeypatch):
    # where r^8 overflows, r^-8 is (1/r^2)^4: subnormal at |r|^2 = 1e78, 0 at 1e160
    def capture(f, *args):
        raise _Captured(f)

    monkeypatch.setattr("casq.sagnac.integrate_over_window", capture)
    inv = 1.0 / 1e78
    w = inv * inv * inv * inv
    assert 0.0 < w < sys.float_info.min
    for y, expected in [(1e39, 100.0 * (-(1e5 * 1e39) * w)), (1e80, 0.0)]:
        traj = StraightLine3D((0.0, y, 0.0), (100.0, 0.0, 0.0))
        with pytest.raises(_Captured) as captured:
            sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow(0.0, 1e-9))
        assert captured.value.args[0](0.0) == expected
    assert 100.0 * (-(1e5 * 1e39) * w) != 0.0


def _rotation_matrix(axis, angle):
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return (
        (t * x * x + c, t * x * y - s * z, t * x * z + s * y),
        (t * x * y + s * z, t * y * y + c, t * y * z - s * x),
        (t * x * z - s * y, t * y * z + s * x, t * z * z + c),
    )


def _apply(m, v):
    return tuple(dot3(row, v) for row in m)


def test_phase_rotation_covariance():
    y, v = 3e-7, 100.0
    traj = StraightLine3D((0.0, y, 0.0), (v, 0.0, 0.0))
    base = sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow.all_time(), TIGHT)
    axis = (1.0 / math.sqrt(3.0),) * 3
    m = _rotation_matrix(axis, 0.7)
    rotated_traj = StraightLine3D(_apply(m, traj.r0), _apply(m, traj.v))
    rotated_particle = SpinningParticle(1e-32, 8e15, _apply(m, PARTICLE.omega))
    res = sagnac_phase(TWO_LEVEL, rotated_particle, rotated_traj,
                       TimeWindow.all_time(), TIGHT)
    assert res.value == pytest.approx(base.value, rel=1e-8)


def test_phase_in_plane_rotation_axis_vanishes():
    # Omega in the plane of motion, path through the z = 0 plane:
    # dr . (Omega x r) = 0 pointwise
    particle = SpinningParticle(1e-32, 8e15, (1e5, 0.0, 0.0))
    traj = StraightLine3D((0.0, 3e-7, 0.0), (100.0, 0.0, 0.0))
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-30)
    res = sagnac_phase(TWO_LEVEL, particle, traj, TimeWindow.all_time(), spec)
    assert abs(res.value) < 1e-25


def test_phase_riemann_sum_cross_check():
    # brute-force midpoint Riemann sum over a bounded window
    y, v = 3e-7, 100.0
    om = PARTICLE.omega
    traj = StraightLine3D((0.0, y, 0.0), (v, 0.0, 0.0))
    t0, t1 = -20.0 * y / v, 20.0 * y / v
    res = sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow(t0, t1), TIGHT)
    n = 1_000_000
    dt = (t1 - t0) / n
    acc = 0.0
    for i in range(n):
        t = t0 + (i + 0.5) * dt
        r = traj.position(t)
        rr = r[0] ** 2 + r[1] ** 2 + r[2] ** 2
        cx = om[1] * r[2] - om[2] * r[1]
        acc += v * cx / rr**4 * dt
    expect = res.breakdown["prefactor"] * acc
    assert res.value == pytest.approx(expect, rel=1e-6)


def test_phase_collision_guard():
    guarded = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5), radius=1e-7)
    traj = StraightLine3D((0.0, 5e-8, 0.0), (100.0, 0.0, 0.0))
    with pytest.raises(CollisionGuard):
        sagnac_phase(TWO_LEVEL, guarded, traj, TimeWindow.all_time())


def test_phase_collision_guard_mid_window():
    # closest approach at the window centre, well inside the radius
    guarded = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5), radius=1e-2)
    traj = StraightLine3D((0.0, 1e-4, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(CollisionGuard):
        sagnac_phase(TWO_LEVEL, guarded, traj, TimeWindow(-1.0, 1.0))


def _line_must_not_run(monkeypatch):
    def must_not_run(*args, **kwargs):
        pytest.fail("the line integral ran")

    monkeypatch.setattr("casq.sagnac.integrate_over_window", must_not_run)


@pytest.mark.parametrize("depth", [1e-2, 1e-3, 1e-4, 1e-9])
def test_phase_graze_at_window_end_trips_collision_guard(monkeypatch, depth):
    # the path ends a fraction ``depth`` of the radius inside the particle:
    # no quadrature node comes that close, the exact closest approach does
    radius, y = 1e-7, 5e-8
    guarded = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5), radius=radius)
    traj = StraightLine3D((-1e-6, y, 0.0), (100.0, 0.0, 0.0))
    x_end = -math.sqrt((radius * (1.0 - depth)) ** 2 - y * y)
    window = TimeWindow(0.0, (x_end + 1e-6) / 100.0)
    assert traj.closest_approach(window) < radius
    _line_must_not_run(monkeypatch)
    with pytest.raises(CollisionGuard, match="inside the particle radius 1e-07 m"):
        sagnac_phase(TWO_LEVEL, guarded, traj, window)


@pytest.mark.parametrize("r0, v, window", [
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), TimeWindow(0.0, 1e-9)),        # at rest on the centre
    ((0.0, 0.0, 0.0), (100.0, 0.0, 0.0), TimeWindow(-1e-9, 1e-9)),    # through it
    ((0.0, 0.0, 0.0), (100.0, 0.0, 0.0), TimeWindow.all_time()),
    ((-1e-6, 0.0, 0.0), (100.0, 0.0, 0.0), TimeWindow(0.0, 1e-8)),   # reaches it at the end
], ids=["at-rest", "through", "through-all-time", "ends-on"])
def test_phase_through_the_centre_is_nonpositive_distance(monkeypatch, r0, v, window):
    _line_must_not_run(monkeypatch)
    with pytest.raises(NonPositiveDistance, match="passes through the particle's centre"):
        sagnac_phase(TWO_LEVEL, PARTICLE, StraightLine3D(r0, v), window)


def test_phase_at_the_radius_runs():
    # a pass exactly at the radius is outside it: closest approach >= radius
    guarded = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5), radius=1e-7)
    traj = StraightLine3D((0.0, 1e-7, 0.0), (100.0, 0.0, 0.0))
    res = sagnac_phase(TWO_LEVEL, guarded, traj, TimeWindow.all_time(), TIGHT)
    bare = sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow.all_time(), TIGHT)
    assert res.converged and res.value == bare.value


def test_near_field_validity_warning():
    # tens of micrometers: omega_eg * d / c well above 0.1
    traj = StraightLine3D((0.0, 5e-5, 0.0), (100.0, 0.0, 0.0))
    with pytest.warns(NearFieldValidityWarning):
        sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow.all_time(), TIGHT)


def test_near_field_check_uses_exact_closest_approach():
    # a sampled scan of [-1 us, 1 us] steps over t = 0 and finds 3.9e-7 m
    # (omega_eg * d / c = 2.6); the path passes at 1e-8 m (0.067)
    traj = StraightLine3D((0.0, 1e-8, 0.0), (100.0, 0.0, 0.0))
    window = TimeWindow(-1e-6, 1e-6)
    assert traj.closest_approach(window) == 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearFieldValidityWarning)
        sagnac_phase(TWO_LEVEL, PARTICLE, traj, window)


def test_closest_approach_straight_line_clamped_and_at_rest():
    traj = StraightLine3D((0.0, 3e-7, 0.0), (100.0, 0.0, 0.0))
    # the window ends while the path is still 2e-7 m short of x = 0
    assert traj.closest_approach(TimeWindow(-4e-9, -2e-9)) == pytest.approx(
        math.hypot(2e-7, 3e-7), rel=1e-15, abs=0.0)
    at_rest = StraightLine3D((1e-7, 2e-7, 2e-7), (0.0, 0.0, 0.0))
    assert at_rest.closest_approach(TimeWindow.all_time()) == pytest.approx(
        3e-7, rel=1e-15, abs=0.0)


def test_closest_approach_polyline_inside_segment():
    traj = SampledPolyline3D((0.0, 1e-9), ((-1e-7, 3e-7, 0.0), (1e-7, 3e-7, 0.0)))
    assert traj.closest_approach(TimeWindow(0.0, 1e-9)) == pytest.approx(
        3e-7, rel=1e-15, abs=0.0)
    # clipped to the window: the nearest point is the window end
    assert traj.closest_approach(TimeWindow(0.0, 2.5e-10)) == pytest.approx(
        math.hypot(5e-8, 3e-7), rel=1e-15, abs=0.0)


def test_closest_approach_polyline_beyond_samples():
    traj = SampledPolyline3D((0.0, 1e-9), ((-1e-7, 3e-7, 0.0), (1e-7, 3e-7, 0.0)))
    with pytest.raises(OutOfWindow):
        sagnac_phase(TWO_LEVEL, PARTICLE, traj, TimeWindow(0.0, 2e-9))


def test_bundled_sagnac_numeric_still_warns():
    path = str(files("casq.data").joinpath("scenarios/sagnac_numeric.json"))
    sc = parse_scenario_dict(load_json(path), default_species_db(), path)
    with pytest.warns(NearFieldValidityWarning):
        run_scenario(sc)
