"""Trajectory kinds, transformations, and window validation."""

import math
import random

import pytest

from casq.constants import C_LIGHT
from casq.errors import CollisionGuard, ImproperWindow, NonPositiveDistance, OutOfWindow
from casq.trajectories import (
    Constant1D,
    Harmonic1D,
    Linear1D,
    SampledPolyline1D,
    SampledPolyline3D,
    StraightLine3D,
    TimeWindow,
    light_delay,
    reparametrize,
    reparametrize_window,
    reverse,
    validate_positive_over_window,
)


def test_linear_position():
    assert Linear1D(1.0, 2.0).position(3.0) == 7.0


def test_harmonic_phase_zero():
    tr = Harmonic1D(1.0, 0.5, 3.0, 0.0)
    assert tr.position(0.0) == 1.0
    assert tr.velocity(0.0) == 0.5 * 3.0


def test_constant_velocity_zero():
    assert Constant1D(2.0).velocity(123.4) == 0.0


def test_sampled_midpoint_interpolation():
    tr = SampledPolyline1D((0.0, 1.0), (1.0, 3.0))
    assert tr.position(0.5) == 2.0


def test_sampled_out_of_window():
    tr = SampledPolyline1D((0.0, 1.0), (1.0, 3.0))
    with pytest.raises(OutOfWindow):
        tr.position(1.5)


def test_breakpoints_are_sample_times_strictly_inside():
    times = (0.0, 1.0, 2.0, 3.0, 4.0)
    tr1 = SampledPolyline1D(times, (1.0, 2.0, 1.0, 2.0, 1.0))
    tr3 = SampledPolyline3D(times, tuple((t, 1.0, 0.0) for t in times))
    for tr in (tr1, tr3):
        assert tr.breakpoints(0.0, 4.0) == (1.0, 2.0, 3.0)
        assert tr.breakpoints(1.0, 2.5) == (2.0,)
        assert tr.breakpoints(1.0, 2.0) == ()
    assert Linear1D(1.0, 1.0).breakpoints(0.0, 4.0) == ()
    assert StraightLine3D((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)).breakpoints(0.0, 4.0) == ()


def test_sampled_harmonic_fd_velocity():
    omega = 2.0 * math.pi * 1e4
    analytic = Harmonic1D(1e-6, 3e-7, omega)
    dt = 1e-4 / omega
    n = int(2e-4 / dt) + 1
    ts = tuple(i * dt for i in range(n))
    sampled = SampledPolyline1D(ts, tuple(analytic.position(t) for t in ts))
    rng = random.Random(5)
    vmax = analytic.amplitude * omega
    for _ in range(50):
        t = rng.uniform(10 * dt, ts[-1] - 10 * dt)
        fd = sampled.velocity(t)
        ref = analytic.velocity(t)
        assert abs(fd - ref) <= 1e-6 * max(abs(ref), 1e-3 * vmax)


def test_light_delay():
    assert light_delay(C_LIGHT / 2.0) == 1.0
    tau = light_delay(1e-6)
    assert tau == 2e-6 / C_LIGHT
    assert tau == pytest.approx(6.6713e-15, rel=1e-4)
    assert light_delay(2e-6) == pytest.approx(2.0 * tau, rel=1e-15)
    with pytest.raises(NonPositiveDistance):
        light_delay(0.0)


# -- reparametrize ---------------------------------------------------------------

def test_reparametrize_identity():
    tr = Linear1D(1.0, 2.0)
    assert reparametrize(tr, 1.0) == tr


def test_reparametrize_linear():
    tr = reparametrize(Linear1D(1.0, 2.0), 2.0)
    assert tr == Linear1D(1.0, 4.0)
    w = reparametrize_window(TimeWindow(0.0, 2.0), 2.0)
    assert (w.t_start, w.t_end) == (0.0, 1.0)


def test_reparametrize_round_trip():
    tr = Harmonic1D(1.0, 0.25, 8.0, 0.3)
    back = reparametrize(reparametrize(tr, 2.0), 0.5)
    assert back == tr


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_reparametrize_time_map(lam):
    rng = random.Random(11)
    trajs = [
        Linear1D(1.0, 0.1),
        Harmonic1D(1.0, 0.3, 5.0, 0.7),
        StraightLine3D((1.0, 2.0, 3.0), (0.5, -0.25, 1.0)),
    ]
    for tr in trajs:
        fast = reparametrize(tr, lam)
        for _ in range(20):
            t = rng.uniform(-2.0, 2.0)
            p_fast = fast.position(t)
            p_base = tr.position(lam * t)
            if isinstance(p_fast, tuple):
                assert all(a == pytest.approx(b, rel=1e-12, abs=1e-15)
                           for a, b in zip(p_fast, p_base))
            else:
                assert p_fast == pytest.approx(p_base, rel=1e-12)


def test_reparametrize_requires_positive_lambda():
    with pytest.raises(ValueError):
        reparametrize(Constant1D(1.0), 0.0)


# -- reverse ---------------------------------------------------------------------

def test_reverse_constant_fixed_point():
    w = TimeWindow(0.0, 1.0)
    assert reverse(Constant1D(2.0), w) == Constant1D(2.0)


def test_reverse_linear_endpoints():
    w = TimeWindow(0.0, 3.0)
    tr = reverse(Linear1D(1.0, 2.0), w)
    assert tr == Linear1D(7.0, -2.0)
    assert tr.position(0.0) == 7.0
    assert tr.position(3.0) == pytest.approx(1.0)


def test_reverse_involution():
    w = TimeWindow(-1.0, 2.0)
    for tr in (Linear1D(1.0, 2.0), Harmonic1D(2.0, 0.5, 3.0, 0.1),
               SampledPolyline1D((-1.0, 0.5, 2.0), (1.0, 2.0, 1.5))):
        twice = reverse(reverse(tr, w), w)
        rng = random.Random(13)
        for _ in range(10):
            t = rng.uniform(-1.0, 2.0)
            assert twice.position(t) == pytest.approx(tr.position(t), rel=1e-12)


def test_reverse_requires_bounded_window():
    with pytest.raises(ImproperWindow):
        reverse(Linear1D(1.0, 1.0), TimeWindow.all_time())


# -- validation ------------------------------------------------------------------

def test_window_validation():
    with pytest.raises(ValueError):
        TimeWindow(1.0, 1.0)
    w = TimeWindow.all_time()
    assert w.improper and w.duration == math.inf


def test_harmonic_must_stay_positive():
    with pytest.raises(ValueError):
        Harmonic1D(1.0, 1.5, 2.0)


def test_positive_over_window():
    validate_positive_over_window(Linear1D(1.0, -0.1), TimeWindow(0.0, 5.0))
    with pytest.raises(NonPositiveDistance):
        validate_positive_over_window(Linear1D(1.0, -0.3), TimeWindow(0.0, 5.0))
    with pytest.raises(CollisionGuard):
        validate_positive_over_window(
            Linear1D(1.0, -0.1), TimeWindow(0.0, 5.0), z_min=0.9
        )
    with pytest.raises(OutOfWindow):
        validate_positive_over_window(
            SampledPolyline1D((0.0, 1.0), (1.0, 1.0)), TimeWindow(0.0, 2.0)
        )
    with pytest.raises(NonPositiveDistance):
        validate_positive_over_window(Linear1D(1.0, -1e-3), TimeWindow.all_time())
