"""Trajectory kinds, transformations, and window validation."""

import ast
import math
import pathlib
import random
import re

import pytest

import casq
from casq.constants import C_LIGHT
from casq.errors import CollisionGuard, ImproperWindow, NonPositiveDistance, OutOfWindow
from casq.mirror_phases import MirrorScenario
from casq.species import AtomSpecies, Transition
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


@pytest.mark.parametrize("far", [1.0, 1e150, -1e150])
def test_sampled_position_at_each_sample_time_is_its_sample(far):
    # interpolation starts from the nearer sample, so a small sample next to
    # a far one is not lost to rounding
    times = (0.0, 1e-9, 2e-9, 3e-9)
    values = (far, 1e-9, 1.0, far)
    points = ((0.0, 0.0, far), (3e-7, 4e-7, -1.0), (1e-9, far, 2.0), (far, far, 1e-300))
    tr1 = SampledPolyline1D(times, values)
    tr3 = SampledPolyline3D(times, points)
    for t, z, p in zip(times, values, points):
        assert tr1.position(t) == z
        assert tr3.position(t) == p


def test_sampled_interpolation_of_huge_values_does_not_overflow():
    # (z1 - z0) * (t - t0) overflows before its division; the weight
    # (t - t0) / (t1 - t0) first does not, from either sample
    times = (0.0, 1e10)
    tr1 = SampledPolyline1D(times, (1e300, 1e-6))
    tr3 = SampledPolyline3D(times, ((0.0, 0.0, 1e300), (0.0, 0.0, 1e-6)))
    for t, z in [(4e9, 6e299), (7e9, 3e299)]:
        assert tr1.position(t) == pytest.approx(z, rel=1e-15)
        assert tr1.position(t) == tr3.position(t)[2]


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


def test_sampled_3d_velocity_is_the_1d_velocity_of_each_coordinate():
    times = (0.0, 0.3, 1.1, 2.0, 2.2)
    points = ((1.0, -2.0, 3e-7), (1.5, 0.25, 2e-7), (0.7, 1e3, -4e-7), (2.0, 3.0, 1e-9),
              (2.5, -1e-3, 5e-7))
    tr3 = SampledPolyline3D(times, points)
    coords = [SampledPolyline1D(times, tuple(p[k] for p in points)) for k in range(3)]
    rng = random.Random(7)
    for t in [*times, *(rng.uniform(times[0], times[-1]) for _ in range(200))]:
        assert tr3.velocity(t) == tuple(c.velocity(t) for c in coords), t


def test_sampled_velocity_at_the_end_samples_is_the_end_slope():
    # the difference is one-sided within one step (half the mean spacing) of
    # either end, so it never leaves the samples
    times = (0.0, 1.0, 2.0, 3.0)
    tr1 = SampledPolyline1D(times, (1.0, 3.0, 2.0, 6.0))
    tr3 = SampledPolyline3D(times, ((1.0, 0.0, -1.0), (3.0, 0.0, 1.0), (2.0, 0.0, 3.0),
                                    (6.0, 0.0, -5.0)))
    assert tr1.velocity(0.0) == 2.0 and tr1.velocity(3.0) == 4.0
    assert tr3.velocity(0.0) == (2.0, 0.0, 2.0) and tr3.velocity(3.0) == (4.0, 0.0, -8.0)


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


#: One path of each kind, three 1D paths carrying surface-velocity metadata.
ALL_KINDS = (
    Constant1D(1.0, v_parallel=3.0),
    Linear1D(1.0, 0.1),
    Linear1D(1.0, 0.1, v_parallel=-2.0),
    Harmonic1D(1.0, 0.3, 5.0, 0.7),
    Harmonic1D(1.0, 0.3, 5.0, 0.7, v_parallel=0.5),
    SampledPolyline1D((-20.0, -1.0, 0.5, 20.0), (1.0, 2.0, 1.5, 1.2)),
    StraightLine3D((1.0, 2.0, 3.0), (0.5, -0.25, 1.0)),
    SampledPolyline3D((-20.0, 0.0, 20.0), ((1.0, 2.0, 3.0), (0.5, -1.0, 2.0), (0.0, 1.0, 1.0))),
)


def _same_point(a, b, rel):
    if isinstance(a, tuple):
        return all(x == pytest.approx(y, rel=rel, abs=1e-15) for x, y in zip(a, b))
    return a == pytest.approx(b, rel=rel)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_reparametrize_time_map(lam):
    rng = random.Random(11)
    for tr in ALL_KINDS:
        fast = reparametrize(tr, lam)
        assert type(fast) is type(tr)
        if hasattr(tr, "v_parallel"):
            vp = tr.v_parallel
            assert fast.v_parallel == (None if vp is None else vp * lam)
        for _ in range(20):
            t = rng.uniform(-2.0, 2.0)
            assert _same_point(fast.position(t), tr.position(lam * t), 1e-12)


def test_reparametrize_window_keeps_all_time():
    w = TimeWindow.all_time()
    assert reparametrize_window(w, 3.0) is w


def test_reparametrize_requires_positive_lambda():
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            reparametrize(Constant1D(1.0), lam)
        with pytest.raises(ValueError, match="lambda"):
            reparametrize_window(TimeWindow(0.0, 1.0), lam)


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
    s = w.t_start + w.t_end
    for tr in (Linear1D(1.0, 2.0), Harmonic1D(2.0, 0.5, 3.0, 0.1),
               SampledPolyline1D((-1.0, 0.5, 2.0), (1.0, 2.0, 1.5))) + ALL_KINDS:
        back = reverse(tr, w)
        twice = reverse(back, w)
        assert type(back) is type(tr)
        if hasattr(tr, "v_parallel"):
            vp = tr.v_parallel
            assert back.v_parallel == (None if vp is None else -vp)
            assert twice.v_parallel == vp
        rng = random.Random(13)
        for _ in range(10):
            t = rng.uniform(-1.0, 2.0)
            assert _same_point(back.position(t), tr.position(s - t), 1e-12)
            assert _same_point(twice.position(t), tr.position(t), 1e-12)


def test_reverse_requires_bounded_window():
    with pytest.raises(ImproperWindow):
        reverse(Linear1D(1.0, 1.0), TimeWindow.all_time())


# -- validation ------------------------------------------------------------------

def test_window_validation():
    with pytest.raises(ValueError):
        TimeWindow(1.0, 1.0)
    w = TimeWindow.all_time()
    assert w.improper and w.t_end - w.t_start == math.inf


def test_harmonic_must_stay_positive():
    with pytest.raises(ValueError):
        Harmonic1D(1.0, 1.5, 2.0)


#: (build(x), the field x fills) for every number a path kind holds.
_PATH_FIELDS = (
    (lambda x: Constant1D(x), "Constant1D: h"),
    (lambda x: Constant1D(1.0, v_parallel=x), "Constant1D: v_parallel"),
    (lambda x: Linear1D(x, 1.0), "Linear1D: h"),
    (lambda x: Linear1D(1.0, x), "Linear1D: v"),
    (lambda x: Linear1D(1.0, 1.0, v_parallel=x), "Linear1D: v_parallel"),
    (lambda x: Harmonic1D(x, 0.25, 1.0), "Harmonic1D: h"),
    (lambda x: Harmonic1D(1.0, x, 1.0), "Harmonic1D: amplitude"),
    (lambda x: Harmonic1D(1.0, 0.5, x), "Harmonic1D: omega_cm"),
    (lambda x: Harmonic1D(1.0, 0.5, 1.0, phase0=x), "Harmonic1D: phase0"),
    (lambda x: Harmonic1D(1.0, 0.5, 1.0, v_parallel=x), "Harmonic1D: v_parallel"),
    (lambda x: SampledPolyline1D((0.0, x), (1.0, 1.0)), "SampledPolyline1D: times"),
    (lambda x: SampledPolyline1D((0.0, 1.0), (1.0, x)), "SampledPolyline1D: values"),
    (lambda x: SampledPolyline1D((0.0, 1.0), (1.0, 1.0), x), "SampledPolyline1D: v_parallel"),
    (lambda x: StraightLine3D((0.0, x, 0.0), (1.0, 0.0, 0.0)), "StraightLine3D: r0"),
    (lambda x: StraightLine3D((0.0, 1.0, 0.0), (x, 0.0, 0.0)), "StraightLine3D: v"),
    (lambda x: SampledPolyline3D((x, 1.0), ((0.0, 1.0, 0.0),) * 2), "SampledPolyline3D: times"),
    (lambda x: SampledPolyline3D((0.0, 1.0), ((0.0, 1.0, 0.0), (1.0, 1.0, x))),
     "SampledPolyline3D: points"),
)


@pytest.mark.parametrize("build, field", _PATH_FIELDS, ids=[f for _, f in _PATH_FIELDS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_path_fields_must_be_finite(build, field, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite, got "):
        build(bad)
    build(0.5)  # the same call with a finite number constructs


def test_reparametrize_refuses_an_overflowed_field():
    # lambda is finite, but the scaled field is not
    with pytest.raises(ValueError, match="^Linear1D: v must be finite, got inf$"):
        reparametrize(Linear1D(1e-6, 1e300), 1e10)
    with pytest.raises(ValueError, match="^SampledPolyline1D: times must be finite, got inf$"):
        reparametrize(SampledPolyline1D((0.0, 1e300), (1e-6, 1e-6)), 1e-10)
    with pytest.raises(ValueError, match="^Harmonic1D: omega_cm must be finite"):
        reparametrize(Harmonic1D(1e-6, 1e-7, 1e300), 1e10)
    with pytest.raises(ValueError, match="^StraightLine3D: v must be finite"):
        reparametrize(StraightLine3D((0.0, 1e-7, 0.0), (1e300, 0.0, 0.0)), 1e10)


def test_infinite_height_never_reaches_a_phase():
    # an infinite height used to give a quasi-static phase of 0.0 reported
    # as converged; it is refused before any scenario holds it
    with pytest.raises(ValueError, match="^Constant1D: h must be finite, got inf$"):
        Constant1D(math.inf)


_DIP = SampledPolyline1D((0.0, 1.0, 2.0, 3.0), (1.0, 0.25, 1.0, -1.0))

#: (path, window, z_min, error, the point its message names): the minimum is
#: analytic, at a window end, or at a sample, and samples come before ends.
_LOWEST_POINTS = (
    (Constant1D(0.0), TimeWindow(0.0, 1.0), 0.0, NonPositiveDistance, "all t"),
    (Constant1D(0.5), TimeWindow.all_time(), 0.75, ImproperWindow, "bounded window"),
    (Harmonic1D(1.0, 0.5, 2.0), TimeWindow(0.0, 3.0), 0.75, CollisionGuard,
     "harmonic minimum"),  # the phase runs 0 -> 6 rad, past the trough at 3 pi/2
    (Harmonic1D(1.0, 0.5, -2.0), TimeWindow(0.0, 1.0), 0.75, CollisionGuard,
     "harmonic minimum"),  # 0 -> -2 rad, past the trough at -pi/2
    (Harmonic1D(1.0, 0.5, 2.0), TimeWindow(2.0, 2.3), 0.55, CollisionGuard,
     "window end"),  # 4 -> 4.6 rad, falling towards the trough at 4.71 rad
    (Harmonic1D(1.0, 0.5, 1.0), TimeWindow(0.0, math.nextafter(1.5 * math.pi, 0.0)), 0.75,
     CollisionGuard, "harmonic minimum"),  # one ulp short of the trough: within rounding
    (Linear1D(1.0, 0.3), TimeWindow(-5.0, 0.0), 0.0, NonPositiveDistance, "window start"),
    (Linear1D(1.0, -0.1), TimeWindow(0.0, 5.0), 0.75, CollisionGuard, "window end"),
    (Linear1D(0.5, 0.0), TimeWindow.all_time(), 0.75, ImproperWindow, "bounded window"),
    (Linear1D(1.0, 1e-3), TimeWindow.all_time(), 0.0, ImproperWindow, "bounded window"),
    (_DIP, TimeWindow(0.5, 1.5), 0.5, CollisionGuard, "sample t = 1.0"),
    (_DIP, TimeWindow(1.0, 1.5), 0.5, CollisionGuard, "sample t = 1.0"),  # on the start
    (_DIP, TimeWindow(1.0, 3.0), 0.0, NonPositiveDistance, "sample t = 3.0"),
    (_DIP, TimeWindow(1.5, 2.75), 0.0, NonPositiveDistance, "window end"),
    (_DIP, TimeWindow(0.5, 0.75), 0.7, CollisionGuard, "window start"),
    (_DIP, TimeWindow.all_time(), 0.0, ImproperWindow, "bounded window"),
    (_DIP, TimeWindow(-1.0, 0.5), 0.0, OutOfWindow, "exceeds sample range"),
)


_ATOM = AtomSpecies("two-level", (Transition(2.0e15, 1.0e-58),))


def _mirror_scenario(traj, window, z_min=0.0):
    """A mirror scenario, which checks its path over its window."""
    return MirrorScenario(_ATOM, (traj,), window, z_min=z_min)


def test_positive_over_window():
    _mirror_scenario(Linear1D(1.0, -0.1), TimeWindow(0.0, 5.0))
    _mirror_scenario(_DIP, TimeWindow(0.0, 2.0), z_min=0.25)
    # the phase runs 0 -> 2 rad, rising then falling: z stays >= 1 on it
    _mirror_scenario(Harmonic1D(1.0, 0.5, 2.0), TimeWindow(0.0, 1.0), z_min=0.75)
    with pytest.raises(NonPositiveDistance):
        _mirror_scenario(Linear1D(1.0, -0.3), TimeWindow(0.0, 5.0))
    with pytest.raises(CollisionGuard):
        _mirror_scenario(Linear1D(1.0, -0.1), TimeWindow(0.0, 5.0), z_min=0.9)
    with pytest.raises(OutOfWindow):
        _mirror_scenario(SampledPolyline1D((0.0, 1.0), (1.0, 1.0)), TimeWindow(0.0, 2.0))
    with pytest.raises(ImproperWindow):
        _mirror_scenario(Linear1D(1.0, -1e-3), TimeWindow.all_time())
    for traj, window, z_min, error, where in _LOWEST_POINTS:
        with pytest.raises(error, match=re.escape(where)) as info:
            _mirror_scenario(traj, window, z_min=z_min)
        assert type(info.value) is error
        if error is CollisionGuard:
            assert str(info.value).endswith(f"below the near-contact cutoff {z_min!r}")


# -- structure -------------------------------------------------------------------

PATH_KINDS = {"Constant1D", "Linear1D", "Harmonic1D", "SampledPolyline1D",
              "StraightLine3D", "SampledPolyline3D"}


def _named_classes(node):
    """Names of the classes an ``isinstance`` second argument refers to."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _named_classes(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def test_no_module_switches_on_path_kind():
    """Each path kind answers for itself: no casq module tests an object
    against a path kind with ``isinstance``."""
    hits = []
    for path in sorted(pathlib.Path(casq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and _named_classes(node.args[1]) & PATH_KINDS):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def _names(tree):
    """Every name, imported name and attribute name in a module's tree."""
    return {getattr(node, attr) for node in ast.walk(tree)
            for attr in ("id", "name", "attr") if isinstance(getattr(node, attr, None), str)}


def test_mirror_layer_has_no_all_time_branch():
    """An all-time window is refused once, by MirrorScenario:
    the mirror phases never reach integrate_improper, and no 1D kind's
    ``_lowest`` reads ``window.improper``."""
    src = pathlib.Path(casq.__file__).parent
    assert "integrate_improper" not in _names(ast.parse((src / "mirror_phases.py").read_text()))
    lowest = [node for node in ast.walk(ast.parse((src / "trajectories.py").read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "_lowest"]
    assert len(lowest) == 4
    assert all("improper" not in _names(fn) for fn in lowest)


def test_mirror_integrands_run_no_guard():
    """Each mirror window is checked once, before its integral runs: no
    function nested in mirror_phases.py, which is where its integrands live,
    names a guard or the errors a guard raises."""
    tree = ast.parse((pathlib.Path(casq.__file__).parent / "mirror_phases.py").read_text())
    nested = [inner for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
              for inner in ast.walk(outer)
              if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.Lambda))]
    assert len(nested) >= 4
    guards = {"CollisionGuard", "NonPositiveDistance", "_guarded_z"}
    assert [fn.lineno for fn in nested if guards & _names(fn)] == []


def _calls_by_function(tree, names):
    """(enclosing top-level definition, called name) of each call of one of
    ``names``, by name or as an attribute; "" for module-level code."""
    return [(getattr(top, "name", ""), called) for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call)
            for called in [getattr(node.func, "id", getattr(node.func, "attr", None))]
            if called in names]


def test_one_window_integrator():
    """Window integrals go through quadrature.integrate_over_window: the
    mirror layer calls the engine directly only for its delay averages,
    whose windows are not TimeWindows, and the Sagnac layer never."""
    src = pathlib.Path(casq.__file__).parent
    engine = {"integrate_adaptive", "integrate_improper"}
    mirror = ast.parse((src / "mirror_phases.py").read_text())
    assert _calls_by_function(mirror, engine) == [("_delay_average", "integrate_adaptive")]
    assert [fn for fn, _ in _calls_by_function(mirror, {"integrate_over_window"})] == [
        "quasi_static_phase", "motional_phase_mirror", "nonlocal_phase"]
    assert not engine & _names(ast.parse((src / "sagnac.py").read_text()))


def test_line_integrals_read_the_tangent():
    """The phases that integrate dr along a path read its exact derivative
    ``tangent``, never ``velocity``; the sampled kinds' segment arithmetic
    lives in their base, and an analytic kind's tangent is its velocity."""
    src = pathlib.Path(casq.__file__).parent
    for module, function in [("mirror_phases.py", "nonlocal_phase"),
                             ("sagnac.py", "sagnac_phase"), ("quadrature.py", "line_integral")]:
        fn, = [node for node in ast.parse((src / module).read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == function]
        assert "tangent" in _names(fn) and "velocity" not in _names(fn), function
    tree = ast.parse((src / "trajectories.py").read_text())
    top = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not {"_bracket", "_fd_stencil", "_check_sampled_times"} & top
    for kind in (Constant1D, Linear1D, Harmonic1D, StraightLine3D):
        assert kind.tangent is kind.velocity, kind.__name__


@pytest.mark.parametrize("traj", [k for k in ALL_KINDS if hasattr(k, "times")],
                         ids=lambda k: type(k).__name__)
def test_sampled_tangent_is_the_slope_of_the_segment_holding_t(traj):
    samples = getattr(traj, "values", None) or traj.points

    def slope(k):
        dt = traj.times[k + 1] - traj.times[k]
        a, b = samples[k], samples[k + 1]
        if isinstance(a, tuple):
            return tuple((q - p) / dt for p, q in zip(a, b))
        return (b - a) / dt

    rng = random.Random(5)
    for k in range(len(traj.times) - 1):
        lo, hi = traj.times[k], traj.times[k + 1]
        # a sample time lies on the segment that starts there; the last, on the last
        for t in [lo, hi if k == len(traj.times) - 2 else lo]:
            assert traj.tangent(t) == slope(k), t
        for t in [rng.uniform(lo, hi) for _ in range(50)]:
            assert traj.tangent(t) == slope(k), t
    with pytest.raises(OutOfWindow):
        traj.tangent(traj.times[-1] + 1.0)


def test_motional_integrand_runs_no_check():
    """The motional phase decides everything before its outer integral runs:
    the integrand nested in motional_phase_mirror branches on nothing and
    calls neither a clearance check nor light_delay's guard; the speed it
    refuses on is each 1D kind's own ``_fastest``."""
    src = pathlib.Path(casq.__file__).parent
    motional, = [node for node in ast.walk(ast.parse((src / "mirror_phases.py").read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "motional_phase_mirror"]
    nested = [node for node in ast.walk(motional)
              if node is not motional and isinstance(node, ast.FunctionDef)]
    assert [fn.name for fn in nested] == ["integrand"]
    assert not any(isinstance(node, ast.If) for node in ast.walk(nested[0]))
    assert not {"validate_positive_between", "light_delay"} & _names(nested[0])
    fastest = [node for node in ast.walk(ast.parse((src / "trajectories.py").read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "_fastest"]
    assert len(fastest) == 4


def test_one_clearance_check_per_span():
    """Mirror phases check each span they read once: only the scenario (its
    window), the bare coarse-grained potential (its delay window) and the
    motional phase (its reach) call validate_positive_between, never the
    delay average an integrand runs; the all-time refusal lives in
    mirror_phases.py alone."""
    src = pathlib.Path(casq.__file__).parent
    mirror = ast.parse((src / "mirror_phases.py").read_text())
    callers = {fn for fn, _ in _calls_by_function(mirror, {"validate_positive_between"})}
    assert callers == {"MirrorScenario", "coarse_grained_potential", "motional_phase_mirror"}
    strings = [node.value for node in ast.walk(ast.parse((src / "trajectories.py").read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [s for s in strings if "diverge" in s] == []


def test_all_time_window_refused_before_the_path_is_asked():
    class Unasked:
        def _lowest(self, t0, t1):
            pytest.fail("path asked for its lowest points")

    with pytest.raises(ImproperWindow, match="over all time the phases of a path kept off "
                                             "the mirror diverge"):
        _mirror_scenario(Unasked(), TimeWindow.all_time())
