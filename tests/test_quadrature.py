"""Quadrature engine: oracles, properties, and error handling."""

import math
import random

import pytest

from casq import quadrature
from casq.errors import NonConvergent, NonFiniteEvaluation, OutOfWindow
from casq.quadrature import (
    IntegralResult,
    QuadratureSpec,
    integrate_adaptive,
    integrate_improper,
    integrate_iterated,
    line_integral,
)
from casq.trajectories import SampledPolyline3D, StraightLine3D, TimeWindow
from casq.vec3 import sub3


def reduction_formula(n: int) -> float:
    # int du / (1+u^2)^n over the real line
    return math.pi * math.comb(2 * n - 2, n - 1) / 4.0 ** (n - 1)


def test_polynomial_exactness():
    r = integrate_adaptive(lambda x: x * x, 0.0, 1.0)
    assert abs(r.value - 1.0 / 3.0) < 1e-12
    assert r.converged


def test_sin_benchmark():
    r = integrate_adaptive(math.sin, 0.0, math.pi)
    assert abs(r.value - 2.0) < 1e-10


def test_endpoint_singularity_with_offset():
    # antiderivative 2 sqrt(x)
    r = integrate_adaptive(lambda x: 1.0 / math.sqrt(x), 1e-12, 1.0)
    exact = 2.0 - 2.0 * math.sqrt(1e-12)
    assert abs(r.value - exact) < 1e-5


def test_reversed_limits_negate():
    fwd = integrate_adaptive(math.exp, 0.0, 1.0)
    rev = integrate_adaptive(math.exp, 1.0, 0.0)
    assert rev.value == -fwd.value


def test_improper_arctan():
    r = integrate_improper(lambda u: 1.0 / (1.0 + u * u))
    assert abs(r.value - math.pi) < 1e-10


def test_improper_reduction_formula_n4():
    r = integrate_improper(lambda u: (1.0 + u * u) ** -4)
    assert abs(r.value - reduction_formula(4)) < 1e-10
    assert abs(r.value - 5.0 * math.pi / 16.0) < 1e-10


def test_improper_odd_integrand_zero():
    # the error-estimate floor is ~50 eps * int|f|, so abs_tol sits above it
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
    r = integrate_improper(lambda u: u * math.exp(-u * u), spec)
    assert abs(r.value) < 1e-13


def test_improper_scale_narrow_feature():
    # a gaussian of width 1e-9: between the nodes of every panel unless the
    # tangent map is rescaled to match
    w = 1e-9
    r = integrate_improper(lambda u: math.exp(-((u / w) ** 2)), scale=w)
    exact = w * math.sqrt(math.pi)
    assert abs(r.value - exact) < 1e-10 * exact


def test_linearity():
    rng = random.Random(3)
    a, b = 0.0, 2.0
    f = math.sin
    g = math.exp
    for _ in range(5):
        al, be = rng.uniform(-2, 2), rng.uniform(-2, 2)
        lhs = integrate_adaptive(lambda x: al * f(x) + be * g(x), a, b)
        rf = integrate_adaptive(f, a, b)
        rg = integrate_adaptive(g, a, b)
        combined_err = lhs.error_estimate + abs(al) * rf.error_estimate + abs(be) * rg.error_estimate
        assert abs(lhs.value - (al * rf.value + be * rg.value)) <= combined_err + 1e-13


def test_interval_additivity():
    rng = random.Random(7)
    f = lambda x: math.cos(3.0 * x) + x * x
    for _ in range(5):
        m = rng.uniform(0.1, 1.9)
        whole = integrate_adaptive(f, 0.0, 2.0)
        left = integrate_adaptive(f, 0.0, m)
        right = integrate_adaptive(f, m, 2.0)
        tol = whole.error_estimate + left.error_estimate + right.error_estimate + 1e-13
        assert abs(whole.value - (left.value + right.value)) <= tol


def test_determinism_bit_identical():
    f = lambda x: math.sin(17.0 * x) / (1.0 + x * x)
    r1 = integrate_adaptive(f, 0.0, 10.0)
    r2 = integrate_adaptive(f, 0.0, 10.0)
    assert r1 == r2  # value equality covers value, error, evals, flag


def test_non_finite_reports_abscissa():
    with pytest.raises(NonFiniteEvaluation) as err:
        integrate_adaptive(
            lambda x: float("inf") if 0.49 < x < 0.51 else 1.0, 0.0, 1.0
        )
    assert "x = " in str(err.value)
    with pytest.raises(NonFiniteEvaluation):
        integrate_adaptive(lambda x: float("nan"), 0.0, 1.0)


def test_budget_exhaustion_flags_not_converged():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=2)
    r = integrate_adaptive(lambda x: 1.0 / math.sqrt(x), 1e-12, 1.0, spec)
    assert not r.converged
    assert isinstance(r, IntegralResult)


def test_zero_integral_meets_relative_tol_at_roundoff():
    # exact value 0: rel_tol * |value| is below every panel's round-off floor
    r = integrate_adaptive(math.sin, 0.0, 2.0 * math.pi)
    assert r.converged
    assert r.evaluations == 15
    assert abs(r.value) <= r.error_estimate <= 1e-13


def test_relative_tol_below_roundoff_keeps_plain_target():
    spec = QuadratureSpec(rel_tol=1e-15, max_subdivisions=20)
    r = integrate_adaptive(math.sin, 0.0, 2.0 * math.pi, spec)
    assert not r.converged


def test_improper_nonconvergence_raises():
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=1)
    with pytest.raises(NonConvergent):
        integrate_improper(lambda u: 1.0 / (1.0 + abs(u)) ** 1.5, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0, abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


# -- the engine against its quadratic-time reference -----------------------------

def _reference_gk15(f, a, b, ctx):
    """The panel as a loop over QUADPACK's tables, as ``dqk15`` writes it:
    the reference for the engine's written-out ``_gk15``."""
    xgk, wgk, wg = quadrature._XGK, quadrature._WGK, quadrature._WG
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    fc = f(center)
    if not math.isfinite(fc):
        raise NonFiniteEvaluation(f"{ctx}: integrand returned {fc!r} at x = {center!r}")
    resg = fc * wg[3]
    resk = fc * wgk[7]
    resabs = abs(fc) * wgk[7]
    fv = []
    for j in range(7):
        dx = half * xgk[j]
        x = center - dx
        f1 = f(x)
        if not math.isfinite(f1):
            raise NonFiniteEvaluation(f"{ctx}: integrand returned {f1!r} at x = {x!r}")
        x = center + dx
        f2 = f(x)
        if not math.isfinite(f2):
            raise NonFiniteEvaluation(f"{ctx}: integrand returned {f2!r} at x = {x!r}")
        fv.append((f1, f2))
        resk += wgk[j] * (f1 + f2)
        resabs += wgk[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += wg[j // 2] * (f1 + f2)

    reskh = resk * 0.5
    resasc = wgk[7] * abs(fc - reskh)
    for j in range(7):
        f1, f2 = fv[j]
        resasc += wgk[j] * (abs(f1 - reskh) + abs(f2 - reskh))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    eps, tiny = quadrature._EPMACH, quadrature._UFLOW
    if resabs > tiny / (50.0 * eps):
        err = max(eps * 50.0 * resabs, err)
    return quadrature._Panel(a, b, value, err, resabs)


def _panel_bits(p):
    return [float.hex(x) for x in (p.a, p.b, p.value, p.error, p.resabs)]


def _integrand(rng):
    """A smooth, oscillating, kinked, stepped, constant or zero integrand, at a
    scale from 1e-300 to 1e300."""
    c = [rng.uniform(-3.0, 3.0) for _ in range(4)]
    scale = 10.0 ** rng.uniform(-300, 300)
    k = rng.choice([
        lambda x: c[0] + x * (c[1] + x * (c[2] + x * c[3])),
        lambda x: math.exp(c[0] * math.tanh(x)),
        lambda x: math.sin(c[1] * 20.0 * x + c[2]),
        lambda x: 1.0 / (1.0 + (c[0] * x) ** 2),
        lambda x: abs(x - c[3]),
        lambda x: 1.0 if x > c[2] else -0.5,
        lambda x: c[0],
        lambda x: 0.0,
    ])
    return lambda x: scale * k(x)


def _panel_cases(n, seed=20):
    """``n`` (integrand, a, b) on wide, narrow, ulp-wide, subnormal and
    reversed intervals."""
    rng = random.Random(seed)
    for _ in range(n):
        f = _integrand(rng)
        a = rng.choice([rng.uniform(-10.0, 10.0), 0.0, rng.uniform(-1e-300, 1e-300)])
        width = rng.choice([
            rng.uniform(-10.0, 10.0),           # reversed half the time
            rng.uniform(1e-9, 1e-3) * rng.choice([-1.0, 1.0]),
            1e-15 * (abs(a) + 1e-300),
            math.nextafter(a, math.inf) - a,    # one ulp
            5e-324 * rng.randint(1, 64),        # subnormal
        ])
        yield f, a, a + width


def test_panel_matches_loop_reference():
    cases = 0
    for f, a, b in _panel_cases(1500):
        got = quadrature._gk15(f, a, b, "ctx")
        assert _panel_bits(got) == _panel_bits(_reference_gk15(f, a, b, "ctx")), (a, b)
        cases += 1
    assert cases >= 1000


def test_panel_evaluates_the_reference_abscissae_in_order():
    for f, a, b in _panel_cases(300, seed=21):
        seen, ref = [], []
        quadrature._gk15(lambda x: seen.append(x) or f(x), a, b, "ctx")
        _reference_gk15(lambda x: ref.append(x) or f(x), a, b, "ctx")
        assert [float.hex(x) for x in seen] == [float.hex(x) for x in ref]
        assert len(seen) == 15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", range(15))
def test_panel_stops_at_the_first_non_finite_node(k, bad):
    # the panel evaluates all 15 nodes, then raises naming the non-finite one
    a, b = -0.3, 1.7
    nodes = []
    _reference_gk15(lambda x: nodes.append(x) or 1.0, a, b, "ctx")
    calls = []

    def f(x):
        calls.append(x)
        return bad if len(calls) == k + 1 else 1.0

    with pytest.raises(NonFiniteEvaluation) as err:
        quadrature._gk15(f, a, b, "ctx")
    assert str(err.value) == f"ctx: integrand returned {bad!r} at x = {nodes[k]!r}"
    assert [float.hex(x) for x in calls] == [float.hex(x) for x in nodes]


@pytest.mark.parametrize("a, b", [(-5e-324, 0.0), (-1.7e308, 1.7e308)],
                         ids=["centre-minus-zero", "width-overflows"])
def test_panel_names_each_node_as_the_loop_does(a, b):
    # the centre of the first is -0.0, and the second's half-width is inf:
    # center + half * 0.0 would name 0.0 and nan
    for k in range(15):
        messages = []
        for panel in (quadrature._gk15, _reference_gk15):
            calls = []

            def f(x):
                calls.append(x)
                return math.nan if len(calls) == k + 1 else 1.0

            with pytest.raises(NonFiniteEvaluation) as err:
                panel(f, a, b, "ctx")
            messages.append(str(err.value))
        assert messages[0] == messages[1], k


@pytest.mark.parametrize("f", [
    lambda x: 1.7e308,
    lambda x: 1.7e308 if x > 0.4 else -1.7e308,
    lambda x: -1.7e308 if x > -0.25 else 1.7e308,
], ids=["constant", "step-up", "step-down"])
def test_panel_whose_abs_sum_overflows_carries_on(f):
    # every node finite, but the integral of |f| overflows: no error is raised,
    # and the panel keeps the loop's bits (its value and estimate may be inf)
    a, b = -0.3, 1.7
    got = quadrature._gk15(f, a, b, "ctx")
    assert not math.isfinite(got.resabs)
    assert _panel_bits(got) == _panel_bits(_reference_gk15(f, a, b, "ctx"))


def _reference_core(f, breaks, sign, spec):
    """The engine's loop as it stood before its heap and running sums: every
    bisection rescans the panels for the worst one and re-sums them all."""
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return f(x)

    ctx = "integrate_adaptive"
    panels = [
        _reference_gk15(counted, breaks[i], breaks[i + 1], ctx)
        for i in range(len(breaks) - 1)
    ]
    resabs = math.fsum(p.resabs for p in panels)
    nsub = 0
    converged = False
    while True:
        total = math.fsum(p.value for p in panels)
        toterr = math.fsum(p.error for p in panels)
        tol = max(spec.abs_tol, spec.rel_tol * abs(total), quadrature._TOL_FLOOR)
        if spec.rel_tol >= quadrature._ROUNDOFF:
            tol = max(tol, quadrature._ROUNDOFF * resabs)
        if toterr <= tol:
            converged = True
            break
        if nsub >= spec.max_subdivisions:
            break
        worst_i = max(range(len(panels)), key=lambda i: (panels[i].error, -panels[i].a))
        worst = panels.pop(worst_i)
        mid = 0.5 * (worst.a + worst.b)
        if mid <= worst.a or mid >= worst.b:
            panels.append(worst)
            break
        left = _reference_gk15(counted, worst.a, mid, ctx)
        right = _reference_gk15(counted, mid, worst.b, ctx)
        panels += (left, right)
        resabs += left.resabs + right.resabs - worst.resabs
        nsub += 1

    panels.sort(key=lambda p: p.a)
    value = sign * math.fsum(p.value for p in panels)
    toterr = math.fsum(p.error for p in panels)
    return IntegralResult(value, toterr, evals, converged)


def _step(x):
    return 1.0 if x > 1.0 / 3.0 else 0.0


@pytest.mark.parametrize(
    "f, a, b, spec, stop",
    [
        (lambda x: math.sin(50.0 * x) ** 2 / (1.0 + x * x), 0.0, 100.0,
         QuadratureSpec(rel_tol=1e-12), "budget"),
        (abs, -1.0, 1.0, QuadratureSpec(rel_tol=1e-12), "tolerance"),
        (lambda x: abs(math.sin(x)), 0.0, 16.0 * math.pi, QuadratureSpec(rel_tol=1e-12),
         "tolerance"),
        (lambda x: 1.0 / math.sqrt(abs(x)) if x else 0.0, -1.0, 1.0,
         QuadratureSpec(rel_tol=1e-10), "tolerance"),
        (_step, 0.0, 1.0, QuadratureSpec(rel_tol=1e-14, max_subdivisions=200), "budget"),
        # no panel can meet the target, and the jump's panel stays the worst
        # until it is one float wide (mid <= a)
        (_step, 1.0 / 3.0 - 1e-15, 1.0 / 3.0 + 1e-15,
         QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300), "resolution"),
        (lambda x: math.exp(-x) * math.cos(40.0 * x), 6.0, 0.0, QuadratureSpec(rel_tol=1e-12),
         "tolerance"),
    ],
    ids=["sin2-budget", "abs", "abs-sin", "inv-sqrt", "step-budget", "float-resolution",
         "reversed"],
)
def test_engine_matches_quadratic_reference(f, a, b, spec, stop):
    r = integrate_adaptive(f, a, b, spec)
    assert r == _reference_core(f, (min(a, b), max(a, b)), 1.0 if a < b else -1.0, spec)
    budget_evals = 15 * (1 + 2 * spec.max_subdivisions)
    assert r.converged is (stop == "tolerance")
    assert (r.evaluations == budget_evals) is (stop == "budget")


def test_engine_splits_the_leftmost_of_equal_errors_first():
    # mirrored panels of opposite sign have equal errors and opposite
    # values, so the sign of the result shows which one the single
    # bisection of the budget split
    def f(x):
        if 0.3 <= x <= 1.0:
            return 1.0
        if 2.0 <= x <= 2.7:
            return -1.0
        return 0.0

    spec = QuadratureSpec(rel_tol=1e-14, max_subdivisions=1)
    r = integrate_adaptive(f, 0.0, 3.0, spec, breaks=(1.0, 2.0))
    assert r == _reference_core(f, (0.0, 1.0, 2.0, 3.0), 1.0, spec)
    assert r.value != 0.0


def test_improper_engine_matches_quadratic_reference():
    # eight initial panels in theta, mapped as integrate_improper maps them
    spec = QuadratureSpec(rel_tol=1e-13)

    def f(u):
        return 1.0 / (1.0 + u * u) ** 2 + math.exp(-((u - 3.0) ** 2))

    def mapped(theta):
        u = math.tan(theta)
        return f(u) * (1.0 + u * u)

    breaks = [-0.5 * math.pi + math.pi * i / 8 for i in range(9)]
    r = integrate_improper(f, spec)
    assert r == _reference_core(mapped, breaks, 1.0, spec)
    assert r.evaluations > 15 * 8  # it bisected
    assert abs(r.value - (0.5 * math.pi + math.sqrt(math.pi))) < 1e-12


def test_declared_breaks_become_panel_edges():
    # |x - 1/3| has its kink inside [0, 1]; declared, each panel is linear
    f = lambda x: abs(x - 1.0 / 3.0)
    r = integrate_adaptive(f, 0.0, 1.0, breaks=(1.0 / 3.0, 2.0, math.nan, 1.0 / 3.0, 0.0))
    assert r.evaluations == 30
    assert r == _reference_core(f, (0.0, 1.0 / 3.0, 1.0), 1.0, quadrature.DEFAULT_SPEC)
    assert abs(r.value - 5.0 / 18.0) < 1e-16
    rev = integrate_adaptive(f, 1.0, 0.0, breaks=(1.0 / 3.0,))
    assert rev.value == -r.value


# -- iterated integrals --------------------------------------------------------

def test_iterated_separable():
    r = integrate_iterated(lambda x, y: x * y, [(0.0, 1.0), (0.0, 1.0)])
    assert abs(r.value - 0.25) < 1e-12


def test_iterated_triangle():
    r = integrate_iterated(lambda x, y: 1.0, [(0.0, 1.0), (0.0, lambda x: x)])
    assert abs(r.value - 0.5) < 1e-12


def test_iterated_solid_angle():
    r = integrate_iterated(
        lambda th, ph: math.sin(th), [(0.0, math.pi), (0.0, 2.0 * math.pi)]
    )
    assert abs(r.value - 4.0 * math.pi) < 1e-9


def test_iterated_rejects_high_dimension():
    with pytest.raises(ValueError):
        integrate_iterated(lambda *xs: 1.0, [(0, 1)] * 4)


# -- line integrals --------------------------------------------------------------

def test_line_integral_constant_field():
    c = (0.3, -1.2, 2.0)
    p, q = (0.0, 1.0, -2.0), (3.0, -1.0, 0.5)
    window = TimeWindow(0.0, 1.0)
    traj = StraightLine3D(p, sub3(q, p))
    r = line_integral(lambda _: c, traj, window)
    expect = sum(ci * (qi - pi) for ci, qi, pi in zip(c, q, p))
    assert abs(r.value - expect) < 1e-12 * abs(expect)


def test_line_integral_conservative_closed_loop():
    # gradient of 1/|r| around a closed triangle far from the origin; the
    # polyline's finite-difference velocity smooths the corners, leaving a
    # residual of order (fd step)^2 per corner, hence the dense sampling
    def field(r):
        n = math.sqrt(r[0] ** 2 + r[1] ** 2 + r[2] ** 2)
        s = -1.0 / n**3
        return (s * r[0], s * r[1], s * r[2])

    verts = [(3.0, 0.0, 1.0), (4.0, 2.0, 1.5), (2.5, 1.0, 2.0), (3.0, 0.0, 1.0)]
    n_per_edge = 2000
    times, points = [], []
    for k in range(3):
        p, q = verts[k], verts[k + 1]
        for i in range(n_per_edge):
            w = i / n_per_edge
            times.append(k + w)
            points.append(tuple(pi + (qi - pi) * w for pi, qi in zip(p, q)))
    times.append(3.0)
    points.append(verts[3])
    traj = SampledPolyline3D(tuple(times), tuple(points))
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
    r = line_integral(field, traj, TimeWindow(0.0, 3.0), spec)
    assert abs(r.value) < 1e-8


def test_line_integral_puts_samples_on_panel_edges(monkeypatch):
    seen = []
    engine = quadrature.integrate_adaptive

    def spy(f, a, b, spec=None, breaks=()):
        seen.append(tuple(breaks))
        return engine(f, a, b, spec, breaks)

    monkeypatch.setattr(quadrature, "integrate_adaptive", spy)
    traj = SampledPolyline3D((0.0, 1.0, 2.0), ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0)))
    r = line_integral(lambda r: (1.0, 2.0, 0.0), traj, TimeWindow(0.0, 2.0))
    assert seen == [(1.0,)]
    assert abs(r.value - 3.0) < 1e-14


def test_line_integral_sampled_path_improper_window_out_of_window():
    traj = SampledPolyline3D((0.0, 1.0), ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0)))
    with pytest.raises(OutOfWindow):
        line_integral(lambda r: (1.0, 0.0, 0.0), traj, TimeWindow.all_time())


def test_line_integral_rotation_field_magnitude():
    # F = (Omega x r)/r^8 along a straight line: |integral| = Omega (5pi/16) / y^6
    om, y, v = 2.7e4, 1.3e-7, 55.0
    traj = StraightLine3D((0.0, y, 0.0), (v, 0.0, 0.0))

    def field(r):
        rr = r[0] ** 2 + r[1] ** 2 + r[2] ** 2
        w = 1.0 / rr**4
        return (-om * r[1] * w, om * r[0] * w, 0.0)

    r = line_integral(field, traj, TimeWindow.all_time())
    expect = om * (5.0 * math.pi / 16.0) / y**6
    assert abs(abs(r.value) - expect) < 1e-9 * expect
