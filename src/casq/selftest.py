"""Acceptance criteria, runnable in the field via ``casq selftest``.

Each criterion function returns a :class:`CriterionResult`; the pytest
acceptance module wraps the same functions so the shipped binary and the
test suite exercise identical checks at identical tolerances. Every
expected value here is either a closed form reproduced by independent
quadrature or an elementary-oracle integral; nothing is tuned to the
implementation under test.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from .constants import C_LIGHT, EPSILON_0, FOUR_PI_EPS0, HBAR
from .dce import CLOSED_FORM_COEFFICIENT, OscillationParams, dce_rate_numeric
from .mirror_phases import (
    MirrorScenario,
    motional_phase_mirror,
    nonlocal_phase,
    quasi_static_phase,
)
from .quadrature import QuadratureSpec, integrate_adaptive, integrate_improper
from .sagnac import (
    SpinningParticle,
    alpha_s,
    ell_omega,
    re_alpha_second,
    sagnac_phase,
    sagnac_phase_straightline,
    sagnac_total_symmetric,
)
from .species import AtomSpecies, Transition, alpha_static, mean_square_dipole
from .trajectories import (
    Constant1D,
    Harmonic1D,
    Linear1D,
    SampledPolyline1D,
    StraightLine3D,
    TimeWindow,
    reparametrize,
    reparametrize_window,
    reverse,
)
from .value import Record

__all__ = ["CriterionResult", "CRITERIA", "run_selftest"]


class CriterionResult(Record):
    __slots__ = ("number", "title", "passed", "detail")

    def __init__(self, number: int, title: str, passed: bool, detail: str):
        self.number = number
        self.title = title
        self.passed = passed
        self.detail = detail


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _log_log_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    return statistics.linear_regression(
        [math.log(x) for x in xs], [math.log(y) for y in ys]
    ).slope


_TWO_LEVEL = AtomSpecies("selftest-two-level", (Transition(2.0e15, 1.0e-58),))


def _demo_particle(omega_vec=(0.0, 0.0, 1.0e5)) -> SpinningParticle:
    return SpinningParticle(alpha0=1.0e-32, omega_s=8.0e15, omega=omega_vec)


# -- criterion 1: straight-line Sagnac, numeric vs closed form ----------------

def criterion_1() -> CriterionResult:
    rng = random.Random(20240811)
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-300, max_subdivisions=2000)
    worst = 0.0
    slowest = 0.0
    for _ in range(10):
        n_tr = rng.randint(1, 3)
        freqs = sorted(rng.uniform(1e14, 9e14) for _ in range(n_tr))
        species = AtomSpecies(
            "tuple", tuple(Transition(w, rng.uniform(1e-59, 1e-58)) for w in freqs)
        )
        particle = SpinningParticle(
            alpha0=rng.uniform(1e-34, 1e-32),
            omega_s=rng.uniform(3e15, 2e16),
            omega=(0.0, 0.0, rng.uniform(1e2, 1e6)),
        )
        y = rng.choice([-1.0, 1.0]) * rng.uniform(1e-8, 1e-6)
        v = rng.uniform(10.0, 1e4)
        traj = StraightLine3D((0.0, y, 0.0), (v, 0.0, 0.0))
        t0 = time.perf_counter()
        numeric = sagnac_phase(
            species, particle, traj, TimeWindow.all_time(), spec, near_field_warning=False
        )
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        closed = abs(sagnac_phase_straightline(species, particle, y))
        worst = max(worst, _rel(abs(numeric.value), closed))
    ok = worst <= 1e-6 and slowest < 1.0
    return CriterionResult(
        1,
        "straight-line Sagnac numeric vs closed form (10 random tuples)",
        ok,
        f"worst rel diff {worst:.3e} (tol 1e-6), slowest tuple {slowest:.3f}s (< 1s)",
    )


# -- criterion 2: quadrature oracles -------------------------------------------

def _benchmarks():
    """20 integrals with elementary exact values for the soundness check."""
    inf = None  # marker: improper over (-inf, inf)
    return [
        ("x^2 on [0,1]", lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
        ("sin on [0,pi]", math.sin, 0.0, math.pi, 2.0),
        ("exp on [0,1]", math.exp, 0.0, 1.0, math.e - 1.0),
        ("runge on [-1,1]", lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0,
         0.4 * math.atan(5.0)),
        ("1/(1+x^2) on [0,1]", lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
        ("sqrt on [0,1]", math.sqrt, 0.0, 1.0, 2.0 / 3.0),
        ("x^-1/2 on [1e-12,1]", lambda x: 1.0 / math.sqrt(x), 1e-12, 1.0,
         2.0 - 2.0e-6),
        ("-ln on [1e-300-safe 0,1]", lambda x: -math.log(x), 0.0, 1.0, 1.0),
        ("cos^2 on [0,2pi]", lambda x: math.cos(x) ** 2, 0.0, 2.0 * math.pi, math.pi),
        ("sin(20x) on [0,1]", lambda x: math.sin(20.0 * x), 0.0, 1.0,
         (1.0 - math.cos(20.0)) / 20.0),
        ("cubic on [0,1]", lambda x: x**3 - 2.0 * x**2 + x, 0.0, 1.0, 1.0 / 12.0),
        ("1/x on [1,2]", lambda x: 1.0 / x, 1.0, 2.0, math.log(2.0)),
        ("|x-1| on [0,2]", lambda x: abs(x - 1.0), 0.0, 2.0, 1.0),
        ("half-circle on [-1,1]", lambda x: math.sqrt(max(1.0 - x * x, 0.0)), -1.0, 1.0,
         math.pi / 2.0),
        ("exp(-x^2) on [0,3]", lambda x: math.exp(-x * x), 0.0, 3.0,
         0.5 * math.sqrt(math.pi) * math.erf(3.0)),
        ("1/(1+u^2) improper", lambda u: 1.0 / (1.0 + u * u), inf, inf, math.pi),
        ("(1+u^2)^-4 improper", lambda u: (1.0 + u * u) ** -4, inf, inf,
         5.0 * math.pi / 16.0),
        ("exp(-u^2) improper", lambda u: math.exp(-u * u), inf, inf, math.sqrt(math.pi)),
        # overflow-safe forms: the tangent map probes |u| far beyond exp range
        ("sech improper",
         lambda u: 2.0 * math.exp(-abs(u)) / (1.0 + math.exp(-2.0 * abs(u))),
         inf, inf, math.pi),
        ("u^2 exp(-|u|) improper",
         lambda u: 0.0 if abs(u) > 700.0 else u * u * math.exp(-abs(u)),
         inf, inf, 4.0),
    ]


def criterion_2() -> CriterionResult:
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=2000)
    res = integrate_improper(lambda u: (1.0 + u * u) ** -4, spec)
    headline = abs(res.value - 5.0 * math.pi / 16.0)

    unsound = []
    inaccurate = []
    for name, f, a, b, exact in _benchmarks():
        if a is None:
            r = integrate_improper(f, spec)
        else:
            r = integrate_adaptive(f, a, b, spec)
        true_err = abs(r.value - exact)
        if true_err > 10.0 * r.error_estimate:
            unsound.append(name)
        if true_err > 1e-7 * max(abs(exact), 1.0):
            inaccurate.append(name)
    ok = headline <= 1e-10 and len(unsound) <= 1 and not inaccurate
    return CriterionResult(
        2,
        "quadrature oracle: (1+u^2)^-4 = 5pi/16 and 20-integral soundness",
        ok,
        f"|err| {headline:.2e} (tol 1e-10); unsound {len(unsound)}/20 (allow 1) "
        f"{unsound}; inaccurate {inaccurate}",
    )


# -- criterion 3: symmetric two-path Sagnac closed forms -----------------------

def criterion_3() -> CriterionResult:
    particle = _demo_particle()
    ell = ell_omega(_TWO_LEVEL, particle)
    y1 = 2.0 * ell
    total = sagnac_total_symmetric(_TWO_LEVEL, particle, y1)
    phi1 = sagnac_phase_straightline(_TWO_LEVEL, particle, y1)
    phi2 = sagnac_phase_straightline(_TWO_LEVEL, particle, -y1)
    ratio = total.value / (phi1 - phi2)
    implied = total.breakdown["implied_nonlocal"]
    implied_expect = -(9.0 * math.pi / 16.0) * (ell / y1) ** 6
    ok = (
        _rel(ratio, 0.7) <= 1e-13
        and _rel(total.value / (total.breakdown["local_difference"]), 0.7) <= 1e-13
        and _rel(implied, implied_expect) <= 1e-13
    )
    return CriterionResult(
        3,
        "symmetric two-path Sagnac: total/(phi1-phi2) = 0.7, nonlocal -(9pi/16)(l/y1)^6",
        ok,
        f"ratio {ratio:.16f}, implied nonlocal rel diff {_rel(implied, implied_expect):.2e}",
    )


# -- criterion 4: nonlocal mirror phase ----------------------------------------

def criterion_4() -> CriterionResult:
    species = _TWO_LEVEL
    k = 3.0 * species.transitions[0].omega_eg * alpha_static(species) / (
        FOUR_PI_EPS0 * C_LIGHT
    )
    h, v, t_end = 1e-6, 1.0, 1e-7
    window = TimeWindow(0.0, t_end)
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=2000)
    counter = MirrorScenario(
        species, (Linear1D(h, v), Linear1D(h, -v)), window
    )
    res = nonlocal_phase(counter, spec)
    expect = k * v * t_end / (4.0 * h**3)
    counter_rel = _rel(res.value, expect)

    swap = MirrorScenario(species, (Linear1D(h, -v), Linear1D(h, v)), window)
    res_swap = nonlocal_phase(swap, spec)
    anti = abs(res.value + res_swap.value)
    anti_tol = res.error_estimate + res_swap.error_estimate + 1e-18

    omega = 2.0 * math.pi * 1e3
    cyc_window = TimeWindow(0.0, 2.0 * 2.0 * math.pi / omega)
    cyc = MirrorScenario(
        species,
        (Harmonic1D(1e-7, 1e-8, omega), Constant1D(1.5e-7)),
        cyc_window,
        z_min=1e-9,
    )
    cyc_spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-18, max_subdivisions=2000)
    res_cyc = nonlocal_phase(cyc, cyc_spec)

    ok = counter_rel <= 1e-8 and abs(res_cyc.value) <= 1e-15 and anti <= anti_tol
    return CriterionResult(
        4,
        "nonlocal mirror phase: K v T/(4h^3) oracle, closed cycle, antisymmetry",
        ok,
        f"counter-prop rel {counter_rel:.2e} (tol 1e-8); closed cycle "
        f"{abs(res_cyc.value):.2e} rad (tol 1e-15); |swap sum| {anti:.2e} (tol {anti_tol:.2e})",
    )


# -- criterion 5: motional phase, first-order oracle and residual scaling ------

def criterion_5() -> CriterionResult:
    species = _TWO_LEVEL
    c3 = mean_square_dipole(species) / (48.0 * math.pi * EPSILON_0)
    h, t_end = 1e-6, 1e-13
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=2000)
    vs = [3e4 * 10.0 ** (i / 5) for i in range(6)]
    residuals = []
    ratio_ok = True
    for v in vs:
        scenario = MirrorScenario(
            species, (Linear1D(h, v),), TimeWindow(0.0, t_end)
        )
        mot = motional_phase_mirror(scenario, 0, spec)
        qs = quasi_static_phase(scenario, 0, spec)
        delta = 1.0 / h**2 - 1.0 / (h + v * t_end) ** 2
        lead = -(3.0 * c3 / (2.0 * HBAR * C_LIGHT)) * delta
        residuals.append(abs(mot.value - lead))
        # |phi_mot / phi_qs| must stay O(v/c); the z|U'|/U scale is 3
        if abs(mot.value / qs.value) > 10.0 * (v / C_LIGHT) * 3.0:
            ratio_ok = False
    slope = _log_log_slope(vs, residuals)
    ok = abs(slope - 2.0) <= 0.1 and ratio_ok
    return CriterionResult(
        5,
        "motional mirror phase: residual exponent 2.0 +- 0.1, phi_mot/phi_qs = O(v/c)",
        ok,
        f"residual log-log slope {slope:.4f} (target 2.0 +- 0.1), ratio bound "
        f"{'held' if ratio_ok else 'violated'}",
    )


# -- criterion 6: DCE coefficient, scaling slopes, isotropy ---------------------

def criterion_6() -> CriterionResult:
    t0 = time.perf_counter()
    a0 = 1e-10
    params = OscillationParams(
        r_max=1e-7, omega_cm=2.0 * math.pi * 1e5, alpha0=FOUR_PI_EPS0 * a0**3
    )
    coefficient = dce_rate_numeric(params).breakdown["coefficient"]
    coeff_rel = _rel(coefficient, CLOSED_FORM_COEFFICIENT)

    coarse = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-300, max_subdivisions=200)

    a_values = [0.5e-10 * 10.0 ** (i / 3) for i in range(4)]
    gammas_a = [
        dce_rate_numeric(
            OscillationParams(1e-7, params.omega_cm, FOUR_PI_EPS0 * a**3),
            coarse, n_spectrum=3,
        ).value
        for a in a_values
    ]
    slope_a = _log_log_slope(a_values, gammas_a)

    # v_max decade at fixed omega_cm and fixed a/r_max: scale r_max and a together
    scales = [10.0 ** (i / 3) for i in range(4)]
    vmaxes = [params.omega_cm * 1e-7 * s for s in scales]
    gammas_v = [
        dce_rate_numeric(
            OscillationParams(
                1e-7 * s, params.omega_cm, FOUR_PI_EPS0 * (a0 * s) ** 3
            ),
            coarse, n_spectrum=3,
        ).value
        for s in scales
    ]
    slope_v = _log_log_slope(vmaxes, gammas_v)

    iso = [
        dce_rate_numeric(
            OscillationParams(1e-7, params.omega_cm, params.alpha0, direction=d),
            coarse, n_spectrum=3,
        )
        for d in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    ]
    iso_spread = max(
        abs(r.value - iso[0].value) for r in iso[1:]
    )
    iso_tol = 10.0 * sum(r.error_estimate for r in iso) + 1e-8 * iso[0].value

    runtime = time.perf_counter() - t0
    ok = (
        coeff_rel <= 0.05
        and abs(slope_a - 6.0) <= 0.01
        and abs(slope_v - 8.0) <= 0.01
        and iso_spread <= iso_tol
        and runtime <= 600.0
    )
    return CriterionResult(
        6,
        "DCE: coefficient 23/(5670 pi) within 5%, slopes 6 and 8, isotropy",
        ok,
        f"coefficient {coefficient:.6e} (rel {coeff_rel:.2e}); slope_a {slope_a:.4f}; "
        f"slope_v {slope_v:.4f}; isotropy spread {iso_spread:.2e} (tol {iso_tol:.2e}); "
        f"runtime {runtime:.1f}s",
    )


# -- criterion 7: geometric-phase properties ------------------------------------

def criterion_7() -> CriterionResult:
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=2000)
    species = _TWO_LEVEL
    lambdas = (0.5, 2.0, 10.0)

    # nonlocal phase: geometric
    window = TimeWindow(0.0, 2e-4)
    omega = 2.0 * math.pi * 1e4
    p1 = Harmonic1D(1e-6, 2e-7, omega)
    p2 = Linear1D(8e-7, 1e-3)
    base = nonlocal_phase(MirrorScenario(species, (p1, p2), window), spec)
    worst_nl = 0.0
    for lam in lambdas:
        scen = MirrorScenario(
            species,
            (reparametrize(p1, lam), reparametrize(p2, lam)),
            reparametrize_window(window, lam),
        )
        worst_nl = max(worst_nl, _rel(nonlocal_phase(scen, spec).value, base.value))
    rev = nonlocal_phase(
        MirrorScenario(species, (reverse(p1, window), reverse(p2, window)), window), spec
    )
    flip_nl = _rel(rev.value, -base.value)

    # quasi-static phase: dynamical, scales as 1/lambda
    qs_scen = MirrorScenario(species, (p1,), window)
    qs_base = quasi_static_phase(qs_scen, 0, spec)
    worst_qs = 0.0
    for lam in lambdas:
        scen = MirrorScenario(
            species, (reparametrize(p1, lam),), reparametrize_window(window, lam)
        )
        val = quasi_static_phase(scen, 0, spec).value
        worst_qs = max(worst_qs, _rel(val, qs_base.value / lam))

    # Sagnac phase: geometric
    particle = _demo_particle()
    y, v = 3e-7, 100.0
    traj = StraightLine3D((0.0, y, 0.0), (v, 0.0, 0.0))
    t_half = 50.0 * y / v
    swin = TimeWindow(-t_half, t_half)
    sg_base = sagnac_phase(species, particle, traj, swin, spec, near_field_warning=False)
    worst_sg = 0.0
    for lam in lambdas:
        val = sagnac_phase(
            species, particle, reparametrize(traj, lam),
            reparametrize_window(swin, lam), spec, near_field_warning=False,
        ).value
        worst_sg = max(worst_sg, _rel(val, sg_base.value))
    sg_rev = sagnac_phase(
        species, particle, reverse(traj, swin), swin, spec, near_field_warning=False
    )
    flip_sg = _rel(sg_rev.value, -sg_base.value)

    ok = (
        worst_nl <= 1e-8
        and flip_nl <= 1e-8
        and worst_qs <= 1e-10
        and worst_sg <= 1e-8
        and flip_sg <= 1e-8
    )
    return CriterionResult(
        7,
        "geometric character: reparametrization invariance and reversal sign flip",
        ok,
        f"nonlocal invariance {worst_nl:.2e}, flip {flip_nl:.2e} (tol 1e-8); "
        f"quasi-static 1/lambda {worst_qs:.2e} (tol 1e-10); "
        f"sagnac invariance {worst_sg:.2e}, flip {flip_sg:.2e} (tol 1e-8)",
    )


# -- criterion 8: gradient checks ------------------------------------------------

def _fd_velocity_check(traj, times, v_scale: float, fd_step: float) -> float:
    worst = 0.0
    for t in times:
        fd = (traj.position(t + fd_step) - traj.position(t - fd_step)) / (2.0 * fd_step)
        v = traj.velocity(t)
        worst = max(worst, abs(fd - v) / max(abs(v), 1e-3 * v_scale))
    return worst


def criterion_8() -> CriterionResult:
    rng = random.Random(77)
    omega = 2.0 * math.pi * 1e4
    harmonic = Harmonic1D(1e-6, 3e-7, omega, 0.3)
    times = [rng.uniform(0.0, 2e-4) for _ in range(100)]
    worst = 0.0
    worst = max(worst, _fd_velocity_check(Constant1D(1e-6), times, 1.0, 1e-7))
    worst = max(worst, _fd_velocity_check(Linear1D(1e-6, 3.0), times, 3.0, 1e-7))
    worst = max(
        worst,
        _fd_velocity_check(harmonic, times, harmonic.amplitude * omega, 1e-5 / omega),
    )

    line = StraightLine3D((1e-6, -2e-6, 0.5e-6), (2.0, -1.0, 0.5))
    worst3 = 0.0
    for t in times:
        for i in range(3):
            fd = (line.position(t + 1e-7)[i] - line.position(t - 1e-7)[i]) / 2e-7
            worst3 = max(worst3, abs(fd - line.velocity(t)[i]) / max(abs(line.v[i]), 1e-3))
    worst = max(worst, worst3)

    # sampled harmonic: built-in finite-difference velocity against analytic
    n = 20001
    t_grid = [2e-4 * i / (n - 1) for i in range(n)]
    sampled = SampledPolyline1D(
        tuple(t_grid), tuple(harmonic.position(t) for t in t_grid)
    )
    inner = [t for t in times if 1e-6 < t < 2e-4 - 1e-6]
    worst_s = max(
        abs(sampled.velocity(t) - harmonic.velocity(t))
        / max(abs(harmonic.velocity(t)), 1e-3 * harmonic.amplitude * omega)
        for t in inner
    )
    worst = max(worst, worst_s)

    particle = SpinningParticle(
        alpha0=1e-32, omega_s=8e15, omega=(0.0, 0.0, 1e5), gamma=0.0
    )
    damped = SpinningParticle(
        alpha0=1e-32, omega_s=8e15, omega=(0.0, 0.0, 1e5), gamma=2.4e15
    )
    worst_a = 0.0
    step = 1e-4 * particle.omega_s
    for part, ws in ((particle, (0.0, 0.3, 0.7)), (damped, (0.0, 0.5, 0.9, 1.5))):
        for frac in ws:
            w = frac * part.omega_s
            fd = (
                alpha_s(part, w + step) - 2.0 * alpha_s(part, w) + alpha_s(part, w - step)
            ).real / step**2
            worst_a = max(worst_a, _rel(fd, re_alpha_second(part, w)))

    ok = worst <= 1e-6 and worst_a <= 1e-6
    return CriterionResult(
        8,
        "gradient checks: velocities vs finite differences, alpha_S'' vs finite differences",
        ok,
        f"worst velocity rel {worst:.2e} (tol 1e-6); worst alpha'' rel {worst_a:.2e} (tol 1e-6)",
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_selftest() -> bool:
    """Run criteria 1..8, print one pass/fail line each, return overall pass."""
    all_ok = True
    for crit in CRITERIA:
        res = crit()
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.title}")
        print(f"       {res.detail}")
        all_ok = all_ok and res.passed
    print("selftest:", "all criteria passed" if all_ok else "FAILURES present")
    return all_ok
