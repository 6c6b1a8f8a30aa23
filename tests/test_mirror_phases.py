"""Mirror phases: potential oracle, quasi-static, motional, nonlocal."""

import math

import pytest

from casq.constants import C_LIGHT, EPSILON_0, FOUR_PI_EPS0, HBAR
from casq.errors import (
    CollisionGuard,
    NonConvergent,
    NonPositiveDistance,
    NotTwoLevel,
    OutOfWindow,
    ParallelVelocityMismatchWarning,
    ValidationError,
)
from casq.mirror_phases import (
    MirrorScenario,
    coarse_grained_potential,
    motional_phase_mirror,
    nonlocal_phase,
    quasi_static_phase,
    total_phase_difference,
    vdw_potential,
)
from casq.quadrature import QuadratureSpec
from casq.species import AtomSpecies, Transition, alpha_static, mean_square_dipole
from casq.trajectories import (
    Constant1D,
    Harmonic1D,
    Linear1D,
    SampledPolyline1D,
    TimeWindow,
    light_delay,
    reparametrize,
    reparametrize_window,
)

OMEGA0 = 2.0e15
D2 = 1.0e-58
TWO_LEVEL = AtomSpecies("two-level", (Transition(OMEGA0, D2),))
MULTI = AtomSpecies(
    "multi", (Transition(1.6e15, 6e-59), Transition(2.4e15, 3e-59))
)
C3 = mean_square_dipole(TWO_LEVEL) / (48.0 * math.pi * EPSILON_0)
TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=2000)


def image_dipole_oracle(d2: float, z: float) -> float:
    """Isotropic image-dipole energy, averaged over the three dipole axes.

    E = (1/2) [d.d' - 3 (d.n)(d'.n)] / (4 pi eps0 (2z)^3) with image
    components (-dx, -dy, +dz) and <d_i^2> = <d^2>/3 along each axis.
    """
    total = 0.0
    for axis in range(3):
        d = [0.0, 0.0, 0.0]
        d[axis] = math.sqrt(d2)
        image = (-d[0], -d[1], d[2])
        dot = sum(a * b for a, b in zip(d, image))
        e = 0.5 * (dot - 3.0 * d[2] * image[2]) / (FOUR_PI_EPS0 * (2.0 * z) ** 3)
        total += e / 3.0
    return total


def test_vdw_matches_image_dipole_oracle():
    z = 1e-7
    assert vdw_potential(TWO_LEVEL, z) == pytest.approx(
        image_dipole_oracle(D2, z), rel=1e-13
    )
    # two-level closed form -(3 hbar w0 alpha(0) / 2) / (48 pi eps0 z^3)
    expect = -(1.5 * HBAR * OMEGA0 * alpha_static(TWO_LEVEL)) / (
        48.0 * math.pi * EPSILON_0 * z**3
    )
    assert vdw_potential(TWO_LEVEL, z) == pytest.approx(expect, rel=1e-13)


def test_vdw_cubic_law_and_sign():
    z = 5e-8
    assert vdw_potential(TWO_LEVEL, 2 * z) == pytest.approx(
        vdw_potential(TWO_LEVEL, z) / 8.0, rel=1e-13
    )
    assert vdw_potential(TWO_LEVEL, z) < 0.0
    assert vdw_potential(MULTI, z) < 0.0
    with pytest.raises(NonPositiveDistance):
        vdw_potential(TWO_LEVEL, 0.0)


def test_quasi_static_constant_path():
    h, t_end = 1e-7, 1e-6
    scen = MirrorScenario(TWO_LEVEL, (Constant1D(h),), TimeWindow(0.0, t_end))
    res = quasi_static_phase(scen, 0, TIGHT)
    assert res.value == pytest.approx(-vdw_potential(TWO_LEVEL, h) * t_end / HBAR, rel=1e-11)
    assert res.converged


def test_quasi_static_linear_antiderivative_oracle():
    h, v, t_end = 1e-6, 2.0, 1e-7
    scen = MirrorScenario(TWO_LEVEL, (Linear1D(h, v),), TimeWindow(0.0, t_end))
    res = quasi_static_phase(scen, 0, TIGHT)
    expect = (C3 / (2.0 * HBAR * v)) * (1.0 / h**2 - 1.0 / (h + v * t_end) ** 2)
    assert res.value == pytest.approx(expect, rel=1e-11)


def test_quasi_static_scales_inverse_lambda():
    window = TimeWindow(0.0, 1e-4)
    path = Harmonic1D(1e-6, 2e-7, 2.0 * math.pi * 1e4)
    base = quasi_static_phase(MirrorScenario(TWO_LEVEL, (path,), window), 0, TIGHT)
    for lam in (0.5, 2.0, 10.0):
        scen = MirrorScenario(
            TWO_LEVEL, (reparametrize(path, lam),), reparametrize_window(window, lam)
        )
        val = quasi_static_phase(scen, 0, TIGHT).value
        assert val == pytest.approx(base.value / lam, rel=1e-10)


def test_coarse_grained_constant_path_exact():
    h = 1e-7
    u = vdw_potential(TWO_LEVEL, h)
    ubar = coarse_grained_potential(TWO_LEVEL, Constant1D(h), 0.0)
    assert ubar == pytest.approx(u, rel=1e-12)


def test_coarse_grained_linear_taylor_oracle():
    # Ubar - U = (tau/2) U'(z) v + O((v tau / h)^2)
    h, v = 1e-6, 1e4
    traj = Linear1D(h, v)
    t = 0.0
    tau = light_delay(h)
    ubar = coarse_grained_potential(TWO_LEVEL, traj, t)
    u = vdw_potential(TWO_LEVEL, h)
    uprime = 3.0 * C3 / h**4
    first_order = 0.5 * tau * uprime * v
    resid = (ubar - u) - first_order
    assert abs(resid) <= 10.0 * abs(first_order) * (v * tau / h)


def test_coarse_grained_raises_beyond_sampled_range():
    # the delay window [t, t + tau] must not be silently clamped
    from casq.errors import OutOfWindow
    from casq.trajectories import SampledPolyline1D, light_delay

    h = 1e-6
    t_last = 0.5 * light_delay(h)
    traj = SampledPolyline1D((0.0, t_last), (h, h))
    with pytest.raises(OutOfWindow):
        coarse_grained_potential(TWO_LEVEL, traj, 0.0)


def test_coarse_grained_small_delay_limit():
    # tau -> 0 as z -> 0+: the average approaches the instantaneous value
    h = 1e-12
    traj = Linear1D(h, 1.0)
    ubar = coarse_grained_potential(TWO_LEVEL, traj, 0.0, z_min=0.0)
    assert ubar == pytest.approx(vdw_potential(TWO_LEVEL, h), rel=1e-8)


def test_motional_constant_path_zero():
    scen = MirrorScenario(TWO_LEVEL, (Constant1D(1e-7),), TimeWindow(0.0, 1e-7))
    res = motional_phase_mirror(
        scen, 0, QuadratureSpec(rel_tol=1e-8, abs_tol=1e-20, max_subdivisions=200)
    )
    assert abs(res.value) < 1e-18
    assert res.breakdown["leading_order_local"] == pytest.approx(0.0, abs=1e-25)


def test_motional_linear_leading_order_oracle():
    # phi_mot = -(3 C3 / hbar c) int zdot / z^3 dt up to O((v/c)^2)
    h, v, t_end = 1e-6, 3e4, 1e-13
    scen = MirrorScenario(TWO_LEVEL, (Linear1D(h, v),), TimeWindow(0.0, t_end))
    res = motional_phase_mirror(scen, 0, TIGHT)
    delta = 1.0 / h**2 - 1.0 / (h + v * t_end) ** 2
    lead = -(3.0 * C3 / (2.0 * HBAR * C_LIGHT)) * delta
    assert res.value == pytest.approx(lead, rel=20.0 * v / C_LIGHT)
    assert abs(res.breakdown["leading_order_local"] - lead) <= 4.0 * math.ulp(lead)


@pytest.mark.parametrize("traj", [
    Constant1D(1e-6),
    Linear1D(1e-6, 3e4),
    Harmonic1D(1e-6, 2e-7, 2e9),
    # the local form of a sampled path integrated its central-difference
    # velocity and read -3.2083e-13 where the exact value is -3.3037e-13;
    # the sample at 4 ns covers the delay windows past the window end
    SampledPolyline1D((0.0, 1e-9, 2e-9, 3e-9, 4e-9), (1e-6, 1.2e-6, 1.1e-6, 1.05e-6, 1e-6)),
], ids=["constant", "linear", "harmonic", "sampled"])
def test_motional_leading_order_is_the_exact_antiderivative(traj):
    # -(3 C3 / hbar c) int zdot / z^3 dt = (3 C3 / 2 hbar c) (1/z(t1)^2 - 1/z(t0)^2)
    t0, t1 = 0.0, 3e-9
    scen = MirrorScenario(TWO_LEVEL, (traj,), TimeWindow(t0, t1))
    res = motional_phase_mirror(scen, 0, QuadratureSpec(rel_tol=1e-10))
    z0, z1 = traj.position(t0), traj.position(t1)
    exact = (3.0 * C3 / (2.0 * HBAR * C_LIGHT)) * (1.0 / z1**2 - 1.0 / z0**2)
    assert abs(res.breakdown["leading_order_local"] - exact) <= 4.0 * math.ulp(exact)


def test_motional_antisymmetric_in_velocity_at_leading_order():
    # the even-in-v defect has two second-order sources: the traversed
    # interval differs between +v and -v, contributing ~3 vT/h, and the
    # tau^2 term of the coarse-grain expansion contributes ~(16/3) v/c
    h, v, t_end = 1e-6, 3e4, 1e-13
    plus = motional_phase_mirror(
        MirrorScenario(TWO_LEVEL, (Linear1D(h, v),), TimeWindow(0.0, t_end)), 0, TIGHT
    )
    minus = motional_phase_mirror(
        MirrorScenario(TWO_LEVEL, (Linear1D(h, -v),), TimeWindow(0.0, t_end)), 0, TIGHT
    )
    defect = 3.0 * v * t_end / h + (16.0 / 3.0) * v / C_LIGHT
    assert abs(plus.value + minus.value) <= 3.0 * defect * abs(plus.value)


def test_motional_over_quasi_static_is_order_v_over_c():
    h, t_end = 1e-6, 1e-13
    for v in (1e4, 1e5):
        scen = MirrorScenario(TWO_LEVEL, (Linear1D(h, v),), TimeWindow(0.0, t_end))
        mot = motional_phase_mirror(scen, 0, TIGHT)
        qs = quasi_static_phase(scen, 0, TIGHT)
        assert abs(mot.value / qs.value) <= 10.0 * (v / C_LIGHT) * 3.0


def test_motional_accepts_multi_level():
    scen = MirrorScenario(MULTI, (Linear1D(1e-6, 3e4),), TimeWindow(0.0, 1e-13))
    res = motional_phase_mirror(scen, 0, TIGHT)
    assert math.isfinite(res.value)


# -- nonlocal ------------------------------------------------------------------

def test_nonlocal_identical_paths_zero():
    p = Harmonic1D(1e-6, 1e-7, 2.0 * math.pi * 1e4)
    scen = MirrorScenario(TWO_LEVEL, (p, p), TimeWindow(0.0, 1e-4))
    res = nonlocal_phase(scen, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-20))
    assert abs(res.value) < 1e-18


def test_nonlocal_counterpropagating_oracle():
    h, v, t_end = 1e-6, 1.0, 1e-7
    k = 3.0 * OMEGA0 * alpha_static(TWO_LEVEL) / (FOUR_PI_EPS0 * C_LIGHT)
    scen = MirrorScenario(
        TWO_LEVEL, (Linear1D(h, v), Linear1D(h, -v)), TimeWindow(0.0, t_end)
    )
    res = nonlocal_phase(scen, TIGHT)
    assert res.value == pytest.approx(k * v * t_end / (4.0 * h**3), rel=1e-8)


def test_nonlocal_closed_cycle_exact_differential():
    # with z2 constant the integrand is d/dt[-(z1+z2)^-2 / 2]: zero over
    # an integer number of periods
    omega = 2.0 * math.pi * 1e3
    scen = MirrorScenario(
        TWO_LEVEL,
        (Harmonic1D(1e-7, 1e-8, omega), Constant1D(1.5e-7)),
        TimeWindow(0.0, 2.0 * 2.0 * math.pi / omega),
    )
    res = nonlocal_phase(scen, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-18))
    assert abs(res.value) < 1e-15


def test_nonlocal_antisymmetry_under_swap():
    p1 = Harmonic1D(1e-6, 2e-7, 2.0 * math.pi * 1e4)
    p2 = Linear1D(8e-7, 1e-3)
    w = TimeWindow(0.0, 2e-4)
    a = nonlocal_phase(MirrorScenario(TWO_LEVEL, (p1, p2), w), TIGHT)
    b = nonlocal_phase(MirrorScenario(TWO_LEVEL, (p2, p1), w), TIGHT)
    assert abs(a.value + b.value) <= a.error_estimate + b.error_estimate + 1e-18


def test_nonlocal_requires_two_level():
    scen = MirrorScenario(
        MULTI, (Linear1D(1e-6, 1.0), Linear1D(1e-6, -1.0)), TimeWindow(0.0, 1e-7)
    )
    with pytest.raises(NotTwoLevel):
        nonlocal_phase(scen)


def test_nonlocal_parallel_velocity_mismatch_warns():
    scen = MirrorScenario(
        TWO_LEVEL,
        (Linear1D(1e-6, 1.0, v_parallel=100.0), Linear1D(1e-6, -1.0, v_parallel=50.0)),
        TimeWindow(0.0, 1e-7),
    )
    with pytest.warns(ParallelVelocityMismatchWarning):
        nonlocal_phase(scen)


def test_collision_guard_trips():
    # scenario construction validates the path against the cutoff
    with pytest.raises(CollisionGuard):
        MirrorScenario(
            TWO_LEVEL, (Linear1D(5e-9, -1.0),), TimeWindow(0.0, 4.5e-9), z_min=1e-9
        )
    # evaluation-time guard on the bare coarse-grain operation
    with pytest.raises(CollisionGuard):
        coarse_grained_potential(TWO_LEVEL, Constant1D(1e-10), 0.0, z_min=1e-9)


def test_delay_window_past_the_window_is_checked_at_its_lowest_sample():
    # the sample just past t_end dips below z_min inside the delay windows
    # of the last outer nodes; the check names that sample and its exact z
    traj = SampledPolyline1D((0.0, 1e-12, 1e-12 + 2e-15, 1e-12 + 2e-14),
                             (1e-6, 1e-6, 0.899e-6, 1e-6))
    scen = MirrorScenario(TWO_LEVEL, (traj,), TimeWindow(0.0, 1e-12), z_min=0.9e-6)
    quasi_static_phase(scen)
    with pytest.raises(CollisionGuard) as info:
        motional_phase_mirror(scen)
    assert str(info.value) == (f"path reaches z = {0.899e-6!r} at sample t = {1e-12 + 2e-15!r}, "
                               f"below the near-contact cutoff {0.9e-6!r}")


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_motional_on_a_window_ending_at_the_last_sample_is_out_of_window(rel_tol):
    # the delay windows of the last outer nodes read past the last sample;
    # whether a node landed there used to depend on the tolerance
    traj = SampledPolyline1D((0.0, 1.5e-9, 3e-9), (1e-6, 1.2e-6, 1.05e-6))
    scen = MirrorScenario(TWO_LEVEL, (traj,), TimeWindow(0.0, 3e-9))
    with pytest.raises(OutOfWindow, match="exceeds sample range"):
        motional_phase_mirror(scen, 0, QuadratureSpec(rel_tol=rel_tol, max_subdivisions=5000))


def test_motional_checks_its_window_and_its_reach_once(monkeypatch):
    # a path nearing the mirror slower than c/2: its last delay window ends
    # furthest out, so one check past the window covers every delay window
    import casq.mirror_phases as mp

    spans = []
    check = mp.validate_positive_between

    def spy(traj, t0, t1, z_min=0.0):
        spans.append((t0, t1))
        return check(traj, t0, t1, z_min)

    monkeypatch.setattr(mp, "validate_positive_between", spy)
    traj = Harmonic1D(1e-6, 2e-7, 2e9)
    scen = MirrorScenario(TWO_LEVEL, (traj,), TimeWindow(0.0, 3e-9))
    res = motional_phase_mirror(scen, 0, QuadratureSpec(rel_tol=1e-10))
    assert res.converged and res.evaluations > 1000
    assert spans == [(0.0, 3e-9), (3e-9, 3e-9 + light_delay(traj.position(3e-9)))]


def test_motional_delay_average_that_misses_its_tolerance_raises():
    # delay averages used to miss their tolerance inside a result reported
    # as converged; the first one now ends the run, named with its window
    # (peak speed 1e8 m/s, a third of c)
    traj = Harmonic1D(1e-6, 1e-9, 1e17)
    scen = MirrorScenario(TWO_LEVEL, (traj,), TimeWindow(0.0, 1e-15))
    with pytest.raises(NonConvergent, match=r"^delay average over \[.*\] missed its "
                                            r"tolerance \(value=.*, error_estimate=.*\)$"):
        motional_phase_mirror(scen, 0, QuadratureSpec(rel_tol=1e-4, max_subdivisions=50))


def test_motional_refuses_a_faster_than_light_path():
    # a linear path at 3.3 c used to give a motional phase reported converged
    scen = MirrorScenario(TWO_LEVEL, (Linear1D(1e-6, 1e9),), TimeWindow(0.0, 1e-15))
    with pytest.raises(ValidationError, match=r"^motional phase: the path moves at up to "
                                              r"1000000000\.0 m/s, not below c/2 = "):
        motional_phase_mirror(scen)


@pytest.mark.parametrize("traj", [
    Linear1D(1.0, -0.5 * C_LIGHT),
    Harmonic1D(1.0, 0.5, C_LIGHT),
    # the fast segment lies outside the window: the bound covers the whole path
    SampledPolyline1D((0.0, 1.0, 2.0), (1.0, 1.0, 1.0 + 0.5 * C_LIGHT)),
], ids=["linear", "harmonic", "sampled"])
def test_motional_refuses_a_path_as_fast_as_half_c(traj):
    assert traj._fastest() == 0.5 * C_LIGHT
    scen = MirrorScenario(TWO_LEVEL, (traj,), TimeWindow(0.0, 1e-15))
    with pytest.raises(ValidationError, match="not below c/2"):
        motional_phase_mirror(scen)


@pytest.mark.parametrize("v", [0.999 * 0.5 * C_LIGHT, -0.999 * 0.5 * C_LIGHT])
def test_motional_runs_a_path_just_below_half_c(v):
    # nearing the mirror below c/2, t + tau(t) still grows with t, so the
    # one reach covers every delay window
    scen = MirrorScenario(TWO_LEVEL, (Linear1D(1e-6, v),), TimeWindow(0.0, 1e-15), z_min=0.0)
    assert motional_phase_mirror(scen).converged


def test_delay_window_below_float_resolution_raises():
    # at t = 1000 s a 2 fs delay window rounds to nothing; its average used
    # to fall back to U(t), and the motional phase to a converged 0
    traj = Linear1D(-99999.999999, 100.0)
    with pytest.raises(NonConvergent, match=r"^delay window at t = 1000\.0 is below float "
                                            r"resolution$"):
        coarse_grained_potential(TWO_LEVEL, traj, 1000.0)


# -- total ----------------------------------------------------------------------

def test_total_identical_paths():
    p = Harmonic1D(1e-6, 1e-7, 2.0 * math.pi * 1e9)
    scen = MirrorScenario(TWO_LEVEL, (p, p), TimeWindow(0.0, 2.5e-10))
    res = total_phase_difference(scen, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16))
    assert abs(res.value) < 1e-14
    for key in ("phi1_qs", "phi2_qs", "phi1_mot", "phi2_mot", "phi12"):
        assert key in res.breakdown


def test_total_breakdown_identity():
    scen = MirrorScenario(
        TWO_LEVEL,
        (Harmonic1D(8e-7, 1e-7, 2.0 * math.pi * 1e9), Constant1D(2e-6)),
        TimeWindow(0.0, 2.5e-10),
    )
    res = total_phase_difference(scen, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16))
    b = res.breakdown
    assert res.value == pytest.approx(
        b["phi1_qs"] + b["phi1_mot"] - b["phi2_qs"] - b["phi2_mot"] + b["phi12"],
        rel=1e-15,
    )


def test_total_far_field_decoupling():
    near = Harmonic1D(8e-7, 1e-7, 2.0 * math.pi * 1e9)
    far = Constant1D(1.0)  # a meter away: interaction beyond any cutoff
    w = TimeWindow(0.0, 2.5e-10)
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16)
    total = total_phase_difference(MirrorScenario(TWO_LEVEL, (near, far), w), spec)
    qs1 = quasi_static_phase(MirrorScenario(TWO_LEVEL, (near,), w), 0, spec)
    mot1 = motional_phase_mirror(MirrorScenario(TWO_LEVEL, (near,), w), 0, spec)
    assert total.value == pytest.approx(qs1.value + mot1.value, abs=1e-14)


def test_sampled_paths_put_their_samples_on_panel_edges(monkeypatch):
    import casq.mirror_phases as mp
    import casq.quadrature as quadrature

    seen = []
    engine = quadrature.integrate_adaptive

    def spy(f, a, b, spec=None, breaks=()):
        seen.append(sorted(set(breaks)))
        return engine(f, a, b, spec, breaks)

    # the window integrals run through quadrature.integrate_over_window,
    # the delay averages call the engine from mirror_phases
    monkeypatch.setattr(quadrature, "integrate_adaptive", spy)
    monkeypatch.setattr(mp, "integrate_adaptive", spy)
    # the sample at 4 ns covers p1's motional delay windows past 3 ns
    p1 = SampledPolyline1D((0.0, 1e-9, 2e-9, 3e-9, 4e-9), (1e-6, 1.2e-6, 1.1e-6, 1e-6, 1e-6))
    p2 = SampledPolyline1D((0.0, 1.5e-9, 3e-9), (1.3e-6, 1.4e-6, 1.3e-6))
    scen = MirrorScenario(TWO_LEVEL, (p1, p2), TimeWindow(0.0, 3e-9))
    quasi_static_phase(scen, 1)
    assert seen == [[1.5e-9]]
    seen.clear()
    nonlocal_phase(scen)
    assert seen == [[1e-9, 1.5e-9, 2e-9]]
    seen.clear()
    motional_phase_mirror(scen, 0)
    # the outer integral (the leading-order term is exact); the delay
    # averages seen here are the ones whose short window holds no sample
    assert seen.count([1e-9, 2e-9]) == 1
    assert all(b in ([], [1e-9, 2e-9]) for b in seen)
    # a delay window [t, t + tau] across the sample at 1 ns
    seen.clear()
    t = 1e-9 - 0.5 * light_delay(1.2e-6)
    coarse_grained_potential(TWO_LEVEL, p1, t)
    assert seen == [[1e-9]]
