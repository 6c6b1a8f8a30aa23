"""Interferometer phases for paths near a perfect mirror at z = 0.

For a ground-state atom at distance z from a perfectly reflecting plane,
the nonretarded interaction with its image dipole gives

    U(z) = - <d^2> / (48 pi eps0 z^3),

the isotropic image-dipole result (average over dipole orientations of
E = [d.d' - 3 (d.n)(d'.n)] / (2 * 4 pi eps0 (2z)^3) with image components
(-dx, -dy, +dz)). Three phases build on it:

quasi-static   phi_qs  = -(1/hbar) int U(z(t)) dt
motional       phi_mot = -(1/hbar) int (Ubar - U) dt, where Ubar averages
               U over the round-trip light delay tau(t) = 2 z(t) / c:
               Ubar(t) = (1/tau) int_t^{t+tau} U(z(t')) dt'
nonlocal       phi_12  = [3 w0 alpha(0) / (4 pi eps0 c)]
                          * int (zdot1 - zdot2) / (z1 + z2)^3 dt
               (two-level atom; a genuinely two-path quantity)

The motional term is the finite-interaction-time correction and is smaller
than phi_qs by O(v/c); the nonlocal term is geometric: reparametrizing
time drops out of (zdot dt) and reversing both paths flips its sign.

The motional phase's leading-order local form, a total derivative, is
exact; each phase integral over the scenario window is one
:func:`integrate_over_window` call.

Each span of a path that a phase reads is checked once, exactly, before
its integral runs: a :class:`MirrorScenario` checks its window, and a
motional phase the reach [t_end, t_end + tau(t_end)] of its delay windows
[t, t + tau(t)]. A motional phase refuses a path as fast as c/2, so
d(t + tau)/dt = 1 + 2 zdot/c > 0 and no delay window reads past the reach.
"""

from __future__ import annotations

import math
import warnings

from .constants import C_LIGHT, EPSILON_0, FOUR_PI_EPS0, HBAR, Z_MIN_DEFAULT
from .errors import (ImproperWindow, NonConvergent, NonPositiveDistance,
                     ParallelVelocityMismatchWarning, ValidationError)
from .quadrature import integrate_adaptive, integrate_over_window
from .species import AtomSpecies, alpha_static, mean_square_dipole, two_level_transition
from .trajectories import TimeWindow, light_delay, validate_positive_between
from .value import IntegralResult, QuadratureSpec, Value, check_fields, set_field

__all__ = [
    "MirrorScenario",
    "Z_MIN_DEFAULT",
    "vdw_potential",
    "quasi_static_phase",
    "coarse_grained_potential",
    "motional_phase_mirror",
    "nonlocal_phase",
    "total_phase_difference",
]

#: Inner (coarse-graining) integrals feed the cancellation Ubar - U, which
#: amplifies their relative noise by about c/v; they run at a fixed tight
#: tolerance, cheap because the delay window is tiny and smooth.
_INNER_SPEC = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=64)


class MirrorScenario(Value):
    """Species plus one or two axial paths over a common bounded window; over
    all time the phases of a path kept off the mirror diverge."""

    __slots__ = ("species", "paths", "window", "z_min")

    def __init__(self, species: AtomSpecies, paths: tuple, window: TimeWindow,
                 z_min: float = Z_MIN_DEFAULT):
        check_fields("MirrorScenario", nonnegative=("z_min",), z_min=z_min)
        paths = tuple(paths)
        if not 1 <= len(paths) <= 2:
            raise ValueError(f"MirrorScenario: need 1 or 2 paths, got {len(paths)}")
        if window.improper:
            raise ImproperWindow("mirror phases need a bounded window: over all time the "
                                 "phases of a path kept off the mirror diverge")
        for p in paths:
            validate_positive_between(p, window.t_start, window.t_end, z_min)
        set_field(self, "species", species)
        set_field(self, "paths", paths)
        set_field(self, "window", window)
        set_field(self, "z_min", z_min)


def vdw_potential(species: AtomSpecies, z: float) -> float:
    """Nonretarded atom-mirror potential U(z) = -<d^2>/(48 pi eps0 z^3), in J."""
    if not z > 0.0:
        raise NonPositiveDistance(f"vdw_potential: z must be > 0, got {z!r}")
    return -mean_square_dipole(species) / (48.0 * math.pi * EPSILON_0 * z**3)


def _c3(species: AtomSpecies) -> float:
    """Coefficient C3 with U(z) = -C3 / z^3 (J m^3)."""
    return mean_square_dipole(species) / (48.0 * math.pi * EPSILON_0)


def quasi_static_phase(
    scenario: MirrorScenario,
    path_index: int = 0,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """phi_qs = -(1/hbar) int U(z(t)) dt along one path."""
    traj = scenario.paths[path_index]
    c3 = _c3(scenario.species)

    def integrand(t: float) -> float:
        return c3 / (HBAR * traj.position(t) ** 3)  # = -U/hbar

    res = integrate_over_window(integrand, scenario.window, spec, traj)
    return res.replace(breakdown={"quasi_static": res.value})


def _delay_average(c3: float, traj, t: float, t_hi: float):
    """Ubar(t), the average of U over the checked delay window [t, t_hi],
    and the evaluations it took; :class:`NonConvergent` when the window is
    below float resolution at t or the average misses _INNER_SPEC."""
    # normalize by the realized float width of [t, t + tau]: dividing by the
    # exact tau instead would inject a spurious eps*t/tau relative offset
    tau_eff = t_hi - t
    if tau_eff <= 0.0:
        raise NonConvergent(f"delay window at t = {t!r} is below float resolution")
    # a sample time inside the delay window is a kink of U(z(t'))
    avg = integrate_adaptive(lambda tp: -c3 / traj.position(tp) ** 3, t, t_hi, _INNER_SPEC,
                             traj.breakpoints(t, t_hi))
    if not avg.converged:
        raise NonConvergent(f"delay average over [{t!r}, {t_hi!r}] missed its tolerance "
                            f"(value={avg.value!r}, error_estimate={avg.error_estimate!r})")
    return avg.value / tau_eff, avg.evaluations


def coarse_grained_potential(
    species: AtomSpecies, traj, t: float, z_min: float = Z_MIN_DEFAULT
) -> float:
    """Potential averaged over the round-trip delay window [t, t + tau(t)].

    tau is evaluated at the window start only, and the path is checked over
    the delay window; a sampled trajectory that cannot cover t + tau raises
    :class:`OutOfWindow` rather than clamping, because clamping would bias
    the motional phase near window edges.
    """
    c3, z = _c3(species), traj.position(t)
    t_hi = t + light_delay(z)
    validate_positive_between(traj, t, t_hi, z_min)
    return _delay_average(c3, traj, t, t_hi)[0]


def motional_phase_mirror(
    scenario: MirrorScenario,
    path_index: int = 0,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """phi_mot = -(1/hbar) int (Ubar - U) dt along one path.

    The breakdown also reports the first-order-in-velocity local form
    -(3 C3 / hbar c) int zdot / z^3 dt, exactly, as (3 C3 / 2 hbar c)
    (1/z(t1)^2 - 1/z(t0)^2) (z is continuous on every path kind), and the
    ratio of the full result to it; the two agree up to O((v/c)^2) but carry
    no exact common prefactor, so both are reported instead of asserting
    equality. A path as fast as c/2 is refused (:class:`ValidationError`):
    below it t + tau(t) grows with t, so one reach covers every delay window.
    """
    traj = scenario.paths[path_index]
    c3 = _c3(scenario.species)
    w = scenario.window
    fastest = traj._fastest()
    if not fastest < 0.5 * C_LIGHT:
        raise ValidationError(f"motional phase: the path moves at up to {fastest!r} m/s, "
                              f"not below c/2 = {0.5 * C_LIGHT!r} m/s")
    # the scenario checked [t_start, t_end]; the delay windows read on to here
    reach = w.t_end + light_delay(traj.position(w.t_end))
    validate_positive_between(traj, w.t_end, reach, scenario.z_min)
    inner_evals = [0]

    def integrand(t: float) -> float:
        z = traj.position(t)
        ubar, evals = _delay_average(c3, traj, t, t + 2.0 * z / C_LIGHT)
        inner_evals[0] += evals
        return -(ubar + c3 / z**3) / HBAR  # -(Ubar - U) / hbar, U = -C3 / z^3

    res = integrate_over_window(integrand, w, spec, traj)
    lead = (3.0 * c3 / (2.0 * HBAR * C_LIGHT)) * (1.0 / traj.position(w.t_end) ** 2
                                                  - 1.0 / traj.position(w.t_start) ** 2)
    breakdown = {"motional": res.value, "leading_order_local": lead}
    if lead != 0.0:
        breakdown["ratio_to_leading"] = res.value / lead
    return res.replace(evaluations=res.evaluations + inner_evals[0], breakdown=breakdown)


def nonlocal_phase(
    scenario: MirrorScenario,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Two-path phase phi_12 for a two-level atom near a perfect mirror.

    phi_12 = [3 w0 alpha(0) / (4 pi eps0 c)] int (zdot1 - zdot2)/(z1+z2)^3 dt.
    Antisymmetric under swapping the paths; invariant under a common time
    reparametrization; flips sign when both paths are reversed.
    """
    if len(scenario.paths) != 2:
        raise ValueError("the nonlocal phase needs a scenario with exactly two paths")
    tr = two_level_transition(scenario.species)
    p1, p2 = scenario.paths
    vp1, vp2 = p1.v_parallel, p2.v_parallel
    if vp1 is not None and vp2 is not None and vp1 != vp2:
        warnings.warn(
            f"paths declare different parallel velocities ({vp1!r} vs {vp2!r}); "
            "the two-path formula assumes a common parallel velocity",
            ParallelVelocityMismatchWarning,
            stacklevel=2,
        )
    k = 3.0 * tr.omega_eg * alpha_static(scenario.species) / (FOUR_PI_EPS0 * C_LIGHT)

    def integrand(t: float) -> float:
        return k * (p1.tangent(t) - p2.tangent(t)) / (p1.position(t) + p2.position(t)) ** 3

    res = integrate_over_window(integrand, scenario.window, spec, p1, p2)
    return res.replace(breakdown={"nonlocal": res.value})


def total_phase_difference(
    scenario: MirrorScenario,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Total two-path observable: (phi1_qs + phi1_mot) - (phi2_qs + phi2_mot) + phi_12."""
    # first: it refuses one path or a species not two-level before any other phase runs
    nl = nonlocal_phase(scenario, spec)
    qs1 = quasi_static_phase(scenario, 0, spec)
    qs2 = quasi_static_phase(scenario, 1, spec)
    mot1 = motional_phase_mirror(scenario, 0, spec)
    mot2 = motional_phase_mirror(scenario, 1, spec)
    parts = (qs1, qs2, mot1, mot2, nl)
    value = (qs1.value + mot1.value) - (qs2.value + mot2.value) + nl.value
    return IntegralResult(
        value=value,
        error_estimate=math.fsum(p.error_estimate for p in parts),
        evaluations=sum(p.evaluations for p in parts),
        converged=all(p.converged for p in parts),
        breakdown={
            "phi1_qs": qs1.value,
            "phi1_mot": mot1.value,
            "phi2_qs": qs2.value,
            "phi2_mot": mot2.value,
            "phi12": nl.value,
        },
    )
