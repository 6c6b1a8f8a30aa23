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
"""

from __future__ import annotations

import math
import warnings

from .constants import C_LIGHT, EPSILON_0, FOUR_PI_EPS0, HBAR, Z_MIN_DEFAULT
from .errors import (
    CollisionGuard,
    NonPositiveDistance,
    ParallelVelocityMismatchWarning,
)
from .quadrature import integrate_adaptive, integrate_improper
from .species import AtomSpecies, alpha_static, mean_square_dipole, two_level_transition
from .trajectories import TimeWindow, light_delay, validate_positive_over_window
from .value import DEFAULT_SPEC, IntegralResult, QuadratureSpec, Value, check_fields, set_field

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
    """Species plus one or two axial paths over a common window."""

    __slots__ = ("species", "paths", "window", "z_min")

    def __init__(self, species: AtomSpecies, paths: tuple, window: TimeWindow,
                 z_min: float = Z_MIN_DEFAULT):
        check_fields("MirrorScenario", nonnegative=("z_min",), z_min=z_min)
        paths = tuple(paths)
        if not 1 <= len(paths) <= 2:
            raise ValueError(f"MirrorScenario: need 1 or 2 paths, got {len(paths)}")
        for p in paths:
            validate_positive_over_window(p, window, z_min=z_min)
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


def _guarded_z(traj, t: float, z_min: float) -> float:
    z = traj.position(t)
    if z < z_min:
        raise CollisionGuard(
            f"path at z = {z!r} m (t = {t!r} s) below the near-contact cutoff {z_min!r} m"
        )
    if not z > 0.0:
        raise NonPositiveDistance(f"path reached z = {z!r} at t = {t!r}")
    return z


def _integrate_window(f, window: TimeWindow, spec: QuadratureSpec, *paths):
    """Integral of f over the window, with the paths' kinks on panel edges."""
    if window.improper:
        return integrate_improper(f, spec)
    breaks = [t for p in paths for t in p.breakpoints(window.t_start, window.t_end)]
    return integrate_adaptive(f, window.t_start, window.t_end, spec, breaks)


def quasi_static_phase(
    scenario: MirrorScenario,
    path_index: int = 0,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """phi_qs = -(1/hbar) int U(z(t)) dt along one path."""
    spec = spec or DEFAULT_SPEC
    traj = scenario.paths[path_index]
    c3 = _c3(scenario.species)

    def integrand(t: float) -> float:
        z = _guarded_z(traj, t, scenario.z_min)
        return c3 / (HBAR * z**3)  # = -U/hbar

    res = _integrate_window(integrand, scenario.window, spec, traj)
    return res.replace(breakdown={"quasi_static": res.value})


def _delay_average(c3: float, traj, t: float, z_min: float, spec: QuadratureSpec):
    """U(t), its average Ubar(t) over [t, t + tau(t)] and the evaluations
    the average took; Ubar is None when the delay window is below float
    resolution at t."""

    def u(tp: float) -> float:
        z = _guarded_z(traj, tp, z_min)
        return -c3 / z**3

    tau = light_delay(_guarded_z(traj, t, z_min))
    # normalize by the realized float width of [t, t + tau]: dividing by the
    # exact tau instead would inject a spurious eps*t/tau relative offset
    t_hi = t + tau
    tau_eff = t_hi - t
    if tau_eff <= 0.0:
        return u(t), None, 0
    # a sample time inside the delay window is a kink of u
    avg = integrate_adaptive(u, t, t_hi, spec, traj.breakpoints(t, t_hi))
    return u(t), avg.value / tau_eff, avg.evaluations


def coarse_grained_potential(
    species: AtomSpecies,
    traj,
    t: float,
    spec: QuadratureSpec | None = None,
    z_min: float = Z_MIN_DEFAULT,
) -> float:
    """Potential averaged over the round-trip delay window [t, t + tau(t)].

    tau is evaluated at the window start only; a sampled trajectory that
    cannot cover t + tau raises :class:`OutOfWindow` rather than clamping,
    because clamping would bias the motional phase near window edges.
    """
    u_t, ubar, _ = _delay_average(_c3(species), traj, t, z_min, spec or _INNER_SPEC)
    return u_t if ubar is None else ubar


def motional_phase_mirror(
    scenario: MirrorScenario,
    path_index: int = 0,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """phi_mot = -(1/hbar) int (Ubar - U) dt along one path.

    The breakdown also reports the first-order-in-velocity local form
    -(3 C3 / hbar c) int zdot / z^3 dt and the ratio of the full result to
    it; the two agree up to O((v/c)^2) but carry no exact common prefactor,
    so both are reported instead of asserting equality.
    """
    spec = spec or DEFAULT_SPEC
    traj = scenario.paths[path_index]
    c3 = _c3(scenario.species)
    inner_evals = [0]

    def integrand(t: float) -> float:
        u_t, ubar, evals = _delay_average(c3, traj, t, scenario.z_min, _INNER_SPEC)
        inner_evals[0] += evals
        if ubar is None:
            return 0.0
        return -(ubar - u_t) / HBAR

    res = _integrate_window(integrand, scenario.window, spec, traj)

    def lead_integrand(t: float) -> float:
        z = _guarded_z(traj, t, scenario.z_min)
        return -(3.0 * c3 / (HBAR * C_LIGHT)) * traj.velocity(t) / z**3

    lead = _integrate_window(lead_integrand, scenario.window, spec, traj)

    breakdown = {"motional": res.value, "leading_order_local": lead.value}
    if lead.value != 0.0:
        breakdown["ratio_to_leading"] = res.value / lead.value
    return res.replace(
        evaluations=res.evaluations + inner_evals[0] + lead.evaluations,
        converged=res.converged and lead.converged,
        breakdown=breakdown,
    )


def nonlocal_phase(
    scenario: MirrorScenario,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Two-path phase phi_12 for a two-level atom near a perfect mirror.

    phi_12 = [3 w0 alpha(0) / (4 pi eps0 c)] int (zdot1 - zdot2)/(z1+z2)^3 dt.
    Antisymmetric under swapping the paths; invariant under a common time
    reparametrization; flips sign when both paths are reversed.
    """
    spec = spec or DEFAULT_SPEC
    if len(scenario.paths) != 2:
        raise ValueError("nonlocal_phase needs a scenario with exactly two paths")
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
        z1 = _guarded_z(p1, t, scenario.z_min)
        z2 = _guarded_z(p2, t, scenario.z_min)
        return k * (p1.velocity(t) - p2.velocity(t)) / (z1 + z2) ** 3

    res = _integrate_window(integrand, scenario.window, spec, p1, p2)
    return res.replace(breakdown={"nonlocal": res.value})


def total_phase_difference(
    scenario: MirrorScenario,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Total two-path observable: (phi1_qs + phi1_mot) - (phi2_qs + phi2_mot) + phi_12."""
    spec = spec or DEFAULT_SPEC
    if len(scenario.paths) != 2:
        raise ValueError("total_phase_difference needs a scenario with exactly two paths")
    qs1 = quasi_static_phase(scenario, 0, spec)
    qs2 = quasi_static_phase(scenario, 1, spec)
    mot1 = motional_phase_mirror(scenario, 0, spec)
    mot2 = motional_phase_mirror(scenario, 1, spec)
    nl = nonlocal_phase(scenario, spec)
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
