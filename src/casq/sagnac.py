"""Rotation-induced geometric phases around a spinning dipolar particle.

An atom passing a small sphere spinning at angular velocity Omega picks up
a phase that looks like a Sagnac/Aharonov-Bohm term: the line integral of
an effective vector potential confined to the particle's neighbourhood,

    phi = sum_e [3 |d_eg|^2 Re alpha_S''(omega_eg) / ((4 pi eps0)^2 hbar)]
          * int_P dr . (Omega x r) / r^8,

where alpha_S(w) is the sphere's rest polarizability, modelled here as a
single-resonance Lorentz oscillator

    alpha_S(w) = alpha0 * wS^2 / (wS^2 - w^2 - i gamma w),

and alpha_S'' is its second frequency derivative. The strength is set by
the length scale

    ell^6 = sum_e |d_eg|^2 Re alpha_S''(omega_eg) |Omega| / ((4 pi eps0)^2 hbar).

For a straight line r(t) = v t ux + y uy in the plane perpendicular to
Omega = Omega uz, the closed form is |phi| = (15 pi / 16) (ell / y)^6.
``sagnac_phase_straightline`` adopts the convention that the phase is
+(15 pi/16)(ell/y)^6 sgn(y); the direct line integral with Omega along
+uz and motion along +ux evaluates to the opposite sign (flipping Omega
or the traversal direction relates the two), so the reliable invariants
are the magnitude and the antisymmetry in y, and ``sagnac_phase`` always
reports the line integral of the vectors actually supplied.

The derivation assumes the light travel time between atom and particle is
much smaller than the internal response times; the numeric path warns when
the closest approach violates min(omega_eg) * d / c <= 0.1.
"""

from __future__ import annotations

import math
import sys
import warnings

from .constants import C_LIGHT, FOUR_PI_EPS0, HBAR
from .errors import (
    CollisionGuard,
    NearFieldValidityWarning,
    NegativeRadicand,
    NonFiniteEvaluation,
    NonPositiveDistance,
    PoleProximity,
    ZeroImpactParameter,
)
from .quadrature import integrate_over_window
from .species import POLE_GUARD_DEFAULT, AtomSpecies, two_level_transition
from .trajectories import TimeWindow
from .value import IntegralResult, QuadratureSpec, Value, check_fields, set_field
from .vec3 import Vec3, norm3, vec3

__all__ = [
    "SpinningParticle",
    "alpha_s",
    "re_alpha_second",
    "ell_omega",
    "sagnac_phase",
    "sagnac_phase_straightline",
    "sagnac_total_symmetric",
]

#: Retardation threshold for the near-field validity warning.
_NEAR_FIELD_LIMIT = 0.1


class SpinningParticle(Value):
    """Spinning sphere: Lorentz rest polarizability plus rotation vector.

    ``alpha0`` static polarizability (F m^2), ``omega_s`` resonance (rad/s),
    ``gamma`` damping (rad/s, >= 0), ``omega`` angular velocity vector
    (rad/s), ``radius`` (m), inside which a path raises :class:`CollisionGuard`.
    """

    __slots__ = ("alpha0", "omega_s", "omega", "gamma", "radius")

    def __init__(self, alpha0: float, omega_s: float, omega: Vec3, gamma: float = 0.0,
                 radius: float = 0.0):
        omega = vec3(omega, "SpinningParticle: omega")
        check_fields("SpinningParticle", positive=("alpha0", "omega_s"),
                     nonnegative=("gamma", "radius"),
                     alpha0=alpha0, omega_s=omega_s, omega=omega, gamma=gamma, radius=radius)
        set_field(self, "alpha0", alpha0)
        set_field(self, "omega_s", omega_s)
        set_field(self, "omega", omega)
        set_field(self, "gamma", gamma)
        set_field(self, "radius", radius)


def _guard_pole(particle: SpinningParticle, omega: float, name: str) -> None:
    """:class:`PoleProximity` within the guard band of an undamped resonance."""
    if particle.gamma == 0.0 and abs(abs(omega) - particle.omega_s) < POLE_GUARD_DEFAULT * particle.omega_s:
        raise PoleProximity(
            f"{name}({omega!r}): undamped resonance at {particle.omega_s!r} rad/s"
        )


def alpha_s(particle: SpinningParticle, omega: float) -> complex:
    """Rest polarizability alpha0 wS^2 / (wS^2 - w^2 - i gamma w), F m^2."""
    _guard_pole(particle, omega, "alpha_s")
    ws2 = particle.omega_s**2
    d = complex(ws2 - omega * omega, -particle.gamma * omega)
    return particle.alpha0 * ws2 / d


def re_alpha_second(particle: SpinningParticle, omega: float) -> float:
    """Re d^2 alpha_S / d omega^2 of the Lorentz model (F m^2 s^2).

    Closed form: alpha'' = 2 alpha0 wS^2 [D + (2w + i gamma)^2] / D^3 with
    D = wS^2 - w^2 - i gamma w. Even in omega for gamma = 0.
    """
    _guard_pole(particle, omega, "re_alpha_second")
    ws2 = particle.omega_s**2
    d = complex(ws2 - omega * omega, -particle.gamma * omega)
    num = d + (2.0 * omega + 1j * particle.gamma) ** 2
    return (2.0 * particle.alpha0 * ws2 * num / d**3).real


def _prefactor(species: AtomSpecies, particle: SpinningParticle) -> float:
    """sum_e 3 |d_eg|^2 Re alpha_S''(omega_eg) / ((4 pi eps0)^2 hbar), rad m^6 / (rad/s)."""
    return math.fsum(
        3.0 * t.d2 * re_alpha_second(particle, t.omega_eg) for t in species.transitions
    ) / (FOUR_PI_EPS0**2 * HBAR)


def ell_omega(species: AtomSpecies, particle: SpinningParticle) -> float:
    """Characteristic length ell with ell^6 as in the module docstring (m).

    Uses |Omega| so the result is a length for any rotation orientation;
    orientation only enters the line integral. A negative transition-
    weighted sum (a transition above the sphere resonance can flip the sign
    of alpha'') raises :class:`NegativeRadicand` carrying the signed value.
    """
    omega_mag = norm3(particle.omega)
    radicand = (
        math.fsum(t.d2 * re_alpha_second(particle, t.omega_eg) for t in species.transitions)
        * omega_mag
        / (FOUR_PI_EPS0**2 * HBAR)
    )
    if radicand < 0.0:
        raise NegativeRadicand(
            f"ell_omega: transition-weighted radicand is negative ({radicand!r} m^6)",
            value=radicand,
        )
    return radicand ** (1.0 / 6.0)


def sagnac_phase(
    species: AtomSpecies,
    particle: SpinningParticle,
    traj,
    window: TimeWindow,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Line integral of (Omega x r) / r^8 along the path, times the prefactor.

    Improper windows are admitted because the integrand decays like r^-7
    along any straight line; the window's ``improper`` flag is the caller's
    decay certification. The path is checked once, at its exact closest approach
    d: :class:`NonFiniteEvaluation` where d is NaN (the path's coordinates
    overflow), :class:`NonPositiveDistance` at d = 0, :class:`CollisionGuard`
    below ``particle.radius``, :class:`NonFiniteEvaluation` where d^8
    underflows (r^-8 leaves the float range), a
    :class:`NearFieldValidityWarning` far out. Where r^8 overflows, r^-8 is
    taken as (1/r^2)^4, which is subnormal or 0 there.
    """
    pref = _prefactor(species, particle)

    d = traj.closest_approach(window)
    if math.isnan(d):
        raise NonFiniteEvaluation("sagnac_phase: closest approach nan: the path's coordinates "
                                  "overflow the float range")
    if d == 0.0:
        raise NonPositiveDistance("sagnac_phase: the path passes through the particle's centre")
    if d < particle.radius:
        raise CollisionGuard(f"sagnac_phase: closest approach {d!r} m inside the particle "
                             f"radius {particle.radius!r} m")
    # min: d**8 itself raises OverflowError for d beyond about 1e38 m
    if min(d, 1.0) ** 8 < sys.float_info.min:
        raise NonFiniteEvaluation(f"sagnac_phase: closest approach {d!r} m puts r^-8 beyond "
                                  "the float range (d^8 underflows)")
    w_min = min(t.omega_eg for t in species.transitions)
    if w_min * d / C_LIGHT > _NEAR_FIELD_LIMIT:
        warnings.warn(
            f"closest approach {d!r} m gives omega_eg*d/c = {w_min * d / C_LIGHT:.3g} "
            "> 0.1; the short-distance (nonretarded) derivation is marginal here",
            NearFieldValidityWarning,
            stacklevel=2,
        )

    ox, oy, oz = particle.omega
    tangent = traj.tangent
    position = traj.position

    def integrand(t: float) -> float:
        # v . (Omega x r) / r^8, in the order of dot3(v, cross3(Omega, r) * w)
        vx, vy, vz = tangent(t)
        rx, ry, rz = position(t)
        rr = rx * rx + ry * ry + rz * rz
        try:
            w = 1.0 / rr**4
        except OverflowError:  # r^8 past the float range: r^-8 is subnormal or 0
            s = 1.0 / rr
            w = s * s * s * s
        return (vx * ((oy * rz - oz * ry) * w) + vy * ((oz * rx - ox * rz) * w)
                + vz * ((ox * ry - oy * rx) * w))

    res = integrate_over_window(integrand, window, spec, traj)
    return res.replace(
        value=pref * res.value,
        error_estimate=abs(pref) * res.error_estimate,
        breakdown={"line_integral": res.value, "prefactor": pref},
    )


def sagnac_phase_straightline(
    species: AtomSpecies, particle: SpinningParticle, y: float
) -> float:
    """Closed form for a straight line at signed impact parameter y (rad).

    phi = (15 pi / 16) (ell / |y|)^6 sgn(y) for motion perpendicular to
    Omega (see the module docstring for how this sign convention relates
    to the direct line-integral orientation).
    """
    if y == 0.0:
        raise ZeroImpactParameter("straight-line phase undefined at y = 0")
    ell = ell_omega(species, particle)
    return math.copysign((15.0 * math.pi / 16.0) * (ell / abs(y)) ** 6, y)


def sagnac_total_symmetric(
    species: AtomSpecies, particle: SpinningParticle, y1: float
) -> IntegralResult:
    """Two-path total for symmetric straight paths y2 = -y1 (two-level atom).

    Delta phi = (21 pi / 16) (ell / y1)^6. The local difference
    phi1 - phi2 alone would be (30 pi / 16) (ell / y1)^6, so the implied
    nonlocal contribution -(9 pi / 16) (ell / y1)^6 cuts the total by
    about a third; both appear in the breakdown.
    """
    two_level_transition(species)
    if not y1 > 0.0:
        raise NonPositiveDistance(f"sagnac_total_symmetric: y1 must be > 0, got {y1!r}")
    ell = ell_omega(species, particle)
    base = (ell / y1) ** 6
    local = (30.0 * math.pi / 16.0) * base
    total = (21.0 * math.pi / 16.0) * base
    breakdown = {"local_difference": local, "implied_nonlocal": total - local}
    return IntegralResult(total, 0.0, breakdown=breakdown)
