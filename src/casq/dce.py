"""Photon-pair emission from a ground-state atom oscillating in free space.

The atom couples to the field through an effective Hamiltonian quadratic
in the field operators, with the internal structure absorbed into the
static polarizability alpha0 (emitted frequencies sit far below every
transition). Two couplings are first order in v/c and feed pair creation
at the trap frequency w_cm:

* the motion of the quadratic-in-E potential, i.e. the gradient term
  r(t) . grad (E.E), and
* the velocity-magnetic cross terms E . (v x B) (the B^2 term is of higher
  order and dropped for consistency).

For r(t) = r_max sin(w_cm t) u the rotating-wave component that creates a
photon pair (k1 l1, k2 l2) with c(k1 + k2) = w_cm has the volume-stripped
amplitude density

    h = (alpha0 hbar sqrt(w1 w2) / (4 eps0)) (v_max / c) * A,
    A = (e1.e2) [x1 (k1.u) + x2 (k2.u)]
        + u . [ (k2 x e2) x e1 + (k1 x e1) x e2 ],          x_i = w_i / w_cm,

with unit wavevectors k_i and transverse polarizations e_i. The total rate
follows from the golden rule with continuum normalization (each sum over
modes becomes V int d^3k/(2 pi)^3 per polarization, the volume cancels):

    Gamma_pairs = (1/2) (2 pi / hbar^2) int d^3k1/(2pi)^3 d^3k2/(2pi)^3
                  sum_pol |h|^2 delta(w1 + w2 - w_cm),

the 1/2 undoing the double count of each unordered pair. The energy delta
is eliminated analytically against the second radial variable (no
finite-width shell knob). Reported rates and spectra count PHOTONS, two
per pair, so the spectral density integrates to the total rate.

Reducing to dimensionless variables x = w1/w_cm gives

    Gamma_photons = 2 * P * w_cm^7 * I,
    P = pi alpha0^2 v_max^2 / (16 eps0^2 c^8 (2 pi)^6),
    I = int_0^1 x^3 (1-x)^3 A_ang(x) dx,

where A_ang(x) is the double-sphere angular integral of sum_pol |A|^2.
Normalizing by (a/r_max)^6 (v_max/c)^8 w_cm (with alpha0 = 4 pi eps0 a^3)
cancels every dimensional factor and leaves the coefficient I / (32 pi^3),
which the closed form pins at 23 / (5670 pi).

The amplitude is linear in x by construction, so sum_pol |A|^2 is exactly
quadratic in x, and exchanging the photons maps x to 1 - x, so A_ang is
even about x = 1/2. The angular factor at x = 0 and x = 1/2 therefore
fixes it exactly:

    A_ang(x) = A_ang(0) (1-2x)^2 + A_ang(1/2) 4x(1-x),
    I = [A_ang(0) + 8 A_ang(1/2)] / 1260,

with the Beta integrals int x^3(1-x)^3 (1-2x)^2 dx = 1/1260 and
int x^3(1-x)^3 4x(1-x) dx = 2/315; no radial quadrature remains.

Each angular factor is exact on a product of two spherical 5-designs.
With b_i = k_i x e_i, c = x1 (k1.u) + x2 (k2.u) and [u]x w = u x w,

    A = c e1.e2 + e1^T [u]x b2 - b1^T [u]x e2.

Each term of |A|^2 is linear in one of e1 e1^T, e1 b1^T, b1 b1^T and in one
of e2 e2^T, e2 b2^T, b2 b2^T. Their polarization sums are I - k k^T for
e e^T and b b^T (degree 2 in k) and -[k]x for e b^T (degree 1, b = [k]x e).
The factor c has degree 1 in each k_i and enters squared only next to
e1 e1^T and e2 e2^T, so sum_pol |A|^2 has degree <= 4 in the components of
each unit wavevector. The 12 icosahedron vertices, weighted 4 pi/12, form a
5-design: they integrate every polynomial of degree <= 5 on S^2 exactly
(Delsarte, Goethals & Seidel, Geom. Dedicata 6, 1977; Hardin & Sloane,
Discrete Comput. Geom. 15, 1996). Their 144-point product rule is therefore
exact, and only round-off remains.
"""

from __future__ import annotations

import math
import sys

from .constants import C_LIGHT, EPSILON_0, FOUR_PI_EPS0, HBAR
from .errors import RWAViolation
from .value import DEFAULT_SPEC, IntegralResult, QuadratureSpec, Value, check_fields, set_field
from .vec3 import Vec3, cross3, dot3, norm3, normalize3, perp_basis, scale3, sub3, vec3

__all__ = [
    "OscillationParams",
    "dce_rate_closed",
    "pair_emission_amplitude",
    "dce_rate_numeric",
    "CLOSED_FORM_COEFFICIENT",
]

#: Dimensionless coefficient of the closed-form rate,
#: Gamma = coeff * (a/r_max)^6 (v_max/c)^8 w_cm.
CLOSED_FORM_COEFFICIENT = 23.0 / (5670.0 * math.pi)

#: Relative tolerance of the energy-shell check w1 + w2 = w_cm.
_SHELL_REL_TOL = 1e-9


class OscillationParams(Value):
    """Harmonic center-of-mass motion r_max sin(w_cm t) along ``direction``.

    ``alpha0`` is the atom's static polarizability (F m^2). r_max = 0 is
    admitted as the degenerate no-motion case (v_max = 0, zero emission).
    """

    __slots__ = ("r_max", "omega_cm", "alpha0", "direction")

    def __init__(self, r_max: float, omega_cm: float, alpha0: float,
                 direction: Vec3 = (0.0, 0.0, 1.0)):
        direction = vec3(direction, "OscillationParams: direction")
        check_fields("OscillationParams", positive=("omega_cm", "alpha0"), nonnegative=("r_max",),
                     r_max=r_max, omega_cm=omega_cm, alpha0=alpha0, direction=direction)
        set_field(self, "r_max", r_max)
        set_field(self, "omega_cm", omega_cm)
        set_field(self, "alpha0", alpha0)
        set_field(self, "direction", normalize3(direction))

    @property
    def v_max(self) -> float:
        return self.omega_cm * self.r_max

    @property
    def a_equiv(self) -> float:
        """Atomic length scale a with alpha0 = 4 pi eps0 a^3 (m)."""
        return (self.alpha0 / FOUR_PI_EPS0) ** (1.0 / 3.0)


def dce_rate_closed(params: OscillationParams) -> float:
    """Closed-form total photon rate (1/s), evaluated in log space.

    Gamma = (23 / 5670 pi) (a / r_max)^6 (v_max / c)^8 w_cm, equivalently
    (23 / 5670 pi) a^6 v_max^2 w_cm^7 / c^8.
    """
    return _si_scale(params, CLOSED_FORM_COEFFICIENT)


def _si_scale(params: OscillationParams, coefficient: float = 1.0) -> float:
    """coefficient a^6 v_max^2 w_cm^7 / c^8, in log space to dodge under/overflow."""
    if params.r_max == 0.0:
        return 0.0
    return math.exp(
        math.log(coefficient)
        + 6.0 * math.log(params.a_equiv)
        + 2.0 * math.log(params.v_max)
        + 7.0 * math.log(params.omega_cm)
        - 8.0 * math.log(C_LIGHT)
    )


def _geometric_amplitude(
    x1: float, k1: Vec3, e1: Vec3, k2: Vec3, e2: Vec3, u: Vec3
) -> float:
    """Dimensionless pair amplitude A (linear in x1); see module docstring."""
    x2 = 1.0 - x1
    grad_part = dot3(e1, e2) * (x1 * dot3(k1, u) + x2 * dot3(k2, u))
    w1 = cross3(cross3(k2, e2), e1)
    w2 = cross3(cross3(k1, e1), e2)
    return grad_part + (
        u[0] * (w1[0] + w2[0]) + u[1] * (w1[1] + w2[1]) + u[2] * (w1[2] + w2[2])
    )


def pair_emission_amplitude(
    params: OscillationParams,
    photon1: tuple[Vec3, Vec3],
    photon2: tuple[Vec3, Vec3],
) -> complex:
    """Volume-stripped amplitude density for one photon pair (J m^3).

    Each photon is ``(k_vector, polarization_vector)`` with k in rad/m.
    Polarization vectors are projected onto the transverse plane of their
    own k (the mode functions are transverse; a longitudinal test vector
    yields exactly zero). Symmetric under exchanging the photons and
    proportional to v_max. Raises :class:`RWAViolation` when the pair is
    off the energy shell |w1 + w2 - w_cm| > _SHELL_REL_TOL * w_cm.
    """
    (k1_vec, pol1), (k2_vec, pol2) = photon1, photon2
    k1_mag = norm3(k1_vec)
    k2_mag = norm3(k2_vec)
    if k1_mag == 0.0 or k2_mag == 0.0:
        raise ValueError("photon wavevectors must be nonzero")
    w1 = C_LIGHT * k1_mag
    w2 = C_LIGHT * k2_mag
    w_cm = params.omega_cm
    if abs(w1 + w2 - w_cm) > _SHELL_REL_TOL * w_cm:
        raise RWAViolation(
            f"pair off the energy shell: w1 + w2 = {w1 + w2!r} rad/s "
            f"vs omega_cm = {w_cm!r} rad/s"
        )
    k1 = scale3(1.0 / k1_mag, k1_vec)
    k2 = scale3(1.0 / k2_mag, k2_vec)
    # transverse projection: mode functions carry no longitudinal component
    e1 = sub3(pol1, scale3(dot3(pol1, k1), k1))
    e2 = sub3(pol2, scale3(dot3(pol2, k2), k2))
    amp = _geometric_amplitude(w1 / w_cm, k1, e1, k2, e2, params.direction)
    prefactor = (
        params.alpha0 * HBAR * math.sqrt(w1 * w2) / (4.0 * EPSILON_0)
    ) * (params.v_max / C_LIGHT)
    return complex(prefactor * amp, 0.0)


def _pol_summed_square(x1: float, k1: Vec3, k2: Vec3, u: Vec3) -> float:
    """sum over both transverse polarizations of |A|^2."""
    e1a, e1b = perp_basis(k1)
    e2a, e2b = perp_basis(k2)
    total = 0.0
    for e1 in (e1a, e1b):
        for e2 in (e2a, e2b):
            a = _geometric_amplitude(x1, k1, e1, k2, e2, u)
            total += a * a
    return total


_PHI = 0.5 * (1.0 + math.sqrt(5.0))

#: Icosahedron vertices (0, +-1, +-phi) and their cyclic permutations, a
#: spherical 5-design: (4 pi/12) sum_k p(k) = int dOmega p for deg p <= 5.
_DESIGN = tuple(
    normalize3(v)
    for a in (1.0, -1.0)
    for b in (_PHI, -_PHI)
    for v in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))
)


def _angular_factor(x1: float, u: Vec3, spec: QuadratureSpec) -> IntegralResult:
    """A_ang(x1) = int dOmega1 dOmega2 sum_pol |A|^2, exactly (module docstring).

    The integrand is >= 0, so the round-off bound is 50 eps times the value,
    the adaptive engine's per-panel floor; ``spec`` decides only ``converged``.
    """
    value = (4.0 * math.pi / len(_DESIGN)) ** 2 * math.fsum(
        _pol_summed_square(x1, k1, k2, u) for k1 in _DESIGN for k2 in _DESIGN
    )
    error = 50.0 * sys.float_info.epsilon * value
    converged = error <= max(spec.abs_tol, spec.rel_tol * value)
    return IntegralResult(value, error, len(_DESIGN) ** 2, converged)


def dce_rate_numeric(
    params: OscillationParams,
    spec: QuadratureSpec | None = None,
    n_spectrum: int = 33,
) -> IntegralResult:
    """Golden-rule photon rate (1/s) by mode integration; see the module docstring.

    The breakdown holds the normalized ``coefficient``. The series sample
    the spectrum: ``dgamma_domega[i]`` is dGamma/dw at ``omega_rad_per_s[i]``
    counting each photon once (two photons per pair), so the density
    integrates to the rate over (0, omega_cm) within the error budget.

    Both the angular and the radial integrals are exact; ``spec`` (default
    :data:`DEFAULT_SPEC`) only decides whether the round-off bound counts
    as converged, and its ``max_subdivisions`` is unused.
    """
    spec = spec or DEFAULT_SPEC
    edge = _angular_factor(0.0, params.direction, spec)
    mid = _angular_factor(0.5, params.direction, spec)

    def angular(x: float) -> float:
        return edge.value * (1.0 - 2.0 * x) ** 2 + mid.value * 4.0 * x * (1.0 - x)

    # I = int x^3 (1-x)^3 A_ang(x) dx; both weights are nonnegative, so the
    # angular errors bound the error of I
    reduced = (edge.value + 8.0 * mid.value) / 1260.0
    reduced_err = edge.error_estimate / 1260.0 + 2.0 * mid.error_estimate / 315.0

    coefficient = reduced / (32.0 * math.pi**3)
    coefficient_err = reduced_err / (32.0 * math.pi**3)

    # SI scale (a/r_max)^6 (v_max/c)^8 w_cm = a^6 v_max^2 w_cm^7 / c^8
    scale = _si_scale(params)

    xs = [i / (n_spectrum + 1) for i in range(1, n_spectrum + 1)]
    density_scale = scale / params.omega_cm / (32.0 * math.pi**3)

    return IntegralResult(
        value=coefficient * scale,
        error_estimate=coefficient_err * scale,
        evaluations=edge.evaluations + mid.evaluations,
        converged=edge.converged and mid.converged,
        breakdown={"coefficient": coefficient},
        series={
            "omega_rad_per_s": tuple(x * params.omega_cm for x in xs),
            "dgamma_domega": tuple(
                x**3 * (1.0 - x) ** 3 * angular(x) * density_scale for x in xs
            ),
        },
    )
