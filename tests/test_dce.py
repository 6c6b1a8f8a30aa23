"""Pair emission: closed form, amplitude structure, golden-rule integration."""

import json
import math

import pytest

from casq.cli import main
from casq.constants import C_LIGHT, FOUR_PI_EPS0
from casq.dce import (
    CLOSED_FORM_COEFFICIENT,
    OscillationParams,
    _DESIGN,
    _angular_factor,
    _pol_summed_square,
    dce_rate_closed,
    dce_rate_numeric,
    pair_emission_amplitude,
)
from casq.errors import RWAViolation
from casq.quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_iterated
from casq.vec3 import normalize3, perp_basis

A0 = 1e-10
OMEGA_CM = 2.0 * math.pi * 1e5
PARAMS = OscillationParams(r_max=1e-7, omega_cm=OMEGA_CM, alpha0=FOUR_PI_EPS0 * A0**3)

#: coarse tolerance for property sweeps; the angular rule is exact, so the
#: spec only decides ``converged``
COARSE = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-300, max_subdivisions=200)


# -- closed form ------------------------------------------------------------------

def test_closed_form_unit_substitution():
    # a = r_max and v_max = c (formal): Gamma = 23/(5670 pi) * omega_cm
    r_max = C_LIGHT / OMEGA_CM
    p = OscillationParams(r_max=r_max, omega_cm=OMEGA_CM,
                          alpha0=FOUR_PI_EPS0 * r_max**3)
    assert dce_rate_closed(p) == pytest.approx(
        CLOSED_FORM_COEFFICIENT * OMEGA_CM, rel=1e-12
    )
    assert CLOSED_FORM_COEFFICIENT == pytest.approx(1.2912e-3, rel=1e-4)


def test_closed_form_eighth_power_in_vmax():
    # double v_max at fixed a/r_max and omega_cm: scale r_max and a together
    p2 = OscillationParams(
        r_max=2.0 * PARAMS.r_max, omega_cm=OMEGA_CM,
        alpha0=FOUR_PI_EPS0 * (2.0 * A0) ** 3,
    )
    assert dce_rate_closed(p2) == pytest.approx(256.0 * dce_rate_closed(PARAMS), rel=1e-11)


def test_closed_form_log_space_oracle():
    # a = 0.1 nm, r_max = 100 nm, omega_cm = 2 pi 1e5: ~1e-93 1/s territory
    gamma = dce_rate_closed(PARAMS)
    log_expect = (
        math.log(23.0 / (5670.0 * math.pi))
        + 6.0 * (math.log(A0) - math.log(PARAMS.r_max))
        + 8.0 * (math.log(PARAMS.v_max) - math.log(C_LIGHT))
        + math.log(OMEGA_CM)
    )
    assert math.log(gamma) == pytest.approx(log_expect, abs=1e-12)
    assert -94.0 < math.log10(gamma) < -91.0
    assert gamma < 1e-10 * OMEGA_CM  # many orders below the trap frequency


def test_closed_form_no_motion():
    p = OscillationParams(r_max=0.0, omega_cm=OMEGA_CM, alpha0=PARAMS.alpha0)
    assert dce_rate_closed(p) == 0.0


# -- amplitude ----------------------------------------------------------------------

def _photon(direction, pol, omega):
    k = omega / C_LIGHT
    return (tuple(k * d for d in direction), pol)


def test_amplitude_no_motion_vanishes():
    p = OscillationParams(r_max=0.0, omega_cm=OMEGA_CM, alpha0=PARAMS.alpha0)
    ph1 = _photon((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5 * OMEGA_CM)
    ph2 = _photon((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), 0.5 * OMEGA_CM)
    assert pair_emission_amplitude(p, ph1, ph2) == 0.0


def test_amplitude_exchange_symmetry():
    # generic tilted pair: high-symmetry configurations can null the amplitude
    n1 = math.sqrt(0.3**2 + 1.0 + 0.5**2)
    n2 = math.sqrt(0.7**2 + 0.2**2 + 1.1**2)
    ph1 = _photon((0.3 / n1, 1.0 / n1, 0.5 / n1), (0.2, -0.1, 1.0), 0.3 * OMEGA_CM)
    ph2 = _photon((-0.7 / n2, 0.2 / n2, 1.1 / n2), (1.0, 0.4, -0.3), 0.7 * OMEGA_CM)
    a12 = pair_emission_amplitude(PARAMS, ph1, ph2)
    a21 = pair_emission_amplitude(PARAMS, ph2, ph1)
    assert a12 == a21
    assert abs(a12) > 0.0


def test_amplitude_longitudinal_polarization_vanishes():
    # mode functions are transverse: a longitudinal test polarization is
    # projected away entirely
    ph1 = _photon((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0.5 * OMEGA_CM)
    ph2 = _photon((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), 0.5 * OMEGA_CM)
    assert pair_emission_amplitude(PARAMS, ph1, ph2) == 0.0


def test_amplitude_off_shell_raises():
    ph1 = _photon((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.8 * OMEGA_CM)
    ph2 = _photon((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), 0.8 * OMEGA_CM)
    with pytest.raises(RWAViolation):
        pair_emission_amplitude(PARAMS, ph1, ph2)


# -- golden-rule rate ------------------------------------------------------------------

def test_numeric_coefficient_matches_closed_form():
    res = dce_rate_numeric(PARAMS, COARSE, n_spectrum=9)
    assert res.breakdown["coefficient"] == pytest.approx(CLOSED_FORM_COEFFICIENT, rel=1e-6)
    assert res.converged
    assert res.value == pytest.approx(dce_rate_closed(PARAMS), rel=1e-6)


def test_numeric_no_motion_zero():
    p = OscillationParams(r_max=0.0, omega_cm=OMEGA_CM, alpha0=PARAMS.alpha0)
    res = dce_rate_numeric(p, COARSE, n_spectrum=5)
    assert res.value == 0.0


def test_numeric_over_closed_constant_on_grid():
    ratios = []
    for r_max in (3e-8, 1e-7, 3e-7):
        for omega_cm in (1e5, 1e6, 1e7):
            p = OscillationParams(r_max=r_max, omega_cm=omega_cm, alpha0=PARAMS.alpha0)
            res = dce_rate_numeric(p, COARSE, n_spectrum=3)
            ratios.append(res.value / dce_rate_closed(p))
    assert all(0.95 <= r <= 1.05 for r in ratios)
    assert max(ratios) - min(ratios) < 1e-9


def test_spectrum_shape():
    res = dce_rate_numeric(PARAMS, COARSE, n_spectrum=33)
    s = res.series["dgamma_domega"]
    w = res.series["omega_rad_per_s"]
    assert all(x >= 0.0 for x in s)
    assert all(0.0 < x < OMEGA_CM for x in w)
    # pair-exchange symmetry: s(w) = s(omega_cm - w)
    assert max(abs(a - b) for a, b in zip(s, s[::-1])) <= 1e-6 * max(s)
    # suppressed at the edges, monotone toward the midpoint on each half
    half = len(s) // 2 + 1
    assert all(b - a > 0.0 for a, b in zip(s[:half], s[1:half]))
    assert all(b - a < 0.0 for a, b in zip(s[half - 1:], s[half:]))
    # photon-counting normalization: the density integrates to the rate
    wgrid = (0.0, *w, OMEGA_CM)
    sgrid = (0.0, *s, 0.0)
    trapezoid = sum(
        0.5 * (w1 - w0) * (s0 + s1)
        for w0, w1, s0, s1 in zip(wgrid, wgrid[1:], sgrid, sgrid[1:])
    )
    assert trapezoid == pytest.approx(res.value, rel=1e-3)


def test_isotropy():
    a = dce_rate_numeric(PARAMS, COARSE, n_spectrum=3)
    tilted = OscillationParams(
        r_max=PARAMS.r_max, omega_cm=OMEGA_CM, alpha0=PARAMS.alpha0,
        direction=(1.0, -2.0, 0.5),
    )
    b = dce_rate_numeric(tilted, COARSE, n_spectrum=3)
    tol = 10.0 * (a.error_estimate + b.error_estimate) + 1e-8 * a.value
    assert abs(a.value - b.value) <= tol


def test_params_validation():
    with pytest.raises(ValueError):
        OscillationParams(r_max=-1.0, omega_cm=OMEGA_CM, alpha0=1e-40)
    with pytest.raises(ValueError):
        OscillationParams(r_max=1e-7, omega_cm=0.0, alpha0=1e-40)
    with pytest.raises(ValueError):
        OscillationParams(r_max=1e-7, omega_cm=OMEGA_CM, alpha0=1e-40,
                          direction=(0.0, 0.0, 0.0))


#: (direction, the plain direction it points along): the sum of squares of
#: the first overflows, those of the other two fall below the normal range.
_EXTREME_DIRECTIONS = [
    ([1e308, 1e308, 0.0], [1.0, 1.0, 0.0]),
    ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([1e-160, 1e-170, 0.0], [1.0, 1e-10, 0.0]),
]


def _cli_coefficient(tmp_path, capsys, direction):
    scenario = tmp_path / "dce.json"
    scenario.write_text(json.dumps({
        "kind": "DceNumeric", "species": "two-level-demo", "n_spectrum": 3,
        "oscillation": {"r_max_m": 1e-7, "omega_cm_rad_per_s": OMEGA_CM, "direction": direction},
    }))
    capsys.readouterr()
    assert main(["run", str(scenario)]) == 0
    return json.loads(capsys.readouterr().out)["breakdown"]["coefficient"]


@pytest.mark.parametrize("direction, plain", _EXTREME_DIRECTIONS)
def test_extreme_direction_normalizes(tmp_path, capsys, direction, plain):
    # a plain sum of squares turns the first into (0, 0, 0), the second into
    # the zero vector and the third into a vector of norm 1.0000056
    d = OscillationParams(1e-7, OMEGA_CM, 1e-40, direction=direction).direction
    assert abs(math.hypot(*d) - 1.0) <= 4 * 2.0**-52
    assert d == pytest.approx(normalize3(plain), rel=1e-15, abs=1e-300)
    assert _cli_coefficient(tmp_path, capsys, direction) == pytest.approx(
        _cli_coefficient(tmp_path, capsys, plain), rel=1e-12)


# -- exact angular rule -----------------------------------------------------------------

TILTED = (1.0, -2.0, 0.5)


def _nested_angular_factor(x1, u, spec):
    """A_ang(x1) by adaptive quadrature over (theta1, theta2, dphi) in a u-aligned frame.

    The common azimuth gives 2 pi and the integrand is even in dphi about
    pi, so dphi runs over [0, pi] with a further factor 2.
    """
    ex, ey = perp_basis(u)

    def integrand(th1, th2, dphi):
        s1, c1, s2, c2 = math.sin(th1), math.cos(th1), math.sin(th2), math.cos(th2)
        cb, sb = math.cos(dphi), math.sin(dphi)
        k1 = tuple(s1 * a + c1 * c for a, c in zip(ex, u))
        k2 = tuple(s2 * (cb * a + sb * b) + c2 * c for a, b, c in zip(ex, ey, u))
        return s1 * s2 * _pol_summed_square(x1, k1, k2, u)

    res = integrate_iterated(integrand, [(0.0, math.pi)] * 3, spec)
    return 4.0 * math.pi * res.value


@pytest.mark.parametrize("x1", [0.0, 0.5])
def test_angular_factor_matches_nested_quadrature(x1):
    u = normalize3(TILTED)
    nested = _nested_angular_factor(x1, u, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-300))
    exact = _angular_factor(x1, u, DEFAULT_SPEC).value
    assert exact == pytest.approx(nested, rel=1e-5)


@pytest.mark.parametrize("x1", [0.5, 1.0])
def test_design_exact_over_one_sphere(x1):
    # at fixed k2 the integrand has degree 4 in k1, which a 3-design such as
    # the octahedron misses; the double integral alone could hide it
    u, k2 = normalize3(TILTED), normalize3((0.4, 0.1, -0.9))

    def integrand(th, ph):
        k1 = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
        return math.sin(th) * _pol_summed_square(x1, k1, k2, u)

    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-300)
    ref = integrate_iterated(integrand, [(0.0, math.pi), (0.0, 2.0 * math.pi)], spec).value
    rule = 4.0 * math.pi / len(_DESIGN) * sum(_pol_summed_square(x1, k1, k2, u) for k1 in _DESIGN)
    assert rule == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("direction", [(0.0, 0.0, 1.0), TILTED, (0.3, 0.7, -0.2)])
def test_exact_rule_coefficient_and_count(direction):
    p = OscillationParams(r_max=PARAMS.r_max, omega_cm=OMEGA_CM, alpha0=PARAMS.alpha0,
                          direction=direction)
    res = dce_rate_numeric(p, n_spectrum=3)
    assert abs(res.breakdown["coefficient"] - 23.0 / (5670.0 * math.pi)) <= 1e-13
    assert res.evaluations == 288
    assert res.converged


def test_exact_rule_below_roundoff_not_converged():
    # the round-off bound is 50 eps relative, above a 1e-15 target
    res = dce_rate_numeric(PARAMS, QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300), n_spectrum=3)
    assert not res.converged
