"""Output checks: every result against a closed form or an exact property.

The expected values are computed here from the generated species file, the
drawn scenario parameters and the CODATA 2018 constants below. Nothing is
imported from ``casq`` and nothing is compared with a stored earlier output.

``check(workload, outputs, stderrs, exit_codes)`` takes one round's output
texts and returns a :class:`Verdict`. One operation is one scenario result
(a ``casq run`` or one sweep row). An operation fails when its row is
missing or carries ``error``, when its value is ``null`` or not finite,
when it reports ``converged: false``, or when its process exits non-zero;
a failed operation is counted and not checked further. A result that is
present but disagrees with its closed form is a problem, which makes the
round incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

# CODATA 2018 (c and h exact by SI definition).
C_LIGHT = 299792458.0
H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2.0 * math.pi)
EPSILON_0 = 8.8541878128e-12
FOUR_PI_EPS0 = 4.0 * math.pi * EPSILON_0

EPS = 2.0**-52
#: Allowance for rounding where the program and this module evaluate the
#: same closed-form quantity in a different order of operations.
ROUNDING = 64.0 * EPS
#: The program assembles the DCE scale factor as exp(sum of logs); the sum
#: of logs is of order 200, so the result carries a relative rounding error
#: of order 200 * EPS.
LOG_SPACE_ROUNDING = 1.0e-12

DCE_COEFFICIENT = 23.0 / (5670.0 * math.pi)
#: Criterion 6 of the acceptance suite: the coefficient within 5%.
DCE_COEFFICIENT_MAX_REL = 0.05
#: Criterion 1 of the acceptance suite: numeric Sagnac vs closed form.
SAGNAC_REL_TOL = 1.0e-6
#: Criterion 5 of the acceptance suite: |phi_mot| <= 30 (v/c) |phi_qs|.
MOTIONAL_BOUND = 30.0
LOG_SPACING_REL_TOL = 1.0e-9


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _near(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol


def _report_ok(rep) -> str | None:
    """Why a report is a failed operation, or None if it can be checked."""
    if not isinstance(rep, dict):
        return "no report"
    if rep.get("converged") is not True:
        return f"converged is {rep.get('converged')!r}"
    for key in ("value", "error_estimate"):
        if not _finite(rep.get(key)):
            return f"{key} is {rep.get(key)!r}"
    for key, val in (rep.get("breakdown") or {}).items():
        if not _finite(val):
            return f"breakdown.{key} is {val!r}"
    return None


def _sweep_rows(text: str, label: str, expected_params: list[float], v: Verdict) -> list:
    """Rows whose report can be checked, as (param_value, report) pairs.

    Counts every expected row as attempted; rows that are missing, carry an
    error or fail :func:`_report_ok` count as failed.
    """
    v.attempted += len(expected_params)
    try:
        rows = json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        v.failed += len(expected_params)
        v.problems.append(f"{label}: unreadable sweep output ({exc})")
        return []
    ok = []
    if len(rows) != len(expected_params):
        v.problems.append(f"{label}: {len(rows)} rows, expected {len(expected_params)}")
    v.failed += max(0, len(expected_params) - len(rows))
    for i, row in enumerate(rows[: len(expected_params)]):
        want = expected_params[i]
        got = row.get("param_value")
        if not _finite(got) or abs(got - want) > LOG_SPACING_REL_TOL * abs(want):
            v.failed += 1
            v.problems.append(f"{label} row {i}: param_value {got!r}, expected {want!r}")
            continue
        if "error" in row:
            v.failed += 1
            v.problems.append(f"{label} row {i}: error {row['error']!r}")
            continue
        why = _report_ok(row.get("report"))
        if why:
            v.failed += 1
            v.problems.append(f"{label} row {i}: {why}")
            continue
        ok.append((got, row["report"]))
    return ok


def _run_report(text: str, label: str, v: Verdict):
    v.attempted += 1
    try:
        rep = json.loads(text)
    except ValueError as exc:
        v.failed += 1
        v.problems.append(f"{label}: unreadable output ({exc})")
        return None
    why = _report_ok(rep)
    if why:
        v.failed += 1
        v.problems.append(f"{label}: {why}")
        return None
    return rep


# -- dce_sweep -----------------------------------------------------------------

def _beta_int(a: int, b: int) -> Fraction:
    """int_0^1 x^a (1-x)^b dx = a! b! / (a+b+1)!."""
    return Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1))


def _spectrum_rule_error(k: int, n: int) -> Fraction:
    """Error of the n-node midpoint-spaced sum on x^k (1-x)^k, exactly."""
    h = Fraction(1, n + 1)
    total = sum((h * i) ** k * (1 - h * i) ** k for i in range(1, n + 1))
    return h * total - _beta_int(k, k)


def spectrum_sum_bound(n: int) -> float:
    """Relative error bound of the spectrum sum at ``n`` spectrum points.

    The spectral density is x^3 (1-x)^3 q(x) with q the quadratic angular
    factor, q >= 0 on [0, 1]. The sum over the symmetric nodes i/(n+1) is
    exact on the part of q that is odd about x = 1/2, and the even part is
    a nonnegative combination of (1-2x)^2 and 4x(1-x). The relative error
    therefore lies between those of x^3(1-x)^3(1-2x)^2 and 4x^4(1-x)^4,
    which are computed here exactly (README, "Spectrum-sum bound").
    """
    e3, e4 = _spectrum_rule_error(3, n), _spectrum_rule_error(4, n)
    i3, i4 = _beta_int(3, 3), _beta_int(4, 4)
    r1 = (e3 - 4 * e4) / (i3 - 4 * i4)
    r2 = e4 / i4
    return float(max(abs(r1), abs(r2)))


def _dce_rate(transitions, r_max: float, omega_cm: float) -> float:
    """Gamma = (23/5670 pi) (a/r_max)^6 (v_max/c)^8 omega_cm."""
    alpha0 = math.fsum(2.0 * d2 / (3.0 * HBAR * w) for w, d2 in transitions)
    a = (alpha0 / FOUR_PI_EPS0) ** (1.0 / 3.0)
    v_max = omega_cm * r_max
    return DCE_COEFFICIENT * (a / r_max) ** 6 * (v_max / C_LIGHT) ** 8 * omega_cm


def _check_dce_row(label: str, r_max: float, rep: dict, p: dict, v: Verdict) -> None:
    value, err = rep["value"], rep["error_estimate"]
    rel_err = err / abs(value) if value else math.inf
    coef = rep["breakdown"].get("coefficient")
    if not _finite(coef):
        v.problems.append(f"{label}: coefficient missing")
        return
    dev = abs(coef - DCE_COEFFICIENT) / DCE_COEFFICIENT
    if dev > rel_err + ROUNDING or dev > DCE_COEFFICIENT_MAX_REL:
        v.problems.append(
            f"{label}: coefficient {coef!r} off 23/(5670 pi) by {dev:.3e} (estimate {rel_err:.3e})"
        )
    gamma = _dce_rate(p["transitions"], r_max, p["omega_cm"])
    if not _near(value, gamma, err + LOG_SPACE_ROUNDING * gamma):
        v.problems.append(f"{label}: rate {value!r}, closed form {gamma!r} (estimate {err!r})")
    series = rep.get("series") or {}
    dens = series.get("dgamma_domega")
    omegas = series.get("omega_rad_per_s")
    n = p["n_spectrum"]
    if (
        not isinstance(dens, list) or not isinstance(omegas, list)
        or len(dens) != n or len(omegas) != n
        or not all(_finite(x) for x in dens + omegas)
    ):
        v.problems.append(f"{label}: spectrum missing or not {n} finite points")
        return
    step = p["omega_cm"] / (n + 1)
    for i, w in enumerate(omegas):
        if not _near(w, step * (i + 1), ROUNDING * p["omega_cm"]):
            v.problems.append(f"{label}: spectrum point {i} at {w!r}, expected {step * (i + 1)!r}")
            return
    for i in range(n // 2):
        a, b = dens[i], dens[n - 1 - i]
        if not _near(a, b, rel_err * max(abs(a), abs(b))):
            v.problems.append(f"{label}: spectrum not symmetric at {i}: {a!r} vs {b!r}")
            return
    total = step * math.fsum(dens)
    bound = spectrum_sum_bound(n) * abs(value) + 2.0 * err + ROUNDING * abs(value)
    if not _near(total, value, bound):
        v.problems.append(f"{label}: spectrum sums to {total!r}, rate {value!r} (bound {bound!r})")


def check_dce(wl, outputs: list[str]) -> Verdict:
    p = wl.params
    v = Verdict()
    rmax_rows = _sweep_rows(outputs[0], "dce r_max sweep", sorted(p["r_values"]), v)
    dir_rows = _sweep_rows(outputs[1], "dce direction sweep", sorted(p["d_values"]), v)
    for r_max, rep in rmax_rows:
        _check_dce_row(f"dce r_max={r_max!r}", r_max, rep, p, v)
    for comp, rep in dir_rows:
        _check_dce_row(f"dce direction[0]={comp!r}", p["base_r_max"], rep, p, v)
    # rates scale as r_max^2: log-log slope 2 within the rows' own estimates
    for (r1, a), (r2, b) in zip(rmax_rows, rmax_rows[1:]):
        slope = math.log(b["value"] / a["value"]) / math.log(r2 / r1)
        tol = (a["error_estimate"] / a["value"] + b["error_estimate"] / b["value"]) / abs(
            math.log(r2 / r1)
        ) + LOG_SPACE_ROUNDING
        if abs(slope - 2.0) > tol:
            v.problems.append(f"dce r_max sweep: log-log slope {slope!r}, expected 2 (tol {tol:.3e})")
    # isotropy: every direction gives the same rate within the estimates
    first = dir_rows[0][1] if dir_rows else None
    for comp, rep in dir_rows[1:]:
        if not _near(rep["value"], first["value"], rep["error_estimate"] + first["error_estimate"]):
            v.problems.append(
                f"dce direction sweep: rate {rep['value']!r} at direction[0]={comp!r} "
                f"differs from {first['value']!r}"
            )
    return v


# -- mirror_long ---------------------------------------------------------------

def _c3_over_hbar(transitions) -> float:
    """C3 / hbar with U(z) = -C3 / z^3 and C3 = sum d^2 / (48 pi eps0)."""
    return math.fsum(d2 for _, d2 in transitions) / (48.0 * math.pi * EPSILON_0 * HBAR)


def harmonic_phase(c3h: float, h: float, amp: float, omega: float, periods: int) -> float:
    """(C3/hbar) int_0^{N T} dt / (h + A sin wt)^3 = (C3/hbar)(N/w) pi (2h^2+A^2)/(h^2-A^2)^(5/2)."""
    return c3h * (periods / omega) * math.pi * (2.0 * h * h + amp * amp) / (h * h - amp * amp) ** 2.5


def check_mirror(wl, outputs: list[str]) -> Verdict:
    p = wl.params
    c3h = _c3_over_hbar(p["transitions"])
    v = Verdict()

    for i, hp in enumerate(p["harmonic"]):
        rep = _run_report(outputs[i], f"mirror harmonic {i}", v)
        if rep:
            want = harmonic_phase(c3h, hp["h"], hp["amplitude"], hp["omega"], hp["periods"])
            if not _near(rep["value"], want, rep["error_estimate"] + ROUNDING * abs(want)):
                v.problems.append(f"mirror harmonic {i}: phase {rep['value']!r}, closed form {want!r}")

    rep = _run_report(outputs[-1], "mirror total", v)
    if rep:
        tp = p["total"]
        bd = rep["breakdown"]
        names = ("phi1_qs", "phi1_mot", "phi2_qs", "phi2_mot", "phi12")
        if not all(k in bd for k in names):
            v.problems.append(f"mirror total: breakdown lacks one of {names}")
            return v
        err = rep["error_estimate"]
        want1 = harmonic_phase(c3h, tp["h1"], tp["a1"], tp["omega1"], tp["periods"])
        want2 = c3h * tp["t_end"] / tp["h2"] ** 3
        if not _near(bd["phi1_qs"], want1, err + ROUNDING * abs(want1)):
            v.problems.append(f"mirror total: phi1_qs {bd['phi1_qs']!r}, closed form {want1!r}")
        if not _near(bd["phi2_qs"], want2, err + ROUNDING * abs(want2)):
            v.problems.append(f"mirror total: phi2_qs {bd['phi2_qs']!r}, closed form {want2!r}")
        # closed cycle: the geometric two-path phase vanishes
        if abs(bd["phi12"]) > err:
            v.problems.append(f"mirror total: phi12 {bd['phi12']!r} not zero within {err!r}")
        # a constant path has no motional phase
        if abs(bd["phi2_mot"]) > err:
            v.problems.append(f"mirror total: phi2_mot {bd['phi2_mot']!r} not zero within {err!r}")
        v_over_c = tp["a1"] * tp["omega1"] / C_LIGHT
        if abs(bd["phi1_mot"]) > MOTIONAL_BOUND * v_over_c * abs(bd["phi1_qs"]):
            v.problems.append(f"mirror total: |phi1_mot| {bd['phi1_mot']!r} above 30 (v/c) |phi1_qs|")
        parts = (bd["phi1_qs"] + bd["phi1_mot"]) - (bd["phi2_qs"] + bd["phi2_mot"]) + bd["phi12"]
        scale = math.fsum(abs(bd[k]) for k in names)
        if not _near(rep["value"], parts, 4.0 * EPS * scale):
            v.problems.append(f"mirror total: value {rep['value']!r} is not the sum of its parts {parts!r}")
    return v


# -- sagnac_sweep --------------------------------------------------------------

def re_alpha_second(alpha0: float, omega_s: float, omega: float) -> float:
    """d^2/dw^2 of alpha0 wS^2 / (wS^2 - w^2) = 2 alpha0 wS^2 (wS^2 + 3 w^2) / (wS^2 - w^2)^3."""
    ws2 = omega_s * omega_s
    w2 = omega * omega
    return 2.0 * alpha0 * ws2 * (ws2 + 3.0 * w2) / (ws2 - w2) ** 3


def ell6(transitions, particle: dict) -> float:
    """ell^6 = sum d^2 Re alpha_S''(omega_eg) |Omega| / ((4 pi eps0)^2 hbar)."""
    om = particle["omega_rad_per_s"]
    omega_mag = math.sqrt(om[0] ** 2 + om[1] ** 2 + om[2] ** 2)
    s = math.fsum(
        d2 * re_alpha_second(particle["alpha0_F_m2"], particle["omega_s_rad_per_s"], w)
        for w, d2 in transitions
    )
    return s * omega_mag / (FOUR_PI_EPS0**2 * HBAR)


def log_spaced(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def check_sagnac(wl, outputs: list[str], stderrs: list[str]) -> Verdict:
    p = wl.params
    v = Verdict()
    rows = _sweep_rows(outputs[0], "sagnac sweep", log_spaced(p["y_lo"], p["y_hi"], p["rows"]), v)
    l6 = ell6(p["transitions"], p["particle"])
    for y, rep in rows:
        want = (15.0 * math.pi / 16.0) * l6 / y**6
        got = rep["value"]
        if abs(abs(got) - want) > SAGNAC_REL_TOL * want:
            v.problems.append(f"sagnac y={y!r}: |phase| {abs(got)!r}, closed form {want!r}")
        # Omega along +z, motion along +x: the line integral is negative for y > 0
        if not got < 0.0:
            v.problems.append(f"sagnac y={y!r}: phase {got!r} should be negative")
    for err in stderrs:
        if "NearFieldValidityWarning" in err:
            v.problems.append("sagnac sweep: stderr carries NearFieldValidityWarning")
            break
    return v


def check(wl, outputs: list[str], stderrs: list[str], exit_codes: list[int]) -> Verdict:
    """Check one round of workload ``wl`` (outputs in call order)."""
    v = Verdict()
    for call, code in zip(wl.calls, exit_codes):
        if code != 0:
            v.problems.append(f"casq {call.args[0]} exited {code}")
    if wl.name == "dce_sweep":
        v.merge(check_dce(wl, outputs))
    elif wl.name == "mirror_long":
        v.merge(check_mirror(wl, outputs))
    elif wl.name == "sagnac_sweep":
        v.merge(check_sagnac(wl, outputs, stderrs))
    else:
        raise ValueError(f"unknown workload {wl.name!r}")
    return v

