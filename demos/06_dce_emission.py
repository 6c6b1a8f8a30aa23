"""Photon pairs from an oscillating ground-state atom.

An atom driven harmonically in free space converts motional quanta into
photon pairs with c(k1 + k2) = omega_cm. The closed-form total rate is

    Gamma = (23 / 5670 pi) (a / r_max)^6 (v_max / c)^8 omega_cm,

fantastically small for realistic parameters. The toolkit recomputes the
dimensionless coefficient by golden-rule mode integration (polarization
sums, an exact product of two icosahedral rules over the photon directions,
exact radial energy-shell integral) and the two must agree; the script also
prints the photon spectrum, symmetric about omega_cm / 2 because photons
come in pairs.

Run:  python3 demos/06_dce_emission.py   (well under a second)
"""

import math

from casq import OscillationParams, dce_rate_closed, dce_rate_numeric
from casq.constants import FOUR_PI_EPS0
from casq.dce import CLOSED_FORM_COEFFICIENT

a = 1.0e-10                       # atomic length scale, 0.1 nm
params = OscillationParams(
    r_max=1.0e-7,                 # 100 nm oscillation amplitude
    omega_cm=2.0 * math.pi * 1e5, # 100 kHz trap
    alpha0=FOUR_PI_EPS0 * a**3,
)

print(f"v_max / c = {params.v_max / 2.99792458e8:.3e}")
closed = dce_rate_closed(params)
print(f"closed-form rate    = {closed:.6e} photons/s "
      f"(about one pair per 10^{-math.log10(closed / 2) :.0f} s)")

res = dce_rate_numeric(params, n_spectrum=11)
coefficient = res.breakdown["coefficient"]
print(f"numeric rate        = {res.value:.6e} photons/s")
print(f"coefficient         = {coefficient:.10e}")
print(f"closed-form value   = {CLOSED_FORM_COEFFICIENT:.10e}   "
      f"(rel. diff {abs(coefficient / CLOSED_FORM_COEFFICIENT - 1.0):.2e})")

print("\nphoton spectrum dGamma/domega (normalized to its peak):")
density = res.series["dgamma_domega"]
peak = max(density)
for w, s in zip(res.series["omega_rad_per_s"], density):
    bar = "#" * int(round(40.0 * s / peak))
    print(f"  w/w_cm = {w / params.omega_cm:5.3f}  {bar}")

print("\nscaling sanity: doubling v_max at fixed a/r_max multiplies the rate by 256")
bigger = OscillationParams(
    r_max=2.0 * params.r_max, omega_cm=params.omega_cm,
    alpha0=FOUR_PI_EPS0 * (2.0 * a) ** 3,
)
print(f"  ratio = {dce_rate_closed(bigger) / closed:.6f}")
