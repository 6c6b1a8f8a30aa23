"""Rotation-induced phase around a spinning nanoparticle.

A sphere spinning at Omega between the interferometer arms imprints a
geometric phase equal to the line integral of an effective vector
potential (Omega x r)/r^8, confined to the particle's neighbourhood. For
straight-line passes the closed form is (15 pi/16)(ell/y)^6 with the
length scale ell growing as Omega^(1/6); for symmetric arms y2 = -y1 the
two-path total is (21 pi/16)(ell/y1)^6, about a third below the plain
difference of arm phases.

Run:  python3 demos/05_quantum_sagnac.py
"""

import math
import warnings

from casq import (
    AtomSpecies,
    QuadratureSpec,
    SpinningParticle,
    StraightLine3D,
    TimeWindow,
    Transition,
    ell_omega,
    re_alpha_second,
    sagnac_phase,
    sagnac_phase_straightline,
    sagnac_total_symmetric,
)
from casq.errors import NearFieldValidityWarning

atom = AtomSpecies("demo", (Transition(2.0e15, 1.0e-58),))
particle = SpinningParticle(
    alpha0=1.0e-32,            # rest polarizability, F m^2
    omega_s=8.0e15,            # internal resonance, rad/s
    omega=(0.0, 0.0, 1.0e5),   # 100 krad/s about z
    radius=2.0e-8,
)

ell = ell_omega(atom, particle)
print(f"Re alpha_S''(w_eg) = {re_alpha_second(particle, 2.0e15):.4e} F m^2 s^2")
print(f"ell_Omega          = {ell * 1e9:.4f} nm  (scales as Omega^(1/6))")

# numeric line integral against the closed form, over all time
# (passes stay outside the particle's collision radius of 20 nm; a pass
# far enough out for retardation to matter would warn, silenced here)
warnings.simplefilter("ignore", NearFieldValidityWarning)
spec = QuadratureSpec(rel_tol=1e-10)
for y in (5.0e-8, 1.0e-7, 4.0e-7):
    traj = StraightLine3D((0.0, y, 0.0), (200.0, 0.0, 0.0))
    num = sagnac_phase(atom, particle, traj, TimeWindow.all_time(), spec)
    closed = sagnac_phase_straightline(atom, particle, y)
    print(f"y = {y * 1e9:8.3f} nm: |numeric| = {abs(num.value):.8e} rad, "
          f"closed = {abs(closed):.8e}, ratio = {abs(num.value) / abs(closed):.12f}")

# velocity drops out entirely: same pass at 10x the speed
y = 6.0e-8
slow = sagnac_phase(atom, particle, StraightLine3D((0.0, y, 0.0), (20.0, 0.0, 0.0)),
                    TimeWindow.all_time(), spec)
fast = sagnac_phase(atom, particle, StraightLine3D((0.0, y, 0.0), (200.0, 0.0, 0.0)),
                    TimeWindow.all_time(), spec)
print(f"\nspeed 20 vs 200 m/s: {slow.value:.10e} vs {fast.value:.10e} rad")

# the formal benchmark point y = ell gives exactly 15 pi/16
print(f"closed form at y = ell: {sagnac_phase_straightline(atom, particle, ell):.7f} rad"
      f"  (15 pi/16 = {15.0 * math.pi / 16.0:.7f})")

# symmetric two-arm total with its implied nonlocal part
total = sagnac_total_symmetric(atom, particle, y1=6.0e-8)
print(f"\nsymmetric arms at y1 = 60 nm:")
print(f"  total          = {total.value:.6e} rad  (21 pi/16 (ell/y1)^6)")
print(f"  arm difference = {total.breakdown['local_difference']:.6e} rad")
print(f"  implied nonlocal part = {total.breakdown['implied_nonlocal']:.6e} rad")
print(f"  total / difference    = {total.value / total.breakdown['local_difference']:.3f}")
