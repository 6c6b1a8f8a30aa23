"""Atomic species and the lossless polarizability.

Everything the toolkit knows about an atom is its transition ladder:
frequencies omega_eg and squared dipole matrix elements |d_eg|^2. This
script builds a two-level demo atom, sweeps alpha(omega) below resonance,
and shows the derived quantities the other demos lean on: the static
polarizability alpha(0), the equivalent radius a with
alpha(0) = 4 pi eps0 a^3, and the mean-square dipole.

Run:  python3 demos/01_species_and_polarizability.py
"""

from casq import (
    AtomSpecies,
    Transition,
    alpha_of_omega,
    alpha_static,
    equivalent_radius,
    mean_square_dipole,
)
from casq.species import default_species_db

atom = AtomSpecies("demo", (Transition(omega_eg=2.0e15, d2=1.0e-58),))

a0 = alpha_static(atom)
print(f"alpha(0)           = {a0:.6e} F m^2")
print(f"equivalent radius  = {equivalent_radius(atom) * 1e9:.4f} nm")
print(f"<d^2>              = {mean_square_dipole(atom):.6e} C^2 m^2")

# alpha(omega) grows monotonically toward the first resonance
print("\n  omega / omega_0     alpha(omega) / alpha(0)")
for frac in (0.9 * i / 6 for i in range(7)):
    val = alpha_of_omega(atom, frac * 2.0e15)
    print(f"  {frac:15.2f}     {val / a0:12.6f}")

# the bundled database ships demo entries usable from the CLI as well
print("\nbundled species:")
for sp in default_species_db():
    print(f"  {sp.name}: {len(sp.transitions)} transition(s), "
          f"a = {equivalent_radius(sp) * 1e9:.3f} nm")
