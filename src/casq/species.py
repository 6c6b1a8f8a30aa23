"""Atomic internal-structure data model.

An atom enters every computation only through its ladder of dipole
transitions: angular frequencies ``omega_eg`` (rad/s) and squared dipole
matrix elements ``|d_eg|^2`` (C^2 m^2). From these derive the lossless
polarizability

    alpha(omega) = sum_e 2 omega_eg |d_eg|^2 / (3 hbar (omega_eg^2 - omega^2)),

its static limit alpha(0), the equivalent atomic radius a defined by
alpha(0) = 4 pi eps0 a^3, and the mean-square dipole <d^2> = sum_e |d_eg|^2.
All quantities are SI. The response is lossless by design; none of the
far-off-resonance phases computed here involve atomic damping.
"""

from __future__ import annotations

import math
import os

from .constants import FOUR_PI_EPS0, HBAR
from .errors import DuplicateSpecies, NotTwoLevel, PoleProximity, UnknownSpecies
from .schema import finite, list_of, load_json, nested, read_object, schema, text
from .value import Value, check_fields, set_field

__all__ = [
    "Transition",
    "AtomSpecies",
    "POLE_GUARD_DEFAULT",
    "alpha_of_omega",
    "alpha_static",
    "equivalent_radius",
    "mean_square_dipole",
    "two_level_transition",
    "d2_for_static_polarizability",
    "load_species_db",
    "default_species_db",
    "find_species",
    "resolve_species_db",
    "SPECIES_DB_ENV",
]

#: Relative half-width of the guard band around each resonance. All toolkit
#: uses are far off resonance (adiabatic regime); silently evaluating the
#: lossless polarizability near a pole would poison every quadrature built
#: on top of it, so it is an error instead.
POLE_GUARD_DEFAULT = 1e-6

SPECIES_DB_ENV = "CASQ_SPECIES_DB"


class Transition(Value):
    """One dipole transition: frequency (rad/s) and |d_eg|^2 (C^2 m^2)."""

    __slots__ = ("omega_eg", "d2")

    def __init__(self, omega_eg: float, d2: float):
        check_fields("Transition", positive=("omega_eg",), nonnegative=("d2",),
                     omega_eg=omega_eg, d2=d2)
        set_field(self, "omega_eg", omega_eg)
        set_field(self, "d2", d2)


class AtomSpecies(Value):
    """Named, immutable set of transitions (at least one, frequencies distinct)."""

    __slots__ = ("name", "transitions")

    def __init__(self, name: str, transitions: tuple[Transition, ...]):
        if not name:
            raise ValueError("AtomSpecies: name must be non-empty")
        trs = tuple(transitions)
        if len(trs) == 0:
            raise ValueError(f"AtomSpecies {name!r}: needs at least one transition")
        freqs = [t.omega_eg for t in trs]
        if len(set(freqs)) != len(freqs):
            raise ValueError(f"AtomSpecies {name!r}: transition frequencies must be distinct")
        set_field(self, "name", name)
        set_field(self, "transitions", trs)


def alpha_of_omega(
    species: AtomSpecies, omega: float, guard: float = POLE_GUARD_DEFAULT
) -> float:
    """Lossless polarizability alpha(omega) in F m^2.

    Even in omega by construction. Raises :class:`PoleProximity` when
    ``| |omega| - omega_eg | < guard * omega_eg`` for any transition.
    """
    w = abs(float(omega))
    for t in species.transitions:
        if abs(w - t.omega_eg) < guard * t.omega_eg:
            raise PoleProximity(
                f"alpha({omega!r}) for {species.name!r}: within guard band "
                f"{guard:g} of resonance at {t.omega_eg!r} rad/s"
            )
    return math.fsum(
        2.0 * t.omega_eg * t.d2 / (3.0 * HBAR * (t.omega_eg**2 - w * w))
        for t in species.transitions
    )


def alpha_static(species: AtomSpecies) -> float:
    """Static polarizability alpha(0) in F m^2."""
    return alpha_of_omega(species, 0.0)


def equivalent_radius(species: AtomSpecies) -> float:
    """Atomic length scale a with alpha(0) = 4 pi eps0 a^3 (m)."""
    return (alpha_static(species) / FOUR_PI_EPS0) ** (1.0 / 3.0)


def mean_square_dipole(species: AtomSpecies) -> float:
    """<d^2> = sum over transitions of |d_eg|^2 (C^2 m^2)."""
    return math.fsum(t.d2 for t in species.transitions)


def two_level_transition(species: AtomSpecies) -> Transition:
    """The single transition of a two-level species, or :class:`NotTwoLevel`."""
    if len(species.transitions) != 1:
        raise NotTwoLevel(
            f"{species.name!r} has {len(species.transitions)} transitions; "
            "this operation is derived for a two-level atom"
        )
    return species.transitions[0]


def d2_for_static_polarizability(omega_eg: float, alpha0: float) -> float:
    """|d|^2 that gives a single-transition species the static value alpha0.

    Inverts alpha(0) = 2 d^2 / (3 hbar omega_eg).
    """
    return 1.5 * HBAR * omega_eg * alpha0


# -- species database (JSON) --------------------------------------------------

def _unique_names(species: tuple[AtomSpecies, ...], source: str) -> list[AtomSpecies]:
    seen: set[str] = set()
    for s in species:
        if s.name in seen:
            raise DuplicateSpecies(f"{source}: duplicate species name {s.name!r}")
        seen.add(s.name)
    return list(species)


_TRANSITION = schema(
    ("omega_eg_rad_per_s", "omega_eg", finite, True),
    ("d2_C2m2", "d2", finite, True),
)
_SPECIES = schema(
    ("name", "name", text, True),
    ("transitions", "transitions", list_of(nested(Transition, _TRANSITION)), True),
)
_DOCUMENT = schema(("species", "species", list_of(nested(AtomSpecies, _SPECIES)), True))


def parse_species_db(data, source: str = "<species db>") -> list[AtomSpecies]:
    """Validate a decoded species-database document into species objects."""
    return read_object(data, _DOCUMENT, source, _unique_names, source=source)


def load_species_db(path: str) -> list[AtomSpecies]:
    """Load and validate a species database JSON file."""
    return parse_species_db(load_json(path), source=path)


def find_species(species_db: list[AtomSpecies], name: str, where: str) -> AtomSpecies:
    """The species called ``name``, or :class:`UnknownSpecies`."""
    for s in species_db:
        if s.name == name:
            return s
    known = sorted(s.name for s in species_db)
    raise UnknownSpecies(f"{where}: {name!r} not in database (known: {known})")


def default_species_db() -> list[AtomSpecies]:
    """Species bundled with the package (demo entries, not spectroscopy data),
    read by path: casq is not importable from a zip archive."""
    return load_species_db(os.path.join(os.path.dirname(__file__), "data", "species.json"))


def resolve_species_db(path: str | None = None) -> list[AtomSpecies]:
    """Database resolution order: explicit path, CASQ_SPECIES_DB, bundled."""
    if path is not None:
        return load_species_db(path)
    env = os.environ.get(SPECIES_DB_ENV)
    if env:
        return load_species_db(env)
    return default_species_db()
