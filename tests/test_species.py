"""Polarizability model and species database."""

import json
import math

import pytest

from casq.constants import FOUR_PI_EPS0, HBAR
from casq.errors import (
    DuplicateSpecies,
    NotTwoLevel,
    ParseError,
    PoleProximity,
    UnitMismatch,
    UnknownSpecies,
)
from casq.species import (
    AtomSpecies,
    Transition,
    alpha_of_omega,
    alpha_static,
    d2_for_static_polarizability,
    default_species_db,
    equivalent_radius,
    find_species,
    load_species_db,
    mean_square_dipole,
    parse_species_db,
    resolve_species_db,
    two_level_transition,
)

OMEGA0 = 2.0e15
D2 = 1.0e-58
SINGLE = AtomSpecies("single", (Transition(OMEGA0, D2),))


def test_static_single_transition_formula():
    # alpha(0) = 2 d^2 / (3 hbar w0)
    assert alpha_static(SINGLE) == pytest.approx(2.0 * D2 / (3.0 * HBAR * OMEGA0), rel=1e-14)


def test_continuity_at_origin():
    assert alpha_of_omega(SINGLE, 1e-7 * OMEGA0) == pytest.approx(alpha_static(SINGLE), rel=1e-12)


def test_dynamic_value_at_w0_over_sqrt2():
    # direct substitution: alpha(w0/sqrt(2)) = 2 alpha(0)
    val = alpha_of_omega(SINGLE, OMEGA0 / math.sqrt(2.0))
    assert val == pytest.approx(2.0 * alpha_static(SINGLE), rel=1e-12)


def test_even_in_omega():
    w = 0.37 * OMEGA0
    assert alpha_of_omega(SINGLE, w) == alpha_of_omega(SINGLE, -w)


def test_monotone_below_first_resonance():
    sp = AtomSpecies("multi", (Transition(1.6e15, 6e-59), Transition(2.4e15, 3e-59)))
    ws = [i / 400.0 * 1.59e15 for i in range(400)]
    vals = [alpha_of_omega(sp, w) for w in ws]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pole_guard():
    with pytest.raises(PoleProximity):
        alpha_of_omega(SINGLE, OMEGA0 * (1.0 + 1e-8))
    # just outside the band, above resonance
    assert alpha_of_omega(SINGLE, OMEGA0 * (1.0 + 1e-5)) < 0.0


def test_equivalent_radius_round_trip():
    a = 1e-10
    sp = AtomSpecies(
        "round", (Transition(OMEGA0, d2_for_static_polarizability(OMEGA0, FOUR_PI_EPS0 * a**3)),)
    )
    assert equivalent_radius(sp) == pytest.approx(a, rel=1e-12)


def test_linearity_in_d2():
    doubled = AtomSpecies("d", (Transition(OMEGA0, 2.0 * D2),))
    assert alpha_static(doubled) == pytest.approx(2.0 * alpha_static(SINGLE), rel=1e-14)


def test_sum_over_transitions_is_additive():
    t1, t2 = Transition(1.6e15, 6e-59), Transition(2.4e15, 3e-59)
    combined = AtomSpecies("c", (t1, t2))
    s1 = AtomSpecies("s1", (t1,))
    s2 = AtomSpecies("s2", (t2,))
    w = 5e14
    assert alpha_of_omega(combined, w) == pytest.approx(
        alpha_of_omega(s1, w) + alpha_of_omega(s2, w), rel=1e-14
    )
    assert mean_square_dipole(combined) == pytest.approx(
        mean_square_dipole(s1) + mean_square_dipole(s2), rel=1e-15
    )


def test_mean_square_dipole_values():
    assert mean_square_dipole(AtomSpecies("x", (Transition(1e15, 1.0),))) == 1.0
    two = AtomSpecies("y", (Transition(1e15, 1.0), Transition(2e15, 2.0)))
    assert mean_square_dipole(two) == 3.0


def test_two_level_consistency():
    # <d^2> = (3/2) hbar w0 alpha(0) after eliminating d^2
    assert mean_square_dipole(SINGLE) == pytest.approx(
        1.5 * HBAR * OMEGA0 * alpha_static(SINGLE), rel=1e-13
    )
    tr = two_level_transition(SINGLE)
    assert tr.omega_eg == OMEGA0
    with pytest.raises(NotTwoLevel):
        two_level_transition(
            AtomSpecies("m", (Transition(1e15, 1e-60), Transition(2e15, 1e-60)))
        )


def test_invariants_enforced():
    with pytest.raises(ValueError):
        Transition(-1.0, 1.0)
    with pytest.raises(ValueError):
        Transition(1e15, -1e-60)
    with pytest.raises(ValueError):
        AtomSpecies("empty", ())
    with pytest.raises(ValueError):
        AtomSpecies("dup", (Transition(1e15, 1.0), Transition(1e15, 2.0)))


# -- database ------------------------------------------------------------------

def test_load_round_trip(tmp_path):
    path = tmp_path / "db.json"
    species = [
        AtomSpecies("a", (Transition(1e15, 1e-60),)),
        AtomSpecies("b", (Transition(2e15, 2e-60), Transition(3e15, 3e-60))),
    ]
    path.write_text(json.dumps({"species": [
        {"name": s.name, "transitions": [{"omega_eg_rad_per_s": t.omega_eg, "d2_C2m2": t.d2}
                                         for t in s.transitions]}
        for s in species
    ]}))
    loaded = load_species_db(str(path))
    assert loaded == species


def test_single_species_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "species": [{"name": "solo",
                     "transitions": [{"omega_eg_rad_per_s": 1e15, "d2_C2m2": 1e-60}]}]
    }))
    loaded = load_species_db(str(path))
    assert len(loaded) == 1 and loaded[0].name == "solo"


def test_malformed_negative_frequency_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "species": [{"name": "bad",
                     "transitions": [{"omega_eg_rad_per_s": -1e15, "d2_C2m2": 1e-60}]}]
    }))
    with pytest.raises(ParseError) as err:
        load_species_db(str(path))
    assert "omega_eg" in str(err.value)


def test_duplicate_species_rejected(tmp_path):
    path = tmp_path / "dup.json"
    entry = {"name": "twin", "transitions": [{"omega_eg_rad_per_s": 1e15, "d2_C2m2": 1e-60}]}
    path.write_text(json.dumps({"species": [entry, entry]}))
    with pytest.raises(DuplicateSpecies):
        load_species_db(str(path))


def test_json_syntax_error_reports_line(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text('{"species": [\n  {"name": }\n]}')
    with pytest.raises(ParseError) as err:
        load_species_db(str(path))
    assert "line 2" in str(err.value)


def test_default_db_and_env_resolution(tmp_path, monkeypatch):
    assert {s.name for s in default_species_db()} == {"two-level-demo", "three-level-demo"}
    custom = tmp_path / "env.json"
    custom.write_text(json.dumps({"species": [
        {"name": "envy", "transitions": [{"omega_eg_rad_per_s": 1e15, "d2_C2m2": 1e-60}]}
    ]}))
    monkeypatch.setenv("CASQ_SPECIES_DB", str(custom))
    assert [s.name for s in resolve_species_db()] == ["envy"]
    monkeypatch.delenv("CASQ_SPECIES_DB")
    assert resolve_species_db()[0].name == "two-level-demo"


def test_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"species": [{"name": "caf\xe9"}]}')
    with pytest.raises(ParseError):
        load_species_db(str(path))


# -- database schema -------------------------------------------------------------

def _document(**entry_changes):
    entry = {"name": "solo", "transitions": [{"omega_eg_rad_per_s": 1e15, "d2_C2m2": 1e-60}]}
    entry.update(entry_changes)
    return {"species": [entry]}


def test_integer_beyond_float_range_is_parse_error():
    doc = _document(transitions=[{"omega_eg_rad_per_s": 10**400, "d2_C2m2": 1e-60}])
    with pytest.raises(ParseError) as err:
        parse_species_db(doc)
    assert "species[0].transitions[0].omega_eg_rad_per_s: expected a finite number" in str(err.value)


def test_misspelled_entry_key_is_parse_error():
    doc = _document()
    doc["species"][0]["transitons"] = doc["species"][0].pop("transitions")
    with pytest.raises(ParseError) as err:
        parse_species_db(doc)
    assert "species[0].transitons: unexpected key" in str(err.value)


def test_unknown_top_level_key_is_parse_error():
    doc = {**_document(), "version": 2}
    with pytest.raises(ParseError) as err:
        parse_species_db(doc)
    assert "version: unexpected key" in str(err.value)


def test_wrong_unit_suffix_is_unit_mismatch():
    doc = _document(transitions=[{"omega_eg_Hz": 1e15, "d2_C2m2": 1e-60}])
    with pytest.raises(UnitMismatch) as err:
        parse_species_db(doc)
    assert "omega_eg_rad_per_s" in str(err.value)


def test_missing_keys_reported_in_field_order():
    with pytest.raises(ParseError) as err:
        parse_species_db({"species": [{}]})
    assert str(err.value).endswith("species[0].name: missing required key")
    with pytest.raises(ParseError) as err:
        parse_species_db(_document(transitions=[{}]))
    assert str(err.value).endswith("transitions[0].omega_eg_rad_per_s: missing required key")


def test_non_string_name_is_parse_error():
    with pytest.raises(ParseError):
        parse_species_db(_document(name=7))


def test_find_species():
    db = default_species_db()
    assert find_species(db, "two-level-demo", "here").name == "two-level-demo"
    with pytest.raises(UnknownSpecies) as err:
        find_species(db, "unobtainium", "here")
    assert str(err.value).startswith("here: 'unobtainium' not in database")
