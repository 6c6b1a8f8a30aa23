"""Property test: every generated species database ends in a documented exit.

Each generated document is written to a file and given to ``casq species
list`` and to one ``casq run``, in-process through ``casq.cli.main``. An
exception escaping ``main`` would end a ``casq`` process with a traceback
and exit 1, so it fails the test.
"""

import contextlib
import io
import json
from importlib.resources import files

from hypothesis import given, settings
from hypothesis import strategies as st

from casq.cli import main

SCENARIOS = [
    str(files("casq.data").joinpath(f"scenarios/{name}"))
    for name in ("sagnac_straightline.json", "dce_closed.json")
]

#: Transition numbers of three sorts: physical values, finite values whose
#: polarizability or phase overflows, and values the schema must reject.
physical = st.fixed_dictionaries({
    "omega_eg_rad_per_s": st.floats(min_value=1e14, max_value=1e16),
    "d2_C2m2": st.floats(min_value=0.0, max_value=1e-56),
})
extreme = st.fixed_dictionaries({
    "omega_eg_rad_per_s": st.sampled_from([1e300, 1.7976931348623157e308, 1e-300, 5e-324]),
    "d2_C2m2": st.sampled_from([0.0, 1e-300, 1e300]),
})
invalid_numbers = st.sampled_from([0, -1.0, -1e300, 10**400, -(10**400), float("nan"),
                                   float("inf"), True, None, "2e15", [2e15]])
broken = st.one_of(
    st.fixed_dictionaries({"omega_eg_rad_per_s": invalid_numbers, "d2_C2m2": st.just(1e-58)}),
    st.fixed_dictionaries({"omega_eg_rad_per_s": st.just(2e15), "d2_C2m2": invalid_numbers}),
    st.dictionaries(st.sampled_from(["omega_eg_rad_per_s", "d2_C2m2", "omega_eg_Hz", "d2"]),
                    st.just(2e15), max_size=3),
    invalid_numbers,
)
valid_entry = st.fixed_dictionaries({
    "name": st.sampled_from(["two-level-demo", "three-level-demo"]),
    "transitions": st.lists(st.one_of(physical, extreme), min_size=1, max_size=3),
})
broken_entry = st.one_of(
    st.fixed_dictionaries({
        "name": st.sampled_from(["two-level-demo", "", 7]),
        "transitions": st.lists(st.one_of(physical, broken), max_size=3),
    }),
    st.dictionaries(st.sampled_from(["name", "transitions", "transitons", "alias"]),
                    st.just("two-level-demo"), max_size=2),
)
documents = st.one_of(
    st.fixed_dictionaries({"species": st.lists(valid_entry, max_size=2,
                                               unique_by=lambda e: e["name"])}),
    st.fixed_dictionaries({"species": st.lists(st.one_of(valid_entry, broken_entry), max_size=3)},
                          optional={"version": st.just(1)}),
    st.sampled_from([[], {}, {"species": {}}, "species", None]),
)


def _casq(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(document=documents, scenario=st.sampled_from(SCENARIOS))
def test_generated_species_db_ends_in_documented_exit(tmp_path_factory, document, scenario):
    db = tmp_path_factory.getbasetemp() / "fuzz_species.json"
    db.write_text(json.dumps(document))
    code, err = _casq("--species-db", str(db), "species", "list")
    assert code in (0, 2), err
    assert "Traceback" not in err
    run_code, run_err = _casq("--species-db", str(db), "run", scenario)
    # a database that does not parse fails the run the same way; a valid one
    # may still overflow in the compute, which is exit 3
    assert (run_code == 2) if code == 2 else (run_code in (0, 2, 3)), run_err
    assert "Traceback" not in run_err
