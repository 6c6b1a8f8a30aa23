"""Property test: every generated ``casq sweep`` command ends in a documented exit.

Each example sweeps a bundled scenario, or a document whose top level is
not an object, over a generated ``--param`` path and ``--values`` list,
in-process through ``casq.cli.main``. An exception escaping ``main`` would
end a ``casq`` process with a traceback and exit 1, so it fails the test.
"""

import contextlib
import io
import json
import math
from importlib.resources import files

from hypothesis import given, settings
from hypothesis import strategies as st

from casq.cli import main

#: Bundled scenario file -> dotted paths that name one of its numbers.
BUNDLED = {
    str(files("casq.data").joinpath(f"scenarios/{name}")): numbers
    for name, numbers in {
        "sagnac_straightline.json": ["y_m", "particle.omega_rad_per_s.2", "particle.alpha0_F_m2"],
        "sagnac_symmetric.json": ["y1_m", "particle.omega_s_rad_per_s"],
        "sagnac_numeric.json": ["trajectory.r0_m.1", "trajectory.v_m_per_s.0"],
        "dce_closed.json": ["oscillation.r_max_m", "oscillation.omega_cm_rad_per_s"],
        "quasi_static_linear.json": ["path.h_m", "window.t_end_s"],
        "nonlocal_counterprop.json": ["paths.1.h_m", "paths.0.v_m_per_s"],
    }.items()
}
#: JSON text whose top level is not an object -> dotted paths into it.
NOT_OBJECTS = {'[{"y_m": 1e-7}, [1.0, 2.0]]': ["0.y_m", "1.1"], '"sagnac"': ["0"], "3.5": ["0"]}

#: Path segments: malformed list indices, the empty segment, unknown keys
#: and keys of the bundled scenarios.
segments = st.sampled_from([
    "-1", "01", "+1", "1_0", "", "nope", "Y_M",
    "0", "1", "2", "kind", "species", "y_m", "particle", "omega_rad_per_s", "oscillation",
    "paths", "h_m", "trajectory", "window",
])
values = st.lists(
    st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e400", ""]),
              st.sampled_from([0.0, 1e-9, 3e-7, -2.5, 1.0, 1e5]).map(repr)),
    min_size=1, max_size=4,
).map(",".join)


@st.composite
def documents_and_params(draw):
    """A document and a path: one of its numbers, that path with one segment
    replaced or cut short, or a path of generated segments."""
    numbers = {**BUNDLED, **NOT_OBJECTS}
    document = draw(st.sampled_from(sorted(numbers)))
    parts = draw(st.sampled_from(numbers[document])).split(".")
    # half the paths name a number, so that rows run as often as paths fail
    how = draw(st.sampled_from(["number", "number", "number", "replace", "cut", "generate"]))
    if how == "replace":
        parts[draw(st.integers(0, len(parts) - 1))] = draw(segments)
    elif how == "cut":
        parts = parts[:draw(st.integers(1, len(parts)))]
    elif how == "generate":
        parts = draw(st.lists(segments, min_size=1, max_size=4))
    return document, ".".join(parts)


def _casq(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(document_and_param=documents_and_params(), value_list=values)
def test_generated_sweep_ends_in_documented_exit(tmp_path_factory, document_and_param, value_list):
    document, param = document_and_param
    if document in NOT_OBJECTS:
        path = tmp_path_factory.getbasetemp() / "fuzz_sweep.json"
        path.write_text(document)
        document = str(path)
    code, out, err = _casq("sweep", document, f"--param={param}", f"--values={value_list}",
                           "--format", "json")
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 0:
        # a row either records its error or reports a finite value, and the
        # rows are ordered by value (JSON prints a non-finite one as null)
        rows = json.loads(out)["rows"]
        for row in rows:
            assert "error" in row or math.isfinite(row["report"]["value"]), row
        finite = [row["param_value"] for row in rows if row["param_value"] is not None]
        assert finite == sorted(finite), value_list
