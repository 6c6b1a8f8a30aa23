"""Property test: every generated scenario document ends in a documented exit.

Each example writes one generated scenario document to a file and gives it
to ``casq run``, in-process through ``casq.cli.main``. Documents cover all
nine kinds: well-formed ones with typical or extreme numbers, ones with a
key deleted, misspelled, added or given a value of the wrong type, all-time
windows on mirror kinds, and top levels that are not scenarios. A sampled
``Sagnac`` path runs over the window of its own sample times, and some
``Sagnac`` documents hold only typical numbers and a particle radius below
their path's closest approach, so they reach the integral. The exit
code must be 0, 2, 3 or 4, stderr must hold no traceback, a report of
exit 0 must hold only finite numbers, and a ``Sagnac`` run of exit 0 must
keep its path outside the particle's radius. An exception escaping
``main`` would end a ``casq`` process with a traceback and exit 1, so it
fails the test.

Every generated document carries a ``quadrature`` object with a budget of
at most 16 subdivisions, or one above the reader's bound, which is refused
before any integral runs: the test stays at a few seconds.

A second test runs generated ``Sagnac`` paths against particle radii set
around each path's exact closest approach: a run exits 2 exactly when the
path passes through the centre or inside the radius.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from casq.cli import main
from casq.trajectories import SampledPolyline3D, StraightLine3D, TimeWindow

MIRROR_KINDS = ("QuasiStatic", "MotionalMirror", "Nonlocal", "TotalMirror")
ALL_TIME = {"improper": True}

#: Finite numbers a reader accepts but a computation may not survive.
EXTREME = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, -1e300, 1.7976931348623157e308]
#: Values no number field accepts.
JUNK = [math.nan, math.inf, -math.inf, 10**400, True, None, "1e-6", [1e-6], {}]


def often(usual, rare):
    """``usual`` three times in four, else ``rare``: most documents reach a
    computation, and every field is sometimes at an edge."""
    return st.sampled_from((usual, usual, usual, rare)).flatmap(lambda s: s)


def num(lo, hi):
    """A field's number: within its typical range, or extreme."""
    return often(st.floats(lo, hi), st.sampled_from(EXTREME))


def vector(lo, hi):
    return st.lists(num(lo, hi), min_size=3, max_size=3)


def samples(value, most, least=1):
    """A sampled path's [t, value] rows, in time order."""
    return st.lists(st.tuples(num(0.0, 2e-7), value), min_size=least, max_size=most).map(
        lambda rows: [list(row) for row in sorted(rows, key=lambda row: row[0])])


height = num(2e-7, 1e-5)
path_1d = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "h_m": height},
                          optional={"v_parallel_m_per_s": num(-10.0, 10.0)}),
    st.fixed_dictionaries({"kind": st.just("linear"), "h_m": height,
                           "v_m_per_s": num(-10.0, 10.0)}),
    st.fixed_dictionaries({"kind": st.just("harmonic"), "h_m": height,
                           "amplitude_m": num(0.0, 1e-7), "omega_cm_rad_per_s": num(1e3, 1e10)},
                          optional={"phase0_rad": num(-4.0, 4.0)}),
    st.fixed_dictionaries({"kind": st.just("sampled"), "points_t_s_z_m": samples(height, 4)}),
)
bounded_window = st.fixed_dictionaries({"t_start_s": num(-1e-7, 0.0), "t_end_s": num(1e-9, 2e-7)})
window = often(bounded_window, st.just(ALL_TIME))
quadrature = st.fixed_dictionaries({
    "rel_tol": often(st.sampled_from([1e-6, 1e-3]), st.sampled_from([0.0, 1e-15, -1e-8])),
    "abs_tol": st.sampled_from([1e-300, 0.0, 5e-324, 1e-20]),
    "max_subdivisions": often(st.sampled_from([1, 4, 16]),
                              st.sampled_from([0, 2.5, 100_001, 1e15])),
})
particle = st.fixed_dictionaries(
    {"alpha0_F_m2": num(1e-33, 1e-31), "omega_s_rad_per_s": num(1e15, 1e16),
     "omega_rad_per_s": vector(-1e5, 1e5)},
    optional={"gamma_rad_per_s": num(0.0, 1e12), "radius_m": num(0.0, 1e-7)},
)


def over_its_samples(rows):
    """A sampled path and the window from its first to its last sample time."""
    return {"trajectory": {"kind": "sampled", "points_t_s_r_m": rows},
            "window": {"t_start_s": rows[0][0], "t_end_s": rows[-1][0]}}


position = st.lists(st.floats(-1e-6, 1e-6), min_size=3, max_size=3)
near_paths = st.one_of(
    st.fixed_dictionaries({
        "trajectory": st.fixed_dictionaries({
            "kind": st.just("straight_line"), "r0_m": position,
            "v_m_per_s": st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)}),
        "window": st.fixed_dictionaries({"t_start_s": st.floats(-1e-8, 0.0),
                                         "t_end_s": st.floats(1e-9, 1e-8)})}),
    st.lists(st.tuples(st.floats(0.0, 2e-7), position), min_size=2, max_size=4,
             unique_by=lambda row: row[0]).map(
        lambda rows: over_its_samples([[t, r] for t, r in sorted(rows)])),
)


sagnac_path = st.one_of(
    st.fixed_dictionaries({
        "trajectory": st.fixed_dictionaries({"kind": st.just("straight_line"),
                                             "r0_m": vector(-1e-6, 1e-6),
                                             "v_m_per_s": vector(-1e3, 1e3)}),
        "window": window}),
    samples(vector(-1e-6, 1e-6), 3, least=2).map(over_its_samples),
)
typical_particle = st.fixed_dictionaries(
    {"alpha0_F_m2": st.floats(1e-33, 1e-31), "omega_s_rad_per_s": st.floats(1e15, 1e16),
     "omega_rad_per_s": st.lists(st.floats(-1e5, 1e5), min_size=3, max_size=3)},
    optional={"gamma_rad_per_s": st.floats(0.0, 1e12)},
)


def radius_inside_its_path(doc, fraction):
    """``doc`` with its particle's radius a ``fraction`` (below 1) of its
    path's exact closest approach: a run may compute, and must keep its
    path outside that radius."""
    traj, window = _path_and_window(doc)
    doc["particle"]["radius_m"] = fraction * traj.closest_approach(window)
    return doc


oscillation = st.fixed_dictionaries(
    {"r_max_m": num(0.0, 1e-6), "omega_cm_rad_per_s": num(1e3, 1e9)},
    optional={"direction": vector(-1.0, 1.0)},
)


def kind(name, **fields):
    return st.fixed_dictionaries({"kind": st.just(name), "species": st.just("two-level-demo"),
                                  "quadrature": quadrature, **fields})


def mirror_kinds(window):
    two_paths = st.lists(path_1d, min_size=2, max_size=2)
    return st.one_of(kind("QuasiStatic", path=path_1d, window=window),
                     kind("MotionalMirror", path=path_1d, window=window),
                     kind("Nonlocal", paths=two_paths, window=window),
                     kind("TotalMirror", paths=two_paths, window=window))


well_formed = st.one_of(
    mirror_kinds(window),
    st.builds(lambda doc, path: {**doc, **path}, kind("Sagnac", particle=particle), sagnac_path),
    st.builds(radius_inside_its_path,
              st.builds(lambda doc, path: {**doc, **path},
                        kind("Sagnac", particle=typical_particle), near_paths),
              st.floats(0.0, 1.0, exclude_max=True)),
    kind("SagnacStraightLine", particle=particle, y_m=num(1e-8, 1e-6)),
    kind("SagnacSymmetric", particle=particle, y1_m=num(1e-8, 1e-6)),
    kind("DceClosed", oscillation=oscillation),
    kind("DceNumeric", oscillation=oscillation,
         n_spectrum=often(st.sampled_from([1, 3, 9]), st.sampled_from([0, 3.7, 10_001, 1e9]))),
)
#: (operation, which key, replacement): applied by :func:`mutate`.
mutation = st.tuples(st.sampled_from(["delete", "misspell", "retype", "add"]),
                     st.integers(0, 40), st.sampled_from(JUNK + ["two-level-demo", []]))
not_a_scenario = st.sampled_from([[], {}, None, 3.5, "QuasiStatic", {"kind": "Nope"},
                                  {"kind": "QuasiStatic"}, {"kind": "DceClosed", "species": 7}])


def _slots(node, in_quadrature=False):
    """(container, key, inside a quadrature object) for every key and index."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key, in_quadrature
        if isinstance(value, (dict, list)):
            yield from _slots(value, in_quadrature or key == "quadrature")


def mutate(doc, op, pick, junk):
    """``doc`` with one key deleted, misspelled or given ``junk``, or with an
    unknown key added. A quadrature object and its budget are never deleted,
    so no run falls back to the default budget."""
    slots = [s for s in _slots(doc) if isinstance(s[0], dict)
             and not (op == "delete" and (s[1] == "quadrature" or s[2]))]
    node, key, _ = slots[pick % len(slots)]
    if op == "delete":
        del node[key]
    elif op == "misspell":
        node[key[:-1] if key.endswith("m") else key + "_m"] = node.pop(key)
    elif op == "retype":
        node[key] = junk
    else:
        node["extra_key"] = 1.0
    return doc


documents = st.one_of(
    well_formed,
    st.builds(lambda doc, m: mutate(doc, *m), well_formed, mutation),
    mirror_kinds(st.just(ALL_TIME)),
    not_a_scenario,
)


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for x in node:
            yield from _numbers(x)
    elif isinstance(node, float):
        yield node


def _path_and_window(document):
    """A ``Sagnac`` document's path and window, rebuilt from its JSON."""
    path, window = document["trajectory"], document["window"]
    if path["kind"] == "straight_line":
        traj = StraightLine3D(path["r0_m"], path["v_m_per_s"])
    else:
        rows = path["points_t_s_r_m"]
        traj = SampledPolyline3D([t for t, _ in rows], [r for _, r in rows])
    if window.get("improper"):
        return traj, TimeWindow.all_time()
    return traj, TimeWindow(window["t_start_s"], window["t_end_s"])


def _run(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "fuzz_scenario.json"
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(document=documents)
def test_generated_scenario_ends_in_documented_exit(tmp_path_factory, document):
    code, out, err = _run(tmp_path_factory, document)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 0:
        report = json.loads(out)
        assert all(math.isfinite(x) for x in _numbers(report)), report
        assert report["converged"] is True
        if document["kind"] == "Sagnac" and "radius_m" in document["particle"]:
            traj, window = _path_and_window(document)
            assert traj.closest_approach(window) >= document["particle"]["radius_m"]
    if (isinstance(document, dict) and document.get("kind") in MIRROR_KINDS
            and document.get("window") == ALL_TIME):
        assert code == 2, err


# -- a Sagnac path against the particle's radius ----------------------------------

@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(path=near_paths, ratio=st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]))
def test_sagnac_path_is_checked_at_its_closest_approach(tmp_path_factory, path, ratio):
    # the radius is a multiple of the path's exact closest approach d: a run
    # ends with exit 2 exactly when d is 0 or below the radius
    traj, window = _path_and_window(path)
    d = traj.closest_approach(window)
    # no sampled point of the path comes closer than d; the last probe is
    # t_end itself, since t_start + (t_end - t_start) may round past it
    times = [window.t_start + (window.t_end - window.t_start) * i / 1000 for i in range(1000)]
    times.append(window.t_end)
    assert min(math.hypot(*traj.position(t)) for t in times) >= d * (1.0 - 1e-12)
    particle = {"alpha0_F_m2": 1e-32, "omega_s_rad_per_s": 8e15,
                "omega_rad_per_s": [0.0, 0.0, 1e5], "radius_m": ratio * d}
    document = {"kind": "Sagnac", "species": "two-level-demo", "particle": particle,
                "quadrature": {"max_subdivisions": 50}, **path}
    code, out, err = _run(tmp_path_factory, document)
    if d == 0.0:
        assert code == 2 and "passes through the particle's centre" in err, err
    elif d < ratio * d:
        assert code == 2 and "inside the particle radius" in err, err
    else:
        assert code in (0, 3) and "Traceback" not in err, err
        if code == 0:
            assert all(math.isfinite(x) for x in _numbers(json.loads(out)))
