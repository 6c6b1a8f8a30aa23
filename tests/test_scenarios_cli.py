"""Scenario parsing, execution, sweeps, emission, and CLI exit codes."""

import ast
import contextlib
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import warnings
import xml.etree.ElementTree as ET
from importlib.resources import files
from types import SimpleNamespace

import pytest

from casq import scenarios
from casq.cli import main
from casq.constants import EPSILON_0, HBAR
from casq.errors import (
    BadParameterPath,
    NearFieldValidityWarning,
    ParseError,
    UnitMismatch,
    UnknownSpecies,
    ValidationError,
    show_warning,
)
from casq.sagnac import SpinningParticle, ell_omega
from casq.scenarios import (
    emit,
    parse_scenario_dict,
    run_scenario,
    sweep,
    to_canonical_json,
)
from casq.species import default_species_db, mean_square_dipole
from casq.value import IntegralResult

DB = default_species_db()

PARTICLE_JSON = {
    "alpha0_F_m2": 1.0e-32,
    "omega_s_rad_per_s": 8.0e15,
    "omega_rad_per_s": [0.0, 0.0, 1.0e5],
}


def minimal_quasi_static():
    return {
        "kind": "QuasiStatic",
        "species": "two-level-demo",
        "path": {"kind": "linear", "h_m": 1e-6, "v_m_per_s": 1.0},
        "window": {"t_start_s": 0.0, "t_end_s": 1e-7},
    }


def straightline_scenario(y):
    return {
        "kind": "SagnacStraightLine",
        "species": "two-level-demo",
        "particle": dict(PARTICLE_JSON),
        "y_m": y,
    }


def test_parse_minimal_fills_defaults():
    sc = parse_scenario_dict(minimal_quasi_static(), DB)
    assert sc.kind == "QuasiStatic"
    assert sc.species.name == "two-level-demo"
    assert sc.z_min == 1e-9
    assert sc.quadrature is None


def _one_of_each_kind():
    harmonic = {"kind": "harmonic", "h_m": 1e-6, "amplitude_m": 1e-7,
                "omega_cm_rad_per_s": 6.283185307179586e9}
    window = {"t_start_s": 0.0, "t_end_s": 2.5e-10}
    line3d = {"kind": "straight_line", "r0_m": [0.0, 3e-7, 0.0],
              "v_m_per_s": [100.0, 0.0, 0.0]}
    osc = {"r_max_m": 1e-7, "omega_cm_rad_per_s": 628318.5307179586}
    return [
        minimal_quasi_static(),
        {"kind": "MotionalMirror", "species": "two-level-demo",
         "path": harmonic, "window": window},
        {"kind": "Nonlocal", "species": "two-level-demo",
         "paths": [harmonic, {"kind": "constant", "h_m": 2e-6, "v_parallel_m_per_s": 1.0}],
         "window": window},
        {"kind": "TotalMirror", "species": "two-level-demo",
         "paths": [harmonic, {"kind": "constant", "h_m": 2e-6}], "window": window},
        {"kind": "Sagnac", "species": "two-level-demo",
         "particle": dict(PARTICLE_JSON), "trajectory": line3d,
         "window": {"improper": True}},
        straightline_scenario(3e-7),
        {"kind": "SagnacSymmetric", "species": "two-level-demo",
         "particle": dict(PARTICLE_JSON), "y1_m": 3e-7},
        {"kind": "DceClosed", "species": "two-level-demo", "oscillation": dict(osc)},
        {"kind": "DceNumeric", "species": "two-level-demo", "oscillation": dict(osc),
         "n_spectrum": 5},
    ]


@pytest.mark.parametrize("data", _one_of_each_kind(), ids=lambda d: d["kind"])
def test_parse_serialize_round_trip(data):
    sc = parse_scenario_dict(data, DB)
    assert (sc.kind, sc.species.name) == (data["kind"], data["species"])


@pytest.mark.parametrize(
    "data",
    [
        {**minimal_quasi_static(),
         "path": {"kind": "sampled", "v_parallel_m_per_s": -2.5,
                  "points_t_s_z_m": [[0.0, 1e-6], [5e-8, 1.2e-6], [1e-7, 1e-6]]}},
        {"kind": "Sagnac", "species": "two-level-demo", "particle": dict(PARTICLE_JSON),
         "trajectory": {"kind": "sampled",
                        "points_t_s_r_m": [[0.0, [0.0, 3e-7, 0.0]], [1e-9, [1e-7, 3e-7, 0.0]]]},
         "window": {"t_start_s": 0.0, "t_end_s": 1e-9}},
    ],
    ids=["sampled-1d", "sampled-3d"],
)
def test_parse_serialize_round_trip_sampled(data):
    sc = parse_scenario_dict(data, DB)
    if "path" in data:
        path, traj = data["path"], sc.paths[0]
        assert traj.v_parallel == path["v_parallel_m_per_s"]
        assert [[t, z] for t, z in zip(traj.times, traj.values)] == path["points_t_s_z_m"]
    else:
        path, traj = data["trajectory"], sc.traj3d
        assert [[t, list(r)] for t, r in zip(traj.times, traj.points)] == path["points_t_s_r_m"]


def test_missing_omega_names_key():
    bad = {
        "kind": "Sagnac",
        "species": "two-level-demo",
        "particle": {"alpha0_F_m2": 1e-32, "omega_s_rad_per_s": 8e15},
        "trajectory": {"kind": "straight_line", "r0_m": [0, 3e-7, 0],
                       "v_m_per_s": [100, 0, 0]},
        "window": {"improper": True},
    }
    with pytest.raises(ParseError) as err:
        parse_scenario_dict(bad, DB)
    assert "omega_rad_per_s" in str(err.value)


def test_unknown_species():
    data = minimal_quasi_static()
    data["species"] = "unobtainium"
    with pytest.raises(UnknownSpecies):
        parse_scenario_dict(data, DB)


def _sampled_sagnac(points):
    return {
        "kind": "Sagnac",
        "species": "two-level-demo",
        "particle": dict(PARTICLE_JSON),
        "trajectory": {"kind": "sampled", "points_t_s_r_m": points},
        "window": {"t_start_s": 0.0, "t_end_s": 1e-9},
    }


@pytest.mark.parametrize(
    "data",
    [
        {**straightline_scenario(3e-7), "y_m": math.nan},
        {**straightline_scenario(3e-7),
         "particle": {**PARTICLE_JSON, "omega_rad_per_s": [0.0, 0.0, math.inf]}},
        {**minimal_quasi_static(),
         "path": {"kind": "sampled", "points_t_s_z_m": [[0.0, 1e-6], [math.inf, 1e-6]]}},
        _sampled_sagnac([[0.0, [0.0, 3e-7, 0.0]], [1e-9, [math.nan, 3e-7, 0.0]]]),
        _sampled_sagnac([[0.0, [0.0, 3e-7]], [1e-9, [1e-7, 3e-7]]]),
    ],
    ids=["number", "vector", "sampled-1d", "sampled-3d", "sampled-3d-length"],
)
def test_non_finite_and_malformed_numbers_rejected(data):
    with pytest.raises(ParseError):
        parse_scenario_dict(data, DB)


_PATH = {"kind": "constant", "h_m": 1e-6}


@pytest.mark.parametrize(
    "data, message",
    [
        ({**minimal_quasi_static(),
          "path": {"kind": "sampled", "points_t_s_z_m": [[0.0, 1e-6], [1e-9]]}},
         "<scenario>.path.points_t_s_z_m: expected a list of [t, z] pairs"),
        (_sampled_sagnac([[0.0, [0.0, 3e-7, 0.0]], 1e-9]),
         "<scenario>.trajectory.points_t_s_r_m: expected a list of [t, [x,y,z]] pairs"),
        ({**minimal_quasi_static(), "path": [_PATH]}, "<scenario>.path: expected an object"),
        ({**minimal_quasi_static(), "path": {"kind": "spiral"}},
         "<scenario>.path.kind: expected one of constant/linear/harmonic/sampled, got 'spiral'"),
        ({"kind": "Nonlocal", "species": "two-level-demo", "paths": [_PATH],
          "window": {"t_start_s": 0.0, "t_end_s": 1e-7}},
         "<scenario>.paths: expected a list of exactly two paths"),
    ],
    ids=["sampled-1d-pair", "sampled-3d-pair", "path-object", "path-kind", "two-paths"],
)
def test_path_reader_refusals(data, message):
    with pytest.raises(ParseError) as err:
        parse_scenario_dict(data, DB)
    assert str(err.value) == message


def test_wrong_unit_suffix_flagged():
    data = straightline_scenario(3e-7)
    data["y_um"] = data.pop("y_m")
    with pytest.raises(UnitMismatch) as err:
        parse_scenario_dict(data, DB)
    assert "y_m" in str(err.value)


def test_run_straightline_at_ell():
    species = next(s for s in DB if s.name == "two-level-demo")
    particle = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5))
    ell = ell_omega(species, particle)
    sc = parse_scenario_dict(straightline_scenario(ell), DB)
    report = run_scenario(sc)
    assert report.result.value == pytest.approx(15.0 * math.pi / 16.0, rel=1e-12)
    assert report.operation == "sagnac.sagnac_phase_straightline"


def test_run_identical_paths_nonlocal_zero():
    data = {
        "kind": "Nonlocal",
        "species": "two-level-demo",
        "paths": [
            {"kind": "harmonic", "h_m": 1e-6, "amplitude_m": 1e-7,
             "omega_cm_rad_per_s": 62831.853071795864},
            {"kind": "harmonic", "h_m": 1e-6, "amplitude_m": 1e-7,
             "omega_cm_rad_per_s": 62831.853071795864},
        ],
        "window": {"t_start_s": 0.0, "t_end_s": 1e-4},
        "quadrature": {"rel_tol": 1e-10, "abs_tol": 1e-20},
    }
    report = run_scenario(parse_scenario_dict(data, DB))
    assert abs(report.result.value) < 1e-18


def test_run_deterministic():
    sc = parse_scenario_dict(minimal_quasi_static(), DB)
    r1 = run_scenario(sc)
    r2 = run_scenario(sc)
    assert r1.to_dict() == r2.to_dict()


# -- sweep -----------------------------------------------------------------------

def test_sweep_sixth_power_law():
    species = next(s for s in DB if s.name == "two-level-demo")
    particle = SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5))
    ell = ell_omega(species, particle)
    rows = sweep(straightline_scenario(ell), "y_m", [ell, 2.0 * ell], DB)
    assert [r.param_value for r in rows] == [ell, 2.0 * ell]
    assert rows[0].report.result.value == pytest.approx(64.0 * rows[1].report.result.value, rel=1e-11)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_rows_sorted_and_errors_recorded(jobs):
    rows = sweep(straightline_scenario(3e-7), "y_m", [6e-7, 0.0, 3e-7], DB, jobs=jobs)
    assert [r.param_value for r in rows] == [0.0, 3e-7, 6e-7]
    assert rows[0].report is None and "ZeroImpactParameter" in rows[0].error
    assert rows[1].report is not None and rows[2].report is not None


def test_sweep_parallel_matches_serial():
    values = [3e-7, 4e-7, 5e-7, 6e-7]
    serial = sweep(straightline_scenario(3e-7), "y_m", values, DB, jobs=1)
    parallel = sweep(straightline_scenario(3e-7), "y_m", values, DB, jobs=4)
    for a, b in zip(serial, parallel):
        assert a.param_value == b.param_value
        assert a.report.to_dict() == b.report.to_dict()


def test_sweep_shows_its_rows_warnings_in_row_order_at_every_worker_count(monkeypatch):
    # rows 2e-7, 2e-7, 3e-7 and 5e-7: the repeated row's message shows once,
    # in this process, whether the rows ran here or in two workers
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    shown = []
    for jobs in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            sweep(_bundled("sagnac_numeric.json"), "trajectory.r0_m.1",
                  [5e-7, 2e-7, 3e-7, 2e-7], DB, jobs=jobs)
        shown.append([(w.category, str(w.message)) for w in caught])
    assert shown[0] == shown[1]
    assert {category for category, _ in shown[0]} == {NearFieldValidityWarning}
    assert [float(message.split()[2]) for _, message in shown[0]] == [2e-7, 3e-7, 5e-7]


def test_sweep_warnings_match_filters_by_module(monkeypatch):
    # a row's warning keeps the module that raised it, so a filter by module
    # (as in PYTHONWARNINGS=ignore:::casq.scenarios) silences it at every worker count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", module=r"casq\.scenarios\Z")
            sweep(_bundled("sagnac_numeric.json"), "trajectory.r0_m.1", [2e-7, 3e-7], DB, jobs=jobs)
        assert caught == [], jobs


@pytest.mark.parametrize(
    "jobs, n_values, expected",
    [(100000, 6, 4), (3, 6, 3), (8, 2, 2), (8, 1, None), (0, 6, None), (-5, 6, None)],
)
def test_sweep_worker_count_clamped(monkeypatch, jobs, n_values, expected):
    import multiprocessing

    import casq.scenarios

    calls = []

    def get_context(method):
        # records the start method and worker count, then runs the rows serially
        def pool(processes):
            calls.append((method, processes))
            return contextlib.nullcontext(SimpleNamespace(map=lambda fn, tasks: list(map(fn, tasks))))

        return SimpleNamespace(Pool=pool)

    # stubbed under both names a sweep could call, so no real pool ever starts
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(casq.scenarios, "get_context", get_context, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    values = [3e-7 * (1 + i) for i in range(n_values)]
    rows = sweep(straightline_scenario(3e-7), "y_m", values, DB, jobs=jobs)
    assert [r.param_value for r in rows] == values
    method = "fork" if sys.platform == "linux" else "spawn"
    assert calls == ([] if expected is None else [(method, expected)])


def test_spawned_sweep_workers_match_one_job():
    # spawn, the start method off Linux, forced in a fresh interpreter (whose
    # exit ends the pool's resource tracker): workers start from a fresh
    # import and must give the rows, bytes and warnings of one job
    code = textwrap.dedent("""\
        import json, multiprocessing, os, warnings
        from importlib.resources import files
        from casq.scenarios import emit, sweep
        from casq.species import default_species_db

        real = multiprocessing.get_context
        asked = []
        multiprocessing.get_context = lambda method: asked.append(method) or real("spawn")
        os.cpu_count = lambda: 2
        data = json.loads(files("casq.data").joinpath("scenarios/sagnac_numeric.json").read_text())
        out = []
        for jobs in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                rows = sweep(data, "trajectory.r0_m.1", [5e-7, 0.0, 2e-7, 3e-7],
                             default_species_db(), jobs=jobs)
            out.append({"rows": [[r.param_value, r.error, r.report is None] for r in rows],
                        "json": emit(rows, "json"), "csv": emit(rows, "csv"),
                        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]})
        print(json.dumps([asked, out]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    asked, (serial, spawned) = json.loads(proc.stdout)
    assert asked == ["fork" if sys.platform == "linux" else "spawn"]
    assert [report_missing for _, _, report_missing in serial["rows"]] == [True, False, False, False]
    assert serial["warnings"] != []
    assert spawned == serial


def test_sweep_bad_path():
    with pytest.raises(BadParameterPath):
        sweep(straightline_scenario(3e-7), "nope.deeper", [1.0], DB)
    with pytest.raises(BadParameterPath):
        sweep(straightline_scenario(3e-7), "species", [1.0], DB)


def test_sweep_nested_path():
    rows = sweep(
        straightline_scenario(3e-7), "particle.omega_rad_per_s.2", [1e5, 2e5], DB
    )
    assert rows[1].report.result.value == pytest.approx(2.0 * rows[0].report.result.value, rel=1e-11)


def test_sweep_needs_at_least_one_value():
    with pytest.raises(ValidationError, match="a sweep needs at least one value"):
        sweep(straightline_scenario(3e-7), "y_m", [], DB)


def test_sweep_orders_nan_values_last():
    rows = sweep(straightline_scenario(3e-7), "y_m", [3e-7, math.nan, 1e-7], DB)
    assert [r.param_value for r in rows[:2]] == [1e-7, 3e-7] and math.isnan(rows[2].param_value)
    assert "ParseError" in rows[2].error


def test_sweep_leaves_the_document_unchanged():
    # rows copy only the objects and lists on the parameter path
    data = straightline_scenario(3e-7)
    before = json.dumps(data)
    sweep(data, "particle.omega_rad_per_s.2", [1e5, 2e5], DB)
    assert json.dumps(data) == before


# -- emission --------------------------------------------------------------------

def test_emit_csv_shape():
    report = run_scenario(parse_scenario_dict(minimal_quasi_static(), DB))
    text = emit(report, "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("scenario_kind,species,param_name,param_value")


def test_emit_json_round_trip():
    report = run_scenario(parse_scenario_dict(minimal_quasi_static(), DB))
    text = emit(report, "json")
    assert json.loads(text) == report.to_dict()


def test_emit_svg_wellformed():
    rows = sweep(straightline_scenario(3e-7), "y_m", [3e-7, 4e-7, 5e-7], DB)
    text = emit(rows, "svg-plotdata")
    root = ET.fromstring(text)
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1
    assert polylines[0].get("points")


@pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
def test_emit_refuses_an_unknown_format(fmt):
    report = run_scenario(parse_scenario_dict(minimal_quasi_static(), DB))
    with pytest.raises(ValueError, match=re.escape(
            f"unknown format {fmt!r} (expected csv, json or svg-plotdata)")):
        emit(report, fmt)


@pytest.mark.parametrize("obj, name", [({1, 2}, "set"), ({"x": [1.0, b"raw"]}, "bytes"),
                                       (1j, "complex")])
def test_canonical_json_refuses_a_non_json_object(obj, name):
    for compact in (False, True):
        with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
            to_canonical_json(obj, compact)


def test_canonical_json_17_digits():
    text = to_canonical_json({"x": 0.1})
    assert "0.10000000000000001" in text


@pytest.mark.parametrize("text", ['say "hi"', "back\\slash", "\x00\t\n\r\x1f\x7f", "Ωmega ü 😀",
                                  "lone \ud800 surrogate", ""],
                         ids=["quote", "backslash", "control", "non-ascii", "lone-surrogate",
                              "empty"])
def test_canonical_json_strings_are_json_dumps(text):
    quoted = json.dumps(text)
    assert to_canonical_json({text: text}) == f"{{\n  {quoted}: {quoted}\n}}\n"
    assert to_canonical_json({text: [text]}, compact=True) == f"{{{quoted}:[{quoted}]}}"


# -- CLI subprocess --------------------------------------------------------------

def _casq(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "casq", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def _scenario_path(name):
    return str(files("casq.data").joinpath(f"scenarios/{name}"))


def test_cli_run_exit_zero_and_stdout():
    proc = _casq("run", _scenario_path("quasi_static_linear.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["scenario_kind"] == "QuasiStatic"
    assert payload["metadata"]["constants_hash"]


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "QuasiStatic"')
    proc = _casq("run", str(bad))
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_cli_non_utf8_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"kind": "QuasiStatic", "species": "two-level-demo\xff"}')
    proc = _casq("run", str(bad))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_cli_validation_error_exit_2(tmp_path):
    data = minimal_quasi_static()
    data["species"] = "unobtainium"
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    assert _casq("run", str(p)).returncode == 2


def test_cli_nonconvergent_exit_3(tmp_path):
    data = {
        "kind": "Sagnac",
        "species": "two-level-demo",
        "particle": dict(PARTICLE_JSON),
        "trajectory": {"kind": "straight_line", "r0_m": [0, 3e-7, 0],
                       "v_m_per_s": [100, 0, 0]},
        "window": {"improper": True},
        "quadrature": {"rel_tol": 1e-14, "max_subdivisions": 1},
    }
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    proc = _casq("run", str(p))
    assert proc.returncode == 3


def test_cli_io_error_exit_4(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(minimal_quasi_static()))
    proc = _casq("run", str(p), "--out", str(tmp_path / "no-such-dir" / "x.csv"))
    assert proc.returncode == 4


def test_cli_species_listing():
    proc = _casq("species", "list")
    assert proc.returncode == 0
    assert "two-level-demo" in proc.stdout
    proc = _casq("species", "show", "two-level-demo")
    assert proc.returncode == 0
    assert "alpha_static_F_m2" in proc.stdout


def test_cli_species_db_flag(tmp_path):
    db = tmp_path / "db.json"
    db.write_text(json.dumps({
        "species": [{"name": "custom",
                     "transitions": [{"omega_eg_rad_per_s": 1e15, "d2_C2m2": 1e-60}]}]
    }))
    proc = _casq("--species-db", str(db), "species", "list")
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("custom")


def test_cli_sweep_bad_values_exit_2():
    proc = _casq("sweep", _scenario_path("sagnac_straightline.json"),
                 "--param", "y_m", "--values", "1e-7,oops")
    assert proc.returncode == 2
    proc = _casq("sweep", _scenario_path("sagnac_straightline.json"),
                 "--param", "y_m", "--from", "1e-7", "--to", "1e-6",
                 "--points", "many")
    assert proc.returncode == 2


@pytest.mark.parametrize("bare, joined", [
    (["--from", "-1e-7", "--to", "1e-7", "--points", "3"],
     ["--from=-1e-7", "--to=1e-7", "--points", "3"]),
    (["--to", "-1E-7", "--from", "-3e-7", "--points", "3"],
     ["--to=-1E-7", "--from=-3e-7", "--points", "3"]),
    (["--values", "-1e-7,2e-7"], ["--values=-1e-7,2e-7"]),
])
def test_cli_sweep_reads_a_bare_signed_number_as_its_value(capsys, bare, joined):
    # argparse takes a bare -1e-7 for an option; the = form never did
    argv = ["sweep", _scenario_path("sagnac_straightline.json"), "--param", "y_m"]
    assert main(argv + joined) == 0
    expected = capsys.readouterr().out
    assert main(argv + bare) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("option, value", [
    ("--from", "-x"), ("--to", "-1e-7e"), ("--values", "-1e-7,oops"),
])
def test_cli_sweep_signed_non_number_is_a_usage_error(capsys, option, value):
    argv = ["sweep", _scenario_path("sagnac_straightline.json"), "--param", "y_m",
            "--from", "1e-7", "--to", "2e-7", "--points", "3", option, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: expected one argument" in capsys.readouterr().err


def test_cli_sweep_points_bounded(monkeypatch, capsys):
    import casq.cli
    import casq.scenarios

    def must_not_run(*args, **kwargs):
        pytest.fail("a sweep over too many points reached casq.scenarios.sweep")

    argv = ["sweep", _scenario_path("sagnac_straightline.json"), "--param", "y_m",
            "--from", "1e-7", "--to", "1e-6", "--points"]
    # the sweep command imports casq.scenarios.sweep when it runs
    monkeypatch.setattr(casq.scenarios, "sweep", must_not_run)
    assert main(argv + [str(casq.cli._POINTS_MAX + 1)]) == 2
    assert "--points must be <= 100000" in capsys.readouterr().err
    assert main(argv + ["1"]) == 2
    assert "--points must be >= 2" in capsys.readouterr().err
    for start, stop in [("1e-7", "0"), ("-1e-6", "1e-6")]:
        log = ["sweep", _scenario_path("sagnac_straightline.json"), "--param", "y_m",
               f"--from={start}", f"--to={stop}", "--points", "3", "--log"]
        assert main(log) == 2
        assert "--log sweeps need positive endpoints" in capsys.readouterr().err

    built = []

    def count_values(data, param, values, db, jobs):
        built.append(len(values))
        return []

    monkeypatch.setattr(casq.scenarios, "sweep", count_values)
    assert main(argv + [str(casq.cli._POINTS_MAX), "--out", os.devnull]) == 0
    assert built == [casq.cli._POINTS_MAX]


def test_cli_json_byte_identical(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        proc = _casq("run", _scenario_path("dce_numeric.json"),
                     "--format", "json", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert "series" in payload  # spectrum samples ride along in JSON
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_sweep_log_spacing(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _casq(
        "sweep", _scenario_path("sagnac_straightline.json"),
        "--param", "y_m", "--from", "1e-9", "--to", "1e-7", "--points", "3",
        "--log", "--out", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text().strip().split("\n")[1:]
    values = [float(line.split(",")[3]) for line in lines]
    assert values == pytest.approx([1e-9, 1e-8, 1e-7], rel=1e-12)


def _write_json(tmp_path, data):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    return str(p)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_sweep_prints_the_bytes_it_writes(tmp_path, fmt):
    # three rows, one of them an error
    argv = [sys.executable, "-m", "casq", "sweep", _scenario_path("sagnac_straightline.json"),
            "--param", "y_m", "--values=1e-7,nan,3e-7", "--format", fmt]
    printed = subprocess.run(argv, capture_output=True, check=True).stdout
    out = tmp_path / f"sweep.{fmt}"
    written = subprocess.run(argv + ["--out", str(out)], capture_output=True, check=True)
    assert written.stdout == b""
    assert out.read_bytes() == printed
    rows = json.loads(printed)["rows"] if fmt == "json" else printed.splitlines()[1:]
    assert len(rows) == 3


@pytest.mark.parametrize("end", ["1e306", "1e308"])
def test_cli_svg_of_a_range_beyond_the_float_range_stays_on_the_plot(tmp_path, capsys, end):
    # 520 * (x1 - x0) overflows at +-1e306, and x1 - x0 itself at +-1e308
    data = _with("dce_numeric.json", "oscillation.direction", [1.0, 0.0, 0.0])
    capsys.readouterr()
    argv = ["sweep", _write_json(tmp_path, data), "--param", "oscillation.direction.0",
            f"--values=-{end},{end}", "--format", "svg-plotdata"]
    assert main(argv) == 0
    assert 'points="60,420 580,420"' in capsys.readouterr().out


def test_cli_symmetric_nonpositive_y1_exit_2(tmp_path):
    data = json.loads(files("casq.data").joinpath("scenarios/sagnac_symmetric.json").read_text())
    data["y1_m"] = -1e-7
    proc = _casq("run", _write_json(tmp_path, data))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_cli_sweep_records_nonpositive_y1():
    proc = _casq("sweep", _scenario_path("sagnac_symmetric.json"),
                 "--param", "y1_m", "--values=1e-7,-1e-7,2e-7")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().split("\n")[1:]
    assert len(rows) == 3
    failed = [row for row in rows if "NonPositiveDistance" in row]
    assert len(failed) == 1 and ",-9.9999999999999995e-08," in failed[0]


def test_cli_non_finite_number_exit_2(tmp_path):
    proc = _casq("run", _write_json(tmp_path, straightline_scenario(math.nan)))
    assert proc.returncode == 2
    assert "finite" in proc.stderr


def test_cli_sampled_window_equal_to_samples(tmp_path):
    # the window ends exactly on the last sample, so the positivity sweep
    # must not round past it
    points = [[0.0, 1e-6], [1e-9, 1.2e-6], [2e-9, 1e-6]]
    data = {
        "kind": "QuasiStatic",
        "species": "two-level-demo",
        "path": {"kind": "sampled", "points_t_s_z_m": points},
        "window": {"t_start_s": 0.0, "t_end_s": 2e-9},
    }
    proc = _casq("run", _write_json(tmp_path, data))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    # int dt / z^3 over a linear segment z = z0 + s t is (1/2s)(1/z0^2 - 1/z1^2)
    species = next(s for s in DB if s.name == "two-level-demo")
    c3 = mean_square_dipole(species) / (48.0 * math.pi * EPSILON_0)
    exact = c3 / HBAR * sum(
        (1.0 / z0**2 - 1.0 / z1**2) * (t1 - t0) / (2.0 * (z1 - z0))
        for (t0, z0), (t1, z1) in zip(points, points[1:])
    )
    assert abs(payload["value"] - exact) <= payload["error_estimate"]


def test_cli_sampled_kinks_inside_the_error_estimate(tmp_path, capsys):
    # 200 jagged samples: with kinks inside its panels the engine claimed
    # convergence at 5.7e-13 while off by 9.6e-12
    points = [[i * 2.0**-38, 1e-6 * (1.0 + 0.3 * math.sin(2.75 * i))] for i in range(200)]
    data = {
        "kind": "QuasiStatic",
        "species": "two-level-demo",
        "path": {"kind": "sampled", "points_t_s_z_m": points},
        "window": {"t_start_s": points[0][0], "t_end_s": points[-1][0]},
        "quadrature": {"rel_tol": 1e-6, "max_subdivisions": 4000},
    }
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 0, out.err
    payload = json.loads(out.out)
    species = next(s for s in DB if s.name == "two-level-demo")
    c3 = mean_square_dipole(species) / (48.0 * math.pi * EPSILON_0)
    # int dt / z^3 over a linear segment is (t1 - t0)(z0 + z1) / (2 z0^2 z1^2)
    exact = c3 / HBAR * math.fsum(
        (t1 - t0) * (z0 + z1) / (2.0 * z0**2 * z1**2)
        for (t0, z0), (t1, z1) in zip(points, points[1:])
    )
    assert payload["converged"] is True
    assert abs(payload["value"] - exact) <= payload["error_estimate"]


def test_cli_sampled_velocity_stays_inside_samples(tmp_path):
    # quadrature nodes within half a sample spacing of either end
    data = {
        "kind": "Nonlocal",
        "species": "two-level-demo",
        "paths": [
            {"kind": "sampled",
             "points_t_s_z_m": [[0.0, 1e-6], [5e-11, 1.1e-6], [1e-10, 1e-6]]},
            {"kind": "constant", "h_m": 1e-6},
        ],
        "window": {"t_start_s": 0.0, "t_end_s": 1e-10},
    }
    proc = _casq("run", _write_json(tmp_path, data))
    assert proc.returncode == 0, proc.stderr
    # the first path returns to its start: the exact phase is zero
    payload = json.loads(proc.stdout)
    assert abs(payload["value"]) <= payload["error_estimate"]


NEAR_FIELD_LINE = re.compile(
    r"casq: warning: NearFieldValidityWarning: closest approach \S+ m gives omega_eg\*d/c = "
)


def test_cli_warnings_print_as_one_line(tmp_path, capsys):
    run = _casq("run", _scenario_path("sagnac_numeric.json"))
    assert run.returncode == 0, run.stderr
    assert NEAR_FIELD_LINE.match(run.stderr) and run.stderr.count("\n") == 1
    # a sweep prints its rows' warnings the same way, one line per row
    out = tmp_path / "sweep.csv"
    sw = _casq("sweep", _scenario_path("sagnac_numeric.json"), "--param", "trajectory.r0_m.1",
               "--values", "3e-7,4e-7,5e-7", "--jobs", "2", "--out", str(out))
    assert sw.returncode == 0, sw.stderr
    lines = sw.stderr.splitlines()
    assert len(lines) == 3 and all(NEAR_FIELD_LINE.match(line) for line in lines)
    data = _bundled("nonlocal_counterprop.json")
    data["paths"][0]["v_parallel_m_per_s"] = 2.0
    data["paths"][1]["v_parallel_m_per_s"] = 3.0
    code, captured = _main_run(tmp_path, capsys, data)
    assert code == 0
    assert captured.err == (
        "casq: warning: ParallelVelocityMismatchWarning: paths declare different parallel "
        "velocities (2.0 vs 3.0); the two-path formula assumes a common parallel velocity\n"
    )


def test_show_warning_of_other_warnings_and_of_a_lost_stderr(monkeypatch, capsys):
    message = DeprecationWarning("an old call")
    show_warning(message, DeprecationWarning, "caller.py", 3)
    assert capsys.readouterr().err == warnings.formatwarning(
        message, DeprecationWarning, "caller.py", 3)

    class Gone:
        def write(self, text):
            raise OSError("stderr is closed")

    show_warning(message, DeprecationWarning, "caller.py", 3, file=Gone())
    monkeypatch.setattr(sys, "stderr", Gone())
    show_warning("near field", NearFieldValidityWarning, "sagnac.py", 1)
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


#: Modules that only `run`, `sweep` and `selftest` need: the compute layers,
#: the scenario runner, and hashlib with its OpenSSL extension (~4 ms).
_COMPUTE_MODULES = (
    "casq.scenarios", "casq.quadrature", "casq.dce", "casq.mirror_phases", "casq.sagnac",
    "casq.trajectories", "hashlib", "_hashlib",
)


def _loaded_after(code: str) -> list[str]:
    """Which of ``_COMPUTE_MODULES`` a fresh interpreter has loaded after ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(set({_COMPUTE_MODULES!r}) & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_only_stdlib():
    # multiprocessing is imported only by a sweep that runs workers;
    # dataclasses (and the inspect it imports) cost every process ~25 ms
    code = (
        "import sys; before = set(sys.modules); import casq.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'casq'}), "
        "sorted({'multiprocessing', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"
    # the compute modules load with the commands that run them, not with the CLI
    assert _loaded_after("import casq.cli") == []


@pytest.mark.parametrize("command", [["species", "list"], ["species", "show", "three-level-demo"]])
def test_species_commands_load_no_compute_modules(command):
    # sys.modules after the command, not -X importtime: importtime does not
    # list a module imported through importlib.import_module
    modules = _loaded_after(
        "import contextlib, io, sys\nfrom casq.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({command!r}) == 0\n"
        "assert 'casq.species' in sys.modules"
    )
    assert modules == []


@pytest.mark.parametrize("scenario, loaded, absent", [
    ("dce_numeric.json", "casq.dce",
     ("casq.quadrature", "casq.trajectories", "casq.mirror_phases", "casq.sagnac")),
    ("quasi_static_linear.json", "casq.mirror_phases", ("casq.dce", "casq.sagnac")),
    ("sagnac_numeric.json", "casq.sagnac", ("casq.dce", "casq.mirror_phases")),
])
def test_run_loads_only_its_kinds_modules(tmp_path, scenario, loaded, absent):
    # sys.modules after the command, not -X importtime: importtime does not
    # list a module imported through importlib.import_module
    argv = ["run", _scenario_path(scenario), "--out", str(tmp_path / "report.csv")]
    modules = _loaded_after(f"from casq.cli import main\nassert main({argv!r}) == 0")
    assert loaded in modules
    assert sorted(set(modules) & set(absent)) == []


_BUNDLED = sorted(p.name for p in files("casq.data").joinpath("scenarios").iterdir()
                  if p.name.endswith(".json"))


def test_each_kind_names_a_function_on_its_module():
    for kind, (_, module, function, _) in scenarios._KINDS.items():
        assert callable(getattr(importlib.import_module(f"casq.{module}"), function)), kind
    assert {_bundled(name)["kind"] for name in _BUNDLED} == set(scenarios.SCENARIO_KINDS)


@pytest.mark.filterwarnings("ignore::casq.errors.NearFieldValidityWarning")
@pytest.mark.parametrize("name", _BUNDLED)
def test_run_calls_the_function_on_its_module(monkeypatch, name):
    # a function replaced on its own module (as a tracer wraps it) is the
    # one a run calls, and the report names it
    sc = parse_scenario_dict(_bundled(name), DB, name)
    _, module_name, function, _ = scenarios._KINDS[sc.kind]
    module = importlib.import_module(f"casq.{module_name}")
    original = getattr(module, function)
    plain = run_scenario(sc)
    assert plain.operation == f"{module_name}.{function}"
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, function, spy)
    assert run_scenario(sc).to_dict() == plain.to_dict()
    assert len(calls) == 1


def test_only_the_module_loader_imports_a_compute_module():
    """Every function of scenarios.py reaches casq's other modules through
    ``_module``; only module-level code imports them by name."""
    tree = ast.parse(pathlib.Path(scenarios.__file__).read_text())
    importers = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                found = node.level > 0 or (node.module or "").startswith("casq")
            elif isinstance(node, ast.Import):
                found = any(alias.name.startswith("casq") for alias in node.names)
            else:
                found = isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in {"import_module",
                                                                         "__import__"}
            if found and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                importers.append(top.name)
    assert importers == ["_module"]


def test_run_reads_bundled_data_without_importlib_resources(tmp_path):
    # -S: no site module, whose .pth hooks may import importlib.resources
    # themselves; the bundled species database is read by path
    import casq

    argv = ["run", _scenario_path("dce_numeric.json"), "--out", str(tmp_path / "report.csv")]
    code = (f"import sys\nsys.path.insert(0, {os.path.dirname(os.path.dirname(casq.__file__))!r})\n"
            f"from casq.cli import main\nassert main({argv!r}) == 0\n"
            "print(sorted({'importlib.resources', 'zipfile'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parallel_sweep_loads_its_kinds_modules_before_the_pool():
    # a fresh interpreter, so that no other test has loaded a compute module;
    # the stubbed pool records the modules its forked workers would inherit
    code = textwrap.dedent("""\
        import contextlib, json, multiprocessing, os, sys
        from importlib.resources import files
        from types import SimpleNamespace
        from casq.scenarios import sweep
        from casq.species import default_species_db

        at_pool = []

        def get_context(method):
            def pool(processes):
                at_pool.extend(m for m in sys.modules if m.startswith("casq."))
                return contextlib.nullcontext(
                    SimpleNamespace(map=lambda fn, tasks: list(map(fn, tasks))))
            return SimpleNamespace(Pool=pool)

        multiprocessing.get_context = get_context
        os.cpu_count = lambda: 4
        data = json.loads(files("casq.data").joinpath("scenarios/sagnac_numeric.json").read_text())
        before = [m for m in sys.modules if m.startswith("casq.")]
        rows = sweep(data, "trajectory.r0_m.1", [3e-7, 4e-7], default_species_db(), jobs=2)
        assert all(row.report is not None for row in rows)
        print(json.dumps([before, at_pool]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, at_pool = json.loads(proc.stdout)
    sagnac_modules = {"casq.sagnac", "casq.quadrature", "casq.trajectories"}
    assert not sagnac_modules & set(before)
    assert sagnac_modules <= set(at_pool)
    assert not {"casq.dce", "casq.mirror_phases"} & set(at_pool)


def test_scenarios_import_leaves_hashlib_out():
    # reports carry constants.CONSTANTS_HASH; nothing computes it at import
    assert not {"hashlib", "_hashlib"} & set(_loaded_after("import casq.scenarios"))


# -- exit-code contract at the compute layer ---------------------------------------

def _bundled(name):
    return json.loads(files("casq.data").joinpath(f"scenarios/{name}").read_text())


def _with(name, path, value):
    data = _bundled(name)
    *outer, leaf = path.split(".")
    node = data
    for part in outer:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    return data


def _main_run(tmp_path, capsys, data):
    capsys.readouterr()
    code = main(["run", _write_json(tmp_path, data)])
    return code, capsys.readouterr()


def _harmonic_quasi_static(rel_tol):
    # 250 whole periods; a rel_tol below the round-off floor (about 2.2e-14)
    # is one no budget reaches, split into whole periods or not
    return {
        "kind": "QuasiStatic",
        "species": "two-level-demo",
        "path": {"kind": "harmonic", "h_m": 1e-6, "amplitude_m": 6e-7,
                 "omega_cm_rad_per_s": 2.0 * math.pi * 1e9},
        "window": {"t_start_s": 0.0, "t_end_s": 2.5e-7},
        "quadrature": {"rel_tol": rel_tol},
    }


@pytest.mark.parametrize("value", ["fast", math.nan])
def test_cli_v_parallel_must_be_finite(tmp_path, capsys, value):
    data = _with("nonlocal_counterprop.json", "paths.0.v_parallel_m_per_s", value)
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 2
    assert "v_parallel_m_per_s" in out.err


@pytest.mark.parametrize(
    "name,path",
    [
        ("sagnac_straightline.json", "particle.alpha0_F_m2"),
        ("sagnac_symmetric.json", "particle.omega_rad_per_s.2"),
    ],
)
def test_cli_non_finite_result_exit_3(tmp_path, capsys, name, path):
    code, out = _main_run(tmp_path, capsys, _with(name, path, 1e300))
    assert code == 3
    assert "value is" in out.err and out.out == ""


@pytest.mark.parametrize(
    "name,path,code,message",
    [
        ("quasi_static_linear.json", "path.h_m", 3, "OverflowError"),
        ("motional_harmonic.json", "window.t_end_s", 2, "math domain error"),
        ("sagnac_numeric.json", "trajectory.v_m_per_s.0", 2, "scale must be > 0"),
        ("dce_closed.json", "oscillation.r_max_m", 3, "math range error"),
    ],
)
def test_cli_extreme_finite_input_exit_code(tmp_path, capsys, name, path, code, message):
    got, out = _main_run(tmp_path, capsys, _with(name, path, 1e300))
    assert got == code
    assert message in out.err


def test_cli_sampled_path_of_huge_heights_is_refused_for_its_speed(tmp_path, capsys):
    # falling 1e300 m in 1e10 s is 1e290 m/s: the motional phase refuses it
    # by its segment slope, which must not overflow to inf
    data = {"kind": "MotionalMirror", "species": "two-level-demo",
            "path": {"kind": "sampled", "points_t_s_z_m": [[0.0, 1e300], [1e10, 1e-6]]},
            "window": {"t_start_s": 0.0, "t_end_s": 1e10}}
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 2 and out.out == ""
    assert "not below c/2" in out.err and "inf" not in out.err


FAST_PATH = {"kind": "linear", "h_m": 1e-6, "v_m_per_s": 1e9}


@pytest.mark.parametrize("kind,code", [("MotionalMirror", 2), ("TotalMirror", 2),
                                       ("QuasiStatic", 0), ("Nonlocal", 0)])
def test_cli_only_motional_phases_refuse_a_faster_than_light_path(tmp_path, capsys, kind, code):
    # a motional phase at 3.3 c used to exit 0 with "converged": true;
    # quasi-static and nonlocal phases have no c in them
    data = {"kind": kind, "species": "two-level-demo",
            "window": {"t_start_s": 0.0, "t_end_s": 1e-15}}
    if kind in ("TotalMirror", "Nonlocal"):
        data["paths"] = [FAST_PATH, {"kind": "constant", "h_m": 2e-6}]
    else:
        data["path"] = FAST_PATH
    got, out = _main_run(tmp_path, capsys, data)
    assert got == code
    assert ("not below c/2" in out.err) == (code == 2)


def test_cli_delay_window_below_float_resolution_exits_3(tmp_path, capsys):
    # the same geometry at t = 0 gives a motional phase of -6.167e-13; at
    # t = 1000 s it used to exit 0 with a converged "motional": 0
    data = {"kind": "MotionalMirror", "species": "two-level-demo",
            "path": {"kind": "linear", "h_m": -99999.999999, "v_m_per_s": 100.0},
            "window": {"t_start_s": 1000.0, "t_end_s": 1000.000000001}}
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 3 and out.out == ""
    assert re.search(r"delay window at t = 1000\.\d+ is below float resolution", out.err)


def test_cli_delay_average_that_misses_its_tolerance_exits_3(tmp_path, capsys):
    # a motional phase whose delay averages miss their tolerance used to
    # exit 0 with "converged": true
    data = {"kind": "MotionalMirror", "species": "two-level-demo",
            "path": {"kind": "harmonic", "h_m": 1e-6, "amplitude_m": 1e-9,
                     "omega_cm_rad_per_s": 1e17},
            "window": {"t_start_s": 0.0, "t_end_s": 1e-15},
            "quadrature": {"rel_tol": 1e-4, "max_subdivisions": 50}}
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 3 and out.out == ""
    assert "delay average over [" in out.err and "error_estimate=" in out.err


@pytest.mark.parametrize("t_end, code", [(1e-12, 0), (1e-9, 2)])
def test_cli_harmonic_clearance_reads_its_window(tmp_path, capsys, t_end, code):
    # over [0, 1 ps] the path rises from h (phase 0 -> 6.3 mrad) and used to
    # be refused at h - A = 1e-10 m; a window that passes the trough still is
    data = {"kind": "QuasiStatic", "species": "two-level-demo",
            "path": {"kind": "harmonic", "h_m": 1e-8, "amplitude_m": 9.9e-9,
                     "omega_cm_rad_per_s": 6283185307.179586},
            "window": {"t_start_s": 0.0, "t_end_s": t_end}}
    got, out = _main_run(tmp_path, capsys, data)
    assert got == code, out.err
    if code == 0:
        report = json.loads(out.out)
        assert report["converged"] is True and math.isfinite(report["value"])
    else:
        assert "at harmonic minimum, below the near-contact cutoff" in out.err


def test_cli_sweep_records_overflow_row(tmp_path, capsys):
    capsys.readouterr()
    argv = ["sweep", _scenario_path("quasi_static_linear.json"),
            "--param", "path.h_m", "--values=1e-6,1e300"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 2
    assert "NonFiniteEvaluation" not in rows[0] and ",true," in rows[0]
    assert "NonFiniteEvaluation: " in rows[1] and "OverflowError" in rows[1]


def test_cli_nonconvergent_bounded_exit_3(tmp_path):
    proc = _casq("run", _write_json(tmp_path, _harmonic_quasi_static(1e-15)))
    assert proc.returncode == 3, proc.stderr
    assert "value=" in proc.stderr and "error_estimate=" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_cli_dce_numeric_that_misses_its_tolerance_names_no_subdivision(tmp_path, capsys):
    # DceNumeric integrates by an exact rule whose estimate is 50 eps of its
    # value, and never subdivides: a tighter tolerance used to be reported
    # as a spent subdivision budget
    data = _bundled("dce_numeric.json")
    data["quadrature"] = {"rel_tol": 1e-15, "abs_tol": 0}
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 3 and out.out == ""
    assert re.fullmatch(r"numerical error: dce\.dce_rate_numeric: missed its tolerance "
                        r"\(value=[-+.e0-9]+, error_estimate=[-+.e0-9]+\)\n", out.err), out.err


def test_sweep_records_nonconvergent_row():
    rows = sweep(_harmonic_quasi_static(1e-8), "quadrature.rel_tol", [1e-15, 1e-8], DB)
    assert rows[0].report is None and rows[0].error.startswith("NonConvergent: ")
    assert rows[1].report is not None and rows[1].report.result.converged


# -- n_spectrum bound -------------------------------------------------------------

def test_n_spectrum_bound_accepted():
    sc = parse_scenario_dict(_with("dce_numeric.json", "n_spectrum", 10_000), DB)
    assert sc.n_spectrum == 10_000


@pytest.mark.parametrize("value", [10_001, 1e9])
def test_cli_n_spectrum_above_bound_exit_2(tmp_path, capsys, monkeypatch, value):
    # the spectrum must never be built: reaching the compute layer fails the test
    monkeypatch.setattr(
        "casq.dce.dce_rate_numeric", lambda *a, **k: pytest.fail("spectrum computed")
    )
    code, out = _main_run(tmp_path, capsys, _with("dce_numeric.json", "n_spectrum", value))
    assert code == 2
    assert "n_spectrum: must be <= 10000" in out.err and out.out == ""


# -- max_subdivisions bound --------------------------------------------------------

@pytest.mark.parametrize("value, code", [(100_000, 0), (100_001, 2), (1e15, 2)])
def test_cli_max_subdivisions_bounded(tmp_path, capsys, monkeypatch, value, code):
    # a budget above the bound never reaches the phase; one at the bound does
    budgets = []

    def phase(scenario, path_index, spec):
        if code:
            pytest.fail("phase computed")
        budgets.append(spec.max_subdivisions)
        return IntegralResult(1.0, 0.0)

    monkeypatch.setattr("casq.mirror_phases.quasi_static_phase", phase)
    data = _with("quasi_static_linear.json", "quadrature",
                 {"rel_tol": 0.0, "abs_tol": 5e-324, "max_subdivisions": value})
    got, out = _main_run(tmp_path, capsys, data)
    assert got == code
    if code:
        assert "quadrature.max_subdivisions: must be <= 100000" in out.err and out.out == ""
    else:
        assert budgets == [100_000]


@pytest.mark.parametrize("path, value", [("n_spectrum", 3.7), ("quadrature.max_subdivisions", 2.5)])
def test_cli_count_must_be_whole_exit_2(tmp_path, capsys, path, value):
    # a count used to be truncated: 3.7 spectrum samples ran as 3
    code, out = _main_run(tmp_path, capsys, _with("dce_numeric.json", path, value))
    assert code == 2
    assert f"{path.rsplit('.', 1)[-1]}: expected a whole number, got {value}" in out.err
    assert out.out == ""


def test_count_accepts_a_whole_float():
    # casq sweep --values hands every value over as a float
    sc = parse_scenario_dict(_with("dce_numeric.json", "quadrature.max_subdivisions", 200.0), DB)
    assert sc.quadrature.max_subdivisions == 200
    assert parse_scenario_dict(_with("dce_numeric.json", "n_spectrum", 5.0), DB).n_spectrum == 5


@pytest.mark.parametrize("field, message", [
    ({"quadrature": {"rel_tol": -1e-8}}, "rel_tol must be >= 0"),
    ({"quadrature": {"abs_tol": -1e-300}}, "abs_tol must be >= 0"),
    ({"z_min_m": -1e-9}, "z_min must be >= 0"),
])
def test_cli_negative_tolerance_or_cutoff_exit_2(tmp_path, capsys, field, message):
    code, out = _main_run(tmp_path, capsys, {**_bundled("quasi_static_linear.json"), **field})
    assert code == 2
    assert message in out.err and "Traceback" not in out.err and out.out == ""


# -- message determinism and sampled paths on improper windows ---------------------

def test_missing_key_message_independent_of_hash_seed(tmp_path):
    path = _write_json(tmp_path, {"kind": "SagnacStraightLine", "species": "two-level-demo"})
    errs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "casq", "run", path], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 2
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert "particle: missing required key" in errs[0]


def test_cli_sampled_sagnac_improper_window_exit_2(tmp_path, capsys):
    data = _sampled_sagnac([[0.0, [-1e-7, 3e-7, 0.0]], [1e-9, [1e-7, 3e-7, 0.0]]])
    data["window"] = {"improper": True}
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 2 and "outside sample range" in out.err


def _sagnac_line(r0, v, window, **particle):
    return {"kind": "Sagnac", "species": "two-level-demo",
            "particle": {**PARTICLE_JSON, **particle},
            "trajectory": {"kind": "straight_line", "r0_m": r0, "v_m_per_s": v},
            "window": window}


#: Paths that end inside the particle's radius or pass through its centre.
_INSIDE_THE_PARTICLE = [
    # ends 1e-10 m inside the radius, between the quadrature nodes
    (_sagnac_line([-1e-6, 5e-8, 0.0], [100.0, 0.0, 0.0],
                  {"t_start_s": 0.0, "t_end_s": 9.13497459621556e-09}, radius_m=1e-7),
     "closest approach 9.991340997045556e-08 m inside the particle radius 1e-07 m"),
    (_sagnac_line([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], {"t_start_s": 0.0, "t_end_s": 1e-9}),
     "the path passes through the particle's centre"),
    (_sagnac_line([0.0, 0.0, 0.0], [100.0, 0.0, 0.0], {"t_start_s": -1e-9, "t_end_s": 1e-9}),
     "the path passes through the particle's centre"),
]


@pytest.mark.parametrize("data, message", _INSIDE_THE_PARTICLE,
                         ids=["graze", "at-rest-on-centre", "through-centre"])
def test_cli_sagnac_path_inside_the_particle_exit_2(tmp_path, capsys, data, message):
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 2 and out.out == ""
    assert out.err == f"error: sagnac_phase: {message}\n"


#: Paths whose closest approach overflows to NaN: r0 . v overflows on each
#: straight line, the squares of each segment on each sampled path. All but
#: the first and the last pass inside the particle's radius, where no
#: integration node lands, so they would integrate to 0.
_NAN_CLOSEST_APPROACH = [
    _sagnac_line([-1e300, 3e-7, 0.0], [1e300, 0.0, 0.0], {"t_start_s": 0.0, "t_end_s": 2.0}),
    _sagnac_line([-1e154, 1e-9, 0.0], [1e155, 0.0, 0.0], {"t_start_s": 0.0, "t_end_s": 1.0},
                 radius_m=1e-7),
    _sagnac_line([-1e300, 1e-9, 0.0], [1e300, 0.0, 0.0], {"t_start_s": 0.0, "t_end_s": 2.1},
                 radius_m=1e-7),
    {**_sampled_sagnac([[0.0, [0.0, 1e-9, -1e200]], [1e-9, [0.0, 1e-9, 1e200]]]),
     "particle": {**PARTICLE_JSON, "radius_m": 1e-7}},
    _sampled_sagnac([[0.0, [0.0, 0.0, 1e300]], [1e-9, [0.0, 0.0, 0.0]]]),
    {**_sampled_sagnac([[0.0, [0.0, 0.0, -1e300]], [1e-9, [3e-7, 4e-7, -1.0]]]),
     "particle": {**PARTICLE_JSON, "radius_m": 1e-5}},
]


def test_cli_sagnac_overflowed_closest_approach_exit_3(tmp_path, capsys):
    # a NaN closest approach is refused before any integral runs
    for data in _NAN_CLOSEST_APPROACH:
        code, out = _main_run(tmp_path, capsys, data)
        assert code == 3 and out.out == ""
        assert out.err == ("numerical error: sagnac_phase: closest approach nan: the path's "
                           "coordinates overflow the float range\n"), data


def test_cli_sagnac_sampled_path_keeps_its_near_sample_exit_0(tmp_path, capsys):
    # the last sample, 1 m out, keeps its z next to the far first sample
    data = {**_sampled_sagnac([[0.0, [0.0, 0.0, -1e150]], [1e-9, [3e-7, 4e-7, -1.0]]]),
            "particle": {**PARTICLE_JSON, "radius_m": 1e-5}}
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 0, out.err
    assert "closest approach 1.000000000000125 m" in out.err
    report = json.loads(out.out)
    # the segment is radial about the rotation axis, so v . (Omega x r) = 0
    assert report["value"] == 0 and report["converged"] is True


@pytest.mark.parametrize("y", [1e-60, 1e-40])
def test_cli_sagnac_underflowing_closest_approach_exit_3(tmp_path, capsys, y):
    # d^8 below the smallest normal float: r^-8 cannot be evaluated at d
    code, out = _main_run(tmp_path, capsys, _with("sagnac_numeric.json", "trajectory.r0_m.1", y))
    assert code == 3 and out.out == ""
    assert out.err == (f"numerical error: sagnac_phase: closest approach {y!r} m puts r^-8 "
                       "beyond the float range (d^8 underflows)\n")


def test_cli_sagnac_closest_approach_just_inside_the_float_range_exit_0(tmp_path, capsys):
    code, out = _main_run(tmp_path, capsys, _with("sagnac_numeric.json", "trajectory.r0_m.1", 1e-38))
    assert code == 0
    report = json.loads(out.out)
    assert report["converged"] is True and math.isfinite(report["value"])


def test_cli_sagnac_path_whose_r8_underflows_exit_0(tmp_path, capsys):
    # |r|^2 >= 1e160 at every node: r^8 overflows and (1/r^2)^4 is 0, not an error
    code, out = _main_run(tmp_path, capsys, _with("sagnac_numeric.json", "trajectory.r0_m.1", 1e80))
    assert code == 0, out.err
    report = json.loads(out.out)
    assert report["value"] == 0 and report["converged"] is True
    assert out.err.startswith("casq: warning: NearFieldValidityWarning: closest approach 1e+80 m")


@pytest.mark.filterwarnings("ignore::casq.errors.NearFieldValidityWarning")
def test_sweep_records_a_centre_crossing_row():
    data = _bundled("sagnac_numeric.json")
    values = [-3e-7, 0.0, 3e-7]
    rows = sweep(data, "trajectory.r0_m.1", values, DB)
    assert rows[1].report is None
    assert rows[1].error == "NonPositiveDistance: sagnac_phase: the path passes through the particle's centre"
    for row, y in zip(rows[::2], values[::2]):
        alone = run_scenario(parse_scenario_dict(_with("sagnac_numeric.json", "trajectory.r0_m.1", y), DB))
        assert row.report.to_dict() == alone.to_dict()


@pytest.mark.parametrize("value", ["no", 1, 0, "true", None, [True]])
def test_cli_window_improper_must_be_a_boolean(tmp_path, capsys, value):
    data = _with("sagnac_numeric.json", "window.improper", value)
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 2 and out.out == ""
    assert "window.improper: expected true or false" in out.err


def test_cli_window_improper_false_is_bounded(tmp_path, capsys):
    bounded = {"t_start_s": -1e-8, "t_end_s": 1e-8}
    code, out = _main_run(tmp_path, capsys,
                          _with("sagnac_numeric.json", "window", {"improper": False, **bounded}))
    plain = _main_run(tmp_path, capsys, _with("sagnac_numeric.json", "window", bounded))
    assert code == 0 and (code, out) == plain
    code, out = _main_run(tmp_path, capsys, _with("sagnac_numeric.json", "window", {"improper": False}))
    assert code == 2 and "window.t_start_s: missing required key" in out.err


_REST = {"kind": "constant", "h_m": 1e-6}
_SWINGING = {"kind": "harmonic", "h_m": 1e-6, "amplitude_m": 1e-7, "omega_cm_rad_per_s": 1e4}


def _all_time_mirror(kind, *paths):
    data = {"kind": kind, "species": "two-level-demo", "window": {"improper": True}}
    if len(paths) == 1:
        data["path"] = paths[0]
    else:
        data["paths"] = list(paths)
    return data


def _engine_must_not_run(monkeypatch):
    def must_not_run(*args, **kwargs):
        pytest.fail("an integral ran")

    monkeypatch.setattr("casq.mirror_phases.integrate_adaptive", must_not_run)
    monkeypatch.setattr("casq.quadrature.integrate_adaptive", must_not_run)
    monkeypatch.setattr("casq.quadrature.integrate_improper", must_not_run)


#: All-time mirror scenarios: over all time the quasi-static phase of a
#: resting path diverges, a swinging path exhausts any budget, and a phase
#: is 0 only when every path rests.
_ALL_TIME_MIRROR = [
    _all_time_mirror("QuasiStatic", _REST),
    _all_time_mirror("QuasiStatic", _SWINGING),
    _all_time_mirror("MotionalMirror", _REST),
    _all_time_mirror("MotionalMirror", _SWINGING),
    _all_time_mirror("Nonlocal", _REST, {**_REST, "h_m": 2e-6}),
    _all_time_mirror("Nonlocal", _REST, {"kind": "linear", "h_m": 1e-6, "v_m_per_s": 0.0}),
    _all_time_mirror("Nonlocal", _SWINGING, _REST),
    _all_time_mirror("TotalMirror", _REST, {**_REST, "h_m": 2e-6}),
    _all_time_mirror("TotalMirror", _SWINGING, _REST),
]


@pytest.mark.parametrize("data", _ALL_TIME_MIRROR,
                         ids=[f"{d['kind']}-{i}" for i, d in enumerate(_ALL_TIME_MIRROR)])
def test_cli_all_time_mirror_window_exit_2(tmp_path, capsys, monkeypatch, data):
    _engine_must_not_run(monkeypatch)
    code, out = _main_run(tmp_path, capsys, data)
    assert code == 2 and out.out == ""
    assert "mirror phases need a bounded window" in out.err


def test_sweep_records_all_time_mirror_row(monkeypatch):
    _engine_must_not_run(monkeypatch)
    rows = sweep(_all_time_mirror("QuasiStatic", _REST), "path.h_m", [1e-6, 2e-6], DB)
    assert [r.report for r in rows] == [None, None]
    assert all(r.error.startswith("ImproperWindow: mirror phases need a bounded window")
               for r in rows)


# -- species database at the CLI --------------------------------------------------

def _species_db(tmp_path, omega_text):
    db = tmp_path / "db.json"
    db.write_text(
        '{"species": [{"name": "two-level-demo", "transitions": '
        f'[{{"omega_eg_rad_per_s": {omega_text}, "d2_C2m2": 1e-58}}]}}]}}'
    )
    return str(db)


@pytest.mark.parametrize("command", [
    ("species", "list"),
    ("run", _scenario_path("sagnac_straightline.json")),
    ("sweep", _scenario_path("sagnac_straightline.json"), "--param", "y_m", "--values", "1e-7,2e-7"),
])
def test_cli_species_db_integer_beyond_float_range_exit_2(tmp_path, command):
    proc = _casq("--species-db", _species_db(tmp_path, "1" + "0" * 400), *command)
    assert proc.returncode == 2, proc.stderr
    assert "expected a finite number" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_sweep_invalid_species_db_exit_2_no_rows(tmp_path):
    db = tmp_path / "db.json"
    db.write_text(json.dumps({"species": [{"name": "two-level-demo", "transitions": []},
                                          {"name": "x"}]}))
    proc = _casq("--species-db", str(db), "sweep", _scenario_path("sagnac_straightline.json"),
                 "--param", "y_m", "--values", "1e-7,2e-7", "--jobs", "2")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ("species", "show", "two-level-demo"),
    ("run", _scenario_path("dce_closed.json")),
])
def test_cli_species_db_overflowing_polarizability_exit_3(tmp_path, command):
    proc = _casq("--species-db", _species_db(tmp_path, "1e300"), *command)
    assert proc.returncode == 3, proc.stderr
    assert "OverflowError" in proc.stderr and "Traceback" not in proc.stderr


def _straightline_with_y(tmp_path, y_text):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(straightline_scenario(0)).replace('"y_m": 0', f'"y_m": {y_text}'))
    return str(path)


@pytest.mark.parametrize("command", [
    ("species", "list"),
    ("run", "SCENARIO"),
    ("sweep", "SCENARIO", "--param", "y_m", "--values", "1e-7,2e-7"),
])
def test_cli_integer_beyond_conversion_limit_exit_2(tmp_path, capsys, command):
    # json.load raises a plain ValueError for an integer over 4,300 digits
    digits = "1" * 5000
    if command[0] == "species":
        argv = ["--species-db", _species_db(tmp_path, digits), *command]
    else:
        argv = [c.replace("SCENARIO", _straightline_with_y(tmp_path, digits)) for c in command]
    capsys.readouterr()
    assert main(argv) == 2
    out = capsys.readouterr()
    assert "more than 4300 digits" in out.err and out.out == ""


def test_cli_json_nested_too_deeply_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert main(["run", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_cli_error_message_caps_echoed_value(tmp_path, capsys):
    capsys.readouterr()
    assert main(["run", _straightline_with_y(tmp_path, "1" * 400)]) == 2
    err = capsys.readouterr().err
    assert "y_m: expected a finite number, got 1111" in err and "(400 characters)" in err
    assert len(err.encode()) < 200


def test_cli_species_show_prints_nothing_on_exit_3(tmp_path, capsys):
    capsys.readouterr()
    code = main(["--species-db", _species_db(tmp_path, "1e300"), "species", "show", "two-level-demo"])
    out = capsys.readouterr()
    assert code == 3 and "OverflowError" in out.err
    assert out.out == ""


def test_serial_sweep_resolves_species_db_once(monkeypatch, capsys):
    import casq.cli
    import casq.scenarios
    import casq.species

    calls = []
    resolve = casq.species.resolve_species_db

    def counted(path=None):
        calls.append(path)
        return resolve(path)

    for module in (casq.cli, casq.scenarios):
        if hasattr(module, "resolve_species_db"):
            monkeypatch.setattr(module, "resolve_species_db", counted)
    code = main(["sweep", _scenario_path("sagnac_straightline.json"), "--param", "y_m",
                 "--values", "1e-7,2e-7,3e-7", "--jobs", "1"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 4
    assert calls == [None]


# -- sweep parameter paths ------------------------------------------------------------

def _main_sweep(capsys, scenario, param, values="1e-7,2e-7"):
    capsys.readouterr()
    code = main(["sweep", scenario, "--param", param, "--values", values])
    return code, capsys.readouterr()


def test_cli_sweep_empty_values_exit_2(capsys):
    code, out = _main_sweep(capsys, _scenario_path("sagnac_straightline.json"), "y_m", ",")
    assert code == 2 and "a sweep needs at least one value" in out.err and out.out == ""


@pytest.mark.parametrize("index", ["-3", "+1"])
def test_cli_sweep_list_index_must_be_plain_decimal(tmp_path, capsys, index):
    data = _bundled("dce_closed.json")
    data["oscillation"]["direction"] = [0.0, 0.0, 1.0]
    code, out = _main_sweep(capsys, _write_json(tmp_path, data),
                            f"oscillation.direction.{index}", "1,2")
    assert code == 2 and f"bad index '{index}'" in out.err and out.out == ""


def test_cli_sweep_list_leaf_must_hold_a_number(capsys):
    code, out = _main_sweep(capsys, _scenario_path("nonlocal_counterprop.json"), "paths.0", "1,2")
    assert code == 2 and "'paths.0' is not a numeric scalar" in out.err and out.out == ""


@pytest.mark.parametrize("param", ["trajectory.points_t_s_r_m", "nope." * 200 + "y"],
                         ids=["sample_list", "long_path"])
def test_cli_sweep_error_message_caps_echoed_path_and_value(tmp_path, capsys, param):
    points = [[i * 1e-12, [-1e-7 + i * 1e-9, 3e-7, 0.0]] for i in range(300)]
    code, out = _main_sweep(capsys, _write_json(tmp_path, _sampled_sagnac(points)), param, "1,2")
    assert code == 2 and "characters)" in out.err
    assert len(out.err.encode()) < 200


def test_cli_sweep_deeply_nested_extra_key_records_rows(tmp_path, capsys):
    # the rows share the document: nothing walks the 600 nested arrays
    nested = "[" * 600 + "]" * 600
    text = json.dumps(straightline_scenario(3e-7))[:-1] + f', "extra": {nested}}}'
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out = _main_sweep(capsys, str(path), "y_m")
    rows = out.out.strip().split("\n")[1:]
    assert code == 0 and len(rows) == 2
    assert all("ParseError: <sweep>.extra: unexpected key" in row for row in rows)
