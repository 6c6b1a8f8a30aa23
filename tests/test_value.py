"""The value-class contract: frozen fields (mutable ones for records),
type-sensitive equality, repr, re-validating replace(), pickling, and
construction from JSON by schema."""

import json
import pickle
import re
import sys
from importlib.resources import files

import pytest

from casq.dce import OscillationParams
from casq.mirror_phases import MirrorScenario
from casq.quadrature import IntegralResult, QuadratureSpec
from casq.sagnac import SpinningParticle
from casq.scenarios import (
    _PATHS_1D,
    _PATHS_3D,
    Report,
    Scenario,
    SweepRow,
    parse_scenario_dict,
    run_scenario,
)
from casq.schema import read_object
from casq.selftest import CriterionResult
from casq.species import AtomSpecies, Transition, default_species_db
from casq.trajectories import (
    Constant1D,
    Harmonic1D,
    Linear1D,
    SampledPolyline1D,
    SampledPolyline3D,
    StraightLine3D,
    TimeWindow,
)
from casq.value import Record, Value

DB = default_species_db()
SCENARIOS = sorted(p.name for p in files("casq.data").joinpath("scenarios").iterdir()
                   if p.name.endswith(".json"))


def _scenario(name: str) -> Scenario:
    text = files("casq.data").joinpath(f"scenarios/{name}").read_text()
    return parse_scenario_dict(json.loads(text), DB, source=name)


def _values() -> list:
    """One object, at least, of every value class in casq."""
    species = AtomSpecies("two-level", (Transition(2.0e15, 1.0e-58),))
    window = TimeWindow(0.0, 1e-9)
    report = run_scenario(_scenario("sagnac_straightline.json"))
    return [
        window,
        TimeWindow.all_time(),
        Constant1D(1e-6),
        Linear1D(1e-6, 2.0, v_parallel=3.0),
        Harmonic1D(1e-6, 1e-7, 1e9, phase0=0.5),
        SampledPolyline1D((0.0, 1e-9), (1e-6, 2e-6)),
        StraightLine3D((1e-7, 2e-7, 0.0), (0.0, 300.0, 0.0)),
        SampledPolyline3D((0.0, 1e-9), ((1e-7, 0.0, 0.0), (0.0, 1e-7, 0.0))),
        QuadratureSpec(rel_tol=1e-8),
        IntegralResult(1.5, 1e-12, 45, True, {"a": 1.0}, {"s": (1.0, 2.0)}),
        species.transitions[0],
        species,
        OscillationParams(1e-9, 1e9, 1e-39, direction=(1.0, 1.0, 0.0)),
        MirrorScenario(species, (Constant1D(1e-6), Linear1D(2e-6, 1.0)), window),
        SpinningParticle(1e-32, 8e15, (0.0, 0.0, 1e5), gamma=1e9, radius=1e-8),
        report,
        SweepRow("y_m", 1e-7, report),
        SweepRow("y_m", 2e-7, None, "ParseError: bad"),
        CriterionResult(1, "title", True, "detail"),
        *(_scenario(name) for name in SCENARIOS),
    ]


def test_every_value_class_is_covered():
    modules = [m for name, m in sys.modules.items() if name.startswith("casq.")]
    declared = {v for m in modules for v in vars(m).values()
                if isinstance(v, type) and issubclass(v, Record) and v not in (Record, Value)}
    assert declared == {type(v) for v in _values()}
    assert {Report, SweepRow, CriterionResult} == {c for c in declared if not issubclass(c, Value)}


@pytest.mark.parametrize("obj", [v for v in _values() if isinstance(v, Value)],
                         ids=lambda v: type(v).__name__)
def test_fields_are_frozen_slots(obj):
    name = obj.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert not hasattr(obj, "__dict__")


def test_record_fields_are_mutable_slots():
    row = SweepRow("y_m", 1e-7, None, "ParseError: bad")
    row.error = "other"
    assert row == SweepRow("y_m", 1e-7, None, "other")
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        row.extra = 1
    with pytest.raises(TypeError, match="unhashable"):
        hash(row)


@pytest.mark.parametrize("obj", _values(), ids=lambda v: type(v).__name__)
def test_pickle_round_trip(obj):
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is type(obj)
    assert back == obj
    if isinstance(obj, Value):
        with pytest.raises(AttributeError):
            setattr(back, back.__slots__[0], None)


def test_unpickling_a_value_skips_init(monkeypatch):
    res = IntegralResult(1.5, 1e-12, 45, True, {}, {"s": (1.0, 2.0)})
    data = pickle.dumps(res)

    def fail(*args, **kwargs):
        raise AssertionError("__init__ ran")

    monkeypatch.setattr(IntegralResult, "__init__", fail)
    assert pickle.loads(data) == res


def test_value_class_needs_two_fields():
    with pytest.raises(TypeError, match="two or more fields"):
        type("OneField", (Value,), {"__slots__": ("times",)})


def test_equality_is_type_sensitive():
    assert Constant1D(1e-6) == Constant1D(1e-6)
    assert hash(Constant1D(1e-6)) == hash(Constant1D(1e-6))
    assert Constant1D(1e-6) != Constant1D(2e-6)
    assert Constant1D(1e-6) != Linear1D(1e-6, 0.0)
    assert Constant1D(1e-6) != (1e-6, None)


def test_repr_names_every_field():
    assert repr(TimeWindow(0.0, 1.0)) == "TimeWindow(t_start=0.0, t_end=1.0, improper=False)"
    assert repr(Constant1D(2.0)) == "Constant1D(h=2.0, v_parallel=None)"


def test_replace_validates_again():
    h = Harmonic1D(1e-6, 1e-7, 1e9)
    assert h.replace(amplitude=2e-7) == Harmonic1D(1e-6, 2e-7, 1e9)
    assert h.amplitude == 1e-7
    with pytest.raises(ValueError, match="h - A"):
        h.replace(amplitude=1e-6)
    with pytest.raises(ValueError, match="t_start must be < t_end"):
        TimeWindow(0.0, 1.0).replace(t_end=-1.0)
    with pytest.raises(TypeError):
        h.replace(speed=1.0)
    # conversions run again as well
    assert StraightLine3D((0, 0, 1), (1, 0, 0)).replace(v=[0, 2, 0]).v == (0.0, 2.0, 0.0)


_GOOD3 = (1e-7, 2e-7, 3e-7)


@pytest.mark.parametrize("bad", [(1e-7, 2e-7), (1e-7, 2e-7, 3e-7, 4e-7)], ids=["2", "4"])
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: StraightLine3D(v, _GOOD3), "StraightLine3D: r0"),
        (lambda v: StraightLine3D(_GOOD3, v), "StraightLine3D: v"),
        (lambda v: SampledPolyline3D((0.0, 1e-9), (_GOOD3, v)), "SampledPolyline3D: points[1]"),
        (lambda v: SpinningParticle(1e-32, 8e15, v), "SpinningParticle: omega"),
        (lambda v: OscillationParams(1e-9, 1e9, 1e-40, direction=v),
         "OscillationParams: direction"),
    ],
)
def test_three_vectors_need_three_components(build, field, bad):
    message = rf"^{re.escape(field)} must have 3 components, got {len(bad)}$"
    with pytest.raises(ValueError, match=message):
        build(bad)
    build(_GOOD3)  # the same call with three components constructs


@pytest.mark.parametrize(
    "table, tag, obj, expected",
    [
        (_PATHS_1D, "constant", {"h_m": 1e-6}, Constant1D(h=1e-6)),
        (_PATHS_1D, "linear", {"h_m": 1e-6, "v_m_per_s": 2.0, "v_parallel_m_per_s": 3.0},
         Linear1D(h=1e-6, v=2.0, v_parallel=3.0)),
        (_PATHS_1D, "harmonic",
         {"h_m": 1e-6, "amplitude_m": 1e-7, "omega_cm_rad_per_s": 1e9, "phase0_rad": 0.5},
         Harmonic1D(h=1e-6, amplitude=1e-7, omega_cm=1e9, phase0=0.5)),
        (_PATHS_1D, "sampled", {"points_t_s_z_m": [[0.0, 1e-6], [1e-9, 2e-6]]},
         SampledPolyline1D(times=(0.0, 1e-9), values=(1e-6, 2e-6))),
        (_PATHS_3D, "straight_line", {"r0_m": [1e-7, 0, 0], "v_m_per_s": [0, 300, 0]},
         StraightLine3D(r0=(1e-7, 0.0, 0.0), v=(0.0, 300.0, 0.0))),
        (_PATHS_3D, "sampled", {"points_t_s_r_m": [[0.0, [1e-7, 0, 0]], [1e-9, [0, 1e-7, 0]]]},
         SampledPolyline3D(times=(0.0, 1e-9), points=((1e-7, 0.0, 0.0), (0.0, 1e-7, 0.0)))),
    ],
)
def test_read_object_builds_every_path_kind(table, tag, obj, expected):
    cls, fields = table[tag]
    assert read_object({"kind": tag, **obj}, fields, "<test>", cls) == expected


@pytest.mark.parametrize("name", SCENARIOS)
def test_read_object_builds_every_scenario(name):
    sc = _scenario(name)
    assert type(sc) is Scenario
    assert sc.replace() == sc
