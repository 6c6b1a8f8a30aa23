"""Property test: every value class that holds floats keeps the field contract.

Each case builds one public value class from typical numbers, some of them
replaced by generated floats (NaN, +-inf, 1e308, subnormals, signed zeros,
any float). A build from a non-finite number must raise ``ValueError``. A
build from finite numbers either raises ``ValueError`` (or a documented
:class:`CasqError`, such as a mirror scenario's guard) or gives an object
that a scenario run turns into a finite, converged report or a
:class:`CasqError`. In-process, derandomized.

The plain tests below pin each input that, before the one field checker,
constructed and then reported a non-finite number as converged or turned a
guard off.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casq.dce import OscillationParams, dce_rate_numeric
from casq.errors import CasqError
from casq.mirror_phases import MirrorScenario, quasi_static_phase
from casq.quadrature import QuadratureSpec
from casq.sagnac import SpinningParticle, sagnac_phase_straightline
from casq.scenarios import Scenario, run_scenario
from casq.species import AtomSpecies, Transition
from casq.trajectories import (
    Constant1D,
    Harmonic1D,
    Linear1D,
    SampledPolyline1D,
    SampledPolyline3D,
    StraightLine3D,
    TimeWindow,
)

TWO_LEVEL = AtomSpecies("two-level", (Transition(2.0e15, 1.0e-58),))
PARTICLE = SpinningParticle(alpha0=1.0e-32, omega_s=8.0e15, omega=(0.0, 0.0, 1.0e5))
WINDOW = TimeWindow(0.0, 1e-9)
SPEC = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-300, max_subdivisions=200)


def quasi_static(path, window=WINDOW, **fields):
    return Scenario("QuasiStatic", TWO_LEVEL, window=window, paths=(path,), quadrature=SPEC,
                    **fields)


def sagnac(traj, window=TimeWindow.all_time(), particle=PARTICLE, species=TWO_LEVEL):
    return Scenario("Sagnac", species, window=window, traj3d=traj, particle=particle,
                    quadrature=SPEC)


#: name -> (typical numbers, build(*numbers), the scenario that computes with it)
CASES = {
    "Transition": (
        (2.0e15, 1.0e-58), Transition,
        lambda t: Scenario("SagnacStraightLine", AtomSpecies("fuzz", (t,)), particle=PARTICLE,
                           y_m=3e-7),
    ),
    "OscillationParams": (
        (1e-9, 1e9, 1e-40, 0.0, 0.0, 1.0),
        lambda r, w, a, x, y, z: OscillationParams(r, w, a, (x, y, z)),
        lambda o: Scenario("DceNumeric", TWO_LEVEL, oscillation=o, n_spectrum=3),
    ),
    "SpinningParticle": (
        (1e-32, 8e15, 0.0, 0.0, 1e5, 0.0, 0.0),
        lambda a, w, x, y, z, g, r: SpinningParticle(a, w, (x, y, z), g, r),
        lambda p: sagnac(StraightLine3D((0.0, 3e-7, 0.0), (300.0, 0.0, 0.0)), particle=p),
    ),
    "QuadratureSpec": (
        (1e-8, 1e-300, 200.0), QuadratureSpec,
        lambda s: quasi_static(Linear1D(1e-6, 1.0)).replace(quadrature=s),
    ),
    "TimeWindow": ((0.0, 1e-9), TimeWindow, lambda w: quasi_static(Constant1D(1e-6), w)),
    "MirrorScenario": (
        (1e-9,), lambda z: MirrorScenario(TWO_LEVEL, (Constant1D(1e-6),), WINDOW, z_min=z),
        lambda m: quasi_static(m.paths[0], z_min=m.z_min),
    ),
    "Constant1D": ((1e-6, 0.0), Constant1D, quasi_static),
    "Linear1D": ((1e-6, 1.0, 0.0), Linear1D, quasi_static),
    "Harmonic1D": ((1e-6, 1e-7, 1e9, 0.0, 0.0), Harmonic1D, quasi_static),
    "SampledPolyline1D": (
        (0.0, 1e-9, 1e-6, 2e-6, 0.0),
        lambda t0, t1, z0, z1, vp: SampledPolyline1D((t0, t1), (z0, z1), vp),
        lambda p: quasi_static(p, TimeWindow(*p.times)),
    ),
    "StraightLine3D": (
        (0.0, 3e-7, 0.0, 300.0, 0.0, 0.0),
        lambda x, y, z, vx, vy, vz: StraightLine3D((x, y, z), (vx, vy, vz)),
        sagnac,
    ),
    "SampledPolyline3D": (
        (0.0, 1e-9, -3e-7, 3e-7, 0.0, 3e-7, 3e-7, 0.0),
        lambda t0, t1, *r: SampledPolyline3D((t0, t1), (r[:3], r[3:])),
        lambda p: sagnac(p, TimeWindow(*p.times)),
    ),
}

#: A generated number: a special value or any float.
numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 0.0, -0.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_value_class_keeps_the_field_contract(name, data):
    typical, build, scenario = CASES[name]
    # None keeps the typical number, so most builds differ from it in a field or two
    drawn = data.draw(st.lists(st.one_of(st.none(), numbers), min_size=len(typical),
                               max_size=len(typical)))
    args = [t if x is None else x for t, x in zip(typical, drawn)]
    if not all(map(math.isfinite, args)):
        with pytest.raises(ValueError):
            build(*args)
        return
    try:
        obj = build(*args)
    except (ValueError, CasqError):
        return
    if name == "QuadratureSpec" and obj.max_subdivisions > SPEC.max_subdivisions:
        return  # a run's time grows with its budget; the build is what is tested
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            report = run_scenario(scenario(obj))
        except CasqError:
            return
    assert math.isfinite(report.result.value) and report.result.converged


# -- the inputs that used to construct ------------------------------------------

def test_infinite_omega_cm_never_reaches_a_rate():
    # dce_rate_numeric returned inf with converged=True
    with pytest.raises(ValueError, match="^OscillationParams: omega_cm must be finite, got inf$"):
        dce_rate_numeric(OscillationParams(1e-7, math.inf, 1e-40))


def test_nan_amplitude_never_reaches_a_rate():
    # dce_rate_numeric returned nan with converged=True
    with pytest.raises(ValueError, match="^OscillationParams: r_max must be finite, got nan$"):
        dce_rate_numeric(OscillationParams(math.nan, 1e9, 1e-40))


@pytest.mark.parametrize("field, changes", [
    ("alpha0", {"alpha0": math.inf}),
    ("gamma", {"gamma": math.nan}),
    ("omega", {"omega": (0.0, 0.0, math.nan)}),
])
def test_non_finite_particle_never_reaches_a_phase(field, changes):
    # sagnac_phase_straightline returned nan for each of these particles
    with pytest.raises(ValueError, match=f"^SpinningParticle: {field} must be finite, got "):
        sagnac_phase_straightline(TWO_LEVEL, PARTICLE.replace(**changes), 3e-7)


def test_nan_radius_is_refused():
    # the collision guard compared against nan, so it never tripped
    with pytest.raises(ValueError, match="^SpinningParticle: radius must be finite, got nan$"):
        PARTICLE.replace(radius=math.nan)


@pytest.mark.parametrize("changes", [
    {"rel_tol": math.nan}, {"rel_tol": math.inf}, {"max_subdivisions": math.inf},
])
def test_non_finite_quadrature_spec_is_refused(changes):
    (field, value), = changes.items()
    with pytest.raises(ValueError, match=f"^QuadratureSpec: {field} must be finite, got {value}$"):
        QuadratureSpec(**changes)


def test_nan_z_min_keeps_the_near_contact_guard():
    # with z_min = nan a path at 0.5 nm gave a quasi-static phase of 5681.6 rad
    with pytest.raises(ValueError, match="^MirrorScenario: z_min must be finite, got nan$"):
        quasi_static_phase(MirrorScenario(TWO_LEVEL, (Constant1D(5e-10),), WINDOW, z_min=math.nan))
    with pytest.raises(ValueError, match="^MirrorScenario: z_min must be >= 0, got -1e-09$"):
        MirrorScenario(TWO_LEVEL, (Constant1D(5e-10),), WINDOW, z_min=-1e-9)


def test_bounded_window_names_its_non_finite_end():
    with pytest.raises(ValueError, match="^TimeWindow: t_end must be finite, got inf$"):
        TimeWindow(0.0, math.inf)
    assert TimeWindow(improper=True).t_end == math.inf  # an improper window keeps its ends

