"""The public names of the ``casq`` package, served lazily from its submodules."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import casq
from casq.constants import CONSTANTS_HASH, constants_hash

#: Every name the package exported when its ``__init__`` imported each
#: submodule eagerly, by the submodule that defines it.
EXPORTS = {
    "constants": ("C_LIGHT", "EPSILON_0", "FOUR_PI_EPS0", "HBAR", "constants_hash"),
    "dce": ("CLOSED_FORM_COEFFICIENT", "OscillationParams", "dce_rate_closed", "dce_rate_numeric",
            "pair_emission_amplitude"),
    "mirror_phases": ("MirrorScenario", "coarse_grained_potential", "motional_phase_mirror",
                      "nonlocal_phase", "quasi_static_phase", "total_phase_difference",
                      "vdw_potential"),
    "quadrature": ("DEFAULT_SPEC", "IntegralResult", "QuadratureSpec", "integrate_adaptive",
                   "integrate_improper", "integrate_iterated", "line_integral"),
    "sagnac": ("SpinningParticle", "alpha_s", "ell_omega", "re_alpha_second", "sagnac_phase",
               "sagnac_phase_straightline", "sagnac_total_symmetric"),
    "species": ("AtomSpecies", "Transition", "alpha_of_omega", "alpha_static",
                "d2_for_static_polarizability", "equivalent_radius", "load_species_db",
                "mean_square_dipole", "two_level_transition"),
    "trajectories": ("Constant1D", "Harmonic1D", "Linear1D", "SampledPolyline1D",
                     "SampledPolyline3D", "StraightLine3D", "TimeWindow", "light_delay",
                     "reparametrize", "reparametrize_window", "reverse"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_the_submodule_object(module, name):
    assert getattr(casq, name) is getattr(import_module(f"casq.{module}"), name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from casq import *", namespace)
    names = {name for _, name in NAMES}
    assert names <= set(namespace)
    assert names <= set(casq.__all__)
    assert set(casq.__all__) <= set(dir(casq))
    assert casq.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        casq.no_such_name  # noqa: B018


def test_import_casq_loads_no_submodule():
    code = "import sys, casq; print(sorted(m for m in sys.modules if m.startswith('casq.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_quadrature_imports_no_typing():
    # without site's start-up imports, casq's one engine module loads no typing
    code = "import sys, casq.quadrature; print('typing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(casq.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_constants_hash_matches_the_stamped_one():
    # reports stamp CONSTANTS_HASH; a change to the constants table must update it
    assert constants_hash() == CONSTANTS_HASH
