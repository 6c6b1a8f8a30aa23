"""casq: motion-induced vacuum observables by adaptive quadrature.

Photon-pair emission rates for an oscillating ground-state atom,
quasi-static and motional van der Waals phases for interferometer paths
near a perfect mirror, the nonlocal two-path phase, and rotation-induced
(quantum Sagnac) phases around a spinning particle, each cross-checked
against its closed form by an independent deterministic quadrature engine.

The public names below are served lazily (PEP 562): ``casq.X`` imports the
submodule that defines ``X`` on first use, so a process imports only the
modules its command runs.
"""

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("C_LIGHT", "EPSILON_0", "FOUR_PI_EPS0", "HBAR", "constants_hash"),
        "constants",
    ),
    **dict.fromkeys(
        ("CLOSED_FORM_COEFFICIENT", "OscillationParams", "dce_rate_closed", "dce_rate_numeric",
         "pair_emission_amplitude"),
        "dce",
    ),
    **dict.fromkeys(
        ("MirrorScenario", "coarse_grained_potential", "motional_phase_mirror", "nonlocal_phase",
         "quasi_static_phase", "total_phase_difference", "vdw_potential"),
        "mirror_phases",
    ),
    **dict.fromkeys(("DEFAULT_SPEC", "IntegralResult", "QuadratureSpec"), "value"),
    **dict.fromkeys(
        ("integrate_adaptive", "integrate_improper", "integrate_iterated", "line_integral"),
        "quadrature",
    ),
    **dict.fromkeys(
        ("SpinningParticle", "alpha_s", "ell_omega", "re_alpha_second", "sagnac_phase",
         "sagnac_phase_straightline", "sagnac_total_symmetric"),
        "sagnac",
    ),
    **dict.fromkeys(
        ("AtomSpecies", "Transition", "alpha_of_omega", "alpha_static",
         "d2_for_static_polarizability", "equivalent_radius", "load_species_db",
         "mean_square_dipole", "two_level_transition"),
        "species",
    ),
    **dict.fromkeys(
        ("Constant1D", "Harmonic1D", "Linear1D", "SampledPolyline1D", "SampledPolyline3D",
         "StraightLine3D", "TimeWindow", "light_delay", "reparametrize", "reparametrize_window",
         "reverse"),
        "trajectories",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'casq' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
