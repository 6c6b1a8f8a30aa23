"""casq: motion-induced vacuum observables by adaptive quadrature.

Photon-pair emission rates for an oscillating ground-state atom,
quasi-static and motional van der Waals phases for interferometer paths
near a perfect mirror, the nonlocal two-path phase, and rotation-induced
(quantum Sagnac) phases around a spinning particle, each cross-checked
against its closed form by an independent deterministic quadrature engine.
"""

__version__ = "0.1.0"

from .constants import C_LIGHT, EPSILON_0, FOUR_PI_EPS0, HBAR, constants_hash
from .dce import (
    CLOSED_FORM_COEFFICIENT,
    OscillationParams,
    dce_rate_closed,
    dce_rate_numeric,
    pair_emission_amplitude,
)
from .mirror_phases import (
    MirrorScenario,
    coarse_grained_potential,
    motional_phase_mirror,
    nonlocal_phase,
    quasi_static_phase,
    total_phase_difference,
    vdw_potential,
)
from .quadrature import (
    DEFAULT_SPEC,
    IntegralResult,
    QuadratureSpec,
    integrate_adaptive,
    integrate_improper,
    integrate_iterated,
    line_integral,
)
from .sagnac import (
    SpinningParticle,
    alpha_s,
    ell_omega,
    re_alpha_second,
    sagnac_phase,
    sagnac_phase_straightline,
    sagnac_total_symmetric,
)
from .species import (
    AtomSpecies,
    Transition,
    alpha_of_omega,
    alpha_static,
    d2_for_static_polarizability,
    equivalent_radius,
    load_species_db,
    mean_square_dipole,
    two_level_transition,
)
from .trajectories import (
    Constant1D,
    Harmonic1D,
    Linear1D,
    SampledPolyline1D,
    SampledPolyline3D,
    StraightLine3D,
    TimeWindow,
    light_delay,
    reparametrize,
    reparametrize_window,
    reverse,
)
