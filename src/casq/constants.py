"""Physical constants used throughout the toolkit (SI, CODATA 2018).

Every compute module imports constants from here so that reported values,
reference tables and regression baselines all share a single source of
truth. ``constants_hash()`` fingerprints the table; every report carries
the fingerprint, ``CONSTANTS_HASH``, so results can be traced to the
constant set that produced them.
"""

from __future__ import annotations

import math

#: Speed of light in vacuum (m/s, exact).
C_LIGHT = 299792458.0

#: Planck constant (J·s, exact by SI definition).
H_PLANCK = 6.62607015e-34

#: Reduced Planck constant, h / 2π (J·s).
HBAR = H_PLANCK / (2.0 * math.pi)

#: Vacuum permittivity (F/m).
EPSILON_0 = 8.8541878128e-12

#: 4π ε0, the Gaussian-to-SI conversion factor that appears in all
#: polarizability and dipole formulas (F/m).
FOUR_PI_EPS0 = 4.0 * math.pi * EPSILON_0

#: Near-contact cutoff of the mirror phases (m). The nonretarded z^-3 law is
#: unphysical at contact and the quadratures diverge there, so paths dipping
#: below this distance trip :class:`casq.errors.CollisionGuard` unless the
#: scenario overrides the cutoff. A numerical guard, not a physical constant,
#: so it stays out of ``CONSTANTS_TABLE`` and the hash; it sits here so that
#: a scenario can default to it without loading :mod:`casq.mirror_phases`.
Z_MIN_DEFAULT = 1e-9

CONSTANTS_TABLE = {
    "c_m_per_s": C_LIGHT,
    "h_J_s": H_PLANCK,
    "hbar_J_s": HBAR,
    "epsilon0_F_per_m": EPSILON_0,
}


#: ``constants_hash()`` of the table above, written out so that no casq
#: process loads ``hashlib`` (OpenSSL) to stamp a report; a test checks that
#: the two agree.
CONSTANTS_HASH = "a9b05d6eac46f813"


def constants_hash() -> str:
    """SHA-256 fingerprint of the constants table (first 16 hex digits)."""
    import hashlib

    payload = "\n".join(f"{k}={v:.17g}" for k, v in sorted(CONSTANTS_TABLE.items()))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
