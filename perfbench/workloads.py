"""Seeded scenario generation for the three benchmark workloads.

``build(name, seed, workdir)`` writes a species database and the scenario
files of one workload into ``workdir`` and returns a :class:`Workload`: the
``casq`` command lines of one round, in order, and the drawn parameters the
output checks need. The same seed always gives the same files. Every draw
stays inside ranges where each integral converges and no warning is raised.
The amount of work per round does not depend on the seed (row counts,
period counts and tolerances are fixed); the seed moves only physical
scales, so that timings from different seeds are comparable.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("dce_sweep", "mirror_long", "sagnac_sweep")

#: Species name used in every generated database and scenario.
SPECIES = "bench-atom"

# dce_sweep: bundled DceNumeric settings, two r_max rows (one shared
# dimensionless integral) and two direction rows (none shared). Two of each
# keep a round near 4 s, so a run takes its median over eight or more rounds.
DCE_QUADRATURE = {"rel_tol": 1.0e-5, "max_subdivisions": 200}
DCE_N_SPECTRUM = 9
DCE_RMAX_ROWS = 2
DCE_DIRECTION_ROWS = 2

# mirror_long: (a) two harmonic quasi-static phases over whole periods at a
# tight tolerance, as (periods, amplitude / height); (b) the total two-path
# phase of a harmonic and a constant path.
HARMONIC_CASES = ((150, 0.6), (200, 0.5))
HARMONIC_REL_TOL = 1.0e-12
TOTAL_PERIODS = 60
TOTAL_QUADRATURE = {"rel_tol": 1.0e-8, "abs_tol": 1.0e-18}

# sagnac_sweep: log-spaced impact parameters inside the near-field regime.
SAGNAC_ROWS = 1500
SAGNAC_JOBS = 2
#: Largest omega_eg * y / c in the sweep; the program warns above 0.1.
SAGNAC_NEAR_FIELD_MAX = 0.05


@dataclass
class Call:
    """One ``casq`` process: its arguments after ``casq --species-db DB``."""

    args: list[str]
    out: str
    ops: int


@dataclass
class Workload:
    name: str
    seed: int
    workdir: str
    species_db: str
    calls: list[Call]
    params: dict = field(default_factory=dict)

    @property
    def ops_per_round(self) -> int:
        return sum(c.ops for c in self.calls)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _species_entry(transitions) -> dict:
    return {
        "name": SPECIES,
        "transitions": [
            {"omega_eg_rad_per_s": w, "d2_C2m2": d2} for w, d2 in transitions
        ],
    }


def _two_level(rng: random.Random) -> list[tuple[float, float]]:
    return [(rng.uniform(1.0e15, 4.0e15), rng.uniform(5.0e-59, 2.0e-58))]


def _build_dce(rng: random.Random, wd: str, db: str) -> tuple[list[Call], dict]:
    transitions = _two_level(rng)
    _write_json(db, {"species": [_species_entry(transitions)]})
    r_base = rng.uniform(5.0e-8, 2.0e-7)
    omega_cm = rng.uniform(1.0e5, 1.0e7)
    direction = [
        rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0) for _ in range(3)
    ]
    # r_max values at least 20% apart, so the log-log slope is well defined
    r_values = [r_base * 1.25**i * rng.uniform(0.97, 1.03) for i in range(DCE_RMAX_ROWS)]
    # direction rows: x components away from the base direction's, so no
    # direction row repeats the r_max rows' dimensionless integral
    d_values = []
    while len(d_values) < DCE_DIRECTION_ROWS:
        v = rng.uniform(-1.0, 1.0)
        if abs(v - direction[0]) > 0.1 and all(abs(v - u) > 0.1 for u in d_values):
            d_values.append(v)
    scenario = {
        "kind": "DceNumeric",
        "species": SPECIES,
        "oscillation": {
            "r_max_m": r_base,
            "omega_cm_rad_per_s": omega_cm,
            "direction": direction,
        },
        "n_spectrum": DCE_N_SPECTRUM,
        "quadrature": dict(DCE_QUADRATURE),
    }
    path = os.path.join(wd, "dce.json")
    _write_json(path, scenario)
    calls = [
        Call(
            ["sweep", path, "--param", "oscillation.r_max_m",
             "--values=" + ",".join(_fmt(v) for v in r_values),
             "--jobs", "1", "--format", "json", "--out", os.path.join(wd, "dce_rmax.out.json")],
            os.path.join(wd, "dce_rmax.out.json"),
            DCE_RMAX_ROWS,
        ),
        Call(
            ["sweep", path, "--param", "oscillation.direction.0",
             # the = form lets the list start with a minus sign
             "--values=" + ",".join(_fmt(v) for v in d_values),
             "--jobs", "1", "--format", "json", "--out", os.path.join(wd, "dce_dir.out.json")],
            os.path.join(wd, "dce_dir.out.json"),
            DCE_DIRECTION_ROWS,
        ),
    ]
    params = {
        "transitions": transitions,
        "omega_cm": omega_cm,
        "r_values": r_values,
        "d_values": d_values,
        "base_r_max": r_base,
        "n_spectrum": DCE_N_SPECTRUM,
    }
    return calls, params


def _build_mirror(rng: random.Random, wd: str, db: str) -> tuple[list[Call], dict]:
    transitions = _two_level(rng)
    _write_json(db, {"species": [_species_entry(transitions)]})

    # (a) harmonic quasi-static phases: the seed scales length and time
    # only, so the subdivision pattern is the same for every seed
    scenarios, harmonic = [], []
    for periods, ratio in HARMONIC_CASES:
        h = 1.0e-6 * rng.uniform(0.8, 1.25)
        omega = 2.0 * math.pi * 1.0e9 * rng.uniform(0.8, 1.25)
        case = {"h": h, "amplitude": ratio * h, "omega": omega, "periods": periods}
        harmonic.append(case)
        scenarios.append({
            "kind": "QuasiStatic",
            "species": SPECIES,
            "path": {"kind": "harmonic", "h_m": h, "amplitude_m": case["amplitude"],
                     "omega_cm_rad_per_s": omega},
            "window": {"t_start_s": 0.0, "t_end_s": periods * 2.0 * math.pi / omega},
            "quadrature": {"rel_tol": HARMONIC_REL_TOL},
        })

    # (b) total phase of a harmonic and a constant path over whole periods
    h1 = 1.0e-6 * rng.uniform(0.7, 0.9)
    a1 = h1 / 8.0
    omega1 = 2.0 * math.pi * 1.0e9 * rng.uniform(0.8, 1.25)
    h2 = 1.0e-6 * rng.uniform(1.5, 2.5)
    t_total = TOTAL_PERIODS * 2.0 * math.pi / omega1
    total = {
        "kind": "TotalMirror",
        "species": SPECIES,
        "paths": [
            {"kind": "harmonic", "h_m": h1, "amplitude_m": a1, "omega_cm_rad_per_s": omega1},
            {"kind": "constant", "h_m": h2},
        ],
        "window": {"t_start_s": 0.0, "t_end_s": t_total},
        "quadrature": dict(TOTAL_QUADRATURE),
    }

    scenarios.append(total)
    names = [f"harmonic{i}" for i in range(len(HARMONIC_CASES))] + ["total"]
    calls = []
    for name, scenario in zip(names, scenarios):
        path = os.path.join(wd, f"mirror_{name}.json")
        _write_json(path, scenario)
        out = os.path.join(wd, f"mirror_{name}.out.json")
        calls.append(Call(["run", path, "--format", "json", "--out", out], out, 1))
    params = {
        "transitions": transitions,
        "harmonic": harmonic,
        "total": {"h1": h1, "a1": a1, "omega1": omega1, "h2": h2,
                  "periods": TOTAL_PERIODS, "t_end": t_total},
    }
    return calls, params


def _build_sagnac(rng: random.Random, wd: str, db: str) -> tuple[list[Call], dict]:
    # species and particle drawn as in acceptance criterion 1
    n_tr = rng.randint(1, 3)
    freqs = sorted(rng.uniform(1.0e14, 9.0e14) for _ in range(n_tr))
    transitions = [(w, rng.uniform(1.0e-59, 1.0e-58)) for w in freqs]
    _write_json(db, {"species": [_species_entry(transitions)]})
    particle = {
        "alpha0_F_m2": rng.uniform(1.0e-34, 1.0e-32),
        "omega_s_rad_per_s": rng.uniform(3.0e15, 2.0e16),
        "omega_rad_per_s": [0.0, 0.0, rng.uniform(1.0e2, 1.0e6)],
    }
    speed = rng.uniform(10.0, 1.0e4)
    c_light = 299792458.0
    y_hi = SAGNAC_NEAR_FIELD_MAX * c_light / freqs[0] * rng.uniform(0.8, 1.0)
    y_lo = y_hi * rng.uniform(0.01, 0.05)
    scenario = {
        "kind": "Sagnac",
        "species": SPECIES,
        "particle": particle,
        "trajectory": {"kind": "straight_line", "r0_m": [0.0, y_hi, 0.0],
                       "v_m_per_s": [speed, 0.0, 0.0]},
        "window": {"improper": True},
    }
    path = os.path.join(wd, "sagnac.json")
    _write_json(path, scenario)
    out = os.path.join(wd, "sagnac.out.json")
    calls = [
        Call(
            ["sweep", path, "--param", "trajectory.r0_m.1",
             "--from", _fmt(y_lo), "--to", _fmt(y_hi), "--points", str(SAGNAC_ROWS), "--log",
             "--jobs", str(SAGNAC_JOBS), "--format", "json", "--out", out],
            out,
            SAGNAC_ROWS,
        )
    ]
    params = {
        "transitions": transitions,
        "particle": particle,
        "y_lo": y_lo,
        "y_hi": y_hi,
        "rows": SAGNAC_ROWS,
    }
    return calls, params


_GENERATORS = {
    "dce_sweep": _build_dce,
    "mirror_long": _build_mirror,
    "sagnac_sweep": _build_sagnac,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    db = os.path.join(workdir, "species.json")
    calls, params = _GENERATORS[name](rng, workdir, db)
    return Workload(name, seed, workdir, db, calls, params)
