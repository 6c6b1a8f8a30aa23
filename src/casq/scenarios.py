"""Scenario files: parsing, execution, sweeps, and emission.

A scenario is a JSON object with unit-suffixed keys ("y_m",
"omega_cm_rad_per_s", ...) naming one computation kind; the suffix
convention exists because silent unit errors are the dominant failure mode
in mixed SI computations, so a key with the right stem but the wrong
suffix is rejected with :class:`UnitMismatch` rather than guessed at.

Reports are deterministic: floats are emitted with 17 significant digits,
keys are sorted, and wall time is kept off the serialized form so repeated
runs of one scenario file are byte-identical.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time
from dataclasses import dataclass
from multiprocessing import get_context

from . import __version__
from .constants import constants_hash
from .dce import (
    CLOSED_FORM_COEFFICIENT,
    OscillationParams,
    dce_rate_closed,
    dce_rate_numeric,
)
from .errors import (
    BadParameterPath,
    CasqError,
    ParseError,
    UnitMismatch,
    UnknownSpecies,
)
from .mirror_phases import (
    MirrorScenario,
    Z_MIN_DEFAULT,
    motional_phase_mirror,
    nonlocal_phase,
    quasi_static_phase,
    total_phase_difference,
)
from .quadrature import QuadratureSpec
from .sagnac import (
    SpinningParticle,
    ell_omega,
    sagnac_phase,
    sagnac_phase_straightline,
    sagnac_total_symmetric,
)
from .species import AtomSpecies, alpha_static, resolve_species_db
from .trajectories import (
    Constant1D,
    Harmonic1D,
    Linear1D,
    SampledPolyline1D,
    SampledPolyline3D,
    StraightLine3D,
    TimeWindow,
)

__all__ = [
    "Scenario",
    "Report",
    "SweepRow",
    "SCENARIO_KINDS",
    "load_scenario_data",
    "parse_scenario",
    "parse_scenario_dict",
    "scenario_to_dict",
    "run_scenario",
    "sweep",
    "emit",
    "format_float",
    "to_canonical_json",
]

SCENARIO_KINDS = (
    "QuasiStatic",
    "MotionalMirror",
    "Nonlocal",
    "TotalMirror",
    "Sagnac",
    "SagnacStraightLine",
    "SagnacSymmetric",
    "DceClosed",
    "DceNumeric",
)


# -- schema helpers ------------------------------------------------------------

def _stem(key: str) -> str:
    return key.split("_", 1)[0]


def _check_keys(obj: dict, required: set[str], optional: set[str], ctx: str) -> None:
    allowed = required | optional
    for key in obj:
        if key in allowed:
            continue
        candidates = sorted(k for k in allowed if _stem(k) == _stem(key))
        if candidates:
            raise UnitMismatch(
                f"{ctx}.{key}: unexpected key; expected one of {candidates} "
                "(unit suffixes are part of the schema)"
            )
        raise ParseError(f"{ctx}.{key}: unexpected key")
    for key in required:
        if key not in obj:
            raise ParseError(f"{ctx}.{key}: missing required key")


def _finite(v, where: str) -> float:
    """A JSON number as a finite float; Python's json admits NaN and Infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where}: expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # exact for ints too; false for NaN
        raise ParseError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _as_vector3(v, where: str):
    if not isinstance(v, list) or len(v) != 3:
        raise ParseError(f"{where}: expected a list of three numbers, got {v!r}")
    return tuple(_finite(x, where) for x in v)


def _number(obj: dict, key: str, ctx: str, default=None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise ParseError(f"{ctx}.{key}: missing required key")
    return _finite(obj[key], f"{ctx}.{key}")


def _vector3(obj: dict, key: str, ctx: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise ParseError(f"{ctx}.{key}: missing required key")
    return _as_vector3(obj[key], f"{ctx}.{key}")


def _parse_window(obj, ctx: str) -> TimeWindow:
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx}: expected an object")
    if obj.get("improper"):
        _check_keys(obj, set(), {"improper"}, ctx)
        return TimeWindow.all_time()
    _check_keys(obj, {"t_start_s", "t_end_s"}, {"improper"}, ctx)
    try:
        return TimeWindow(_number(obj, "t_start_s", ctx), _number(obj, "t_end_s", ctx))
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc


def _parse_traj1d(obj, ctx: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx}: expected an object")
    kind = obj.get("kind")
    meta = {"v_parallel_m_per_s"}
    try:
        if kind == "constant":
            _check_keys(obj, {"kind", "h_m"}, meta, ctx)
            return Constant1D(_number(obj, "h_m", ctx), v_parallel=obj.get("v_parallel_m_per_s"))
        if kind == "linear":
            _check_keys(obj, {"kind", "h_m", "v_m_per_s"}, meta, ctx)
            return Linear1D(
                _number(obj, "h_m", ctx),
                _number(obj, "v_m_per_s", ctx),
                v_parallel=obj.get("v_parallel_m_per_s"),
            )
        if kind == "harmonic":
            _check_keys(
                obj,
                {"kind", "h_m", "amplitude_m", "omega_cm_rad_per_s"},
                meta | {"phase0_rad"},
                ctx,
            )
            return Harmonic1D(
                _number(obj, "h_m", ctx),
                _number(obj, "amplitude_m", ctx),
                _number(obj, "omega_cm_rad_per_s", ctx),
                _number(obj, "phase0_rad", ctx, default=0.0),
                v_parallel=obj.get("v_parallel_m_per_s"),
            )
        if kind == "sampled":
            _check_keys(obj, {"kind", "points_t_s_z_m"}, meta, ctx)
            pts = obj["points_t_s_z_m"]
            if not isinstance(pts, list) or any(
                not isinstance(p, list) or len(p) != 2 for p in pts
            ):
                raise ParseError(f"{ctx}.points_t_s_z_m: expected a list of [t, z] pairs")
            where = f"{ctx}.points_t_s_z_m"
            return SampledPolyline1D(
                tuple(_finite(p[0], where) for p in pts),
                tuple(_finite(p[1], where) for p in pts),
                v_parallel=obj.get("v_parallel_m_per_s"),
            )
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc
    raise ParseError(
        f"{ctx}.kind: expected one of constant/linear/harmonic/sampled, got {kind!r}"
    )


def _parse_traj3d(obj, ctx: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx}: expected an object")
    kind = obj.get("kind")
    try:
        if kind == "straight_line":
            _check_keys(obj, {"kind", "r0_m", "v_m_per_s"}, set(), ctx)
            return StraightLine3D(_vector3(obj, "r0_m", ctx), _vector3(obj, "v_m_per_s", ctx))
        if kind == "sampled":
            _check_keys(obj, {"kind", "points_t_s_r_m"}, set(), ctx)
            pts = obj["points_t_s_r_m"]
            if not isinstance(pts, list) or any(
                not isinstance(p, list) or len(p) != 2 for p in pts
            ):
                raise ParseError(f"{ctx}.points_t_s_r_m: expected a list of [t, [x,y,z]] pairs")
            where = f"{ctx}.points_t_s_r_m"
            return SampledPolyline3D(
                tuple(_finite(p[0], where) for p in pts),
                tuple(_as_vector3(p[1], where) for p in pts),
            )
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc
    raise ParseError(f"{ctx}.kind: expected straight_line or sampled, got {kind!r}")


def _parse_particle(obj, ctx: str) -> SpinningParticle:
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx}: expected an object")
    _check_keys(
        obj,
        {"alpha0_F_m2", "omega_s_rad_per_s", "omega_rad_per_s"},
        {"gamma_rad_per_s", "radius_m"},
        ctx,
    )
    try:
        return SpinningParticle(
            alpha0=_number(obj, "alpha0_F_m2", ctx),
            omega_s=_number(obj, "omega_s_rad_per_s", ctx),
            omega=_vector3(obj, "omega_rad_per_s", ctx),
            gamma=_number(obj, "gamma_rad_per_s", ctx, default=0.0),
            radius=_number(obj, "radius_m", ctx, default=0.0),
        )
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc


def _parse_quadrature(obj, ctx: str) -> QuadratureSpec | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx}: expected an object")
    _check_keys(obj, set(), {"rel_tol", "abs_tol", "max_subdivisions"}, ctx)
    try:
        return QuadratureSpec(
            rel_tol=_number(obj, "rel_tol", ctx, default=1e-10),
            abs_tol=_number(obj, "abs_tol", ctx, default=1e-300),
            max_subdivisions=int(_number(obj, "max_subdivisions", ctx, default=2000)),
        )
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated scenario bound to its species object."""

    kind: str
    species: AtomSpecies
    window: TimeWindow | None = None
    paths: tuple | None = None
    traj3d: object | None = None
    particle: SpinningParticle | None = None
    y_m: float | None = None
    y1_m: float | None = None
    oscillation: OscillationParams | None = None
    n_spectrum: int = 33
    z_min: float = Z_MIN_DEFAULT
    quadrature: QuadratureSpec | None = None


def parse_scenario_dict(data, species_db: list[AtomSpecies], source: str = "<scenario>") -> Scenario:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    kind = data.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ParseError(f"{source}.kind: expected one of {list(SCENARIO_KINDS)}, got {kind!r}")
    name = data.get("species")
    if not isinstance(name, str) or not name:
        raise ParseError(f"{source}.species: missing or not a string")
    by_name = {s.name: s for s in species_db}
    if name not in by_name:
        raise UnknownSpecies(
            f"{source}.species: {name!r} not in database (known: {sorted(by_name)})"
        )
    species = by_name[name]

    base_opt = {"kind", "species", "quadrature"}
    quad = _parse_quadrature(data.get("quadrature"), f"{source}.quadrature")

    if kind in ("QuasiStatic", "MotionalMirror"):
        _check_keys(data, {"path", "window"}, base_opt | {"z_min_m"}, source)
        return Scenario(
            kind=kind,
            species=species,
            paths=(_parse_traj1d(data["path"], f"{source}.path"),),
            window=_parse_window(data["window"], f"{source}.window"),
            z_min=_number(data, "z_min_m", source, default=Z_MIN_DEFAULT),
            quadrature=quad,
        )
    if kind in ("Nonlocal", "TotalMirror"):
        _check_keys(data, {"paths", "window"}, base_opt | {"z_min_m"}, source)
        raw = data["paths"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ParseError(f"{source}.paths: expected a list of exactly two paths")
        return Scenario(
            kind=kind,
            species=species,
            paths=tuple(
                _parse_traj1d(p, f"{source}.paths[{i}]") for i, p in enumerate(raw)
            ),
            window=_parse_window(data["window"], f"{source}.window"),
            z_min=_number(data, "z_min_m", source, default=Z_MIN_DEFAULT),
            quadrature=quad,
        )
    if kind == "Sagnac":
        _check_keys(data, {"particle", "trajectory", "window"}, base_opt, source)
        return Scenario(
            kind=kind,
            species=species,
            particle=_parse_particle(data["particle"], f"{source}.particle"),
            traj3d=_parse_traj3d(data["trajectory"], f"{source}.trajectory"),
            window=_parse_window(data["window"], f"{source}.window"),
            quadrature=quad,
        )
    if kind == "SagnacStraightLine":
        _check_keys(data, {"particle", "y_m"}, base_opt, source)
        return Scenario(
            kind=kind,
            species=species,
            particle=_parse_particle(data["particle"], f"{source}.particle"),
            y_m=_number(data, "y_m", source),
            quadrature=quad,
        )
    if kind == "SagnacSymmetric":
        _check_keys(data, {"particle", "y1_m"}, base_opt, source)
        return Scenario(
            kind=kind,
            species=species,
            particle=_parse_particle(data["particle"], f"{source}.particle"),
            y1_m=_number(data, "y1_m", source),
            quadrature=quad,
        )
    # DceClosed / DceNumeric
    opt = base_opt | ({"n_spectrum"} if kind == "DceNumeric" else set())
    _check_keys(data, {"oscillation"}, opt, source)
    osc = data["oscillation"]
    if not isinstance(osc, dict):
        raise ParseError(f"{source}.oscillation: expected an object")
    _check_keys(
        osc, {"r_max_m", "omega_cm_rad_per_s"}, {"direction"}, f"{source}.oscillation"
    )
    try:
        params = OscillationParams(
            r_max=_number(osc, "r_max_m", f"{source}.oscillation"),
            omega_cm=_number(osc, "omega_cm_rad_per_s", f"{source}.oscillation"),
            alpha0=alpha_static(species),
            direction=_vector3(osc, "direction", f"{source}.oscillation", default=(0.0, 0.0, 1.0)),
        )
    except ValueError as exc:
        raise ParseError(f"{source}.oscillation: {exc}") from exc
    n_spectrum = int(_number(data, "n_spectrum", source, default=33))
    if n_spectrum < 1:
        raise ParseError(f"{source}.n_spectrum: must be >= 1")
    return Scenario(
        kind=kind, species=species, oscillation=params, n_spectrum=n_spectrum, quadrature=quad
    )


def load_scenario_data(path: str):
    """Read a scenario file's JSON; syntax errors become :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def parse_scenario(path: str, species_db: list[AtomSpecies] | None = None) -> Scenario:
    """Parse and validate a scenario file against the species database."""
    if species_db is None:
        species_db = resolve_species_db()
    return parse_scenario_dict(load_scenario_data(path), species_db, source=path)


def _window_to_dict(w: TimeWindow) -> dict:
    if w.improper:
        return {"improper": True}
    return {"t_start_s": w.t_start, "t_end_s": w.t_end}


def _traj1d_to_dict(tr) -> dict:
    if isinstance(tr, Constant1D):
        d = {"kind": "constant", "h_m": tr.h}
    elif isinstance(tr, Linear1D):
        d = {"kind": "linear", "h_m": tr.h, "v_m_per_s": tr.v}
    elif isinstance(tr, Harmonic1D):
        d = {
            "kind": "harmonic",
            "h_m": tr.h,
            "amplitude_m": tr.amplitude,
            "omega_cm_rad_per_s": tr.omega_cm,
            "phase0_rad": tr.phase0,
        }
    elif isinstance(tr, SampledPolyline1D):
        d = {
            "kind": "sampled",
            "points_t_s_z_m": [[t, z] for t, z in zip(tr.times, tr.values)],
        }
    else:
        raise TypeError(f"not a 1D trajectory: {type(tr).__name__}")
    if tr.v_parallel is not None:
        d["v_parallel_m_per_s"] = tr.v_parallel
    return d


def _traj3d_to_dict(tr) -> dict:
    if isinstance(tr, StraightLine3D):
        return {"kind": "straight_line", "r0_m": list(tr.r0), "v_m_per_s": list(tr.v)}
    if isinstance(tr, SampledPolyline3D):
        return {
            "kind": "sampled",
            "points_t_s_r_m": [[t, list(p)] for t, p in zip(tr.times, tr.points)],
        }
    raise TypeError(f"not a 3D trajectory: {type(tr).__name__}")


def _particle_to_dict(p: SpinningParticle) -> dict:
    return {
        "alpha0_F_m2": p.alpha0,
        "omega_s_rad_per_s": p.omega_s,
        "omega_rad_per_s": list(p.omega),
        "gamma_rad_per_s": p.gamma,
        "radius_m": p.radius,
    }


def scenario_to_dict(sc: Scenario) -> dict:
    """Canonical dict form of a scenario, defaults materialized."""
    out: dict = {"kind": sc.kind, "species": sc.species.name}
    if sc.quadrature is not None:
        out["quadrature"] = {
            "rel_tol": sc.quadrature.rel_tol,
            "abs_tol": sc.quadrature.abs_tol,
            "max_subdivisions": sc.quadrature.max_subdivisions,
        }
    if sc.kind in ("QuasiStatic", "MotionalMirror"):
        out["path"] = _traj1d_to_dict(sc.paths[0])
        out["window"] = _window_to_dict(sc.window)
        out["z_min_m"] = sc.z_min
    elif sc.kind in ("Nonlocal", "TotalMirror"):
        out["paths"] = [_traj1d_to_dict(p) for p in sc.paths]
        out["window"] = _window_to_dict(sc.window)
        out["z_min_m"] = sc.z_min
    elif sc.kind == "Sagnac":
        out["particle"] = _particle_to_dict(sc.particle)
        out["trajectory"] = _traj3d_to_dict(sc.traj3d)
        out["window"] = _window_to_dict(sc.window)
    elif sc.kind == "SagnacStraightLine":
        out["particle"] = _particle_to_dict(sc.particle)
        out["y_m"] = sc.y_m
    elif sc.kind == "SagnacSymmetric":
        out["particle"] = _particle_to_dict(sc.particle)
        out["y1_m"] = sc.y1_m
    else:
        out["oscillation"] = {
            "r_max_m": sc.oscillation.r_max,
            "omega_cm_rad_per_s": sc.oscillation.omega_cm,
            "direction": list(sc.oscillation.direction),
        }
        if sc.kind == "DceNumeric":
            out["n_spectrum"] = sc.n_spectrum
    return out


# -- execution -----------------------------------------------------------------

@dataclass
class Report:
    """One scenario's outcome: a value traceable to one compute operation.

    ``wall_time_s`` is informational and deliberately excluded from
    serialized forms so identical runs emit identical bytes.
    """

    scenario_kind: str
    species_name: str
    operation: str
    value: float
    error_estimate: float
    converged: bool
    breakdown: dict
    series: dict | None = None
    toolkit_version: str = __version__
    constants_fingerprint: str = ""
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        d = {
            "scenario_kind": self.scenario_kind,
            "species": self.species_name,
            "value": self.value,
            "error_estimate": self.error_estimate,
            "converged": self.converged,
            "breakdown": dict(self.breakdown),
            "metadata": {
                "operation": self.operation,
                "toolkit_version": self.toolkit_version,
                "constants_hash": self.constants_fingerprint,
            },
        }
        if self.series is not None:
            d["series"] = self.series
        return d


def run_scenario(sc: Scenario) -> Report:
    """Execute a scenario; the report names the operation that produced it."""
    t0 = time.perf_counter()
    spec = sc.quadrature
    series = None
    if sc.kind in ("QuasiStatic", "MotionalMirror", "Nonlocal", "TotalMirror"):
        mirror = MirrorScenario(sc.species, sc.paths, sc.window, z_min=sc.z_min)
        if sc.kind == "QuasiStatic":
            op, res = "mirror_phases.quasi_static_phase", quasi_static_phase(mirror, 0, spec)
        elif sc.kind == "MotionalMirror":
            op, res = "mirror_phases.motional_phase_mirror", motional_phase_mirror(mirror, 0, spec)
        elif sc.kind == "Nonlocal":
            op, res = "mirror_phases.nonlocal_phase", nonlocal_phase(mirror, spec)
        else:
            op, res = "mirror_phases.total_phase_difference", total_phase_difference(mirror, spec)
        value, err, conv, breakdown = res.value, res.error_estimate, res.converged, res.breakdown
    elif sc.kind == "Sagnac":
        op = "sagnac.sagnac_phase"
        res = sagnac_phase(sc.species, sc.particle, sc.traj3d, sc.window, spec)
        value, err, conv, breakdown = res.value, res.error_estimate, res.converged, res.breakdown
    elif sc.kind == "SagnacStraightLine":
        op = "sagnac.sagnac_phase_straightline"
        value = sagnac_phase_straightline(sc.species, sc.particle, sc.y_m)
        err, conv = 0.0, True
        breakdown = {"ell_omega_m": ell_omega(sc.species, sc.particle)}
    elif sc.kind == "SagnacSymmetric":
        op = "sagnac.sagnac_total_symmetric"
        res = sagnac_total_symmetric(sc.species, sc.particle, sc.y1_m)
        value, err, conv, breakdown = res.value, res.error_estimate, res.converged, res.breakdown
    elif sc.kind == "DceClosed":
        op = "dce.dce_rate_closed"
        value = dce_rate_closed(sc.oscillation)
        err, conv = 0.0, True
        breakdown = {"coefficient": CLOSED_FORM_COEFFICIENT}
    else:  # DceNumeric
        op = "dce.dce_rate_numeric"
        res = dce_rate_numeric(sc.oscillation, spec, n_spectrum=sc.n_spectrum)
        closed = dce_rate_closed(sc.oscillation)
        value, err, conv = res.gamma_total, res.error_estimate, res.converged
        breakdown = {
            "coefficient": res.coefficient,
            "closed_form_coefficient": CLOSED_FORM_COEFFICIENT,
            "closed_form_rate_per_s": closed,
        }
        if closed > 0.0:
            breakdown["ratio_to_closed"] = res.gamma_total / closed
        series = {
            "omega_rad_per_s": list(res.spectrum_omega),
            "dgamma_domega": list(res.spectrum_density),
        }
    return Report(
        scenario_kind=sc.kind,
        species_name=sc.species.name,
        operation=op,
        value=value,
        error_estimate=err,
        converged=conv,
        breakdown=breakdown,
        series=series,
        constants_fingerprint=constants_hash(),
        wall_time_s=time.perf_counter() - t0,
    )


# -- sweeps --------------------------------------------------------------------

@dataclass
class SweepRow:
    param_name: str
    param_value: float
    report: Report | None
    error: str | None = None


def _set_path(data: dict, path: str, value: float, source: str) -> None:
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError) as exc:
                raise BadParameterPath(f"{source}: bad segment {part!r} in {path!r}") from exc
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise BadParameterPath(f"{source}: no key {part!r} while resolving {path!r}")
    leaf = parts[-1]
    if isinstance(node, list):
        try:
            idx = int(leaf)
            node[idx]
        except (ValueError, IndexError) as exc:
            raise BadParameterPath(f"{source}: bad index {leaf!r} in {path!r}") from exc
        node[idx] = value
        return
    if not isinstance(node, dict) or leaf not in node:
        raise BadParameterPath(f"{source}: no key {leaf!r} while resolving {path!r}")
    old = node[leaf]
    if isinstance(old, bool) or not isinstance(old, (int, float)):
        raise BadParameterPath(f"{source}: {path!r} is not a numeric scalar (got {old!r})")
    node[leaf] = value


def _sweep_one(args) -> tuple:
    index, scenario_data, param, value, db_path = args
    data = copy.deepcopy(scenario_data)
    try:
        _set_path(data, param, value, "<sweep>")
        sc = parse_scenario_dict(data, resolve_species_db(db_path), source="<sweep>")
        report = run_scenario(sc)
        return index, report, None
    except CasqError as exc:
        return index, None, f"{type(exc).__name__}: {exc}"


def sweep(
    scenario_data: dict,
    param: str,
    values: list[float],
    jobs: int = 1,
    species_db_path: str | None = None,
) -> list[SweepRow]:
    """Run one scenario for each parameter value; rows come back ordered by
    value regardless of execution order, and per-row failures are recorded
    in the row rather than aborting the sweep."""
    # fail fast on a path that resolves nowhere (per-value validation still
    # happens inside the workers)
    probe = copy.deepcopy(scenario_data)
    _set_path(probe, param, float(values[0]), "<sweep>")

    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    tasks = [
        (i, scenario_data, param, float(values[i]), species_db_path) for i in order
    ]
    if jobs <= 1:
        outcomes = [_sweep_one(t) for t in tasks]
    else:
        with get_context("spawn").Pool(processes=jobs) as pool:
            outcomes = pool.map(_sweep_one, tasks)
    by_index = {i: (rep, err) for i, rep, err in outcomes}
    rows = []
    for i in order:
        rep, err = by_index[i]
        rows.append(SweepRow(param, float(values[i]), rep, err))
    return rows


# -- emission ------------------------------------------------------------------

def format_float(x: float) -> str:
    """Floats rendered with 17 significant digits for reproducibility."""
    return f"{x:.17g}"


def _json_fragment(obj, out: list, indent: int | None) -> None:
    pad = "" if indent is None else "  " * indent
    nl = "" if indent is None else "\n"
    child = None if indent is None else indent + 1
    step = "" if indent is None else "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + nl)
        items = sorted(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(f"{pad}{step}{json.dumps(str(k))}: " if indent is not None
                       else f"{json.dumps(str(k))}:")
            _json_fragment(v, out, child)
            out.append(("," + nl) if i < len(items) - 1 else nl)
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[" + nl)
        for i, v in enumerate(obj):
            out.append(pad + step)
            _json_fragment(v, out, child)
            out.append(("," + nl) if i < len(obj) - 1 else nl)
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_canonical_json(obj, compact: bool = False) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    out: list[str] = []
    _json_fragment(obj, out, None if compact else 0)
    if not compact:
        out.append("\n")
    return "".join(out)


_CSV_HEADER = (
    "scenario_kind,species,param_name,param_value,value_rad_or_per_s,"
    "error_estimate,converged,breakdown_json\n"
)


def _csv_cell(text: str) -> str:
    if any(c in text for c in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_row(kind, species, pname, pvalue, value, err, conv, breakdown) -> str:
    cells = [
        kind,
        species,
        pname,
        "" if pvalue is None else format_float(pvalue),
        "" if value is None else format_float(value),
        "" if err is None else format_float(err),
        "" if conv is None else ("true" if conv else "false"),
        to_canonical_json(breakdown, compact=True),
    ]
    return ",".join(_csv_cell(c) for c in cells) + "\n"


def _to_csv(obj) -> str:
    lines = [_CSV_HEADER]
    if isinstance(obj, Report):
        lines.append(
            _csv_row(
                obj.scenario_kind, obj.species_name, "", None,
                obj.value, obj.error_estimate, obj.converged, obj.breakdown,
            )
        )
    else:
        for row in obj:
            if row.report is not None:
                r = row.report
                lines.append(
                    _csv_row(
                        r.scenario_kind, r.species_name, row.param_name, row.param_value,
                        r.value, r.error_estimate, r.converged, r.breakdown,
                    )
                )
            else:
                lines.append(
                    _csv_row(
                        "", "", row.param_name, row.param_value,
                        None, None, False, {"error": row.error},
                    )
                )
    return "".join(lines)


def _to_json_payload(obj):
    if isinstance(obj, Report):
        return obj.to_dict()
    return {
        "rows": [
            {
                "param_name": row.param_name,
                "param_value": row.param_value,
                **(
                    {"report": row.report.to_dict()}
                    if row.report is not None
                    else {"error": row.error}
                ),
            }
            for row in obj
        ]
    }


def _svg_points(obj) -> list[tuple[float, float]]:
    if isinstance(obj, Report):
        return [(0.0, obj.value)]
    return [
        (row.param_value, row.report.value)
        for row in obj
        if row.report is not None
    ]


def _to_svg(obj) -> str:
    pts = _svg_points(obj)
    width, height, margin = 640.0, 480.0, 60.0
    xs = [p[0] for p in pts] or [0.0]
    ys = [p[1] for p in pts] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x):
        return margin + (width - 2 * margin) * (x - x0) / xspan

    def sy(y):
        return height - margin - (height - 2 * margin) * (y - y0) / yspan

    coords = " ".join(f"{sx(x):.8g},{sy(y):.8g}" for x, y in pts)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">\n',
        f'  <rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>\n',
        f'  <line x1="{margin:g}" y1="{height - margin:g}" x2="{width - margin:g}" '
        f'y2="{height - margin:g}" stroke="black"/>\n',
        f'  <line x1="{margin:g}" y1="{margin:g}" x2="{margin:g}" '
        f'y2="{height - margin:g}" stroke="black"/>\n',
        f'  <polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{coords}"/>\n',
        f'  <text x="{margin:g}" y="{height - margin / 3:g}" font-size="12">'
        f"x: [{format_float(x0)}, {format_float(x1)}]</text>\n",
        f'  <text x="{margin:g}" y="{margin / 2:g}" font-size="12">'
        f"value: [{format_float(y0)}, {format_float(y1)}]</text>\n",
        "</svg>\n",
    ]
    return "".join(lines)


def emit(obj, fmt: str, path: str | None = None) -> str:
    """Render a report or sweep table as csv / json / svg-plotdata.

    Returns the rendered text; writes it to ``path`` when given ("-" means
    return-only, the CLI prints it).
    """
    if fmt == "csv":
        text = _to_csv(obj)
    elif fmt == "json":
        text = to_canonical_json(_to_json_payload(obj))
    elif fmt == "svg-plotdata":
        text = _to_svg(obj)
    else:
        raise ValueError(f"unknown format {fmt!r} (expected csv, json or svg-plotdata)")
    if path is not None and path != "-":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
