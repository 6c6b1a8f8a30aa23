"""Scenario files: parsing, execution, sweeps, and emission.

A scenario is a JSON object with unit-suffixed keys ("y_m",
"omega_cm_rad_per_s", ...) naming one computation kind; the suffix
convention exists because silent unit errors are the dominant failure mode
in mixed SI computations, so a key with the right stem but the wrong
suffix is rejected with :class:`UnitMismatch` rather than guessed at.

Each scenario kind is one entry of ``_KINDS`` (its schema, the operation it
names and how it runs), and every JSON object, the scenario itself
included, is read by :func:`casq.schema.read_object` from its field list.

Reports are deterministic: floats are emitted with 17 significant digits,
keys are sorted, and wall time is kept off the serialized form so repeated
runs of one scenario file are byte-identical.
"""

from __future__ import annotations

import math
import os
import sys
import time
import warnings
from importlib import import_module
from json.encoder import encode_basestring_ascii

from . import __version__
from .constants import CONSTANTS_HASH, Z_MIN_DEFAULT
from .errors import (
    BadParameterPath,
    CasqError,
    NonConvergent,
    NonFiniteEvaluation,
    ParseError,
    ValidationError,
    show_warning,
)
from .schema import (
    check_keys,
    count,
    finite,
    format_float,
    nested,
    read_object,
    schema,
    shown,
    text,
    vector3,
)
from .species import AtomSpecies, alpha_static, find_species
from .value import IntegralResult, QuadratureSpec, Record, Value, set_field

# The compute modules (casq.dce, casq.mirror_phases, casq.sagnac and the
# engine and path modules under them) are imported inside the functions that
# use them, so a process loads only the modules of the kinds it reads and
# runs; the annotations that name their classes are never evaluated.

__all__ = [
    "Scenario",
    "Report",
    "SweepRow",
    "SCENARIO_KINDS",
    "parse_scenario_dict",
    "run_scenario",
    "sweep",
    "emit",
    "format_float",
    "to_canonical_json",
]


# -- object schemas ------------------------------------------------------------

def _samples(read_value, shape: str):
    """Reader of a sampled path's [t, value] list, returned as two columns."""

    def read(v, where: str):
        if not isinstance(v, list) or any(not isinstance(p, list) or len(p) != 2 for p in v):
            raise ParseError(f"{where}: expected a list of {shape} pairs")
        return tuple(finite(p[0], where) for p in v), tuple(read_value(p[1], where) for p in v)

    return read


def _constructor(module: str, name: str):
    """``casq.<module>.<name>(**fields)``. The module is imported when the
    first object is built, so parsing loads only the modules a scenario names."""
    cls = None

    def build(**fields):
        nonlocal cls
        if cls is None:
            cls = getattr(import_module(f".{module}", __package__), name)
        return cls(**fields)

    return build


def _path_schemas(table: dict) -> dict:
    """Path "kind" tag -> (constructor, schema) from tag -> (class name in
    :mod:`casq.trajectories`, fields); a path object also holds its "kind"."""
    return {tag: (_constructor("trajectories", name), schema(*fields, known=("kind",)))
            for tag, (name, fields) in table.items()}


_H = ("h_m", "h", finite, True)
_V_PARALLEL = ("v_parallel_m_per_s", "v_parallel", finite, False)

#: Path "kind" tag -> (constructor, schema), for 1D mirror paths and 3D trajectories.
_PATHS_1D = _path_schemas({
    "constant": ("Constant1D", (_H, _V_PARALLEL)),
    "linear": ("Linear1D", (_H, ("v_m_per_s", "v", finite, True), _V_PARALLEL)),
    "harmonic": ("Harmonic1D", (
        _H,
        ("amplitude_m", "amplitude", finite, True),
        ("omega_cm_rad_per_s", "omega_cm", finite, True),
        ("phase0_rad", "phase0", finite, False),
        _V_PARALLEL,
    )),
    "sampled": ("SampledPolyline1D", (
        ("points_t_s_z_m", ("times", "values"), _samples(finite, "[t, z]"), True),
        _V_PARALLEL,
    )),
})
_PATHS_3D = _path_schemas({
    "straight_line": ("StraightLine3D", (
        ("r0_m", "r0", vector3, True),
        ("v_m_per_s", "v", vector3, True),
    )),
    "sampled": ("SampledPolyline3D", (
        ("points_t_s_r_m", ("times", "points"), _samples(vector3, "[t, [x,y,z]]"), True),
    )),
})

_WINDOW = schema(("t_start_s", "t_start", finite, True), ("t_end_s", "t_end", finite, True),
                 known=("improper",))
_PARTICLE = schema(
    ("alpha0_F_m2", "alpha0", finite, True),
    ("omega_s_rad_per_s", "omega_s", finite, True),
    ("omega_rad_per_s", "omega", vector3, True),
    ("gamma_rad_per_s", "gamma", finite, False),
    ("radius_m", "radius", finite, False),
)
_OSCILLATION = schema(
    ("r_max_m", "r_max", finite, True),
    ("omega_cm_rad_per_s", "omega_cm", finite, True),
    ("direction", "direction", vector3, False),
)

#: Largest accepted ``max_subdivisions``: a motional phase that spends it all
#: still ends (in about 80 s on 2 shared vCPUs). Python callers keep their own.
_MAX_SUBDIVISIONS_MAX = 100_000
#: Largest accepted ``n_spectrum``; the spectrum is built as Python lists.
_N_SPECTRUM_MAX = 10_000
_QUADRATURE = schema(
    ("rel_tol", "rel_tol", finite, False),
    ("abs_tol", "abs_tol", finite, False),
    ("max_subdivisions", "max_subdivisions", count(_MAX_SUBDIVISIONS_MAX), False),
)


def _read_path(obj, ctx: str, table: dict):
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx}: expected an object")
    tag = obj.get("kind")
    if not isinstance(tag, str) or tag not in table:
        raise ParseError(f"{ctx}.kind: expected one of {'/'.join(table)}, got {shown(tag)}")
    cls, fields = table[tag]
    return read_object(obj, fields, ctx, cls)


def _read_two_paths(v, where: str) -> tuple:
    if not isinstance(v, list) or len(v) != 2:
        raise ParseError(f"{where}: expected a list of exactly two paths")
    return tuple(_read_path(p, f"{where}[{i}]", _PATHS_1D) for i, p in enumerate(v))


_TIME_WINDOW = _constructor("trajectories", "TimeWindow")


def _read_window(obj, ctx: str) -> TimeWindow:
    """``{"improper": true}`` alone is all of time; a bounded window may say ``false``."""
    improper = obj.get("improper", False) if isinstance(obj, dict) else False
    if not isinstance(improper, bool):
        raise ParseError(f"{ctx}.improper: expected true or false, got {shown(improper)}")
    if improper:
        check_keys(obj, (), ("improper",), ctx)
        return _TIME_WINDOW(improper=True)
    return read_object(obj, _WINDOW, ctx, _TIME_WINDOW)


#: A null "quadrature" means the default spec.
_QUADRATURE_FIELD = (
    "quadrature", "quadrature",
    lambda v, where: None if v is None else read_object(v, _QUADRATURE, where, QuadratureSpec),
    False,
)


def _kind_schema(*fields):
    """A scenario kind's schema: the optional "quadrature", then the kind's own
    fields; "kind" and "species" are read before the schema."""
    return schema(_QUADRATURE_FIELD, *fields, known=("kind", "species"))


_WINDOW_FIELD = ("window", "window", _read_window, True)
_Z_MIN = ("z_min_m", "z_min", finite, False)
_MIRROR_1 = _kind_schema(
    ("path", "paths", lambda v, where: (_read_path(v, where, _PATHS_1D),), True),
    _WINDOW_FIELD,
    _Z_MIN,
)
_MIRROR_2 = _kind_schema(("paths", "paths", _read_two_paths, True), _WINDOW_FIELD, _Z_MIN)
_PARTICLE_FIELD = ("particle", "particle",
                   nested(_constructor("sagnac", "SpinningParticle"), _PARTICLE), True)
_SAGNAC = _kind_schema(
    _PARTICLE_FIELD,
    ("trajectory", "traj3d", lambda v, where: _read_path(v, where, _PATHS_3D), True),
    _WINDOW_FIELD,
)
#: The oscillation is read without its ``alpha0``: :class:`Scenario` completes
#: it from the species.
_OSCILLATION_FIELD = ("oscillation", "oscillation", nested(dict, _OSCILLATION), True)
_N_SPECTRUM = ("n_spectrum", "n_spectrum", count(_N_SPECTRUM_MAX), False)


class Scenario(Value):
    """A parsed, validated scenario bound to its species object."""

    __slots__ = ("kind", "species", "window", "paths", "traj3d", "particle", "y_m", "y1_m",
                 "oscillation", "n_spectrum", "z_min", "quadrature")

    def __init__(
        self,
        kind: str,
        species: AtomSpecies,
        window: TimeWindow | None = None,
        paths: tuple | None = None,
        traj3d: object | None = None,
        particle: SpinningParticle | None = None,
        y_m: float | None = None,
        y1_m: float | None = None,
        oscillation: OscillationParams | dict | None = None,
        n_spectrum: int = 33,
        z_min: float = Z_MIN_DEFAULT,
        quadrature: QuadratureSpec | None = None,
    ):
        if isinstance(oscillation, dict):  # as read, without alpha0
            from .dce import OscillationParams

            try:
                oscillation = OscillationParams(alpha0=alpha_static(species), **oscillation)
            except ValueError as exc:
                raise ValueError(f"oscillation: {exc}") from exc
        set_field(self, "kind", kind)
        set_field(self, "species", species)
        set_field(self, "window", window)
        set_field(self, "paths", paths)
        set_field(self, "traj3d", traj3d)
        set_field(self, "particle", particle)
        set_field(self, "y_m", y_m)
        set_field(self, "y1_m", y1_m)
        set_field(self, "oscillation", oscillation)
        set_field(self, "n_spectrum", n_spectrum)
        set_field(self, "z_min", z_min)
        set_field(self, "quadrature", quadrature)


# -- kinds ---------------------------------------------------------------------
# Each run imports its compute module when it runs and calls the compute
# function as an attribute of that module, looked up at call time: a process
# loads only the modules of the kinds it runs, and a function replaced
# (wrapped) on its own module is the one called.

def _mirror_phase(name: str, *args):
    """Run of ``casq.mirror_phases.<name>(mirror scenario, *args, spec)``."""

    def run(sc: Scenario) -> IntegralResult:
        from . import mirror_phases

        mirror = mirror_phases.MirrorScenario(sc.species, sc.paths, sc.window, z_min=sc.z_min)
        return getattr(mirror_phases, name)(mirror, *args, sc.quadrature)

    return run


def _sagnac(sc: Scenario) -> IntegralResult:
    from . import sagnac

    return sagnac.sagnac_phase(sc.species, sc.particle, sc.traj3d, sc.window, sc.quadrature)


def _sagnac_straightline(sc: Scenario) -> IntegralResult:
    from . import sagnac

    value = sagnac.sagnac_phase_straightline(sc.species, sc.particle, sc.y_m)
    breakdown = {"ell_omega_m": sagnac.ell_omega(sc.species, sc.particle)}
    return IntegralResult(value, 0.0, breakdown=breakdown)


def _sagnac_symmetric(sc: Scenario) -> IntegralResult:
    from . import sagnac

    return sagnac.sagnac_total_symmetric(sc.species, sc.particle, sc.y1_m)


def _dce_closed(sc: Scenario) -> IntegralResult:
    from . import dce

    breakdown = {"coefficient": dce.CLOSED_FORM_COEFFICIENT}
    return IntegralResult(dce.dce_rate_closed(sc.oscillation), 0.0, breakdown=breakdown)


def _dce_numeric(sc: Scenario) -> IntegralResult:
    from . import dce

    res = dce.dce_rate_numeric(sc.oscillation, sc.quadrature, n_spectrum=sc.n_spectrum)
    closed = dce.dce_rate_closed(sc.oscillation)
    breakdown = {
        **res.breakdown,
        "closed_form_coefficient": dce.CLOSED_FORM_COEFFICIENT,
        "closed_form_rate_per_s": closed,
    }
    if closed > 0.0:
        breakdown["ratio_to_closed"] = res.value / closed
    return res.replace(breakdown=breakdown)


#: Scenario kind -> (schema, operation name, run(scenario) -> IntegralResult).
#: An operation is named "<module>.<function>" after its compute module.
_KINDS = {
    "QuasiStatic": (_MIRROR_1, "mirror_phases.quasi_static_phase",
                    _mirror_phase("quasi_static_phase", 0)),
    "MotionalMirror": (_MIRROR_1, "mirror_phases.motional_phase_mirror",
                       _mirror_phase("motional_phase_mirror", 0)),
    "Nonlocal": (_MIRROR_2, "mirror_phases.nonlocal_phase", _mirror_phase("nonlocal_phase")),
    "TotalMirror": (_MIRROR_2, "mirror_phases.total_phase_difference",
                    _mirror_phase("total_phase_difference")),
    "Sagnac": (_SAGNAC, "sagnac.sagnac_phase", _sagnac),
    "SagnacStraightLine": (_kind_schema(_PARTICLE_FIELD, ("y_m", "y_m", finite, True)),
                           "sagnac.sagnac_phase_straightline", _sagnac_straightline),
    "SagnacSymmetric": (_kind_schema(_PARTICLE_FIELD, ("y1_m", "y1_m", finite, True)),
                        "sagnac.sagnac_total_symmetric", _sagnac_symmetric),
    "DceClosed": (_kind_schema(_OSCILLATION_FIELD), "dce.dce_rate_closed", _dce_closed),
    "DceNumeric": (_kind_schema(_OSCILLATION_FIELD, _N_SPECTRUM), "dce.dce_rate_numeric",
                   _dce_numeric),
}
SCENARIO_KINDS = tuple(_KINDS)


def parse_scenario_dict(data, species_db: list[AtomSpecies], source: str = "<scenario>") -> Scenario:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    kind = data.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ParseError(
            f"{source}.kind: expected one of {list(SCENARIO_KINDS)}, got {shown(kind)}"
        )
    where = f"{source}.species"
    species = find_species(species_db, text(data.get("species"), where), where)
    return read_object(data, _KINDS[kind][0], source, Scenario, kind=kind, species=species)


# -- execution -----------------------------------------------------------------

class Report(Record):
    """One scenario's result, traceable to the compute operation that made it.

    ``wall_time_s`` is informational and deliberately excluded from
    serialized forms so identical runs emit identical bytes.
    """

    __slots__ = ("scenario_kind", "species_name", "operation", "result", "wall_time_s")

    def __init__(self, scenario_kind: str, species_name: str, operation: str,
                 result: IntegralResult, wall_time_s: float = 0.0):
        self.scenario_kind = scenario_kind
        self.species_name = species_name
        self.operation = operation
        self.result = result
        self.wall_time_s = wall_time_s

    def to_dict(self) -> dict:
        res = self.result
        d = {
            "scenario_kind": self.scenario_kind,
            "species": self.species_name,
            "value": res.value,
            "error_estimate": res.error_estimate,
            "converged": res.converged,
            "breakdown": dict(res.breakdown),
            "metadata": {
                "operation": self.operation,
                "toolkit_version": __version__,
                "constants_hash": CONSTANTS_HASH,
            },
        }
        if res.series is not None:
            d["series"] = res.series
        return d


def _nonfinite(res: IntegralResult) -> list[str]:
    """The non-finite numbers of a result, named."""
    named = {"value": res.value, "error_estimate": res.error_estimate}
    named.update((f"breakdown.{k}", x) for k, x in res.breakdown.items())
    bad = [f"{name} is {x!r}" for name, x in named.items() if not math.isfinite(x)]
    return bad + [
        f"series.{name}[{i}] is {x!r}"
        for name, xs in (res.series or {}).items()
        for i, x in enumerate(xs)
        if not math.isfinite(x)
    ]


def run_scenario(sc: Scenario) -> Report:
    """Execute a scenario; the report names the operation that produced it.

    Only a finite, converged result gives a report. An overflow or a
    non-finite number raises :class:`NonFiniteEvaluation`, a result that
    missed its tolerance :class:`NonConvergent`, and a ``ValueError`` from
    a compute layer :class:`ValidationError`.
    """
    t0 = time.perf_counter()
    _, op, run = _KINDS[sc.kind]
    try:
        res = run(sc)
    except ArithmeticError as exc:
        raise NonFiniteEvaluation(f"{op}: {type(exc).__name__}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{op}: {exc}") from exc
    bad = _nonfinite(res)
    if bad:
        raise NonFiniteEvaluation(f"{op}: {bad[0]}")
    if not res.converged:
        raise NonConvergent(
            f"{op}: subdivision budget exhausted before the tolerance "
            f"(value={res.value!r}, error_estimate={res.error_estimate!r})"
        )
    return Report(sc.kind, sc.species.name, op, res, time.perf_counter() - t0)


# -- sweeps --------------------------------------------------------------------

class SweepRow(Record):
    """One sweep point: its report, or the error that ended it. A single
    run is emitted as the one row ``SweepRow("", None, report)``."""

    __slots__ = ("param_name", "param_value", "report", "error")

    def __init__(self, param_name: str, param_value: float | None, report: Report | None,
                 error: str | None = None):
        self.param_name = param_name
        self.param_value = param_value
        self.report = report
        self.error = error

    def to_dict(self) -> dict:
        outcome = {"error": self.error} if self.report is None else {"report": self.report.to_dict()}
        return {"param_name": self.param_name, "param_value": self.param_value, **outcome}


def _with_value(data, path: str, value: float, source: str):
    """``data`` with the number at the dotted ``path`` replaced by ``value``.

    Only the dicts and lists on the path are copied; the rest of the
    document is shared. A list index is a plain decimal below the list's
    length, and the replaced value must be a number.
    """
    parts = path.split(".")
    top = node = data.copy() if isinstance(data, (dict, list)) else data
    for depth, part in enumerate(parts, 1):
        if isinstance(node, list):
            if not (part.isascii() and part.isdigit() and int(part) < len(node)):
                raise BadParameterPath(f"{source}: bad index {shown(part)} in {shown(path)}")
            key = int(part)
        elif isinstance(node, dict) and part in node:
            key = part
        else:
            raise BadParameterPath(f"{source}: no key {shown(part)} while resolving {shown(path)}")
        child = node[key]
        if depth == len(parts):
            if isinstance(child, bool) or not isinstance(child, (int, float)):
                raise BadParameterPath(
                    f"{source}: {shown(path)} is not a numeric scalar (got {shown(child)})"
                )
            node[key] = value
            return top
        if isinstance(child, (dict, list)):
            child = node[key] = child.copy()
        node = child


def _load_compute_module(scenario_data) -> None:
    """Import the compute module of the scenario's kind, with the modules it
    imports; an unknown kind loads nothing (each row then fails to parse)."""
    kind = scenario_data.get("kind") if isinstance(scenario_data, dict) else None
    if kind in SCENARIO_KINDS:
        module = _KINDS[kind][1].split(".", 1)[0]
        import_module(f".{module}", __package__)


def _init_worker() -> None:
    # a worker writes its warnings straight to the user's stderr (workers
    # forked by the CLI inherit this hook; spawned workers, and workers of
    # callers outside the CLI, do not)
    warnings.showwarning = show_warning


def _sweep_one(args) -> SweepRow:
    scenario_data, param, value, species_db = args
    try:
        data = _with_value(scenario_data, param, value, "<sweep>")
        sc = parse_scenario_dict(data, species_db, source="<sweep>")
        return SweepRow(param, value, run_scenario(sc))
    except CasqError as exc:
        return SweepRow(param, value, None, f"{type(exc).__name__}: {exc}")


def sweep(
    scenario_data: dict,
    param: str,
    values: list[float],
    species_db: list[AtomSpecies],
    jobs: int = 1,
) -> list[SweepRow]:
    """Run one scenario for each parameter value; rows come back ordered by
    value (NaN values last, in their given order) regardless of execution
    order, and per-row failures are recorded in the row rather than aborting
    the sweep.

    ``jobs`` is clamped to the CPU count and to the number of values; 1 or
    less runs the rows in this process. Workers are forked on Linux, so they
    start with casq and the compute modules of the scenario's kind already
    imported (the parent imports them first), and spawned elsewhere, where
    fork is not the platform's safe choice; forking assumes the calling
    process runs no other threads, which holds for the CLI. The caller resolves the
    species database once; each worker task carries it, and ``pool.map``
    pickles it once per chunk of tasks."""
    if not values:
        raise ValidationError("sweep: a sweep needs at least one value")
    # fail fast on a path that resolves nowhere (per-value validation still
    # happens inside the workers)
    _with_value(scenario_data, param, float(values[0]), "<sweep>")

    # NaN compares false both ways, which would leave the other values unsorted
    order = sorted(range(len(values)), key=lambda i: (math.isnan(values[i]), values[i], i))
    tasks = [(scenario_data, param, float(values[i]), species_db) for i in order]
    jobs = min(jobs, os.cpu_count() or 1, len(values))
    if jobs <= 1:
        return [_sweep_one(t) for t in tasks]
    # forked workers inherit the kind's compute modules instead of each
    # compiling them again
    _load_compute_module(scenario_data)
    # imported here: serial sweeps and every other command skip its import cost
    from multiprocessing import get_context

    method = "fork" if sys.platform == "linux" else "spawn"
    with get_context(method).Pool(processes=jobs, initializer=_init_worker) as pool:
        return pool.map(_sweep_one, tasks)


# -- emission ------------------------------------------------------------------

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
            key = encode_basestring_ascii(str(k))
            out.append(f"{pad}{step}{key}: " if indent is not None else f"{key}:")
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
        # what json.dumps writes for a str: same bytes, without its dispatch
        out.append(encode_basestring_ascii(obj))
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


def _csv_row(row: SweepRow) -> str:
    pvalue = "" if row.param_value is None else format_float(row.param_value)
    if row.report is None:
        cells = ["", "", row.param_name, pvalue, "", "", "false",
                 to_canonical_json({"error": row.error}, compact=True)]
    else:
        r = row.report
        res = r.result
        cells = [
            r.scenario_kind,
            r.species_name,
            row.param_name,
            pvalue,
            format_float(res.value),
            format_float(res.error_estimate),
            "true" if res.converged else "false",
            to_canonical_json(res.breakdown, compact=True),
        ]
    return ",".join(_csv_cell(c) for c in cells) + "\n"


def _axis(lo: float, hi: float, length: float):
    """The map of [lo, hi] onto [0, length]. Where ``length * (hi - lo)``
    overflows, both ends are first scaled by 2**-11: a power of two scales
    exactly, so the map is unchanged wherever it was finite."""
    k = 1.0 if math.isfinite(length * (hi - lo)) else 2.0 ** -11
    span = (k * hi - k * lo) or 1.0
    return lambda v: length * (k * v - k * lo) / span


def _to_svg(rows: list[SweepRow]) -> str:
    pts = [
        (0.0 if row.param_value is None else row.param_value, row.report.result.value)
        for row in rows
        if row.report is not None
    ]
    width, height, margin = 640.0, 480.0, 60.0
    xs = [p[0] for p in pts] or [0.0]
    ys = [p[1] for p in pts] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = _axis(x0, x1, width - 2 * margin)
    sy = _axis(y0, y1, height - 2 * margin)

    coords = " ".join(f"{margin + sx(x):.8g},{height - margin - sy(y):.8g}" for x, y in pts)
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


def _chunks(obj, fmt: str):
    """The text of a report or sweep table, in pieces: one for the head of
    the table, one per row and one for its tail, or one for the whole of a
    single JSON report or an SVG. Each row is rendered when its piece is
    asked for, so a writer holds one row's text at a time."""
    single = isinstance(obj, Report)
    rows = [SweepRow("", None, obj)] if single else obj
    if fmt == "csv":
        yield _CSV_HEADER
        for row in rows:
            yield _csv_row(row)
    elif fmt == "json":
        if single:
            yield to_canonical_json(obj.to_dict())
            return
        # the frame to_canonical_json writes around {"rows": [...]}
        yield '{\n  "rows": ['
        for i, row in enumerate(rows):
            out = [",\n    " if i else "\n    "]
            _json_fragment(row.to_dict(), out, 2)
            yield "".join(out)
        yield "\n  ]\n}\n" if rows else "]\n}\n"
    elif fmt == "svg-plotdata":
        yield _to_svg(rows)
    else:
        raise ValueError(f"unknown format {fmt!r} (expected csv, json or svg-plotdata)")


def emit(obj, fmt: str) -> str:
    """Render a report or sweep table as csv / json / svg-plotdata.

    A single report is rendered as the one-row table of a sweep, except in
    JSON, which prints the bare report. Returns the rendered text; the CLI
    writes the same text row by row, never holding all of it.
    """
    return "".join(_chunks(obj, fmt))
