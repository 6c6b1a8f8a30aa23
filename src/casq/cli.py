"""casq command-line front end.

    casq run <scenario.json> [--out FILE --format csv|json|svg-plotdata]
    casq sweep <scenario.json> --param KEY (--from A --to B --points N [--log]
               | --values v1,v2,...) [--jobs N] [--out FILE --format ...]
    casq species list | show NAME
    casq selftest

Exit codes: 0 success, 2 parse/validation errors, 3 numerical failure
(non-convergence, a non-finite result or an overflow), 4 I/O errors. The species database resolves from
--species-db, then $CASQ_SPECIES_DB, then the bundled demo database.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

from .errors import NumericalError, ValidationError, show_warning
from .schema import format_float, load_json
from .species import (
    alpha_static,
    equivalent_radius,
    find_species,
    mean_square_dipole,
    resolve_species_db,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

#: Largest accepted ``--points``; the values are built as one Python list
#: before any row runs.
_POINTS_MAX = 100_000


# The compute modules load only with the commands that run them: `run` and
# `sweep` import casq.scenarios when they start, so `species` and argument
# errors never compile it.

def _write(obj, fmt: str, out: str | None) -> None:
    """Write a report or sweep table to the file ``out``, or to stdout when
    there is none ("-" or None), one row at a time."""
    from .scenarios import _chunks

    if out in (None, "-"):
        sys.stdout.writelines(_chunks(obj, fmt))
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_chunks(obj, fmt))


def _cmd_run(args) -> int:
    from .scenarios import parse_scenario_dict, run_scenario

    data = load_json(args.scenario)
    db = resolve_species_db(args.species_db)
    sc = parse_scenario_dict(data, db, source=args.scenario)
    _write(run_scenario(sc), args.format, args.out)
    return EXIT_OK


def _sweep_values(args) -> list[float]:
    try:
        if args.values:
            return [float(v) for v in args.values.split(",") if v.strip()]
        missing = [
            name
            for name, val in (("--from", args.start), ("--to", args.stop), ("--points", args.points))
            if val is None
        ]
        if missing:
            raise ValidationError(
                f"sweep needs either --values or all of --from/--to/--points (missing {missing})"
            )
        n = int(args.points)
        a, b = float(args.start), float(args.stop)
    except ValueError as exc:
        raise ValidationError(f"sweep range arguments must be numeric: {exc}") from exc
    if n < 2:
        raise ValidationError("--points must be >= 2")
    if n > _POINTS_MAX:
        raise ValidationError(f"--points must be <= {_POINTS_MAX}")
    if args.log:
        if not (a > 0 and b > 0):
            raise ValidationError("--log sweeps need positive endpoints")
        la, lb = math.log10(a), math.log10(b)
        return [10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(n)]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _cmd_sweep(args) -> int:
    from .scenarios import sweep

    data = load_json(args.scenario)
    db = resolve_species_db(args.species_db)
    values = _sweep_values(args)
    _write(sweep(data, args.param, values, db, jobs=args.jobs), args.format, args.out)
    return EXIT_OK


def _cmd_species(args) -> int:
    db = resolve_species_db(args.species_db)
    if args.species_cmd == "list":
        for s in db:
            print(f"{s.name}  ({len(s.transitions)} transition"
                  f"{'s' if len(s.transitions) != 1 else ''})")
        return EXIT_OK
    s = find_species(db, args.name, "species show")
    # every line is built before any is printed: a failing alpha(0) leaves stdout empty
    lines = [
        f"name: {s.name}",
        f"alpha_static_F_m2: {format_float(alpha_static(s))}",
        f"equivalent_radius_m: {format_float(equivalent_radius(s))}",
        f"mean_square_dipole_C2m2: {format_float(mean_square_dipole(s))}",
        "transitions:",
        *(f"  omega_eg_rad_per_s: {format_float(t.omega_eg)}  d2_C2m2: {format_float(t.d2)}"
          for t in s.transitions),
    ]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest() else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="casq",
        description="Numerical toolkit for motion-induced vacuum phases and photon emission.",
    )
    ap.add_argument("--species-db", default=None, help="Path to a species database JSON.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="Run one scenario file.")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", default=None, help="Output file ('-' for stdout).")
    run_p.add_argument(
        "--format", default="json", choices=["csv", "json", "svg-plotdata"]
    )
    run_p.set_defaults(func=_cmd_run)

    sw = sub.add_parser("sweep", help="Sweep one scenario parameter.")
    sw.add_argument("scenario")
    sw.add_argument("--param", required=True, help="Dotted path into the scenario JSON.")
    sw.add_argument("--from", dest="start", default=None, help="Range start.")
    sw.add_argument("--to", dest="stop", default=None, help="Range end.")
    sw.add_argument("--points", default=None, help=f"Number of range points (2 to {_POINTS_MAX}).")
    sw.add_argument("--log", action="store_true", help="Log-spaced range.")
    sw.add_argument("--values", default=None, help="Explicit comma-separated values.")
    sw.add_argument("--jobs", type=int, default=1, help="Parallel workers.")
    sw.add_argument("--out", default=None)
    sw.add_argument("--format", default="csv", choices=["csv", "json", "svg-plotdata"])
    sw.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("species", help="Inspect the species database.")
    spsub = sp.add_subparsers(dest="species_cmd", required=True)
    spsub.add_parser("list").set_defaults(func=_cmd_species)
    show = spsub.add_parser("show")
    show.add_argument("name")
    show.set_defaults(func=_cmd_species)

    st = sub.add_parser("selftest", help="Run the acceptance criteria suite.")
    st.set_defaults(func=_cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            return args.func(args)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except NumericalError as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except ArithmeticError as exc:  # a species' alpha(0), outside run_scenario
            print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
