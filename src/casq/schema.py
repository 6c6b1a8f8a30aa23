"""The one reader of JSON input: species databases and scenarios.

A JSON object's schema is one field list of (JSON key, attribute and
constructor keyword, reader, required). Keys carry unit suffixes, so a key
with a known stem but another suffix is :class:`UnitMismatch` rather than
guessed at, and any other unknown key is :class:`ParseError`.
:func:`format_float` is the one writer of floats as text, shared by the
reports and ``casq species show``.
"""

from __future__ import annotations

import json
import sys

from .errors import ParseError, UnitMismatch


def load_json(path: str):
    """Read a species database or scenario file; bad JSON gives :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except ValueError as exc:  # the only other one: an integer too long to convert
        raise ParseError(
            f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: arrays or objects nested too deeply") from exc


#: Longest repr of an offending value that an error message prints.
_SHOWN_MAX = 40


def format_float(x: float) -> str:
    """Floats rendered with 17 significant digits for reproducibility."""
    return f"{x:.17g}"


def shown(v) -> str:
    """``repr(v)`` for an error message, cut to a fixed length."""
    r = repr(v)
    return r if len(r) <= _SHOWN_MAX else f"{r[:_SHOWN_MAX]}... ({len(r)} characters)"


# -- readers: (JSON value, where) -> Python value

def finite(v, where: str) -> float:
    """A JSON number as a finite float; Python's json admits NaN and Infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where}: expected a number, got {shown(v)}")
    if not abs(v) <= sys.float_info.max:  # exact for ints too; false for NaN
        raise ParseError(f"{where}: expected a finite number, got {shown(v)}")
    return float(v)


def count(most: int):
    """Reader of a whole JSON number from 1 to ``most`` as an int; ``200.0`` reads as 200."""

    def read(v, where: str) -> int:
        x = finite(v, where)
        if not x.is_integer():
            raise ParseError(f"{where}: expected a whole number, got {shown(v)}")
        if x < 1:
            raise ParseError(f"{where}: must be >= 1")
        if x > most:
            raise ParseError(f"{where}: must be <= {most}")
        return int(x)

    return read


def vector3(v, where: str):
    if not isinstance(v, list) or len(v) != 3:
        raise ParseError(f"{where}: expected a list of three numbers, got {shown(v)}")
    return tuple(finite(x, where) for x in v)


def text(v, where: str) -> str:
    if not isinstance(v, str):
        raise ParseError(f"{where}: expected a string, got {shown(v)}")
    return v


def nested(cls, schema):
    """Reader of one JSON object into ``cls`` by ``schema``."""
    return lambda v, where: read_object(v, schema, where, cls)


def list_of(read_item):
    """Reader of a JSON list, item by item, into a tuple."""

    def read(v, where: str):
        if not isinstance(v, list):
            raise ParseError(f"{where}: expected a list")
        return tuple(read_item(x, f"{where}[{i}]") for i, x in enumerate(v))

    return read


# -- field lists ----------------------------------------------------------------

def check_keys(obj: dict, required, allowed, ctx: str) -> None:
    """Unknown keys first, then the first missing required key in field order."""
    for key in obj:
        if key in allowed:
            continue
        stem = key.split("_", 1)[0]
        candidates = sorted(k for k in allowed if k.split("_", 1)[0] == stem)
        if candidates:
            raise UnitMismatch(
                f"{ctx}.{key}: unexpected key; expected one of {candidates} "
                "(unit suffixes are part of the schema)"
            )
        raise ParseError(f"{ctx}.{key}: unexpected key")
    for key in required:
        if key not in obj:
            raise ParseError(f"{ctx}.{key}: missing required key")


def schema(*fields, known=()):
    """A field list with its required keys (in field order) and allowed keys, built once.

    An absent optional key takes the constructor's default; ``known`` names
    further keys that the caller reads itself.
    """
    required = tuple(key for key, _, _, req in fields if req)
    return fields, required, frozenset(key for key, _, _, _ in fields).union(known)


def read_object(obj, schema, ctx: str, cls, **extra):
    """Build ``cls`` from the JSON object ``obj`` by its schema.

    ``extra`` are constructor arguments that do not come from the object.
    A tuple of attributes serves only the sampled paths: their one JSON
    list of [t, value] rows fills two constructor columns (times and values).
    A ``ValueError`` from the constructor becomes :class:`ParseError`.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{ctx}: expected an object")
    fields, required, allowed = schema
    check_keys(obj, required, allowed, ctx)
    kwargs = dict(extra)
    try:
        for key, attr, reader, _ in fields:
            if key not in obj:
                continue
            value = reader(obj[key], f"{ctx}.{key}")
            if isinstance(attr, tuple):
                kwargs.update(zip(attr, value))
            else:
                kwargs[attr] = value
        return cls(**kwargs)
    except ValueError as exc:
        raise ParseError(f"{ctx}: {exc}") from exc
