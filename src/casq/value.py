"""The bases of casq's value classes, and the two value classes that every
compute layer shares: a quadrature's tolerances and an integral's result.

A value class names its fields in ``__slots__`` (two or more) and takes
them, in that order, as the parameters of its own ``__init__``. The bases
generate no code when a class is defined. :class:`Record` gives ``==`` that
compares the fields of two objects of the same class and a ``repr`` that
lists them; its fields are plain mutable slots, set with
``self.name = value``, and it pickles as a call of its class with its
fields. :class:`Value` adds immutability: its ``__init__`` sets fields with
:data:`set_field`, assignment raises ``AttributeError``, objects hash by
their fields, :meth:`Value.replace` builds a changed copy through
``__init__`` (so it validates again), and unpickling restores the fields
through the slots' own setters without running ``__init__``.

:class:`QuadratureSpec`, :class:`IntegralResult` and :data:`DEFAULT_SPEC`
live here rather than with the engine in :mod:`casq.quadrature` (which
re-exports them), so a layer that only builds results, such as the DCE rate,
runs without loading the engine.
"""

from __future__ import annotations

from copyreg import __newobj__
from operator import attrgetter

__all__ = ["Record", "Value", "set_field", "QuadratureSpec", "IntegralResult", "DEFAULT_SPEC"]

#: Sets a field past the frozen ``__setattr__``; for ``__init__`` only.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    __hash__ = None  # mutable, so unhashable

    def __init_subclass__(cls):
        if not cls.__slots__:  # a base that adds no fields
            return
        if len(cls.__slots__) < 2:
            # attrgetter of one name returns the bare value, not a 1-tuple
            raise TypeError(f"{cls.__name__}: a value class needs two or more fields")
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class Value(Record):
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            # unpickling sets the slots past the frozen __setattr__
            cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __hash__(self):
        return hash(self._fields(self))

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and validated by ``__init__``."""
        return type(self)(**dict(zip(self.__slots__, self._fields(self)), **changes))

    def __reduce__(self):
        # __newobj__ makes pickle emit NEWOBJ (cls.__new__, no __init__),
        # then BUILD hands the fields to __setstate__
        return __newobj__, (type(self),), self._fields(self)

    def __setstate__(self, state):
        for setter, value in zip(self._setters, state):
            setter(self, value)


class QuadratureSpec(Value):
    """Tolerances and budget for one adaptive integration.

    Convergence target is ``max(abs_tol, rel_tol * |value|)``; at least one
    of the two tolerances must be positive. A relative tolerance is also
    met at the round-off floor of the panels (see
    :func:`casq.quadrature.integrate_adaptive`).
    """

    __slots__ = ("rel_tol", "abs_tol", "max_subdivisions")

    def __init__(self, rel_tol: float = 1e-10, abs_tol: float = 1e-300,
                 max_subdivisions: int = 2000):
        if not (rel_tol > 0.0 or abs_tol > 0.0):
            raise ValueError("QuadratureSpec: rel_tol or abs_tol must be > 0")
        if max_subdivisions < 1:
            raise ValueError("QuadratureSpec: max_subdivisions must be >= 1")
        set_field(self, "rel_tol", rel_tol)
        set_field(self, "abs_tol", abs_tol)
        set_field(self, "max_subdivisions", max_subdivisions)


DEFAULT_SPEC = QuadratureSpec()


class IntegralResult(Value):
    """An integral, or a phase or rate built from integrals, with its error budget.

    ``breakdown`` carries the named per-term contributions (all in rad
    unless the key says otherwise) so that composite phases stay auditable;
    closed forms report no evaluations and are converged by construction.
    ``series`` holds named sampled curves, such as an emission spectrum.
    """

    __slots__ = ("value", "error_estimate", "evaluations", "converged", "breakdown", "series")

    def __init__(self, value: float, error_estimate: float, evaluations: int = 0,
                 converged: bool = True, breakdown: dict[str, float] | None = None,
                 series: dict[str, tuple[float, ...]] | None = None):
        set_field(self, "value", value)
        set_field(self, "error_estimate", error_estimate)
        set_field(self, "evaluations", evaluations)
        set_field(self, "converged", converged)
        set_field(self, "breakdown", {} if breakdown is None else breakdown)
        set_field(self, "series", series)
