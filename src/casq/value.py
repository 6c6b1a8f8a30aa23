"""The bases of casq's value classes.

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
"""

from __future__ import annotations

from copyreg import __newobj__
from operator import attrgetter

__all__ = ["Record", "Value", "set_field"]

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
