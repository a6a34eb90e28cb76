"""Plain record classes with value equality.

Syntax trees and the library's result types (`Config`, `Verdict`,
`GroupReport`, `Report`) are small records.  Declaring them with
`dataclasses` cost more than half of the package's import time, which a
one-file check pays in full, so each is a plain class instead: it lists
its fields in `__slots__`, sets them in its own `__init__` (making a fresh
list or dict for a default container), and takes equality, positional
matching and `repr` from `Struct`, which behaves as a dataclass does
(the tests' `Frozen` adds hashing and immutability, as a frozen dataclass).
They copy and pickle, but `dataclasses.asdict` and its kin do not apply to
them.  The hashable records of the checker, calls and weights, are named
tuples instead.
"""

from __future__ import annotations

from operator import attrgetter


def _tuple_getter(names: tuple):
    """A function from a record to the tuple of its fields `names`, read in
    C where `attrgetter` gives a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


class Struct:
    """A mutable record, unhashable, equal to another of the same class
    whose compared fields are equal.  The fields are the class's own
    `__slots__` (a `__dict__` entry aside), in order, match by position in
    that order, and are compared unless named in `_uncompared`."""

    __slots__ = ()
    _uncompared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__dict__.get("__slots__", ())
                            if name != "__dict__")
        cls.__match_args__ = cls._fields
        cls._key = staticmethod(_tuple_getter(tuple(
            name for name in cls._fields if name not in cls._uncompared)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    __hash__ = None

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
