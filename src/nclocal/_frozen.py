"""Base class of the immutable value classes.

The value classes are plain slotted classes, not dataclasses: the
``dataclasses`` module imports ``inspect`` and ``ast``, and each
decoration compiles its generated methods at import, a large share of
the start-up of every CLI run.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Equality, hash and repr on the fields named in ``__slots__``, and
    no assignment or deletion after construction.

    A subclass lists its fields in ``__slots__`` in the order of its
    ``__init__`` parameters, and its ``__init__`` sets each one with
    ``object.__setattr__``.  Instances equal only instances of the same
    class with equal fields, and hash as the tuple of their fields, so a
    class holding an unhashable field raises TypeError on hash.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__dict__.get("__slots__", ())
        if names:
            get = attrgetter(*names)
            cls._fields = names
            # attrgetter of a single name gives the bare value
            cls._values = (lambda self: (get(self),)) if len(names) == 1 else (lambda self: get(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since slot state cannot
        # be restored by assignment
        return type(self), self._values()
