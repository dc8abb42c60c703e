"""Base class of the immutable value classes.

The value classes are plain slotted classes, not dataclasses: the
``dataclasses`` module imports ``inspect`` and ``ast``, and each
decoration compiles its generated methods at import, a large share of
the start-up of every CLI run.

A value class declares its fields once, in ``__slots__``, in the order
of its constructor's positional parameters; fields it also names in
``_optional`` default to None.  ``Frozen.__init__`` binds positional and
keyword arguments to those fields, so a class that only stores its
fields defines no ``__init__``.  A class that checks or converts its
input keeps its own ``__init__`` and signature, and ends it with one
``super().__init__(...)`` call passing the field values.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Construction from the fields named in ``__slots__``, equality, hash
    and repr on them, and no assignment or deletion after construction.

    Instances equal only instances of the same class with equal fields,
    and hash as the tuple of their fields, so a class holding an
    unhashable field raises TypeError on hash.
    """

    __slots__ = ()
    _optional = ()

    def __init_subclass__(cls):
        names = cls.__dict__.get("__slots__", ())
        if names:
            get = attrgetter(*names)
            cls._fields = names
            # the slot member descriptors store a field past Frozen.__setattr__
            cls._setters = tuple(cls.__dict__[name].__set__ for name in names)
            # attrgetter of a single name gives the bare value
            cls._values = (lambda self: (get(self),)) if len(names) == 1 else (lambda self: get(self))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} arguments but {len(args)} were given")
        if kwargs or len(args) < len(names):
            args = list(args)
            for name in names[len(args):]:
                if name in kwargs:
                    args.append(kwargs.pop(name))
                elif name in self._optional:
                    args.append(None)
                else:
                    raise TypeError(f"{type(self).__qualname__}() missing argument {name!r}")
            if kwargs:
                name = next(iter(kwargs))
                problem = "got multiple values for" if name in names else "got an unexpected keyword"
                raise TypeError(f"{type(self).__qualname__}() {problem} argument {name!r}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

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
