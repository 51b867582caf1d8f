"""The base of the immutable value classes of ``perms`` and ``trees``.

A subclass names its fields in ``__slots__`` and, in the same order, in
``__match_args__``, and returns their values from ``_fields``.  Its
``__init__`` checks the arguments and stores them past ``__setattr__``,
which refuses every assignment.  As for a frozen dataclass, equality holds
within one class only and the hash is that of the tuple of the fields, so
sets and dicts of these values iterate in the same order as they did when
the classes were dataclasses.  ``copy.copy`` and ``copy.deepcopy`` return
the value itself, since nothing can change it.  Pickling calls the
constructor again, which checks the fields once more.  ``LabeledPlaneTree``
overrides the four methods that read ``_fields`` and so defines none:
equality, hash and repr go by its reading order, and ``__reduce__`` gives a
flat form, so that a deep tree needs no recursion.
"""


class Frozen:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._fields())
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
