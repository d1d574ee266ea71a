"""Immutable records built without generated code: the fields are the slots
(a "__dict__" slot is not a field), with `_defaults` and a `_validate` hook."""

from operator import attrgetter

_set = object.__setattr__
_missing = object()


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args += tuple(kwargs.pop(name, self._defaults.get(name, _missing))
                          for name in names[len(args):])
            if kwargs or len(args) > len(names) or _missing in args:
                raise TypeError("%s() takes the fields %s"
                                % (type(self).__name__, ", ".join(names)))
        for name, value in zip(names, args):
            _set(self, name, value)
        self._validate()

    def _validate(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, *value):
        raise AttributeError("immutable %s: %s" % (type(self).__name__, name))

    __delattr__ = __setattr__
