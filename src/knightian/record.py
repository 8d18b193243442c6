"""Frozen records: the base of every result and config class of the families.

A record class derives from Record and declares its fields as annotations,
in order, each with an optional class-level default.  Record then gives it
what a frozen dataclass would: construction by position or keyword, a
``__post_init__`` hook that runs once the fields are set, fields that cannot
be assigned or deleted, ``==`` and ``hash`` over the fields of records of one
class, and the repr ``Name(field=value, ...)``.  ``replace`` builds a changed
copy through the class's ``__init__``, so the copy is checked again.

Records do not use ``dataclasses`` because a CLI command pays for it at
every start: importing it loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, 8-14 ms on a 2-core Xeon VM, and each decorated class then
builds its methods with ``exec``, 1.0-1.6 ms a class, and a command loads up
to 13 of them.  Record reads each class's annotations once and builds
nothing.  Fields are set with ``object.__setattr__`` and read with ``getattr``, never
through ``__dict__``: reading an instance's ``__dict__`` moves its attributes
out of their inline storage, and each later read of a field then takes about
twice as long.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """A class's own checks, run once its fields are set."""

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> list:
        """Each field's value, in order: given by position or keyword, or its default."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in given:
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            given[name] = value
        for name in fields:
            if name not in given:
                if name not in cls.__dict__:
                    raise TypeError(f"{cls.__name__} is missing the field {name!r}")
                default = cls.__dict__[name]
                # a mutable default is copied, so no two records share it
                given[name] = default.copy() if isinstance(default, (dict, list, set)) else default
        return [given[name] for name in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is frozen")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(record: Record, **changes) -> Record:
    """record with changes, built through its class's __init__, so checked again."""
    values = [changes.pop(name, getattr(record, name)) for name in record._fields]
    if changes:
        raise TypeError(f"{type(record).__name__} has no field {next(iter(changes))!r}")
    return type(record)(*values)
