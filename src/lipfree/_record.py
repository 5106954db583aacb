"""Frozen record classes with the behaviour of ``@dataclass(frozen=True)``.

``dataclasses`` imports ``inspect`` and generates and compiles six methods
per decorated class, a cost every short ``lipfree`` process paid before
doing any mathematics. ``Record`` reads the fields once per class instead: every
annotation in the class body is a field, in order, and a class attribute of
the same name is its default.
"""


class Record:
    """Base of lipfree's immutable value types.

    Subclasses get a positional-or-keyword ``__init__`` over their fields
    followed by the ``__post_init__`` hook, equality between instances of the
    same class only, the matching hash (a ``TypeError`` when a field holds a
    dict), a ``Name(field=value, ...)`` repr, ``__match_args__`` and
    ``replace``. Assigning or deleting an attribute raises ``AttributeError``;
    ``__post_init__`` may normalise a field with ``object.__setattr__``. A
    ``functools.cached_property`` writes the instance ``__dict__`` directly,
    so it works too, and equality, hash and repr never read it.
    """

    __match_args__: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        inherited = cls.__match_args__
        own = cls.__dict__.get("__annotations__", {})
        fields = inherited + tuple(f for f in own if f not in inherited)
        defaults = dict(cls._defaults)
        defaults.update((f, cls.__dict__[f]) for f in own if f in cls.__dict__)
        first = next((i for i, f in enumerate(fields) if f in defaults), len(fields))
        if any(f not in defaults for f in fields[first:]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls.__match_args__ = fields
        cls._defaults = defaults

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__match_args__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        # one object.__setattr__ per field in field order, never self.__dict__:
        # instances then keep the interpreter's fast attribute layout
        for i, name in enumerate(fields):
            if i < len(args):
                if name in kwargs:
                    raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
                value = args[i]
            elif name in kwargs:
                value = kwargs[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__match_args__)

    def replace(self, **changes):
        """A new record with ``changes`` applied, validated by ``__init__``."""
        values = {f: getattr(self, f) for f in self.__match_args__}
        values.update(changes)
        return type(self)(**values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
