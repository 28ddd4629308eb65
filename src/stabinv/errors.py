"""Shared exception types, the capped sum that the record budget
projects with, and the immutable-record base of the value classes."""

from operator import attrgetter


class BudgetError(RuntimeError):
    """An operation would exceed a configured size budget."""


def capped_sum(terms, budget: int) -> int:
    """The sum of the terms, added in order, or the first partial sum past
    the budget: a projection over budget stops there, and takes no term
    after it."""
    total = 0
    for term in terms:
        total += term
        if total > budget:
            break
    return total


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidCodeError(ValueError):
    """A bit matrix that is no valid stabilizer code; carries the first
    violated property and the matrix shape."""

    def __init__(self, violation, shape):
        super().__init__(f"invalid code: {violation}")
        self.violation = violation
        self.shape = shape


class Frozen:
    """An immutable record of the fields its class names in __slots__, set
    once, by position or keyword, through this __init__, which a class
    that checks them calls last.  Equal when type and fields are; shown as
    Name(field=value, ...)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__slots__", ()))
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # value has a default, so this takes (self, name)

    def __eq__(self, other):
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setstate__(self, state):  # copy and pickle hand back (__dict__, slots)
        Frozen.__init__(self, **state[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
