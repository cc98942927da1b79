"""Exception hierarchy and record base shared by all modules.

Domain errors (bad inputs, refused constructions) derive from AlgebraError.
Budget exhaustion is reported separately so callers can distinguish
"inconclusive" from "wrong". InternalCheckError flags a violated internal
identity, which always means an implementation bug; inside the package only
the command line catches it, to report it and exit with its own code.
Record is the base of every plain-data class in the package.
"""

from operator import attrgetter


def _refuse(record, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


class Record:
    """Base of the package's data classes.  The fields are the annotations,
    bases' first, and a class attribute of a field's name is its default.  A
    record takes its fields by position or keyword, then runs __post_init__
    (if any); it equals the records of its class with equal fields and prints
    as Name(field=value, ...).  A class made with frozen=True, and its
    subclasses, refuse assignment and deletion and hash as the field tuple;
    other records are unhashable.  Fields are read once per class, and every
    class shares these methods."""

    _fields, _defaults, _has_post_init = (), {}, False

    def __init_subclass__(cls, frozen=False):
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields = fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        cls._has_post_init = hasattr(cls, "__post_init__")
        # attrgetter of one name returns the bare value, of none fails
        get = attrgetter(*fields) if fields else lambda record: ()
        cls._values = staticmethod(get if len(fields) != 1 else lambda record: (get(record),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = Record._hash

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):  # in field order, so instances share dict keys
            object.__setattr__(self, name, value)
        if self._has_post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call with keywords, defaults or a wrong count."""
        try:
            values = [*args, *(kwargs.pop(n) if n in kwargs else cls._defaults[n] for n in cls._fields[len(args):])]
        except KeyError as missing:
            raise TypeError(f"{cls.__name__}() missing field {missing}") from None
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {cls._fields}, got {len(args)} values and {sorted(kwargs)}")
        return values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def _hash(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


class AlgebraError(Exception):
    """Base class for domain errors raised on invalid inputs."""


class FieldMismatchError(AlgebraError):
    pass


class RingMismatchError(AlgebraError):
    pass


class CharacteristicError(AlgebraError):
    """Raised when a construction is refused in the current characteristic."""


class DirectionError(AlgebraError):
    """Raised when a direction vector does not lie in the declared subspace."""


class SubstitutionError(AlgebraError):
    pass


class PresentationError(AlgebraError):
    """Invalid variety presentation or proof-step input."""


class BadDirectionChoiceError(AlgebraError):
    """The chosen direction gives a derivative that vanishes on the base;
    the caller should pick another direction."""


class BudgetExceededError(Exception):
    """A step-budgeted computation ran out of budget; result is inconclusive."""


class CertificateNotFoundError(Exception):
    """No unit minor was found within budget; elimination is inconclusive."""


class ParseError(AlgebraError):
    """Syntax error in a text input; carries the offending position."""

    def __init__(self, message: str, position: int, text: str = ""):
        self.position = position
        self.text = text
        super().__init__(f"{message} (at position {position})")


class InternalCheckError(RuntimeError):
    """An internal identity that must hold by construction failed."""
