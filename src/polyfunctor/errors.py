"""Exception hierarchy shared by all modules.

Domain errors (bad inputs, refused constructions) derive from AlgebraError.
Budget exhaustion is reported separately so callers can distinguish
"inconclusive" from "wrong". InternalCheckError flags a violated internal
identity, which always means an implementation bug; inside the package only
the command line catches it, to report it and exit with its own code.
"""


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
