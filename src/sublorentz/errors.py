"""Exception types shared across the library."""


class SubLorentzError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(SubLorentzError):
    """Operands live in spaces of different dimensions."""


class NegativeAntinormError(SubLorentzError):
    """The antinorm takes negative values on its cone."""


class NotPointedError(SubLorentzError):
    """The cone contains a line, so no strictly positive covector exists."""


class InvalidPointError(SubLorentzError):
    """A point violates the group model's domain (e.g. hyperbolic y <= 0)."""


class UnsupportedStepError(SubLorentzError):
    """Nilpotency step exceeds the hardcoded BCH truncation order."""


class NotExactError(SubLorentzError):
    """The time form admits no potential on this model."""


class StalledParameterError(SubLorentzError):
    """The time form vanishes on a path segment of positive measure."""


class UnboundedSectionError(SubLorentzError):
    """The unit-time slice of the cone is unbounded."""


class WrongModelError(SubLorentzError):
    """Operation requires a different group model."""


class ConfigError(SubLorentzError):
    """A run configuration failed schema validation.

    ``field`` carries a dotted path to the offending entry when known.
    """

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
