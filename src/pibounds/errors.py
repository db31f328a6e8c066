"""Exception types shared across the package."""


class PiBoundsError(Exception):
    """Base class for all package-specific errors."""


class ResourceLimitError(PiBoundsError):
    """The request exceeds the configured scan cap or an oracle's supported range."""


class DomainError(PiBoundsError):
    """A bound expression was evaluated outside its mathematical domain."""


class MonotonicityError(PiBoundsError):
    """A scan requires a bound shape (monotone or single-minimum) the expression lacks."""


class CrossoverNotFoundError(PiBoundsError):
    """No crossover threshold exists inside the scanned range."""


class UnknownNameError(PiBoundsError):
    """Lookup of a bound name or claim id failed; the message lists valid options."""
