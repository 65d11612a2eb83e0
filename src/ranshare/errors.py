"""Exception types shared across the package."""


class RanShareError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(RanShareError):
    """A parameter or domain object violates its invariants."""


class InfeasibleConfig(RanShareError):
    """Share configuration cannot be honored (e.g. minimum shares exceed capacity)."""


class DimensionMismatch(RanShareError):
    """Matrix or vector shapes do not match the owning problem instance."""


class UnknownReference(RanShareError):
    """A flow points at an application/element/entity that does not exist."""


class DomainError(RanShareError):
    """A utility function was evaluated outside its domain (log of s <= 0)."""


class NotInterior(RanShareError):
    """An allocation sits on or outside the barrier domain boundary."""


class EmptyInterior(RanShareError):
    """The instance admits no strictly interior point for its free variables."""


class ConfigError(RanShareError):
    """The run configuration is missing or malformed."""
