"""Exception hierarchy for the reproduction library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised when the simulator is used incorrectly.

    Example: scheduling an event in the past.
    """


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class TopologyError(ReproError):
    """Raised when hosts, devices or containers are wired incorrectly."""
