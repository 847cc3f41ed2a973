"""Exception types shared across the package."""


class CombisigError(Exception):
    """Base class for all library-specific errors."""


class InstanceFormatError(CombisigError):
    """A JSON document or constructor argument does not describe a valid instance."""


class ZeroMassSignal(CombisigError):
    """Posterior requested for a signal that is sent with probability zero."""


class MissingTabularEntry(CombisigError):
    """A tabular utility has no entry for the queried action."""


class UnsupportedSense(CombisigError):
    """Objective sense not supported for the requested constraint family."""


class UnsupportedCombination(CombisigError):
    """The requested operation does not apply to this instance shape."""


class NonLinearReceiver(CombisigError):
    """Operation requires a linear receiver utility."""


class DimensionTooSmall(CombisigError):
    """Arrangement enumeration needs at least a 1-dimensional ambient simplex."""


class TooLarge(CombisigError):
    """Exhaustive enumeration refused; the instance exceeds the desk-scale guard."""

    def __init__(self, message: str, bound=None):
        super().__init__(message)
        self.bound = bound


class NoPath(CombisigError):
    """The path instance has no source-sink path."""


class IterationCap(CombisigError):
    """An iterative method exceeded its configured iteration budget."""


class OracleContractViolation(CombisigError):
    """An approximation oracle under-delivered its advertised guarantee."""


class ParameterError(CombisigError):
    """A derived numeric parameter failed its validity check."""


class DegenerateBounds(CombisigError):
    """Value bounds are undefined (e.g. the sender utility is identically zero)."""


class PriorDegenerate(CombisigError):
    """Generated prior would be degenerate for the requested dimensions."""


class MissingSolution(CombisigError):
    """A known satisfying assignment is required but absent."""


class CertificateError(CombisigError):
    """An exact certificate failed its recheck: a solver produced a wrong answer."""
