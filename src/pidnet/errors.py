"""Exception hierarchy shared across the package."""


class PidnetError(Exception):
    """Base class for all package errors."""


class InvalidWeight(PidnetError):
    """Edge weight is not strictly positive."""


class InvalidGraph(PidnetError):
    """Malformed graph: bad indices, self-loops or duplicate edges."""


class DisconnectedGraph(PidnetError):
    """Graph is not connected (algebraic connectivity is zero)."""


class DegenerateDecomposition(PidnetError):
    """Eigendecomposition failed to reconstruct the Laplacian."""


class DimensionMismatch(PidnetError):
    """Inconsistent dimensions between graph, ensemble or state vectors."""


class SingularEnsemble(PidnetError):
    """Sum of agent poles is zero: no finite consensus value exists."""


class NotHomogeneous(PidnetError):
    """Operation requires identical agent poles."""


class UnstableAverage(PidnetError):
    """Network-average pole is nonnegative; heterogeneous tuning fails."""


class StepTooLarge(PidnetError):
    """Integration step violates the stability guard in strict mode."""


class NonFinite(PidnetError):
    """A result left the range or the precision of float64."""


class TraceTooLarge(PidnetError):
    """Requested trace would exceed the recorded-sample budget."""


class GraphTooLarge(PidnetError):
    """Config declares more graph nodes than the node budget."""


class ConfigError(PidnetError):
    """Invalid or unreadable instance configuration."""
