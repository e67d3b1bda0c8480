"""Exception hierarchy shared across the package. Each class declares the CLI's
exit code for it and the label that starts its stderr line."""


class PidnetError(Exception):
    """Base class for all package errors."""
    exit_code, label = 3, "error"


class InvalidWeight(PidnetError):
    """Edge weight is not strictly positive."""


class InvalidGraph(PidnetError):
    """Malformed graph: bad indices, self-loops or duplicate edges."""


class DisconnectedGraph(PidnetError):
    """Graph is not connected (algebraic connectivity is zero)."""


class DimensionMismatch(PidnetError):
    """Inconsistent dimensions between graph, ensemble or state vectors."""


class SingularEnsemble(PidnetError):
    """Sum of agent poles is zero: no finite consensus value exists."""
    exit_code, label = 4, "numeric failure"


class NotHomogeneous(PidnetError):
    """Operation requires identical agent poles."""


class UnstableAverage(PidnetError):
    """Network-average pole is nonnegative; heterogeneous tuning fails."""
    exit_code, label = 2, "certification failure"


class StepTooLarge(PidnetError):
    """Integration step violates the stability guard in strict mode."""
    exit_code, label = 4, "numeric failure"


class NonFinite(PidnetError):
    """A result left the range or the precision of float64."""
    exit_code, label = 4, "numeric failure"


class TraceTooLarge(PidnetError):
    """Requested trace would exceed the recorded-sample budget."""
    exit_code, label = 4, "numeric failure"


class GraphTooLarge(PidnetError):
    """Config declares more graph nodes than the node budget."""
    exit_code, label = 4, "numeric failure"


class ConfigError(PidnetError):
    """Invalid or unreadable instance configuration."""
    exit_code, label = 3, "config error"
