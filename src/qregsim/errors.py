"""Exception types shared across the library."""


class QregError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(QregError):
    """A matrix required to be Hermitian failed the tolerance check."""


class DimensionMismatch(QregError):
    """Operands have incompatible shapes."""


class IndexOutOfRange(QregError):
    """A cell index lies outside 0..N-1."""


class TooSmall(QregError):
    """A size parameter is below the supported minimum."""


class TooLarge(QregError):
    """A size parameter exceeds the supported maximum."""


class InvalidQuantumNumbers(QregError):
    """(s, m, copy) do not label a valid su(2) sector of the register."""


class OrderingViolated(QregError):
    """Positivity ordering of the bath coefficient matrices is violated."""


class InvalidPartition(QregError):
    """Cluster partition has overlapping or missing indices."""


class NonPositiveXi(QregError):
    """Correlation length must be strictly positive."""


class EmptyModeList(QregError):
    """Microscopic coefficient assembly needs at least one bath mode."""


class NotFinite(QregError):
    """A matrix has a NaN or infinite entry."""


class UnstableStep(QregError):
    """Integrator trace drifted beyond tolerance within a single step."""


class NotSimultaneouslyDiagonalizable(QregError):
    """Cell operators do not admit a common product eigenbasis."""


class InvalidClusterSize(QregError):
    """Cluster size must be even and divide the register size."""


class ConfigError(QregError):
    """Experiment configuration rejected; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class IoError(QregError):
    """Result emission failed."""
