"""Exception taxonomy shared across the package."""


class DmseError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(DmseError):
    """Cholesky factorization failed even after the jitter retry."""


class SingularCovariance(DmseError):
    """Covariance could not be inverted after jitter."""


class DimMismatch(DmseError):
    """Operand dimensions are inconsistent."""


class InvalidDims(DmseError):
    """A layer or embedding dimension is not a positive integer."""


class ZeroColumn(DmseError):
    """An interaction-embedding column has (numerically) zero norm."""


class NonFiniteGradient(DmseError):
    """A gradient bundle contained NaN or infinity; the update is skipped."""


class DegenerateLabels(DmseError):
    """AUC is undefined because only one class is present."""


class InvalidK(DmseError):
    """Cross-validation fold count is out of range."""


class MalformedHeader(DmseError):
    """CSV header does not follow the sp:/env: column contract."""


class MalformedRow(DmseError):
    """CSV row has the wrong number of fields."""


class NonBinaryPresence(DmseError):
    """A presence cell held something other than 0 or 1."""

    def __init__(self, row: int, col: str, value: str):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"non-binary presence value {value!r} at row {row}, column {col!r}")


class NonFiniteFeature(DmseError):
    """A feature cell was NaN, infinite, or unparseable."""

    def __init__(self, row: int, col: str, value: str):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"non-finite feature value {value!r} at row {row}, column {col!r}")


class ConfigError(DmseError):
    """A run configuration file or override is invalid."""


class CorruptCheckpoint(DmseError):
    """Checkpoint bytes failed magic/version/CRC/shape validation."""
