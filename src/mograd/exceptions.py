"""Error types shared across the package."""


class DataError(ValueError):
    """Malformed or unusable data: bad CSV cells, missing files, broken labels."""


class NumericalError(RuntimeError):
    """A computation produced non-finite values (NaN or infinity)."""
