"""Exceptions shared across the toolkit.

The CLI maps these onto exit codes: usage errors -> 1, DataError -> 2,
NumericError -> 3.
"""


class BeamsightError(Exception):
    """Base class for toolkit errors."""


class DataError(BeamsightError):
    """Missing, empty, or malformed input data, or an output that cannot be written."""


class NumericError(BeamsightError):
    """Numeric failure during training (non-finite loss or gradients)."""
