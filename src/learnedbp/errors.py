"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""

import numpy as np


class LearnedBpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LearnedBpError):
    """Invalid configuration: bad geometry, parameters, or config files."""


class ShapeMismatchError(LearnedBpError):
    """Arrays with inconsistent shapes were combined."""


class FormatError(LearnedBpError):
    """A file's contents do not conform to its declared format."""


class DivergenceError(LearnedBpError):
    """Training produced a non-finite loss."""


def checked_array(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a C-contiguous float64 array of ``shape`` whose entries
    are all finite; a ``None`` in ``shape`` stands for any positive length.

    Raises ShapeMismatchError naming the array as ``what`` otherwise.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != len(shape) or any(
        got < 1 if want is None else got != want for got, want in zip(values.shape, shape)
    ):
        expected = "(" + ", ".join("*" if want is None else str(want) for want in shape) + ")"
        raise ShapeMismatchError(f"{what} shape {values.shape} does not match {expected}")
    if not np.all(np.isfinite(values)):
        raise ShapeMismatchError(f"{what} must be finite")
    return values
