"""Exception types shared across the package, and the three checks that
define a valid value: ``finite_positive`` for a real setting, ``bounded_int``
for an integer setting and ``finite_array`` for an array. Every container,
config and public function states its invariants through them. NaN passes
a rejecting test such as ``x <= 0.0`` or ``n < 1``, and fails all three.
"""

import math
import operator

import numpy as np


class IngestError(Exception):
    """A file could not be read into a valid in-memory object."""


class ArgumentError(ValueError):
    """An argument violates an operation's precondition."""


class NumericError(ValueError):
    """Numeric input is outside the domain an operation can handle."""


def finite_positive(name: str, value, zero_ok: bool = False) -> float:
    """``value`` as a float, if it is a number (numpy's too, but not a bool)
    that is finite and positive (or zero, with ``zero_ok``); otherwise an
    ``ArgumentError`` naming ``name``."""
    number = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    if not (math.isfinite(number) and (number >= 0.0 if zero_ok else number > 0.0)):
        sign = "non-negative" if zero_ok else "positive"
        raise ArgumentError(f"{name} must be finite and {sign}, got {value!r}")
    return number


def bounded_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int, if it is an integer (numpy's too, but not a bool)
    in ``[low, high]``, with no upper limit when ``high`` is None; otherwise
    an ``ArgumentError`` naming ``name``. Every float fails, NaN included."""
    integral = not isinstance(value, bool) and hasattr(type(value), "__index__")
    if integral:
        number = operator.index(value)
        if number >= low and (high is None or number <= high):
            return number
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ArgumentError(f"{name} must be {'' if integral else 'an integer '}{bound}, got {value!r}")


def finite_array(name: str, values, ndim: int, non_negative: bool = False, keep_float32: bool = False) -> np.ndarray:
    """``values`` as a float64 array (or, with ``keep_float32``, a float32
    array as it is, checked without a widened copy), if it has ``ndim``
    axes, at least one element, and only finite (and, with
    ``non_negative``, no negative) entries; otherwise an ``ArgumentError``
    naming ``name``."""
    if keep_float32 and isinstance(values, np.ndarray) and values.dtype == np.float32:
        array = values
    else:
        array = np.asarray(values, dtype=np.float64)
    if array.ndim != ndim or array.size == 0:
        raise ArgumentError(f"{name} must be a non-empty {ndim}-D array, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise ArgumentError(f"{name} must be finite")
    if non_negative and array.min() < 0.0:
        raise ArgumentError(f"{name} must be non-negative")
    return array
