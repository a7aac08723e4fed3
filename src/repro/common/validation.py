"""Small argument-validation helpers.

These helpers raise :class:`repro.common.errors.ConfigurationError` with a
consistent message format, so configuration dataclasses across the code
base validate their fields the same way.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Union

from repro.common.errors import ConfigurationError

Number = Union[int, float]


def _finite(value: Number) -> bool:
    # Integers are always finite (and may be too large for a float).
    return isinstance(value, Integral) or math.isfinite(value)


def check_positive(name: str, value: Number) -> Number:
    """Ensure ``value`` is finite and strictly positive; return it for chaining."""
    if not (value > 0 and _finite(value)):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Ensure ``value`` is finite and >= 0 (NaN fails); return it for chaining."""
    if not (value >= 0 and _finite(value)):
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Ensure ``value`` is an integer (not a bool) and > 0; return it."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_probability(name: str, value: Number) -> Number:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_power_of_two(name: str, value: int) -> int:
    """Ensure ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigurationError(f"{name} must be a positive power of two, got {value!r}")
    return value


