"""Shared argument-validation helpers.

Small, dependency-free checks used across the package so that invalid
parameters fail fast with uniform, greppable error messages.  Every helper
returns the validated (possibly normalised) value so call sites can write
``self.n = require_positive_int(n, "n")``.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Sequence, TypeVar

from .errors import ConfigurationError

T = TypeVar("T")


def require_positive_int(value: int, name: str) -> int:
    """Validate that *value* is an ``int`` >= 1 and return it."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def require_nonnegative_int(value: int, name: str) -> int:
    """Validate that *value* is an ``int`` >= 0 and return it."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def require_int_in_range(value: int, name: str, lo: int, hi: int) -> int:
    """Validate that *value* is an ``int`` in ``[lo, hi]`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if not (lo <= value <= hi):
        raise ConfigurationError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def _require_real(value: float, name: str) -> float:
    """*value* as a float when it is a real number (not ``bool``/``str``)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(
            f"{name} must be a real number, got {type(value).__name__}")
    return float(value)


def require_probability(value: float, name: str) -> float:
    """Validate that *value* is a real number in ``[0, 1]``; return it as
    a float."""
    value = _require_real(value, name)
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return value


def require_loss_rate(value: float, name: str) -> float:
    """Validate that *value* is a real number in ``[0, 1)``; return it as
    a float."""
    value = _require_real(value, name)
    if not (0.0 <= value < 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1), got {value}")
    return value


def require_positive_float(value: float, name: str) -> float:
    """Validate that *value* is a finite real number > 0; return it as a
    float."""
    value = _require_real(value, name)
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be a finite float > 0, got {value}")
    return value


def require_choice(value: T, name: str, choices: Sequence[T]) -> T:
    """Validate that *value* is one of *choices* and return it."""
    if value not in choices:
        raise ConfigurationError(
            f"{name} must be one of {list(choices)!r}, got {value!r}"
        )
    return value

