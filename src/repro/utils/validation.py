"""Argument-validation helpers with consistent error messages.

All validators raise ``ValueError`` (or ``TypeError`` for outright wrong
types) with messages that name the offending argument, so failures deep in a
pipeline are attributable.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_fraction",
    "check_array_shape",
    "check_sorted_times",
    "check_finite_rows",
]


def check_positive(value: float, name: str) -> float:
    """Ensure ``value > 0``; return it."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Ensure ``value >= 0``; return it."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Ensure ``0 <= value <= 1``; return it."""
    if not np.isfinite(value) or not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Ensure ``0 < value < 1``; return it."""
    if not np.isfinite(value) or not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def check_array_shape(
    arr: np.ndarray, shape: Tuple[Optional[int], ...], name: str
) -> np.ndarray:
    """Ensure *arr* is an ndarray whose shape matches *shape*.

    ``None`` entries in *shape* act as wildcards.  Returns the array.
    """
    if not isinstance(arr, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(arr)!r}")
    if arr.ndim != len(shape):
        raise ValueError(
            f"{name} must have {len(shape)} dimensions, got shape {arr.shape}"
        )
    for axis, want in enumerate(shape):
        if want is not None and arr.shape[axis] != want:
            raise ValueError(
                f"{name} must have shape {shape} (None = any), got {arr.shape}"
            )
    return arr


def check_sorted_times(times: Sequence[float], name: str = "times") -> np.ndarray:
    """Ensure *times* is a 1-D non-decreasing float array; return it."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {t.shape}")
    if t.size and not np.all(np.diff(t) >= 0):
        raise ValueError(f"{name} must be sorted in non-decreasing order")
    if t.size and not np.all(np.isfinite(t)):
        raise ValueError(f"{name} must be finite")
    return t


def check_finite_rows(X: np.ndarray, name: str = "X") -> None:
    """Ensure every entry of the 2-D array *X* is finite.

    The error names the first row holding a NaN or an infinity.
    """
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{name} row {int(np.argmax(bad))} is not finite")
