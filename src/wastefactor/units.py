"""Decibel / linear / power unit conversions.

All arithmetic inside the library happens in linear units (dimensionless
ratios and watts). Decibel forms exist only at I/O boundaries: parsing,
printing, and the convenience accessors on domain types.
"""

from __future__ import annotations

import dataclasses
import functools
import math


def db_to_linear(value_db: float) -> float:
    """Decibel power ratio to linear power ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Linear power ratio (> 0) to decibels."""
    if value <= 0.0:
        raise ValueError(f"linear ratio must be > 0 to express in dB, got {value}")
    return 10.0 * math.log10(value)


def dbm_to_watts(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def watts_to_dbm(value_w: float) -> float:
    if value_w <= 0.0:
        raise ValueError(f"power must be > 0 W to express in dBm, got {value_w}")
    return 10.0 * math.log10(value_w) + 30.0


def dbw_to_watts(value_dbw: float) -> float:
    return 10.0 ** (value_dbw / 10.0)


def watts_to_dbw(value_w: float) -> float:
    if value_w <= 0.0:
        raise ValueError(f"power must be > 0 W to express in dBW, got {value_w}")
    return 10.0 * math.log10(value_w)


@functools.cache
def _float_fields(cls: type) -> tuple[str, ...]:
    # Field types are strings under ``from __future__ import annotations``.
    return tuple(f.name for f in dataclasses.fields(cls) if f.type in ("float", "float | None"))


def require_finite(instance) -> None:
    """Raise ValueError naming the first float field of a dataclass instance
    that holds NaN or infinity; fields set to None pass."""
    for name in _float_fields(type(instance)):
        value = getattr(instance, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
