"""Decibel / linear / power unit conversions.

All arithmetic inside the library happens in linear units (dimensionless
ratios and watts). Decibel forms exist only at I/O boundaries: parsing,
printing, and the convenience accessors on domain types. Text files come
in at one boundary too: :func:`read_text`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pathlib import Path


def _too_large(value: float, unit: str) -> ValueError:
    return ValueError(f"{value} {unit} is too large to convert to linear units")


def db_to_linear(value_db: float) -> float:
    """Decibel power ratio to linear power ratio."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise _too_large(value_db, "dB") from None


def linear_to_db(value: float) -> float:
    """Linear power ratio (> 0) to decibels."""
    if value <= 0.0:
        raise ValueError(f"linear ratio must be > 0 to express in dB, got {value}")
    return 10.0 * math.log10(value)


def dbm_to_watts(value_dbm: float) -> float:
    try:
        return 10.0 ** ((value_dbm - 30.0) / 10.0)
    except OverflowError:
        raise _too_large(value_dbm, "dBm") from None


def read_text(path: Path) -> str:
    """A text file's contents, decoded as UTF-8 with or without a
    byte-order mark. Bytes that are not UTF-8 raise a ValueError that
    names ``<path>:<line>`` of the first of them."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The slice ends at the bad byte, which is never a line break.
        line = len(data[: exc.start + 1].splitlines())
        raise ValueError(
            f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


@functools.cache
def _fields_of_type(cls: type, *types: str) -> tuple[str, ...]:
    # Field types are strings under ``from __future__ import annotations``.
    return tuple(f.name for f in dataclasses.fields(cls) if f.type in types)


def require_finite(instance) -> None:
    """Raise ValueError naming the first float field of a dataclass instance
    that holds NaN or infinity; fields set to None pass."""
    for name in _fields_of_type(type(instance), "float", "float | None"):
        value = getattr(instance, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_integers(instance) -> None:
    """Raise ValueError naming the first int field of a dataclass instance
    that holds no integer; numpy integers pass."""
    for name in _fields_of_type(type(instance), "int"):
        value = getattr(instance, name)
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")

