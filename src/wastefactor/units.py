"""Decibel / linear / power unit conversions.

All arithmetic inside the library happens in linear units (dimensionless
ratios and watts). Decibel forms exist only at I/O boundaries: parsing,
printing, and the convenience accessors on domain types.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers


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


def watts_to_dbm(value_w: float) -> float:
    if value_w <= 0.0:
        raise ValueError(f"power must be > 0 W to express in dBm, got {value_w}")
    return 10.0 * math.log10(value_w) + 30.0


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


def record(cls: type) -> type:
    """Give a frozen dataclass an ``__init__`` that stores each field through
    the instance ``__dict__``, where ``dataclass``'s own calls
    ``object.__setattr__`` per field. Apply it above ``@dataclass``. The
    ``__init__`` takes every field in order and does nothing else, so a
    default, an ``init=False`` field or a ``__post_init__`` is refused."""
    fields, missing = dataclasses.fields(cls), dataclasses.MISSING
    for f in fields:
        if not f.init or f.default is not missing or f.default_factory is not missing:
            raise TypeError(f"record {cls.__name__}: field {f.name!r} has a default or init=False")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"record {cls.__name__}: its __post_init__ would not run")
    names = [f.name for f in fields]
    stores = "".join(f"\n    __fields[{name!r}] = {name}" for name in names)
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n    __fields = self.__dict__{stores}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls
