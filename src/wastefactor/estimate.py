"""Measurement-based waste-factor estimation.

Total consumed power of a radio unit is linear in its output signal
power: P_total = W * P_signal + P_non_path. An ordinary least-squares
fit of logged (P_signal, P_total) pairs therefore recovers W as the
slope and the non-path power as the intercept, without any knowledge of
the internal hardware.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .units import dbm_to_watts, read_text, require_finite

# Each accepted column: the logged power it holds and whether it is in dBm.
_COLUMNS = {
    "p_signal_w": ("signal", False),
    "p_signal_dbm": ("signal", True),
    "p_total_w": ("total", False),
    "p_total_dbm": ("total", True),
}


@dataclass(frozen=True)
class PowerSample:
    """One logged operating point. Noisy P_total below P_signal is tolerated."""

    p_signal_w: float
    p_total_w: float

    def __post_init__(self) -> None:
        require_finite(self)
        if self.p_signal_w < 0.0 or self.p_total_w < 0.0:
            raise ValueError("logged powers must be >= 0 W")


class WasteFit(NamedTuple):
    """OLS result: slope (the waste factor), intercept (non-path power), fit quality.

    ``physical`` is False when the fit lands in unphysical territory
    (slope < 1 or negative intercept); the numbers are still reported so
    measurement QA stays in the caller's hands.
    """

    w: float
    p_non_path_w: float
    r_squared: float
    n_samples: int
    physical: bool


_TOO_LARGE = "overflows a float; the logged powers are too large to fit"


def fit_waste_factor(samples: Sequence[PowerSample]) -> WasteFit:
    """Least-squares line through (p_signal, p_total) pairs."""
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples to fit, got {n}")
    x = [s.p_signal_w for s in samples]
    y = [s.p_total_w for s in samples]
    x_mean = sum(x) / n
    y_mean = sum(y) / n
    try:
        sxx = sum((xi - x_mean) ** 2 for xi in x)
        if sxx == 0.0:
            raise ValueError("all p_signal values are equal; the slope is undetermined")
        sxy = sum((xi - x_mean) * (yi - y_mean) for xi, yi in zip(x, y))
        slope = sxy / sxx
        intercept = y_mean - slope * x_mean
        ss_res = sum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
        ss_tot = sum((yi - y_mean) ** 2 for yi in y)
    except OverflowError:
        raise ValueError(f"a squared deviation {_TOO_LARGE}") from None
    for quantity, value in (
        ("mean p_signal_w", x_mean),
        ("mean p_total_w", y_mean),
        ("p_signal_w sum of squares", sxx),
        ("slope w", slope),
        ("intercept p_non_path_w", intercept),
        ("residual sum of squares", ss_res),
        ("total sum of squares", ss_tot),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{quantity} = {value} {_TOO_LARGE}")
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res <= 1e-18 else 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return WasteFit(w=slope, p_non_path_w=intercept, r_squared=r_squared, n_samples=n,
                    physical=slope >= 1.0 and intercept >= 0.0)


def _parse_header(fields: Sequence[str], path: Path) -> list[tuple[int, bool]]:
    """The (index, in dBm) pair of the signal column, then of the total column."""
    found = {}
    for idx, name in enumerate(fields):
        key = name.strip().lower()
        if key not in _COLUMNS:
            raise ValueError(f"{path}: unknown column {name!r}; accepted columns are "
                             "p_signal_w|p_signal_dbm and p_total_w|p_total_dbm")
        quantity, in_dbm = _COLUMNS[key]
        if quantity in found:
            raise ValueError(f"{path}: duplicate {quantity}-power column {name!r}")
        found[quantity] = idx, in_dbm
    for quantity in ("signal", "total"):
        if quantity not in found:
            raise ValueError(f"{path}: missing column p_{quantity}_w or p_{quantity}_dbm")
    return [found["signal"], found["total"]]


def load_power_log(path: str | Path) -> list[PowerSample]:
    """Read a power log CSV: header row, optional '#' comment lines.

    Accepted columns: ``p_signal_w`` or ``p_signal_dbm`` and ``p_total_w``
    or ``p_total_dbm``; dBm columns convert to watts on load. Rows are
    preserved in file order. Malformed content raises ValueError naming
    the offending line.
    """
    path = Path(path)
    rows = []
    # newline="": the csv reader sees line breaks as it would in the open file.
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        for row in reader:
            if any(cell.strip() for cell in row) and not row[0].lstrip().startswith("#"):
                rows.append((reader.line_num, row))
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file (no header row)")
    (_, header), data = rows[0], rows[1:]
    columns = _parse_header(header, path)
    if not data:
        raise ValueError(f"{path}: no data rows after the header")
    samples = []
    for line_no, row in data:
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(row)}")
            # Both cells parse before either converts.
            cells = [(_parse_cell(row[idx], header[idx]), in_dbm) for idx, in_dbm in columns]
            signal, total = (dbm_to_watts(v) if in_dbm else v for v, in_dbm in cells)
            samples.append(PowerSample(p_signal_w=signal, p_total_w=total))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return samples


def _parse_cell(cell: str, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"non-numeric value {cell!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r} in column {column!r}")
    return value
