"""Standards-body energy-efficiency metrics and waste-factor decision aids.

The standard EE ratios (data volume per energy, output energy over total
energy, and their site/network variants) all depend on the traffic load
at which they are measured. The waste factor does not: for fixed
hardware it is constant while EE drifts with the operating point.
:func:`ee_vs_wf_sweep` makes that contrast computable, and
:func:`classify_strategy` encodes the two strategy quadrant charts that
pair W with a rate or consumed-power axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import Stage
from .units import linear_to_db, require_finite


@dataclass(frozen=True)
class EquipmentReading:
    """One steady-state measurement interval of a piece of equipment."""

    p_signal_w: float = 0.0
    p_non_signal_w: float = 0.0
    p_non_path_w: float = 0.0
    data_volume_gb: float | None = None
    duration_h: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self)
        if min(self.p_signal_w, self.p_non_signal_w, self.p_non_path_w) < 0.0:
            raise ValueError("powers must be >= 0 W")
        if self.data_volume_gb is not None and self.data_volume_gb < 0.0:
            raise ValueError("data volume must be >= 0 GB")
        if self.duration_h <= 0.0:
            raise ValueError("duration must be > 0 h")

    @property
    def p_consumed_total_w(self) -> float:
        return self.p_signal_w + self.p_non_signal_w + self.p_non_path_w

    @property
    def energy_wh(self) -> float:
        return self.p_consumed_total_w * self.duration_h

    @property
    def w(self) -> float | None:
        """Waste factor implied by the signal/non-signal split, if measurable."""
        if self.p_signal_w <= 0.0:
            return None
        return (self.p_signal_w + self.p_non_signal_w) / self.p_signal_w


def ee_bs(data_volume_gb: float, energy_wh: float) -> float:
    """Base-station EE: data volume delivered per watt-hour consumed."""
    if energy_wh <= 0.0:
        raise ValueError(f"energy must be > 0 Wh, got {energy_wh}")
    if data_volume_gb < 0.0:
        raise ValueError(f"data volume must be >= 0 GB, got {data_volume_gb}")
    return data_volume_gb / energy_wh


def ee_ru(output_energy_wh: float, total_energy_wh: float) -> float:
    """Radio-unit EE: output energy over total energy consumed."""
    if total_energy_wh <= 0.0:
        raise ValueError(f"total energy must be > 0 Wh, got {total_energy_wh}")
    return output_energy_wh / total_energy_wh


def ee_site(e_bs_wh: float, e_site_wh: float) -> float:
    """Site EE: equipment energy over whole-site energy (cooling, rectifiers...)."""
    if e_site_wh <= 0.0:
        raise ValueError(f"site energy must be > 0 Wh, got {e_site_wh}")
    return e_bs_wh / e_site_wh


def ee_network(useful_output: float, e_network_wh: float) -> float:
    """Network EE: any useful-output measure over network energy."""
    if e_network_wh <= 0.0:
        raise ValueError(f"network energy must be > 0 Wh, got {e_network_wh}")
    return useful_output / e_network_wh


class StrategyFigure(Enum):
    RATE_W = "rate_w"
    POWER_W = "power_w"


class RateStrategy(Enum):
    OPTIMAL = "optimal"
    OPTIMIZE_SCHEDULED_POWER = "optimize_scheduled_power"
    DEPLOY_EFFICIENT_HARDWARE_SMALLER_CELLS = "deploy_efficient_hardware_smaller_cells"
    INCREASE_POWER_BANDWIDTH_CA = "increase_power_bandwidth_ca"


class PowerStrategy(Enum):
    OPTIMAL = "optimal"
    SHUTDOWN_EFFICIENT_COOLING = "shutdown_efficient_cooling"
    OPTIMIZE_SCHEDULED_POWER = "optimize_scheduled_power"
    DEPLOY_EFFICIENT_HARDWARE = "deploy_efficient_hardware"


_RATE_QUADRANTS = {
    (True, False): RateStrategy.OPTIMAL,
    (True, True): RateStrategy.OPTIMIZE_SCHEDULED_POWER,
    (False, True): RateStrategy.DEPLOY_EFFICIENT_HARDWARE_SMALLER_CELLS,
    (False, False): RateStrategy.INCREASE_POWER_BANDWIDTH_CA,
}

_POWER_QUADRANTS = {
    (False, False): PowerStrategy.OPTIMAL,
    (True, False): PowerStrategy.SHUTDOWN_EFFICIENT_COOLING,
    (True, True): PowerStrategy.OPTIMIZE_SCHEDULED_POWER,
    (False, True): PowerStrategy.DEPLOY_EFFICIENT_HARDWARE,
}


def classify_strategy(
    axis1_high: bool, w_high: bool, figure: StrategyFigure
) -> RateStrategy | PowerStrategy:
    """Quadrant lookup. ``axis1_high`` is the rate axis for RATE_W and the
    consumed-power axis for POWER_W; low/high thresholds are the caller's."""
    if figure is StrategyFigure.RATE_W:
        return _RATE_QUADRANTS[(axis1_high, w_high)]
    return _POWER_QUADRANTS[(axis1_high, w_high)]


class EeSweepPoint(NamedTuple):
    p_signal_w: float
    ee_ru: float
    wf_db: float


def ee_vs_wf_sweep(
    ru: Stage, p_non_path_w: float, p_signal_grid_w: list[float]
) -> list[EeSweepPoint]:
    """EE_RU and waste figure across output power levels.

    EE_RU = P/(W*P + P_non_path) rises with load whenever non-path power
    is nonzero; the waste-figure column stays constant. With zero
    non-path power EE collapses to 1/W at every point.
    """
    if not p_signal_grid_w:
        raise ValueError("the signal-power grid must be non-empty")
    for p in p_signal_grid_w:  # NaN fails each range test
        if not 0.0 < p < math.inf:
            raise ValueError(f"grid powers must be > 0 W and finite, got {p}")
    if not 0.0 <= p_non_path_w < math.inf:
        raise ValueError(f"non-path power must be >= 0 W and finite, got {p_non_path_w}")
    wf_db = linear_to_db(ru.w)
    return [
        EeSweepPoint(
            p_signal_w=p,
            ee_ru=p / (ru.w * p + p_non_path_w),
            wf_db=wf_db,
        )
        for p in p_signal_grid_w
    ]
