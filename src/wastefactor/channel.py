"""Propagation: close-in path-loss model, aperture antenna gain, and the
effective-channel stage.

The wireless channel is a passive stage whose waste factor equals its
effective path loss: the close-in model loss referenced to 1 m, minus
the endpoint antenna gains. A link whose gains exceed its loss would
imply W < 1; such stages clamp to the W = 1 floor with a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import Stage
from .units import db_to_linear, require_finite

SPEED_OF_LIGHT_M_S = 3.0e8
THERMAL_NOISE_DBM_PER_HZ = -174.0  # 290 K reference


def fspl_1m_db(frequency_hz: float) -> float:
    """Free-space path loss at the 1 m close-in anchor: 20 log10(4 pi f / c)."""
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be > 0 Hz, got {frequency_hz}")
    return 20.0 * math.log10(4.0 * math.pi * frequency_hz / SPEED_OF_LIGHT_M_S)


@dataclass(frozen=True)
class PathLossModel:
    """Close-in free-space reference model. The reference distance is
    fixed at 1 m, where the loss equals the free-space loss."""

    frequency_hz: float
    ple: float

    def __post_init__(self) -> None:
        require_finite(self)
        if self.frequency_hz <= 0.0:
            raise ValueError(f"frequency must be > 0 Hz, got {self.frequency_hz}")
        if self.ple <= 0.0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.ple}")


def path_loss_db(model: PathLossModel, distance_m: float, shadow_db: float = 0.0) -> float:
    """CI path loss FSPL(1 m) + 10 n log10(d) + shadowing.

    Distances below the 1 m anchor clamp to 1 m. The shadowing term is a
    caller-provided draw (the model itself stays deterministic).
    """
    d = max(distance_m, 1.0)
    return fspl_1m_db(model.frequency_hz) + 10.0 * model.ple * math.log10(d) + shadow_db


@dataclass(frozen=True)
class ApertureAntenna:
    """Fixed-area aperture: gain grows with the square of frequency."""

    efficiency: float
    physical_area_m2: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"aperture efficiency must be in (0, 1], got {self.efficiency}")
        if self.physical_area_m2 <= 0.0:
            raise ValueError(f"aperture area must be > 0 m^2, got {self.physical_area_m2}")

    @property
    def effective_aperture_m2(self) -> float:
        return self.efficiency * self.physical_area_m2


def aperture_gain_db(antenna: ApertureAntenna, frequency_hz: float) -> float:
    """Directive gain 10 log10(4 pi eta A_p / lambda^2)."""
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be > 0 Hz, got {frequency_hz}")
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    return 10.0 * math.log10(
        4.0 * math.pi * antenna.effective_aperture_m2 / (wavelength * wavelength)
    )


def effective_channel(
    pl_db: float, g_tx_db: float = 0.0, g_rx_db: float = 0.0, label: str = "channel"
) -> Stage:
    """Channel stage from path loss minus endpoint antenna gains.

    W = 10^((PL - G_tx - G_rx)/10) and G = 1/W. A negative effective loss
    clamps to the W = 1 floor (the calculus cannot represent net link
    gain) and emits a warning.
    """
    effective_db = pl_db - g_tx_db - g_rx_db
    if effective_db < 0.0:
        warnings.warn(
            f"effective channel loss {effective_db:.2f} dB < 0 dB; "
            "clamping waste factor to 1",
            stacklevel=2,
        )
        effective_db = 0.0
    w = db_to_linear(effective_db)
    return Stage(w=w, g=1.0 / w, label=label)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Receiver noise floor: -174 dBm/Hz + 10 log10(BW) + NF."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be > 0 Hz, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
