"""Propagation: close-in path-loss model and its band presets, aperture
antenna gain and the simulator's apertures, and the effective-channel stage.

The wireless channel is a passive stage whose waste factor equals its
effective path loss: the close-in model loss referenced to 1 m, minus
the endpoint antenna gains. A link whose gains exceed its loss would
imply W < 1; such stages clamp to the W = 1 floor with a warning. The
simulator's drop kernel evaluates the same law in linear units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import Stage
from .units import require_finite

SPEED_OF_LIGHT_M_S = 3.0e8
THERMAL_NOISE_DBM_PER_HZ = -174.0  # 290 K reference


def _require_hz(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0 Hz, got {value}")


def _in_float_range(frequency_hz: float, quantity: str, value: float) -> float:
    if not 0.0 < value < math.inf:  # a finite frequency far from 1 Hz can take it out
        raise ValueError(f"frequency_hz = {frequency_hz} takes the {quantity} out of float range, "
                         f"got {value}")
    return value


def fspl_1m_db(frequency_hz: float) -> float:
    """Free-space path loss at the 1 m close-in anchor: 20 log10(4 pi f / c)."""
    _require_hz("frequency_hz", frequency_hz)
    ratio = 4.0 * math.pi * frequency_hz / SPEED_OF_LIGHT_M_S
    return 20.0 * math.log10(_in_float_range(frequency_hz, "ratio 4 pi f / c", ratio))


@dataclass(frozen=True)
class PathLossModel:
    """Close-in free-space reference model. The reference distance is
    fixed at 1 m, where the loss equals the free-space loss. ``sigma_db``
    is the spread of a band's log-normal shadowing, which it never draws."""

    frequency_hz: float
    ple: float
    sigma_db: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.frequency_hz <= 0.0:
            raise ValueError(f"frequency must be > 0 Hz, got {self.frequency_hz}")
        if self.ple <= 0.0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.ple}")
        if self.sigma_db < 0.0:
            raise ValueError(f"shadowing sigma must be >= 0 dB, got {self.sigma_db}")


# Omnidirectional LOS close-in parameters per carrier band.
BAND_PRESETS: dict[float, PathLossModel] = {
    f: PathLossModel(f, ple, sigma_db)
    for f, ple, sigma_db in ((3.5e9, 1.82, 4.89), (17.0e9, 2.00, 6.60), (28.0e9, 2.02, 8.98))
}


def band_preset(frequency_hz: float) -> PathLossModel:
    """The ``BAND_PRESETS`` model of a carrier; one without fails naming the bands."""
    if frequency_hz not in BAND_PRESETS:
        bands = ", ".join(f"{f/1e9:g} GHz" for f in sorted(BAND_PRESETS))
        raise ValueError(
            f"no path-loss preset for {frequency_hz/1e9:g} GHz; the band presets cover {bands}")
    return BAND_PRESETS[frequency_hz]


def path_loss_db(model: PathLossModel, distance_m: float, shadow_db: float = 0.0) -> float:
    """CI path loss FSPL(1 m) + 10 n log10(d) + shadowing.

    Distances in [0, 1) m clamp to the 1 m anchor; a negative or non-finite
    one fails. The shadowing term is a caller-provided draw.
    """
    if not 0.0 <= distance_m < math.inf:
        raise ValueError(f"distance_m must be finite and >= 0, got {distance_m}")
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


# Fixed physical apertures: 1 m x 1 m at the BS, 3 cm x 3 cm at the UE,
# 80% efficient at every band.
BS_APERTURE = ApertureAntenna(efficiency=0.8, physical_area_m2=1.0)
UE_APERTURE = ApertureAntenna(efficiency=0.8, physical_area_m2=9.0e-4)


def aperture_gain_db(antenna: ApertureAntenna, frequency_hz: float) -> float:
    """Directive gain 10 log10(4 pi eta A_p / lambda^2)."""
    _require_hz("frequency_hz", frequency_hz)
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    squared = _in_float_range(frequency_hz, "squared wavelength", wavelength * wavelength)
    gain = 4.0 * math.pi * antenna.effective_aperture_m2 / squared
    return 10.0 * math.log10(_in_float_range(frequency_hz, "aperture gain", gain))


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
        warnings.warn(f"effective channel loss {effective_db:.2f} dB < 0 dB; "
                      "clamping waste factor to 1", stacklevel=2)
    return Stage.from_loss_db(max(effective_db, 0.0), label=label)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Receiver noise floor: -174 dBm/Hz + 10 log10(BW) + NF."""
    _require_hz("bandwidth_hz", bandwidth_hz)
    if not math.isfinite(noise_figure_db):
        raise ValueError(f"noise_figure_db must be finite, got {noise_figure_db}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
