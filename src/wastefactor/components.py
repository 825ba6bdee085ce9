"""Datasheet-level device models and RU/UE chain builders.

Each device spec converts itself once, when it is built: its
``converted`` is a :class:`~wastefactor.core.Stage` plus an optional
non-path power term. Construction checks the fields and then converts, so
a spec that constructs always converts:

* passives (mixer, phase shifter, attenuator): W equals the loss, G = 1/L
* antenna: W is the reciprocal of the overall efficiency; its stage gain
  is the efficiency itself, never the directive gain (that belongs to the
  effective channel, see :mod:`wastefactor.channel`)
* PA: given by its datasheet PAE and gain, W = 1/PAE and G = 10^(gain/10)
* LNA: W = 1, or W = G/(FoM * SNR_in * P_an) from its figure of merit
* any other active, or a PA known by its DC draw and signal powers, is a
  ``GenericActive``: W = (P_DC + P_in)/P_out and G = P_out/P_in
* DAC: W = 1/efficiency at unit gain
* ADC: off the signal path entirely; its consumption FoM * f_s * 2^bits
  is reported as non-path power and the stage is an ideal wire

Quiescent or standby draw of amplifiers is likewise non-path: an idle
device never gets W = infinity, it gets a non-path watt count.

A :class:`RuSpec` or :class:`UeSpec`, when built, composes its own
``converted`` from those of :func:`ru_devices` or :func:`ue_devices` by one
chain rule: the stage is the devices' cascade (identical parallel chains
collapse), and the non-path power is the shared devices once, plus the
chain count times the per-chain devices, plus the LO. :func:`build_ru` and
:func:`build_ue` return it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .core import Stage, cascade
from .units import db_to_linear, require_finite, require_integers


def reflection_coefficient(vswr: float) -> float:
    """|Gamma| from VSWR: (VSWR - 1)/(VSWR + 1)."""
    if not 1.0 <= vswr < math.inf:
        raise ValueError(f"vswr must be finite and >= 1, got {vswr}")
    return (vswr - 1.0) / (vswr + 1.0)


def mismatch_loss_db(vswr: float) -> float:
    """Power lost to reflection, -10 log10(1 - |Gamma|^2), in dB."""
    gamma = reflection_coefficient(vswr)
    transmitted = 1.0 - gamma * gamma
    if not transmitted > 0.0:
        raise ValueError(f"vswr {vswr} reflects all the power: |Gamma| rounds to 1")
    return -10.0 * math.log10(transmitted)


class ConvertedDevice(NamedTuple):
    stage: Stage
    non_path_w: float


def _keep(spec, stage: Stage, non_path_w: float = 0.0) -> None:
    """Store ``spec``'s conversion as ``spec.converted``. That is not a
    field: ``==``, ``hash`` and ``repr`` ignore it, and ``replace`` derives
    it anew."""
    spec.__dict__["converted"] = ConvertedDevice(stage, non_path_w)


@dataclass(frozen=True)
class Mixer:
    """Passive mixer; the LO driving it is accounted separately as non-path."""

    conversion_loss_db: float
    insertion_loss_db: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.conversion_loss_db < 0.0 or self.insertion_loss_db < 0.0:
            raise ValueError("mixer losses must be >= 0 dB")
        _keep(self, Stage.from_loss_db(self.conversion_loss_db + self.insertion_loss_db, "mixer"))


@dataclass(frozen=True)
class PhaseShifter:
    """Passive phase shifter: insertion plus reflection loss on the path.

    ``reflection_loss_db`` is summed into the stage loss exactly as given.
    Callers holding only a VSWR can derive a physically-interpreted value
    via :func:`mismatch_loss_db`.
    """

    insertion_loss_db: float
    reflection_loss_db: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.insertion_loss_db < 0.0 or self.reflection_loss_db < 0.0:
            raise ValueError("phase shifter losses must be >= 0 dB")
        loss_db = self.insertion_loss_db + self.reflection_loss_db
        _keep(self, Stage.from_loss_db(loss_db, "phase_shifter"))


@dataclass(frozen=True)
class Antenna:
    """Antenna efficiency model: radiation efficiency and VSWR mismatch.

    W = 1/(eta_rad * (1 - |Gamma|^2)) with mismatch included, else
    1/eta_rad. The stage gain is the efficiency (G = 1/W <= 1); directive
    gain is modeled in the channel to avoid double counting.
    """

    radiation_efficiency: float
    vswr: float = 1.0
    include_mismatch: bool = True

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 < self.radiation_efficiency <= 1.0:
            raise ValueError(
                f"radiation efficiency must be in (0, 1], got {self.radiation_efficiency}"
            )
        if self.vswr < 1.0:
            raise ValueError(f"VSWR must be >= 1, got {self.vswr}")
        efficiency = self.efficiency
        if not efficiency > 0.0:
            raise ValueError(
                f"VSWR {self.vswr} with radiation efficiency {self.radiation_efficiency} "
                "leaves no power to radiate"
            )
        _keep(self, Stage(w=1.0 / efficiency, g=efficiency, label="antenna"))

    @property
    def efficiency(self) -> float:
        """Radiation efficiency, times 1 - |Gamma|^2 when mismatch is included."""
        if not self.include_mismatch:
            return self.radiation_efficiency
        gamma = reflection_coefficient(self.vswr)
        return self.radiation_efficiency * (1.0 - gamma * gamma)


@dataclass(frozen=True)
class PowerAmplifier:
    """PA from its datasheet power-added efficiency and gain."""

    pae: float
    gain_db: float
    quiescent_w: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 < self.pae <= 1.0:
            raise ValueError(f"PAE must be in (0, 1], got {self.pae}")
        if self.quiescent_w < 0.0:
            raise ValueError("quiescent power must be >= 0 W")
        _keep(self, Stage(w=1.0 / self.pae, g=db_to_linear(self.gain_db), label="pa"),
              self.quiescent_w)


@dataclass(frozen=True)
class Lna:
    """Low-noise amplifier; by default an ideal W = 1 stage.

    The figure-of-merit variant evaluates W = G/(FoM * SNR_in * P_an)
    where P_an is the amplifier's additive noise power. A caller holding a
    noise factor F and an input noise N_in passes P_an = (F - 1) * G * N_in.
    """

    gain_db: float
    fom: float | None = None
    snr_in: float | None = None
    p_additive_noise_w: float | None = None
    quiescent_w: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.quiescent_w < 0.0:
            raise ValueError("quiescent power must be >= 0 W")
        if self.fom is None:
            for name in ("snr_in", "p_additive_noise_w"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} needs fom: it sets only the FoM-based LNA")
        else:
            for name in ("fom", "snr_in", "p_additive_noise_w"):
                value = getattr(self, name)
                if value is None or not value > 0.0:
                    raise ValueError(f"FoM-based LNA requires {name} > 0, got {value}")
            if not self.fom * self.snr_in * self.p_additive_noise_w > 0.0:
                raise ValueError("FoM-based LNA: fom * snr_in * p_additive_noise_w underflows to 0")
        gain = db_to_linear(self.gain_db)
        if self.fom is None:
            w = 1.0
        else:
            w = gain / (self.fom * self.snr_in * self.p_additive_noise_w)
            if not 1.0 <= w < math.inf:
                raise ValueError(
                    f"FoM-based LNA parameters give W = {w:.4g}, which must be finite and >= 1; "
                    "check fom/snr_in/p_additive_noise_w"
                )
        _keep(self, Stage(w=w, g=gain, label="lna"), self.quiescent_w)


@dataclass(frozen=True)
class Dac:
    """DAC at unit gain; W is the reciprocal of the datasheet power efficiency."""

    efficiency: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"DAC efficiency must be in (0, 1], got {self.efficiency}")
        _keep(self, Stage(w=1.0 / self.efficiency, g=1.0, label="dac"))


@dataclass(frozen=True)
class Adc:
    """ADC: consumption FoM * f_s * 2^bits, treated entirely as non-path power."""

    fom_j: float
    sample_rate_hz: float = 1.0e9
    bits: int = 10

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if self.fom_j < 0.0:
            raise ValueError("ADC figure of merit must be >= 0 J/step")
        if self.sample_rate_hz <= 0.0:
            raise ValueError("ADC sample rate must be > 0 Hz")
        if self.bits < 1:
            raise ValueError(f"ADC resolution must be >= 1 bit, got {self.bits}")
        # 2.0 ** bits itself raises OverflowError past 1023 bits.
        scale = 2.0 ** self.bits if self.bits <= 1023 else math.inf
        power_w = self.fom_j * self.sample_rate_hz * scale
        if not math.isfinite(power_w):  # NaN too: 0 J times an infinite scale
            raise ValueError(f"ADC consumption FoM * f_s * 2^bits overflows with {self.bits} bits")
        _keep(self, Stage(w=1.0, g=1.0, label="adc"), power_w)


@dataclass(frozen=True)
class GenericActive:
    """Any active element defined by its DC draw and signal in/out powers."""

    p_dc_w: float
    p_in_w: float
    p_out_w: float
    quiescent_w: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.p_dc_w <= 0.0 or self.p_in_w <= 0.0 or self.p_out_w <= 0.0:
            raise ValueError("active device powers must be > 0 W")
        if self.p_out_w >= self.p_dc_w + self.p_in_w:
            raise ValueError("P_out >= P_DC + P_in implies W < 1, which is unphysical")
        if self.quiescent_w < 0.0:
            raise ValueError("quiescent power must be >= 0 W")
        w, g = (self.p_dc_w + self.p_in_w) / self.p_out_w, self.p_out_w / self.p_in_w
        _keep(self, Stage(w=w, g=g, label="active"), self.quiescent_w)


@dataclass(frozen=True)
class GenericPassive:
    """Any passive element defined by its loss."""

    loss_db: float

    def __post_init__(self) -> None:
        require_finite(self)
        _keep(self, Stage.from_loss_db(self.loss_db, "passive"))


def pae_from_walker(pae2: float, p_in_w: float, p_dc_w: float, gain: float) -> float:
    """PA waste factor from Walker's PAE#2 = (P_out - P_in)/P_DC.

    W = (1/PAE#2) * (1 + P_in/P_DC) * (1 - 1/G) with linear gain G. For
    G <= 1 the last factor would drive W below 1, which is unphysical; so
    would arguments on which PAE#2 * P_DC and (G - 1) * P_in, each the
    amplifier's P_out - P_in, disagree.
    """
    for name, value in (("pae2", pae2), ("p_in_w", p_in_w), ("p_dc_w", p_dc_w), ("gain", gain)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not 0.0 < pae2 <= 1.0:
        raise ValueError(f"PAE#2 must be in (0, 1], got {pae2}")
    if p_in_w <= 0.0 or p_dc_w <= 0.0:
        raise ValueError("PA powers must be > 0 W")
    if gain <= 1.0:
        raise ValueError(f"Walker's relation needs linear gain > 1, got {gain}")
    w = (1.0 / pae2) * (1.0 + p_in_w / p_dc_w) * (1.0 - 1.0 / gain)
    if w < 1.0:
        raise ValueError(
            f"W = {w:.4g} < 1: PAE#2 * P_DC = {pae2 * p_dc_w:g} W and (G - 1) * P_in = "
            f"{(gain - 1.0) * p_in_w:g} W disagree, but each is the amplifier's P_out - P_in"
        )
    return w


def _check_radio(spec: RuSpec | UeSpec, chains: str) -> None:
    """The rule of a radio's chain count, named by ``chains``, and LO power."""
    require_finite(spec)
    require_integers(spec)
    n = getattr(spec, chains)
    if n < 1:
        raise ValueError(f"{chains} must be >= 1, got {n}")
    if n > sys.float_info.max:  # it scales powers as a float
        raise ValueError(f"{chains} is too large to scale a power")
    if spec.lo_power_w < 0.0:
        raise ValueError("LO power must be >= 0 W")


@dataclass(frozen=True)
class RuSpec:
    """Radio unit: DAC and mixer feeding n_tx identical (PS, PA, antenna) chains."""

    dac: Dac
    mixer: Mixer
    phase_shifter: PhaseShifter
    pa: PowerAmplifier
    antenna: Antenna
    n_tx: int = 1
    lo_power_w: float = 0.0

    def __post_init__(self) -> None:
        _check_radio(self, "n_tx")
        _build_radio(self, ru_devices(self), range(2, 5), self.n_tx, "ru")


@dataclass(frozen=True)
class UeSpec:
    """User equipment: n_rx identical (antenna, LNA, PS) chains into mixer and ADC."""

    antenna: Antenna
    lna: Lna
    phase_shifter: PhaseShifter
    mixer: Mixer
    adc: Adc | None = None
    n_rx: int = 1
    lo_power_w: float = 0.0

    def __post_init__(self) -> None:
        _check_radio(self, "n_rx")
        _build_radio(self, ue_devices(self), range(0, 3), self.n_rx, "ue")


def ru_devices(spec: RuSpec) -> tuple:
    """The RU's devices source first: DAC > mixer > PS > PA > antenna; the
    last three repeat once per transmit chain."""
    return (spec.dac, spec.mixer, spec.phase_shifter, spec.pa, spec.antenna)


def ue_devices(spec: UeSpec) -> tuple:
    """The UE's devices source first: antenna > LNA > PS > mixer, then the
    ADC when there is one; the first three repeat once per receive chain."""
    devices = (spec.antenna, spec.lna, spec.phase_shifter, spec.mixer)
    return devices if spec.adc is None else devices + (spec.adc,)


def _build_radio(spec: RuSpec | UeSpec, devices: tuple, chain: range, n: int, label: str) -> None:
    """Keep the module docstring's chain rule as ``spec.converted``; ``chain``: per-chain slots."""
    stages = []
    shared = per_chain = 0.0
    for i, device in enumerate(devices):
        stage, non_path_w = device.converted
        stages.append(stage)
        if i in chain:
            per_chain += non_path_w
        else:
            shared += non_path_w
    _keep(spec, cascade(stages, label=label), shared + n * per_chain + spec.lo_power_w)


def build_ru(spec: RuSpec) -> ConvertedDevice:
    """Composite RU stage and non-path power of :func:`ru_devices`, as
    ``spec`` derived them when it was built."""
    return spec.converted


def build_ue(spec: UeSpec) -> ConvertedDevice:
    """Composite UE stage and non-path power of :func:`ue_devices`, as
    ``spec`` derived them when it was built; the ADC adds only non-path
    power (its stage is an ideal wire)."""
    return spec.converted


def end_to_end(ru: Stage, channel: Stage, ue: Stage) -> Stage:
    """Whole-link waste factor: RU, wireless channel, UE in cascade."""
    return cascade([ru, channel, ue], label="system")


def reference_ru_spec(include_mismatch: bool = True) -> RuSpec:
    """RU built from the reference hardware parameter table."""
    return RuSpec(
        dac=Dac(efficiency=0.91),
        mixer=Mixer(conversion_loss_db=8.2),
        phase_shifter=PhaseShifter(insertion_loss_db=3.5, reflection_loss_db=14.0),
        pa=PowerAmplifier(pae=0.48, gain_db=50.0),
        antenna=Antenna(
            radiation_efficiency=0.6, vswr=1.5, include_mismatch=include_mismatch
        ),
    )


def reference_ue_spec(include_mismatch: bool = True) -> UeSpec:
    """UE built from the reference hardware parameter table."""
    return UeSpec(
        antenna=Antenna(
            radiation_efficiency=0.7, vswr=1.5, include_mismatch=include_mismatch
        ),
        lna=Lna(gain_db=20.0),
        phase_shifter=PhaseShifter(insertion_loss_db=6.0),
        mixer=Mixer(conversion_loss_db=6.7),
    )
