"""Datasheet-level device models and RU/UE chain builders.

Each device spec converts to a :class:`~wastefactor.core.Stage` plus an
optional non-path power term through :func:`stage_of`:

* passives (mixer, phase shifter, attenuator): W equals the loss, G = 1/L
* antenna: W is the reciprocal of the overall efficiency; its stage gain
  is the efficiency itself, never the directive gain (that belongs to the
  effective channel, see :mod:`wastefactor.channel`)
* actives: W = (P_DC + P_in)/P_out; a PA parameterized by PAE gives
  W = 1/PAE
* DAC: W = 1/efficiency at unit gain
* ADC: off the signal path entirely; its consumption FoM * f_s * 2^bits
  is reported as non-path power and the stage is an ideal wire

Quiescent or standby draw of amplifiers is likewise non-path: an idle
device never gets W = infinity, it gets a non-path watt count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch
from typing import NamedTuple, Union

from .core import Stage, cascade
from .units import db_to_linear, require_finite


def reflection_coefficient(vswr: float) -> float:
    """|Gamma| from VSWR: (VSWR - 1)/(VSWR + 1)."""
    if vswr < 1.0:
        raise ValueError(f"VSWR must be >= 1, got {vswr}")
    return (vswr - 1.0) / (vswr + 1.0)


def mismatch_loss_db(vswr: float) -> float:
    """Power lost to reflection, -10 log10(1 - |Gamma|^2), in dB."""
    gamma = reflection_coefficient(vswr)
    return -10.0 * math.log10(1.0 - gamma * gamma)


def return_loss_db(vswr: float) -> float:
    """Return loss -20 log10(|Gamma|); infinite for a perfect match."""
    gamma = reflection_coefficient(vswr)
    if gamma == 0.0:
        return math.inf
    return -20.0 * math.log10(gamma)


@dataclass(frozen=True)
class Mixer:
    """Passive mixer; the LO driving it is accounted separately as non-path."""

    conversion_loss_db: float
    insertion_loss_db: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.conversion_loss_db < 0.0 or self.insertion_loss_db < 0.0:
            raise ValueError("mixer losses must be >= 0 dB")


@dataclass(frozen=True)
class PhaseShifter:
    """Passive phase shifter: insertion plus reflection loss on the path.

    ``reflection_loss_db`` is summed into the stage loss exactly as given.
    Callers holding only a VSWR can derive a physically-interpreted value
    via :func:`mismatch_loss_db`; the ``vswr`` field itself is recorded
    but not used in the conversion.
    """

    insertion_loss_db: float
    reflection_loss_db: float = 0.0
    vswr: float | None = None

    def __post_init__(self) -> None:
        require_finite(self)
        if self.insertion_loss_db < 0.0 or self.reflection_loss_db < 0.0:
            raise ValueError("phase shifter losses must be >= 0 dB")
        if self.vswr is not None and self.vswr < 1.0:
            raise ValueError(f"VSWR must be >= 1, got {self.vswr}")


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


@dataclass(frozen=True)
class PowerAmplifier:
    """PA from either a PAE datasheet figure or explicit DC/in/out powers."""

    pae: float | None = None
    gain_db: float | None = None
    p_dc_w: float | None = None
    p_in_w: float | None = None
    p_out_w: float | None = None
    quiescent_w: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        by_pae = self.pae is not None
        powers = (self.p_dc_w, self.p_in_w, self.p_out_w)
        by_power = any(p is not None for p in powers)
        if by_pae == by_power:
            raise ValueError(
                "specify a PA either by (pae, gain_db) or by (p_dc_w, p_in_w, p_out_w)"
            )
        if by_pae:
            if not 0.0 < self.pae <= 1.0:
                raise ValueError(f"PAE must be in (0, 1], got {self.pae}")
            if self.gain_db is None:
                raise ValueError("PAE-specified PA requires gain_db")
        else:
            if any(p is None for p in powers):
                raise ValueError("power-specified PA requires p_dc_w, p_in_w and p_out_w")
            if self.p_dc_w <= 0.0 or self.p_in_w <= 0.0 or self.p_out_w <= 0.0:
                raise ValueError("PA powers must be > 0 W")
            if self.p_out_w >= self.p_dc_w + self.p_in_w:
                raise ValueError(
                    "P_out >= P_DC + P_in implies W < 1, which is unphysical"
                )
        if self.quiescent_w < 0.0:
            raise ValueError("quiescent power must be >= 0 W")


@dataclass(frozen=True)
class Lna:
    """Low-noise amplifier; by default an ideal W = 1 stage.

    The figure-of-merit variant evaluates W = G/(FoM * SNR_in * P_an)
    where P_an is the amplifier's additive noise power, given directly or
    derived as (F - 1) * G * N_in from a noise factor and input noise.
    """

    gain_db: float
    fom: float | None = None
    snr_in: float | None = None
    p_additive_noise_w: float | None = None
    noise_factor: float | None = None
    input_noise_w: float | None = None
    quiescent_w: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.quiescent_w < 0.0:
            raise ValueError("quiescent power must be >= 0 W")
        if self.fom is None:
            return
        if self.fom <= 0.0:
            raise ValueError(f"LNA figure of merit must be > 0, got {self.fom}")
        if self.snr_in is None or self.snr_in <= 0.0:
            raise ValueError("FoM-based LNA requires snr_in > 0")
        if self.p_additive_noise_w is None:
            if self.noise_factor is None or self.input_noise_w is None:
                raise ValueError(
                    "FoM-based LNA requires p_additive_noise_w, or noise_factor "
                    "with input_noise_w"
                )
            if self.noise_factor <= 1.0 or self.input_noise_w <= 0.0:
                raise ValueError("need noise_factor > 1 and input_noise_w > 0")


@dataclass(frozen=True)
class Dac:
    """DAC at unit gain; W is the reciprocal of the datasheet power efficiency."""

    efficiency: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"DAC efficiency must be in (0, 1], got {self.efficiency}")


@dataclass(frozen=True)
class Adc:
    """ADC: consumption FoM * f_s * 2^bits, treated entirely as non-path power."""

    fom_j: float
    sample_rate_hz: float
    bits: int

    def __post_init__(self) -> None:
        require_finite(self)
        if self.fom_j < 0.0:
            raise ValueError("ADC figure of merit must be >= 0 J/step")
        if self.sample_rate_hz <= 0.0:
            raise ValueError("ADC sample rate must be > 0 Hz")
        if self.bits < 1:
            raise ValueError(f"ADC resolution must be >= 1 bit, got {self.bits}")

    @property
    def power_w(self) -> float:
        return self.fom_j * self.sample_rate_hz * (2.0 ** self.bits)


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


@dataclass(frozen=True)
class GenericPassive:
    """Any passive element defined by its loss."""

    loss_db: float

    def __post_init__(self) -> None:
        require_finite(self)
        if self.loss_db < 0.0:
            raise ValueError(f"passive loss must be >= 0 dB, got {self.loss_db}")


DeviceSpec = Union[
    Mixer,
    PhaseShifter,
    Antenna,
    PowerAmplifier,
    Lna,
    Dac,
    Adc,
    GenericActive,
    GenericPassive,
]


class ConvertedDevice(NamedTuple):
    stage: Stage
    non_path_w: float


@singledispatch
def stage_of(spec) -> ConvertedDevice:
    """Convert a device spec into its Stage and non-path power."""
    raise TypeError(f"not a device spec: {type(spec).__name__}")


@stage_of.register
def _(spec: Mixer) -> ConvertedDevice:
    loss_db = spec.conversion_loss_db + spec.insertion_loss_db
    return ConvertedDevice(Stage.from_loss_db(loss_db, "mixer"), 0.0)


@stage_of.register
def _(spec: PhaseShifter) -> ConvertedDevice:
    loss_db = spec.insertion_loss_db + spec.reflection_loss_db
    return ConvertedDevice(Stage.from_loss_db(loss_db, "phase_shifter"), 0.0)


@stage_of.register
def _(spec: Antenna) -> ConvertedDevice:
    efficiency = spec.radiation_efficiency
    if spec.include_mismatch:
        gamma = reflection_coefficient(spec.vswr)
        efficiency *= 1.0 - gamma * gamma
    return ConvertedDevice(Stage(w=1.0 / efficiency, g=efficiency, label="antenna"), 0.0)


@stage_of.register
def _(spec: PowerAmplifier) -> ConvertedDevice:
    if spec.pae is not None:
        stage = Stage(w=1.0 / spec.pae, g=db_to_linear(spec.gain_db), label="pa")
    else:
        stage = Stage(
            w=(spec.p_dc_w + spec.p_in_w) / spec.p_out_w,
            g=spec.p_out_w / spec.p_in_w,
            label="pa",
        )
    return ConvertedDevice(stage, spec.quiescent_w)


@stage_of.register
def _(spec: Lna) -> ConvertedDevice:
    gain = db_to_linear(spec.gain_db)
    if spec.fom is None:
        w = 1.0
    else:
        p_an = spec.p_additive_noise_w
        if p_an is None:
            p_an = (spec.noise_factor - 1.0) * gain * spec.input_noise_w
        w = gain / (spec.fom * spec.snr_in * p_an)
        if w < 1.0:
            raise ValueError(
                f"FoM-based LNA parameters give W = {w:.4g} < 1; "
                "check fom/snr_in/noise values"
            )
    return ConvertedDevice(Stage(w=w, g=gain, label="lna"), spec.quiescent_w)


@stage_of.register
def _(spec: Dac) -> ConvertedDevice:
    return ConvertedDevice(Stage(w=1.0 / spec.efficiency, g=1.0, label="dac"), 0.0)


@stage_of.register
def _(spec: Adc) -> ConvertedDevice:
    return ConvertedDevice(Stage(w=1.0, g=1.0, label="adc"), spec.power_w)


@stage_of.register
def _(spec: GenericActive) -> ConvertedDevice:
    stage = Stage(
        w=(spec.p_dc_w + spec.p_in_w) / spec.p_out_w,
        g=spec.p_out_w / spec.p_in_w,
        label="active",
    )
    return ConvertedDevice(stage, spec.quiescent_w)


@stage_of.register
def _(spec: GenericPassive) -> ConvertedDevice:
    return ConvertedDevice(Stage.from_loss_db(spec.loss_db, "passive"), 0.0)


def pae_from_walker(pae2: float, p_in_w: float, p_dc_w: float, gain: float) -> float:
    """PA waste factor from Walker's PAE#2 = (P_out - P_in)/P_DC.

    W = (1/PAE#2) * (1 + P_in/P_DC) * (1 - 1/G) with linear gain G. For
    G <= 1 the last factor would drive W below 1, which is unphysical.
    """
    if not 0.0 < pae2 <= 1.0:
        raise ValueError(f"PAE#2 must be in (0, 1], got {pae2}")
    if p_in_w <= 0.0 or p_dc_w <= 0.0:
        raise ValueError("PA powers must be > 0 W")
    if gain <= 1.0:
        raise ValueError(f"Walker's relation needs linear gain > 1, got {gain}")
    return (1.0 / pae2) * (1.0 + p_in_w / p_dc_w) * (1.0 - 1.0 / gain)


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
        require_finite(self)
        if self.n_tx < 1:
            raise ValueError(f"n_tx must be >= 1, got {self.n_tx}")
        if self.lo_power_w < 0.0:
            raise ValueError("LO power must be >= 0 W")


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
        require_finite(self)
        if self.n_rx < 1:
            raise ValueError(f"n_rx must be >= 1, got {self.n_rx}")
        if self.lo_power_w < 0.0:
            raise ValueError("LO power must be >= 0 W")


# The first two RU devices (DAC, mixer) feed all n_tx transmit chains.
_RU_SHARED_DEVICES = 2


def ru_devices(spec: RuSpec) -> tuple[DeviceSpec, ...]:
    """The RU's devices source first: DAC > mixer > PS > PA > antenna."""
    return (spec.dac, spec.mixer, spec.phase_shifter, spec.pa, spec.antenna)


def build_ru(spec: RuSpec) -> ConvertedDevice:
    """Composite RU stage: identical parallel transmit chains collapse, so the
    result equals the plain source-first cascade of :func:`ru_devices`.
    Per-chain non-path contributions scale with n_tx."""
    devices = [stage_of(device) for device in ru_devices(spec)]
    stage = cascade([device.stage for device in devices], label="ru")
    shared = devices[:_RU_SHARED_DEVICES]
    per_chain = devices[_RU_SHARED_DEVICES:]
    non_path = (
        sum(device.non_path_w for device in shared)
        + spec.n_tx * sum(device.non_path_w for device in per_chain)
        + spec.lo_power_w
    )
    return ConvertedDevice(stage, non_path)


def build_ue(spec: UeSpec) -> ConvertedDevice:
    """Composite UE stage: antenna > LNA > PS chains into mixer; the ADC adds
    only non-path power (its stage is an ideal wire)."""
    antenna = stage_of(spec.antenna)
    lna = stage_of(spec.lna)
    ps = stage_of(spec.phase_shifter)
    mixer = stage_of(spec.mixer)
    stages = [antenna.stage, lna.stage, ps.stage, mixer.stage]
    adc_non_path = 0.0
    if spec.adc is not None:
        adc = stage_of(spec.adc)
        stages.append(adc.stage)
        adc_non_path = adc.non_path_w
    stage = cascade(stages, label="ue")
    non_path = (
        spec.n_rx * (antenna.non_path_w + lna.non_path_w + ps.non_path_w)
        + mixer.non_path_w
        + adc_non_path
        + spec.lo_power_w
    )
    return ConvertedDevice(stage, non_path)


def end_to_end(ru: Stage, channel: Stage, ue: Stage) -> Stage:
    """Whole-link waste factor: RU, wireless channel, UE in cascade."""
    return cascade([ru, channel, ue], label="system")


def reference_ru_spec(include_mismatch: bool = True) -> RuSpec:
    """RU built from the reference hardware parameter table."""
    return RuSpec(
        dac=Dac(efficiency=0.91),
        mixer=Mixer(conversion_loss_db=8.2),
        phase_shifter=PhaseShifter(
            insertion_loss_db=3.5, reflection_loss_db=14.0, vswr=1.5
        ),
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
