"""INI-style configuration documents for the CLI.

Sections: ``[cascade]``, ``[ru]``, ``[ue]``, ``[channel]``, ``[scenario]``,
``[sweep]``, ``[metrics]``. Keys mirror the spec/scenario field names in
snake_case with units in the suffix (``_db``, ``_dbm``, ``_w``, ``_ghz``,
``_m``, ...). Unknown sections or keys, and non-finite numbers (``nan``,
``inf``), are rejected with their location.

Defaults are not restated here. A key left out of ``[scenario]`` keeps the
:class:`~wastefactor.netsim.Scenario` default, one left out of ``[ru]`` or
``[ue]`` keeps the value of :func:`~wastefactor.components.reference_ru_spec`
or :func:`~wastefactor.components.reference_ue_spec`, and one left out of
``[sweep]`` keeps the :class:`~wastefactor.netsim.CampaignSpec` default, so
empty sections reproduce the reference setup. Each of these four sections is
a key -> field-path table into its dataclass, parsed by the field's type and
applied by one builder, :func:`_override`. ``[sweep]`` owns the grid axes
(frequency, antenna mode, BS count), so ``[scenario]`` has no key for the
fields the grid sets in every cell.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, get_args, get_type_hints

from .core import Stage
from .netsim import CampaignSpec, Scenario, campaign_scenarios
from .units import db_to_linear

if TYPE_CHECKING:
    from .components import RuSpec, UeSpec
    from .metrics import EquipmentReading


class ConfigError(ValueError):
    """Invalid configuration; the message carries the file location."""


_BOOL_VALUES = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value

def _parse_int(raw: str) -> int:
    return int(raw, 10)

def _parse_str(raw: str) -> str:
    return raw.strip()

def _list_parser(parse_item: Callable[[str], Any], empty_message: str) -> Callable[[str], tuple]:
    """Parser of a non-empty comma-separated list of items."""
    def parse(raw: str) -> tuple:
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if not items:
            raise ValueError(empty_message)
        return tuple(parse_item(part) for part in items)

    return parse

def _parse_multiline(raw: str) -> tuple[str, ...]:
    return tuple(line.strip() for line in raw.splitlines() if line.strip())


_PARSER_BY_TYPE: dict[Any, Callable[[str], Any]] = {
    float: _parse_float,
    int: _parse_int,
    bool: _parse_bool,
    str: _parse_str,
    tuple[float, ...]: _list_parser(_parse_float, "expected a comma-separated list of numbers"),
    tuple[int, ...]: _list_parser(_parse_int, "expected a comma-separated list of integers"),
    tuple[str, ...]: _list_parser(_parse_str, "expected a comma-separated list"),
}


@functools.cache
def _type_hints(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


def _leaf_type(cls: type, path: str) -> type:
    """Type of the field at a dotted path into a dataclass; ``X | None`` reads as X."""
    for name in path.split("."):
        hint = _type_hints(cls)[name]
        args = [arg for arg in get_args(hint) if arg is not type(None)]
        cls = args[0] if len(args) == 1 else hint
    return cls


def _field_keys(cls: type, renames: dict[str, str], without: tuple[str, ...]) -> dict[str, str]:
    """Key -> field of ``cls``: the field's name unless ``renames`` gives
    another; the fields in ``without`` get no key."""
    return {renames.get(f.name, f.name): f.name for f in fields(cls) if f.name not in without}


# Each dataclass-backed section is a key -> field-path table into its
# dataclass; the field's annotation gives the key's parser.
#
# netsim.campaign_scenarios sets these Scenario fields in every grid cell,
# from [sweep] or from the band presets, so [scenario] has no key for them.
_GRID_FIELDS = ("frequency_hz", "antenna_mode", "n_bs", "ple", "sigma_db")
_SCENARIO_KEYS = _field_keys(Scenario, {"bandwidth_hz": "bandwidth_mhz"}, _GRID_FIELDS)
# The campaign's base seed is the base scenario's seed; see campaign_from_config.
_SWEEP_KEYS = _field_keys(
    CampaignSpec,
    {"frequencies_hz": "frequencies_ghz", "n_bs_values": "n_bs", "n_seeds": "seeds"},
    ("base_seed",),
)

# [ru]/[ue] key -> field path into RuSpec/UeSpec.
_RU_KEYS = {
    "dac_efficiency": "dac.efficiency",
    "mixer_conversion_loss_db": "mixer.conversion_loss_db",
    "mixer_insertion_loss_db": "mixer.insertion_loss_db",
    "phase_shifter_insertion_loss_db": "phase_shifter.insertion_loss_db",
    "phase_shifter_reflection_loss_db": "phase_shifter.reflection_loss_db",
    "pa_pae": "pa.pae",
    "pa_gain_db": "pa.gain_db",
    "pa_quiescent_w": "pa.quiescent_w",
    "antenna_efficiency": "antenna.radiation_efficiency",
    "antenna_vswr": "antenna.vswr",
    "include_mismatch": "antenna.include_mismatch",
    "n_tx": "n_tx",
    "lo_power_w": "lo_power_w",
}
_UE_KEYS = {
    "antenna_efficiency": "antenna.radiation_efficiency",
    "antenna_vswr": "antenna.vswr",
    "include_mismatch": "antenna.include_mismatch",
    "lna_gain_db": "lna.gain_db",
    "lna_quiescent_w": "lna.quiescent_w",
    "phase_shifter_insertion_loss_db": "phase_shifter.insertion_loss_db",
    "phase_shifter_reflection_loss_db": "phase_shifter.reflection_loss_db",
    "mixer_conversion_loss_db": "mixer.conversion_loss_db",
    "mixer_insertion_loss_db": "mixer.insertion_loss_db",
    "adc_fom_j": "adc.fom_j",
    "adc_sample_rate_hz": "adc.sample_rate_hz",
    "adc_bits": "adc.bits",
    "n_rx": "n_rx",
    "lo_power_w": "lo_power_w",
}

# Keys whose unit differs from their field's -> factor to the field's unit.
_UNIT_FACTORS = {"bandwidth_mhz": 1e6, "frequencies_ghz": 1e9}


def _parsers(cls: type, keys: dict[str, str]) -> dict[str, Callable[[str], Any]]:
    return {key: _PARSER_BY_TYPE[_leaf_type(cls, path)] for key, path in keys.items()}


# section -> key -> parser. [ru] and [ue] parse by the field types of the
# device specs, so their parsers are built on first use (see _section_schema)
# and a command that reads neither never imports the components module.
_SCHEMA: dict[str, dict[str, Callable[[str], Any]] | None] = {
    "cascade": {
        "source_power_w": _parse_float,
        "stages": _parse_multiline,
    },
    "ru": None,
    "ue": None,
    "channel": {
        "frequency_ghz": _parse_float,
        "ple": _parse_float,
        "distance_m": _parse_float,
        "g_tx_db": _parse_float,
        "g_rx_db": _parse_float,
    },
    "scenario": _parsers(Scenario, _SCENARIO_KEYS),
    "sweep": {
        **_parsers(CampaignSpec, _SWEEP_KEYS),
        # The system command's channel sweep, not the campaign grid.
        "wf_c_db_start": _parse_float,
        "wf_c_db_stop": _parse_float,
        "wf_c_db_step": _parse_float,
    },
    "metrics": {"readings": _parse_multiline},
}


def _section_schema(section: str) -> dict[str, Callable[[str], Any]]:
    schema = _SCHEMA[section]
    if schema is None:
        from .components import RuSpec, UeSpec

        cls, keys = {"ru": (RuSpec, _RU_KEYS), "ue": (UeSpec, _UE_KEYS)}[section]
        schema = _SCHEMA[section] = _parsers(cls, keys)
    return schema


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed and schema-checked configuration."""

    path: Path
    sections: dict[str, dict[str, Any]]

    def get(self, section: str, key: str, default: Any = None) -> Any:
        return self.sections.get(section, {}).get(key, default)

    def has_section(self, section: str) -> bool:
        return section in self.sections


def load_config(path: str | Path) -> ConfigDocument:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with path.open(encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: malformed config: {exc}") from exc
    sections: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(
                f"{path}: unknown section [{section}]; known sections: {known}"
            )
        schema = _section_schema(section)
        values: dict[str, Any] = {}
        for key, raw in parser.items(section):
            if key not in schema:
                known = ", ".join(sorted(schema))
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]; known keys: {known}"
                )
            try:
                values[key] = schema[key](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for {key!r} in [{section}]: {exc}"
                ) from exc
        sections[section] = values
    return ConfigDocument(path=path, sections=sections)


def _override(spec: Any, keys: dict[str, str], values: dict[str, Any]) -> Any:
    """Copy of ``spec`` with each given value, converted to its field's
    unit, set at its key's field path."""
    top: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for key, value in values.items():
        factor = _UNIT_FACTORS.get(key)
        if factor is not None:
            value = tuple(v * factor for v in value) if isinstance(value, tuple) else value * factor
        head, _, leaf = keys[key].partition(".")
        if leaf:
            nested.setdefault(head, {})[leaf] = value
        else:
            top[head] = value
    for head, changes in nested.items():
        top[head] = replace(getattr(spec, head), **changes)
    return replace(spec, **top)


def ru_spec_from_config(doc: ConfigDocument) -> RuSpec:
    """RU spec from [ru]; missing keys keep the reference RU's values."""
    from .components import reference_ru_spec

    try:
        return _override(reference_ru_spec(), _RU_KEYS, doc.sections.get("ru", {}))
    except ValueError as exc:
        raise ConfigError(f"{doc.path}: invalid [ru]: {exc}") from exc


def ue_spec_from_config(doc: ConfigDocument) -> UeSpec:
    """UE spec from [ue]; missing keys keep the reference UE's values."""
    from .components import Adc, reference_ue_spec

    values = doc.sections.get("ue", {})
    try:
        base = reference_ue_spec()
        # The reference UE has no ADC; adc_fom_j adds one with Adc's defaults.
        if "adc_fom_j" in values:
            base = replace(base, adc=Adc(fom_j=values["adc_fom_j"]))
        elif any(key.startswith("adc_") for key in values):
            raise ValueError("adc_sample_rate_hz and adc_bits need adc_fom_j")
        return _override(base, _UE_KEYS, values)
    except ValueError as exc:
        raise ConfigError(f"{doc.path}: invalid [ue]: {exc}") from exc


def scenario_from_config(doc: ConfigDocument, seed_override: int | None = None) -> Scenario:
    """Scenario from [scenario]; missing keys keep the Scenario defaults."""
    values = dict(doc.sections.get("scenario", {}))
    if seed_override is not None:
        values["seed"] = seed_override
    try:
        return _override(Scenario(), _SCENARIO_KEYS, values)
    except ValueError as exc:
        raise ConfigError(f"{doc.path}: invalid [scenario]: {exc}") from exc


def campaign_from_config(
    doc: ConfigDocument,
    seeds_override: int | None = None,
    base_seed_override: int | None = None,
) -> CampaignSpec:
    """Campaign grid from [sweep]; missing keys keep the CampaignSpec defaults.

    The base seed is [scenario] seed unless overridden. Every grid cell is
    built from the configured [scenario] base, so a value that fails in any
    cell, a band without a preset or a seed range past 64 bits is an
    ``invalid [sweep]`` error here, before any drop runs.
    """
    base = scenario_from_config(doc, seed_override=base_seed_override)
    sweep = doc.sections.get("sweep", {})
    values = {key: value for key, value in sweep.items() if key in _SWEEP_KEYS}
    if seeds_override is not None:
        values["seeds"] = seeds_override
    try:
        campaign = _override(CampaignSpec(base_seed=base.seed), _SWEEP_KEYS, values)
        campaign_scenarios(base, campaign)
    except ValueError as exc:
        raise ConfigError(f"{doc.path}: invalid [sweep]: {exc}") from exc
    return campaign


def channel_wf_from_config(doc: ConfigDocument) -> float:
    """Effective channel waste figure (dB) from the [channel] section."""
    from .channel import PathLossModel, path_loss_db
    from .netsim import BAND_PRESETS

    channel = doc.sections.get("channel", {})
    frequency_ghz = channel.get("frequency_ghz")
    # Without a frequency the link sits in the simulator's reference band.
    frequency_hz = Scenario.frequency_hz if frequency_ghz is None else frequency_ghz * 1e9
    ple = channel.get("ple")
    if ple is None:
        if frequency_hz not in BAND_PRESETS:
            raise ConfigError(
                f"{doc.path}: [channel] needs an explicit ple for "
                f"{frequency_hz / 1e9:g} GHz"
            )
        ple = BAND_PRESETS[frequency_hz].ple
    try:
        model = PathLossModel(frequency_hz=frequency_hz, ple=ple)
        pl_db = path_loss_db(model, channel.get("distance_m", 100.0))
    except ValueError as exc:
        raise ConfigError(f"{doc.path}: invalid [channel]: {exc}") from exc
    return max(pl_db - channel.get("g_tx_db", 0.0) - channel.get("g_rx_db", 0.0), 0.0)


# The default 60-120 dB channel sweep takes 60 steps.
_MAX_SWEEP_STEPS = 100_000


def wf_c_sweep_from_config(doc: ConfigDocument) -> list[float]:
    """Channel waste-figure grid for the system sweep.

    Explicit wf_c_db_* keys in [sweep] win; otherwise a [channel] section
    gives a single operating point, and with neither the default 60-120 dB
    grid applies.
    """
    explicit = any(
        doc.get("sweep", key) is not None
        for key in ("wf_c_db_start", "wf_c_db_stop", "wf_c_db_step")
    )
    if not explicit and doc.has_section("channel"):
        return [channel_wf_from_config(doc)]
    start = doc.get("sweep", "wf_c_db_start", 60.0)
    stop = doc.get("sweep", "wf_c_db_stop", 120.0)
    step = doc.get("sweep", "wf_c_db_step", 1.0)
    if step <= 0.0:
        raise ConfigError(f"{doc.path}: wf_c_db_step must be > 0, got {step}")
    if stop < start:
        raise ConfigError(f"{doc.path}: wf_c_db_stop must be >= wf_c_db_start")
    n_steps = (stop - start) / step
    if not n_steps <= _MAX_SWEEP_STEPS:  # checked before the list is built
        raise ConfigError(
            f"{doc.path}: wf_c_db_start, wf_c_db_stop and wf_c_db_step give "
            f"{n_steps:g} steps; the step count must be finite and at most {_MAX_SWEEP_STEPS}"
        )
    return [start + k * step for k in range(int(round(n_steps)) + 1)]


def _key_value_lines(
    doc: ConfigDocument, section: str, option: str, kind: str, known: set[str]
) -> list[tuple[str, dict[str, float]]]:
    """Name and numbers of each ``name key=value ...`` line that
    ``[section] option`` holds; ``kind`` names a line in errors."""
    if not doc.has_section(section):
        raise ConfigError(f"{doc.path}: missing [{section}] section")
    lines = doc.get(section, option)
    if not lines:
        raise ConfigError(f"{doc.path}: [{section}] must define {option!r}")
    parsed = []
    for line in lines:
        name, *tokens = line.split()
        values: dict[str, float] = {}
        for token in tokens:
            key, equals, raw = token.partition("=")
            if not equals:
                raise ConfigError(
                    f"{doc.path}: {kind} {name!r}: expected key=value, got {token!r}"
                )
            if key not in known:
                raise ConfigError(
                    f"{doc.path}: {kind} {name!r}: unknown key {key!r}; "
                    f"known keys: {', '.join(sorted(known))}"
                )
            if key in values:
                raise ConfigError(f"{doc.path}: {kind} {name!r}: repeated key {key!r}")
            try:
                values[key] = _parse_float(raw)
            except ValueError:
                raise ConfigError(
                    f"{doc.path}: {kind} {name!r}: bad number {raw!r} for {key!r}"
                ) from None
        parsed.append((name, values))
    return parsed


def stages_from_config(doc: ConfigDocument) -> tuple[list[Stage], float]:
    """Stage list and source power from [cascade].

    Each line of the ``stages`` value is ``label key=value ...`` with keys
    ``w``/``g`` (linear), ``w_db``/``gain_db``, or ``loss_db`` for a
    passive element.
    """
    known = {"w", "g", "w_db", "gain_db", "loss_db"}
    lines = _key_value_lines(doc, "cascade", "stages", "stage", known)
    source_power_w = doc.get("cascade", "source_power_w", 1.0)
    if source_power_w <= 0.0:
        raise ConfigError(f"{doc.path}: source_power_w must be > 0 W")
    return [_build_stage(doc, label, values) for label, values in lines], source_power_w


def _build_stage(doc: ConfigDocument, label: str, values: dict[str, float]) -> Stage:
    try:
        if "loss_db" in values:
            if len(values) > 1:
                raise ValueError("loss_db cannot be combined with other keys")
            return Stage.from_loss_db(values["loss_db"], label=label)
        w = values.get("w")
        if w is None and "w_db" in values:
            w = db_to_linear(values["w_db"])
        g = values.get("g")
        if g is None and "gain_db" in values:
            g = db_to_linear(values["gain_db"])
        if w is None or g is None:
            raise ValueError("need w (or w_db) and g (or gain_db), or loss_db alone")
        return Stage(w=w, g=g, label=label)
    except ValueError as exc:
        raise ConfigError(f"{doc.path}: stage {label!r}: {exc}") from exc


def readings_from_config(doc: ConfigDocument) -> list[tuple[str, EquipmentReading]]:
    """Named equipment readings from [metrics]: ``name key=value ...`` lines."""
    from .metrics import EquipmentReading

    known = {f.name for f in fields(EquipmentReading)}
    readings = []
    for name, values in _key_value_lines(doc, "metrics", "readings", "reading", known):
        try:
            reading = EquipmentReading(**values)
        except ValueError as exc:
            raise ConfigError(f"{doc.path}: reading {name!r}: {exc}") from exc
        readings.append((name, reading))
    return readings
