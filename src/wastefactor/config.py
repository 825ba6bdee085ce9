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
a key -> field-path table into its dataclass, derived from its fields by one
rule (:func:`_field_keys`: a field's name, or ``<device>_<field>`` into a
nested device spec, with a few renames and exclusions), parsed by the
field's type and applied by one builder, :func:`_override`. Every error a
value or a spec raises reaches the user as ``<file>: <where>: <error>``
through one boundary, :func:`_invalid`. ``[sweep]`` owns the grid axes
(frequency, antenna mode, BS count), so ``[scenario]`` has no key for the
fields the grid sets in every cell.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import io
import math
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, get_args, get_type_hints

from .channel import PathLossModel, band_preset, effective_channel, path_loss_db
from .core import Stage
from .netsim import CampaignSpec, Scenario, _grid_cells
from .units import db_to_linear, read_text

if TYPE_CHECKING:
    from .components import RuSpec, UeSpec
    from .metrics import EquipmentReading


class ConfigError(ValueError):
    """Invalid configuration; the message carries the file location."""


@contextlib.contextmanager
def _invalid(path: Path, where: str) -> Iterator[None]:
    """Raise a ValueError from the block as ``<path>: <where>: <error>``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {where}: {exc}") from exc


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
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
    """Key -> field path into ``cls``. A field whose type is a dataclass
    gives one key per field of it, ``<field>_<leaf>`` for path
    ``<field>.<leaf>``; any other field gives its name. ``renames`` maps a
    path to another key; the paths in ``without`` get no key."""
    keys = {}
    for f in fields(cls):
        kind = _leaf_type(cls, f.name)
        paths = [f"{f.name}.{g.name}" for g in fields(kind)] if is_dataclass(kind) else [f.name]
        for path in paths:
            if path not in without:
                keys[renames.get(path, path.replace(".", "_"))] = path
    return keys


# Each dataclass-backed section is a key -> field-path table into its
# dataclass; the field's annotation gives the key's parser.
#
# netsim.campaign_scenarios sets these Scenario fields in every grid cell
# from [sweep], so [scenario] has no key for them.
_GRID_FIELDS = ("frequency_hz", "antenna_mode", "n_bs")
_SCENARIO_KEYS = _field_keys(Scenario, {"bandwidth_hz": "bandwidth_mhz"}, _GRID_FIELDS)
# The campaign's base seed is the base scenario's seed; see campaign_from_config.
_SWEEP_KEYS = _field_keys(
    CampaignSpec,
    {"frequencies_hz": "frequencies_ghz", "n_bs_values": "n_bs", "n_seeds": "seeds"},
    ("base_seed",),
)
# [ru]/[ue] keep the short antenna keys, and [ue] sets no FoM-based LNA.
_RADIO_RENAMES = {
    "antenna.radiation_efficiency": "antenna_efficiency",
    "antenna.include_mismatch": "include_mismatch",
}
_RADIO_WITHOUT = ("lna.fom", "lna.snr_in", "lna.p_additive_noise_w")


def _radio_spec(section: str) -> type:
    from .components import RuSpec, UeSpec

    return {"ru": RuSpec, "ue": UeSpec}[section]


@functools.cache
def _radio_keys(section: str) -> dict[str, str]:
    """[ru]/[ue] key -> field path into RuSpec/UeSpec."""
    return _field_keys(_radio_spec(section), _RADIO_RENAMES, _RADIO_WITHOUT)


# Keys whose unit differs from their field's -> factor to the field's unit.
_UNIT_FACTORS = {"bandwidth_mhz": 1e6, "frequencies_ghz": 1e9}


def _parsers(cls: type, keys: dict[str, str]) -> dict[str, Callable[[str], Any]]:
    return {key: _PARSER_BY_TYPE[_leaf_type(cls, path)] for key, path in keys.items()}


# section -> key -> parser. [ru] and [ue] derive their keys and parsers from
# the device specs, so both are built on first use (see _section_schema) and
# a command that reads neither never imports the components module.
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
        schema = _SCHEMA[section] = _parsers(_radio_spec(section), _radio_keys(section))
    return schema


class ConfigDocument(NamedTuple):
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
        # newline=None: line breaks read as they would from the open file.
        parser.read_file(io.StringIO(read_text(path), newline=None), source=str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: malformed config: {exc}") from exc
    except ValueError as exc:  # not UTF-8; the message names the line
        raise ConfigError(str(exc)) from None
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
            with _invalid(path, f"bad value for {key!r} in [{section}]"):
                values[key] = schema[key](raw)
        sections[section] = values
    return ConfigDocument(path=path, sections=sections)


def _override(spec: Any, keys: dict[str, str], values: dict[str, Any], **fields: Any) -> Any:
    """Copy of ``spec`` with ``fields`` set and each given value, converted
    to its field's unit, set at its key's field path, in one construction.
    A nested spec that rejects its values fails naming the keys that set
    them, e.g. ``mixer_conversion_loss_db = 4000.0: ...``; so does a spec
    whose nested specs cannot compose, naming every key the section set."""
    top: dict[str, Any] = dict(fields)
    nested: dict[str, dict[str, tuple[str, Any]]] = {}  # head -> key -> (leaf, value)
    for key, value in values.items():
        factor = _UNIT_FACTORS.get(key)
        if factor is not None:
            value = tuple(v * factor for v in value) if isinstance(value, tuple) else value * factor
        head, _, leaf = keys[key].partition(".")
        if leaf:
            nested.setdefault(head, {})[key] = (leaf, value)
        else:
            top[head] = value
    for head, changes in nested.items():
        try:
            top[head] = replace(getattr(spec, head), **dict(changes.values()))
        except ValueError as exc:
            named = ", ".join(f"{key} = {value}" for key, (_, value) in changes.items())
            raise ValueError(f"{named}: {exc}") from exc
    try:
        return replace(spec, **top)
    except ValueError as exc:
        if not nested:  # a flat spec's error names its field itself
            raise
        named = ", ".join(f"{key} = {value}" for key, value in values.items())
        raise ValueError(f"{named}: {exc}") from exc


def ru_spec_from_config(doc: ConfigDocument) -> RuSpec:
    """RU spec from [ru]; missing keys keep the reference RU's values."""
    from .components import reference_ru_spec

    with _invalid(doc.path, "invalid [ru]"):
        return _override(reference_ru_spec(), _radio_keys("ru"), doc.sections.get("ru", {}))


def ue_spec_from_config(doc: ConfigDocument) -> UeSpec:
    """UE spec from [ue]; missing keys keep the reference UE's values."""
    from .components import Adc, reference_ue_spec

    values = doc.sections.get("ue", {})
    with _invalid(doc.path, "invalid [ue]"):
        base = reference_ue_spec()
        # The reference UE has no ADC; adc_fom_j adds one with Adc's defaults,
        # whose fom_j _override then sets.
        if "adc_fom_j" in values:
            base = replace(base, adc=Adc(fom_j=0.0))
        elif any(key.startswith("adc_") for key in values):
            raise ValueError("adc_sample_rate_hz and adc_bits need adc_fom_j")
        return _override(base, _radio_keys("ue"), values)


def scenario_from_config(doc: ConfigDocument, seed_override: int | None = None) -> Scenario:
    """Scenario from [scenario]; missing keys keep the Scenario defaults."""
    values = dict(doc.sections.get("scenario", {}))
    if seed_override is not None:
        values["seed"] = seed_override
    with _invalid(doc.path, "invalid [scenario]"):
        return _override(Scenario(), _SCENARIO_KEYS, values)


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
    with _invalid(doc.path, "invalid [sweep]"):
        campaign = _override(CampaignSpec(), _SWEEP_KEYS, values, base_seed=base.seed)
        list(_grid_cells(base, campaign))  # checks every cell; run_campaign adds the seeds
    return campaign


def channel_wf_from_config(doc: ConfigDocument) -> float:
    """Effective channel waste figure (dB) from the [channel] section; a
    link whose antenna gains exceed its loss clamps to 0 dB with a warning."""
    channel = doc.sections.get("channel", {})
    frequency_ghz = channel.get("frequency_ghz")
    # Without a frequency the link sits in the simulator's reference band.
    frequency_hz = Scenario.frequency_hz if frequency_ghz is None else frequency_ghz * 1e9
    ple = channel.get("ple")
    with _invalid(doc.path, "invalid [channel]"):
        if ple is not None:
            model = PathLossModel(frequency_hz=frequency_hz, ple=ple)
        else:
            try:
                model = band_preset(frequency_hz)
            except ValueError as exc:
                raise ValueError(f"{exc}; give an explicit ple") from None
        pl_db = path_loss_db(model, channel.get("distance_m", 100.0))
        gains_db = channel.get("g_tx_db", 0.0), channel.get("g_rx_db", 0.0)
        return effective_channel(pl_db, *gains_db).wf_db


# The default 60-120 dB channel sweep takes 60 steps.
_MAX_SWEEP_STEPS = 100_000
# `system`'s CSV prints wf_c_db with two decimals, so a finer step would
# print equal cells.
_MIN_SWEEP_STEP_DB = 0.01


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
    if step < _MIN_SWEEP_STEP_DB:
        raise ConfigError(
            f"{doc.path}: wf_c_db_step must be >= {_MIN_SWEEP_STEP_DB} dB, got {step}; "
            f"the CSV prints wf_c_db to {_MIN_SWEEP_STEP_DB} dB"
        )
    # A stop between grid points ends the sweep below it; 1e-9 of a step
    # absorbs the rounding of (stop - start) / step.
    sweep = [start + k * step for k in range(math.floor(n_steps + 1e-9) + 1)]
    # A step of 0.01 dB or more can still round two neighbours to one cell:
    # 3.905 and 3.915 both print as 3.91.
    for before, after in zip(sweep, sweep[1:]):
        cell = f"{before:.2f}"
        if cell == f"{after:.2f}":
            raise ConfigError(
                f"{doc.path}: wf_c_db points {before!r} and {after!r} both print as {cell}; "
                f"the CSV prints wf_c_db to {_MIN_SWEEP_STEP_DB} dB"
            )
    return sweep


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
        with _invalid(doc.path, f"{kind} {name!r}"):
            for token in tokens:
                key, equals, raw = token.partition("=")
                if not equals:
                    raise ValueError(f"expected key=value, got {token!r}")
                if key not in known:
                    raise ValueError(
                        f"unknown key {key!r}; known keys: {', '.join(sorted(known))}"
                    )
                if key in values:
                    raise ValueError(f"repeated key {key!r}")
                try:
                    values[key] = _parse_float(raw)
                except ValueError:
                    raise ValueError(f"bad number {raw!r} for {key!r}") from None
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
    with _invalid(doc.path, f"stage {label!r}"):
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


def readings_from_config(doc: ConfigDocument) -> list[tuple[str, EquipmentReading]]:
    """Named equipment readings from [metrics]: ``name key=value ...`` lines."""
    from .metrics import EquipmentReading

    known = {f.name for f in fields(EquipmentReading)}
    readings = []
    for name, values in _key_value_lines(doc, "metrics", "readings", "reading", known):
        with _invalid(doc.path, f"reading {name!r}"):
            reading = EquipmentReading(**values)
        readings.append((name, reading))
    return readings
