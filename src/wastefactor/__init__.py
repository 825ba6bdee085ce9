"""Waste-factor calculus for cascaded and parallel communication systems.

The waste factor W of a device or cascade is the power consumed on the
signal path divided by the delivered signal power; its dB form is the
waste figure. This package provides the stage algebra, parallel/MIMO
composition rules, datasheet-level device models, propagation helpers,
measurement-based estimation, standard-metric comparisons, and a seeded
Monte-Carlo simulator of a distributed MU-MIMO network.
"""

import importlib

# Public names by the submodule that defines them. A name resolves on first
# access (PEP 562), so importing the package, or one submodule, loads only
# what is used: the scalar calculus does not pay for numpy.
_EXPORTS_BY_MODULE = {
    "core": "CascadeReport Stage StageFlow cascade power_flow total_consumed_power wasted_power",
    "parallel": (
        "Branch CombiningMode combine_branches mino_compose mino_first_stage miso_compose "
        "parallel_gain received_power_matrix"
    ),
    "components": (
        "Adc Antenna ConvertedDevice Dac GenericActive GenericPassive Lna Mixer PhaseShifter "
        "PowerAmplifier RuSpec UeSpec build_ru build_ue end_to_end mismatch_loss_db "
        "pae_from_walker reference_ru_spec reference_ue_spec"
    ),
    "channel": (
        "BAND_PRESETS ApertureAntenna PathLossModel aperture_gain_db band_preset "
        "effective_channel fspl_1m_db noise_power_dbm path_loss_db"
    ),
    "estimate": "PowerSample WasteFit fit_waste_factor load_power_log",
    "metrics": (
        "EquipmentReading PowerStrategy RateStrategy StrategyFigure classify_strategy ee_bs "
        "ee_network ee_ru ee_site ee_vs_wf_sweep"
    ),
    "netsim": (
        "CampaignSpec DropResult Layout Links Scenario assign_serving_sets "
        "campaign_scenarios evaluate_drop evaluate_links generate_layout run_campaign"
    ),
}
_EXPORTS = {
    name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names.split()
}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
