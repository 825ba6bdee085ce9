import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wastefactor import cli
from wastefactor import config as cfg
from wastefactor.components import Adc, reference_ru_spec, reference_ue_spec
from wastefactor.config import (
    _SCENARIO_KEYS,
    _SWEEP_KEYS,
    ConfigError,
    campaign_from_config,
    load_config,
    readings_from_config,
    ru_spec_from_config,
    scenario_from_config,
    stages_from_config,
    ue_spec_from_config,
    wf_c_sweep_from_config,
)
from wastefactor.core import Stage
from wastefactor.netsim import CampaignSpec, Scenario, campaign_scenarios
from wastefactor.units import linear_to_db

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# One non-default [scenario] line per Scenario field the [scenario] table
# sets, and the value it gives.
SCENARIO_SETTINGS = {
    "n_ue": ("n_ue = 64", 64),
    "region_radius_m": ("region_radius_m = 800", 800.0),
    "bs_height_m": ("bs_height_m = 25", 25.0),
    "ue_height_m": ("ue_height_m = 2", 2.0),
    "min_bs_separation_m": ("min_bs_separation_m = 150", 150.0),
    "serving_radius_m": ("serving_radius_m = 300", 300.0),
    "bandwidth_hz": ("bandwidth_mhz = 100", 100e6),
    "target_snr_db": ("target_snr_db = 5", 5.0),
    "ue_noise_figure_db": ("ue_noise_figure_db = 7", 7.0),
    "per_link_cap_dbm": ("per_link_cap_dbm = 20", 20.0),
    "per_bs_budget_dbm": ("per_bs_budget_dbm = 40", 40.0),
    "w_bs": ("w_bs = 10", 10.0),
    "w_ue": ("w_ue = 20", 20.0),
    "g_ue_db": ("g_ue_db = 6", 6.0),
    "p_non_path_bs_w": ("p_non_path_bs_w = 100", 100.0),
    "p_non_path_ue_w": ("p_non_path_ue_w = 0.5", 0.5),
    "apply_shadowing": ("apply_shadowing = yes", True),
    "fallback_nearest": ("fallback_nearest = off", False),
    "power_allocation": ("power_allocation = proportional", "proportional"),
    "seed": ("seed = 9", 9),
}

# One non-default [sweep] line per CampaignSpec field the [sweep] table
# sets, and the value it gives.
SWEEP_SETTINGS = {
    "frequencies_hz": ("frequencies_ghz = 17, 3.5", (17e9, 3.5e9)),
    "antenna_modes": ("antenna_modes = omni", ("omni",)),
    "n_bs_values": ("n_bs = 2, 4", (2, 4)),
    "n_seeds": ("seeds = 3", 3),
    "omni_per_link_cap_dbm": ("omni_per_link_cap_dbm = 25", 25.0),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[rru]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section \[rru\]"):
            load_config(path)

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ru]\npa_twistiness = 3\n")
        with pytest.raises(ConfigError, match=r"pa_twistiness.*\[ru\]"):
            load_config(path)

    def test_bad_value_diagnosed(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nn_ue = many\n")
        with pytest.raises(ConfigError, match="n_ue"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_semantic_errors_carry_section_location(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ru]\ndac_efficiency = 1.3\n")
        with pytest.raises(ConfigError, match=r"invalid \[ru\].*efficiency"):
            ru_spec_from_config(load_config(path))
        path.write_text("[scenario]\nn_ue = 0\n")
        with pytest.raises(ConfigError, match=r"invalid \[scenario\].*n_ue"):
            scenario_from_config(load_config(path))

    def test_semantic_errors_exit_2_via_cli(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ru]\npa_pae = 0.0\n")
        code, _, err = run_cli(capsys, "cascade", str(path))
        assert code == 2
        assert "invalid [ru]" in err

    def test_empty_sections_give_reference_setup(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[ru]\n[ue]\n[scenario]\n[sweep]\n")
        doc = load_config(path)
        assert ru_spec_from_config(doc) == reference_ru_spec()
        assert ue_spec_from_config(doc) == reference_ue_spec()
        assert scenario_from_config(doc) == Scenario()
        assert campaign_from_config(doc) == CampaignSpec()
        doc = load_config(path)
        ru = ru_spec_from_config(doc)
        assert ru.pa.pae == 0.48
        assert ru.mixer.conversion_loss_db == 8.2
        ue = ue_spec_from_config(doc)
        assert ue.lna.gain_db == 20.0
        assert ue.mixer.conversion_loss_db == 6.7
        scenario = scenario_from_config(doc)
        assert scenario.n_ue == 1024
        assert scenario.w_bs == 15.0
        assert scenario.bandwidth_hz == 400e6

    def test_settings_cover_the_tables(self):
        assert sorted(SCENARIO_SETTINGS) == sorted(_SCENARIO_KEYS.values())
        assert sorted(SWEEP_SETTINGS) == sorted(_SWEEP_KEYS.values())

    @pytest.mark.parametrize("field", list(_SCENARIO_KEYS.values()))
    def test_every_scenario_field_settable(self, tmp_path, field):
        line, expected = SCENARIO_SETTINGS[field]
        assert getattr(Scenario(), field) != expected
        path = tmp_path / "sc.ini"
        path.write_text(f"[scenario]\n{line}\n")
        scenario = scenario_from_config(load_config(path))
        assert scenario == dataclasses.replace(Scenario(), **{field: expected})

    @pytest.mark.parametrize("field", list(_SCENARIO_KEYS.values()))
    def test_every_scenario_key_reaches_the_grid(self, tmp_path, field):
        # campaign_scenarios overwrites some Scenario fields in every cell;
        # a [scenario] key for one of them would parse but change nothing.
        def cells(text):
            path = tmp_path / "sc.ini"
            path.write_text(text)
            doc = load_config(path)
            return campaign_scenarios(scenario_from_config(doc), campaign_from_config(doc))

        line, _ = SCENARIO_SETTINGS[field]
        assert cells(f"[scenario]\n{line}\n") != cells("[scenario]\n")

    @pytest.mark.parametrize("field", list(_SWEEP_KEYS.values()))
    def test_every_sweep_field_settable(self, tmp_path, field):
        line, expected = SWEEP_SETTINGS[field]
        assert getattr(CampaignSpec(), field) != expected
        path = tmp_path / "sw.ini"
        path.write_text(f"[sweep]\n{line}\n")
        campaign = campaign_from_config(load_config(path))
        assert campaign == dataclasses.replace(CampaignSpec(), **{field: expected})

    def test_scenario_overrides(self, tmp_path):
        path = tmp_path / "sc.ini"
        path.write_text(
            "[scenario]\nn_ue = 64\nserving_radius_m = 300\n"
            "bandwidth_mhz = 100\nseed = 42\napply_shadowing = true\n"
        )
        scenario = scenario_from_config(load_config(path))
        assert scenario.n_ue == 64
        assert scenario.serving_radius_m == 300.0
        assert scenario.bandwidth_hz == 100e6
        assert scenario.seed == 42
        assert scenario.apply_shadowing

    def test_campaign_defaults_and_overrides(self, tmp_path):
        path = tmp_path / "sw.ini"
        path.write_text("[sweep]\nfrequencies_ghz = 28\nn_bs = 1, 3\nseeds = 4\n")
        campaign = campaign_from_config(load_config(path))
        assert campaign.frequencies_hz == (28e9,)
        assert campaign.n_bs_values == (1, 3)
        assert campaign.n_seeds == 4
        overridden = campaign_from_config(load_config(path), seeds_override=2)
        assert overridden.n_seeds == 2

    def test_ue_adc_from_fom(self, tmp_path):
        path = tmp_path / "ue.ini"
        path.write_text("[ue]\nadc_fom_j = 1e-15\n")
        assert ue_spec_from_config(load_config(path)).adc == Adc(1e-15, 1.0e9, 10)
        path.write_text("[ue]\nadc_fom_j = 1e-15\nadc_sample_rate_hz = 2e9\nadc_bits = 8\n")
        assert ue_spec_from_config(load_config(path)).adc == Adc(1e-15, 2.0e9, 8)

    @pytest.mark.parametrize("line", ["adc_sample_rate_hz = 2e9", "adc_bits = 8"])
    def test_ue_adc_keys_need_fom(self, tmp_path, line):
        path = tmp_path / "ue.ini"
        path.write_text(f"[ue]\n{line}\n")
        with pytest.raises(ConfigError, match=r"invalid \[ue\].*adc_fom_j"):
            ue_spec_from_config(load_config(path))

    def test_channel_sigma_db_is_unknown(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[channel]\nsigma_db = 4\n")
        with pytest.raises(ConfigError, match=r"unknown key 'sigma_db' in \[channel\]"):
            load_config(path)

    @pytest.mark.parametrize(
        "command, section, key",
        [
            ("simulate", "scenario", "g_bs_db"),
            ("simulate", "scenario", "scale_non_path_per_area"),
            # Set in every grid cell by campaign_scenarios.
            ("simulate", "scenario", "frequency_ghz"),
            ("simulate", "scenario", "antenna_mode"),
            ("simulate", "scenario", "n_bs"),
            ("simulate", "scenario", "ple"),
            ("simulate", "scenario", "sigma_db"),
            ("cascade", "ru", "phase_shifter_vswr"),
        ],
    )
    def test_inert_keys_are_unknown(self, capsys, tmp_path, command, section, key):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key} = 20\n")
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert err.startswith("config error:")
        assert f"unknown key {key!r} in [{section}]" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[ru]\npa_pae = nan\n", "pa_pae"),
            ("[sweep]\nfrequencies_ghz = 28, inf\n", "frequencies_ghz"),
            ("[channel]\ndistance_m = -inf\n", "distance_m"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, text, key):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{key}.*finite"):
            load_config(path)

    def test_stage_lines(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[cascade]\nstages =\n    a w=2 g=10\n    b loss_db=3\n    c w_db=3 gain_db=7\n"
        )
        stages, source = stages_from_config(load_config(path))
        assert source == 1.0
        assert stages[0].w == 2.0
        assert stages[1].w == pytest.approx(10.0 ** 0.3)
        assert stages[2].g == pytest.approx(10.0 ** 0.7)

    def test_stage_line_errors(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[cascade]\nstages =\n    a w=2\n")
        with pytest.raises(ConfigError, match="need w"):
            stages_from_config(load_config(path))
        path.write_text("[cascade]\nstages =\n    a q=2 g=1\n")
        with pytest.raises(ConfigError, match="unknown key 'q'"):
            stages_from_config(load_config(path))
        path.write_text("[cascade]\nstages =\n    a loss_db=3 g=1\n")
        with pytest.raises(ConfigError, match="cannot be combined"):
            stages_from_config(load_config(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[cascade]\nstages =\n    pa w=4 w=5 g=5\n", "stage 'pa': repeated key 'w'"),
            ("[cascade]\nstages =\n    pa w=4 g5\n", "stage 'pa': expected key=value, got 'g5'"),
            (
                "[metrics]\nreadings =\n    RU p_signal_w=1 p_signal_w=2\n",
                "reading 'RU': repeated key 'p_signal_w'",
            ),
            (
                "[metrics]\nreadings =\n    RU p_signal_w\n",
                "reading 'RU': expected key=value, got 'p_signal_w'",
            ),
        ],
        ids=["stage-repeated", "stage-bare", "reading-repeated", "reading-bare"],
    )
    def test_key_value_lines_reject_repeats_and_bare_tokens(self, tmp_path, text, message):
        path = tmp_path / "c.ini"
        path.write_text(text)
        doc = load_config(path)
        read = stages_from_config if doc.has_section("cascade") else readings_from_config
        with pytest.raises(ConfigError, match=re.escape(message)):
            read(doc)

    def test_readings(self):
        doc = load_config(CONFIGS / "metrics_reference.ini")
        readings = readings_from_config(doc)
        assert [name for name, _ in readings] == ["BS-A", "BS-B", "RU-A", "RU-B"]
        assert readings[2][1].p_consumed_total_w == pytest.approx(500.0)

    def test_wf_c_sweep(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[sweep]\nwf_c_db_start = 60\nwf_c_db_stop = 62\nwf_c_db_step = 1\n")
        assert wf_c_sweep_from_config(load_config(path)) == [60.0, 61.0, 62.0]
        path.write_text("[sweep]\nwf_c_db_step = -1\n")
        with pytest.raises(ConfigError, match="step"):
            wf_c_sweep_from_config(load_config(path))

    def test_channel_section_gives_single_point(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[channel]\nfrequency_ghz = 28\ndistance_m = 100\n"
            "g_tx_db = 49.42\ng_rx_db = 18.97\n"
        )
        sweep = wf_c_sweep_from_config(load_config(path))
        assert len(sweep) == 1
        assert sweep[0] == pytest.approx(33.39, abs=0.02)
        # Explicit sweep keys win over the channel point.
        path.write_text(
            "[channel]\nfrequency_ghz = 28\n[sweep]\nwf_c_db_start = 60\n"
            "wf_c_db_stop = 61\nwf_c_db_step = 1\n"
        )
        assert wf_c_sweep_from_config(load_config(path)) == [60.0, 61.0]

    def test_channel_section_unknown_band_needs_ple(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[channel]\nfrequency_ghz = 60\n")
        with pytest.raises(ConfigError, match="explicit ple"):
            wf_c_sweep_from_config(load_config(path))
        path.write_text("[channel]\nfrequency_ghz = 60\nple = 2.1\n")
        assert len(wf_c_sweep_from_config(load_config(path))) == 1


class TestNonFiniteInput:
    """Inputs that once got through: ``w_bs = nan`` wrote NaN rows,
    ``target_snr_db = nan`` crashed with an IndexError, ``per_bs_budget_dbm
    = nan`` switched the BS budget off and ``bandwidth_mhz = inf`` gave a
    -inf mean SNR."""

    @pytest.mark.parametrize(
        "key, raw, field",
        [
            ("w_bs", "nan", "w_bs"),
            ("target_snr_db", "nan", "target_snr_db"),
            ("per_bs_budget_dbm", "nan", "per_bs_budget_dbm"),
            ("bandwidth_mhz", "inf", "bandwidth_hz"),
        ],
    )
    def test_rejected_by_scenario_and_simulate(self, capsys, tmp_path, key, raw, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Scenario(**{field: float(raw)})
        path = tmp_path / "bad.ini"
        path.write_text(
            f"[scenario]\nn_ue = 16\n{key} = {raw}\n"
            "[sweep]\nfrequencies_ghz = 28\nn_bs = 1\nseeds = 1\n"
        )
        code, _, err = run_cli(
            capsys, "simulate", str(path), "--jobs", "1", "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert err.startswith("config error:")
        assert f"{key!r} in [scenario]" in err

    @pytest.mark.parametrize("field", ["ple", "sigma_db"])
    def test_optional_floats_must_be_finite_when_set(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Scenario(**{field: math.inf})


class TestOverflowingInput:
    """Finite inputs that overflow inside the program: the first two once
    printed an OverflowError traceback, ``w_bs = 1e308`` exited 0 with
    ``inf,nan,inf`` in aggregate.csv and numpy warnings on stderr."""

    @pytest.mark.parametrize(
        "line, named",
        [
            ("target_snr_db = 1e308", "1e+308 dB"),
            ("per_link_cap_dbm = 4000", "4000.0 dBm"),
            ("w_bs = 1e308", "w_system"),
        ],
    )
    def test_simulate_fails_with_a_message(self, capsys, tmp_path, line, named):
        path = tmp_path / "huge.ini"
        path.write_text(
            f"[scenario]\nn_ue = 16\n{line}\n"
            "[sweep]\nfrequencies_ghz = 28\nn_bs = 1\nseeds = 1\n"
        )
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", str(path), "--jobs", "1", "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error:")
        assert named in err
        assert not out_dir.exists()


class TestSweepAxisValues:
    """Grid axis values that once passed the config layer and failed only
    in the first grid cell, with exit 1 and a message naming no section."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("frequencies_ghz = 1e308", "frequency_hz must be finite, got inf"),
            ("frequencies_ghz = -3.5", "frequency and bandwidth must be > 0 Hz"),
            ("frequencies_ghz = 5", "no path-loss preset for 5 GHz"),
            ("antenna_modes = foo", "antenna_mode must be 'omni' or 'directional', got 'foo'"),
            ("n_bs = 0", "n_bs must be in [1, 20], got 0"),
            ("n_bs = 21", "n_bs must be in [1, 20], got 21"),
        ],
    )
    def test_simulate_exits_2_naming_sweep(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.ini"
        path.write_text(f"[scenario]\nn_ue = 8\n[sweep]\nseeds = 1\n{line}\n")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", str(path), "--jobs", "1", "--out", str(out_dir))
        assert code == 2
        assert err.startswith("config error:")
        assert f"invalid [sweep]: {message}" in err
        assert not out_dir.exists()

    def test_region_past_the_ceiling_at_a_sweep_band_exits_2(self, capsys, tmp_path):
        # Valid at the 3.5 GHz [scenario] base, so it once passed the config
        # layer and exited 1 with "error:" in the first grid cell.
        path = tmp_path / "bad.ini"
        path.write_text(
            "[scenario]\nn_ue = 4\nregion_radius_m = 1e150\n"
            "[sweep]\nn_bs = 2\nseeds = 1\nfrequencies_ghz = 28\nantenna_modes = omni\n"
        )
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", str(path), "--jobs", "1", "--out", str(out_dir))
        assert code == 2
        assert err.startswith("config error:")
        assert "invalid [sweep]: region_radius_m = 1e+150 " in err
        assert "; in the 28 GHz omni 2-BS grid cell" in err
        assert not out_dir.exists()

    def test_band_without_preset_names_the_presets(self, capsys, tmp_path):
        # Once hinted "give ple and sigma_db explicitly", which no INI key does.
        path = tmp_path / "bad.ini"
        path.write_text("[sweep]\nfrequencies_ghz = 5\n")
        code, _, err = run_cli(capsys, "simulate", str(path), "--jobs", "1", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "no path-loss preset for 5 GHz; grid cells take ple and sigma_db from the band presets" in err
        assert "3.5 GHz, 17 GHz, 28 GHz" in err
        assert "explicitly" not in err

    # The last of 2 seeds from the largest 64-bit seed is 2**64, one past it.
    SEED_RANGE_MESSAGE = (
        "invalid [sweep]: seed must be a 64-bit unsigned integer, got 18446744073709551616; "
        "the grid's 2 seeds run from 18446744073709551615 to 18446744073709551616"
    )

    def test_seed_range_past_64_bits_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[scenario]\nn_ue = 8\nseed = 18446744073709551615\n"
            "[sweep]\nfrequencies_ghz = 28\nn_bs = 1\nseeds = 2\n"
        )
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", str(path), "--jobs", "1", "--out", str(out_dir))
        assert code == 2
        assert err.startswith("config error:")
        assert self.SEED_RANGE_MESSAGE in err
        assert not out_dir.exists()
        # One seed from there is the whole valid range.
        code, _, _ = run_cli(
            capsys, "simulate", str(path), "--seeds", "1", "--jobs", "1", "--out", str(out_dir)
        )
        assert code == 0
        assert ",18446744073709551615," in (out_dir / "drops.csv").read_text()

    def test_wf_seed_range_past_64_bits_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WF_SEED", "18446744073709551615")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "simulate", str(CONFIGS / "simulate_small.ini"),
            "--jobs", "1", "--out", str(out_dir),
        )
        assert code == 2
        assert err.startswith("config error:")
        assert self.SEED_RANGE_MESSAGE in err
        assert not out_dir.exists()


class TestCascadeCommand:
    def test_demo_table_ends_with_total(self, capsys):
        code, out, _ = run_cli(capsys, "cascade", str(CONFIGS / "cascade_demo.ini"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label,w,g,")
        assert lines[-1].startswith("TOTAL,4.2,50,")

    def test_demo_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "cascade", str(CONFIGS / "cascade_demo.ini"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"]["w"] == pytest.approx(4.2)
        assert payload["stages"][0]["p_consumed_w"] == pytest.approx(19.0)

    def test_ru_section_cascades_the_chain(self, capsys):
        code, out, _ = run_cli(capsys, "cascade", str(CONFIGS / "ru_reference.ini"))
        assert code == 0
        total = out.strip().splitlines()[-1].split(",")
        assert total[0] == "TOTAL"
        assert float(total[1]) == pytest.approx(3.479, abs=5e-4)

    def test_malformed_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[cascade]\nstage_power = 1\n")
        code, _, err = run_cli(capsys, "cascade", str(path))
        assert code == 2
        assert "stage_power" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_source_power_is_runtime_error(self, capsys, tmp_path, fmt):
        # Once exited 0 with inf and nan cells and TOTAL W = nan.
        path = tmp_path / "huge.ini"
        path.write_text(
            "[cascade]\nsource_power_w = 1e308\nstages =\n    a w=30 g=30\n    b w=30 g=30\n"
        )
        code, out, err = run_cli(capsys, "cascade", str(path), "--format", fmt)
        assert code == 1
        assert err.startswith("error:")
        assert "p_signal_w = inf" in err
        assert out == ""

    def test_missing_sections_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[metrics]\nreadings =\n    A p_signal_w=1\n")
        code, _, err = run_cli(capsys, "cascade", str(path))
        assert code == 2
        assert "[cascade] or [ru]" in err


class TestSystemCommand:
    def test_fig6_properties(self, capsys):
        code, out, _ = run_cli(capsys, "system", str(CONFIGS / "system_fig6.ini"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "wf_c_db,baseline_db,halved_w_ru_db,halved_w_ue_db,doubled_g_ue_db"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape == (61, 5)
        baseline = rows[:, 1]
        # Unit dB slope, 3 dB strategy gains, and the negligible W_UE route.
        assert np.all(np.abs(np.diff(baseline) - 1.0) < 0.01)
        assert np.all(np.abs(baseline - rows[:, 2] - 3.01) < 0.02)
        assert np.all(np.abs(baseline - rows[:, 4] - 3.01) < 0.02)
        assert np.all(baseline - rows[:, 3] < 0.01)

    @pytest.mark.parametrize(
        "lines",
        ["wf_c_db_step = 1e-320", "wf_c_db_start = -1e308\nwf_c_db_stop = 1e308"],
        ids=["tiny-step", "huge-span"],
    )
    def test_non_finite_step_count_is_config_error(self, capsys, tmp_path, lines):
        # Both once printed an OverflowError traceback.
        path = tmp_path / "s.ini"
        path.write_text(f"[sweep]\n{lines}\n")
        code, out, err = run_cli(capsys, "system", str(path))
        assert code == 2
        assert err.startswith("config error:")
        assert "wf_c_db_start, wf_c_db_stop and wf_c_db_step" in err
        assert "step count must be finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "lines, count",
        [
            ("wf_c_db_start = 0\nwf_c_db_stop = 1e308\nwf_c_db_step = 1", "1e+308"),
            ("wf_c_db_step = 1e-300", "6e+301"),
            ("wf_c_db_start = 0\nwf_c_db_stop = 100001\nwf_c_db_step = 1", "100001"),
        ],
        ids=["huge-stop", "tiny-step", "one-past-the-cap"],
    )
    def test_huge_step_count_is_config_error(self, capsys, tmp_path, lines, count):
        # The first two once built the sweep as a list until memory ran out.
        path = tmp_path / "s.ini"
        path.write_text(f"[sweep]\n{lines}\n")
        code, out, err = run_cli(capsys, "system", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert f"wf_c_db_start, wf_c_db_stop and wf_c_db_step give {count} steps" in err
        assert "at most 100000" in err

    def test_a_sweep_at_the_cap_is_built(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[sweep]\nwf_c_db_start = 0\nwf_c_db_stop = 100000\nwf_c_db_step = 1\n")
        sweep = cfg.wf_c_sweep_from_config(cfg.load_config(path))
        assert (len(sweep), sweep[-1]) == (100_001, 100_000.0)


    @pytest.mark.parametrize(
        "section, keys",
        [
            ("ru", "dac_efficiency = 1.0\nmixer_conversion_loss_db = 0\n"
             "phase_shifter_insertion_loss_db = 0\npa_pae = 0.9\n"
             "antenna_efficiency = 1.0\nantenna_vswr = 1.0"),
            ("ue", "antenna_efficiency = 1.0\nlna_gain_db = 25\n"
             "phase_shifter_insertion_loss_db = 0\nmixer_conversion_loss_db = 0"),
        ],
        ids=["efficient-ru", "lossless-ue"],
    )
    def test_halved_w_floors_at_one(self, capsys, tmp_path, section, keys):
        # A device with W < 2 once made its halved_w variant a Stage with
        # W < 1, which Stage rejects (exit 1). A device cannot waste less
        # than nothing, so the halved W floors at 1.
        from wastefactor.components import build_ru, build_ue, end_to_end

        path = tmp_path / "s.ini"
        path.write_text(f"[{section}]\n{keys}\n")
        code, out, err = run_cli(capsys, "system", str(path))
        assert (code, err) == (0, "")
        doc = load_config(path)
        ru = build_ru(ru_spec_from_config(doc)).stage
        ue = build_ue(ue_spec_from_config(doc)).stage
        stages = {"ru": ru, "ue": ue}
        assert stages[section].w / 2.0 < 1.0
        stages[section] = dataclasses.replace(stages[section], w=1.0)
        channel = Stage.from_loss_db(60.0, label="channel")
        expected = linear_to_db(end_to_end(stages["ru"], channel, stages["ue"]).w)
        header, first = out.splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        assert row["wf_c_db"] == "60.00"
        assert row[f"halved_w_{section}_db"] == f"{expected:.6f}"


class TestFitCommand:
    def test_reference_log_json(self, capsys):
        code, out, _ = run_cli(capsys, "fit", str(CONFIGS / "ru_power_log.csv"))
        assert code == 0
        payload = json.loads(out)
        assert payload["w"] == 3.5
        assert payload["p_non_path_w"] == 140.0
        assert payload["r_squared"] == 1.0
        assert payload["physical"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", str(CONFIGS / "ru_power_log.csv"), "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "w,p_non_path_w,r_squared,n_samples,physical"
        assert lines[1] == "3.5,140,1,7,true"

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", str(tmp_path / "none.csv"))
        assert code == 1
        assert "none.csv" in err

    def test_malformed_log_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_signal_w,p_total_w\nbogus,1\n")
        code, _, err = run_cli(capsys, "fit", str(path))
        assert code == 1
        assert "bogus" in err

    def test_cell_over_the_csv_field_limit_is_runtime_error(self, capsys, tmp_path):
        # Once a _csv.Error traceback.
        path = tmp_path / "log.csv"
        path.write_text("p_signal_w,p_total_w\n1,2\n2," + "4" * 131073 + "\n")
        code, out, err = run_cli(capsys, "fit", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "log.csv:3: field larger than field limit (131072)" in err
        assert out == ""

    def test_overflowing_dbm_row_is_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_signal_dbm,p_total_dbm\n10,20\n4000,4010\n")
        code, _, err = run_cli(capsys, "fit", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "4000.0 dBm" in err


    @pytest.mark.parametrize(
        "rows, named",
        [
            ("1,2\n2,4\n1e308,1e308\n", "a squared deviation overflows"),
            ("1,2\n1e308,1e308\n1e308,1e308\n", "mean p_signal_w = inf"),
            ("1,2\n2,inf\n", "log.csv:3: non-finite value 'inf' in column 'p_total_w'"),
        ],
        ids=["squared-deviation", "mean", "inf-cell"],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_log_is_runtime_error(self, capsys, tmp_path, rows, named, fmt):
        # The first once printed an OverflowError traceback, the other two
        # a "w": NaN that is not JSON.
        path = tmp_path / "log.csv"
        path.write_text("p_signal_w,p_total_w\n" + rows)
        code, out, err = run_cli(capsys, "fit", str(path), "--format", fmt)
        assert code == 1
        assert err.startswith("error:")
        assert named in err
        assert out == ""


class TestMetricsCommand:
    def test_reference_table(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", str(CONFIGS / "metrics_reference.ini"))
        assert code == 0
        lines = out.strip().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        header = lines[0].split(",")
        ee_bs_col = header.index("ee_bs_gb_per_wh")
        ee_ru_col = header.index("ee_ru")
        w_col = header.index("w")
        path_col = header.index("path_energy_wh_per_gb")
        assert float(rows["BS-A"][ee_bs_col]) == pytest.approx(0.142857, abs=1e-6)
        assert float(rows["BS-B"][ee_bs_col]) == pytest.approx(0.2, abs=1e-12)
        assert float(rows["BS-A"][path_col]) == pytest.approx(2.0)
        assert float(rows["BS-B"][path_col]) == pytest.approx(4.0)
        assert float(rows["RU-A"][ee_ru_col]) == pytest.approx(0.24)
        assert float(rows["RU-B"][ee_ru_col]) == pytest.approx(0.24)
        assert float(rows["RU-A"][w_col]) == pytest.approx(3.0)
        assert float(rows["RU-B"][w_col]) == pytest.approx(3.5)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "metrics", str(CONFIGS / "metrics_reference.ini"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["name"] == "BS-A"
        assert payload[0]["ee_bs_gb_per_wh"] == pytest.approx(10.0 / 70.0)


    def test_reading_without_power_is_runtime_error(self, capsys, tmp_path):
        # Once a ZeroDivisionError traceback.
        path = tmp_path / "idle.ini"
        path.write_text("[metrics]\nreadings =\n    idle duration_h=1\n")
        code, out, err = run_cli(capsys, "metrics", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "reading 'idle': total energy must be > 0 Wh, got 0.0" in err
        assert out == ""

    @pytest.mark.parametrize(
        "line, named",
        [
            ("r p_signal_w=1e308 p_non_signal_w=1e308", "reading 'r': energy_wh = inf"),
            ("r p_signal_w=5e-324 p_non_signal_w=1e308", "reading 'r': w = inf"),
            ("b data_volume_gb=1e308 p_non_path_w=5e-324", "reading 'b': ee_bs_gb_per_wh = inf"),
            ("d p_non_path_w=1 duration_h=1e308 p_signal_w=10", "reading 'd': energy_wh = inf"),
        ],
        ids=["energy", "w", "ee_bs", "ee_ru"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_result_is_runtime_error(self, capsys, tmp_path, line, named, fmt):
        # Each once exited 0 with inf or nan in the CSV.
        path = tmp_path / "huge.ini"
        path.write_text(f"[metrics]\nreadings =\n    {line}\n")
        code, out, err = run_cli(capsys, "metrics", str(path), "--format", fmt)
        assert code == 1
        assert err.startswith("error:")
        assert f"{named} is not finite" in err
        assert out == ""


class TestSimulateCommand:
    def test_small_campaign_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "campaign"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            str(CONFIGS / "simulate_small.ini"),
            "--jobs",
            "1",
            "--out",
            str(out_dir),
        )
        assert code == 0
        drops = (out_dir / "drops.csv").read_text().strip().splitlines()
        aggregate = (out_dir / "aggregate.csv").read_text().strip().splitlines()
        assert len(drops) == 1 + 8  # header + 1 freq x 2 modes x 2 n_bs x 2 seeds
        assert len(aggregate) == 1 + 4
        assert drops[1].startswith("28,omni,1,5,")

    def test_seeds_flag_overrides_config(self, capsys, tmp_path):
        out_dir = tmp_path / "campaign"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            str(CONFIGS / "simulate_small.ini"),
            "--seeds",
            "1",
            "--jobs",
            "1",
            "--out",
            str(out_dir),
        )
        assert code == 0
        drops = (out_dir / "drops.csv").read_text().strip().splitlines()
        assert len(drops) == 1 + 4

    def test_wf_seed_env_override(self, capsys, tmp_path, monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("WF_SEED", "11")
        run_cli(capsys, "simulate", str(CONFIGS / "simulate_small.ini"),
                "--jobs", "1", "--out", str(out_a))
        monkeypatch.setenv("WF_SEED", "12")
        run_cli(capsys, "simulate", str(CONFIGS / "simulate_small.ini"),
                "--jobs", "1", "--out", str(out_b))
        a = (out_a / "drops.csv").read_text()
        b = (out_b / "drops.csv").read_text()
        assert a != b
        assert ",11," in a.splitlines()[1]

    def test_reference_grid_bookkeeping(self, capsys, tmp_path):
        # 3 frequencies x 2 modes x 5 BS counts x 2 seeds
        out_dir = tmp_path / "reference"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            str(CONFIGS / "simulate_reference.ini"),
            "--seeds",
            "2",
            "--out",
            str(out_dir),
        )
        assert code == 0
        drops = (out_dir / "drops.csv").read_text().strip().splitlines()
        aggregate = (out_dir / "aggregate.csv").read_text().strip().splitlines()
        assert len(drops) == 1 + 60
        assert len(aggregate) == 1 + 30

    def test_bad_wf_seed_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("WF_SEED", "soon")
        code, _, err = run_cli(
            capsys, "simulate", str(CONFIGS / "simulate_small.ini"),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "WF_SEED" in err


class TestImportCost:
    def test_cli_import_leaves_process_pool_unloaded(self):
        # The pool's multiprocessing import is paid only by --jobs > 1 runs.
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import sys, wastefactor.cli; "
            "print('concurrent.futures.process' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.strip() == "False"

    def test_cli_import_leaves_unused_modules_unloaded(self):
        # Each command imports what only it runs; simulate needs none of these.
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import sys, wastefactor.cli; "
            "print(sorted(m for m in ('wastefactor.components', 'wastefactor.estimate', "
            "'wastefactor.metrics') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"

    def test_simulate_leaves_json_unloaded(self, tmp_path):
        # Only --format json output needs the json module.
        src = str(Path(cli.__file__).resolve().parents[1])
        config = CONFIGS / "simulate_small.ini"
        probe = (
            "import sys; from wastefactor import cli; "
            f"code = cli.main(['simulate', {str(config)!r}, '--jobs', '1', "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(code, 'json' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.split()[-2:] == ["0", "False"]

    def test_scalar_calculus_leaves_numpy_unloaded(self):
        # The quickstart promises that the scalar calculus never imports
        # numpy, and the calculus benchmark's setup relies on it.
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import sys; "
            "from wastefactor import channel, components, core, parallel; "
            "core.power_flow([core.Stage(2.0, 10.0), core.Stage(4.0, 5.0)], 1.0); "
            "print('numpy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.strip() == "False"


class TestCpuPortability:
    def test_simulate_small_matches_golden_without_dispatched_features(self, tmp_path):
        # CSV bytes are the portable contract: they must not move with
        # numpy's run-time SIMD path. numpy refuses to disable a baseline
        # feature, so only the dispatched ones this CPU runs are turned off.
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        active = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
        if not active:
            pytest.skip("numpy dispatches no SIMD feature on this CPU beyond its baseline")
        src = str(Path(cli.__file__).resolve().parents[1])
        out_dir = tmp_path / "campaign"
        probe = (
            "import sys; "
            "from numpy._core._multiarray_umath import __cpu_features__ as f; "
            f"assert not any(f[k] for k in {active!r}), 'features still active'; "
            "from wastefactor.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        subprocess.run(
            [sys.executable, "-c", probe, "simulate", str(CONFIGS / "simulate_small.ini"),
             "--jobs", "1", "--out", str(out_dir)],
            env={**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(active)},
            capture_output=True, check=True, timeout=120,
        )
        golden = Path(__file__).resolve().parent / "golden"
        assert (out_dir / "drops.csv").read_bytes() == (golden / "simulate_small_drops.csv").read_bytes()
        assert (out_dir / "aggregate.csv").read_bytes() == (
            golden / "simulate_small_aggregate.csv"
        ).read_bytes()


class TestCliSurface:
    @pytest.mark.parametrize(
        "command", ["cascade", "system", "fit", "metrics", "simulate"]
    )
    def test_help_available(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["transmogrify"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_output_refuses_non_finite_numbers(self, capsys, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._print_json({"w": value})
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, tmp_path, jobs):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["simulate", str(CONFIGS / "simulate_small.ini"), "--jobs", jobs, "--out", str(out_dir)]
            )
        assert excinfo.value.code == 2
        assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one_is_a_usage_error(self, capsys, tmp_path, seeds):
        # Once a config error that blamed the file for the flag.
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["simulate", str(CONFIGS / "simulate_small.ini"), "--seeds", seeds, "--out", str(out_dir)]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seeds: must be >= 1, got {seeds}" in err
        assert "config error" not in err
        assert not out_dir.exists()


class TestGoldenOutputs:
    """Every command, on the checked-in demo configs, byte for byte."""

    GOLDEN = Path(__file__).resolve().parent / "golden"

    def check(self, capsys, golden_name, *argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        golden_path = self.GOLDEN / golden_name
        assert out.encode() == golden_path.read_bytes()

    def test_cascade_demo_csv(self, capsys):
        self.check(capsys, "cascade_demo.csv", "cascade", str(CONFIGS / "cascade_demo.ini"))

    def test_cascade_demo_json(self, capsys):
        self.check(
            capsys, "cascade_demo.json",
            "cascade", str(CONFIGS / "cascade_demo.ini"), "--format", "json",
        )

    def test_ru_reference_csv(self, capsys):
        self.check(capsys, "ru_reference.csv", "cascade", str(CONFIGS / "ru_reference.ini"))

    def test_system_fig6_csv(self, capsys):
        self.check(capsys, "system_fig6.csv", "system", str(CONFIGS / "system_fig6.ini"))

    def test_fit_json(self, capsys):
        self.check(capsys, "fit_ru_power_log.json", "fit", str(CONFIGS / "ru_power_log.csv"))

    def test_metrics_csv(self, capsys):
        self.check(
            capsys, "metrics_reference.csv", "metrics", str(CONFIGS / "metrics_reference.ini")
        )

    def test_simulate_small_files(self, capsys, tmp_path):
        out_dir = tmp_path / "campaign"
        code = cli.main([
            "simulate", str(CONFIGS / "simulate_small.ini"),
            "--jobs", "1", "--out", str(out_dir),
        ])
        capsys.readouterr()
        assert code == 0
        assert (out_dir / "drops.csv").read_bytes() == (
            self.GOLDEN / "simulate_small_drops.csv"
        ).read_bytes()
        assert (out_dir / "aggregate.csv").read_bytes() == (
            self.GOLDEN / "simulate_small_aggregate.csv"
        ).read_bytes()


# Raw INI values for the boundary fuzz, by the parser the schema gives a
# key: mostly numbers, huge, tiny, negative or zero, now and then malformed.
FUZZ_NUMBERS = [
    "0", "-0", "1", "-1", "2.5", "10", "28", "200", "-200", "1e6", "1e15", "1e-6",
    "1e150", "1e300", "-1e300", "1e308", "-1e308", "1e-308", "5e-324",
]
FUZZ_MALFORMED = ["", "x", "1e", "nan", "inf", "-inf", "1,", "0x1"]
FUZZ_BY_PARSER = {
    cfg._parse_float: FUZZ_NUMBERS,
    cfg._parse_int: ["0", "1", "4", "-1", "18446744073709551615", "1" + "0" * 400, "2.5"],
    cfg._parse_bool: ["yes", "off", "1", "maybe"],
    cfg._parse_str: ["equal", "proportional", "omni"],
}
# Keys that set how much work a run does keep small values: the fuzz
# leaves huge UE, BS and seed counts, long grids and long wf_c sweeps out.
# Each holds values that run, then values that fail.
FUZZ_SIZES = {
    ("scenario", "n_ue"): (["1", "3", "16"], ["0", "-1", "2.5"]),
    ("sweep", "n_bs"): (["1", "2", "1, 3"], ["0", "21", "2.5"]),
    ("sweep", "seeds"): (["1", "2"], ["0", "-1"]),
    ("sweep", "frequencies_ghz"): (["3.5", "28", "17, 3.5"], ["5", "1e308", "0", "-28"]),
    ("sweep", "antenna_modes"): (["omni", "directional", "omni, directional"], ["sector"]),
    ("sweep", "wf_c_db_start"): (["-10", "0", "60", "120"], []),
    ("sweep", "wf_c_db_stop"): (["-10", "0", "60", "120"], ["1e308"]),
    ("sweep", "wf_c_db_step"): (["1", "7.5", "1e308"], ["0", "-1", "5e-324", "1e-300"]),
}
# Size keys a simulate run always sets, so no run falls back to the
# 600-drop reference grid of 1024 UEs.
FUZZ_SIMULATE_SIZES = [("scenario", "n_ue"), ("sweep", "n_bs"), ("sweep", "seeds"),
                       ("sweep", "frequencies_ghz"), ("sweep", "antenna_modes")]
# Per multi-line key: the keys of a line that parses, then others.
FUZZ_LINE_KEYS = {
    ("cascade", "stages"): (
        [["w", "g"], ["w_db", "gain_db"], ["w", "gain_db"], ["loss_db"]],
        ["w", "g", "w_db", "gain_db", "loss_db", "bogus"],
    ),
    ("metrics", "readings"): (
        [["p_signal_w", "p_non_signal_w", "p_non_path_w", "data_volume_gb", "duration_h"]],
        ["p_signal_w", "p_non_signal_w", "p_non_path_w", "data_volume_gb", "duration_h", "bogus"],
    ),
}
# The sections each command reads; a document holds mostly these.
FUZZ_COMMANDS = {
    "cascade": ["cascade", "ru"],
    "system": ["ru", "ue", "sweep", "channel"],
    "metrics": ["metrics"],
    "simulate": ["scenario", "sweep"],
}
CSV_NAMES = ("drops.csv", "aggregate.csv")
NON_FINITE_WORD = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def fuzz_value(draw, pool, bad=()):
    """One of ``pool``, or one time in eight one of ``bad`` or a malformed
    string."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from([*bad, *FUZZ_MALFORMED]))
    return draw(st.sampled_from(pool))


@st.composite
def fuzz_lines(draw, shapes, keys):
    """A multi-line value: lines of ``name key=value ...`` tokens, mostly
    with the keys of one of ``shapes``, now and then a bare token."""
    lines = []
    for i in range(draw(st.integers(0, 3))):
        tokens = [f"n{i}"]
        if draw(st.integers(0, 3)):
            line_keys = draw(st.sampled_from(shapes))
        else:
            line_keys = draw(st.lists(st.sampled_from(keys), max_size=3))
        for key in line_keys:
            tokens.append(f"{key}={fuzz_value(draw, FUZZ_NUMBERS)}")
        if draw(st.integers(0, 9)) == 0:
            tokens.append("bare")
        lines.append(" ".join(tokens))
    return "".join(f"\n    {line}" for line in lines)


@st.composite
def fuzz_runs(draw):
    """A command and an INI document built from config's own schema tables:
    any sections, any of their keys, values huge, tiny, negative, zero or
    malformed."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    names = draw(st.lists(st.sampled_from(FUZZ_COMMANDS[command]), unique=True))
    if draw(st.integers(0, 7)) == 0:
        names.append(draw(st.sampled_from(sorted(set(cfg._SCHEMA) - set(names)))))
    sections: dict[str, list[str]] = {}
    for section in names:
        schema = cfg._section_schema(section)
        sections[section] = draw(st.lists(st.sampled_from(sorted(schema)), unique=True, max_size=4))
    if command == "simulate":
        for section, key in FUZZ_SIMULATE_SIZES:
            keys = sections.setdefault(section, [])
            if key not in keys:
                keys.append(key)
    text = []
    for section, keys in sections.items():
        text.append(f"[{section}]")
        schema = cfg._section_schema(section)
        for key in keys:
            if (section, key) in FUZZ_LINE_KEYS:
                value = draw(fuzz_lines(*FUZZ_LINE_KEYS[section, key]))
            elif (section, key) in FUZZ_SIZES:
                value = fuzz_value(draw, *FUZZ_SIZES[section, key])
            else:
                value = fuzz_value(draw, FUZZ_BY_PARSER[schema[key]])
            text.append(f"{key} = {value}")
    options = []
    if command == "simulate":
        options = ["--jobs", "1"]  # no process pool
    elif draw(st.booleans()):
        options = ["--format", draw(st.sampled_from(["csv", "json"]))]
    return command, "\n".join(text) + "\n", options


def fuzz_small_grid(scenario_lines, seeds=1):
    """A ``simulate`` run of two BSs at 28 GHz, omni, under ``[scenario]``
    lines."""
    grid = f"[sweep]\nn_bs = 2\nseeds = {seeds}\nfrequencies_ghz = 28\nantenna_modes = omni\n"
    return "simulate", f"[scenario]\n{scenario_lines}\n{grid}", ["--jobs", "1"]


class TestFiniteInFiniteOut:
    """Every INI document, whatever its values, either runs to finite
    output or fails at the boundary with the exit code and message the
    README promises: no traceback, no warning, no quiet NaN."""

    # Derandomized, so the suite repeats run to run; the examples are what
    # wider random runs of the same strategy found, each of which once
    # escaped cli.main as a traceback or a numpy warning, or exited 0 with
    # inf in a CSV.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(run=fuzz_runs())
    @example(run=("system", "[ue]\nadc_fom_j = 1e-12\nadc_bits = 2000\n", []))
    @example(run=("system", "[ru]\nantenna_vswr = 1e308\n", []))
    @example(run=("system", "[ru]\nantenna_efficiency = 1e-308\n"
                            "mixer_conversion_loss_db = 200\n", []))
    @example(run=("system", f"[ue]\nn_rx = 1{'0' * 400}\n", []))
    @example(run=fuzz_small_grid("n_ue = 1\nbandwidth_mhz = 5e-324"))
    @example(run=fuzz_small_grid("n_ue = 16\nw_ue = 1e308", seeds=2))
    @example(run=fuzz_small_grid("n_ue = 1\nregion_radius_m = 1e300"))
    @example(run=fuzz_small_grid("n_ue = 1\nue_height_m = -1e308"))
    @example(run=fuzz_small_grid("n_ue = 4\nregion_radius_m = 1e150"))
    def test_runs_end_finite_or_fail_cleanly(self, tmp_path_factory, run):
        command, text, options = run
        work = tmp_path_factory.mktemp("fuzz")
        config_path = work / "run.ini"
        config_path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        argv = [command, str(config_path), *options]
        if command == "simulate":
            argv += ["--out", str(work / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 1, 2)
        if code == 0:
            outputs = [out.getvalue()]
            if command == "simulate":
                outputs += [(work / "out" / name).read_text() for name in CSV_NAMES]
            assert not any(NON_FINITE_WORD.search(text) for text in outputs), outputs
        else:
            assert err.getvalue().startswith(("config error:", "error:")), err.getvalue()
            assert code == (2 if err.getvalue().startswith("config error:") else 1)
