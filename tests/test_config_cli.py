import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wastefactor import cli
from wastefactor.components import Adc, reference_ru_spec, reference_ue_spec
from wastefactor.config import (
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
from wastefactor.netsim import CampaignSpec, Scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# One non-default [scenario] line per Scenario field, and the value it gives.
SCENARIO_SETTINGS = {
    "frequency_hz": ("frequency_ghz = 28", 28e9),
    "antenna_mode": ("antenna_mode = omni", "omni"),
    "n_bs": ("n_bs = 7", 7),
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
    "g_bs_db": ("g_bs_db = 20", 20.0),
    "w_ue": ("w_ue = 20", 20.0),
    "g_ue_db": ("g_ue_db = 6", 6.0),
    "p_non_path_bs_w": ("p_non_path_bs_w = 100", 100.0),
    "p_non_path_ue_w": ("p_non_path_ue_w = 0.5", 0.5),
    "ple": ("ple = 2.5", 2.5),
    "sigma_db": ("sigma_db = 3", 3.0),
    "apply_shadowing": ("apply_shadowing = yes", True),
    "fallback_nearest": ("fallback_nearest = off", False),
    "power_allocation": ("power_allocation = proportional", "proportional"),
    "scale_non_path_per_area": ("scale_non_path_per_area = false", False),
    "seed": ("seed = 9", 9),
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
        path.write_text("[scenario]\nn_bs = many\n")
        with pytest.raises(ConfigError, match="n_bs"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_semantic_errors_carry_section_location(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ru]\ndac_efficiency = 1.3\n")
        with pytest.raises(ConfigError, match=r"invalid \[ru\].*efficiency"):
            ru_spec_from_config(load_config(path))
        path.write_text("[scenario]\nn_bs = 0\n")
        with pytest.raises(ConfigError, match=r"invalid \[scenario\].*n_bs"):
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

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)])
    def test_every_scenario_field_settable(self, tmp_path, field):
        line, expected = SCENARIO_SETTINGS[field]
        assert getattr(Scenario(), field) != expected
        path = tmp_path / "sc.ini"
        path.write_text(f"[scenario]\n{line}\n")
        scenario = scenario_from_config(load_config(path))
        assert scenario == dataclasses.replace(Scenario(), **{field: expected})

    def test_scenario_overrides(self, tmp_path):
        path = tmp_path / "sc.ini"
        path.write_text(
            "[scenario]\nfrequency_ghz = 17\nantenna_mode = omni\nn_bs = 7\n"
            "bandwidth_mhz = 100\nseed = 42\napply_shadowing = true\n"
        )
        scenario = scenario_from_config(load_config(path))
        assert scenario.frequency_hz == 17e9
        assert scenario.antenna_mode == "omni"
        assert scenario.n_bs == 7
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
