import math
import re

import numpy as np
import pytest

from wastefactor.channel import (
    BAND_PRESETS,
    BS_APERTURE,
    SPEED_OF_LIGHT_M_S,
    UE_APERTURE,
    ApertureAntenna,
    PathLossModel,
    aperture_gain_db,
    band_preset,
    effective_channel,
    fspl_1m_db,
    noise_power_dbm,
    path_loss_db,
)
from wastefactor.components import GenericPassive


class TestFspl:
    def test_known_frequencies(self):
        assert fspl_1m_db(3.5e9) == pytest.approx(43.32, abs=5e-3)
        assert fspl_1m_db(28e9) == pytest.approx(61.38, abs=5e-3)

    def test_zero_at_lambda_equal_4pi(self):
        frequency = SPEED_OF_LIGHT_M_S / (4.0 * math.pi)
        assert fspl_1m_db(frequency) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        # inf once gave an infinite loss, NaN a NaN one.
        for frequency_hz in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"frequency_hz must be finite and > 0 Hz, got {frequency_hz}"):
                fspl_1m_db(frequency_hz)
        # 4 pi f / c once overflowed to an infinite loss, or underflowed to 0
        # and failed as a math domain error.
        for frequency_hz, value in ((1e308, "inf"), (1e-320, "0.0")):
            message = f"frequency_hz = {frequency_hz} takes the ratio 4 pi f / c out of float range"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {value}$"):
                fspl_1m_db(frequency_hz)


class TestPathLoss:
    def test_anchor_at_one_meter(self):
        model = PathLossModel(frequency_hz=3.5e9, ple=1.82)
        assert path_loss_db(model, 1.0) == pytest.approx(fspl_1m_db(3.5e9))

    def test_sub_anchor_distances_clamp(self):
        model = PathLossModel(frequency_hz=3.5e9, ple=1.82)
        assert path_loss_db(model, 0.2) == path_loss_db(model, 1.0)
        assert path_loss_db(model, 0.0) == path_loss_db(model, 1.0)

    def test_reference_examples(self):
        model28 = PathLossModel(frequency_hz=28e9, ple=2.02)
        assert path_loss_db(model28, 100.0) == pytest.approx(101.78, abs=5e-3)
        model35 = PathLossModel(frequency_hz=3.5e9, ple=1.82)
        assert path_loss_db(model35, 100.0) == pytest.approx(79.72, abs=5e-3)

    def test_shadow_term_is_additive(self):
        model = PathLossModel(frequency_hz=17e9, ple=2.0)
        base = path_loss_db(model, 50.0)
        assert path_loss_db(model, 50.0, shadow_db=4.2) == pytest.approx(base + 4.2)

    def test_monotone_in_distance(self):
        model = PathLossModel(frequency_hz=17e9, ple=2.0)
        distances = np.linspace(1.0, 2000.0, 64)
        losses = [path_loss_db(model, d) for d in distances]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            PathLossModel(frequency_hz=1e9, ple=0.0)
        with pytest.raises(ValueError, match="frequency must be > 0 Hz, got 0"):
            PathLossModel(frequency_hz=0, ple=2.0)

    def test_non_finite_exponent_rejected(self):
        with pytest.raises(ValueError, match="ple must be finite"):
            PathLossModel(frequency_hz=1e9, ple=math.nan)

    def test_shadowing_sigma_defaults_to_zero_and_must_not_be_negative(self):
        assert PathLossModel(frequency_hz=1e9, ple=2.0).sigma_db == 0.0
        with pytest.raises(ValueError, match="sigma must be >= 0 dB, got -1.0"):
            PathLossModel(frequency_hz=1e9, ple=2.0, sigma_db=-1.0)
        with pytest.raises(ValueError, match="sigma_db must be finite"):
            PathLossModel(frequency_hz=1e9, ple=2.0, sigma_db=math.nan)

    @pytest.mark.parametrize("distance_m", [-50.0, -0.5, math.nan, math.inf, -math.inf])
    def test_bad_distances_rejected(self, distance_m):
        # -50 m once gave the 1 m loss and NaN a NaN loss.
        model = PathLossModel(frequency_hz=28e9, ple=2.02)
        with pytest.raises(ValueError, match=f"distance_m must be finite and >= 0, got {distance_m}"):
            path_loss_db(model, distance_m)


class TestBandPresets:
    def test_each_preset_is_the_model_of_its_band(self):
        assert sorted(BAND_PRESETS) == [3.5e9, 17e9, 28e9]
        for frequency_hz, preset in BAND_PRESETS.items():
            assert isinstance(preset, PathLossModel)
            assert preset.frequency_hz == frequency_hz
            assert band_preset(frequency_hz) is preset
        assert BAND_PRESETS[17e9] == PathLossModel(17e9, ple=2.0, sigma_db=6.6)

    def test_package_names_resolve_through_channel(self):
        import wastefactor

        assert wastefactor.BAND_PRESETS is BAND_PRESETS
        assert wastefactor.band_preset is band_preset


class TestApertureGain:
    # The simulator's apertures: 1 m x 1 m at the BS, 3 cm x 3 cm at the UE.
    BS, UE = BS_APERTURE, UE_APERTURE

    @pytest.mark.parametrize(
        "antenna,frequency_hz,expected_db",
        [
            (UE, 3.5e9, 0.90),
            (UE, 17e9, 14.63),
            (UE, 28e9, 18.97),
            (BS, 3.5e9, 31.36),
            (BS, 17e9, 45.09),
            (BS, 28e9, 49.42),
        ],
    )
    def test_reference_gain_table(self, antenna, frequency_hz, expected_db):
        assert aperture_gain_db(antenna, frequency_hz) == pytest.approx(
            expected_db, abs=0.02
        )

    def test_frequency_squared_scaling(self):
        gain_lo = aperture_gain_db(self.BS, 3.5e9)
        gain_hi = aperture_gain_db(self.BS, 17e9)
        assert gain_hi - gain_lo == pytest.approx(
            20.0 * math.log10(17.0 / 3.5), abs=1e-9
        )

    def test_effective_aperture(self):
        assert self.UE.effective_aperture_m2 == pytest.approx(7.2e-4, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ApertureAntenna(efficiency=0.0, physical_area_m2=1.0)
        with pytest.raises(ValueError):
            ApertureAntenna(efficiency=0.5, physical_area_m2=0.0)
        # inf once raised ZeroDivisionError and NaN gave a NaN gain.
        for frequency_hz in (0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"frequency_hz must be finite and > 0 Hz, got {frequency_hz}"):
                aperture_gain_db(self.BS, frequency_hz)
        # The squared wavelength once underflowed to 0 (ZeroDivisionError) or
        # overflowed to inf (a math domain error).
        for antenna, frequency_hz, value in ((self.BS, 1e200, "0.0"),
                                             (UE_APERTURE, 1e-300, "inf")):
            message = f"frequency_hz = {frequency_hz} takes the squared wavelength out of float range"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {value}$"):
                aperture_gain_db(antenna, frequency_hz)

    def test_non_finite_area_rejected(self):
        with pytest.raises(ValueError, match="physical_area_m2 must be finite"):
            ApertureAntenna(efficiency=0.8, physical_area_m2=math.inf)


class TestEffectiveChannel:
    def test_gains_subtract_from_loss(self):
        stage = effective_channel(100.0, g_tx_db=20.0, g_rx_db=10.0)
        assert stage.wf_db == pytest.approx(70.0, abs=1e-9)
        assert stage.w == pytest.approx(1e7, rel=1e-9)

    def test_omnidirectional_reduction(self):
        stage = effective_channel(83.5)
        assert stage.w == pytest.approx(10.0 ** 8.35, rel=1e-12)

    def test_consistency_with_generic_passive(self):
        for loss_db in (0.0, 12.5, 70.0):
            channel = effective_channel(loss_db)
            passive = GenericPassive(loss_db=loss_db).converted.stage
            assert channel.w == passive.w
            assert channel.g == passive.g

    def test_directional_composition_example(self):
        model = PathLossModel(frequency_hz=28e9, ple=2.02)
        pl = path_loss_db(model, 100.0)
        bs = aperture_gain_db(ApertureAntenna(0.8, 1.0), 28e9)
        ue = aperture_gain_db(ApertureAntenna(0.8, 9e-4), 28e9)
        stage = effective_channel(pl, bs, ue)
        assert stage.wf_db == pytest.approx(33.39, abs=0.02)

    def test_net_gain_clamps_to_unit_w(self):
        with pytest.warns(UserWarning, match="clamping"):
            stage = effective_channel(10.0, g_tx_db=20.0)
        assert stage.w == 1.0
        assert stage.g == 1.0


class TestNoisePower:
    def test_reference_cases(self):
        assert noise_power_dbm(400e6, 5.0) == pytest.approx(-82.98, abs=5e-3)
        assert noise_power_dbm(1.0, 0.0) == pytest.approx(-174.0)
        assert noise_power_dbm(20e6, 9.0) == pytest.approx(-91.99, abs=5e-3)

    def test_validation(self):
        # Each NaN and infinity below once gave a NaN or infinite noise floor.
        for bandwidth_hz in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"bandwidth_hz must be finite and > 0 Hz, got {bandwidth_hz}"):
                noise_power_dbm(bandwidth_hz)
        for noise_figure_db in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"noise_figure_db must be finite, got {noise_figure_db}"):
                noise_power_dbm(1e6, noise_figure_db)
