import math

import numpy as np
import pytest

from wastefactor.channel import (
    SPEED_OF_LIGHT_M_S,
    ApertureAntenna,
    PathLossModel,
    aperture_gain_db,
    effective_channel,
    fspl_1m_db,
    noise_power_dbm,
    path_loss_db,
)
from wastefactor.components import GenericPassive, stage_of


class TestFspl:
    def test_known_frequencies(self):
        assert fspl_1m_db(3.5e9) == pytest.approx(43.32, abs=5e-3)
        assert fspl_1m_db(28e9) == pytest.approx(61.38, abs=5e-3)

    def test_zero_at_lambda_equal_4pi(self):
        frequency = SPEED_OF_LIGHT_M_S / (4.0 * math.pi)
        assert fspl_1m_db(frequency) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fspl_1m_db(0.0)


class TestPathLoss:
    def test_anchor_at_one_meter(self):
        model = PathLossModel(frequency_hz=3.5e9, ple=1.82)
        assert path_loss_db(model, 1.0) == pytest.approx(fspl_1m_db(3.5e9))

    def test_sub_anchor_distances_clamp(self):
        model = PathLossModel(frequency_hz=3.5e9, ple=1.82)
        assert path_loss_db(model, 0.2) == path_loss_db(model, 1.0)

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

    def test_non_finite_exponent_rejected(self):
        with pytest.raises(ValueError, match="ple must be finite"):
            PathLossModel(frequency_hz=1e9, ple=math.nan)


class TestApertureGain:
    BS = ApertureAntenna(efficiency=0.8, physical_area_m2=1.0)
    UE = ApertureAntenna(efficiency=0.8, physical_area_m2=9.0e-4)

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
            passive = stage_of(GenericPassive(loss_db=loss_db)).stage
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
        with pytest.raises(ValueError):
            noise_power_dbm(0.0)
