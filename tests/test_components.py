import math

import numpy as np
import pytest

from wastefactor.components import (
    Adc,
    Antenna,
    Dac,
    GenericActive,
    GenericPassive,
    Lna,
    Mixer,
    PhaseShifter,
    PowerAmplifier,
    RuSpec,
    UeSpec,
    build_ru,
    build_ue,
    end_to_end,
    mismatch_loss_db,
    pae_from_walker,
    reference_ru_spec,
    reference_ue_spec,
    reflection_coefficient,
    return_loss_db,
    stage_of,
)
from wastefactor.core import Stage
from wastefactor.units import db_to_linear


@pytest.mark.parametrize(
    "build",
    [
        lambda: Mixer(conversion_loss_db=math.nan),
        lambda: PowerAmplifier(pae=0.5, gain_db=math.nan),
        lambda: Lna(gain_db=math.nan),
        lambda: PhaseShifter(insertion_loss_db=math.inf),
    ],
    ids=["mixer", "pa", "lna", "phase_shifter"],
)
def test_device_specs_reject_non_finite_numbers(build):
    # Each of these once built and failed only later, inside stage_of.
    with pytest.raises(ValueError, match="must be finite"):
        build()


class TestVswrHelpers:
    def test_reflection_coefficient(self):
        assert reflection_coefficient(1.0) == 0.0
        assert reflection_coefficient(1.5) == pytest.approx(0.2, rel=1e-12)
        with pytest.raises(ValueError):
            reflection_coefficient(0.9)

    def test_mismatch_loss(self):
        # |Gamma| = 0.2 absorbs 4% of the power: -10 log10(0.96)
        assert mismatch_loss_db(1.5) == pytest.approx(0.1773, abs=1e-4)
        assert mismatch_loss_db(1.0) == 0.0

    def test_return_loss(self):
        assert return_loss_db(1.5) == pytest.approx(13.979, abs=1e-3)
        assert return_loss_db(1.0) == math.inf


class TestPassiveDevices:
    def test_mixer(self):
        stage, non_path = stage_of(Mixer(conversion_loss_db=8.2))
        assert stage.w == pytest.approx(db_to_linear(8.2), rel=1e-15)
        assert stage.w * stage.g == pytest.approx(1.0, rel=1e-15)
        assert non_path == 0.0

    def test_mixer_with_insertion_loss(self):
        stage, _ = stage_of(Mixer(conversion_loss_db=6.0, insertion_loss_db=1.5))
        assert stage.wf_db == pytest.approx(7.5, abs=1e-12)

    def test_phase_shifter_sums_losses(self):
        stage, _ = stage_of(PhaseShifter(insertion_loss_db=3.5, reflection_loss_db=14.0))
        assert stage.wf_db == pytest.approx(17.5, abs=1e-12)

    def test_generic_passive(self):
        stage, _ = stage_of(GenericPassive(loss_db=3.0))
        assert stage.w == pytest.approx(db_to_linear(3.0), rel=1e-15)

    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            Mixer(conversion_loss_db=-1.0)
        with pytest.raises(ValueError):
            PhaseShifter(insertion_loss_db=-0.1)
        with pytest.raises(ValueError):
            GenericPassive(loss_db=-3.0)


class TestAntenna:
    def test_reference_antenna_with_mismatch(self):
        stage, _ = stage_of(Antenna(radiation_efficiency=0.6, vswr=1.5))
        assert stage.w == pytest.approx(1.0 / (0.6 * 0.96), rel=1e-12)

    def test_mismatch_flag_off_gives_pure_efficiency(self):
        spec = Antenna(radiation_efficiency=0.6, vswr=1.5, include_mismatch=False)
        stage, _ = stage_of(spec)
        assert stage.w == pytest.approx(1.0 / 0.6, rel=1e-15)
        assert stage.g == pytest.approx(0.6, rel=1e-15)

    def test_stage_gain_is_efficiency_not_directivity(self):
        stage, _ = stage_of(Antenna(radiation_efficiency=0.7, vswr=1.5))
        assert stage.g < 1.0
        assert stage.g == pytest.approx(1.0 / stage.w, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Antenna(radiation_efficiency=0.0)
        with pytest.raises(ValueError):
            Antenna(radiation_efficiency=1.2)
        with pytest.raises(ValueError):
            Antenna(radiation_efficiency=0.5, vswr=0.5)


class TestActiveDevices:
    def test_pa_from_pae(self):
        stage, non_path = stage_of(PowerAmplifier(pae=0.48, gain_db=50.0))
        assert stage.w == pytest.approx(1.0 / 0.48, rel=1e-15)
        assert stage.g == pytest.approx(1e5, rel=1e-12)
        assert non_path == 0.0

    def test_pa_from_powers(self):
        stage, _ = stage_of(PowerAmplifier(p_dc_w=10.0, p_in_w=1.0, p_out_w=8.0))
        assert stage.w == pytest.approx(1.375, rel=1e-15)
        assert stage.g == pytest.approx(8.0, rel=1e-15)

    def test_pa_quiescent_is_non_path(self):
        _, non_path = stage_of(PowerAmplifier(pae=0.5, gain_db=30.0, quiescent_w=2.5))
        assert non_path == 2.5

    def test_pa_validation(self):
        with pytest.raises(ValueError, match="either"):
            PowerAmplifier()
        with pytest.raises(ValueError, match="either"):
            PowerAmplifier(pae=0.5, gain_db=10.0, p_dc_w=1.0, p_in_w=0.1, p_out_w=0.5)
        with pytest.raises(ValueError, match="PAE"):
            PowerAmplifier(pae=1.5, gain_db=10.0)
        with pytest.raises(ValueError, match="unphysical"):
            PowerAmplifier(p_dc_w=1.0, p_in_w=1.0, p_out_w=2.5)

    def test_generic_active_example(self):
        stage, _ = stage_of(GenericActive(p_dc_w=10.0, p_in_w=1.0, p_out_w=8.0))
        assert stage.w == pytest.approx(11.0 / 8.0, rel=1e-15)
        assert stage.g == pytest.approx(8.0)
        with pytest.raises(ValueError, match="unphysical"):
            GenericActive(p_dc_w=1.0, p_in_w=1.0, p_out_w=2.0)

    def test_lna_ideal(self):
        stage, _ = stage_of(Lna(gain_db=20.0))
        assert stage.w == 1.0
        assert stage.g == pytest.approx(100.0, rel=1e-12)

    def test_lna_fom_variant(self):
        # W = G / (FoM * SNR_in * P_an); parameters chosen to land above 1.
        spec = Lna(gain_db=20.0, fom=50.0, snr_in=10.0, p_additive_noise_w=0.1)
        stage, _ = stage_of(spec)
        assert stage.w == pytest.approx(100.0 / (50.0 * 10.0 * 0.1), rel=1e-12)

    def test_lna_fom_from_noise_factor(self):
        spec = Lna(
            gain_db=20.0, fom=50.0, snr_in=10.0, noise_factor=2.0, input_noise_w=1e-3
        )
        stage, _ = stage_of(spec)
        # P_an = (F - 1) G N_in = 0.1 W, same as the direct variant
        assert stage.w == pytest.approx(2.0, rel=1e-12)

    def test_lna_fom_validation(self):
        with pytest.raises(ValueError, match="snr_in"):
            Lna(gain_db=20.0, fom=50.0)
        with pytest.raises(ValueError, match="p_additive_noise_w"):
            Lna(gain_db=20.0, fom=50.0, snr_in=10.0)

    def test_dac(self):
        stage, non_path = stage_of(Dac(efficiency=0.91))
        assert stage.w == pytest.approx(1.0 / 0.91, rel=1e-15)
        assert stage.g == 1.0
        assert non_path == 0.0

    def test_adc_is_non_path_only(self):
        stage, non_path = stage_of(Adc(fom_j=1e-12, sample_rate_hz=1e9, bits=10))
        assert (stage.w, stage.g) == (1.0, 1.0)
        # FoM * f_s * 2^bits = 1e-12 * 1e9 * 1024
        assert non_path == pytest.approx(1.024, rel=1e-12)

    def test_adc_validation(self):
        with pytest.raises(ValueError):
            Adc(fom_j=1e-12, sample_rate_hz=0.0, bits=10)
        with pytest.raises(ValueError):
            Adc(fom_j=1e-12, sample_rate_hz=1e9, bits=0)


class TestWalkerPae:
    def test_consistency_with_power_definition(self):
        # PAE#2 = (8 - 1)/10 = 0.7 on the same amplifier as (P_DC + P_in)/P_out
        w = pae_from_walker(pae2=0.7, p_in_w=1.0, p_dc_w=10.0, gain=8.0)
        assert w == pytest.approx(1.375, rel=1e-12)

    def test_limiting_cases(self):
        assert pae_from_walker(0.7, 1e-9, 1e3, 1e12) == pytest.approx(1.0 / 0.7, rel=1e-6)
        assert pae_from_walker(1.0, 1e-9, 1e3, 1e12) == pytest.approx(1.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="gain"):
            pae_from_walker(0.5, 1.0, 10.0, 1.0)
        with pytest.raises(ValueError, match="PAE"):
            pae_from_walker(0.0, 1.0, 10.0, 8.0)


class TestRuComposition:
    def test_reference_without_mismatch(self):
        result = build_ru(reference_ru_spec(include_mismatch=False))
        assert result.stage.w == pytest.approx(3.479, abs=5e-4)
        assert result.non_path_w == 0.0

    def test_reference_with_mismatch(self):
        result = build_ru(reference_ru_spec(include_mismatch=True))
        assert result.stage.w == pytest.approx(3.624, abs=5e-4)

    def test_matches_longhand_expansion(self):
        spec = reference_ru_spec(include_mismatch=False)
        w_ant, g_ant = 1.0 / 0.6, 0.6
        w_pa, g_pa = 1.0 / 0.48, 1e5
        w_ps, g_ps = db_to_linear(17.5), db_to_linear(-17.5)
        w_mix, g_mix = db_to_linear(8.2), db_to_linear(-8.2)
        w_dac = 1.0 / 0.91
        expected = (
            w_ant
            + (w_pa - 1.0) / g_ant
            + (w_ps - 1.0) / (g_pa * g_ant)
            + (w_mix - 1.0) / (g_ps * g_pa * g_ant)
            + (w_dac - 1.0) / (g_mix * g_ps * g_pa * g_ant)
        )
        assert build_ru(spec).stage.w == pytest.approx(expected, rel=1e-12)

    def test_all_ideal_ru_has_unit_w(self):
        spec = RuSpec(
            dac=Dac(efficiency=1.0),
            mixer=Mixer(conversion_loss_db=0.0),
            phase_shifter=PhaseShifter(insertion_loss_db=0.0),
            pa=PowerAmplifier(pae=1.0, gain_db=20.0),
            antenna=Antenna(radiation_efficiency=1.0, vswr=1.0),
        )
        assert build_ru(spec).stage.w == pytest.approx(1.0, rel=1e-15)

    def test_per_chain_non_path_scales_with_n_tx(self):
        spec = reference_ru_spec()
        spec = RuSpec(
            dac=spec.dac,
            mixer=spec.mixer,
            phase_shifter=spec.phase_shifter,
            pa=PowerAmplifier(pae=0.48, gain_db=50.0, quiescent_w=2.0),
            antenna=spec.antenna,
            n_tx=4,
            lo_power_w=1.5,
        )
        result = build_ru(spec)
        assert result.non_path_w == pytest.approx(4 * 2.0 + 1.5)
        # W itself is unchanged by the chain count: identical chains collapse.
        assert result.stage.w == pytest.approx(
            build_ru(reference_ru_spec()).stage.w, rel=1e-12
        )


class TestUeComposition:
    def test_reference_values(self):
        off = build_ue(reference_ue_spec(include_mismatch=False))
        on = build_ue(reference_ue_spec(include_mismatch=True))
        assert off.stage.w == pytest.approx(18.70, abs=5e-3)
        assert on.stage.w == pytest.approx(18.71, abs=5e-3)

    def test_matches_longhand_expansion(self):
        spec = reference_ue_spec(include_mismatch=True)
        w_ant = 1.0 / (0.7 * 0.96)
        g_ant = 0.7 * 0.96
        w_lna, g_lna = 1.0, 100.0
        w_ps, g_ps = db_to_linear(6.0), db_to_linear(-6.0)
        w_mix, g_mix = db_to_linear(6.7), db_to_linear(-6.7)
        expected = (
            w_mix
            + (w_ps - 1.0) / g_mix
            + (w_lna - 1.0) / (g_mix * g_ps)
            + (w_ant - 1.0) / (g_mix * g_ps * g_lna)
        )
        assert build_ue(spec).stage.w == pytest.approx(expected, rel=1e-12)

    def test_ideal_lna_zeroes_its_term(self):
        spec = reference_ue_spec()
        with_lna = build_ue(spec).stage.w
        # Raising the LNA gain leaves only the antenna term scaling.
        boosted = UeSpec(
            antenna=spec.antenna,
            lna=Lna(gain_db=40.0),
            phase_shifter=spec.phase_shifter,
            mixer=spec.mixer,
        )
        w_ant = 1.0 / (0.7 * 0.96)
        g_ps, g_mix = db_to_linear(-6.0), db_to_linear(-6.7)
        delta = (w_ant - 1.0) / (g_mix * g_ps) * (1.0 / 100.0 - 1.0 / 1e4)
        assert with_lna - build_ue(boosted).stage.w == pytest.approx(delta, rel=1e-9)

    def test_mixer_only_ue(self):
        spec = UeSpec(
            antenna=Antenna(radiation_efficiency=1.0, vswr=1.0),
            lna=Lna(gain_db=0.0),
            phase_shifter=PhaseShifter(insertion_loss_db=0.0),
            mixer=Mixer(conversion_loss_db=6.7),
        )
        assert build_ue(spec).stage.w == pytest.approx(db_to_linear(6.7), rel=1e-12)

    def test_adc_contributes_non_path_only(self):
        spec = reference_ue_spec()
        with_adc = UeSpec(
            antenna=spec.antenna,
            lna=spec.lna,
            phase_shifter=spec.phase_shifter,
            mixer=spec.mixer,
            adc=Adc(fom_j=1e-12, sample_rate_hz=1e9, bits=10),
        )
        base = build_ue(spec)
        result = build_ue(with_adc)
        assert result.stage.w == pytest.approx(base.stage.w, rel=1e-15)
        assert result.non_path_w == pytest.approx(1.024, rel=1e-12)


class TestEndToEnd:
    def test_closed_form_matches_cascade(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            ru = Stage(1.0 + 10 * rng.random(), 10.0 ** rng.uniform(-2, 3))
            w_c = 10.0 ** rng.uniform(0, 10)
            channel = Stage(w_c, 1.0 / w_c)
            ue = Stage(1.0 + 30 * rng.random(), 10.0 ** rng.uniform(-1, 2))
            closed = ue.w + (channel.w - 1.0) / ue.g + (ru.w - 1.0) / (channel.g * ue.g)
            assert end_to_end(ru, channel, ue).w == pytest.approx(closed, rel=1e-12)

    def test_lossless_channel_ideal_ue(self):
        ru = Stage(3.5, 161.0)
        system = end_to_end(ru, Stage(1.0, 1.0), Stage(1.0, 1.0))
        assert system.w == pytest.approx(3.5, rel=1e-15)

    def test_unit_db_slope_in_channel_dominated_regime(self):
        ru = build_ru(reference_ru_spec(include_mismatch=False)).stage
        ue = build_ue(reference_ue_spec(include_mismatch=False)).stage
        wf = []
        for wf_c_db in range(80, 125, 5):
            channel = Stage.from_loss_db(float(wf_c_db))
            wf.append(end_to_end(ru, channel, ue).wf_db)
        diffs = np.diff(wf)
        assert np.all(np.abs(diffs - 5.0) < 0.01)
