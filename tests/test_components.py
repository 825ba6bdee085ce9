import dataclasses
import math

import numpy as np
import pytest

from wastefactor import config
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
)
from wastefactor.core import Stage
from wastefactor.units import db_to_linear


@pytest.mark.parametrize(
    "build",
    [
        lambda: Mixer(conversion_loss_db=math.nan),
        lambda: PowerAmplifier(pae=0.5, gain_db=math.nan),
        lambda: Lna(gain_db=math.nan),
        # The float | None branch of require_finite.
        lambda: Lna(gain_db=20.0, fom=math.nan),
        lambda: PhaseShifter(insertion_loss_db=math.inf),
    ],
    ids=["mixer", "pa", "lna", "lna_fom", "phase_shifter"],
)
def test_device_specs_reject_non_finite_numbers(build):
    # Each of these once built and failed only later, on conversion.
    with pytest.raises(ValueError, match="must be finite"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Adc(fom_j=1e-12, bits=2000), "overflows with 2000 bits"),
        (lambda: Adc(fom_j=1e300, sample_rate_hz=1e300, bits=10), "overflows with 10 bits"),
        (lambda: Antenna(radiation_efficiency=0.5, vswr=1e308), "leaves no power to radiate"),
        (
            lambda: dataclasses.replace(reference_ru_spec(), n_tx=10 ** 400),
            "n_tx is too large to scale a power",
        ),
        (
            lambda: dataclasses.replace(reference_ue_spec(), n_rx=10 ** 400),
            "n_rx is too large to scale a power",
        ),
    ],
    ids=["adc-bits", "adc-product", "antenna-vswr", "n_tx", "n_rx"],
)
def test_device_specs_reject_values_that_overflow(build, message):
    # Each of these once built and then raised OverflowError or
    # ZeroDivisionError, which the CLI printed as a traceback.
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dataclasses.replace(reference_ru_spec(), n_tx=2.5), "n_tx must be an integer"),
        (lambda: dataclasses.replace(reference_ue_spec(), n_rx=1.5), "n_rx must be an integer"),
        (lambda: Adc(fom_j=1e-12, bits=10.5), "bits must be an integer"),
    ],
    ids=["n_tx", "n_rx", "adc-bits"],
)
def test_device_specs_reject_non_integer_counts(build, message):
    # Each of these once built and scaled a power by the fractional count.
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "field, value, message",
    [("n_tx", 0, "n_tx must be >= 1, got 0"), ("lo_power_w", -1.0, "LO power must be >= 0 W")],
)
def test_ru_values_out_of_range_are_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(reference_ru_spec(), **{field: value})


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

    @pytest.mark.parametrize("helper", [reflection_coefficient, mismatch_loss_db])
    @pytest.mark.parametrize("vswr", [math.nan, math.inf])
    def test_non_finite_vswr_is_rejected(self, helper, vswr):
        # Each once returned nan.
        with pytest.raises(ValueError, match="vswr must be finite"):
            helper(vswr)

    def test_mismatch_loss_of_total_reflection(self):
        # |Gamma| rounds to 1: this once raised a bare math domain error.
        with pytest.raises(ValueError, match="reflects all the power"):
            mismatch_loss_db(1e308)


class TestPassiveDevices:
    def test_mixer(self):
        stage, non_path = Mixer(conversion_loss_db=8.2).converted
        assert stage.w == pytest.approx(db_to_linear(8.2), rel=1e-15)
        assert stage.w * stage.g == pytest.approx(1.0, rel=1e-15)
        assert non_path == 0.0

    def test_mixer_with_insertion_loss(self):
        stage, _ = Mixer(conversion_loss_db=6.0, insertion_loss_db=1.5).converted
        assert stage.wf_db == pytest.approx(7.5, abs=1e-12)

    def test_phase_shifter_sums_losses(self):
        stage, _ = PhaseShifter(insertion_loss_db=3.5, reflection_loss_db=14.0).converted
        assert stage.wf_db == pytest.approx(17.5, abs=1e-12)

    def test_generic_passive(self):
        stage, _ = GenericPassive(loss_db=3.0).converted
        assert stage.w == pytest.approx(db_to_linear(3.0), rel=1e-15)

    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            Mixer(conversion_loss_db=-1.0)
        with pytest.raises(ValueError):
            PhaseShifter(insertion_loss_db=-0.1)
        with pytest.raises(ValueError, match=r"^passive loss must be >= 0 dB, got -3\.0$"):
            GenericPassive(loss_db=-3.0)


class TestAntenna:
    def test_reference_antenna_with_mismatch(self):
        stage, _ = Antenna(radiation_efficiency=0.6, vswr=1.5).converted
        assert stage.w == pytest.approx(1.0 / (0.6 * 0.96), rel=1e-12)

    def test_mismatch_flag_off_gives_pure_efficiency(self):
        spec = Antenna(radiation_efficiency=0.6, vswr=1.5, include_mismatch=False)
        stage, _ = spec.converted
        assert stage.w == pytest.approx(1.0 / 0.6, rel=1e-15)
        assert stage.g == pytest.approx(0.6, rel=1e-15)

    def test_stage_gain_is_efficiency_not_directivity(self):
        stage, _ = Antenna(radiation_efficiency=0.7, vswr=1.5).converted
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
        stage, non_path = PowerAmplifier(pae=0.48, gain_db=50.0).converted
        assert stage.w == pytest.approx(1.0 / 0.48, rel=1e-15)
        assert stage.g == pytest.approx(1e5, rel=1e-12)
        assert non_path == 0.0

    def test_pa_quiescent_is_non_path(self):
        _, non_path = PowerAmplifier(pae=0.5, gain_db=30.0, quiescent_w=2.5).converted
        assert non_path == 2.5

    def test_pa_validation(self):
        # A PA has one parameterization; a device known by its DC draw and
        # signal powers is a GenericActive (test_generic_active_example).
        with pytest.raises(TypeError):
            PowerAmplifier()
        with pytest.raises(TypeError):
            PowerAmplifier(pae=0.5, gain_db=10.0, p_dc_w=1.0)
        with pytest.raises(ValueError, match="PAE"):
            PowerAmplifier(pae=1.5, gain_db=10.0)

    def test_pa_is_given_by_pae_and_gain(self):
        assert [f.name for f in dataclasses.fields(PowerAmplifier)] == ["pae", "gain_db", "quiescent_w"]
        # The [ru] section keeps its keys and the fields they set.
        assert config._radio_keys("ru") == {
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

    def test_ue_section_keeps_its_keys(self):
        # Derived from UeSpec's fields: a renamed device field must not
        # rename an INI key, and [ue] sets no FoM-based LNA.
        assert config._radio_keys("ue") == {
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

    def test_generic_active_example(self):
        stage, _ = GenericActive(p_dc_w=10.0, p_in_w=1.0, p_out_w=8.0).converted
        assert stage.w == pytest.approx(11.0 / 8.0, rel=1e-15)
        assert stage.g == pytest.approx(8.0)
        with pytest.raises(ValueError, match="unphysical"):
            GenericActive(p_dc_w=1.0, p_in_w=1.0, p_out_w=2.0)

    def test_lna_ideal(self):
        stage, _ = Lna(gain_db=20.0).converted
        assert stage.w == 1.0
        assert stage.g == pytest.approx(100.0, rel=1e-12)

    def test_lna_fom_variant(self):
        # W = G / (FoM * SNR_in * P_an); parameters chosen to land above 1.
        spec = Lna(gain_db=20.0, fom=50.0, snr_in=10.0, p_additive_noise_w=0.1)
        stage, _ = spec.converted
        assert stage.w == pytest.approx(100.0 / (50.0 * 10.0 * 0.1), rel=1e-12)

    def test_lna_fom_from_noise_factor(self):
        # A caller holding F = 2 and N_in = 1 mW passes P_an = (F - 1) G N_in
        # = 0.1 W, the same as the direct variant.
        p_an = (2.0 - 1.0) * db_to_linear(20.0) * 1e-3
        spec = Lna(gain_db=20.0, fom=50.0, snr_in=10.0, p_additive_noise_w=p_an)
        stage, _ = spec.converted
        assert stage.w == pytest.approx(2.0, rel=1e-12)

    def test_lna_fom_validation(self):
        with pytest.raises(ValueError, match="snr_in"):
            Lna(gain_db=20.0, fom=50.0)
        with pytest.raises(ValueError, match="p_additive_noise_w"):
            Lna(gain_db=20.0, fom=50.0, snr_in=10.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(fom=50.0, snr_in=10.0, p_additive_noise_w=0.0), "p_additive_noise_w > 0"),
            (dict(fom=1e-300, snr_in=1e-300, p_additive_noise_w=1e-300), "underflows"),
            (dict(fom=50.0, snr_in=10.0, p_additive_noise_w=10.0), "W = 0.02"),
            (dict(snr_in=10.0, p_additive_noise_w=5.0), "snr_in needs fom"),
            (dict(p_additive_noise_w=5.0), "p_additive_noise_w needs fom"),
        ],
        ids=["zero-noise", "underflow", "w-below-1", "no-fom", "noise-without-fom"],
    )
    def test_lna_that_constructs_converts(self, fields, message):
        # Each of these once built: the first two then raised
        # ZeroDivisionError on conversion, the third a W < 1 error, and the
        # last two ignored the values.
        with pytest.raises(ValueError, match=message):
            Lna(gain_db=20.0, **fields)

    def test_dac(self):
        stage, non_path = Dac(efficiency=0.91).converted
        assert stage.w == pytest.approx(1.0 / 0.91, rel=1e-15)
        assert stage.g == 1.0
        assert non_path == 0.0

    def test_adc_is_non_path_only(self):
        stage, non_path = Adc(fom_j=1e-12, sample_rate_hz=1e9, bits=10).converted
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
        with pytest.raises(ValueError, match="PA powers must be > 0 W"):
            pae_from_walker(0.5, 0.0, 10.0, 8.0)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((0.5, math.nan, 1.0, 10.0), "p_in_w"),
            ((0.5, 1.0, math.inf, 10.0), "p_dc_w"),
            ((0.5, 1.0, 1.0, math.inf), "gain"),
            ((math.nan, 1.0, 1.0, 10.0), "pae2"),
        ],
    )
    def test_non_finite_arguments_are_rejected(self, args, name):
        # A NaN p_in_w once returned nan; an infinite p_dc_w or gain was accepted.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            pae_from_walker(*args)

    def test_inconsistent_arguments_are_rejected(self):
        # PAE#2 * P_DC = 10 W but (G - 1) * P_in = 1 W; this once returned W = 0.55.
        with pytest.raises(ValueError, match=r"W = 0\.55 < 1: .* disagree"):
            pae_from_walker(1.0, 1.0, 10.0, 2.0)


# One valid spec of each device class.
DEVICES = [
    Mixer(conversion_loss_db=8.2, insertion_loss_db=1.0),
    PhaseShifter(insertion_loss_db=3.5, reflection_loss_db=14.0),
    Antenna(radiation_efficiency=0.6, vswr=1.5),
    PowerAmplifier(pae=0.48, gain_db=50.0, quiescent_w=2.0),
    Lna(gain_db=20.0, fom=1.0, snr_in=1.0, p_additive_noise_w=10.0),
    Dac(efficiency=0.91),
    Adc(fom_j=1e-12),
    GenericActive(p_dc_w=10.0, p_in_w=1.0, p_out_w=8.0),
    GenericPassive(loss_db=3.0),
]


class TestConverted:
    """Each spec converts once, when it is built, and keeps the result as
    ``converted``, which is not a field."""

    def test_replace_derives_it_anew(self):
        pa = PowerAmplifier(pae=0.5, gain_db=30.0)
        louder = dataclasses.replace(pa, gain_db=40.0)
        assert louder.converted.stage.g == db_to_linear(40.0)
        assert pa.converted.stage.g == db_to_linear(30.0)
        ru = reference_ru_spec()
        louder_ru = dataclasses.replace(ru, pa=dataclasses.replace(ru.pa, gain_db=60.0))
        assert louder_ru.converted.stage.g == pytest.approx(ru.converted.stage.g * 10.0, rel=1e-12)

    @pytest.mark.parametrize(
        "spec", DEVICES + [reference_ru_spec(), reference_ue_spec()], ids=lambda s: type(s).__name__
    )
    def test_eq_hash_and_repr_ignore_it(self, spec):
        twin = dataclasses.replace(spec)
        twin.__dict__["converted"] = None
        assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
        assert "converted" not in repr(spec)
        assert "converted" not in {f.name for f in dataclasses.fields(spec)}

    def test_building_a_radio_returns_what_its_spec_keeps(self):
        ru, ue = reference_ru_spec(), reference_ue_spec()
        assert build_ru(ru) is build_ru(ru) is ru.converted
        assert build_ue(ue) is build_ue(ue) is ue.converted

    @pytest.fixture
    def stage_labels(self, monkeypatch):
        """The label of each Stage built while the test runs, in order."""
        labels = []
        init = Stage.__init__

        def counting_init(self, w, g, label=""):
            labels.append(label)
            init(self, w, g, label)

        monkeypatch.setattr(Stage, "__init__", counting_init)
        return labels

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: type(d).__name__)
    def test_each_device_converts_once_per_construction(self, stage_labels, device):
        built = dataclasses.replace(device)
        for _ in range(3):
            assert built.converted == device.converted
        assert stage_labels == [device.converted.stage.label]

    def test_each_radio_converts_once_per_construction(self, stage_labels):
        ru = reference_ru_spec()
        ue = dataclasses.replace(reference_ue_spec(), adc=Adc(fom_j=1e-12))
        assert stage_labels == ["dac", "mixer", "phase_shifter", "pa", "antenna", "ru",
                                "antenna", "lna", "phase_shifter", "mixer", "ue",
                                "adc", "ue"]
        stage_labels.clear()
        for _ in range(3):
            build_ru(ru), build_ue(ue)
        assert stage_labels == []


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

    def test_per_chain_non_path_scales_with_n_rx(self):
        spec = reference_ue_spec()
        spec = UeSpec(
            antenna=spec.antenna,
            lna=Lna(gain_db=20.0, quiescent_w=0.25),
            phase_shifter=spec.phase_shifter,
            mixer=spec.mixer,
            adc=Adc(fom_j=1e-12, sample_rate_hz=1e9, bits=10),
            n_rx=4,
            lo_power_w=1.5,
        )
        result = build_ue(spec)
        # The LNA draws once per chain; the ADC and the LO once per UE.
        assert result.non_path_w == pytest.approx(4 * 0.25 + 1.024 + 1.5)
        # W itself is unchanged by the chain count: identical chains collapse.
        assert result.stage.w == pytest.approx(
            build_ue(reference_ue_spec()).stage.w, rel=1e-12
        )


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
