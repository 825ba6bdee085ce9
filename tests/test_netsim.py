import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wastefactor.core import Stage, cascade
from wastefactor.parallel import Branch, CombiningMode, combine_branches, mino_compose, mino_first_stage
from wastefactor.netsim import (
    BAND_PRESETS,
    CampaignSpec,
    Layout,
    Scenario,
    STREAM_SHADOWING,
    _substream,
    aggregate_csv_lines,
    assign_serving_sets,
    campaign_scenarios,
    drop_csv_lines,
    effective_loss_matrix,
    evaluate_drop,
    evaluate_links,
    generate_layout,
    power_control,
    run_campaign,
)
from wastefactor.units import dbm_to_watts, watts_to_dbm

SMALL = Scenario(n_ue=64, n_bs=5, frequency_hz=28e9, seed=3)


class TestScenario:
    def test_reference_defaults(self):
        sc = Scenario()
        assert sc.n_ue == 1024
        assert sc.region_radius_m == 1000.0
        assert sc.min_bs_separation_m == 200.0
        assert sc.serving_radius_m == 200.0
        assert sc.bandwidth_hz == 400e6
        assert (sc.target_snr_db, sc.ue_noise_figure_db) == (10.0, 5.0)
        assert (sc.per_link_cap_dbm, sc.per_bs_budget_dbm) == (10.0, 50.0)
        assert (sc.w_bs, sc.w_ue) == (15.0, 33.0)
        assert sc.g_ue_db == 11.0
        assert (sc.p_non_path_bs_w, sc.p_non_path_ue_w) == (140.0, 1.0)
        assert (sc.bs_height_m, sc.ue_height_m) == (15.0, 1.5)

    def test_band_presets(self):
        assert BAND_PRESETS[3.5e9].ple == 1.82
        assert BAND_PRESETS[3.5e9].sigma_db == 4.89
        assert BAND_PRESETS[17e9].ple == 2.00
        assert BAND_PRESETS[28e9].sigma_db == 8.98
        assert Scenario(frequency_hz=17e9).resolved_ple == 2.00

    def test_omni_gains_are_zero(self):
        sc = Scenario(antenna_mode="omni")
        assert sc.antenna_gains_db == (0.0, 0.0)
        bs_db, ue_db = Scenario(antenna_mode="directional").antenna_gains_db
        assert bs_db == pytest.approx(31.36, abs=0.02)
        assert ue_db == pytest.approx(0.90, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError, match="antenna_mode"):
            Scenario(antenna_mode="sector")
        with pytest.raises(ValueError, match="n_bs"):
            Scenario(n_bs=0)
        with pytest.raises(ValueError, match="n_bs"):
            Scenario(n_bs=21)
        with pytest.raises(ValueError, match="preset"):
            Scenario(frequency_hz=60e9)
        # An explicit path-loss row makes any frequency valid.
        Scenario(frequency_hz=60e9, ple=2.1, sigma_db=3.0)
        with pytest.raises(ValueError, match="power_allocation"):
            Scenario(power_allocation="waterfilling")

    def test_target_rx_power(self):
        sc = Scenario()
        assert watts_to_dbm(sc.target_rx_power_w) == pytest.approx(-72.98, abs=5e-3)


class TestLayout:
    def test_deterministic_given_seed(self):
        a = generate_layout(SMALL)
        b = generate_layout(SMALL)
        assert np.array_equal(a.bs_xy_m, b.bs_xy_m)
        assert np.array_equal(a.ue_xy_m, b.ue_xy_m)

    def test_different_seeds_differ(self):
        a = generate_layout(SMALL)
        b = generate_layout(dataclasses.replace(SMALL, seed=4))
        assert not np.array_equal(a.ue_xy_m, b.ue_xy_m)

    def test_everything_inside_region(self):
        layout = generate_layout(dataclasses.replace(SMALL, n_bs=20, n_ue=512))
        assert np.all(np.hypot(*layout.ue_xy_m.T) <= SMALL.region_radius_m)
        assert np.all(np.hypot(*layout.bs_xy_m.T) <= SMALL.region_radius_m)

    def test_min_separation_across_seeds(self):
        for seed in range(10):
            sc = dataclasses.replace(SMALL, n_bs=20, seed=seed)
            bs = generate_layout(sc).bs_xy_m
            delta = bs[:, None, :] - bs[None, :, :]
            distance = np.sqrt((delta ** 2).sum(axis=2))
            np.fill_diagonal(distance, np.inf)
            assert distance.min() >= sc.min_bs_separation_m

    def test_ue_placement_invariant_to_bs_count(self):
        one = generate_layout(dataclasses.replace(SMALL, n_bs=1))
        many = generate_layout(dataclasses.replace(SMALL, n_bs=20))
        assert np.array_equal(one.ue_xy_m, many.ue_xy_m)

    def test_bs_prefix_stable_as_count_grows(self):
        five = generate_layout(dataclasses.replace(SMALL, n_bs=5))
        ten = generate_layout(dataclasses.replace(SMALL, n_bs=10))
        assert np.array_equal(five.bs_xy_m, ten.bs_xy_m[:5])

    def test_infeasible_placement_raises(self):
        sc = Scenario(n_ue=4, n_bs=20, region_radius_m=150.0, min_bs_separation_m=290.0)
        with pytest.raises(RuntimeError, match="could not place"):
            generate_layout(sc)


class TestServingSets:
    def test_radius_membership(self):
        layout = Layout(
            bs_xy_m=np.array([[0.0, 0.0], [150.0, 0.0], [1000.0, 0.0]]),
            ue_xy_m=np.array([[100.0, 0.0]]),
        )
        mask = assign_serving_sets(layout, 200.0)
        assert list(np.flatnonzero(mask[0])) == [0, 1]

    def test_fallback_to_nearest(self):
        layout = Layout(
            bs_xy_m=np.array([[600.0, 0.0], [900.0, 0.0]]),
            ue_xy_m=np.array([[0.0, 0.0]]),
        )
        assert list(np.flatnonzero(assign_serving_sets(layout, 200.0)[0])) == [0]
        no_fallback = assign_serving_sets(layout, 200.0, fallback_nearest=False)
        assert list(np.flatnonzero(no_fallback[0])) == []

    def test_single_bs_serves_everyone(self):
        layout = generate_layout(dataclasses.replace(SMALL, n_bs=1))
        mask = assign_serving_sets(layout, 200.0)
        assert all(list(np.flatnonzero(row)) == [0] for row in mask)


@st.composite
def layouts_and_radii(draw):
    """Up to 12 UEs and 6 BSs on a 1 km square, coordinates partly on a
    10 m grid so distance ties occur, and a serving radius that is often
    exactly one of the UE-BS distances."""
    n_ue = draw(st.integers(1, 12))
    n_bs = draw(st.integers(1, 6))
    coords = st.one_of(
        st.floats(-500.0, 500.0), st.integers(-50, 50).map(lambda k: 10.0 * k)
    )
    layout = Layout(
        bs_xy_m=draw(arrays(np.float64, (n_bs, 2), elements=coords)),
        ue_xy_m=draw(arrays(np.float64, (n_ue, 2), elements=coords)),
    )
    radii = st.floats(1.0, 800.0)
    distances = layout.distance_m[layout.distance_m > 0.0]
    if distances.size:
        radii = st.one_of(radii, st.sampled_from(distances.tolist()))
    return layout, draw(radii)


PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


class TestServingProperties:
    @PROPERTY_SETTINGS
    @given(case=layouts_and_radii())
    def test_mask_is_radius_test_without_fallback(self, case):
        layout, radius = case
        mask = assign_serving_sets(layout, radius, fallback_nearest=False)
        assert mask.dtype == bool
        assert np.array_equal(mask, layout.distance_m <= radius)

    @PROPERTY_SETTINGS
    @given(case=layouts_and_radii())
    def test_fallback_adds_only_the_nearest_bs(self, case):
        layout, radius = case
        inside = layout.distance_m <= radius
        mask = assign_serving_sets(layout, radius)
        covered = inside.any(axis=1)
        assert np.array_equal(mask[covered], inside[covered])
        for i in np.flatnonzero(~covered):
            assert list(np.flatnonzero(mask[i])) == [np.argmin(layout.distance_m[i])]


class TestShadowing:
    def test_draws_are_zero_mean(self):
        draws = _substream(12, STREAM_SHADOWING).standard_normal(100_000)
        assert abs(draws.mean()) <= 3.0 / math.sqrt(100_000)
        assert draws.std() == pytest.approx(1.0, abs=0.02)

    def test_shadowing_changes_losses_but_not_geometry(self):
        layout = generate_layout(SMALL)
        plain, _ = effective_loss_matrix(SMALL, layout)
        shadowed, _ = effective_loss_matrix(
            dataclasses.replace(SMALL, apply_shadowing=True), layout
        )
        assert plain.shape == shadowed.shape
        assert not np.allclose(plain, shadowed)

    def test_shadowing_off_by_default_is_deterministic_model(self):
        layout = generate_layout(SMALL)
        l1, _ = effective_loss_matrix(SMALL, layout)
        l2, _ = effective_loss_matrix(SMALL, layout)
        assert np.array_equal(l1, l2)

    def test_clamp_floor(self):
        # With level antennas a 1 m link at 28 GHz has less path loss than
        # the combined directive gains, so the stage floor engages.
        sc = dataclasses.replace(
            SMALL, n_bs=2, n_ue=4, frequency_hz=28e9, bs_height_m=1.5
        )
        layout = Layout(
            bs_xy_m=np.array([[0.0, 0.0], [500.0, 0.0]]),
            ue_xy_m=np.array([[0.0, 1.0], [5.0, 0.0], [9.0, 0.0], [700.0, 0.0]]),
        )
        l_eff, n_clamped = effective_loss_matrix(sc, layout)
        assert n_clamped > 0
        assert l_eff.min() == 1.0


class TestPowerControl:
    @staticmethod
    def _one_link_scenario(**overrides):
        return dataclasses.replace(
            Scenario(n_ue=1, n_bs=1, frequency_hz=28e9), **overrides
        )

    def test_single_link_hits_target(self):
        sc = self._one_link_scenario()
        l_eff = np.array([[10.0 ** 8.0]])  # 80 dB
        pc = power_control(l_eff, np.array([[True]]), sc)
        assert watts_to_dbm(pc.p_tx_w[0, 0]) == pytest.approx(7.02, abs=5e-3)
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)
        assert pc.n_capped_links == 0

    def test_cap_limits_single_link(self):
        sc = self._one_link_scenario()
        l_eff = np.array([[10.0 ** 9.0]])  # 90 dB needs 17 dBm
        pc = power_control(l_eff, np.array([[True]]), sc)
        assert watts_to_dbm(pc.p_tx_w[0, 0]) == pytest.approx(10.0, abs=1e-9)
        assert pc.snr_db[0] == pytest.approx(2.98, abs=5e-3)
        assert pc.n_capped_links == 1

    def test_two_equal_links_split_power(self):
        sc = dataclasses.replace(Scenario(n_ue=1, n_bs=2, frequency_hz=28e9))
        l_eff = np.full((1, 2), 10.0 ** 8.0)
        pc = power_control(l_eff, np.array([[True, True]]), sc)
        single = dbm_to_watts(7.02)
        assert pc.p_tx_w[0, 0] == pytest.approx(single / 2.0, rel=2e-3)
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)

    def test_proportional_allocation_loads_better_link(self):
        sc = dataclasses.replace(
            Scenario(n_ue=1, n_bs=2, frequency_hz=28e9),
            power_allocation="proportional",
        )
        l_eff = np.array([[1e7, 1e8]])
        pc = power_control(l_eff, np.array([[True, True]]), sc)
        assert pc.p_tx_w[0, 0] > pc.p_tx_w[0, 1]
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)

    def test_per_bs_budget_rescales_all_links(self):
        # 64 UEs forced onto one BS at 110 dB loss need ~37 dBm each, about
        # 322 W total against the 100 W budget, so every link scales down.
        sc = dataclasses.replace(
            Scenario(n_ue=64, n_bs=1, frequency_hz=28e9), per_link_cap_dbm=40.0
        )
        l_eff = np.full((64, 1), 10.0 ** 11.0)
        pc = power_control(l_eff, np.ones((64, 1), dtype=bool), sc)
        assert pc.n_budget_limited_bs == 1
        assert pc.p_tx_w.sum() == pytest.approx(dbm_to_watts(50.0), rel=1e-9)
        assert np.all(pc.snr_db < 10.0)

    def test_unserved_ue_has_no_power(self):
        sc = dataclasses.replace(Scenario(n_ue=2, n_bs=1, frequency_hz=28e9))
        l_eff = np.full((2, 1), 1e8)
        pc = power_control(l_eff, np.array([[True], [False]]), sc)
        assert pc.p_rx_ue_w[1] == 0.0
        assert np.isneginf(pc.snr_db[1])


class TestEvaluateLinks:
    def test_hand_instance(self):
        # Two single-BS UEs at 70 and 80 dB effective loss, both on target:
        # branch W = 15 L, equal received powers, so the first stage is
        # (15e7 + 15e8)/2 and the system W follows in closed form.
        sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
        serving = np.eye(2, dtype=bool)
        l_eff = np.array([[1e7, 1e30], [1e30, 1e8]])
        result = evaluate_links(sc, serving, l_eff)
        expected_w = 33.0 + (8.25e8 - 1.0) / (10.0 ** 1.1)
        assert result.w_system == pytest.approx(expected_w, rel=1e-9)
        assert result.wf_system_db == pytest.approx(78.17, abs=0.01)
        assert result.mean_snr_db == pytest.approx(10.0, abs=1e-9)
        assert result.frac_ue_meeting_target == 1.0
        assert result.audit_rel_error <= 1e-12

    def test_matches_parallel_module_composition(self):
        # Dual route: the vectorized drop pipeline against the branch-level
        # composition through parallel.combine_branches / mino_*.
        sc = dataclasses.replace(
            SMALL, n_ue=16, n_bs=3, apply_shadowing=True, seed=11
        )
        layout = generate_layout(sc)
        mask = assign_serving_sets(layout, sc.serving_radius_m)
        l_eff, n_clamped = effective_loss_matrix(sc, layout)
        result = evaluate_links(sc, mask, l_eff, n_clamped_links=n_clamped)

        pc = power_control(l_eff, mask, sc)
        w_mpar = []
        for i in range(sc.n_ue):
            branches = [
                Branch(
                    stage=cascade(
                        [
                            Stage(sc.w_bs, 10.0 ** 3.0),
                            Stage(l_eff[i, j], 1.0 / l_eff[i, j]),
                        ]
                    ),
                    weight=pc.p_rx_link_w[i, j],
                )
                for j in np.flatnonzero(mask[i])
            ]
            w_mpar.append(combine_branches(branches, CombiningMode.NON_COHERENT))
        w_first = mino_first_stage(list(pc.p_rx_ue_w), w_mpar)
        w_system = mino_compose(w_first, sc.w_ue, 10.0 ** 1.1)
        assert result.w_system == pytest.approx(w_system, rel=1e-12)

    def test_lossless_floor(self):
        # All channels at the clamp and ideal BSs: the system W collapses
        # to the UE waste factor.
        sc = dataclasses.replace(Scenario(n_ue=3, n_bs=1, frequency_hz=28e9), w_bs=1.0)
        serving = np.ones((3, 1), dtype=bool)
        l_eff = np.ones((3, 1))
        result = evaluate_links(sc, serving, l_eff)
        assert result.w_system == pytest.approx(sc.w_ue, rel=1e-12)
        assert result.wf_system_db == pytest.approx(10.0 * math.log10(33.0), abs=1e-9)

    def test_non_path_scaling_flag(self):
        sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
        serving = np.eye(2, dtype=bool)
        l_eff = np.array([[1e7, 1e30], [1e30, 1e8]])
        scaled = evaluate_links(sc, serving, l_eff)
        raw = evaluate_links(
            dataclasses.replace(sc, scale_non_path_per_area=False), serving, l_eff
        )
        non_path_w = 2 * 140.0 + 2 * 1.0
        assert scaled.p_non_path_per_km2_w == pytest.approx(non_path_w / math.pi)
        assert raw.p_non_path_per_km2_w == pytest.approx(non_path_w)

    def test_shape_mismatch_rejected(self):
        sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
        with pytest.raises(ValueError, match="declares"):
            evaluate_links(sc, np.ones((1, 1), dtype=bool), np.ones((1, 1)))
        with pytest.raises(ValueError, match="serving mask"):
            evaluate_links(sc, np.ones((2, 1), dtype=bool), np.ones((2, 2)))

    @pytest.mark.parametrize(
        "serving",
        [
            # A negative index once served UE 1 from BS 1 without complaint.
            [np.array([0]), np.array([-1])],
            # A float-typed empty set once raised a raw IndexError.
            [np.array([0]), np.array([])],
            [np.array([0]), np.array([1])],
            np.eye(2, dtype=int),
            np.eye(2),
        ],
        ids=["negative-index", "empty-float-set", "index-lists", "int-matrix", "float-matrix"],
    )
    def test_only_a_boolean_mask_is_accepted(self, serving):
        sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
        with pytest.raises(ValueError, match="serving mask"):
            evaluate_links(sc, serving, np.full((2, 2), 1e8))


class TestEvaluateDrop:
    def test_bit_identical_repetition(self):
        first = evaluate_drop(SMALL)
        second = evaluate_drop(SMALL)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_wf_floor(self):
        for seed in range(3):
            result = evaluate_drop(dataclasses.replace(SMALL, seed=seed))
            assert result.wf_system_db >= 10.0 * math.log10(33.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"apply_shadowing": True},
            {"antenna_mode": "omni", "per_link_cap_dbm": 30.0},
            {"power_allocation": "proportional"},
            {"fallback_nearest": False},
            {"n_bs": 1, "apply_shadowing": True, "antenna_mode": "omni"},
        ],
    )
    def test_conservation_audit(self, overrides):
        sc = dataclasses.replace(SMALL, **overrides)
        result = evaluate_drop(sc)
        assert result.audit_rel_error <= 1e-6

    def test_totals_are_consistent(self):
        result = evaluate_drop(SMALL)
        assert result.p_total_per_km2_w == pytest.approx(
            result.p_signal_path_per_km2_w + result.p_non_path_per_km2_w, rel=1e-12
        )

    def test_unserved_ues_counted_when_fallback_off(self):
        sc = dataclasses.replace(SMALL, fallback_nearest=False)
        result = evaluate_drop(sc)
        assert result.n_unserved_ue > 0
        assert result.frac_ue_meeting_target < 1.0

    def test_no_coverage_at_all_is_an_error(self):
        sc = Scenario(n_ue=2, n_bs=1, frequency_hz=28e9, fallback_nearest=False)
        serving = np.zeros((2, 1), dtype=bool)
        with pytest.raises(ValueError, match="no UE receives"):
            evaluate_links(sc, serving, np.full((2, 1), 1e8))


class TestCampaign:
    CAMPAIGN = CampaignSpec(
        frequencies_hz=(28e9,),
        antenna_modes=("omni", "directional"),
        n_bs_values=(1, 3),
        n_seeds=2,
        base_seed=5,
    )
    BASE = dataclasses.replace(SMALL, n_ue=48)

    def test_cell_ordering_and_seed_offsets(self):
        cells = campaign_scenarios(self.BASE, self.CAMPAIGN)
        assert len(cells) == 1 * 2 * 2 * 2
        assert [c.seed for c in cells[:2]] == [5, 6]
        assert cells[0].antenna_mode == "omni"
        assert cells[0].per_link_cap_dbm == 30.0  # omni override
        assert cells[-1].antenna_mode == "directional"
        assert cells[-1].per_link_cap_dbm == self.BASE.per_link_cap_dbm

    def test_rows_and_aggregates(self):
        drops, aggregates = run_campaign(self.BASE, self.CAMPAIGN, jobs=1)
        assert len(drops) == 8
        assert len(aggregates) == 4
        group = drops[:2]
        w_mean = np.mean([row.result.w_system for row in group])
        assert aggregates[0].wf_mean_db == pytest.approx(10.0 * math.log10(w_mean))
        assert aggregates[0].n_bs == 1

    def test_parallel_matches_serial(self):
        serial = run_campaign(self.BASE, self.CAMPAIGN, jobs=1)
        parallel = run_campaign(self.BASE, self.CAMPAIGN, jobs=2)
        assert drop_csv_lines(serial[0]) == drop_csv_lines(parallel[0])
        assert aggregate_csv_lines(serial[1]) == aggregate_csv_lines(parallel[1])

    def test_csv_headers(self):
        drops, aggregates = run_campaign(self.BASE, self.CAMPAIGN, jobs=1)
        assert drop_csv_lines(drops)[0] == (
            "frequency_ghz,antenna_mode,n_bs,seed,wf_system_db,p_total_kw_per_km2,"
            "p_nonpath_kw_per_km2,mean_snr_db,frac_ue_meeting_target"
        )
        assert aggregate_csv_lines(aggregates)[0] == (
            "frequency_ghz,antenna_mode,n_bs,wf_mean_db,wf_std_db,"
            "p_total_mean_kw_per_km2"
        )

    def test_campaign_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CampaignSpec(frequencies_hz=())
        with pytest.raises(ValueError, match="n_seeds"):
            CampaignSpec(n_seeds=0)
