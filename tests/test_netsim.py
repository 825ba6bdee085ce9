import collections
import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st, target
from hypothesis.extra.numpy import arrays

from wastefactor.channel import fspl_1m_db
from wastefactor.core import Stage, cascade
from wastefactor.parallel import Branch, CombiningMode, combine_branches, mino_compose, mino_first_stage
from wastefactor import netsim
from wastefactor.netsim import (
    BAND_PRESETS,
    CampaignSpec,
    DropResult,
    Layout,
    PowerControlResult,
    Scenario,
    STREAM_BS_LAYOUT,
    STREAM_SHADOWING,
    STREAM_UE_LAYOUT,
    _Links,
    _p5,
    _substream,
    _uniform_disk,
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
from wastefactor.units import db_to_linear, dbm_to_watts, watts_to_dbm

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

    def test_integer_coordinates(self):
        layout = Layout(bs_xy_m=np.array([[0, 0], [6, 8]]), ue_xy_m=np.array([[3, 4]]))
        assert layout.distance_m.tolist() == [[5.0, 5.0]]

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


def scalar_bs_placement(scenario):
    """BS positions and the number of candidates drawn, one
    ``_uniform_disk`` call per candidate: the oracle for the block draw
    in ``generate_layout``."""
    rng = _substream(scenario.seed, STREAM_BS_LAYOUT)
    accepted = []
    min_sep_sq = scenario.min_bs_separation_m ** 2
    attempts = 0
    while len(accepted) < scenario.n_bs:
        attempts += 1
        candidate = _uniform_disk(rng, 1, scenario.region_radius_m)[0]
        if all(np.sum((candidate - p) ** 2) >= min_sep_sq for p in accepted):
            accepted.append(candidate)
    return np.array(accepted), attempts


def widest_separation(n_bs, radius_m):
    """Hard-core discs covering 30 % of the disk grown by half a
    separation, at most 0.9 R: greedy placement never jams there, and
    about a fifth of the seeds need more than one block of candidates."""
    k = math.sqrt(0.3 / n_bs)
    return min(2.0 * k / (1.0 - k), 0.9) * radius_m


@st.composite
def tight_placements(draw):
    n_bs = draw(st.integers(1, 20))
    radius_m = draw(st.floats(10.0, 5000.0))
    return Scenario(
        n_ue=1,
        n_bs=n_bs,
        region_radius_m=radius_m,
        min_bs_separation_m=widest_separation(n_bs, radius_m) * draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


class TestPlacementOracle:
    @PROPERTY_SETTINGS
    @given(scenario=tight_placements())
    # 213 candidates: three blocks of 80.
    @example(scenario=Scenario(n_ue=1, n_bs=20, min_bs_separation_m=widest_separation(20, 1000.0), seed=63))
    def test_block_draw_matches_scalar_loop(self, scenario):
        expected, attempts = scalar_bs_placement(scenario)
        target(attempts / (4 * scenario.n_bs), label="candidate blocks")
        bs = generate_layout(scenario).bs_xy_m
        assert bs.shape == expected.shape
        assert bs.tobytes() == expected.tobytes()


class TestShadowing:
    def test_draws_are_zero_mean(self):
        draws = _substream(12, STREAM_SHADOWING).standard_normal(100_000)
        assert abs(draws.mean()) <= 3.0 / math.sqrt(100_000)
        assert draws.std() == pytest.approx(1.0, abs=0.02)

    def test_shadowing_changes_losses_but_not_geometry(self):
        layout = generate_layout(SMALL)
        every_pair = np.ones(layout.distance_m.shape, dtype=bool)
        plain, _ = effective_loss_matrix(SMALL, layout, every_pair)
        shadowed, _ = effective_loss_matrix(
            dataclasses.replace(SMALL, apply_shadowing=True), layout, every_pair
        )
        assert plain.shape == shadowed.shape
        assert not np.allclose(plain, shadowed)

    def test_shadowing_off_by_default_is_deterministic_model(self):
        layout = generate_layout(SMALL)
        mask = assign_serving_sets(layout, SMALL.serving_radius_m)
        l1, _ = effective_loss_matrix(SMALL, layout, mask)
        l2, _ = effective_loss_matrix(SMALL, layout, mask)
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
        mask = assign_serving_sets(layout, sc.serving_radius_m)
        l_eff, n_clamped = effective_loss_matrix(sc, layout, mask)
        assert n_clamped > 0
        assert l_eff.min() == 1.0

    def test_clamp_counts_served_links_only(self):
        # Both UEs sit within the clamp range of BS 0, but only the one
        # inside the 0.5 m serving radius has a link to clamp.
        sc = Scenario(
            n_ue=2, n_bs=1, frequency_hz=28e9, bs_height_m=1.5,
            serving_radius_m=0.5, fallback_nearest=False,
        )
        layout = Layout(bs_xy_m=np.array([[0.0, 0.0]]), ue_xy_m=np.array([[0.0, 0.3], [0.0, 1.0]]))
        mask = assign_serving_sets(layout, sc.serving_radius_m, sc.fallback_nearest)
        l_eff, n_clamped = effective_loss_matrix(sc, layout, mask)
        assert mask.tolist() == [[True], [False]]
        assert (l_eff.tolist(), n_clamped) == ([1.0], 1)
        every_pair = np.ones((2, 1), dtype=bool)
        assert effective_loss_matrix(sc, layout, every_pair)[1] == 2


class TestSubstreams:
    """``_substream`` re-keys one generator per thread, so whatever that
    generator drew last must not leak into the next stream."""

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2 ** 64 - 1),
        stream=st.sampled_from([STREAM_UE_LAYOUT, STREAM_BS_LAYOUT, STREAM_SHADOWING]),
        previous_seed=st.integers(0, 2 ** 64 - 1),
        n=st.integers(0, 20).map(lambda k: 2 * k + 1),
    )
    def test_rekeyed_stream_matches_fresh_philox(self, seed, stream, previous_seed, n):
        # Leave the thread's generator mid-buffer, holding a spare 32-bit half.
        used = _substream(previous_seed, stream)
        used.random(n)
        used.integers(0, 2 ** 31 - 1, size=n, dtype=np.int32)
        used.standard_normal(n)
        assert used.bit_generator.state["has_uint32"] == 1

        rng = _substream(seed, stream)
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        draws = [
            [
                g.random(n).tobytes(),
                g.integers(0, 2 ** 31 - 1, size=n, dtype=np.int32).tobytes(),
                g.standard_normal(n).tobytes(),
            ]
            for g in (rng, fresh)
        ]
        assert draws[0] == draws[1]

    def test_threaded_drops_match_serial(self):
        # A generator shared across threads interleaves their draws.
        scenarios = [
            Scenario(n_ue=256, n_bs=10, frequency_hz=28e9, apply_shadowing=True, seed=seed)
            for seed in range(64)
        ]
        serial = [result_bits(evaluate_drop(s)) for s in scenarios]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = [result_bits(r) for r in pool.map(evaluate_drop, scenarios)]
        assert threaded == serial


class TestPowerControl:
    @staticmethod
    def _one_link_scenario(**overrides):
        return dataclasses.replace(
            Scenario(n_ue=1, n_bs=1, frequency_hz=28e9), **overrides
        )

    def test_single_link_hits_target(self):
        sc = self._one_link_scenario()
        l_eff = np.array([10.0 ** 8.0])  # 80 dB
        pc = power_control(l_eff, np.array([[True]]), sc)
        assert watts_to_dbm(pc.p_tx_w[0]) == pytest.approx(7.02, abs=5e-3)
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)
        assert pc.n_capped_links == 0

    def test_cap_limits_single_link(self):
        sc = self._one_link_scenario()
        l_eff = np.array([10.0 ** 9.0])  # 90 dB needs 17 dBm
        pc = power_control(l_eff, np.array([[True]]), sc)
        assert watts_to_dbm(pc.p_tx_w[0]) == pytest.approx(10.0, abs=1e-9)
        assert pc.snr_db[0] == pytest.approx(2.98, abs=5e-3)
        assert pc.n_capped_links == 1

    def test_two_equal_links_split_power(self):
        sc = dataclasses.replace(Scenario(n_ue=1, n_bs=2, frequency_hz=28e9))
        l_eff = np.full(2, 10.0 ** 8.0)
        pc = power_control(l_eff, np.array([[True, True]]), sc)
        single = dbm_to_watts(7.02)
        assert pc.p_tx_w[0] == pytest.approx(single / 2.0, rel=2e-3)
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)

    def test_proportional_allocation_loads_better_link(self):
        sc = dataclasses.replace(
            Scenario(n_ue=1, n_bs=2, frequency_hz=28e9),
            power_allocation="proportional",
        )
        l_eff = np.array([1e7, 1e8])
        pc = power_control(l_eff, np.array([[True, True]]), sc)
        assert pc.p_tx_w[0] > pc.p_tx_w[1]
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)

    def test_per_bs_budget_rescales_all_links(self):
        # 64 UEs forced onto one BS at 110 dB loss need ~37 dBm each, about
        # 322 W total against the 100 W budget, so every link scales down.
        sc = dataclasses.replace(
            Scenario(n_ue=64, n_bs=1, frequency_hz=28e9), per_link_cap_dbm=40.0
        )
        l_eff = np.full(64, 10.0 ** 11.0)
        pc = power_control(l_eff, np.ones((64, 1), dtype=bool), sc)
        assert pc.n_budget_limited_bs == 1
        assert pc.p_tx_w.sum() == pytest.approx(dbm_to_watts(50.0), rel=1e-9)
        assert np.all(pc.snr_db < 10.0)

    def test_unserved_ue_has_no_power(self):
        sc = dataclasses.replace(Scenario(n_ue=2, n_bs=1, frequency_hz=28e9))
        pc = power_control(np.array([1e8]), np.array([[True], [False]]), sc)
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
        result = evaluate_links(sc, serving, l_eff[serving])
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
        link_loss, n_clamped = effective_loss_matrix(sc, layout, mask)
        result = evaluate_links(sc, mask, link_loss, n_clamped_links=n_clamped)

        pc = power_control(link_loss, mask, sc)
        l_eff, p_rx_link = np.ones(mask.shape), np.zeros(mask.shape)
        l_eff[mask], p_rx_link[mask] = link_loss, pc.p_rx_link_w
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
                    weight=p_rx_link[i, j],
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
        result = evaluate_links(sc, serving, np.ones(3))
        assert result.w_system == pytest.approx(sc.w_ue, rel=1e-12)
        assert result.wf_system_db == pytest.approx(10.0 * math.log10(33.0), abs=1e-9)

    def test_shape_mismatch_rejected(self):
        sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
        with pytest.raises(ValueError, match="serving mask .* declares"):
            evaluate_links(sc, np.ones((1, 1), dtype=bool), np.ones(1))
        with pytest.raises(ValueError, match="serving mask .* declares"):
            evaluate_links(sc, np.ones((2, 1), dtype=bool), np.ones(2))
        with pytest.raises(ValueError, match="holds 4 links"):
            evaluate_links(sc, np.ones((2, 2), dtype=bool), np.ones(3))
        # A dense loss matrix is not one loss per link.
        with pytest.raises(ValueError, match="holds 2 links"):
            evaluate_links(sc, np.eye(2, dtype=bool), np.ones((2, 2)))

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
            evaluate_links(sc, serving, np.full(2, 1e8))


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
            evaluate_links(sc, serving, np.empty(0))

    def test_non_finite_system_w_is_an_error(self):
        # Once returned w_system = inf and a NaN audit, with numpy warnings.
        sc = Scenario(n_ue=2, n_bs=1, frequency_hz=28e9, w_bs=1e308)
        with pytest.raises(ValueError, match="w_system = inf"):
            evaluate_links(sc, np.ones((2, 1), dtype=bool), np.full(2, 1e8))


# The kernel's arithmetic on the dense (n_ue, n_bs) matrix in its np.where
# form, a fresh temporary per step: the oracle for the link-list kernel.
# Every op and operand order is the same, so the link entries of each
# dense result (``dense[mask]``) and every per-UE result must be equal
# byte for byte.


def where_distance(layout):
    dx = layout.ue_xy_m[:, 0, None] - layout.bs_xy_m[None, :, 0]
    dy = layout.ue_xy_m[:, 1, None] - layout.bs_xy_m[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def where_effective_loss(scenario, distance_m, serving_mask):
    height_delta = scenario.bs_height_m - scenario.ue_height_m
    d3 = np.sqrt(distance_m ** 2 + height_delta ** 2)
    pl_db = fspl_1m_db(scenario.frequency_hz) + 10.0 * scenario.resolved_ple * np.log10(
        np.maximum(d3, 1.0)
    )
    if scenario.apply_shadowing and scenario.resolved_sigma_db > 0.0:
        z = _substream(scenario.seed, STREAM_SHADOWING).standard_normal(d3.shape)
        pl_db = pl_db + scenario.resolved_sigma_db * z
    g_tx_db, g_rx_db = scenario.antenna_gains_db
    eff_db = pl_db - g_tx_db - g_rx_db
    n_clamped = int(np.count_nonzero((eff_db < 0.0) & serving_mask))
    eff_db = np.maximum(eff_db, 0.0)
    return 10.0 ** (eff_db / 10.0), n_clamped


def where_power_control(l_eff_w, serving_mask, scenario):
    inv_l = np.where(serving_mask, 1.0 / l_eff_w, 0.0)
    target = scenario.target_rx_power_w
    cap_w = dbm_to_watts(scenario.per_link_cap_dbm)
    if scenario.power_allocation == "equal":
        denom = inv_l.sum(axis=1)
        per_ue = np.divide(target, denom, out=np.zeros_like(denom), where=denom > 0.0)
        desired = np.where(serving_mask, per_ue[:, None], 0.0)
    else:
        denom = (inv_l ** 2).sum(axis=1)
        scale = np.divide(target, denom, out=np.zeros_like(denom), where=denom > 0.0)
        desired = scale[:, None] * inv_l
    n_capped = int(np.count_nonzero(desired > cap_w))
    p_tx = np.minimum(desired, cap_w)
    budget_w = dbm_to_watts(scenario.per_bs_budget_dbm)
    bs_load = p_tx.sum(axis=0)
    bs_scale = np.where(bs_load > budget_w, budget_w / np.maximum(bs_load, 1e-300), 1.0)
    n_budget_limited = int(np.count_nonzero(bs_scale < 1.0))
    p_tx = p_tx * bs_scale[None, :]
    p_rx_link = p_tx * inv_l
    p_rx_ue = p_rx_link.sum(axis=1)
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(p_rx_ue / scenario.noise_power_w)
    return PowerControlResult(p_tx, p_rx_link, p_rx_ue, snr_db, n_capped, n_budget_limited, links=None)


def where_evaluate_links(scenario, serving_mask, l_eff_w, n_clamped_links=0):
    pc = where_power_control(l_eff_w, serving_mask, scenario)
    g_c = np.where(serving_mask, 1.0 / l_eff_w, 1.0)
    w_cascade = np.where(serving_mask, l_eff_w + (scenario.w_bs - 1.0) / g_c, 0.0)
    total_rx = pc.p_rx_ue_w.sum()
    if total_rx <= 0.0:
        raise ValueError("no UE receives any power; cannot reference a system W")
    consumed_per_ue = (pc.p_rx_link_w * w_cascade).sum(axis=1)
    w_mino1 = consumed_per_ue.sum() / total_rx
    g_ue = db_to_linear(scenario.g_ue_db)
    w_system = mino_compose(w_mino1, scenario.w_ue, g_ue)
    p_system_out = g_ue * total_rx
    p_path = w_system * p_system_out
    p_non_path = scenario.n_bs * scenario.p_non_path_bs_w + scenario.n_ue * scenario.p_non_path_ue_w
    p_tx_total = pc.p_tx_w[serving_mask].sum()
    channel_waste = p_tx_total - total_rx
    bs_waste = (scenario.w_bs - 1.0) * p_tx_total
    ue_waste = (scenario.w_ue - 1.0) * g_ue * total_rx
    bottom_up = p_system_out + channel_waste + bs_waste + ue_waste
    audit_rel_error = abs(bottom_up - p_path) / p_path
    area_km2 = math.pi * (scenario.region_radius_m / 1000.0) ** 2
    p_path_per_km2 = p_path / area_km2
    p_non_path_per_km2 = p_non_path / area_km2
    served = pc.p_rx_ue_w > 0.0
    snr_served = pc.snr_db[served]
    meeting = np.count_nonzero(pc.snr_db >= scenario.target_snr_db - 1e-9)
    return DropResult(
        wf_system_db=10.0 * math.log10(w_system),
        w_system=float(w_system),
        p_total_per_km2_w=float(p_path_per_km2 + p_non_path_per_km2),
        p_signal_path_per_km2_w=float(p_path_per_km2),
        p_non_path_per_km2_w=float(p_non_path_per_km2),
        mean_snr_db=float(np.mean(snr_served)),
        p5_snr_db=_p5(snr_served),
        frac_ue_meeting_target=float(meeting / scenario.n_ue),
        audit_rel_error=float(audit_rel_error),
        n_capped_links=pc.n_capped_links,
        n_budget_limited_bs=pc.n_budget_limited_bs,
        n_clamped_links=n_clamped_links,
        n_unserved_ue=int(np.count_nonzero(~served)),
    )


def on_links(pc, serving_mask):
    """A dense power-control result as the kernel returns it: its per-link
    arrays taken on the mask."""
    return PowerControlResult(
        pc.p_tx_w[serving_mask], pc.p_rx_link_w[serving_mask], pc.p_rx_ue_w, pc.snr_db,
        pc.n_capped_links, pc.n_budget_limited_bs, links=None,
    )


def result_bits(result):
    """Every field of a result dataclass, floats as hex and arrays as bytes."""
    out = []
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "links":
            continue
        if isinstance(value, np.ndarray):
            out.append((value.dtype.str, value.shape, value.tobytes()))
        elif isinstance(value, float):
            out.append(value.hex())
        else:
            out.append(value)
    return out


# Off the serving mask a loss can hold anything; the kernel must ignore it.
OFF_MASK_LOSSES = st.one_of(st.sampled_from([math.inf, math.nan, 0.0, 1e308]), st.floats())


@st.composite
def serving_masks(draw, n_ue, n_bs):
    """A boolean mask: hypothesis's own (mostly one value), or i.i.d. at a
    drawn density, so rows of three or more links on 8 or more columns
    are common."""
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return draw(st.one_of(
        arrays(bool, (n_ue, n_bs)),
        st.just(np.random.default_rng(seed).random((n_ue, n_bs)) < density),
    ))


@st.composite
def link_realizations(draw):
    """A scenario, a serving mask and losses: the clamp floor up to 150 dB on
    the mask, the values above (inf, nan, 0, 1e308, any float) off it."""
    n_ue = draw(st.integers(1, 12))
    n_bs = draw(st.integers(1, 20))
    scenario = Scenario(
        n_ue=n_ue,
        n_bs=n_bs,
        frequency_hz=28e9,
        power_allocation=draw(st.sampled_from(["equal", "proportional"])),
        per_link_cap_dbm=draw(st.floats(-40.0, 40.0)),
        per_bs_budget_dbm=draw(st.floats(-40.0, 50.0)),
        w_bs=draw(st.floats(1.0, 100.0)),
    )
    mask = draw(serving_masks(n_ue, n_bs))
    on = draw(st.one_of(
        arrays(np.float64, (n_ue, n_bs), elements=st.floats(1.0, 1e15)),
        st.integers(0, 2 ** 32 - 1).map(
            lambda seed: 10.0 ** np.random.default_rng(seed).uniform(0.0, 15.0, (n_ue, n_bs))
        ),
    ))
    off = draw(arrays(np.float64, (n_ue, n_bs), elements=OFF_MASK_LOSSES))
    return scenario, mask, np.where(mask, on, off)


@st.composite
def clamping_layouts(draw):
    """A small scenario on a layout where UEs often sit within 2 m of a BS,
    with level antennas allowed, so clamped links are common."""
    n_ue = draw(st.integers(1, 8))
    n_bs = draw(st.integers(1, 5))
    bs_xy = draw(arrays(np.float64, (n_bs, 2), elements=st.floats(-500.0, 500.0)))
    near_bs = st.tuples(st.integers(0, n_bs - 1), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
        lambda t: [bs_xy[t[0], 0] + t[1], bs_xy[t[0], 1] + t[2]]
    )
    anywhere = st.lists(st.floats(-500.0, 500.0), min_size=2, max_size=2)
    ue_xy = draw(st.lists(st.one_of(near_bs, anywhere), min_size=n_ue, max_size=n_ue))
    layout = Layout(bs_xy_m=bs_xy, ue_xy_m=np.array(ue_xy))
    scenario = Scenario(
        n_ue=n_ue,
        n_bs=n_bs,
        frequency_hz=draw(st.sampled_from(sorted(BAND_PRESETS))),
        antenna_mode=draw(st.sampled_from(["omni", "directional"])),
        bs_height_m=draw(st.one_of(st.just(1.5), st.floats(1.5, 15.0))),
        apply_shadowing=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
    )
    return scenario, layout


@st.composite
def small_scenarios(draw):
    """Drops of up to 48 UEs and 20 BSs; serving radii up to the region's
    diameter and separations down to 0 give UEs many links."""
    return Scenario(
        n_ue=draw(st.integers(1, 48)),
        n_bs=draw(st.integers(1, 20)),
        serving_radius_m=draw(st.one_of(st.just(200.0), st.floats(10.0, 2000.0))),
        min_bs_separation_m=draw(st.floats(0.0, 200.0)),
        frequency_hz=draw(st.sampled_from(sorted(BAND_PRESETS))),
        antenna_mode=draw(st.sampled_from(["omni", "directional"])),
        apply_shadowing=draw(st.booleans()),
        power_allocation=draw(st.sampled_from(["equal", "proportional"])),
        fallback_nearest=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


class TestInPlaceKernelOracle:
    """The link-list drop kernel against the dense np.where forms above,
    and never writing into an array it was given."""

    @PROPERTY_SETTINGS
    @given(case=link_realizations())
    def test_power_control_and_links_match_where_forms(self, case):
        scenario, mask, l_eff = case
        link_loss = l_eff[mask]
        mask_before, loss_before = mask.tobytes(), link_loss.tobytes()
        with np.errstate(all="ignore"):
            expected_pc = on_links(where_power_control(l_eff, mask, scenario), mask)
        got_pc = power_control(link_loss, mask, scenario)
        assert result_bits(got_pc) == result_bits(expected_pc)
        ue, bs = np.nonzero(mask)
        assert (got_pc.links.ue.tolist(), got_pc.links.bs.tolist()) == (ue.tolist(), bs.tolist())
        try:
            with np.errstate(all="ignore"):
                expected = where_evaluate_links(scenario, mask, l_eff, n_clamped_links=3)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                evaluate_links(scenario, mask, link_loss, n_clamped_links=3)
        else:
            got = evaluate_links(scenario, mask, link_loss, n_clamped_links=3)
            assert result_bits(got) == result_bits(expected)
        assert mask.tobytes() == mask_before
        assert link_loss.tobytes() == loss_before

    @PROPERTY_SETTINGS
    @given(case=clamping_layouts())
    @example(
        case=(
            Scenario(n_ue=4, n_bs=2, frequency_hz=28e9, bs_height_m=1.5),
            Layout(
                bs_xy_m=np.array([[0.0, 0.0], [500.0, 0.0]]),
                ue_xy_m=np.array([[0.0, 1.0], [5.0, 0.0], [9.0, 0.0], [700.0, 0.0]]),
            ),
        )
    )
    def test_distances_and_losses_match_where_forms(self, case):
        scenario, layout = case
        assert layout.distance_m.tobytes() == where_distance(layout).tobytes()
        distance_before = layout.distance_m.tobytes()
        mask = assign_serving_sets(layout, scenario.serving_radius_m)
        link_loss, n_clamped = effective_loss_matrix(scenario, layout, mask)
        expected, expected_clamped = where_effective_loss(scenario, layout.distance_m, mask)
        assert (link_loss.tobytes(), n_clamped) == (expected[mask].tobytes(), expected_clamped)
        assert layout.distance_m.tobytes() == distance_before
        mask_before, loss_before = mask.tobytes(), link_loss.tobytes()
        evaluate_links(scenario, mask, link_loss, n_clamped_links=n_clamped)
        assert mask.tobytes() == mask_before
        assert link_loss.tobytes() == loss_before

    @PROPERTY_SETTINGS
    @given(scenario=small_scenarios())
    def test_drop_matches_where_forms(self, scenario):
        layout = generate_layout(scenario)
        mask = assign_serving_sets(layout, scenario.serving_radius_m, scenario.fallback_nearest)
        l_eff, n_clamped = where_effective_loss(scenario, where_distance(layout), mask)
        try:
            expected = where_evaluate_links(scenario, mask, l_eff, n_clamped_links=n_clamped)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                evaluate_drop(scenario)
        else:
            assert result_bits(evaluate_drop(scenario)) == result_bits(expected)


class TestLinkSums:
    """``_Links`` sums a link array per UE and per BS bit for bit as numpy
    sums the dense matrix, zeros off the mask, along each axis."""

    @pytest.mark.parametrize("n_bs", range(1, 21))
    @settings(max_examples=25, deadline=None)
    @given(n_ue=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_sums_match_dense_sums(self, n_bs, n_ue, seed, data):
        mask = data.draw(serving_masks(n_ue, n_bs))
        # Values over 40 decades, so the order of the additions shows.
        dense = np.where(mask, 10.0 ** np.random.default_rng(seed).uniform(-20.0, 20.0, mask.shape), 0.0)
        links = _Links(mask)
        assert links.per_ue(dense[mask]).tobytes() == dense.sum(axis=1).tobytes()
        assert links.per_bs(dense[mask]).tobytes() == dense.sum(axis=0).tobytes()


class TestDropMemory:
    """A reference-size drop keeps at most three dense (n_ue, n_bs) float
    arrays alive at once; it peaks at 2.95 while the layout builds its
    distance matrix (numpy's broadcasting buffers included). The dense
    in-place kernel peaked at 3.8, its np.where form at 7.4."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"power_allocation": "proportional", "apply_shadowing": True}],
        ids=["equal", "proportional-shadowed"],
    )
    def test_peak_is_at_most_three_dense_arrays(self, overrides):
        sc = Scenario(frequency_hz=28e9, n_ue=1024, n_bs=20, **overrides)
        evaluate_drop(sc)  # caches and lazy imports load outside the measurement
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            evaluate_drop(sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert (peak - before) / (sc.n_ue * sc.n_bs * 8) <= 3.0


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("frequencies_hz", (28e9, math.inf), "frequency_hz must be finite, got inf"),
            ("frequencies_hz", (-3.5e9,), "frequency and bandwidth must be > 0 Hz"),
            ("frequencies_hz", (5e9,), "no path-loss preset for 5 GHz"),
            ("antenna_modes", ("omni", "foo"), "antenna_mode must be 'omni' or 'directional', got 'foo'"),
            ("n_bs_values", (0,), r"n_bs must be in \[1, 20\], got 0"),
            ("n_bs_values", (1, 21), r"n_bs must be in \[1, 20\], got 21"),
            ("omni_per_link_cap_dbm", math.inf, "omni_per_link_cap_dbm must be finite"),
            ("omni_per_link_cap_dbm", math.nan, "omni_per_link_cap_dbm must be finite"),
        ],
    )
    def test_every_axis_value_makes_a_valid_cell(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            CampaignSpec(**{field: value})

    def test_run_campaign_calls_each_kernel_once_per_drop(self, monkeypatch):
        # Per-layer tracing wraps these module attributes and divides each
        # layer's time by the number of evaluate_drop calls.
        names = (
            "evaluate_drop",
            "generate_layout",
            "assign_serving_sets",
            "effective_loss_matrix",
            "power_control",
            "evaluate_links",
        )
        calls = collections.Counter()

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        for name in names:
            monkeypatch.setattr(netsim, name, counting(name, getattr(netsim, name)))
        campaign = dataclasses.replace(self.CAMPAIGN, antenna_modes=("directional",), n_seeds=3)
        drops, _ = run_campaign(self.BASE, campaign, jobs=1)
        assert len(drops) == 2 * 3
        assert calls == {name: len(drops) for name in names}
