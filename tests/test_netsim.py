import collections
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import pickle
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st, target
from hypothesis.extra.numpy import arrays

from wastefactor.channel import BAND_PRESETS, PathLossModel, aperture_gain_db, fspl_1m_db, path_loss_db
from wastefactor.config import _SCENARIO_KEYS
from wastefactor.core import Stage, cascade
from wastefactor.parallel import Branch, CombiningMode, combine_branches, mino_compose, mino_first_stage
from wastefactor import netsim
from wastefactor.netsim import (
    CampaignSpec,
    DropResult,
    Layout,
    Links,
    PowerControlResult,
    Scenario,
    STREAM_BS_LAYOUT,
    STREAM_SHADOWING,
    STREAM_UE_LAYOUT,
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
    write_campaign_csvs,
)
from wastefactor.units import db_to_linear, dbm_to_watts, linear_to_db

SMALL = Scenario(n_ue=64, n_bs=5, frequency_hz=28e9, seed=3)


def empty_layout_cache():
    """Forget this thread's kept layout: the next generate_layout draws anew."""
    netsim._THREAD.layout = netsim._NO_LAYOUT


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
        assert Scenario(frequency_hz=17e9).link_budget.band == BAND_PRESETS[17e9]

    def test_omni_gains_are_zero(self):
        # The loss scale is the 1 m anchor loss over both antenna gains.
        anchor_db = fspl_1m_db(3.5e9)
        assert Scenario(antenna_mode="omni").link_budget.loss_scale == db_to_linear(anchor_db)
        scale = Scenario(antenna_mode="directional").link_budget.loss_scale
        assert linear_to_db(scale) == pytest.approx(anchor_db - 31.36 - 0.90, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError, match="antenna_mode"):
            Scenario(antenna_mode="sector")
        with pytest.raises(ValueError, match="n_bs"):
            Scenario(n_bs=0)
        with pytest.raises(ValueError, match="n_bs"):
            Scenario(n_bs=21)
        with pytest.raises(
            ValueError,
            match="^no path-loss preset for 60 GHz; the band presets cover 3.5 GHz, 17 GHz, 28 GHz$",
        ):
            Scenario(frequency_hz=60e9)
        with pytest.raises(ValueError, match="power_allocation"):
            Scenario(power_allocation="waterfilling")

    # Each of these once built: a fractional seed ran the truncated seed
    # (1, 1.5 and 1.9 gave one w_system), a fractional size failed later
    # with a raw TypeError inside the kernel or the grid.
    @pytest.mark.parametrize(
        "build, field, value",
        [
            (Scenario, "seed", 1.5),
            (Scenario, "n_bs", 2.5),
            (Scenario, "n_ue", 10.5),
            (CampaignSpec, "n_seeds", 2.5),
            (CampaignSpec, "base_seed", 0.5),
        ],
    )
    def test_integer_fields_reject_non_integers(self, build, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            build(**{field: value})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"bandwidth_hz": 5e-318}, "gives a noise power of 0 W"),
            ({"ue_noise_figure_db": -1e308}, "gives a noise power of 0 W"),
            ({"region_radius_m": 1e300}, "squared link lengths that overflow a float"),
            ({"ue_height_m": -1e308}, "squared link lengths that overflow a float"),
            # Once overflowed the linear loss with a numpy warning, then
            # failed the drop on a NaN waste factor.
            (
                {"frequency_hz": 28e9, "region_radius_m": 1e150},
                r"region_radius_m = 1e\+150 .* 3097.5 dB passes the 3000 dB ceiling",
            ),
            # With an explicit path-loss exponent, once overflowed the
            # linear loss on its negative directional antenna gains.
            ({"frequency_hz": 1e-141}, "no path-loss preset"),
            # Boundary checks of the rest of the drop's inputs.
            ({"serving_radius_m": 0.0}, "region and serving radii must be > 0 m"),
            ({"w_bs": 0.5}, "device waste factors must be >= 1"),
            ({"p_non_path_ue_w": -1.0}, "non-path powers must be >= 0 W"),
            ({"seed": 2 ** 64}, "seed must be a 64-bit unsigned integer"),
        ],
    )
    def test_values_that_break_the_drop_are_rejected(self, overrides, message):
        # Each once built: the first two ended the drop in a 0/0 warning,
        # the next two in an overflow warning or OverflowError.
        with pytest.raises(ValueError, match=message):
            Scenario(**overrides)

    def test_a_region_under_the_path_loss_ceiling_constructs(self):
        # About 2779 dB at 3.5 GHz; the same region at 28 GHz is rejected above.
        assert Scenario(frequency_hz=3.5e9, region_radius_m=1e150).region_radius_m == 1e150

    @pytest.mark.parametrize("frequency_hz", [17e9, 28e9])
    def test_preset_shadowing_fits_under_the_path_loss_ceiling(self, frequency_hz):
        # A region whose longest link sits just under the 3000 dB ceiling
        # (3.5 GHz cannot reach it: its squared link lengths overflow first).
        preset = BAND_PRESETS[frequency_hz]
        longest_m = 10.0 ** ((2999.9 - fspl_1m_db(frequency_hz)) / (10.0 * preset.ple))
        sc = Scenario(frequency_hz=frequency_hz, region_radius_m=longest_m / 2.0, apply_shadowing=True)
        assert sc.link_budget.band == preset

    @pytest.mark.parametrize("frequency_hz", sorted(BAND_PRESETS))
    def test_preset_9_sigma_draw_stays_a_finite_linear_loss(self, frequency_hz):
        # Scenario bounds only the close-in loss, so a preset sigma above
        # about 9.17 dB would let a 9-sigma draw overflow the linear loss.
        sigma_db = BAND_PRESETS[frequency_hz].sigma_db
        assert math.isfinite(10.0 ** ((netsim._MAX_PATH_LOSS_DB + 9.0 * sigma_db) / 10.0))

    def test_integer_fields_accept_numpy_integers(self):
        sc = Scenario(n_bs=np.int64(3), n_ue=np.int32(8), seed=np.uint64(5))
        assert (sc.n_bs, sc.n_ue, sc.seed) == (3, 8, 5)
        CampaignSpec(n_seeds=np.int64(2), base_seed=np.uint8(1))

    def test_target_rx_power(self):
        sc = Scenario()
        assert 10 * math.log10(sc.link_budget.target_rx_power_w) + 30 == pytest.approx(-72.98, abs=5e-3)


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

    @pytest.mark.parametrize("n_ue, n_bs", [(1, 1), (64, 5), (512, 20)])
    def test_drawn_distances_match_a_built_layout(self, n_ue, n_bs):
        # generate_layout skips the finite check, not the distance helper.
        drawn = generate_layout(dataclasses.replace(SMALL, n_ue=n_ue, n_bs=n_bs))
        built = Layout(bs_xy_m=drawn.bs_xy_m.copy(), ue_xy_m=drawn.ue_xy_m.copy())
        assert drawn.sq_distance_m2.shape == (n_bs, n_ue)
        assert built.sq_distance_m2.tobytes() == drawn.sq_distance_m2.tobytes()

    def test_ue_placement_invariant_to_bs_count(self):
        one = generate_layout(dataclasses.replace(SMALL, n_bs=1))
        many = generate_layout(dataclasses.replace(SMALL, n_bs=20))
        assert np.array_equal(one.ue_xy_m, many.ue_xy_m)

    def test_bs_prefix_stable_as_count_grows(self):
        five = generate_layout(dataclasses.replace(SMALL, n_bs=5))
        ten = generate_layout(dataclasses.replace(SMALL, n_bs=10))
        assert np.array_equal(five.bs_xy_m, ten.bs_xy_m[:5])
        # BS-major geometry: the first rows are the smaller layout's.
        assert five.sq_distance_m2.tobytes() == ten.sq_distance_m2[:5].tobytes()

    def test_fewer_bs_of_a_kept_layout_are_views(self):
        many = generate_layout(dataclasses.replace(SMALL, n_bs=20))
        assert generate_layout(dataclasses.replace(SMALL, n_bs=20, frequency_hz=3.5e9)) is many
        few = generate_layout(dataclasses.replace(SMALL, n_bs=5))
        assert few.ue_xy_m is many.ue_xy_m
        for name in ("bs_xy_m", "sq_distance_m2"):
            view = getattr(few, name)
            assert view.base is getattr(many, name) and view.flags.c_contiguous
            assert len(view) == 5

    def test_squared_distances_are_bs_major(self):
        # One whole dy array at each shape, the elementwise dx*dx + dy*dy.
        for n_ue, n_bs in [(SMALL.n_ue, SMALL.n_bs), (1024, 15), (4000, 7)]:
            layout = generate_layout(dataclasses.replace(SMALL, n_ue=n_ue, n_bs=n_bs))
            sq = layout.sq_distance_m2
            assert sq.shape == (n_bs, n_ue) and sq.flags.c_contiguous
            dx = layout.ue_xy_m[:, 0] - layout.bs_xy_m[:, 0, None]
            dy = layout.ue_xy_m[:, 1] - layout.bs_xy_m[:, 1, None]
            assert sq.tobytes() == (dx * dx + dy * dy).tobytes()

    def test_integer_coordinates(self):
        layout = Layout(bs_xy_m=np.array([[0, 0], [6, 8]]), ue_xy_m=np.array([[3, 4]]))
        assert layout.sq_distance_m2.tolist() == [[25.0], [25.0]]

    @pytest.mark.parametrize("name", ["bs_xy_m", "ue_xy_m"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, name, bad):
        xy = {"bs_xy_m": np.array([[0.0, 0.0], [600.0, 0.0]]), "ue_xy_m": np.array([[0.0, 0.0]])}
        xy[name][0, 1] = bad
        with pytest.raises(ValueError, match=f"{name} must hold finite coordinates"):
            Layout(**xy)

    @pytest.mark.parametrize(
        "name, bad, shape",
        [
            # A third column was dropped: a 2-BS, 4-UE drop scored 32.47 dB.
            ("bs_xy_m", np.zeros((2, 3)), (2, 3)),
            # A 1-D array raised a raw IndexError.
            ("bs_xy_m", np.zeros(2), (2,)),
            ("ue_xy_m", np.zeros(4), (4,)),
            # No BS built, then failed in assign_serving_sets' minimum.
            ("bs_xy_m", np.zeros((0, 2)), (0, 2)),
            ("ue_xy_m", np.zeros((0, 2)), (0, 2)),
            ("ue_xy_m", np.zeros((4, 2, 1)), (4, 2, 1)),
        ],
        ids=["three-columns", "1-D-bs", "1-D-ue", "no-bs", "no-ue", "3-D"],
    )
    def test_coordinates_must_be_n_by_2(self, name, bad, shape):
        xy = {"bs_xy_m": np.array([[0.0, 0.0], [600.0, 0.0]]), "ue_xy_m": np.zeros((4, 2))}
        xy[name] = bad
        message = rf"{name} must have shape \(n, 2\) with n >= 1, got {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            Layout(**xy)

    def test_nested_lists_are_coordinates(self):
        # They once raised TypeError: list indices must be integers.
        bs, ue = [[0, 0], [600.5, -3]], [[3, 4], [100.25, 7], [-5, 9.5]]
        listed = Layout(bs_xy_m=bs, ue_xy_m=ue)
        built = Layout(bs_xy_m=np.array(bs, dtype=float), ue_xy_m=np.array(ue, dtype=float))
        assert listed.sq_distance_m2.tobytes() == built.sq_distance_m2.tobytes()
        assert listed.bs_xy_m.tolist() == bs and listed.ue_xy_m.tolist() == ue

    def test_caller_writes_do_not_reach_the_layout(self):
        # The float64 arrays were once kept as given, so this write moved
        # the BS while the stored distance stayed 25.
        bs, ue = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
        layout = Layout(bs, ue)
        bs[0, 0] = 100.0
        ue[0, 1] = -7.0
        assert layout.bs_xy_m is not bs and layout.ue_xy_m is not ue
        assert layout.bs_xy_m.tolist() == [[0.0, 0.0]]
        assert layout.ue_xy_m.tolist() == [[3.0, 4.0]]
        assert layout.sq_distance_m2.tolist() == [[25.0]]

    def test_infeasible_placement_raises(self):
        sc = Scenario(n_ue=4, n_bs=20, region_radius_m=150.0, min_bs_separation_m=290.0)
        with pytest.raises(RuntimeError, match="could not place"):
            generate_layout(sc)


DENSE = Scenario(frequency_hz=28e9, n_ue=1024, n_bs=20)


def dense_drop_bits(scenario):
    return generate_layout(scenario).sq_distance_m2.tobytes(), result_bits(evaluate_drop(scenario))


class TestDenseLayout:
    """From ``_DENSE_PAIRS`` UE-BS pairs, ``_DENSE_MIN_BS`` BSs and rows of
    ``_DENSE_MIN_ROW`` UEs up, a layout runs its broadcast subtractions
    under a shrunk numpy buffer and squares dy in a scratch array kept per
    thread."""

    @pytest.mark.parametrize("caller_bufsize", [None, 4096], ids=["default", "4096"])
    def test_caller_bufsize_is_kept(self, caller_bufsize):
        default = np.getbufsize()
        drawn = generate_layout(DENSE)
        with np.errstate():
            if caller_bufsize is not None:
                np.setbufsize(caller_bufsize)
            expected = np.getbufsize()
            for call in (lambda: Layout(drawn.bs_xy_m, drawn.ue_xy_m),
                         lambda: generate_layout(DENSE), lambda: evaluate_drop(DENSE)):
                empty_layout_cache()  # a kept layout would skip the dense path
                call()
                assert np.getbufsize() == expected
        assert np.getbufsize() == default

    def test_drop_in_a_new_thread_matches_the_main_thread(self):
        # The new thread starts with no scratch and numpy's default buffer,
        # and draws its own scratch: threads racing on one would mix rows.
        threaded = []
        thread = threading.Thread(
            target=lambda: threaded.append((dense_drop_bits(DENSE), netsim._THREAD.dy)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        (bits, scratch), = threaded
        assert bits == dense_drop_bits(DENSE)
        assert scratch is not netsim._THREAD.dy


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

    def test_fallback_tie_goes_to_the_lower_index(self):
        layout = Layout(
            bs_xy_m=np.array([[900.0, 0.0], [-500.0, 0.0], [500.0, 0.0]]),
            ue_xy_m=np.array([[0.0, 0.0], [0.0, 0.0]]),
        )
        mask = assign_serving_sets(layout, 200.0)
        assert mask.tolist() == [[False, True, False]] * 2

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
    distance = np.sqrt(layout.sq_distance_m2).T
    distances = distance[distance > 0.0]
    if distances.size:
        radii = st.one_of(radii, st.sampled_from(distances.tolist()))
    return layout, draw(radii)


PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


def where_serving(layout, serving_radius_m, fallback_nearest):
    """The serving mask with the fallback on uncovered rows only: find them
    with ``any``, gather them, take their argmin of squared distances."""
    sq = layout.sq_distance_m2.T
    r = serving_radius_m
    mask = sq <= r * r if r >= 0.0 else np.zeros(sq.shape, dtype=bool)
    if fallback_nearest:
        uncovered = np.flatnonzero(~mask.any(axis=1))
        mask[uncovered, np.argmin(sq[uncovered], axis=1)] = True
    return mask


def one_ue_layout(*bs_xy):
    return Layout(bs_xy_m=np.array(bs_xy, dtype=float), ue_xy_m=np.array([[0.0, 0.0]]))


# Squared distances 1, 1 + 2**-52 and 1 + 2**-51: only the first is within
# a 1 m radius, though the second's square root is 1 too.
ULPS_ABOVE_ONE = one_ue_layout([1.0, 0.0], [1.0, 2.0 ** -26], [1.0 + 2.0 ** -52, 0.0])
# Uncovered at 0.5 m; squared distances 1 + 2**-52 (BS 0) and 1 (BS 1)
# share the square root 1, and the fallback takes the smaller square, BS 1.
ROOT_TIE = one_ue_layout([1.0, 2.0 ** -26], [1.0, 0.0])
# Squared distances 25 and 25 exactly, from different coordinates.
EXACT_TIE = one_ue_layout([3.0, 4.0], [-4.0, 3.0])
# BS 0 sits on the UE (squared distance 0), BS 1 at 300 m.
ON_THE_UE = one_ue_layout([0.0, 0.0], [300.0, 0.0])


class TestServingProperties:
    @PROPERTY_SETTINGS
    @given(case=layouts_and_radii(), fallback_nearest=st.booleans())
    @example(case=(one_ue_layout([200.0, 0.0], [600.0, 0.0]), 200.0), fallback_nearest=False)
    @example(case=(ULPS_ABOVE_ONE, 1.0), fallback_nearest=False)
    @example(case=(one_ue_layout([-500.0, 0.0], [500.0, 0.0]), 200.0), fallback_nearest=True)
    @example(case=(ROOT_TIE, 0.5), fallback_nearest=True)
    @example(case=(EXACT_TIE, 1.0), fallback_nearest=True)
    @example(case=(one_ue_layout([900.0, 0.0]), 200.0), fallback_nearest=True)
    @example(case=(one_ue_layout([900.0, 0.0]), 200.0), fallback_nearest=False)
    @example(case=(ON_THE_UE, -200.0), fallback_nearest=False)
    @example(case=(ON_THE_UE, math.nan), fallback_nearest=True)
    @example(case=(ON_THE_UE, 0.0), fallback_nearest=False)
    @example(case=(ON_THE_UE, -0.0), fallback_nearest=False)
    @example(case=(ON_THE_UE, 1e300), fallback_nearest=False)  # its square overflows
    def test_mask_matches_where_serving(self, case, fallback_nearest):
        layout, radius = case
        mask = assign_serving_sets(layout, radius, fallback_nearest)
        expected = where_serving(layout, radius, fallback_nearest)
        assert (mask.dtype, mask.shape) == (expected.dtype, expected.shape)
        assert mask.tobytes() == expected.tobytes()

    @PROPERTY_SETTINGS
    @given(case=layouts_and_radii())
    def test_mask_is_radius_test_without_fallback(self, case):
        layout, radius = case
        mask = assign_serving_sets(layout, radius, fallback_nearest=False)
        assert mask.dtype == bool
        assert mask.tobytes() == (layout.sq_distance_m2.T <= radius * radius).tobytes()

    @PROPERTY_SETTINGS
    @given(case=layouts_and_radii())
    def test_fallback_adds_only_the_nearest_bs(self, case):
        layout, radius = case
        sq = layout.sq_distance_m2.T
        inside = sq <= radius * radius
        mask = assign_serving_sets(layout, radius)
        covered = inside.any(axis=1)
        assert np.array_equal(mask[covered], inside[covered])
        for i in np.flatnonzero(~covered):
            assert list(np.flatnonzero(mask[i])) == [np.argmin(sq[i])]

    @pytest.mark.parametrize(
        "layout, radius, fallback_nearest, served",
        [
            (ULPS_ABOVE_ONE, 1.0, False, [True, False, False]),
            (ROOT_TIE, 0.5, True, [False, True]),
            (EXACT_TIE, 1.0, True, [True, False]),
            (ON_THE_UE, -200.0, False, [False, False]),
            (ON_THE_UE, math.nan, False, [False, False]),
            (ON_THE_UE, math.nan, True, [True, False]),
            (ON_THE_UE, 0.0, False, [True, False]),
            (ON_THE_UE, 1e300, False, [True, True]),
        ],
        ids=["ulps-above-one", "root-tie", "exact-tie", "negative", "nan", "nan-fallback", "zero",
             "square-overflows"],
    )
    def test_examples_serve_what_they_say(self, layout, radius, fallback_nearest, served):
        assert assign_serving_sets(layout, radius, fallback_nearest).tolist() == [served]

    def test_examples_sit_where_they_say(self):
        assert ULPS_ABOVE_ONE.sq_distance_m2[:, 0].tolist() == [1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51]
        assert np.sqrt(ULPS_ABOVE_ONE.sq_distance_m2).T.tolist() == [[1.0, 1.0, math.sqrt(1.0 + 2.0 ** -51)]]
        assert np.sqrt(ROOT_TIE.sq_distance_m2).T.tolist() == [[1.0, 1.0]]
        assert ROOT_TIE.sq_distance_m2[0, 0] > ROOT_TIE.sq_distance_m2[1, 0]
        assert EXACT_TIE.sq_distance_m2.tolist() == [[25.0], [25.0]]


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
        every_pair = np.ones(layout.sq_distance_m2.T.shape, dtype=bool)
        plain, _ = effective_loss_matrix(SMALL, layout, Links(every_pair))
        shadowed, _ = effective_loss_matrix(
            dataclasses.replace(SMALL, apply_shadowing=True), layout, Links(every_pair)
        )
        assert plain.shape == shadowed.shape
        assert not np.allclose(plain, shadowed)

    def test_shadowing_off_by_default_is_deterministic_model(self):
        layout = generate_layout(SMALL)
        mask = assign_serving_sets(layout, SMALL.serving_radius_m)
        l1, _ = effective_loss_matrix(SMALL, layout, Links(mask))
        l2, _ = effective_loss_matrix(SMALL, layout, Links(mask))
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
        l_eff, n_clamped = effective_loss_matrix(sc, layout, Links(mask))
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
        l_eff, n_clamped = effective_loss_matrix(sc, layout, Links(mask))
        assert mask.tolist() == [[True], [False]]
        assert (l_eff.tolist(), n_clamped) == ([1.0], 1)
        every_pair = np.ones((2, 1), dtype=bool)
        assert effective_loss_matrix(sc, layout, Links(every_pair))[1] == 2


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
        # A generator shared across threads interleaves their draws, and a
        # dy scratch shared by dense layouts (1024 x 10) their rows.
        scenarios = [
            Scenario(n_ue=n_ue, n_bs=10, frequency_hz=28e9, apply_shadowing=True, seed=seed)
            for seed in range(64) for n_ue in (256, 1024)
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
        pc = power_control(l_eff, Links(np.array([[True]])), sc)
        assert 10 * math.log10(pc.p_tx_w[0]) + 30 == pytest.approx(7.02, abs=5e-3)
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)
        assert pc.n_capped_links == 0

    def test_cap_limits_single_link(self):
        sc = self._one_link_scenario()
        l_eff = np.array([10.0 ** 9.0])  # 90 dB needs 17 dBm
        pc = power_control(l_eff, Links(np.array([[True]])), sc)
        assert 10 * math.log10(pc.p_tx_w[0]) + 30 == pytest.approx(10.0, abs=1e-9)
        assert pc.snr_db[0] == pytest.approx(2.98, abs=5e-3)
        assert pc.n_capped_links == 1

    def test_two_equal_links_split_power(self):
        sc = dataclasses.replace(Scenario(n_ue=1, n_bs=2, frequency_hz=28e9))
        l_eff = np.full(2, 10.0 ** 8.0)
        pc = power_control(l_eff, Links(np.array([[True, True]])), sc)
        single = dbm_to_watts(7.02)
        assert pc.p_tx_w[0] == pytest.approx(single / 2.0, rel=2e-3)
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)

    def test_proportional_allocation_loads_better_link(self):
        sc = dataclasses.replace(
            Scenario(n_ue=1, n_bs=2, frequency_hz=28e9),
            power_allocation="proportional",
        )
        l_eff = np.array([1e7, 1e8])
        pc = power_control(l_eff, Links(np.array([[True, True]])), sc)
        assert pc.p_tx_w[0] > pc.p_tx_w[1]
        assert pc.snr_db[0] == pytest.approx(10.0, abs=1e-9)

    def test_per_bs_budget_rescales_all_links(self):
        # 64 UEs forced onto one BS at 110 dB loss need ~37 dBm each, about
        # 322 W total against the 100 W budget, so every link scales down.
        sc = dataclasses.replace(
            Scenario(n_ue=64, n_bs=1, frequency_hz=28e9), per_link_cap_dbm=40.0
        )
        l_eff = np.full(64, 10.0 ** 11.0)
        pc = power_control(l_eff, Links(np.ones((64, 1), dtype=bool)), sc)
        assert pc.n_budget_limited_bs == 1
        assert pc.p_tx_w.sum() == pytest.approx(dbm_to_watts(50.0), rel=1e-9)
        assert np.all(pc.snr_db < 10.0)

    def test_unserved_ue_has_no_power(self):
        sc = dataclasses.replace(Scenario(n_ue=2, n_bs=1, frequency_hz=28e9))
        pc = power_control(np.array([1e8]), Links(np.array([[True], [False]])), sc)
        assert pc.p_rx_ue_w[1] == 0.0
        assert np.isneginf(pc.snr_db[1])


class TestEvaluateLinks:
    def test_hand_instance(self):
        # Two single-BS UEs at 70 and 80 dB effective loss, both on target:
        # branch W = 15 L, equal received powers, so the first stage is
        # (15e7 + 15e8)/2 and the system W follows in closed form.
        sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
        links = Links(np.eye(2, dtype=bool))
        l_eff = np.array([[1e7, 1e30], [1e30, 1e8]])
        result = evaluate_links(sc, links, l_eff[links.ue, links.bs])
        expected_w = 33.0 + (8.25e8 - 1.0) / (10.0 ** 1.1)
        assert result.w_system == pytest.approx(expected_w, rel=1e-9)
        assert result.wf_system_db == pytest.approx(78.17, abs=0.01)
        assert result.mean_snr_db == pytest.approx(10.0, abs=1e-9)
        assert result.frac_ue_meeting_target == 1.0
        assert result.audit_rel_error <= 1e-12

    def test_matches_parallel_module_composition(self):
        # Dual route: the drop pipeline against the branch-level composition
        # of branch_law_w_system, on one shadowed drop.
        sc = dataclasses.replace(
            SMALL, n_ue=16, n_bs=3, apply_shadowing=True, seed=11
        )
        layout = generate_layout(sc)
        links = Links(assign_serving_sets(layout, sc.serving_radius_m))
        link_loss, n_clamped = effective_loss_matrix(sc, layout, links)
        result = evaluate_links(sc, links, link_loss, n_clamped_links=n_clamped)
        expected = branch_law_w_system(sc, links, link_loss)
        assert result.w_system == pytest.approx(expected, rel=1e-12)

    def test_lossless_floor(self):
        # All channels at the clamp and ideal BSs: the system W collapses
        # to the UE waste factor.
        sc = dataclasses.replace(Scenario(n_ue=3, n_bs=1, frequency_hz=28e9), w_bs=1.0)
        serving = Links(np.ones((3, 1), dtype=bool))
        result = evaluate_links(sc, serving, np.ones(3))
        assert result.w_system == pytest.approx(sc.w_ue, rel=1e-12)
        assert result.wf_system_db == pytest.approx(10.0 * math.log10(33.0), abs=1e-9)
        # Here P_tx, summed per BS, rounds an ulp below P_rx, summed per UE:
        # the first stage stays at its floor of 1 and W at W_ue.
        sc = dataclasses.replace(sc, n_ue=2, n_bs=3)
        serving = Links(np.array([[True, True, True], [True, False, False]]))
        assert evaluate_links(sc, serving, np.ones(4)).w_system == sc.w_ue

    def test_shape_mismatch_rejected(self):
        sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
        with pytest.raises(ValueError, match="serving mask .* declares"):
            evaluate_links(sc, Links(np.ones((1, 1), dtype=bool)), np.ones(1))
        with pytest.raises(ValueError, match="serving mask .* declares"):
            evaluate_links(sc, Links(np.ones((2, 1), dtype=bool)), np.ones(2))
        with pytest.raises(ValueError, match="holds 4 links"):
            evaluate_links(sc, Links(np.ones((2, 2), dtype=bool)), np.ones(3))
        # A dense loss matrix is not one loss per link.
        with pytest.raises(ValueError, match="holds 2 links"):
            evaluate_links(sc, Links(np.eye(2, dtype=bool)), np.ones((2, 2)))

    def test_losses_are_converted_to_float64(self):
        # A list once raised AttributeError on .min(), and float32 losses
        # were scored in float32: 17.058034535457306 dB, not ...579334173.
        sc = Scenario(n_ue=2, n_bs=1, frequency_hz=28e9)
        links = Links(np.ones((2, 1), dtype=bool))
        expected = evaluate_links(sc, links, np.array([10.0, 20.0]))
        assert expected.wf_system_db == 17.058034579334173
        for losses in ([10.0, 20.0], [10, 20], np.array([10.0, 20.0], dtype=np.float32)):
            assert result_bits(evaluate_links(sc, links, losses)) == result_bits(expected)

    def test_a_list_of_impossible_losses_is_rejected(self):
        sc = Scenario(n_ue=2, n_bs=1, frequency_hz=28e9)
        with pytest.raises(ValueError, match=r"finite and >= 1 .*got 0.5 to 20.0"):
            evaluate_links(sc, Links(np.ones((2, 1), dtype=bool)), [0.5, 20.0])

    @pytest.mark.parametrize("bad", [-1.0, 0.0, 0.5, math.nan, math.inf])
    def test_impossible_link_losses_rejected(self, bad):
        # -1 once scored quietly, 0 warned from power control, 0.5 passed
        # with w_bs = 15 and NaN failed only inside mino_compose.
        sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
        link_loss = np.array([1e8, bad, 1e7, 1.0])
        with pytest.raises(ValueError, match=r"finite and >= 1 \(the W = 1 floor\)"):
            evaluate_links(sc, Links(np.ones((2, 2), dtype=bool)), link_loss)

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
            np.ones(2, dtype=bool),
            np.ones((2, 2, 2), dtype=bool),
            [[True, False], [False, True]],
        ],
        ids=[
            "negative-index", "empty-float-set", "index-lists", "int-matrix", "float-matrix",
            "1-D", "3-D", "nested-list",
        ],
    )
    def test_only_a_boolean_mask_is_accepted(self, serving):
        with pytest.raises(ValueError, match="serving mask"):
            Links(serving)


class TestEvaluateDrop:
    def test_bit_identical_repetition(self):
        first = evaluate_drop(SMALL)
        second = evaluate_drop(SMALL)
        assert first == second

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
        serving = Links(np.zeros((2, 1), dtype=bool))
        with pytest.raises(ValueError, match="no UE receives"):
            evaluate_links(sc, serving, np.empty(0))

    def test_non_finite_system_w_is_an_error(self):
        # Once returned w_system = inf and a NaN audit, with numpy warnings.
        sc = Scenario(n_ue=2, n_bs=1, frequency_hz=28e9, w_bs=1e308)
        with pytest.raises(ValueError, match="w_system = inf"):
            evaluate_links(sc, Links(np.ones((2, 1), dtype=bool)), np.full(2, 1e8))

    def test_system_output_underflow_is_an_error(self):
        # Once a NaN audit with a numpy warning: ideal BSs and lossless links
        # give a first stage of 1, so no overflow catches the tiny UE gain.
        sc = Scenario(n_ue=1, n_bs=1, frequency_hz=28e9, w_bs=1.0, g_ue_db=-3200.0)
        with pytest.raises(ValueError, match="g_ue_db = -3200.0 makes the system output underflow"):
            evaluate_links(sc, Links(np.ones((1, 1), dtype=bool)), np.ones(1))


# The kernel's arithmetic on the dense (n_ue, n_bs) matrix in its np.where
# form, a fresh temporary per step: the oracle for the link-list kernel.
# Every op and operand order is the same, and a sum over links adds them
# in link order (``link_sum``), so the link entries of each dense result
# (``dense[mask]``) and every per-UE result must be equal byte for byte.


def link_sum(dense, mask, axis):
    """``dense.sum(axis)`` over the mask's entries only, added one at a
    time in the mask's row-major (link) order, as ``np.bincount`` adds."""
    sums = np.zeros(mask.shape[1 - axis])
    np.add.at(sums, np.nonzero(mask)[1 - axis], dense[mask])
    return sums


def where_sq_distance(layout):
    dx = layout.ue_xy_m[:, 0, None] - layout.bs_xy_m[None, :, 0]
    dy = layout.ue_xy_m[:, 1, None] - layout.bs_xy_m[None, :, 1]
    return dx * dx + dy * dy


def where_effective_loss(scenario, sq_distance_m2, serving_mask):
    """The linear close-in loss over the dense ``(n_ue, n_bs)`` squared
    horizontal distances."""
    budget = scenario.link_budget
    d3_sq = sq_distance_m2 + (scenario.bs_height_m - scenario.ue_height_m) ** 2
    band = budget.band
    loss = budget.loss_scale * np.power(np.maximum(d3_sq, 1.0), band.ple / 2.0)
    if scenario.apply_shadowing and band.sigma_db > 0.0:
        z = _substream(scenario.seed, STREAM_SHADOWING).standard_normal(d3_sq.shape)
        loss = loss * np.exp(band.sigma_db * math.log(10.0) / 10.0 * z)
    n_clamped = int(np.count_nonzero((loss < 1.0) & serving_mask))
    return np.maximum(loss, 1.0), n_clamped


def where_power_control(l_eff_w, serving_mask, scenario):
    inv_l = np.where(serving_mask, 1.0 / l_eff_w, 0.0)
    target = scenario.link_budget.target_rx_power_w
    cap_w = dbm_to_watts(scenario.per_link_cap_dbm)
    if scenario.power_allocation == "equal":
        denom = link_sum(inv_l, serving_mask, axis=1)
        per_ue = np.divide(target, denom, out=np.zeros_like(denom), where=denom > 0.0)
        desired = np.where(serving_mask, per_ue[:, None], 0.0)
    else:
        denom = link_sum(inv_l ** 2, serving_mask, axis=1)
        scale = np.divide(target, denom, out=np.zeros_like(denom), where=denom > 0.0)
        desired = scale[:, None] * inv_l
    n_capped = int(np.count_nonzero(desired > cap_w))
    p_tx = np.minimum(desired, cap_w)
    budget_w = dbm_to_watts(scenario.per_bs_budget_dbm)
    bs_load = link_sum(p_tx, serving_mask, axis=0)
    bs_scale = np.where(bs_load > budget_w, budget_w / np.maximum(bs_load, 1e-300), 1.0)
    n_budget_limited = int(np.count_nonzero(bs_scale < 1.0))
    p_tx = p_tx * bs_scale[None, :]
    p_tx_bs = link_sum(p_tx, serving_mask, axis=0)
    p_rx_ue = link_sum(p_tx * inv_l, serving_mask, axis=1)
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(p_rx_ue / scenario.link_budget.noise_power_w)
    return PowerControlResult(p_tx, p_tx_bs, p_rx_ue, snr_db, n_capped, n_budget_limited)


def where_evaluate_links(scenario, serving_mask, l_eff_w, n_clamped_links=0):
    pc = where_power_control(l_eff_w, serving_mask, scenario)
    total_rx = pc.p_rx_ue_w.sum()
    if total_rx <= 0.0:
        raise ValueError("no UE receives any power; cannot reference a system W")
    p_tx_total = pc.p_tx_bs_w.sum()
    g_ue = db_to_linear(scenario.g_ue_db)
    w_system = mino_compose(scenario.w_bs * max(p_tx_total / total_rx, 1.0), scenario.w_ue, g_ue)
    p_system_out = g_ue * total_rx
    p_path = w_system * p_system_out
    p_non_path = scenario.n_bs * scenario.p_non_path_bs_w + scenario.n_ue * scenario.p_non_path_ue_w
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


def on_links(pc, links):
    """A dense power-control result as the kernel returns it: its per-link
    arrays taken on the BS-major links."""
    return PowerControlResult(
        pc.p_tx_w[links.ue, links.bs], pc.p_tx_bs_w, pc.p_rx_ue_w, pc.snr_db,
        pc.n_capped_links, pc.n_budget_limited_bs,
    )


def result_bits(result):
    """Every field of a result record, floats as hex and arrays as bytes."""
    out = []
    for value in result._asdict().values():
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
    drawn density, so rows and columns of many links, where the order of
    the additions shows, are common."""
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return draw(st.one_of(
        arrays(bool, (n_ue, n_bs)),
        st.just(np.random.default_rng(seed).random((n_ue, n_bs)) < density),
    ))


@st.composite
def link_realizations(draw):
    """A scenario, a serving mask of at least one link and losses: the clamp
    floor up to 150 dB on the mask, the values above (inf, nan, 0, 1e308,
    any float) off it."""
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
    # At least one served link: the no-link case has its own test.
    mask[draw(st.integers(0, n_ue - 1)), draw(st.integers(0, n_bs - 1))] = True
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


def budget_case(per_link_cap_dbm, per_bs_budget_dbm, loss_w):
    """Three UEs, two on BS 0 and one on BS 1, every link with the same
    loss: each BS's load is known, so the budget can sit below, at or
    above it."""
    scenario = Scenario(
        n_ue=3,
        n_bs=2,
        frequency_hz=28e9,
        per_link_cap_dbm=per_link_cap_dbm,
        per_bs_budget_dbm=per_bs_budget_dbm,
    )
    mask = np.array([[True, False], [True, False], [False, True]])
    return scenario, mask, np.where(mask, loss_w, math.inf)


# About 0.5 W per link (BS loads 1 W and 0.5 W) under a 10 W cap: a 100 W
# budget no BS reaches, a 1 mW one every BS exceeds. With 120 dB links
# every link sits at a 10 mW cap, so BS 1's load equals a budget of the
# cap exactly (not limited) while BS 0's two links exceed it.
BUDGET_NOT_REACHED = budget_case(40.0, 50.0, 1e10)
BUDGET_AT_LOAD = budget_case(10.0, 10.0, 1e12)
BUDGET_EXCEEDED = budget_case(40.0, 0.0, 1e10)


class TestInPlaceKernelOracle:
    """The link-list drop kernel against the dense np.where forms above,
    and never writing into an array it was given."""

    @pytest.mark.parametrize(
        "case, n_limited",
        [(BUDGET_NOT_REACHED, 0), (BUDGET_AT_LOAD, 1), (BUDGET_EXCEEDED, 2)],
        ids=["not-reached", "at-load", "exceeded"],
    )
    def test_budget_cases_limit_what_they_say(self, case, n_limited):
        scenario, mask, l_eff = case
        links = Links(mask)
        pc = power_control(l_eff[links.ue, links.bs], links, scenario)
        assert pc.n_budget_limited_bs == n_limited
        if case is BUDGET_AT_LOAD:
            budget_w = dbm_to_watts(scenario.per_bs_budget_dbm)
            assert pc.p_tx_w[-1] == budget_w  # BS 1's one link, unscaled
            assert pc.p_tx_w[:2].tolist() == [budget_w / 2.0] * 2

    @PROPERTY_SETTINGS
    @given(case=link_realizations())
    @example(case=BUDGET_NOT_REACHED)
    @example(case=BUDGET_AT_LOAD)
    @example(case=BUDGET_EXCEEDED)
    def test_power_control_and_links_match_where_forms(self, case):
        scenario, mask, l_eff = case
        links = Links(mask)
        link_loss = l_eff[links.ue, links.bs]
        mask_before, loss_before = mask.tobytes(), link_loss.tobytes()
        with np.errstate(all="ignore"):
            expected_pc = on_links(where_power_control(l_eff, mask, scenario), links)
        got_pc = power_control(link_loss, links, scenario)
        assert result_bits(got_pc) == result_bits(expected_pc)
        bs, ue = np.nonzero(mask.T)
        assert (links.ue.tolist(), links.bs.tolist()) == (ue.tolist(), bs.tolist())
        try:
            with np.errstate(all="ignore"):
                expected = where_evaluate_links(scenario, mask, l_eff, n_clamped_links=3)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                evaluate_links(scenario, links, link_loss, n_clamped_links=3)
        else:
            got = evaluate_links(scenario, links, link_loss, n_clamped_links=3)
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
        sq = where_sq_distance(layout)
        assert layout.sq_distance_m2.T.tobytes() == sq.tobytes()
        assert np.sqrt(layout.sq_distance_m2).T.tobytes() == np.sqrt(sq).tobytes()
        mask = assign_serving_sets(layout, scenario.serving_radius_m)
        links = Links(mask)
        link_loss, n_clamped = effective_loss_matrix(scenario, layout, links)
        expected, expected_clamped = where_effective_loss(scenario, sq, mask)
        assert (link_loss.tobytes(), n_clamped) == (
            expected[links.ue, links.bs].tobytes(), expected_clamped
        )
        assert layout.sq_distance_m2.T.tobytes() == sq.tobytes()
        mask_before, loss_before = mask.tobytes(), link_loss.tobytes()
        evaluate_links(scenario, links, link_loss, n_clamped_links=n_clamped)
        assert mask.tobytes() == mask_before
        assert link_loss.tobytes() == loss_before

    @PROPERTY_SETTINGS
    @given(scenario=small_scenarios())
    def test_drop_matches_where_forms(self, scenario):
        layout = generate_layout(scenario)
        mask = assign_serving_sets(layout, scenario.serving_radius_m, scenario.fallback_nearest)
        l_eff, n_clamped = where_effective_loss(scenario, where_sq_distance(layout), mask)
        try:
            expected = where_evaluate_links(scenario, mask, l_eff, n_clamped_links=n_clamped)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                evaluate_drop(scenario)
        else:
            assert result_bits(evaluate_drop(scenario)) == result_bits(expected)


class TestCloseInLoss:
    """The kernel's linear losses against the scalar dB model of ``channel``,
    one served link at a time."""

    @pytest.mark.parametrize("apply_shadowing", [False, True])
    @pytest.mark.parametrize("antenna_mode", ["omni", "directional"])
    @pytest.mark.parametrize("frequency_hz", sorted(BAND_PRESETS))
    @settings(PROPERTY_SETTINGS, derandomize=True, max_examples=25)
    @given(case=clamping_layouts())
    def test_link_losses_match_the_db_model(self, frequency_hz, antenna_mode, apply_shadowing, case):
        scenario, layout = case
        scenario = dataclasses.replace(scenario, frequency_hz=frequency_hz,
                                       antenna_mode=antenna_mode, apply_shadowing=apply_shadowing)
        links = Links(assign_serving_sets(layout, scenario.serving_radius_m))
        loss, n_clamped = effective_loss_matrix(scenario, layout, links)

        band = BAND_PRESETS[frequency_hz]
        model = PathLossModel(frequency_hz, band.ple)
        g_bs, g_ue = (0.0, 0.0) if antenna_mode == "omni" else (
            aperture_gain_db(netsim.BS_APERTURE, frequency_hz),
            aperture_gain_db(netsim.UE_APERTURE, frequency_hz),
        )
        z = _substream(scenario.seed, STREAM_SHADOWING).standard_normal((scenario.n_ue, scenario.n_bs))
        sigma_db = band.sigma_db if apply_shadowing else 0.0
        height_m = scenario.bs_height_m - scenario.ue_height_m
        expected, clamped = [], 0
        for ue, bs in zip(links.ue.tolist(), links.bs.tolist()):
            d3 = math.hypot(*(layout.ue_xy_m[ue] - layout.bs_xy_m[bs]).tolist(), height_m)
            eff_db = path_loss_db(model, d3, sigma_db * z[ue, bs]) - g_bs - g_ue
            clamped += eff_db < 0.0
            expected.append(max(10.0 ** (eff_db / 10.0), 1.0))
        assert loss.tolist() == pytest.approx(expected, rel=1e-12)
        assert n_clamped == clamped


def branch_law_w_system(scenario, links, link_loss):
    """The paper's composition law branch by branch, through core and
    parallel: each link's BS stage cascaded with its channel, weighted by
    the link's received power p_tx / loss; the branches of each served UE
    combined non-coherently (MISO); the UEs' groups weighted by their
    received powers into the imaginary sink's first stage (MINO), then
    terminated by the UE stage."""
    pc = power_control(link_loss, links, scenario)
    weights = (pc.p_tx_w / link_loss).tolist()
    groups = collections.defaultdict(list)
    for k, (ue, loss) in enumerate(zip(links.ue.tolist(), link_loss.tolist())):
        stage = cascade([Stage(scenario.w_bs, 10.0 ** 3.0), Stage(loss, 1.0 / loss)])
        groups[ue].append(Branch(stage=stage, weight=weights[k]))
    served = sorted(groups)
    w_first = mino_first_stage(
        pc.p_rx_ue_w[served].tolist(),
        [combine_branches(groups[ue], CombiningMode.NON_COHERENT) for ue in served],
    )
    return mino_compose(w_first, scenario.w_ue, db_to_linear(scenario.g_ue_db))


class TestBranchLaw:
    """evaluate_links' two sums against the per-branch composition law."""

    @settings(PROPERTY_SETTINGS, derandomize=True)
    @given(case=link_realizations())
    @example(case=BUDGET_NOT_REACHED)
    @example(case=BUDGET_AT_LOAD)
    @example(case=BUDGET_EXCEEDED)
    def test_two_sums_match_the_branch_law(self, case):
        scenario, mask, l_eff = case
        links = Links(mask)
        link_loss = l_eff[links.ue, links.bs]
        w_system = evaluate_links(scenario, links, link_loss).w_system
        assert w_system == pytest.approx(branch_law_w_system(scenario, links, link_loss), rel=1e-12)


EMPTY_ROWS_AND_COLUMNS = np.array(
    [[False, True, False, True], [False, False, False, False], [False, True, False, False]]
)


class TestLinks:
    """``Links(mask)`` holds the mask's pairs BS-major, and sums per UE and
    per BS add them as the dense oracle's ``link_sum`` does."""

    @PROPERTY_SETTINGS
    @given(
        mask=st.tuples(st.integers(1, 12), st.integers(1, 20)).flatmap(
            lambda shape: serving_masks(*shape)
        ),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(mask=np.array([[True]]), seed=0)
    @example(mask=np.zeros((3, 2), dtype=bool), seed=0)
    @example(mask=EMPTY_ROWS_AND_COLUMNS, seed=1)
    @example(mask=EMPTY_ROWS_AND_COLUMNS.T, seed=2)
    def test_links_are_the_mask_pairs_bs_major(self, mask, seed):
        mask_before = mask.tobytes()
        links = Links(mask)
        n_ue, n_bs = mask.shape
        ue, bs = np.nonzero(mask)
        order = np.lexsort((ue, bs))
        assert (links.n_ue, links.n_bs) == (n_ue, n_bs)
        assert (links.ue.tolist(), links.bs.tolist()) == (ue[order].tolist(), bs[order].tolist())
        assert links.cell.tolist() == (links.bs * n_ue + links.ue).tolist()
        assert len(links) == mask.sum()
        # Mixed signs and magnitudes, so the order of the additions shows.
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal(mask.shape) * 10.0 ** rng.uniform(-8.0, 8.0, mask.shape)
        values = dense[links.ue, links.bs]
        assert links.per_ue(values).tobytes() == link_sum(dense, mask, axis=1).tobytes()
        assert links.per_bs(values).tobytes() == link_sum(dense, mask, axis=0).tobytes()
        assert mask.tobytes() == mask_before


class TestDropLinks:
    """A drop derives its served links once and shares them; the links of
    its mask, built by a caller, give the same bits."""

    SCENARIOS = [SMALL, dataclasses.replace(SMALL, apply_shadowing=True, power_allocation="proportional")]

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=["equal", "shadowed-proportional"])
    def test_power_control_of_a_mask_matches_the_drop_call(self, monkeypatch, scenario):
        seen = []

        def recording(link_loss_w, serving, sc):
            pc = power_control(link_loss_w, serving, sc)
            seen.append((link_loss_w.copy(), serving, pc))
            return pc

        monkeypatch.setattr(netsim, "power_control", recording)
        evaluate_drop(scenario)
        [(link_loss, serving, from_drop)] = seen
        assert isinstance(serving, Links)
        links = Links(assign_serving_sets(generate_layout(scenario), scenario.serving_radius_m))
        assert (serving.ue.tolist(), serving.bs.tolist()) == (links.ue.tolist(), links.bs.tolist())
        from_mask = power_control(link_loss, links, scenario)
        assert result_bits(from_mask) == result_bits(from_drop)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=["equal", "shadowed-proportional"])
    def test_a_drop_derives_its_links_once(self, monkeypatch, scenario):
        built = []

        class CountedLinks(Links):
            def __init__(self, serving_mask):
                built.append(serving_mask)
                super().__init__(serving_mask)

        monkeypatch.setattr(netsim, "Links", CountedLinks)
        evaluate_drop(scenario)
        assert len(built) == 1

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=["equal", "shadowed-proportional"])
    def test_a_drop_matches_its_mask_path(self, scenario):
        # Every field agrees bit for bit, the energy audit included.
        layout = generate_layout(scenario)
        mask = assign_serving_sets(layout, scenario.serving_radius_m, scenario.fallback_nearest)
        links = Links(mask)
        link_loss, n_clamped = effective_loss_matrix(scenario, layout, links)
        from_mask = evaluate_links(scenario, links, link_loss, n_clamped_links=n_clamped)
        assert result_bits(evaluate_drop(scenario)) == result_bits(from_mask)

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=["equal", "shadowed-proportional"])
    def test_losses_of_the_links_match_the_mask(self, scenario):
        # The drop's mask is a transposed view; a caller's row-major copy
        # gives the same links and losses.
        layout = generate_layout(scenario)
        mask = assign_serving_sets(layout, scenario.serving_radius_m)
        from_view, clamped_view = effective_loss_matrix(scenario, layout, Links(mask))
        from_copy, clamped_copy = effective_loss_matrix(scenario, layout, Links(mask.copy(order="C")))
        assert (from_copy.tobytes(), clamped_copy) == (from_view.tobytes(), clamped_view)


class TestNetsimRecords:
    """The layout and the result records stay frozen, and every field
    lands under its own name."""

    @staticmethod
    def records():
        layout = generate_layout(SMALL)
        mask = assign_serving_sets(layout, SMALL.serving_radius_m)
        links = Links(mask)
        link_loss, _ = effective_loss_matrix(SMALL, layout, links)
        return [layout, power_control(link_loss, links, SMALL), evaluate_drop(SMALL)]

    def test_assignment_is_refused(self):
        layout, pc, result = self.records()
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.bs_xy_m = None
        for record in (pc, result):
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], 1.0)

    def test_fields_are_stored_under_their_names(self):
        # _replace() passes every field by name, so a swapped store shows.
        _, pc, result = self.records()
        for record in (pc, result):
            assert result_bits(record._replace()) == result_bits(record)
        assert result_bits(pickle.loads(pickle.dumps(result))) == result_bits(result)


class TestDropMemory:
    """A reference-size drop keeps at most three dense (n_ue, n_bs) float
    arrays alive at once. Its layout allocates one, the squared distances,
    and peaks at 1.14 with the drawn coordinates and numpy's one-row
    buffers: the dy it squares lives in a scratch array kept per thread,
    one (n_bs, n_ue) float array. The whole drop then peaks at 1.82, and at
    2.57 with proportional allocation and shadowing on. A fresh dy array
    and numpy's default buffers made the layout peak at 2.94; adding dy in
    blocks held it at 2.44 (2.57 with shadowing on); the dense in-place
    kernel peaked at 3.8, its np.where form at 7.4."""

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"power_allocation": "proportional", "apply_shadowing": True}],
        ids=["equal", "proportional-shadowed"],
    )
    def test_peak_is_at_most_three_dense_arrays(self, overrides):
        sc = Scenario(frequency_hz=28e9, n_ue=1024, n_bs=20, **overrides)
        assert self.peak_in_dense_arrays(sc, evaluate_drop, sc) <= 3.0

    def test_dense_layout_allocates_one_dense_array(self):
        assert self.peak_in_dense_arrays(DENSE, generate_layout, DENSE) <= 1.25

    @pytest.mark.parametrize("n_bs", [20, 5], ids=["kept", "view"])
    def test_a_kept_layout_allocates_nothing_dense(self, n_bs):
        scenario = dataclasses.replace(DENSE, n_bs=n_bs)
        assert self.peak_in_dense_arrays(DENSE, generate_layout, scenario, kept=DENSE) < 0.05

    @pytest.mark.parametrize("kept", [{"seed": 1}, {"n_bs": 5}], ids=["other-seed", "fewer-bs"])
    def test_a_miss_frees_the_kept_layout_first(self, kept):
        # Within the cold bound less the kept squared distances, which go
        # before the new layout allocates.
        kept = dataclasses.replace(DENSE, **kept)
        bound = 1.25 - kept.n_bs / DENSE.n_bs
        assert self.peak_in_dense_arrays(DENSE, generate_layout, DENSE, kept=kept) <= bound

    def test_a_thread_keeps_one_layout(self):
        # The scratch dy and lazy imports load before tracing starts.
        evaluate_drop(DENSE)
        empty_layout_cache()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            evaluate_drop(DENSE)
            kept, _ = tracemalloc.get_traced_memory()
            evaluate_drop(Scenario(n_ue=64, n_bs=1))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert (kept - after) / (DENSE.n_ue * DENSE.n_bs * 8) >= 0.9

    @staticmethod
    def peak_in_dense_arrays(sc, function, *args, kept=None):
        """Peak memory of ``function(*args)`` over one (n_ue, n_bs) float
        array, with the layout of ``kept`` in this thread's layout cache, or
        none."""
        function(*args)  # caches and lazy imports load outside the measurement
        empty_layout_cache()  # else the measured call reuses the warm-up's layout
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            if kept is not None:  # traced, so that freeing it counts
                generate_layout(kept)
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            function(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        return (peak - before) / (sc.n_ue * sc.n_bs * 8)


SCENARIO_FIELDS = [
    "frequency_hz", "antenna_mode", "n_bs", "n_ue", "region_radius_m", "bs_height_m",
    "ue_height_m", "min_bs_separation_m", "serving_radius_m", "bandwidth_hz", "target_snr_db",
    "ue_noise_figure_db", "per_link_cap_dbm", "per_bs_budget_dbm", "w_bs", "w_ue", "g_ue_db",
    "p_non_path_bs_w", "p_non_path_ue_w", "apply_shadowing", "fallback_nearest",
    "power_allocation", "seed",
]


def budget_bits(scenario):
    """A scenario's link budget as bytes: equal when bit-identical."""
    band, *values = scenario.link_budget
    return np.hstack(dataclasses.astuple(band) + tuple(values)).tobytes()


class TestLinkBudget:
    """The link budget Scenario derives once per cell, beside its fields."""

    def test_budget_adds_no_field_key_or_property(self):
        assert [f.name for f in dataclasses.fields(Scenario)] == SCENARIO_FIELDS
        # The grid sets the first three fields, so [scenario] has keys for the rest.
        assert _SCENARIO_KEYS == {
            "bandwidth_mhz" if name == "bandwidth_hz" else name: name for name in SCENARIO_FIELDS[3:]
        }
        sc = Scenario()
        assert "link_budget" in vars(sc) and "link_budget" not in repr(sc)
        for name in ("link_budget", "band", "loss_scale", "noise_power_w", "target_rx_power_w"):
            assert not hasattr(Scenario, name)

    def test_budget_values(self):
        sc = Scenario(frequency_hz=28e9, per_link_cap_dbm=20.0, per_bs_budget_dbm=40.0, g_ue_db=10.0)
        budget = sc.link_budget
        g_bs_db, g_ue_db = (aperture_gain_db(a, 28e9) for a in (netsim.BS_APERTURE, netsim.UE_APERTURE))
        assert budget.loss_scale == db_to_linear(fspl_1m_db(28e9) - g_bs_db - g_ue_db)
        assert budget.height_delta_m == 13.5
        assert (budget.per_link_cap_w, budget.per_bs_budget_w, budget.g_ue) == (0.1, 10.0, 10.0)
        assert budget.target_rx_power_w == budget.noise_power_w * 10.0

    @settings(PROPERTY_SETTINGS, derandomize=True)
    @given(
        frequency_hz=st.sampled_from(sorted(BAND_PRESETS)),
        mode=st.sampled_from(["omni", "directional"]),
        n_bs=st.integers(1, 20),
        n_seeds=st.integers(1, 5),
        base_seed=st.integers(0, 2 ** 64 - 6),
        levels_db=st.lists(st.floats(-60.0, 60.0), min_size=5, max_size=5),
        bs_height_m=st.floats(1.5, 50.0),
    )
    def test_seed_copies_share_the_budget_replace_derives(
        self, frequency_hz, mode, n_bs, n_seeds, base_seed, levels_db, bs_height_m
    ):
        snr, cap, budget, g_ue, omni_cap = levels_db
        base = Scenario(target_snr_db=snr, per_link_cap_dbm=cap, per_bs_budget_dbm=budget,
                        g_ue_db=g_ue, bs_height_m=bs_height_m, seed=base_seed)
        campaign = CampaignSpec(frequencies_hz=(frequency_hz,), antenna_modes=(mode,),
                                n_bs_values=(n_bs,), n_seeds=n_seeds, base_seed=base_seed,
                                omni_per_link_cap_dbm=omni_cap)
        cells = campaign_scenarios(base, campaign)
        assert len(cells) == n_seeds
        for cell in cells:
            assert cell.link_budget is cells[0].link_budget
            assert budget_bits(cell) == budget_bits(dataclasses.replace(cells[0], seed=cell.seed))


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

    def test_cells_match_replace_per_seed(self):
        campaign = dataclasses.replace(self.CAMPAIGN, n_bs_values=(1, 3, 20), n_seeds=3)
        base = dataclasses.replace(self.BASE, seed=1)
        expected = [
            dataclasses.replace(
                base,
                frequency_hz=frequency_hz,
                antenna_mode=mode,
                n_bs=n_bs,
                per_link_cap_dbm=campaign.omni_per_link_cap_dbm if mode == "omni" else base.per_link_cap_dbm,
                seed=campaign.base_seed + offset,
            )
            for frequency_hz in campaign.frequencies_hz
            for mode in campaign.antenna_modes
            for n_bs in campaign.n_bs_values
            for offset in range(campaign.n_seeds)
        ]
        cells = campaign_scenarios(base, campaign)
        # Pool workers get their cells pickled.
        for got in (cells, pickle.loads(pickle.dumps(cells))):
            assert len(got) == len(expected) == 2 * 3 * 3
            for cell, want in zip(got, expected):
                assert type(cell) is Scenario
                assert vars(cell) == vars(want)
                assert [type(v) for v in vars(cell).values()] == [type(v) for v in vars(want).values()]
                assert cell == want and hash(cell) == hash(want)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    cell.seed = 0

    def test_seed_range_must_fit_64_bits(self):
        cells = campaign_scenarios(self.BASE, CampaignSpec(base_seed=2 ** 64 - 2, n_seeds=2))
        assert cells[-1].seed == 2 ** 64 - 1
        # Cells get their seeds unchecked, so the spec checks both ends.
        with pytest.raises(ValueError, match=(
            "got 18446744073709551616; the grid's 2 seeds run from "
            "18446744073709551615 to 18446744073709551616"
        )):
            CampaignSpec(base_seed=2 ** 64 - 1, n_seeds=2)
        with pytest.raises(ValueError, match="got -1; the grid's 20 seeds run from -1 to 18"):
            CampaignSpec(base_seed=-1)

    def test_cells_are_checked_on_the_real_base(self):
        # Valid at the 3.5 GHz base, past the path-loss ceiling at 28 GHz:
        # once accepted by a grid checked on a default stand-in base.
        base = dataclasses.replace(Scenario(), region_radius_m=1e150)
        with pytest.raises(ValueError, match=(
            r"region_radius_m = 1e\+150 .* 3000 dB ceiling of a linear loss; "
            "in the 28 GHz omni 1-BS grid cell"
        )):
            campaign_scenarios(base, CampaignSpec(frequencies_hz=(28e9,)))

    def test_rows_and_aggregates(self):
        drops, aggregates = run_campaign(self.BASE, self.CAMPAIGN, jobs=1)
        assert len(drops) == 8
        assert len(aggregates) == 4
        group = drops[:2]
        w_mean = np.mean([row.result.w_system for row in group])
        assert aggregates[0].wf_mean_db == pytest.approx(10.0 * math.log10(w_mean))
        assert aggregates[0].n_bs == 1

    def test_seed_mean_past_the_float_range_is_a_value_error(self):
        # Each drop's W is finite, their sum is not: once an exit-0 run with
        # inf in aggregate.csv and a numpy warning on stderr.
        base = dataclasses.replace(self.BASE, w_ue=1e308)
        with pytest.raises(ValueError, match=r"seed means of W \(inf\)"):
            run_campaign(base, self.CAMPAIGN, jobs=1)

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, None])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        # 0 and -3 once ran serially without a word; 2.5 raised a TypeError
        # from inside the pool; None once meant every core.
        with pytest.raises(ValueError, match=rf"jobs must be an integer >= 1, got {jobs}$"):
            run_campaign(self.BASE, self.CAMPAIGN, jobs=jobs)

    def test_parallel_matches_serial(self):
        serial = run_campaign(self.BASE, self.CAMPAIGN, jobs=1)
        parallel = run_campaign(self.BASE, self.CAMPAIGN, jobs=2)
        assert drop_csv_lines(serial[0]) == drop_csv_lines(parallel[0])
        assert aggregate_csv_lines(serial[1]) == aggregate_csv_lines(parallel[1])

    @pytest.mark.parametrize("jobs, workers", [(64, 8), (3, 3)])
    def test_pool_starts_no_more_workers_than_drops(self, monkeypatch, jobs, workers):
        # Under fork, a pool starts all max_workers processes at its first
        # submit. A serial stand-in records the count; no process starts.
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        drops, aggregates = run_campaign(self.BASE, self.CAMPAIGN, jobs=jobs)
        assert started == [workers]
        serial = run_campaign(self.BASE, self.CAMPAIGN, jobs=1)
        assert drop_csv_lines(drops) == drop_csv_lines(serial[0])
        assert aggregate_csv_lines(aggregates) == aggregate_csv_lines(serial[1])

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
            # Each once named the cell's per_link_cap_dbm, a key [sweep] does not have.
            ("omni_per_link_cap_dbm", 4000.0, "^omni_per_link_cap_dbm = 4000.0 dBm is too large"),
            ("omni_per_link_cap_dbm", -4000.0, "^omni_per_link_cap_dbm = -4000.0 gives 0 W"),
        ],
    )
    def test_every_axis_value_makes_a_valid_cell(self, field, value, message):
        if field == "omni_per_link_cap_dbm":
            # The grid's own field: checked at construction.
            with pytest.raises(ValueError, match=message):
                CampaignSpec(**{field: value})
            return
        # An axis value is checked in the cells built from the base.
        campaign = CampaignSpec(**{field: value})
        with pytest.raises(ValueError, match=f"{message}.*; in the .* grid cell$"):
            campaign_scenarios(Scenario(), campaign)

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
        shadowed = dataclasses.replace(
            self.BASE, apply_shadowing=True, power_allocation="proportional"
        )
        for base in (self.BASE, shadowed):
            calls.clear()
            drops, _ = run_campaign(base, campaign, jobs=1)
            assert len(drops) == 2 * 3
            assert calls == {name: len(drops) for name in names}

    def test_run_campaign_draws_each_seeds_ues_once(self, monkeypatch):
        # Seed by seed, 20 BSs first: the 1- and 5-BS cells of a seed, and
        # its other band's, reuse that seed's 20-BS layout, so the seed's
        # UEs and its BSs are each drawn once.
        campaign = dataclasses.replace(self.CAMPAIGN, frequencies_hz=(3.5e9, 28e9),
                                       n_bs_values=(1, 5, 20), n_seeds=2)
        cold = []
        for scenario in campaign_scenarios(self.BASE, campaign):
            empty_layout_cache()
            cold.append(result_bits(evaluate_drop(scenario)))
        empty_layout_cache()
        disks, bs_draws = [], []
        monkeypatch.setattr(netsim, "_uniform_disk",
                            lambda rng, n, radius_m: disks.append(n) or _uniform_disk(rng, n, radius_m))
        monkeypatch.setattr(netsim, "_substream", lambda seed, stream: (
            stream == STREAM_BS_LAYOUT and bs_draws.append(seed)) or _substream(seed, stream))
        drops, _ = run_campaign(self.BASE, campaign, jobs=1)
        assert disks == [self.BASE.n_ue] * campaign.n_seeds
        assert bs_draws == [campaign.base_seed + k for k in range(campaign.n_seeds)]
        assert [result_bits(row.result) for row in drops] == cold

    # The two seed-0 grids of the benchmark, whose CSV digests it records.
    RECORDED_GRIDS = {
        "reference_campaign": (Scenario(), CampaignSpec()),
        "small_drops": (
            Scenario(n_ue=64, apply_shadowing=True, power_allocation="proportional"),
            CampaignSpec(n_seeds=100),
        ),
    }

    @pytest.mark.parametrize("workload", sorted(RECORDED_GRIDS))
    def test_seed_zero_grids_match_the_recorded_digests(self, workload, tmp_path):
        base, campaign = self.RECORDED_GRIDS[workload]
        drops, aggregates = run_campaign(base, campaign, jobs=1)
        write_campaign_csvs(drops, aggregates, tmp_path)
        digests_json = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
        recorded = json.loads(digests_json.read_text(encoding="utf-8"))[workload]
        assert {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in recorded
        } == recorded
