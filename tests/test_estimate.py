import math

import numpy as np
import pytest

from wastefactor.core import total_consumed_power
from wastefactor.estimate import PowerSample, fit_waste_factor, load_power_log


def line_samples(w, p_non_path, signal_points):
    return [
        PowerSample(p_signal_w=p, p_total_w=w * p + p_non_path) for p in signal_points
    ]


class TestFitWasteFactor:
    def test_noiseless_reference_line(self):
        samples = line_samples(3.5, 140.0, [0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0])
        fit = fit_waste_factor(samples)
        assert fit.w == 3.5
        assert fit.p_non_path_w == 140.0
        assert fit.r_squared == 1.0
        assert fit.n_samples == 7
        assert fit.physical

    def test_two_point_line(self):
        fit = fit_waste_factor([PowerSample(0.0, 80.0), PowerSample(120.0, 500.0)])
        assert fit.w == pytest.approx(3.5, rel=1e-15)
        assert fit.p_non_path_w == pytest.approx(80.0, rel=1e-15)

    def test_noisy_line_recovers_parameters(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(0.0, 120.0, size=100)
        noise = rng.normal(0.0, 5.0, size=100)
        samples = [
            PowerSample(p_signal_w=float(p), p_total_w=float(3.5 * p + 140.0 + e))
            for p, e in zip(x, noise)
        ]
        fit = fit_waste_factor(samples)
        assert fit.w == pytest.approx(3.5, abs=0.07)
        assert fit.p_non_path_w == pytest.approx(140.0, abs=5.0)
        assert fit.r_squared > 0.99

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            x = rng.uniform(0.0, 200.0, size=40)
            y = rng.uniform(0.0, 800.0, size=40)
            fit = fit_waste_factor(
                [PowerSample(float(a), float(b)) for a, b in zip(x, y)]
            )
            slope, intercept = np.polyfit(x, y, 1)
            assert fit.w == pytest.approx(slope, rel=1e-9)
            assert fit.p_non_path_w == pytest.approx(intercept, rel=1e-6, abs=1e-9)

    def test_recovers_total_consumed_power_parameters(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            w = 1.0 + 19.0 * rng.random()
            p0 = 500.0 * rng.random()
            grid = sorted(rng.uniform(0.0, 300.0, size=6))
            samples = [
                PowerSample(p, total_consumed_power(w, p, p0)) for p in grid
            ]
            fit = fit_waste_factor(samples)
            assert fit.w == pytest.approx(w, rel=1e-9)
            assert fit.p_non_path_w == pytest.approx(p0, rel=1e-6, abs=1e-9)

    def test_affine_invariance(self):
        base = line_samples(2.5, 40.0, [1.0, 7.0, 30.0, 55.0])
        k = 12.5
        scaled = [PowerSample(s.p_signal_w * k, s.p_total_w * k) for s in base]
        fit_base = fit_waste_factor(base)
        fit_scaled = fit_waste_factor(scaled)
        assert fit_scaled.w == pytest.approx(fit_base.w, rel=1e-12)
        assert fit_scaled.p_non_path_w == pytest.approx(
            k * fit_base.p_non_path_w, rel=1e-12
        )

    def test_r_squared_one_iff_zero_residuals(self):
        exact = fit_waste_factor(line_samples(4.0, 10.0, [0.0, 5.0, 9.0]))
        assert exact.r_squared == pytest.approx(1.0, abs=1e-9)
        noisy = fit_waste_factor(
            [PowerSample(0.0, 10.0), PowerSample(5.0, 33.0), PowerSample(9.0, 44.0)]
        )
        assert noisy.r_squared < 1.0 - 1e-9
        # Equal totals leave no variance to explain: the flat line fits exactly.
        flat = fit_waste_factor(line_samples(0.0, 50.0, [0.0, 5.0, 9.0]))
        assert (flat.w, flat.p_non_path_w, flat.r_squared) == (0.0, 50.0, 1.0)

    def test_unphysical_fits_flagged_not_clamped(self):
        falling = fit_waste_factor([PowerSample(0.0, 100.0), PowerSample(10.0, 90.0)])
        assert falling.w == pytest.approx(-1.0)
        assert not falling.physical
        negative_intercept = fit_waste_factor(
            [PowerSample(10.0, 20.0), PowerSample(20.0, 60.0)]
        )
        assert negative_intercept.p_non_path_w < 0.0
        assert not negative_intercept.physical

    def test_degenerate_designs_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_waste_factor([PowerSample(1.0, 5.0)])
        with pytest.raises(ValueError, match="equal"):
            fit_waste_factor([PowerSample(5.0, 20.0), PowerSample(5.0, 21.0)])

    @pytest.mark.parametrize(
        "rows, named",
        [
            ([(1.0, 2.0), (2.0, 4.0), (1e308, 1e308)], "a squared deviation"),
            ([(1.0, 2.0), (1e308, 1e308), (1e308, 1e308)], "mean p_signal_w = inf"),
        ],
    )
    def test_overflowing_sums_rejected(self, rows, named):
        with pytest.raises(ValueError, match=f"{named} overflows a float"):
            fit_waste_factor([PowerSample(p, t) for p, t in rows])

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            PowerSample(-1.0, 5.0)
        # Noisy totals below the signal power are data, not errors.
        PowerSample(10.0, 5.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["p_signal_w", "p_total_w"])
    def test_non_finite_power_names_its_field(self, field, value):
        # NaN and inf once got through and failed the fit as an overflow.
        powers = {"p_signal_w": 1.0, "p_total_w": 2.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            PowerSample(**powers)


class TestLoadPowerLog:
    def test_basic_watt_columns(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_signal_w,p_total_w\n0,140\n20,210\n40,280\n")
        samples = load_power_log(path)
        assert len(samples) == 3
        assert samples[1] == PowerSample(20.0, 210.0)

    def test_column_order_is_free(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_total_w,p_signal_w\n210,20\n280,40\n")
        samples = load_power_log(path)
        assert samples[0].p_signal_w == 20.0

    def test_dbm_columns_convert(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_signal_dbm,p_total_w\n30,210\n40,280\n")
        samples = load_power_log(path)
        assert samples[0].p_signal_w == pytest.approx(1.0, rel=1e-12)
        assert samples[1].p_signal_w == pytest.approx(10.0, rel=1e-12)

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "# campaign 7, rack 3\np_signal_w,p_total_w\n\n0,140\n# mid comment\n20,210\n"
        )
        assert len(load_power_log(path)) == 2

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_signal_w,p_total_w\n0,140\nbogus,210\n")
        with pytest.raises(ValueError, match=r"log\.csv:3.*bogus"):
            load_power_log(path)

    def test_line_numbers_count_the_lines_of_a_quoted_cell(self, tmp_path):
        # A record whose quoted cell spans two lines once shifted every
        # later line number by one.
        path = tmp_path / "log.csv"
        path.write_text('p_signal_w,p_total_w\n"1\n",2\nbogus,3\n')
        with pytest.raises(ValueError, match=r"log\.csv:4: non-numeric value 'bogus'"):
            load_power_log(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "log.csv"
        path.write_text(f"p_signal_w,p_total_w\n1,2\n2,{cell}\n")
        with pytest.raises(
            ValueError, match=rf"log\.csv:3: non-finite value '{cell}' in column 'p_total_w'"
        ):
            load_power_log(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_signal_w,p_total_w\n0\n")
        with pytest.raises(ValueError, match="expected 2 cells"):
            load_power_log(path)

    def test_missing_column_diagnosed(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_signal_w,watts\n0,140\n")
        with pytest.raises(ValueError, match="unknown column 'watts'"):
            load_power_log(path)
        path.write_text("p_total_w\n140\n")
        with pytest.raises(ValueError, match="missing column p_signal_w"):
            load_power_log(path)
        path.write_text("p_signal_w\n0\n")
        with pytest.raises(ValueError, match="missing column p_total_w or p_total_dbm"):
            load_power_log(path)
        path.write_text("p_signal_w,p_signal_dbm,p_total_w\n0,0,140\n")
        with pytest.raises(ValueError, match="duplicate signal-power column 'p_signal_dbm'"):
            load_power_log(path)
        path.write_text("p_signal_w,p_total_w,p_total_w\n0,140,140\n")
        with pytest.raises(ValueError, match="duplicate total-power column 'p_total_w'"):
            load_power_log(path)

    @pytest.mark.parametrize(
        "text",
        ["p_signal_dbm,p_total_w\n10,2\n4000,3\n", "p_signal_w,p_total_dbm\n2,10\n3,4000\n"],
        ids=["p_signal_dbm", "p_total_dbm"],
    )
    def test_overflowing_dbm_cell_names_its_line(self, tmp_path, text):
        # This once named neither the file nor the line.
        path = tmp_path / "log.csv"
        path.write_text(text)
        with pytest.raises(
            ValueError, match=r"log\.csv:3: 4000\.0 dBm is too large to convert to linear units"
        ):
            load_power_log(path)

    @pytest.mark.parametrize(
        "text", ["p_signal_w,p_total_w\n1,2\n-2,9\n", "p_total_w,p_signal_w\n2,1\n-9,2\n"],
        ids=["p_signal_w", "p_total_w"],
    )
    def test_negative_power_names_its_line(self, tmp_path, text):
        # This once named neither the file nor the line.
        path = tmp_path / "log.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"^.*log\.csv:3: logged powers must be >= 0 W$"):
            load_power_log(path)

    def test_both_cells_parse_before_either_converts(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("p_signal_dbm,p_total_w\n4000,bogus\n")
        with pytest.raises(ValueError, match=r"log\.csv:2: non-numeric value 'bogus'"):
            load_power_log(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_power_log(path)
        path.write_text("p_signal_w,p_total_w\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_power_log(path)

    def test_fit_from_file_round_trip(self, tmp_path):
        path = tmp_path / "log.csv"
        rows = ["p_signal_w,p_total_w"] + [
            f"{p},{3.5 * p + 140.0}" for p in range(0, 140, 20)
        ]
        path.write_text("\n".join(rows) + "\n")
        fit = fit_waste_factor(load_power_log(path))
        assert fit.w == pytest.approx(3.5, rel=1e-12)
        assert fit.p_non_path_w == pytest.approx(140.0, rel=1e-12)
