import math

import pytest

from wastefactor.core import Stage
from wastefactor.metrics import (
    EquipmentReading,
    PowerStrategy,
    RateStrategy,
    StrategyFigure,
    classify_strategy,
    ee_bs,
    ee_network,
    ee_ru,
    ee_site,
    ee_vs_wf_sweep,
)

# The two-base-station comparison: A moves 10 GB at 2 Wh/GB on the path,
# B moves 50 GB at 4 Wh/GB, both with 50 Wh of non-path energy.
BS_A = EquipmentReading(p_non_signal_w=20.0, p_non_path_w=50.0, data_volume_gb=10.0)
BS_B = EquipmentReading(p_non_signal_w=200.0, p_non_path_w=50.0, data_volume_gb=50.0)

# The two-radio-unit comparison: identical totals, different waste split.
RU_A = EquipmentReading(p_signal_w=120.0, p_non_signal_w=240.0, p_non_path_w=140.0)
RU_B = EquipmentReading(p_signal_w=120.0, p_non_signal_w=300.0, p_non_path_w=80.0)


class TestEquipmentReading:
    def test_derived_totals(self):
        assert RU_A.p_consumed_total_w == pytest.approx(500.0)
        assert RU_A.energy_wh == pytest.approx(500.0)
        assert EquipmentReading(p_signal_w=10.0, duration_h=2.0).energy_wh == 20.0

    def test_w_property(self):
        assert RU_A.w == pytest.approx(3.0)
        assert RU_B.w == pytest.approx(3.5)
        assert BS_A.w is None  # no signal power recorded

    def test_validation(self):
        with pytest.raises(ValueError):
            EquipmentReading(p_signal_w=-1.0)
        with pytest.raises(ValueError):
            EquipmentReading(duration_h=0.0)
        with pytest.raises(ValueError):
            EquipmentReading(data_volume_gb=-1.0)

    @pytest.mark.parametrize(
        "field", ["p_signal_w", "p_non_signal_w", "p_non_path_w", "data_volume_gb", "duration_h"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_numbers_rejected(self, field, value):
        # EquipmentReading(p_signal_w=nan) once built, with w and energy_wh nan.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EquipmentReading(**{field: value})


class TestStandardMetrics:
    def test_ee_bs_reference_comparison(self):
        assert ee_bs(BS_A.data_volume_gb, BS_A.energy_wh) == pytest.approx(
            10.0 / 70.0, rel=1e-12
        )
        assert ee_bs(BS_B.data_volume_gb, BS_B.energy_wh) == pytest.approx(0.2, rel=1e-12)

    def test_ee_bs_edge_cases(self):
        assert ee_bs(0.0, 100.0) == 0.0
        with pytest.raises(ValueError):
            ee_bs(10.0, 0.0)
        with pytest.raises(ValueError, match="data volume must be >= 0 GB, got -1.0"):
            ee_bs(-1.0, 100.0)

    def test_ee_ru_identical_for_different_waste(self):
        # The standard ratio cannot tell the two radio units apart...
        assert ee_ru(120.0, RU_A.energy_wh) == pytest.approx(0.24)
        assert ee_ru(120.0, RU_B.energy_wh) == pytest.approx(0.24)
        # ...while the waste factor can.
        assert RU_A.w == pytest.approx(3.0)
        assert RU_B.w == pytest.approx(3.5)

    def test_ee_site_and_network(self):
        assert ee_site(100.0, 100.0) == 1.0
        assert ee_site(80.0, 100.0) == pytest.approx(0.8)
        assert ee_network(569.0, 34.8) == pytest.approx(16.35, abs=0.01)
        with pytest.raises(ValueError):
            ee_site(1.0, 0.0)
        with pytest.raises(ValueError):
            ee_network(1.0, 0.0)

    def test_load_skew_regression(self):
        # The metric critique, frozen: B looks better by EE_BS although its
        # per-GB path energy is twice as high.
        ee_a = ee_bs(BS_A.data_volume_gb, BS_A.energy_wh)
        ee_b = ee_bs(BS_B.data_volume_gb, BS_B.energy_wh)
        path_per_gb_a = BS_A.p_non_signal_w / BS_A.data_volume_gb
        path_per_gb_b = BS_B.p_non_signal_w / BS_B.data_volume_gb
        assert ee_b > ee_a
        assert path_per_gb_a == pytest.approx(2.0)
        assert path_per_gb_b == pytest.approx(4.0)
        assert path_per_gb_b > path_per_gb_a


class TestStrategyQuadrants:
    @pytest.mark.parametrize(
        "rate_high,w_high,expected",
        [
            (True, False, RateStrategy.OPTIMAL),
            (True, True, RateStrategy.OPTIMIZE_SCHEDULED_POWER),
            (False, True, RateStrategy.DEPLOY_EFFICIENT_HARDWARE_SMALLER_CELLS),
            (False, False, RateStrategy.INCREASE_POWER_BANDWIDTH_CA),
        ],
    )
    def test_rate_w_quadrants(self, rate_high, w_high, expected):
        assert classify_strategy(rate_high, w_high, StrategyFigure.RATE_W) is expected

    @pytest.mark.parametrize(
        "power_high,w_high,expected",
        [
            (False, False, PowerStrategy.OPTIMAL),
            (True, False, PowerStrategy.SHUTDOWN_EFFICIENT_COOLING),
            (True, True, PowerStrategy.OPTIMIZE_SCHEDULED_POWER),
            (False, True, PowerStrategy.DEPLOY_EFFICIENT_HARDWARE),
        ],
    )
    def test_power_w_quadrants(self, power_high, w_high, expected):
        assert classify_strategy(power_high, w_high, StrategyFigure.POWER_W) is expected


class TestEeVsWfSweep:
    RU = Stage(w=3.5, g=161.0, label="ru")

    def test_reference_endpoints(self):
        grid = [10.0, 40.0, 80.0, 120.0]
        points = ee_vs_wf_sweep(self.RU, 140.0, grid)
        assert points[0].ee_ru == pytest.approx(10.0 / 175.0, rel=1e-12)
        assert points[-1].ee_ru == pytest.approx(120.0 / 560.0, rel=1e-12)
        assert all(p.wf_db == pytest.approx(5.441, abs=5e-4) for p in points)

    def test_load_dependence_theorem(self):
        # EE strictly rises with load while the waste figure stays put.
        grid = [float(p) for p in range(5, 200, 5)]
        points = ee_vs_wf_sweep(self.RU, 140.0, grid)
        ee = [p.ee_ru for p in points]
        assert all(b > a for a, b in zip(ee, ee[1:]))
        assert len({p.wf_db for p in points}) == 1

    def test_zero_non_path_power_makes_ee_constant(self):
        points = ee_vs_wf_sweep(self.RU, 0.0, [1.0, 10.0, 100.0])
        for point in points:
            assert point.ee_ru == pytest.approx(1.0 / 3.5, rel=1e-12)

    def test_single_point_grid(self):
        points = ee_vs_wf_sweep(self.RU, 140.0, [60.0])
        assert len(points) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ee_vs_wf_sweep(self.RU, 140.0, [])
        with pytest.raises(ValueError):
            ee_vs_wf_sweep(self.RU, 140.0, [0.0])
        with pytest.raises(ValueError):
            ee_vs_wf_sweep(self.RU, -1.0, [10.0])

    @pytest.mark.parametrize(
        "p_non_path_w, grid, message",
        [
            (math.nan, [1.0], "non-path power must be >= 0 W and finite, got nan"),
            (math.inf, [1.0], "non-path power must be >= 0 W and finite, got inf"),
            (140.0, [math.nan], "grid powers must be > 0 W and finite, got nan"),
            (140.0, [10.0, math.inf], "grid powers must be > 0 W and finite, got inf"),
        ],
        ids=["nan-non-path", "inf-non-path", "nan-grid", "inf-grid"],
    )
    def test_non_finite_operand_is_named(self, p_non_path_w, grid, message):
        # Each once returned rows with ee_ru = nan.
        with pytest.raises(ValueError, match=f"^{message}$"):
            ee_vs_wf_sweep(Stage(2.0, 1.0), p_non_path_w, grid)
