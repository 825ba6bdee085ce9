import math

import numpy as np
import pytest

from wastefactor.core import (
    Stage,
    cascade,
    power_flow,
    total_consumed_power,
    wasted_power,
)


def random_stages(rng, n):
    """Stages with W in [1, 100] and G log-uniform in [1e-6, 1e6]."""
    return [
        Stage(
            w=1.0 + 99.0 * rng.random(),
            g=10.0 ** rng.uniform(-6.0, 6.0),
            label=f"s{i}",
        )
        for i in range(n)
    ]


class TestStage:
    def test_valid_construction(self):
        stage = Stage(w=2.0, g=10.0, label="pa")
        assert stage.w == 2.0
        assert stage.g == 10.0
        assert stage.label == "pa"

    def test_unity_w_is_the_floor(self):
        assert Stage(w=1.0, g=5.0).w == 1.0
        with pytest.raises(ValueError, match=">= 1"):
            Stage(w=0.999999, g=5.0)

    def test_bad_gain_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            Stage(w=2.0, g=0.0)
        with pytest.raises(ValueError, match="gain"):
            Stage(w=2.0, g=-3.0)
        with pytest.raises(ValueError, match="gain"):
            Stage(w=2.0, g=math.inf)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Stage(w=math.nan, g=1.0)

    def test_infinite_w_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Stage(w=math.inf, g=1.0)

    def test_from_loss_db_exact_reciprocal(self):
        stage = Stage.from_loss_db(3.0, label="att")
        assert stage.w == pytest.approx(10.0 ** 0.3, rel=1e-15)
        assert stage.w * stage.g == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValueError, match=">= 0 dB"):
            Stage.from_loss_db(-1.0)

    def test_db_accessors(self):
        stage = Stage(w=10.0, g=100.0)
        assert stage.wf_db == pytest.approx(10.0)
        assert stage.gain_db == pytest.approx(20.0)

    def test_ideal(self):
        stage = Stage.ideal(gain_db=7.0)
        assert stage.w == 1.0
        assert stage.gain_db == pytest.approx(7.0)


class TestCascade:
    def test_two_stage_example(self):
        composite = cascade([Stage(2.0, 10.0), Stage(4.0, 5.0)])
        assert composite.w == pytest.approx(4.2, rel=1e-12)
        assert composite.g == pytest.approx(50.0, rel=1e-12)

    def test_ideal_stages_waste_nothing(self):
        assert cascade([Stage(1.0, 7.0)]).w == 1.0
        assert cascade([Stage(1.0, 3.0), Stage(1.0, 2.0)]).w == 1.0

    def test_three_stage_example(self):
        composite = cascade([Stage(1.5, 2.0), Stage(2.0, 4.0), Stage(3.0, 10.0)])
        # 3 + 1/10 + 0.5/40
        assert composite.w == pytest.approx(3.1125, rel=1e-12)
        assert composite.g == pytest.approx(80.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            cascade([])

    def test_single_stage_identity(self):
        stage = Stage(3.0, 0.5, "only")
        composite = cascade([stage])
        assert composite.w == stage.w
        assert composite.g == stage.g

    def test_associativity(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            a, b, c = random_stages(rng, 3)
            split = cascade([cascade([a, b]), c])
            joint = cascade([a, b, c])
            assert split.w == pytest.approx(joint.w, rel=1e-12)
            assert split.g == pytest.approx(joint.g, rel=1e-12)

    def test_monotone_in_any_stage_w(self):
        rng = np.random.default_rng(7)
        stages = random_stages(rng, 5)
        base = cascade(stages).w
        for i in range(5):
            bumped = list(stages)
            bumped[i] = Stage(stages[i].w + 0.5, stages[i].g)
            assert cascade(bumped).w > base

    def test_sink_gain_divides_upstream_contributions(self):
        # Scaling the last gain by k divides every upstream (W_i - 1) term by k.
        stages = [Stage(3.0, 2.0), Stage(2.5, 0.4), Stage(2.0, 10.0)]
        k = 8.0
        scaled = stages[:-1] + [Stage(stages[-1].w, stages[-1].g * k)]
        upstream = cascade(stages).w - stages[-1].w
        upstream_scaled = cascade(scaled).w - stages[-1].w
        assert upstream_scaled == pytest.approx(upstream / k, rel=1e-12)

    def test_label_joining(self):
        composite = cascade([Stage(1.0, 1.0, "a"), Stage(1.0, 1.0, "b")])
        assert composite.label == "a>b"
        assert cascade([Stage(1.0, 1.0)], label="x").label == "x"


class TestPowerFlow:
    def test_two_stage_example(self):
        report = power_flow([Stage(2.0, 10.0), Stage(4.0, 5.0)], 1.0)
        assert [f.p_consumed_w for f in report.stages] == [
            pytest.approx(19.0),
            pytest.approx(190.0),
        ]
        assert report.p_consumed_path_w == pytest.approx(210.0)
        assert report.w == pytest.approx(4.2, rel=1e-12)
        assert report.p_wasted_w == pytest.approx(160.0)

    def test_ideal_amplifier_consumes_output_minus_input(self):
        for gain in (0.25, 1.0, 7.0, 1e4):
            report = power_flow([Stage(1.0, gain)], 1.0)
            assert report.stages[0].p_consumed_w == pytest.approx(gain - 1.0, abs=1e-12)
            assert report.p_wasted_w == 0.0

    def test_ideal_cascade_wastes_nothing(self):
        report = power_flow([Stage(1.0, 3.0), Stage(1.0, 0.5), Stage(1.0, 2.0)], 2.0)
        assert report.p_wasted_w == pytest.approx(0.0, abs=1e-12)

    def test_totals_identity(self):
        rng = np.random.default_rng(11)
        stages = random_stages(rng, 4)
        report = power_flow(stages, 3.0)
        assert report.p_consumed_path_w == pytest.approx(
            report.w * report.p_signal_w, rel=1e-12
        )
        assert report.p_wasted_w == pytest.approx(
            report.p_consumed_path_w - report.p_signal_w, rel=1e-9
        )

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            power_flow([], 1.0)
        with pytest.raises(ValueError, match="source power"):
            power_flow([Stage(1.0, 1.0)], 0.0)


class TestOracleEquivalence:
    def test_closed_form_matches_energy_accounting(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            stages = random_stages(rng, int(rng.integers(1, 9)))
            closed = cascade(stages)
            flowed = power_flow(stages, 10.0 ** rng.uniform(-3.0, 3.0))
            assert closed.w == pytest.approx(flowed.w, rel=1e-9)
            assert closed.g == pytest.approx(flowed.g, rel=1e-9)


class TestPowerHelpers:
    def test_wasted_power_examples(self):
        assert wasted_power(3.5, 120.0) == pytest.approx(300.0)
        assert wasted_power(1.0, 55.0) == 0.0
        assert wasted_power(4.2, 50.0) == pytest.approx(160.0)

    def test_total_consumed_examples(self):
        assert total_consumed_power(3.5, 120.0, 80.0) == pytest.approx(500.0)
        assert total_consumed_power(3.0, 120.0, 140.0) == pytest.approx(500.0)
        assert total_consumed_power(1.0, 0.0, 42.0) == 42.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wasted_power(0.5, 1.0)
        with pytest.raises(ValueError):
            wasted_power(2.0, -1.0)
        with pytest.raises(ValueError):
            total_consumed_power(2.0, 1.0, -0.1)
