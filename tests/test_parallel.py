import math
import re

import numpy as np
import pytest

from wastefactor.core import Stage, cascade
from wastefactor.parallel import (
    Branch,
    CombiningMode,
    combine_branches,
    mino_compose,
    mino_first_stage,
    miso_compose,
    parallel_gain,
    received_power_matrix,
)

NONCOH = CombiningMode.NON_COHERENT
COH = CombiningMode.COHERENT


def branch(w, g, weight):
    return Branch(stage=Stage(w=w, g=g), weight=weight)


class TestCombineBranches:
    def test_non_coherent_weighted_mean(self):
        branches = [branch(3.0, 1.0, 1.0), branch(6.0, 1.0, 0.5)]
        assert combine_branches(branches, NONCOH) == pytest.approx(4.0, rel=1e-12)

    def test_identical_branches_collapse(self):
        branches = [branch(7.5, 2.0, 0.3)] * 4
        assert combine_branches(branches, NONCOH) == pytest.approx(7.5, rel=1e-12)

    @pytest.mark.parametrize("weight", [5e-324, 1e-310, 1e-300])
    def test_tiny_weights_are_only_a_ratio(self, weight):
        # Subnormal products once rounded the first mean to 2.0.
        same = [branch(1.5, 1.0, weight)] * 2
        assert combine_branches(same, NONCOH) == pytest.approx(1.5, rel=1e-12)
        assert combine_branches(same, COH) == pytest.approx(0.75, rel=1e-12)
        assert mino_first_stage([weight] * 2, [2.0, 4.0]) == pytest.approx(3.0, rel=1e-12)

    def test_coherent_combining_gain(self):
        branches = [branch(3.0, 1.0, 1.0), branch(3.0, 1.0, 1.0)]
        assert combine_branches(branches, COH) == pytest.approx(1.5, rel=1e-12)

    def test_zero_weight_branch_ignored(self):
        branches = [branch(3.0, 1.0, 1.0), branch(100.0, 1.0, 0.0)]
        assert combine_branches(branches, NONCOH) == pytest.approx(3.0)

    def test_all_zero_weights_rejected(self):
        branches = [branch(3.0, 1.0, 0.0), branch(4.0, 1.0, 0.0)]
        with pytest.raises(ValueError, match="weight > 0"):
            combine_branches(branches, NONCOH)
        with pytest.raises(ValueError, match="at least one branch"):
            combine_branches([], NONCOH)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            branches = [
                branch(1.0 + 20.0 * rng.random(), 1.0, rng.random())
                for _ in range(int(rng.integers(1, 6)))
            ]
            if sum(b.weight for b in branches) == 0.0:
                continue
            k = 10.0 ** rng.uniform(-3, 3)
            scaled = [Branch(b.stage, b.weight * k) for b in branches]
            for mode in (NONCOH, COH):
                assert combine_branches(scaled, mode) == pytest.approx(
                    combine_branches(branches, mode), rel=1e-12
                )

    def test_coherent_never_exceeds_non_coherent_for_equal_w(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            w = 1.0 + 30.0 * rng.random()
            branches = [
                branch(w, 1.0, rng.random() + 1e-6)
                for _ in range(int(rng.integers(1, 6)))
            ]
            coh = combine_branches(branches, COH)
            noncoh = combine_branches(branches, NONCOH)
            assert coh <= noncoh * (1.0 + 1e-12)
            if len(branches) == 1:
                assert coh == pytest.approx(noncoh, rel=1e-12)

    def test_non_coherent_within_branch_range(self):
        branches = [branch(2.0, 1.0, 0.7), branch(9.0, 1.0, 1.3)]
        combined = combine_branches(branches, NONCOH)
        assert 2.0 <= combined <= 9.0


class TestMisoCompose:
    def test_example(self):
        branches = [branch(4.0, 1.0, 1.0)]
        result = miso_compose(branches, NONCOH, terminal=Stage(2.0, 10.0))
        assert result.w == pytest.approx(2.3, rel=1e-12)
        assert result.g == 10.0

    def test_transparent_terminal(self):
        branches = [branch(3.0, 1.0, 1.0), branch(6.0, 1.0, 0.5)]
        result = miso_compose(branches, NONCOH, terminal=Stage(1.0, 1.0))
        assert result.w == pytest.approx(4.0, rel=1e-12)

    def test_single_branch_reduces_to_cascade(self):
        # Same W, bit for bit; the gains differ only in reference point
        # (combined input of the terminal vs branch input).
        stage = Stage(2.5, 0.02)
        terminal = Stage(3.0, 40.0)
        for mode in (NONCOH, COH):
            composed = miso_compose([Branch(stage, 0.37)], mode, terminal)
            direct = cascade([stage, terminal])
            assert composed.w == direct.w
            assert composed.g == terminal.g


class TestParallelGain:
    def test_equal_branches_non_coherent(self):
        assert parallel_gain([2.0, 2.0, 2.0], [5.0, 5.0, 5.0], NONCOH) == pytest.approx(5.0)

    def test_coherent_example(self):
        assert parallel_gain([1.0, 1.0], [4.0, 4.0], COH) == pytest.approx(8.0, rel=1e-12)

    def test_weighted_mean_example(self):
        assert parallel_gain([2.0, 1.0], [10.0, 1.0], NONCOH) == pytest.approx(7.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="gains"):
            parallel_gain([1.0], [1.0, 2.0], NONCOH)
        with pytest.raises(ValueError, match="power > 0"):
            parallel_gain([0.0, 0.0], [1.0, 1.0], NONCOH)
        with pytest.raises(ValueError, match="at least one"):
            parallel_gain([], [], NONCOH)


class TestReceivedPowerMatrix:
    def test_single_lossy_link(self):
        assert received_power_matrix([1.0], [[100.0]], NONCOH) == [
            pytest.approx(0.01, rel=1e-12)
        ]

    def test_two_by_one_modes(self):
        powers = [1.0, 1.0]
        matrix = [[100.0], [100.0]]
        assert received_power_matrix(powers, matrix, NONCOH)[0] == pytest.approx(0.02)
        assert received_power_matrix(powers, matrix, COH)[0] == pytest.approx(0.04)

    def test_infinite_loss_contributes_nothing(self):
        received = received_power_matrix([1.0, 1.0], [[math.inf], [4.0]], NONCOH)
        assert received[0] == pytest.approx(0.25)

    def test_dimension_and_range_checks(self):
        with pytest.raises(ValueError, match="rows"):
            received_power_matrix([1.0, 1.0], [[2.0]], NONCOH)
        with pytest.raises(ValueError, match="same length"):
            received_power_matrix([1.0, 1.0], [[2.0, 2.0], [2.0]], NONCOH)
        with pytest.raises(ValueError, match=">= 1"):
            received_power_matrix([1.0], [[0.5]], NONCOH)


class TestMino:
    def test_first_stage_examples(self):
        assert mino_first_stage([1.0, 1.0], [4.0, 4.0]) == pytest.approx(4.0)
        assert mino_first_stage([3.0, 1.0], [2.0, 6.0]) == pytest.approx(3.0, rel=1e-12)

    def test_zero_power_output_ignored(self):
        assert mino_first_stage([1.0, 0.0], [2.0, 1e9]) == pytest.approx(2.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            mino_first_stage([0.0, 0.0], [2.0, 3.0])

    def test_compose_identical_receivers_collapse(self):
        # Equal-W branches collapse, so the receiver side is just (w_ue, g_ue).
        w_ue, g_ue = 33.0, 10.0 ** 1.1
        assert mino_compose(1.0, w_ue, g_ue) == pytest.approx(w_ue)

    def test_compose_example(self):
        w = mino_compose(3.5e6, 33.0, 12.59)
        assert w == pytest.approx(33.0 + (3.5e6 - 1.0) / 12.59, rel=1e-12)
        assert w == pytest.approx(2.78e5, rel=2e-3)

    def test_compose_validation(self):
        with pytest.raises(ValueError):
            mino_compose(0.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            mino_compose(2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            mino_compose(2.0, 2.0, 0.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.nan, 2.0, 3.0), "first-stage waste factor must be >= 1, got nan"),
            ((2.0, math.nan, 3.0), "receiver waste factor must be >= 1, got nan"),
            ((2.0, 2.0, math.nan), "receiver gain must be > 0, got nan"),
        ],
        ids=["nan-first-stage", "nan-rx-w", "nan-rx-g"],
    )
    def test_compose_rejects_nan(self, args, message):
        # Each once returned nan: NaN passed the `< 1` and `<= 0` tests.
        with pytest.raises(ValueError, match=re.escape(message)):
            mino_compose(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.inf, 2.0, 3.0), "the composed waste factor is inf"),
            ((2.0, math.inf, 3.0), "the composed waste factor is inf"),
            ((math.inf, 2.0, math.inf), "the composed waste factor is nan"),
            ((1e308, 2.0, 1e-10), "the composed waste factor is inf"),
        ],
        ids=["infinite-first-stage", "infinite-rx-w", "inf-over-inf", "overflow"],
    )
    def test_compose_rejects_a_non_finite_result(self, args, message):
        # An infinite first stage once passed through as W = inf.
        with pytest.raises(ValueError, match=re.escape(message)):
            mino_compose(*args)


class TestNonFiniteResults:
    """Each of these once returned nan or inf without raising."""

    @pytest.mark.parametrize("mode", [NONCOH, COH])
    def test_combine_branches_overflow(self, mode):
        branches = [branch(2.0, 1.0, 1e308), branch(3.0, 1.0, 1e308)]
        with pytest.raises(ValueError, match="overflows a float"):
            combine_branches(branches, mode)

    @pytest.mark.parametrize(
        "powers", [[1e308, 1e308], [math.inf, 1.0], [math.nan, 1.0], [1.0, math.nan]],
        ids=["overflowing-sum", "infinite", "nan-first", "nan-last"],
    )
    def test_mino_first_stage_non_finite_powers(self, powers):
        with pytest.raises(ValueError, match="received powers must be finite"):
            mino_first_stage(powers, [2.0, 3.0])

    def test_mino_first_stage_non_finite_w(self):
        with pytest.raises(ValueError, match="waste factors must be finite"):
            mino_first_stage([1.0, 1.0], [math.nan, 2.0])

    def test_parallel_gain_overflowing_input_sum(self):
        with pytest.raises(ValueError, match="their sum must not overflow a float"):
            parallel_gain([1e308, 1e308], [1.0, 1.0], NONCOH)

    def test_parallel_gain_overflowing_output(self):
        with pytest.raises(ValueError, match="overflows a float"):
            parallel_gain([1e300, 1e300], [1e10, 1e10], NONCOH)

    def test_parallel_gain_non_finite_gain(self):
        with pytest.raises(ValueError, match="gains must be finite"):
            parallel_gain([1.0, 1.0], [math.nan, 1.0], NONCOH)

    def test_received_power_matrix_nan_power(self):
        with pytest.raises(ValueError, match="transmit powers must be finite"):
            received_power_matrix([math.nan], [[2.0]], NONCOH)

    @pytest.mark.parametrize("mode", [NONCOH, COH])
    def test_received_power_matrix_overflow(self, mode):
        with pytest.raises(ValueError, match="overflows a float"):
            received_power_matrix([1e308, 1e308], [[1.0], [1.0]], mode)


class Test2I2OEquivalence:
    """The general MINO pipeline on M = N = 2 must reproduce the specialized
    two-input two-output formulas expanded longhand."""

    @staticmethod
    def _random_case(rng):
        p_t = [10.0 ** rng.uniform(-2, 2) for _ in range(2)]
        w_c = [[10.0 ** rng.uniform(0.3, 6) for _ in range(2)] for _ in range(2)]
        tx = [Stage(1.0 + 10.0 * rng.random(), 10.0 ** rng.uniform(-1, 3)) for _ in range(2)]
        rx = [Stage(1.0 + 10.0 * rng.random(), 10.0 ** rng.uniform(-1, 3)) for _ in range(2)]
        return p_t, w_c, tx, rx

    def _pipeline(self, p_t, w_c, tx, rx, mode):
        # Per output j: branch cascades (TX i -> channel ij) weighted by the
        # individual link powers, then the first stage over both outputs,
        # then the parallel receiver bank.
        w_par = []
        for j in range(2):
            branches = [
                Branch(
                    stage=cascade([tx[i], Stage(w_c[i][j], 1.0 / w_c[i][j])]),
                    weight=p_t[i] / w_c[i][j],
                )
                for i in range(2)
            ]
            w_par.append(combine_branches(branches, mode))
        p_r = received_power_matrix(p_t, w_c, mode)
        w_first = mino_first_stage(p_r, w_par)
        w_rx = mino_first_stage(p_r, [rx[0].w, rx[1].w])
        g_rx = parallel_gain(p_r, [rx[0].g, rx[1].g], mode)
        return mino_compose(w_first, w_rx, g_rx)

    def _longhand(self, p_t, w_c, tx, rx, mode):
        gamma = [[p_t[i] / w_c[i][j] for j in range(2)] for i in range(2)]
        w_casc = [
            [w_c[i][j] + (tx[i].w - 1.0) * w_c[i][j] for j in range(2)]
            for i in range(2)
        ]
        w_par = []
        p_r = []
        for j in range(2):
            num = gamma[0][j] * w_casc[0][j] + gamma[1][j] * w_casc[1][j]
            if mode is NONCOH:
                den = gamma[0][j] + gamma[1][j]
            else:
                den = (math.sqrt(gamma[0][j]) + math.sqrt(gamma[1][j])) ** 2
            w_par.append(num / den)
            p_r.append(den)
        w_first = (p_r[0] * w_par[0] + p_r[1] * w_par[1]) / (p_r[0] + p_r[1])
        w_rx = (p_r[0] * rx[0].w + p_r[1] * rx[1].w) / (p_r[0] + p_r[1])
        if mode is NONCOH:
            g_rx = (p_r[0] * rx[0].g + p_r[1] * rx[1].g) / (p_r[0] + p_r[1])
        else:
            g_rx = (math.sqrt(p_r[0] * rx[0].g) + math.sqrt(p_r[1] * rx[1].g)) ** 2 / (
                p_r[0] + p_r[1]
            )
        return w_rx + (w_first - 1.0) / g_rx

    @pytest.mark.parametrize("mode", [NONCOH, COH])
    def test_pipeline_matches_longhand(self, mode):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p_t, w_c, tx, rx = self._random_case(rng)
            assert self._pipeline(p_t, w_c, tx, rx, mode) == pytest.approx(
                self._longhand(p_t, w_c, tx, rx, mode), rel=1e-12
            )
