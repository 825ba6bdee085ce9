"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; the assertions themselves carry the tolerances.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from wastefactor import cli
from wastefactor.channel import ApertureAntenna, aperture_gain_db
from wastefactor.components import (
    build_ru,
    build_ue,
    end_to_end,
    reference_ru_spec,
    reference_ue_spec,
)
from wastefactor.core import Stage, cascade, power_flow
from wastefactor.estimate import PowerSample, fit_waste_factor
from wastefactor.metrics import EquipmentReading, ee_bs, ee_ru
from wastefactor.netsim import (
    CampaignSpec,
    Links,
    Scenario,
    evaluate_drop,
    evaluate_links,
    run_campaign,
)

pytestmark = pytest.mark.acceptance


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


@pytest.fixture(scope="module")
def reference_campaign():
    """The full 3 bands x 2 modes x 5 BS counts x 20 seeds grid."""
    start = time.perf_counter()
    drops, aggregates = run_campaign(
        Scenario(), CampaignSpec(n_seeds=20), jobs=os.cpu_count()
    )
    elapsed = time.perf_counter() - start
    table = {
        (round(a.frequency_ghz, 3), a.antenna_mode, a.n_bs): a for a in aggregates
    }
    return drops, aggregates, table, elapsed


def test_criterion_01_cascade_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        stages = [
            Stage(w=1.0 + 99.0 * rng.random(), g=10.0 ** rng.uniform(-6.0, 6.0))
            for _ in range(int(rng.integers(1, 9)))
        ]
        closed = cascade(stages).w
        oracle = power_flow(stages, 1.0).w
        worst = max(worst, abs(closed - oracle) / oracle)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    report("C1", f"1000 random cascades, worst relative error {worst:.2e}, "
                 f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_ru_ue_reference_composition():
    ru_off = build_ru(reference_ru_spec(include_mismatch=False)).stage.w
    ue_off = build_ue(reference_ue_spec(include_mismatch=False)).stage.w
    assert 3.45 <= ru_off <= 3.55
    assert 18.4 <= ue_off <= 18.8
    ru_on = build_ru(reference_ru_spec(include_mismatch=True)).stage.w
    ue_on = build_ue(reference_ue_spec(include_mismatch=True)).stage.w
    assert ru_on == pytest.approx(3.62, abs=5e-3)
    assert ue_on == pytest.approx(18.71, abs=5e-3)
    report("C2", f"W_RU {ru_off:.3f} (mismatch off) / {ru_on:.3f} (on), "
                 f"W_UE {ue_off:.2f} / {ue_on:.2f}")


def test_criterion_03_reduction_strategy_sweep():
    ru = build_ru(reference_ru_spec(include_mismatch=False)).stage
    ue = build_ue(reference_ue_spec(include_mismatch=False)).stage
    ru_half = Stage(w=ru.w / 2.0, g=ru.g)
    ue_half = Stage(w=ue.w / 2.0, g=ue.g)
    ue_gain = Stage(w=ue.w, g=2.0 * ue.g)
    grid = [float(v) for v in range(60, 121)]
    series = {"baseline": [], "halved_w_ru": [], "halved_w_ue": [], "doubled_g_ue": []}
    for wf_c_db in grid:
        channel = Stage.from_loss_db(wf_c_db)
        series["baseline"].append(end_to_end(ru, channel, ue).wf_db)
        series["halved_w_ru"].append(end_to_end(ru_half, channel, ue).wf_db)
        series["halved_w_ue"].append(end_to_end(ru, channel, ue_half).wf_db)
        series["doubled_g_ue"].append(end_to_end(ru, channel, ue_gain).wf_db)
    baseline = np.array(series["baseline"])
    slopes = np.diff(baseline)
    assert np.all(np.abs(slopes - 1.0) < 0.01)
    gain_ru = baseline - np.array(series["halved_w_ru"])
    gain_gue = baseline - np.array(series["doubled_g_ue"])
    assert np.all(np.abs(gain_ru - 3.01) < 0.02)
    assert np.all(np.abs(gain_gue - 3.01) < 0.02)
    gain_ue = baseline - np.array(series["halved_w_ue"])
    assert np.all(np.abs(gain_ue) < 0.01)
    report("C3", f"unit slope (max dev {np.max(np.abs(slopes - 1.0)):.4f} dB), "
                 f"halved-W_RU gain {gain_ru.mean():.3f} dB, "
                 f"halved-W_UE effect {gain_ue.max():.4f} dB")


def test_criterion_04_measurement_fit():
    noiseless = [
        PowerSample(p, 3.5 * p + 140.0) for p in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0)
    ]
    fit = fit_waste_factor(noiseless)
    assert fit.w == 3.5 and fit.p_non_path_w == 140.0

    passes = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(0.0, 120.0, size=100)
        y = 3.5 * x + 140.0 + rng.normal(0.0, 5.0, size=100)
        noisy = fit_waste_factor(
            [PowerSample(float(a), float(max(b, 0.0))) for a, b in zip(x, y)]
        )
        if abs(noisy.w - 3.5) <= 0.07 and abs(noisy.p_non_path_w - 140.0) <= 5.0:
            passes += 1
    assert passes >= 48  # 95% of 50 seeds, rounded up
    report("C4", f"noiseless fit exact; noisy fit within tolerance on {passes}/50 seeds")


def test_criterion_05_metric_critique_regression():
    bs_a = EquipmentReading(p_non_signal_w=20.0, p_non_path_w=50.0, data_volume_gb=10.0)
    bs_b = EquipmentReading(p_non_signal_w=200.0, p_non_path_w=50.0, data_volume_gb=50.0)
    assert ee_bs(bs_a.data_volume_gb, bs_a.energy_wh) == pytest.approx(
        0.142857, abs=5e-7
    )
    assert ee_bs(bs_b.data_volume_gb, bs_b.energy_wh) == pytest.approx(0.2, rel=1e-12)
    ru_a = EquipmentReading(p_signal_w=120.0, p_non_signal_w=240.0, p_non_path_w=140.0)
    ru_b = EquipmentReading(p_signal_w=120.0, p_non_signal_w=300.0, p_non_path_w=80.0)
    assert ee_ru(120.0, ru_a.energy_wh) == pytest.approx(0.24, rel=1e-12)
    assert ee_ru(120.0, ru_b.energy_wh) == pytest.approx(0.24, rel=1e-12)
    assert ru_a.w == pytest.approx(3.0, rel=1e-12)
    assert ru_b.w == pytest.approx(3.5, rel=1e-12)
    report("C5", "EE_BS 0.142857/0.2 GB/Wh, EE_RU 24% for both units, W 3.0 vs 3.5")


def test_criterion_06_aperture_gain_table():
    bs = ApertureAntenna(efficiency=0.8, physical_area_m2=1.0)
    ue = ApertureAntenna(efficiency=0.8, physical_area_m2=9.0e-4)
    expected = [
        (ue, 3.5e9, 0.90),
        (ue, 17e9, 14.63),
        (ue, 28e9, 18.97),
        (bs, 3.5e9, 31.36),
        (bs, 17e9, 45.09),
        (bs, 28e9, 49.42),
    ]
    for antenna, frequency, gain_db in expected:
        assert aperture_gain_db(antenna, frequency) == pytest.approx(gain_db, abs=0.02)
    report("C6", "all six reference aperture gains within 0.02 dB")


def test_criterion_07_conservation_audit(reference_campaign):
    drops, _, _, _ = reference_campaign
    worst = max(row.result.audit_rel_error for row in drops)
    assert worst <= 1e-6
    # The audit must also hold off the beaten path.
    for overrides in (
        {"apply_shadowing": True, "seed": 7},
        {"power_allocation": "proportional", "n_bs": 4},
        {"fallback_nearest": False, "n_bs": 6, "apply_shadowing": True},
        {"antenna_mode": "omni", "per_link_cap_dbm": 30.0, "n_bs": 2},
    ):
        sc = dataclasses.replace(Scenario(frequency_hz=28e9, n_ue=256), **overrides)
        assert evaluate_drop(sc).audit_rel_error <= 1e-6
    report("C7", f"bottom-up power bookkeeping matches top-down on all "
                 f"{len(drops)} drops (worst {worst:.2e}) and 4 variant scenarios")


def test_criterion_08_simulation_trends(reference_campaign):
    _, _, table, elapsed = reference_campaign
    assert elapsed < 60.0

    # (a) mean WF_system non-increasing in n_bs, 0.2 dB noise slack
    for freq in (3.5, 17.0, 28.0):
        for mode in ("omni", "directional"):
            wf = [table[(freq, mode, n)].wf_mean_db for n in (1, 5, 10, 15, 20)]
            assert all(b <= a + 0.2 for a, b in zip(wf, wf[1:])), (freq, mode, wf)

    # (b) directional beats omni by more than 20 dB everywhere
    for freq in (3.5, 17.0, 28.0):
        for n in (1, 5, 10, 15, 20):
            gap = table[(freq, "omni", n)].wf_mean_db - table[
                (freq, "directional", n)
            ].wf_mean_db
            assert gap > 20.0, (freq, n, gap)

    # (c) frequency orderings per cell
    for n in (1, 5, 10, 15, 20):
        d35 = table[(3.5, "directional", n)].wf_mean_db
        d17 = table[(17.0, "directional", n)].wf_mean_db
        d28 = table[(28.0, "directional", n)].wf_mean_db
        assert d28 < d17 < d35, (n, d28, d17, d35)
        o35 = table[(3.5, "omni", n)].wf_mean_db
        o17 = table[(17.0, "omni", n)].wf_mean_db
        o28 = table[(28.0, "omni", n)].wf_mean_db
        assert o35 < o17 <= o28, (n, o35, o17, o28)

    # (d) directional 28 vs 3.5 GHz gap at 20 BSs: 12 +/- 3 dB
    gap = (
        table[(3.5, "directional", 20)].wf_mean_db
        - table[(28.0, "directional", 20)].wf_mean_db
    )
    assert 9.0 <= gap <= 15.0

    # (e) deterministic two-link reference drop
    sc = Scenario(n_ue=2, n_bs=2, frequency_hz=28e9)
    links = Links(np.eye(2, dtype=bool))
    l_eff = np.array([[1e7, 1e30], [1e30, 1e8]])
    result = evaluate_links(sc, links, l_eff[links.ue, links.bs])
    assert result.wf_system_db == pytest.approx(78.17, abs=0.01)
    closed_form = 33.0 + (8.25e8 - 1.0) / (10.0 ** 1.1)
    assert result.w_system == pytest.approx(closed_form, rel=1e-9)

    report("C8", f"grid in {elapsed:.1f} s; monotone in BS count, directional-omni "
                 f"gap > 20 dB, orderings hold, 3.5-28 GHz gap {gap:.2f} dB, "
                 f"reference drop {result.wf_system_db:.2f} dB")


def test_criterion_09_soft_power_targets(reference_campaign):
    # Reported, not gating: absolute per-km^2 totals depend on the cap and
    # area-normalization decisions recorded in the README.
    _, _, table, _ = reference_campaign
    directional = table[(28.0, "directional", 20)].p_total_mean_kw_per_km2
    omni = table[(28.0, "omni", 20)].p_total_mean_kw_per_km2
    targets = {"directional": (directional, 4.4), "omni": (omni, 9.0)}
    notes = []
    for mode, (value, target) in targets.items():
        within = abs(value - target) <= 0.3 * target
        notes.append(
            f"{mode} 28 GHz @ 20 BSs: {value:.2f} kW/km^2 vs {target} "
            f"({'within' if within else 'outside'} 30%)"
        )
    report("C9 (soft)", "; ".join(notes))


def test_criterion_10_campaign_determinism(tmp_path, capsys):
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "simulate_small.ini")
    outputs = {}
    for name, jobs in (("serial_a", "1"), ("serial_b", "1"), ("parallel", "2")):
        out_dir = tmp_path / name
        code = cli.main(
            ["simulate", config, "--jobs", jobs, "--out", str(out_dir)]
        )
        capsys.readouterr()
        assert code == 0
        outputs[name] = (
            (out_dir / "drops.csv").read_bytes(),
            (out_dir / "aggregate.csv").read_bytes(),
        )
    assert outputs["serial_a"] == outputs["serial_b"]
    assert outputs["serial_a"] == outputs["parallel"]
    report("C10", "campaign CSVs byte-identical across reruns and across "
                  "--jobs 1 vs --jobs 2")
