"""Seeded inputs of the four benchmark workloads.

Each function here takes the workload seed and returns everything the
measured code is fed, so one seed gives one set of inputs. Seed 0 is the
default: it reproduces the paper's grid and the committed goldens, and
the output digests in ``digests.json`` were recorded with it. Other
seeds shift every campaign's base seed by whole blocks of ``n_seeds``,
so no drop seed is shared with seed 0.

``run.py`` times a fresh interpreter's import of this module plus one
such call as ``setup_s``, so this module imports nothing beyond the
package under test and what that package already loads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from wastefactor import components, netsim

SIMULATE_SMALL = "configs/simulate_small.ini"
GOLDEN_DROPS = "tests/golden/simulate_small_drops.csv"
GOLDEN_AGGREGATE = "tests/golden/simulate_small_aggregate.csv"
DEFAULT_SEED = 0

# Calculus mix per pass: C1-style random cascades, M-input N-output
# parallel groups, and RU/UE pairs swept over 60-120 dB of channel loss.
# Cascade lengths cycle through 1..8 and group shapes through every
# M, N in 1..4, so the seed draws values but never changes the mix.
CASCADES_PER_PASS = 1200
GROUPS_PER_PASS = 320
DEVICE_PAIRS_PER_PASS = 5
SWEEP_DB = tuple(float(db) for db in range(60, 121))


@dataclass(frozen=True)
class CampaignInputs:
    base: netsim.Scenario
    campaign: netsim.CampaignSpec
    scenarios: list[netsim.Scenario]


@dataclass(frozen=True)
class CliInputs:
    config_path: str
    wf_seed: int                 # passed as WF_SEED to every CLI call
    base: netsim.Scenario        # the parsed config, for the in-process reference
    campaign: netsim.CampaignSpec


@dataclass(frozen=True)
class ParallelGroup:
    tx_w: list[float]                # M transmit powers
    channel_w: list[list[float]]     # M x N link waste factors (losses)
    terminal: tuple[float, float]    # (w, g) of the receiving stage


@dataclass(frozen=True)
class CalculusInputs:
    cascades: list[list[tuple[float, float]]]   # (w, g) per stage, source first
    groups: list[ParallelGroup]
    devices: list[tuple[components.RuSpec, components.UeSpec]]
    sweep_db: tuple[float, ...]


def _campaign(base: netsim.Scenario, campaign: netsim.CampaignSpec, seed: int) -> CampaignInputs:
    campaign = replace(campaign, base_seed=campaign.base_seed + seed * campaign.n_seeds)
    return CampaignInputs(base, campaign, netsim.campaign_scenarios(base, campaign))


def reference_campaign(seed: int, smoke: bool = False) -> CampaignInputs:
    """The paper's grid: 3 bands x 2 antenna modes x 5 BS counts x 20 seeds
    of 1024 UEs, every scenario value from the reference tables."""
    base, campaign = netsim.Scenario(), netsim.CampaignSpec()
    if smoke:
        base, campaign = replace(base, n_ue=32), replace(campaign, n_seeds=1)
    return _campaign(base, campaign, seed)


def small_drops(seed: int, smoke: bool = False) -> CampaignInputs:
    """Same grid axes, 64 UEs, shadowing on, proportional power control and
    100 seeds per cell: 3000 drops where layout and per-drop fixed cost
    dominate instead of the per-UE work."""
    base = netsim.Scenario(n_ue=64, apply_shadowing=True, power_allocation="proportional")
    campaign = netsim.CampaignSpec(n_seeds=2 if smoke else 100)
    return _campaign(base, campaign, seed)


def cli_small(seed: int, smoke: bool = False) -> CliInputs:
    """The parsed ``simulate_small.ini``; WF_SEED moves its base seed."""
    from wastefactor import config

    doc = config.load_config(SIMULATE_SMALL)
    wf_seed = doc.get("scenario", "seed", 0) + seed * doc.get("sweep", "seeds", 20)
    return CliInputs(
        config_path=SIMULATE_SMALL,
        wf_seed=wf_seed,
        base=config.scenario_from_config(doc, seed_override=wf_seed),
        campaign=config.campaign_from_config(doc, base_seed_override=wf_seed),
    )


def calculus(seed: int, smoke: bool = False) -> CalculusInputs:
    """Stage parameters drawn from ``seed``: waste factors in [1, 100] and
    gains over 1e-6..1e6 as in acceptance C1, link losses up to 60 dB."""
    rng = np.random.default_rng(seed)
    scale = 20 if smoke else 1
    cascades = []
    for k in range(CASCADES_PER_PASS // scale):
        n = k % 8 + 1
        w = 1.0 + 99.0 * rng.random(n)
        g = 10.0 ** rng.uniform(-6.0, 6.0, n)
        cascades.append(list(zip(w.tolist(), g.tolist())))
    groups = []
    for k in range(GROUPS_PER_PASS // scale):
        m, n = k % 4 + 1, k // 4 % 4 + 1
        groups.append(
            ParallelGroup(
                tx_w=rng.uniform(0.1, 10.0, m).tolist(),
                channel_w=(10.0 ** rng.uniform(0.0, 6.0, (m, n))).tolist(),
                terminal=(float(rng.uniform(1.0, 40.0)), float(10.0 ** rng.uniform(0.0, 2.0))),
            )
        )
    devices = [_device_pair(rng) for _ in range(max(1, DEVICE_PAIRS_PER_PASS // scale))]
    return CalculusInputs(cascades, groups, devices, SWEEP_DB)


def _device_pair(rng: np.random.Generator) -> tuple[components.RuSpec, components.UeSpec]:
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    ru = components.RuSpec(
        dac=components.Dac(efficiency=u(0.8, 0.98)),
        mixer=components.Mixer(conversion_loss_db=u(5.0, 10.0)),
        phase_shifter=components.PhaseShifter(insertion_loss_db=u(2.0, 6.0), reflection_loss_db=u(0.0, 2.0)),
        pa=components.PowerAmplifier(pae=u(0.2, 0.6), gain_db=u(20.0, 50.0)),
        antenna=components.Antenna(radiation_efficiency=u(0.5, 0.9), vswr=u(1.0, 2.0)),
        n_tx=int(rng.integers(1, 9)),
    )
    ue = components.UeSpec(
        antenna=components.Antenna(radiation_efficiency=u(0.5, 0.9), vswr=u(1.0, 2.0)),
        lna=components.Lna(gain_db=u(10.0, 25.0)),
        phase_shifter=components.PhaseShifter(insertion_loss_db=u(3.0, 8.0)),
        mixer=components.Mixer(conversion_loss_db=u(5.0, 9.0)),
        n_rx=int(rng.integers(1, 5)),
    )
    return ru, ue


BY_WORKLOAD = {
    "reference_campaign": reference_campaign,
    "small_drops": small_drops,
    "cli_small": cli_small,
    "calculus": calculus,
}
