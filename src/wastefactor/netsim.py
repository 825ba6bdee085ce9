"""Seeded Monte-Carlo simulator of a distributed MU-MIMO downlink.

One drop: place base stations (uniform in a disk, minimum-separation
rejection sampling) and user equipments (uniform), assign each UE the
BSs inside its serving radius (nearest-BS fallback when none), run
per-UE power control to an SNR target under per-link and per-BS caps,
then collapse the whole network into a single waste factor:

* per link, the BS stage and its effective channel form one branch
  cascade referenced to the link's received power;
* per UE, the serving branches combine non-coherently into a MISO group;
* an imaginary sink sums all UE outputs non-coherently, so the two-stage
  composition W_system = W_ue + (W_first_stage - 1)/G_ue yields one
  system-level number, plus area-normalized power totals.

Randomness is counter-based (Philox) and split into named substreams
(UE layout / BS layout / link shadowing), so identical scenario + seed
reproduces bit-identical results on any platform and adding BSs never
perturbs UE placement.

Shadow fading: sigma values ship with each band preset and per-link
i.i.d. draws are implemented, but ``apply_shadowing`` defaults to False.
Power control compensates any shadowing draw exactly, leaving the draw's
lognormal factor inside the linear-domain waste aggregation, which
inflates each band's mean waste figure by exp((sigma*ln10/10)^2 / 2).
That term differs per band and destroys the band-differential structure
(frequency ordering, the 3.5 vs 28 GHz gap) that the deterministic
close-in model reproduces; see the project README for the measured
numbers both ways.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .channel import aperture_gain_db, fspl_1m_db, noise_power_dbm, ApertureAntenna
from .parallel import mino_compose
from .units import db_to_linear, dbm_to_watts, require_finite

OMNI = "omni"
DIRECTIONAL = "directional"

STREAM_UE_LAYOUT = 1
STREAM_BS_LAYOUT = 2
STREAM_SHADOWING = 3

_MAX_PLACEMENT_ATTEMPTS = 100_000


@dataclass(frozen=True)
class BandParams:
    ple: float
    sigma_db: float


# Omnidirectional LOS close-in parameters per carrier band.
BAND_PRESETS: dict[float, BandParams] = {
    3.5e9: BandParams(ple=1.82, sigma_db=4.89),
    17.0e9: BandParams(ple=2.00, sigma_db=6.60),
    28.0e9: BandParams(ple=2.02, sigma_db=8.98),
}

# Fixed physical apertures: 1 m x 1 m at the BS, 3 cm x 3 cm at the UE,
# 80% efficient at every band.
BS_APERTURE = ApertureAntenna(efficiency=0.8, physical_area_m2=1.0)
UE_APERTURE = ApertureAntenna(efficiency=0.8, physical_area_m2=9.0e-4)


@dataclass(frozen=True)
class Scenario:
    """Simulation configuration; defaults reproduce the reference setup."""

    frequency_hz: float = 3.5e9
    antenna_mode: str = DIRECTIONAL
    n_bs: int = 1
    n_ue: int = 1024
    region_radius_m: float = 1000.0
    bs_height_m: float = 15.0
    ue_height_m: float = 1.5
    min_bs_separation_m: float = 200.0
    serving_radius_m: float = 200.0
    bandwidth_hz: float = 400.0e6
    target_snr_db: float = 10.0
    ue_noise_figure_db: float = 5.0
    per_link_cap_dbm: float = 10.0
    per_bs_budget_dbm: float = 50.0
    w_bs: float = 15.0
    w_ue: float = 33.0
    g_ue_db: float = 11.0
    p_non_path_bs_w: float = 140.0
    p_non_path_ue_w: float = 1.0
    ple: float | None = None        # None: looked up in BAND_PRESETS
    sigma_db: float | None = None   # None: looked up in BAND_PRESETS
    apply_shadowing: bool = False   # see module docstring
    fallback_nearest: bool = True
    power_allocation: str = "equal"  # or "proportional" (to link gain)
    scale_non_path_per_area: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.antenna_mode not in (OMNI, DIRECTIONAL):
            raise ValueError(
                f"antenna_mode must be {OMNI!r} or {DIRECTIONAL!r}, got {self.antenna_mode!r}"
            )
        if self.power_allocation not in ("equal", "proportional"):
            raise ValueError(
                f"power_allocation must be 'equal' or 'proportional', got {self.power_allocation!r}"
            )
        if not 1 <= self.n_bs <= 20:
            raise ValueError(f"n_bs must be in [1, 20], got {self.n_bs}")
        if self.n_ue < 1:
            raise ValueError(f"n_ue must be >= 1, got {self.n_ue}")
        if self.frequency_hz <= 0.0 or self.bandwidth_hz <= 0.0:
            raise ValueError("frequency and bandwidth must be > 0 Hz")
        if self.region_radius_m <= 0.0 or self.serving_radius_m <= 0.0:
            raise ValueError("region and serving radii must be > 0 m")
        if not 0.0 <= self.min_bs_separation_m < 2.0 * self.region_radius_m:
            raise ValueError("min BS separation must be in [0, 2 * region radius)")
        if self.w_bs < 1.0 or self.w_ue < 1.0:
            raise ValueError("device waste factors must be >= 1")
        if self.p_non_path_bs_w < 0.0 or self.p_non_path_ue_w < 0.0:
            raise ValueError("non-path powers must be >= 0 W")
        if self.ple is None or self.sigma_db is None:
            if self.frequency_hz not in BAND_PRESETS:
                known = ", ".join(f"{f/1e9:g} GHz" for f in sorted(BAND_PRESETS))
                raise ValueError(
                    f"no path-loss preset for {self.frequency_hz/1e9:g} GHz; "
                    f"give ple and sigma_db explicitly or use one of: {known}"
                )
        if self.ple is not None and self.ple <= 0.0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.ple}")
        if self.sigma_db is not None and self.sigma_db < 0.0:
            raise ValueError(f"shadowing sigma must be >= 0 dB, got {self.sigma_db}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    @property
    def resolved_ple(self) -> float:
        return self.ple if self.ple is not None else BAND_PRESETS[self.frequency_hz].ple

    @property
    def resolved_sigma_db(self) -> float:
        if self.sigma_db is not None:
            return self.sigma_db
        return BAND_PRESETS[self.frequency_hz].sigma_db

    @property
    def antenna_gains_db(self) -> tuple[float, float]:
        """(BS, UE) gains: aperture gains when directional, 0 dB when omni."""
        if self.antenna_mode == OMNI:
            return 0.0, 0.0
        return (
            aperture_gain_db(BS_APERTURE, self.frequency_hz),
            aperture_gain_db(UE_APERTURE, self.frequency_hz),
        )

    @property
    def noise_power_w(self) -> float:
        return dbm_to_watts(
            noise_power_dbm(self.bandwidth_hz, self.ue_noise_figure_db)
        )

    @property
    def target_rx_power_w(self) -> float:
        return self.noise_power_w * db_to_linear(self.target_snr_db)


@dataclass(frozen=True, eq=False)
class Layout:
    bs_xy_m: np.ndarray  # (n_bs, 2)
    ue_xy_m: np.ndarray  # (n_ue, 2)
    distance_m: np.ndarray = field(init=False, repr=False)  # (n_ue, n_bs), horizontal

    def __post_init__(self) -> None:
        dx = self.ue_xy_m[:, 0, None] - self.bs_xy_m[None, :, 0]
        dy = self.ue_xy_m[:, 1, None] - self.bs_xy_m[None, :, 1]
        object.__setattr__(self, "distance_m", np.sqrt(dx * dx + dy * dy))


@dataclass(frozen=True, eq=False)
class DropResult:
    """Outputs of one Monte-Carlo drop (powers already scaled per km^2)."""

    wf_system_db: float
    w_system: float
    p_total_per_km2_w: float
    p_signal_path_per_km2_w: float
    p_non_path_per_km2_w: float
    mean_snr_db: float
    p5_snr_db: float
    frac_ue_meeting_target: float
    audit_rel_error: float
    n_capped_links: int
    n_budget_limited_bs: int
    n_clamped_links: int
    n_unserved_ue: int


def _substream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniform_disk(rng: np.random.Generator, n: int, radius_m: float) -> np.ndarray:
    r = radius_m * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def generate_layout(scenario: Scenario) -> Layout:
    """Place UEs and BSs in the disk; BS placement is a hard-core process.

    BS candidates come from the BS substream in blocks of interleaved
    (radius, angle) pairs, each pair the two doubles one
    ``_uniform_disk(rng, 1, R)`` call would draw, and are accepted one by
    one in draw order; unused candidates at the end of the last block
    feed nothing else.
    """
    ue_xy = _uniform_disk(
        _substream(scenario.seed, STREAM_UE_LAYOUT), scenario.n_ue, scenario.region_radius_m
    )
    rng = _substream(scenario.seed, STREAM_BS_LAYOUT)
    accepted: list[tuple[float, float]] = []
    min_sep_sq = scenario.min_bs_separation_m ** 2
    attempts = 0
    while True:
        u = rng.random((4 * scenario.n_bs, 2))
        r = scenario.region_radius_m * np.sqrt(u[:, 0])
        theta = 2.0 * np.pi * u[:, 1]
        for x, y in zip((r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist()):
            attempts += 1
            if attempts > _MAX_PLACEMENT_ATTEMPTS:
                raise RuntimeError(
                    f"could not place {scenario.n_bs} BSs with "
                    f"{scenario.min_bs_separation_m} m separation after "
                    f"{_MAX_PLACEMENT_ATTEMPTS} attempts"
                )
            if all((x - px) * (x - px) + (y - py) * (y - py) >= min_sep_sq for px, py in accepted):
                accepted.append((x, y))
                if len(accepted) == scenario.n_bs:
                    return Layout(bs_xy_m=np.array(accepted), ue_xy_m=ue_xy)


def assign_serving_sets(
    layout: Layout, serving_radius_m: float, fallback_nearest: bool = True
) -> np.ndarray:
    """Boolean ``(n_ue, n_bs)`` serving mask: every BS within the radius
    (horizontal distance); a UE covered by none gets its nearest BS when
    the fallback is enabled, otherwise an empty row."""
    mask = layout.distance_m <= serving_radius_m
    if fallback_nearest:
        uncovered = np.flatnonzero(~mask.any(axis=1))
        mask[uncovered, np.argmin(layout.distance_m[uncovered], axis=1)] = True
    return mask


def effective_loss_matrix(scenario: Scenario, layout: Layout) -> tuple[np.ndarray, int]:
    """Per-link effective loss (linear, clamped at the W = 1 floor).

    Close-in path loss over the 3-D distance, optional per-link shadowing
    draw, minus both endpoint antenna gains. Returns the loss matrix and
    the count of links that hit the clamp.
    """
    height_delta = scenario.bs_height_m - scenario.ue_height_m
    d3 = np.sqrt(layout.distance_m ** 2 + height_delta ** 2)
    pl_db = fspl_1m_db(scenario.frequency_hz) + 10.0 * scenario.resolved_ple * np.log10(
        np.maximum(d3, 1.0)
    )
    if scenario.apply_shadowing and scenario.resolved_sigma_db > 0.0:
        z = _substream(scenario.seed, STREAM_SHADOWING).standard_normal(d3.shape)
        pl_db = pl_db + scenario.resolved_sigma_db * z
    g_tx_db, g_rx_db = scenario.antenna_gains_db
    eff_db = pl_db - g_tx_db - g_rx_db
    n_clamped = int(np.count_nonzero(eff_db < 0.0))
    eff_db = np.maximum(eff_db, 0.0)
    return 10.0 ** (eff_db / 10.0), n_clamped


@dataclass(frozen=True, eq=False)
class PowerControlResult:
    p_tx_w: np.ndarray        # (n_ue, n_bs), zero off the serving links
    p_rx_link_w: np.ndarray   # (n_ue, n_bs)
    p_rx_ue_w: np.ndarray     # (n_ue,)
    snr_db: np.ndarray        # (n_ue,), -inf for unserved UEs
    n_capped_links: int
    n_budget_limited_bs: int


def power_control(
    l_eff_w: np.ndarray, serving_mask: np.ndarray, scenario: Scenario
) -> PowerControlResult:
    """Set per-link transmit powers so each UE's combined (non-coherent)
    received power hits the SNR target.

    Equal allocation splits one transmit level across a UE's serving
    links; proportional allocation loads better links harder (p_tx
    proportional to the link gain). Each link then clips to the per-link
    cap, and any BS whose summed load exceeds its budget has all its
    links scaled down proportionally. SNR is recomputed after both.
    """
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
    return PowerControlResult(
        p_tx_w=p_tx,
        p_rx_link_w=p_rx_link,
        p_rx_ue_w=p_rx_ue,
        snr_db=snr_db,
        n_capped_links=n_capped,
        n_budget_limited_bs=n_budget_limited,
    )


def _p5(x: np.ndarray) -> float:
    """``np.percentile(x, 5.0)`` bit for bit, without its generic dispatch.

    Same steps as numpy's default ``linear`` method: virtual index
    ``(n - 1) * 0.05``, one partition at numpy's own order statistics
    (so ties of signed zeros land alike), then its two-sided lerp. ``x`` is
    a non-empty 1-D array of finite floats.
    """
    n = x.size
    if n == 1:
        return float(x[0])
    virtual = (n - 1) * 0.05
    lo = math.floor(virtual)
    t = virtual - lo
    a, b = np.partition(x, sorted({-1, 0, lo, lo + 1}))[lo : lo + 2].tolist()
    d = b - a
    return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def evaluate_links(
    scenario: Scenario,
    serving_mask: np.ndarray,
    l_eff_w: np.ndarray,
    n_clamped_links: int = 0,
) -> DropResult:
    """Score an explicit link realization (serving mask + effective losses).

    ``serving_mask`` is the boolean ``(n_ue, n_bs)`` serving mask of
    :func:`assign_serving_sets`. This is the composition core behind
    :func:`evaluate_drop`; driving it directly with hand-built links gives
    deterministic reference cases. Per-UE SNRs are ``power_control(...).snr_db``.
    """
    n_ue, n_bs = l_eff_w.shape
    if (n_ue, n_bs) != (scenario.n_ue, scenario.n_bs):
        raise ValueError(
            f"loss matrix is {n_ue}x{n_bs} but the scenario declares "
            f"{scenario.n_ue} UEs and {scenario.n_bs} BSs"
        )
    if not isinstance(serving_mask, np.ndarray) or serving_mask.dtype != bool:
        kind = getattr(serving_mask, "dtype", type(serving_mask).__name__)
        raise ValueError(f"serving mask must be a boolean array, got {kind}")
    if serving_mask.shape != (n_ue, n_bs):
        raise ValueError(
            f"serving mask has shape {serving_mask.shape} but the loss matrix is {n_ue}x{n_bs}"
        )
    pc = power_control(l_eff_w, serving_mask, scenario)

    # Branch cascade per link: effective channel stage plus the BS stage
    # behind it, referenced to the link's received power.
    g_c = np.where(serving_mask, 1.0 / l_eff_w, 1.0)
    w_cascade = np.where(serving_mask, l_eff_w + (scenario.w_bs - 1.0) / g_c, 0.0)

    total_rx = pc.p_rx_ue_w.sum()
    if total_rx <= 0.0:
        raise ValueError("no UE receives any power; cannot reference a system W")
    # Per-UE MISO group then the imaginary-sink first stage; both are
    # received-power-weighted means, so the first stage collapses into a
    # single sum over links.
    consumed_per_ue = (pc.p_rx_link_w * w_cascade).sum(axis=1)
    w_mino1 = consumed_per_ue.sum() / total_rx
    g_ue = db_to_linear(scenario.g_ue_db)
    w_system = mino_compose(w_mino1, scenario.w_ue, g_ue)

    p_system_out = g_ue * total_rx
    p_path = w_system * p_system_out
    p_non_path = scenario.n_bs * scenario.p_non_path_bs_w + scenario.n_ue * scenario.p_non_path_ue_w

    # Independent bottom-up audit: system output plus every waste term,
    # from per-link quantities only.
    p_tx_total = pc.p_tx_w.sum()
    channel_waste = p_tx_total - total_rx
    bs_waste = (scenario.w_bs - 1.0) * p_tx_total
    ue_waste = (scenario.w_ue - 1.0) * g_ue * total_rx
    bottom_up = p_system_out + channel_waste + bs_waste + ue_waste
    audit_rel_error = abs(bottom_up - p_path) / p_path

    area_km2 = math.pi * (scenario.region_radius_m / 1000.0) ** 2
    p_path_per_km2 = p_path / area_km2
    if scenario.scale_non_path_per_area:
        p_non_path_per_km2 = p_non_path / area_km2
    else:
        p_non_path_per_km2 = p_non_path

    served = pc.p_rx_ue_w > 0.0
    n_unserved = int(np.count_nonzero(~served))
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
        n_unserved_ue=n_unserved,
    )


def evaluate_drop(scenario: Scenario) -> DropResult:
    """One full Monte-Carlo drop, pure in the scenario (seed included)."""
    layout = generate_layout(scenario)
    mask = assign_serving_sets(layout, scenario.serving_radius_m, scenario.fallback_nearest)
    l_eff_w, n_clamped = effective_loss_matrix(scenario, layout)
    return evaluate_links(scenario, mask, l_eff_w, n_clamped_links=n_clamped)


@dataclass(frozen=True)
class CampaignSpec:
    """Grid of simulation cells: frequencies x antenna modes x BS counts x seeds."""

    frequencies_hz: tuple[float, ...] = (3.5e9, 17.0e9, 28.0e9)
    antenna_modes: tuple[str, ...] = (OMNI, DIRECTIONAL)
    n_bs_values: tuple[int, ...] = (1, 5, 10, 15, 20)
    n_seeds: int = 20
    base_seed: int = 0
    # The per-link cap applied to omni cells only. The 10 dBm default cap
    # starves omni links of the power the reference SNR statistics imply,
    # so omni runs get their own ceiling.
    omni_per_link_cap_dbm: float | None = 30.0

    def __post_init__(self) -> None:
        if not self.frequencies_hz or not self.antenna_modes or not self.n_bs_values:
            raise ValueError("campaign grid axes must be non-empty")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")


@dataclass(frozen=True, eq=False)
class DropRow:
    frequency_ghz: float
    antenna_mode: str
    n_bs: int
    seed: int
    result: DropResult


@dataclass(frozen=True)
class AggregateRow:
    frequency_ghz: float
    antenna_mode: str
    n_bs: int
    wf_mean_db: float   # mean taken over linear W, then converted
    wf_std_db: float    # std of the per-seed dB values
    p_total_mean_kw_per_km2: float


def campaign_scenarios(base: Scenario, campaign: CampaignSpec) -> list[Scenario]:
    """Grid cells in deterministic order (frequency, mode, n_bs, seed)."""
    cells = []
    for frequency_hz in campaign.frequencies_hz:
        for mode in campaign.antenna_modes:
            cap = base.per_link_cap_dbm
            if mode == OMNI and campaign.omni_per_link_cap_dbm is not None:
                cap = campaign.omni_per_link_cap_dbm
            for n_bs in campaign.n_bs_values:
                for offset in range(campaign.n_seeds):
                    cells.append(
                        replace(
                            base,
                            frequency_hz=frequency_hz,
                            antenna_mode=mode,
                            n_bs=n_bs,
                            per_link_cap_dbm=cap,
                            ple=None,
                            sigma_db=None,
                            seed=campaign.base_seed + offset,
                        )
                    )
    return cells


def run_campaign(
    base: Scenario, campaign: CampaignSpec, jobs: int | None = None
) -> tuple[list[DropRow], list[AggregateRow]]:
    """Evaluate the whole grid, optionally fanning drops across processes.

    Results are keyed and merged in grid order, so the output is
    identical for any worker count.
    """
    scenarios = campaign_scenarios(base, campaign)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(scenarios) == 1:
        results = [evaluate_drop(s) for s in scenarios]
    else:
        # Imported here: multiprocessing costs every serial run its import time.
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(scenarios) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(evaluate_drop, scenarios, chunksize=chunksize))
    rows = [
        DropRow(
            frequency_ghz=s.frequency_hz / 1e9,
            antenna_mode=s.antenna_mode,
            n_bs=s.n_bs,
            seed=s.seed,
            result=r,
        )
        for s, r in zip(scenarios, results)
    ]
    aggregates = []
    for start in range(0, len(rows), campaign.n_seeds):
        group = rows[start : start + campaign.n_seeds]
        w_linear = np.array([row.result.w_system for row in group])
        wf_db = np.array([row.result.wf_system_db for row in group])
        p_total = np.array([row.result.p_total_per_km2_w for row in group])
        head = group[0]
        aggregates.append(
            AggregateRow(
                frequency_ghz=head.frequency_ghz,
                antenna_mode=head.antenna_mode,
                n_bs=head.n_bs,
                wf_mean_db=10.0 * math.log10(float(np.mean(w_linear))),
                wf_std_db=float(np.std(wf_db)),
                p_total_mean_kw_per_km2=float(np.mean(p_total)) / 1000.0,
            )
        )
    return rows, aggregates


DROP_CSV_COLUMNS = (
    "frequency_ghz",
    "antenna_mode",
    "n_bs",
    "seed",
    "wf_system_db",
    "p_total_kw_per_km2",
    "p_nonpath_kw_per_km2",
    "mean_snr_db",
    "frac_ue_meeting_target",
)

AGGREGATE_CSV_COLUMNS = (
    "frequency_ghz",
    "antenna_mode",
    "n_bs",
    "wf_mean_db",
    "wf_std_db",
    "p_total_mean_kw_per_km2",
)


def drop_csv_lines(rows: Iterable[DropRow]) -> list[str]:
    lines = [",".join(DROP_CSV_COLUMNS)]
    for row in rows:
        r = row.result
        lines.append(
            f"{row.frequency_ghz:g},{row.antenna_mode},{row.n_bs},{row.seed},"
            f"{r.wf_system_db:.4f},{r.p_total_per_km2_w / 1000.0:.6f},"
            f"{r.p_non_path_per_km2_w / 1000.0:.6f},{r.mean_snr_db:.4f},"
            f"{r.frac_ue_meeting_target:.6f}"
        )
    return lines


def aggregate_csv_lines(rows: Iterable[AggregateRow]) -> list[str]:
    lines = [",".join(AGGREGATE_CSV_COLUMNS)]
    for row in rows:
        lines.append(
            f"{row.frequency_ghz:g},{row.antenna_mode},{row.n_bs},"
            f"{row.wf_mean_db:.4f},{row.wf_std_db:.4f},"
            f"{row.p_total_mean_kw_per_km2:.6f}"
        )
    return lines


def write_campaign_csvs(
    drops: Sequence[DropRow], aggregates: Sequence[AggregateRow], out_dir: str | Path
) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    drops_path = out / "drops.csv"
    agg_path = out / "aggregate.csv"
    drops_path.write_text("\n".join(drop_csv_lines(drops)) + "\n", encoding="utf-8")
    agg_path.write_text("\n".join(aggregate_csv_lines(aggregates)) + "\n", encoding="utf-8")
    return drops_path, agg_path
