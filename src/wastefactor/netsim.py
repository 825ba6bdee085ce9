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
(UE layout / BS layout / link shadowing), so adding BSs never perturbs
UE placement, and identical scenario + seed reproduces byte-identical
CSVs on any platform. ``DropResult`` floats are bit-stable only on one
numpy SIMD dispatch path: their last bits may move with it.

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

import functools
import math
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .channel import aperture_gain_db, fspl_1m_db, noise_power_dbm, ApertureAntenna
from .parallel import mino_compose
from .units import db_to_linear, dbm_to_watts, record, require_finite, require_integers

OMNI = "omni"
DIRECTIONAL = "directional"

STREAM_UE_LAYOUT = 1
STREAM_BS_LAYOUT = 2
STREAM_SHADOWING = 3

_MAX_PLACEMENT_ATTEMPTS = 100_000
# A linear loss 10 ** (dB / 10) overflows a float past about 3082.5 dB. The
# close-in loss of the longest link stays under a 3000 dB ceiling, and with
# shadowing on, that loss plus a 9-sigma draw stays under the overflow point:
# every band preset fits (9 * 8.98 = 80.8 dB at 28 GHz).
_MAX_PATH_LOSS_DB = 3000.0
_LOSS_OVERFLOW_DB = 3082.5


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


def _known_bands() -> str:
    return ", ".join(f"{f/1e9:g} GHz" for f in sorted(BAND_PRESETS))


class _NoPreset(ValueError):
    """A band with no preset and no explicit ple/sigma_db; the grid words it."""


class _BadSeed(ValueError):
    """A seed outside 64 bits; the grid names the seed range it came from."""


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
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
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
        # Squared link lengths reach 8 R^2 + (h_bs - h_ue)^2 and must stay finite.
        radius, height_delta = self.region_radius_m, self.bs_height_m - self.ue_height_m
        if not 8.0 * radius * radius + height_delta * height_delta < math.inf:
            raise ValueError(
                f"region_radius_m = {radius} with antenna heights "
                f"{self.bs_height_m} m and {self.ue_height_m} m gives squared link lengths "
                "that overflow a float"
            )
        if not 0.0 <= self.min_bs_separation_m < 2.0 * self.region_radius_m:
            raise ValueError("min BS separation must be in [0, 2 * region radius)")
        if self.w_bs < 1.0 or self.w_ue < 1.0:
            raise ValueError("device waste factors must be >= 1")
        if self.p_non_path_bs_w < 0.0 or self.p_non_path_ue_w < 0.0:
            raise ValueError("non-path powers must be >= 0 W")
        if self.ple is None or self.sigma_db is None:
            if self.frequency_hz not in BAND_PRESETS:
                raise _NoPreset(
                    f"no path-loss preset for {self.frequency_hz/1e9:g} GHz; "
                    f"give ple and sigma_db explicitly or use one of: {_known_bands()}"
                )
        if self.ple is not None and self.ple <= 0.0:
            raise ValueError(f"path-loss exponent must be > 0, got {self.ple}")
        if self.sigma_db is not None and self.sigma_db < 0.0:
            raise ValueError(f"shadowing sigma must be >= 0 dB, got {self.sigma_db}")
        longest_m = max(math.hypot(2.0 * radius, height_delta), 1.0)
        loss_db = fspl_1m_db(self.frequency_hz) + 10.0 * self.resolved_ple * math.log10(longest_m)
        if loss_db > _MAX_PATH_LOSS_DB:
            raise ValueError(
                f"region_radius_m = {radius} gives links of up to {longest_m:g} m, whose "
                f"close-in path loss of {loss_db:.1f} dB passes the "
                f"{_MAX_PATH_LOSS_DB:g} dB ceiling of a linear loss"
            )
        if self.apply_shadowing and loss_db + 9.0 * self.resolved_sigma_db > _LOSS_OVERFLOW_DB:
            raise ValueError(
                f"sigma_db = {self.resolved_sigma_db} lets a 9-sigma shadowing draw on the "
                f"{loss_db:.1f} dB close-in path loss of the longest link pass the "
                f"{_LOSS_OVERFLOW_DB:g} dB overflow point of a linear loss"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise _BadSeed(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not self.noise_power_w > 0.0:
            raise ValueError(
                f"bandwidth_hz = {self.bandwidth_hz} with ue_noise_figure_db = "
                f"{self.ue_noise_figure_db} gives a noise power of 0 W"
            )

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
    """BS and UE positions and their squared horizontal distances.

    ``sq_distance_m2`` is BS-major, one row of ``dx*dx + dy*dy`` per BS
    over every UE: each pass over the geometry runs along long contiguous
    UE rows, and the first ``k`` rows are the geometry of the first ``k``
    BSs. ``distance_m`` derives the ``(n_ue, n_bs)`` distances from it.

    Built by a caller, the coordinates are checked first: a NaN distance
    would fail every radius test and still win the nearest-BS argmin.
    :func:`generate_layout` skips that check, because coordinates drawn
    inside the scenario's finite disk are finite by construction.
    """

    bs_xy_m: np.ndarray  # (n_bs, 2)
    ue_xy_m: np.ndarray  # (n_ue, 2)
    sq_distance_m2: np.ndarray = field(init=False, repr=False)  # (n_bs, n_ue), horizontal

    def __init__(self, bs_xy_m: np.ndarray, ue_xy_m: np.ndarray) -> None:
        for name, xy in (("bs_xy_m", bs_xy_m), ("ue_xy_m", ue_xy_m)):
            if not np.isfinite(xy).all():
                raise ValueError(f"{name} must hold finite coordinates")
        self._store(bs_xy_m, ue_xy_m)

    @classmethod
    def _drawn(cls, bs_xy_m: np.ndarray, ue_xy_m: np.ndarray) -> Layout:
        layout = object.__new__(cls)
        layout._store(bs_xy_m, ue_xy_m)
        return layout

    def _store(self, bs_xy_m: np.ndarray, ue_xy_m: np.ndarray) -> None:
        # dx*dx + dy*dy in two float work arrays, dx = ue - bs.
        d = np.subtract(ue_xy_m[:, 0], bs_xy_m[:, 0, None], dtype=float)
        d *= d
        dy = np.subtract(ue_xy_m[:, 1], bs_xy_m[:, 1, None], dtype=float)
        dy *= dy
        d += dy
        fields = self.__dict__
        fields["bs_xy_m"] = bs_xy_m
        fields["ue_xy_m"] = ue_xy_m
        fields["sq_distance_m2"] = d

    @property
    def distance_m(self) -> np.ndarray:
        """Horizontal UE-BS distances, ``(n_ue, n_bs)``: a transposed view
        of the square roots of ``sq_distance_m2``, computed on each call."""
        return np.sqrt(self.sq_distance_m2).T


@record
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


_THREAD = threading.local()
_ZEROS4 = (0, 0, 0, 0)


def _substream(seed: int, stream: int) -> np.random.Generator:
    """The Philox stream keyed ``[seed, stream]`` (Salmon et al., SC'11).

    Draws exactly what a fresh ``Generator(Philox(key=[seed, stream]))``
    draws, but re-keys one generator per thread instead: a new ``Philox``
    first gathers OS entropy for a seed sequence the key then overrides,
    which costs several times what setting its state does. The returned
    generator stays valid until the next ``_substream`` call on the same
    thread.
    """
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": (seed, stream)},
        "buffer": _ZEROS4,
        "buffer_pos": 4,  # empty: the next draw runs the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _uniform_disk(rng: np.random.Generator, n: int, radius_m: float) -> np.ndarray:
    """``(n, 2)`` points, each coordinate column contiguous in memory."""
    r = radius_m * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    xy = np.empty((2, n))
    np.multiply(r, np.cos(theta), out=xy[0])
    np.multiply(r, np.sin(theta), out=xy[1])
    return xy.T


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
            for px, py in accepted:
                dx = x - px
                dy = y - py
                if dx * dx + dy * dy < min_sep_sq:
                    break
            else:
                accepted.append((x, y))
                if len(accepted) == scenario.n_bs:
                    return Layout._drawn(np.array(accepted), ue_xy)


@functools.lru_cache(maxsize=64)
def _sq_radius_bound(radius_m: float) -> float:
    """The largest double whose ``math.sqrt`` is <= ``radius_m``.

    ``sqrt`` is correctly rounded and monotone, so for every squared
    distance ``sq``, ``sq <= bound`` exactly when ``sqrt(sq) <= radius_m``.
    A NaN or negative radius bounds nothing but what it already excludes.
    """
    if not radius_m >= 0.0:
        return radius_m
    bound = radius_m * radius_m
    while math.sqrt(bound) > radius_m:
        bound = math.nextafter(bound, -math.inf)
    while bound < math.inf and math.sqrt(math.nextafter(bound, math.inf)) <= radius_m:
        bound = math.nextafter(bound, math.inf)
    return bound


def assign_serving_sets(
    layout: Layout, serving_radius_m: float, fallback_nearest: bool = True
) -> np.ndarray:
    """Boolean ``(n_ue, n_bs)`` serving mask: every BS within the radius
    (horizontal distance); a UE covered by none gets its nearest BS when
    the fallback is enabled, otherwise an empty row.

    The mask is the transposed view of a BS-major ``(n_bs, n_ue)`` array,
    the layout's own order. It equals ``layout.distance_m <=
    serving_radius_m`` bit for bit, with the fallback set at the ``argmin``
    of each uncovered row of ``layout.distance_m`` (lowest index on ties),
    and takes no square root per pair: the radius test compares squared
    distances with :func:`_sq_radius_bound`. The fallback sets every UE's
    nearest BS: a covered UE's nearest BS is already inside the radius.
    """
    sq = layout.sq_distance_m2
    if fallback_nearest and len(sq) == 1:
        return np.ones(sq.shape, dtype=bool).T  # BS 0 is every UE's nearest
    mask = sq <= _sq_radius_bound(serving_radius_m)
    if fallback_nearest:
        mask |= _nearest_bs(sq)
    return mask.T


def _nearest_bs(sq: np.ndarray) -> np.ndarray:
    """BS-major one-hot mask of each UE's nearest BS: the ``argmin`` of the
    square roots of its column of ``sq``, lowest index on ties.

    Squared distances that differ share a square root only within a
    relative 2**-51 of each other, or two steps apart below the normal
    range. So the BSs within a relative 2**-50 plus 16 such steps of a
    UE's minimum hold every BS whose square root ties the minimum's. Where
    each UE has just one, it is the nearest; otherwise, with ties or
    near-ties, the square roots settle it.
    """
    bound = np.minimum.reduce(sq, axis=0)
    bound *= 1.0 + 2.0 ** -50
    bound += 2.0 ** -1070
    near = sq <= bound
    # Each column holds its own minimum, so n_ue in all means one each.
    if np.count_nonzero(near) != near.shape[1]:
        near = np.zeros(sq.shape, dtype=bool)
        near[np.sqrt(sq).argmin(axis=0), np.arange(sq.shape[1])] = True
    return near


def effective_loss_matrix(
    scenario: Scenario, layout: Layout, links: Links
) -> tuple[np.ndarray, int]:
    """Effective loss of each served link (linear, clamped at the W = 1 floor).

    Close-in path loss over the 3-D distance, optional shadowing draw,
    minus both endpoint antenna gains, one per link in the links' order.
    The shadowing draw covers every ``(n_ue, n_bs)`` pair, so the stream
    does not depend on the links. Returns the link losses and the count of
    links that hit the clamp.
    """
    height_delta = scenario.bs_height_m - scenario.ue_height_m
    # One array carries the whole dB chain: horizontal distance (the square
    # root distance_m holds), 3-D distance, path loss, shadowing, gains,
    # clamp, linear loss.
    x = layout.sq_distance_m2.take(links.cell)
    np.sqrt(x, out=x)
    np.square(x, out=x)
    x += height_delta ** 2
    np.sqrt(x, out=x)
    np.maximum(x, 1.0, out=x)
    np.log10(x, out=x)
    np.multiply(10.0 * scenario.resolved_ple, x, out=x)
    np.add(fspl_1m_db(scenario.frequency_hz), x, out=x)
    if scenario.apply_shadowing and scenario.resolved_sigma_db > 0.0:
        z = _substream(scenario.seed, STREAM_SHADOWING).standard_normal((links.n_ue, links.n_bs))
        x += scenario.resolved_sigma_db * z[links.ue, links.bs]
    g_tx_db, g_rx_db = scenario.antenna_gains_db
    x -= g_tx_db
    x -= g_rx_db
    n_clamped = int(np.count_nonzero(x < 0.0))
    np.maximum(x, 0.0, out=x)
    x /= 10.0
    return np.power(10.0, x, out=x), n_clamped


class Links:
    """The served links of a boolean ``(n_ue, n_bs)`` serving mask, one
    ``(ue, bs)`` pair each: the drop kernels' one serving input.

    The links run BS-major, all of BS 0's first: ``Links(mask)`` enumerates
    ``mask.T``, which for a drop's mask is the layout's BS-major array, no
    copy. ``cell`` is each link's index into that geometry; a dense
    ``(n_ue, n_bs)`` matrix gives each link its value as
    ``dense[links.ue, links.bs]``.

    ``per_ue`` and ``per_bs`` sum a link array per UE and per BS in link
    order, first link first, as ``np.bincount`` adds. Within one UE the
    links run by BS and within one BS by UE, as in the mask's row-major
    order, so the sums are those of either order. That order is the
    model's, not numpy's for a dense ``(n_ue, n_bs)`` sum, which may
    differ in the last bits.
    """

    def __init__(self, serving_mask: np.ndarray) -> None:
        mask = serving_mask
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.ndim == 2):
            is_array = isinstance(mask, np.ndarray)
            kind = f"a {mask.ndim}-D {mask.dtype} array" if is_array else type(mask).__name__
            raise ValueError(f"serving mask must be a 2-D boolean array, got {kind}")
        by_bs = mask.T
        self.n_bs, self.n_ue = by_bs.shape
        self.cell = np.flatnonzero(by_bs)
        self.bs, self.ue = np.divmod(self.cell, self.n_ue)

    def __len__(self) -> int:
        return self.cell.size

    # bincount returns integer zeros when there are no links.
    def per_ue(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.ue, weights=values, minlength=self.n_ue).astype(float, copy=False)

    def per_bs(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.bs, weights=values, minlength=self.n_bs).astype(float, copy=False)


@record
@dataclass(frozen=True, eq=False)
class PowerControlResult:
    p_tx_w: np.ndarray        # (n_links,), one per served link in link order
    p_tx_bs_w: np.ndarray     # (n_bs,), p_tx_w summed per BS in link order
    p_rx_link_w: np.ndarray   # (n_links,)
    p_rx_ue_w: np.ndarray     # (n_ue,)
    snr_db: np.ndarray        # (n_ue,), -inf for unserved UEs
    n_capped_links: int
    n_budget_limited_bs: int


def power_control(link_loss_w: np.ndarray, links: Links, scenario: Scenario) -> PowerControlResult:
    """Set per-link transmit powers so each UE's combined (non-coherent)
    received power hits the SNR target.

    ``link_loss_w`` holds one effective loss per link of ``links``, in
    their order (``l_eff_w[links.ue, links.bs]`` of a dense loss matrix).
    Equal allocation splits one transmit level across a UE's serving
    links; proportional allocation loads better links harder (p_tx
    proportional to the link gain). Each link then clips to the per-link
    cap, and any BS whose summed load exceeds its budget has all its links
    scaled down proportionally. SNR is recomputed after both.
    """
    # Scenario.target_rx_power_w, with the noise power kept for the SNR.
    noise_w = scenario.noise_power_w
    target = noise_w * db_to_linear(scenario.target_snr_db)
    cap_w = dbm_to_watts(scenario.per_link_cap_dbm)
    budget_w = dbm_to_watts(scenario.per_bs_budget_dbm)
    with np.errstate(divide="ignore", over="ignore"):
        inv_l = 1.0 / link_loss_w
        if scenario.power_allocation == "equal":
            denom = links.per_ue(inv_l)
            per_ue = np.divide(target, denom, out=np.zeros_like(denom), where=denom > 0.0)
            p_tx = per_ue[links.ue]
        else:
            denom = links.per_ue(np.square(inv_l))
            scale = np.divide(target, denom, out=np.zeros_like(denom), where=denom > 0.0)
            p_tx = scale[links.ue] * inv_l
        n_capped = int(np.count_nonzero(p_tx > cap_w))
        np.minimum(p_tx, cap_w, out=p_tx)

        bs_load = links.per_bs(p_tx)
        over_budget = bs_load > budget_w
        n_budget_limited = 0
        if over_budget.any():  # otherwise every BS scale is 1.0
            bs_scale = np.where(over_budget, budget_w / np.maximum(bs_load, 1e-300), 1.0)
            n_budget_limited = int(np.count_nonzero(bs_scale < 1.0))
            p_tx *= bs_scale[links.bs]
            bs_load = links.per_bs(p_tx)

        p_rx_link = np.multiply(p_tx, inv_l, out=inv_l)
        p_rx_ue = links.per_ue(p_rx_link)
        snr_db = 10.0 * np.log10(p_rx_ue / noise_w)
    return PowerControlResult(
        p_tx_w=p_tx,
        p_tx_bs_w=bs_load,
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
    scenario: Scenario, links: Links, link_loss_w: np.ndarray, n_clamped_links: int = 0
) -> DropResult:
    """Score an explicit link realization (served links + link losses).

    ``links`` are the :class:`Links` of a serving mask, such as the one of
    :func:`assign_serving_sets`, and ``link_loss_w`` the effective loss of
    each link in their order, i.e. ``l_eff_w[links.ue, links.bs]`` of a
    dense loss matrix. This is the composition core behind
    :func:`evaluate_drop`; driving it directly with hand-built links gives
    deterministic reference cases. Per-UE SNRs are
    ``power_control(...).snr_db``.
    """
    if (links.n_ue, links.n_bs) != (scenario.n_ue, scenario.n_bs):
        raise ValueError(
            f"serving mask has shape {(links.n_ue, links.n_bs)} but the scenario declares "
            f"{scenario.n_ue} UEs and {scenario.n_bs} BSs"
        )
    if np.shape(link_loss_w) != (len(links),):
        raise ValueError(
            f"link losses have shape {np.shape(link_loss_w)} but the serving mask "
            f"holds {len(links)} links; pass one loss per link, l_eff_w[links.ue, links.bs]"
        )
    pc = power_control(link_loss_w, links, scenario)

    total_rx = pc.p_rx_ue_w.sum()
    if total_rx <= 0.0:
        raise ValueError("no UE receives any power; cannot reference a system W")
    # Per BS first: the same bits in either link order.
    p_tx_total = pc.p_tx_bs_w.sum()
    # Branch cascade per link, core.refer(w_bs, l, g_c) with g_c = 1 / l: the
    # effective channel stage plus the BS stage behind it, referenced to the
    # link's received power, written out on the link arrays in refer's
    # operand order. Then the per-UE MISO group and the imaginary-sink
    # first stage, both received-power-weighted means, so the first stage
    # collapses into a single sum over links. What overflows is caught by
    # the finite check below.
    with np.errstate(all="ignore"):
        w_cascade = np.divide(1.0, link_loss_w)
        np.divide(scenario.w_bs - 1.0, w_cascade, out=w_cascade)
        np.add(link_loss_w, w_cascade, out=w_cascade)
        consumed_per_ue = links.per_ue(np.multiply(pc.p_rx_link_w, w_cascade, out=w_cascade))
        w_mino1 = consumed_per_ue.sum() / total_rx
        g_ue = db_to_linear(scenario.g_ue_db)
        w_system = mino_compose(w_mino1, scenario.w_ue, g_ue)
        p_system_out = g_ue * total_rx
        p_path = w_system * p_system_out
    p_non_path = scenario.n_bs * scenario.p_non_path_bs_w + scenario.n_ue * scenario.p_non_path_ue_w

    area_km2 = math.pi * (scenario.region_radius_m / 1000.0) ** 2
    p_path_per_km2 = p_path / area_km2
    p_non_path_per_km2 = p_non_path / area_km2
    p_total_per_km2 = p_path_per_km2 + p_non_path_per_km2
    if not (math.isfinite(w_system) and math.isfinite(p_total_per_km2)):
        raise ValueError(
            f"w_system = {w_system} with {p_total_per_km2} W/km^2 in total is not finite; "
            "the scenario's losses and waste factors overflow a float"
        )

    # Independent bottom-up audit: system output plus every waste term,
    # from per-link quantities only.
    channel_waste = p_tx_total - total_rx
    bs_waste = (scenario.w_bs - 1.0) * p_tx_total
    ue_waste = (scenario.w_ue - 1.0) * g_ue * total_rx
    bottom_up = p_system_out + channel_waste + bs_waste + ue_waste
    audit_rel_error = abs(bottom_up - p_path) / p_path

    served = pc.p_rx_ue_w > 0.0
    n_unserved = int(np.count_nonzero(~served))
    snr_served = pc.snr_db[served]
    meeting = np.count_nonzero(pc.snr_db >= scenario.target_snr_db - 1e-9)
    return DropResult(
        wf_system_db=10.0 * math.log10(w_system),
        w_system=float(w_system),
        p_total_per_km2_w=float(p_total_per_km2),
        p_signal_path_per_km2_w=float(p_path_per_km2),
        p_non_path_per_km2_w=float(p_non_path_per_km2),
        mean_snr_db=float(snr_served.sum() / snr_served.size),
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
    links = Links(mask)  # mask.T is the layout's BS-major array: no copy
    link_loss_w, n_clamped = effective_loss_matrix(scenario, layout, links)
    del layout  # frees the squared distances before power control
    return evaluate_links(scenario, links, link_loss_w, n_clamped_links=n_clamped)


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
    omni_per_link_cap_dbm: float = 30.0

    def __post_init__(self) -> None:
        require_finite(self)
        require_integers(self)
        if not self.frequencies_hz or not self.antenna_modes or not self.n_bs_values:
            raise ValueError("campaign grid axes must be non-empty")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")


@record
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
    """Grid cells in deterministic order (frequency, mode, n_bs, seed).

    Each cell is ``base`` with ``frequency_hz``, ``antenna_mode``, ``n_bs``
    and ``seed`` set from the grid, ``ple`` and ``sigma_db`` reset to the
    band presets, and, in omni cells, ``per_link_cap_dbm`` set to the
    campaign's omni cap; every other field of ``base`` carries over.

    This is where a grid is checked: each (frequency, mode, n_bs) cell is
    built once from ``base`` with the first seed, so ``Scenario``'s rules
    run on the real cell, and the first cell is built once more with the
    last seed. A ``ValueError`` names the failing cell, the band presets
    or the seed range. The seed variants are copies with only ``seed`` set.
    """
    first = campaign.base_seed
    last = first + campaign.n_seeds - 1
    cells = []
    for frequency_hz in campaign.frequencies_hz:
        for mode in campaign.antenna_modes:
            cap = campaign.omni_per_link_cap_dbm if mode == OMNI else base.per_link_cap_dbm
            for n_bs in campaign.n_bs_values:
                try:
                    cell = replace(base, frequency_hz=frequency_hz, antenna_mode=mode, n_bs=n_bs,
                                   per_link_cap_dbm=cap, ple=None, sigma_db=None, seed=first)
                    if not cells:
                        replace(cell, seed=last)
                except _BadSeed as exc:
                    raise ValueError(
                        f"{exc}; the grid's {campaign.n_seeds} seeds run from {first} to {last}"
                    ) from None
                except ValueError as exc:
                    message = str(exc)
                    if isinstance(exc, _NoPreset):
                        message = (
                            f"no path-loss preset for {frequency_hz/1e9:g} GHz; grid cells take "
                            f"ple and sigma_db from the band presets, which cover {_known_bands()}"
                        )
                    raise ValueError(
                        f"{message}; in the {frequency_hz/1e9:g} GHz {mode} {n_bs}-BS grid cell"
                    ) from None
                for seed in range(first, last + 1):
                    copy = object.__new__(Scenario)
                    copy.__dict__.update(cell.__dict__, seed=seed)
                    cells.append(copy)
    return cells


def run_campaign(
    base: Scenario, campaign: CampaignSpec, jobs: int | None = None
) -> tuple[list[DropRow], list[AggregateRow]]:
    """Evaluate the whole grid, optionally fanning drops across processes.

    The grid sets the base scenario's frequency, antenna mode, BS count,
    seed, path-loss exponent and shadowing sigma in every cell, and its
    per-link cap in omni cells; see :func:`campaign_scenarios`.

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
        with ProcessPoolExecutor(max_workers=min(jobs, len(scenarios))) as pool:
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
        with np.errstate(over="ignore"):  # a sum past the float range is caught below
            w_mean = float(np.mean(w_linear))
            p_total_mean = float(np.mean(p_total))
        if not (math.isfinite(w_mean) and math.isfinite(p_total_mean)):
            raise ValueError(
                f"the seed means of W ({w_mean}) and of the total power ({p_total_mean} W/km^2) "
                f"at {head.frequency_ghz:g} GHz, {head.antenna_mode}, {head.n_bs} BSs "
                "must be finite; the scenario's waste factors overflow a float"
            )
        aggregates.append(
            AggregateRow(
                frequency_ghz=head.frequency_ghz,
                antenna_mode=head.antenna_mode,
                n_bs=head.n_bs,
                wf_mean_db=10.0 * math.log10(w_mean),
                wf_std_db=float(np.std(wf_db)),
                p_total_mean_kw_per_km2=p_total_mean / 1000.0,
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
