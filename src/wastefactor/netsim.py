"""Seeded Monte-Carlo simulator of a distributed MU-MIMO downlink.

One drop: place base stations (uniform in a disk, minimum-separation
rejection sampling) and user equipments (uniform), assign each UE the
BSs inside its serving radius (nearest-BS fallback when none), run
per-UE power control to an SNR target under per-link and per-BS caps,
then collapse the whole network into a single waste factor:

* per link, the BS stage and its effective channel (the close-in model
  of ``channel``) form one branch cascade, W = W_bs * L; per UE, the
  serving branches combine non-coherently into a MISO group; an
  imaginary sink sums all UE outputs non-coherently. Every BS has the
  same W_bs, so this first stage is two sums, W_bs * P_tx / P_rx over
  the whole network;
* the two-stage composition W_system = W_ue + (W_first_stage - 1)/G_ue
  yields one system-level number, plus area-normalized power totals.

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

import math
import numbers
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import (BS_APERTURE, UE_APERTURE, PathLossModel, aperture_gain_db, band_preset,
                      fspl_1m_db, noise_power_dbm, path_loss_db)
from .core import refer
from .units import db_to_linear, dbm_to_watts, require_finite, require_integers

OMNI = "omni"
DIRECTIONAL = "directional"

STREAM_UE_LAYOUT = 1
STREAM_BS_LAYOUT = 2
STREAM_SHADOWING = 3

_MAX_PLACEMENT_ATTEMPTS = 100_000
# A linear loss 10 ** (dB / 10) overflows a float past about 3082.5 dB. The
# close-in loss of the longest link stays under a 3000 dB ceiling, which
# leaves 82.5 dB for a shadowing draw: a 9-sigma draw of every band preset
# fits (9 * 8.98 = 80.8 dB at 28 GHz), and a test keeps it so.
_MAX_PATH_LOSS_DB = 3000.0
# A layout of at least this many UE-BS pairs, BSs and UEs per row runs its
# two broadcast subtractions with numpy's ufunc buffer shrunk to one UE row
# and squares dy in a scratch array kept per thread, so it allocates one
# dense array. At numpy's default of 8192 elements the buffer spans several
# rows and numpy copies the BS column into it: a 20 x 1024 subtraction took
# 16 us instead of 5 us (numpy 2.4.6). Fewer pairs, 1-3 BSs or shorter rows
# ran up to 3x slower in the shrunk form (BSs x UEs: 1 x 4096, 2 x 2048,
# 20 x 64 and 1000 x 8 among them).
_DENSE_PAIRS = 4096
_DENSE_MIN_BS = 4
_DENSE_MIN_ROW = 96


class LinkBudget(NamedTuple):
    """What every drop of a :class:`Scenario` reads and no seed changes."""

    band: PathLossModel                    # the frequency's channel.BAND_PRESETS entry
    height_delta_m: float                  # BS height minus UE height
    loss_scale: float                      # 1 m anchor loss over both antenna gains, linear
    noise_power_w: float                   # UE noise floor
    target_rx_power_w: float               # received power at the SNR target
    per_link_cap_w: float
    per_bs_budget_w: float
    g_ue: float                            # UE gain, linear


@dataclass(frozen=True)
class Scenario:
    """Simulation configuration; defaults reproduce the reference setup.

    Building a scenario derives its :class:`LinkBudget` once, as
    ``link_budget``. That is not a field: ``==``, ``hash``, ``repr`` and
    the ``[scenario]`` keys ignore it, ``replace`` derives it anew, and the
    seed copies of :func:`campaign_scenarios` share their cell's. Each of
    its linear values must be finite and > 0, or fails here naming its key:
    0 W would starve every link, and an infinite target cap every link.
    """

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
        band = band_preset(self.frequency_hz)
        longest_m = math.hypot(2.0 * radius, height_delta)
        loss_db = path_loss_db(band, longest_m)
        if loss_db > _MAX_PATH_LOSS_DB:
            raise ValueError(
                f"region_radius_m = {radius} gives links of up to {longest_m:g} m, whose "
                f"close-in path loss of {loss_db:.1f} dB passes the "
                f"{_MAX_PATH_LOSS_DB:g} dB ceiling of a linear loss"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        noise_inputs = (f"ue_noise_figure_db = {self.ue_noise_figure_db} with a "
                        f"{self.bandwidth_hz / 1e6:g} MHz bandwidth gives a noise power")
        noise_power_w = _linear(f"{noise_inputs}:", dbm_to_watts,
                                noise_power_dbm(self.bandwidth_hz, self.ue_noise_figure_db))
        g_bs_db, g_ue_db = (0.0, 0.0) if self.antenna_mode == OMNI else (
            aperture_gain_db(a, self.frequency_hz) for a in (BS_APERTURE, UE_APERTURE))
        # One attribute, not eight: CPython 3.11 shares an instance's attribute
        # table with its class up to 29 names; past that, each scenario of a
        # grid would hold a 1.6 KB dict of its own.
        budget = self.__dict__["link_budget"] = LinkBudget(
            band=band, height_delta_m=height_delta, noise_power_w=noise_power_w,
            loss_scale=db_to_linear(fspl_1m_db(self.frequency_hz) - g_bs_db - g_ue_db),
            target_rx_power_w=noise_power_w * _linear(
                "target_snr_db =", db_to_linear, self.target_snr_db),
            per_link_cap_w=_linear("per_link_cap_dbm =", dbm_to_watts, self.per_link_cap_dbm),
            per_bs_budget_w=_linear("per_bs_budget_dbm =", dbm_to_watts, self.per_bs_budget_dbm),
            g_ue=_linear("g_ue_db =", db_to_linear, self.g_ue_db),
        )
        for value, named in (  # formatted only on failure
            (noise_power_w, "{noise} of {v:g} W"),
            (budget.target_rx_power_w, "target_snr_db = {s.target_snr_db} over a noise power of "
             "{s.link_budget.noise_power_w:g} W gives a target received power of {v:g} W"),
            (budget.per_link_cap_w, "per_link_cap_dbm = {s.per_link_cap_dbm} gives {v:g} W"),
            (budget.per_bs_budget_w, "per_bs_budget_dbm = {s.per_bs_budget_dbm} gives {v:g} W"),
            (budget.g_ue, "g_ue_db = {s.g_ue_db} gives a linear gain of {v:g}"),
        ):
            if not 0.0 < value < math.inf:
                raise ValueError(named.format(s=self, v=value, noise=noise_inputs))


def _linear(named: str, convert, value: float) -> float:
    """``convert(value)``; a value whose linear form overflows fails with
    ``named`` before its message, e.g. ``g_ue_db = 1e+308 dB is too large``."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{named} {exc}") from None


@dataclass(frozen=True, eq=False)
class Layout:
    """BS and UE positions and their squared horizontal distances.

    ``sq_distance_m2`` is BS-major, one row of ``dx*dx + dy*dy`` per BS
    over every UE: each pass over the geometry runs along long contiguous
    UE rows, and the first ``k`` rows are the geometry of the first ``k``
    BSs.

    Built by a caller, each coordinate argument is copied into a float
    array and checked first: it must have shape ``(n, 2)`` with ``n >= 1``
    and hold finite values, since a NaN distance would fail every radius
    test and still win the nearest-BS argmin. The copy keeps a later write
    to the caller's array out of the frozen layout. :func:`generate_layout`
    skips the copy and the checks, because coordinates drawn inside the
    scenario's finite disk are finite ``(n, 2)`` arrays it owns. Its
    layouts are shared: each thread keeps the last one it drew and hands
    it, or views of its first rows, to later calls. So the three arrays of
    a drawn layout are read-only, and a write into one raises
    ``ValueError``. A caller's layout is never kept.

    A layout that reaches every ``_DENSE_*`` bound squares its ``dy`` in scratch
    memory kept per thread: one float array the size of the largest such
    layout the thread has built, reused by the next.
    """

    bs_xy_m: np.ndarray  # (n_bs, 2)
    ue_xy_m: np.ndarray  # (n_ue, 2)
    sq_distance_m2: np.ndarray = field(init=False, repr=False)  # (n_bs, n_ue), horizontal

    def __init__(self, bs_xy_m: np.ndarray, ue_xy_m: np.ndarray) -> None:
        checked = []
        for name, xy in (("bs_xy_m", bs_xy_m), ("ue_xy_m", ue_xy_m)):
            xy = np.array(xy, dtype=float)
            if xy.ndim != 2 or xy.shape[0] < 1 or xy.shape[1] != 2:
                raise ValueError(f"{name} must have shape (n, 2) with n >= 1, got {xy.shape}")
            if not np.isfinite(xy).all():
                raise ValueError(f"{name} must hold finite coordinates")
            checked.append(xy)
        self._store(*checked)

    @classmethod
    def _drawn(cls, bs_xy_m: np.ndarray, ue_xy_m: np.ndarray) -> Layout:
        layout = object.__new__(cls)
        layout._store(bs_xy_m, ue_xy_m)
        for xy in layout.__dict__.values():
            xy.setflags(write=False)  # what flags.writeable = False does, at half its cost
        return layout

    def _store(self, bs_xy_m: np.ndarray, ue_xy_m: np.ndarray) -> None:
        n_bs, n_ue = len(bs_xy_m), len(ue_xy_m)
        n_pairs = n_bs * n_ue
        if n_pairs < _DENSE_PAIRS or n_bs < _DENSE_MIN_BS or n_ue < _DENSE_MIN_ROW:
            d = np.subtract(ue_xy_m[:, 0], bs_xy_m[:, 0, None], dtype=float)
            d *= d
            dy = np.subtract(ue_xy_m[:, 1], bs_xy_m[:, 1, None], dtype=float)
        else:
            scratch = getattr(_THREAD, "dy", None)
            if scratch is None or scratch.size < n_pairs:
                scratch = _THREAD.dy = np.empty(n_pairs)
            dy = scratch[:n_pairs].reshape(n_bs, n_ue)
            d = np.empty((n_bs, n_ue))
            # One UE row rounded down to a multiple of 16, which numpy 2.4
            # requires, from 16 up to numpy's default of 8192 (numpy 1.x takes
            # nothing past 1e7). The finally restores the caller's size:
            # numpy 1.x's errstate would not.
            callers_bufsize = np.setbufsize(16 * min(max(n_ue // 16, 1), 512))
            try:
                np.subtract(ue_xy_m[:, 0], bs_xy_m[:, 0, None], out=d)
                np.subtract(ue_xy_m[:, 1], bs_xy_m[:, 1, None], out=dy)
            finally:
                np.setbufsize(callers_bufsize)
            d *= d
        dy *= dy
        d += dy
        fields = self.__dict__
        fields["bs_xy_m"] = bs_xy_m
        fields["ue_xy_m"] = ue_xy_m
        fields["sq_distance_m2"] = d


class DropResult(NamedTuple):
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
_NO_LAYOUT = (None, None)  # the per-thread layout cache's empty (key, layout) entry
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
    """``(n, 2)`` points, each coordinate column contiguous in memory.

    One draw of ``2 * n`` doubles, the n radii and then the n angles: the
    doubles of two ``rng.random(n)`` calls, since Philox is counter-based.
    """
    return _disk_points(rng.random(2 * n).reshape(2, n), radius_m).T


def _disk_points(u: np.ndarray, radius_m: float) -> np.ndarray:
    """``(2, n)`` x and y rows from a ``(2, n)`` block of uniform doubles,
    radii in row 0 and angles in row 1, which it overwrites:
    ``r = radius_m * sqrt(u0)``, ``theta = 2 pi u1``, ``(r cos, r sin)``."""
    r, theta = u
    np.sqrt(r, out=r)
    r *= radius_m
    theta *= 2.0 * np.pi
    xy = np.empty(u.shape)
    np.cos(theta, out=xy[0])
    np.sin(theta, out=xy[1])
    xy *= r
    return xy


def generate_layout(scenario: Scenario) -> Layout:
    """Place UEs and BSs in the disk; BS placement is a hard-core process.

    BS candidates come from the BS substream in blocks of interleaved
    (radius, angle) pairs, each pair the two doubles one
    ``_uniform_disk(rng, 1, R)`` call would draw, and are accepted one by
    one in draw order; unused candidates at the end of the last block
    feed nothing else. So the layout of ``k`` BSs is the first ``k`` BSs of
    any larger layout of the same seed, and its squared distances are the
    first ``k`` rows of that layout's.

    Each thread keeps the last layout it drew, keyed by what a layout
    depends on: the seed, ``n_ue``, ``region_radius_m`` and
    ``min_bs_separation_m``. A call with that key and at most the kept BS
    count returns the kept layout, or one whose arrays are views of its
    first ``n_bs`` rows; with more BSs it keeps the UEs and draws the BSs
    again. Any other call draws anew, and drops the kept layout before it
    allocates. A drawn layout's arrays are read-only, since later calls
    share them.
    """
    key = (scenario.seed, scenario.n_ue, scenario.region_radius_m, scenario.min_bs_separation_m)
    kept_key, kept = getattr(_THREAD, "layout", _NO_LAYOUT)
    ue_xy = None
    if kept_key == key:
        n_kept = len(kept.bs_xy_m)
        n_bs = scenario.n_bs
        if n_bs == n_kept:
            return kept
        if n_bs < n_kept:
            view = object.__new__(Layout)
            view.__dict__.update(bs_xy_m=kept.bs_xy_m[:n_bs], ue_xy_m=kept.ue_xy_m,
                                 sq_distance_m2=kept.sq_distance_m2[:n_bs])
            return view
        ue_xy = kept.ue_xy_m
    # Let the kept layout go before allocating: a miss peaks as a cold drop does.
    _THREAD.layout = _NO_LAYOUT
    del kept
    if ue_xy is None:
        ue_xy = _uniform_disk(
            _substream(scenario.seed, STREAM_UE_LAYOUT), scenario.n_ue, scenario.region_radius_m
        )
    rng = _substream(scenario.seed, STREAM_BS_LAYOUT)
    accepted: list[tuple[float, float]] = []
    min_sep_sq = scenario.min_bs_separation_m ** 2
    attempts = 0
    while True:
        candidates = _disk_points(rng.random((4 * scenario.n_bs, 2)).T, scenario.region_radius_m)
        for x, y in zip(*candidates.tolist()):
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
                    layout = Layout._drawn(np.array(accepted), ue_xy)
                    _THREAD.layout = key, layout
                    return layout


def assign_serving_sets(
    layout: Layout, serving_radius_m: float, fallback_nearest: bool = True
) -> np.ndarray:
    """Boolean ``(n_ue, n_bs)`` serving mask: every BS within the radius
    (horizontal distance); a UE covered by none gets its nearest BS when
    the fallback is enabled, otherwise an empty row.

    The mask is the transposed view of a BS-major ``(n_bs, n_ue)`` array,
    the layout's own order, and is decided on squared distances with no
    square root: a BS serves a UE when ``sq_distance_m2 <= radius ** 2``,
    and a negative or NaN radius serves no pair. The fallback sets each
    UE's nearest BS, the one of smallest squared distance (lowest index on
    exact ties): a covered UE's nearest BS is already inside the radius.
    """
    sq = layout.sq_distance_m2
    if fallback_nearest and len(sq) == 1:
        return np.ones(sq.shape, dtype=bool).T  # BS 0 is every UE's nearest
    # A negative radius gives a negative square, below every squared distance.
    mask = sq <= serving_radius_m * abs(serving_radius_m)
    if fallback_nearest:
        mask |= _nearest_bs(sq)
    return mask.T


def _nearest_bs(sq: np.ndarray) -> np.ndarray:
    """BS-major one-hot mask of each UE's nearest BS: the ``argmin`` of its
    column of squared distances ``sq``, lowest index on exact ties."""
    near = sq == np.minimum.reduce(sq, axis=0)
    # Each column holds its own minimum, so n_ue in all means no ties.
    if np.count_nonzero(near) != near.shape[1]:
        near = np.zeros(sq.shape, dtype=bool)
        near[sq.argmin(axis=0), np.arange(sq.shape[1])] = True
    return near


def effective_loss_matrix(
    scenario: Scenario, layout: Layout, links: Links
) -> tuple[np.ndarray, int]:
    """Effective loss of each served link (linear, clamped at the W = 1 floor).

    The close-in loss (Sun et al., IEEE TVT 2016) in linear units,
    ``loss_scale * max(d3 ** 2, 1) ** (ple / 2)``, with ``d3 ** 2`` the
    squared horizontal distance plus the squared height difference and
    ``loss_scale`` the anchor loss over both antenna gains
    (:class:`LinkBudget`); with shadowing, times
    ``exp(sigma_db * ln(10) / 10 * z)``. One per link in the links' order.
    The shadowing draw covers every ``(n_ue, n_bs)`` pair, so the stream
    does not depend on the links. Returns the link losses and the count of
    links below 1 that the clamp raised to it.
    """
    link_budget = scenario.link_budget
    band = link_budget.band
    height_sq = link_budget.height_delta_m ** 2
    loss = layout.sq_distance_m2.take(links.cell)
    loss += height_sq
    if height_sq < 1.0:  # otherwise every d3 ** 2 is at least 1
        np.maximum(loss, 1.0, out=loss)
    np.power(loss, band.ple / 2.0, out=loss)
    loss *= link_budget.loss_scale
    if scenario.apply_shadowing and band.sigma_db > 0.0:
        z = _substream(scenario.seed, STREAM_SHADOWING).standard_normal((links.n_ue, links.n_bs))
        ue_major = links.ue * links.n_bs
        ue_major += links.bs
        shadow = z.take(ue_major)
        shadow *= band.sigma_db * math.log(10.0) / 10.0
        loss *= np.exp(shadow, out=shadow)
    elif link_budget.loss_scale * max(height_sq, 1.0) ** (band.ple / 2.0) >= 1.0 + 1e-9:
        # The lowest loss any d3 gives clears 1 by more than the rounding of
        # the power and the product: no link is below the floor.
        return loss, 0
    n_clamped = int(np.count_nonzero(loss < 1.0))
    return np.maximum(loss, 1.0, out=loss), n_clamped


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
        self.cell = by_bs.reshape(-1).nonzero()[0]
        self.bs = self.cell // self.n_ue
        self.ue = self.cell - self.bs * self.n_ue

    def __len__(self) -> int:
        return self.cell.size

    # bincount returns integer zeros when there are no links.
    def per_ue(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.ue, weights=values, minlength=self.n_ue).astype(float, copy=False)

    def per_bs(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.bs, weights=values, minlength=self.n_bs).astype(float, copy=False)


class PowerControlResult(NamedTuple):
    p_tx_w: np.ndarray        # (n_links,), one per served link in link order
    p_tx_bs_w: np.ndarray     # (n_bs,), p_tx_w summed per BS in link order
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
    link_budget = scenario.link_budget
    noise_w, target = link_budget.noise_power_w, link_budget.target_rx_power_w
    cap_w, budget_w = link_budget.per_link_cap_w, link_budget.per_bs_budget_w
    with np.errstate(divide="ignore", over="ignore"):
        inv_l = 1.0 / link_loss_w
        if scenario.power_allocation == "equal":
            # A UE with a link has a sum > 0; the others are never gathered.
            p_tx = (target / links.per_ue(inv_l))[links.ue]
        else:
            denom = links.per_ue(np.square(inv_l))
            scale = target / denom
            if not denom.all():  # squares that underflowed, or UEs with no link
                scale[denom == 0.0] = 0.0
            p_tx = scale[links.ue]
            p_tx *= inv_l
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

        p_rx_ue = links.per_ue(np.multiply(p_tx, inv_l, out=inv_l))
        snr_db = p_rx_ue / noise_w
        np.log10(snr_db, out=snr_db)
        snr_db *= 10.0
    return PowerControlResult(
        p_tx_w=p_tx,
        p_tx_bs_w=bs_load,
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
    y = x.copy()
    y.partition(sorted({-1, 0, lo, lo + 1}))
    a, b = y[lo : lo + 2].tolist()
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
    link_loss_w = np.asarray(link_loss_w, dtype=float)
    if link_loss_w.shape != (len(links),):
        raise ValueError(
            f"link losses have shape {link_loss_w.shape} but the serving mask "
            f"holds {len(links)} links; pass one loss per link, l_eff_w[links.ue, links.bs]"
        )
    if len(links):
        lo, hi = np.minimum.reduce(link_loss_w), np.maximum.reduce(link_loss_w)
        if not (lo >= 1.0 and hi < math.inf):  # NaN fails
            raise ValueError(
                f"link losses must be finite and >= 1 (the W = 1 floor); got {lo} to {hi}"
            )
    pc = power_control(link_loss_w, links, scenario)

    total_rx = float(np.add.reduce(pc.p_rx_ue_w))
    if total_rx <= 0.0:
        raise ValueError("no UE receives any power; cannot reference a system W")
    # Per BS first: the same bits in either link order.
    p_tx_total = float(np.add.reduce(pc.p_tx_bs_w))
    # Each branch cascade is core.refer(w_bs, l, 1 / l) = w_bs * l, and the
    # MISO groups and the sink's first stage are received-power-weighted
    # means, so the first stage is w_bs * P_tx / P_rx. Losses >= 1 give
    # P_tx >= P_rx; the floor undoes the rounding of sums added in other
    # orders. The UE terminates it as in parallel.mino_compose, whose operand
    # checks Scenario makes. These overflow to inf, caught by the finite check.
    g_ue = scenario.link_budget.g_ue
    w_system = refer(scenario.w_bs * max(p_tx_total / total_rx, 1.0), scenario.w_ue, g_ue)
    p_system_out = g_ue * total_rx
    if p_system_out == 0.0:
        raise ValueError(f"g_ue_db = {scenario.g_ue_db} makes the system output underflow to 0 W")
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

    # Bottom-up audit: system output plus every waste term. With the first
    # stage as two sums this ledger and p_path are two forms of one
    # identity, so it checks rounding; the composition law itself is
    # checked against core and parallel by the tests.
    channel_waste = p_tx_total - total_rx
    bs_waste = (scenario.w_bs - 1.0) * p_tx_total
    ue_waste = (scenario.w_ue - 1.0) * g_ue * total_rx
    bottom_up = p_system_out + channel_waste + bs_waste + ue_waste
    audit_rel_error = abs(bottom_up - p_path) / p_path

    served = pc.p_rx_ue_w > 0.0
    n_unserved = scenario.n_ue - int(np.count_nonzero(served))
    snr_served = pc.snr_db[served]
    meeting = np.count_nonzero(pc.snr_db >= scenario.target_snr_db - 1e-9)
    return DropResult(
        wf_system_db=10.0 * math.log10(w_system),
        w_system=float(w_system),
        p_total_per_km2_w=float(p_total_per_km2),
        p_signal_path_per_km2_w=float(p_path_per_km2),
        p_non_path_per_km2_w=float(p_non_path_per_km2),
        mean_snr_db=float(np.add.reduce(snr_served) / snr_served.size),
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
        for axis, values, named in (("frequency", self.frequencies_hz, lambda f: f"{f / 1e9:g} GHz"),
                                    ("antenna mode", self.antenna_modes, str),
                                    ("BS count", self.n_bs_values, str)):
            seen = set()
            for value in values:
                if value in seen:  # its cells would run twice and write their rows twice
                    raise ValueError(f"the {axis} axis repeats {named(value)}; "
                                     "each grid value may appear once")
                seen.add(value)
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        first, last = self.base_seed, self.base_seed + self.n_seeds - 1
        if first < 0 or last >= 2 ** 64:
            bad = first if first < 0 else last
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {bad}; "
                             f"the grid's {self.n_seeds} seeds run from {first} to {last}")
        if not _linear("omni_per_link_cap_dbm =", dbm_to_watts, self.omni_per_link_cap_dbm) > 0.0:
            raise ValueError(f"omni_per_link_cap_dbm = {self.omni_per_link_cap_dbm} gives 0 W")


class DropRow(NamedTuple):
    frequency_ghz: float
    antenna_mode: str
    n_bs: int
    seed: int
    result: DropResult


class AggregateRow(NamedTuple):
    frequency_ghz: float
    antenna_mode: str
    n_bs: int
    wf_mean_db: float   # mean taken over linear W, then converted
    wf_std_db: float    # std of the per-seed dB values
    p_total_mean_kw_per_km2: float


def campaign_scenarios(base: Scenario, campaign: CampaignSpec) -> list[Scenario]:
    """Grid cells in deterministic order (frequency, mode, n_bs, seed).

    Each cell is ``base`` with ``frequency_hz``, ``antenna_mode``, ``n_bs``
    and ``seed`` set from the grid and, in omni cells, ``per_link_cap_dbm``
    set to the campaign's omni cap; every other field of ``base`` carries
    over. The seed variants of a cell :func:`_grid_cells` checked are
    copies with only ``seed`` set: they share the cell's ``link_budget``.
    """
    first = campaign.base_seed
    cells = []
    for cell in _grid_cells(base, campaign):
        for seed in range(first, first + campaign.n_seeds):
            copy = object.__new__(Scenario)
            copy.__dict__.update(cell.__dict__, seed=seed)
            cells.append(copy)
    return cells


def _grid_cells(base: Scenario, campaign: CampaignSpec) -> Iterator[Scenario]:
    """Where a grid's cells are checked: each (frequency, mode, n_bs) cell
    is built once from ``base`` with the first seed, so ``Scenario``'s rules
    run on the real cell, and a ``ValueError`` names the failing cell.
    ``CampaignSpec`` has already checked the seed range and the omni cap."""
    for frequency_hz in campaign.frequencies_hz:
        for mode in campaign.antenna_modes:
            cap = campaign.omni_per_link_cap_dbm if mode == OMNI else base.per_link_cap_dbm
            for n_bs in campaign.n_bs_values:
                try:
                    cell = replace(base, frequency_hz=frequency_hz, antenna_mode=mode, n_bs=n_bs,
                                   per_link_cap_dbm=cap, seed=campaign.base_seed)
                except ValueError as exc:
                    raise ValueError(
                        f"{exc}; in the {frequency_hz/1e9:g} GHz {mode} {n_bs}-BS grid cell"
                    ) from None
                yield cell


def run_campaign(
    base: Scenario, campaign: CampaignSpec, jobs: int | None = None
) -> tuple[list[DropRow], list[AggregateRow]]:
    """Evaluate the whole grid, optionally fanning drops across processes.

    The grid sets the base scenario's frequency, antenna mode, BS count
    and seed in every cell, and its per-link cap in omni cells; see
    :func:`campaign_scenarios`.

    The drops run seed by seed, and within a seed by BS count, largest
    first (ties in grid order), so each seed's layout is drawn once and its
    smaller BS counts are views of it (:func:`generate_layout`).
    ``jobs`` is the worker count, ``None`` for ``os.cpu_count()``; 1 runs
    the drops in the calling process, and a pool takes them in the same
    order, in chunks. Results are merged back in grid order, so the output
    is identical for any worker count.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    elif not (isinstance(jobs, numbers.Integral) and jobs >= 1):
        raise ValueError(f"jobs must be None or an integer >= 1, got {jobs!r}")
    scenarios = campaign_scenarios(base, campaign)
    # Seeds are the grid's inner axis: cell c's drops are scenarios[c : c + n_seeds].
    n_seeds = campaign.n_seeds
    cells = sorted(range(0, len(scenarios), n_seeds), key=lambda c: -scenarios[c].n_bs)
    walked = [scenarios[c + k] for k in range(n_seeds) for c in cells]
    if jobs == 1 or len(scenarios) == 1:
        walked_results = [evaluate_drop(s) for s in walked]
    else:
        # Imported here: multiprocessing costs every serial run its import time.
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(scenarios) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=min(jobs, len(scenarios))) as pool:
            walked_results = list(pool.map(evaluate_drop, walked, chunksize=chunksize))
    results = [None] * len(scenarios)
    for nth, c in enumerate(cells):
        results[c : c + n_seeds] = walked_results[nth :: len(cells)]
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
    for start in range(0, len(rows), n_seeds):
        group = rows[start : start + n_seeds]
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
    lines = [",".join(AggregateRow._fields)]
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
