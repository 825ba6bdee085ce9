"""Invariants the paper states, checked over random inputs.

The cascade law must agree with explicit energy bookkeeping; a
non-coherent parallel group is a weighted mean of its branches, and
coherent combining can only lower that mean; the parallel compositions
are that one law and that one mean, bit for bit; ``power_flow``,
``combine_branches``, the weighted mean and ``received_power_matrix``
return what their former multi-pass forms return, bit for bit, and raise
what those raise, message for message; a device spec that
constructs converts to a finite stage; both radios compose their devices
by one chain rule, bit for bit; every drop conserves energy
and ends no better than the UE's own waste factor. Properties of the
simulator itself ride along: its p5 SNR shortcut equals
``np.percentile`` bit for bit, campaign output does not depend on the
worker count, a campaign's rows are its cold drops in grid order for
any order of its BS axis, and the drop kernels give the bytes and ``DropResult``
reprs of their former multipass forms.
"""

import concurrent.futures
import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wastefactor import mismatch_loss_db, netsim
from wastefactor.channel import BAND_PRESETS
from wastefactor.components import (
    Adc,
    Antenna,
    Dac,
    GenericActive,
    GenericPassive,
    Lna,
    Mixer,
    PhaseShifter,
    PowerAmplifier,
    RuSpec,
    UeSpec,
    build_ru,
    build_ue,
    ru_devices,
    ue_devices,
)
from wastefactor.core import CascadeReport, Stage, StageFlow, cascade, power_flow
from wastefactor.netsim import (
    DIRECTIONAL,
    OMNI,
    STREAM_BS_LAYOUT,
    STREAM_SHADOWING,
    STREAM_UE_LAYOUT,
    _DENSE_MIN_BS,
    _DENSE_MIN_ROW,
    _DENSE_PAIRS,
    CampaignSpec,
    DropResult,
    DropRow,
    Layout,
    Links,
    PowerControlResult,
    Scenario,
    _p5,
    _substream,
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
)
from wastefactor.parallel import (
    Branch,
    CombiningMode,
    _weighted_mean,
    combine_branches,
    mino_compose,
    mino_first_stage,
    miso_compose,
    received_power_matrix,
)

PROPERTIES = settings(max_examples=50, deadline=None)

# Relative round-off allowed where two sides of an inequality may be equal.
ROUND_OFF = 1e-12

stages = st.builds(
    Stage,
    w=st.floats(1.0, 100.0),
    g=st.floats(-6.0, 6.0).map(lambda exponent: 10.0 ** exponent),
)
cascades = st.lists(stages, min_size=1, max_size=8)
branches = st.lists(
    st.builds(Branch, stage=stages, weight=st.floats(0.0, 1e3)), min_size=1, max_size=8
).filter(lambda group: any(b.weight > 0.0 for b in group))


@PROPERTIES
@given(chain=cascades, p_source_w=st.floats(1e-3, 1e3))
def test_cascade_matches_energy_bookkeeping(chain, p_source_w):
    closed = cascade(chain).w
    assert closed >= 1.0
    assert math.isclose(closed, power_flow(chain, p_source_w).w, rel_tol=1e-9)


@PROPERTIES
@given(group=branches)
# Subnormal weights once rounded this mean to 2.0.
@example(group=[Branch(Stage(1.5, 1.0), 5e-324), Branch(Stage(1.5, 1.0), 5e-324)])
def test_non_coherent_combine_is_a_weighted_mean(group):
    active = [b.stage.w for b in group if b.weight > 0.0]
    w = combine_branches(group, CombiningMode.NON_COHERENT)
    assert min(active) * (1.0 - ROUND_OFF) <= w <= max(active) * (1.0 + ROUND_OFF)


@PROPERTIES
@given(group=branches)
def test_coherent_combining_wastes_no_more(group):
    coherent = combine_branches(group, CombiningMode.COHERENT)
    non_coherent = combine_branches(group, CombiningMode.NON_COHERENT)
    assert coherent <= non_coherent * (1.0 + ROUND_OFF)


def two_stage(w_up, terminal):
    """The composite W of a unit-gain pseudo-stage ahead of ``terminal``."""
    return cascade([Stage(w_up, 1.0), terminal]).w


@PROPERTIES
@given(group=branches, terminal=stages)
def test_miso_is_the_cascade_of_its_parallel_group(group, terminal):
    w_parallel = combine_branches(group, CombiningMode.NON_COHERENT)
    assume(w_parallel >= 1.0)  # a mean of W >= 1 may round just below 1
    w = miso_compose(group, CombiningMode.NON_COHERENT, terminal).w
    assert w.hex() == two_stage(w_parallel, terminal).hex()


@PROPERTIES
@given(first=st.floats(1.0, 1e6), terminal=stages)
def test_mino_compose_is_the_two_stage_cascade(first, terminal):
    w = mino_compose(first, terminal.w, terminal.g)
    assert w.hex() == two_stage(first, terminal).hex()


@PROPERTIES
@given(
    outputs=st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(1.0, 100.0)), min_size=2, max_size=8)
)
def test_mino_first_stage_is_the_non_coherent_combine(outputs):
    assume(sum(p > 0.0 for p, _ in outputs) >= 2)
    powers, w = [p for p, _ in outputs], [w_j for _, w_j in outputs]
    group = [Branch(Stage(w_j, 1.0), p) for p, w_j in outputs]
    combined = combine_branches(group, CombiningMode.NON_COHERENT)
    assert mino_first_stage(powers, w).hex() == combined.hex()


# The multi-pass forms of the calculus that each walked its inputs more than
# once, kept here as references: the one-pass forms must return the same
# floats and raise the same errors.


def multipass_power_flow(stages, p_source_out_w):
    if not stages:
        raise ValueError("power_flow requires at least one stage")
    if not 0.0 < p_source_out_w < math.inf:
        raise ValueError(f"source power must be finite and > 0 W, got {p_source_out_w}")

    def out_of_range(quantity, value):
        return ValueError(
            f"{quantity} = {value} is out of float range; "
            "the source power and the stages are too extreme to track"
        )

    flows = []
    p_in = p_source_out_w
    wasted_total = 0.0
    for stage in stages:
        p_out = p_in * stage.g
        consumed = stage.w * p_out - p_in
        wasted = (stage.w - 1.0) * p_out
        flows.append(StageFlow(stage.label, p_in, p_out, consumed, wasted))
        wasted_total += wasted
        p_in = p_out
    p_signal = p_in
    if not 0.0 < p_signal < math.inf:
        raise out_of_range("p_signal_w", p_signal)
    consumed_total = p_signal + wasted_total
    w = consumed_total / p_signal
    g = p_signal / p_source_out_w
    for quantity, value in (("p_consumed_path_w", consumed_total), ("w", w), ("g", g)):
        if not math.isfinite(value):
            raise out_of_range(quantity, value)
    for flow in flows:
        if not math.isfinite(flow.p_consumed_w):
            raise out_of_range(f"stage {flow.label!r} p_consumed_w", flow.p_consumed_w)
    return CascadeReport(
        p_source_out_w=p_source_out_w,
        stages=tuple(flows),
        w=w,
        g=g,
        p_signal_w=p_signal,
        p_consumed_path_w=consumed_total,
        p_wasted_w=wasted_total,
    )


def multipass_merged_power(powers, mode):
    if mode is CombiningMode.NON_COHERENT:
        return sum(powers)
    amplitude = sum(math.sqrt(p) for p in powers)
    return amplitude * amplitude


def multipass_weighted_mean(powers, w, mode):
    top = max(powers)
    if top < 0.25:
        _, exponent = math.frexp(top)
        shift = -(exponent + (exponent & 1))
        powers = [math.ldexp(p, shift) for p in powers]
    mean = sum(p * w_i for p, w_i in zip(powers, w)) / multipass_merged_power(powers, mode)
    if not math.isfinite(mean):
        raise ValueError(f"the power-weighted waste factor is {mean}: its sum overflows a float")
    return mean


def multipass_combine_branches(branches, mode):
    if not branches:
        raise ValueError("combine_branches requires at least one branch")
    active = [b for b in branches if b.weight > 0.0]
    if not active:
        raise ValueError("at least one branch must have weight > 0")
    if len(active) == 1:
        return active[0].stage.w
    return multipass_weighted_mean([b.weight for b in active], [b.stage.w for b in active], mode)


def multipass_received_power_matrix(tx_powers_w, channel_w, mode):
    m = len(tx_powers_w)
    if m == 0:
        raise ValueError("received_power_matrix requires at least one transmitter")
    if len(channel_w) != m:
        raise ValueError(f"channel matrix has {len(channel_w)} rows, expected {m}")
    n = len(channel_w[0])
    if any(len(row) != n for row in channel_w):
        raise ValueError("channel matrix rows must all have the same length")
    if not all(0.0 <= p < math.inf for p in tx_powers_w):
        raise ValueError("transmit powers must be finite and >= 0 W")
    for row in channel_w:
        for w in row:
            if math.isnan(w) or w < 1.0:
                raise ValueError(f"channel waste factor must be >= 1, got {w}")
    received = [
        multipass_merged_power([tx_powers_w[i] / channel_w[i][j] for i in range(m)], mode)
        for j in range(n)
    ]
    if math.inf in received:
        raise ValueError(f"a received power is {math.inf}: its sum overflows a float")
    return received


def outcome(fn, *args):
    """A call's value and its repr, which tells every float's bits but a
    NaN's, or the type and message of what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return value, repr(value)


BIT_FOR_BIT = settings(max_examples=200, deadline=None)
modes = st.sampled_from(CombiningMode)
labels = st.sampled_from(["", "a", "pa"])
# Every finite W and gain a Stage accepts, subnormal gains included.
wide_stages = st.builds(
    Stage,
    w=st.floats(1.0, allow_infinity=False),
    g=st.floats(0.0, exclude_min=True, allow_infinity=False),
    label=labels,
)
# Tiny weights take the frexp rescaling path; zero ones are inactive.
weights = st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 0.2, 1.0]) | st.floats(
    0.0, allow_infinity=False
)
# Anything a caller can pass: NaN, both infinities and negatives included.
any_powers = st.floats() | st.floats(0.1, 10.0)
any_losses = st.floats() | st.floats(1.0, 1e6) | st.just(math.inf)


@BIT_FOR_BIT
@given(
    chain=st.lists(stages | wide_stages, max_size=8),
    p_source_w=st.floats() | st.floats(1e-3, 1e3),
)
@example(chain=[Stage(1.5, 1.0, "a"), Stage(1.5, 1.0, "b"), Stage(1.0, 1e-10)], p_source_w=1.5e308)
@example(chain=[Stage(2.0, 1.0, "pa"), Stage(1.0, 1e-10)], p_source_w=1e308)
@example(chain=[Stage(30.0, 30.0), Stage(30.0, 30.0)], p_source_w=1e308)
@example(chain=[Stage(1.0, 1e-300)], p_source_w=1e-300)
@example(chain=[Stage(1e300, 1.0)], p_source_w=1e10)
@example(chain=[Stage(1.0, 1e200), Stage(1.0, 1e200)], p_source_w=1e-300)
@example(chain=[Stage(2.0, 1.0)], p_source_w=math.nan)
@example(chain=[], p_source_w=1.0)
def test_power_flow_is_its_multipass_form(chain, p_source_w):
    got = outcome(power_flow, chain, p_source_w)
    assert got == outcome(multipass_power_flow, chain, p_source_w)
    if isinstance(got[0], CascadeReport):
        assert all(type(flow) is StageFlow for flow in got[0].stages)


@BIT_FOR_BIT
@given(
    group=st.lists(st.builds(Branch, stage=stages | wide_stages, weight=weights), max_size=8),
    mode=modes,
)
@example(
    group=[Branch(Stage(1.5, 1.0), 0.1), Branch(Stage(3.0, 1.0), 0.2)],
    mode=CombiningMode.COHERENT,
)
@example(
    group=[Branch(Stage(1.5, 1.0), 1e308), Branch(Stage(2.0, 1.0), 1e308)],
    mode=CombiningMode.NON_COHERENT,
)
@example(group=[Branch(Stage(1.5, 1.0), 0.0)], mode=CombiningMode.NON_COHERENT)
@example(group=[], mode=CombiningMode.COHERENT)
def test_combine_branches_is_its_multipass_form(group, mode):
    assert outcome(combine_branches, group, mode) == outcome(
        multipass_combine_branches, group, mode
    )


@BIT_FOR_BIT
@given(
    outputs=st.lists(
        st.tuples(weights, st.floats(1.0, allow_infinity=False)), min_size=1, max_size=8
    ),
    mode=modes,
)
def test_weighted_mean_is_its_multipass_form(outputs, mode):
    powers, w = [p for p, _ in outputs], [w_j for _, w_j in outputs]
    assert outcome(_weighted_mean, powers, w, mode) == outcome(
        multipass_weighted_mean, powers, w, mode
    )


@st.composite
def transmitters_and_channels(draw):
    """Transmit powers and an M x N channel matrix; now and then with one
    row too many or a last row of another length."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    tx = draw(st.lists(any_powers, min_size=m, max_size=m))
    rows = draw(st.lists(st.lists(any_losses, min_size=n, max_size=n), min_size=m, max_size=m))
    flaw = draw(st.sampled_from([None, None, "extra row", "ragged row"]))
    if flaw == "extra row":
        rows.append(draw(st.lists(any_losses, min_size=n, max_size=n)))
    elif flaw == "ragged row" and rows:
        rows[-1] = draw(st.lists(any_losses, max_size=4))
    return tx, rows


@BIT_FOR_BIT
@given(matrix=transmitters_and_channels(), mode=modes)
@example(matrix=([1e308, 1e308], [[1.0], [1.0]]), mode=CombiningMode.NON_COHERENT)
@example(matrix=([1.0, 1.0], [[math.inf], [4.0]]), mode=CombiningMode.COHERENT)
@example(matrix=([1.0], [[math.nan]]), mode=CombiningMode.NON_COHERENT)
@example(matrix=([math.nan], [[2.0]]), mode=CombiningMode.NON_COHERENT)
def test_received_power_matrix_is_its_multipass_form(matrix, mode):
    tx, rows = matrix
    assert outcome(received_power_matrix, tx, rows, mode) == outcome(
        multipass_received_power_matrix, tx, rows, mode
    )


# Zero, subnormal and huge values, and a range where most specs are valid.
device_numbers = (
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 10.0, 1e300, sys.float_info.max])
    | st.floats(-10.0, 1e4)
    | st.floats(allow_nan=False, allow_infinity=False)
)
device_fields = {
    "float": device_numbers,
    "float | None": st.none() | device_numbers,
    "bool": st.booleans(),
    "int": st.integers(-2, 2048),
}


@pytest.mark.parametrize(
    "cls",
    [Mixer, PhaseShifter, Antenna, PowerAmplifier, Lna, Dac, Adc, GenericActive, GenericPassive],
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_construction_is_the_only_check(cls, data):
    fields = {f.name: data.draw(device_fields[f.type], label=f.name) for f in dataclasses.fields(cls)}
    try:
        device = cls(**fields)
    except ValueError:
        return
    stage, non_path_w = device.converted
    assert 1.0 <= stage.w < math.inf and 0.0 < stage.g < math.inf
    assert 0.0 <= non_path_w < math.inf


# Efficiencies start above the subnormal range: a product that rounds there
# compares rounding, not the transmitted fraction.
@PROPERTIES
@given(e=st.floats(1e-300, 1.0), v=st.floats(1.0, 1e6))
@example(e=1.0, v=1.0)
@example(e=1.0, v=1e6)
def test_antenna_mismatch_is_the_exported_mismatch_loss(e, v):
    # Two homes of the transmitted fraction 1 - |Gamma|^2: the antenna's
    # efficiency and the dB helper a VSWR holder passes to a PhaseShifter.
    expected = e * 10 ** (-mismatch_loss_db(v) / 10)
    assert Antenna(radiation_efficiency=e, vswr=v).efficiency == pytest.approx(expected, rel=1e-12)


antennas = st.builds(Antenna, radiation_efficiency=st.floats(0.1, 1.0), vswr=st.floats(1.0, 3.0))
phase_shifters = st.builds(
    PhaseShifter, insertion_loss_db=st.floats(0.0, 10.0), reflection_loss_db=st.floats(0.0, 20.0)
)
mixers = st.builds(Mixer, conversion_loss_db=st.floats(0.0, 12.0))
chain_counts = st.integers(1, 8)
watts = st.floats(0.0, 10.0)
ru_specs = st.builds(
    RuSpec,
    dac=st.builds(Dac, efficiency=st.floats(0.1, 1.0)),
    mixer=mixers,
    phase_shifter=phase_shifters,
    pa=st.builds(
        PowerAmplifier, pae=st.floats(0.05, 1.0), gain_db=st.floats(0.0, 60.0), quiescent_w=watts
    ),
    antenna=antennas,
    n_tx=chain_counts,
    lo_power_w=watts,
)
ue_specs = st.builds(
    UeSpec,
    antenna=antennas,
    lna=st.builds(Lna, gain_db=st.floats(0.0, 40.0), quiescent_w=watts),
    phase_shifter=phase_shifters,
    mixer=mixers,
    adc=st.none() | st.builds(Adc, fom_j=st.floats(0.0, 1e-11), bits=st.integers(1, 16)),
    n_rx=chain_counts,
    lo_power_w=watts,
)


def non_path_sum(devices):
    return sum(device.converted.non_path_w for device in devices)


@settings(PROPERTIES, derandomize=True)
@given(ru=ru_specs, ue=ue_specs)
def test_both_radios_compose_by_one_chain_rule(ru, ue):
    ue_shared = (ue.mixer,) if ue.adc is None else (ue.mixer, ue.adc)
    for built, devices, label, shared, per_chain, n_chains, lo_power_w in (
        (build_ru(ru), ru_devices(ru), "ru", (ru.dac, ru.mixer),
         (ru.phase_shifter, ru.pa, ru.antenna), ru.n_tx, ru.lo_power_w),
        (build_ue(ue), ue_devices(ue), "ue", ue_shared,
         (ue.antenna, ue.lna, ue.phase_shifter), ue.n_rx, ue.lo_power_w),
    ):
        assert built.stage == cascade([d.converted.stage for d in devices], label=label)
        expected = non_path_sum(shared) + n_chains * non_path_sum(per_chain) + lo_power_w
        assert built.non_path_w == expected


scenarios = st.builds(
    Scenario,
    frequency_hz=st.sampled_from(sorted(BAND_PRESETS)),
    antenna_mode=st.sampled_from([OMNI, DIRECTIONAL]),
    n_bs=st.integers(1, 5),
    n_ue=st.integers(1, 64),
    power_allocation=st.sampled_from(["equal", "proportional"]),
    apply_shadowing=st.booleans(),
    seed=st.integers(0, 2 ** 64 - 1),
)


@PROPERTIES
@given(scenario=scenarios)
def test_drop_conserves_energy_and_respects_the_ue_floor(scenario):
    result = evaluate_drop(scenario)
    assert result.audit_rel_error <= 1e-6
    assert result.w_system >= scenario.w_ue


@st.composite
def shuffled_zeros(draw):
    """Mostly zeros of both signs in a shuffled order: equal values whose
    bits differ, so the result holds only if they land where numpy's
    partition puts them."""
    n = draw(st.integers(20, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.choice([-0.0, 0.0, 1.0], n, p=[0.3, 0.3, 0.4])


# The fill value that ``arrays`` uses for most elements of a long array
# gives ties of one value.
finite_arrays = arrays(
    np.float64, st.integers(1, 2000), elements=st.floats(allow_nan=False, allow_infinity=False)
)


@PROPERTIES
@given(x=finite_arrays, ties=shuffled_zeros())
def test_p5_is_numpy_percentile_bit_for_bit(x, ties):
    for sample in (x, ties):
        assert np.float64(_p5(sample)).tobytes() == np.float64(np.percentile(sample, 5.0)).tobytes()


def distinct(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(tuple)


campaigns = st.builds(
    CampaignSpec,
    frequencies_hz=distinct(st.sampled_from(sorted(BAND_PRESETS)), 2),
    antenna_modes=distinct(st.sampled_from([OMNI, DIRECTIONAL]), 2),
    n_bs_values=distinct(st.integers(1, 20), 2),
    n_seeds=st.integers(1, 3),
    base_seed=st.integers(0, 2 ** 64 - 4),
)
campaign_bases = st.builds(
    Scenario,
    n_ue=st.integers(1, 32),
    power_allocation=st.sampled_from(["equal", "proportional"]),
    apply_shadowing=st.booleans(),
)


@settings(max_examples=10, deadline=None)
@given(base=campaign_bases, campaign=campaigns)
def test_campaign_output_is_independent_of_worker_count(base, campaign):
    outputs = []
    for jobs in (1, 2, 3):
        drops, aggregates = run_campaign(base, campaign, jobs=jobs)
        outputs.append((drop_csv_lines(drops), aggregate_csv_lines(aggregates)))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


class SerialPool:
    """A ``ProcessPoolExecutor`` stand-in that maps in the calling process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        return map(fn, items)


# BS axes in any order, so the walk's largest-first sort reorders them.
unsorted_campaigns = st.builds(
    CampaignSpec,
    frequencies_hz=distinct(st.sampled_from(sorted(BAND_PRESETS)), 2),
    antenna_modes=distinct(st.sampled_from([OMNI, DIRECTIONAL]), 2),
    n_bs_values=distinct(st.integers(1, 20), 3),
    n_seeds=st.integers(1, 3),
    base_seed=st.integers(0, 2 ** 64 - 4),
)


@settings(max_examples=40, deadline=None)
@given(campaign=unsorted_campaigns, n_ue=st.integers(8, 32))
@example(campaign=CampaignSpec(frequencies_hz=(28e9, 3.5e9), n_bs_values=(20, 1, 5), n_seeds=2),
         n_ue=16)
def test_campaign_rows_are_cold_drops_in_grid_order(campaign, n_ue):
    base = Scenario(n_ue=n_ue)
    want = []
    for s in campaign_scenarios(base, campaign):
        empty_layout_cache()
        want.append(repr(DropRow(s.frequency_hz / 1e9, s.antenna_mode, s.n_bs, s.seed,
                                 evaluate_drop(s))))
    serial = run_campaign(base, campaign, jobs=1)
    with mock.patch.object(concurrent.futures, "ProcessPoolExecutor", SerialPool):
        pooled = run_campaign(base, campaign, jobs=2)
    for drops, aggregates in (serial, pooled):
        assert [repr(row) for row in drops] == want
        assert len(aggregates) == len(drops) // campaign.n_seeds
        for aggregate in aggregates:
            own = [row.result for row in drops if row[:3] == aggregate[:3]]
            assert len(own) == campaign.n_seeds
            assert aggregate.wf_mean_db == 10.0 * math.log10(np.mean([r.w_system for r in own]))
            assert aggregate.wf_std_db == np.std([r.wf_system_db for r in own])
            assert aggregate.p_total_mean_kw_per_km2 == (
                np.mean([r.p_total_per_km2_w for r in own]) / 1000.0)
        # The aggregates follow the rows' cells, in grid order.
        assert [a[:3] for a in aggregates] == [row[:3] for row in drops[::campaign.n_seeds]]


# The drop kernels as they were before each dropped its extra passes, kept
# here as references: the layout drew two arrays of doubles and the BS
# candidates in fresh temporaries, dy*dy went through one reused scratch
# block, the links came from flatnonzero and divmod, every loss was clamped
# and counted, and power control divided under a where= mask. The kernels
# must give the same bytes and every drop the same DropResult repr.


def multipass_uniform_disk(rng, n, radius_m):
    r = radius_m * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    xy = np.empty((2, n))
    np.multiply(r, np.cos(theta), out=xy[0])
    np.multiply(r, np.sin(theta), out=xy[1])
    return xy.T


def multipass_layout(scenario):
    """UE and BS positions and the number of BS candidate blocks drawn."""
    ue_xy = multipass_uniform_disk(
        _substream(scenario.seed, STREAM_UE_LAYOUT), scenario.n_ue, scenario.region_radius_m
    )
    rng = _substream(scenario.seed, STREAM_BS_LAYOUT)
    accepted, blocks = [], 0
    min_sep_sq = scenario.min_bs_separation_m ** 2
    while len(accepted) < scenario.n_bs:
        blocks += 1
        u = rng.random((4 * scenario.n_bs, 2))
        r = scenario.region_radius_m * np.sqrt(u[:, 0])
        theta = 2.0 * np.pi * u[:, 1]
        for x, y in zip((r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist()):
            if all((x - px) * (x - px) + (y - py) * (y - py) >= min_sep_sq for px, py in accepted):
                accepted.append((x, y))
                if len(accepted) == scenario.n_bs:
                    break
    return np.array(accepted), ue_xy, blocks


def multipass_sq_distance(bs_xy_m, ue_xy_m):
    d = np.subtract(ue_xy_m[:, 0], bs_xy_m[:, 0, None], dtype=float)
    d *= d
    n_bs = len(d)
    rows = max(1, 10_240 // max(len(ue_xy_m), 1))
    dy = np.empty((min(rows, n_bs), len(ue_xy_m)))
    for start in range(0, n_bs, rows):
        stop = min(start + rows, n_bs)
        block = dy[: stop - start]
        np.subtract(ue_xy_m[:, 1], bs_xy_m[start:stop, 1, None], out=block, dtype=float)
        block *= block
        d[start:stop] += block
    return d


class MultipassLinks(Links):
    def __init__(self, serving_mask):
        by_bs = serving_mask.T
        self.n_bs, self.n_ue = by_bs.shape
        self.cell = np.flatnonzero(by_bs)
        self.bs, self.ue = np.divmod(self.cell, self.n_ue)


def multipass_effective_loss(scenario, sq_distance_m2, links):
    link_budget = scenario.link_budget
    band = link_budget.band
    loss = sq_distance_m2.take(links.cell)
    loss += link_budget.height_delta_m ** 2
    np.maximum(loss, 1.0, out=loss)
    np.power(loss, band.ple / 2.0, out=loss)
    loss *= link_budget.loss_scale
    if scenario.apply_shadowing and band.sigma_db > 0.0:
        z = _substream(scenario.seed, STREAM_SHADOWING).standard_normal((links.n_ue, links.n_bs))
        shadow = z[links.ue, links.bs]
        shadow *= band.sigma_db * math.log(10.0) / 10.0
        loss *= np.exp(shadow, out=shadow)
    n_clamped = int(np.count_nonzero(loss < 1.0))
    return np.maximum(loss, 1.0, out=loss), n_clamped


def multipass_power_control(link_loss_w, links, scenario):
    link_budget = scenario.link_budget
    noise_w, target = link_budget.noise_power_w, link_budget.target_rx_power_w
    cap_w, budget_w = link_budget.per_link_cap_w, link_budget.per_bs_budget_w
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
        if over_budget.any():
            bs_scale = np.where(over_budget, budget_w / np.maximum(bs_load, 1e-300), 1.0)
            n_budget_limited = int(np.count_nonzero(bs_scale < 1.0))
            p_tx *= bs_scale[links.bs]
            bs_load = links.per_bs(p_tx)
        p_rx_ue = links.per_ue(np.multiply(p_tx, inv_l, out=inv_l))
        snr_db = 10.0 * np.log10(p_rx_ue / noise_w)
    return PowerControlResult(p_tx, bs_load, p_rx_ue, snr_db, n_capped, n_budget_limited)


def array_bits(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def multipass_scored(scenario, links, link_loss_w, n_clamped):
    """``evaluate_links``' outcome with the multipass power control."""
    with mock.patch.object(netsim, "power_control", multipass_power_control):
        return outcome(evaluate_links, scenario, links, link_loss_w, n_clamped)


class Reached(NamedTuple):
    """What a drop's multipass reference went through."""

    blocks: int            # BS candidate blocks drawn
    sq: np.ndarray         # squared horizontal distances, BS-major
    links: Links
    scored: tuple          # outcome() of the drop
    scratch: int           # floats in this thread's dense-layout dy scratch


def check_drop_kernels(scenario):
    """Each drop kernel against its multipass form, then the whole drop."""
    layout = generate_layout(scenario)
    bs_xy, ue_xy, blocks = multipass_layout(scenario)
    assert array_bits(layout.bs_xy_m, layout.ue_xy_m) == array_bits(bs_xy, ue_xy)
    sq = multipass_sq_distance(bs_xy, ue_xy)
    assert array_bits(layout.sq_distance_m2) == array_bits(sq)
    mask = assign_serving_sets(layout, scenario.serving_radius_m, scenario.fallback_nearest)
    links, reference = Links(mask), MultipassLinks(mask)
    assert array_bits(links.cell, links.bs, links.ue) == array_bits(
        reference.cell, reference.bs, reference.ue
    )
    loss, n_clamped = effective_loss_matrix(scenario, layout, links)
    expected_loss, expected_clamped = multipass_effective_loss(scenario, sq, reference)
    assert (array_bits(loss), n_clamped) == (array_bits(expected_loss), expected_clamped)
    expected = multipass_scored(scenario, reference, expected_loss, expected_clamped)
    assert outcome(evaluate_drop, scenario) == expected
    scratch = getattr(netsim._THREAD, "dy", None)
    return Reached(blocks, sq, reference, expected, 0 if scratch is None else scratch.size)


# Cells past 10 240 UE-BS pairs take several dy blocks; separations of
# 0.3 region radii often need a second candidate block; in a 10 m region,
# BSs at or near the UE height give d3 ** 2 below 1 or a loss floor below 1
# at 17 and 28 GHz directional, so links clamp.
@st.composite
def drop_scenarios(draw):
    region_radius_m = draw(st.sampled_from([10.0, 1000.0]))
    return Scenario(
        frequency_hz=draw(st.sampled_from(sorted(BAND_PRESETS))),
        antenna_mode=draw(st.sampled_from([OMNI, DIRECTIONAL])),
        n_bs=draw(st.integers(1, 20)),
        n_ue=draw(st.integers(1, 64) | st.sampled_from([600, 1024])),
        region_radius_m=region_radius_m,
        bs_height_m=draw(st.sampled_from([1.5, 2.0, 2.3, 2.5, 15.0])),
        min_bs_separation_m=draw(st.sampled_from([0.0, 0.2, 0.3])) * region_radius_m,
        fallback_nearest=draw(st.booleans()),
        power_allocation=draw(st.sampled_from(["equal", "proportional"])),
        apply_shadowing=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(scenario=drop_scenarios())
def test_drop_kernels_are_their_multipass_forms(scenario):
    check_drop_kernels(scenario)


def clamped(reached):
    result = reached.scored[0]
    return isinstance(result, DropResult) and result.n_clamped_links > 0


DENSE = Scenario(frequency_hz=28e9, n_ue=1024, n_bs=20)


class Edge(NamedTuple):
    scenario: Scenario
    reaches: object                 # Reached -> bool: the case reaches its edge
    built_first: Scenario | None = None  # laid out first on the same thread


# Each edge the seed-0 grids never reach, with a check that the case
# reaches it. From _DENSE_PAIRS UE-BS pairs, _DENSE_MIN_BS BSs and rows of
# _DENSE_MIN_ROW UEs up a layout squares dy in a per-thread scratch under a
# shrunk numpy buffer; each edge runs on a fresh thread, whose scratch
# starts empty.
DROP_EDGES = {
    "no-fallback": Edge(
        Scenario(n_ue=64, n_bs=3, fallback_nearest=False, power_allocation="proportional"),
        lambda reached: np.bincount(reached.links.ue, minlength=64).min() == 0,
    ),
    "ue-at-bs-height": Edge(
        Scenario(frequency_hz=28e9, n_ue=64, n_bs=5, region_radius_m=10.0, bs_height_m=1.5,
                 min_bs_separation_m=2.0),
        lambda reached: reached.sq.min() < 1.0 and clamped(reached),  # d3 ** 2 < 1
    ),
    "17-ghz-floor-below-1": Edge(
        Scenario(frequency_hz=17e9, n_ue=64, n_bs=5, region_radius_m=10.0, bs_height_m=2.0,
                 min_bs_separation_m=2.0, power_allocation="proportional"),
        clamped,
    ),
    "28-ghz-floor-below-1": Edge(
        Scenario(frequency_hz=28e9, n_ue=64, n_bs=5, region_radius_m=10.0, bs_height_m=2.5,
                 min_bs_separation_m=2.0, fallback_nearest=False),
        clamped,
    ),
    "several-dy-blocks": Edge(
        Scenario(n_ue=4000, n_bs=7, frequency_hz=28e9),
        lambda reached: reached.sq.size > 2 * 10_240,
    ),
    "second-candidate-block": Edge(
        Scenario(n_ue=16, n_bs=2, region_radius_m=100.0, min_bs_separation_m=190.0),
        lambda reached: reached.blocks >= 2,
    ),
    "below-dense-threshold": Edge(
        Scenario(n_ue=819, n_bs=5),
        lambda reached: reached.sq.size == _DENSE_PAIRS - 1 and reached.scratch == 0,
    ),
    # At the pair and the BS-count thresholds at once.
    "at-dense-threshold": Edge(
        Scenario(n_ue=1024, n_bs=_DENSE_MIN_BS),
        lambda reached: reached.sq.size == _DENSE_PAIRS == reached.scratch,
    ),
    "below-dense-bs-count": Edge(
        Scenario(n_ue=2048, n_bs=_DENSE_MIN_BS - 1),
        lambda reached: reached.sq.size > _DENSE_PAIRS and reached.scratch == 0,
    ),
    "above-dense-threshold": Edge(
        Scenario(n_ue=241, n_bs=17),
        lambda reached: reached.sq.size == _DENSE_PAIRS + 1 == reached.scratch,
    ),
    # 600 is no multiple of 16, numpy's rule for a buffer size.
    "dense-600-ue-rows": Edge(
        Scenario(n_ue=600, n_bs=7), lambda reached: reached.scratch == 4200
    ),
    # Shapes past _DENSE_PAIRS where the shrunk buffer lost.
    "plain-one-bs": Edge(
        Scenario(n_ue=4096, n_bs=1), lambda reached: reached.scratch == 0
    ),
    "plain-two-bs": Edge(
        Scenario(n_ue=2048, n_bs=2), lambda reached: reached.scratch == 0
    ),
    # One row longer than numpy's default buffer of 8192.
    "dense-long-rows": Edge(
        Scenario(n_ue=10_000, n_bs=_DENSE_MIN_BS), lambda reached: reached.scratch == 40_000
    ),
    "dense-after-larger": Edge(
        DENSE, lambda reached: reached.scratch == 30_000, Scenario(n_ue=1500, n_bs=20)
    ),
    "dense-after-smaller": Edge(
        DENSE, lambda reached: reached.scratch == 20_480, Scenario(n_ue=1024, n_bs=5)
    ),
}


@pytest.mark.parametrize("edge", sorted(DROP_EDGES))
def test_drop_edges_are_their_multipass_forms(edge):
    scenario, reaches, built_first = DROP_EDGES[edge]

    def check():
        if built_first is not None:
            generate_layout(built_first)
        return check_drop_kernels(scenario)

    with ThreadPoolExecutor(max_workers=1) as fresh_thread:
        assert reaches(fresh_thread.submit(check).result(timeout=120))


def empty_layout_cache():
    """Forget this thread's kept layout: the next generate_layout draws anew."""
    netsim._THREAD.layout = netsim._NO_LAYOUT


# A thread keeps the last layout it drew and serves calls of the same seed,
# UE count, region and separation from it. Whatever ran before, a layout
# and a drop must be those drawn from an empty cache. In a 150 m region
# with 290 m separation 1 BS fits and 20 never do.
INFEASIBLE = Scenario(n_ue=4, n_bs=20, region_radius_m=150.0, min_bs_separation_m=290.0)


def layout_bits(scenario):
    layout = generate_layout(scenario)
    arrays = (layout.bs_xy_m, layout.ue_xy_m, layout.sq_distance_m2)
    for xy in arrays:
        with pytest.raises(ValueError, match="read-only"):
            xy[...] = 0.0
    return array_bits(*arrays)


@st.composite
def layout_calls(draw):
    """One layout or drop call, on one of two seeds."""
    seed = draw(st.sampled_from([0, 7]))
    if draw(st.integers(0, 9)) == 0:
        scenario = dataclasses.replace(INFEASIBLE, n_bs=draw(st.sampled_from([1, 20])), seed=seed)
    else:
        region_radius_m, min_bs_separation_m = draw(
            st.sampled_from([(1000.0, 200.0), (1000.0, 0.0), (500.0, 100.0)]))
        scenario = Scenario(
            frequency_hz=draw(st.sampled_from(sorted(BAND_PRESETS))),
            n_bs=draw(st.integers(1, 20)),
            n_ue=draw(st.sampled_from([1, 64, 1024])),
            region_radius_m=region_radius_m,
            min_bs_separation_m=min_bs_separation_m,
            seed=seed,
        )
    return draw(st.sampled_from([layout_bits, evaluate_drop])), scenario


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(layout_calls(), min_size=1, max_size=8))
# Kept, views of the kept, more BSs on kept UEs, then a failed placement
# after a kept layout of its own key.
@example(calls=[(evaluate_drop, dataclasses.replace(DENSE, n_bs=5)), (layout_bits, DENSE),
                (evaluate_drop, dataclasses.replace(DENSE, n_bs=1)),
                (evaluate_drop, dataclasses.replace(DENSE, frequency_hz=3.5e9)),
                (layout_bits, dataclasses.replace(INFEASIBLE, n_bs=1)),
                (layout_bits, INFEASIBLE),
                (evaluate_drop, dataclasses.replace(INFEASIBLE, n_bs=1))])
def test_kept_layouts_are_drawn_layouts(calls):
    drawn = []
    for call, scenario in calls:
        empty_layout_cache()
        drawn.append(outcome(call, scenario))
    empty_layout_cache()
    assert [outcome(call, scenario) for call, scenario in calls] == drawn


# No Scenario reaches the row-length threshold (n_bs <= 20), so these
# layouts are a caller's: BSs x UEs, and whether the dense path takes them.
# Short rows under many BSs lost in the dense path.
@pytest.mark.parametrize(
    "n_bs, n_ue, dense",
    [(1000, 8, False), (50, _DENSE_MIN_ROW - 1, False), (50, _DENSE_MIN_ROW, True)],
)
def test_caller_layouts_are_their_multipass_form(n_bs, n_ue, dense):
    rng = np.random.default_rng(n_bs * n_ue)
    bs_xy, ue_xy = rng.uniform(-1e3, 1e3, (n_bs, 2)), rng.uniform(-1e3, 1e3, (n_ue, 2))

    def build():
        sq = Layout(bs_xy, ue_xy).sq_distance_m2
        return sq, getattr(netsim._THREAD, "dy", None)

    with ThreadPoolExecutor(max_workers=1) as fresh_thread:
        sq, scratch = fresh_thread.submit(build).result(timeout=60)
    assert array_bits(sq) == array_bits(multipass_sq_distance(bs_xy, ue_xy))
    assert n_bs * n_ue >= _DENSE_PAIRS
    assert (scratch is not None and scratch.size == n_bs * n_ue) == dense


@st.composite
def link_realizations(draw):
    """Random serving masks, some UEs with no link, and losses up to the
    float limit: past 1e154, 1 / l squared underflows to 0."""
    n_ue, n_bs = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    mask = draw(arrays(bool, (n_ue, n_bs)))
    losses = st.floats(1.0, 1e308) | st.sampled_from([1.0, 1e154, 1e160, 1e300, 1.7e308])
    link_loss = draw(arrays(np.float64, int(mask.sum()), elements=losses))
    scenario = Scenario(
        frequency_hz=28e9,
        n_ue=n_ue,
        n_bs=n_bs,
        power_allocation=draw(st.sampled_from(["equal", "proportional"])),
        per_bs_budget_dbm=draw(st.sampled_from([50.0, 10.0])),
    )
    return scenario, mask, link_loss


@settings(max_examples=200, deadline=None)
@given(case=link_realizations())
@example(
    case=(
        Scenario(n_ue=3, n_bs=2, power_allocation="proportional"),
        np.array([[True, False], [True, True], [False, False]]),
        np.array([1e300, 1e5, 1e300]),
    )
)
def test_power_control_is_its_multipass_form(case):
    scenario, mask, link_loss = case
    links, reference = Links(mask), MultipassLinks(mask)
    got = power_control(link_loss, links, scenario)
    expected = multipass_power_control(link_loss, reference, scenario)
    assert array_bits(*got[:4]) == array_bits(*expected[:4])
    assert got[4:] == expected[4:]
    assert outcome(evaluate_links, scenario, links, link_loss, 0) == multipass_scored(
        scenario, reference, link_loss, 0
    )
