"""Invariants the paper states, checked over random inputs.

The cascade law must agree with explicit energy bookkeeping; a
non-coherent parallel group is a weighted mean of its branches, and
coherent combining can only lower that mean; the parallel compositions
are that one law and that one mean, bit for bit; a device spec that
constructs converts to a finite stage; both radios compose their devices
by one chain rule, bit for bit; every drop conserves energy
and ends no better than the UE's own waste factor. Two properties of the
simulator itself ride along: its p5 SNR shortcut equals
``np.percentile`` bit for bit, and campaign output does not depend on the
worker count.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wastefactor import mismatch_loss_db
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
from wastefactor.core import Stage, cascade, power_flow
from wastefactor.netsim import (
    DIRECTIONAL,
    OMNI,
    CampaignSpec,
    Scenario,
    _p5,
    aggregate_csv_lines,
    drop_csv_lines,
    evaluate_drop,
    run_campaign,
)
from wastefactor.parallel import (
    Branch,
    CombiningMode,
    combine_branches,
    mino_compose,
    mino_first_stage,
    miso_compose,
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
