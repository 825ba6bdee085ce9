"""Invariants the paper states, checked over random inputs.

The cascade law must agree with explicit energy bookkeeping; a
non-coherent parallel group is a weighted mean of its branches, and
coherent combining can only lower that mean; every drop conserves energy
and ends no better than the UE's own waste factor.
"""

import math

from hypothesis import given, settings, strategies as st

from wastefactor.core import Stage, cascade, power_flow
from wastefactor.netsim import BAND_PRESETS, DIRECTIONAL, OMNI, Scenario, evaluate_drop
from wastefactor.parallel import Branch, CombiningMode, combine_branches

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
