"""Waste-factor composition for parallel structures.

Covers MISO combining (non-coherent and coherent), the gain of a bank of
parallel receivers, and the general M-input N-output two-stage
composition used to collapse a whole multi-user network into a single
waste factor. Weights are ratio-scale: only the relative received powers
matter, so callers may pass raw watts or normalized fractions
interchangeably. Equal-gain combining is not a third mode: express it by
assigning the weights an equal-gain receiver would produce.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import Stage, refer


class CombiningMode(Enum):
    """How parallel signals merge: powers add, or phase-aligned amplitudes add."""

    NON_COHERENT = "non_coherent"
    COHERENT = "coherent"


def _merged_power(powers: Sequence[float], mode: CombiningMode) -> float:
    """Power of parallel signals once merged: the powers add (non-coherent),
    or their amplitudes add in phase (coherent)."""
    if mode is CombiningMode.NON_COHERENT:
        return sum(powers)
    amplitude = sum(map(math.sqrt, powers))
    return amplitude * amplitude


def _overflow(quantity: str, value: float) -> ValueError:
    """The error for a result that left the float range: the callers take
    finite operands only, so one of the sums behind it overflowed."""
    return ValueError(f"{quantity} is {value}: its sum overflows a float")


def _weighted_mean(
    powers: Sequence[float], w: Sequence[float], mode: CombiningMode
) -> float:
    """Power-weighted waste factor of parallel signals: the power they
    consume, sum(p_i W_i), over the power they deliver once merged.

    The weights are ratio-scale, so tiny ones are first scaled up by an
    even power of two, which is exact: subnormal products such as
    5e-324 * 1.5 would otherwise round the mean outside [min W, max W].
    """
    top = max(powers)
    if top < 0.25:
        _, exponent = math.frexp(top)
        shift = -(exponent + (exponent & 1))
        powers = [math.ldexp(p, shift) for p in powers]
    mean = sum(map(operator.mul, powers, w)) / _merged_power(powers, mode)
    if not math.isfinite(mean):
        raise _overflow("the power-weighted waste factor", mean)
    return mean


@dataclass(frozen=True)
class Branch:
    """One parallel cascade: its composite stage and a relative power weight."""

    stage: Stage
    weight: float

    # Its own __init__, for the reason given in core's module docstring.
    def __init__(self, stage: Stage, weight: float) -> None:
        if not math.isfinite(weight) or weight < 0.0:
            raise ValueError(f"branch weight must be finite and >= 0, got {weight}")
        fields = self.__dict__
        fields["stage"] = stage
        fields["weight"] = weight


def combine_branches(branches: Sequence[Branch], mode: CombiningMode) -> float:
    """Waste factor of a parallel group, referenced to its combined output.

    Non-coherent: the weighted arithmetic mean sum(y_i W_i)/sum(y_i) over
    weights y_i, which always lies within [min W_i, max W_i]. Coherent:
    sum(y_i W_i) divided by |sum(sqrt(y_i))|^2, which can drop below
    min W_i (combining gain). Zero-weight branches contribute nothing; an
    all-zero group is an error.
    """
    if not branches:
        raise ValueError("combine_branches requires at least one branch")
    weights, ws = [], []
    for branch in branches:
        weight = branch.weight
        if weight > 0.0:
            weights.append(weight)
            ws.append(branch.stage.w)
    if not weights:
        raise ValueError("at least one branch must have weight > 0")
    if len(weights) == 1:
        # Degenerate parallelism reduces exactly, with no weight round-off.
        return ws[0]
    return _weighted_mean(weights, ws, mode)


def miso_compose(
    branches: Sequence[Branch], mode: CombiningMode, terminal: Stage
) -> Stage:
    """Parallel input cascades followed by a single terminal stage.

    The parallel group acts as a pseudo-stage ahead of the terminal:
    W = W_term + (W_parallel - 1)/G_term, with the gain referenced to the
    combined input power of the terminal.
    """
    w = refer(combine_branches(branches, mode), terminal.w, terminal.g)
    label = terminal.label or "miso"
    return Stage(w=w, g=terminal.g, label=label)


def _check_received(powers: Sequence[float], paired: Sequence[float], what: str) -> None:
    """Received powers, one per receiver and each paired with one of ``what``:
    at least one, all finite and >= 0 W with a finite sum, and not all zero."""
    if not powers:
        raise ValueError("at least one receiver is required")
    if len(powers) != len(paired):
        raise ValueError(f"got {len(powers)} powers but {len(paired)} {what}")
    # A NaN or infinite power makes the sum non-finite too.
    if min(powers) < 0.0 or not math.isfinite(sum(powers)):
        raise ValueError(
            "received powers must be finite and >= 0 W, and their sum must not overflow a float"
        )
    if not max(powers) > 0.0:
        raise ValueError("at least one receiver must see power > 0")


def parallel_gain(
    received_powers_w: Sequence[float],
    gains: Sequence[float],
    mode: CombiningMode,
) -> float:
    """Gain of parallel receivers: total output over total input power."""
    _check_received(received_powers_w, gains, "gains")
    if not all(0.0 < g < math.inf for g in gains):
        raise ValueError("receiver gains must be finite and > 0")
    total_in = sum(received_powers_w)
    gain = _merged_power([p * g for p, g in zip(received_powers_w, gains)], mode) / total_in
    if not math.isfinite(gain):
        raise _overflow("the parallel gain", gain)
    return gain


def received_power_matrix(
    tx_powers_w: Sequence[float],
    channel_w: Sequence[Sequence[float]],
    mode: CombiningMode,
) -> list[float]:
    """Received power at each of N outputs from M transmitters.

    ``channel_w[i][j]`` is the waste factor (loss) of the link from
    transmitter i to output j. Non-coherent: P_Rj = sum_i P_Ti / W_ij.
    Coherent: P_Rj = (sum_i sqrt(P_Ti / W_ij))^2. A fully lossy link
    (W -> inf) contributes nothing.
    """
    m = len(tx_powers_w)
    if m == 0:
        raise ValueError("received_power_matrix requires at least one transmitter")
    if len(channel_w) != m:
        raise ValueError(f"channel matrix has {len(channel_w)} rows, expected {m}")
    n = len(channel_w[0])
    for row in channel_w:
        if len(row) != n:
            raise ValueError("channel matrix rows must all have the same length")
    for p in tx_powers_w:
        if not 0.0 <= p < math.inf:
            raise ValueError("transmit powers must be finite and >= 0 W")
    for row in channel_w:
        for w in row:
            if not w >= 1.0:  # NaN fails it too
                raise ValueError(f"channel waste factor must be >= 1, got {w}")
    received = [
        _merged_power([p / row[j] for p, row in zip(tx_powers_w, channel_w)], mode)
        for j in range(n)
    ]
    # Finite powers over losses >= 1 sum to no NaN, only to an overflow.
    if math.inf in received:
        raise _overflow("a received power", math.inf)
    return received


def mino_first_stage(
    received_powers_w: Sequence[float], w_parallel: Sequence[float]
) -> float:
    """First-stage waste factor over all outputs of an M-input N-output system.

    Each output j carries its own parallel-group waste factor; the stage
    value is the received-power-weighted mean sum(P_j W_j)/sum(P_j).
    """
    _check_received(received_powers_w, w_parallel, "waste factors")
    if not all(map(math.isfinite, w_parallel)):
        raise ValueError("parallel waste factors must be finite")
    return _weighted_mean(received_powers_w, w_parallel, CombiningMode.NON_COHERENT)


def mino_compose(first_stage_w: float, rx_w: float, rx_g: float) -> float:
    """Terminate a MINO system into a single path through the parallel receivers.

    W = W_rx_parallel + (W_first_stage - 1) / G_rx_parallel.
    """
    # NaN fails each test.
    if not first_stage_w >= 1.0:
        raise ValueError(f"first-stage waste factor must be >= 1, got {first_stage_w}")
    if not rx_w >= 1.0:
        raise ValueError(f"receiver waste factor must be >= 1, got {rx_w}")
    if not rx_g > 0.0:
        raise ValueError(f"receiver gain must be > 0, got {rx_g}")
    w = refer(first_stage_w, rx_w, rx_g)
    if not w < math.inf:  # inf, or NaN from inf / inf
        raise ValueError(f"the composed waste factor is {w}: an operand is inf or it overflows")
    return w
