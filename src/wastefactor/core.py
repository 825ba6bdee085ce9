"""Stage algebra for the waste-factor cascade calculus.

A :class:`Stage` is a (waste factor W, power gain G) pair. W is the power
consumed on the signal path divided by the signal power delivered to the
next element, so W = 1 means nothing is wasted and larger W means more
waste. Stages compose with a Friis-like law referenced to the cascade
output::

    W = W_N + (W_{N-1} - 1)/G_N + ... + (W_1 - 1)/(G_2 * ... * G_N)

with stage 1 closest to the source. :func:`power_flow` performs the
explicit stage-by-stage energy bookkeeping that the closed form must
reproduce; it is the brute-force oracle used throughout the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .units import db_to_linear, linear_to_db


@dataclass(frozen=True)
class Stage:
    """One signal-path element with waste factor ``w`` and gain ``g`` (linear)."""

    w: float
    g: float
    label: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.g) or self.g <= 0.0:
            raise ValueError(
                f"stage gain must be finite and > 0, got {self.g!r} (label={self.label!r})"
            )
        if not math.isfinite(self.w) or self.w < 1.0:
            raise ValueError(
                f"waste factor must be finite and >= 1, got {self.w!r} (label={self.label!r})"
            )

    @property
    def wf_db(self) -> float:
        """Waste figure: 10 log10(W)."""
        return linear_to_db(self.w)

    @property
    def gain_db(self) -> float:
        return linear_to_db(self.g)

    @classmethod
    def from_loss_db(cls, loss_db: float, label: str = "") -> "Stage":
        """Passive element: W equals the loss L and the gain is 1/L."""
        if loss_db < 0.0:
            raise ValueError(f"passive loss must be >= 0 dB, got {loss_db}")
        loss = db_to_linear(loss_db)
        return cls(w=loss, g=1.0 / loss, label=label)

    @classmethod
    def ideal(cls, gain_db: float = 0.0, label: str = "") -> "Stage":
        """W = 1 stage (zero wasted power) with the given gain."""
        return cls(w=1.0, g=db_to_linear(gain_db), label=label)


@dataclass(frozen=True)
class StageFlow:
    """Power bookkeeping for one stage inside :func:`power_flow`."""

    label: str
    p_in_w: float
    p_out_w: float
    p_consumed_w: float  # standalone signal-path consumption: W*P_out - P_in
    p_wasted_w: float    # (W - 1) * P_out


@dataclass(frozen=True)
class CascadeReport:
    """Full energy audit of a cascade driven by a known source power.

    ``p_consumed_path_w`` is the source output power plus every stage's
    standalone consumption; dividing it by the delivered signal power
    gives the implied composite waste factor ``w``.
    """

    p_source_out_w: float
    stages: tuple[StageFlow, ...]
    w: float
    g: float
    p_signal_w: float
    p_consumed_path_w: float
    p_wasted_w: float


def cascade(stages: Sequence[Stage], label: str = "") -> Stage:
    """Compose a source-first list of stages into one equivalent Stage."""
    if not stages:
        raise ValueError("cascade requires at least one stage")
    w = stages[-1].w
    gain_to_sink = stages[-1].g
    for stage in reversed(stages[:-1]):
        w += (stage.w - 1.0) / gain_to_sink
        gain_to_sink *= stage.g
    if not label:
        label = ">".join(s.label for s in stages if s.label)
    return Stage(w=w, g=gain_to_sink, label=label)


def power_flow(stages: Sequence[Stage], p_source_out_w: float) -> CascadeReport:
    """Inject a source power and track consumption stage by stage.

    Stage i consumes ``W_i * P_out,i - P_in,i`` on its own (for a passive
    element this is zero: it only dissipates part of its through power)
    and wastes ``(W_i - 1) * P_out,i``. The report totals satisfy
    ``p_consumed_path_w == w * p_signal_w`` exactly by construction, which
    makes this the independent energy-accounting oracle for :func:`cascade`.
    """
    if not stages:
        raise ValueError("power_flow requires at least one stage")
    if not (p_source_out_w > 0.0):
        raise ValueError(f"source power must be > 0 W, got {p_source_out_w}")
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
    # Source output plus every stage's consumption telescopes to signal plus
    # waste. The waste terms are all >= 0; consumption terms go negative when
    # W * G < 1 and cancel, which can round W below 1.
    consumed_total = p_signal + wasted_total
    return CascadeReport(
        p_source_out_w=p_source_out_w,
        stages=tuple(flows),
        w=consumed_total / p_signal,
        g=p_signal / p_source_out_w,
        p_signal_w=p_signal,
        p_consumed_path_w=consumed_total,
        p_wasted_w=wasted_total,
    )


def wasted_power(w: float, p_signal_w: float) -> float:
    """Power wasted by a device or cascade delivering ``p_signal_w``: (W-1)*P."""
    if w < 1.0:
        raise ValueError(f"waste factor must be >= 1, got {w}")
    if p_signal_w < 0.0:
        raise ValueError(f"signal power must be >= 0 W, got {p_signal_w}")
    return (w - 1.0) * p_signal_w


def total_consumed_power(w: float, p_signal_w: float, p_non_path_w: float = 0.0) -> float:
    """Total consumption: signal-path part W*P_signal plus non-path power."""
    if w < 1.0:
        raise ValueError(f"waste factor must be >= 1, got {w}")
    if p_signal_w < 0.0:
        raise ValueError(f"signal power must be >= 0 W, got {p_signal_w}")
    if p_non_path_w < 0.0:
        raise ValueError(f"non-path power must be >= 0 W, got {p_non_path_w}")
    return w * p_signal_w + p_non_path_w
