"""Stage algebra for the waste-factor cascade calculus.

A :class:`Stage` is a (waste factor W, power gain G) pair. W is the power
consumed on the signal path divided by the signal power delivered to the
next element, so W = 1 means nothing is wasted and larger W means more
waste. Stages compose with a Friis-like law referenced to the cascade
output::

    W = W_N + (W_{N-1} - 1)/G_N + ... + (W_1 - 1)/(G_2 * ... * G_N)

with stage 1 closest to the source. :func:`refer`, its two-stage step, is
the law's one written form; :func:`cascade` and :mod:`wastefactor.parallel`
call it. :func:`power_flow` performs the explicit stage-by-stage energy
bookkeeping that the closed form must reproduce; it is the brute-force
oracle used throughout the test suite.

A result that checks nothing is a ``typing.NamedTuple``, such as
:class:`StageFlow` and :class:`CascadeReport`: equal by value, copied by
``_replace``. :func:`power_flow` builds its records with ``tuple.__new__``
in field order, which skips the NamedTuple's Python-level ``__new__``. A
value that checks its fields is a frozen dataclass with a
``__post_init__`` or, where that measured slower, its own ``__init__``
(:class:`Stage`, ``parallel.Branch``, ``netsim.Layout``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .units import db_to_linear, linear_to_db


@dataclass(frozen=True)
class Stage:
    """One signal-path element with waste factor ``w`` and gain ``g`` (linear)."""

    w: float
    g: float
    label: str = ""

    def __init__(self, w: float, g: float, label: str = "") -> None:
        if not math.isfinite(g) or g <= 0.0:
            raise ValueError(
                f"stage gain must be finite and > 0, got {g!r} (label={label!r})"
            )
        if not math.isfinite(w) or w < 1.0:
            raise ValueError(
                f"waste factor must be finite and >= 1, got {w!r} (label={label!r})"
            )
        fields = self.__dict__
        fields["w"] = w
        fields["g"] = g
        fields["label"] = label

    @property
    def wf_db(self) -> float:
        """Waste figure: 10 log10(W)."""
        return linear_to_db(self.w)

    @classmethod
    def from_loss_db(cls, loss_db: float, label: str = "") -> "Stage":
        """Passive element: W equals the loss L and the gain is 1/L."""
        if loss_db < 0.0:
            raise ValueError(f"passive loss must be >= 0 dB, got {loss_db}")
        loss = db_to_linear(loss_db)
        return cls(w=loss, g=1.0 / loss, label=label)


class StageFlow(NamedTuple):
    """Power bookkeeping for one stage inside :func:`power_flow`."""

    label: str
    p_in_w: float
    p_out_w: float
    p_consumed_w: float  # standalone signal-path consumption: W*P_out - P_in
    p_wasted_w: float    # (W - 1) * P_out


class CascadeReport(NamedTuple):
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


def refer(w_up: float, w_down: float, g_down: float) -> float:
    """Waste factor ``w_up`` seen through a downstream stage (``w_down``,
    ``g_down``) at its output: W_down + (W_up - 1)/G_down. Plain arithmetic;
    callers check the operands."""
    return w_down + (w_up - 1.0) / g_down


def cascade(stages: Sequence[Stage], label: str = "") -> Stage:
    """Compose a source-first list of stages into one equivalent Stage."""
    if not stages:
        raise ValueError("cascade requires at least one stage")
    w = stages[-1].w
    gain_to_sink = stages[-1].g
    try:
        for stage in reversed(stages[:-1]):
            w = refer(stage.w, w, gain_to_sink)
            gain_to_sink *= stage.g
    except ZeroDivisionError:
        raise ValueError(
            "the stages' gain to the sink underflows to 0; they are too lossy to compose"
        ) from None
    if not label:
        label = ">".join(s.label for s in stages if s.label)
    return Stage(w=w, g=gain_to_sink, label=label)


def _out_of_range(quantity: str, value: float) -> ValueError:
    return ValueError(
        f"{quantity} = {value} is out of float range; "
        "the source power and the stages are too extreme to track"
    )


def power_flow(stages: Sequence[Stage], p_source_out_w: float) -> CascadeReport:
    """Inject a source power and track consumption stage by stage.

    Stage i consumes ``W_i * P_out,i - P_in,i`` on its own (for a passive
    element this is zero: it only dissipates part of its through power)
    and wastes ``(W_i - 1) * P_out,i``. The report totals satisfy
    ``p_consumed_path_w == w * p_signal_w`` exactly by construction, which
    makes this the independent energy-accounting oracle for :func:`cascade`.

    One pass over the stages tracks the powers and notes the first stage
    whose own consumption overflows; its error comes after the checks of
    the signal power and the totals.
    """
    if not stages:
        raise ValueError("power_flow requires at least one stage")
    if not 0.0 < p_source_out_w < math.inf:
        raise ValueError(f"source power must be finite and > 0 W, got {p_source_out_w}")
    flows = []
    p_in = p_source_out_w
    wasted_total = 0.0
    overflowed = None  # the first stage whose own consumption is not finite
    for stage in stages:
        w_i = stage.w
        p_out = p_in * stage.g
        consumed = w_i * p_out - p_in
        wasted = (w_i - 1.0) * p_out
        flow = tuple.__new__(StageFlow, (stage.label, p_in, p_out, consumed, wasted))
        flows.append(flow)
        # x - x is 0.0 for every finite x and NaN for inf or NaN.
        if consumed - consumed != 0.0 and overflowed is None:
            overflowed = flow
        wasted_total += wasted
        p_in = p_out
    p_signal = p_in
    # The powers only scale from a finite source, so each stage's powers are
    # finite once the signal power is, and each waste term (all >= 0) once
    # the total is. Only a stage's own consumption can overflow apart.
    if not 0.0 < p_signal < math.inf:
        raise _out_of_range("p_signal_w", p_signal)
    # Source output plus every stage's consumption telescopes to signal plus
    # waste. The waste terms are all >= 0; consumption terms go negative when
    # W * G < 1 and cancel, which can round W below 1.
    consumed_total = p_signal + wasted_total
    w = consumed_total / p_signal
    g = p_signal / p_source_out_w
    if not math.isfinite(consumed_total):
        raise _out_of_range("p_consumed_path_w", consumed_total)
    if not math.isfinite(w):
        raise _out_of_range("w", w)
    if not math.isfinite(g):
        raise _out_of_range("g", g)
    if overflowed is not None:
        raise _out_of_range(f"stage {overflowed.label!r} p_consumed_w", overflowed.p_consumed_w)
    # In CascadeReport's field order.
    return tuple.__new__(
        CascadeReport,
        (p_source_out_w, tuple(flows), w, g, p_signal, consumed_total, wasted_total),
    )


def _check_signal_path(w: float, p_signal_w: float) -> None:
    if not 1.0 <= w < math.inf:
        raise ValueError(f"waste factor must be >= 1, got {w}")
    if not 0.0 <= p_signal_w < math.inf:
        raise ValueError(f"signal power must be >= 0 W, got {p_signal_w}")


def wasted_power(w: float, p_signal_w: float) -> float:
    """Power wasted by a device or cascade delivering ``p_signal_w``: (W-1)*P."""
    _check_signal_path(w, p_signal_w)
    return (w - 1.0) * p_signal_w


def total_consumed_power(w: float, p_signal_w: float, p_non_path_w: float = 0.0) -> float:
    """Total consumption: signal-path part W*P_signal plus non-path power."""
    _check_signal_path(w, p_signal_w)
    if not 0.0 <= p_non_path_w < math.inf:
        raise ValueError(f"non-path power must be >= 0 W, got {p_non_path_w}")
    return w * p_signal_w + p_non_path_w
