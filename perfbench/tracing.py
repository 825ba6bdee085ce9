"""Spans recorded around calls into the package, from outside it.

A :class:`Tracer` replaces a function at its module (or class) attribute
with a wrapper that records a span: name, start, end and the span that
was open when it started. Functions inside the package that look the
name up as a module global (``evaluate_drop`` calling
``generate_layout``, ``run_campaign`` calling ``evaluate_drop``) then
produce nested spans without any change to the package. Spans stay in
memory; the benchmark writes them out with :meth:`Tracer.to_json`
when the run ends.

Only single-threaded, in-process calls are traced: a wrapper is a
closure and cannot be sent to a worker process, so the pool path of
``run_campaign`` must run with the tracer restored.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable


@dataclass
class SpanStats:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent_index or None].
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        self.spans.append([name, perf_counter_ns(), 0, parent])
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._open.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Callable[[Any], dict[str, int]] | None = None,
    ) -> None:
        """Trace ``owner.attr`` under ``name`` until :meth:`restore`.

        ``count`` maps the call's result to counters added at this
        boundary; it runs after the span has closed.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                for key, value in count(result).items():
                    self.counts[key] += value
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        """Per-name call count, total and self time (total minus the time
        covered by direct children; children never overlap here, because
        traced code is single-threaded)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            entry = out[name]
            entry.count += 1
            entry.total_ns += end - start
            entry.self_ns += end - start - covered
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent_index"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
