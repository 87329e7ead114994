"""In-memory span tracer for the benchmark's traced run.

The traced run replaces module-level names that one layer of ``decoyqkd``
calls into (``decoyqkd.bounds.photon_number_prob``, ...) with wrappers that
open a span around each call, and puts the originals back afterwards. No
source file of the package changes.

Every span has a name, start, end, parent span and op id. Aggregates (call
counts, total and self time, per-call samples for the medians) cover every
span exactly. The span records themselves are kept for the first
``keep_spans`` spans only: a traced ``table1`` pass makes several million
calls, too many to hold or write out in full.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

# (module, attribute, span name). Span names carry the layer that defines the
# callee, not the module whose binding is replaced: ``simulator.estimate_key``
# is the bounds layer's entry point as the simulator calls it.
TARGETS = (
    ("decoyqkd.cli", "main", "cli.main"),
    ("decoyqkd.cli", "sweep", "optimizer.sweep"),
    ("decoyqkd.optimizer", "sweep", "optimizer.sweep"),
    ("decoyqkd.optimizer", "optimize_point", "optimizer.optimize_point"),
    ("decoyqkd.optimizer", "rate_point", "simulator.rate_point"),
    ("decoyqkd.optimizer", "ProtocolParams", "model.ProtocolParams"),
    ("decoyqkd.simulator", "rate_point", "simulator.rate_point"),
    ("decoyqkd.simulator", "expected_observations", "simulator.expected_observations"),
    ("decoyqkd.simulator", "Observations", "model.Observations"),
    ("decoyqkd.simulator", "epsilon_budget", "bounds.epsilon_budget"),
    ("decoyqkd.simulator", "BoundInputs", "bounds.BoundInputs"),
    ("decoyqkd.simulator", "estimate_key", "bounds.estimate_key"),
    ("decoyqkd.bounds", "single_photon_lower", "bounds.single_photon_lower"),
    ("decoyqkd.bounds", "vacuum_events_lower", "bounds.vacuum_events_lower"),
    ("decoyqkd.bounds", "vacuum_events_upper", "bounds.vacuum_events_upper"),
    ("decoyqkd.bounds", "phase_error_upper", "bounds.phase_error_upper"),
    ("decoyqkd.bounds", "corrected_count", "bounds.corrected_count"),
    ("decoyqkd.bounds", "photon_number_prob", "model.photon_number_prob"),
    ("decoyqkd.bounds", "hoeffding_delta", "model.hoeffding_delta"),
    ("decoyqkd.bounds", "binary_entropy", "model.binary_entropy"),
)

# Spans whose per-call durations are kept for medians; the others keep sums.
SAMPLED = frozenset({
    "simulator.rate_point",
    "simulator.expected_observations",
    "bounds.estimate_key",
    "bounds.phase_error_upper",
    "model.Observations",
})


def _rate_labels(result) -> tuple[str, ...]:
    return ("status=" + result.status, "zero" if result.skr_hz == 0.0 else "positive")


def _key_labels(result) -> tuple[str, ...]:
    return ("status=" + result.status,)


# Results counted at the boundary where they are produced.
OBSERVERS = {
    "simulator.rate_point": _rate_labels,
    "bounds.estimate_key": _key_labels,
}


class Tracer:
    """Collects nested spans of one thread.

    A span's self time is its duration minus the time covered by its child
    spans. Spans of one thread nest without overlap, so the covered time is
    the sum of the children's durations. Entering a span named in
    ``op_names`` starts a new op; other spans inherit their parent's op id
    (0 outside any op).
    """

    def __init__(
        self,
        op_names: Iterable[str] = (),
        keep_spans: int = 20_000,
        sampled: Iterable[str] = SAMPLED,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.op_names = frozenset(op_names)
        self.keep_spans = keep_spans
        self.clock = clock
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, self_s)
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.samples = {name: (array("d"), array("d")) for name in sampled}
        self.counts: Counter = Counter()  # (span name, result label) -> calls
        self._stack: list[list] = []  # [id, name, parent, op, child_s, start]
        self._last_id = 0
        self._last_op = 0

    def enter(self, name: str) -> None:
        stack = self._stack
        if name in self.op_names:
            self._last_op += 1
            op = self._last_op
        else:
            op = stack[-1][3] if stack else 0
        self._last_id += 1
        parent = stack[-1][0] if stack else 0
        stack.append([self._last_id, name, parent, op, 0.0, self.clock()])

    def leave(self) -> None:
        end = self.clock()
        stack = self._stack
        span_id, name, parent, op, child_s, start = stack.pop()
        duration = end - start
        self_s = duration - child_s
        if stack:
            stack[-1][4] += duration
        stat = self.stats.get(name)
        if stat is None:
            self.stats[name] = [1, duration, self_s]
        else:
            stat[0] += 1
            stat[1] += duration
            stat[2] += self_s
        sample = self.samples.get(name)
        if sample is not None:
            sample[0].append(duration)
            sample[1].append(self_s)
        if len(self.spans) < self.keep_spans:
            self.spans.append((span_id, name, start, end, parent, op, self_s))
        else:
            self.dropped += 1

    def wrap(self, name: str, func: Callable, observe: Callable | None = None) -> Callable:
        enter, leave, counts = self.enter, self.leave, self.counts

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                leave()
            if observe is not None:
                for label in observe(result):
                    counts[name, label] += 1
            return result

        return traced

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0


class MissingTarget(LookupError):
    """A module attribute the traced run wraps does not exist."""


@contextmanager
def installed(tracer: Tracer, targets=TARGETS) -> Iterator[list]:
    """Wrap every target for the duration of the block.

    Yields the list of (module, attribute, original). Raises MissingTarget,
    before anything is wrapped, when the package no longer has a target: its
    calls would otherwise read 0 and look like a gain. On exit the originals
    are put back; the caller confirms it with ``not_restored``.
    """
    missing = [f"{m}.{a}" for m, a, _ in targets
               if not hasattr(sys.modules.get(m), a)]
    if missing:
        raise MissingTarget(", ".join(missing))
    originals = []
    try:
        for module_name, attr, span in targets:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, OBSERVERS.get(span)))
        yield originals
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def not_restored(originals: list) -> list[str]:
    """Names whose module attribute is not the original object."""
    return [
        f"{module.__name__}.{attr}"
        for module, attr, original in originals
        if getattr(module, attr) is not original
    ]
