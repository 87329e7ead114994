"""Host speed sampled while the program runs, to take it out of the timings.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass of ``rate_point`` calls can take twice as long a minute later, with
CPU time equal to wall time. A fixed reference kernel slows down with it.

While ``Sampler.sampling()`` is active, a SIGALRM timer interrupts the main
thread every ``INTERVAL_S`` and runs the kernel once in the signal handler,
between two bytecodes of whatever the program is doing. The kernel's mean
time over an interval of the run is how slow the host was in that interval.
``Sampler.scaled`` turns a wall time measured in that interval into the time
it would have taken at the reference speed: the wall time less the time
spent in the handler, times ``REF_S`` over the kernel's mean time there.

The kernel is plain Python like the package's: float arithmetic and calls
into ``math``, small objects with methods, dicts, JSON round trips and a
sort. A kernel of float arithmetic alone slowed down less than the package
when the host did; this mix follows the package more closely. It
shares no code with the package, so a change to the package does not change
the kernel's time, and it touches no global state (the random module's
included), so it does not change the package's results.
"""

from __future__ import annotations

import gc
import json
import math
import random
import signal
import time
from contextlib import contextmanager
from typing import Iterator

INTERVAL_S = 0.05
# The kernel's median time on a 2-core Intel Xeon at its usual speed. Scaled
# times are seconds on a host where the kernel takes this long.
REF_S = 0.002

_SHUFFLED = [(random.Random(1).random(), i) for i in range(800)]


class _Term:
    __slots__ = ("scale", "rate", "offset")

    def __init__(self, scale: float, rate: float, offset: float) -> None:
        self.scale = scale
        self.rate = rate
        self.offset = offset

    def at(self, x: float) -> float:
        return self.scale * math.exp(-self.rate * x) + self.offset


def kernel() -> float:
    total = 0.0
    for i in range(1, 1000):
        x = i * 1e-3
        total += math.log1p(x) * math.exp(-x) + math.sqrt(x)
    sums: dict[int, float] = {}
    for k, term in enumerate([_Term(i * 1e-3, 0.5, 1.0) for i in range(500)]):
        value = term.at(0.3)
        sums[k % 97] = sums.get(k % 97, 0.0) + value
        total += max(value, 0.0) ** 0.5
    rows = {"rows": [{"x": i * 0.5, "y": [i, i + 1], "z": str(i)} for i in range(150)]}
    total += sum(row["x"] for row in json.loads(json.dumps(rows))["rows"])
    return total + sum(sums.values()) + sorted(_SHUFFLED)[0][0]


class NoSamples(RuntimeError):
    """No kernel has run yet."""


class Sampler:
    """Runs the kernel from a SIGALRM handler and sums its times.

    ``mark()`` snapshots the sums; ``scaled(wall, mark)`` scales a wall time
    measured since that mark."""

    def __init__(self) -> None:
        self.kernel_s = 0.0  # the kernels' own times
        self.handler_s = 0.0  # the handlers' times, kernel and bookkeeping
        self.runs = 0
        self.last_s: float | None = None  # the latest kernel's time

    def _tick(self, signum, frame) -> None:
        # The kernel's allocations must not set off a collection of the
        # program's objects: its cost would be charged to the kernel.
        collecting = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        start = clock()
        kernel()
        self.last_s = clock() - start
        self.kernel_s += self.last_s
        self.runs += 1
        if collecting:
            gc.enable()
        self.handler_s += clock() - start

    @contextmanager
    def sampling(self) -> Iterator["Sampler"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[float, float, int]:
        return self.kernel_s, self.handler_s, self.runs

    def slowdown(self, since: tuple[float, float, int]) -> float:
        """The kernel's mean time since the mark over its reference time.

        An interval shorter than ``INTERVAL_S`` may hold no kernel run; the
        latest one before it stands in, so that a pass the program has made
        very fast is still scaled."""
        kernel_s, _, runs = since
        if self.runs > runs:
            return (self.kernel_s - kernel_s) / (self.runs - runs) / REF_S
        if self.last_s is None:
            raise NoSamples("no kernel has run yet")
        return self.last_s / REF_S

    def handler_time(self, since: tuple[float, float, int]) -> float:
        return self.handler_s - since[1]

    def scaled(self, wall_s: float, since: tuple[float, float, int]) -> float:
        """``wall_s``, measured since the mark, at the reference speed."""
        return (wall_s - self.handler_time(since)) / self.slowdown(since)
