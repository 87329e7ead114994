"""Results do not depend on the interpreter's ``sum()``: from CPython 3.12 it
compensates a sum of floats (gh-100425), up to 3.11 it adds left to right.
The package adds its floats left to right in level order itself, so a
``rate_point`` stream and a sweep keep their repr when ``builtins.sum`` is
swapped for a compensated one, with no second interpreter needed."""

from __future__ import annotations

import builtins
import math
import random

from decoyqkd import OptimizationSpec, SecurityParams, Variant, channel_from_preset, sweep
from decoyqkd.simulator import rate_point

from conftest import left_sum, random_point, use_cores

_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it: Neumaier-compensated over
    floats, exact where every term and the start are ints (bools too)."""
    items = list(iterable)
    if not isinstance(start, float) and not any(isinstance(v, float) for v in items):
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for value in map(float, items):
        added = total + value
        if abs(total) >= abs(value):
            compensation += (total - added) + value
        else:
            compensation += (value - added) + total
        total = added
    return total + compensation if math.isfinite(compensation) else total


def outputs(points) -> list[str]:
    """The reprs of the ``rate_point`` results of ``points``, and of the
    rows of a two-point sweep of both variants with one start each."""
    specs = [OptimizationSpec(v, starts=1) for v in Variant]
    result = sweep(channel_from_preset("snspd", 26.0), [26.0, 46.0],
                   SecurityParams(1e-9, 1e-15, 1e6), specs)
    return [repr(rate_point(p)) for p in points] + [repr(row) for row in result.rows]


def test_results_do_not_depend_on_the_builtin_sum(monkeypatch):
    # 200 seeded points of both variants, n_Z from 1e5 to 1e11, built by
    # left_sum and never by sum(), so they are the same on every Python
    rng = random.Random(14)
    points = [random_point(rng, 10.0 ** rng.uniform(5.0, 11.0)) for _ in range(200)]
    use_cores(monkeypatch, {0})  # one process: the swap below reaches every call
    before = outputs(points)
    # the swap changes what a sum() of floats returns, and keeps ints exact
    assert compensated_sum([0.1] * 10) == 1.0 != left_sum([0.1] * 10)
    assert compensated_sum([True, False, True]) == 2
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert outputs(points) == before
