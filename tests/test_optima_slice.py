"""The regression slice of ``optima_slice.py``: table1's 16 rows and the reach
grid of seed 1's 24, each held to its rate stored in ``optima_slice.json``.
No row may end more than ``rel_tol`` below it, nor at 0 Hz where the stored
row has a key. Each slice is searched on one core, so that its objective
calls can be counted, and must stay within its budget of calls."""

import json
from collections import Counter
from pathlib import Path

import pytest

from decoyqkd.optimizer import OptimizationSpec, _Objective
from decoyqkd.model import Variant

from conftest import use_cores
from optima_slice import rates

STORED = json.loads((Path(__file__).parent / "optima_slice.json").read_text())
REL_TOL = OptimizationSpec(Variant.ONE_DECOY).rel_tol


@pytest.mark.parametrize("name, budget", [("table1", 8_500), ("reach seed 1", 9_700)])
def test_no_row_ends_below_its_stored_rate(monkeypatch, name, budget):
    calls = Counter()

    def counted(objective, x, _original=_Objective.__call__):
        calls["objective"] += 1
        return _original(objective, x)

    monkeypatch.setattr(_Objective, "__call__", counted)
    use_cores(monkeypatch, {0})
    found = rates(name)
    assert found.keys() == STORED[name].keys()
    below = [
        f"{key}: {found[key]!r} Hz, stored {stored!r} Hz"
        for key, stored in STORED[name].items()
        if stored > 0.0 and not (found[key] > 0.0 and found[key] >= stored * (1.0 - REL_TOL))
    ]
    assert not below
    assert calls["objective"] <= budget
