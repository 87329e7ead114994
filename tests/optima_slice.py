"""The regression slice: the optimized rows of table1 (snspd, n_Z = 1e7 and
1e9, 26/46/56/64 dB) and of the benchmark's reach grid of seed 1 (snspd,
n_Z = 1e7, one attenuation per 1 dB bin from 60 to 72 dB), both variants:
40 rows, each the SKR of ``sweep`` with the default ``OptimizationSpec``.

``test_optima_slice.py`` holds the package to the rates stored in
``optima_slice.json``. Until reference optima that do not share the search's
blind spots exist (ROADMAP item 9), the stored rates are those of the search
before the extrapolation step and the warm steps without a scan. Print them
with the package to be pinned on the path:

    PYTHONPATH=src python tests/optima_slice.py > tests/optima_slice.json
"""

from __future__ import annotations

import json
import random

from decoyqkd import OptimizationSpec, SecurityParams, Variant, channel_from_preset, sweep


def reach_grid(seed: int) -> list[float]:
    """The reach workload's grid (``perfbench/workloads.py``)."""
    rng = random.Random(seed)
    return [round(rng.uniform(60.0 + i, 61.0 + i), 3) for i in range(12)]


# name: the (n_Z, attenuation grid) of each sweep
SLICES = {
    "table1": [(1e7, [26.0, 46.0, 56.0, 64.0]), (1e9, [26.0, 46.0, 56.0, 64.0])],
    "reach seed 1": [(1e7, reach_grid(1))],
}


def rates(name: str) -> dict[str, float]:
    """SKR by "n_Z attenuation variant" of the slice ``name``."""
    found = {}
    for n_z, grid in SLICES[name]:
        result = sweep(channel_from_preset("snspd", grid[0]), grid,
                       SecurityParams(1e-9, 1e-15, n_z), [OptimizationSpec(v) for v in Variant])
        for row in result.rows:
            found[f"{n_z:g} {row.attenuation_db!r} {row.variant.value}"] = row.rate.skr_hz
    return found


if __name__ == "__main__":
    print(json.dumps({name: rates(name) for name in SLICES}, indent=1))
