"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload builds its inputs from the seed alone and hands the package
only those inputs. ``execute`` is the timed part of a pass; ``check`` runs
after the clock stops and returns how many ops failed, a sha256 fingerprint
of the output at full precision, and the workload's own result figures.

All calls into the package go through module attributes looked up at call
time (``pkg.simulator.rate_point``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import random
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

PACKAGE = "decoyqkd"
KNOWN_STATUSES = frozenset({"ok", "no_key", "no_detections"})

# Published rate/time table for the SNSPD preset (eps_sec = 1e-9,
# eps_cor = 1e-15): SKR in Hz per (block size, protocol, attenuation).
TABLE1_SKR = {
    (1e7, "one"): {26.0: 243e3, 46.0: 2627.0, 56.0: 227.0, 64.0: 11.3},
    (1e7, "two"): {26.0: 236e3, 46.0: 2503.0, 56.0: 197.0, 64.0: 14.1},
    (1e9, "one"): {26.0: 357e3, 46.0: 3970.0, 56.0: 356.0, 64.0: 25.5},
    (1e9, "two"): {26.0: 355e3, 46.0: 3881.0, 56.0: 333.0, 64.0: 30.7},
}
# 1-decoy acquisition times at n_Z = 1e9: 17 min, 23 h, 10 d, 67 d.
TABLE1_TIME = {
    (1e9, "one"): {26.0: 1020.0, 46.0: 82_800.0, 56.0: 864_000.0, 64.0: 5_788_800.0},
}
TABLE1_TOL = 0.10


class PackageMissing(RuntimeError):
    """The checkout holds no ``src/decoyqkd`` to benchmark."""


def purge_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def load_package(root: Path):
    """Import ``decoyqkd`` and its layers from ``root/src``, never from an
    installed copy."""
    src = (root / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise PackageMissing(f"no {PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent.parent != src:
        raise PackageMissing(f"{PACKAGE} was imported from {pkg.__file__}, not from {src}")
    for layer in ("model", "bounds", "simulator", "optimizer", "cli"):
        importlib.import_module(f"{PACKAGE}.{layer}")
    return pkg


@dataclass
class Checked:
    """What one pass produced, judged after the clock stopped."""

    ops: int
    failed: int
    fingerprint: str
    figures: dict = field(default_factory=dict)


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _rate_ok(rate) -> bool:
    """A RatePoint is well formed: finite, non-negative rate and key length,
    a known status, and a finite acquisition time unless nothing is detected."""
    if rate.status not in KNOWN_STATUSES:
        return False
    if not (math.isfinite(rate.skr_hz) and rate.skr_hz >= 0.0):
        return False
    if not (math.isfinite(rate.key_length) and rate.key_length >= 0.0):
        return False
    values = [rate.s0_lower, rate.s1_lower_z, rate.s1_lower_x, rate.v1_upper_x,
              rate.phase_error_upper, rate.lambda_ec, rate.qber_z]
    if rate.s0_upper is not None:
        values.append(rate.s0_upper)
    if rate.status != "no_detections":
        values.append(rate.acquisition_s)
    return all(math.isfinite(v) for v in values)


class Table1:
    """``decoyqkd table1`` in process: the published grid, 2 block sizes x
    26/46/56/64 dB x 2 protocols = 16 optimized points. Ignores the seed."""

    name = "table1"
    op_span = "optimizer.optimize_point"
    ops_per_pass = 16

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        self.csv_path = workdir / "table1.csv"
        self.argv = ["table1", "--out", str(self.csv_path)]

    def execute(self):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = self.pkg.cli.main(self.argv)
            except Exception as exc:  # the run goes on; the pass counts as failed
                return exc
        return code

    def check(self, outcome) -> Checked:
        if outcome != 0 or not self.csv_path.is_file():
            return Checked(self.ops_per_pass, self.ops_per_pass, "", {"error": repr(outcome)})
        data = self.csv_path.read_bytes()
        self.csv_path.unlink()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        failed = max(0, self.ops_per_pass - len(rows))
        worst = 0.0
        zero = 0
        for row in rows:
            key = (float(row["n_z"]), row["protocol"])
            att = float(row["attenuation_db"])
            skr = float(row["skr_hz"])
            zero += skr == 0.0
            published = TABLE1_SKR.get(key, {}).get(att)
            devs = [abs(skr / published - 1.0) if published else math.inf]
            if att in TABLE1_TIME.get(key, {}):
                devs.append(abs(float(row["acquisition_s"]) / TABLE1_TIME[key][att] - 1.0))
            worst = max(worst, *devs)
            failed += not all(d <= TABLE1_TOL for d in devs)
        figures = {"zero_rate_points": zero, "table1_worst_dev": worst}
        return Checked(self.ops_per_pass, failed, hashlib.sha256(data).hexdigest(), figures)


def reach_grid(seed: int) -> list[float]:
    """One attenuation drawn uniformly from each 1 dB bin from 60 to 72 dB.

    A point with a key costs 3-5 times as much as one past the cutoff, so the
    cost of a pass depends on where the cutoff falls; 1 dB bins keep that
    seed-to-seed difference small."""
    rng = random.Random(seed)
    return [round(rng.uniform(60.0 + i, 61.0 + i), 3) for i in range(12)]


class Reach:
    """``optimizer.sweep`` over both protocols (snspd, n_Z = 1e7) on a seeded
    grid across the key-rate cutoff, where most evaluations have no key."""

    name = "reach"
    op_span = "optimizer.optimize_point"

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        self.grid = reach_grid(seed)
        self.channel = pkg.channel_from_preset("snspd", self.grid[0])
        self.sec = pkg.SecurityParams(1e-9, 1e-15, 1e7)
        self.specs = [pkg.OptimizationSpec(variant=v)
                      for v in (pkg.Variant.ONE_DECOY, pkg.Variant.TWO_DECOY)]
        self.ops_per_pass = len(self.grid) * len(self.specs)

    def execute(self):
        try:
            return self.pkg.optimizer.sweep(self.channel, self.grid, self.sec, self.specs)
        except Exception as exc:  # the run goes on; the pass counts as failed
            return exc

    def check(self, outcome) -> Checked:
        if isinstance(outcome, Exception):
            return Checked(self.ops_per_pass, self.ops_per_pass, "", {"error": repr(outcome)})
        rows = outcome.rows
        failed = max(0, self.ops_per_pass - len(rows)) + sum(not _rate_ok(r.rate) for r in rows)
        zeros = [f"{r.variant.value}@{r.attenuation_db}" for r in rows if r.rate.skr_hz == 0.0]
        figures = {"zero_rate_points": len(zeros), "zero_points": zeros}
        for variant in self.pkg.Variant:
            keyed = [r.attenuation_db for r in rows if r.variant is variant and r.rate.skr_hz > 0.0]
            figures[f"reach_db.{variant.value}"] = max(keyed, default=0.0)
        return Checked(self.ops_per_pass, failed, _sha256(repr(r) for r in rows), figures)


def evaluate_stream(pkg, seed: int, count: int) -> list:
    """Fixed-parameter points spanning the valid domain: both protocols, both
    detector presets, 0-72 dB, n_Z from 1e5 to 1e11, random intensities,
    intensity probabilities and basis bias."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        two = rng.random() < 0.5
        channel = pkg.channel_from_preset(rng.choice(("snspd", "ingaas")), rng.uniform(0.0, 72.0))
        sec = pkg.SecurityParams(1e-9, 1e-15, 10.0 ** rng.uniform(5.0, 11.0))
        mu1 = rng.uniform(0.05, 1.2)
        mu2 = mu1 * rng.uniform(0.02, 0.6)
        intensities = (mu1, mu2, mu2 * rng.uniform(0.0, 0.5)) if two else (mu1, mu2)
        weights = [rng.uniform(0.05, 1.0) for _ in intensities]
        total = sum(weights)
        probs = [w / total for w in weights[:-1]]
        probs.append(1.0 - sum(probs))
        variant = pkg.Variant.TWO_DECOY if two else pkg.Variant.ONE_DECOY
        protocol = pkg.ProtocolParams(variant, intensities, tuple(probs), rng.uniform(0.5, 0.99))
        points.append(pkg.SimulationPoint(channel, protocol, sec))
    return points


class Evaluate:
    """A seeded stream of fixed-parameter ``simulator.rate_point`` calls; it
    bypasses the optimizer, so it isolates simulator, bounds and model."""

    name = "evaluate"
    op_span = "simulator.rate_point"
    stream_size = 20_000

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        self.points = evaluate_stream(pkg, seed, self.stream_size)
        self.ops_per_pass = len(self.points)

    def execute(self):
        simulator = self.pkg.simulator
        clock = time.perf_counter
        results = []
        latencies = array("d")
        for point in self.points:
            start = clock()
            try:
                result = simulator.rate_point(point)
            except Exception as exc:  # the stream goes on; the op counts as failed
                result = exc
            latencies.append(clock() - start)
            results.append(result)
        return results, latencies

    def check(self, outcome) -> Checked:
        results, latencies = outcome
        failed = sum(isinstance(r, Exception) or not _rate_ok(r) for r in results)
        statuses = {s: sum(getattr(r, "status", None) == s for r in results) for s in KNOWN_STATUSES}
        figures = {f"{s}_frac": n / len(results) for s, n in sorted(statuses.items())}
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        figures["op_p50_ms"] = cuts[49] * 1e3
        figures["op_p99_ms"] = cuts[98] * 1e3
        return Checked(len(results), failed, _sha256(repr(r) for r in results), figures)


WORKLOADS = {w.name: w for w in (Table1, Reach, Evaluate)}
