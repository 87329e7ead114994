"""Benchmark for decoyqkd, run from the root of a checkout:

    python3 perfbench/run.py --workload {table1,reach,evaluate} --seed N \
        --seconds S --trace {0,1}

It imports ``decoyqkd`` from ``src/`` and drives it through its public
functions, in one process and a closed loop: the next operation starts when
the previous one returns. Workloads (why each was chosen):

- ``table1``: ``decoyqkd table1`` in process, the paper's fixed grid of 16
  optimized points. It is the command users run; nearly all of its time goes
  to optimizer -> simulator -> bounds on points that have a key.
- ``reach``: ``optimizer.sweep`` over both protocols on 12 seeded
  attenuations, one per 1 dB bin from 60 to 72 dB. Most evaluations sit on
  the zero-key plateau, where starts stall and bounds exit early, and some
  optimized points come back at 0 Hz although a key exists.
- ``evaluate``: 20 000 seeded fixed-parameter ``simulator.rate_point`` calls
  across the valid domain. It bypasses the optimizer, so it isolates
  simulator, bounds and model.

A pass is one ``table1`` run, one sweep, or one walk over the stream. Passes
repeat while the next one is expected to end within ``--seconds``; at least
one runs. Outputs are checked after each pass, outside the timed region.

Times are taken at the reference speed of ``hostspeed.py``: a reference
kernel runs every 50 ms from a signal handler throughout set-up and passes.
Each time, less the handlers' own time, is divided by how slow the kernel
was: over all set-ups for ``setup_s``, over all untraced passes for
``wall_s`` (the mean pass) and ``ops_per_s``, and over the traced pass for
``trace_overhead_frac``. On a shared host the speed drifts (up to 2x within
minutes on 2 cores of an Intel Xeon), which would otherwise swamp any change
of the program; of the ways tried, the mean over a whole run scattered least
between runs. The unscaled pass time and rate are printed
and recorded as ``raw_wall_s`` and ``raw_ops_per_s``, with the kernel's
``host_slowdown`` over the passes.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs untraced passes for half of ``--seconds``, then one pass
with the layer wrappers of ``tracer.py`` installed, removes them, confirms
each module attribute is its original again, and reports the per-layer
metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and direction. Exit code 0: every check passed;
1: a check failed; 2: there is no package to benchmark. The full result,
fingerprints included, goes to ``.perfbench_out/`` in the checkout, with the
recorded spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_MIN_S: one table1 set-up takes about 40 ms on a 2-core Xeon, so five
# of them can all fall within one slow moment of a shared host.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0

# name -> (unit, better); the same lists as in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# Per-layer metrics of the traced run, grouped by the end-to-end metric each
# should move and on which workload. A layer a workload does not run reads 0;
# on evaluate, optimizer.zero_eval_frac is the share of the stream's calls
# that return 0 Hz. Per-call times include the wrappers' cost, so they compare
# only between traced runs.
PER_LAYER = {
    # cli: wall_s on table1 (near 0 expected).
    "cli.main.self_s": ("s", "lower"),
    # optimizer: wall_s and ops_per_s on table1 and reach; zero_eval_frac is the
    # wasted-work ratio behind the zero_rate_points and reach_db figures of reach.
    "optimizer.optimize_point.s_mean": ("s", "lower"),
    "optimizer.optimize_point.self_frac": ("frac", "lower"),
    "optimizer.evals_per_point": ("count", "lower"),
    "optimizer.zero_eval_frac": ("frac", "lower"),
    # simulator: wall_s and op_p50_ms on evaluate; wall_s on table1 and reach in
    # proportion to evaluations x us.
    "simulator.rate_point.us_p50": ("us", "lower"),
    "simulator.rate_point.self_us_p50": ("us", "lower"),
    "simulator.expected_observations.us_p50": ("us", "lower"),
    "simulator.no_detections_frac": ("frac", "lower"),
    # bounds and model: wall_s and op_p50_ms on evaluate first.
    "bounds.estimate_key.us_p50": ("us", "lower"),
    "bounds.phase_error_upper.us_p50": ("us", "lower"),
    "bounds.single_photon_lower.calls_per_eval": ("count", "lower"),
    "bounds.vacuum_events_lower.calls_per_eval": ("count", "lower"),
    "bounds.vacuum_events_upper.calls_per_eval": ("count", "lower"),
    "bounds.corrected_count.calls_per_eval": ("count", "lower"),
    "bounds.no_key_frac": ("frac", "lower"),
    "model.photon_number_prob.calls_per_eval": ("count", "lower"),
    "model.hoeffding_delta.calls_per_eval": ("count", "lower"),
    "model.Observations.us_p50": ("us", "lower"),
    "model.ProtocolParams.calls": ("count", "lower"),
    # traced wall_s / untraced wall_s - 1 on the same workload.
    "trace_overhead_frac": ("frac", "lower"),
}
# Printed and recorded in the result file only: each applies to some
# workloads, or reads 0 when all is well.
FIGURES = {
    "failed_ops_frac": ("frac", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p99_ms": ("ms", "lower"),
    "zero_rate_points": ("count", "lower"),
    "reach_db.one": ("dB", "higher"),
    "reach_db.two": ("dB", "higher"),
    "table1_worst_dev": ("frac", "lower"),
    "raw_wall_s": ("s", "lower"),
    "raw_ops_per_s": ("1/s", "higher"),
    "host_slowdown": ("x", "lower"),
    "ok_frac": ("frac", "higher"),
    "no_key_frac": ("frac", "lower"),
    "no_detections_frac": ("frac", "lower"),
}


def set_up(name: str, seed: int, workdir: Path, sampler: hostspeed.Sampler):
    """Import the package and build the inputs from a clean module cache,
    repeatedly; return the median time at the reference speed and the last
    workload.

    One set-up is too short to sample the host's speed within it, so every
    set-up is scaled by the kernel's mean time over all of them. The previous
    workload and its copy of the package are freed before each rebuild, so
    that set-up does not raise the peak RSS above what the passes themselves
    hold."""
    times = []
    begin = sampler.mark()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        workload = pkg = None
        workloads.purge_package()
        gc.collect()
        mark = sampler.mark()
        start = time.perf_counter()
        pkg = workloads.load_package(ROOT)
        workload = workloads.WORKLOADS[name](pkg, seed, workdir)
        times.append(time.perf_counter() - start - sampler.handler_time(mark))
    return statistics.median(times) / sampler.slowdown(begin), workload


def run_passes(workload, budget_s: float,
               sampler: hostspeed.Sampler) -> tuple[list[float], float, list]:
    """Timed passes while the next one is expected to fit in budget_s.
    Returns each pass's wall time less the sampler's handlers, the host's
    slowdown over the passes (checks included), and the checks. The previous
    pass's output is freed before the next pass starts."""
    walls, checks = [], []
    begin = sampler.mark()
    started = time.perf_counter()
    while True:
        outcome = None
        mark = sampler.mark()
        start = time.perf_counter()
        outcome = workload.execute()
        walls.append(time.perf_counter() - start - sampler.handler_time(mark))
        checks.append(workload.check(outcome))
        if time.perf_counter() - started + statistics.median(walls) > budget_s:
            return walls, sampler.slowdown(begin), checks


def layer_metrics(tr: tracing.Tracer, overhead: float) -> dict[str, float]:
    evals = tr.calls("simulator.rate_point")
    points = tr.calls("optimizer.optimize_point")

    def share(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def p50(name: str, which: int = 0) -> float:
        values = tr.samples[name][which]
        return statistics.median(values) * 1e6 if values else 0.0

    optimize = tr.stats.get("optimizer.optimize_point", [0, 0.0, 0.0])
    values = {
        "cli.main.self_s": tr.stats.get("cli.main", [0, 0.0, 0.0])[2],
        "optimizer.optimize_point.s_mean": share(optimize[1], optimize[0]),
        "optimizer.optimize_point.self_frac": share(optimize[2], optimize[1]),
        "optimizer.evals_per_point": share(evals, points),
        "optimizer.zero_eval_frac": share(tr.counts["simulator.rate_point", "zero"], evals),
        "simulator.rate_point.us_p50": p50("simulator.rate_point"),
        "simulator.rate_point.self_us_p50": p50("simulator.rate_point", which=1),
        "simulator.expected_observations.us_p50": p50("simulator.expected_observations"),
        "simulator.no_detections_frac": share(
            tr.counts["simulator.rate_point", "status=no_detections"], evals),
        "bounds.estimate_key.us_p50": p50("bounds.estimate_key"),
        "bounds.phase_error_upper.us_p50": p50("bounds.phase_error_upper"),
        "bounds.no_key_frac": share(tr.counts["bounds.estimate_key", "status=no_key"],
                                    tr.calls("bounds.estimate_key")),
        "model.Observations.us_p50": p50("model.Observations"),
        "model.ProtocolParams.calls": tr.calls("model.ProtocolParams"),
        "trace_overhead_frac": overhead,
    }
    for name in PER_LAYER:
        if name.endswith(".calls_per_eval"):
            values[name] = share(tr.calls(name[: -len(".calls_per_eval")]), evals)
    return {name: values[name] for name in PER_LAYER}


def write_spans(tr: tracing.Tracer, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op", "self_s"],
                             "kept": len(tr.spans), "dropped": tr.dropped}) + "\n")
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")


def report(values: dict, catalogue: dict) -> dict:
    out = {}
    for name, value in values.items():
        unit, better = catalogue[name]
        print(f"{name:<44} {value:>16.6g} {unit:<6} ({better} is better)")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="decoyqkd benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    sampler = hostspeed.Sampler()
    try:
        with sampler.sampling():
            try:
                setup_s, workload = set_up(args.workload, args.seed, workdir, sampler)
            except workloads.PackageMissing as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            budget = args.seconds / 2 if args.trace else args.seconds
            walls, slowdown, checks = run_passes(workload, budget, sampler)
            restore_failures: list[str] = []
            if args.trace:
                tr = tracing.Tracer(op_names=[workload.op_span])
                try:
                    with tracing.installed(tr) as originals:
                        mark = sampler.mark()
                        start = time.perf_counter()
                        outcome = workload.execute()
                        traced_wall = sampler.scaled(time.perf_counter() - start, mark)
                except tracing.MissingTarget as exc:
                    print(f"error: the package has no {exc}; update tracer.TARGETS",
                          file=sys.stderr)
                    return 1
                restore_failures = tracing.not_restored(originals)
                checks.append(workload.check(outcome))
                write_spans(tr, OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c.ops for c in checks)
    failed = sum(c.failed for c in checks)
    fingerprints = sorted({c.fingerprint for c in checks})
    correct = failed == 0 and len(fingerprints) == 1 and not restore_failures

    figures = {"failed_ops_frac": failed / attempted,
               "raw_wall_s": statistics.mean(walls),
               "raw_ops_per_s": sum(c.ops for c in checks[: len(walls)]) / sum(walls),
               "host_slowdown": slowdown}
    figures.update({k: v for k, v in checks[0].figures.items() if k in FIGURES})
    # Per-op percentiles: the median over the untraced passes of each pass's
    # own, so that nothing kept grows with the number of passes.
    timed = [c for c in checks[: len(walls)] if "op_p50_ms" in c.figures]
    for name in ("op_p50_ms", "op_p99_ms"):
        if timed:
            figures[name] = statistics.median(c.figures[name] for c in timed)
    op_samples = sum(c.ops for c in timed)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls)} untraced pass(es), {attempted} ops attempted, {failed} failed")
    if args.trace:
        overhead = traced_wall / (statistics.mean(walls) / slowdown) - 1.0
        metrics = report(layer_metrics(tr, overhead), PER_LAYER)
        print(f"spans kept {len(tr.spans)}, beyond the cap {tr.dropped}")
    else:
        metrics = report({
            "setup_s": setup_s,
            "wall_s": statistics.mean(walls) / slowdown,
            "ops_per_s": attempted / sum(walls) * slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, END_TO_END)
    report(figures, FIGURES)
    if timed:
        print(f"op latency samples: {op_samples} in {len(timed)} passes")
    print(f"fingerprint: {' '.join(fingerprints)}")
    if restore_failures:
        print(f"wrappers left in place: {', '.join(restore_failures)}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, walls_s=walls, figures=figures,
                  op_samples=op_samples,
                  details=checks[0].figures, fingerprints=fingerprints)
    path = OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
