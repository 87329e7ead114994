"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/baseline.py

Runs ``run.py`` on every workload, one run after the other from the root of
the checkout, for ``run_seconds`` of BENCHMARK.json each: untraced on seeds
1-10, traced on seeds 1 and 2. It prints each run's report, metrics with
unit and direction, and stops with a non-zero exit at the first run whose
output checks fail. Then, for each metric, it prints the median over the
seeds and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. It records
every run (metrics, result figures, output fingerprints, pass times) and the
machine in ``perfbench/baseline.json``, as a baseline for later changes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads

SEEDS = range(1, 11)
TRACE_SEEDS = (1, 2)
BASELINE = run.ROOT / "perfbench" / "baseline.json"


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    *lines, last = proc.stdout.strip().splitlines() or [""]
    print("\n".join(lines), flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}{last}")
    last = json.loads(last)
    detail = json.loads((run.OUT_DIR / f"result-{workload}-{seed}-{trace}.json").read_text())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "figures": detail["figures"], "details": detail["details"],
        "fingerprints": detail["fingerprints"], "walls_s": detail["walls_s"],
    }


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    summary: dict = {}
    for workload in workloads.WORKLOADS:
        for trace, seeds in ((0, SEEDS), (1, TRACE_SEEDS)):
            batch = [one_run(workload, seed, seconds, trace) for seed in seeds]
            runs.extend(batch)
            rows = summary.setdefault(workload, {}).setdefault(f"trace{trace}", {})
            for name in batch[0]["metrics"]:
                values = [r["metrics"][name] for r in batch]
                rows[name] = {"median": statistics.median(values), "spread": spread(values)}
                print(f"{workload:<9} trace{trace} {name:<44} median {rows[name]['median']:>12.6g}"
                      f"  spread {rows[name]['spread']:.4f}", flush=True)
            print(f"{workload:<9} trace{trace} correct {all(r['correct'] for r in batch)}, "
                  f"fingerprints {sorted({f for r in batch for f in r['fingerprints']})}",
                  flush=True)

    document = {"machine": machine(), "seconds": seconds, "summary": summary, "runs": runs}
    BASELINE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
