"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
import run
import tracer
import workloads


@pytest.fixture(scope="module")
def pkg():
    return workloads.load_package(run.ROOT)


def scripted_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    tr = tracer.Tracer(op_names=("b", "d"), clock=scripted_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    tr.enter("a")
    tr.enter("b")
    tr.enter("c")
    tr.leave()
    tr.leave()
    tr.enter("d")
    tr.leave()
    tr.leave()
    spans = {s[1]: s for s in tr.spans}
    # (id, name, start, end, parent, op, self_s)
    assert spans["a"] == (1, "a", 0, 10, 0, 0, 3)
    assert spans["b"] == (2, "b", 1, 4, 1, 1, 2)
    assert spans["c"] == (3, "c", 2, 3, 2, 1, 1)
    assert spans["d"] == (4, "d", 5, 9, 1, 2, 4)
    assert tr.stats == {"a": [1, 10, 3], "b": [1, 3, 2], "c": [1, 1, 1], "d": [1, 4, 4]}
    assert sum(s[6] for s in tr.spans) == 10


def test_spans_beyond_the_cap_still_count():
    tr = tracer.Tracer(keep_spans=2, sampled=("f",), clock=scripted_clock(range(100)))
    f = tr.wrap("f", lambda x: x)
    for i in range(5):
        assert f(i) == i
    assert len(tr.spans) == 2 and tr.dropped == 3
    assert tr.calls("f") == 5 and list(tr.samples["f"][0]) == [1.0] * 5


def test_wrapper_closes_its_span_when_the_call_raises():
    tr = tracer.Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.calls("boom") == 1 and not tr._stack


def test_scaling_to_the_reference_speed():
    sampler = hostspeed.Sampler()
    mark = sampler.mark()
    # Since the mark, four kernels took twice the reference time each, and
    # their handlers 0.1 s more in all.
    sampler.runs += 4
    sampler.kernel_s += 4 * 2 * hostspeed.REF_S
    sampler.handler_s += 4 * 2 * hostspeed.REF_S + 0.1
    assert sampler.slowdown(mark) == pytest.approx(2.0)
    handlers = 8 * hostspeed.REF_S + 0.1
    assert sampler.scaled(10.0 + handlers, mark) == pytest.approx(5.0)
    # No kernel since the mark: the latest one's time stands in.
    sampler.last_s = 3 * hostspeed.REF_S
    assert sampler.scaled(0.03, sampler.mark()) == pytest.approx(0.01)
    with pytest.raises(hostspeed.NoSamples):
        hostspeed.Sampler().slowdown((0.0, 0.0, 0))


def test_sampler_runs_the_kernel_and_removes_its_timer():
    sampler = hostspeed.Sampler()
    before = signal.getsignal(signal.SIGALRM)
    with sampler.sampling():
        end = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert sampler.runs >= 2 and sampler.handler_s >= sampler.kernel_s > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_equal_seeds_give_identical_inputs(pkg):
    assert workloads.reach_grid(7) == workloads.reach_grid(7)
    assert workloads.reach_grid(7) != workloads.reach_grid(8)
    for i, att in enumerate(workloads.reach_grid(7)):
        assert 60.0 + i <= att <= 61.0 + i

    def stream(seed):
        return [repr(p) for p in workloads.evaluate_stream(pkg, seed, 200)]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_wrappers_are_restored(pkg):
    tr = tracer.Tracer(op_names=("simulator.rate_point",))
    point = workloads.evaluate_stream(pkg, 1, 1)[0]
    with tracer.installed(tr) as originals:
        assert len(originals) == len(tracer.TARGETS)
        assert all(getattr(m, a) is not o for m, a, o in originals)
        pkg.simulator.rate_point(point)
    assert tracer.not_restored(originals) == []
    assert all(getattr(m, a) is o for m, a, o in originals)
    assert tr.calls("simulator.rate_point") == 1
    assert tr.calls("bounds.estimate_key") == 1
    ids = {s[0] for s in tr.spans}
    assert all(s[4] in ids or s[4] == 0 for s in tr.spans)
    assert {s[5] for s in tr.spans} == {1}

    with pytest.raises(RuntimeError):
        with tracer.installed(tr) as originals:
            raise RuntimeError("pass failed")
    assert tracer.not_restored(originals) == []


def test_a_missing_target_is_an_error_not_zero_calls(pkg):
    targets = tracer.TARGETS + (("decoyqkd.bounds", "no_such_function", "bounds.gone"),)
    with pytest.raises(tracer.MissingTarget, match="decoyqkd.bounds.no_such_function"):
        with tracer.installed(tracer.Tracer(), targets):
            pass
    assert all(getattr(sys.modules[m], a) is not None for m, a, _ in tracer.TARGETS)
    assert pkg.bounds.single_photon_lower.__module__ == "decoyqkd.bounds"


def table1_csv(pkg, skr_scale=1.0):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = pkg.cli.CSV_HEADER.split(",")
    writer.writerow(header)
    for (block, protocol), cells in workloads.TABLE1_SKR.items():
        for att, skr in cells.items():
            row = dict.fromkeys(header, "")
            row.update(attenuation_db=att, protocol=protocol, skr_hz=skr * skr_scale,
                       n_z=f"{block:.9g}",
                       acquisition_s=workloads.TABLE1_TIME.get((block, protocol), {}).get(att, 1.0))
            writer.writerow(row[h] for h in header)
    return out.getvalue()


@pytest.mark.parametrize("scale, failed", [(1.0, 0), (1.09, 0), (0.89, 16)])
def test_table1_check_against_the_published_cells(pkg, tmp_path, scale, failed):
    workload = workloads.Table1(pkg, 0, tmp_path)
    workload.csv_path.write_text(table1_csv(pkg, scale))
    checked = workload.check(0)
    assert (checked.ops, checked.failed) == (16, failed)
    assert checked.figures["table1_worst_dev"] == pytest.approx(abs(scale - 1.0))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == catalogue


def test_fails_without_a_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reach", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
