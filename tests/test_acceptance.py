"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).

Reference rate/time cells come from the published comparison table for SNSPD
parameters (1 GHz, 100 ns dead time, p_DC = 1e-8, 1% misalignment,
eps_sec = 1e-9, eps_cor = 1e-15); tolerance is +/-10% throughout.
"""

import math
import random
import time

import pytest

from decoyqkd import (
    Basis,
    BoundInputs,
    OptimizationSpec,
    SecurityParams,
    SimulationPoint,
    Variant,
    channel_from_preset,
    compare_protocols,
    epsilon_budget,
    estimate_key,
    expected_observations,
    optimize_point,
    poisson_pmf,
    single_photon_lower,
    sweep,
    vacuum_events_lower,
    vacuum_events_upper,
)
from decoyqkd.cli import main as cli_main

from conftest import ASYMPTOTIC_BUDGET, oracle_photon_counts, random_point

RATE_TOL = 0.10

TABLE1_SKR = {
    1e7: {
        Variant.ONE_DECOY: {26.0: 243e3, 46.0: 2627.0, 56.0: 227.0, 64.0: 11.3},
        Variant.TWO_DECOY: {26.0: 236e3, 46.0: 2503.0, 56.0: 197.0, 64.0: 14.1},
    },
    1e9: {
        Variant.ONE_DECOY: {26.0: 357e3, 46.0: 3970.0, 56.0: 356.0, 64.0: 25.5},
        Variant.TWO_DECOY: {26.0: 355e3, 46.0: 3881.0, 56.0: 333.0, 64.0: 30.7},
    },
}
# 17 min / 23 H / 10 d / 67 d, in seconds
TABLE1_TIME_1D_1E9 = {26.0: 1020.0, 46.0: 82_800.0, 56.0: 864_000.0, 64.0: 5_788_800.0}

SPECS = (
    OptimizationSpec(variant=Variant.ONE_DECOY),
    OptimizationSpec(variant=Variant.TWO_DECOY),
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def table1_sweep(block_size: float):
    sec = SecurityParams(1e-9, 1e-15, block_size)
    grid = sorted(TABLE1_SKR[block_size][Variant.ONE_DECOY])
    return sweep(channel_from_preset("snspd", 26.0), grid, sec, SPECS)


@pytest.fixture(scope="module")
def crossover_sweep():
    grid = [float(a) for a in range(10, 61, 5)] + [64.0]
    sec = SecurityParams(1e-9, 1e-15, 1e7)
    return sweep(channel_from_preset("snspd", 10.0), grid, sec, SPECS)


def test_criterion_1_table1_rates_1e7():
    started = time.perf_counter()
    result = table1_sweep(1e7)
    elapsed = time.perf_counter() - started
    worst = 0.0
    for variant, cells in TABLE1_SKR[1e7].items():
        for att, target in cells.items():
            ratio = result.row(att, variant).rate.skr_hz / target
            worst = max(worst, abs(ratio - 1.0))
    ok = worst <= RATE_TOL and elapsed < 60.0
    report(1, ok, f"8 cells at n_Z=1e7, worst deviation {worst:.1%}, runtime {elapsed:.1f}s")


def test_criterion_2_table1_rates_and_times_1e9():
    result = table1_sweep(1e9)
    worst_rate = 0.0
    for variant, cells in TABLE1_SKR[1e9].items():
        for att, target in cells.items():
            ratio = result.row(att, variant).rate.skr_hz / target
            worst_rate = max(worst_rate, abs(ratio - 1.0))
    worst_time = 0.0
    for att, target in TABLE1_TIME_1D_1E9.items():
        ratio = result.row(att, Variant.ONE_DECOY).rate.acquisition_s / target
        worst_time = max(worst_time, abs(ratio - 1.0))
    ok = worst_rate <= RATE_TOL and worst_time <= RATE_TOL
    report(
        2,
        ok,
        f"8 cells at n_Z=1e9, worst rate deviation {worst_rate:.1%}, "
        f"worst 1-decoy time deviation {worst_time:.1%}",
    )


def test_criterion_3_crossover_sign_pattern(crossover_sweep):
    bad = []
    for row in compare_protocols(crossover_sweep):
        if row.attenuation_db <= 60.0 and row.rel_difference < 0.0:
            bad.append(f"{row.attenuation_db:g} dB: {row.rel_difference:+.2%}")
        if row.attenuation_db == 64.0 and row.rel_difference >= 0.0:
            bad.append(f"64 dB not won by 2-decoy ({row.rel_difference:+.2%})")
    report(3, not bad, "1-decoy >= 2-decoy on 10-60 dB and 2-decoy wins at 64 dB"
           + (f"; violations: {bad}" if bad else ""))


def test_criterion_4_vacuum_state_probability(crossover_sweep):
    lows = [
        (row.attenuation_db, row.params.intensity_probs[2])
        for row in crossover_sweep.rows
        if row.variant is Variant.TWO_DECOY and row.attenuation_db <= 60.0
    ]
    minimum = min(p for _, p in lows)
    report(4, minimum > 0.08, f"2-decoy vacuum-state probability stays above 0.08 "
           f"(minimum {minimum:.3f})")


def test_criterion_5_sandwich_oracle():
    rng = random.Random(20240517)
    violations = 0
    slack = 1.0 + 1e-9
    for _ in range(50):
        point = random_point(rng)
        obs = expected_observations(point)
        inputs = BoundInputs(
            params=point.protocol,
            sec=point.sec,
            obs=obs,
            budget=ASYMPTOTIC_BUDGET,
        )
        for basis in (Basis.Z, Basis.X):
            detections, _ = oracle_photon_counts(point, obs, basis)
            if not vacuum_events_lower(inputs, basis) <= detections[0] * slack + 1e-9:
                violations += 1
            if not single_photon_lower(inputs, basis) <= detections[1] * slack + 1e-9:
                violations += 1
            if point.protocol.variant is Variant.ONE_DECOY:
                upper = vacuum_events_upper(inputs, basis)
                if not detections[0] <= upper * slack + 1e-9:
                    violations += 1
    report(5, violations == 0,
           f"50 random points, deviations off: {violations} sandwich violations")


def test_criterion_6_channel_identity():
    worst = 0.0
    for mu in (0.1, 0.5, 1.0):
        for eta in (1e-3, 1e-1):
            expanded = sum(
                poisson_pmf(mu, n) * (1.0 - (1.0 - eta) ** n) for n in range(51)
            )
            worst = max(worst, abs(expanded - (-math.expm1(-mu * eta))))
    report(6, worst < 1e-10,
           f"poisson expansion equals 1-exp(-mu*eta), worst gap {worst:.2e}")


def test_criterion_7_asymptotic_convergence():
    channel = channel_from_preset("snspd", 30.0)
    params, _ = optimize_point(
        channel, SecurityParams(1e-9, 1e-15, 1e7), OptimizationSpec(variant=Variant.ONE_DECOY)
    )

    def key_fraction(block: float, asymptotic: bool) -> float:
        sec = SecurityParams(1e-9, 1e-15, block)
        obs = expected_observations(SimulationPoint(channel, params, sec))
        budget = ASYMPTOTIC_BUDGET if asymptotic else epsilon_budget(params, sec)
        est = estimate_key(BoundInputs(params=params, sec=sec, obs=obs, budget=budget))
        return est.key_length / block

    reference = key_fraction(1e13, asymptotic=True)
    fractions = [key_fraction(b, asymptotic=False) for b in (1e6, 1e7, 1e8, 1e9, 1e10)]
    monotone = all(a < b for a, b in zip(fractions, fractions[1:]))
    gap = (reference - fractions[-1]) / reference
    ok = monotone and 0.0 <= gap < 0.02
    report(7, ok, f"l/n_Z monotone over 1e6..1e10 ({monotone}), gap at 1e10 = {gap:.2%}")


def test_criterion_8_ingaas_two_decoy_window():
    sec = SecurityParams(1e-9, 1e-15, 1e7)
    grid = [2.0 + 2.0 * i for i in range(14)]  # 2..28 dB
    edges = {}
    for preset in ("snspd", "ingaas"):
        result = sweep(channel_from_preset(preset, 2.0), grid, sec, SPECS)
        negatives = [
            row.attenuation_db
            for row in compare_protocols(result)
            if row.rel_difference is not None and row.rel_difference < 0.0
        ]
        edges[preset] = max(negatives) if negatives else -math.inf
    ok = edges["ingaas"] >= edges["snspd"]
    report(8, ok, f"largest 2-decoy-favorable attenuation below 30 dB: "
           f"ingaas {edges['ingaas']:g} dB >= snspd {edges['snspd']:g} dB")


def test_criterion_9_determinism(tmp_path):
    args = [
        "sweep", "--att", "30,40", "--seed-list", "3,5",
        "--block-size", "1e6",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    report(9, identical, "repeated runs with the same seed list are byte-identical")
