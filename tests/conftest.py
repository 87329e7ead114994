"""Shared test helpers: the per-photon-number expansion oracle, the sandwich
check of the bounds against it, and random valid-input generators. The
oracle never calls the closed-form channel expressions; it rebuilds every
expected count from Poisson weights and the n-photon click probability
1 - (1-eta)**n + p_DC."""

from __future__ import annotations

import math
import random
from dataclasses import replace

from hypothesis import strategies as st

from decoyqkd import (
    Basis,
    BoundInputs,
    ChannelParams,
    EpsilonBudget,
    Observations,
    OptimizationSpec,
    ProtocolParams,
    SecurityParams,
    SimulationPoint,
    Variant,
    channel_from_preset,
    estimate_key,
    expected_observations,
)
from decoyqkd.optimizer import _LOGIT_LIMIT, _ORDER_MARGIN, _levels_from_x
from decoyqkd.simulator import DETECTOR_PRESETS

ORACLE_N_MAX = 50


def poisson_ref(mu: float, n: int) -> float:
    # factorial-based on purpose: independent of the package's lgamma path
    return math.exp(-mu) * mu**n / math.factorial(n)


def oracle_dead_time(point: SimulationPoint) -> float:
    """Self-consistent dead-time factor from the per-photon-number expansion."""
    eta = point.channel.transmittance
    dark = point.channel.dark_count_prob
    raw = 0.0
    for mu, p in zip(point.protocol.intensities, point.protocol.intensity_probs):
        signal = sum(
            poisson_ref(mu, n) * (1.0 - (1.0 - eta) ** n) for n in range(ORACLE_N_MAX + 1)
        )
        raw += p * (signal + dark)
    if point.channel.deadtime_mode == "zonly":
        raw *= point.protocol.basis_prob_z**2
    a = point.channel.rep_rate_hz * point.channel.dead_time_s * raw
    if a == 0.0:
        return 1.0
    return (math.sqrt(1.0 + 4.0 * a) - 1.0) / (2.0 * a)


def oracle_photon_counts(
    point: SimulationPoint,
    obs: Observations,
    basis: Basis,
    n_max: int = ORACLE_N_MAX,
) -> tuple[list[float], list[float]]:
    """Expected detections and errors split by photon number n.

    An n-photon pulse clicks with probability 1-(1-eta)**n + p_DC and errs
    with probability (1-(1-eta)**n)*p_err + p_DC/2; weights are the intensity
    mix's Poisson probabilities. Scaled by the same pulse budget and
    dead-time factor as the observation set under test.
    """
    eta = point.channel.transmittance
    dark = point.channel.dark_count_prob
    p_err = point.channel.misalignment_prob
    pz = point.protocol.basis_prob_z
    sift = pz**2 if basis is Basis.Z else (1.0 - pz) ** 2
    c_dt = oracle_dead_time(point)
    detections, errors = [], []
    for n in range(n_max + 1):
        tau_n = sum(
            p * poisson_ref(mu, n)
            for mu, p in zip(point.protocol.intensities, point.protocol.intensity_probs)
        )
        signal = 1.0 - (1.0 - eta) ** n
        scale = obs.pulses_sent * sift * tau_n * c_dt
        detections.append(scale * (signal + dark))
        errors.append(scale * (signal * p_err + dark / 2.0))
    return detections, errors


# Epsilon = 1 turns every Hoeffding deviation off.
ASYMPTOTIC_BUDGET = EpsilonBudget(1.0, 1.0)


def with_switches(
    point: SimulationPoint, s0_upper_mode: str = "per-intensity", deadtime_mode: str = "zonly"
) -> SimulationPoint:
    """``point`` with its model switches set on the records that hold them."""
    channel = replace(point.channel, deadtime_mode=deadtime_mode)
    sec = replace(point.sec, s0_upper_mode=s0_upper_mode)
    return SimulationPoint(channel, point.protocol, sec)


def sandwich_violations(point: SimulationPoint) -> list[str]:
    """The bounds of one ``estimate_key`` pass, deviations off, that fail to
    bracket the per-photon-number truth of ``oracle_photon_counts``. In both
    bases the s0 and s1 lower bounds must not exceed the vacuum and
    single-photon detections and the one-decoy s0 upper bound must reach the
    vacuum detections; v1_x must reach the single-photon X errors. Each side
    has a relative slack of 1e-9 and an absolute one of 1e-9."""
    obs = expected_observations(point)
    est = estimate_key(BoundInputs(point.protocol, point.sec, obs, ASYMPTOTIC_BUDGET))
    checks = []
    for basis, s0_lower, s0_upper, s1_lower in (
        (Basis.Z, est.s0_lower, est.s0_upper, est.s1_lower_z),
        (Basis.X, est.s0_lower_x, est.s0_upper_x, est.s1_lower_x),
    ):
        detections, errors = oracle_photon_counts(point, obs, basis)
        checks.append((f"s0_lower {basis.name}", s0_lower, detections[0]))
        checks.append((f"s1_lower {basis.name}", s1_lower, detections[1]))
        if point.protocol.variant is Variant.ONE_DECOY:
            checks.append((f"s0_upper {basis.name}", detections[0], s0_upper))
    checks.append(("v1_upper X", errors[1], est.v1_upper_x))
    return [name for name, low, high in checks if not low <= high * (1.0 + 1e-9) + 1e-9]


def random_protocol(rng: random.Random, variant: Variant | None = None) -> ProtocolParams:
    if variant is None:
        variant = rng.choice((Variant.ONE_DECOY, Variant.TWO_DECOY))
    mu1 = rng.uniform(0.3, 0.9)
    mu2 = rng.uniform(0.05, 0.5) * mu1
    pz = rng.uniform(0.6, 0.95)
    if variant is Variant.ONE_DECOY:
        p1 = rng.uniform(0.4, 0.9)
        return ProtocolParams(variant, (mu1, mu2), (p1, 1.0 - p1), pz)
    mu3 = rng.uniform(1e-6, 0.4 * mu2)
    if mu1 <= mu2 + mu3:  # keep the two-decoy denominator positive
        mu3 = 1e-6
    w = [rng.uniform(0.2, 0.7) for _ in range(3)]
    total = sum(w)
    probs = (w[0] / total, w[1] / total, 1.0 - w[0] / total - w[1] / total)
    return ProtocolParams(variant, (mu1, mu2, mu3), probs, pz)


def random_channel(rng: random.Random) -> ChannelParams:
    return ChannelParams(
        attenuation_db=rng.uniform(5.0, 60.0),
        dark_count_prob=10.0 ** rng.uniform(-9.0, -6.0),
        misalignment_prob=rng.uniform(0.005, 0.045),
        dead_time_s=rng.choice((0.0, 100e-9, 20e-6)),
        rep_rate_hz=1e9,
    )


def random_point(rng: random.Random, block_size: float = 1e6) -> SimulationPoint:
    return SimulationPoint(
        channel=random_channel(rng),
        protocol=random_protocol(rng),
        sec=SecurityParams(1e-9, 1e-15, block_size),
    )


@st.composite
def keyed_points(draw, variant: Variant | None = None) -> SimulationPoint:
    """Points inside the optimizer's default search box, where most have a
    key: mu1 in [mu1_min, mu1_max], mu2 from mu2_min up to 0.98 * mu1, mu3
    from mu3_min up to 0.98 * min(mu2, mu1 - mu2), the probability logits in
    [-_LOGIT_LIMIT, _LOGIT_LIMIT] mapped as the optimizer maps them, p_Z in
    pz_range; both variants (or only ``variant``), both presets, 0-60 dB,
    n_Z 1e6-1e10. The optimizer holds mu3 at mu3_min, but ``rate_point``
    takes any weak decoy, so mu3 is drawn and spliced into the levels that
    ``_levels_from_x`` maps."""
    spec = OptimizationSpec(variant or draw(st.sampled_from(list(Variant))))
    mu1 = draw(st.floats(*spec.mu1_range))
    mu2 = draw(st.floats(spec.mu2_min, _ORDER_MARGIN * mu1))
    weak = ()
    if spec.variant is Variant.TWO_DECOY:
        weak = (draw(st.floats(spec.mu3_min, _ORDER_MARGIN * min(mu2, mu1 - mu2))),)
    logit = st.floats(-_LOGIT_LIMIT, _LOGIT_LIMIT)
    x = [mu1, mu2, *(draw(logit) for _ in range(1 + len(weak)))]
    x.append(draw(st.floats(*spec.pz_range)))
    _, probs, pz = _levels_from_x(spec, x)
    protocol = ProtocolParams(spec.variant, (mu1, mu2, *weak), probs, pz)
    link = channel_from_preset(
        draw(st.sampled_from(sorted(DETECTOR_PRESETS))), draw(st.floats(0.0, 60.0))
    )
    # Drawn down from 1e10, so that the simplest draw is the largest block.
    block_size = 10.0 ** (10.0 - draw(st.floats(0.0, 4.0)))
    return SimulationPoint(link, protocol, SecurityParams(1e-9, 1e-15, block_size))
