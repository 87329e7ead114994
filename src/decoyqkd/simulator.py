"""Expected detection statistics for a lossy BB84 link with real detectors.

The model works in expectation values, not pulse-by-pulse sampling. A pulse
of intensity mu clicks with probability (1 - exp(-mu*eta)) + p_DC, errors
come from misalignment on signal clicks plus half the dark counts, and a
dead-time factor c_dt = 1/(1 + R * p_det * t_DT) rescales all rates. The
corrected total detection probability appears inside its own correction, so
c_dt is the closed-form fixed point of that relation, not a single pass;
this keeps a rate cost for every extra pulse even deep in saturation. The
Z-basis block size is fixed; the number of pulses needed to fill it, the
induced X-basis sample, the QBER and the acquisition time follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bounds import (
    BoundInputs,
    BoundOptions,
    DEFAULT_BOUND_OPTIONS,
    _estimate,
    _even_split,
    epsilon_budget,
    estimate_key,
)
from .model import (
    ChannelParams,
    NoDetectionsError,
    Observations,
    ParameterError,
    ProtocolParams,
    RatePoint,
    SecurityParams,
    _photon_number_prob,
)

__all__ = [
    "SimulationPoint",
    "DetectorPreset",
    "DETECTOR_PRESETS",
    "channel_from_preset",
    "saturated_dead_time_factor",
    "expected_observations",
    "rate_point",
]

DEADTIME_MODES = ("zonly", "allclicks")
DEFAULT_DEADTIME_MODE = "zonly"


@dataclass(frozen=True)
class SimulationPoint:
    """One channel/protocol/security configuration to evaluate."""

    channel: ChannelParams
    protocol: ProtocolParams
    sec: SecurityParams


@dataclass(frozen=True)
class DetectorPreset:
    """Named detector defaults; dark_count_prob assumes 1 GHz gating."""

    name: str
    dead_time_s: float
    dark_count_prob: float
    note: str


DETECTOR_PRESETS = {
    "snspd": DetectorPreset(
        name="snspd",
        dead_time_s=100e-9,
        dark_count_prob=1e-8,
        note="superconducting nanowire, 10 Hz dark counts at 1 GHz",
    ),
    "ingaas": DetectorPreset(
        name="ingaas",
        dead_time_s=20e-6,
        dark_count_prob=1e-9,
        note="InGaAs avalanche photodiode, 1 Hz dark counts at 1 GHz",
    ),
}


def channel_from_preset(
    name: str,
    attenuation_db: float,
    rep_rate_hz: float = 1e9,
    misalignment_prob: float = 0.01,
) -> ChannelParams:
    """Build ChannelParams from a detector preset name."""
    try:
        preset = DETECTOR_PRESETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown detector preset {name!r}; available: {sorted(DETECTOR_PRESETS)}"
        ) from None
    return ChannelParams(
        attenuation_db=attenuation_db,
        dark_count_prob=preset.dark_count_prob,
        misalignment_prob=misalignment_prob,
        dead_time_s=preset.dead_time_s,
        rep_rate_hz=rep_rate_hz,
    )


def saturated_dead_time_factor(raw_total_det_prob: float, channel: ChannelParams) -> float:
    """Self-consistent dead-time factor: the corrected detection probability
    c * p_raw feeds its own correction, so c solves c = 1/(1 + R*t*c*p_raw).

    Closed form of the quadratic. Unlike a single pass 1/(1 + R*t*p_raw),
    the corrected rate keeps growing (as sqrt) with the click probability, so
    wasted pulses still cost acquisition time deep in saturation. With
    a = R*t*p_raw the root (sqrt(1+4a) - 1)/(2a) is written as
    2/(1 + sqrt(1+4a)), which does not cancel for small a, is 1 at a = 0 and
    never exceeds 1."""
    if not 0.0 <= raw_total_det_prob <= 1.0:
        raise ParameterError("saturated_dead_time_factor: click probability must be in [0, 1]")
    a = channel.rep_rate_hz * channel.dead_time_s * raw_total_det_prob
    return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * a))


def _check_deadtime_mode(deadtime_mode: str) -> None:
    if deadtime_mode not in DEADTIME_MODES:
        raise ParameterError(f"deadtime_mode must be one of {DEADTIME_MODES}")


# The functions from here to ``_key_rate`` are the unchecked core. They take
# the protocol as plain floats (the intensities, their probabilities and p_Z),
# trusted to satisfy the ``ProtocolParams`` rules, a ``deadtime_mode`` trusted
# to be one of DEADTIME_MODES, and channel and security records, which check
# themselves on construction. The public functions below check their inputs
# and call them; the optimizer's objective calls ``_key_rate`` directly.


def _click_and_error(mu: float, eta: float, channel: ChannelParams) -> tuple[float, float]:
    """Click probability of one pulse of intensity ``mu`` and the part of it
    that is an error: (1 - exp(-mu*eta)) * p_err + p_DC / 2, capped at the
    click probability."""
    dark = channel.dark_count_prob
    signal = -math.expm1(-mu * eta)
    # Linear dark-count model; cap keeps pathological corners a probability.
    click = min(1.0, signal + dark)
    return click, min(signal * channel.misalignment_prob + dark / 2.0, click)


def _clicks(
    mus: Sequence[float],
    probs: Sequence[float],
    pz: float,
    channel: ChannelParams,
    deadtime_mode: str,
) -> tuple[float, list[tuple[float, float]]]:
    """The dead-time factor c_dt and, per intensity, ``_click_and_error``.

    c_dt is fed the per-pulse click probability before the correction:
    "zonly" keeps the sifted Z-basis share (the correction factor's total read
    literally); "allclicks" counts every click regardless of basis match (any
    click occupies the detector).
    """
    eta = channel.transmittance
    cells = [_click_and_error(mu, eta, channel) for mu in mus]
    total = sum([p * click for p, (click, _) in zip(probs, cells)])
    if deadtime_mode == "zonly":
        total *= pz**2
    return saturated_dead_time_factor(min(1.0, total), channel), cells


def _counts(
    mus: Sequence[float],
    probs: Sequence[float],
    pz: float,
    channel: ChannelParams,
    block_size: float,
    deadtime_mode: str,
) -> tuple[tuple[list[float], list[float], list[float], list[float]], float]:
    """``expected_observations`` without the record: the cells
    (detections_z, errors_z, detections_x, errors_x) and the pulse count."""
    c_dt, cells = _clicks(mus, probs, pz, channel, deadtime_mode)

    scale_z = c_dt * pz**2
    scale_x = c_dt * (1.0 - pz) ** 2
    det_z, err_z, det_x, err_x = [], [], [], []
    for p_mu, (click, err) in zip(probs, cells):
        weight_z = scale_z * p_mu
        weight_x = scale_x * p_mu
        det_z.append(weight_z * click)
        err_z.append(weight_z * err)
        det_x.append(weight_x * click)
        err_x.append(weight_x * err)

    p_det_z = sum(det_z)
    pulses = block_size / p_det_z if p_det_z > 0.0 else math.inf
    if pulses == math.inf:
        # no detections, or more pulses than a float can count
        raise NoDetectionsError("no block can be collected in a finite number of pulses")
    scaled = (
        [block_size * p / p_det_z for p in det_z],
        [block_size * p / p_det_z for p in err_z],
        [pulses * p for p in det_x],
        [pulses * p for p in err_x],
    )
    return scaled, pulses


def _skr(key_length: float, pulses: float, channel: ChannelParams) -> float:
    """SKR = l / N_tot * R."""
    return key_length / pulses * channel.rep_rate_hz


def _key_rate(
    mus: Sequence[float],
    probs: Sequence[float],
    pz: float,
    channel: ChannelParams,
    sec: SecurityParams,
    options: BoundOptions,
    deadtime_mode: str,
) -> float:
    """``rate_point(...).skr_hz`` without its checks and records."""
    try:
        cells, pulses = _counts(mus, probs, pz, channel, sec.block_size, deadtime_mode)
    except NoDetectionsError:
        return 0.0
    taus = _photon_number_prob(mus, probs, 0), _photon_number_prob(mus, probs, 1)
    totals = list(map(sum, cells))
    budget = _even_split(len(mus), sec.eps_sec)
    estimate = _estimate(mus, probs, taus, cells, totals, budget, sec, options)
    return _skr(estimate.key_length, pulses, channel)


def expected_observations(
    point: SimulationPoint, deadtime_mode: str = DEFAULT_DEADTIME_MODE
) -> Observations:
    """Expected counts for a completed block of ``sec.block_size`` Z detections.

    Z-basis cells are the block split in proportion to the per-intensity
    detection probabilities; the pulse budget N_tot = n_Z / P_Z_total then
    induces the X-basis sample, which is not independently fixed.
    """
    _check_deadtime_mode(deadtime_mode)
    protocol = point.protocol
    cells, pulses = _counts(
        protocol.intensities,
        protocol.intensity_probs,
        protocol.basis_prob_z,
        point.channel,
        point.sec.block_size,
        deadtime_mode,
    )
    return Observations(protocol.intensities, *cells, pulses_sent=pulses)


def rate_point(
    point: SimulationPoint,
    options: BoundOptions = DEFAULT_BOUND_OPTIONS,
    deadtime_mode: str = DEFAULT_DEADTIME_MODE,
) -> RatePoint:
    """Full pipeline for one configuration: expected counts, finite-key
    bounds, secret key length, SKR = l / N_tot * R and acquisition time.

    Degenerate configurations come back as zero-rate points with a
    diagnostic status instead of raising. Every step builds its record:
    the checked ``Observations``, ``EpsilonBudget`` and ``BoundInputs``, the
    ``KeyEstimate`` tuple and the checked ``RatePoint``."""
    try:
        obs = expected_observations(point, deadtime_mode)
    except NoDetectionsError:
        return RatePoint(
            s0_lower=0.0,
            s0_upper=None,
            s1_lower_z=0.0,
            s1_lower_x=0.0,
            v1_upper_x=0.0,
            phase_error_upper=0.5,
            lambda_ec=0.0,
            key_length=0.0,
            skr_hz=0.0,
            qber_z=0.0,
            acquisition_s=math.inf,
            status="no_detections",
        )
    budget = epsilon_budget(point.protocol, point.sec)
    inputs = BoundInputs(params=point.protocol, sec=point.sec, obs=obs, budget=budget)
    estimate = estimate_key(inputs, options)
    return RatePoint(
        s0_lower=estimate.s0_lower,
        s0_upper=estimate.s0_upper,
        s1_lower_z=estimate.s1_lower_z,
        s1_lower_x=estimate.s1_lower_x,
        v1_upper_x=estimate.v1_upper_x,
        phase_error_upper=estimate.phase_error_upper,
        lambda_ec=estimate.lambda_ec,
        key_length=estimate.key_length,
        skr_hz=_skr(estimate.key_length, obs.pulses_sent, point.channel),
        qber_z=obs.qber_z,
        acquisition_s=obs.pulses_sent / point.channel.rep_rate_hz,
        status=estimate.status,
    )
