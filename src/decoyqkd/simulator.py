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

Where each formula is written:

- ``_level``: a level's click and error probabilities, kept per level in a
  ``_Link`` slot while that level keeps its value.
- ``_one_decoy_counts`` and ``_two_decoy_counts``, the count stages, one per
  variant: the raw click probability, the dead-time root
  (``saturated_dead_time_factor``'s, inline), the counts per level and
  basis, their totals and the pulse count, in one tuple.
- ``_skr``: SKR = l / N_tot * R; ``_keyless``: the perfect-decoy ceiling.

The core, ``_key_rate``, runs the link's count stage and then the variant's
bound stage in ``bounds``, on a record that ``_prepare`` builds once per
optimized point: the ``_Link`` and the bounds' ``_Constants``, each holding
its variant's stage. The checked path runs the same stages:
``expected_observations`` the count stage on a fresh link, checked as
``Observations``, and ``rate_point`` then ``estimate_key``. The stages add
floats left to right in level order from 0.0, like every sum in the
package, so CPython 3.10 to 3.13 give the same bits.

The link holds one slot per level index, so its memory stays bounded. The
reuse never changes a result, but it makes a prepared record stateful: it
belongs to one search, in one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (
    BoundInputs,
    _Constants,
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
    binary_entropy,
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

@dataclass(frozen=True)
class SimulationPoint:
    """One channel/protocol/security configuration to evaluate. The model
    switches are fields of its channel and security records, so the point
    alone fixes its ``RatePoint``."""

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
    return _dead_time_factor(raw_total_det_prob, channel.rep_rate_hz * channel.dead_time_s)


def _dead_time_factor(raw_total_det_prob: float, rate_dead: float) -> float:
    """``saturated_dead_time_factor`` with R*t given as ``rate_dead``."""
    if not 0.0 <= raw_total_det_prob <= 1.0:
        raise ParameterError("saturated_dead_time_factor: click probability must be in [0, 1]")
    a = rate_dead * raw_total_det_prob
    return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * a))


class _Link:
    """What the counts need beyond the levels, from a checked channel and the
    block size, the variant's count stage, and the level records the core
    reuses between evaluations: one ``_level`` slot per level index,
    replaced as a whole tuple, so the memory stays bounded. Those slots make
    a link belong to one search, in one thread. Slotted, like
    ``bounds._Constants``."""

    __slots__ = (
        "eta", "dark", "half_dark", "misalignment", "rate_dead", "rep_rate", "zonly", "block_size",
        "levels", "counts",
    )

    def __init__(self, channel: ChannelParams, block_size: float, intensity_count: int) -> None:
        self.eta = channel.transmittance
        self.dark = channel.dark_count_prob
        self.half_dark = channel.dark_count_prob / 2.0
        self.misalignment = channel.misalignment_prob
        self.rate_dead = channel.rep_rate_hz * channel.dead_time_s  # R*t_DT
        self.rep_rate = channel.rep_rate_hz
        self.zonly = channel.deadtime_mode == "zonly"
        self.block_size = block_size
        # empty slots: None equals no level
        self.levels = [(None,)] * intensity_count
        self.counts = _one_decoy_counts if intensity_count == 2 else _two_decoy_counts


def _prepare(
    channel: ChannelParams, sec: SecurityParams, intensity_count: int
) -> tuple[_Link, _Constants]:
    """What ``_key_rate`` needs beyond the levels, fixed for one optimized
    point: the ``_Link`` and the ``_Constants``, with eps_sec split evenly."""
    link = _Link(channel, sec.block_size, intensity_count)
    split = _even_split(intensity_count, sec.eps_sec)
    return link, _Constants(intensity_count, *split, sec)


# The functions from here to ``_key_rate`` are the unchecked core: plain-float
# levels that satisfy the ``ProtocolParams`` rules, and prepared records. What
# changes with every evaluation keeps its check: the dead-time factor's click
# probability, the Hoeffding sample size and the binary-entropy argument.


def _level(mu: float, link: _Link) -> tuple[float, float, float]:
    """The level record of intensity mu: mu, the click probability of one
    pulse and the part of it that is an error, (1 - exp(-mu*eta)) * p_err +
    p_DC / 2. The click is capped at 1 and the error at the click, each
    written ``b if b < a else a``, which is min(a, b), NaN too."""
    signal = -math.expm1(-mu * link.eta)
    click = signal + link.dark  # linear dark-count model
    click = click if click < 1.0 else 1.0
    error = signal * link.misalignment + link.half_dark
    return mu, click, click if click < error else error


# The count stages, one per variant, return the counts of the levels ``mus``
# with ``probs`` and p_Z as one tuple: detections_z, errors_z, detections_x
# and errors_x (a tuple each, one float per level), their totals n_z, m_z,
# n_x, m_x and the pulse count. The dead-time factor is fed the raw click
# probability sum p * click: "zonly" keeps its sifted Z share, "allclicks"
# all of it (any click occupies the detector); its root, with its check, is
# ``saturated_dead_time_factor``'s. A Z cell is the block's share block_size
# * det / p_det_z, an X cell the pulse count times its per-pulse probability.


def _one_decoy_counts(mus: tuple, probs: tuple, pz: float, link: _Link) -> tuple[float, ...]:
    """The count stage of the levels (mu1, mu2)."""
    slots = link.levels
    if slots[0][0] != mus[0]:
        slots[0] = _level(mus[0], link)
    if slots[1][0] != mus[1]:
        slots[1] = _level(mus[1], link)
    (_, click1, err1), (_, click2, err2) = slots
    p1, p2 = probs
    pz_sq = pz**2
    raw = p1 * click1 + p2 * click2
    raw = raw * pz_sq if link.zonly else raw
    raw = raw if raw < 1.0 else 1.0
    if not 0.0 <= raw <= 1.0:
        raise ParameterError("saturated_dead_time_factor: click probability must be in [0, 1]")
    c_dt = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * (link.rate_dead * raw)))
    scale_z, scale_x = c_dt * pz_sq, c_dt * (1.0 - pz) ** 2
    z1, z2, x1, x2 = scale_z * p1, scale_z * p2, scale_x * p1, scale_x * p2
    det1, det2 = z1 * click1, z2 * click2
    p_det_z = det1 + det2
    block = link.block_size
    pulses = block / p_det_z if p_det_z > 0.0 else math.inf
    if pulses == math.inf:
        # no detections, or more pulses than a float can count
        raise NoDetectionsError("no block can be collected in a finite number of pulses")
    dz1, dz2 = block * det1 / p_det_z, block * det2 / p_det_z
    ez1, ez2 = block * (z1 * err1) / p_det_z, block * (z2 * err2) / p_det_z
    dx1, dx2 = pulses * (x1 * click1), pulses * (x2 * click2)
    ex1, ex2 = pulses * (x1 * err1), pulses * (x2 * err2)
    return ((dz1, dz2), (ez1, ez2), (dx1, dx2), (ex1, ex2),
            dz1 + dz2, ez1 + ez2, dx1 + dx2, ex1 + ex2, pulses)


def _two_decoy_counts(mus: tuple, probs: tuple, pz: float, link: _Link) -> tuple[float, ...]:
    """The count stage of the levels (mu1, mu2, mu3)."""
    slots = link.levels
    if slots[0][0] != mus[0]:
        slots[0] = _level(mus[0], link)
    if slots[1][0] != mus[1]:
        slots[1] = _level(mus[1], link)
    if slots[2][0] != mus[2]:
        slots[2] = _level(mus[2], link)
    (_, click1, err1), (_, click2, err2), (_, click3, err3) = slots
    p1, p2, p3 = probs
    pz_sq = pz**2
    raw = p1 * click1 + p2 * click2 + p3 * click3
    raw = raw * pz_sq if link.zonly else raw
    raw = raw if raw < 1.0 else 1.0
    if not 0.0 <= raw <= 1.0:
        raise ParameterError("saturated_dead_time_factor: click probability must be in [0, 1]")
    c_dt = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * (link.rate_dead * raw)))
    scale_z, scale_x = c_dt * pz_sq, c_dt * (1.0 - pz) ** 2
    z1, z2, z3 = scale_z * p1, scale_z * p2, scale_z * p3
    x1, x2, x3 = scale_x * p1, scale_x * p2, scale_x * p3
    det1, det2, det3 = z1 * click1, z2 * click2, z3 * click3
    p_det_z = det1 + det2 + det3
    block = link.block_size
    pulses = block / p_det_z if p_det_z > 0.0 else math.inf
    if pulses == math.inf:
        # no detections, or more pulses than a float can count
        raise NoDetectionsError("no block can be collected in a finite number of pulses")
    dz1, dz2, dz3 = block * det1 / p_det_z, block * det2 / p_det_z, block * det3 / p_det_z
    ez1, ez2, ez3 = (block * (z1 * err1) / p_det_z, block * (z2 * err2) / p_det_z,
                     block * (z3 * err3) / p_det_z)
    dx1, dx2, dx3 = pulses * (x1 * click1), pulses * (x2 * click2), pulses * (x3 * click3)
    ex1, ex2, ex3 = pulses * (x1 * err1), pulses * (x2 * err2), pulses * (x3 * err3)
    return ((dz1, dz2, dz3), (ez1, ez2, ez3), (dx1, dx2, dx3), (ex1, ex2, ex3),
            dz1 + dz2 + dz3, ez1 + ez2 + ez3, dx1 + dx2 + dx3, ex1 + ex2 + ex3, pulses)


def _skr(key_length: float, pulses: float, rep_rate: float) -> float:
    """SKR = l / N_tot * R."""
    return key_length / pulses * rep_rate


def _key_rate(
    mus: tuple[float, ...], probs: tuple[float, ...], pz: float,
    prepared: tuple[_Link, _Constants],
) -> float:
    """``rate_point(...).skr_hz`` without its checks and records: the link's
    count stage, then the constants' bound stage; the ``prepared`` record
    keeps the terms of the last levels."""
    link, constants = prepared
    try:
        values = link.counts(mus, probs, pz, link)
    except NoDetectionsError:
        return 0.0
    return _skr(constants.bounds(mus, probs, values, constants)[7], values[-1], link.rep_rate)


# bits per Z detection, far above the core's rounding, and cells that ``_keyless`` may check
_CEILING_MARGIN, _CEILING_CELLS = 1e-9, 512


def _keyless(link: _Link, constants: _Constants, top: float) -> bool:
    """Whether no levels in [0, top] give a key: n_Z max g(mu) < penalty - n_Z
    ``_CEILING_MARGIN``, g the key per Z detection at perfect decoy estimation
    (GLLP; Lo, Ma and Chen, PRL 94, 230504), (Y0 + Y1 (1 - h(e1)) mu) e**-mu / Q
    - f_EC h(E), which no mixture beats. On [a, b], as Q and mu / Q rise and E
    falls, g <= (Y0 / Q(a) + Y1 (1 - h(e1)) b / Q(b)) e**-a - f_EC h(E(b)); a
    cell whose bound reaches the bar is halved. Declines where Q's cap could bind."""
    eta, dark, half_dark, p_err = link.eta, link.dark, link.half_dark, link.misalignment
    if not dark > 0.0 or -math.expm1(-top * eta) + dark >= 1.0:
        return False
    gain = (eta + dark) * (1.0 - binary_entropy((eta * p_err + half_dark) / (eta + dark)))
    f_ec, bar = constants.ec_efficiency, constants.penalty / link.block_size - _CEILING_MARGIN

    def at(mu: float) -> tuple:  # mu, Y0 / Q, Y1 (1 - h(e1)) mu / Q, e**-mu, f_EC h(E)
        signal = -math.expm1(-mu * eta)
        click = signal + dark
        e = (signal * p_err + half_dark) / click
        h = -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)
        return mu, dark / click, gain * mu / click, math.exp(-mu), f_ec * h

    cells = [(at(0.0), at(top))]
    for _ in range(_CEILING_CELLS):
        if not cells:
            return True
        lo, hi = cells.pop()
        if (lo[1] + hi[2]) * lo[3] - hi[4] < bar:  # the cell's bound
            continue
        mid = at(0.5 * (lo[0] + hi[0]))
        if (mid[1] + mid[2]) * mid[3] - mid[4] >= bar:  # g(mid) itself
            return False
        cells += (lo, mid), (mid, hi)
    return not cells


def expected_observations(point: SimulationPoint) -> Observations:
    """Expected counts for a completed block of ``sec.block_size`` Z detections.

    Z-basis cells are the block split in proportion to the per-intensity
    detection probabilities; the pulse budget N_tot = n_Z / P_Z_total then
    induces the X-basis sample, which is not independently fixed. It runs
    the core's count stage on a fresh ``_Link`` and checks its counts as an
    ``Observations`` record.
    """
    protocol = point.protocol
    mus = protocol.intensities
    n = len(mus)
    link = _Link(point.channel, point.sec.block_size, n)
    values = link.counts(mus, protocol.intensity_probs, protocol.basis_prob_z, link)
    # the four count tuples come before their totals and the pulse count
    return Observations(mus, *values[:4], values[-1])


def rate_point(point: SimulationPoint) -> RatePoint:
    """Full pipeline for one configuration: expected counts, finite-key
    bounds, secret key length, SKR = l / N_tot * R and acquisition time.

    Degenerate configurations come back as zero-rate points with a
    diagnostic status instead of raising. Every step builds its record: the
    checked ``Observations``, the checked named tuples ``EpsilonBudget`` and
    ``BoundInputs``, the ``KeyEstimate`` tuple and the checked named tuple
    ``RatePoint``, each built in one step with its checks."""
    try:
        obs = expected_observations(point)
    except NoDetectionsError:
        return RatePoint(s0_lower=0.0, s0_upper=None, s1_lower_z=0.0, s1_lower_x=0.0,
                         v1_upper_x=0.0, phase_error_upper=0.5, lambda_ec=0.0, key_length=0.0,
                         skr_hz=0.0, qber_z=0.0, acquisition_s=math.inf, status="no_detections")
    budget = epsilon_budget(point.protocol, point.sec)
    inputs = BoundInputs(params=point.protocol, sec=point.sec, obs=obs, budget=budget)
    estimate = estimate_key(inputs)
    rep_rate, pulses = point.channel.rep_rate_hz, obs.pulses_sent
    skr = _skr(estimate.key_length, pulses, rep_rate)
    # KeyEstimate's first eight fields, s0_lower to key_length, are RatePoint's
    return RatePoint(*estimate[:8], skr, obs.qber_z, pulses / rep_rate, estimate.status)
