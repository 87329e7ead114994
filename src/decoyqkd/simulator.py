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

The core (``_key_rate``) reads everything that stays fixed for one optimized
point from a record that ``_prepare`` builds once: the link's ``_Link`` and
the bounds' ``_Constants``. The public functions prepare on each call. Of
an evaluation's work, the core keeps only the level records in the
``_Link``: per intensity mu, its click and error probabilities, e**mu and
the Poisson probabilities of 0 and 1 photons, kept while that level keeps
its value, as through a p_Z or logit line search. The rest is done on every
evaluation: the mixture of the levels and their probabilities (the weights
e**mu / p, tau0 and tau1), the raw click total, the dead-time factor and the
counts.

The mixture and the count step are written out per level count, 2 or 3;
like every sum of floats in the package, they add left to right in level
order from 0.0, so CPython 3.10 to 3.13 give the same bits.

The link holds one slot per level index, so its memory stays bounded. The
reuse never changes a result, but it makes a prepared record stateful: it
belongs to one search, in one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bounds import (
    BoundInputs,
    _Constants,
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
    _poisson,
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
    block size, plus the level records the core reuses between evaluations:
    one ``(mu, record)`` slot per level index, replaced as a whole tuple, so
    the memory stays bounded. Those slots make a link belong to one search,
    in one thread. Slotted, like ``bounds._Constants``."""

    __slots__ = (
        "eta", "dark", "half_dark", "misalignment", "rate_dead", "rep_rate", "zonly", "block_size",
        "levels",
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
        self.levels = [(None, None)] * intensity_count


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


def _cell(mu: float, link: _Link) -> tuple[float, float]:
    """The click probability of one pulse of intensity mu and the part of it
    that is an error: (1 - exp(-mu*eta)) * p_err + p_DC / 2, capped at the
    click probability."""
    signal = -math.expm1(-mu * link.eta)
    # Linear dark-count model; cap keeps pathological corners a probability.
    click = min(1.0, signal + link.dark)
    return click, min(signal * link.misalignment + link.half_dark, click)


def _level(mu: float, link: _Link) -> tuple[tuple[float, float], float, float, float]:
    """The level record of intensity mu: its ``_cell``, e**mu, and the
    probabilities that a pulse carries 0 and 1 photons."""
    return _cell(mu, link), math.exp(mu), _poisson(mu, 0), _poisson(mu, 1)


def _mixture(
    mus: tuple[float, ...], probs: tuple[float, ...], link: _Link
) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...], tuple[float, float]]:
    """The cells, the weights e**mu / p and (tau0, tau1) of the levels ``mus``
    mixed with ``probs``, from the level records, each kept per level index
    while its level keeps its value."""
    slots = link.levels
    if slots[0][0] != mus[0]:
        slots[0] = mus[0], _level(mus[0], link)
    if slots[1][0] != mus[1]:
        slots[1] = mus[1], _level(mus[1], link)
    if len(mus) == 2:
        (_, (cell1, exp1, vac1, one1)), (_, (cell2, exp2, vac2, one2)) = slots
        p1, p2 = probs
        return (cell1, cell2), (exp1 / p1, exp2 / p2), (
            p1 * vac1 + p2 * vac2, p1 * one1 + p2 * one2)
    if slots[2][0] != mus[2]:
        slots[2] = mus[2], _level(mus[2], link)
    (_, (cell1, exp1, vac1, one1)), (_, (cell2, exp2, vac2, one2)), (
        _, (cell3, exp3, vac3, one3)) = slots
    p1, p2, p3 = probs
    return (cell1, cell2, cell3), (exp1 / p1, exp2 / p2, exp3 / p3), (
        p1 * vac1 + p2 * vac2 + p3 * vac3, p1 * one1 + p2 * one2 + p3 * one3)


def _counts(
    probs: Sequence[float], pz: float, cells: Sequence[tuple[float, float]], link: _Link
) -> tuple[tuple[tuple[float, ...], ...], float]:
    """``expected_observations`` without the record: the counts
    (detections_z, errors_z, detections_x, errors_x) and the pulse count,
    from the per-intensity ``_cell`` values, written out per level count.
    The dead-time factor c_dt is fed the raw click probability of a pulse,
    sum p * click, before the correction: "zonly" keeps the sifted Z-basis
    share (the correction factor's total read literally); "allclicks" counts
    every click regardless of basis match (any click occupies the detector).
    A Z cell is the block's share block_size * det / p_det_z, an X cell the
    pulse count times its per-pulse probability."""
    two = len(cells) == 2
    if two:
        (click1, err1), (click2, err2) = cells
        p1, p2 = probs
        raw = p1 * click1 + p2 * click2
    else:
        (click1, err1), (click2, err2), (click3, err3) = cells
        p1, p2, p3 = probs
        raw = p1 * click1 + p2 * click2 + p3 * click3
    c_dt = _dead_time_factor(min(1.0, raw * pz**2 if link.zonly else raw), link.rate_dead)
    scale_z, scale_x = c_dt * pz**2, c_dt * (1.0 - pz) ** 2
    z1, z2, x1, x2 = scale_z * p1, scale_z * p2, scale_x * p1, scale_x * p2
    det1, det2 = z1 * click1, z2 * click2
    if two:
        p_det_z = det1 + det2
    else:
        z3, x3 = scale_z * p3, scale_x * p3
        det3 = z3 * click3
        p_det_z = det1 + det2 + det3
    block = link.block_size
    pulses = block / p_det_z if p_det_z > 0.0 else math.inf
    if pulses == math.inf:
        # no detections, or more pulses than a float can count
        raise NoDetectionsError("no block can be collected in a finite number of pulses")
    if two:
        return (
            (block * det1 / p_det_z, block * det2 / p_det_z),
            (block * (z1 * err1) / p_det_z, block * (z2 * err2) / p_det_z),
            (pulses * (x1 * click1), pulses * (x2 * click2)),
            (pulses * (x1 * err1), pulses * (x2 * err2)),
        ), pulses
    return (
        (block * det1 / p_det_z, block * det2 / p_det_z, block * det3 / p_det_z),
        (block * (z1 * err1) / p_det_z, block * (z2 * err2) / p_det_z,
         block * (z3 * err3) / p_det_z),
        (pulses * (x1 * click1), pulses * (x2 * click2), pulses * (x3 * click3)),
        (pulses * (x1 * err1), pulses * (x2 * err2), pulses * (x3 * err3)),
    ), pulses


def _skr(key_length: float, pulses: float, rep_rate: float) -> float:
    """SKR = l / N_tot * R."""
    return key_length / pulses * rep_rate


def _key_rate(
    mus: tuple[float, ...], probs: tuple[float, ...], pz: float,
    prepared: tuple[_Link, _Constants],
) -> float:
    """``rate_point(...).skr_hz`` without its checks and records; the
    ``prepared`` record keeps the terms of the last levels."""
    link, constants = prepared
    cells, weights, taus = _mixture(mus, probs, link)
    try:
        counts, pulses = _counts(probs, pz, cells, link)
    except NoDetectionsError:
        return 0.0
    totals = [a + b for a, b in counts] if len(mus) == 2 else [a + b + c for a, b, c in counts]
    estimate = _estimate(mus, weights, taus, counts, totals, constants)
    return _skr(estimate.key_length, pulses, link.rep_rate)


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
    the core's ``_counts`` on a fresh ``_Link`` and leaves its slots empty:
    one evaluation has nothing to reuse and needs no e**mu or Poisson term.
    """
    protocol = point.protocol
    mus, probs = protocol.intensities, protocol.intensity_probs
    link = _Link(point.channel, point.sec.block_size, len(mus))
    cells = [_cell(mu, link) for mu in mus]
    counts, pulses = _counts(probs, protocol.basis_prob_z, cells, link)
    return Observations(mus, *counts, pulses_sent=pulses)


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
