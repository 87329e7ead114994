"""Shared test helpers: the per-photon-number expansion oracle, the sandwich
check of the bounds against it, a reference estimation chain with one
function per bound formula, the simulator's reference loops over the
levels, the optimizer's search as one function, the checks of an
``Observations`` record as loops, the ways a checked named tuple is
built, and random valid-input generators. The oracle
never calls the closed-form channel expressions; it rebuilds every expected
count from Poisson weights and the n-photon click probability
1 - (1-eta)**n + p_DC. Beside them, the helpers that pin the set of usable
cores, check that no forked worker outlives its run and read the local
variables of a flat stage."""

from __future__ import annotations

import copy
import math
import os
import pickle
import random
import sys

import pytest
from hypothesis import reject, strategies as st

from decoyqkd import (
    Basis,
    BoundInputs,
    ChannelParams,
    EpsilonBudget,
    Observations,
    KeyEstimate,
    OptimizationSpec,
    ParameterError,
    ProtocolParams,
    SecurityParams,
    SimulationPoint,
    Variant,
    channel_from_preset,
    estimate_key,
    expected_observations,
)
from decoyqkd.bounds import _Constants, _fluctuation, _leakage
from decoyqkd.model import (
    MAX_INTENSITY,
    MIN_EPS,
    NoDetectionsError,
    _deviation,
    _poisson,
    binary_entropy,
)
from decoyqkd import optimizer
from decoyqkd.model import _protocol_fault
from decoyqkd.optimizer import (
    _LOGIT_LIMIT,
    _MU1_RANGE,
    _MU2_MIN,
    _ORDER_MARGIN,
    _PZ_RANGE,
    _levels_from_x,
)
from decoyqkd.simulator import DETECTOR_PRESETS, _dead_time_factor, rate_point

ORACLE_N_MAX = 50


def left_sum(values) -> float:
    """The floats ``values`` added left to right from 0.0: the package's
    summation rule, the same on every Python (``sum()`` compensates from 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


def stage_locals(stages, names, run) -> list[tuple]:
    """Run ``run()`` and return, for each call it makes of one of the
    functions ``stages``, the values of that call's local variables ``names``
    as it returns: how a test reads what a flat stage keeps in locals only."""
    codes = {stage.__code__ for stage in stages}
    seen = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code in codes:
            seen.append(tuple(frame.f_locals[name] for name in names))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


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
    channel = point.channel._replace(deadtime_mode=deadtime_mode)
    sec = point.sec._replace(s0_upper_mode=s0_upper_mode)
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


# The reference chain: ``bounds.estimate_key`` as one function per bound formula,
# each on the corrected counts it uses, on the package's deviation, entropy,
# fluctuation and leakage. n_k and m_k are the detections and errors of
# intensity mu_k corrected by ``_correct``, up (+) or down (-); mu_hi > mu_lo
# are the two lowest intensities.


def _correct(count_k: float, delta: float, weight: float, sign: int) -> float:
    """weight * (count_k +/- delta) with the minus side clamped at zero."""
    if sign > 0:
        return weight * (count_k + delta)
    return weight * max(0.0, count_k - delta)


def _vacuum_lower(tau0, mu_hi, mu_lo, n_lo, n_hi):
    """tau0 * (mu_hi * n_lo^- - mu_lo * n_hi^+) / (mu_hi - mu_lo), clamped at zero."""
    return max(0.0, tau0 * (mu_hi * n_lo - mu_lo * n_hi) / (mu_hi - mu_lo))


def _vacuum_upper(vacuum_errors, delta_n):
    """2 * (vacuum_errors + delta(n, eps1)), clamped at zero."""
    return max(0.0, 2.0 * (vacuum_errors + delta_n))


def _single_photon_lower_one(tau0, tau1, mus, n1, n2, s0_upper):
    """One decoy, from n1 = n_mu1^+, n2 = n_mu2^- and the s0 upper bound."""
    mu1, mu2 = mus
    bracket = n2 - (mu2**2 / mu1**2) * n1 - ((mu1**2 - mu2**2) / mu1**2) * s0_upper / tau0
    return max(0.0, tau1 * mu1 / (mu2 * (mu1 - mu2)) * bracket)


def _single_photon_lower_two(tau0, tau1, mus, n1, n2, n3, s0):
    """Two decoys, from n1 = n_mu1^+, n2 = n_mu2^-, n3 = n_mu3^+ and s0 lower."""
    mu1, mu2, mu3 = mus
    denom = mu1 * (mu2 - mu3) - mu2**2 + mu3**2
    bracket = n2 - n3 + ((mu2**2 - mu3**2) / mu1**2) * (s0 / tau0 - n1)
    return max(0.0, tau1 * mu1 / denom * bracket)


def _single_photon_errors(tau1, mu_hi, mu_lo, m_hi, m_lo):
    """tau1 * (m_hi^+ - m_lo^-) / (mu_hi - mu_lo) in the X basis, clamped at zero."""
    return max(0.0, tau1 * (m_hi - m_lo) / (mu_hi - mu_lo))


def _phase_error(s1_z, s1_x, v1_x, gamma_sq, eps_sec_sq):
    """v1_x / s1_x plus its fluctuation term, clamped into [0, 0.5]; None when
    a single-photon lower bound vanished (no key)."""
    if s1_z <= 0.0 or s1_x <= 0.0:
        return None
    ratio = v1_x / s1_x
    if ratio <= 0.0:
        return 0.0
    if ratio >= 0.5:
        return 0.5
    return min(0.5, ratio + _fluctuation(ratio, s1_z, s1_x, gamma_sq, eps_sec_sq))


def reference_estimate(inputs: BoundInputs) -> KeyEstimate:
    """What ``estimate_key(inputs)`` must return, bit for bit."""
    params, obs, budget = inputs.params, inputs.obs, inputs.budget
    tau0, tau1 = (
        left_sum([p * _poisson(mu, n) for mu, p in zip(params.intensities, params.intensity_probs)])
        for n in (0, 1)
    )
    det_z, err_z, det_x, err_x = obs.detections_z, obs.errors_z, obs.detections_x, obs.errors_x
    n_z, m_z, n_x, m_x = obs.n_z, obs.m_z, obs.n_x, obs.m_x
    mus = params.intensities
    weights = [math.exp(k) / p for k, p in zip(mus, params.intensity_probs)]
    constants = _Constants(len(mus), budget.eps1, budget.eps2, inputs.sec)
    log1, log2 = constants.log_inv_eps1, constants.log_inv_eps2
    mu_hi, mu_lo = mus[-2:]
    w_hi, w_lo = weights[-2:]
    d_nz = _deviation(n_z, log1)
    d_nx = _deviation(n_x, log1)
    d_mx = _deviation(m_x, log2)
    if len(mus) == 2:
        nz1, nz2 = _correct(det_z[0], d_nz, w_hi, 1), _correct(det_z[1], d_nz, w_lo, -1)
        nx1, nx2 = _correct(det_x[0], d_nx, w_hi, 1), _correct(det_x[1], d_nx, w_lo, -1)
        if constants.total_mode:
            vacuum_z, vacuum_x = m_z, m_x
        else:
            vacuum_z = tau0 * _correct(err_z[1], _deviation(m_z, log2), w_lo, 1)
            vacuum_x = tau0 * _correct(err_x[1], d_mx, w_lo, 1)
        s0_lower = _vacuum_lower(tau0, mu_hi, mu_lo, nz2, nz1)
        s0_lower_x = _vacuum_lower(tau0, mu_hi, mu_lo, nx2, nx1)
        s0_upper = _vacuum_upper(vacuum_z, d_nz)
        s1_z = _single_photon_lower_one(tau0, tau1, mus, nz1, nz2, s0_upper)
        s0_upper_x = _vacuum_upper(vacuum_x, d_nx)
        s1_x = _single_photon_lower_one(tau0, tau1, mus, nx1, nx2, s0_upper_x)
    else:
        w1 = weights[0]
        nz2_up, nz3_down = _correct(det_z[1], d_nz, w_hi, 1), _correct(det_z[2], d_nz, w_lo, -1)
        nx2_up, nx3_down = _correct(det_x[1], d_nx, w_hi, 1), _correct(det_x[2], d_nx, w_lo, -1)
        s0_lower = _vacuum_lower(tau0, mu_hi, mu_lo, nz3_down, nz2_up)
        s0_lower_x = _vacuum_lower(tau0, mu_hi, mu_lo, nx3_down, nx2_up)
        s0_upper = s0_upper_x = None
        nz1 = _correct(det_z[0], d_nz, w1, 1)
        nz2 = _correct(det_z[1], d_nz, w_hi, -1)
        nz3 = _correct(det_z[2], d_nz, w_lo, 1)
        nx1 = _correct(det_x[0], d_nx, w1, 1)
        nx2 = _correct(det_x[1], d_nx, w_hi, -1)
        nx3 = _correct(det_x[2], d_nx, w_lo, 1)
        s1_z = _single_photon_lower_two(tau0, tau1, mus, nz1, nz2, nz3, s0_lower)
        s1_x = _single_photon_lower_two(tau0, tau1, mus, nx1, nx2, nx3, s0_lower_x)
    m_hi, m_lo = _correct(err_x[-2], d_mx, w_hi, 1), _correct(err_x[-1], d_mx, w_lo, -1)
    v1_x = _single_photon_errors(tau1, mu_hi, mu_lo, m_hi, m_lo)
    lambda_ec = _leakage(n_z, m_z, constants.ec_efficiency) if n_z > 0.0 else 0.0
    phi = _phase_error(s1_z, s1_x, v1_x, constants.gamma_sq, constants.eps_sec_sq)
    if phi is None:
        return KeyEstimate(
            s0_lower, s0_upper, s1_z, s1_x, v1_x, 0.5, lambda_ec, 0.0, "no_key",
            s0_lower_x, s0_upper_x,
        )
    length = max(
        0.0, s0_lower + s1_z * (1.0 - binary_entropy(phi)) - lambda_ec - constants.penalty
    )
    return KeyEstimate(
        s0_lower, s0_upper, s1_z, s1_x, v1_x, phi, lambda_ec, length, "ok", s0_lower_x, s0_upper_x
    )


def reference_observations(
    intensities, detections_z, errors_z, detections_x, errors_x, pulses_sent
) -> dict:
    """What ``Observations(...)`` must hold, field name to value, or the
    error it must raise: the record's checks as one loop over the count
    tuples and one over the bases. It has no finite-count rule: it accepts
    an infinite cell or pulse count, which the record rejects."""
    fields = {"intensities": tuple(map(float, intensities))}
    n = len(fields["intensities"])
    counts = {"detections_z": detections_z, "errors_z": errors_z,
              "detections_x": detections_x, "errors_x": errors_x}
    for name, total in (
        ("detections_z", "n_z"), ("errors_z", "m_z"), ("detections_x", "n_x"), ("errors_x", "m_x")
    ):
        values = tuple(map(float, counts[name]))
        if len(values) != n:
            raise ParameterError(f"{name}: expected {n} cells")
        if not all(0.0 <= v for v in values):  # NaN fails too
            raise ParameterError(f"{name}: counts must be >= 0")
        fields[name], fields[total] = values, left_sum(values)
    for basis in "zx":
        dets, errs = fields["detections_" + basis], fields["errors_" + basis]
        if any(err > det for det, err in zip(dets, errs)):
            if any(err > det * (1.0 + 1e-9) for det, err in zip(dets, errs)):
                raise ParameterError(f"errors_{basis}: cell exceeds its detections")
            capped = tuple(map(min, errs, dets))  # rounding: no error rate above 1
            fields["errors_" + basis], fields["m_" + basis] = capped, left_sum(capped)
    if not pulses_sent >= (fields["n_z"] + fields["n_x"]) * (1.0 - 1e-9):
        raise ParameterError("pulses_sent: fewer pulses than sifted detections")
    fields["pulses_sent"] = pulses_sent
    return fields


# The reference loops: the simulator's count stages as one generic loop over
# the levels, for any level count. The stages write each level out; these
# loops say what they must return, repr for repr.


def _reference_cells(mus, link) -> list[tuple[float, float]]:
    """Per intensity mu, the click probability of one pulse and the part of
    it that is an error: (1 - exp(-mu*eta)) * p_err + p_DC / 2, capped at the
    click probability."""
    eta, dark, half_dark, misalignment = link.eta, link.dark, link.half_dark, link.misalignment
    cells = []
    for mu in mus:
        signal = -math.expm1(-mu * eta)
        click = min(1.0, signal + dark)
        cells.append((click, min(signal * misalignment + half_dark, click)))
    return cells


def reference_mixture(mus, probs, link) -> tuple:
    """What ``_mixture(mus, probs, link)`` must return: the cells, the
    weights e**mu / p and (tau0, tau1)."""
    cells, weights, vacua, singles = [], [], [], []
    for mu, p, cell in zip(mus, probs, _reference_cells(mus, link)):
        cells.append(cell)
        weights.append(math.exp(mu) / p)
        vacua.append(p * _poisson(mu, 0))
        singles.append(p * _poisson(mu, 1))
    return tuple(cells), tuple(weights), (left_sum(vacua), left_sum(singles))


def reference_counts(probs, pz, cells, link) -> tuple:
    """What ``_counts(probs, pz, cells, link)`` must return: the counts
    (detections_z, errors_z, detections_x, errors_x) and the pulse count;
    raises NoDetectionsError where no finite number of pulses fills the
    block."""
    raw = left_sum([p * click for p, (click, _) in zip(probs, cells)])
    total = raw * pz**2 if link.zonly else raw
    c_dt = _dead_time_factor(min(1.0, total), link.rate_dead)
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
    block_size = link.block_size
    p_det_z = left_sum(det_z)
    pulses = block_size / p_det_z if p_det_z > 0.0 else math.inf
    if pulses == math.inf:
        raise NoDetectionsError("no block can be collected in a finite number of pulses")
    scaled = (
        tuple([block_size * p / p_det_z for p in det_z]),
        tuple([block_size * p / p_det_z for p in err_z]),
        tuple([pulses * p for p in det_x]),
        tuple([pulses * p for p in err_x]),
    )
    return scaled, pulses


def reference_optimize_point(channel, sec, spec, warm_start=None):
    """What ``optimize_point`` must return, repr for repr: its search as one
    function, with the warm start among the starts from the outset. The
    seeded and warm starts are refined first, then the default ones from the
    best raw value down until enough of those agree on a key; each distinct
    start vector is refined once."""
    objective = optimizer._Objective(channel, sec, spec)
    starts = [optimizer._x_from_unit(spec, u) for u in optimizer._unit_seeds(spec)]
    if warm_start is not None:
        starts.append(optimizer._x_from_params(spec, warm_start))
    raw = [objective(x) for x in starts]
    defaults = sorted(range(spec.starts), key=lambda i: -raw[i])
    candidates, default_rates, refined = [], [], {}
    for i in (*range(spec.starts, len(starts)), *defaults):
        key = tuple(starts[i])
        if key not in refined:
            refined[key] = optimizer._refine(objective, starts[i], raw[i])
        x, fx = refined[key]
        candidates.append((fx, x, _levels_from_x(spec, x)))
        if i < spec.starts:
            default_rates.append(fx)
            best = max(default_rates)
            agreeing = sum(f >= best * (1.0 - spec.rel_tol) for f in default_rates)
            if best > 0.0 and agreeing >= optimizer._AGREEING_STARTS:
                break
    best_skr = max(c[0] for c in candidates)
    if best_skr < max(raw):
        raise RuntimeError("refinement lost ground against a raw seed")
    if best_skr < 0.0:
        fault = _protocol_fault(objective.count, *candidates[0][2])
        raise ParameterError(f"optimize_point: no start is a valid protocol; {fault}")
    tied = [c for c in candidates if c[0] >= best_skr * (1.0 - spec.rel_tol)]
    _, best_x, _ = min(tied, key=lambda c: (c[2][0], tuple(-p for p in c[2][1]), -c[2][2]))
    params = optimizer._params_from_x(spec, best_x)
    return params, rate_point(SimulationPoint(channel, params, sec))


# the ways ``record_builds`` builds a record
BUILD_PATHS = ("constructor", "_replace", "_make", "pickle", "copy")


def record_builds(good, **bad) -> dict:
    """Every way to build a checked named tuple like ``good`` with the fields
    ``bad`` changed: its constructor, ``_replace``, ``_make``, and unpickling
    or copying such a record put together without its checks."""
    cls = type(good)
    values = {**good._asdict(), **bad}
    unchecked = tuple.__new__(cls, values.values())
    return {
        "constructor": lambda: cls(**values),
        "_replace": lambda: good._replace(**bad),
        "_make": lambda: cls._make(values.values()),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
        "copy": lambda: copy.copy(unchecked),
    }


def round_trips(record) -> list:
    """``record`` after pickling, ``copy.copy`` and ``copy.deepcopy``."""
    return [pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)]


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
    total = left_sum(w)
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
    key: mu1 in _MU1_RANGE, mu2 from _MU2_MIN up to 0.98 * mu1, mu3 from
    mu3_min up to 0.98 * min(mu2, mu1 - mu2), the probability logits in
    [-_LOGIT_LIMIT, _LOGIT_LIMIT] mapped as the optimizer maps them, p_Z in
    _PZ_RANGE; both variants (or only ``variant``), both presets, 0-60 dB,
    n_Z 1e6-1e10. The optimizer holds mu3 at mu3_min, but ``rate_point``
    takes any weak decoy, so mu3 is drawn and spliced into the levels that
    ``_levels_from_x`` maps."""
    spec = OptimizationSpec(variant or draw(st.sampled_from(list(Variant))))
    mu1 = draw(st.floats(*_MU1_RANGE))
    mu2 = draw(st.floats(_MU2_MIN, _ORDER_MARGIN * mu1))
    weak = ()
    if spec.variant is Variant.TWO_DECOY:
        weak = (draw(st.floats(spec.mu3_min, _ORDER_MARGIN * min(mu2, mu1 - mu2))),)
    logit = st.floats(-_LOGIT_LIMIT, _LOGIT_LIMIT)
    x = [mu1, mu2, *(draw(logit) for _ in range(1 + len(weak)))]
    x.append(draw(st.floats(*_PZ_RANGE)))
    _, probs, pz = _levels_from_x(spec, x)
    protocol = ProtocolParams(spec.variant, (mu1, mu2, *weak), probs, pz)
    link = channel_from_preset(
        draw(st.sampled_from(sorted(DETECTOR_PRESETS))), draw(st.floats(0.0, 60.0))
    )
    # Drawn down from 1e10, so that the simplest draw is the largest block.
    block_size = 10.0 ** (10.0 - draw(st.floats(0.0, 4.0)))
    return SimulationPoint(link, protocol, SecurityParams(1e-9, 1e-15, block_size))


@st.composite
def valid_points(draw):
    """Any accepted protocol (both variants, intensities anywhere in
    [0, MAX_INTENSITY], any probabilities and basis bias), any accepted
    channel (attenuation up to the largest float, dark counts from 0, dead time and
    pulse rate up to the largest float whose product is finite) and any
    accepted security record (eps_sec and eps_cor from MIN_EPS, n_Z from 1 to
    1e300)."""
    variant = draw(st.sampled_from(list(Variant)))
    k = variant.intensity_count
    levels = draw(st.lists(st.floats(0.0, MAX_INTENSITY), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=k, max_size=k))
    pz = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    try:
        protocol = ProtocolParams(
            variant, sorted(levels, reverse=True), [w / left_sum(weights) for w in weights], pz
        )
    except ParameterError:
        reject()
    try:
        link = ChannelParams(
            attenuation_db=draw(st.floats(min_value=0.0, allow_infinity=False)),
            dark_count_prob=draw(st.floats(0.0, 1.0, exclude_max=True)),
            misalignment_prob=draw(st.floats(0.0, 0.5, exclude_max=True)),
            dead_time_s=draw(st.floats(min_value=0.0, allow_infinity=False)),
            rep_rate_hz=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        )
    except ParameterError:  # rep_rate_hz * dead_time_s overflows
        reject()
    sec = SecurityParams(
        draw(st.floats(MIN_EPS, 1.0, exclude_max=True)),
        draw(st.floats(MIN_EPS, 1.0, exclude_max=True)),
        10.0 ** draw(st.floats(0.0, 300.0)),
        draw(st.floats(min_value=1.0, allow_infinity=False)),
    )
    return SimulationPoint(link, protocol, sec)


def use_cores(monkeypatch, cores) -> list[int]:
    """Make ``cores`` the usable set; return the list of forked child pids."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cores))
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
