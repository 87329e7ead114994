"""Finite-key estimation chain for decoy-state BB84.

Builds, from observed (or expected) counts, the corrected per-intensity
counts, the vacuum and single-photon bounds for both decoy variants, the
phase-error upper bound with its statistical fluctuation term, and finally
the extractable secret key length

    l = s0_lower + s1_lower * (1 - h(phi_upper)) - lambda_EC
        - a*log2(b/eps_sec) - log2(2/eps_cor)

with a = 6 and b = 19 (one decoy) or 21 (two decoys). Every bound clamps to
zero from below; the phase error clamps to 0.5 from above.

Each bound formula is written once, in one kernel per variant that returns
a basis' vacuum and single-photon bounds from its corrected counts:
``_one_decoy`` and ``_two_decoy``, on plain floats. ``_estimate``, the chain
as one straight-line pass, computes each Hoeffding deviation once, runs the
kernel once per basis, adds v1_X, the phase error and the key length, and
returns the ``KeyEstimate`` named tuple. What stays fixed while the levels
and counts change (ln(1/eps), the squares in the fluctuation term, the
key-length penalty) it reads from a prepared ``_Constants`` record:
``estimate_key`` prepares one per call, the simulator's core one per
optimized point. The public per-bound functions read the one pass: each
returns one field of ``estimate_key`` by basis, the X-basis vacuum bounds
being ``s0_lower_x`` and ``s0_upper_x``. All functions are pure and
thread-safe.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple, Sequence

from .model import (
    MIN_EPS,
    Basis,
    InsufficientStatisticsError,
    NoKeyError,
    Observations,
    ParameterError,
    ProtocolParams,
    SecurityParams,
    _Checked,
    _deviation,
    _poisson,
    binary_entropy,
    hoeffding_delta,
    photon_number_prob,  # noqa: F401 -- not called here; perfbench/tracer.py wraps it
)

__all__ = [
    "EpsilonBudget",
    "BoundInputs",
    "KeyEstimate",
    "epsilon_budget",
    "corrected_count",
    "vacuum_events_lower",
    "vacuum_events_upper",
    "single_photon_lower",
    "phase_error_fluctuation",
    "phase_error_upper",
    "estimate_key",
]

# The key-length constant b by intensity count: 19 for one decoy (two
# levels), 21 for two decoys (three levels).
_KEY_LENGTH_B = {2: 19, 3: 21}


class EpsilonBudget(_Checked, namedtuple("EpsilonBudget", "eps1 eps2")):
    """Failure-probability split for the concentration inequalities, a
    checked named tuple like ``model.RatePoint``.

    ``eps1`` guards detection-count corrections, ``eps2`` error-count
    corrections. eps = 1 is allowed and turns every Hoeffding deviation off
    (asymptotic evaluation). The key-length constant b that ``epsilon_budget``
    divides eps_sec by follows from the variant, see ``_KEY_LENGTH_B``.
    """

    __slots__ = ()

    def __new__(cls, eps1: float, eps2: float) -> EpsilonBudget:
        if not 0.0 < eps1 <= 1.0 or not 0.0 < eps2 <= 1.0:
            raise ParameterError("EpsilonBudget: eps1 and eps2 must be in (0, 1]")
        return tuple.__new__(cls, (eps1, eps2))


class BoundInputs(_Checked, namedtuple("BoundInputs", "params sec obs budget")):
    """Everything the estimation chain needs for one evaluation, a checked
    named tuple like ``model.RatePoint``."""

    __slots__ = ()

    def __new__(
        cls, params: ProtocolParams, sec: SecurityParams, obs: Observations, budget: EpsilonBudget
    ) -> BoundInputs:
        if len(obs.intensities) != len(params.intensities):
            raise ParameterError("BoundInputs: observation cells do not match the intensities")
        if obs.intensities != params.intensities:
            for a, b in zip(obs.intensities, params.intensities):
                if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15):
                    raise ParameterError("BoundInputs: observation intensities differ from params")
        return tuple.__new__(cls, (params, sec, obs, budget))


class KeyEstimate(NamedTuple):
    """All intermediate bounds behind one secret key length evaluation: what
    the one pass ``_estimate`` returns, so the optimizer's objective reads
    the key length without building a further record. The fields up to
    ``key_length`` are ``RatePoint``'s; after ``status`` come the X-basis
    vacuum bounds, ``s0_upper_x`` None for two decoys as ``s0_upper`` is."""

    s0_lower: float
    s0_upper: float | None
    s1_lower_z: float
    s1_lower_x: float
    v1_upper_x: float
    phase_error_upper: float
    lambda_ec: float
    key_length: float
    status: str
    s0_lower_x: float
    s0_upper_x: float | None


class _Constants:
    """What ``_estimate`` needs beyond the levels and counts, from checked
    records and an eps split in (0, 1]. A slotted class, not a named tuple:
    on CPython 3.11 it is built and read in about half the time."""

    __slots__ = (
        "log_inv_eps1", "log_inv_eps2", "gamma_sq", "eps_sec_sq", "penalty", "ec_efficiency",
        "total_mode",
    )

    def __init__(
        self, intensity_count: int, eps1: float, eps2: float, sec: SecurityParams
    ) -> None:
        self.log_inv_eps1 = math.log(1.0 / eps1)
        # every ``epsilon_budget`` split has eps1 == eps2: one logarithm
        self.log_inv_eps2 = self.log_inv_eps1 if eps2 == eps1 else math.log(1.0 / eps2)
        self.gamma_sq = sec.gamma_base**2
        self.eps_sec_sq = sec.eps_sec**2
        # a*log2(b/eps_sec) + log2(2/eps_cor), a = 6 and b as in the module docstring
        b = _KEY_LENGTH_B[intensity_count]
        self.penalty = 6 * math.log2(b / sec.eps_sec) + math.log2(2.0 / sec.eps_cor)
        self.ec_efficiency = sec.ec_efficiency
        self.total_mode = sec.s0_upper_mode == "total"


def epsilon_budget(params: ProtocolParams, sec: SecurityParams) -> EpsilonBudget:
    """Split eps_sec evenly over the b error terms of the key-length bound."""
    return EpsilonBudget(*_even_split(len(params.intensities), sec.eps_sec))


def _even_split(intensity_count: int, eps_sec: float) -> tuple[float, float]:
    """(eps1, eps2) of ``epsilon_budget`` without the record."""
    eps = eps_sec / _KEY_LENGTH_B[intensity_count]
    return eps, eps


def corrected_count(
    count_k: float, total: float, p_k: float, k: float, eps: float, sign: int
) -> float:
    """Finite-size corrected count (e**k / p_k) * (count_k +/- delta(total, eps)).

    ``total`` is the basis-wide count entering the Hoeffding deviation. The
    minus variant clamps at zero: the asymptotic count it bounds is never
    negative, so clamping only loosens the bound in the safe direction. The
    kernels of ``_estimate`` write the same formula inline.
    """
    if p_k <= 0.0:
        raise ParameterError("corrected_count: intensity probability must be > 0")
    if count_k < 0.0:
        raise ParameterError("corrected_count: count must be >= 0")
    if total < count_k:
        raise ParameterError("corrected_count: total smaller than the cell count")
    if sign not in (1, -1):
        raise ParameterError("corrected_count: sign must be +1 or -1")
    delta, weight = hoeffding_delta(total, eps), math.exp(k) / p_k
    if sign > 0:
        return weight * (count_k + delta)
    return weight * max(0.0, count_k - delta)


# The bound kernels, one per variant, run once per basis. A corrected count is
# w * (c + d) up or w * max(0, c - d) down, with w = e**mu / p; each clamp at
# zero is ``y if y > 0.0 else 0.0``, which is max(0.0, y), NaN and -0.0 too.


def _one_decoy(
    taus: tuple[float, float], mus: Sequence[float], weights: Sequence[float],
    det: Sequence[float], d_n: float, errors: float, d_m: float | None,
) -> tuple[float, float, float]:
    """(s0_lower, s0_upper, s1_lower) of one basis from its detections per
    level and their total's deviation ``d_n``. Vacuum pulses click through
    dark counts alone, half of them as errors, so the errors cap s0 from
    above: ``errors`` is the weak level's, corrected up by ``d_m``, or the
    basis's error total where ``d_m`` is None (the "total" mode)."""
    tau0, tau1 = taus
    mu1, mu2 = mus
    w1, w2 = weights
    c1, c2 = det
    n1 = w1 * (c1 + d_n)
    x = c2 - d_n
    n2 = w2 * (x if x > 0.0 else 0.0)
    y = tau0 * (mu1 * n2 - mu2 * n1) / (mu1 - mu2)
    s0_lower = y if y > 0.0 else 0.0
    vacuum_errors = errors if d_m is None else tau0 * (w2 * (errors + d_m))
    y = 2.0 * (vacuum_errors + d_n)
    s0_upper = y if y > 0.0 else 0.0
    bracket = n2 - (mu2**2 / mu1**2) * n1 - ((mu1**2 - mu2**2) / mu1**2) * s0_upper / tau0
    y = tau1 * mu1 / (mu2 * (mu1 - mu2)) * bracket
    return s0_lower, s0_upper, y if y > 0.0 else 0.0


def _two_decoy(
    taus: tuple[float, float], mus: Sequence[float], weights: Sequence[float],
    det: Sequence[float], d_n: float,
) -> tuple[float, float]:
    """(s0_lower, s1_lower) of one basis from its detections per level and
    their total's deviation ``d_n``. s1_lower takes s0_lower, which is
    conservative: s0 enters with a positive coefficient."""
    tau0, tau1 = taus
    mu1, mu2, mu3 = mus
    w1, w2, w3 = weights
    c1, c2, c3 = det
    n2_up = w2 * (c2 + d_n)
    x = c3 - d_n
    n3_down = w3 * (x if x > 0.0 else 0.0)
    y = tau0 * (mu2 * n3_down - mu3 * n2_up) / (mu2 - mu3)
    s0 = y if y > 0.0 else 0.0
    n1 = w1 * (c1 + d_n)
    x = c2 - d_n
    n2 = w2 * (x if x > 0.0 else 0.0)
    n3 = w3 * (c3 + d_n)
    denom = mu1 * (mu2 - mu3) - mu2**2 + mu3**2
    bracket = n2 - n3 + ((mu2**2 - mu3**2) / mu1**2) * (s0 / tau0 - n1)
    y = tau1 * mu1 / denom * bracket
    return s0, y if y > 0.0 else 0.0


def _estimate(
    mus: Sequence[float],
    weights: Sequence[float],
    taus: tuple[float, float],
    cells: Sequence[Sequence[float]],
    totals: Sequence[float],
    constants: _Constants,
) -> KeyEstimate:
    """The whole chain in one straight-line pass on plain values.

    ``weights`` holds e**mu_k / p_k per level; ``taus`` tau0 and tau1, the
    probabilities of a vacuum and of a single-photon pulse; ``cells`` the
    per-intensity counts (detections_z, errors_z, detections_x, errors_x)
    and ``totals`` their sums (n_z, m_z, n_x, m_x); ``constants`` what stays
    fixed while they change. The arguments are taken as valid:
    ``BoundInputs`` checks them for ``estimate_key``, and the simulator's
    core builds them from a checked configuration, reusing ``weights`` and
    ``taus`` while the levels and their probabilities stay put. Each
    Hoeffding deviation is computed once, and the variant's kernel runs once
    per basis.
    """
    det_z, err_z, det_x, err_x = cells
    n_z, m_z, n_x, m_x = totals
    log1, log2 = constants.log_inv_eps1, constants.log_inv_eps2
    d_nz = _deviation(n_z, log1)
    d_nx = _deviation(n_x, log1)
    d_mx = _deviation(m_x, log2)
    if len(mus) == 2:
        if constants.total_mode:
            s0_lower, s0_upper, s1_z = _one_decoy(taus, mus, weights, det_z, d_nz, m_z, None)
            s0_lower_x, s0_upper_x, s1_x = _one_decoy(taus, mus, weights, det_x, d_nx, m_x, None)
        else:
            d_mz = _deviation(m_z, log2)
            s0_lower, s0_upper, s1_z = _one_decoy(taus, mus, weights, det_z, d_nz, err_z[1], d_mz)
            s0_lower_x, s0_upper_x, s1_x = _one_decoy(
                taus, mus, weights, det_x, d_nx, err_x[1], d_mx
            )
    else:
        s0_lower, s1_z = _two_decoy(taus, mus, weights, det_z, d_nz)
        s0_lower_x, s1_x = _two_decoy(taus, mus, weights, det_x, d_nx)
        s0_upper = s0_upper_x = None
    # v1_x = tau1 * (m_hi^+ - m_lo^-) / (mu_hi - mu_lo) over the two weakest
    # levels' X errors. Any excess over m_X is kept: a cap at m_X, though
    # valid, would reward starving the X basis and skew the optimizer toward
    # degenerate bases.
    x = err_x[-1] - d_mx
    m_lo = weights[-1] * (x if x > 0.0 else 0.0)
    y = taus[1] * (weights[-2] * (err_x[-2] + d_mx) - m_lo) / (mus[-2] - mus[-1])
    v1_x = y if y > 0.0 else 0.0
    # An empty block discloses nothing; the pass ends in "no_key" below.
    lambda_ec = _leakage(n_z, m_z, constants.ec_efficiency) if n_z > 0.0 else 0.0
    if s1_z <= 0.0 or s1_x <= 0.0:
        # a single-photon lower bound vanished: nothing to extract a key from
        # tuple.__new__ skips the named tuple's Python-level __new__ frame
        return tuple.__new__(KeyEstimate, (
            s0_lower, s0_upper, s1_z, s1_x, v1_x, 0.5, lambda_ec, 0.0, "no_key",
            s0_lower_x, s0_upper_x,
        ))
    # phi = v1_x / s1_x plus its fluctuation term, clamped into [0, 0.5]; in
    # the error-free limit the fluctuation term vanishes with the ratio.
    ratio = v1_x / s1_x
    if ratio <= 0.0:
        phi = 0.0
    elif ratio >= 0.5:
        phi = 0.5
    else:
        y = ratio + _fluctuation(ratio, s1_z, s1_x, constants.gamma_sq, constants.eps_sec_sq)
        phi = y if y < 0.5 else 0.5
    y = s0_lower + s1_z * (1.0 - binary_entropy(phi)) - lambda_ec - constants.penalty
    return tuple.__new__(KeyEstimate, (
        s0_lower, s0_upper, s1_z, s1_x, v1_x, phi, lambda_ec, y if y > 0.0 else 0.0, "ok",
        s0_lower_x, s0_upper_x,
    ))


def estimate_key(inputs: BoundInputs) -> KeyEstimate:
    """Run the whole estimation chain once and keep every intermediate value:
    ``_estimate`` on the checked inputs and constants from ``inputs.budget``.
    One pass over the levels builds the weights e**mu / p and adds up tau0
    and tau1 as ``photon_number_prob`` does, so bit for bit its values."""
    params, obs, budget = inputs.params, inputs.obs, inputs.budget
    mus = params.intensities
    weights, tau0, tau1 = [], 0.0, 0.0
    for mu, p in zip(mus, params.intensity_probs):
        weights.append(math.exp(mu) / p)
        tau0 += p * _poisson(mu, 0)
        tau1 += p * _poisson(mu, 1)
    cells = obs.detections_z, obs.errors_z, obs.detections_x, obs.errors_x
    totals = obs.n_z, obs.m_z, obs.n_x, obs.m_x
    constants = _Constants(len(mus), budget.eps1, budget.eps2, inputs.sec)
    return _estimate(mus, weights, (tau0, tau1), cells, totals, constants)


def vacuum_events_lower(inputs: BoundInputs, basis: Basis = Basis.Z) -> float:
    """Decoy lower bound on detections caused by vacuum pulses: field
    ``s0_lower`` (Z) or ``s0_lower_x`` (X) of ``estimate_key``."""
    estimate = estimate_key(inputs)
    return estimate.s0_lower if basis is Basis.Z else estimate.s0_lower_x


def vacuum_events_upper(inputs: BoundInputs, basis: Basis = Basis.Z) -> float:
    """Upper bound on vacuum detections from observed errors, one decoy only:
    field ``s0_upper`` (Z) or ``s0_upper_x`` (X) of ``estimate_key``."""
    if len(inputs.params.intensities) != 2:
        raise ParameterError("vacuum_events_upper: defined for the one-decoy variant only")
    estimate = estimate_key(inputs)
    return estimate.s0_upper if basis is Basis.Z else estimate.s0_upper_x


def single_photon_lower(inputs: BoundInputs, basis: Basis = Basis.Z) -> float:
    """Decoy lower bound on detections caused by single-photon pulses: field
    ``s1_lower_z`` or ``s1_lower_x`` of ``estimate_key``."""
    estimate = estimate_key(inputs)
    return estimate.s1_lower_z if basis is Basis.Z else estimate.s1_lower_x


def phase_error_upper(inputs: BoundInputs) -> float:
    """Upper bound on the Z-basis phase error rate, clamped into [0, 0.5]:
    field ``phase_error_upper`` of ``estimate_key``. Raises NoKeyError where
    the status is "no_key": with no single-photon credit there is nothing to
    extract a key from."""
    estimate = estimate_key(inputs)
    if estimate.status == "no_key":
        raise NoKeyError("phase_error_upper: single-photon lower bound vanished")
    return estimate.phase_error_upper


def phase_error_fluctuation(
    eps_sec: float, ratio: float, count1: float, count2: float, base: float = 21.0
) -> float:
    """Statistical penalty for inferring one basis' error rate from the other.

    Evaluates sqrt((c+d)(1-b)b / (c d ln 2) * log2((c+d)/(c d (1-b)b) *
    base^2/eps^2)) for the observed ratio b and the two single-photon counts
    c, d. Symmetric in the counts. Returns 0 when the logarithm argument
    drops to 1 or below (no fluctuation left to pay for). ``eps_sec`` lies in
    [MIN_EPS, 1) and ``base`` in (0, inf), as in ``SecurityParams``; the
    counts are finite.
    """
    if not MIN_EPS <= eps_sec < 1.0:
        raise ParameterError("phase_error_fluctuation: eps_sec must lie in [MIN_EPS, 1)")
    if not 0.0 < base < math.inf:
        raise ParameterError("phase_error_fluctuation: base must lie in (0, inf)")
    for name, count in (("count1", count1), ("count2", count2)):
        if not math.isfinite(count):
            raise ParameterError(f"phase_error_fluctuation: {name} must be finite")
    return _fluctuation(ratio, count1, count2, base**2, eps_sec**2)


def _fluctuation(
    ratio: float, count1: float, count2: float, base_sq: float, eps_sec_sq: float
) -> float:
    """``phase_error_fluctuation`` with base**2 and eps_sec**2 given."""
    if not 0.0 < ratio < 1.0 or count1 <= 0.0 or count2 <= 0.0:
        raise InsufficientStatisticsError(
            "phase_error_fluctuation: insufficient statistics, abort key extraction"
        )
    denominator = count1 * count2 * (1.0 - ratio) * ratio
    if denominator >= sys.float_info.min:
        spread = (count1 + count2) / denominator
        variance = (count1 + count2) * (1.0 - ratio) * ratio / (count1 * count2 * math.log(2.0))
    else:
        # the product is subnormal or 0 and has lost digits; (c+d)/(c d) is 1/c + 1/d
        inverse_sum = 1.0 / count1 + 1.0 / count2
        spread = inverse_sum / ((1.0 - ratio) * ratio)
        variance = inverse_sum * (1.0 - ratio) * ratio / math.log(2.0)
    log_arg = spread * base_sq / eps_sec_sq
    if log_arg <= 1.0:
        return 0.0
    if log_arg < math.inf:
        return math.sqrt(variance * math.log2(log_arg))
    # The argument, the spread, the variance (where a count is subnormal, 1/c
    # overflows) and the square of the result may overflow: sum the logs of
    # the argument's factors and multiply the roots of the variance's.
    # Dividing by the larger count first keeps the quotients finite.
    small, large = sorted((count1, count2))
    odds = (1.0 - ratio) * ratio
    log_spread = math.log2(count1 + count2) - math.log2(large) - math.log2(small) - math.log2(odds)
    log2_arg = log_spread + math.log2(base_sq) - math.log2(eps_sec_sq)
    root_variance = (
        math.sqrt(count1 + count2) / math.sqrt(large) / math.sqrt(small)
        * math.sqrt(odds / math.log(2.0))
    )
    return root_variance * math.sqrt(log2_arg)


def _leakage(n_z: float, m_z: float, ec_efficiency: float) -> float:
    """Bits disclosed during error correction, ec_efficiency * n_Z * h(QBER),
    from the totals n_z > 0 and m_z."""
    h = binary_entropy(m_z / n_z)
    # An error-free block leaks nothing, even where ec_efficiency * n_z overflows.
    return ec_efficiency * n_z * h if h > 0.0 else 0.0
