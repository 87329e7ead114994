"""Finite-key estimation chain for decoy-state BB84.

Builds, from observed (or expected) counts, the corrected per-intensity
counts, the vacuum and single-photon bounds for both decoy variants, the
phase-error upper bound with its statistical fluctuation term, and finally
the extractable secret key length

    l = s0_lower + s1_lower * (1 - h(phi_upper)) - lambda_EC
        - a*log2(b/eps_sec) - log2(2/eps_cor)

with a = 6 and b = 19 (one decoy) or 21 (two decoys). Every bound clamps to
zero from below; the phase error clamps to 0.5 from above.

Where each formula is written:

- ``_one_decoy`` and ``_two_decoy``, the bound stages, one per variant: the
  weights e**mu / p, tau0 and tau1, the Hoeffding deviations
  (``hoeffding_delta``'s, inline), the corrected counts (``corrected_count``'s,
  inline) and the vacuum and single-photon bounds, each bound written once
  in one loop over the Z and X bases, on a count stage's tuple (see
  ``simulator``).
- ``_terms``: a level's e**mu and 0- and 1-photon terms (``model._poisson``).
- ``_key``, the tail of both stages: v1_X, the phase error with its
  fluctuation term (``_fluctuation``), the leakage (``_leakage``) and the key
  length, returned as the ``KeyEstimate`` named tuple.
- ``_Constants``: what stays fixed while the levels and counts change, and
  the variant's stage. ``estimate_key`` prepares one per call, the
  simulator's core one per optimized point.

The public per-bound functions read ``estimate_key``: each returns one of
its fields by basis, the X-basis vacuum bounds being ``s0_lower_x`` and
``s0_upper_x``. All public functions are pure and thread-safe.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

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
    a bound stage returns, so the optimizer's objective reads
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
    """What a bound stage needs beyond the levels and counts, from checked
    records and an eps split in (0, 1], the stage of the variant with
    ``intensity_count`` levels, and one ``_terms`` slot per level index: like
    ``simulator._Link``, it belongs to one search, in one thread. A slotted
    class, not a named tuple: on CPython 3.11 it is built and read in about
    half the time."""

    __slots__ = (
        "log_inv_eps1", "log_inv_eps2", "gamma_sq", "eps_sec_sq", "penalty", "ec_efficiency",
        "total_mode", "bounds", "terms",
    )

    def __init__(
        self, intensity_count: int, eps1: float, eps2: float, sec: SecurityParams
    ) -> None:
        self.log_inv_eps1 = math.log(1.0 / eps1)
        # every ``epsilon_budget`` split has eps1 == eps2: one logarithm
        self.log_inv_eps2 = self.log_inv_eps1 if eps2 == eps1 else math.log(1.0 / eps2)
        eps_sec, eps_cor, _, ec_efficiency, s0_upper_mode, gamma_base = sec
        self.gamma_sq = gamma_base**2
        self.eps_sec_sq = eps_sec**2
        # a*log2(b/eps_sec) + log2(2/eps_cor), a = 6 and b as in the module docstring
        b = _KEY_LENGTH_B[intensity_count]
        self.penalty = 6 * math.log2(b / eps_sec) + math.log2(2.0 / eps_cor)
        self.ec_efficiency = ec_efficiency
        self.total_mode = s0_upper_mode == "total"
        self.bounds = _one_decoy if intensity_count == 2 else _two_decoy
        self.terms = [(None,)] * intensity_count


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
    bound stages write the same formula inline.
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


# The bound stages, one per variant, take the levels ``mus`` and ``probs``,
# a count stage's tuple ``values`` and the ``_Constants``, whose slots keep a
# level's ``_terms`` while it keeps its value. A corrected count is w * (c + d)
# up or w * max(0, c - d) down, d the Hoeffding deviation sqrt(n ln(1/eps) /
# 2) of the basis' total, with ``hoeffding_delta``'s check. Each clamp at zero
# is ``y if y > 0.0 else 0.0``, which is max(0.0, y), NaN and -0.0 too.


def _terms(mu: float) -> tuple[float, float, float, float]:
    """mu, e**mu and the probabilities that a pulse of intensity mu carries
    0 and 1 photons."""
    return mu, math.exp(mu), _poisson(mu, 0), _poisson(mu, 1)


def _one_decoy(mus: tuple, probs: tuple, values: tuple, constants: _Constants) -> KeyEstimate:
    """The bound stage of the levels (mu1, mu2): per basis s0_lower, s0_upper
    and s1_lower. Vacuum pulses click through dark counts alone, half of
    them as errors, so the errors cap s0 from above: the weak level's,
    corrected up, or the basis' error total in the "total" mode."""
    mu1, mu2 = mus
    terms = constants.terms
    if terms[0][0] != mu1:
        terms[0] = _terms(mu1)
    if terms[1][0] != mu2:
        terms[1] = _terms(mu2)
    (_, exp1, vac1, one1), (_, exp2, vac2, one2) = terms
    p1, p2 = probs
    w1, w2, tau0, tau1 = exp1 / p1, exp2 / p2, p1 * vac1 + p2 * vac2, p1 * one1 + p2 * one2
    (dz1, dz2), (ez1, ez2), (dx1, dx2), (ex1, ex2), n_z, m_z, n_x, m_x, _ = values
    log1, log2, total = constants.log_inv_eps1, constants.log_inv_eps2, constants.total_mode
    # the levels' factors, the same in both bases
    mu_gap, s1_factor = mu1 - mu2, tau1 * mu1 / (mu2 * (mu1 - mu2))
    mu1_sq, mu2_sq = mu1**2, mu2**2
    ratio_sq, rest_sq = mu2_sq / mu1_sq, (mu1_sq - mu2_sq) / mu1_sq
    found = []
    for c1, c2, e2, n, m in ((dz1, dz2, ez2, n_z, m_z), (dx1, dx2, ex2, n_x, m_x)):
        if not (n >= 0.0 and m >= 0.0):
            raise ParameterError("hoeffding_delta: n must be >= 0")
        d_n, d_m = math.sqrt(0.5 * n * log1), math.sqrt(0.5 * m * log2)
        n1 = w1 * (c1 + d_n)
        x = c2 - d_n
        n2 = w2 * (x if x > 0.0 else 0.0)
        y = tau0 * (mu1 * n2 - mu2 * n1) / mu_gap
        s0_lower = y if y > 0.0 else 0.0
        y = 2.0 * ((m if total else tau0 * (w2 * (e2 + d_m))) + d_n)
        s0_upper = y if y > 0.0 else 0.0
        y = s1_factor * (n2 - ratio_sq * n1 - rest_sq * s0_upper / tau0)
        found += s0_lower, s0_upper, y if y > 0.0 else 0.0
    return _key(found, tau1, mu1, mu2, w1, w2, ex1, ex2, d_m, n_z, m_z, constants)  # d_m: X's


def _two_decoy(mus: tuple, probs: tuple, values: tuple, constants: _Constants) -> KeyEstimate:
    """The bound stage of the levels (mu1, mu2, mu3): per basis s0_lower and
    s1_lower. s1_lower takes s0_lower, which is conservative: s0 enters with
    a positive coefficient."""
    mu1, mu2, mu3 = mus
    terms = constants.terms
    if terms[0][0] != mu1:
        terms[0] = _terms(mu1)
    if terms[1][0] != mu2:
        terms[1] = _terms(mu2)
    if terms[2][0] != mu3:
        terms[2] = _terms(mu3)
    (_, exp1, vac1, one1), (_, exp2, vac2, one2), (_, exp3, vac3, one3) = terms
    p1, p2, p3 = probs
    w1, w2, w3 = exp1 / p1, exp2 / p2, exp3 / p3
    tau0, tau1 = p1 * vac1 + p2 * vac2 + p3 * vac3, p1 * one1 + p2 * one2 + p3 * one3
    (dz1, dz2, dz3), _, (dx1, dx2, dx3), (_, ex2, ex3), n_z, m_z, n_x, m_x, _ = values
    log1, log2 = constants.log_inv_eps1, constants.log_inv_eps2
    # the levels' factors, the same in both bases
    mu_gap, s1_factor = mu2 - mu3, tau1 * mu1 / (mu1 * (mu2 - mu3) - mu2**2 + mu3**2)
    sq_gap = (mu2**2 - mu3**2) / mu1**2
    found = []
    for c1, c2, c3, n, m in ((dz1, dz2, dz3, n_z, m_z), (dx1, dx2, dx3, n_x, m_x)):
        if not (n >= 0.0 and m >= 0.0):
            raise ParameterError("hoeffding_delta: n must be >= 0")
        d_n, d_m = math.sqrt(0.5 * n * log1), math.sqrt(0.5 * m * log2)
        n2_up = w2 * (c2 + d_n)
        x = c3 - d_n
        n3_down = w3 * (x if x > 0.0 else 0.0)
        y = tau0 * (mu2 * n3_down - mu3 * n2_up) / mu_gap
        s0 = y if y > 0.0 else 0.0
        n1 = w1 * (c1 + d_n)
        x = c2 - d_n
        n2 = w2 * (x if x > 0.0 else 0.0)
        n3 = w3 * (c3 + d_n)
        y = s1_factor * (n2 - n3 + sq_gap * (s0 / tau0 - n1))
        found += s0, None, y if y > 0.0 else 0.0
    return _key(found, tau1, mu2, mu3, w2, w3, ex2, ex3, d_m, n_z, m_z, constants)  # d_m: X's


def _key(
    found: list, tau1: float, mu_hi: float, mu_lo: float, w_hi: float, w_lo: float,
    e_hi: float, e_lo: float, d_mx: float, n_z: float, m_z: float, constants: _Constants,
) -> KeyEstimate:
    """The chain after a bound stage's ``found`` (s0_lower, s0_upper and
    s1_lower of Z, then of X): v1_X from the X errors ``e_hi`` and ``e_lo``
    of the two weakest levels mu_hi > mu_lo, with weights ``w_hi`` and
    ``w_lo``, the leakage, the phase error and the key length."""
    s0_lower, s0_upper, s1_z, s0_lower_x, s0_upper_x, s1_x = found
    # v1_x = tau1 * (m_hi^+ - m_lo^-) / (mu_hi - mu_lo). Any excess over m_X
    # is kept: a cap at m_X, though valid, would reward starving the X basis
    # and skew the optimizer toward degenerate bases.
    x = e_lo - d_mx
    y = tau1 * (w_hi * (e_hi + d_mx) - w_lo * (x if x > 0.0 else 0.0)) / (mu_hi - mu_lo)
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
    the variant's bound stage on the checked inputs, with constants from
    ``inputs.budget``."""
    (_, mus, probs, _), sec, obs, (eps1, eps2) = inputs
    constants = _Constants(len(mus), eps1, eps2, sec)
    values = (obs.detections_z, obs.errors_z, obs.detections_x, obs.errors_x,
              obs.n_z, obs.m_z, obs.n_x, obs.m_x, obs.pulses_sent)
    return constants.bounds(mus, probs, values, constants)


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
