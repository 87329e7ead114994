"""Finite-key estimation chain for decoy-state BB84.

Builds, from observed (or expected) counts, the corrected per-intensity
counts, the vacuum and single-photon bounds for both decoy variants, the
phase-error upper bound with its statistical fluctuation term, and finally
the extractable secret key length

    l = s0_lower + s1_lower * (1 - h(phi_upper)) - lambda_EC
        - a*log2(b/eps_sec) - log2(2/eps_cor)

with a = 6 and b = 19 (one decoy) or 21 (two decoys). Every bound clamps to
zero from below; the phase error clamps to 0.5 from above.

Each bound formula is one private function on plain floats. ``_estimate``,
the chain as one straight-line pass, computes every corrected count once into
a local, passes it to the formulas and returns the ``KeyEstimate`` named
tuple. What stays fixed while the levels and counts change (ln(1/eps), the
squares in the fluctuation term, the key-length penalty) it reads from a
prepared ``_Constants`` record: ``estimate_key`` prepares one per call, the
simulator's core one per optimized point. The public per-bound functions
read the one pass: each returns one field of ``estimate_key`` by basis, the
X-basis vacuum bounds being ``s0_lower_x`` and ``s0_upper_x``. All
functions are pure and thread-safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
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
    _deviation,
    binary_entropy,
    hoeffding_delta,
    photon_number_prob,
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


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability split for the concentration inequalities.

    ``eps1`` guards detection-count corrections, ``eps2`` error-count
    corrections. eps = 1 is allowed and turns every Hoeffding deviation off
    (asymptotic evaluation). The key-length constant b that ``epsilon_budget``
    divides eps_sec by follows from the variant, see ``_KEY_LENGTH_B``.
    """

    eps1: float
    eps2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.eps1 <= 1.0 or not 0.0 < self.eps2 <= 1.0:
            raise ParameterError("EpsilonBudget: eps1 and eps2 must be in (0, 1]")


@dataclass(frozen=True)
class BoundInputs:
    """Everything the estimation chain needs for one evaluation."""

    params: ProtocolParams
    sec: SecurityParams
    obs: Observations
    budget: EpsilonBudget

    def __post_init__(self) -> None:
        if len(self.obs.intensities) != len(self.params.intensities):
            raise ParameterError("BoundInputs: observation cells do not match the intensities")
        if self.obs.intensities != self.params.intensities:
            for a, b in zip(self.obs.intensities, self.params.intensities):
                if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15):
                    raise ParameterError("BoundInputs: observation intensities differ from params")


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
        self.log_inv_eps2 = math.log(1.0 / eps2)
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
    negative, so clamping only loosens the bound in the safe direction.
    """
    if p_k <= 0.0:
        raise ParameterError("corrected_count: intensity probability must be > 0")
    if count_k < 0.0:
        raise ParameterError("corrected_count: count must be >= 0")
    if total < count_k:
        raise ParameterError("corrected_count: total smaller than the cell count")
    if sign not in (1, -1):
        raise ParameterError("corrected_count: sign must be +1 or -1")
    return _correct(count_k, hoeffding_delta(total, eps), math.exp(k) / p_k, sign)


def _correct(count_k: float, delta: float, weight: float, sign: int) -> float:
    """weight * (count_k +/- delta) with the minus side clamped at zero, where
    weight = e**k / p_k: the formula of ``corrected_count`` without its
    checks. The inputs of ``_estimate`` pass them by construction
    (``BoundInputs`` holds validated params and observations, and a total is
    the sum of its cells), so it calls this directly."""
    if sign > 0:
        return weight * (count_k + delta)
    return weight * max(0.0, count_k - delta)


# The bound formulas, each written once, on plain floats. n_k and m_k are the
# detections and errors of intensity mu_k corrected by ``_correct``, up (+) or
# down (-); mu_hi > mu_lo are the two lowest intensities.


def _vacuum_lower(tau0: float, mu_hi: float, mu_lo: float, n_lo: float, n_hi: float) -> float:
    """tau0 * (mu_hi * n_lo^- - mu_lo * n_hi^+) / (mu_hi - mu_lo), clamped at zero."""
    return max(0.0, tau0 * (mu_hi * n_lo - mu_lo * n_hi) / (mu_hi - mu_lo))


def _vacuum_upper(vacuum_errors: float, delta_n: float) -> float:
    """2 * (vacuum_errors + delta(n, eps1)), clamped at zero; ``vacuum_errors``
    is tau0 * m_mu2^+ in the per-intensity mode, m in the total mode. Vacuum
    pulses click through dark counts alone, so half of them show up as
    errors: the errors cap the vacuum events from above."""
    return max(0.0, 2.0 * (vacuum_errors + delta_n))


def _single_photon_lower_one(
    tau0: float, tau1: float, mus: Sequence[float], n1: float, n2: float, s0_upper: float
) -> float:
    """One decoy, from n1 = n_mu1^+, n2 = n_mu2^- and the s0 upper bound."""
    mu1, mu2 = mus
    bracket = n2 - (mu2**2 / mu1**2) * n1 - ((mu1**2 - mu2**2) / mu1**2) * s0_upper / tau0
    return max(0.0, tau1 * mu1 / (mu2 * (mu1 - mu2)) * bracket)


def _single_photon_lower_two(
    tau0: float, tau1: float, mus: Sequence[float], n1: float, n2: float, n3: float, s0: float
) -> float:
    """Two decoys, from n1 = n_mu1^+, n2 = n_mu2^-, n3 = n_mu3^+ and s0 lower,
    which is conservative: s0 enters with a positive coefficient."""
    mu1, mu2, mu3 = mus
    denom = mu1 * (mu2 - mu3) - mu2**2 + mu3**2
    bracket = n2 - n3 + ((mu2**2 - mu3**2) / mu1**2) * (s0 / tau0 - n1)
    return max(0.0, tau1 * mu1 / denom * bracket)


def _single_photon_errors(
    tau1: float, mu_hi: float, mu_lo: float, m_hi: float, m_lo: float
) -> float:
    """tau1 * (m_hi^+ - m_lo^-) / (mu_hi - mu_lo) in the X basis, clamped at zero.
    Any excess over m_X is kept: a cap at m_X, though valid, would reward
    starving the X basis and skew the optimizer toward degenerate bases."""
    return max(0.0, tau1 * (m_hi - m_lo) / (mu_hi - mu_lo))


def _phase_error(
    s1_z: float, s1_x: float, v1_x: float, gamma_sq: float, eps_sec_sq: float
) -> float | None:
    """v1_x / s1_x plus its fluctuation term, clamped into [0, 0.5]; None when
    a single-photon lower bound vanished (no key)."""
    if s1_z <= 0.0 or s1_x <= 0.0:
        return None
    ratio = v1_x / s1_x
    if ratio <= 0.0:
        # Error-free limit: the fluctuation term vanishes with the ratio.
        return 0.0
    if ratio >= 0.5:
        return 0.5
    return min(0.5, ratio + _fluctuation(ratio, s1_z, s1_x, gamma_sq, eps_sec_sq))


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
    Hoeffding deviation and corrected count that the variant needs is
    computed once, into a local.
    """
    tau0, tau1 = taus
    det_z, err_z, det_x, err_x = cells
    n_z, m_z, n_x, m_x = totals
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
        # In each basis s0 lower takes n_mu2^+ and n_mu3^-, s1 lower n_mu1^+,
        # n_mu2^- and n_mu3^+.
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
    # An empty block discloses nothing; the pass ends in "no_key" below.
    lambda_ec = _leakage(n_z, m_z, constants.ec_efficiency) if n_z > 0.0 else 0.0
    phi = _phase_error(s1_z, s1_x, v1_x, constants.gamma_sq, constants.eps_sec_sq)
    if phi is None:
        return KeyEstimate(
            s0_lower, s0_upper, s1_z, s1_x, v1_x, 0.5, lambda_ec, 0.0, "no_key",
            s0_lower_x, s0_upper_x,
        )
    penalty = constants.penalty
    length = max(0.0, s0_lower + s1_z * (1.0 - binary_entropy(phi)) - lambda_ec - penalty)
    return KeyEstimate(
        s0_lower, s0_upper, s1_z, s1_x, v1_x, phi, lambda_ec, length, "ok", s0_lower_x, s0_upper_x
    )


def estimate_key(inputs: BoundInputs) -> KeyEstimate:
    """Run the whole estimation chain once and keep every intermediate value:
    ``_estimate`` on the checked inputs and constants from ``inputs.budget``."""
    params, obs, budget = inputs.params, inputs.obs, inputs.budget
    taus = photon_number_prob(params, 0), photon_number_prob(params, 1)
    cells = obs.detections_z, obs.errors_z, obs.detections_x, obs.errors_x
    totals = obs.n_z, obs.m_z, obs.n_x, obs.m_x
    mus = params.intensities
    weights = [math.exp(k) / p for k, p in zip(mus, params.intensity_probs)]
    constants = _Constants(len(mus), budget.eps1, budget.eps2, inputs.sec)
    return _estimate(mus, weights, taus, cells, totals, constants)


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
    [MIN_EPS, 1), as in ``SecurityParams``.
    """
    if not MIN_EPS <= eps_sec < 1.0:
        raise ParameterError("phase_error_fluctuation: eps_sec must lie in [MIN_EPS, 1)")
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
