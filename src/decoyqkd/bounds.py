"""Finite-key estimation chain for decoy-state BB84.

Builds, from observed (or expected) counts, the corrected per-intensity
counts, the vacuum and single-photon bounds for both decoy variants, the
phase-error upper bound with its statistical fluctuation term, and finally
the extractable secret key length

    l = s0_lower + s1_lower * (1 - h(phi_upper)) - lambda_EC
        - a*log2(b/eps_sec) - log2(2/eps_cor)

with a = 6 and b = 19 (one decoy) or 21 (two decoys). Every bound clamps to
zero from below; the phase error clamps to 0.5 from above. All functions are
pure and thread-safe.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Sequence

from .model import (
    Basis,
    InsufficientStatisticsError,
    NoKeyError,
    Observations,
    ParameterError,
    ProtocolParams,
    SecurityParams,
    binary_entropy,
    hoeffding_delta,
    photon_number_prob,
)

__all__ = [
    "EpsilonBudget",
    "BoundInputs",
    "BoundOptions",
    "DEFAULT_BOUND_OPTIONS",
    "KeyEstimate",
    "epsilon_budget",
    "corrected_count",
    "vacuum_events_lower",
    "vacuum_events_upper",
    "single_photon_lower",
    "single_photon_errors_upper",
    "phase_error_fluctuation",
    "phase_error_upper",
    "error_correction_leakage",
    "estimate_key",
]

# The key-length constant b by intensity count: 19 for one decoy (two
# levels), 21 for two decoys (three levels).
_KEY_LENGTH_B = {2: 19, 3: 21}


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability split for the concentration inequalities.

    ``eps1`` guards detection-count corrections, ``eps2`` error-count
    corrections. ``b`` is the key-length constant of the underlying security
    analysis that counts how many times the error terms enter, so it is 19
    for one decoy and 21 for two (its partner a is 6 for both). eps = 1 is
    allowed and turns every Hoeffding deviation off (asymptotic evaluation).
    """

    eps1: float
    eps2: float
    b: int = 21

    def __post_init__(self) -> None:
        if not 0.0 < self.eps1 <= 1.0 or not 0.0 < self.eps2 <= 1.0:
            raise ParameterError("EpsilonBudget: eps1 and eps2 must be in (0, 1]")
        if self.b not in (19, 21):
            raise ParameterError("EpsilonBudget: b must be 19 (one decoy) or 21 (two decoys)")


@dataclass(frozen=True)
class BoundInputs:
    """Everything the estimation chain needs for one evaluation."""

    params: ProtocolParams
    sec: SecurityParams
    obs: Observations
    budget: EpsilonBudget

    def __post_init__(self) -> None:
        if self.budget.b != _KEY_LENGTH_B[len(self.params.intensities)]:
            raise ParameterError("BoundInputs: budget constant b does not match the variant")
        if len(self.obs.intensities) != len(self.params.intensities):
            raise ParameterError("BoundInputs: observation cells do not match the intensities")
        if self.obs.intensities != self.params.intensities:
            for a, b in zip(self.obs.intensities, self.params.intensities):
                if not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15):
                    raise ParameterError("BoundInputs: observation intensities differ from params")


S0_UPPER_MODES = ("per-intensity", "total")


@dataclass(frozen=True)
class BoundOptions:
    """Model switches left open by the analysis.

    ``s0_upper_mode`` selects the vacuum upper bound: "per-intensity" uses the
    errors of one intensity (index ``s0_upper_index``, default the weak decoy,
    which gives the better key rate), "total" uses all errors in the basis.
    ``gamma_base`` is the constant squared inside the fluctuation-term
    logarithm; 21 comes from the 2-decoy epsilon budget and is used for both
    variants by default, 19 matches the 1-decoy budget for sensitivity
    checks (sub-percent effect either way).
    """

    s0_upper_mode: str = "per-intensity"
    s0_upper_index: int = 1
    gamma_base: float = 21.0

    def __post_init__(self) -> None:
        if self.s0_upper_mode not in S0_UPPER_MODES:
            raise ParameterError(
                f"BoundOptions: s0_upper_mode must be one of {S0_UPPER_MODES}"
            )
        if self.s0_upper_index < 0:
            raise ParameterError("BoundOptions: s0_upper_index must be >= 0")
        if self.gamma_base <= 0:
            raise ParameterError("BoundOptions: gamma_base must be > 0")


DEFAULT_BOUND_OPTIONS = BoundOptions()


def epsilon_budget(params: ProtocolParams, sec: SecurityParams) -> EpsilonBudget:
    """Split eps_sec evenly over the b error terms of the key-length bound."""
    return EpsilonBudget(*_even_split(len(params.intensities), sec.eps_sec))


def _even_split(intensity_count: int, eps_sec: float) -> tuple[float, float, int]:
    """(eps1, eps2, b) of ``epsilon_budget`` without the record."""
    b = _KEY_LENGTH_B[intensity_count]
    eps = eps_sec / b
    return eps, eps, b


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
    checks. The chain's inputs pass them by construction (``BoundInputs``
    holds validated params and observations, and a total is the sum of its
    cells), so it calls this directly."""
    if sign > 0:
        return weight * (count_k + delta)
    return weight * max(0.0, count_k - delta)


class _Chain:
    """The estimation chain for one set of inputs, on plain values.

    ``taus`` holds tau0 and tau1, the probabilities of a vacuum and of a
    single-photon pulse; ``cells`` the per-intensity counts (detections_z,
    errors_z, detections_x, errors_x) and ``totals`` their sums (n_z, m_z,
    n_x, m_x); ``budget`` is (eps1, eps2, b). The arguments are taken as
    valid: ``BoundInputs`` checks them for the public functions, and the
    simulator's core builds them from a checked configuration.

    The per-intensity weights e**mu_k / p_k are computed on construction;
    each Hoeffding deviation (one per basis and count kind) and each
    corrected count on first use, so every value is computed once however
    many bounds take it. Each bound formula lives in one method here;
    the public per-bound functions and ``estimate_key`` are entry points onto
    these methods. A basis is passed as ``z``: True for Z, False for X.
    """

    def __init__(
        self,
        mus: Sequence[float],
        probs: Sequence[float],
        taus: tuple[float, float],
        cells: Sequence[Sequence[float]],
        totals: Sequence[float],
        budget: tuple[float, float, int],
        sec: SecurityParams,
        options: BoundOptions = DEFAULT_BOUND_OPTIONS,
    ) -> None:
        self.mus = mus
        self.cells = cells
        self.totals = totals
        self.budget = budget
        self.sec = sec
        self.options = options
        self.one_decoy = len(mus) == 2
        # Indices of the two lowest intensities: (mu1, mu2) for one decoy,
        # (mu2, mu3) for two decoys.
        self.pair = (0, 1) if self.one_decoy else (1, 2)
        self.tau0, self.tau1 = taus
        self.weights = [math.exp(k) / p for k, p in zip(mus, probs)]
        self._deltas: list[float | None] = [None] * 4
        self._counts: dict[tuple[int, int, int], float] = {}

    def delta(self, z: bool, errors: bool) -> float:
        """Hoeffding deviation of a basis' total detections (with eps1) or
        total errors (with eps2)."""
        slot = errors if z else 2 + errors
        value = self._deltas[slot]
        if value is None:
            value = self._deltas[slot] = hoeffding_delta(self.totals[slot], self.budget[errors])
        return value

    def count(self, z: bool, errors: bool, index: int, sign: int) -> float:
        """Corrected detection (or ``errors``) count of one cell."""
        slot = errors if z else 2 + errors
        key = (slot, index, sign)
        value = self._counts.get(key)
        if value is None:
            value = self._counts[key] = _correct(
                self.cells[slot][index], self.delta(z, errors), self.weights[index], sign
            )
        return value

    def s0_lower(self, z: bool) -> float:
        hi, lo = self.pair
        mu_hi = self.mus[hi]
        mu_lo = self.mus[lo]
        value = (
            self.tau0
            * (mu_hi * self.count(z, False, lo, -1) - mu_lo * self.count(z, False, hi, +1))
            / (mu_hi - mu_lo)
        )
        return max(0.0, value)

    def s0_upper(self, z: bool) -> float:
        if not self.one_decoy:
            raise ParameterError("vacuum_events_upper: defined for the one-decoy variant only")
        if self.options.s0_upper_mode == "total":
            value = 2.0 * (self.totals[1 if z else 3] + self.delta(z, False))
        else:
            index = self.options.s0_upper_index
            if index >= len(self.mus):
                raise ParameterError("vacuum_events_upper: s0_upper_index out of range")
            value = 2.0 * (self.tau0 * self.count(z, True, index, +1) + self.delta(z, False))
        return max(0.0, value)

    def s1_lower(self, z: bool, s0: float | None = None) -> float:
        """``s0`` is the vacuum bound of the same basis that the variant's
        formula takes (upper for one decoy, lower for two); it is computed
        here when the caller does not hold it yet."""
        if self.one_decoy:
            mu1, mu2 = self.mus
            s0_upper = self.s0_upper(z) if s0 is None else s0
            bracket = (
                self.count(z, False, 1, -1)
                - (mu2**2 / mu1**2) * self.count(z, False, 0, +1)
                - ((mu1**2 - mu2**2) / mu1**2) * s0_upper / self.tau0
            )
            value = self.tau1 * mu1 / (mu2 * (mu1 - mu2)) * bracket
        else:
            mu1, mu2, mu3 = self.mus
            denom = mu1 * (mu2 - mu3) - mu2**2 + mu3**2
            s0_lower = self.s0_lower(z) if s0 is None else s0
            bracket = (
                self.count(z, False, 1, -1)
                - self.count(z, False, 2, +1)
                + ((mu2**2 - mu3**2) / mu1**2)
                * (s0_lower / self.tau0 - self.count(z, False, 0, +1))
            )
            value = self.tau1 * mu1 / denom * bracket
        return max(0.0, value)

    def v1_upper(self) -> float:
        hi, lo = self.pair
        mu_hi = self.mus[hi]
        mu_lo = self.mus[lo]
        value = (
            self.tau1
            * (self.count(False, True, hi, +1) - self.count(False, True, lo, -1))
            / (mu_hi - mu_lo)
        )
        return max(0.0, value)

    def phase_error(self, s1_z: float, s1_x: float, v1_x: float) -> float:
        if s1_z <= 0.0 or s1_x <= 0.0:
            raise NoKeyError("phase_error_upper: single-photon lower bound vanished")
        ratio = v1_x / s1_x
        if ratio <= 0.0:
            # Error-free limit: the fluctuation term vanishes with the ratio.
            return 0.0
        if ratio >= 0.5:
            return 0.5
        phi = ratio + phase_error_fluctuation(
            self.sec.eps_sec, ratio, s1_z, s1_x, self.options.gamma_base
        )
        return min(0.5, phi)

    def estimate(self) -> _Estimate:
        """The whole chain in one top-down pass."""
        one_decoy = self.one_decoy
        s0_lower = self.s0_lower(True)
        s0_upper = self.s0_upper(True) if one_decoy else None
        s1_z = self.s1_lower(True, s0_upper if one_decoy else s0_lower)
        s1_x = self.s1_lower(False)
        v1_x = self.v1_upper()
        sec = self.sec
        n_z = self.totals[0]
        # An empty block discloses nothing; the chain ends in "no_key" below.
        lambda_ec = _leakage(n_z, self.totals[1], sec) if n_z > 0.0 else 0.0
        try:
            phi = self.phase_error(s1_z, s1_x, v1_x)
        except NoKeyError:
            phi, length, status = 0.5, 0.0, "no_key"
        else:
            # a = 6 in the key-length formula of the module docstring
            penalty = 6 * math.log2(self.budget[2] / sec.eps_sec) + math.log2(2.0 / sec.eps_cor)
            length = max(
                0.0, s0_lower + s1_z * (1.0 - binary_entropy(phi)) - lambda_ec - penalty
            )
            status = "ok"
        return _Estimate(s0_lower, s0_upper, s1_z, s1_x, v1_x, phi, lambda_ec, length, status)


def _chain(inputs: BoundInputs, options: BoundOptions = DEFAULT_BOUND_OPTIONS) -> _Chain:
    """The chain of checked inputs."""
    params, obs, budget = inputs.params, inputs.obs, inputs.budget
    return _Chain(
        params.intensities,
        params.intensity_probs,
        (photon_number_prob(params, 0), photon_number_prob(params, 1)),
        (obs.detections_z, obs.errors_z, obs.detections_x, obs.errors_x),
        (obs.n_z, obs.m_z, obs.n_x, obs.m_x),
        (budget.eps1, budget.eps2, budget.b),
        inputs.sec,
        options,
    )


def vacuum_events_lower(inputs: BoundInputs, basis: Basis = Basis.Z) -> float:
    """Decoy lower bound on detections caused by vacuum pulses:
    tau0 * (mu_hi * n_lo^- - mu_lo * n_hi^+) / (mu_hi - mu_lo) over the two
    lowest intensities, clamped at zero."""
    return _chain(inputs).s0_lower(basis is Basis.Z)


def vacuum_events_upper(
    inputs: BoundInputs,
    basis: Basis = Basis.Z,
    options: BoundOptions = DEFAULT_BOUND_OPTIONS,
) -> float:
    """Upper bound on vacuum detections from observed errors (one decoy only).

    Vacuum pulses click through dark counts alone, so half of them show up as
    errors; the error counts therefore cap the vacuum events from above:
    2 * (tau0 * (e**k / p_k) * (m_k + delta(m, eps2)) + delta(n, eps1)) in the
    per-intensity mode, 2 * (m + delta(n, eps1)) in the total mode.
    """
    return _chain(inputs, options).s0_upper(basis is Basis.Z)


def single_photon_lower(
    inputs: BoundInputs,
    basis: Basis = Basis.Z,
    options: BoundOptions = DEFAULT_BOUND_OPTIONS,
) -> float:
    """Decoy lower bound on detections caused by single-photon pulses.

    One decoy:
        tau1*mu1/(mu2*(mu1-mu2)) * (n_mu2^- - (mu2^2/mu1^2) n_mu1^+
                                     - ((mu1^2-mu2^2)/mu1^2) * s0_upper/tau0)
    Two decoys:
        tau1*mu1/(mu1*(mu2-mu3)-mu2^2+mu3^2) * (n_mu2^- - n_mu3^+
            + ((mu2^2-mu3^2)/mu1^2) * (s0/tau0 - n_mu1^+))
    where s0 enters with a positive coefficient, so its *lower* bound is the
    conservative substitution. Clamped at zero.
    """
    return _chain(inputs, options).s1_lower(basis is Basis.Z)


def single_photon_errors_upper(inputs: BoundInputs) -> float:
    """Upper bound on X-basis errors from single-photon pulses:
    tau1 * (m_hi^+ - m_lo^-) / (mu_hi - mu_lo) over the two lowest
    intensities, clamped at zero. With few X-basis errors the corrections can
    push this past m_X itself; the excess is kept. Capping at m_X would also
    be a valid bound, but it rewards starving the X basis (tiny m_X makes the
    cap bite), which skews parameter optimization toward degenerate basis
    choices."""
    return _chain(inputs).v1_upper()


def phase_error_fluctuation(
    eps_sec: float, ratio: float, count1: float, count2: float, base: float = 21.0
) -> float:
    """Statistical penalty for inferring one basis' error rate from the other.

    Evaluates sqrt((c+d)(1-b)b / (c d ln 2) * log2((c+d)/(c d (1-b)b) *
    base^2/eps^2)) for the observed ratio b and the two single-photon counts
    c, d. Symmetric in the counts. Returns 0 when the logarithm argument
    drops to 1 or below (no fluctuation left to pay for).
    """
    if not 0.0 < eps_sec < 1.0:
        raise ParameterError("phase_error_fluctuation: eps_sec must be in (0, 1)")
    if not 0.0 < ratio < 1.0 or count1 <= 0.0 or count2 <= 0.0:
        raise InsufficientStatisticsError(
            "phase_error_fluctuation: insufficient statistics, abort key extraction"
        )
    spread = (count1 + count2) / (count1 * count2 * (1.0 - ratio) * ratio)
    log_arg = spread * base**2 / eps_sec**2
    if log_arg <= 1.0:
        return 0.0
    variance = (count1 + count2) * (1.0 - ratio) * ratio / (count1 * count2 * math.log(2.0))
    return math.sqrt(variance * math.log2(log_arg))


def phase_error_upper(
    inputs: BoundInputs, options: BoundOptions = DEFAULT_BOUND_OPTIONS
) -> float:
    """Upper bound on the Z-basis phase error rate, clamped into [0, 0.5].

    Raises NoKeyError when either single-photon lower bound vanishes; with no
    single-photon credit there is nothing to extract a key from.
    """
    chain = _chain(inputs, options)
    return chain.phase_error(
        chain.s1_lower(True), chain.s1_lower(False), chain.v1_upper()
    )


def error_correction_leakage(obs: Observations, sec: SecurityParams) -> float:
    """Bits disclosed during error correction: ec_efficiency * n_Z * h(QBER)."""
    if obs.n_z <= 0.0:
        raise ParameterError("error_correction_leakage: needs n_z > 0")
    return _leakage(obs.n_z, obs.m_z, sec)


def _leakage(n_z: float, m_z: float, sec: SecurityParams) -> float:
    """``error_correction_leakage`` of the totals n_z > 0 and m_z."""
    return sec.ec_efficiency * n_z * binary_entropy(m_z / n_z)


@dataclass(frozen=True)
class KeyEstimate:
    """All intermediate bounds behind one secret key length evaluation."""

    s0_lower: float
    s0_upper: float | None
    s1_lower_z: float
    s1_lower_x: float
    v1_upper_x: float
    phase_error_upper: float
    lambda_ec: float
    key_length: float
    status: str


# The ``KeyEstimate`` fields as a plain named tuple: what ``_Chain.estimate``
# returns, so the optimizer's objective reads the key length without building
# the record.
_Estimate = namedtuple("_Estimate", [f.name for f in fields(KeyEstimate)])


def estimate_key(
    inputs: BoundInputs, options: BoundOptions = DEFAULT_BOUND_OPTIONS
) -> KeyEstimate:
    """Run the whole estimation chain once and keep every intermediate value.

    One top-down pass: tau0, tau1, every Hoeffding deviation and every
    corrected count are computed once, the vacuum and single-photon bounds
    once per basis that needs them.
    """
    return KeyEstimate(*_chain(inputs, options).estimate())
