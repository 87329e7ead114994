"""Domain types and elementary math shared by the key-rate analysis.

Counts are kept as nonnegative floats rather than integers: the channel
simulator works in expectation values and every bound formula stays valid
for real inputs.

All functions here are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "MAX_INTENSITY",
    "MIN_EPS",
    "ParameterError",
    "NoDetectionsError",
    "NoKeyError",
    "InsufficientStatisticsError",
    "Variant",
    "Basis",
    "ProtocolParams",
    "ChannelParams",
    "SecurityParams",
    "Observations",
    "RatePoint",
    "hoeffding_delta",
    "binary_entropy",
    "poisson_pmf",
    "photon_number_prob",
]

# Largest mean photon number whose e**mu is a finite float; the corrected
# counts of the estimation chain scale by e**mu.
MAX_INTENSITY = math.log(sys.float_info.max)
# Smallest eps_sec or eps_cor whose square is a normal float; the phase-error
# fluctuation divides by eps_sec**2.
MIN_EPS = math.sqrt(sys.float_info.min)

_PROB_SUM_TOL = 1e-12
_COUNT_REL_TOL = 1e-9
_ERRORS_SLACK = 1.0 + _COUNT_REL_TOL
# 0.0 <= v, false for NaN
_AT_LEAST_ZERO = (0.0).__le__


class ParameterError(ValueError):
    """A value lies outside its documented domain."""


class NoDetectionsError(RuntimeError):
    """The configuration produces no detections at all."""


class NoKeyError(RuntimeError):
    """The finite-key bounds leave no extractable key."""


class InsufficientStatisticsError(RuntimeError):
    """Too few events to evaluate a statistical fluctuation term."""


class Variant(Enum):
    """Decoy flavour: one signal level plus one or two decoy levels."""

    ONE_DECOY = "one"
    TWO_DECOY = "two"

    @property
    def intensity_count(self) -> int:
        return 2 if self is Variant.ONE_DECOY else 3


class Basis(Enum):
    """Measurement basis label. Z carries the key, X estimates phase errors."""

    Z = "Z"
    X = "X"


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable source settings: intensities, their probabilities, basis bias.

    ``intensities`` are mean photon numbers in [0, MAX_INTENSITY], strictly
    decreasing (signal first). ``basis_prob_z`` is used for both parties, so a round is
    sifted into Z with probability basis_prob_z**2. The single-photon bound
    divides by a function of the intensities that must stay positive: the
    one-decoy variant needs mu2*(mu1-mu2) > 0 (a weak decoy mu2 > 0), the
    two-decoy variant mu1*(mu2-mu3) - mu2**2 + mu3**2 > 0 (equivalently
    mu1 > mu2 + mu3).
    """

    variant: Variant
    intensities: tuple[float, ...]
    intensity_probs: tuple[float, ...]
    basis_prob_z: float

    def __post_init__(self) -> None:
        mus = tuple(map(float, self.intensities))
        probs = tuple(map(float, self.intensity_probs))
        object.__setattr__(self, "intensities", mus)
        object.__setattr__(self, "intensity_probs", probs)
        fault = _protocol_fault(self.variant, mus, probs, self.basis_prob_z)
        if fault is not None:
            raise ParameterError(fault)


def _protocol_fault(
    variant: Variant, mus: tuple[float, ...], probs: tuple[float, ...], basis_prob_z: float
) -> str | None:
    """The message of the first ``ProtocolParams`` rule that the float tuples
    ``mus`` and ``probs`` and ``basis_prob_z`` break, or None when they
    satisfy every rule. ``ProtocolParams`` raises it; the optimizer's
    objective scores such a point as infeasible without building a record."""
    n = variant.intensity_count
    if len(mus) != n:
        return f"intensities: {variant.value}-decoy takes exactly {n} levels, got {len(mus)}"
    if len(probs) != n:
        return f"intensity_probs: expected {n} entries, got {len(probs)}"
    if not (all(map(math.isfinite, mus)) and 0.0 <= min(mus) and max(mus) <= MAX_INTENSITY):
        return f"intensities: each level must lie in [0, {MAX_INTENSITY!r}]"
    if not all(map(float.__gt__, mus, mus[1:])):
        return "intensities: levels must be strictly decreasing"
    if n == 3:
        mu1, mu2, mu3 = mus
        if not mu1 * (mu2 - mu3) - mu2**2 + mu3**2 > 0.0:
            return "intensities: need mu1*(mu2-mu3) - mu2^2 + mu3^2 > 0 (mu1 > mu2 + mu3)"
    elif not mus[1] * (mus[0] - mus[1]) > 0.0:
        return "intensities: need mu2*(mu1-mu2) > 0 (a weak decoy mu2 > 0)"
    if not all(0.0 < p <= 1.0 for p in probs):
        return "intensity_probs: each probability must be in (0, 1]"
    if not abs(sum(probs) - 1.0) <= _PROB_SUM_TOL:
        return "intensity_probs: probabilities must sum to 1"
    if not 0.0 < basis_prob_z < 1.0:
        return "basis_prob_z: must lie strictly in (0, 1)"
    return None


@dataclass(frozen=True)
class ChannelParams:
    """Fixed link and detector properties.

    ``attenuation_db`` is the global loss with detector efficiency folded in.
    ``dark_count_prob`` is per gate, ``dead_time_s`` blinds the detector after
    each click, ``rep_rate_hz`` is the source pulse rate.
    """

    attenuation_db: float
    dark_count_prob: float
    misalignment_prob: float
    dead_time_s: float
    rep_rate_hz: float

    def __post_init__(self) -> None:
        if not self.attenuation_db >= 0.0:
            raise ParameterError("attenuation_db: must be >= 0")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ParameterError("dark_count_prob: must be in [0, 1)")
        if not 0.0 <= self.misalignment_prob < 0.5:
            raise ParameterError("misalignment_prob: must be in [0, 0.5)")
        if not 0.0 <= self.dead_time_s < math.inf:
            raise ParameterError("dead_time_s: must be finite and >= 0")
        if not 0.0 < self.rep_rate_hz < math.inf:
            raise ParameterError("rep_rate_hz: must be finite and > 0")
        if not self.rep_rate_hz * self.dead_time_s < math.inf:
            raise ParameterError("dead_time_s: rep_rate_hz * dead_time_s must be finite")

    @property
    def transmittance(self) -> float:
        """Linear transmittance 10**(-attenuation_db/10)."""
        return 10.0 ** (-self.attenuation_db / 10.0)


@dataclass(frozen=True)
class SecurityParams:
    """Secrecy/correctness targets, block size, and error-correction overhead.

    ``block_size`` is the number of sifted Z-basis detections collected before
    privacy amplification. ``ec_efficiency`` multiplies the Shannon limit in
    the error-correction leakage model.
    """

    eps_sec: float
    eps_cor: float
    block_size: float
    ec_efficiency: float = 1.05

    def __post_init__(self) -> None:
        if not MIN_EPS <= self.eps_sec < 1.0:
            raise ParameterError(f"eps_sec: must lie in [MIN_EPS = {MIN_EPS!r}, 1)")
        if not MIN_EPS <= self.eps_cor < 1.0:
            raise ParameterError(f"eps_cor: must lie in [MIN_EPS = {MIN_EPS!r}, 1)")
        if not 1.0 <= self.block_size < math.inf:
            raise ParameterError("block_size: must be finite and >= 1")
        if not 1.0 <= self.ec_efficiency < math.inf:
            raise ParameterError("ec_efficiency: must be finite and >= 1")


@dataclass(frozen=True)
class Observations:
    """Per-basis, per-intensity detection and error counts, plus totals.

    Cell k of each tuple belongs to ``intensities[k]``. The totals
    ``n_z``/``m_z``/``n_x``/``m_x`` are the sums of their cells, derived on
    construction, and ``pulses_sent`` covers at least every sifted
    detection. Counts are expected values, hence floats.
    """

    intensities: tuple[float, ...]
    detections_z: tuple[float, ...]
    errors_z: tuple[float, ...]
    detections_x: tuple[float, ...]
    errors_x: tuple[float, ...]
    n_z: float = field(init=False)
    m_z: float = field(init=False)
    n_x: float = field(init=False)
    m_x: float = field(init=False)
    pulses_sent: float

    def __post_init__(self) -> None:
        intensities = tuple(map(float, self.intensities))
        object.__setattr__(self, "intensities", intensities)
        n = len(intensities)
        for name, total in (
            ("detections_z", "n_z"),
            ("errors_z", "m_z"),
            ("detections_x", "n_x"),
            ("errors_x", "m_x"),
        ):
            values = tuple(map(float, getattr(self, name)))
            if len(values) != n:
                raise ParameterError(f"{name}: expected {n} cells")
            if not all(map(_AT_LEAST_ZERO, values)):
                raise ParameterError(f"{name}: counts must be >= 0")
            object.__setattr__(self, name, values)
            object.__setattr__(self, total, sum(values))
        for det, err in zip(self.detections_z, self.errors_z):
            if not err <= det * _ERRORS_SLACK:
                raise ParameterError("errors_z: cell exceeds its detections")
        for det, err in zip(self.detections_x, self.errors_x):
            if not err <= det * _ERRORS_SLACK:
                raise ParameterError("errors_x: cell exceeds its detections")
        if not self.pulses_sent >= (self.n_z + self.n_x) * (1.0 - _COUNT_REL_TOL):
            raise ParameterError("pulses_sent: fewer pulses than sifted detections")

    @property
    def qber_z(self) -> float:
        return self.m_z / self.n_z


@dataclass(frozen=True)
class RatePoint:
    """Every bound value and the final rate figures for one configuration.

    ``status`` is "ok" when the estimation chain completed (the key length
    may still clamp to zero), "no_key" when the bounds collapsed (zero
    single-photon credit) and "no_detections" when the channel produced no
    statistics at all, or too few to fill the block in a finite number of
    pulses.
    """

    s0_lower: float
    s0_upper: float | None
    s1_lower_z: float
    s1_lower_x: float
    v1_upper_x: float
    phase_error_upper: float
    lambda_ec: float
    key_length: float
    skr_hz: float
    qber_z: float
    acquisition_s: float
    status: str = "ok"

    def __post_init__(self) -> None:
        if not self.key_length >= 0.0:
            raise ParameterError("key_length: must be >= 0")
        if not self.skr_hz >= 0.0:
            raise ParameterError("skr_hz: must be >= 0")
        if self.key_length > 0.0 and not 0.0 <= self.phase_error_upper <= 0.5:
            raise ParameterError("phase_error_upper: must be in [0, 0.5] when a key is produced")
        if not self.acquisition_s > 0.0:
            raise ParameterError("acquisition_s: must be > 0")


def hoeffding_delta(n: float, eps: float) -> float:
    """Hoeffding deviation sqrt(n * ln(1/eps) / 2).

    Bounds the gap between an observed sum of ``n`` independent bounded
    variables and its expectation, except with probability ``eps``. The
    logarithm is natural, matching the standard form of the inequality.
    """
    if n < 0:
        raise ParameterError("hoeffding_delta: n must be >= 0")
    if not 0.0 < eps <= 1.0:
        raise ParameterError("hoeffding_delta: eps must be in (0, 1]")
    return math.sqrt(0.5 * n * math.log(1.0 / eps))


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError("binary_entropy: argument must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def poisson_pmf(mu: float, n: int) -> float:
    """Probability that a coherent pulse of mean photon number ``mu`` carries
    exactly ``n`` photons: exp(-mu) * mu**n / n!."""
    if mu < 0:
        raise ParameterError("poisson_pmf: mu must be >= 0")
    if n < 0:
        raise ParameterError("poisson_pmf: n must be >= 0")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    # lgamma keeps large n finite where mu**n / n! would overflow
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def photon_number_prob(params: ProtocolParams, n: int) -> float:
    """Total probability that a transmitted pulse carries ``n`` photons,
    averaged over the intensity choice."""
    return _photon_number_prob(params.intensities, params.intensity_probs, n)


def _photon_number_prob(
    intensities: tuple[float, ...], probs: tuple[float, ...], n: int
) -> float:
    """``photon_number_prob`` on the plain intensity and probability tuples."""
    return sum([p * poisson_pmf(mu, n) for mu, p in zip(intensities, probs)])
