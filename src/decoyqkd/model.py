"""Domain types and elementary math shared by the key-rate analysis.

Counts are kept as nonnegative floats rather than integers: the channel
simulator works in expectation values and every bound formula stays valid
for real inputs.

All functions here are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
import operator  # operator.gt maps about 0.25 us faster than float.__gt__
import sys
from collections import namedtuple
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
# The values of the model switches the analysis leaves open:
# ``ChannelParams.deadtime_mode`` and ``SecurityParams.s0_upper_mode``.
DEADTIME_MODES = ("zonly", "allclicks")
S0_UPPER_MODES = ("per-intensity", "total")

_PROB_SUM_TOL = 1e-12
_COUNT_REL_TOL = 1e-9
_ERRORS_SLACK = 1.0 + _COUNT_REL_TOL


class ParameterError(ValueError):
    """A value lies outside its documented domain."""


def _real(name: str, value) -> float:
    """``value``, an int or a float but no bool, as a float; anything else is
    rejected naming ``name``: the one rule for every numeric field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{name}: must be a number, got {value!r}")
    return float(value)


def _numbers(names, values: tuple) -> None:
    """``_real`` on each of ``values``, named by ``names``, once a chained
    ``type`` test finds a field that is no float; a record keeps them as given."""
    for name, value in zip(names, values):
        _real(name, value)


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
        if not isinstance(self.variant, Variant):
            raise ParameterError(f"variant: must be a Variant, got {self.variant!r}")
        mus, probs = tuple(self.intensities), tuple(self.intensity_probs)
        numbers = *mus, *probs, self.basis_prob_z
        if set(map(type, numbers)) != {float}:  # the levels are kept as float tuples
            _numbers(["intensities"] * len(mus) + ["intensity_probs"] * len(probs)
                     + ["basis_prob_z"], numbers)
            mus, probs = tuple(map(float, mus)), tuple(map(float, probs))
        object.__setattr__(self, "intensities", mus)
        object.__setattr__(self, "intensity_probs", probs)
        fault = _protocol_fault(self.variant.intensity_count, mus, probs, self.basis_prob_z)
        if fault is not None:
            raise ParameterError(fault)


def _protocol_fault(
    count: int, mus: tuple[float, ...], probs: tuple[float, ...], basis_prob_z: float
) -> str | None:
    """The message of the first ``ProtocolParams`` rule that the float tuples
    ``mus`` and ``probs`` and ``basis_prob_z`` break for ``count`` levels (2
    or 3), or None when they satisfy every rule. ``ProtocolParams`` raises
    it; the optimizer's objective scores such a point as infeasible."""
    if len(mus) != count:
        name = "one" if count == 2 else "two"
        return f"intensities: {name}-decoy takes exactly {count} levels, got {len(mus)}"
    if len(probs) != count:
        return f"intensity_probs: expected {count} entries, got {len(probs)}"
    for mu in mus:  # NaN and +-inf fail too
        if not 0.0 <= mu <= MAX_INTENSITY:
            return f"intensities: each level must lie in [0, {MAX_INTENSITY!r}]"
    mu1, mu2 = mus[0], mus[1]
    if not (mu1 > mu2 and (count == 2 or mu2 > mus[2])):
        return "intensities: levels must be strictly decreasing"
    if count == 3:
        mu3 = mus[2]
        if not mu1 * (mu2 - mu3) - mu2**2 + mu3**2 > 0.0:
            return "intensities: need mu1*(mu2-mu3) - mu2^2 + mu3^2 > 0 (mu1 > mu2 + mu3)"
    elif not mu2 * (mu1 - mu2) > 0.0:
        return "intensities: need mu2*(mu1-mu2) > 0 (a weak decoy mu2 > 0)"
    for p in probs:
        if not 0.0 < p <= 1.0:
            return "intensity_probs: each probability must be in (0, 1]"
    total = probs[0] + probs[1] if count == 2 else probs[0] + probs[1] + probs[2]
    if not abs(total - 1.0) <= _PROB_SUM_TOL:
        return "intensity_probs: probabilities must sum to 1"
    if not 0.0 < basis_prob_z < 1.0:
        return "basis_prob_z: must lie strictly in (0, 1)"
    return None


@dataclass(frozen=True)
class ChannelParams:
    """Fixed link and detector properties.

    ``attenuation_db`` is the global loss with detector efficiency folded in.
    ``dark_count_prob`` is per gate, ``dead_time_s`` blinds the detector after
    each click, ``rep_rate_hz`` is the source pulse rate. ``deadtime_mode``
    selects the click probability fed to the dead-time factor: "zonly" the
    sifted Z-basis share, "allclicks" every click regardless of basis.
    """

    attenuation_db: float
    dark_count_prob: float
    misalignment_prob: float
    dead_time_s: float
    rep_rate_hz: float
    deadtime_mode: str = "zonly"

    def __post_init__(self) -> None:
        if not (type(self.attenuation_db) is type(self.dark_count_prob)
                is type(self.misalignment_prob) is type(self.dead_time_s)
                is type(self.rep_rate_hz) is float):
            _numbers(("attenuation_db", "dark_count_prob", "misalignment_prob", "dead_time_s",
                      "rep_rate_hz"), (self.attenuation_db, self.dark_count_prob,
                                       self.misalignment_prob, self.dead_time_s, self.rep_rate_hz))
        if not 0.0 <= self.attenuation_db < math.inf:
            raise ParameterError(
                f"attenuation_db: must be finite and >= 0, got {self.attenuation_db!r}")
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
        if self.deadtime_mode not in DEADTIME_MODES:
            raise ParameterError(f"deadtime_mode: must be one of {DEADTIME_MODES}")

    @property
    def transmittance(self) -> float:
        """Linear transmittance 10**(-attenuation_db/10)."""
        return 10.0 ** (-self.attenuation_db / 10.0)


@dataclass(frozen=True)
class SecurityParams:
    """Secrecy/correctness targets, block size, and the finite-key model.

    ``block_size`` is the number of sifted Z-basis detections collected before
    privacy amplification. ``ec_efficiency`` multiplies the Shannon limit in
    the error-correction leakage model. ``s0_upper_mode`` selects the vacuum
    upper bound: "per-intensity" uses the errors of the weak decoy, which
    gives the better key rate, "total" uses all errors in the basis.
    ``gamma_base`` is the constant squared inside the fluctuation-term
    logarithm; 21 comes from the 2-decoy epsilon budget and is used for both
    variants by default, 19 matches the 1-decoy budget for sensitivity
    checks (sub-percent effect either way).
    """

    eps_sec: float
    eps_cor: float
    block_size: float
    ec_efficiency: float = 1.05
    s0_upper_mode: str = "per-intensity"
    gamma_base: float = 21.0

    def __post_init__(self) -> None:
        if not (type(self.eps_sec) is type(self.eps_cor) is type(self.block_size)
                is type(self.ec_efficiency) is type(self.gamma_base) is float):
            _numbers(("eps_sec", "eps_cor", "block_size", "ec_efficiency", "gamma_base"), (
                self.eps_sec, self.eps_cor, self.block_size, self.ec_efficiency, self.gamma_base))
        if not MIN_EPS <= self.eps_sec < 1.0:
            raise ParameterError(f"eps_sec: must lie in [MIN_EPS = {MIN_EPS!r}, 1)")
        if not MIN_EPS <= self.eps_cor < 1.0:
            raise ParameterError(f"eps_cor: must lie in [MIN_EPS = {MIN_EPS!r}, 1)")
        if not 1.0 <= self.block_size < math.inf:
            raise ParameterError("block_size: must be finite and >= 1")
        if not 1.0 <= self.ec_efficiency < math.inf:
            raise ParameterError("ec_efficiency: must be finite and >= 1")
        if self.s0_upper_mode not in S0_UPPER_MODES:
            raise ParameterError(f"s0_upper_mode: must be one of {S0_UPPER_MODES}")
        if not 0.0 < self.gamma_base < math.inf:
            raise ParameterError("gamma_base: must be finite and > 0")


@dataclass(frozen=True, init=False)
class Observations:
    """Per-basis, per-intensity detection and error counts, plus totals.

    Cell k of each tuple belongs to ``intensities[k]``. The totals
    ``n_z``/``m_z``/``n_x``/``m_x`` are the sums of their cells, derived on
    construction, and ``pulses_sent`` covers at least every sifted
    detection. Counts are expected values, hence floats, and finite, as are
    their totals and ``pulses_sent``; an error cell at most a relative 1e-9
    above its detections is rounding, capped at them. An int level or cell
    is kept as its float; text, None, a bool or a complex is rejected by
    ``_real``, naming its field.
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

    def __init__(
        self, intensities, detections_z, errors_z, detections_x, errors_x, pulses_sent
    ) -> None:
        intensities = tuple(intensities)
        if set(map(type, intensities)) != {float}:
            intensities = tuple(_real("intensities", mu) for mu in intensities)
        n = len(intensities)
        det_z, n_z = _cells("detections_z", detections_z, n)
        err_z, m_z = _cells("errors_z", errors_z, n)
        det_x, n_x = _cells("detections_x", detections_x, n)
        err_x, m_x = _cells("errors_x", errors_x, n)
        if any(map(operator.gt, err_z, det_z)):
            err_z, m_z = _capped("errors_z", err_z, det_z)
        if any(map(operator.gt, err_x, det_x)):
            err_x, m_x = _capped("errors_x", err_x, det_x)
        if not pulses_sent >= (n_z + n_x) * (1.0 - _COUNT_REL_TOL):
            raise ParameterError("pulses_sent: fewer pulses than sifted detections")
        if not pulses_sent < math.inf:
            raise ParameterError("pulses_sent: must be finite")
        # frozen: every field goes into the instance dict in one update
        self.__dict__.update(
            intensities=intensities, detections_z=det_z, errors_z=err_z, detections_x=det_x,
            errors_x=err_x, n_z=n_z, m_z=m_z, n_x=n_x, m_x=m_x, pulses_sent=pulses_sent,
        )

    @property
    def qber_z(self) -> float:
        return self.m_z / self.n_z if self.n_z > 0.0 else 0.0


def _cells(name: str, cells, n: int) -> tuple[tuple[float, ...], float]:
    """The ``Observations`` field ``name`` as a float tuple and its total, once
    it holds ``n`` numbers (as ``_real`` takes them) in [0, inf) with a finite
    total: one pass over float cells checks them and forms the total."""
    cells = tuple(cells)  # a tuple is kept as it is
    if len(cells) != n:
        raise ParameterError(f"{name}: expected {n} cells")
    total = 0.0
    for cell in cells:
        if type(cell) is not float:
            return _cells(name, tuple(_real(name, value) for value in cells), n)
        if not cell >= 0.0:  # NaN fails too
            raise ParameterError(f"{name}: counts must be >= 0")
        total += cell
    if not total < math.inf:  # an infinite cell makes the total infinite
        raise ParameterError(f"{name}: counts and their total must be finite")
    return cells, total


def _capped(name: str, errors, detections) -> tuple[tuple[float, ...], float]:
    """The error cells ``errors`` capped at their detections, and their
    total: rounding, unless a cell exceeds them by more than 1e-9."""
    if any(err > det * _ERRORS_SLACK for det, err in zip(detections, errors)):
        raise ParameterError(f"{name}: cell exceeds its detections")
    capped = tuple(map(min, errors, detections))  # no error rate above 1
    return capped, _fold(capped)


def _fold(values) -> float:
    """The floats ``values`` added left to right from 0.0: the package's sum rule."""
    total = 0.0
    for value in values:
        total += value
    return total


class _Checked:
    """Base of a checked named tuple: ``_make``, and so ``_replace``, calls the
    checking ``__new__``, as pickling and ``copy`` do."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class RatePoint(_Checked, namedtuple("RatePoint", (
    "s0_lower s0_upper s1_lower_z s1_lower_x v1_upper_x phase_error_upper lambda_ec key_length"
    " skr_hz qber_z acquisition_s status"
))):
    """Every bound value and the final rate figures for one configuration, a
    checked named tuple: ``__new__`` runs the checks and builds the tuple.

    ``status`` is "ok" when the estimation chain completed (the key length
    may still clamp to zero), "no_key" when the bounds collapsed (zero
    single-photon credit) and "no_detections" when the channel produced no
    statistics at all, or too few to fill the block in a finite number of
    pulses.
    """

    __slots__ = ()

    def __new__(
        cls, s0_lower: float, s0_upper: float | None, s1_lower_z: float, s1_lower_x: float,
        v1_upper_x: float, phase_error_upper: float, lambda_ec: float, key_length: float,
        skr_hz: float, qber_z: float, acquisition_s: float, status: str = "ok",
    ) -> RatePoint:
        if not key_length >= 0.0:
            raise ParameterError("key_length: must be >= 0")
        if not skr_hz >= 0.0:
            raise ParameterError("skr_hz: must be >= 0")
        if key_length > 0.0 and not 0.0 <= phase_error_upper <= 0.5:
            raise ParameterError("phase_error_upper: must be in [0, 0.5] when a key is produced")
        if not acquisition_s > 0.0:
            raise ParameterError("acquisition_s: must be > 0")
        return tuple.__new__(cls, (
            s0_lower, s0_upper, s1_lower_z, s1_lower_x, v1_upper_x, phase_error_upper,
            lambda_ec, key_length, skr_hz, qber_z, acquisition_s, status,
        ))


def hoeffding_delta(n: float, eps: float) -> float:
    """Hoeffding deviation sqrt(n * ln(1/eps) / 2).

    Bounds the gap between an observed sum of ``n`` independent bounded
    variables and its expectation, except with probability ``eps``. The
    logarithm is natural, matching the standard form of the inequality.
    """
    if not 0.0 < eps <= 1.0:
        raise ParameterError("hoeffding_delta: eps must be in (0, 1]")
    return _deviation(n, math.log(1.0 / eps))


def _deviation(n: float, log_inv_eps: float) -> float:
    """``hoeffding_delta`` with ln(1/eps) given; ``n`` is still checked."""
    if not n >= 0:
        raise ParameterError("hoeffding_delta: n must be >= 0")
    return math.sqrt(0.5 * n * log_inv_eps)


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError("binary_entropy: argument must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def poisson_pmf(mu: float, n: int) -> float:
    """Probability that a coherent pulse of mean photon number ``mu`` carries
    exactly ``n`` photons: exp(-mu) * mu**n / n!. ``mu`` is held to the
    levels' domain [0, MAX_INTENSITY]; far above it the exponent cancels."""
    if not mu >= 0:
        raise ParameterError("poisson_pmf: mu must be >= 0")
    if not mu <= MAX_INTENSITY:
        raise ParameterError(f"poisson_pmf: mu must be <= {MAX_INTENSITY!r}, got {mu!r}")
    _check_count("poisson_pmf", n)
    return _poisson(mu, n)


def _check_count(where: str, n) -> None:
    """Reject an ``n`` that is no photon number below 1e300 (lgamma's range)."""
    if isinstance(n, bool) or not isinstance(n, (int, float)) or not abs(n) < 1e300 or n != int(n):
        raise ParameterError(f"{where}: n must be a whole number below 1e300, got {n!r}")
    if n < 0:
        raise ParameterError(f"{where}: n must be >= 0")


def _poisson(mu: float, n: int) -> float:
    """``poisson_pmf`` unchecked, for levels that passed ``_protocol_fault``.
    n = 0 and 1 take closed forms, equal to the general one bit for bit:
    lgamma(1) and lgamma(2) are exactly 0.0, and 0*log(mu) is +-0."""
    if mu == 0.0:  # before log(mu): a 2-decoy weakest level may be 0
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return math.exp(-mu)
    if n == 1:
        return math.exp(-mu + math.log(mu))
    # lgamma keeps large n finite where mu**n / n! would overflow
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def photon_number_prob(params: ProtocolParams, n: int) -> float:
    """Total probability that a transmitted pulse carries ``n`` photons,
    averaged over the intensity choice."""
    _check_count("photon_number_prob", n)
    return _fold(p * _poisson(mu, n) for mu, p in zip(params.intensities, params.intensity_probs))
