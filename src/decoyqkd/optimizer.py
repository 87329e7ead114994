"""SKR maximization over the tunable protocol variables.

The objective (secret key rate at fixed channel, security and block size) is
smooth, cheap and 4- or 5-dimensional, so a multistart coordinate refinement
is enough: from each start, sweep the variables in turn, and repeat passes
until the rate stops improving. The first pass of a start coarse-scans each
axis over its whole feasible interval and golden-section polishes around the
best grid point; later passes skip the scan and polish within one grid step
of the incumbent, which the first pass has already brought near the axis
optimum. Starts are a fixed low-discrepancy set spanning the box, optionally
extended by seeded random starts and a warm start, so results are
bit-for-bit reproducible for a given seed list.

Intensity probabilities are optimized as logits mapped onto the open
simplex, which keeps every candidate inside the ProtocolParams invariants.

An evaluation maps the coordinate vector to plain floats and runs the
simulator's unchecked core on them; a vector that breaks a ProtocolParams
rule scores -1 instead. Inputs are checked where they enter: the channel,
security and option records on construction, the dead-time mode on entry to
``optimize_point``. Only the winner is built as checked records, a
ProtocolParams and the RatePoint of the public ``rate_point``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .bounds import BoundOptions, DEFAULT_BOUND_OPTIONS
from .model import (
    ChannelParams,
    ParameterError,
    ProtocolParams,
    RatePoint,
    SecurityParams,
    Variant,
    _protocol_fault,
)
from .simulator import (
    DEFAULT_DEADTIME_MODE,
    SimulationPoint,
    _check_deadtime_mode,
    _key_rate,
    rate_point,
)

__all__ = [
    "OptimizationSpec",
    "SweepRow",
    "SweepResult",
    "ComparisonRow",
    "optimize_point",
    "sweep",
    "compare_protocols",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Headroom factor keeping intensity orderings strict during line searches.
_ORDER_MARGIN = 0.98
_SEED_STRIDES = (2.0, 3.0, 5.0, 7.0, 11.0)
_COARSE_POINTS = 12
# Box edge of each probability logit, and the most coordinate passes a start
# makes before its rate settles within rel_tol.
_LOGIT_LIMIT = 6.0
_MAX_PASSES = 10


def _whole(name: str, value) -> int:
    """``value`` as an int; an integral float such as 3.0 is converted, any
    other value is rejected naming the ``OptimizationSpec`` field."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"OptimizationSpec: {name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class OptimizationSpec:
    """Search box and effort settings for one protocol variant. The 2-decoy
    weakest level is not searched: it is fixed at ``mu3_min``."""

    variant: Variant
    mu1_range: tuple[float, float] = (0.05, 1.2)
    mu2_min: float = 0.005
    mu3_min: float = 1e-6
    pz_range: tuple[float, float] = (0.5, 0.99)
    starts: int = 8
    seed_list: tuple[int, ...] = ()
    rel_tol: float = 1e-4
    max_evals: int = 200_000

    def __post_init__(self) -> None:
        # Floats throughout, so every coordinate vector holds floats: the
        # objective hands its intensities to the core unconverted.
        object.__setattr__(self, "mu1_range", tuple(map(float, self.mu1_range)))
        object.__setattr__(self, "pz_range", tuple(map(float, self.pz_range)))
        object.__setattr__(self, "mu2_min", float(self.mu2_min))
        object.__setattr__(self, "mu3_min", float(self.mu3_min))
        object.__setattr__(self, "starts", _whole("starts", self.starts))
        object.__setattr__(self, "max_evals", _whole("max_evals", self.max_evals))
        seeds = tuple(_whole("seed_list", s) for s in self.seed_list)
        object.__setattr__(self, "seed_list", seeds)
        if not 0.0 < self.mu1_range[0] < self.mu1_range[1]:
            raise ParameterError("OptimizationSpec: mu1_range must be increasing and positive")
        if not 0.0 < self.mu2_min < self.mu1_range[1]:
            raise ParameterError("OptimizationSpec: mu2_min must be in (0, mu1_max)")
        if not 0.0 < self.mu3_min < self.mu2_min:
            raise ParameterError("OptimizationSpec: mu3_min must be in (0, mu2_min)")
        if not 0.5 <= self.pz_range[0] < self.pz_range[1] < 1.0:
            raise ParameterError("OptimizationSpec: pz_range must be within [0.5, 1)")
        if self.starts < 1:
            raise ParameterError("OptimizationSpec: starts must be >= 1")
        if self.rel_tol <= 0 or self.max_evals < 100:
            raise ParameterError("OptimizationSpec: nonsensical effort settings")

    @property
    def dimension(self) -> int:
        """mu1, mu2, one logit per level but the last, and p_Z."""
        return self.variant.intensity_count + 2


def _coordinate_bracket(spec: OptimizationSpec, x: list[float], j: int) -> tuple[float, float]:
    """Feasible interval for coordinate j with all others held fixed. The
    1-decoy box is the 2-decoy box with mu3 = 0, where no mu3 term binds."""
    mu1, mu2 = x[0], x[1]
    mu3 = spec.mu3_min if spec.variant is Variant.TWO_DECOY else 0.0
    if j == 0:
        lo = max(spec.mu1_range[0], mu2 / _ORDER_MARGIN, (mu2 + mu3) * 1.0001)
        return min(lo, spec.mu1_range[1]), spec.mu1_range[1]
    if j == 1:
        lo = max(spec.mu2_min, mu3 / _ORDER_MARGIN)
        return lo, max(lo, _ORDER_MARGIN * (mu1 - mu3))
    if j == spec.dimension - 1:
        return spec.pz_range
    return -_LOGIT_LIMIT, _LOGIT_LIMIT


def _levels_from_x(
    spec: OptimizationSpec, x: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """The intensities, their probabilities and p_Z that ``x`` stands for,
    unchecked."""
    if spec.variant is Variant.ONE_DECOY:
        mu1, mu2, t1, pz = x
        p1 = 1.0 / (1.0 + math.exp(-t1))
        return (mu1, mu2), (p1, 1.0 - p1), pz
    mu1, mu2, t1, t2, pz = x
    e1, e2 = math.exp(t1), math.exp(t2)
    s = e1 + e2 + 1.0
    return (mu1, mu2, spec.mu3_min), (e1 / s, e2 / s, 1.0 / s), pz


def _params_from_x(spec: OptimizationSpec, x: Sequence[float]) -> ProtocolParams:
    return ProtocolParams(spec.variant, *_levels_from_x(spec, x))


def _x_from_unit(spec: OptimizationSpec, unit: Sequence[float]) -> list[float]:
    """Map a unit-cube point into a feasible coordinate vector, one axis at a
    time so the dependent intensity bounds are respected."""
    x = [0.0] * spec.dimension
    for j, u in enumerate(unit):
        lo, hi = _coordinate_bracket(spec, x, j)
        x[j] = lo + u * (hi - lo)
    return x


def _x_from_params(spec: OptimizationSpec, params: ProtocolParams) -> list[float]:
    """Project existing parameters into the search box (used for warm starts)."""

    def logit(p: float, q: float) -> float:
        t = math.log(p / q)
        return max(-_LOGIT_LIMIT, min(_LOGIT_LIMIT, t))

    probs = params.intensity_probs
    x = [0.0, 0.0, *(logit(p, probs[-1]) for p in probs[:-1]), params.basis_prob_z]
    for j in range(2):
        lo, hi = _coordinate_bracket(spec, x, j)
        x[j] = max(lo, min(hi, params.intensities[j]))
    lo, hi = spec.pz_range
    x[-1] = max(lo, min(hi, params.basis_prob_z))
    return x


def _unit_seeds(spec: OptimizationSpec) -> list[list[float]]:
    """Deterministic low-discrepancy starts plus optional seeded random ones."""
    dim = spec.dimension
    seeds = [
        [math.fmod((i + 1) * math.sqrt(p), 1.0) for p in _SEED_STRIDES[:dim]]
        for i in range(spec.starts)
    ]
    for s in spec.seed_list:
        rng = random.Random(s)
        seeds.append([rng.random() for _ in range(dim)])
    return seeds


class _Objective:
    """SKR as a function of the coordinate vector, with an evaluation budget.

    Each call runs the simulator's unchecked core on the plain levels of
    ``x``; a vector that breaks a ``ProtocolParams`` rule scores -1 without
    reaching it. The channel, security and option records were checked when
    they were built, and ``optimize_point`` checks the dead-time mode."""

    def __init__(
        self,
        channel: ChannelParams,
        sec: SecurityParams,
        spec: OptimizationSpec,
        options: BoundOptions,
        deadtime_mode: str,
    ) -> None:
        self.spec = spec
        self.channel = channel
        self.sec = sec
        self.options = options
        self.deadtime_mode = deadtime_mode
        self.evals = 0

    def __call__(self, x: Sequence[float]) -> float:
        self.evals += 1
        spec = self.spec
        mus, probs, pz = _levels_from_x(spec, x)
        if _protocol_fault(spec.variant, mus, probs, pz) is not None:
            return -1.0
        return _key_rate(
            mus, probs, pz, self.channel, self.sec, self.options, self.deadtime_mode
        )

    @property
    def exhausted(self) -> bool:
        return self.evals >= self.spec.max_evals


def _line_search(
    f: Callable[[float], float], lo: float, hi: float, best_t: float, best_f: float,
    scan: bool,
) -> tuple[float, float]:
    """Golden-section polish of one coordinate on [lo, hi]; never returns
    anything worse than the incoming (best_t, best_f).

    With ``scan`` the polish bracket is found by a coarse scan of the whole
    interval: the scan's best grid point and its two neighbours. Without it
    the incumbent is taken to be near the axis optimum already, and the
    bracket is the incumbent plus or minus one grid step, clipped to [lo, hi].
    Either way the bracket is at most two grid steps wide."""
    step = (hi - lo) / (_COARSE_POINTS - 1)
    if scan:
        values = []
        for i in range(_COARSE_POINTS):
            t = lo + i * step
            ft = f(t)
            values.append(ft)
            if ft > best_f:
                best_t, best_f = t, ft
        i_star = max(range(_COARSE_POINTS), key=values.__getitem__)
        a = lo + max(0, i_star - 1) * step
        b = lo + min(_COARSE_POINTS - 1, i_star + 1) * step
    else:
        a, b = max(lo, best_t - step), min(hi, best_t + step)
    tol = max(1e-12, 1e-3 * (hi - lo))
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if fc > best_f:
            best_t, best_f = c, fc
        if fd > best_f:
            best_t, best_f = d, fd
    return best_t, best_f


def _refine(objective: _Objective, x0: list[float], f0: float) -> tuple[list[float], float]:
    """Coordinate passes from ``x0`` (whose objective value is ``f0``) until a
    pass gains no more than ``rel_tol``; only the first pass scans each axis."""
    spec = objective.spec
    x, fx = list(x0), f0
    for pass_index in range(_MAX_PASSES):
        pass_start = fx
        for j in range(spec.dimension):
            if objective.exhausted:
                return x, fx
            lo, hi = _coordinate_bracket(spec, x, j)
            if hi - lo <= 1e-12:
                continue

            def partial(t: float, j: int = j) -> float:
                trial = list(x)
                trial[j] = t
                return objective(trial)

            best_t, best_f = _line_search(partial, lo, hi, x[j], fx, pass_index == 0)
            if best_f > fx:
                x[j], fx = best_t, best_f
        if fx - pass_start <= spec.rel_tol * max(abs(fx), 1e-12):
            break
    return x, fx


def optimize_point(
    channel: ChannelParams,
    sec: SecurityParams,
    spec: OptimizationSpec,
    options: BoundOptions = DEFAULT_BOUND_OPTIONS,
    deadtime_mode: str = DEFAULT_DEADTIME_MODE,
    warm_start: ProtocolParams | None = None,
) -> tuple[ProtocolParams, RatePoint]:
    """Best protocol parameters (by SKR) for one channel setting.

    Runs every multistart seed to convergence and keeps the best result; by
    construction the winner is never worse than any seed's raw evaluation.
    Ties within ``rel_tol`` are broken toward lower mu1, then lexicographically,
    so repeated runs with the same seed list pick identical parameters. When
    no seed produces a positive rate the zero-rate point is returned as a
    diagnostic rather than an error. Only the winner is built as a checked
    ``ProtocolParams`` and evaluated by the public ``rate_point``. A
    ``warm_start`` is an extra start and must be of the spec's variant.
    """
    _check_deadtime_mode(deadtime_mode)
    if warm_start is not None and warm_start.variant is not spec.variant:
        raise ParameterError(
            f"optimize_point: warm_start is {warm_start.variant.value}-decoy, "
            f"the spec {spec.variant.value}-decoy"
        )
    objective = _Objective(channel, sec, spec, options, deadtime_mode)
    starts = [_x_from_unit(spec, u) for u in _unit_seeds(spec)]
    if warm_start is not None:
        starts.append(_x_from_params(spec, warm_start))

    raw = [objective(x) for x in starts]
    raw_floor = max(raw)
    candidates = []
    for x0, f0 in zip(starts, raw):
        x, fx = _refine(objective, x0, f0)
        candidates.append((fx, x, _levels_from_x(spec, x)))

    best_skr = max(c[0] for c in candidates)
    if best_skr < raw_floor:
        raise RuntimeError(
            f"optimize_point: refinement lost ground against a raw seed "
            f"(best {best_skr!r} Hz < raw start {raw_floor!r} Hz)"
        )
    if best_skr < 0.0:
        fault = _protocol_fault(spec.variant, *candidates[0][2])
        raise ParameterError(f"optimize_point: no start is a valid protocol; {fault}")
    threshold = best_skr * (1.0 - spec.rel_tol)
    tied = [c for c in candidates if c[0] >= threshold]
    _, best_x, _ = min(
        tied,
        key=lambda c: (c[2][0], tuple(-p for p in c[2][1]), -c[2][2]),
    )
    best_params = _params_from_x(spec, best_x)
    best_rate = rate_point(
        SimulationPoint(channel, best_params, sec), options, deadtime_mode
    )
    return best_params, best_rate


@dataclass(frozen=True)
class SweepRow:
    attenuation_db: float
    variant: Variant
    params: ProtocolParams
    rate: RatePoint


@dataclass(frozen=True)
class SweepResult:
    """Optimized rows, sorted by attenuation then variant, one per pair."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.rows, key=lambda r: (r.attenuation_db, r.variant.value))
        )
        object.__setattr__(self, "rows", ordered)
        keys = [(r.attenuation_db, r.variant) for r in ordered]
        if len(set(keys)) != len(keys):
            raise ParameterError("SweepResult: duplicate (attenuation, variant) row")

    def attenuations(self) -> tuple[float, ...]:
        return tuple(sorted({r.attenuation_db for r in self.rows}))

    def row(self, attenuation_db: float, variant: Variant) -> SweepRow:
        for r in self.rows:
            if r.variant is variant and math.isclose(r.attenuation_db, attenuation_db):
                return r
        raise ValueError(f"no {variant.value}-decoy row at {attenuation_db} dB")


def sweep(
    channel_template: ChannelParams,
    att_grid: Iterable[float],
    sec: SecurityParams,
    specs: Iterable[OptimizationSpec],
    options: BoundOptions = DEFAULT_BOUND_OPTIONS,
    deadtime_mode: str = DEFAULT_DEADTIME_MODE,
) -> SweepResult:
    """Optimize every (attenuation, variant) pair on the grid.

    Each variant is walked in attenuation order, and the previous point's
    optimum is an extra multistart seed (the ``warm_start`` of
    ``optimize_point``), which both speeds convergence and smooths the
    optimum traces.
    """
    grid = sorted(set(float(a) for a in att_grid))
    if not grid:
        raise ParameterError("sweep: attenuation grid is empty")
    rows = []
    for spec in specs:
        previous: ProtocolParams | None = None
        for att in grid:
            channel = replace(channel_template, attenuation_db=att)
            params, rate = optimize_point(
                channel, sec, spec, options, deadtime_mode, warm_start=previous
            )
            rows.append(SweepRow(att, spec.variant, params, rate))
            previous = params
    return SweepResult(tuple(rows))


@dataclass(frozen=True)
class ComparisonRow:
    """Relative rate difference (one - two) / two; None when two has no key."""

    attenuation_db: float
    skr_one_hz: float
    skr_two_hz: float
    rel_difference: float | None


def compare_protocols(result: SweepResult) -> tuple[ComparisonRow, ...]:
    """Fig-1(b)-style comparison column; needs both variants at every point."""
    rows = []
    for att in result.attenuations():
        one = result.row(att, Variant.ONE_DECOY).rate.skr_hz
        two = result.row(att, Variant.TWO_DECOY).rate.skr_hz
        diff = (one - two) / two if two > 0.0 else None
        rows.append(ComparisonRow(att, one, two, diff))
    return tuple(rows)
