"""SKR maximization over the tunable protocol variables.

The objective (secret key rate at fixed channel, security and block size) is
smooth, cheap and 4- or 5-dimensional, so a multistart coordinate refinement
is enough: from each start, sweep the variables in turn, and repeat passes
until the rate stops improving. The first pass of a start coarse-scans each
axis over its whole feasible interval and, where the scan saw a key, polishes
around the best grid point; later passes skip the scan and polish within one
grid step of the incumbent, which the first pass has already brought near the
axis optimum. A later pass that gains is followed by a line search along its
net move, forward to the box edge (``_extrapolate``), against the zigzag.
Each polish is Brent's line search: parabolic steps with a golden-section
fallback, started from the point whose value is already known. Starts are a
fixed low-discrepancy set spanning the box, optionally extended by seeded
random starts and a warm start, so results are bit-for-bit reproducible for
a given seed list. The box is fixed (``_MU1_RANGE``, ``_MU2_MIN``,
``_PZ_RANGE``); a spec sets only the effort and the 2-decoy weakest level.

The start budget is adaptive. The seeded and warm starts are always refined.
The default starts are refined from the best raw value down, and the search
stops once three of them end within ``rel_tol`` of the best of them on a
positive rate; where fewer than three find a key, every start is refined.
The extra starts never count toward that agreement, so they cannot shrink
the set of default starts searched.

Intensity probabilities are optimized as logits mapped onto the open
simplex, which keeps every candidate inside the ProtocolParams invariants.

An evaluation maps the coordinate vector to plain floats by the variant's
``_one_decoy_levels`` or ``_two_decoy_levels``, scores -1 where
``model._protocol_fault`` finds a ProtocolParams rule broken, and runs the
core, ``simulator._key_rate``: the variant's count and bound stages, bound
once per objective. Inputs are checked where they enter: the channel and
security records, model switches included, on construction. Only the
winner is built as checked records by ``rate_point``, on the same stages.

A point's search is two steps: ``_search`` refines the default and seeded
starts, and ``_settle`` the warm start, then picks the winner. A sweep walks
each chain up and down in forked workers (``_run_tasks``): cold searches until
a walk has an optimum, then one refinement from it per point, which skips the
scan where that optimum has a key. Where a walk ends at zero, the previous
row's winner is refined too, as a warm start.
"""

from __future__ import annotations

import math
import os
import random
import signal
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .model import (
    ChannelParams,
    ParameterError,
    ProtocolParams,
    RatePoint,
    SecurityParams,
    Variant,
    _Checked,
    _protocol_fault,
    _real,
)
from .simulator import SimulationPoint, _key_rate, _keyless, _prepare, rate_point

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
# The search box: mu1's interval, mu2's floor and p_Z's interval.
_MU1_RANGE = (0.05, 1.2)
_MU2_MIN = 0.005
_PZ_RANGE = (0.5, 0.99)
# The default starts are refined until this many end within rel_tol of the
# best of them on a positive rate.
_AGREEING_STARTS = 3


def _whole(name: str, value) -> int:
    """``value`` as an int: an int, an integral float such as 3.0 or the text
    of an int such as "3". A bool or any other value is rejected naming the
    key ``name``. The one rule for ``OptimizationSpec`` and the CLI alike."""
    try:
        number = int(value) if isinstance(value, str) else value
        if not isinstance(number, bool) and int(number) == number:
            return int(number)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{name}: must be a whole number, got {value!r}")


class OptimizationSpec(_Checked, namedtuple(
    "OptimizationSpec", "variant mu3_min starts seed_list rel_tol"
)):
    """Effort settings for one protocol variant, and the fixed 2-decoy weakest
    level ``mu3_min``, which is not searched, a checked named tuple like
    ``model.RatePoint``. The search box is the module's ``_MU1_RANGE``,
    ``_MU2_MIN`` and ``_PZ_RANGE``."""

    __slots__ = ()

    def __new__(
        cls, variant: Variant, mu3_min: float = 1e-6, starts: int = 8,
        seed_list: Iterable[int] = (), rel_tol: float = 1e-4,
    ) -> OptimizationSpec:
        if not isinstance(variant, Variant):
            raise ParameterError(f"variant: must be a Variant, got {variant!r}")
        mu3_min, rel_tol = _real("mu3_min", mu3_min), _real("rel_tol", rel_tol)
        starts = _whole("starts", starts)
        if isinstance(seed_list, str) or not isinstance(seed_list, Iterable):
            raise ParameterError(f"seed_list: must be a list of whole numbers, got {seed_list!r}")
        seed_list = tuple(_whole("seed_list", s) for s in seed_list)
        if not 0.0 < mu3_min < _MU2_MIN:
            raise ParameterError(f"mu3_min: must be in (0, {_MU2_MIN!r})")
        if starts < 1:
            raise ParameterError("starts: must be >= 1")
        if not 0.0 < rel_tol < 1.0:
            raise ParameterError("rel_tol: must be in (0, 1)")
        return tuple.__new__(cls, (variant, mu3_min, starts, seed_list, rel_tol))

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
        lo = max(_MU1_RANGE[0], mu2 / _ORDER_MARGIN, (mu2 + mu3) * 1.0001)
        return min(lo, _MU1_RANGE[1]), _MU1_RANGE[1]
    if j == 1:
        lo = max(_MU2_MIN, mu3 / _ORDER_MARGIN)
        return lo, max(lo, _ORDER_MARGIN * (mu1 - mu3))
    if j == spec.dimension - 1:
        return _PZ_RANGE
    return -_LOGIT_LIMIT, _LOGIT_LIMIT


def _one_decoy_levels(x: Sequence[float], mu3: float) -> tuple:
    """``_levels_from_x`` of a 1-decoy ``x``, which fixes no level."""
    mu1, mu2, t1, pz = x
    p1 = 1.0 / (1.0 + math.exp(-t1))
    return (mu1, mu2), (p1, 1.0 - p1), pz


def _two_decoy_levels(x: Sequence[float], mu3: float) -> tuple:
    """``_levels_from_x`` of a 2-decoy ``x``, its weakest level ``mu3``."""
    mu1, mu2, t1, t2, pz = x
    e1, e2 = math.exp(t1), math.exp(t2)
    s = e1 + e2 + 1.0
    return (mu1, mu2, mu3), (e1 / s, e2 / s, 1.0 / s), pz


_LEVEL_MAPS = {Variant.ONE_DECOY: _one_decoy_levels, Variant.TWO_DECOY: _two_decoy_levels}


def _levels_from_x(
    spec: OptimizationSpec, x: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """The intensities, their probabilities and p_Z that ``x`` stands for,
    unchecked, from the variant's map in ``_LEVEL_MAPS``."""
    return _LEVEL_MAPS[spec.variant](x, spec.mu3_min)


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
    lo, hi = _PZ_RANGE
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
    """SKR as a function of the coordinate vector.

    Each call runs the simulator's unchecked core on the plain levels of
    ``x``; a vector that breaks a ``ProtocolParams`` rule scores -1 without
    reaching it. The channel and security records were checked when they
    were built; the core's record of everything they fix, with the
    variant's stages, is prepared once, here, as is the variant's level map.
    ``keyless`` is computed from the record when first read."""

    keyless = cached_property(lambda self: _keyless(*self.prepared, _MU1_RANGE[1]))

    def __init__(
        self, channel: ChannelParams, sec: SecurityParams, spec: OptimizationSpec
    ) -> None:
        self.spec = spec
        self.count = spec.variant.intensity_count
        self.levels, self.mu3 = _LEVEL_MAPS[spec.variant], spec.mu3_min
        self.prepared = _prepare(channel, sec, self.count)

    def __call__(self, x: Sequence[float]) -> float:
        mus, probs, pz = self.levels(x, self.mu3)
        if _protocol_fault(self.count, mus, probs, pz) is not None:
            return -1.0
        return _key_rate(mus, probs, pz, self.prepared)


def _line_search(
    f: Callable[[float], float], lo: float, hi: float, best_t: float, best_f: float,
    scan: bool,
) -> tuple[float, float]:
    """Brent polish of one coordinate on [lo, hi]; never returns anything
    worse than the incoming (best_t, best_f), and a tie keeps it.

    With ``scan`` the polish bracket is found by a coarse scan of the whole
    interval: the scan's best grid point and its two neighbours, and the
    polish starts from that grid point. A scan that sees no key (no grid
    value above 0) is not polished: it returns the incumbent, or the first
    grid point that beats it. Without ``scan`` the incumbent is taken to
    be near the axis optimum already: the bracket is the incumbent plus or
    minus one grid step, clipped to [lo, hi], and the polish starts from the
    incumbent. Either way the start's value is known, the bracket is at most
    two grid steps wide, and the polish ends once the bracket around its best
    point is at most ``1e-3 * (hi - lo)`` wide."""
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
        if values[i_star] <= 0.0:
            # A scan that sees no key gives no hint where one might be.
            return best_t, best_f
        a = lo + max(0, i_star - 1) * step
        b = lo + min(_COARSE_POINTS - 1, i_star + 1) * step
        x, fx = lo + i_star * step, values[i_star]
    else:
        a, b = max(lo, best_t - step), min(hi, best_t + step)
        x, fx = best_t, best_f
    x, fx = _brent(f, a, b, x, fx, max(1e-12, 1e-3 * (hi - lo)))
    return (x, fx) if fx > best_f else (best_t, best_f)


def _brent(
    f: Callable[[float], float], a: float, b: float, x: float, fx: float, tol: float,
) -> tuple[float, float]:
    """Brent's maximiser on [a, b] from x, whose value fx is known: parabolic
    steps through the three best points, a golden-section step into the
    larger side where the parabola is not trusted, and no evaluation closer
    than tol/4 to the best point. Moves only on a strict gain. Ends once the
    best point lies within tol/2 of both ends, so the bracket is at most tol
    wide (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5)."""
    w = v = x
    fw = fv = fx
    d = e = 0.0
    tol1, tol2 = 0.25 * tol, 0.5 * tol
    while max(x - a, b - x) > tol2:
        m = 0.5 * (a + b)
        golden = True
        if abs(e) > tol1:
            # Vertex of the parabola through (v, fv), (w, fw), (x, fx).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # Trust it only inside (a, b) and shorter than half the step
            # before last.
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if min(x + d - a, b - x - d) < tol2:
                    d = math.copysign(tol1, m - x)
        if golden:
            e = (a if x >= m else b) - x
            d = (1.0 - _GOLDEN) * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = f(u)
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def _extrapolate(objective: _Objective, start: list[float], x: list[float],
                 fx: float) -> tuple[list[float], float]:
    """Brent's search along a pass's net move d = x - start, from x (value fx)
    forward to the nearest box edge, at most 3 d further, to 0.01 d; x stays
    unless a point beats it. Hooke and Jeeves' pattern move (J. ACM 8, 212,
    1961) and Powell's new direction (Comput. J. 7, 155, 1964) in one."""
    spec, d = objective.spec, [b - a for a, b in zip(start, x)]
    mu3 = spec.mu3_min if spec.variant is Variant.TWO_DECOY else 0.0

    def along(s: float) -> list[float]:
        return [a + s * b for a, b in zip(x, d)]

    def slacks(y: list[float]) -> tuple:  # _coordinate_bracket's rules: linear, >= 0 inside
        mu1, mu2, logits, pz = y[0], y[1], y[2:-1], y[-1]
        return (mu1 - _MU1_RANGE[0], _MU1_RANGE[1] - mu1, mu1 - mu2 / _ORDER_MARGIN,
                mu1 - (mu2 + mu3) * 1.0001, mu2 - max(_MU2_MIN, mu3 / _ORDER_MARGIN),
                _ORDER_MARGIN * (mu1 - mu3) - mu2, pz - _PZ_RANGE[0], _PZ_RANGE[1] - pz,
                *(_LOGIT_LIMIT + t for t in logits), *(_LOGIT_LIMIT - t for t in logits))

    edge = min([3.0, *(h / (h - t) for h, t in zip(slacks(x), slacks(along(1.0))) if t < h)])
    s, fs = _brent(lambda s: objective(along(s)), 0.0, edge, 0.0, fx, 0.01)
    return (along(s), fs) if fs > fx else (x, fx)


def _refine(objective: _Objective, x0: list[float], f0: float,
            scan: bool = True) -> tuple[list[float], float]:
    """Coordinate passes from ``x0`` (whose objective value is ``f0``) until a
    pass gains no more than ``rel_tol``. With ``scan`` the first pass scans
    each axis; every other pass polishes within one grid step. A later pass
    that gains and keeps a key is followed by ``_extrapolate`` along its move.
    At ``f0`` 0 on a certified keyless point no pass can gain: ``x0`` stays."""
    if f0 == 0.0 and objective.keyless:
        return list(x0), f0
    spec = objective.spec
    x, fx = list(x0), f0
    for pass_index in range(_MAX_PASSES):
        pass_start, start = fx, list(x)
        for j in range(spec.dimension):
            lo, hi = _coordinate_bracket(spec, x, j)
            if hi - lo <= 1e-12:
                continue

            def along(t: float, j: int = j) -> float:
                trial = list(x)
                trial[j] = t
                return objective(trial)

            best_t, best_f = _line_search(along, lo, hi, x[j], fx, scan and pass_index == 0)
            if best_f > fx:
                x[j], fx = best_t, best_f
        if fx - pass_start <= spec.rel_tol * max(abs(fx), 1e-12):
            break
        if pass_index and fx > 0.0:
            x, fx = _extrapolate(objective, start, x, fx)
    return x, fx


def optimize_point(
    channel: ChannelParams,
    sec: SecurityParams,
    spec: OptimizationSpec,
    warm_start: ProtocolParams | None = None,
) -> tuple[ProtocolParams, RatePoint]:
    """Best protocol parameters (by SKR) for one channel setting.

    Refines the seeded starts, then the default starts from the best raw
    value down until ``_AGREEING_STARTS`` of those agree on a key (every
    start where fewer find one), then the warm start last, and keeps the best
    result; ``spec.starts`` caps the default starts. The best raw start is
    always refined, so the winner is never worse than any start's raw
    evaluation.
    Ties within ``rel_tol`` are broken toward lower mu1, then lexicographically,
    so repeated runs with the same seed list pick identical parameters. When
    no seed produces a positive rate the zero-rate point is returned as a
    diagnostic rather than an error. Only the winner is built as a checked
    ``ProtocolParams`` and evaluated by the public ``rate_point``. A
    ``warm_start`` is an extra start and must be of the spec's variant.
    """
    if warm_start is not None and warm_start.variant is not spec.variant:
        raise ParameterError(f"optimize_point: warm_start is {warm_start.variant.value}-decoy, "
                             f"the spec {spec.variant.value}-decoy")
    return _settle(channel, sec, spec, _search(channel, sec, spec), warm_start)


def _search(
    channel: ChannelParams, sec: SecurityParams, spec: OptimizationSpec
) -> tuple[float, dict]:
    """The first step of ``optimize_point``, which no warm start enters: the
    raw value of every default and seeded start, then the refinements, seeded
    starts first. Returns the best raw value and each distinct start vector's
    refinement (x, rate)."""
    objective = _Objective(channel, sec, spec)
    starts = [_x_from_unit(spec, u) for u in _unit_seeds(spec)]
    raw = [objective(x) for x in starts]
    # The seeded starts first, then the default ones from the best raw value
    # down (ties in index order), until enough of those agree on a key.
    defaults = sorted(range(spec.starts), key=lambda i: -raw[i])
    # A start bit-equal to one already refined reuses that result: refining
    # it again only repeats its evaluations.
    default_rates, refined = [], {}
    for i in (*range(spec.starts, len(starts)), *defaults):
        key = tuple(starts[i])
        if key not in refined:
            refined[key] = _refine(objective, starts[i], raw[i])
        if i < spec.starts:
            default_rates.append(refined[key][1])
            best = max(default_rates)
            agreeing = sum(f >= best * (1.0 - spec.rel_tol) for f in default_rates)
            if best > 0.0 and agreeing >= _AGREEING_STARTS:
                break
    return max(raw), refined


def _settle(
    channel: ChannelParams, sec: SecurityParams, spec: OptimizationSpec,
    searched: tuple[float, dict], warm_start: ProtocolParams | None,
) -> tuple[ProtocolParams, RatePoint]:
    """The second step of ``optimize_point``: refine the warm start, unless it
    is bit-equal to a start that ``_search`` refined (a warm start after a zero
    point often is), and pick the winner among those results. The tie-break
    orders the candidates' levels totally, so their order cannot matter:
    candidates with equal levels give equal parameters and rates."""
    raw_floor, refined = searched
    results = list(refined.values())
    if warm_start is not None:
        x = _x_from_params(spec, warm_start)
        if tuple(x) not in refined:
            objective = _Objective(channel, sec, spec)
            fx = objective(x)
            raw_floor = max(raw_floor, fx)
            results.append(_refine(objective, x, fx))
    candidates = [(fx, x, _levels_from_x(spec, x)) for x, fx in results]
    best_skr = max(c[0] for c in candidates)
    if best_skr < raw_floor:
        raise RuntimeError(f"optimize_point: refinement lost ground against a raw seed "
                           f"(best {best_skr!r} Hz < raw start {raw_floor!r} Hz)")
    if best_skr < 0.0:
        fault = _protocol_fault(spec.variant.intensity_count, *candidates[0][2])
        raise ParameterError(f"optimize_point: no start is a valid protocol; {fault}")
    tied = [c for c in candidates if c[0] >= best_skr * (1.0 - spec.rel_tol)]
    _, best_x, _ = min(tied, key=lambda c: (c[2][0], tuple(-p for p in c[2][1]), -c[2][2]))
    best_params = _params_from_x(spec, best_x)
    return best_params, rate_point(SimulationPoint(channel, best_params, sec))


def _walk(channels: Sequence[ChannelParams], sec: SecurityParams, spec: OptimizationSpec,
          down: bool) -> list[tuple[float, dict, bool] | None]:
    """Per point in attenuation order, ``_search``'s raw floor and results and
    whether they are a cold search. A walk searches cold until it carries an
    optimum (up: its first point's best, down: its first keyed best; a later
    keyed best replaces it), then refines from it once per point, scanning
    only where it has no key there. The walk down leaves a cold lowest point
    (None) to the walk up."""
    steps, carry = [], None
    for channel in (reversed(channels) if down else channels):
        cold = carry is None
        if cold and down and channel is channels[0]:
            steps.append(None)
            break
        if cold:
            floor, refined = _search(channel, sec, spec)
        else:
            objective = _Objective(channel, sec, spec)
            floor = objective(carry)
            refined = {tuple(carry): _refine(objective, carry, floor, floor <= 0.0)}
        x, fx = max(refined.values(), key=lambda result: result[1])
        if fx > 0.0 or (cold and not down):
            carry = x
        steps.append((floor, refined, cold))
    return steps[::-1] if down else steps


class SweepRow(NamedTuple):
    """One optimized (attenuation, variant) point, a named tuple."""

    attenuation_db: float
    variant: Variant
    params: ProtocolParams
    rate: RatePoint


@dataclass(frozen=True)
class SweepResult:
    """Optimized rows, sorted by attenuation then variant, one per pair."""

    rows: tuple[SweepRow, ...]
    _by_key: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.rows, key=lambda r: (r.attenuation_db, r.variant.value))
        )
        object.__setattr__(self, "rows", ordered)
        by_key = {(r.attenuation_db, r.variant): r for r in ordered}
        if len(by_key) != len(ordered):
            raise ParameterError("SweepResult: duplicate (attenuation, variant) row")
        object.__setattr__(self, "_by_key", by_key)

    def attenuations(self) -> tuple[float, ...]:
        return tuple(dict.fromkeys(att for att, _ in self._by_key))

    def row(self, attenuation_db: float, variant: Variant) -> SweepRow:
        """The row at exactly ``attenuation_db``: nearby grid points are
        distinct rows, as the duplicate check counts them."""
        if (found := self._by_key.get((attenuation_db, variant))) is None:
            raise ValueError(f"no {variant.value}-decoy row at {attenuation_db} dB")
        return found


def _run_tasks(tasks: Sequence[tuple[str, Callable[[], object]]]) -> list:
    """The results of ``tasks``, (label, zero-argument callable) pairs, in order,
    from one share per usable core, dealt in snake order: round r of one task per
    share runs forward where r is even and backward where it is odd, so on 2 cores
    each share walks one chain up and another down. The parent runs the first share;
    a forked child runs each other one, pipes back its results or exception as one
    pickle and leaves by ``os._exit``, flushing no buffer it shares with the parent.
    Beside other threads nothing forks; a share whose fork fails runs here."""
    usable = threading.active_count() == 1 and {"fork", "sched_getaffinity"} <= set(dir(os))
    workers = min(len(tasks), len(os.sched_getaffinity(0))) if usable else 1
    dealt = [(i, -1 - i)[i // workers % 2] % workers for i in range(len(tasks))]
    shares = [[task for task, to in zip(tasks, dealt) if to == i] for i in range(workers)]
    if workers > 1:
        import pickle  # late, to fork only: at module level it raised table1's peak RSS 2%
    children, received = {}, {}  # share index: (pid, read end), (payload, status)
    try:
        for i, share in enumerate(shares[1:], 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN, ENOMEM: the parent runs this share too
                os.close(read_fd)
                os.close(write_fd)
                continue
            if pid == 0:
                try:
                    try:
                        payload = pickle.dumps([task() for _, task in share])
                    except BaseException as exc:
                        payload = pickle.dumps(exc)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children[i] = (pid, read_fd)
        results = {i: [task() for _, task in share]
                   for i, share in enumerate(shares) if i not in children}
    except BaseException:
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for i, (pid, read_fd) in children.items():
            with open(read_fd, "rb") as pipe:
                received[i] = (pipe.read(), os.waitpid(pid, 0)[1])
    for i, (payload, status) in received.items():
        if status or not payload:
            names = "; ".join(label for label, _ in shares[i])
            raise RuntimeError(f"the worker for {names} exited without a result "
                               f"(exit status {os.waitstatus_to_exitcode(status)})")
        results[i] = pickle.loads(payload)
        if isinstance(results[i], BaseException):
            raise results[i]
    return [results[to].pop(0) for to in dealt]  # each share's results in task order


def _sweep_chains(
    chains: Sequence[tuple[ChannelParams, Iterable[float], SecurityParams, OptimizationSpec]],
) -> list[list[SweepRow]]:
    """The rows of each chain, (channel template, attenuation grid, sec,
    spec), in attenuation order; building every grid's channels checks it
    before any work. One ``_run_tasks`` round walks each chain up and down.
    Each row is settled from both walks; where one ended at zero, also from
    the previous row as a warm start and a cold search, run here if none ran."""
    walks, tasks = [], []
    for template, att_grid, sec, spec in chains:
        grid = [_real("att_grid", a) + 0.0 for a in att_grid]  # -0.0 is 0.0
        if not grid:
            raise ParameterError("sweep: attenuation grid is empty")
        channels = [template._replace(attenuation_db=att) for att in sorted(set(grid))]
        walks.append((channels, sec, spec))
        for down in (False, True)[: len(channels)]:
            where = f"walk {('up', 'down')[down]} from" if len(channels) > 1 else "at"
            att = channels[-1 if down else 0].attenuation_db
            tasks.append((f"{spec.variant.value}-decoy {where} {att:g} dB, n_Z={sec.block_size:g}",
                          partial(_walk, channels, sec, spec, down)))
    walked = iter(_run_tasks(tasks))
    rows_by_chain = []
    for channels, sec, spec in walks:
        sides = [next(walked) for _ in channels[:2]]
        rows, previous = [], None
        for channel, steps in zip(channels, zip(*sides)):
            steps = [step for step in steps if step is not None]
            zero = any(max(fx for _, fx in step[1].values()) <= 0.0 for step in steps)
            if zero and not any(step[2] for step in steps):
                steps.append((*_search(channel, sec, spec), True))
            searched = (max(step[0] for step in steps),
                        {k: v for step in steps for k, v in step[1].items()})
            previous, rate = _settle(channel, sec, spec, searched, previous if zero else None)
            rows.append(SweepRow(channel.attenuation_db, spec.variant, previous, rate))
        rows_by_chain.append(rows)
    return rows_by_chain


def sweep(
    channel_template: ChannelParams,
    att_grid: Iterable[float],
    sec: SecurityParams,
    specs: Iterable[OptimizationSpec],
) -> SweepResult:
    """Optimize every (attenuation, variant) pair on the grid.

    Each variant's chain is walked up and down in attenuation, each point
    refined from the walk's last keyed optimum (``_sweep_chains``). So a row
    may differ from a chain of warm-started ``optimize_point`` calls, a little
    beyond ``rel_tol`` where the optimum jumps between basins (see the README).
    """
    specs = tuple(specs)
    variants = [spec.variant.value for spec in specs]
    if not specs or len(set(variants)) < len(variants):
        raise ParameterError(f"specs: expected one or more distinct variants, got {variants}")
    grid = list(att_grid)
    chains = _sweep_chains([(channel_template, grid, sec, spec) for spec in specs])
    return SweepResult(tuple(row for rows in chains for row in rows))


class ComparisonRow(NamedTuple):
    """Relative rate difference (one - two) / two, None when two has no key;
    a named tuple."""

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
