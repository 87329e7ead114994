"""Optimizer behaviour: feasibility, determinism, tie-breaking machinery,
sweeps and protocol comparison. Heavy reproduction runs live in the
acceptance suite; these tests use reduced effort settings."""

import math
import os
import pickle
import re
import sys
import threading
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from decoyqkd import (
    OptimizationSpec,
    ParameterError,
    ProtocolParams,
    RatePoint,
    SecurityParams,
    SimulationPoint,
    Variant,
    channel_from_preset,
    compare_protocols,
    optimize_point,
    rate_point,
    sweep,
)
from decoyqkd import optimizer
from decoyqkd.model import DEADTIME_MODES, MAX_INTENSITY, S0_UPPER_MODES
from decoyqkd.optimizer import (
    _MU1_RANGE,
    _MU2_MIN,
    _PZ_RANGE,
    SweepResult,
    SweepRow,
    _Objective,
    _params_from_x,
    _x_from_unit,
)
from decoyqkd.simulator import DETECTOR_PRESETS

from conftest import assert_no_child_left, keyed_points, reference_optimize_point, use_cores

FAST = dict(starts=3)
SEC = SecurityParams(1e-9, 1e-15, 1e6)


def fast_spec(variant, **overrides):
    settings = dict(FAST)
    settings.update(overrides)
    return OptimizationSpec(variant=variant, **settings)


class TestOptimizeFeasibility:
    def test_result_passes_invariants(self):
        for variant in (Variant.ONE_DECOY, Variant.TWO_DECOY):
            spec = fast_spec(variant)
            params, rate = optimize_point(channel_from_preset("snspd", 30.0), SEC, spec)
            assert params.variant is variant
            assert _MU1_RANGE[0] <= params.intensities[0] <= _MU1_RANGE[1]
            assert _PZ_RANGE[0] <= params.basis_prob_z <= _PZ_RANGE[1]
            assert rate.skr_hz > 0.0

    def test_weakest_two_decoy_level_is_mu3_min(self):
        spec = fast_spec(Variant.TWO_DECOY)
        params, _ = optimize_point(channel_from_preset("snspd", 30.0), SEC, spec)
        assert params.intensities[2] == spec.mu3_min
        assert (fast_spec(Variant.ONE_DECOY).dimension, spec.dimension) == (4, 5)

    @pytest.mark.parametrize("variant, warm", [
        (Variant.TWO_DECOY, ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), 0.9)),
        (Variant.ONE_DECOY,
         ProtocolParams(Variant.TWO_DECOY, (0.5, 0.1, 1e-6), (0.6, 0.3, 0.1), 0.9)),
    ])
    def test_warm_start_of_the_other_variant_rejected(self, variant, warm):
        channel = channel_from_preset("snspd", 30.0)
        names = f"warm_start is {warm.variant.value}-decoy, the spec {variant.value}-decoy"
        with pytest.raises(ParameterError, match=names):
            optimize_point(channel, SEC, fast_spec(variant), warm_start=warm)

    def test_zero_rate_is_diagnostic_not_error(self):
        spec = fast_spec(Variant.ONE_DECOY)
        params, rate = optimize_point(channel_from_preset("snspd", 120.0), SEC, spec)
        assert rate.skr_hz == 0.0
        assert params.variant is Variant.ONE_DECOY

    def test_refinement_losing_ground_raises(self, monkeypatch):
        """A refinement that ends below its raw start is a bug; the check
        raises even under python -O, and names both rates."""
        monkeypatch.setattr(optimizer, "_refine", lambda objective, x0, f0: (list(x0), -1.0))
        with pytest.raises(RuntimeError, match=r"lost ground.*best -1\.0 Hz < raw start \d"):
            optimize_point(channel_from_preset("snspd", 30.0), SEC, fast_spec(Variant.ONE_DECOY))

    @pytest.mark.parametrize("variant, warm", [
        (Variant.ONE_DECOY, ProtocolParams(Variant.ONE_DECOY, (1.5, 0.1), (0.7, 0.3), 0.995)),
        (Variant.TWO_DECOY,
         ProtocolParams(Variant.TWO_DECOY, (1.5, 0.1, 1e-6), (0.6, 0.3, 0.1), 0.995)),
    ])
    def test_warm_start_outside_the_box_is_clamped_into_it(self, variant, warm):
        # mu1 = 1.5 and p_Z = 0.995 lie past the box's upper edges
        spec = fast_spec(variant)
        x = optimizer._x_from_params(spec, warm)
        assert (x[0], x[-1]) == (_MU1_RANGE[1], _PZ_RANGE[1])
        channel = channel_from_preset("snspd", 30.0)
        params, rate = optimize_point(channel, SEC, spec, warm_start=warm)
        assert _MU1_RANGE[0] <= params.intensities[0] <= _MU1_RANGE[1]
        assert _PZ_RANGE[0] <= params.basis_prob_z <= _PZ_RANGE[1]
        assert rate.skr_hz > 0.0

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("mu1", _MU1_RANGE)
    def test_mu2_bracket_has_room_at_both_mu1_edges(self, variant, mu1):
        # with mu3_min below _MU2_MIN, even the largest accepted one, the mu2
        # bracket is never empty, and both its ends are valid protocols
        spec = fast_spec(variant, mu3_min=0.999 * _MU2_MIN)
        x = [mu1] + [0.0] * (spec.dimension - 2) + [0.9]
        lo, hi = optimizer._coordinate_bracket(spec, x, 1)
        assert _MU2_MIN <= lo < hi < mu1
        for mu2 in (lo, hi):
            optimizer._params_from_x(spec, [mu1, mu2, *x[2:]])

    def test_largest_mu3_min_optimizes(self):
        spec = fast_spec(Variant.TWO_DECOY, mu3_min=0.999 * _MU2_MIN)
        params, rate = optimize_point(channel_from_preset("snspd", 30.0), SEC, spec)
        assert params.intensities[2] == spec.mu3_min < params.intensities[1]
        assert rate.skr_hz > 0.0

    def test_no_valid_start_names_the_rule(self, monkeypatch):
        # no spec the checks accept leaves every start invalid; swapping mu1
        # and mu2 of every vector the search scores makes each one break the
        # level order, and the error names that rule
        levels_from_x = optimizer._LEVEL_MAPS[Variant.ONE_DECOY]

        def swapped(x, mu3):
            mus, probs, pz = levels_from_x(x, mu3)
            return (mus[1], mus[0], *mus[2:]), probs, pz

        monkeypatch.setitem(optimizer._LEVEL_MAPS, Variant.ONE_DECOY, swapped)
        with pytest.raises(ParameterError, match=r"^optimize_point: no start is a valid "
                           r"protocol; intensities: levels must be strictly decreasing"):
            optimize_point(channel_from_preset("snspd", 30.0), SEC, fast_spec(Variant.ONE_DECOY))

    def test_spec_validation(self):
        # mu3_min lies below the box's mu2 floor, so the mu2 bracket always has room
        for mu3_min in (0.01, _MU2_MIN, 0.0, math.nan):
            with pytest.raises(ParameterError, match=r"^mu3_min: must be in \(0, 0\.005\)$"):
                OptimizationSpec(variant=Variant.TWO_DECOY, mu3_min=mu3_min)
        with pytest.raises(ParameterError, match="^starts: "):
            OptimizationSpec(variant=Variant.ONE_DECOY, starts=0)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 1.0, 0.0, -1.0])
    def test_rel_tol_outside_the_unit_interval_rejected(self, rel_tol):
        with pytest.raises(ParameterError, match=r"^rel_tol: must be in \(0, 1\)"):
            OptimizationSpec(Variant.ONE_DECOY, rel_tol=rel_tol)

    def test_evaluation_budget_is_no_field(self):
        """Neither the evaluation budget nor the search box is a setting."""
        for name, value in (("max_evals", 1000), ("mu1_range", (0.05, 1.2)),
                            ("mu2_min", 0.005), ("pz_range", (0.5, 0.99))):
            with pytest.raises(TypeError, match=name):
                OptimizationSpec(Variant.ONE_DECOY, **{name: value})

    def test_fields_are_the_variant_the_weakest_level_and_the_effort(self):
        assert [f.name for f in fields(OptimizationSpec)] == [
            "variant", "mu3_min", "starts", "seed_list", "rel_tol"]

    @pytest.mark.parametrize("variant", ["one", 1, None])
    def test_variant_that_is_not_a_variant_rejected_on_construction(self, variant):
        with pytest.raises(ParameterError, match=rf"^variant: must be a Variant, got "
                           rf"{re.escape(repr(variant))}$"):
            OptimizationSpec(variant)

    @pytest.mark.parametrize("field, value", [
        ("starts", 2.5),
        ("starts", "1e5"),
        ("starts", 1e3 + 0.5),
        ("starts", float("inf")),
        # a bool is no count, although int(True) == True
        ("starts", True),
        ("seed_list", (1, 1.7)),
        ("seed_list", (float("nan"),)),
        ("seed_list", (False,)),
    ])
    def test_non_integral_effort_names_the_field(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field}: must be a whole number"):
            OptimizationSpec(variant=Variant.ONE_DECOY, **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("rel_tol", "0.1", "must be a number"),
        ("rel_tol", True, "must be a number"),
        ("mu3_min", None, "must be a number"),
        ("mu3_min", "x", "must be a number"),
        ("mu3_min", "1e-6", "must be a number"),
        ("seed_list", 5, "must be a list of whole numbers"),
        ("seed_list", "12", "must be a list of whole numbers"),
    ])
    def test_wrongly_typed_value_names_the_field(self, field, value, message):
        """A value of the wrong type is rejected as a wrong value is, naming
        its key; text is no number here, as the CLI converts its own."""
        with pytest.raises(ParameterError, match=rf"^{field}: {message}, got "
                           rf"{re.escape(repr(value))}$"):
            OptimizationSpec(Variant.TWO_DECOY, **{field: value})

    def test_integral_floats_are_converted(self):
        spec = OptimizationSpec(Variant.ONE_DECOY, starts=3.0, seed_list=(7.0, 1e3, "5"))
        assert (spec.starts, spec.seed_list) == (3, (7, 1000, 5))
        assert all(type(v) is int for v in (spec.starts, *spec.seed_list))
        assert OptimizationSpec(Variant.ONE_DECOY, starts="3").starts == 3


class TestDeterminism:
    def test_bitwise_identical_repeats(self):
        spec = fast_spec(Variant.TWO_DECOY, seed_list=(11, 23))
        channel = channel_from_preset("snspd", 35.0)
        first = optimize_point(channel, SEC, spec)
        second = optimize_point(channel, SEC, spec)
        assert first[0] == second[0]
        assert first[1].skr_hz == second[1].skr_hz

    def test_seed_list_changes_are_never_harmful(self):
        channel = channel_from_preset("snspd", 35.0)
        base = optimize_point(channel, SEC, fast_spec(Variant.ONE_DECOY))[1].skr_hz
        seeded = optimize_point(
            channel, SEC, fast_spec(Variant.ONE_DECOY, seed_list=(5,))
        )[1].skr_hz
        # extra starts can only widen the searched set
        assert seeded >= base * (1.0 - 1e-9)

    def test_warm_start_never_hurts(self):
        channel = channel_from_preset("snspd", 32.0)
        spec = fast_spec(Variant.ONE_DECOY)
        cold_params, cold = optimize_point(channel, SEC, spec)
        _, warm = optimize_point(channel, SEC, spec, warm_start=cold_params)
        assert warm.skr_hz >= cold.skr_hz * (1.0 - 1e-9)


class TestParameterTraces:
    def test_acquisition_time_reference(self):
        # 46 dB, n_Z = 1e7, optimized 1-decoy: collecting the block takes
        # about 20 minutes at 1 GHz
        spec = OptimizationSpec(variant=Variant.ONE_DECOY)
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        _, rate = optimize_point(channel_from_preset("snspd", 46.0), sec, spec)
        assert rate.acquisition_s == pytest.approx(1200.0, rel=0.10)

    def test_intensity_grows_out_of_saturation(self):
        spec = OptimizationSpec(variant=Variant.ONE_DECOY, starts=6)
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        low, _ = optimize_point(channel_from_preset("snspd", 5.0), sec, spec)
        high, _ = optimize_point(channel_from_preset("snspd", 40.0), sec, spec)
        assert high.intensities[0] >= low.intensities[0]


class TestSearchEffort:
    """The default spec at 46 dB, n_Z = 1e7 on the snspd preset. Only the first
    pass of each start scans an axis; later passes polish near the incumbent
    with parabolic steps from its known value, and that must neither cost
    scans nor lose the optimum."""

    @pytest.mark.parametrize("variant, budget", [
        (Variant.ONE_DECOY, 560),
        (Variant.TWO_DECOY, 810),
    ])
    def test_evaluations_per_point(self, monkeypatch, variant, budget):
        """Counts the evaluations: the objective's calls of the simulator core
        and the winner's one call of the public rate_point."""
        calls = Counter()
        for name in ("_key_rate", "rate_point"):

            def counted(*args, _name=name, _original=getattr(optimizer, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(optimizer, name, counted)
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        optimize_point(channel_from_preset("snspd", 46.0), sec, OptimizationSpec(variant=variant))
        assert calls["rate_point"] == 1
        assert 0 < calls["_key_rate"] + calls["rate_point"] <= budget

    @pytest.mark.parametrize("variant, cost", [
        (Variant.ONE_DECOY, 8 * (1 + 12 * 4)),
        (Variant.TWO_DECOY, 8 * (1 + 12 * 5)),
    ])
    def test_keyless_point_costs_one_scan_per_axis(self, monkeypatch, variant, cost):
        """At 70 dB no start finds a key: each of the 8 starts costs its raw
        evaluation and one unpolished 12-point scan per axis, and its first
        pass gains nothing, so no second pass runs."""
        calls = Counter()

        def counted(objective, x, _original=_Objective.__call__):
            calls["objective"] += 1
            return _original(objective, x)

        monkeypatch.setattr(_Objective, "__call__", counted)
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        spec = OptimizationSpec(variant=variant)
        _, rate = optimize_point(channel_from_preset("snspd", 70.0), sec, spec)
        assert rate.skr_hz == 0.0
        assert calls["objective"] == cost

    @pytest.mark.parametrize("variant", list(Variant))
    def test_level_terms_are_shared(self, monkeypatch, variant):
        """The core keeps each level's records, its click and error in the
        prepared link and its Poisson terms in the prepared constants, while
        that level keeps its value. A slot is replaced as a whole when it is
        rebuilt, so a build shows as a new object. Both records are built
        together, and at most half of the level evaluations build them."""
        built = Counter()

        def counted(mus, probs, pz, prepared, _original=optimizer._key_rate):
            slots = {"link": prepared[0].levels, "constants": prepared[1].terms}
            before = {name: list(records) for name, records in slots.items()}
            rate = _original(mus, probs, pz, prepared)
            built["level evaluations"] += len(mus)
            for name, records in slots.items():
                built[name] += sum(a is not b for a, b in zip(before[name], records))
            return rate

        monkeypatch.setattr(optimizer, "_key_rate", counted)
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        optimize_point(channel_from_preset("snspd", 46.0), sec, OptimizationSpec(variant=variant))
        assert 0 < built["link"] == built["constants"] <= built["level evaluations"] / 2

    @pytest.mark.parametrize("variant, most", [
        (Variant.ONE_DECOY, 15.5),
        (Variant.TWO_DECOY, 15.2),
    ])
    def test_python_frames_per_evaluation(self, variant, most):
        """Counts Python frames, not time: the mean number of function calls
        that one objective evaluation makes, over one-axis moves of +-0.1%
        around the 46 dB optimum on a fresh objective. The objective, its
        level map, the protocol check, the core, the variant's count and
        bound stages, the bound tail, the leakage, two binary entropies, the
        fluctuation term and the SKR are 12 calls; each moved level adds its
        two records, ``_level`` and ``_terms``, and two Poisson terms. A call
        per bound formula and per basis, as in a chain of helpers, would
        show here as about 8 more."""
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        channel, spec = channel_from_preset("snspd", 46.0), OptimizationSpec(variant)
        params, _ = optimize_point(channel, sec, spec)
        x0 = optimizer._x_from_params(spec, params)
        moves = []
        for j in range(spec.dimension):
            for factor in (1.001, 0.999):
                moves.append(x0[:j] + [x0[j] * factor] + x0[j + 1:])
        objective = _Objective(channel, sec, spec)
        calls = Counter()

        def profile(frame, event, arg):
            calls[event] += 1

        rates = []
        sys.setprofile(profile)
        try:
            for x in moves:  # a loop, not a comprehension: that is a frame up to 3.11
                rates.append(objective(x))
        finally:
            sys.setprofile(None)
        assert min(rates) > 0.0
        assert calls["call"] / len(moves) <= most

    def test_local_polish_keeps_the_optimum(self):
        # at 56 dB some 2-decoy starts stall at a local optimum 5e-3 low; the
        # default starts must still match a search with 24 extra seeded starts
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        channel = channel_from_preset("snspd", 56.0)
        spec = OptimizationSpec(variant=Variant.TWO_DECOY)
        default = optimize_point(channel, sec, spec)[1].skr_hz
        wide = optimize_point(channel, sec, OptimizationSpec(
            variant=Variant.TWO_DECOY, seed_list=range(24)))[1].skr_hz
        assert default >= wide * (1.0 - spec.rel_tol)


class TestLineSearch:
    """``_line_search`` on one axis, [lo, hi] = [0.01, 1] unless stated
    otherwise: one grid step is 0.09, and the polish tolerance 1e-3 of the
    axis. A later pass (no scan) starts from the incumbent, whose value it is
    handed."""

    LO, HI = 0.01, 1.0
    TOL = 1e-3 * (HI - LO)
    # Smooth concave near their maximisers, none of them a parabola.
    SMOOTH = [
        (lambda t: math.log(t) - t / 0.37, 0.37),
        (lambda t: -math.cosh(3.0 * (t - 0.61)), 0.61),
        (lambda t: math.sin(math.pi * t ** 1.5), 0.5 ** (2.0 / 3.0)),
    ]
    # The no-key plateau, an infeasible axis, a kink, and a key clamped to
    # zero right past its best point.
    NON_SMOOTH = [
        lambda t: 0.0,
        lambda t: -1.0,
        lambda t: -abs(t - 0.43),
        lambda t: max(0.0, t - 0.2 if t <= 0.43 else -1.0),
    ]

    @staticmethod
    def recorded(g):
        calls = []

        def f(t):
            calls.append(t)
            return g(t)

        return f, calls

    @pytest.mark.parametrize("g, peak", SMOOTH)
    @pytest.mark.parametrize("offset", [-0.045, -0.02, 0.005, 0.03])
    def test_later_pass_lands_on_the_maximiser(self, g, peak, offset):
        f, calls = self.recorded(g)
        t0 = peak + offset
        t, ft = optimizer._line_search(f, self.LO, self.HI, t0, g(t0), False)
        assert abs(t - peak) <= self.TOL
        assert ft == g(t) >= g(t0)
        assert len(calls) <= 8

    @pytest.mark.parametrize("g", NON_SMOOTH)
    @pytest.mark.parametrize("t0", [0.01, 0.2, 0.43, 0.5, 0.77, 1.0])
    @pytest.mark.parametrize("scan", [False, True])
    def test_never_worse_than_the_incumbent(self, g, t0, scan):
        f, calls = self.recorded(g)
        t, ft = optimizer._line_search(f, self.LO, self.HI, t0, g(t0), scan)
        assert ft >= g(t0) and ft == g(t)
        if ft == g(t0):
            assert t == t0  # a tie keeps the incumbent
        assert all(self.LO <= u <= self.HI for u in calls)

    @pytest.mark.parametrize("g", NON_SMOOTH[:2])
    @pytest.mark.parametrize("t0", [0.01, 0.43, 0.77, 1.0])
    def test_keyless_scan_is_not_polished(self, g, t0):
        # no grid point has a key: the scan is the whole search
        f, calls = self.recorded(g)
        f0 = g(t0)
        t, ft = optimizer._line_search(f, self.LO, self.HI, t0, f0, True)
        assert len(calls) == optimizer._COARSE_POINTS
        assert all(self.LO <= u <= self.HI for u in calls)
        assert t is t0 and ft is f0

    @pytest.mark.parametrize("g, first", [
        (lambda t: 0.0, 0),
        (lambda t: -1.0 if t < 0.3 else 0.0, 4),
    ])
    def test_keyless_scan_takes_the_first_grid_point_that_beats_the_incumbent(self, g, first):
        # an infeasible incumbent (-1) and a scan that sees only zeros past it
        f, calls = self.recorded(g)
        t, ft = optimizer._line_search(f, self.LO, self.HI, 0.5, -1.0, True)
        assert len(calls) == optimizer._COARSE_POINTS
        assert all(self.LO <= u <= self.HI for u in calls)
        assert (t, ft) == (calls[first], 0.0)

    @pytest.mark.parametrize("g", [lambda t: -t, lambda t: -abs(t - 0.05), lambda t: 0.0])
    def test_incumbent_on_the_bracket_edge_stays_inside(self, g):
        f, calls = self.recorded(g)
        t, ft = optimizer._line_search(f, self.LO, self.HI, self.LO, g(self.LO), False)
        assert calls and all(self.LO <= u <= self.HI for u in calls)
        assert self.LO <= t <= self.HI and ft >= g(self.LO)

    @pytest.mark.parametrize("scan", [False, True])
    def test_deterministic(self, scan):
        g, peak = self.SMOOTH[0]
        t0 = peak + 0.03
        runs = []
        for _ in range(2):
            f, calls = self.recorded(g)
            runs.append((optimizer._line_search(f, self.LO, self.HI, t0, g(t0), scan), calls))
        assert runs[0] == runs[1]


@st.composite
def pass_moves(draw):
    """A spec and two points of its box, a pass's start and end, so that
    their difference is the pass's net move. A weakest 2-decoy level near the
    box's mu2 floor makes the coupled intensity bounds bind."""
    variant = draw(st.sampled_from(list(Variant)))
    spec = OptimizationSpec(variant, mu3_min=draw(st.sampled_from([1e-6, 4.9e-3])))
    units = st.lists(st.floats(0.0, 1.0), min_size=spec.dimension, max_size=spec.dimension)
    start, x = _x_from_unit(spec, draw(units)), _x_from_unit(spec, draw(units))
    return spec, start, x


def in_box(spec, y, slack=1e-12):
    return all(lo - slack <= y[j] <= hi + slack
               for j, (lo, hi) in enumerate(optimizer._coordinate_bracket(spec, y, j)
                                            for j in range(spec.dimension)))


class TestExtrapolation:
    """``_extrapolate`` searches along a pass's net move d = x - start, from x
    forward to the nearest edge of the box that ``_coordinate_bracket``
    states, at most 3 d further, and to 0.01 in the step."""

    class Recorded:
        def __init__(self, spec, f):
            self.spec, self.f, self.points = spec, f, []

        def __call__(self, y):
            self.points.append(list(y))
            return self.f(y)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pass_moves())
    def test_climbs_to_the_box_edge_and_never_leaves_it(self, drawn):
        spec, start, x = drawn
        d = [b - a for a, b in zip(start, x)]
        # a pass moves an axis by a polish step or not at all
        assume(any(d) and all(v == 0.0 or abs(v) > 1e-9 for v in d))
        # rises along d without end: only the box stops the search
        objective = self.Recorded(spec, lambda y: sum(a * b for a, b in zip(y, d)))
        y, fy = optimizer._extrapolate(objective, start, x, objective(x))
        assert all(in_box(spec, point) for point in objective.points)
        j = max(range(spec.dimension), key=lambda i: abs(d[i]))
        s = (y[j] - x[j]) / d[j]
        assert s >= 3.0 - 0.01 or not in_box(spec, [a + (s + 0.01) * b for a, b in zip(x, d)], 0.0)
        assert fy == objective.f(y) >= objective.f(x)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_keeps_the_end_of_the_pass_unless_a_point_beats_it(self, variant):
        spec = OptimizationSpec(variant)
        start = _x_from_unit(spec, [0.3] * spec.dimension)
        x = _x_from_unit(spec, [0.4] * spec.dimension)
        objective = self.Recorded(spec, lambda y: -sum((a - b) ** 2 for a, b in zip(y, x)))
        y, fy = optimizer._extrapolate(objective, start, x, 0.0)
        assert y is x and fy == 0.0 and objective.points

    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_move_against_the_box_edge_costs_nothing(self, variant):
        # p_Z ends on its upper edge and moved up: no step forward is feasible
        spec = OptimizationSpec(variant)
        start = _x_from_unit(spec, [0.5] * spec.dimension)
        x = start[:-1] + [_PZ_RANGE[1]]
        objective = self.Recorded(spec, lambda y: 1.0)
        assert optimizer._extrapolate(objective, start, x, 1.0) == (x, 1.0)
        assert objective.points == []


class TestAdaptiveStarts:
    """The default starts are refined from the best raw value down until
    ``_AGREEING_STARTS`` of them agree on a key; the seeded and warm starts are
    refined first and never count. With the constant above ``starts`` every
    start is refined: the full search, the oracle here. snspd, n_Z = 1e7 unless
    stated otherwise."""

    @staticmethod
    def refined_defaults(monkeypatch, channel, sec, spec, warm_start=None):
        """Indices of the default starts that ``_refine`` runs from."""
        defaults = [
            tuple(_x_from_unit(spec, u)) for u in optimizer._unit_seeds(spec)[: spec.starts]
        ]
        refined = []

        def counted(objective, x0, f0, _original=optimizer._refine):
            if tuple(x0) in defaults:
                refined.append(defaults.index(tuple(x0)))
            return _original(objective, x0, f0)

        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_refine", counted)
            optimize_point(channel, sec, spec, warm_start=warm_start)
        return sorted(refined)

    @pytest.mark.parametrize("preset, n_z, variant, att, warm_from", [
        ("snspd", 1e7, Variant.ONE_DECOY, 26.0, None),
        ("snspd", 1e7, Variant.TWO_DECOY, 26.0, None),
        ("snspd", 1e7, Variant.ONE_DECOY, 56.0, None),
        ("snspd", 1e7, Variant.TWO_DECOY, 56.0, None),
        # Two basins, at mu2 = 0.081 (1466.799 Hz) and 0.090 (1466.653 Hz),
        # 9.9e-5 apart. Without the extrapolation step only default starts
        # #6 and #7 reached the upper one, and the cold search, which refines
        # #2, #5 and #0 first, ended 1.0244e-4 below the full one. Now #0,
        # #1, #6 and #7 reach it, and both searches pick the lower basin's
        # best point by the tie rule (within rel_tol, lower mu1 first).
        ("ingaas", 1e9, Variant.ONE_DECOY, 50.0, 40.0),
        ("ingaas", 1e9, Variant.ONE_DECOY, 50.0, None),
    ])
    def test_matches_the_full_search(self, monkeypatch, preset, n_z, variant, att, warm_from):
        sec = SecurityParams(1e-9, 1e-15, n_z)
        spec = OptimizationSpec(variant=variant)
        channel = channel_from_preset(preset, att)
        warm = None
        if warm_from is not None:
            warm = optimize_point(channel_from_preset(preset, warm_from), sec, spec)[0]
        default = optimize_point(channel, sec, spec, warm_start=warm)[1].skr_hz
        monkeypatch.setattr(optimizer, "_AGREEING_STARTS", spec.starts + 1)
        full = optimize_point(channel, sec, spec, warm_start=warm)[1].skr_hz
        assert full > 0.0
        assert default >= full * (1.0 - spec.rel_tol)

    def test_no_key_refines_every_default_start(self, monkeypatch):
        # at 66 dB every 1-decoy start stalls at zero, so none agree
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        spec = OptimizationSpec(variant=Variant.ONE_DECOY)
        channel = channel_from_preset("snspd", 66.0)
        assert self.refined_defaults(monkeypatch, channel, sec, spec) == list(range(spec.starts))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_extra_starts_leave_the_default_ones_alone(self, monkeypatch, variant):
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        spec = OptimizationSpec(variant=variant)
        channel = channel_from_preset("snspd", 46.0)
        alone = self.refined_defaults(monkeypatch, channel, sec, spec)
        assert 3 <= len(alone) < spec.starts
        warm = optimize_point(channel_from_preset("snspd", 45.0), sec, spec)[0]
        assert self.refined_defaults(monkeypatch, channel, sec, spec, warm) == alone
        seeded = replace(spec, seed_list=(5,))
        assert self.refined_defaults(monkeypatch, channel, sec, seeded) == alone

    def test_a_repeated_seed_is_refined_once(self, monkeypatch):
        """A seed listed twice gives one start vector: it is refined once,
        and the point is the one seeded once."""
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        channel = channel_from_preset("snspd", 46.0)
        results, calls = {}, []

        def counted(objective, x0, f0, _original=optimizer._refine):
            calls.append(x0)
            return _original(objective, x0, f0)

        monkeypatch.setattr(optimizer, "_refine", counted)
        for seeds in ((3,), (3, 3)):
            calls.clear()
            spec = OptimizationSpec(Variant.ONE_DECOY, seed_list=seeds)
            point = optimize_point(channel, sec, spec)
            results[seeds] = (len(calls), repr(point))
        assert results[(3,)][0] == 4
        assert results[(3, 3)] == results[(3,)]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_repeated_start_is_refined_once(self, monkeypatch, variant):
        """A sweep's warm start after a zero point is often bit-equal to a
        default start, as here. ``_refine`` runs once per distinct start
        vector, and the search ends where the cold one does. At 70 dB no
        start finds a key, so every default start is refined."""
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        spec = OptimizationSpec(variant=variant)
        channel = channel_from_preset("snspd", 70.0)
        defaults = [_x_from_unit(spec, u) for u in optimizer._unit_seeds(spec)]
        warm = next(
            params for params in (_params_from_x(spec, x) for x in defaults)
            if optimizer._x_from_params(spec, params) in defaults
        )
        cold = optimize_point(channel, sec, spec)
        refined = Counter()

        def counted(objective, x0, f0, _original=optimizer._refine):
            refined[tuple(x0)] += 1
            return _original(objective, x0, f0)

        monkeypatch.setattr(optimizer, "_refine", counted)
        assert optimize_point(channel, sec, spec, warm_start=warm) == cold
        assert sorted(refined) == sorted(map(tuple, defaults))
        assert set(refined.values()) == {1}


@st.composite
def objective_inputs(draw):
    """An objective over any channel and model switch setting and a
    coordinate vector: a start as ``_x_from_unit`` makes it, or one with an
    intensity pushed out of the ordering the search box keeps."""
    variant = draw(st.sampled_from(list(Variant)))
    spec = OptimizationSpec(variant=variant)
    unit = draw(st.lists(st.floats(0.0, 1.0), min_size=spec.dimension, max_size=spec.dimension))
    x = _x_from_unit(spec, unit)
    axis = draw(st.sampled_from([None, 0, 1]))
    if axis is not None:
        # scale one intensity by up to x2 or down to x0: above its upper
        # neighbour, below its lower one, or to zero
        x[axis] *= draw(st.floats(0.0, 2.0))
    channel = channel_from_preset(
        draw(st.sampled_from(sorted(DETECTOR_PRESETS))), draw(st.floats(0.0, 72.0))
    )
    sec = SecurityParams(
        1e-9, 1e-15, 10.0 ** draw(st.floats(5.0, 11.0)),
        s0_upper_mode=draw(st.sampled_from(S0_UPPER_MODES)),
    )
    channel = replace(channel, deadtime_mode=draw(st.sampled_from(DEADTIME_MODES)))
    return (channel, sec, spec), x


class TestObjectiveProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(objective_inputs())
    def test_objective_is_the_checked_rate(self, drawn):
        """The objective, which runs the simulator core on plain floats, is
        bit for bit the SKR of the checked pipeline on the same vector, and
        -1 exactly where building its ProtocolParams raises."""
        (channel, sec, spec), x = drawn
        try:
            params = _params_from_x(spec, x)
        except ParameterError:
            want = -1.0
        else:
            point = SimulationPoint(channel, params, sec)
            want = rate_point(point).skr_hz
        assert _Objective(channel, sec, spec)(x) == want


ONE_LEVELS = ((0.5, 0.1), (0.7, 0.3), 0.9)
TWO_LEVELS = ((0.5, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9)
ABOVE_MAX = math.nextafter(MAX_INTENSITY, math.inf)


class TestObjectiveFeasibilityBoundary:
    @pytest.mark.parametrize("variant, levels, valid", [
        (Variant.ONE_DECOY, ONE_LEVELS, True),
        (Variant.TWO_DECOY, TWO_LEVELS, True),
        (Variant.ONE_DECOY, ((math.nan, 0.1), (0.7, 0.3), 0.9), False),
        (Variant.ONE_DECOY, ((0.5, math.nan), (0.7, 0.3), 0.9), False),
        (Variant.TWO_DECOY, ((math.inf, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9), False),
        (Variant.ONE_DECOY, ((MAX_INTENSITY, 0.1), (0.7, 0.3), 0.9), True),
        (Variant.ONE_DECOY, ((ABOVE_MAX, 0.1), (0.7, 0.3), 0.9), False),
        (Variant.TWO_DECOY, ((MAX_INTENSITY, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9), True),
        (Variant.TWO_DECOY, ((ABOVE_MAX, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9), False),
        (Variant.ONE_DECOY, ((0.3, 0.3), (0.7, 0.3), 0.9), False),
        (Variant.TWO_DECOY, ((0.5, 0.2, 0.2), (0.6, 0.3, 0.1), 0.9), False),
        (Variant.ONE_DECOY, ((0.5, 0.1), (0.7, 0.3 + 2e-12), 0.9), False),
        (Variant.ONE_DECOY, ((0.5, 0.1), (0.7, 0.3 + 5e-13), 0.9), True),
        (Variant.TWO_DECOY, ((0.5, 0.2, 1e-6), (0.6, 0.3, 0.1 - 2e-12), 0.9), False),
        (Variant.ONE_DECOY, ((0.5, 0.1), (0.7, 0.3), 0.0), False),
        (Variant.ONE_DECOY, ((0.5, 0.1), (0.7, 0.3), 1.0), False),
        (Variant.TWO_DECOY, ((0.5, 0.2, 1e-6), (0.6, 0.3, 0.1), 1.0), False),
    ])
    def test_scores_minus_one_exactly_where_protocol_params_raises(
        self, monkeypatch, variant, levels, valid
    ):
        """The objective's feasibility test is ProtocolParams' own rules: on
        levels at and just past each rule's edge it scores -1 where building
        the record raises, and rate_point's SKR where it does not."""
        channel = channel_from_preset("snspd", 26.0)
        spec = OptimizationSpec(variant)
        try:
            params = ProtocolParams(variant, *levels)
        except ParameterError:
            want = -1.0
        else:
            want = rate_point(SimulationPoint(channel, params, SEC)).skr_hz
            assert want >= 0.0
        assert (want != -1.0) is valid
        objective = _Objective(channel, SEC, spec)
        monkeypatch.setattr(objective, "levels", lambda x, mu3: levels)
        assert objective([0.0] * spec.dimension) == want


def _refuse():
    raise ParameterError("optimize_point: 2-decoy chain refused")


class TestSweep:
    def test_single_point_both_variants(self):
        result = sweep(
            channel_from_preset("snspd", 30.0),
            [30.0],
            SEC,
            [fast_spec(Variant.ONE_DECOY), fast_spec(Variant.TWO_DECOY)],
        )
        assert len(result.rows) == 2
        assert result.rows[0].variant is Variant.ONE_DECOY

    def test_rows_sorted_and_unique(self):
        result = sweep(
            channel_from_preset("snspd", 20.0),
            [40.0, 20.0, 30.0],
            SEC,
            [fast_spec(Variant.ONE_DECOY)],
        )
        assert [r.attenuation_db for r in result.rows] == [20.0, 30.0, 40.0]

    def test_negative_zero_is_zero(self):
        """-0.0 dB is the point at 0 dB, so its row reads 0.0 and not -0.0."""
        result = sweep(channel_from_preset("snspd", 20.0), [-0.0], SEC,
                       [fast_spec(Variant.ONE_DECOY)])
        assert repr(result.rows[0].attenuation_db) == "0.0"

    def test_empty_grid(self):
        with pytest.raises(ParameterError):
            sweep(channel_from_preset("snspd", 20.0), [], SEC, [fast_spec(Variant.ONE_DECOY)])

    @pytest.mark.parametrize("variants", [(), (Variant.ONE_DECOY, Variant.ONE_DECOY)])
    def test_specs_checked_before_any_work(self, monkeypatch, variants):
        """No spec, or two of one variant, is rejected naming ``specs``
        before a point is optimized."""
        calls = []
        monkeypatch.setattr(optimizer, "_search", lambda *args: calls.append(args))
        specs = (fast_spec(v) for v in variants)
        with pytest.raises(ParameterError, match=r"^specs: expected one or more distinct"):
            sweep(channel_from_preset("snspd", 20.0), [20.0, 30.0], SEC, specs)
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_attenuations_checked_before_any_work(self, monkeypatch, bad):
        """A NaN, negative or infinite attenuation is rejected, naming it,
        before a point is optimized or a worker forked."""
        calls = []
        monkeypatch.setattr(optimizer, "_search", lambda *args: calls.append(args))
        forks = use_cores(monkeypatch, {0, 1})
        specs = [fast_spec(Variant.ONE_DECOY), fast_spec(Variant.TWO_DECOY)]
        message = rf"^attenuation_db: must be finite and >= 0, got {bad!r}$"
        with pytest.raises(ParameterError, match=message):
            sweep(channel_from_preset("snspd", 26.0), [26.0, 46.0, bad], SEC, specs)
        assert calls == [] and forks == []

    @pytest.mark.parametrize("bad", ["x", None, "26", True, 1j])
    def test_a_grid_value_that_is_no_number_is_named(self, monkeypatch, bad):
        """Each attenuation must be an int or a float, no bool; anything else
        is rejected, naming the key, before a point is optimized or a worker
        forked. Text is not converted: the CLI converts its own values."""
        calls = []
        monkeypatch.setattr(optimizer, "_search", lambda *args: calls.append(args))
        forks = use_cores(monkeypatch, {0, 1})
        message = rf"^att_grid: must be a number, got {re.escape(repr(bad))}$"
        with pytest.raises(ParameterError, match=message):
            sweep(channel_from_preset("snspd", 26.0), [26.0, bad], SEC,
                  [fast_spec(Variant.ONE_DECOY)])
        assert calls == [] and forks == []

    @pytest.mark.parametrize("count, workers, shares", [
        (4, 2, [0, 1, 1, 0]),
        (5, 2, [0, 1, 1, 0, 0]),
        (6, 3, [0, 1, 2, 2, 1, 0]),
    ])
    def test_tasks_are_dealt_in_snake_order(self, monkeypatch, count, workers, shares):
        """Round r of one task per share goes forward where r is even and
        backward where it is odd: of 4 tasks on 2 cores, tasks 1 and 4 run in
        one process and tasks 2 and 3 in the other. The parent runs share 0."""
        forks = use_cores(monkeypatch, set(range(workers)))
        pids = optimizer._run_tasks([(f"task {i + 1}", os.getpid) for i in range(count)])
        assert len(forks) == workers - 1
        assert_no_child_left()
        by_share = [{pid for pid, to in zip(pids, shares) if to == i} for i in range(workers)]
        assert by_share[0] == {os.getpid()}
        assert all(len(share) == 1 for share in by_share)
        assert len(set(pids)) == workers

    # Where two cores are usable, a sweep forks once. The walks are dealt in
    # snake order: the parent walks the first chain up and the second down, a
    # worker the first down and the second up. Its rows and failures are the
    # serial run's.
    @staticmethod
    def both_variants():
        specs = [fast_spec(Variant.ONE_DECOY, starts=1), fast_spec(Variant.TWO_DECOY, starts=1)]
        return sweep(channel_from_preset("snspd", 26.0), [26.0, 46.0], SEC, specs)

    def test_rows_identical_for_any_core_count(self, monkeypatch):
        rows = {}
        for cores in ({0}, {0, 1}):
            forks = use_cores(monkeypatch, cores)
            rows[len(cores)] = repr(self.both_variants().rows)
            assert len(forks) == len(cores) - 1
            assert_no_child_left()
        assert rows[1] == rows[2]

    def test_one_spec_shares_its_points(self, monkeypatch):
        """One chain's two walks share the cores too, with the rows of the
        one-core run."""
        rows = {}
        for cores in ({0}, {0, 1}):
            forks = use_cores(monkeypatch, cores)
            result = sweep(channel_from_preset("snspd", 26.0), [26.0, 46.0, 56.0], SEC,
                           [fast_spec(Variant.ONE_DECOY, starts=2)])
            rows[len(cores)] = repr(result.rows)
            assert len(result.rows) == 3 and len(forks) == len(cores) - 1
            assert_no_child_left()
        assert rows[1] == rows[2]

    def test_single_points_walk_in_the_process(self, monkeypatch):
        """With one point per chain there is no warm start to refine: only the
        searches fork."""
        forks = use_cores(monkeypatch, {0, 1})
        specs = [fast_spec(Variant.ONE_DECOY, starts=1), fast_spec(Variant.TWO_DECOY, starts=1)]
        result = sweep(channel_from_preset("snspd", 26.0), [26.0], SEC, specs)
        assert len(result.rows) == 2 and len(forks) == 1
        assert_no_child_left()

    def test_in_process_beside_other_threads_or_without_fork(self, monkeypatch):
        forks = use_cores(monkeypatch, {0, 1})
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            rows = repr(self.both_variants().rows)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive() and forks == []
        monkeypatch.delattr(os, "fork")
        assert repr(self.both_variants().rows) == rows

    @pytest.mark.parametrize("in_child, error, message", [
        (_refuse, ParameterError, r"^optimize_point: 2-decoy chain refused$"),
        (lambda: os._exit(3), RuntimeError,
         r"^the worker for one-decoy walk down from 46 dB, n_Z=1e\+06; two-decoy walk up "
         r"from 26 dB, n_Z=1e\+06 exited without a result \(exit status 3\)$"),
    ], ids=["raises", "dies"])
    def test_a_failing_chain_fails_in_the_parent(self, monkeypatch, in_child, error, message):
        """The child's exception is raised again in the parent; a child that
        dies is named by its walks. The child walks the 1-decoy chain down and
        the 2-decoy chain up, and dies or raises in a cold search."""
        parent, search = os.getpid(), optimizer._search

        def fake(channel, sec, spec):
            if os.getpid() != parent:
                in_child()
            return search(channel, sec, spec)

        monkeypatch.setattr(optimizer, "_search", fake)
        forks = use_cores(monkeypatch, {0, 1})
        with pytest.raises(error, match=message):
            self.both_variants()
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_walk_that_dies_is_named(self, monkeypatch):
        """A child that dies in a warm step, refining from the optimum its
        cold search found, is named by its walks too."""
        parent, refine = os.getpid(), optimizer._refine

        def fake(objective, x0, f0, scan=True):
            units = optimizer._unit_seeds(objective.spec)
            if os.getpid() != parent and x0 not in [_x_from_unit(objective.spec, u) for u in units]:
                os._exit(3)
            return refine(objective, x0, f0, scan)

        monkeypatch.setattr(optimizer, "_refine", fake)
        forks = use_cores(monkeypatch, {0, 1})
        message = (r"^the worker for one-decoy walk down from 46 dB, n_Z=1e\+06; two-decoy walk "
                   r"up from 26 dB, n_Z=1e\+06 exited without a result \(exit status 3\)$")
        with pytest.raises(RuntimeError, match=message):
            self.both_variants()
        assert len(forks) == 1
        assert_no_child_left()


class TestWalks:
    """A chain of several points is walked up from its lowest attenuation and
    down from its highest, each walk refining from the last keyed optimum it
    carries; the rows may differ from a chain of ``optimize_point`` calls
    within ``rel_tol``. Counted in one process, on one core."""

    @staticmethod
    def reference_chain(preset, grid, sec, spec):
        """Each point's ``optimize_point``, warm-started from the previous row."""
        rates, warm = [], None
        for att in grid:
            warm, rate = reference_optimize_point(channel_from_preset(preset, att), sec, spec, warm)
            rates.append(rate.skr_hz)
        return rates

    def test_one_point_is_the_cold_search(self):
        spec = fast_spec(Variant.TWO_DECOY)
        channel = channel_from_preset("snspd", 46.0)
        row = sweep(channel, [46.0], SEC, [spec]).rows[0]
        assert repr((row.params, row.rate)) == repr(optimize_point(channel, SEC, spec))

    def test_each_walk_keeps_a_basin_the_other_misses(self, monkeypatch):
        """snspd, n_Z = 1e11, 2-decoy, 42-56 dB: at 52 dB the walk up ends in
        the lower basin (1132.3 Hz) and the walk down from 56 dB in the upper
        one (1149.4 Hz); at 50 dB the walk down ends 5.9e-3 below the walk up.
        No row ends more than rel_tol below the chain of warm-started cold
        searches."""
        use_cores(monkeypatch, {0})
        sec = SecurityParams(1e-9, 1e-15, 1e11)
        spec = OptimizationSpec(Variant.TWO_DECOY)
        grid = [42.0, 44.0, 46.0, 48.0, 50.0, 52.0, 54.0, 56.0]
        result = sweep(channel_from_preset("snspd", 42.0), grid, sec, [spec])
        for row, reference in zip(result.rows, self.reference_chain("snspd", grid, sec, spec)):
            assert row.rate.skr_hz >= reference * (1.0 - spec.rel_tol), row.attenuation_db
        assert result.row(52.0, Variant.TWO_DECOY).rate.skr_hz > 1149.0

    def test_a_warm_step_from_a_keyed_optimum_scans_no_axis(self, monkeypatch):
        """snspd, n_Z = 1e7, 1-decoy. The walk up refines 48 dB from the 46 dB
        optimum, which has a key there, without a scan; at 70 dB the carried
        optimum has none, so that refinement scans each axis. The walk down
        searches 70 and 48 dB cold and refines 46 dB without a scan."""
        warm = []

        def fake(objective, x0, f0, *scan, _original=optimizer._refine):
            if scan:  # a walk's warm step; a search passes no flag
                warm.append((f0 > 0.0, *scan))
            return _original(objective, x0, f0, *scan)

        monkeypatch.setattr(optimizer, "_refine", fake)
        use_cores(monkeypatch, {0})
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        sweep(channel_from_preset("snspd", 46.0), [46.0, 48.0, 70.0], sec,
              [OptimizationSpec(Variant.ONE_DECOY)])
        assert sorted(warm) == [(False, True), (True, False), (True, False)]

    def test_a_walk_at_zero_falls_back_to_the_previous_row(self, monkeypatch):
        """Reach seed 6's 1-decoy grid (snspd, n_Z = 1e7): at 66.47 dB both
        walks end at zero, and only the previous row's winner, refined as a
        warm start, finds the key of 0.49266 Hz."""
        use_cores(monkeypatch, {0})
        grid = [60.793, 61.822, 62.485, 63.262, 64.0, 65.663, 66.47, 67.76, 68.373, 69.77,
                70.273, 71.802]
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        result = sweep(channel_from_preset("snspd", 60.0), grid, sec,
                       [OptimizationSpec(Variant.ONE_DECOY)])
        assert result.row(66.47, Variant.ONE_DECOY).rate.skr_hz > 0.4926

    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_keyless_chain_costs_one_plateau_refine_more_per_point(self, monkeypatch, variant):
        """Past the cutoff a cold search costs 8 raw evaluations and 8
        unpolished 12-point scans per axis, and the previous row's winner is a
        default start it refined, so a chain of cold searches costs that per
        point. The walk down searches each point but the lowest cold, the
        walk up the lowest; the walk up refines the others from its plateau,
        one raw evaluation and one scan per axis each. The perfect-decoy
        certificate is off, as 72 and 74 dB are certified keyless, where a
        refinement from zero costs nothing (``TestCertifiedZeros``)."""
        calls = Counter()

        def counted(objective, x, _original=_Objective.__call__):
            calls["objective"] += 1
            return _original(objective, x)

        monkeypatch.setattr(_Objective, "__call__", counted)
        monkeypatch.setattr(optimizer, "_keyless", lambda *args: False)
        use_cores(monkeypatch, {0})
        spec = OptimizationSpec(variant)
        grid = [70.0, 72.0, 74.0]
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        result = sweep(channel_from_preset("snspd", 70.0), grid, sec, [spec])
        assert all(row.rate.skr_hz == 0.0 for row in result.rows)
        plateau = 1 + 12 * spec.dimension
        assert calls["objective"] <= len(grid) * (8 * plateau + plateau)


class TestCertifiedZeros:
    """Where ``simulator._keyless`` certifies that no levels in the box give a
    key, a refinement from a zero start returns its start at once: its passes
    would evaluate rates <= 0 only, and a line search moves only on a strict
    gain. The rows stay repr for repr; only the evaluations fall."""

    SEC = SecurityParams(1e-9, 1e-15, 1e7)

    @staticmethod
    def counted(monkeypatch) -> Counter:
        """Count the objective's calls and the certificate's."""
        calls = Counter()

        def objective(self, x, _original=_Objective.__call__):
            calls["objective"] += 1
            return _original(self, x)

        def keyless(*args, _original=optimizer._keyless):
            calls["keyless"] += 1
            return _original(*args)

        monkeypatch.setattr(_Objective, "__call__", objective)
        monkeypatch.setattr(optimizer, "_keyless", keyless)
        return calls

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("starts, seed_list", [(8, ()), (3, (11, 12))])
    def test_a_certified_point_costs_one_evaluation_per_start(
        self, monkeypatch, variant, starts, seed_list
    ):
        """At snspd 72 dB, n_Z = 1e7, past the certified cutoff of 70.39 dB, a
        cold search is the raw value of each start, 0 Hz, and one certificate."""
        calls = self.counted(monkeypatch)
        spec = OptimizationSpec(variant, starts=starts, seed_list=seed_list)
        _, rate = optimize_point(channel_from_preset("snspd", 72.0), self.SEC, spec)
        assert rate.skr_hz == 0.0
        assert calls == {"objective": starts + len(seed_list), "keyless": 1}

    def test_sweeps_across_the_cutoffs_keep_their_bytes(self, monkeypatch):
        """snspd 66-76 dB and ingaas 78-84 dB in 0.5 dB steps, both variants,
        on one core: the rows with the certificate forced off are repr-equal,
        at more evaluations."""
        use_cores(monkeypatch, {0})
        calls = self.counted(monkeypatch)
        specs = [OptimizationSpec(variant) for variant in Variant]
        runs = []
        for certify in (True, False):
            if not certify:
                monkeypatch.setattr(optimizer, "_keyless", lambda *args: False)
            calls.clear()
            rows = [sweep(channel_from_preset(preset, low), [low + 0.5 * i for i in range(steps)],
                          self.SEC, specs).rows
                    for preset, low, steps in (("snspd", 66.0, 21), ("ingaas", 78.0, 13))]
            runs.append((repr(rows), calls["objective"]))
        (certified, certified_calls), (searched, searched_calls) = runs
        assert certified == searched
        assert certified_calls < searched_calls


def _warm_starts(spec, channel, sec, protocol, refined):
    """The warm starts a point of a sweep meets, by kind: none, the previous
    optimum (here the drawn protocol), one bit-equal to a default start that
    ``_search`` refined (``refined`` holds its results by start vector) and
    one bit-equal to a default start it did not, one bit-equal to the seeded
    start, and the winner of a zero point. None where no start of a kind
    comes back bit-equal from ``ProtocolParams``."""
    def bit_equal(x):
        params = _params_from_x(spec, x)
        return params if optimizer._x_from_params(spec, params) == x else None

    units = optimizer._unit_seeds(spec)
    defaults = [_x_from_unit(spec, u) for u in units[: spec.starts]]
    equal = [(tuple(x) in refined, bit_equal(x)) for x in defaults]
    return {
        "none": None,
        "drawn": protocol,
        "refined default": next((p for done, p in equal if done and p), None),
        "unrefined default": next((p for done, p in equal if not done and p), None),
        "seeded": bit_equal(_x_from_unit(spec, units[-1])),
        "zero": optimize_point(replace(channel, attenuation_db=90.0), sec, spec)[0],
    }


class TestSplitSearch:
    """``optimize_point`` is ``_search``, which never reads the warm start,
    then ``_settle``. A sweep runs them in different processes, so the first
    step's result crosses a pipe as a pickle. Both must give what the search
    as one function gives (``reference_optimize_point``), repr for repr."""

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(keyed_points())
    def test_the_steps_run_apart_give_the_one_search(self, point):
        spec = OptimizationSpec(point.protocol.variant, seed_list=(1,))
        channel, sec = point.channel, point.sec
        searched = optimizer._search(channel, sec, spec)
        apart = pickle.loads(pickle.dumps(searched))
        warm_starts = _warm_starts(spec, channel, sec, point.protocol, searched[1])
        for kind, warm in warm_starts.items():
            if warm is None and kind != "none":
                continue
            want = repr(reference_optimize_point(channel, sec, spec, warm))
            assert repr(optimizer._settle(channel, sec, spec, apart, warm)) == want, kind
            assert repr(optimize_point(channel, sec, spec, warm)) == want, kind

    @pytest.mark.parametrize("variant, reused, refined", [
        (Variant.ONE_DECOY, {"seeded"}, {"drawn", "unrefined default", "zero"}),
        (Variant.TWO_DECOY, {"seeded", "refined default", "zero"}, {"drawn", "unrefined default"}),
    ])
    def test_a_warm_start_refined_in_the_search_is_reused(self, monkeypatch, variant, reused,
                                                          refined):
        """At 46 dB (snspd, n_Z = 1e7) the draws above meet each kind of warm
        start. One bit-equal to a start that ``_search`` refined takes that
        result, and ``_settle`` refines nothing; any other is refined once."""
        spec = OptimizationSpec(variant, seed_list=(1,))
        channel = channel_from_preset("snspd", 46.0)
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        protocol, _ = optimize_point(channel_from_preset("snspd", 45.0), sec, spec)
        searched = optimizer._search(channel, sec, spec)
        warm_starts = _warm_starts(spec, channel, sec, protocol, searched[1])
        assert {k for k, w in warm_starts.items() if w is not None} == reused | refined
        calls = []

        def counted(objective, x0, f0, _original=optimizer._refine):
            calls.append(x0)
            return _original(objective, x0, f0)

        monkeypatch.setattr(optimizer, "_refine", counted)
        for kind in reused | refined:
            want = repr(reference_optimize_point(channel, sec, spec, warm_starts[kind]))
            calls.clear()
            got = optimizer._settle(channel, sec, spec, searched, warm_starts[kind])
            assert repr(got) == want, kind
            assert len(calls) == (kind in refined), kind


def _zero_rate(**overrides):
    fields = dict(
        s0_lower=0.0,
        s0_upper=None,
        s1_lower_z=0.0,
        s1_lower_x=0.0,
        v1_upper_x=0.0,
        phase_error_upper=0.5,
        lambda_ec=0.0,
        key_length=0.0,
        skr_hz=0.0,
        qber_z=0.0,
        acquisition_s=1.0,
        status="no_key",
    )
    fields.update(overrides)
    return RatePoint(**fields)


def _row(att, variant, skr):
    params = (
        ProtocolParams(variant, (0.5, 0.1), (0.7, 0.3), 0.9)
        if variant is Variant.ONE_DECOY
        else ProtocolParams(variant, (0.5, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9)
    )
    rate = _zero_rate() if skr == 0.0 else _zero_rate(
        skr_hz=skr, key_length=skr, status="ok", phase_error_upper=0.05
    )
    return SweepRow(att, variant, params, rate)


class TestCompareProtocols:
    def test_equal_rates_give_zero(self):
        result = SweepResult((
            _row(30.0, Variant.ONE_DECOY, 100.0),
            _row(30.0, Variant.TWO_DECOY, 100.0),
        ))
        rows = compare_protocols(result)
        assert rows[0].rel_difference == 0.0

    def test_formula(self):
        result = SweepResult((
            _row(30.0, Variant.ONE_DECOY, 243.0),
            _row(30.0, Variant.TWO_DECOY, 236.0),
        ))
        assert compare_protocols(result)[0].rel_difference == pytest.approx(
            (243.0 - 236.0) / 236.0
        )

    def test_dead_two_decoy_is_not_applicable(self):
        result = SweepResult((
            _row(60.0, Variant.ONE_DECOY, 10.0),
            _row(60.0, Variant.TWO_DECOY, 0.0),
        ))
        assert compare_protocols(result)[0].rel_difference is None

    def test_nearby_attenuations_are_paired_exactly(self):
        near = 26.00000001
        result = SweepResult((
            _row(26.0, Variant.ONE_DECOY, 100.0),
            _row(26.0, Variant.TWO_DECOY, 90.0),
            _row(near, Variant.ONE_DECOY, 80.0),
            _row(near, Variant.TWO_DECOY, 70.0),
        ))
        rows = compare_protocols(result)
        assert [(r.attenuation_db, r.skr_one_hz, r.skr_two_hz) for r in rows] == [
            (26.0, 100.0, 90.0), (near, 80.0, 70.0),
        ]
        assert result.row(near, Variant.TWO_DECOY).rate.skr_hz == 70.0

    def test_missing_variant_is_structural_error(self):
        result = SweepResult((_row(30.0, Variant.ONE_DECOY, 10.0),))
        with pytest.raises(ValueError, match="two-decoy"):
            compare_protocols(result)

    def test_row_lookup(self):
        """A row is found by an equal attenuation, so 0.0 finds the row at
        -0.0 and 26 the row at 26.0; a missing pair is named."""
        result = SweepResult((
            _row(26.0, Variant.ONE_DECOY, 100.0),
            _row(-0.0, Variant.TWO_DECOY, 90.0),
        ))
        assert result.attenuations() == (-0.0, 26.0)
        assert result.row(0.0, Variant.TWO_DECOY) is result.rows[0]
        assert result.row(26, Variant.ONE_DECOY) is result.rows[1]
        with pytest.raises(ValueError, match=r"^no two-decoy row at 26\.0 dB$"):
            result.row(26.0, Variant.TWO_DECOY)

    def test_lookup_is_no_field(self):
        """``repr``, ``==``, ``hash`` and ``replace`` see the rows only."""
        rows = (_row(30.0, Variant.ONE_DECOY, 10.0), _row(30.0, Variant.TWO_DECOY, 5.0))
        result = SweepResult(rows)
        assert repr(result) == f"SweepResult(rows={rows!r})"
        assert result == SweepResult(rows[::-1])
        assert hash(result) == hash(SweepResult(rows[::-1]))
        changed = replace(result, rows=rows[:1])
        assert changed.rows == rows[:1] and changed.attenuations() == (30.0,)
        with pytest.raises(ValueError, match="no two-decoy row"):
            changed.row(30.0, Variant.TWO_DECOY)

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            SweepResult((
                _row(30.0, Variant.ONE_DECOY, 10.0),
                _row(30.0, Variant.ONE_DECOY, 11.0),
            ))
