"""Optimizer behaviour: feasibility, determinism, tie-breaking machinery,
sweeps and protocol comparison. Heavy reproduction runs live in the
acceptance suite; these tests use reduced effort settings."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from decoyqkd import (
    BoundOptions,
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
from decoyqkd.bounds import S0_UPPER_MODES
from decoyqkd.optimizer import (
    SweepResult,
    SweepRow,
    _Objective,
    _params_from_x,
    _x_from_unit,
)
from decoyqkd.simulator import DEADTIME_MODES, DETECTOR_PRESETS

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
            assert spec.mu1_range[0] <= params.intensities[0] <= spec.mu1_range[1]
            assert spec.pz_range[0] <= params.basis_prob_z <= spec.pz_range[1]
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

    def test_whole_number_box_bound(self):
        # the warm start's mu1 = 1.1 clamps to the box bound, here the int 1
        spec = fast_spec(Variant.ONE_DECOY, mu1_range=(0.05, 1))
        warm = ProtocolParams(Variant.ONE_DECOY, (1.1, 0.1), (0.7, 0.3), 0.9)
        channel = channel_from_preset("snspd", 30.0)
        _, rate = optimize_point(channel, SEC, spec, warm_start=warm)
        assert rate.skr_hz > 0.0

    def test_no_valid_start_names_the_rule(self):
        # every intensity mu1 of this box lies above MAX_INTENSITY
        spec = fast_spec(Variant.ONE_DECOY, mu1_range=(750.0, 800.0))
        with pytest.raises(ParameterError, match="each level must lie in"):
            optimize_point(channel_from_preset("snspd", 30.0), SEC, spec)

    def test_unknown_deadtime_mode_rejected(self):
        spec = fast_spec(Variant.ONE_DECOY)
        with pytest.raises(ParameterError, match="deadtime_mode"):
            optimize_point(channel_from_preset("snspd", 30.0), SEC, spec, deadtime_mode="both")

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            OptimizationSpec(variant=Variant.ONE_DECOY, mu1_range=(0.5, 0.2))
        with pytest.raises(ParameterError):
            OptimizationSpec(variant=Variant.ONE_DECOY, mu2_min=2.0)
        with pytest.raises(ParameterError):
            OptimizationSpec(variant=Variant.ONE_DECOY, pz_range=(0.4, 0.9))
        with pytest.raises(ParameterError):
            OptimizationSpec(variant=Variant.ONE_DECOY, starts=0)

    @pytest.mark.parametrize("field, value", [
        ("starts", 2.5),
        ("starts", "3"),
        ("max_evals", 1e3 + 0.5),
        ("max_evals", float("inf")),
        ("seed_list", (1, 1.7)),
        ("seed_list", (float("nan"),)),
    ])
    def test_non_integral_effort_names_the_field(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be a whole number"):
            OptimizationSpec(variant=Variant.ONE_DECOY, **{field: value})

    def test_integral_floats_are_converted(self):
        spec = OptimizationSpec(Variant.ONE_DECOY, starts=3.0, max_evals=1e3, seed_list=(7.0,))
        assert (spec.starts, spec.max_evals, spec.seed_list) == (3, 1000, (7,))
        assert all(type(v) is int for v in (spec.starts, spec.max_evals, *spec.seed_list))


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
    pass of each start scans an axis; later passes polish near the incumbent,
    and that must neither cost scans nor lose the optimum."""

    @pytest.mark.parametrize("variant, budget", [
        (Variant.ONE_DECOY, 3000),
        (Variant.TWO_DECOY, 4200),
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


@st.composite
def objective_inputs(draw):
    """An objective over any channel and option setting and a coordinate
    vector: a start as ``_x_from_unit`` makes it, or one with an intensity
    pushed out of the ordering the search box keeps."""
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
    sec = SecurityParams(1e-9, 1e-15, 10.0 ** draw(st.floats(5.0, 11.0)))
    options = BoundOptions(s0_upper_mode=draw(st.sampled_from(S0_UPPER_MODES)))
    deadtime_mode = draw(st.sampled_from(DEADTIME_MODES))
    return (channel, sec, spec, options, deadtime_mode), x


class TestObjectiveProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(objective_inputs())
    def test_objective_is_the_checked_rate(self, drawn):
        """The objective, which runs the simulator core on plain floats, is
        bit for bit the SKR of the checked pipeline on the same vector, and
        -1 exactly where building its ProtocolParams raises."""
        (channel, sec, spec, options, deadtime_mode), x = drawn
        try:
            params = _params_from_x(spec, x)
        except ParameterError:
            want = -1.0
        else:
            point = SimulationPoint(channel, params, sec)
            want = rate_point(point, options, deadtime_mode).skr_hz
        assert _Objective(channel, sec, spec, options, deadtime_mode)(x) == want


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

    def test_empty_grid(self):
        with pytest.raises(ParameterError):
            sweep(channel_from_preset("snspd", 20.0), [], SEC, [fast_spec(Variant.ONE_DECOY)])


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

    def test_missing_variant_is_structural_error(self):
        result = SweepResult((_row(30.0, Variant.ONE_DECOY, 10.0),))
        with pytest.raises(ValueError, match="two-decoy"):
            compare_protocols(result)

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ParameterError, match="duplicate"):
            SweepResult((
                _row(30.0, Variant.ONE_DECOY, 10.0),
                _row(30.0, Variant.ONE_DECOY, 11.0),
            ))
