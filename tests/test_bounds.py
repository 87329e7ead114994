"""Finite-key estimation chain: frozen oracle values, clamping, limits, and
the sandwich property against the per-photon-number expansion."""

import math
import random
from collections import Counter

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from decoyqkd import (
    Basis,
    BoundInputs,
    EpsilonBudget,
    InsufficientStatisticsError,
    NoDetectionsError,
    NoKeyError,
    Observations,
    ParameterError,
    ProtocolParams,
    SecurityParams,
    SimulationPoint,
    Variant,
    corrected_count,
    epsilon_budget,
    estimate_key,
    expected_observations,
    phase_error_fluctuation,
    phase_error_upper,
    photon_number_prob,
    single_photon_lower,
    vacuum_events_lower,
    vacuum_events_upper,
)
from decoyqkd import bounds
from decoyqkd.model import DEADTIME_MODES, MIN_EPS, S0_UPPER_MODES, hoeffding_delta
from decoyqkd.simulator import _Link

import conftest
from conftest import (
    ASYMPTOTIC_BUDGET,
    BUILD_PATHS,
    keyed_points,
    oracle_photon_counts,
    random_point,
    record_builds,
    reference_estimate,
    round_trips,
    sandwich_violations,
    stage_locals,
    valid_points,
    with_switches,
)

# mpmath (50 dps) reference values
DELTA_1E6_1E9 = 3218.9490394340209     # sqrt(1e6 * ln(1e9) / 2)
DELTA_1E7_1E9 = 10179.210636622668     # sqrt(1e7 * ln(1e9) / 2)
CORRECTED_PLUS = 2379291.3597080928    # (e^0.5/0.7) * (1e6 + DELTA_1E7_1E9)
S0_UPPER_EXAMPLE = 946.56792307107947  # 2*(0.5*(e^0.1/0.3)*(50+delta(100,1e-9)) + delta(1e4,1e-9))
V1_BRACKET = 717.17016796857170        # ((e^0.5/0.7)*200 - (e^0.1/0.3)*50) / 0.4
GAMMA_EXAMPLE = 0.0065262946695227257  # gamma(1e-9, 0.05, 1e6, 1e5), 21^2 constant
LAMBDA_EXAMPLE = 937200.3763925696     # 1.16 * 1e7 * h(0.01)
PENALTY_ONE_DECOY = 255.70060362788951  # 6*log2(19/1e-9) + log2(2/1e-15)


def make_obs(
    intensities,
    detections_z,
    errors_z,
    detections_x=None,
    errors_x=None,
    pulses=None,
):
    detections_x = detections_x if detections_x is not None else detections_z
    errors_x = errors_x if errors_x is not None else errors_z
    n_z, n_x = sum(detections_z), sum(detections_x)
    return Observations(
        intensities=intensities,
        detections_z=tuple(detections_z),
        errors_z=tuple(errors_z),
        detections_x=tuple(detections_x),
        errors_x=tuple(errors_x),
        pulses_sent=pulses if pulses is not None else 10.0 * (n_z + n_x) + 1.0,
    )


def make_inputs(params, obs, eps1=1.0, eps2=None, eps_sec=1e-9, ec=1.05, **switches):
    budget = EpsilonBudget(eps1, eps1 if eps2 is None else eps2)
    sec = SecurityParams(eps_sec, 1e-15, max(sum(obs.detections_z), 1.0), ec, **switches)
    return BoundInputs(params=params, sec=sec, obs=obs, budget=budget)


class TestEpsilonBudget:
    def test_one_decoy_split(self):
        params = ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), 0.9)
        budget = epsilon_budget(params, SecurityParams(1e-9, 1e-15, 1e7))
        # eps_sec / b with b = 19 for one decoy
        assert budget.eps1 == budget.eps2 == 1e-9 / 19

    def test_two_decoy_split(self):
        params = ProtocolParams(Variant.TWO_DECOY, (0.5, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9)
        budget = epsilon_budget(params, SecurityParams(1e-9, 1e-15, 1e7))
        # eps_sec / b with b = 21 for two decoys
        assert budget.eps1 == budget.eps2 == 1e-9 / 21

    def test_definition(self):
        params = ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), 0.9)
        budget = epsilon_budget(params, SecurityParams(19e-6, 1e-15, 1e7))
        assert budget.eps1 == pytest.approx(1e-6, rel=1e-12)

    def test_invariants(self):
        with pytest.raises(ParameterError):
            EpsilonBudget(0.0, 0.5)
        # eps = 1 is legal: it disables the deviations for asymptotic runs
        assert EpsilonBudget(1.0, 1.0).eps1 == 1.0

    def test_inputs_intensities_must_match(self):
        params = ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), 0.9)
        obs = make_obs((0.5, 0.2), (100.0, 50.0), (1.0, 0.5))
        with pytest.raises(ParameterError, match="intensities"):
            BoundInputs(params, SecurityParams(1e-9, 1e-15, 150.0), obs, EpsilonBudget(0.5, 0.5))

    def test_inputs_cell_count_must_match(self):
        params = ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), 0.9)
        obs = make_obs((0.5, 0.1, 0.01), (100.0, 50.0, 5.0), (1.0, 0.5, 0.5))
        with pytest.raises(ParameterError, match="observation cells do not match"):
            BoundInputs(params, SecurityParams(1e-9, 1e-15, 155.0), obs, EpsilonBudget(0.5, 0.5))

    @pytest.mark.parametrize("path", BUILD_PATHS)
    @pytest.mark.parametrize("bad", [{"eps1": 0.0}, {"eps2": 1.5}, {"eps1": math.nan}])
    def test_every_budget_build_runs_the_checks(self, path, bad):
        with pytest.raises(ParameterError, match=r"^EpsilonBudget: eps1 and eps2 must be in \(0, 1\]$"):
            record_builds(EpsilonBudget(0.5, 0.25), **bad)[path]()

    @pytest.mark.parametrize("path", BUILD_PATHS)
    @pytest.mark.parametrize("intensities, message", [
        ((0.5, 0.2), "BoundInputs: observation intensities differ from params"),
        ((0.5, 0.1, 0.01), "BoundInputs: observation cells do not match the intensities"),
    ])
    def test_every_inputs_build_runs_the_checks(self, path, intensities, message):
        obs = make_obs(intensities, [100.0] * len(intensities), [1.0] * len(intensities))
        with pytest.raises(ParameterError, match="^" + message + "$"):
            record_builds(self._inputs(), obs=obs)[path]()

    def test_records_survive_pickle_and_copy(self):
        inputs = self._inputs()
        for record in (inputs, inputs.budget, ASYMPTOTIC_BUDGET):
            for twin in round_trips(record):
                assert type(twin) is type(record) and twin == record
        assert estimate_key(round_trips(inputs)[0]) == estimate_key(inputs)

    def test_repr_and_fields(self):
        assert repr(EpsilonBudget(0.5, 0.25)) == "EpsilonBudget(eps1=0.5, eps2=0.25)"
        assert EpsilonBudget._fields == ("eps1", "eps2")
        assert BoundInputs._fields == ("params", "sec", "obs", "budget")
        inputs = self._inputs()
        assert repr(inputs) == (
            f"BoundInputs(params={inputs.params!r}, sec={inputs.sec!r}, obs={inputs.obs!r}, "
            f"budget={inputs.budget!r})"
        )
        assert inputs._replace(budget=ASYMPTOTIC_BUDGET).budget is ASYMPTOTIC_BUDGET

    @staticmethod
    def _inputs() -> BoundInputs:
        params = ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), 0.9)
        obs = make_obs((0.5, 0.1), (100.0, 50.0), (1.0, 0.5))
        return BoundInputs(params, SecurityParams(1e-9, 1e-15, 150.0), obs, EpsilonBudget(0.5, 0.25))


class TestCorrectedCount:
    def test_no_deviation_no_rescale(self):
        assert corrected_count(100.0, 100.0, 1.0, 0.0, 1.0, +1) == 100.0

    def test_minus_clamps_to_zero(self):
        # delta(1e6, 1e-9) ~ 3219 dwarfs the 1000 counts
        assert corrected_count(1000.0, 1e6, 0.5, 0.4, 1e-9, -1) == 0.0

    def test_plus_reference(self):
        value = corrected_count(1e6, 1e7, 0.7, 0.5, 1e-9, +1)
        assert value == pytest.approx(CORRECTED_PLUS, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ParameterError):
            corrected_count(1.0, 2.0, 0.0, 0.1, 0.5, +1)
        with pytest.raises(ParameterError):
            corrected_count(-1.0, 2.0, 0.5, 0.1, 0.5, +1)
        with pytest.raises(ParameterError):
            corrected_count(3.0, 2.0, 0.5, 0.1, 0.5, +1)
        with pytest.raises(ParameterError):
            corrected_count(1.0, 2.0, 0.5, 0.1, 0.5, 2)


ONE = ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), 0.9)
TWO = ProtocolParams(Variant.TWO_DECOY, (0.5, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9)


class TestVacuumBounds:
    def test_lower_zero_counts_clamp(self):
        obs = make_obs((0.5, 0.1), (0.0, 0.0), (0.0, 0.0), pulses=1.0)
        assert vacuum_events_lower(make_inputs(ONE, obs)) == 0.0

    def test_lower_two_decoy_vacuum_reduction(self):
        # mu3 = 0 and eps = 1 reduce the bound to tau0 * n_mu3 / p_mu3
        params = ProtocolParams(Variant.TWO_DECOY, (0.5, 0.2, 0.0), (0.6, 0.3, 0.1), 0.9)
        obs = make_obs((0.5, 0.2, 0.0), (600.0, 300.0, 40.0), (6.0, 3.0, 0.4))
        inputs = make_inputs(params, obs)
        tau0 = photon_number_prob(params, 0)
        for basis in Basis:
            value = vacuum_events_lower(inputs, basis)
            assert value == pytest.approx(tau0 * 40.0 / 0.1, rel=1e-12)

    def test_upper_zero_errors(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (0.0, 0.0))
        assert vacuum_events_upper(make_inputs(ONE, obs)) == 0.0

    def test_upper_reference_composition(self):
        # Pick mu1 so tau0 = 0.5 with p = (0.7, 0.3) and mu2 = 0.1, then the
        # bound equals 2*(0.5*(e^0.1/0.3)*(50 + delta(100,1e-9)) + delta(1e4,1e-9)).
        mu1 = -math.log((0.5 - 0.3 * math.exp(-0.1)) / 0.7)
        params = ProtocolParams(Variant.ONE_DECOY, (mu1, 0.1), (0.7, 0.3), 0.9)
        assert photon_number_prob(params, 0) == pytest.approx(0.5, rel=1e-14)
        obs = make_obs((mu1, 0.1), (7000.0, 3000.0), (50.0, 50.0))
        inputs = make_inputs(params, obs, eps1=1e-9)
        for basis in Basis:
            value = vacuum_events_upper(inputs, basis)
            assert value == pytest.approx(S0_UPPER_EXAMPLE, rel=1e-12)

    def test_upper_total_mode(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (0.0, 0.0))
        inputs = make_inputs(ONE, obs, s0_upper_mode="total")
        assert vacuum_events_upper(inputs, Basis.Z) == 0.0
        inputs = make_inputs(ONE, obs, eps1=1e-9, s0_upper_mode="total")
        want = 2.0 * math.sqrt(0.5 * 1000.0 * math.log(1e9))
        assert vacuum_events_upper(inputs, Basis.Z) == pytest.approx(want, rel=1e-12)

    def test_upper_rejects_two_decoy(self):
        obs = make_obs((0.5, 0.2, 1e-6), (600.0, 300.0, 100.0), (6.0, 3.0, 1.0))
        with pytest.raises(ParameterError, match="one-decoy"):
            vacuum_events_upper(make_inputs(TWO, obs))
        est = estimate_key(make_inputs(TWO, obs))
        assert est.s0_upper is None and est.s0_upper_x is None

    @pytest.mark.parametrize("params, cells", [
        (ONE, ((7000.0, 3000.0), (70.0, 60.0), (900.0, 400.0), (20.0, 9.0))),
        (TWO, ((6000.0, 3000.0, 900.0), (60.0, 40.0, 20.0),
               (700.0, 300.0, 90.0), (9.0, 5.0, 3.0))),
    ])
    @pytest.mark.parametrize("mode", S0_UPPER_MODES)
    def test_each_reader_returns_its_field(self, params, cells, mode):
        """The per-bound functions return the estimate's field of the basis
        asked for; with X cells unlike the Z cells, a swapped basis shows."""
        inputs = make_inputs(params, make_obs(params.intensities, *cells), s0_upper_mode=mode)
        est = estimate_key(inputs)
        readers = [
            (vacuum_events_lower(inputs, Basis.Z), est.s0_lower),
            (vacuum_events_lower(inputs, Basis.X), est.s0_lower_x),
            (single_photon_lower(inputs, Basis.Z), est.s1_lower_z),
            (single_photon_lower(inputs, Basis.X), est.s1_lower_x),
            (phase_error_upper(inputs), est.phase_error_upper),
        ]
        bases = [(est.s0_lower, est.s0_lower_x), (est.s1_lower_z, est.s1_lower_x)]
        if params is ONE:
            readers.append((vacuum_events_upper(inputs, Basis.Z), est.s0_upper))
            readers.append((vacuum_events_upper(inputs, Basis.X), est.s0_upper_x))
            bases.append((est.s0_upper, est.s0_upper_x))
        assert all(got == want for got, want in readers)
        assert est.status == "ok" and all(0.0 < z != x > 0.0 for z, x in bases)


class TestSinglePhotonBounds:
    def test_zero_counts_clamp(self):
        obs = make_obs((0.5, 0.1), (0.0, 0.0), (0.0, 0.0), pulses=1.0)
        assert single_photon_lower(make_inputs(ONE, obs)) == 0.0

    def test_errors_upper_zero(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (0.0, 0.0))
        assert estimate_key(make_inputs(ONE, obs)).v1_upper_x == 0.0

    def test_errors_upper_reference(self):
        obs = make_obs(
            (0.5, 0.1),
            (10000.0, 5000.0),
            (10.0, 5.0),
            errors_x=(200.0, 50.0),
        )
        inputs = make_inputs(ONE, obs)  # eps = 1, no deviations
        tau1 = photon_number_prob(ONE, 1)
        assert estimate_key(inputs).v1_upper_x == pytest.approx(tau1 * V1_BRACKET, rel=1e-12)

    def test_extra_decoy_tightens_the_bound(self):
        """Appending a vanishing third level to the same configuration must
        not weaken the single-photon estimate: measuring vacuum directly beats
        inferring it from error counts, and with deviations off the two
        brackets differ exactly by (1 - mu2^2/mu1^2)(s0_upper/tau0 - D0) >= 0."""
        eps_p = 1e-9
        one = ProtocolParams(Variant.ONE_DECOY, (0.48, 0.17), (0.75, 0.25), 0.88)
        two = ProtocolParams(
            Variant.TWO_DECOY,
            (0.48, 0.17, 1e-6),
            (0.75 - eps_p / 2, 0.25 - eps_p / 2, eps_p),
            0.88,
        )
        sec = SecurityParams(1e-9, 1e-15, 1e6)
        for att in (20.0, 35.0, 50.0):
            values = {}
            for params in (one, two):
                sim = SimulationPoint(channel=_channel(att), protocol=params, sec=sec)
                obs = expected_observations(sim)
                inputs = make_inputs(params, obs)  # eps = 1
                values[params.variant] = single_photon_lower(inputs)
                detections, _ = oracle_photon_counts(sim, obs, Basis.Z)
                assert values[params.variant] <= detections[1] * (1.0 + 1e-9)
            assert values[Variant.TWO_DECOY] >= values[Variant.ONE_DECOY] * (1.0 - 1e-9)

    def test_two_decoy_vacuum_substituted_limit(self):
        """With mu3 = 0 and a vanishing vacuum probability the code path must
        agree with the algebraic reduction assembled independently here."""
        params = ProtocolParams(
            Variant.TWO_DECOY, (0.5, 0.2, 0.0), (0.7, 0.3 - 1e-9, 1e-9), 0.9
        )
        sim = SimulationPoint(
            channel=_channel(30.0), protocol=params, sec=SecurityParams(1e-9, 1e-15, 1e6)
        )
        obs = expected_observations(sim)
        inputs = make_inputs(params, obs, eps1=1e-9 / 21)
        mu1, mu2, _ = params.intensities
        tau0 = photon_number_prob(params, 0)
        tau1 = photon_number_prob(params, 1)
        delta_n = math.sqrt(0.5 * obs.n_z * math.log(21 / 1e-9))
        n2m = math.exp(mu2) / params.intensity_probs[1] * max(0.0, obs.detections_z[1] - delta_n)
        n3p = 1.0 / params.intensity_probs[2] * (obs.detections_z[2] + delta_n)
        n1p = math.exp(mu1) / params.intensity_probs[0] * (obs.detections_z[0] + delta_n)
        s0 = vacuum_events_lower(inputs)
        want = tau1 * mu1 / (mu2 * (mu1 - mu2)) * (
            n2m - n3p + (mu2**2 / mu1**2) * (s0 / tau0 - n1p)
        )
        got = single_photon_lower(inputs)
        assert got == pytest.approx(max(0.0, want), rel=1e-6)


def _channel(att, dark=1e-8, p_err=0.01, dead=100e-9):
    from decoyqkd import ChannelParams

    return ChannelParams(att, dark, p_err, dead, 1e9)


class TestPhaseErrorChain:
    def test_fluctuation_reference(self):
        assert phase_error_fluctuation(1e-9, 0.05, 1e6, 1e5) == pytest.approx(
            GAMMA_EXAMPLE, rel=1e-12
        )

    def test_fluctuation_symmetric(self):
        a = phase_error_fluctuation(1e-9, 0.13, 2e6, 3e4)
        b = phase_error_fluctuation(1e-9, 0.13, 3e4, 2e6)
        assert a == b

    def test_fluctuation_vanishes_with_ratio(self):
        assert phase_error_fluctuation(1e-9, 1e-12, 1e6, 1e5) < 1e-5

    def test_fluctuation_log_floor(self):
        # gigantic samples push the log argument below 1
        assert phase_error_fluctuation(0.9, 0.5, 1e30, 1e30) == 0.0

    def test_fluctuation_eps_floor(self):
        # below MIN_EPS, eps_sec**2 underflows to 0, and the term divides by it
        with pytest.raises(ParameterError, match="eps_sec"):
            phase_error_fluctuation(1e-170, 0.02, 1e6, 1e6)
        assert math.isfinite(phase_error_fluctuation(MIN_EPS, 0.02, 1e6, 1e6))

    def test_fluctuation_finite_where_its_log_argument_overflows(self):
        # spread * 21**2 / MIN_EPS**2 is about 2e312, past the largest float
        got = phase_error_fluctuation(MIN_EPS, 0.02, 1.0, 1.0)
        mp.mp.dps = 50
        ratio, eps = mp.mpf(0.02), mp.mpf(MIN_EPS)
        spread = 2 / ((1 - ratio) * ratio)
        want = mp.sqrt(2 * (1 - ratio) * ratio / mp.log(2) * mp.log(spread * 441 / eps**2, 2))
        assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("count1, count2", [
        (1e-200, 1e-200), (1e-300, 1e-30), (1e-160, 1e-170), (1e-308, 1e-10), (1e-155, 1e-160),
        (1e-310, 1e-10), (5e-324, 1.0), (5e-324, 1e300),
    ])
    def test_fluctuation_finite_where_the_count_product_underflows(self, count1, count2):
        # count1 * count2 * (1 - ratio) * ratio underflows to a subnormal or to
        # 0, and with (1e-308, 1e-10) the spread overflows as well; where a
        # count is subnormal (1e-310, 5e-324) 1/c overflows, and with it the
        # variance. The exact value is finite and positive, and symmetric in
        # the counts
        got = phase_error_fluctuation(1e-9, 0.02, count1, count2)
        assert got == phase_error_fluctuation(1e-9, 0.02, count2, count1)
        mp.mp.dps = 50
        ratio, eps = mp.mpf(0.02), mp.mpf(1e-9)
        c1, c2 = mp.mpf(count1), mp.mpf(count2)
        spread = (c1 + c2) / (c1 * c2 * (1 - ratio) * ratio)
        variance = (c1 + c2) * (1 - ratio) * ratio / (c1 * c2 * mp.log(2))
        want = mp.sqrt(variance * mp.log(spread * 441 / eps**2, 2))
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_fluctuation_keeps_its_bits(self):
        """Wherever the log argument is finite, the value is bit for bit the
        single-expression form sqrt(variance * log2(spread * base**2 / eps**2))."""
        rng = random.Random(5)
        for _ in range(2000):
            eps = 10.0 ** rng.uniform(math.log10(MIN_EPS), -0.01)
            ratio, base = rng.uniform(1e-6, 0.5), rng.choice((19.0, 21.0))
            c1, c2 = 10.0 ** rng.uniform(-3.0, 12.0), 10.0 ** rng.uniform(-3.0, 12.0)
            spread = (c1 + c2) / (c1 * c2 * (1.0 - ratio) * ratio)
            log_arg = spread * base**2 / eps**2
            if not 1.0 < log_arg < math.inf:
                continue
            variance = (c1 + c2) * (1.0 - ratio) * ratio / (c1 * c2 * math.log(2.0))
            want = math.sqrt(variance * math.log2(log_arg))
            assert phase_error_fluctuation(eps, ratio, c1, c2, base) == want

    def test_fluctuation_insufficient_statistics(self):
        for args in ((1e-9, 0.0, 1e6, 1e5), (1e-9, 1.0, 1e6, 1e5), (1e-9, 0.1, 0.0, 1e5)):
            with pytest.raises(InsufficientStatisticsError):
                phase_error_fluctuation(*args)
        with pytest.raises(ParameterError):
            phase_error_fluctuation(1.5, 0.1, 1e6, 1e5)
        # values the term cannot use, named: they once gave NaN, inf, 0.0, or
        # (a negative base, squared) a finite number
        valid = dict(eps_sec=1e-9, ratio=0.1, count1=1e6, count2=1e5)
        for name, value in (
            ("count1", math.nan), ("count2", math.nan), ("count1", math.inf),
            ("count2", -math.inf), ("base", math.nan), ("base", math.inf), ("base", -21.0),
            ("base", 0.0),
        ):
            with pytest.raises(ParameterError, match=f"^phase_error_fluctuation: {name} must"):
                phase_error_fluctuation(**{**valid, name: value})

    def test_phase_error_error_free(self):
        sim = SimulationPoint(
            channel=_channel(20.0, dark=0.0, p_err=0.0),
            protocol=ONE,
            sec=SecurityParams(1e-9, 1e-15, 1e6),
        )
        obs = expected_observations(sim)
        inputs = make_inputs(ONE, obs)
        assert phase_error_upper(inputs) == 0.0

    def test_phase_error_clamps_at_half(self):
        # Synthetic counts: errors are half the detections, so the inferred
        # ratio lands above 0.5 while the single-photon bounds stay positive.
        obs = make_obs(
            (0.5, 0.2, 1e-6),
            (6000.0, 3000.0, 1000.0),
            (3000.0, 1500.0, 500.0),
        )
        inputs = make_inputs(TWO, obs)
        est = estimate_key(inputs)
        assert est.s1_lower_x > 0.0 and est.v1_upper_x / est.s1_lower_x > 0.5
        assert phase_error_upper(inputs) == 0.5

    def test_gamma_base_moves_the_phase_error(self):
        """SecurityParams.gamma_base is the fluctuation term's base: with 19
        the bound is the ratio plus phase_error_fluctuation(..., base=19),
        below the default 21's."""
        cells = ((7000.0, 3000.0), (70.0, 60.0), (900.0, 400.0), (20.0, 9.0))
        obs = make_obs(ONE.intensities, *cells)
        default = phase_error_upper(make_inputs(ONE, obs, eps1=1e-9))
        inputs = make_inputs(ONE, obs, eps1=1e-9, gamma_base=19.0)
        est = estimate_key(inputs)
        ratio = est.v1_upper_x / est.s1_lower_x
        fluctuation = phase_error_fluctuation(1e-9, ratio, est.s1_lower_z, est.s1_lower_x, 19.0)
        assert 0.0 < ratio + fluctuation < 0.5
        assert phase_error_upper(inputs) == ratio + fluctuation < default

    def test_phase_error_no_key_signal(self):
        obs = make_obs((0.5, 0.1), (0.0, 0.0), (0.0, 0.0), pulses=1.0)
        with pytest.raises(NoKeyError):
            phase_error_upper(make_inputs(ONE, obs))


class TestKeyLength:
    def test_leakage_zero_errors(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (0.0, 0.0))
        assert estimate_key(make_inputs(ONE, obs)).lambda_ec == 0.0

    def test_leakage_qber_half(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (350.0, 150.0))
        lambda_ec = estimate_key(make_inputs(ONE, obs, ec=1.3)).lambda_ec
        assert lambda_ec == pytest.approx(1.3 * 1000.0, rel=1e-12)

    def test_leakage_reference(self):
        det = (0.7e7, 0.3e7)
        err = (0.7e5, 0.3e5)  # QBER exactly 0.01
        obs = make_obs((0.5, 0.1), det, err)
        lambda_ec = estimate_key(make_inputs(ONE, obs, ec=1.16)).lambda_ec
        assert lambda_ec == pytest.approx(LAMBDA_EXAMPLE, rel=1e-12)

    def test_error_cells_at_their_slack(self):
        """Observations accepts an error cell up to a relative 1e-9 above its
        detections; the chain runs on such a record instead of raising."""
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (700.0000001, 300.0))  # X cells alike
        assert obs.errors_z == obs.errors_x == (700.0, 300.0)
        assert obs.m_z == obs.n_z and obs.m_x == obs.n_x
        est = estimate_key(make_inputs(ONE, obs, ec=1.3))
        assert est.lambda_ec == 0.0 and est.key_length == 0.0

    def test_zero_counts_give_zero_key(self):
        obs = make_obs((0.5, 0.1), (0.0, 0.0), (0.0, 0.0), pulses=1.0)
        inputs = make_inputs(ONE, obs)
        est = estimate_key(inputs)
        assert est.key_length == 0.0 and est.status == "no_key"

    def test_security_penalty_constant(self):
        """Reconstruct the additive penalty from a full evaluation."""
        sim = SimulationPoint(
            channel=_channel(26.0), protocol=ONE, sec=SecurityParams(1e-9, 1e-15, 1e7)
        )
        obs = expected_observations(sim)
        params_budget = epsilon_budget(ONE, sim.sec)
        inputs = BoundInputs(params=ONE, sec=sim.sec, obs=obs, budget=params_budget)
        est = estimate_key(inputs)
        assert est.status == "ok" and est.key_length > 0.0
        from decoyqkd import binary_entropy

        reconstructed = (
            est.s0_lower
            + est.s1_lower_z * (1.0 - binary_entropy(est.phase_error_upper))
            - est.lambda_ec
            - est.key_length
        )
        assert reconstructed == pytest.approx(PENALTY_ONE_DECOY, rel=1e-9)

    def test_monotone_in_eps_sec(self):
        sim = SimulationPoint(
            channel=_channel(30.0), protocol=ONE, sec=SecurityParams(1e-9, 1e-15, 1e7)
        )
        obs = expected_observations(sim)
        previous = math.inf
        for k in range(10):
            eps_sec = 10.0 ** (-5 - k)  # tightening secrecy
            sec = SecurityParams(eps_sec, 1e-15, 1e7)
            inputs = BoundInputs(
                params=ONE, sec=sec, obs=obs, budget=epsilon_budget(ONE, sec)
            )
            length = estimate_key(inputs).key_length
            assert length <= previous * (1.0 + 1e-12)
            previous = length

    def test_block_size_limit(self):
        """l / n_Z climbs monotonically to the deviation-free value as the
        block grows by factors of 10."""
        channel = _channel(30.0)

        def fraction(block, asymptotic):
            sec = SecurityParams(1e-9, 1e-15, block)
            obs = expected_observations(SimulationPoint(channel, ONE, sec))
            budget = ASYMPTOTIC_BUDGET if asymptotic else epsilon_budget(ONE, sec)
            inputs = BoundInputs(params=ONE, sec=sec, obs=obs, budget=budget)
            return estimate_key(inputs).key_length / block

        reference = fraction(1e13, asymptotic=True)
        previous = -1.0
        for block in (1e6, 1e7, 1e8, 1e9, 1e10):
            value = fraction(block, asymptotic=False)
            assert value > previous
            assert value <= reference
            previous = value
        assert (reference - previous) / reference < 0.02


class TestClamping:
    def test_no_operation_returns_negative(self):
        """1,400 randomized valid inputs under both vacuum upper-bound modes:
        every bound of the one pass, in both bases, stays nonnegative."""
        rng = random.Random(20250810)
        for _ in range(1400):
            point = random_point(rng)
            obs = expected_observations(point)
            budget = EpsilonBudget(
                rng.choice((1.0, 1e-3, 1e-6, 1e-9 / 21)),
                rng.choice((1.0, 1e-2, 1e-7)),
            )
            sec = point.sec._replace(s0_upper_mode=rng.choice(S0_UPPER_MODES))
            inputs = BoundInputs(params=point.protocol, sec=sec, obs=obs, budget=budget)
            est = estimate_key(inputs)
            values = [v for v in est if isinstance(v, float)]
            assert len(values) == (10 if point.protocol.variant is Variant.ONE_DECOY else 8)
            assert all(v >= 0.0 for v in values)


class TestSandwich:
    @pytest.mark.parametrize("mode", S0_UPPER_MODES)
    def test_bounds_sandwich_truth(self, mode):
        """With deviations off, the decoy bounds of the one pass bracket the
        per-photon truth, in both bases."""
        rng = random.Random(4242)
        for _ in range(10):
            assert sandwich_violations(with_switches(random_point(rng), mode)) == []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(keyed_points(), st.sampled_from(S0_UPPER_MODES))
    def test_bounds_sandwich_truth_on_keyed_points(self, point, mode):
        assert sandwich_violations(with_switches(point, mode)) == []


class TestOnePassChain:
    @pytest.mark.parametrize(
        "params, mode, stage",
        [
            (ONE, "per-intensity", "_one_decoy"),
            (ONE, "total", "_one_decoy"),
            (TWO, "per-intensity", "_two_decoy"),
        ],
    )
    def test_each_value_computed_once(self, monkeypatch, params, mode, stage):
        """One estimate_key runs the variant's bound stage once (the other
        stage never), which computes each level's 0- and 1-photon Poisson
        terms once."""
        calls = Counter()
        poisson_args = Counter()
        for name in ("photon_number_prob", "_poisson", "_one_decoy", "_two_decoy"):

            def counted(*args, _name=name, _original=getattr(bounds, name)):
                calls[_name] += 1
                if _name == "_poisson":
                    poisson_args[args] += 1
                return _original(*args)

            monkeypatch.setattr(bounds, name, counted)
        sec = SecurityParams(1e-9, 1e-15, 1e7, s0_upper_mode=mode)
        sim = SimulationPoint(channel=_channel(26.0), protocol=params, sec=sec)
        inputs = BoundInputs(
            params=params,
            sec=sim.sec,
            obs=expected_observations(sim),
            budget=epsilon_budget(params, sim.sec),
        )
        assert estimate_key(inputs).status == "ok"
        levels = params.intensities
        assert poisson_args == {(mu, n): 1 for mu in levels for n in (0, 1)}
        assert calls == {"_poisson": 2 * len(levels), stage: 1}

    def test_one_pass_taus_equal_photon_number_prob(self):
        """The tau0 and tau1 that the variant's bound stage sums from its
        levels' Poisson terms, left to right, are photon_number_prob's, bit
        for bit, on any accepted point and at a 2-decoy weakest level of 0."""
        stages = bounds._one_decoy, bounds._two_decoy
        zero_mu3 = ProtocolParams(Variant.TWO_DECOY, (0.5, 0.2, 0.0), (0.6, 0.3, 0.1), 0.9)

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(valid_points())
        @example(SimulationPoint(_channel(26.0), zero_mu3, SecurityParams(1e-9, 1e-15, 1e7)))
        def check(sim):
            try:
                obs = expected_observations(sim)
            except NoDetectionsError:
                return
            params = sim.protocol
            inputs = BoundInputs(params, sim.sec, obs, epsilon_budget(params, sim.sec))
            (taus,) = stage_locals(stages, ("tau0", "tau1"), lambda: estimate_key(inputs))
            expected = photon_number_prob(params, 0), photon_number_prob(params, 1)
            assert repr(taus) == repr(expected)

        check()

    def test_kernels_match_the_reference_chain(self):
        """estimate_key, one bound stage per variant, returns what the reference
        chain of one function per bound formula returns, bit for bit: on any
        accepted point and on points of the optimizer's search box, both
        variants, both vacuum modes and both dead-time modes, with the even
        eps split or the deviations off. The draws must include a positive
        key, a key clamped to zero and a point with no key."""
        outcomes = Counter()

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(
            st.one_of(valid_points(), keyed_points()),
            st.sampled_from(S0_UPPER_MODES),
            st.sampled_from(DEADTIME_MODES),
            st.booleans(),
        )
        # no single-photon credit in a block of 1e5; a key clamped to zero at 72 dB
        @example(SimulationPoint(_channel(26.0), ONE, SecurityParams(1e-9, 1e-15, 1e5)),
                 "per-intensity", "zonly", False)
        @example(SimulationPoint(_channel(72.0), ONE, SecurityParams(1e-9, 1e-15, 1e7)),
                 "total", "allclicks", False)
        @example(SimulationPoint(_channel(72.0), TWO, SecurityParams(1e-9, 1e-15, 1e7)),
                 "per-intensity", "zonly", False)
        def check(sim, s0_upper_mode, deadtime_mode, asymptotic):
            sim = with_switches(sim, s0_upper_mode, deadtime_mode)
            try:
                obs = expected_observations(sim)
            except NoDetectionsError:
                outcomes["no_detections"] += 1
                return
            budget = ASYMPTOTIC_BUDGET if asymptotic else epsilon_budget(sim.protocol, sim.sec)
            inputs = BoundInputs(sim.protocol, sim.sec, obs, budget)
            estimate = estimate_key(inputs)
            assert repr(estimate) == repr(reference_estimate(inputs))
            if estimate.status == "no_key":
                outcomes["no_key"] += 1
            else:
                outcomes["key" if estimate.key_length > 0.0 else "clamped"] += 1

        check()
        assert outcomes["key"] and outcomes["clamped"] and outcomes["no_key"], outcomes


class TestInlineDeviation:
    """The bound stages write the Hoeffding deviation sqrt(n ln(1/eps) / 2)
    inline, with its check: it is ``hoeffding_delta``'s, bit for bit, and
    rejects what it rejects, with its message."""

    def test_deviation_is_hoeffding_delta(self, monkeypatch):
        """estimate_key equals the reference chain with every deviation taken
        from the public hoeffding_delta, repr for repr, under both model
        switches."""

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(valid_points(), st.sampled_from(S0_UPPER_MODES), st.sampled_from(DEADTIME_MODES))
        def check(sim, s0_upper_mode, deadtime_mode):
            sim = with_switches(sim, s0_upper_mode, deadtime_mode)
            try:
                obs = expected_observations(sim)
            except NoDetectionsError:
                return
            budget = epsilon_budget(sim.protocol, sim.sec)
            inputs = BoundInputs(sim.protocol, sim.sec, obs, budget)

            def public(n, log_inv_eps):
                # every even split has eps1 == eps2
                assert log_inv_eps == math.log(1.0 / budget.eps1) and budget.eps1 == budget.eps2
                return hoeffding_delta(n, budget.eps1)

            with monkeypatch.context() as patch:
                patch.setattr(conftest, "_deviation", public)
                want = reference_estimate(inputs)
            assert repr(estimate_key(inputs)) == repr(want)

        check()

    @pytest.mark.parametrize("params", [ONE, TWO], ids=["one", "two"])
    @pytest.mark.parametrize("total", [-1.0, math.nan])
    @pytest.mark.parametrize("which", ["n_z", "m_z", "n_x", "m_x"])
    def test_rejects_what_hoeffding_delta_rejects(self, params, total, which):
        """A total below zero or NaN in a count stage's record (its totals
        n_z, m_z, n_x, m_x sit before the pulse count) is rejected by the
        bound stage with hoeffding_delta's message."""
        message = "^hoeffding_delta: n must be >= 0$"
        with pytest.raises(ParameterError, match=message):
            hoeffding_delta(total, 1e-10)
        sim = SimulationPoint(_channel(26.0), params, SecurityParams(1e-9, 1e-15, 1e7))
        mus = params.intensities
        link = _Link(sim.channel, sim.sec.block_size, len(mus))
        values = list(link.counts(mus, params.intensity_probs, params.basis_prob_z, link))
        values[-5 + ("n_z", "m_z", "n_x", "m_x").index(which)] = total
        constants = bounds._Constants(len(mus), 1e-10, 1e-10, sim.sec)
        with pytest.raises(ParameterError, match=message):
            constants.bounds(mus, params.intensity_probs, tuple(values), constants)
