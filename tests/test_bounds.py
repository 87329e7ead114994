"""Finite-key estimation chain: frozen oracle values, clamping, limits, and
the sandwich property against the per-photon-number expansion."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from decoyqkd import (
    Basis,
    BoundInputs,
    BoundOptions,
    EpsilonBudget,
    InsufficientStatisticsError,
    NoKeyError,
    Observations,
    ParameterError,
    ProtocolParams,
    SecurityParams,
    SimulationPoint,
    Variant,
    corrected_count,
    epsilon_budget,
    error_correction_leakage,
    estimate_key,
    expected_observations,
    phase_error_fluctuation,
    phase_error_upper,
    photon_number_prob,
    single_photon_errors_upper,
    single_photon_lower,
    vacuum_events_lower,
    vacuum_events_upper,
)
from decoyqkd import bounds

from conftest import ASYMPTOTIC_BUDGET, keyed_points, oracle_photon_counts, random_point

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


def make_inputs(params, obs, eps1=1.0, eps2=None, eps_sec=1e-9, ec=1.05):
    budget = EpsilonBudget(eps1, eps1 if eps2 is None else eps2)
    sec = SecurityParams(eps_sec, 1e-15, max(sum(obs.detections_z), 1.0), ec)
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
        assert vacuum_events_lower(inputs) == pytest.approx(tau0 * 40.0 / 0.1, rel=1e-12)

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
        value = vacuum_events_upper(inputs, Basis.Z)
        assert value == pytest.approx(S0_UPPER_EXAMPLE, rel=1e-12)

    def test_upper_total_mode(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (0.0, 0.0))
        opts = BoundOptions(s0_upper_mode="total")
        assert vacuum_events_upper(make_inputs(ONE, obs), Basis.Z, opts) == 0.0
        inputs = make_inputs(ONE, obs, eps1=1e-9)
        want = 2.0 * math.sqrt(0.5 * 1000.0 * math.log(1e9))
        assert vacuum_events_upper(inputs, Basis.Z, opts) == pytest.approx(want, rel=1e-12)

    def test_upper_rejects_two_decoy(self):
        obs = make_obs((0.5, 0.2, 1e-6), (600.0, 300.0, 100.0), (6.0, 3.0, 1.0))
        with pytest.raises(ParameterError, match="one-decoy"):
            vacuum_events_upper(make_inputs(TWO, obs))


class TestSinglePhotonBounds:
    def test_zero_counts_clamp(self):
        obs = make_obs((0.5, 0.1), (0.0, 0.0), (0.0, 0.0), pulses=1.0)
        assert single_photon_lower(make_inputs(ONE, obs)) == 0.0

    def test_errors_upper_zero(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (0.0, 0.0))
        assert single_photon_errors_upper(make_inputs(ONE, obs)) == 0.0

    def test_errors_upper_reference(self):
        obs = make_obs(
            (0.5, 0.1),
            (10000.0, 5000.0),
            (10.0, 5.0),
            errors_x=(200.0, 50.0),
        )
        inputs = make_inputs(ONE, obs)  # eps = 1, no deviations
        tau1 = photon_number_prob(ONE, 1)
        assert single_photon_errors_upper(inputs) == pytest.approx(
            tau1 * V1_BRACKET, rel=1e-12
        )

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

    def test_fluctuation_insufficient_statistics(self):
        for args in ((1e-9, 0.0, 1e6, 1e5), (1e-9, 1.0, 1e6, 1e5), (1e-9, 0.1, 0.0, 1e5)):
            with pytest.raises(InsufficientStatisticsError):
                phase_error_fluctuation(*args)
        with pytest.raises(ParameterError):
            phase_error_fluctuation(1.5, 0.1, 1e6, 1e5)

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
        assert single_photon_lower(inputs, Basis.X) > 0.0
        assert single_photon_errors_upper(inputs) / single_photon_lower(inputs, Basis.X) > 0.5
        assert phase_error_upper(inputs) == 0.5

    def test_phase_error_no_key_signal(self):
        obs = make_obs((0.5, 0.1), (0.0, 0.0), (0.0, 0.0), pulses=1.0)
        with pytest.raises(NoKeyError):
            phase_error_upper(make_inputs(ONE, obs))


class TestKeyLength:
    def test_leakage_zero_errors(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (0.0, 0.0))
        assert error_correction_leakage(obs, SecurityParams(1e-9, 1e-15, 1e3)) == 0.0

    def test_leakage_qber_half(self):
        obs = make_obs((0.5, 0.1), (700.0, 300.0), (350.0, 150.0))
        sec = SecurityParams(1e-9, 1e-15, 1e3, ec_efficiency=1.3)
        assert error_correction_leakage(obs, sec) == pytest.approx(1.3 * 1000.0, rel=1e-12)

    def test_leakage_reference(self):
        det = (0.7e7, 0.3e7)
        err = (0.7e5, 0.3e5)  # QBER exactly 0.01
        obs = make_obs((0.5, 0.1), det, err)
        sec = SecurityParams(1e-9, 1e-15, 1e7, ec_efficiency=1.16)
        assert error_correction_leakage(obs, sec) == pytest.approx(LAMBDA_EXAMPLE, rel=1e-12)

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
        """10^4 randomized valid inputs, every bound stays nonnegative."""
        rng = random.Random(20250810)
        checked = 0
        while checked < 10_000:
            point = random_point(rng)
            obs = expected_observations(point)
            budget = EpsilonBudget(
                rng.choice((1.0, 1e-3, 1e-6, 1e-9 / 21)),
                rng.choice((1.0, 1e-2, 1e-7)),
            )
            inputs = BoundInputs(params=point.protocol, sec=point.sec, obs=obs, budget=budget)
            values = [
                vacuum_events_lower(inputs, Basis.Z),
                vacuum_events_lower(inputs, Basis.X),
                single_photon_lower(inputs, Basis.Z),
                single_photon_lower(inputs, Basis.X),
                single_photon_errors_upper(inputs),
                error_correction_leakage(obs, point.sec),
                estimate_key(inputs).key_length,
            ]
            if point.protocol.variant is Variant.ONE_DECOY:
                values.append(vacuum_events_upper(inputs, Basis.Z))
            assert all(v >= 0.0 for v in values)
            checked += len(values)


class TestSandwich:
    def test_bounds_sandwich_truth(self):
        """With deviations off, decoy bounds must bracket the per-photon truth."""
        rng = random.Random(4242)
        for _ in range(10):
            point = random_point(rng)
            obs = expected_observations(point)
            inputs = BoundInputs(
                params=point.protocol,
                sec=point.sec,
                obs=obs,
                budget=ASYMPTOTIC_BUDGET,
            )
            for basis in (Basis.Z, Basis.X):
                detections, errors = oracle_photon_counts(point, obs, basis)
                slack = 1.0 + 1e-9
                assert vacuum_events_lower(inputs, basis) <= detections[0] * slack + 1e-9
                assert single_photon_lower(inputs, basis) <= detections[1] * slack + 1e-9
                if point.protocol.variant is Variant.ONE_DECOY:
                    upper = vacuum_events_upper(inputs, basis)
                    assert detections[0] <= upper * slack + 1e-9
                if basis is Basis.X:
                    v1 = single_photon_errors_upper(inputs)
                    assert errors[1] <= v1 * slack + 1e-9


def check_fields(point, options):
    """Each KeyEstimate field is, bit for bit, what its public per-bound
    function returns for the same inputs. Returns the estimate."""
    obs = expected_observations(point)
    budget = epsilon_budget(point.protocol, point.sec)
    inputs = BoundInputs(params=point.protocol, sec=point.sec, obs=obs, budget=budget)
    est = estimate_key(inputs, options)
    assert est.s0_lower == vacuum_events_lower(inputs, Basis.Z)
    if point.protocol.variant is Variant.ONE_DECOY:
        assert est.s0_upper == vacuum_events_upper(inputs, Basis.Z, options)
    else:
        assert est.s0_upper is None
    assert est.s1_lower_z == single_photon_lower(inputs, Basis.Z, options)
    assert est.s1_lower_x == single_photon_lower(inputs, Basis.X, options)
    assert est.v1_upper_x == single_photon_errors_upper(inputs)
    if est.status == "no_key":
        with pytest.raises(NoKeyError):
            phase_error_upper(inputs, options)
    else:
        assert est.phase_error_upper == phase_error_upper(inputs, options)
    return est


class TestOnePassChain:
    @pytest.mark.parametrize("mode", ["per-intensity", "total"])
    def test_fields_equal_public_bounds(self, mode):
        options = BoundOptions(s0_upper_mode=mode)
        rng = random.Random(2024)
        seen = set()
        for _ in range(200):
            point = random_point(rng)
            seen.add((point.protocol.variant, check_fields(point, options).status))
        assert seen == {(v, s) for v in Variant for s in ("ok", "no_key")}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(keyed_points(), st.sampled_from(["per-intensity", "total"]))
    def test_fields_equal_public_bounds_on_keyed_points(self, point, mode):
        check_fields(point, BoundOptions(s0_upper_mode=mode))

    @pytest.mark.parametrize(
        "params, options, counts",
        [
            (ONE, BoundOptions(), 8),
            (ONE, BoundOptions(s0_upper_mode="total"), 6),
            (TWO, BoundOptions(), 12),
        ],
    )
    def test_each_value_computed_once(self, monkeypatch, params, options, counts):
        """One estimate_key computes tau0 and tau1 once each, every corrected
        count once per (basis, cell, sign) and every Hoeffding deviation once
        per (basis, detections/errors), s0_upper's delta(n, eps1) included."""
        # Detections of both bases and X errors; Z errors only enter the
        # per-intensity one-decoy s0_upper.
        per_intensity = params is ONE and options.s0_upper_mode == "per-intensity"
        deltas = 4 if per_intensity else 3
        calls = Counter()
        for name in ("photon_number_prob", "_correct", "hoeffding_delta"):

            def counted(*args, _name=name, _original=getattr(bounds, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(bounds, name, counted)
        sim = SimulationPoint(
            channel=_channel(26.0), protocol=params, sec=SecurityParams(1e-9, 1e-15, 1e7)
        )
        inputs = BoundInputs(
            params=params,
            sec=sim.sec,
            obs=expected_observations(sim),
            budget=epsilon_budget(params, sim.sec),
        )
        assert estimate_key(inputs, options).status == "ok"
        assert calls == {"photon_number_prob": 2, "_correct": counts, "hoeffding_delta": deltas}
