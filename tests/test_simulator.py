"""Channel model: dead time, per-pulse detection/error probabilities, expected
counts, presets, and the closed-form/photon-expansion identity."""

import math
import random
from dataclasses import replace

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from decoyqkd import (
    Basis,
    ChannelParams,
    KeyEstimate,
    NoDetectionsError,
    ParameterError,
    ProtocolParams,
    RatePoint,
    SecurityParams,
    SimulationPoint,
    Variant,
    channel_from_preset,
    expected_observations,
    poisson_pmf,
    rate_point,
    saturated_dead_time_factor,
)
from decoyqkd import bounds
from decoyqkd.model import DEADTIME_MODES, MIN_EPS, S0_UPPER_MODES, binary_entropy
from decoyqkd.optimizer import _MU1_RANGE
from decoyqkd.simulator import (
    DETECTOR_PRESETS,
    _key_rate,
    _keyless,
    _level,
    _Link,
    _prepare,
)

import conftest
from conftest import (
    keyed_points,
    left_sum,
    oracle_photon_counts,
    random_point,
    reference_counts,
    reference_mixture,
    stage_locals,
    valid_points,
    with_switches,
)

ONE = ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), 0.9)
TWO = ProtocolParams(Variant.TWO_DECOY, (0.5, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9)


def channel(att, dark=1e-8, p_err=0.01, dead=100e-9, rep=1e9):
    return ChannelParams(att, dark, p_err, dead, rep)


def point(att=26.0, protocol=ONE, block=1e7, **channel_kwargs):
    return SimulationPoint(
        channel=channel(att, **channel_kwargs),
        protocol=protocol,
        sec=SecurityParams(1e-9, 1e-15, block),
    )


def single_pass(p_raw, ch):
    """One application of the dead-time correction, 1/(1 + R*t*p_raw)."""
    return 1.0 / (1.0 + ch.rep_rate_hz * ch.dead_time_s * p_raw)


def per_pulse(sim):
    """Per-pulse probabilities of a sifted detection and of a sifted error,
    cell by cell: (detections_z, errors_z, detections_x, errors_x) of
    expected_observations divided by the pulses sent."""
    obs = expected_observations(sim)
    cells = obs.detections_z, obs.errors_z, obs.detections_x, obs.errors_x
    return [[count / obs.pulses_sent for count in cell] for cell in cells]


class TestDeadTime:
    def test_no_dead_time(self):
        assert saturated_dead_time_factor(0.3, channel(20.0, dead=0.0)) == 1.0

    def test_no_clicks(self):
        assert saturated_dead_time_factor(0.0, channel(20.0)) == 1.0

    def test_reference_arithmetic(self):
        # R*t = 100, p = 0.02: a = 2, 2/(1 + sqrt(9)) = 1/(1 + 100*0.5*0.02)
        assert saturated_dead_time_factor(0.02, channel(20.0)) == pytest.approx(0.5, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ParameterError):
            saturated_dead_time_factor(1.5, channel(20.0))
        with pytest.raises(ParameterError):
            saturated_dead_time_factor(-0.1, channel(20.0))

    def test_self_consistency_fixed_point(self):
        rng = random.Random(5)
        for _ in range(50):
            ch = channel(20.0, dead=rng.choice((0.0, 1e-7, 2e-5)))
            raw = rng.random()
            c = saturated_dead_time_factor(raw, ch)
            assert 0.0 < c <= 1.0
            assert c == pytest.approx(single_pass(c * raw, ch), rel=1e-12)

    def test_tiny_click_probability_stays_at_most_one(self):
        # at a ~ 1e-16 the cancelling form (sqrt(1 + 4a) - 1)/(2a) gives 1.22
        assert saturated_dead_time_factor(9e-19, channel(20.0)) <= 1.0

    def test_against_mpmath(self):
        # R*t = 100, so a = R*t*p runs from 1e-15 to 1e2; evaluated as
        # (sqrt(1+4a) - 1)/(2a), the root loses about 1e-16/a to cancellation
        ch = channel(20.0)
        for k in range(-15, 3):
            for mantissa in (1.0, 3.7):
                p = mantissa * 10.0**k / 100.0
                if p > 1.0:
                    continue
                a = ch.rep_rate_hz * ch.dead_time_s * p
                with mpmath.workdps(50):
                    want = float((mpmath.sqrt(1 + 4 * mpmath.mpf(a)) - 1) / (2 * mpmath.mpf(a)))
                assert saturated_dead_time_factor(p, ch) == pytest.approx(want, rel=1e-15)

    def test_saturated_below_single_pass(self):
        ch = channel(10.0)
        # the fixed point corrects less severely than one raw application
        assert saturated_dead_time_factor(0.05, ch) > single_pass(0.05, ch)


def clicks(ch):
    """The zonly dead-time factor of ONE on ch and its per-intensity (click,
    error) cells, from the core's level records on a fresh link."""
    link = _Link(ch, 1e7, 2)
    cells = tuple(_level(mu, link)[1:3] for mu in ONE.intensities)
    raw = sum(p * click for p, (click, _) in zip(ONE.intensity_probs, cells))
    return saturated_dead_time_factor(raw * ONE.basis_prob_z**2, ch), cells


class TestDetectionProb:
    def test_signal_reference(self):
        # mu*eta = 0.5 * 0.01: detection = sift * p_mu * (1 - e^-0.005)
        det_z = per_pulse(point(20.0, dark=0.0, dead=0.0))[0]
        want = 0.9**2 * 0.7 * 0.0049875208073176866
        assert det_z[0] == pytest.approx(want, rel=1e-12)

    def test_no_signal_no_darks(self):
        ch = channel(4000.0, dark=0.0, dead=0.0)  # transmittance underflows to 0
        assert clicks(ch) == (1.0, ((0.0, 0.0), (0.0, 0.0)))

    def test_cell_decomposition(self):
        """Dividing out dead time and sifting recovers the per-intensity click
        probability in both bases."""
        p = point(26.0)
        c_dt, cells = clicks(p.channel)
        det_z, _, det_x, _ = per_pulse(p)
        eta = p.channel.transmittance
        for det, sift in ((det_z, 0.81), (det_x, 0.01)):
            for k, (mu, p_mu) in enumerate(zip(ONE.intensities, ONE.intensity_probs)):
                click = -math.expm1(-mu * eta) + 1e-8
                assert cells[k][0] == pytest.approx(click, rel=1e-12)
                assert det[k] / (c_dt * sift * p_mu) == pytest.approx(click, rel=1e-12)

    def test_error_prob_zero_without_causes(self):
        assert per_pulse(point(26.0, dark=0.0, p_err=0.0))[1][0] == 0.0

    def test_error_prob_proportional_to_misalignment(self):
        det_z, err_z, _, _ = per_pulse(point(26.0, dark=0.0, p_err=0.4))
        assert err_z[0] / det_z[0] == pytest.approx(0.4, rel=1e-12)

    def test_error_below_detection(self):
        rng = random.Random(11)
        for _ in range(100):
            det_z, err_z, det_x, err_x = per_pulse(random_point(rng))
            for det, err in ((det_z, err_z), (det_x, err_x)):
                assert all(map(float.__le__, err, det))


class TestExpectedObservations:
    def test_z_cells_sum_to_block(self):
        obs = expected_observations(point())
        assert sum(obs.detections_z) == pytest.approx(1e7, rel=1e-12)
        assert obs.n_z == pytest.approx(1e7, rel=1e-12)

    def test_no_errors_without_causes(self):
        obs = expected_observations(point(dark=0.0, p_err=0.0))
        assert obs.m_z == 0.0 and obs.m_x == 0.0

    def test_cells_match_per_pulse_probabilities(self):
        p = point(30.0)
        obs = expected_observations(p)
        c_dt, cells = clicks(p.channel)
        for k, p_mu in enumerate(ONE.intensity_probs):
            weight = obs.pulses_sent * c_dt * p_mu * cells[k][0]
            assert obs.detections_z[k] == pytest.approx(weight * 0.9**2, rel=1e-12)
            assert obs.detections_x[k] == pytest.approx(weight * 0.1**2, rel=1e-12)

    def test_qber_dark_dominated_limit(self):
        # at extreme loss only dark counts click and half of them err
        obs = expected_observations(point(120.0, dark=1e-6))
        assert obs.qber_z == pytest.approx(0.5, rel=0.01)

    def test_qber_misalignment_limit(self):
        obs = expected_observations(point(30.0, dark=0.0, p_err=0.023))
        assert obs.qber_z == pytest.approx(0.023, rel=1e-12)

    def test_sift_budget(self):
        rng = random.Random(13)
        for _ in range(50):
            p = random_point(rng)
            obs = expected_observations(p)
            assert obs.n_z + obs.n_x <= obs.pulses_sent * (1.0 + 1e-12)

    def test_no_detections_raises(self):
        with pytest.raises(NoDetectionsError):
            expected_observations(point(4000.0, dark=0.0))

    def test_acquisition_monotone_in_attenuation(self):
        previous = 0.0
        for att in range(2, 71, 2):
            rp = rate_point(point(float(att)))
            assert rp.acquisition_s >= previous
            previous = rp.acquisition_s

    def test_skr_nonincreasing_past_the_knee(self):
        rates = [rate_point(point(float(att))).skr_hz for att in range(20, 71, 5)]
        knee = rates.index(max(rates))
        for earlier, later in zip(rates[knee:], rates[knee + 1 :]):
            assert later <= earlier * (1.0 + 1e-9)


class TestRatePoint:
    def test_estimate_fields_lead_the_rate_point(self):
        # rate_point copies the first eight KeyEstimate fields by position
        assert KeyEstimate._fields[:8] == RatePoint._fields[:8]

    def test_composition(self):
        rp = rate_point(point(26.0))
        obs = expected_observations(point(26.0))
        assert rp.skr_hz == pytest.approx(rp.key_length / obs.pulses_sent * 1e9, rel=1e-12)
        assert rp.acquisition_s == pytest.approx(obs.pulses_sent / 1e9, rel=1e-12)
        assert rp.status == "ok"
        assert 0.0 < rp.phase_error_upper < 0.5

    def test_extreme_attenuation_yields_zero_rate(self):
        rp = rate_point(point(120.0))
        assert rp.skr_hz == 0.0 and rp.key_length == 0.0

    def test_no_detections_status(self):
        rp = rate_point(point(4000.0, dark=0.0))
        assert rp.status == "no_detections"
        assert rp.skr_hz == 0.0
        assert math.isinf(rp.acquisition_s)

    def test_zero_key_never_reports_rate(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_point(rng)
            rp = rate_point(p)
            if rp.key_length == 0.0:
                assert rp.skr_hz == 0.0

    def test_tiny_basis_bias(self):
        # Z sifting 1e-18: the dead-time factor once rounded above 1 and the
        # X cells outnumbered the pulses sent
        protocol = ProtocolParams(Variant.ONE_DECOY, (3.0, 2.0), (0.5, 0.5), 1e-9)
        rp = rate_point(point(0.0, protocol=protocol, block=1e5))
        assert rp.status == "no_key"

    @pytest.mark.parametrize("protocol", [ONE, TWO], ids=["one", "two"])
    def test_eps_floor_keeps_a_key(self, protocol):
        sec = SecurityParams(MIN_EPS, MIN_EPS, 1e15)
        rp = rate_point(SimulationPoint(channel_from_preset("snspd", 26.0), protocol, sec))
        assert rp.status == "ok" and rp.skr_hz > 0.0 and rp.phase_error_upper < 0.5


def check_kernels(sim, deadtime_mode):
    """On a fresh link, the variant's count stage gives the reference loops'
    values repr for repr: the (click, error) cells of the level records it
    keeps, and its tuple of the four count tuples, their totals and the pulse
    count; the variant's bound stage on that tuple sums the reference
    weights, tau0 and tau1. The count stage raises NoDetectionsError where
    the loop does. Returns the reference counts and pulse count, or None
    after the raise."""
    sim = with_switches(sim, deadtime_mode=deadtime_mode)
    p = sim.protocol
    mus, probs, pz = p.intensities, p.intensity_probs, p.basis_prob_z
    link, constants = _prepare(sim.channel, sim.sec, len(mus))
    cells, weights, taus = reference_mixture(mus, probs, link)
    try:
        want = reference_counts(probs, pz, cells, link)
    except NoDetectionsError:
        with pytest.raises(NoDetectionsError):
            link.counts(mus, probs, pz, link)
        want = None
    else:
        counts, pulses = want
        values = link.counts(mus, probs, pz, link)
        assert repr(values) == repr((*counts, *(left_sum(c) for c in counts), pulses))
        names = ("w1", "w2", "w3")[:len(mus)] + ("tau0", "tau1")
        stages = bounds._one_decoy, bounds._two_decoy
        (mixture,) = stage_locals(stages, names, lambda: constants.bounds(mus, probs, values,
                                                                          constants))
        assert repr(mixture) == repr((*weights, *taus))
    assert repr(tuple(level[1:3] for level in link.levels)) == repr(cells)
    return want


class TestKernels:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(valid_points(), st.sampled_from(DEADTIME_MODES))
    def test_kernels_are_the_reference_loops(self, sim, deadtime_mode):
        check_kernels(sim, deadtime_mode)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(keyed_points(), st.sampled_from(DEADTIME_MODES))
    def test_kernels_are_the_reference_loops_on_keyed_points(self, sim, deadtime_mode):
        check_kernels(sim, deadtime_mode)

    @pytest.mark.parametrize("deadtime_mode", DEADTIME_MODES)
    @pytest.mark.parametrize("protocol", [ONE, TWO], ids=["one", "two"])
    def test_capped_click(self, protocol, deadtime_mode):
        """Signal plus dark counts above 1 at the signal level: its click is
        capped at 1.0."""
        sim = point(0.0, protocol=protocol, dark=0.9)
        link = _Link(sim.channel, 1e7, len(protocol.intensities))
        assert _level(protocol.intensities[0], link)[1] == 1.0
        assert check_kernels(sim, deadtime_mode) is not None

    @pytest.mark.parametrize("protocol", [ONE, TWO], ids=["one", "two"])
    def test_transmittance_underflow(self, protocol):
        """At 4000 dB the transmittance is 0 and only dark counts click."""
        assert check_kernels(point(4000.0, protocol=protocol), "zonly") is not None

    @pytest.mark.parametrize("protocol", [ONE, TWO], ids=["one", "two"])
    def test_no_detections_raise(self, protocol):
        assert check_kernels(point(4000.0, protocol=protocol, dark=0.0), "allclicks") is None


class TestInlineDeadTime:
    """The count stages write the dead-time root 2 / (1 + sqrt(1 + 4a)) inline,
    with its check: it is ``saturated_dead_time_factor``'s, bit for bit, and
    rejects what it rejects, with its message."""

    def test_root_is_saturated_dead_time_factor(self, monkeypatch):
        """The count stage gives the reference loops' values repr for repr
        when their root is the public saturated_dead_time_factor, in both
        dead-time modes."""

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(valid_points(), st.sampled_from(DEADTIME_MODES))
        def check(sim, deadtime_mode):
            ch = sim.channel

            def public(raw, rate_dead):
                assert rate_dead == ch.rep_rate_hz * ch.dead_time_s
                return saturated_dead_time_factor(raw, ch)

            with monkeypatch.context() as patch:
                patch.setattr(conftest, "_dead_time_factor", public)
                check_kernels(sim, deadtime_mode)

        check()

    @pytest.mark.parametrize("deadtime_mode", DEADTIME_MODES)
    @pytest.mark.parametrize("mus, probs", [
        ((0.1, 0.5), (1.5, -0.5)),
        ((0.01, 0.5, 0.4), (1.0, -1.0, 1.0)),
    ], ids=["one", "two"])
    def test_rejects_what_saturated_dead_time_factor_rejects(self, mus, probs, deadtime_mode):
        """A raw click probability below zero, which no valid level mixture
        gives, is rejected with saturated_dead_time_factor's message."""
        message = r"^saturated_dead_time_factor: click probability must be in \[0, 1\]$"
        ch = replace(channel(26.0), deadtime_mode=deadtime_mode)
        with pytest.raises(ParameterError, match=message):
            saturated_dead_time_factor(-1e-3, ch)
        link = _Link(ch, 1e7, len(mus))
        with pytest.raises(ParameterError, match=message):
            link.counts(mus, probs, 0.9, link)


def check_core(sim, s0_upper_mode, deadtime_mode):
    """With the model switches set on the point's records, the unchecked core
    that the optimizer's objective runs, on a record prepared from the
    point's channel and security settings, gives, bit for bit, the SKR of
    rate_point. rate_point builds every record from the
    core's pieces and checks it (Observations from the cells and pulse count,
    EpsilonBudget, BoundInputs, RatePoint), so the checks the core skips hold
    on its values wherever rate_point does not raise. Returns the RatePoint."""
    sim = with_switches(sim, s0_upper_mode, deadtime_mode)
    rp = rate_point(sim)
    p = sim.protocol
    prepared = _prepare(sim.channel, sim.sec, len(p.intensities))
    core = _key_rate(p.intensities, p.intensity_probs, p.basis_prob_z, prepared)
    assert core == rp.skr_hz
    return rp


def line_search_walk(sims):
    """(mus, probs, pz) from the first point through the others and back to
    the first, one change at a time: each level in turn, then the
    probabilities, then p_Z. Every state is a fresh tuple, as the optimizer
    makes them, and some states break the ordering of the levels."""
    first = sims[0].protocol
    mus, probs, pz = list(first.intensities), first.intensity_probs, first.basis_prob_z
    for sim in sims[1:] + sims[-2::-1]:
        target = sim.protocol
        for i, mu in enumerate(target.intensities):
            mus[i] = mu
            yield tuple(mus), tuple(probs), pz
        probs = target.intensity_probs
        yield tuple(mus), tuple(probs), pz
        pz = target.basis_prob_z
        yield tuple(mus), tuple(probs), pz


class TestRatePointProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        valid_points(),
        st.sampled_from(S0_UPPER_MODES),
        st.sampled_from(DEADTIME_MODES),
    )
    # filling the block takes more pulses than a float holds
    @example(point(2959.0, block=1e12, dark=0.0, p_err=0.0, dead=0.0), "total", "zonly")
    # ec_efficiency * n_Z overflows while h(QBER) = 0
    @example(
        SimulationPoint(
            channel(26.0, dark=0.0, p_err=0.0), ONE, SecurityParams(1e-9, 1e-15, 1e7, 1e302)
        ),
        "per-intensity",
        "zonly",
    )
    def test_never_raises_on_valid_input(self, sim, s0_upper_mode, deadtime_mode):
        rp = rate_point(with_switches(sim, s0_upper_mode, deadtime_mode))
        assert rp.status in ("ok", "no_key", "no_detections")
        assert not any(math.isnan(v) for v in rp if isinstance(v, float))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        valid_points(),
        st.sampled_from(S0_UPPER_MODES),
        st.sampled_from(DEADTIME_MODES),
    )
    # a Z sifting probability that underflows to 0, and a point past the cutoff
    @example(point(26.0, protocol=replace(ONE, basis_prob_z=1e-200)), "total", "zonly")
    @example(point(72.0, block=1e5), "per-intensity", "allclicks")
    def test_core_is_the_checked_pipeline(self, sim, s0_upper_mode, deadtime_mode):
        check_core(sim, s0_upper_mode, deadtime_mode)

    def test_core_is_the_checked_pipeline_on_keyed_points(self):
        """The same on points of the optimizer's search box, where the chain
        mostly runs through the phase error and the key length: at least
        half of the draws must end with a positive key."""
        keyed = []

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(keyed_points(), st.sampled_from(S0_UPPER_MODES), st.sampled_from(DEADTIME_MODES))
        def check(sim, s0_upper_mode, deadtime_mode):
            rp = check_core(sim, s0_upper_mode, deadtime_mode)
            keyed.append(rp.status == "ok" and rp.key_length > 0.0)

        check()
        assert sum(keyed) >= len(keyed) / 2

    @pytest.mark.parametrize("deadtime_mode", DEADTIME_MODES)
    @pytest.mark.parametrize("s0_upper_mode", S0_UPPER_MODES)
    @pytest.mark.parametrize("att", [26.0, 46.0])
    @pytest.mark.parametrize("protocol", [ONE, TWO], ids=["one", "two"])
    def test_core_is_the_checked_pipeline_with_a_key(
        self, protocol, att, s0_upper_mode, deadtime_mode
    ):
        """The same on points that reach the key length, which few draws of
        valid_points do."""
        sim = SimulationPoint(
            channel_from_preset("snspd", att), protocol, SecurityParams(1e-9, 1e-15, 1e7)
        )
        assert check_core(sim, s0_upper_mode, deadtime_mode).key_length > 0.0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(list(Variant)).flatmap(
            lambda variant: st.lists(keyed_points(variant), min_size=2, max_size=6)
        ),
        st.sampled_from(S0_UPPER_MODES),
        st.sampled_from(DEADTIME_MODES),
    )
    def test_one_prepared_record_serves_every_evaluation(self, sims, s0_upper_mode, deadtime_mode):
        """A record prepared once, from the first point's channel and security
        settings, and reused along a walk shaped like the coordinate search's
        line searches, gives rate_point's SKR bit for bit at each step. The
        walk goes from point to point and back again, changing one level at
        a time, then the probabilities, then p_Z. The record's level slots
        carry over from one evaluation to the next, but they never change a
        result."""
        first = with_switches(sims[0], s0_upper_mode, deadtime_mode)
        ch, sec, variant = first.channel, first.sec, first.protocol.variant
        prepared = _prepare(ch, sec, len(first.protocol.intensities))
        for mus, probs, pz in line_search_walk(sims):
            try:
                protocol = ProtocolParams(variant, mus, probs, pz)
            except ParameterError:  # a level moved past a neighbour; the objective scores -1
                continue
            want = rate_point(SimulationPoint(ch, protocol, sec)).skr_hz
            assert _key_rate(mus, probs, pz, prepared) == want

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(valid_points(), st.floats(5.0, 11.0), st.floats(5.0, 11.0))
    def test_key_fraction_never_falls_with_block_size(self, sim, exp_a, exp_b):
        """l/n_Z is non-decreasing in n_Z: the statistical corrections grow
        as sqrt(n_Z) and the security penalty is fixed."""
        fractions = []
        for exponent in sorted((exp_a, exp_b)):
            n_z = 10.0**exponent
            sized = replace(sim, sec=replace(sim.sec, block_size=n_z))
            fractions.append(rate_point(sized).key_length / n_z)
        assert fractions[1] >= fractions[0] * (1.0 - 1e-12)  # up to rounding


class TestPresets:
    def test_values(self):
        snspd = channel_from_preset("snspd", 26.0)
        assert snspd.dead_time_s == pytest.approx(100e-9)
        assert snspd.dark_count_prob == pytest.approx(1e-8)
        assert snspd.rep_rate_hz == 1e9
        assert snspd.misalignment_prob == 0.01
        ingaas = channel_from_preset("ingaas", 26.0)
        assert ingaas.dead_time_s == pytest.approx(20e-6)
        assert ingaas.dark_count_prob == pytest.approx(1e-9)

    def test_unknown_preset(self):
        with pytest.raises(ParameterError, match="preset"):
            channel_from_preset("nanowire", 26.0)


class TestChannelIdentity:
    def test_poisson_expansion_matches_closed_form(self):
        """sum_n P(n|mu) (1 - (1-eta)^n) == 1 - exp(-mu*eta) on the test grid."""
        for mu in (0.1, 0.5, 1.0):
            for eta in (1e-3, 1e-1):
                expanded = sum(
                    poisson_pmf(mu, n) * (1.0 - (1.0 - eta) ** n) for n in range(51)
                )
                assert abs(expanded - (-math.expm1(-mu * eta))) < 1e-10


def ceiling_excess(point: SimulationPoint) -> float:
    """``rate_point``'s key length less the perfect-decoy ceiling at the
    point's own levels, n_Z (D0 + D1 (1 - h(e1))) - lambda_EC - penalty,
    with D0, D1 and e1 from the per-photon-number oracle, in bits per Z
    detection."""
    rate = rate_point(point)
    detections, errors = oracle_photon_counts(point, expected_observations(point), Basis.Z)
    _, constants = _prepare(point.channel, point.sec, len(point.protocol.intensities))
    vacuum, single = detections[:2]
    ceiling = (vacuum + single * (1.0 - binary_entropy(errors[1] / single))
               - rate.lambda_ec - constants.penalty)
    return (rate.key_length - max(0.0, ceiling)) / point.sec.block_size


def certified(preset: str, att: float, block_size: float, variant: Variant) -> bool:
    sec = SecurityParams(1e-9, 1e-15, block_size)
    prepared = _prepare(channel_from_preset(preset, att), sec, variant.intensity_count)
    return _keyless(*prepared, _MU1_RANGE[1])


class TestCeiling:
    """The perfect-decoy ceiling: every key length lies below it, and
    ``_keyless`` certifies a zero only where no levels in the box reach it."""

    @pytest.mark.parametrize("deadtime_mode", DEADTIME_MODES)
    @pytest.mark.parametrize("s0_upper_mode", S0_UPPER_MODES)
    def test_key_length_below_the_ceiling(self, s0_upper_mode, deadtime_mode):
        rng = random.Random(16)
        for _ in range(20):
            point = with_switches(random_point(rng), s0_upper_mode, deadtime_mode)
            assert ceiling_excess(point) <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(keyed_points(), st.sampled_from(S0_UPPER_MODES), st.sampled_from(DEADTIME_MODES))
    def test_key_length_below_the_ceiling_on_keyed_points(self, point, s0_mode, deadtime_mode):
        assert ceiling_excess(with_switches(point, s0_mode, deadtime_mode)) <= 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(keyed_points(), st.floats(70.0, 82.0), st.sampled_from(DEADTIME_MODES))
    def test_no_key_where_certified(self, point, att, deadtime_mode):
        """Levels drawn from the search box give no key where the point is
        certified; the draws at snspd past 70.4 dB are."""
        point = with_switches(point, deadtime_mode=deadtime_mode)
        point = replace(point, channel=replace(point.channel, attenuation_db=att))
        link, constants = _prepare(point.channel, point.sec, len(point.protocol.intensities))
        if _keyless(link, constants, _MU1_RANGE[1]):
            assert rate_point(point).key_length == 0.0

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("preset, block_size, cutoff", [
        ("snspd", 1e5, 70.35), ("snspd", 1e7, 70.39), ("snspd", 1e9, 70.39),
        ("ingaas", 1e7, 80.39),
    ])
    def test_certified_cutoffs(self, preset, block_size, cutoff, variant):
        """Bisected to 1e-3 dB, the lowest certified attenuation is within
        0.01 dB of the ceiling's cutoff, found on a fine grid in mu."""
        low, high = cutoff - 1.0, cutoff + 1.0
        assert not certified(preset, low, block_size, variant)
        assert certified(preset, high, block_size, variant)
        while high - low > 1e-3:
            mid = 0.5 * (low + high)
            low, high = (low, mid) if certified(preset, mid, block_size, variant) else (mid, high)
        assert abs(high - cutoff) <= 0.01

    @pytest.mark.parametrize("variant, att", [(Variant.ONE_DECOY, 66.9), (Variant.TWO_DECOY, 68.3)])
    def test_keyed_points_are_not_certified(self, variant, att):
        """The finite-key cutoffs at snspd, n_Z = 1e7, are 66.9 dB (1-decoy)
        and 68.3 dB (2-decoy); nothing below them is certified."""
        for tenth in range(600, round(att * 10) + 1):
            assert not certified("snspd", tenth / 10.0, 1e7, variant)

    def test_declines_where_the_click_cap_could_bind(self):
        """At 0 dB with a dark-count probability of 0.9, a pulse of mu = 1.2
        would click with probability above 1, which the model caps: the
        ceiling's shares do not hold there, and it would certify this point.
        Without dark counts Q(0) is 0, and it declines too."""
        channel = ChannelParams(0.0, 0.9, 0.01, 0.0, 1e9)
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        assert not _keyless(*_prepare(channel, sec, 2), _MU1_RANGE[1])
        without_darks = replace(channel_from_preset("snspd", 90.0), dark_count_prob=0.0)
        assert not _keyless(*_prepare(without_darks, sec, 2), _MU1_RANGE[1])
