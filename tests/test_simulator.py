"""Channel model: dead time, per-pulse detection/error probabilities, expected
counts, presets, and the closed-form/photon-expansion identity."""

import math
import random
from dataclasses import astuple, replace

import mpmath
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from decoyqkd import (
    BoundOptions,
    ChannelParams,
    NoDetectionsError,
    OptimizationSpec,
    ParameterError,
    ProtocolParams,
    SecurityParams,
    SimulationPoint,
    Variant,
    channel_from_preset,
    expected_observations,
    poisson_pmf,
    rate_point,
    saturated_dead_time_factor,
    sweep,
)
from decoyqkd.bounds import S0_UPPER_MODES
from decoyqkd.model import MAX_INTENSITY, MIN_EPS
from decoyqkd.simulator import DEADTIME_MODES, DETECTOR_PRESETS, _clicks, _key_rate

from conftest import keyed_points, random_point

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


LEVELS = ONE.intensities, ONE.intensity_probs, ONE.basis_prob_z


class TestDetectionProb:
    def test_signal_reference(self):
        # mu*eta = 0.5 * 0.01: detection = sift * p_mu * (1 - e^-0.005)
        det_z = per_pulse(point(20.0, dark=0.0, dead=0.0))[0]
        want = 0.9**2 * 0.7 * 0.0049875208073176866
        assert det_z[0] == pytest.approx(want, rel=1e-12)

    def test_no_signal_no_darks(self):
        ch = channel(4000.0, dark=0.0, dead=0.0)  # transmittance underflows to 0
        assert _clicks(*LEVELS, ch, "zonly") == (1.0, [(0.0, 0.0), (0.0, 0.0)])

    def test_cell_decomposition(self):
        """Dividing out dead time and sifting recovers the per-intensity click
        probability in both bases."""
        p = point(26.0)
        c_dt, cells = _clicks(*LEVELS, p.channel, "zonly")
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
        c_dt, cells = _clicks(*LEVELS, p.channel, "zonly")
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

    @pytest.mark.parametrize("call", [
        lambda mode: rate_point(point(), deadtime_mode=mode),
        lambda mode: expected_observations(point(), mode),
        lambda mode: sweep(
            channel(26.0), [26.0], point().sec, [OptimizationSpec(Variant.ONE_DECOY)],
            deadtime_mode=mode,
        ),
    ])
    def test_unknown_deadtime_mode_rejected(self, call):
        # checked on entry; the core below takes the mode as valid
        with pytest.raises(ParameterError, match="deadtime_mode"):
            call("both")


@st.composite
def valid_points(draw):
    """Any accepted protocol (both variants, intensities anywhere in
    [0, MAX_INTENSITY], any probabilities and basis bias), any accepted
    channel (attenuation up to infinity, dark counts from 0, dead time and
    pulse rate up to the largest float whose product is finite) and any
    accepted security record (eps_sec and eps_cor from MIN_EPS, n_Z from 1 to
    1e300)."""
    variant = draw(st.sampled_from(list(Variant)))
    k = variant.intensity_count
    levels = draw(st.lists(st.floats(0.0, MAX_INTENSITY), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=k, max_size=k))
    pz = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    try:
        protocol = ProtocolParams(
            variant, sorted(levels, reverse=True), [w / sum(weights) for w in weights], pz
        )
    except ParameterError:
        reject()
    try:
        link = ChannelParams(
            attenuation_db=draw(st.floats(min_value=0.0)),
            dark_count_prob=draw(st.floats(0.0, 1.0, exclude_max=True)),
            misalignment_prob=draw(st.floats(0.0, 0.5, exclude_max=True)),
            dead_time_s=draw(st.floats(min_value=0.0, allow_infinity=False)),
            rep_rate_hz=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        )
    except ParameterError:  # rep_rate_hz * dead_time_s overflows
        reject()
    sec = SecurityParams(
        draw(st.floats(MIN_EPS, 1.0, exclude_max=True)),
        draw(st.floats(MIN_EPS, 1.0, exclude_max=True)),
        10.0 ** draw(st.floats(0.0, 300.0)),
        draw(st.floats(min_value=1.0, allow_infinity=False)),
    )
    return SimulationPoint(link, protocol, sec)


def check_core(sim, s0_upper_mode, deadtime_mode):
    """The unchecked core that the optimizer's objective runs gives, bit for
    bit, the SKR of rate_point. rate_point builds every record from the
    core's pieces and checks it (Observations from the cells and pulse count,
    EpsilonBudget, BoundInputs, RatePoint), so the checks the core skips hold
    on its values wherever rate_point does not raise. Returns the RatePoint."""
    options = BoundOptions(s0_upper_mode=s0_upper_mode)
    rp = rate_point(sim, options, deadtime_mode)
    p = sim.protocol
    core = _key_rate(
        p.intensities, p.intensity_probs, p.basis_prob_z, sim.channel, sim.sec, options,
        deadtime_mode,
    )
    assert core == rp.skr_hz
    return rp


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
        rp = rate_point(sim, BoundOptions(s0_upper_mode=s0_upper_mode), deadtime_mode)
        assert rp.status in ("ok", "no_key", "no_detections")
        assert not any(math.isnan(v) for v in astuple(rp) if isinstance(v, float))

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
