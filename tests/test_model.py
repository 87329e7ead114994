"""Math primitives and domain-type invariants.

Frozen reference values were computed with mpmath at 50 digits; a few tests
re-derive them live to keep the oracle honest.
"""

import math
import random
import re
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from decoyqkd import (
    ChannelParams,
    Observations,
    ParameterError,
    ProtocolParams,
    RatePoint,
    SecurityParams,
    Variant,
    binary_entropy,
    hoeffding_delta,
    photon_number_prob,
    poisson_pmf,
)
from decoyqkd.model import MAX_INTENSITY, MIN_EPS, _poisson

from conftest import (
    BUILD_PATHS,
    left_sum,
    poisson_ref,
    record_builds,
    reference_observations,
    round_trips,
)

# sqrt(1e7 * ln(1e10) / 2), mpmath 50 dps
DELTA_1E7_1E10 = 10729.830131446736
# h(0.01) in bits
H_001 = 0.080793135895911173


class TestHoeffdingDelta:
    def test_zero_samples(self):
        assert hoeffding_delta(0, 0.5) == 0.0

    def test_eps_one_disables_deviation(self):
        assert hoeffding_delta(1e7, 1.0) == 0.0

    def test_reference_value(self):
        assert hoeffding_delta(1e7, 1e-10) == pytest.approx(DELTA_1E7_1E10, rel=1e-12)

    def test_against_mpmath(self):
        mp.mp.dps = 50
        for n, eps in ((1e6, 1e-9), (12345.0, 0.01), (3.0, 0.3)):
            want = float(mp.sqrt(mp.mpf(n) * mp.log(1 / mp.mpf(eps)) / 2))
            assert hoeffding_delta(n, eps) == pytest.approx(want, rel=1e-13)

    def test_algebraic_round_trip(self):
        rng = random.Random(101)
        for _ in range(1000):
            n = rng.uniform(1.0, 1e12)
            eps = 10.0 ** rng.uniform(-15.0, -0.01)
            delta = hoeffding_delta(n, eps)
            assert delta**2 * 2.0 / n == pytest.approx(math.log(1.0 / eps), rel=1e-10)

    def test_monotone(self):
        assert hoeffding_delta(2e6, 1e-9) > hoeffding_delta(1e6, 1e-9)
        assert hoeffding_delta(1e6, 1e-6) < hoeffding_delta(1e6, 1e-9)

    @pytest.mark.parametrize("n,eps", [(-1.0, 0.5), (10.0, 0.0), (10.0, 1.5), (10.0, -0.1)])
    def test_domain_errors(self, n, eps):
        with pytest.raises(ParameterError):
            hoeffding_delta(n, eps)

    def test_nan_sample_size_rejected(self):
        with pytest.raises(ParameterError, match="hoeffding_delta: n must be >= 0"):
            hoeffding_delta(math.nan, 0.1)


class TestBinaryEntropy:
    def test_endpoints_by_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_reference_value(self):
        assert binary_entropy(0.01) == pytest.approx(H_001, rel=1e-12)

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(1000):
            x = rng.random()
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_bounded_by_one(self):
        rng = random.Random(8)
        assert all(0.0 <= binary_entropy(rng.random()) <= 1.0 for _ in range(1000))

    @pytest.mark.parametrize("x", [-0.001, 1.001, 2.0])
    def test_domain_errors(self, x):
        with pytest.raises(ParameterError):
            binary_entropy(x)


class TestPoissonPmf:
    def test_vacuum_source(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_reference_values(self):
        assert poisson_pmf(0.5, 0) == pytest.approx(0.60653065971263342, rel=1e-12)
        assert poisson_pmf(1.0, 1) == pytest.approx(0.36787944117144232, rel=1e-12)

    def test_against_factorial_form(self):
        for mu in (0.1, 0.5, 1.0):
            for n in range(0, 30):
                assert poisson_pmf(mu, n) == pytest.approx(poisson_ref(mu, n), rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, MAX_INTENSITY, exclude_min=True))
    @example(5e-324)
    @example(1e-310)
    @example(MAX_INTENSITY)
    def test_closed_forms_equal_the_lgamma_form(self, mu):
        """The 0- and 1-photon closed forms are the general form, bit for bit."""
        for n in (0, 1):
            general = math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
            assert repr(_poisson(mu, n)) == repr(general)

    def test_closed_forms_at_zero_mean(self):
        assert (_poisson(0.0, 0), _poisson(0.0, 1)) == (1.0, 0.0)

    def test_large_n_stays_finite(self):
        assert 0.0 <= poisson_pmf(1.0, 150) < 1e-200

    def test_normalization(self):
        for mu in (0.1, 0.5, 1.0):
            total = sum(poisson_pmf(mu, n) for n in range(51))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            poisson_pmf(-0.1, 0)
        with pytest.raises(ParameterError):
            poisson_pmf(0.5, -1)

    def test_against_mpmath(self):
        """To 1e-11 relative wherever the value is a normal float, over the
        levels' whole domain and n up to 1000."""
        ns = (0, 1, 2, 3, 5, 10, 20, 50, 100, 200, 300, 500, 700, 1000)
        for mu in (1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.5, 10.0, 50.0, 100.0, 250.0, 500.0,
                   700.0, MAX_INTENSITY):
            for n in ns:
                with mp.workdps(50):
                    want = float(mp.exp(-mp.mpf(mu)) * mp.mpf(mu) ** n / mp.factorial(n))
                assert poisson_pmf(mu, n) == pytest.approx(want, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("mu", [math.nextafter(MAX_INTENSITY, math.inf), 1e12, math.inf])
    def test_mean_above_the_levels_domain_rejected(self, mu):
        """Past MAX_INTENSITY the exponent cancels: unchecked, mu = n = 1e12
        gives 3.974e-7 for 3.989e-7, and mu = n = 1e299 gives 1.0."""
        with pytest.raises(ParameterError, match=rf"^poisson_pmf: mu must be <= .*, got {mu!r}$"):
            poisson_pmf(mu, 0)

    def test_nan_mean_rejected(self):
        with pytest.raises(ParameterError, match="poisson_pmf: mu must be >= 0"):
            poisson_pmf(math.nan, 0)

    @pytest.mark.parametrize("n", [1.5, True, math.nan, math.inf, 10**400, 1e300, "2", None],
                             ids=["fraction", "bool", "nan", "inf", "1e400", "1e300", "str",
                                  "none"])
    def test_a_photon_number_that_is_no_whole_number_is_rejected(self, n):
        """Past 1e300 lgamma(n + 1) overflows, so even a whole n is refused."""
        with pytest.raises(ParameterError, match=r"^poisson_pmf: n must be a whole number"):
            poisson_pmf(0.5, n)

    def test_integral_floats_accepted(self):
        assert poisson_pmf(0.5, 2.0) == poisson_pmf(0.5, 2)
        assert poisson_pmf(0.5, 1e299) == 0.0


class TestPhotonNumberProb:
    def test_nearly_single_intensity(self):
        # probs in (0,1] forbid an exact single level; 1-1e-12 is close enough
        params = ProtocolParams(
            Variant.ONE_DECOY, (1.0, 0.5), (1.0 - 1e-12, 1e-12), 0.9
        )
        assert photon_number_prob(params, 0) == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_reference_mixture(self):
        params = ProtocolParams(Variant.ONE_DECOY, (0.4, 0.1), (0.7, 0.3), 0.9)
        # 0.7*exp(-0.4) + 0.3*exp(-0.1), mpmath 50 dps
        assert photon_number_prob(params, 0) == pytest.approx(0.74067525763573538, rel=1e-12)

    def test_normalization_random_params(self):
        from conftest import random_protocol

        rng = random.Random(31)
        for _ in range(25):
            params = random_protocol(rng)
            total = sum(photon_number_prob(params, n) for n in range(201))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_photon_number_rejected(self):
        params = ProtocolParams(Variant.ONE_DECOY, (0.4, 0.1), (0.7, 0.3), 0.9)
        with pytest.raises(ParameterError, match="photon_number_prob: n must be >= 0"):
            photon_number_prob(params, -1)
        with pytest.raises(ParameterError, match="^photon_number_prob: n must be a whole number"):
            photon_number_prob(params, 0.5)
        assert photon_number_prob(params, 1.0) == photon_number_prob(params, 1)


class TestProtocolParams:
    def test_valid_two_decoy(self):
        p = ProtocolParams(Variant.TWO_DECOY, (0.5, 0.2, 1e-6), (0.6, 0.3, 0.1), 0.9)
        assert p.intensities == (0.5, 0.2, 1e-6)

    def test_wrong_intensity_count(self):
        with pytest.raises(ParameterError, match="intensities"):
            ProtocolParams(Variant.ONE_DECOY, (0.5, 0.2, 0.1), (0.5, 0.3, 0.2), 0.9)

    @pytest.mark.parametrize("variant, levels", [
        (Variant.ONE_DECOY, (0.5, 0.2, 0.1)),
        (Variant.TWO_DECOY, (0.5, 0.2)),
    ])
    def test_wrong_intensity_count_names_the_variant(self, variant, levels):
        """The message is built only on failure, and still names the variant."""
        probs = (1.0 / len(levels),) * len(levels)
        want = f"intensities: {variant.value}-decoy takes exactly {variant.intensity_count} levels"
        with pytest.raises(ParameterError, match=want):
            ProtocolParams(variant, levels, probs, 0.9)

    @pytest.mark.parametrize("levels", [(0.5, 0.0), (1e-200, 1e-300)])
    def test_one_decoy_weak_decoy_must_be_positive(self, levels):
        # mu2 * (mu1 - mu2) is the single-photon bound's denominator; the
        # second case underflows to zero
        with pytest.raises(ParameterError, match="intensities: need mu2"):
            ProtocolParams(Variant.ONE_DECOY, levels, (0.5, 0.5), 0.9)

    @pytest.mark.parametrize("levels", [(MAX_INTENSITY * 1.0001, 1.0), (math.nan, 0.1),
                                        (math.inf, 0.1), (0.5, -0.1)])
    def test_levels_within_the_domain(self, levels):
        # e**mu of a corrected count must stay finite
        with pytest.raises(ParameterError, match="intensities: each level"):
            ProtocolParams(Variant.ONE_DECOY, levels, (0.5, 0.5), 0.9)
        ProtocolParams(Variant.ONE_DECOY, (MAX_INTENSITY, 1.0), (0.5, 0.5), 0.9)

    def test_ordering_enforced(self):
        with pytest.raises(ParameterError, match="decreasing"):
            ProtocolParams(Variant.ONE_DECOY, (0.2, 0.5), (0.5, 0.5), 0.9)

    def test_two_decoy_denominator(self):
        # mu1 <= mu2 + mu3 makes the single-photon denominator nonpositive
        with pytest.raises(ParameterError, match="mu1"):
            ProtocolParams(Variant.TWO_DECOY, (0.3, 0.2, 0.15), (0.5, 0.3, 0.2), 0.9)

    def test_prob_sum(self):
        with pytest.raises(ParameterError, match="sum to 1"):
            ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.2), 0.9)

    def test_prob_range(self):
        with pytest.raises(ParameterError, match="intensity_probs"):
            ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (1.0, 0.0), 0.9)

    def test_prob_count(self):
        with pytest.raises(ParameterError, match="intensity_probs: expected 2 entries, got 3"):
            ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.5, 0.3, 0.2), 0.9)

    @pytest.mark.parametrize("pz", [0.0, 1.0, -0.2, 1.2])
    def test_basis_prob(self, pz):
        with pytest.raises(ParameterError, match="basis_prob_z"):
            ProtocolParams(Variant.ONE_DECOY, (0.5, 0.1), (0.7, 0.3), pz)

    @pytest.mark.parametrize("variant", ["one", 1, None])
    def test_variant_that_is_not_a_variant(self, variant):
        # a variant's value once failed late, as an AttributeError
        with pytest.raises(ParameterError, match=rf"^variant: must be a Variant, got "
                           rf"{re.escape(repr(variant))}$"):
            ProtocolParams(variant, (0.5, 0.1), (0.5, 0.5), 0.9)


class TestChannelParams:
    def test_transmittance(self):
        assert ChannelParams(30.0, 1e-8, 0.01, 0.0, 1e9).transmittance == pytest.approx(1e-3)
        assert ChannelParams(0.0, 0.0, 0.0, 0.0, 1.0).transmittance == 1.0

    def test_deadtime_mode_default(self):
        assert ChannelParams(30.0, 1e-8, 0.01, 0.0, 1e9).deadtime_mode == "zonly"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(attenuation_db=-1.0),
            dict(dark_count_prob=1.0),
            dict(dark_count_prob=-1e-9),
            dict(misalignment_prob=0.5),
            dict(dead_time_s=-1e-9),
            dict(dead_time_s=math.inf),
            dict(dead_time_s=math.nan),
            dict(rep_rate_hz=0.0),
            dict(rep_rate_hz=math.inf),
            # finite each, but R * t overflows
            dict(dead_time_s=1e10, rep_rate_hz=1e300),
            dict(deadtime_mode="both"),
            dict(attenuation_db=math.nan),
            # once accepted: 0 Hz with an acquisition time from dark counts alone
            dict(attenuation_db=math.inf),
        ],
    )
    def test_invariants(self, kwargs):
        base = dict(
            attenuation_db=20.0,
            dark_count_prob=1e-8,
            misalignment_prob=0.01,
            dead_time_s=1e-7,
            rep_rate_hz=1e9,
        )
        base.update(kwargs)
        with pytest.raises(ParameterError, match=next(iter(kwargs))):
            ChannelParams(**base)

    @pytest.mark.parametrize("att", [-1.0, math.nan, math.inf])
    def test_attenuation_message_names_the_value(self, att):
        with pytest.raises(ParameterError, match=rf"^attenuation_db: must be finite and >= 0, "
                                                 rf"got {att!r}$"):
            ChannelParams(att, 1e-8, 0.01, 1e-7, 1e9)


class TestSecurityParams:
    def test_defaults(self):
        sec = SecurityParams(1e-9, 1e-15, 1e7)
        assert sec.ec_efficiency == 1.05
        assert sec.s0_upper_mode == "per-intensity" and sec.gamma_base == 21.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps_sec=0.0),
            dict(eps_sec=1.0),
            dict(eps_cor=0.0),
            # below MIN_EPS: eps_sec**2 is subnormal or 0, eps_sec/19 is 0,
            # or log2(2/eps_cor) is inf
            dict(eps_sec=1e-160),
            dict(eps_sec=1e-170),
            dict(eps_sec=1e-323),
            dict(eps_cor=1e-320),
            dict(block_size=0.5),
            dict(block_size=math.inf),
            dict(ec_efficiency=0.99),
            dict(ec_efficiency=math.inf),
            dict(s0_upper_mode="both"),
            dict(gamma_base=0.0),
            dict(gamma_base=-21.0),
            # a non-finite base once gave a false zero rate with status "ok"
            dict(gamma_base=math.nan),
            dict(gamma_base=math.inf),
        ],
    )
    def test_invariants(self, kwargs):
        base = dict(eps_sec=1e-9, eps_cor=1e-15, block_size=1e7, ec_efficiency=1.05)
        base.update(kwargs)
        with pytest.raises(ParameterError, match=next(iter(kwargs))):
            SecurityParams(**base)

    def test_eps_floor_squares_to_a_normal_float(self):
        assert MIN_EPS**2 >= sys.float_info.min
        assert SecurityParams(MIN_EPS, MIN_EPS, 1e7).eps_sec == MIN_EPS


def _simple_obs(**overrides):
    fields = dict(
        intensities=(0.5, 0.1),
        detections_z=(800.0, 200.0),
        errors_z=(8.0, 2.0),
        detections_x=(80.0, 20.0),
        errors_x=(0.8, 0.2),
        pulses_sent=1e6,
    )
    fields.update(overrides)
    return Observations(**fields)


def _channel(**changed):
    values = dict(attenuation_db=26.0, dark_count_prob=1e-8, misalignment_prob=0.01,
                  dead_time_s=100e-9, rep_rate_hz=1e9)
    return ChannelParams(**{**values, **changed})


def _security(**changed):
    return SecurityParams(**{**dict(eps_sec=1e-9, eps_cor=1e-15, block_size=1e7), **changed})


def _protocol(**changed):
    values = dict(variant=Variant.ONE_DECOY, intensities=(0.5, 0.1), intensity_probs=(0.7, 0.3),
                  basis_prob_z=0.9)
    return ProtocolParams(**{**values, **changed})


class TestNumericFields:
    """Every numeric field of the library's records takes an int or a float
    and rejects a str, None, a bool or a complex with a ParameterError that
    names the field; a valid record stores its values as given, but for the
    levels and cells, which are kept as float tuples."""

    @pytest.mark.parametrize("build, field, bad", [
        (_channel, "attenuation_db", "26"),
        (_channel, "attenuation_db", True),
        (_channel, "dark_count_prob", None),
        (_channel, "misalignment_prob", 0.01j),
        (_channel, "dead_time_s", True),
        (_channel, "rep_rate_hz", "1e9"),
        (_security, "eps_sec", True),
        (_security, "eps_cor", None),
        (_security, "block_size", "1e7"),
        (_security, "block_size", None),
        (_security, "block_size", True),
        (_security, "ec_efficiency", "1.1"),
        (_security, "gamma_base", 21j),
        (_protocol, "basis_prob_z", "0.9"),
        (_protocol, "basis_prob_z", None),
        (_protocol, "intensities", ("0.5", 0.1)),
        (_protocol, "intensities", (0.5, None)),
        (_protocol, "intensity_probs", (0.7, True)),
        (_protocol, "intensity_probs", (0.7, 0.3 + 0j)),
        (_simple_obs, "intensities", ("0.5", 0.1)),
        (_simple_obs, "intensities", (0.5, False)),
        (_simple_obs, "detections_z", ("5", 200.0)),
        (_simple_obs, "errors_z", (9.0, True)),
        (_simple_obs, "detections_x", (None, 20.0)),
        (_simple_obs, "errors_x", (0.8, 0.2j)),
    ])
    def test_non_number_names_its_field(self, build, field, bad):
        message = rf"^{field}: must be a number, got "
        with pytest.raises(ParameterError, match=message):
            build(**{field: bad})

    def test_values_are_stored_as_given(self):
        """An int stays an int, so no repr moves; the levels are float tuples."""
        channel = _channel(attenuation_db=26, rep_rate_hz=10**9)
        assert repr(channel.attenuation_db) == "26" and repr(channel.rep_rate_hz) == "1000000000"
        assert repr(_security(block_size=10**7).block_size) == "10000000"
        protocol = _protocol(intensities=[1, 0.1], intensity_probs=(0.7, 0.3))
        assert repr(protocol.intensities) == "(1.0, 0.1)" and protocol.basis_prob_z == 0.9
        obs = _simple_obs(intensities=[1, 0.1], detections_z=(800, 200.0))
        assert repr((obs.intensities, obs.detections_z, obs.n_z)) == "((1.0, 0.1), (800.0, 200.0), 1000.0)"


class TestObservations:
    def test_fields_and_totals(self):
        obs = _simple_obs()
        assert obs.detections_z == (800.0, 200.0)
        assert obs.errors_x == (0.8, 0.2)
        assert obs.n_x == 100.0
        assert obs.m_z == 10.0
        assert obs.qber_z == pytest.approx(0.01)

    def test_empty_z_basis_has_zero_qber(self):
        # as estimate_key and a no-detections RatePoint count it
        obs = Observations((0.5, 0.1), (0, 0), (0, 0), (1, 1), (0, 0), pulses_sent=10)
        assert obs.qber_z == 0.0

    def test_errors_cannot_exceed_detections(self):
        with pytest.raises(ParameterError, match="errors_z"):
            _simple_obs(errors_z=(900.0, 2.0))

    def test_negative_counts(self):
        with pytest.raises(ParameterError):
            _simple_obs(detections_x=(-1.0, 101.0))

    @pytest.mark.parametrize("name", ["detections_z", "errors_z", "detections_x", "errors_x"])
    @pytest.mark.parametrize("cells", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_cell_rejected(self, name, cells):
        with pytest.raises(ParameterError, match=f"{name}: counts must be >= 0"):
            _simple_obs(**{name: cells})

    @pytest.mark.parametrize("name", ["detections_z", "errors_z", "detections_x", "errors_x"])
    def test_cell_count_must_match_intensities(self, name):
        with pytest.raises(ParameterError, match=f"{name}: expected 2 cells"):
            _simple_obs(**{name: (1.0, 1.0, 1.0)})

    def test_x_errors_cannot_exceed_detections(self):
        with pytest.raises(ParameterError, match="errors_x"):
            _simple_obs(errors_x=(0.8, 20.5))

    def test_pulse_budget(self):
        with pytest.raises(ParameterError, match="pulses_sent"):
            _simple_obs(pulses_sent=500.0)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_the_reference_checks(self, data):
        """Fields repr for repr, or the same error type and message, as
        ``reference_observations`` on drawn cells: ints, -0.0, NaN and
        negatives, wrong lengths, errors inside and just past the 1e-9 slack,
        and pulse counts at and just below the sifted detections' bound."""
        n = data.draw(st.integers(0, 3), label="levels")
        count = st.one_of(
            st.floats(0.0, 1e9), st.integers(0, 10**9),
            st.sampled_from([0.0, -0.0, math.nan, -1.0, -5e-324]),
        )

        def cells(name):
            length = data.draw(st.sampled_from([n, n, n, n, max(n - 1, 0), n + 1]), label=name)
            return tuple(data.draw(count, label=name) for _ in range(length))

        def errors(name, detections):
            above = {"inside": 1.0 + 5e-10, "past": 1.0 + 2e-9}
            out = []
            for det in detections:
                how = data.draw(st.sampled_from(["draw", "equal", "inside", "past"]), label=name)
                out.append(data.draw(count, label=name) if how == "draw"
                           else det if how == "equal" else det * above[how])
            return tuple(out)

        det_z, det_x = cells("detections_z"), cells("detections_x")
        fields = dict(
            intensities=tuple(data.draw(st.floats(0.0, 2.0), label="mu") for _ in range(n)),
            detections_z=det_z, errors_z=errors("errors_z", det_z),
            detections_x=det_x, errors_x=errors("errors_x", det_x),
        )
        how = data.draw(st.sampled_from(["draw", "at", "below"]), label="pulses_sent")
        bound = (left_sum(map(float, det_z)) + left_sum(map(float, det_x))) * (1.0 - 1e-9)
        fields["pulses_sent"] = (
            data.draw(st.one_of(count, st.floats(0.0, 1e10)), label="pulses_sent")
            if how == "draw" else bound if how == "at" else math.nextafter(bound, -math.inf)
        )

        def outcome(build):
            try:
                return build(), None
            except Exception as exc:  # compared by type and message
                return None, (type(exc), str(exc))

        record, error = outcome(lambda: Observations(**fields))
        expected, expected_error = outcome(lambda: reference_observations(**fields))
        assert error == expected_error
        if record is not None:
            assert {name: repr(getattr(record, name)) for name in expected} == {
                name: repr(value) for name, value in expected.items()
            }

    @pytest.mark.parametrize("name", ["detections_z", "errors_z", "detections_x", "errors_x"])
    @pytest.mark.parametrize("cells", [(math.inf, 1e5), (1.0, math.inf), (1e308, 1e308)])
    def test_infinite_count_or_total_rejected(self, name, cells):
        # detections_z = (inf, 1e5) once gave n_z = inf, and estimate_key then
        # a "no_key" without any error
        with pytest.raises(ParameterError, match=f"^{name}: counts and their total must be finite$"):
            _simple_obs(**{name: cells})

    @pytest.mark.parametrize("cells", [(math.inf, -1.0), (math.inf, math.nan)])
    def test_negative_or_nan_named_before_infinite(self, cells):
        with pytest.raises(ParameterError, match="^detections_x: counts must be >= 0$"):
            _simple_obs(detections_x=cells)

    def test_infinite_pulses_rejected(self):
        with pytest.raises(ParameterError, match="^pulses_sent: must be finite$"):
            _simple_obs(pulses_sent=math.inf)
        # a NaN still fails the pulse budget first
        with pytest.raises(ParameterError, match="^pulses_sent: fewer pulses"):
            _simple_obs(pulses_sent=math.nan)


class TestRatePoint:
    def _kwargs(self, **overrides):
        fields = dict(
            s0_lower=10.0,
            s0_upper=50.0,
            s1_lower_z=1000.0,
            s1_lower_x=100.0,
            v1_upper_x=5.0,
            phase_error_upper=0.05,
            lambda_ec=120.0,
            key_length=500.0,
            skr_hz=100.0,
            qber_z=0.01,
            acquisition_s=2.0,
        )
        fields.update(overrides)
        return fields

    def test_valid(self):
        rp = RatePoint(**self._kwargs())
        assert rp.status == "ok"

    def test_negative_key_rejected(self):
        with pytest.raises(ParameterError):
            RatePoint(**self._kwargs(key_length=-1.0))

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError, match="skr_hz: must be >= 0"):
            RatePoint(**self._kwargs(skr_hz=-1.0))

    def test_phase_error_checked_only_with_key(self):
        RatePoint(**self._kwargs(key_length=0.0, skr_hz=0.0, phase_error_upper=0.9))
        with pytest.raises(ParameterError):
            RatePoint(**self._kwargs(phase_error_upper=0.9))

    def test_acquisition_positive(self):
        with pytest.raises(ParameterError):
            RatePoint(**self._kwargs(acquisition_s=0.0))

    @pytest.mark.parametrize("path", BUILD_PATHS)
    @pytest.mark.parametrize("bad, message", [
        ({"skr_hz": -1.0}, "skr_hz: must be >= 0"),
        ({"key_length": math.nan}, "key_length: must be >= 0"),
        ({"phase_error_upper": 0.9}, "phase_error_upper: must be in [0, 0.5] when a key is produced"),
        ({"acquisition_s": 0.0}, "acquisition_s: must be > 0"),
    ])
    def test_every_build_runs_the_checks(self, path, bad, message):
        good = RatePoint(**self._kwargs())
        with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
            record_builds(good, **bad)[path]()

    def test_replace_keeps_the_other_fields(self):
        rp = RatePoint(**self._kwargs())
        assert rp._replace(skr_hz=7.0) == RatePoint(**self._kwargs(skr_hz=7.0))

    @pytest.mark.parametrize("status", ["ok", "no_key"])
    def test_survives_pickle_and_copy(self, status):
        rp = RatePoint(**self._kwargs(s0_upper=None, status=status))
        for twin in round_trips(rp):
            assert type(twin) is RatePoint and twin == rp

    def test_repr_keeps_the_dataclass_format(self):
        assert repr(RatePoint(**self._kwargs(s0_upper=None))) == (
            "RatePoint(s0_lower=10.0, s0_upper=None, s1_lower_z=1000.0, s1_lower_x=100.0, "
            "v1_upper_x=5.0, phase_error_upper=0.05, lambda_ec=120.0, key_length=500.0, "
            "skr_hz=100.0, qber_z=0.01, acquisition_s=2.0, status='ok')"
        )

    def test_a_named_tuple_without_instance_dict(self):
        rp = RatePoint(**self._kwargs())
        assert RatePoint._fields == (*self._kwargs(), "status")
        assert rp == tuple(rp._asdict().values())
        assert not hasattr(rp, "__dict__")
        with pytest.raises(AttributeError):
            rp.skr_hz = 0.0
