import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensetrace.errors import InvalidDistance, InvalidMeasure
from sensetrace.ranging import (
    MAX_DISTANCE_M,
    MIN_DISTANCE_M,
    ChirpSpec,
    PathLossParams,
    distance_from_rss,
    rss_from_distance,
    sound_distance,
)


class TestPathLossParams:
    def test_defaults(self):
        p = PathLossParams()
        assert p.power_at_1m == -59.0
        assert p.exponent == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PathLossParams(power_at_1m=-59.0, exponent=0.0)
        with pytest.raises(ValueError):
            PathLossParams(power_at_1m=5.0)
        with pytest.raises(ValueError):
            PathLossParams(power_at_1m=-150.0)


class TestChirpSpec:
    def test_amplitude_window(self):
        ChirpSpec(amplitude=15.0)
        ChirpSpec(amplitude=25.0)
        with pytest.raises(ValueError):
            ChirpSpec(amplitude=14.0)
        with pytest.raises(ValueError):
            ChirpSpec(amplitude=26.0)


class TestDistanceFromRss:
    def test_reference_power_gives_one_metre(self):
        # Exponent cancels when rss equals the 1 m reference.
        for n in (1.5, 2.0, 3.0):
            assert distance_from_rss(-59.0, PathLossParams(-59.0, n)) == 1.0

    def test_forty_db_drop_at_exponent_two(self):
        # Direct evaluation of the conversion: (power - rss)/(10 n) = 2.
        assert distance_from_rss(-80.0, PathLossParams(-40.0, 2.0)) == pytest.approx(100.0)

    def test_half_decade(self):
        # (power - rss)/(10 n) = 0.5 -> sqrt(10) metres.
        assert distance_from_rss(-50.0, PathLossParams(-40.0, 2.0)) == pytest.approx(10 ** 0.5)

    def test_twenty_db_drop_is_ten_metres(self):
        # The conversion formula gives 10^(((-40)-(-60))/20) = 10^1.
        assert distance_from_rss(-60.0, PathLossParams(-40.0, 2.0)) == pytest.approx(10.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMeasure):
            distance_from_rss(math.nan, PathLossParams())
        with pytest.raises(InvalidMeasure):
            distance_from_rss(math.inf, PathLossParams())

    def test_clamped_to_bounds(self):
        assert distance_from_rss(0.0, PathLossParams(-100.0, 1.5)) == MIN_DISTANCE_M
        assert distance_from_rss(-500.0, PathLossParams()) == MAX_DISTANCE_M


class TestRssFromDistance:
    def test_one_metre_gives_reference(self):
        assert rss_from_distance(1.0, PathLossParams(-63.0, 2.7)) == -63.0

    def test_inverse_of_forward(self):
        assert rss_from_distance(100.0, PathLossParams(-40.0, 2.0)) == pytest.approx(-80.0)

    def test_invalid_distance(self):
        with pytest.raises(InvalidDistance):
            rss_from_distance(0.0, PathLossParams())
        with pytest.raises(InvalidDistance):
            rss_from_distance(-3.0, PathLossParams())
        with pytest.raises(InvalidDistance):
            rss_from_distance(math.nan, PathLossParams())

    @given(
        d=st.floats(min_value=0.1, max_value=100.0),
        n=st.floats(min_value=1.5, max_value=4.0),
        power=st.floats(min_value=-80.0, max_value=-40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_identity(self, d, n, power):
        params = PathLossParams(power, n)
        back = distance_from_rss(rss_from_distance(d, params), params)
        assert abs(back - d) <= 1e-9 * d

    def test_monotonicity(self):
        params = PathLossParams()
        rss = [rss_from_distance(d, params) for d in (0.5, 1.0, 2.0, 10.0, 50.0)]
        assert rss == sorted(rss, reverse=True)
        dist = [distance_from_rss(r, params) for r in (-50.0, -60.0, -70.0, -80.0)]
        assert dist == sorted(dist)


class TestSoundDistance:
    def test_reference_amplitude_gives_one_metre(self):
        chirp = ChirpSpec(amplitude=20.0)
        assert sound_distance(20.0, chirp, 2.0) == 1.0

    def test_twelve_db_drop(self):
        # 10^(12/20) with exponent 2.
        chirp = ChirpSpec(amplitude=20.0)
        got = sound_distance(8.0, chirp, 2.0)
        assert got == pytest.approx(10 ** 0.6)
        assert got == pytest.approx(3.981, abs=1e-3)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMeasure):
            sound_distance(math.nan, ChirpSpec(), 2.0)

    def test_louder_than_emitted_rejected(self):
        with pytest.raises(InvalidMeasure):
            sound_distance(22.0, ChirpSpec(amplitude=20.0), 2.0)
        # Within tolerance is accepted and clamps near the reference.
        assert sound_distance(20.5, ChirpSpec(amplitude=20.0), 2.0) < 1.0
