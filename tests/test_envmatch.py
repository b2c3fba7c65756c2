import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensetrace.core import ProximityState, SensorKind
from sensetrace.envmatch import EnvThresholds, dtw_score, env_similar, select_env_sensor
from sensetrace.errors import EmptySequence

from .oracles import brute_force_dtw, local_cost, magnitude

# Dyadic values make every squared cost and sum exact in binary floating
# point, so oracle and implementation agree bit-for-bit even on tie-breaks.
dyadic = st.integers(min_value=-64, max_value=64).map(lambda k: k / 16.0)


class TestMagnitude:
    def test_zero_vector(self):
        assert magnitude(0.0, 0.0, 0.0) == 0.0

    def test_pythagorean_triple(self):
        assert magnitude(3.0, 4.0, 0.0) == 5.0

    def test_rotation_invariance(self):
        # Oracle: apply a known rotation matrix and compare magnitudes.
        rng = random.Random(5)
        for _ in range(50):
            v = [rng.uniform(-60, 60) for _ in range(3)]
            ax, ay, az = rng.uniform(0, math.pi), rng.uniform(0, math.pi), rng.uniform(0, math.pi)
            # Rotation about z, then y, then x.
            x, y, z = v
            x, y = x * math.cos(az) - y * math.sin(az), x * math.sin(az) + y * math.cos(az)
            x, z = x * math.cos(ay) + z * math.sin(ay), -x * math.sin(ay) + z * math.cos(ay)
            y, z = y * math.cos(ax) - z * math.sin(ax), y * math.sin(ax) + z * math.cos(ax)
            assert magnitude(x, y, z) == pytest.approx(magnitude(*v), abs=1e-12 * max(1.0, magnitude(*v)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            magnitude(math.nan, 0.0, 0.0)


class TestLocalCost:
    def test_identical(self):
        assert local_cost(5.0, 5.0) == 0.0

    def test_squared_difference(self):
        assert local_cost(1.0, 4.0) == 9.0

    def test_symmetric(self):
        rng = random.Random(2)
        for _ in range(100):
            a, b = rng.uniform(-50, 50), rng.uniform(-50, 50)
            assert local_cost(a, b) == local_cost(b, a)


class TestDtwScore:
    def test_identical_sequences_score_zero(self):
        for seq in ([1.0], [3.0, 1.0, 4.0, 1.0, 5.0], list(range(30))):
            assert dtw_score(seq, seq) == 0.0

    def test_single_cell(self):
        assert dtw_score([0.0], [3.0]) == 9.0

    def test_small_example_equals_brute_force(self):
        a, b = [1.0, 2.0, 3.0], [1.0, 3.0]
        assert dtw_score(a, b) == pytest.approx(brute_force_dtw(a, b), abs=1e-12)
        # The optimal alignment costs 1 over a 3-cell path.
        assert dtw_score(a, b) == pytest.approx(1.0 / 3.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequence):
            dtw_score([], [1.0])
        with pytest.raises(EmptySequence):
            dtw_score([1.0], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dtw_score([math.inf], [1.0])

    def test_random_pairs_match_brute_force(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(1, min(5, 25 // n))
            a = [rng.randint(-64, 64) / 16.0 for _ in range(n)]
            b = [rng.randint(-64, 64) / 16.0 for _ in range(m)]
            assert dtw_score(a, b) == pytest.approx(brute_force_dtw(a, b), abs=1e-9)

    @given(
        a=st.lists(dyadic, min_size=1, max_size=5),
        b=st.lists(dyadic, min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_oracle_equivalence_property(self, a, b):
        assert dtw_score(a, b) == pytest.approx(brute_force_dtw(a, b), abs=1e-9)

    @given(
        a=st.lists(dyadic, min_size=1, max_size=8),
        b=st.lists(dyadic, min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    @example(a=[0.0, 0.0, -0.0625, 0.0], b=[0.0, 0.0625, 0.0])
    def test_symmetry_and_nonnegativity(self, a, b):
        s = dtw_score(a, b)
        assert s >= 0.0
        assert s == pytest.approx(dtw_score(b, a), abs=1e-12)

    def test_degenerate_length_one_vs_k(self):
        # Only one monotone path exists; score is the mean squared gap.
        a, b = [2.0], [1.0, 2.0, 4.0]
        expected = ((2 - 1) ** 2 + 0 + (2 - 4) ** 2) / 3
        assert dtw_score(a, b) == pytest.approx(expected)


class TestEnvSimilar:
    def test_identical_pressure_sequences(self):
        seq = [1012.4, 1012.41, 1012.39, 1012.4]
        score, ok = env_similar(seq, seq, SensorKind.BAROMETER, EnvThresholds())
        assert score == 0.0
        assert ok is True

    def test_constant_magnetic_sequences_thirty_apart(self):
        # Closed form: every cell costs 900, the diagonal path has N cells,
        # normalized score 900, sqrt -> 30 > 20 threshold.
        a = [50.0] * 8
        b = [80.0] * 8
        score, ok = env_similar(a, b, SensorKind.MAGNETOMETER, EnvThresholds())
        assert score == pytest.approx(30.0)
        assert ok is False

    def test_constant_pressure_sequences_tenth_hpa_apart(self):
        a = [1012.5] * 6
        b = [1012.6] * 6
        score, ok = env_similar(a, b, SensorKind.BAROMETER, EnvThresholds())
        assert score == pytest.approx(0.1)
        assert ok is True

    def test_threshold_monotonicity(self):
        rng = random.Random(4)
        for _ in range(50):
            a = [rng.uniform(20, 80) for _ in range(rng.randint(1, 10))]
            b = [rng.uniform(20, 80) for _ in range(rng.randint(1, 10))]
            lo = EnvThresholds(magnetic_ut=5.0)
            hi = EnvThresholds(magnetic_ut=50.0)
            _, ok_lo = env_similar(a, b, SensorKind.MAGNETOMETER, lo)
            _, ok_hi = env_similar(a, b, SensorKind.MAGNETOMETER, hi)
            if ok_lo:
                assert ok_hi  # raising the threshold never flips true -> false

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            EnvThresholds(pressure_hpa=0.0)
        with pytest.raises(ValueError):
            EnvThresholds(magnetic_ut=-1.0)

    def test_wrong_sensor_rejected(self):
        with pytest.raises(ValueError):
            EnvThresholds().for_sensor(SensorKind.BLE_RSS)


class TestSelectEnvSensor:
    def test_both_open_space_uses_barometer(self):
        assert select_env_sensor(ProximityState.FAR, ProximityState.FAR) is SensorKind.BAROMETER

    def test_one_pocketed_uses_magnetometer(self):
        assert select_env_sensor(ProximityState.NEAR, ProximityState.FAR) is SensorKind.MAGNETOMETER
        assert select_env_sensor(ProximityState.FAR, ProximityState.NEAR) is SensorKind.MAGNETOMETER

    def test_both_pocketed_uses_magnetometer(self):
        assert select_env_sensor(ProximityState.NEAR, ProximityState.NEAR) is SensorKind.MAGNETOMETER
