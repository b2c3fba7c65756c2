import dataclasses

import numpy as np
import pytest

from sensetrace.core import ProximityState, SensorKind, Trace, write_trace
from sensetrace.errors import ScenarioError
from sensetrace.ranging import ChirpSpec, PathLossParams, distance_from_rss, rss_from_distance
from sensetrace.simulator import (
    BucketSpec,
    DevicePlacement,
    PressureModel,
    PropagationNoise,
    Region,
    Scenario,
    Testbed,
    Wall,
    generate_traces,
    load_scenario,
    simulate_barometer,
    simulate_magnetometer,
    simulate_rss,
    simulate_sound,
)
from sensetrace.simulator import scenario as scenario_module

from .conftest import STANDARD
from .oracles import magnitude, sequential_traces

RADIO = PathLossParams()

ZERO_NOISE = PropagationNoise(
    ble_hop_sigma_db=0.0,
    wifi_sigma_db=0.0,
    sound_sigma_db=0.0,
    tx_power_sigma_db=0.0,
    sound_level_sigma_db=0.0,
    ambient_sigma_db=0.0,
    multipath_sigma_indoor_db=0.0,
    multipath_sigma_outdoor_db=0.0,
    detection_floor_dbm=-1000.0,
)


def open_field(width=100.0, depth=60.0, ambient=8.0):
    return Testbed(regions=(Region("field", "outdoor", 0.0, width, 0.0, depth, ambient),))


def office_with_walls():
    walls = (
        Wall(5.0, 0.0, 5.0, 30.0),
        Wall(10.0, 0.0, 10.0, 30.0),
        Wall(15.0, 0.0, 15.0, 30.0),
    )
    return Testbed(
        regions=(Region("office", "indoor", 0.0, 30.0, 0.0, 30.0, 10.0),),
        walls=walls,
    )


def tower(floors=14, ambient=10.0, sigma=None):
    pm = PressureModel() if sigma is None else PressureModel(sigma_hpa=sigma)
    return Testbed(
        regions=(Region("tower", "indoor", 0.0, 10.0, 0.0, 10.0, ambient),),
        floors=floors,
        pressure=pm,
    )


class TestDevicePlacement:
    @pytest.mark.parametrize("device_id", ["", None, 7])
    def test_a_device_needs_a_name(self, device_id):
        # Its name is the src of every sample it records.
        with pytest.raises(ScenarioError, match="device_id must name a device"):
            DevicePlacement(device_id, 1.0, 1.0)


class TestSimulateRss:
    def test_same_position_zero_noise(self):
        rng = np.random.default_rng(0)
        tb = open_field()
        a = DevicePlacement("a", 5.0, 5.0)
        b = DevicePlacement("b", 5.0, 5.0)
        got = simulate_rss(a, b, SensorKind.BLE_RSS, tb, ZERO_NOISE, RADIO, rng)
        # Degenerate distance clamps to 0.01 m, near the model maximum.
        assert got == pytest.approx(rss_from_distance(0.01, RADIO))

    def test_walls_subtract_exactly(self):
        # Hand-composed oracle: path loss at 20 m plus 3 walls at 8 dB each.
        rng = np.random.default_rng(0)
        tb = office_with_walls()
        tx = DevicePlacement("t", 1.0, 15.0)
        rx = DevicePlacement("r", 21.0, 15.0)
        got = simulate_rss(tx, rx, SensorKind.WIFI_RSS, tb, ZERO_NOISE, RADIO, rng)
        assert got == pytest.approx(rss_from_distance(20.0, RADIO) - 24.0)

    def test_thirty_metres_outdoors_sometimes_absent(self):
        rng = np.random.default_rng(1)
        tb = open_field()
        noise = PropagationNoise()
        tx = DevicePlacement("t", 10.0, 10.0)
        rx = DevicePlacement("r", 40.0, 10.0)
        results = [
            simulate_rss(tx, rx, SensorKind.BLE_RSS, tb, noise, RADIO, rng,
                         tx_offset_db=float(rng.normal(0, noise.tx_power_sigma_db)))
            for _ in range(300)
        ]
        present = sum(r is not None for r in results)
        assert 0 < present < 300

    def test_unplaced_device_rejected(self):
        rng = np.random.default_rng(0)
        tb = open_field(width=10.0, depth=10.0)
        with pytest.raises(ScenarioError):
            simulate_rss(
                DevicePlacement("t", 50.0, 50.0),
                DevicePlacement("r", 5.0, 5.0),
                SensorKind.BLE_RSS,
                tb,
                ZERO_NOISE,
                RADIO,
                rng,
            )

    def test_detection_floor_cuts(self):
        rng = np.random.default_rng(0)
        tb = open_field(width=200.0, depth=60.0)
        noise = PropagationNoise(
            ble_hop_sigma_db=0.0, wifi_sigma_db=0.0, sound_sigma_db=0.0,
            tx_power_sigma_db=0.0, sound_level_sigma_db=0.0, ambient_sigma_db=0.0,
            multipath_sigma_indoor_db=0.0, multipath_sigma_outdoor_db=0.0,
        )
        tx = DevicePlacement("t", 1.0, 30.0)
        rx = DevicePlacement("r", 150.0, 30.0)  # -102.5 dBm, below -95 floor
        assert simulate_rss(tx, rx, SensorKind.WIFI_RSS, tb, noise, RADIO, rng) is None

    def test_monotone_detection_rate_in_distance(self):
        # Expected BLE detection rate never increases with true distance.
        rng = np.random.default_rng(7)
        tb = open_field()
        noise = PropagationNoise()
        rates = []
        for d in (0.5, 1.5, 2.5, 6.0, 15.0, 30.0):
            hits = 0
            n = 250
            for _ in range(n):
                off = float(rng.normal(0, noise.tx_power_sigma_db))
                v = simulate_rss(
                    DevicePlacement("t", 10.0, 30.0),
                    DevicePlacement("r", 10.0 + d, 30.0),
                    SensorKind.BLE_RSS, tb, noise, RADIO, rng, tx_offset_db=off,
                )
                hits += v is not None
            rates.append(hits / n)
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestSimulateSound:
    def test_two_floors_always_absent(self):
        rng = np.random.default_rng(3)
        tb = tower()
        noise = PropagationNoise()
        tx = DevicePlacement("t", 5.0, 5.0, floor=0)
        rx = DevicePlacement("r", 5.0, 5.0, floor=2)
        assert all(
            simulate_sound(tx, rx, ChirpSpec(), tb, noise, rng) is None for _ in range(500)
        )

    def test_one_floor_sometimes_present(self):
        rng = np.random.default_rng(3)
        tb = tower()
        noise = PropagationNoise()
        tx = DevicePlacement("t", 5.0, 5.0, floor=0)
        rx = DevicePlacement("r", 5.0, 5.0, floor=1)
        heard = sum(
            simulate_sound(tx, rx, ChirpSpec(), tb, noise, rng) is not None for _ in range(200)
        )
        assert heard > 0

    def test_ambient_masking(self):
        rng = np.random.default_rng(3)
        tb = open_field(ambient=35.0)
        tx = DevicePlacement("t", 5.0, 5.0)
        rx = DevicePlacement("r", 8.0, 5.0)  # received ~12 dB < 35 dB ambient
        assert simulate_sound(tx, rx, ChirpSpec(), tb, PropagationNoise(), rng) is None

    def test_reference_amplitude_at_one_metre(self):
        rng = np.random.default_rng(3)
        tb = open_field(ambient=8.0)
        tx = DevicePlacement("t", 5.0, 5.0)
        rx = DevicePlacement("r", 6.0, 5.0)
        got = simulate_sound(tx, rx, ChirpSpec(amplitude=20.0), tb, ZERO_NOISE, rng)
        assert got == pytest.approx(20.0)

    def test_beyond_max_range_absent(self):
        rng = np.random.default_rng(3)
        tb = open_field(ambient=0.1)
        noise = PropagationNoise(sound_max_range_m=15.0)
        tx = DevicePlacement("t", 5.0, 5.0)
        rx = DevicePlacement("r", 25.0, 5.0)
        assert simulate_sound(tx, rx, ChirpSpec(), tb, noise, rng) is None


class TestSimulateBarometer:
    def test_adjacent_floor_gap_exact(self):
        rng = np.random.default_rng(0)
        tb = tower(sigma=0.0)
        p0 = simulate_barometer(DevicePlacement("a", 5.0, 5.0, floor=0), tb, rng)
        p1 = simulate_barometer(DevicePlacement("b", 5.0, 5.0, floor=1), tb, rng)
        assert p0 - p1 == pytest.approx(0.43, abs=1e-9)

    def test_indoor_outdoor_offset(self):
        rng = np.random.default_rng(0)
        tb = Testbed(
            regions=(
                Region("in", "indoor", 0.0, 10.0, 0.0, 10.0),
                Region("out", "outdoor", 20.0, 30.0, 0.0, 10.0),
            ),
            pressure=PressureModel(sigma_hpa=0.0),
        )
        pi = simulate_barometer(DevicePlacement("a", 5.0, 5.0), tb, rng)
        po = simulate_barometer(DevicePlacement("b", 25.0, 5.0), tb, rng)
        assert po - pi == pytest.approx(0.19, abs=1e-9)

    def test_same_cell_open_posture_identical(self):
        rng = np.random.default_rng(0)
        tb = tower(sigma=0.0)
        a = simulate_barometer(DevicePlacement("a", 5.0, 5.0), tb, rng)
        b = simulate_barometer(DevicePlacement("b", 5.0, 5.0), tb, rng)
        assert a == b

    def test_pressure_strictly_decreases_with_floor(self):
        rng = np.random.default_rng(0)
        tb = tower(sigma=0.0)
        readings = [
            simulate_barometer(DevicePlacement("d", 5.0, 5.0, floor=f), tb, rng)
            for f in range(14)
        ]
        assert all(a > b for a, b in zip(readings, readings[1:]))

    def test_pocket_bias_applied(self):
        rng = np.random.default_rng(0)
        tb = tower(sigma=0.0)
        open_p = simulate_barometer(DevicePlacement("a", 5.0, 5.0), tb, rng)
        pocket = simulate_barometer(
            DevicePlacement("a", 5.0, 5.0, posture=ProximityState.NEAR), tb, rng
        )
        assert pocket - open_p == pytest.approx(tb.pressure.pocket_bias_hpa)


class TestSimulateMagnetometer:
    def test_same_cell_equal_magnitude_different_vectors(self):
        tb = tower()
        tb = Testbed(
            regions=tb.regions,
            floors=tb.floors,
            magnetic=tb.magnetic.__class__(sensor_sigma_ut=0.0),
        )
        rng = np.random.default_rng(5)
        va = simulate_magnetometer(DevicePlacement("a", 5.1, 5.1), tb, rng)
        vb = simulate_magnetometer(DevicePlacement("b", 5.2, 5.2), tb, rng)
        assert magnitude(*va) == pytest.approx(magnitude(*vb), rel=1e-9)
        assert va != vb

    def test_outdoor_magnitudes_capped(self):
        tb = open_field()
        rng = np.random.default_rng(6)
        for _ in range(300):
            x, y = rng.uniform(0, 100), rng.uniform(0, 60)
            v = simulate_magnetometer(DevicePlacement("d", float(x), float(y)), tb, rng)
            assert magnitude(*v) <= 67.0 + 5 * tb.magnetic.sensor_sigma_ut

    def test_indoor_cells_ten_metres_apart_can_differ_tens_of_ut(self):
        tb = office_with_walls()
        rng = np.random.default_rng(8)
        best = 0.0
        for _ in range(300):
            x, y = rng.uniform(0, 20), rng.uniform(0, 30)
            m1 = tb.magnetic_mean_at(float(x), float(y))
            m2 = tb.magnetic_mean_at(float(x) + 10.0, float(y))
            best = max(best, abs(m1 - m2))
        assert best >= 20.0

    def test_field_value_independent_of_query_order(self):
        tb = office_with_walls()
        a = tb.magnetic_mean_at(3.0, 3.0)
        tb.magnetic_mean_at(17.0, 21.0)
        assert tb.magnetic_mean_at(3.0, 3.0) == a


class TestGenerateTraces:
    def test_standard_bucket_structure(self, standard_data):
        assert len(standard_data.instances) == 240
        counts = [0, 0, 0, 0]
        for label in standard_data.labels:
            d = label.true_distance
            idx = 0 if d <= 1.0 else 1 if d <= 2.0 else 2 if d <= 3.0 else 3
            counts[idx] += 1
        assert counts == [60, 60, 40, 80]

    def test_seeded_runs_identical(self):
        sc = load_scenario(STANDARD, seed=1234)[0]
        d1 = generate_traces(sc)
        d2 = generate_traces(sc)
        assert d1.labels == d2.labels
        assert set(d1.traces) == set(d2.traces)
        for k in d1.traces:
            assert d1.traces[k] == d2.traces[k]

    def test_all_close_pairs_are_contacts(self):
        tb = open_field(width=20.0, depth=20.0)
        placements = tuple(
            (
                DevicePlacement(f"p{i:02d}a", 5.0 + i * 0.5, 5.0),
                DevicePlacement(f"p{i:02d}b", 5.0 + i * 0.5, 5.5),
            )
            for i in range(10)
        )
        sc = Scenario(testbed=tb, explicit_instances=placements, seed=3)
        data = generate_traces(sc)
        assert all(label.is_contact for label in data.labels)
        assert all(label.true_distance == pytest.approx(0.5) for label in data.labels)

    def test_wifi_scan_cap_respected(self, standard_data, standard_scenario_obj):
        # At the configured cadences no device produces more than 4 WiFi
        # observations of one peer inside any 120 s span.
        cap = standard_scenario_obj.fusion.wifi_scan_cap
        for device, samples in list(standard_data.traces.items())[:40]:
            times = sorted(
                s.timestamp for s in samples if s.kind is SensorKind.WIFI_RSS
            )
            for t in times:
                assert sum(1 for u in times if t <= u < t + 120.0) <= cap

    def test_ble_attempts_at_configured_period(self, standard_data, standard_scenario_obj):
        period = standard_scenario_obj.fusion.ble_scan_period
        for device, samples in list(standard_data.traces.items())[:40]:
            for s in samples:
                if s.kind is SensorKind.BLE_RSS:
                    assert (s.timestamp / period) == int(s.timestamp / period)

    def test_no_sound_across_two_floors_in_traces(self):
        tb = tower(ambient=0.1)
        placements = tuple(
            (
                DevicePlacement(f"f{i}a", 5.0, 5.0, floor=0),
                DevicePlacement(f"f{i}b", 5.0, 5.0, floor=2 + (i % 3)),
            )
            for i in range(6)
        )
        sc = Scenario(testbed=tb, explicit_instances=placements, seed=5)
        data = generate_traces(sc)
        for samples in data.traces.values():
            assert not any(s.kind is SensorKind.SOUND_AMPLITUDE for s in samples)

    def test_zero_noise_roundtrip_recovers_distance(self):
        tb = open_field(width=50.0, depth=20.0)
        placements = tuple(
            (
                DevicePlacement(f"z{i}a", 5.0, 10.0),
                DevicePlacement(f"z{i}b", 5.0 + d, 10.0),
            )
            for i, d in enumerate((0.5, 1.0, 2.0, 7.5, 20.0))
        )
        sc = Scenario(
            testbed=tb, noise=ZERO_NOISE, explicit_instances=placements, seed=1
        )
        data = generate_traces(sc)
        for (a, b), label in zip(placements, data.labels):
            wifi = [
                s
                for s in data.traces[a.device_id]
                if s.kind is SensorKind.WIFI_RSS
            ]
            assert wifi
            for s in wifi:
                assert distance_from_rss(s.value, RADIO) == pytest.approx(
                    label.true_distance, abs=1e-6
                )

    def test_impossible_placement_raises(self):
        tb = open_field(width=5.0, depth=5.0)
        sc = Scenario(
            testbed=tb,
            explicit_instances=(
                (DevicePlacement("xa", 1.0, 1.0), DevicePlacement("xb", 99.0, 1.0)),
            ),
        )
        with pytest.raises(ScenarioError):
            generate_traces(sc)

    def test_no_explicit_instances_raises(self):
        with pytest.raises(ScenarioError, match="plans no instances"):
            Scenario(testbed=open_field(), explicit_instances=())


class TestPropagationNoiseInvariants:
    def test_default_sigma_ordering_is_strict(self):
        n = PropagationNoise()
        assert n.ble_hop_sigma_db > n.wifi_sigma_db > n.sound_sigma_db

    def test_inverted_ordering_rejected(self):
        with pytest.raises(ValueError):
            PropagationNoise(ble_hop_sigma_db=1.0, wifi_sigma_db=2.0)
        with pytest.raises(ValueError):
            PropagationNoise(wifi_sigma_db=0.1, sound_sigma_db=0.2)


def small_standard(seed=3, **noise):
    """The standard testbed with 24 instances, cross-floor ones included,
    and ``noise`` fields replaced."""
    sc = load_scenario(STANDARD, seed=seed)[0]
    buckets = (
        BucketSpec(0.0, 1.0, indoor=3, outdoor=2),
        BucketSpec(1.0, 3.0, indoor=4, outdoor=3),
        BucketSpec(3.0, 30.0, indoor=8, outdoor=4, cross_floor_fraction=0.5),
    )
    return dataclasses.replace(sc, buckets=buckets, noise=dataclasses.replace(sc.noise, **noise))


def zero_sigma(field):
    """``small_standard`` with one sigma at zero; BLE >= WiFi >= sound must
    hold, so zeroing a radio sigma zeroes the smaller ones too."""
    if field == "sigma_hpa":
        sc = small_standard()
        return dataclasses.replace(sc, testbed=dataclasses.replace(
            sc.testbed, pressure=dataclasses.replace(sc.testbed.pressure, sigma_hpa=0.0)))
    if field == "sensor_sigma_ut":
        sc = small_standard()
        return dataclasses.replace(sc, testbed=dataclasses.replace(
            sc.testbed, magnetic=dataclasses.replace(sc.testbed.magnetic, sensor_sigma_ut=0.0)))
    chain = ("ble_hop_sigma_db", "wifi_sigma_db", "sound_sigma_db")
    zeroed = chain[chain.index(field):] if field in chain else (field,)
    return small_standard(**{name: 0.0 for name in zeroed})


SIGMAS = (
    "ble_hop_sigma_db", "wifi_sigma_db", "sound_sigma_db", "tx_power_sigma_db", "sound_level_sigma_db",
    "ambient_sigma_db", "multipath_sigma_indoor_db", "multipath_sigma_outdoor_db", "sigma_hpa", "sensor_sigma_ut",
)


def assert_matches_sequential(scenario, tmp_path):
    """``generate_traces`` gives the oracle's labels, and traces equal as
    columns and as encoded bytes."""
    want, labels = sequential_traces(scenario)
    data = generate_traces(scenario)
    assert data.labels == labels
    assert list(data.traces) == list(want)
    for device, samples in want.items():
        assert data.traces[device] == Trace.from_samples(samples)
        write_trace(tmp_path / "got.jsonl", data.traces[device])
        write_trace(tmp_path / "want.jsonl", samples)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    return data


class TestGeneratorMatchesSequentialOracle:
    @pytest.mark.parametrize("seed", [42, 7])
    def test_standard(self, seed, tmp_path):
        data = assert_matches_sequential(load_scenario(STANDARD, seed=seed)[0], tmp_path)
        assert len(data.labels) == 240

    def test_zero_noise(self, tmp_path):
        assert_matches_sequential(dataclasses.replace(small_standard(), noise=ZERO_NOISE), tmp_path)

    @pytest.mark.parametrize("field", SIGMAS)
    def test_one_sigma_zero(self, field, tmp_path):
        assert_matches_sequential(zero_sigma(field), tmp_path)

    def test_tower_with_sound_floor_and_range_gates(self, tmp_path):
        tb = tower(ambient=0.1)
        placements = (
            (DevicePlacement("t0a", 5.0, 5.0, floor=0), DevicePlacement("t0b", 5.0, 5.0, floor=1)),
            (DevicePlacement("t1a", 5.0, 5.0, floor=2), DevicePlacement("t1b", 6.0, 5.0, floor=0)),
            (DevicePlacement("t2a", 1.0, 1.0, floor=3), DevicePlacement("t2b", 9.0, 9.0, floor=3)),
            (
                DevicePlacement("t3a", 2.0, 2.0, floor=5, posture=ProximityState.NEAR),
                DevicePlacement("t3b", 2.5, 2.0, floor=5),
            ),
            (DevicePlacement("t4a", 1.0, 9.0, floor=7), DevicePlacement("t4b", 4.0, 9.0, floor=6)),
        )
        noise = PropagationNoise(sound_max_range_m=5.0)
        sc = Scenario(testbed=tb, noise=noise, explicit_instances=placements, seed=11)
        data = assert_matches_sequential(sc, tmp_path)
        heard = {dev for dev, trace in data.traces.items() if len(trace.rows(SensorKind.SOUND_AMPLITUDE))}
        # Gated: two floors apart (t1) and 11.3 m > 5 m apart (t2).
        assert not heard & {"t1a", "t1b", "t2a", "t2b"}
        assert heard & {"t0a", "t0b"} and heard & {"t3a", "t3b"}

    def test_path_through_a_wall_endpoint(self, tmp_path):
        tb = Testbed(
            regions=(Region("office", "indoor", 0.0, 20.0, 0.0, 20.0, 10.0),),
            walls=(Wall(5.0, 5.0, 5.0, 10.0, loss_db=15.0),),
        )
        a, b = DevicePlacement("wa", 0.0, 0.0), DevicePlacement("wb", 10.0, 10.0)
        # The endpoint (5, 5) lies on the path: it crosses the wall one way only.
        assert len(tb.walls_crossed(a, b)) != len(tb.walls_crossed(b, a))
        sc = Scenario(testbed=tb, noise=ZERO_NOISE, explicit_instances=((a, b),), seed=2)
        data = assert_matches_sequential(sc, tmp_path)
        first_ble = [trace[int(trace.rows(SensorKind.BLE_RSS)[0])].value for trace in data.traces.values()]
        assert first_ble[0] != first_ble[1]

    def test_detection_floor_below_the_rss_range_raises_alike(self):
        sc = dataclasses.replace(load_scenario(STANDARD, seed=42)[0], noise=PropagationNoise(detection_floor_dbm=-200.0))
        with pytest.raises(ScenarioError) as want:
            sequential_traces(sc)
        with pytest.raises(ScenarioError) as got:
            generate_traces(sc)
        assert "RSS must lie in [-120, 0] dBm" in str(want.value)
        assert str(got.value) == str(want.value)

    def test_first_bad_sample_in_draw_order_raises(self):
        # 13 floors apart every BLE reading is below -120 dBm, and every
        # barometer reading is above 1100 hPa; the BLE scans are drawn first.
        tb = dataclasses.replace(tower(), pressure=PressureModel(base_hpa=2000.0))
        placements = ((DevicePlacement("fa", 5.0, 5.0, floor=0), DevicePlacement("fb", 5.0, 5.0, floor=13)),)
        sc = Scenario(testbed=tb, noise=ZERO_NOISE, explicit_instances=placements, seed=4)
        with pytest.raises(ScenarioError) as want:
            sequential_traces(sc)
        with pytest.raises(ScenarioError) as got:
            generate_traces(sc)
        assert str(want.value).startswith("instance 0 ('fa', 'fb'): RSS must lie in [-120, 0] dBm")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (
                ((("a", 1.0, 1.0), ("b", 1.5, 1.0)), (("a", 1.0, 1.0), ("c", 15.0, 15.0))),
                "instance 1 ('a', 'c'): device 'a' is already placed in instance 0",
            ),
            (
                ((("a", 1.0, 1.0), ("a", 1.5, 1.0)),),
                "instance 0 ('a', 'a'): device 'a' is already placed in instance 0",
            ),
        ],
        ids=["across_instances", "inside_a_pair"],
    )
    def test_a_reused_device_id_raises_alike(self, pairs, message):
        # A device records one trace: a second instance would overwrite it.
        placements = tuple(tuple(DevicePlacement(*p) for p in pair) for pair in pairs)
        sc = Scenario(testbed=open_field(), explicit_instances=placements)
        for simulate in (sequential_traces, generate_traces):
            with pytest.raises(ScenarioError) as err:
                simulate(sc)
            assert str(err.value) == message

    def test_a_zero_direction_fails_alike(self, monkeypatch):
        # Without noise the directions are the only normals drawn; an
        # all-zero one has no length, so its components are 0/0 = NaN.
        tb = tower(sigma=0.0)
        tb = dataclasses.replace(tb, magnetic=dataclasses.replace(tb.magnetic, sensor_sigma_ut=0.0))
        placements = ((DevicePlacement("a", 2.0, 2.0), DevicePlacement("b", 3.0, 2.0)),)
        sc = Scenario(testbed=tb, noise=ZERO_NOISE, explicit_instances=placements, seed=5)
        default_rng = np.random.default_rng

        class ZeroNormals:
            def standard_normal(self, size):
                return np.zeros(size)

            def normal(self, size):
                return np.zeros(size)

        # Only the scenario's generator; the magnetic field's lattice noise
        # keeps its own, keyed by tuples.
        monkeypatch.setattr(np.random, "default_rng", lambda key: ZeroNormals() if key == sc.seed else default_rng(key))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ScenarioError) as want:
                sequential_traces(sc)
            with pytest.raises(ScenarioError) as got:
                generate_traces(sc)
        assert str(want.value) == "instance 0 ('a', 'b'): magnetometer components must be finite"
        assert str(got.value) == str(want.value)


# Rows an instance may record at the default 900 s window and 30 s periods:
# 2 BLE, 2 WiFi, 4 sound and 6 environment rows per slot.
INSTANCE_ROWS = 14 * 30


class TestBatchEdges:
    """Batches of three instances: the first bad row names its instance,
    whatever the batch."""

    @pytest.fixture(autouse=True)
    def batches_of_three(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "_BATCH_ROWS", 3 * INSTANCE_ROWS)

    def test_first_bad_sample_of_a_later_instance(self):
        # Floor 13 reads 1099.4 hPa; instance 4's b, on floor 11, reads
        # above 1100 at its first environment slot, after its scans.
        tb = dataclasses.replace(tower(), pressure=PressureModel(base_hpa=1105.0))
        placements = tuple(
            (DevicePlacement(f"b{i}a", 2.0, 1.0 + i, floor=13), DevicePlacement(f"b{i}b", 3.0, 1.0 + i, floor=11 if i == 4 else 13))
            for i in range(6)
        )
        sc = Scenario(testbed=tb, explicit_instances=placements, seed=6)
        with pytest.raises(ScenarioError) as want:
            sequential_traces(sc)
        with pytest.raises(ScenarioError) as got:
            generate_traces(sc)
        assert str(want.value).startswith("instance 4 ('b4a', 'b4b'): barometer must lie in [300, 1100] hPa, got 1100.")
        assert str(got.value) == str(want.value)
