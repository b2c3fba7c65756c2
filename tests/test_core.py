import json
import math
import random
import re

import pytest

from sensetrace.core import (
    ContactWindow,
    DeviceId,
    GroundTruthLabel,
    ProximityState,
    SensorKind,
    SensorSample,
    atomic_write,
    canonical_pair,
    make_window,
    read_jsonl,
    read_trace,
    sample_from_record,
    sample_to_json,
    write_trace,
)
from sensetrace.errors import EmptyWindow, SenseTraceError


def ble(t, src, obs, rss=-60.0):
    return SensorSample(t, SensorKind.BLE_RSS, rss, src=src, obs=obs)


def baro(t, src, hpa=1012.4):
    return SensorSample(t, SensorKind.BAROMETER, hpa, src=src)


class TestSensorSample:
    def test_magnetometer_needs_three_components(self):
        SensorSample(0.0, SensorKind.MAGNETOMETER, (1.0, 2.0, 3.0), src="a")
        with pytest.raises(ValueError):
            SensorSample(0.0, SensorKind.MAGNETOMETER, 5.0, src="a")
        with pytest.raises(ValueError):
            SensorSample(0.0, SensorKind.MAGNETOMETER, (1.0, 2.0), src="a")

    def test_rss_range(self):
        ble(0.0, "a", "b", rss=-120.0)
        ble(0.0, "a", "b", rss=0.0)
        with pytest.raises(ValueError):
            ble(0.0, "a", "b", rss=-121.0)
        with pytest.raises(ValueError):
            ble(0.0, "a", "b", rss=1.0)

    def test_barometer_range(self):
        with pytest.raises(ValueError):
            baro(0.0, "a", hpa=200.0)
        with pytest.raises(ValueError):
            baro(0.0, "a", hpa=1200.0)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            baro(-1.0, "a")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SensorSample(0.0, SensorKind.AMBIENT_NOISE, math.nan, src="a")

    def test_self_observation_rejected(self):
        with pytest.raises(ValueError):
            ble(0.0, "a", "a")


class TestDeviceId:
    def test_temp_id_never_equals_permanent(self):
        DeviceId("dev1", "tmp1", 0)
        with pytest.raises(ValueError):
            DeviceId("dev1", "dev1", 0)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            DeviceId("dev1", "tmp1", -1)


class TestGroundTruthLabel:
    def test_contact_iff_within_one_metre(self):
        GroundTruthLabel(("a", "b"), 0.0, 900.0, 0.8, True)
        GroundTruthLabel(("a", "b"), 0.0, 900.0, 1.0, True)
        GroundTruthLabel(("a", "b"), 0.0, 900.0, 1.2, False)
        with pytest.raises(ValueError):
            GroundTruthLabel(("a", "b"), 0.0, 900.0, 0.8, False)
        with pytest.raises(ValueError):
            GroundTruthLabel(("a", "b"), 0.0, 900.0, 5.0, True)


class TestMakeWindow:
    def test_full_containment(self):
        samples = [ble(t * 90.0, "a", "b") for t in range(10)]
        w = make_window(samples, ("a", "b"), 0.0, 900.0)
        assert len(w.samples) == 10

    def test_half_open_interval(self):
        samples = [ble(899.9, "a", "b"), ble(900.0, "a", "b")]
        w = make_window(samples, ("a", "b"), 0.0, 900.0)
        assert len(w.samples) == 1
        assert w.samples[0].timestamp == 899.9

    def test_mixed_pair_filtering_matches_linear_scan(self):
        # Independent oracle: a plain linear scan re-implementing the rule.
        rng = random.Random(7)
        devices = ["a", "b", "c", "d"]
        samples = []
        for _ in range(300):
            src = rng.choice(devices)
            if rng.random() < 0.5:
                obs = rng.choice([d for d in devices if d != src])
                samples.append(ble(rng.uniform(0, 1200), src, obs))
            else:
                samples.append(baro(rng.uniform(0, 1200), src))

        def oracle(pair, start, end):
            out = []
            for s in samples:
                if not (start <= s.timestamp < end):
                    continue
                if s.obs is None:
                    if s.src in pair:
                        out.append(s)
                elif s.src in pair and s.obs in pair:
                    out.append(s)
            return sorted(out, key=lambda s: (s.timestamp, s.kind.value, s.src, s.obs or ""))

        w = make_window(samples, ("a", "b"), 0.0, 900.0)
        assert list(w.samples) == oracle(("a", "b"), 0.0, 900.0)

    def test_empty_relevant_set_raises(self):
        samples = [ble(0.0, "c", "d")]
        with pytest.raises(EmptyWindow):
            make_window(samples, ("a", "b"), 0.0, 900.0)

    def test_idempotent(self):
        samples = [ble(t * 90.0, "a", "b") for t in range(10)] + [baro(5.0, "a")]
        w1 = make_window(samples, ("a", "b"), 0.0, 900.0)
        w2 = make_window(w1.samples, ("a", "b"), 0.0, 900.0)
        assert w1 == w2

    def test_all_samples_inside_bounds(self):
        samples = [ble(t * 10.0, "b", "a") for t in range(200)]
        w = make_window(samples, ("a", "b"), 300.0, 900.0)
        assert all(300.0 <= s.timestamp < 1200.0 for s in w.samples)

    def test_pair_canonicalized(self):
        samples = [ble(0.0, "b", "a")]
        w = make_window(samples, ("b", "a"), 0.0, 900.0)
        assert w.pair == ("a", "b")

    def test_same_device_pair_rejected(self):
        with pytest.raises(ValueError):
            canonical_pair(("a", "a"))


class TestTraceIO:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = random.Random(3)
        samples = []
        for i in range(200):
            t = rng.uniform(0, 900)
            kind = rng.choice(list(SensorKind))
            if kind is SensorKind.MAGNETOMETER:
                value = (rng.uniform(-80, 80), rng.uniform(-80, 80), rng.uniform(-80, 80))
            elif kind in (SensorKind.BLE_RSS, SensorKind.WIFI_RSS):
                value = rng.uniform(-120, 0)
            elif kind is SensorKind.BAROMETER:
                value = rng.uniform(900, 1100)
            else:
                value = rng.uniform(0, 50)
            samples.append(SensorSample(t, kind, value, src="a", obs="b" if kind in (SensorKind.BLE_RSS, SensorKind.WIFI_RSS, SensorKind.SOUND_AMPLITUDE) else None))

        path = tmp_path / "trace.jsonl"
        write_trace(path, samples)
        back = read_trace(path)
        assert back == samples
        # Re-serializing must produce identical bytes.
        again = tmp_path / "again.jsonl"
        write_trace(again, back)
        assert path.read_bytes() == again.read_bytes()

    def test_json_fields(self):
        line = sample_to_json(ble(1.5, "a", "b", rss=-59.5))
        record = json.loads(line)
        assert set(record) == {"t", "kind", "value", "src", "obs"}
        assert record["obs"] == "b"
        assert sample_from_record(record) == ble(1.5, "a", "b", rss=-59.5)

    def test_proximity_state_from_value(self):
        assert ProximityState.from_value(1.0) is ProximityState.NEAR
        assert ProximityState.from_value(0.0) is ProximityState.FAR


class TestRecordFiles:
    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"x": 1}\n\n  \n{"x": 2}\n{"y": 3}\n')
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:5: KeyError"):
            read_jsonl(path, lambda r: r["x"])
        path.write_bytes(b'{"x": 1}\n\n{"x": 2}\n')
        assert read_jsonl(path, lambda r: r["x"]) == [1, 2]

    def test_bad_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"x": 1}\n{"x": "\xff"}\n')
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:2: UnicodeDecodeError"):
            read_jsonl(path, lambda r: r["x"])

    def test_atomic_write_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "sub" / "out.txt"
        atomic_write(path, "old\n")
        atomic_write(path, "new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


class TestContactWindowInvariants:
    def test_sample_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            ContactWindow(("a", "b"), 0.0, 900.0, (ble(901.0, "a", "b"),))

    def test_end_after_start(self):
        with pytest.raises(ValueError):
            ContactWindow(("a", "b"), 10.0, 10.0, ())
