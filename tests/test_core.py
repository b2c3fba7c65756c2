import hashlib
import json
import math
import pickle
import random
import re
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sensetrace import core
from sensetrace.core import (
    TRACE_CACHE_FORMAT,
    ContactWindow,
    GroundTruthLabel,
    ProximityState,
    SensorKind,
    SensorSample,
    Trace,
    _atomic_file,
    atomic_write,
    canonical_pair,
    encode_trace,
    make_window,
    read_jsonl,
    read_cached_traces,
    read_trace,
    read_trace_cache,
    write_trace,
    write_trace_cache,
)
from sensetrace.errors import EmptyWindow, SenseTraceError
from sensetrace.fusion import FusionConfig, build_evidence

from .oracles import magnitude, proximity_state, repeated_sample, sample_from_record


def ble(t, src, obs, rss=-60.0):
    return SensorSample(t, SensorKind.BLE_RSS, rss, src=src, obs=obs)


def baro(t, src, hpa=1012.4):
    return SensorSample(t, SensorKind.BAROMETER, hpa, src=src)


class TestSensorSample:
    # A bare row: the sample contract holds once rows become a Trace.
    def test_magnetometer_needs_three_components(self):
        Trace.from_samples([SensorSample(0.0, SensorKind.MAGNETOMETER, (1.0, 2.0, 3.0), src="a")])
        with pytest.raises(ValueError):
            Trace.from_samples([SensorSample(0.0, SensorKind.MAGNETOMETER, 5.0, src="a")])
        with pytest.raises(ValueError):
            Trace.from_samples([SensorSample(0.0, SensorKind.MAGNETOMETER, (1.0, 2.0), src="a")])

    def test_rss_range(self):
        Trace.from_samples([ble(0.0, "a", "b", rss=-120.0)])
        Trace.from_samples([ble(0.0, "a", "b", rss=0.0)])
        with pytest.raises(ValueError):
            Trace.from_samples([ble(0.0, "a", "b", rss=-121.0)])
        with pytest.raises(ValueError):
            Trace.from_samples([ble(0.0, "a", "b", rss=1.0)])

    def test_barometer_range(self):
        with pytest.raises(ValueError):
            Trace.from_samples([baro(0.0, "a", hpa=200.0)])
        with pytest.raises(ValueError):
            Trace.from_samples([baro(0.0, "a", hpa=1200.0)])

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_samples([baro(-1.0, "a")])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_samples([SensorSample(0.0, SensorKind.AMBIENT_NOISE, math.nan, src="a")])

    def test_self_observation_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_samples([ble(0.0, "a", "a")])


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


class TestTraceColumns:
    def samples(self):
        return [
            ble(5.0, "b", "a"),
            baro(1.0, "a"),
            SensorSample(3.0, SensorKind.MAGNETOMETER, (1.0, -2.0, 3.5), src="b"),
            ble(1.0, "a", "c", rss=-70.0),
        ]

    def test_rows_in_input_order(self):
        trace = Trace.from_samples(self.samples())
        assert len(trace) == 4
        assert list(trace) == self.samples()
        assert trace[2] == self.samples()[2]
        assert trace[-1] == self.samples()[-1]

    def test_concatenation_merges_device_names(self):
        left = Trace.from_samples(self.samples()[:2])
        right = Trace.from_samples([ble(2.0, "c", "d"), baro(4.0, "b")])
        joined = left + right
        assert joined.names == ("a", "b", "c", "d")
        assert list(joined) == list(left) + list(right)
        assert joined == Trace.from_samples(list(left) + list(right))

    def test_equality_reads_names_not_codes(self):
        one = Trace.from_samples([baro(1.0, "b")])
        other = (Trace.from_samples([ble(0.0, "a", "c")]) + Trace.from_samples([baro(1.0, "b")])).take([1])
        assert one.names != other.names
        assert one == other
        assert one != Trace.from_samples([baro(1.0, "c")])

    def test_magnitudes_equal_envmatch_magnitude(self, standard_data):
        samples = [s for trace in list(standard_data.traces.values())[:40] for s in trace]
        trace = Trace.from_samples(samples)
        want = [magnitude(*s.value) for s in samples if s.kind is SensorKind.MAGNETOMETER]
        assert trace.magnitudes(trace.rows(SensorKind.MAGNETOMETER)) == want

    def test_window_of_trace_equals_window_of_its_samples(self, standard_data):
        rng = random.Random(5)
        for label in rng.sample(standard_data.labels, 20):
            a, b = label.pair
            trace = Trace.from_samples(standard_data.traces[a]) + Trace.from_samples(standard_data.traces[b])
            for start, length in ((label.start, label.end - label.start), (100.0, 300.0)):
                assert make_window(trace, label.pair, start, length) == make_window(list(trace), label.pair, start, length)


GOOD_RECORDS = [
    {"t": 0.0, "kind": "BLE_RSS", "value": -60.0, "src": "a", "obs": "b"},
    {"t": 1.5, "kind": "BAROMETER", "value": 1012.0, "src": "a", "obs": None},
    {"t": 2, "kind": "MAGNETOMETER", "value": [1.0, 2, -3.5], "src": "a", "obs": None},
    {"t": 3.0, "kind": "PROXIMITY", "value": 1, "src": "a"},
]

# One record per rejection SensorSample (or the record reader) makes.
REJECTED = {
    "nan_time": {"t": math.nan, "kind": "BAROMETER", "value": 1012.0, "src": "a", "obs": None},
    "negative_time": {"t": -1.0, "kind": "BAROMETER", "value": 1012.0, "src": "a", "obs": None},
    "rss_above_0": {"t": 1.0, "kind": "BLE_RSS", "value": 5.0, "src": "a", "obs": "b"},
    "rss_below_-120": {"t": 1.0, "kind": "WIFI_RSS", "value": -121.0, "src": "a", "obs": "b"},
    "barometer_below_300": {"t": 1.0, "kind": "BAROMETER", "value": 200.0, "src": "a", "obs": None},
    "barometer_above_1100": {"t": 1.0, "kind": "BAROMETER", "value": 1200.0, "src": "a", "obs": None},
    "boolean_value": {"t": 1.0, "kind": "AMBIENT_NOISE", "value": True, "src": "a", "obs": None},
    "string_value": {"t": 1.0, "kind": "AMBIENT_NOISE", "value": "12.0", "src": "a", "obs": None},
    "infinite_value": {"t": 1.0, "kind": "AMBIENT_NOISE", "value": math.inf, "src": "a", "obs": None},
    "two_component_magnetometer": {"t": 1.0, "kind": "MAGNETOMETER", "value": [1.0, 2.0], "src": "a", "obs": None},
    "scalar_magnetometer": {"t": 1.0, "kind": "MAGNETOMETER", "value": 5.0, "src": "a", "obs": None},
    "unknown_kind": {"t": 1.0, "kind": "SONAR", "value": 1.0, "src": "a", "obs": None},
    "self_observation": {"t": 1.0, "kind": "BLE_RSS", "value": -60.0, "src": "a", "obs": "a"},
    "missing_src": {"t": 1.0, "kind": "BAROMETER", "value": 1012.0, "obs": None},
    "empty_src": {"t": 1.0, "kind": "BAROMETER", "value": 1012.0, "src": "", "obs": None},
    "not_a_record": [1.0, "BAROMETER", 1012.0, "a", None],
    "boolean_time": {"t": True, "kind": "BAROMETER", "value": 1012.0, "src": "a", "obs": None},
    "string_time": {"t": "1.0", "kind": "BAROMETER", "value": 1012.0, "src": "a", "obs": None},
    "boolean_magnetometer": {"t": 1.0, "kind": "MAGNETOMETER", "value": [True, False, True], "src": "a", "obs": None},
    "string_magnetometer": {"t": 1.0, "kind": "MAGNETOMETER", "value": ["1.5", "2", "3e1"], "src": "a", "obs": None},
    "unobserved_wifi": {"t": 1.0, "kind": "WIFI_RSS", "value": -60.0, "src": "a", "obs": None},
    "observed_barometer": {"t": 1.0, "kind": "BAROMETER", "value": 1012.0, "src": "a", "obs": "b"},
    "overflowing_time": {"t": 10**400, "kind": "BAROMETER", "value": 1012.0, "src": "a", "obs": None},
}

# The message each REJECTED record fails with on line 3 of a trace file.
# Those of the cases up to not_a_record are pinned as the former per-line
# reader gave them.
MESSAGES = {
    "nan_time": "ValueError: timestamp must be finite and >= 0, got nan",
    "negative_time": "ValueError: timestamp must be finite and >= 0, got -1.0",
    "rss_above_0": "ValueError: RSS must lie in [-120, 0] dBm, got 5.0",
    "rss_below_-120": "ValueError: RSS must lie in [-120, 0] dBm, got -121.0",
    "barometer_below_300": "ValueError: barometer must lie in [300, 1100] hPa, got 200.0",
    "barometer_above_1100": "ValueError: barometer must lie in [300, 1100] hPa, got 1200.0",
    "boolean_value": "ValueError: AMBIENT_NOISE value must be a finite number, got True",
    "string_value": "ValueError: AMBIENT_NOISE value must be a finite number, got '12.0'",
    "infinite_value": "ValueError: AMBIENT_NOISE value must be a finite number, got inf",
    "two_component_magnetometer": "ValueError: magnetometer samples carry exactly 3 components",
    "scalar_magnetometer": "ValueError: magnetometer samples carry exactly 3 components",
    "unknown_kind": "ValueError: 'SONAR' is not a valid SensorKind",
    "self_observation": "ValueError: a device cannot observe itself",
    "missing_src": "KeyError: 'src'",
    "empty_src": "ValueError: src must name a device, got ''",
    "not_a_record": "TypeError: list indices must be integers or slices, not str",
    "boolean_time": "ValueError: timestamp must be finite and >= 0, got True",
    "string_time": "ValueError: timestamp must be finite and >= 0, got '1.0'",
    "boolean_magnetometer": "ValueError: magnetometer components must be finite",
    "string_magnetometer": "ValueError: magnetometer components must be finite",
    "unobserved_wifi": "ValueError: WIFI_RSS samples must name an observed device",
    "observed_barometer": "ValueError: BAROMETER samples cannot name an observed device",
    "overflowing_time": "OverflowError: int too large to convert to float",
}


def dumps(record):
    return json.dumps(record, separators=(",", ":"))


class TestReadTrace:
    def test_decodes_every_standard_trace_as_the_line_reader_does(self, standard_data, tmp_path):
        for device, samples in standard_data.traces.items():
            path = tmp_path / f"{device}.jsonl"
            write_trace(path, samples)
            trace = read_trace(path)
            assert list(trace) == read_jsonl(path, sample_from_record)
            assert trace == Trace.from_samples(samples)

    def test_good_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(dumps(r) + "\n" for r in GOOD_RECORDS))
        assert list(read_trace(path)) == read_jsonl(path, sample_from_record)

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejection_names_its_line(self, tmp_path, name):
        lines = [dumps(r) for r in GOOD_RECORDS]
        lines[2] = dumps(REJECTED[name])
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:3: "):
            read_trace(path)

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            pytest.param(
                [GOOD_RECORDS[0], '{"t":1.0,"kind":"BAROMETER"', '"value":1012.0,"src":"a","obs":null}', GOOD_RECORDS[3]],
                2,
                id="record_split_between_fields",
            ),
            pytest.param(
                [GOOD_RECORDS[0], '{"t":2,"kind":"MAGNETOMETER","value":[1.0', '2.0,3.0],"src":"a","obs":null}'],
                2,
                id="record_split_inside_a_list",
            ),
            pytest.param(
                [GOOD_RECORDS[0], dumps(GOOD_RECORDS[1]) + "," + dumps(GOOD_RECORDS[3]), GOOD_RECORDS[2]],
                2,
                id="two_records_on_one_line",
            ),
            pytest.param(
                [
                    dumps(GOOD_RECORDS[0]) + ", " + dumps(GOOD_RECORDS[1]),
                    '{"t":1.0,"kind":"BAROMETER"',
                    '"value":1012.0,"src":"a","obs":null}',
                ],
                1,
                id="split_and_merged_lines_of_equal_count",
            ),
        ],
    )
    def test_lines_valid_only_once_joined_are_rejected(self, tmp_path, lines, bad_line):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join((line if isinstance(line, str) else dumps(line)) + "\n" for line in lines))
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:{bad_line}: "):
            read_trace(path)

    @pytest.mark.parametrize(
        "lines, line, earlier",
        [
            pytest.param([*GOOD_RECORDS, GOOD_RECORDS[1]], 5, 2, id="out_of_time_order"),
            pytest.param([GOOD_RECORDS[0], "", GOOD_RECORDS[0], GOOD_RECORDS[1]], 3, 1, id="after_a_blank_line"),
            pytest.param([GOOD_RECORDS[1], {**GOOD_RECORDS[1], "value": 1013.0}], 2, 1, id="with_another_value"),
            pytest.param([GOOD_RECORDS[2], {**GOOD_RECORDS[2], "t": 2.0}, GOOD_RECORDS[2]], 2, 1, id="int_and_float_time"),
        ],
    )
    def test_repeated_row_names_its_line_and_the_first(self, tmp_path, lines, line, earlier):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join((row if isinstance(row, str) else dumps(row)) + "\n" for row in lines))
        with pytest.raises(SenseTraceError) as err:
            read_trace(path)
        assert str(err.value) == f"{path}:{line}: ValueError: repeats line {earlier}"

    def test_rows_differing_only_in_src_or_obs_are_not_repeats(self, tmp_path):
        rows = [ble(0.0, "a", "b"), ble(0.0, "a", "c"), ble(0.0, "c", "b"), baro(1.0, "a"), baro(1.0, "c")]
        path = tmp_path / "trace.jsonl"
        write_trace(path, rows)
        assert list(read_trace(path)) == rows

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejection_message_is_the_line_readers(self, tmp_path, name):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(dumps(r) + "\n" for r in [*GOOD_RECORDS[:2], REJECTED[name]]))
        with pytest.raises(SenseTraceError) as columns:
            read_trace(path)
        assert str(columns.value) == f"{path}:3: {MESSAGES[name]}"

    def test_unobserved_peer_readings_never_reach_the_evidence(self, tmp_path):
        # Such rows would pass the pair filter as ambient ones and be
        # turned into distance estimates between the pair.
        rows = [
            {"t": 0.0, "kind": "AMBIENT_NOISE", "value": 11.0, "src": "a", "obs": None},
            {"t": 0.0, "kind": "WIFI_RSS", "value": -40.0, "src": "a", "obs": None},
            {"t": 0.0, "kind": "SOUND_AMPLITUDE", "value": 30.0, "src": "a", "obs": None},
        ]
        path = tmp_path / "a.jsonl"
        path.write_text("".join(dumps(r) + "\n" for r in rows))
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:2: ValueError: WIFI_RSS samples must"):
            build_evidence(make_window(read_trace(path), ("a", "b"), 0.0, 900.0), FusionConfig())
        path.write_text("".join(dumps(r) + "\n" for r in rows[::2]))
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:2: ValueError: SOUND_AMPLITUDE samples must"):
            build_evidence(make_window(read_trace(path), ("a", "b"), 0.0, 900.0), FusionConfig())
        with pytest.raises(ValueError, match="SOUND_AMPLITUDE samples must name an observed device"):
            make_window([sample_from_record(rows[0]), SensorSample(0.0, SensorKind.SOUND_AMPLITUDE, 30.0, "a")],
                        ("a", "b"), 0.0, 900.0)

    def test_first_bad_line_is_named_whatever_it_breaks(self, tmp_path):
        # Line 2 breaks a value rule, line 4 is not JSON: the joined decode
        # fails on line 4, and decoding each line alone finds line 2 first.
        path = tmp_path / "trace.jsonl"
        lines = [dumps(GOOD_RECORDS[0]), dumps(REJECTED["rss_above_0"]), "", "{not json", dumps(GOOD_RECORDS[1])]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:2: ValueError: RSS must lie"):
            read_trace(path)
        lines[1] = dumps(GOOD_RECORDS[3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:4: JSONDecodeError"):
            read_trace(path)

    def test_rows_map_back_to_their_lines_across_blank_ones(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([dumps(GOOD_RECORDS[0]), "", "  ", dumps(REJECTED["string_time"])]) + "\n")
        with pytest.raises(SenseTraceError, match=f"^{re.escape(str(path))}:4: ValueError: timestamp"):
            read_trace(path)

    def test_names_holding_a_record_boundary_still_decode(self, tmp_path):
        record = {"t": 1.0, "kind": "BLE_RSS", "value": -60.0, "src": "a},{b", "obs": "c"}
        path = tmp_path / "trace.jsonl"
        path.write_text(dumps(record) + "\n" + dumps(GOOD_RECORDS[1]) + "\n")
        assert list(read_trace(path)) == [sample_from_record(record), sample_from_record(GOOD_RECORDS[1])]

    def test_blank_lines_and_missing_final_newline(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n" + dumps(GOOD_RECORDS[0]) + "\n\n  \n" + dumps(GOOD_RECORDS[1]))
        assert list(read_trace(path)) == [sample_from_record(r) for r in GOOD_RECORDS[:2]]
        path.write_text("")
        assert len(read_trace(path)) == 0


def json_lines(samples):
    """Trace file text as ``json.dumps`` writes each sample's record."""
    return "".join(
        json.dumps(
            {
                "t": s.timestamp,
                "kind": s.kind.value,
                "value": list(s.value) if isinstance(s.value, tuple) else s.value,
                "src": s.src,
                "obs": s.obs,
            },
            separators=(",", ":"),
        )
        + "\n"
        for s in samples
    )


def assert_written_as_encoded(path, samples):
    """``write_trace`` puts ``encode_trace``'s bytes on disk and returns their SHA-256."""
    digest = write_trace(path, samples)
    data = path.read_bytes()
    assert encode_trace(samples) == data
    assert digest == hashlib.sha256(data).hexdigest()


class TestWriteTrace:
    def test_standard_traces_encode_as_json_dumps(self, standard_data, tmp_path):
        for device, trace in standard_data.traces.items():
            path = tmp_path / f"{device}.jsonl"
            assert_written_as_encoded(path, trace)
            assert path.read_text(encoding="utf-8") == json_lines(trace)

    def test_edge_floats_and_escaped_names(self, tmp_path):
        samples = [
            SensorSample(5e-324, SensorKind.AMBIENT_NOISE, 1e16, src='a"b'),
            SensorSample(1e-7, SensorKind.BLE_RSS, -0.0, src='a"b', obs="é"),
            SensorSample(1e16, SensorKind.MAGNETOMETER, (5e-324, -0.0, 1e-7), src="é"),
            SensorSample(0.1 + 0.2, SensorKind.SOUND_AMPLITUDE, -1e-300, src="é", obs='a"b'),
        ]
        path = tmp_path / "trace.jsonl"
        assert_written_as_encoded(path, Trace.from_samples(samples))
        assert path.read_bytes() == json_lines(samples).encode("utf-8")
        assert list(read_trace(path)) == samples
        assert math.copysign(1.0, read_trace(path)[1].value) == -1.0

    def test_integral_values_are_written_as_floats(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [SensorSample(2, SensorKind.PROXIMITY, 1, src="a")])
        assert path.read_text() == '{"t":2.0,"kind":"PROXIMITY","value":1.0,"src":"a","obs":null}\n'


# Finite floats, the edge cases and integral values always among them.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 0.1 + 0.2, 2.0, -3.0])
FINITE = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**17, 10**17).map(float))
TIMES = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 2.0]), st.floats(min_value=0.0, allow_infinity=False))
# The values each kind's sample contract allows.
VALUES = {
    SensorKind.BLE_RSS: st.one_of(st.sampled_from([-0.0, -120.0, -59.0]), st.floats(-120.0, 0.0)),
    SensorKind.BAROMETER: st.one_of(st.sampled_from([300.0, 1100.0, 1012.0]), st.floats(300.0, 1100.0)),
    SensorKind.MAGNETOMETER: st.tuples(FINITE, FINITE, FINITE),
}
VALUES[SensorKind.WIFI_RSS] = VALUES[SensorKind.BLE_RSS]
# Names with quotes, backslashes, non-ASCII and control characters, and the
# encoder's own piece boundaries.
NAMES = st.text(
    st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "€", "\u2028", "𝄞", "%", "{", "}", ","]), st.characters()),
    min_size=1,
    max_size=6,
)
PEER_KINDS = (SensorKind.BLE_RSS, SensorKind.WIFI_RSS, SensorKind.SOUND_AMPLITUDE)


@st.composite
def sample_lists(draw):
    """Rows of every kind that keep the sample contract, over two to four devices."""
    devices = draw(st.lists(NAMES, min_size=2, max_size=4, unique=True))
    samples = []
    for kind in draw(st.lists(st.sampled_from(list(SensorKind)), max_size=14)):
        src = draw(st.sampled_from(devices))
        obs = draw(st.sampled_from([d for d in devices if d != src])) if kind in PEER_KINDS else None
        samples.append(SensorSample(draw(TIMES), kind, draw(VALUES.get(kind, FINITE)), src, obs))
    return samples


class TestWriteTraceProperty:
    @given(samples=sample_lists())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_are_json_dumps_per_record_and_read_back(self, samples, tmp_path):
        path, again = tmp_path / "trace.jsonl", tmp_path / "again.jsonl"
        trace = Trace.from_samples(samples)
        assert_written_as_encoded(path, trace)
        data = path.read_bytes()
        assert data == json_lines(samples).encode("utf-8")
        repeat = repeated_sample(samples)
        if repeat is not None:  # one sample per line: row i is line i + 1
            row, earlier = repeat
            message = f"^{re.escape(str(path))}:{row + 1}: ValueError: repeats line {earlier + 1}$"
            with pytest.raises(SenseTraceError, match=message):
                read_trace(path)
            return
        back = read_trace(path)
        assert back == trace and list(back) == samples
        assert_written_as_encoded(again, back)  # -0.0 keeps its sign both ways
        assert again.read_bytes() == data


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
        assert_written_as_encoded(path, samples)
        back = read_trace(path)
        assert list(back) == samples
        # Re-serializing must produce identical bytes.
        again = tmp_path / "again.jsonl"
        assert_written_as_encoded(again, back)
        assert path.read_bytes() == again.read_bytes()

    def test_json_fields(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [ble(1.5, "a", "b", rss=-59.5)])
        record = json.loads(path.read_text())
        assert set(record) == {"t", "kind", "value", "src", "obs"}
        assert record["obs"] == "b"
        assert sample_from_record(record) == ble(1.5, "a", "b", rss=-59.5)

    def test_proximity_state_from_value(self):
        assert proximity_state(1.0) is ProximityState.NEAR
        assert proximity_state(0.0) is ProximityState.FAR


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

    def test_atomic_write_failing_chunks_keep_the_old_file(self, tmp_path):
        # A block that raises after writing part of the new file leaves the
        # old one, and no temporary file.
        path = tmp_path / "out.bin"
        atomic_write(path, "old")
        with pytest.raises(RuntimeError):
            with _atomic_file(path) as fh:
                fh.write(b"new")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old"
        assert [p.name for p in path.parent.iterdir()] == ["out.bin"]


def cached_run(directory, traces):
    """Write ``traces`` (device -> Trace) as trace files plus their column
    cache; returns the cache's path and the trace files' paths."""
    cache, paths = directory / "cache.npy", []
    with write_trace_cache(cache) as add:
        for device, trace in sorted(traces.items()):
            paths.append(directory / f"{device}.jsonl")
            add(paths[-1].name, write_trace(paths[-1], trace), trace)
    return cache, paths


def cache_only(cache, traces):
    """Write the column cache of ``traces`` (device -> Trace) alone, each
    trace under a made-up SHA-256."""
    with write_trace_cache(cache) as add:
        for device, trace in sorted(traces.items()):
            add(f"{device}.jsonl", "0" * 64, trace)


def loaded(cache):
    """Every trace the column cache at ``cache`` gives, by file name, with
    the SHA-256 it stores: the index, then its traces loaded at once."""
    index = read_trace_cache(cache)
    traces = read_cached_traces(cache, list(index.values()))
    return {entry.name: (entry.sha256, trace) for entry, trace in zip(index.values(), traces) if trace is not None}


def small_traces():
    return {
        "a": Trace.from_samples([ble(1.0, "a", "b"), baro(2.0, "a"), ble(3.0, "a", "b", rss=-70.0)]),
        "b": Trace.from_samples([SensorSample(0.5, SensorKind.MAGNETOMETER, (1.0, 2.0, 3.0), src="b")]),
        "c": Trace.from_samples([]),
    }


class TestTraceCache:
    def test_standard_traces_load_as_decoded(self, standard_data, tmp_path):
        cache, paths = cached_run(tmp_path, standard_data.traces)
        cached = loaded(cache)
        assert sorted(cached) == [p.name for p in paths] and len(paths) == 480
        for path in paths:
            digest, trace = cached[path.name]
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
            decoded = read_trace(path)
            assert trace == decoded
            assert trace.names == decoded.names
            for column in ("t", "kind", "value", "mag", "src", "obs"):
                assert getattr(trace, column).dtype == getattr(decoded, column).dtype

    def test_plain_numpy_reads_the_columns_without_pickle(self, tmp_path):
        cache, _ = cached_run(tmp_path, small_traces())
        data = cache.read_bytes()
        at = int(np.frombuffer(data[-8:], "<u8")[0])  # the trailer's one number
        header, *files, trailer = data[at:].split(b"\n", len(small_traces()) + 1)
        assert json.loads(header) == TRACE_CACHE_FORMAT
        files = [json.loads(line) for line in files]
        with open(cache, "rb") as fh:
            fh.seek(len(data) - len(trailer))
            assert np.load(fh, allow_pickle=False).tolist() == [at]
        assert [(name, n, names) for name, _, n, names, _, _ in files] == [
            ("a.jsonl", 3, ["a", "b"]), ("b.jsonl", 1, ["b"]), ("c.jsonl", 0, []),
        ]
        columns, end = {}, 0
        for _, _, n, _, _, offset in files:
            assert offset == end  # one record after another
            for name, dtype, shape in (
                ("t", "<f8", ()), ("kind", "|i1", ()), ("value", "<f8", ()),
                ("mag", "<f8", (3,)), ("src", "<i4", ()), ("obs", "<i4", ()),
            ):
                count = n * math.prod(shape)
                columns.setdefault(name, []).append(np.frombuffer(data, dtype, count, offset).reshape(n, *shape))
                offset += count * np.dtype(dtype).itemsize
            end = offset
        assert end == at
        assert np.concatenate(columns["t"]).tolist() == [1.0, 2.0, 3.0, 0.5]
        assert np.concatenate(columns["mag"]).shape == (4, 3)
        assert np.concatenate(columns["obs"]).tolist() == [1, -1, 1, -1]

    def test_traces_load_as_asked_for(self, tmp_path):
        traces = small_traces()
        cache, _ = cached_run(tmp_path, traces)
        index = read_trace_cache(cache)
        assert [len(index[name]) for name in ("a.jsonl", "b.jsonl", "c.jsonl")] == [3, 1, 0]
        assert read_cached_traces(cache, [index["c.jsonl"], index["a.jsonl"], index["c.jsonl"]]) == [
            traces["c"], traces["a"], traces["c"],
        ]
        assert read_cached_traces(cache, []) == []

    def test_block_that_raises_leaves_no_cache(self, tmp_path):
        with pytest.raises(RuntimeError):
            with write_trace_cache(tmp_path / "cache.npy") as add:
                add("a.jsonl", "0" * 64, small_traces()["a"])
                raise RuntimeError("generation failed")
        assert list(tmp_path.iterdir()) == []

    def test_equal_traces_give_equal_bytes(self, tmp_path):
        (tmp_path / "1").mkdir()
        (tmp_path / "2").mkdir()
        first, _ = cached_run(tmp_path / "1", small_traces())
        second, _ = cached_run(tmp_path / "2", small_traces())
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda data: None, id="absent"),
            pytest.param(lambda data: b"", id="empty"),
            pytest.param(lambda data: data[:40], id="truncated_header"),
            pytest.param(lambda data: data[: len(data) // 2], id="truncated_columns"),
            pytest.param(lambda data: data[:-1], id="last_byte_missing"),
            pytest.param(lambda data: bytes(random.Random(1).randrange(256) for _ in data), id="garbage"),
            pytest.param(lambda data: pickle.dumps({"a.jsonl": "x"}), id="pickle"),
            pytest.param(lambda data: data.replace(b'"version":3', b'"version":2'), id="old_version"),
            pytest.param(lambda data: data.replace(b'"sensetrace trace', b'"elsewhere trace'), id="foreign_format"),
            pytest.param(lambda data: data.replace(b"'<u8'", b"'<i8'"), id="trailer_dtype"),
            pytest.param(lambda data: data.replace(b'"version":3}\n', b'"version":3}\n\n'), id="blank_index_line"),
            pytest.param(lambda data: data[:-8] + (len(data) + 1).to_bytes(8, "little"), id="index_past_the_end"),
            pytest.param(lambda data: data.replace(b'["a.jsonl"', b'[["a.jsonl"]'), id="name_not_a_string"),
        ],
    )
    def test_damaged_cache_is_a_miss(self, tmp_path, damage):
        cache, _ = cached_run(tmp_path, small_traces())
        data = damage(cache.read_bytes())
        if data is None:
            cache.unlink()
        else:
            cache.write_bytes(data)
        assert read_trace_cache(cache) == {}

    def test_zip_and_object_arrays_are_a_miss(self, tmp_path):
        path = tmp_path / "cache.npy"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("x.npy", b"")
        assert read_trace_cache(path) == {}
        with open(path, "wb") as fh:
            np.save(fh, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        assert read_trace_cache(path) == {}

    @pytest.mark.parametrize(
        "column, row, value",
        [
            pytest.param("value", 0, 5.0, id="rss_above_zero"),
            pytest.param("t", 1, math.nan, id="nan_time"),
            pytest.param("kind", 0, 99, id="no_such_kind"),
            pytest.param("src", 2, 7, id="no_such_device"),
            pytest.param("obs", 0, 0, id="observes_itself"),
        ],
    )
    def test_trace_breaking_the_contract_is_left_out(self, tmp_path, column, row, value):
        traces = small_traces()
        getattr(traces["a"], column)[row] = value
        cache = tmp_path / "cache.npy"
        cache_only(cache, traces)
        cached = loaded(cache)
        assert sorted(cached) == ["b.jsonl", "c.jsonl"]
        assert cached["b.jsonl"][1] == traces["b"]

    @pytest.mark.parametrize(
        "old, new",
        [
            pytest.param(np.float64(-70.0).tobytes(), np.float64(-69.0).tobytes(), id="rss_in_range"),
            pytest.param(b'["a","b"]', b'["a","c"]', id="device_name"),
        ],
    )
    def test_trace_failing_its_checksum_is_left_out(self, tmp_path, old, new):
        cache, _ = cached_run(tmp_path, small_traces())
        data = cache.read_bytes()
        assert data.count(old) == 1
        cache.write_bytes(data.replace(old, new))
        assert sorted(loaded(cache)) == ["b.jsonl", "c.jsonl"]


    @pytest.mark.parametrize("bad", [False, True])
    def test_traces_are_checked_together_then_alone_where_one_is_bad(self, tmp_path, monkeypatch, bad):
        traces = small_traces()
        if bad:
            traces["a"].t[1] = math.nan
        cache = tmp_path / "cache.npy"
        cache_only(cache, traces)
        checked = []
        intact = core._intact
        monkeypatch.setattr(core, "_intact", lambda batch: checked.append([len(t) for t in batch]) or intact(batch))
        assert sorted(loaded(cache)) == (["b.jsonl", "c.jsonl"] if bad else ["a.jsonl", "b.jsonl", "c.jsonl"])
        assert checked == ([[3, 1, 0], [3], [1], [0]] if bad else [[3, 1, 0]])

    @pytest.mark.parametrize("limit, groups", [(1, [3, 1]), (3, [3, 1]), (4, [4]), (8192, [4])])
    def test_one_pass_joins_consecutive_traces_up_to_a_row_limit(self, tmp_path, monkeypatch, limit, groups):
        cache = tmp_path / "cache.npy"
        cache_only(cache, small_traces())
        checked = []
        check = Trace.check
        monkeypatch.setattr(core, "_CHECK_ROWS", limit)
        monkeypatch.setattr(Trace, "check", lambda self: checked.append(len(self)) or check(self))
        assert sorted(loaded(cache)) == ["a.jsonl", "b.jsonl", "c.jsonl"]
        assert checked == groups

    @pytest.mark.parametrize("rows", [[0, 0, 1, 2], [2, 0, 1, 0]], ids=["in_order", "out_of_order"])
    @pytest.mark.parametrize("limit", [1, 8192])
    def test_trace_repeating_a_row_is_left_out(self, tmp_path, monkeypatch, limit, rows):
        traces = small_traces()
        traces["a"] = traces["a"].take(np.array(rows))
        cache = tmp_path / "cache.npy"
        cache_only(cache, traces)
        monkeypatch.setattr(core, "_CHECK_ROWS", limit)
        assert sorted(loaded(cache)) == ["b.jsonl", "c.jsonl"]

    def test_equal_rows_of_two_traces_are_not_repeats(self, tmp_path):
        cache = tmp_path / "cache.npy"
        cache_only(cache, {"a": small_traces()["a"], "b": small_traces()["a"]})
        assert sorted(loaded(cache)) == ["a.jsonl", "b.jsonl"]

    @pytest.mark.parametrize("limit", [1, 2, 4])
    def test_bad_row_in_a_later_group_is_found(self, tmp_path, monkeypatch, limit):
        traces = small_traces()
        traces["b"].t[0] = math.nan
        cache = tmp_path / "cache.npy"
        cache_only(cache, traces)
        monkeypatch.setattr(core, "_CHECK_ROWS", limit)
        assert sorted(loaded(cache)) == ["a.jsonl", "c.jsonl"]


class TestEmptyTrace:
    COLUMNS = ("t", "kind", "value", "mag", "src", "obs")

    @pytest.fixture(
        params=["from_samples", b"", b"\n  \n", "window"], ids=["from_samples", "empty_file", "blank_file", "window"]
    )
    def empty(self, request, tmp_path):
        if request.param == "from_samples":
            return Trace.from_samples(())
        if request.param == "window":
            return ContactWindow(("a", "b"), 0.0, 900.0, ()).samples
        (tmp_path / "empty.jsonl").write_bytes(request.param)
        return read_trace(tmp_path / "empty.jsonl")

    def test_equals_the_allocated_columns(self, empty):
        # The columns the row-by-row builder allocates for no rows.
        allocated = Trace(
            np.array([], dtype=float), np.array([], dtype=np.int8), np.array([], dtype=float),
            np.full((0, 3), math.nan), np.array([], dtype=np.int32), np.array([], dtype=np.int32), names=(),
        )
        assert empty == allocated and len(empty) == 0 and empty.names == ()
        for column in self.COLUMNS:
            got, want = getattr(empty, column), getattr(allocated, column)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), column

    def test_columns_reject_writes(self, empty):
        for column in self.COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(empty, column)[...] = 0

    def test_works_as_any_trace(self, empty):
        trace = Trace.from_samples([ble(5.0, "b", "a"), baro(1.0, "a")])
        assert empty + trace == trace and trace + empty == trace
        assert (empty + trace).t.flags.writeable
        assert empty.between(0.0, 10.0).size == 0 and empty.rows(SensorKind.BLE_RSS).size == 0
        assert empty.take(np.array([], dtype=np.intp)) == empty
        with pytest.raises(EmptyWindow):
            make_window(empty, ("a", "b"), 0.0, 10.0)


class TestContactWindowInvariants:
    def test_sample_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            ContactWindow(("a", "b"), 0.0, 900.0, (ble(901.0, "a", "b"),))

    def test_end_after_start(self):
        with pytest.raises(ValueError):
            ContactWindow(("a", "b"), 10.0, 10.0, ())

    def test_checks_hold_with_and_without_rows(self):
        for samples in ((), Trace.from_samples(()), (ble(1.0, "a", "b"),)):
            with pytest.raises(ValueError, match="two distinct devices"):
                ContactWindow(("a", "a"), 0.0, 900.0, samples)
            with pytest.raises(ValueError, match="window end must exceed start"):
                ContactWindow(("a", "b"), 10.0, 10.0, samples)
        with pytest.raises(ValueError, match=r"outside \[0.0, 900.0\)"):
            ContactWindow(("a", "b"), 0.0, 900.0, (ble(1.0, "a", "b"), ble(900.0, "a", "b")))
