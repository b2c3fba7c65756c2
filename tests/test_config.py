"""Scenario config parsing: every key sets one dataclass field, unknown keys
and wrong types are errors naming their dotted path."""

import copy

import pytest
import yaml

from sensetrace.core import label_to_json
from sensetrace.errors import ScenarioError
from sensetrace.simulator import generate_traces, scenario_from_dict, write_config

from .conftest import standard_raw


def small_raw():
    raw = standard_raw()
    raw["window"]["length_s"] = 300.0
    raw["instances"]["buckets"] = [
        {"range_m": [0.0, 2.0], "indoor": 2, "outdoor": 1},
        {"range_m": [3.0, 10.0], "indoor": 1, "outdoor": 1, "cross_floor_fraction": 0.5},
    ]
    return raw


def integer_spellings(value):
    """``value`` with every integral float written as an int."""
    if isinstance(value, dict):
        return {k: integer_spellings(v) for k, v in value.items()}
    if isinstance(value, list):
        return [integer_spellings(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def serialized(scenario):
    data = generate_traces(scenario)
    return data.traces, [label_to_json(lb) for lb in data.labels]


def cases(table):
    """Parametrize over (dotted path, edit of the raw mapping) pairs, each
    case named by its path."""
    return pytest.mark.parametrize("path, edit", [pytest.param(path, edit, id=path) for path, edit in table])


def error_message(raw):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(raw)
    return str(info.value)


class TestUnknownKeys:
    # One misspelled key at each nesting level.
    @cases(
        [
            ("sed", lambda raw: raw.update(sed=1)),
            ("noise.ble_hop_sigma", lambda raw: raw["noise"].update(ble_hop_sigma=0.0)),
            ("testbed.pressure.base", lambda raw: raw["testbed"]["pressure"].update(base=1000.0)),
            ("testbed.magnetic.indoor.max", lambda raw: raw["testbed"]["magnetic"]["indoor"].update(max=90.0)),
            ("testbed.regions[1].ambient_db", lambda raw: raw["testbed"]["regions"][1].update(ambient_db=5.0)),
            ("instances.buckets[2].indoors", lambda raw: raw["instances"]["buckets"][2].update(indoors=3)),
            # Chirp keys that older configs set, with their old values: nothing read them.
            ("sound.chirp.frequency_hz", lambda raw: raw["sound"]["chirp"].update(frequency_hz=4000.0)),
            ("sound.chirp.duration_ms", lambda raw: raw["sound"]["chirp"].update(duration_ms=50.0)),
        ]
    )
    def test_rejected_naming_path(self, path, edit):
        raw = standard_raw()
        edit(raw)
        assert f"unknown key {path} " in error_message(raw)

    @cases(
        [
            # A field name is no spelling of its own when its key carries a unit.
            ("fusion.contact_radius", lambda raw: raw["fusion"].update(contact_radius=2.0)),
            # A field belongs to one section only.
            ("fusion.length_s", lambda raw: raw["fusion"].update(length_s=60.0)),
            ("cadence.seed", lambda raw: raw["cadence"].update(seed=1)),
            ("testbed.magnetic.indoor_base_ut", lambda raw: raw["testbed"]["magnetic"].update(indoor_base_ut=1.0)),
            # Fields derived from a pair cannot also be set one by one.
            ("testbed.regions[0].x_min", lambda raw: raw["testbed"]["regions"][0].update(x_min=1.0)),
            # Nested objects are set by their own section only.
            ("fusion.chirp", lambda raw: raw["fusion"].update(chirp={})),
        ]
    )
    def test_one_spelling_per_field(self, path, edit):
        raw = standard_raw()
        edit(raw)
        assert f"unknown key {path} " in error_message(raw)


class TestValues:
    def test_integer_spellings_give_the_same_traces(self):
        raw = small_raw()
        ints = integer_spellings(raw)
        assert ints["window"]["length_s"] == 300 and isinstance(ints["window"]["length_s"], int)
        assert isinstance(ints["testbed"]["regions"][0]["ambient_noise_db"], int)
        assert scenario_from_dict(ints) == scenario_from_dict(raw)
        assert serialized(scenario_from_dict(ints)) == serialized(scenario_from_dict(raw))

    def test_absent_keys_take_the_standard_values(self):
        raw = standard_raw()
        for section in ("window", "fusion", "cadence", "radio", "sound", "thresholds", "noise"):
            del raw[section]
        for key in ("ceiling_height_m", "pressure"):
            del raw["testbed"][key]
        for key in ("cell_size_m", "lattice_spacing_m", "sensor_sigma_ut", "indoor", "outdoor"):
            del raw["testbed"]["magnetic"][key]
        del raw["instances"]["pocket_probability"]
        assert scenario_from_dict(raw) == scenario_from_dict(standard_raw())

    def test_wall_loss_default_applies_to_walls_without_loss(self):
        raw = standard_raw()
        raw["noise"]["wall_loss_db"] = 5.0
        raw["testbed"]["walls"][0]["loss_db"] = 11.0
        walls = scenario_from_dict(raw).testbed.walls
        assert [w.loss_db for w in walls] == [11.0] + [5.0] * (len(walls) - 1)

    def test_sound_exponent_reaches_the_detector(self):
        raw = standard_raw()
        raw["sound"]["exponent"] = 2.5
        assert scenario_from_dict(raw).fusion.sound_exponent == 2.5

    def test_bucket_counts_default_to_zero(self):
        raw = standard_raw()
        raw["instances"]["buckets"] = [{"range_m": [0.0, 1.0], "outdoor": 3}]
        (bucket,) = scenario_from_dict(raw).buckets
        assert (bucket.indoor, bucket.outdoor) == (0, 3)

    @cases(
        [
            ("testbed.floors", lambda raw: raw["testbed"].update(floors="two")),
            ("noise.wall_loss_db", lambda raw: raw["noise"].update(wall_loss_db="thick")),
            ("fusion.wifi_scan_cap_per_120s", lambda raw: raw["fusion"].update(wifi_scan_cap_per_120s=[4])),
            ("testbed.magnetic.outdoor.base_ut", lambda raw: raw["testbed"]["magnetic"]["outdoor"].update(base_ut="x")),
            ("testbed.walls[3].from", lambda raw: raw["testbed"]["walls"][3].update({"from": [1.0]})),
            ("instances.buckets[0].range_m", lambda raw: raw["instances"]["buckets"][0].update(range_m="near")),
        ]
    )
    def test_wrong_type_names_key(self, path, edit):
        raw = standard_raw()
        edit(raw)
        assert error_message(raw).startswith(f"{path} must be ")

    @cases(
        [
            ("testbed.floors", lambda raw: raw["testbed"].update(floors=2.7)),
            ("fusion.wifi_scan_cap_per_120s", lambda raw: raw["fusion"].update(wifi_scan_cap_per_120s=4.9)),
            ("instances.buckets[0].indoor", lambda raw: raw["instances"]["buckets"][0].update(indoor=1.5)),
            ("seed", lambda raw: raw.update(seed=True)),
            ("testbed.field_seed", lambda raw: raw["testbed"].update(field_seed=False)),
            ("testbed.regions[0].ambient_noise_db", lambda raw: raw["testbed"]["regions"][0].update(ambient_noise_db=True)),
            ("noise.wall_loss_db", lambda raw: raw["noise"].update(wall_loss_db=True)),
            ("testbed.floors", lambda raw: raw["testbed"].update(floors="2")),
            ("window.length_s", lambda raw: raw["window"].update(length_s="300")),
        ]
    )
    def test_no_truncation_and_no_booleans(self, path, edit):
        raw = standard_raw()
        edit(raw)
        assert error_message(raw).startswith(f"{path} must be ")

    def test_boolean_in_a_pair_rejected(self):
        raw = standard_raw()
        raw["instances"]["buckets"][0]["range_m"] = [0.0, True]
        assert error_message(raw).startswith("instances.buckets[0].range_m must be a pair of numbers")

    def test_integral_numbers_keep_their_field_type(self):
        raw = standard_raw()
        raw["testbed"]["floors"] = 2.0
        raw["testbed"]["regions"][0]["ambient_noise_db"] = 10
        scenario = scenario_from_dict(raw)
        assert scenario.testbed.floors == 2 and type(scenario.testbed.floors) is int
        assert scenario.testbed.regions[0].ambient_noise_db == 10.0
        assert type(scenario.testbed.regions[0].ambient_noise_db) is float

    @cases(
        [
            ("testbed", lambda raw: raw.pop("testbed")),
            ("testbed.regions", lambda raw: raw["testbed"].pop("regions")),
            ("instances.buckets", lambda raw: raw.pop("instances")),
            ("testbed.regions[2].name", lambda raw: raw["testbed"]["regions"][2].pop("name")),
            ("testbed.regions[0].environment", lambda raw: raw["testbed"]["regions"][0].pop("environment")),
            ("testbed.regions[1].y", lambda raw: raw["testbed"]["regions"][1].pop("y")),
            ("testbed.magnetic.hotspots[0].peak_ut", lambda raw: raw["testbed"]["magnetic"]["hotspots"][0].pop("peak_ut")),
            ("instances.buckets[1].range_m", lambda raw: raw["instances"]["buckets"][1].pop("range_m")),
        ]
    )
    def test_missing_required_key_names_it(self, path, edit):
        raw = standard_raw()
        edit(raw)
        assert f"missing {path} " in error_message(raw)

    @cases(
        [
            ("noise", lambda raw: raw.update(noise=5)),
            ("testbed.pressure", lambda raw: raw["testbed"].update(pressure=[1.0])),
            ("testbed.regions", lambda raw: raw["testbed"].update(regions={"name": "r"})),
            ("instances.buckets[0]", lambda raw: raw["instances"]["buckets"].__setitem__(0, 5)),
        ]
    )
    def test_section_of_wrong_shape_names_it(self, path, edit):
        raw = standard_raw()
        edit(raw)
        assert error_message(raw).startswith(f"{path} must be a ")

    def test_input_not_modified(self):
        raw = standard_raw()
        before = copy.deepcopy(raw)
        scenario_from_dict(raw)
        assert raw == before


class TestWriteConfig:
    @staticmethod
    def scaled(factor):
        raw = standard_raw()
        for bucket in raw["instances"]["buckets"]:
            bucket["indoor"] *= factor
            bucket["outdoor"] *= factor
        return raw

    @pytest.mark.parametrize("factor", [1, 10])
    def test_bytes_of_safe_dump(self, tmp_path, factor):
        raw = self.scaled(factor)
        write_config(tmp_path / "config.yaml", raw)
        assert (tmp_path / "config.yaml").read_bytes() == yaml.safe_dump(raw, sort_keys=False).encode("utf-8")

    def test_strings_that_read_as_other_types_round_trip(self, tmp_path):
        raw = {
            **standard_raw(),
            "notes": {"yes": "yes", "null": "null", "float": "1.0", "empty": "", "list": ["no", "~", "0x1f"]},
        }
        write_config(tmp_path / "config.yaml", raw)
        assert yaml.safe_load((tmp_path / "config.yaml").read_text(encoding="utf-8")) == raw
