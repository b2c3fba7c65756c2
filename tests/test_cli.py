import json
import shutil
from pathlib import Path

import pytest
import yaml

from sensetrace.cli import main
from sensetrace.simulator import default_scenario_dict, load_scenario, standard_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def small_config(tmp_path):
    """A reduced scenario: short relaxed windows, a handful of instances."""
    raw = default_scenario_dict()
    raw["seed"] = 11
    raw["window"] = {"length_s": 300.0}
    raw["instances"]["buckets"] = [
        {"range_m": [0.0, 1.0], "indoor": 2, "outdoor": 1},
        {"range_m": [1.0, 2.0], "indoor": 1, "outdoor": 1},
        {"range_m": [3.0, 10.0], "indoor": 1, "outdoor": 2},
    ]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_outputs_and_metadata(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["generate", "--config", small_config, "--out", out]) == 0
        traces = sorted((out / "traces").glob("*.jsonl"))
        assert len(traces) == 16  # 8 instances, 2 devices each
        assert (out / "truth.jsonl").exists()
        assert (out / "instances.jsonl").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["instances"] == 8
        assert len(meta["config_sha256"]) == 16

    def test_fixed_seed_is_byte_identical(self, small_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["generate", "--config", small_config, "--out", out1]) == 0
        assert run(["generate", "--config", small_config, "--out", out2]) == 0
        names = sorted(p.name for p in (out1 / "traces").iterdir())
        assert names == sorted(p.name for p in (out2 / "traces").iterdir())
        for name in names:
            assert (out1 / "traces" / name).read_bytes() == (out2 / "traces" / name).read_bytes()
        assert (out1 / "truth.jsonl").read_bytes() == (out2 / "truth.jsonl").read_bytes()

    def test_seed_override(self, small_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(["generate", "--config", small_config, "--out", out1])
        run(["generate", "--config", small_config, "--out", out2, "--seed", 99])
        meta2 = json.loads((out2 / "meta.json").read_text())
        assert meta2["seed"] == 99
        assert (out1 / "truth.jsonl").read_bytes() != (out2 / "truth.jsonl").read_bytes()

    def test_missing_config_errors_with_json(self, tmp_path, capsys):
        rc = run(["generate", "--config", tmp_path / "nope.yaml", "--out", tmp_path / "x"])
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_bad_yaml_errors_with_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("{:::not yaml")
        rc = run(["generate", "--config", bad, "--out", tmp_path / "x"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ScenarioError"


class TestDetectEvaluateReport:
    @pytest.fixture()
    def generated(self, small_config, tmp_path):
        out = tmp_path / "run"
        run(["generate", "--config", small_config, "--out", out])
        return out

    def test_detect_writes_decisions(self, generated, small_config):
        assert run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"]) == 0
        lines = (generated / "decisions_full.jsonl").read_text().strip().splitlines()
        assert len(lines) == 8
        record = json.loads(lines[0])
        assert set(record) == {
            "pair", "window", "appearance", "mean_distance_m",
            "env_score", "env_sensor", "contact", "degraded_reason",
        }

    def test_all_three_tiers(self, generated, small_config):
        for tier in ("APPEARANCE_ONLY", "APPEARANCE_DISTANCE", "FULL"):
            assert run(["detect", "--data", generated, "--config", small_config, "--tier", tier]) == 0
            assert (generated / f"decisions_{tier.lower()}.jsonl").exists()

    def test_evaluate_metrics(self, generated, small_config, capsys):
        run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"])
        assert run(["evaluate", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 0
        text = (generated / "metrics.csv").read_text()
        assert text.startswith("# seed=11")
        assert "config_sha256=" in text
        assert "accuracy" in text
        confusion = json.loads((generated / "confusion.json").read_text())
        assert confusion["tp"] + confusion["fp"] + confusion["tn"] + confusion["fn"] == 8
        assert confusion["seed"] == 11

    def test_report_csvs(self, generated, small_config):
        run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"])
        assert run(["report", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 0
        cdf = (generated / "cdf.csv").read_text().splitlines()
        assert cdf[0].startswith("# seed=")
        assert cdf[2].split(",")[0] != ""
        buckets = (generated / "magnetic_buckets.csv").read_text().splitlines()
        header = buckets[2].split(",")
        assert header == ["d_lo_m", "d_hi_m", "count", "mean_euclid_ut", "std_euclid_ut"]

    def test_unknown_tier_rejected_by_parser(self, generated, small_config):
        with pytest.raises(SystemExit):
            run(["detect", "--data", generated, "--config", small_config, "--tier", "BOGUS"])


class TestShippedConfig:
    def test_standard_yaml_matches_reference_dict(self):
        path = REPO_ROOT / "configs" / "standard.yaml"
        loaded, raw = load_scenario(path)
        assert raw == default_scenario_dict()
        assert loaded == standard_scenario(seed=42)


def _rewrite_line(path, lineno, edit):
    """Replace line ``lineno`` (1-based) of a JSONL file by ``edit(record)``."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = json.dumps(edit(json.loads(lines[lineno - 1])), separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


def _without(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


def _with(**fields):
    return lambda record: {**record, **fields}


@pytest.fixture(scope="module")
def detected_run(tmp_path_factory):
    """A generated run with FULL-tier decisions, copied by each test."""
    root = tmp_path_factory.mktemp("malformed")
    raw = default_scenario_dict()
    raw["seed"] = 11
    raw["window"] = {"length_s": 300.0}
    raw["instances"]["buckets"] = [{"range_m": [0.0, 2.0], "indoor": 2, "outdoor": 1}]
    config = root / "scenario.yaml"
    config.write_text(yaml.safe_dump(raw, sort_keys=False))
    data = root / "run"
    assert run(["generate", "--config", config, "--out", data]) == 0
    assert run(["detect", "--data", data, "--config", config, "--tier", "FULL"]) == 0
    return config, data


def _first_trace(data):
    return sorted((data / "traces").glob("*.jsonl"))[0]


# (file, subcommand that reads it, key a record needs, a field the record type rejects)
MALFORMED_FILES = {
    "trace": (_first_trace, "detect", "kind", _with(kind="BLE_RSS", value=5.0, obs="zz")),
    "truth": (lambda d: d / "truth.jsonl", "evaluate", "is_contact", _with(true_distance_m=0.5, is_contact=False)),
    "instances": (lambda d: d / "instances.jsonl", "detect", "window", _with(pair=["a", "a"])),
    "decisions": (lambda d: d / "decisions_full.jsonl", "evaluate", "contact", _with(env_sensor="SONAR")),
}


class TestMalformedInput:
    @pytest.mark.parametrize("breakage", ["truncated", "missing_key", "bad_value"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED_FILES))
    def test_one_line_json_error_naming_file_and_line(self, detected_run, tmp_path, capsys, kind, breakage):
        config, original = detected_run
        data = tmp_path / "run"
        shutil.copytree(original, data)
        locate, command, required, reject = MALFORMED_FILES[kind]
        path = locate(data)
        if breakage == "truncated":
            lines = path.read_text().splitlines()
            lineno = len(lines)
            path.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]))
        else:
            lineno = 2
            _rewrite_line(path, lineno, _without(required) if breakage == "missing_key" else reject)
        argv = {
            "detect": ["detect", "--data", data, "--config", config, "--tier", "FULL"],
            "evaluate": ["evaluate", "--data", data, "--decisions", "decisions_full.jsonl"],
        }[command]
        capsys.readouterr()

        assert run(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "SenseTraceError"
        assert f"{path}:{lineno}:" in payload["message"]

    def test_duplicate_instance_rejected(self, detected_run, tmp_path, capsys):
        config, original = detected_run
        data = tmp_path / "run"
        shutil.copytree(original, data)
        path = data / "instances.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[0]]) + "\n")
        capsys.readouterr()

        assert run(["detect", "--data", data, "--config", config, "--tier", "FULL", "--out", "dup.jsonl"]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "SenseTraceError"
        assert f"{path}:{len(lines) + 1}:" in payload["message"]
        assert "duplicate" in payload["message"]
        assert not (data / "dup.jsonl").exists()
