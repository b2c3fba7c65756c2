import faulthandler
import fcntl
import hashlib
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import yaml

from sensetrace import cli
from sensetrace.cli import main
from sensetrace.core import (
    TRACE_CACHE,
    GroundTruthLabel,
    SensorSample,
    canonical_pair,
    label_from_record,
    label_to_json,
    read_jsonl,
    read_trace,
    write_trace_cache,
)
from sensetrace.errors import SenseTraceError
from sensetrace.evaluation import ASSESSMENT_CACHE, TierSpec, read_assessment_cache
from sensetrace.fusion import decision_to_json
from sensetrace.simulator import config_hash, load_scenario

from .conftest import STANDARD, standard_raw
from .oracles import run_tier


@pytest.fixture()
def small_config(tmp_path):
    """A reduced scenario: short relaxed windows, a handful of instances."""
    raw = standard_raw()
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


def files_of(directory):
    """Every file in ``directory`` by name, with its bytes."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@contextmanager
def no_deadlock(seconds=60):
    """Ends the test process with every thread's traceback if the block
    has not finished within ``seconds``, so a deadlock fails instead of
    hanging the suite."""
    faulthandler.dump_traceback_later(seconds, exit=True, file=sys.__stderr__)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture()
def writers(monkeypatch):
    """Every writer process started during the test, as it is started."""
    started, popen = [], subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(cli.subprocess, "Popen", recording)
    return started


def writer_with(monkeypatch, prelude, **constants):
    """Makes the writer process run ``prelude``, with ``constants`` set,
    before its own program; a function ``open`` that the prelude defines
    is the one the writer creates each file with."""
    defined = "".join(f"{name} = {value!r}\n" for name, value in constants.items())
    monkeypatch.setattr(cli, "_WRITER", defined + prelude + cli._WRITER)


def until(ready, seconds=30):
    """Whether ``ready()`` came true within ``seconds``."""
    deadline = time.monotonic() + seconds
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.01)
    return ready()


# Logs the process id for each file the writer creates, and makes the
# creation numbered FAIL_AT raise a full-disk OSError.
FAILING_CREATE = """\
import os
_open, _created = open, []
_log = _open(LOG, "a", buffering=1)
def open(name, mode):
    _created.append(name)
    _log.write(f"{os.getpid()}\\n")
    if len(_created) == FAIL_AT:
        raise OSError(28, "No space left on device")
    return _open(name, mode)
"""


# Logs each file the writer starts to create; at the one numbered SLOW_AT,
# marks WRITING and waits for RELEASE, then half a second more.
SLOW_CREATE = """\
import os, time
_open, _created = open, []
_log = _open(LOG, "a", buffering=1)
def open(name, mode):
    _created.append(name)
    _log.write(name + "\\n")
    if len(_created) == SLOW_AT:
        _open(WRITING, "x").close()
        _deadline = time.monotonic() + 30
        while not os.path.exists(RELEASE) and time.monotonic() < _deadline:
            time.sleep(0.01)
        time.sleep(0.5)  # still writing after the error, unless killed
    return _open(name, mode)
"""

# Reads nothing until RELEASE exists.
WAIT_FOR_RELEASE = """\
import os, time
_deadline = time.monotonic() + 30
while not os.path.exists(RELEASE) and time.monotonic() < _deadline:
    time.sleep(0.01)
"""


def writes_failing_at(monkeypatch, tmp_path, number):
    """Makes the trace file creation numbered ``number`` raise a full-disk
    OSError in the writer process; returns the file that gets the process
    id of each creation, in order."""
    log = tmp_path / "writes.log"
    writer_with(monkeypatch, FAILING_CREATE, LOG=str(log), FAIL_AT=number)
    return log


def set_key(section, key, value):
    return lambda raw: raw.setdefault(section, {}).update({key: value})


# A non-finite period, each named by its field.
BAD_PERIODS = [
    pytest.param(set_key(section, key, value), f"{field} must be finite and > 0", id=f"{key}_{value}")
    for section, key, field in (
        ("window", "length_s", "window_length"),
        ("fusion", "ble_scan_period_s", "ble_scan_period"),
        ("cadence", "sound_period_s", "sound_period"),
        ("cadence", "env_period_s", "env_period"),
    )
    for value in (math.nan, math.inf)
]
# A noise parameter that would silently mean no noise, or no sound range gate.
BAD_NOISE = [
    pytest.param(set_key("noise", "tx_power_sigma_db", -3.0), "tx_power_sigma_db must be finite and >= 0",
                 id="tx_power_sigma_negative"),
    pytest.param(set_key("noise", "ambient_sigma_db", math.nan), "ambient_sigma_db must be finite and >= 0",
                 id="ambient_sigma_nan"),
    pytest.param(set_key("noise", "multipath_sigma_indoor_db", -9.0),
                 "multipath_sigma_indoor_db must be finite and >= 0", id="multipath_sigma_negative"),
    pytest.param(lambda raw: raw["testbed"].setdefault("pressure", {}).update(sigma_hpa=-1.0),
                 "sigma_hpa must be finite and >= 0", id="pressure_sigma_negative"),
    pytest.param(lambda raw: raw["testbed"].setdefault("magnetic", {}).update(sensor_sigma_ut=-1.0),
                 "sensor_sigma_ut must be finite and >= 0", id="magnetic_sigma_negative"),
    pytest.param(set_key("noise", "sound_max_range_m", math.nan), "sound_max_range_m must be finite and > 0",
                 id="sound_range_nan"),
]


def set_bucket(**fields):
    return lambda raw: raw["instances"]["buckets"][0].update(fields)


def set_region(**fields):
    return lambda raw: raw["testbed"]["regions"][0].update(fields)


def indoor_regions_only(raw):
    raw["testbed"]["regions"] = [r for r in raw["testbed"]["regions"] if r["environment"] == "indoor"]


# A value outside its range, in the scenario, a bucket or the testbed.
BAD_VALUES = [
    pytest.param(lambda raw: raw.update(seed=-1), "seed must be a non-negative integer", id="seed_negative"),
    pytest.param(set_key("instances", "pocket_probability", 1.5), "pocket_probability must lie in [0, 1]",
                 id="pocket_probability_above_1"),
    pytest.param(set_bucket(indoor=-1), "bucket counts must be >= 0, got indoor=-1, outdoor=1",
                 id="bucket_count_negative"),
    pytest.param(set_bucket(range_m=[3, 1]), "bad distance band [3.0, 1.0]", id="bucket_band_inverted"),
    pytest.param(set_key("instances", "buckets", []), "instances.buckets needs a count > 0", id="no_buckets"),
    pytest.param(set_key("instances", "buckets", [{"range_m": [0, 1]}]), "instances.buckets needs a count > 0",
                 id="bucket_counts_0"),
    pytest.param(set_key("testbed", "floors", 0), "floors must be >= 1, got 0", id="floors_0"),
    pytest.param(set_key("testbed", "ceiling_height_m", 0), "ceiling_height_m must be finite and > 0, got 0.0",
                 id="ceiling_height_0"),
    pytest.param(set_key("testbed", "ceiling_height_m", math.nan), "ceiling_height_m must be finite and > 0, got nan",
                 id="ceiling_height_nan"),
    pytest.param(set_region(environment="underwater"), "unknown environment class 'underwater'",
                 id="region_environment_unknown"),
    pytest.param(set_region(x=[5, 5]), "region office_west has empty extent", id="region_extent_empty"),
    pytest.param(set_key("testbed", "regions", []), "testbed needs at least one region", id="no_regions"),
    pytest.param(indoor_regions_only, "testbed has no outdoor region", id="no_outdoor_region"),
]


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

    def test_generate_into_an_earlier_run_leaves_only_its_own_traces(self, small_config, tmp_path):
        raw = yaml.safe_load(small_config.read_text())
        out = tmp_path / "run"
        for n in (3, 1):
            raw["instances"]["buckets"] = [{"range_m": [0.0, 1.0], "indoor": n, "outdoor": 0}]
            small_config.write_text(yaml.safe_dump(raw, sort_keys=False))
            if n == 1:  # and a trace file no run wrote
                (out / "traces" / "zz.jsonl").write_bytes((out / "traces" / "i000a.jsonl").read_bytes())
            assert run(["generate", "--config", small_config, "--out", out]) == 0
        fresh = tmp_path / "fresh"
        assert run(["generate", "--config", small_config, "--out", fresh]) == 0
        assert files_of(out / "traces") == files_of(fresh / "traces")
        assert len(files_of(out / "traces")) == json.loads((out / "meta.json").read_text())["devices"] == 2
        assert (out / TRACE_CACHE).read_bytes() == (fresh / TRACE_CACHE).read_bytes()
        assert not list(out.glob(".traces*"))

    @pytest.fixture()
    def earlier_run(self, tmp_path):
        """A run of 120 trace files of about 9.5 KB, so that the last 20
        are more than the writer's pipe holds, its config and its
        ``traces/`` and ``trace_columns.npy`` bytes."""
        raw = standard_raw()
        raw["window"] = {"length_s": 480.0}
        raw["instances"]["buckets"] = [{"range_m": [0.0, 3.0], "indoor": 30, "outdoor": 30}]
        config = tmp_path / "scenario.yaml"
        config.write_text(yaml.safe_dump(raw, sort_keys=False))
        out = tmp_path / "run"
        threads = threading.enumerate()
        assert run(["generate", "--config", config, "--out", out]) == 0
        assert threading.enumerate() == threads
        before = files_of(out / "traces")
        assert len(before) == 120
        return config, out, before, (out / TRACE_CACHE).read_bytes()

    def assert_failed_and_kept(self, capsys, argv, status, error, earlier_run, writers):
        _, out, before, cache = earlier_run
        threads = threading.enumerate()
        capsys.readouterr()
        with no_deadlock():
            assert run(argv) == status
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == error
        assert files_of(out / "traces") == before
        assert (out / TRACE_CACHE).read_bytes() == cache
        assert not list(out.glob(".traces*"))
        assert threading.enumerate() == threads
        assert len(writers) == 1 and writers[0].returncode is not None  # reaped
        return json.loads(err[0])["message"]

    def test_failed_write_keeps_the_earlier_traces(self, earlier_run, monkeypatch, capsys, writers, tmp_path):
        config, out, _, _ = earlier_run
        log = writes_failing_at(monkeypatch, tmp_path, 100)
        encoded, encode = [], cli.encode_trace

        def encode_counting_bytes(trace):
            data = encode(trace)
            encoded.append(len(data))
            return data

        monkeypatch.setattr(cli, "encode_trace", encode_counting_bytes)
        argv = ["generate", "--config", config, "--out", out, "--seed", 12]
        message = self.assert_failed_and_kept(capsys, argv, 2, "OSError", earlier_run, writers)
        assert message.startswith("[Errno 28] No space left on device: ") and message.endswith(".jsonl'")
        creators = log.read_text().split()
        assert len(creators) == 100 and str(os.getpid()) not in creators
        # The files handed over after the failed one fit in the writer's
        # pipe (at most 64 KiB on Linux) and its 8 KiB read buffer; the put
        # of the next encoded trace raises, long before the last.
        assert sum(encoded[100:-1]) <= (1 << 16) + (1 << 13) and len(encoded) < 120
        assert writers[0].returncode == 1

    def test_failed_last_write_keeps_the_earlier_cache(self, earlier_run, monkeypatch, capsys, writers, tmp_path):
        config, out, _, _ = earlier_run
        writes_failing_at(monkeypatch, tmp_path, 120)  # after the simulator is done
        argv = ["generate", "--config", config, "--out", out, "--seed", 12]
        message = self.assert_failed_and_kept(capsys, argv, 2, "OSError", earlier_run, writers)
        assert message.startswith("[Errno 28] No space left on device: ")

    def test_main_thread_error_while_writes_are_in_flight(self, earlier_run, monkeypatch, capsys, writers, tmp_path):
        config, out, _, _ = earlier_run
        log, writing, release = tmp_path / "writes.log", tmp_path / "writing", tmp_path / "release"
        writer_with(monkeypatch, SLOW_CREATE, LOG=str(log), SLOW_AT=97, WRITING=str(writing), RELEASE=str(release))
        encoded, encode = [], cli.encode_trace

        def encode_failing_at_the_100th(trace):
            if len(encoded) == 99:
                assert until(writing.exists)
                encoded.append(len(log.read_text().split()))
                release.touch()
                raise SenseTraceError("encoder failed")
            encoded.append(None)
            return encode(trace)

        monkeypatch.setattr(cli, "encode_trace", encode_failing_at_the_100th)
        argv = ["generate", "--config", config, "--out", out, "--seed", 12]
        self.assert_failed_and_kept(capsys, argv, 1, "SenseTraceError", earlier_run, writers)
        # When it raised, the 97th file was being created (so the 96 before
        # it were written) and two more were in the pipe. The writer was
        # killed there: it created no other file.
        assert encoded[-1] == 97
        assert len(log.read_text().split()) == 97
        assert writers[0].returncode == -signal.SIGKILL

    def test_put_waits_once_the_pipe_is_full(self, tmp_path, monkeypatch, writers):
        release, returned, threads = tmp_path / "release", [], threading.enumerate()
        writer_with(monkeypatch, WAIT_FOR_RELEASE, RELEASE=str(release))

        def fill():
            with cli._swap_in_traces(tmp_path / "run") as put:
                capacity = fcntl.fcntl(writers[0].stdin, fcntl.F_GETPIPE_SZ)
                for i in range(5):
                    name = f"d{i}.jsonl"
                    # Four such frames (a 16-byte header, the name and the
                    # data) fill the pipe.
                    put(name, b"x" * (capacity // 4 - 16 - len(name)))
                    returned.append(i)

        filler = threading.Thread(target=fill)
        with no_deadlock():
            filler.start()
            assert until(lambda: len(returned) == 4)
            time.sleep(0.3)  # time for a put past the pipe's capacity to return, were it not held
            held = list(returned)
            release.touch()
            filler.join(30)
        assert not filler.is_alive() and threading.enumerate() == threads
        # The writer read nothing until released, so the fifth put waited.
        assert held == list(range(4))
        assert returned == list(range(5))
        assert writers[0].returncode == 0
        assert sorted(files_of(tmp_path / "run" / "traces")) == [f"d{i}.jsonl" for i in range(5)]

    def test_interrupted_block_reaps_the_writer_and_removes_its_directory(self, tmp_path, writers):
        threads = threading.enumerate()
        with no_deadlock(), pytest.raises(KeyboardInterrupt):
            with cli._swap_in_traces(tmp_path) as put:
                for i in range(12):
                    put(f"d{i}.jsonl", b"{}\n")
                raise KeyboardInterrupt
        assert threading.enumerate() == threads
        assert list(tmp_path.iterdir()) == []
        assert len(writers) == 1 and writers[0].returncode is not None

    def test_writer_ending_without_a_report_is_one_json_line(self, small_config, tmp_path, monkeypatch, capsys, writers):
        monkeypatch.setattr(cli, "_WRITER", "import sys; sys.exit('no interpreter here')")
        capsys.readouterr()
        assert run(["generate", "--config", small_config, "--out", tmp_path / "run"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0]) == {
            "error": "OSError", "message": "the trace writer exited with status 1: no interpreter here"
        }
        assert list((tmp_path / "run").iterdir()) == []
        assert len(writers) == 1 and writers[0].returncode == 1

    @staticmethod
    def start_writer(directory):
        return subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", cli._WRITER],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE, cwd=directory,
        )

    @staticmethod
    def frame(name, data):
        name = name.encode()
        return len(name).to_bytes(8, "little") + len(data).to_bytes(8, "little") + name + data

    @pytest.mark.parametrize("cut", [3, 16 + 2, 16 + 7 + 100], ids=["header", "name", "data"])
    def test_writer_creates_no_file_of_a_truncated_frame(self, tmp_path, cut):
        writer = self.start_writer(tmp_path)
        try:
            writer.stdin.write(self.frame("a.jsonl", b"{}\n"))
            writer.stdin.flush()
            assert until((tmp_path / "a.jsonl").exists)
            writer.send_signal(signal.SIGINT)  # ignored: interruption is the parent's
            _, err = writer.communicate(self.frame("b.jsonl", b"x" * 1000)[:cut], timeout=30)
        finally:
            writer.kill()
            writer.wait()
        assert writer.returncode == 0 and err == b""
        assert files_of(tmp_path) == {"a.jsonl": b"{}\n"}

    def test_writer_never_replaces_a_file_and_stops_at_a_failure(self, tmp_path):
        (tmp_path / "a.jsonl").write_bytes(b"earlier")
        writer = self.start_writer(tmp_path)
        try:
            _, err = writer.communicate(self.frame("a.jsonl", b"{}\n") + self.frame("b.jsonl", b"{}\n"), timeout=30)
        finally:
            writer.kill()
            writer.wait()
        assert writer.returncode == 1
        assert json.loads(err) == [17, "File exists", "a.jsonl"]
        assert files_of(tmp_path) == {"a.jsonl": b"earlier"}

    def test_detect_between_the_two_renames_fails_cleanly(self, small_config, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        assert run(["generate", "--config", small_config, "--out", out]) == 0
        rename, detected = Path.rename, []

        def rename_then_detect(path, target):
            moved = rename(path, target)
            if path.name == "traces":  # the earlier set is out, the new one not yet in
                detected.append(run(["detect", "--data", out, "--config", small_config]))
            return moved

        monkeypatch.setattr(Path, "rename", rename_then_detect)
        capsys.readouterr()
        assert run(["generate", "--config", small_config, "--out", out]) == 0
        assert detected == [1]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["message"].startswith("no trace files under")
        monkeypatch.undo()
        assert run(["detect", "--data", out, "--config", small_config]) == 0

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

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(set_key("noise", "ble_hop_sigma", 0.0), "unknown key noise.ble_hop_sigma ", id="unknown_key"),
            # Every barometer sample then breaks the sample contract.
            pytest.param(
                lambda raw: raw["testbed"]["pressure"].update(base_hpa=2000.0), "instance 0 ", id="sample_contract"
            ),
            *BAD_PERIODS,
            *BAD_NOISE,
            *BAD_VALUES,
        ],
    )
    def test_bad_scenario_is_one_json_line(self, small_config, tmp_path, capsys, edit, named):
        raw = yaml.safe_load(small_config.read_text())
        edit(raw)
        small_config.write_text(yaml.safe_dump(raw, sort_keys=False))
        capsys.readouterr()
        assert run(["generate", "--config", small_config, "--out", tmp_path / "x"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ScenarioError"
        assert named in payload["message"]


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

    @pytest.mark.parametrize(
        "out",
        ["instances.jsonl", "truth.jsonl", "meta.json", "trace_columns.npy", "assessments.json",
         "../outside.jsonl", "traces/decisions.jsonl", "ABSOLUTE", "", ".", ".."],
    )
    def test_detect_out_is_a_plain_name_of_no_run_file(self, generated, small_config, capsys, out):
        # --out instances.jsonl once replaced the instance list with decision
        # lines, and --out ../outside.jsonl wrote outside the run; both
        # exited 0.
        out = str(generated.parent / "absolute.jsonl") if out == "ABSOLUTE" else out
        before = {p.name: p.read_bytes() for p in generated.iterdir() if p.is_file()}
        capsys.readouterr()
        assert run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL", "--out", out]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "SenseTraceError" and "--out must be a file name" in payload["message"]
        assert {p.name: p.read_bytes() for p in generated.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in generated.parent.iterdir()) == ["run", "scenario.yaml"]

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

    def test_report_without_estimates_writes_a_header_only_cdf(self, generated, small_config):
        run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"])
        assert run(["report", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 0
        assert len((generated / "cdf.csv").read_text().splitlines()) > 3
        path = generated / "decisions_full.jsonl"
        for lineno in range(1, len(path.read_text().splitlines()) + 1):
            _rewrite_line(path, lineno, _with(mean_distance_m=None))
        assert run(["report", "--data", generated, "--decisions", path.name]) == 0
        lines = (generated / "cdf.csv").read_text().splitlines()
        assert lines[0] == "# seed=11"
        assert lines[1].startswith("# config_sha256=")
        assert lines[2:] == ["abs_error_m,cumulative_fraction"]

    def test_report_rejects_an_instance_beyond_every_band(self, tmp_path, capsys):
        # At seed 42 the sixth of these instances is 30.45 m apart, beyond
        # the last report band: report writes no CSV and fails.
        raw = standard_raw()
        raw["instances"]["buckets"] = [{"range_m": [3.0, 50.0], "indoor": 0, "outdoor": 6}]
        config = tmp_path / "far.yaml"
        config.write_text(yaml.safe_dump(raw, sort_keys=False))
        data = tmp_path / "run"
        assert run(["generate", "--config", config, "--out", data]) == 0
        assert run(["detect", "--data", data, "--config", config]) == 0
        capsys.readouterr()
        assert run(["report", "--data", data, "--decisions", "decisions_full.jsonl"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert error["error"] == "EvaluationError"
        assert "true distance 30.5 m" in error["message"] and "[3.0, 30.0] m" in error["message"]
        assert not (data / "cdf.csv").exists() and not (data / "magnetic_buckets.csv").exists()

    def test_computed_counts_win_over_meta(self, generated, small_config):
        run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"])
        assert run(["evaluate", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 0
        written = (generated / "confusion.json").read_text()
        meta = json.loads((generated / "meta.json").read_text())
        computed = {k: v for k, v in json.loads(written).items() if k not in meta}
        assert list(computed) == ["tp", "fp", "tn", "fn", "accuracy"]
        assert written == json.dumps({**computed, **meta}, indent=2) + "\n"

        (generated / "meta.json").write_text(json.dumps({**meta, "tp": 999, "accuracy": 1.0}))
        assert run(["evaluate", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 0
        assert (generated / "confusion.json").read_text() == written
        metrics = dict(line.split(",") for line in (generated / "metrics.csv").read_text().splitlines()[3:])
        assert metrics["tp"] == str(computed["tp"])
        assert metrics["accuracy"] == f"{computed['accuracy']:.6f}"

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param('{"seed": 11,\n "config_sha256": }', ":2: JSONDecodeError: ", id="not_json"),
            pytest.param("[11]", ":1: expected a JSON object", id="list"),
        ],
    )
    def test_bad_meta_is_one_json_line(self, generated, small_config, capsys, text, message):
        run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"])
        (generated / "meta.json").write_text(text)
        capsys.readouterr()
        assert run(["evaluate", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "SenseTraceError"
        assert payload["message"].startswith(f"{generated / 'meta.json'}{message}")

    def test_evaluate_without_meta_writes_unknown_seed(self, generated, small_config):
        run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"])
        (generated / "meta.json").unlink()
        assert run(["evaluate", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 0
        lines = (generated / "metrics.csv").read_text().splitlines()
        assert lines[:2] == ["# seed=unknown", "# config_sha256=unknown"]
        confusion = json.loads((generated / "confusion.json").read_text())
        assert list(confusion) == ["tp", "fp", "tn", "fn", "accuracy"]

    def test_trace_digests_hash_every_trace_file_in_order(self, generated):
        traces = generated / "traces"
        (traces / "notes.txt").write_text("not a trace file")
        digests = cli._trace_digests(generated)
        want = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in traces.glob("*.jsonl")}
        assert digests == want and list(digests) == sorted(want)

    @pytest.mark.parametrize("damage", ["missing", "empty", "directory_named_jsonl"])
    def test_unreadable_traces_are_one_json_line(self, generated, small_config, capsys, damage):
        assert run(["detect", "--data", generated, "--config", small_config]) == 0
        traces = generated / "traces"
        shutil.rmtree(traces)
        if damage != "missing":
            traces.mkdir()
        if damage == "directory_named_jsonl":
            (traces / "x.jsonl").mkdir()
        fds = len(os.listdir("/proc/self/fd"))
        for argv in (
            ["detect", "--data", generated, "--config", small_config],
            ["report", "--data", generated, "--decisions", "decisions_full.jsonl"],
        ):
            capsys.readouterr()
            status = run(argv)
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            if damage == "directory_named_jsonl":
                assert status == 2 and json.loads(err[0]) == {
                    "error": "OSError", "message": f"[Errno 21] Is a directory: '{traces / 'x.jsonl'}'"
                }
            else:
                assert status == 1 and json.loads(err[0]) == {
                    "error": "SenseTraceError", "message": f"no trace files under {traces}"
                }
        assert len(os.listdir("/proc/self/fd")) == fds  # the directory and file were closed

    def test_unknown_tier_rejected_by_parser(self, generated, small_config):
        with pytest.raises(SystemExit):
            run(["detect", "--data", generated, "--config", small_config, "--tier", "BOGUS"])


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["detect", "--data", "run", "--config", "c.yaml", "--tier", "BOGUS"], "BOGUS"),
            (["generate", "--config", "c.yaml", "--out", "run", "--seed", "abc"], "abc"),
            ([], "command"),
        ],
        ids=["unknown_tier", "non_integer_seed", "no_subcommand"],
    )
    def test_one_json_line_and_status_2(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        payload = json.loads(err)
        assert payload["error"] == "ArgumentError"
        assert named in payload["message"]

    def test_help_is_usage_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["detect", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: sensetrace detect") and err == ""


class TestDetectChecksConfig:
    @pytest.fixture()
    def generated(self, small_config, tmp_path):
        out = tmp_path / "run"
        assert run(["generate", "--config", small_config, "--out", out, "--seed", 99]) == 0
        return out

    def other_config(self, small_config, tmp_path, edit):
        raw = yaml.safe_load(small_config.read_text())
        edit(raw)
        path = tmp_path / "other.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        return path

    def test_config_of_the_run_with_its_seed_override(self, generated, small_config):
        assert run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"]) == 0

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda raw: raw["thresholds"].update(pressure_hpa=5.0), id="threshold"),
            pytest.param(lambda raw: raw.update(window={"length_s": 60.0}), id="window_length"),
        ],
    )
    def test_other_config_is_one_json_line(self, generated, small_config, tmp_path, capsys, edit):
        other = self.other_config(small_config, tmp_path, edit)
        capsys.readouterr()
        assert run(["detect", "--data", generated, "--config", other, "--tier", "FULL"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "SenseTraceError"
        meta = json.loads((generated / "meta.json").read_text())
        _, raw = load_scenario(other, seed=99)
        assert meta["config_sha256"] in payload["message"]
        assert config_hash(raw) in payload["message"]
        assert not (generated / "decisions_full.jsonl").exists()

    def test_config_without_seed_key(self, small_config, tmp_path):
        seedless = self.other_config(small_config, tmp_path, lambda raw: raw.pop("seed"))
        out = tmp_path / "seedless"
        assert run(["generate", "--config", seedless, "--out", out]) == 0
        assert run(["detect", "--data", out, "--config", seedless, "--tier", "FULL"]) == 0


def count_sensor_samples(monkeypatch) -> list:
    """The arguments of every ``SensorSample`` built from now on."""
    built = []
    init = SensorSample.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SensorSample, "__init__", counting_init)
    return built


class TestNoSampleObjects:
    def test_generate_builds_no_sensor_sample(self, small_config, tmp_path, monkeypatch):
        built = count_sensor_samples(monkeypatch)
        assert run(["generate", "--config", small_config, "--out", tmp_path / "run"]) == 0
        assert built == []
        # The count sees the samples that iterating a trace builds.
        assert len(list(read_trace(next((tmp_path / "run" / "traces").glob("*.jsonl"))))) == len(built) > 0

    def test_detect_and_report_build_no_sensor_sample(self, small_config, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run(["generate", "--config", small_config, "--out", out]) == 0
        built = count_sensor_samples(monkeypatch)
        for tier in ("APPEARANCE_ONLY", "FULL"):
            assert run(["detect", "--data", out, "--config", small_config, "--tier", tier]) == 0
        assert run(["report", "--data", out, "--decisions", "decisions_full.jsonl"]) == 0
        assert built == []
        # The count sees the samples the line-by-line reader builds.
        assert len(list(read_trace(next((out / "traces").glob("*.jsonl"))))) == len(built) > 0


def cache_spans(path) -> dict[str, tuple[int, int]]:
    """The byte range of every trace record, of the JSON-lines index and of
    the trailer in the column cache at ``path``, and of each column of its
    first record, by name."""
    data = Path(path).read_bytes()
    at = int(np.frombuffer(data[-8:], "<u8")[0])  # the trailer gives the index's offset
    end = data.rindex(b"\x93NUMPY")  # where the trailer starts
    spans = {"records": (0, at), "index": (at, end), "trailer": (end, len(data))}
    _, _, rows, _, _, start = json.loads(data[at:end].split(b"\n")[1])
    for name, width in (("t", 8), ("kind", 1), ("value", 8), ("mag", 24), ("src", 4), ("obs", 4)):
        spans[name] = (start, start + rows * width)
        start += rows * width
    return spans


def count_decodes(monkeypatch) -> list:
    """The path of every trace file the CLI decodes from now on."""
    decoded = []

    def counting_read_trace(path):
        decoded.append(path)
        return read_trace(path)

    monkeypatch.setattr(cli, "read_trace", counting_read_trace)
    return decoded


class TestTraceCache:
    @pytest.fixture()
    def generated(self, small_config, tmp_path):
        out = tmp_path / "run"
        assert run(["generate", "--config", small_config, "--out", out]) == 0
        return out

    def detect(self, data, config, out="decisions_full.jsonl"):
        assert run(["detect", "--data", data, "--config", config, "--tier", "FULL", "--out", out]) == 0
        return (data / out).read_bytes()

    def test_generate_writes_the_cache_beside_the_traces(self, generated):
        assert (generated / TRACE_CACHE).is_file()
        assert all(p.suffix == ".jsonl" for p in (generated / "traces").iterdir())

    def test_fresh_run_decodes_no_trace_file(self, generated, small_config, monkeypatch):
        decoded = count_decodes(monkeypatch)
        for tier in ("APPEARANCE_ONLY", "APPEARANCE_DISTANCE", "FULL"):
            assert run(["detect", "--data", generated, "--config", small_config, "--tier", tier]) == 0
        assert run(["report", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 0
        assert decoded == []
        reports = [(generated / name).read_bytes() for name in ("cdf.csv", "magnetic_buckets.csv")]
        (generated / TRACE_CACHE).unlink()
        assert run(["report", "--data", generated, "--decisions", "decisions_full.jsonl"]) == 0
        assert [(generated / name).read_bytes() for name in ("cdf.csv", "magnetic_buckets.csv")] == reports
        assert len(decoded) == 16

    def test_two_generates_write_identical_caches(self, generated, small_config, tmp_path):
        again = tmp_path / "again"
        assert run(["generate", "--config", small_config, "--out", again]) == 0
        assert (generated / TRACE_CACHE).read_bytes() == (again / TRACE_CACHE).read_bytes()

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda path: path.unlink(), id="deleted"),
            pytest.param(lambda path: path.write_bytes(path.read_bytes()[:-100]), id="truncated"),
            pytest.param(lambda path: path.write_bytes(b"\x93NUMPY garbage" * 100), id="garbage"),
            pytest.param(
                lambda path: path.write_bytes(path.read_bytes().replace(b'"version":3', b'"version":4')),
                id="other_version",
            ),
        ],
    )
    def test_damaged_cache_gives_identical_decisions(self, generated, small_config, monkeypatch, damage):
        want = self.detect(generated, small_config)
        damage(generated / TRACE_CACHE)
        # The column cache is not in the assessments' key: without this,
        # the stored assessments would be used and no trace loaded.
        (generated / ASSESSMENT_CACHE).unlink()
        decoded = count_decodes(monkeypatch)
        assert self.detect(generated, small_config, "again.jsonl") == want
        assert sorted(decoded) == sorted((generated / "traces").glob("*.jsonl"))

    def test_flipped_bits_never_give_a_wrong_decision(self, generated, small_config, capsys):
        """Seeded bit flips in the header and in each column of the cache,
        with no stored assessments: detect decides as pinned, or fails with
        one JSON line on stderr."""
        want = self.detect(generated, small_config)
        cache, again = generated / TRACE_CACHE, generated / "again.jsonl"
        pristine = cache.read_bytes()
        rng = random.Random(6)
        for where, (lo, hi) in cache_spans(cache).items():
            for flips in (1, 4, 20):
                damaged = bytearray(pristine)
                for _ in range(flips):
                    damaged[rng.randrange(lo, hi)] ^= 1 << rng.randrange(8)
                cache.write_bytes(damaged)
                (generated / ASSESSMENT_CACHE).unlink(missing_ok=True)
                again.unlink(missing_ok=True)
                capsys.readouterr()
                status = run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL",
                              "--out", again.name])
                if status == 0:
                    assert again.read_bytes() == want, (where, flips)
                else:
                    err = capsys.readouterr().err.strip().splitlines()
                    assert len(err) == 1 and "error" in json.loads(err[0]), (where, flips, err)

    def test_file_the_cache_does_not_list_is_decoded(self, generated, small_config, monkeypatch):
        want = self.detect(generated, small_config)
        first = _first_trace(generated)
        with write_trace_cache(generated / TRACE_CACHE) as add:  # a cache of every other file
            for path in sorted((generated / "traces").glob("*.jsonl"))[1:]:
                add(path.name, hashlib.sha256(path.read_bytes()).hexdigest(), read_trace(path))
        # A file that no instance names is never loaded at all.
        shutil.copyfile(first, generated / "traces" / "zz-extra.jsonl")
        decoded = count_decodes(monkeypatch)
        assert self.detect(generated, small_config, "again.jsonl") == want
        assert decoded == [first]

    def test_failed_generate_leaves_no_temporary_cache(self, generated, small_config, monkeypatch, tmp_path, writers):
        names = sorted(p.name for p in generated.iterdir())
        cache = (generated / TRACE_CACHE).read_bytes()
        writes_failing_at(monkeypatch, tmp_path, 5)  # after the cache holds four records or more
        assert run(["generate", "--config", small_config, "--out", generated, "--seed", 12]) == 2
        assert sorted(p.name for p in generated.iterdir()) == names
        assert (generated / TRACE_CACHE).read_bytes() == cache
        assert len(writers) == 1 and writers[0].returncode == 1

    def test_edited_trace_fails_as_without_the_cache(self, generated, small_config, capsys):
        self.detect(generated, small_config, "before.jsonl")  # stores the run's assessments
        path = _first_trace(generated)
        _rewrite_line(path, 2, _with(kind="BLE_RSS", value=5.0, obs="zz"))
        errors = []
        for _ in range(2):  # with both caches, then without either
            capsys.readouterr()
            assert run(["detect", "--data", generated, "--config", small_config, "--tier", "FULL"]) == 1
            errors.append(capsys.readouterr().err)
            (generated / TRACE_CACHE).unlink(missing_ok=True)
            (generated / ASSESSMENT_CACHE).unlink(missing_ok=True)
        assert errors[0] == errors[1]
        payload = json.loads(errors[0])
        assert payload["message"].startswith(f"{path}:2: ValueError: RSS must lie in [-120, 0] dBm")
        assert not (generated / "decisions_full.jsonl").exists()

    def assert_foreign_rows_fail(self, data, config, capsys, path):
        for argv in (["detect", "--data", data, "--config", config, "--tier", "FULL", "--out", "bad.jsonl"],
                     ["report", "--data", data, "--decisions", "decisions_full.jsonl"]):
            capsys.readouterr()
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            payload = json.loads(err)
            assert payload["error"] == "SenseTraceError"
            assert payload["message"].startswith(f"{path}:1: ValueError: a row of ")
        assert not (data / "bad.jsonl").exists()

    def test_copied_trace_file_fails(self, generated, small_config, capsys, monkeypatch):
        self.detect(generated, small_config)
        first, second = sorted((generated / "traces").glob("*.jsonl"))[:2]
        shutil.copyfile(second, first)
        decoded = count_decodes(monkeypatch)
        self.assert_foreign_rows_fail(generated, small_config, capsys, first)
        assert first in decoded

    def test_cache_record_under_another_name_fails(self, generated, small_config, capsys, monkeypatch):
        self.detect(generated, small_config)
        (generated / ASSESSMENT_CACHE).unlink()
        paths = sorted((generated / "traces").glob("*.jsonl"))
        with write_trace_cache(generated / TRACE_CACHE) as add:  # the second file's rows under the first's name
            for path, rows in zip(paths, [paths[1], *paths[1:]]):
                add(path.name, hashlib.sha256(path.read_bytes()).hexdigest(), read_trace(rows))
        decoded = count_decodes(monkeypatch)
        self.assert_foreign_rows_fail(generated, small_config, capsys, paths[0])
        assert decoded == []

    def one_error(self, argv, capsys) -> str:
        """The message of the one JSON line ``argv`` prints on stderr, with status 1."""
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "SenseTraceError"
        return payload["message"]

    @pytest.mark.parametrize("command", ["detect", "report"])
    def test_missing_trace_file_fails_before_any_load(self, generated, small_config, capsys, monkeypatch, command):
        self.detect(generated, small_config)  # stores the run's assessments
        path = _first_trace(generated)
        path.unlink()
        loads = count_trace_loads(monkeypatch)
        argv, source = {
            "detect": (["detect", "--data", generated, "--config", small_config, "--tier", "FULL",
                        "--out", "bad.jsonl"], "instances.jsonl"),
            "report": (["report", "--data", generated, "--decisions", "decisions_full.jsonl"], "truth.jsonl"),
        }[command]
        message = self.one_error(argv, capsys)
        assert message.startswith(f"{path}: no such trace file, for {source} instance [")
        assert path.stem in message.split(" instance ", 1)[1]
        assert loads == []
        assert not (generated / "bad.jsonl").exists() and not (generated / "cdf.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "report"])
    def test_repeated_row_fails_naming_its_line(self, generated, small_config, capsys, command):
        self.detect(generated, small_config)
        path = _first_trace(generated)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + lines[1:2] + lines[3:]))  # line 2 again, as line 4
        argv = {
            "detect": ["detect", "--data", generated, "--config", small_config, "--tier", "FULL", "--out", "bad.jsonl"],
            "report": ["report", "--data", generated, "--decisions", "decisions_full.jsonl"],
        }[command]
        assert self.one_error(argv, capsys) == f"{path}:4: ValueError: repeats line 2"
        assert not (generated / "bad.jsonl").exists()

    def test_cached_trace_with_a_repeated_row_is_decoded(self, generated, small_config, monkeypatch):
        want = self.detect(generated, small_config)
        (generated / ASSESSMENT_CACHE).unlink()
        first = _first_trace(generated)
        with write_trace_cache(generated / TRACE_CACHE) as add:  # the first trace's cached rows repeat a row
            for path in sorted((generated / "traces").glob("*.jsonl")):
                trace = read_trace(path)
                if path == first:
                    trace = trace.take(np.r_[np.arange(len(trace)), 0])
                add(path.name, hashlib.sha256(path.read_bytes()).hexdigest(), trace)
        decoded = count_decodes(monkeypatch)
        assert self.detect(generated, small_config, "again.jsonl") == want
        assert decoded == [first]

    def test_shuffled_rows_decide_alike(self, generated, small_config):
        want = self.detect(generated, small_config)
        rng = random.Random(8)
        for path in (generated / "traces").glob("*.jsonl"):
            lines = path.read_text().splitlines(keepends=True)
            rng.shuffle(lines)
            path.write_text("".join(lines))
        (generated / ASSESSMENT_CACHE).unlink()
        assert self.detect(generated, small_config, "again.jsonl") == want


TIERS = ("APPEARANCE_ONLY", "APPEARANCE_DISTANCE", "FULL")


def count_trace_loads(monkeypatch) -> list:
    """One entry for every time ``detect`` or ``report`` loads the run's traces."""
    loads = []
    load = cli._load_traces

    def counting_load(*args):
        loads.append(args[0])
        return load(*args)

    monkeypatch.setattr(cli, "_load_traces", counting_load)
    return loads


def _drop_ble(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in lines if '"BLE_RSS"' not in line))


def _drop_last_instance(data):
    lines = (data / "instances.jsonl").read_text().splitlines()
    (data / "instances.jsonl").write_text("".join(line + "\n" for line in lines[:-1]))


def _edit_cache(edit):
    def damage(data):
        path = data / ASSESSMENT_CACHE
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return damage


# What changes between the run that stored the assessments and the next
# detect: each makes the stored assessments unusable.
MISSES = {
    "edited_trace": lambda data: _drop_ble(_first_trace(data)),
    "edited_instances": _drop_last_instance,
    "deleted_cache": lambda data: (data / ASSESSMENT_CACHE).unlink(),
    "truncated_cache": lambda data: (data / ASSESSMENT_CACHE).write_bytes((data / ASSESSMENT_CACHE).read_bytes()[:-40]),
    "garbage_cache": lambda data: (data / ASSESSMENT_CACHE).write_bytes(b"\x00garbage{[" * 50),
    "other_version_cache": lambda data: (data / ASSESSMENT_CACHE).write_bytes(
        (data / ASSESSMENT_CACHE).read_bytes().replace(b'"version":2', b'"version":3')
    ),
    "record_of_wrong_type": _edit_cache(lambda payload: payload["records"][0].__setitem__(0, "yes")),
    # A changed digit of a stored distance: still a float, so only the
    # records' stored SHA-256 tells.
    "damaged_record": _edit_cache(
        lambda payload: next(r for r in payload["records"] if r[2] is not None).__setitem__(2, 2.125)
    ),
}


class TestAssessmentCache:
    @pytest.fixture()
    def generated(self, small_config, tmp_path):
        out = tmp_path / "run"
        assert run(["generate", "--config", small_config, "--out", out]) == 0
        return out

    def detect(self, data, config, tier="FULL"):
        assert run(["detect", "--data", data, "--config", config, "--tier", tier]) == 0
        return (data / f"decisions_{tier.lower()}.jsonl").read_bytes()

    def uncached(self, data, config, tmp_path, tier="FULL"):
        """The decisions of a copy of ``data`` without stored assessments."""
        copy = tmp_path / "uncached"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(data, copy)
        (copy / ASSESSMENT_CACHE).unlink(missing_ok=True)
        return self.detect(copy, config, tier)

    def test_later_tiers_fuse_without_loading_a_trace(self, generated, small_config, tmp_path, monkeypatch):
        want = {tier: self.uncached(generated, small_config, tmp_path, tier) for tier in TIERS}
        loads = count_trace_loads(monkeypatch)
        decoded = count_decodes(monkeypatch)
        for tier in TIERS:
            assert self.detect(generated, small_config, tier) == want[tier]
        assert loads == [generated] and decoded == []

    @pytest.mark.parametrize("change", sorted(MISSES))
    def test_a_changed_input_or_cache_is_a_miss(self, generated, small_config, tmp_path, monkeypatch, change):
        self.detect(generated, small_config)
        MISSES[change](generated)
        want = self.uncached(generated, small_config, tmp_path)
        loads = count_trace_loads(monkeypatch)
        assert self.detect(generated, small_config) == want
        assert self.detect(generated, small_config) == want  # the miss stored them again
        assert loads == [generated]

    def test_a_version_1_file_is_a_miss(self, generated, small_config, monkeypatch):
        # Version 1 stored nine fields a record: each stage's reason and the
        # environment verdict besides the measurements. Here every verdict
        # says similar, under the current key and with the records' own
        # SHA-256, so only the version and the shape tell.
        want = self.detect(generated, small_config)
        path = generated / ASSESSMENT_CACHE
        stored = json.loads(path.read_text())
        records = [
            [ble, chirps, None, mean, None if mean is not None else "no WiFi distance estimates in window",
             score, None if score is None else sensor, True, None if score is not None else f"missing {sensor} sequence for pair"]
            for ble, chirps, mean, sensor, score in stored["records"]
        ]
        digest = hashlib.sha256(json.dumps(records, separators=(",", ":")).encode("utf-8")).hexdigest()
        payload = {"format": "sensetrace assessments", "version": 1, "key": stored["key"], "records_sha256": digest,
                   "records": records}
        path.write_text(json.dumps(payload, separators=(",", ":")))
        assert read_assessment_cache(path, stored["key"], len(records)) is None
        loads = count_trace_loads(monkeypatch)
        assert self.detect(generated, small_config) == want
        assert loads == [generated]

    def test_deleted_column_cache_is_a_hit(self, generated, small_config, tmp_path, monkeypatch):
        self.detect(generated, small_config)
        (generated / TRACE_CACHE).unlink()
        want = self.uncached(generated, small_config, tmp_path, "APPEARANCE_ONLY")
        loads = count_trace_loads(monkeypatch)
        assert self.detect(generated, small_config, "APPEARANCE_ONLY") == want
        assert loads == []

    def test_another_config_is_a_miss(self, generated, small_config, tmp_path, monkeypatch):
        self.detect(generated, small_config)
        # A run whose meta.json names no config digest takes any config.
        meta = json.loads((generated / "meta.json").read_text())
        del meta["config_sha256"]
        (generated / "meta.json").write_text(json.dumps(meta))
        raw = yaml.safe_load(small_config.read_text())
        raw["fusion"]["contact_radius_m"] = 2.5
        other = tmp_path / "other.yaml"
        other.write_text(yaml.safe_dump(raw, sort_keys=False))
        want = self.uncached(generated, other, tmp_path)
        loads = count_trace_loads(monkeypatch)
        assert self.detect(generated, other) == want
        assert len(loads) == 1

    def test_another_detector_is_a_miss(self, generated, small_config, tmp_path, monkeypatch):
        self.detect(generated, small_config)
        monkeypatch.setattr(cli, "detector_digest", lambda: "0" * 64)
        want = self.uncached(generated, small_config, tmp_path)
        loads = count_trace_loads(monkeypatch)
        assert self.detect(generated, small_config) == want
        assert len(loads) == 1


def count_cache_loads(monkeypatch) -> list:
    """The file name of every trace the CLI loads from the column cache."""
    loaded = []
    load = cli.read_cached_traces

    def counting_load(path, entries):
        loaded.extend(entry.name for entry in entries)
        return load(path, entries)

    monkeypatch.setattr(cli, "read_cached_traces", counting_load)
    return loaded


class TestTracesLiveUntilTheirLastUse:
    """detect and report load each trace when it is first needed and let it
    go after its last use; their outputs equal those made from every trace
    of the run held at once."""

    @pytest.mark.parametrize("permuted", [False, True], ids=["in_order", "permuted"])
    def test_outputs_equal_a_whole_run(self, small_config, tmp_path, monkeypatch, permuted):
        out = tmp_path / "run"
        assert run(["generate", "--config", small_config, "--out", out]) == 0
        whole = {path.stem: read_trace(path) for path in sorted((out / "traces").glob("*.jsonl"))}
        labels = read_jsonl(out / "truth.jsonl", label_from_record)
        first, last = labels[0], labels[-1]
        device = first.pair[0]
        labels += [  # the first window's device again, at another time and last with another device
            GroundTruthLabel(first.pair, first.start, first.end / 2, first.true_distance, first.is_contact),
            GroundTruthLabel(canonical_pair((device, last.pair[1])), 0.0, first.end, 5.0, False),
        ]
        if permuted:
            random.Random(3).shuffle(labels)
        (out / "truth.jsonl").write_text("".join(label_to_json(lb) + "\n" for lb in labels))
        (out / "instances.jsonl").write_text(
            "".join(cli._instance_to_json(lb.pair, (lb.start, lb.end)) + "\n" for lb in labels)
        )
        monkeypatch.setattr(cli, "_LOAD_AHEAD", 3)  # several loads, even for this small run
        loaded, decoded = count_cache_loads(monkeypatch), count_decodes(monkeypatch)
        cfg = load_scenario(small_config)[0].fusion
        for tier in TIERS:
            assert run(["detect", "--data", out, "--config", small_config, "--tier", tier]) == 0
            want = [decision_to_json(r) + "\n" for r in run_tier(whole, labels, TierSpec(tier), cfg)[0]]
            assert (out / f"decisions_{tier.lower()}.jsonl").read_text().splitlines(keepends=True) == want
        # One assessment pass (the later tiers only fuse), and each trace
        # loaded once in it: one asked for again would be decoded.
        assert sorted(loaded) == sorted(f"{d}.jsonl" for d in whole) and decoded == []

        reports = ("cdf.csv", "magnetic_buckets.csv")
        assert run(["report", "--data", out, "--decisions", "decisions_full.jsonl"]) == 0
        got = [(out / name).read_bytes() for name in reports]
        monkeypatch.setattr(cli, "_load_traces", lambda data_dir, digests, devices: whole)
        assert run(["report", "--data", out, "--decisions", "decisions_full.jsonl"]) == 0
        assert got == [(out / name).read_bytes() for name in reports]


def scaled_config(directory, instances: int):
    """``configs/standard.yaml`` with its bucket counts scaled to
    ``instances`` (a multiple of 24, as the buckets are) instances."""
    raw = standard_raw()
    for bucket in raw["instances"]["buckets"]:
        for where in ("indoor", "outdoor"):
            bucket[where] = bucket[where] * instances // 240
    path = directory / f"scenario{instances}.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


def traced_peaks(config, out, commands=("generate", "detect", "report")) -> dict[str, int]:
    """The peak of memory allocated by each of ``commands`` (generate, then
    detect and report) of ``config`` into ``out``, each traced
    (``tracemalloc``) on its own."""
    peaks = {}
    for command, argv in (
        ("generate", ["generate", "--config", config, "--out", out]),
        ("detect", ["detect", "--data", out, "--config", config, "--tier", "FULL"]),
        ("report", ["report", "--data", out, "--decisions", "decisions_full.jsonl"]),
    )[: len(commands)]:
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_memory_stays_bounded_as_the_run_grows(tmp_path, capsys):
    """Each command's allocation peak at a larger run stays under twice its
    peak at 24 instances: it holds a bounded number of traces, not the run.
    Holding every trace gives 2.6x for detect and 2.7x for report at 96
    instances, and 6.8x for generate at 240; bounded, 1.2x to 1.4x."""
    small = scaled_config(tmp_path, 24)
    traced_peaks(small, tmp_path / "warm")  # first-use allocations, such as compiled patterns
    base = traced_peaks(small, tmp_path / "small")
    grown = {
        **traced_peaks(scaled_config(tmp_path, 96), tmp_path / "96"),
        **traced_peaks(scaled_config(tmp_path, 240), tmp_path / "240", ["generate"]),
    }
    ratios = {command: round(grown[command] / base[command], 2) for command in base}
    assert all(ratio < 2.0 for ratio in ratios.values()), ratios


class TestShippedConfig:
    def test_raw_dict_is_the_safe_loaders(self):
        # The config digests hash this dict, whichever YAML loader made it.
        raw = load_scenario(STANDARD)[1]
        assert raw == standard_raw()
        assert config_hash(raw) == config_hash(standard_raw())

    def test_unparseable_file_is_one_json_line(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: 42\ntestbed: [unclosed\n")
        capsys.readouterr()
        assert run(["generate", "--config", path, "--out", tmp_path / "x"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ScenarioError"
        assert payload["message"].startswith(f"unparseable scenario file {path}")


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
    raw = standard_raw()
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

    @pytest.mark.parametrize("end", [10**400, True, float("inf")], ids=["huge_int", "bool", "infinity"])
    def test_window_end_must_be_a_finite_number(self, detected_run, tmp_path, capsys, end):
        config, original = detected_run
        data = tmp_path / "run"
        shutil.copytree(original, data)
        path = data / "instances.jsonl"
        _rewrite_line(path, 1, lambda record: {**record, "window": [record["window"][0], end]})
        capsys.readouterr()

        assert run(["detect", "--data", data, "--config", config, "--tier", "FULL", "--out", "bad.jsonl"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "SenseTraceError"
        assert payload["message"].startswith(f"{path}:1:")
        assert not (data / "bad.jsonl").exists()

    @pytest.mark.parametrize(
        "window, message",
        [
            pytest.param(lambda s, e: [e, s], "window end must exceed start", id="inverted"),
            pytest.param(lambda s, e: [s, math.nan], "window bounds must be finite numbers, got nan", id="nan"),
            pytest.param(lambda s, e: [s, True], "window bounds must be finite numbers, got True", id="true"),
        ],
    )
    @pytest.mark.parametrize("name", ["truth.jsonl", "decisions_full.jsonl"])
    def test_evaluate_checks_window_bounds(self, detected_run, tmp_path, capsys, name, window, message):
        # Truth and decisions read the (pair, window) key as instances do,
        # so a bad window fails even when both files carry the same one.
        _, original = detected_run
        data = tmp_path / "run"
        shutil.copytree(original, data)
        path = data / name
        _rewrite_line(path, 2, lambda record: {**record, "window": window(*record["window"])})
        capsys.readouterr()

        assert run(["evaluate", "--data", data, "--decisions", "decisions_full.jsonl"]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "SenseTraceError"
        assert payload["message"] == f"{path}:2: ValueError: {message}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda record: [1, 2], "TypeError: a decision must be a JSON object", id="not_an_object"),
            pytest.param(_with(contact="false"), "TypeError: contact must be true or false", id="string_contact"),
            pytest.param(_with(contact=1), "TypeError: contact must be true or false", id="int_contact"),
            pytest.param(_with(appearance=None), "TypeError: appearance must be true or false", id="null_appearance"),
            pytest.param(_with(mean_distance_m="0.5"), "ValueError: mean_distance_m must be null or a finite number",
                         id="string_distance"),
            pytest.param(_with(mean_distance_m=True), "ValueError: mean_distance_m must be null or a finite number",
                         id="bool_distance"),
            pytest.param(_with(env_score=math.inf), "ValueError: env_score must be null or a finite number",
                         id="infinite_score"),
            pytest.param(_with(env_sensor=""), "ValueError: '' is not a valid SensorKind", id="empty_sensor"),
            pytest.param(_with(degraded_reason=5), "TypeError: degraded_reason must be null or a string",
                         id="int_reason"),
        ],
    )
    def test_decision_fields_are_type_checked(self, detected_run, tmp_path, capsys, edit, message):
        _, original = detected_run
        data = tmp_path / "run"
        shutil.copytree(original, data)
        path = data / "decisions_full.jsonl"
        _rewrite_line(path, 2, edit)
        for command in ("evaluate", "report"):
            capsys.readouterr()
            assert run([command, "--data", data, "--decisions", path.name]) == 1
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            payload = json.loads(err)
            assert payload["error"] == "SenseTraceError"
            assert payload["message"].startswith(f"{path}:2: {message}")
        assert not (data / "cdf.csv").exists() and not (data / "confusion.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda lines: lines + [lines[0]], "duplicate decision key ", id="repeated_line"),
            pytest.param(
                lambda lines: [json.dumps({**json.loads(lines[0]), "pair": ["x", "y"]})] + lines[1:],
                "decision/truth key mismatch: 1 missing, 1 extra",
                id="foreign_pair",
            ),
        ],
    )
    def test_report_rejects_decisions_as_evaluate_does(self, detected_run, tmp_path, capsys, edit, message):
        _, original = detected_run
        data = tmp_path / "run"
        shutil.copytree(original, data)
        path = data / "decisions_full.jsonl"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        errors = []
        for command in ("evaluate", "report"):
            capsys.readouterr()
            assert run([command, "--data", data, "--decisions", path.name]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert len(errors[1].strip().splitlines()) == 1
        payload = json.loads(errors[1])
        assert payload["error"] == "EvaluationError"
        assert payload["message"].startswith(message)
        assert not (data / "cdf.csv").exists()
