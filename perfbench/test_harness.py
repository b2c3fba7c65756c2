"""Self-tests of the benchmark harness on tiny inputs.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
import protocol_bench  # noqa: E402
import run as bench  # noqa: E402
from hostspeed import SpeedClock, hash_probe, json_probe  # noqa: E402
from tracing import CHILD, END, PARENT, START  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.05  # 12 instances instead of 240
TINY_PROTOCOL = {"devices": 20, "epochs": 2 * protocol_bench.EPOCHS_PER_DAY}


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    return {
        trace: pipeline.run("standard", ROOT, 7, 0, trace, out, factor=TINY)
        for trace in (False, True)
    }


@pytest.fixture(scope="module")
def tiny_protocol():
    return {trace: protocol_bench.run(7, 0, trace, **TINY_PROTOCOL) for trace in (False, True)}


def _named(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", ["pipeline", "protocol"])
def test_every_named_metric_is_emitted_with_its_unit(workload, tiny_pipeline, tiny_protocol):
    runs, idle = (
        (tiny_pipeline, protocol_bench.LAYERS) if workload == "pipeline" else (tiny_protocol, pipeline.LAYERS)
    )
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        values, attempted, failed, details, problems = runs[trace]
        assert problems == []
        assert attempted >= 1 and failed == 0
        values = dict(values, peak_rss_mb=1.0) if section == "end_to_end" else values
        assert set(values) <= set(_named(section)), "every measured value needs a name in BENCHMARK.json"
        metrics = bench.emit(SPEC, section, values, idle)
        assert {n: m["unit"] for n, m in metrics.items()} == _named(section)
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_spans_nest_and_no_self_time_is_negative(tiny_pipeline, tiny_protocol):
    for runs in (tiny_pipeline, tiny_protocol):
        tracer = runs[True][3]["tracer"]
        assert tracer.spans
        for rec in tracer.spans:
            assert rec[END] is not None
            if rec[PARENT] >= 0:
                parent = tracer.spans[rec[PARENT]]
                assert parent[START] <= rec[START] and rec[END] <= parent[END]
            # Children are measured inside the parent's interval; allow only
            # floating-point rounding.
            assert (rec[END] - rec[START]) - rec[CHILD] >= -1e-9
        assert min(tracer.self_times().values()) >= -1e-9


def test_contact_beyond_epoch_256_is_exactly_one_failure():
    world = protocol_bench.build_world(3, 300, {10: [(0, 1)], 280: [(0, 2)]})
    tally = protocol_bench.Tally()
    protocol_bench.report_positive(world, world.devices[0], tally, SpeedClock(hash_probe))
    assert tally.problems == []
    assert tally.expected == {"centralized": 2, "decentralized": 2}
    assert sum(tally.missed.values()) == 1
    assert tally.missed["centralized"] == 1
    assert tally.unresolved == 1
    assert protocol_bench.privacy_problems(world, {world.devices[0].permanent_id}) == []


def _tiny_pass(tmp_path):
    config, planned = pipeline.setup(ROOT, TINY, tmp_path / "work")
    data = tmp_path / "work" / "data"
    out = pipeline.run_pass(config, data, 7, SpeedClock(json_probe))
    assert pipeline.check_outputs(data, out, planned, 7, "standard") == []
    assert pipeline.spot_check(config, data, 7, k=planned) == []
    return config, data, out, planned


def _rewrite_first_decision(path: Path, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    change(record)
    lines[0] = json.dumps(record, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_gate_rejects_a_flipped_decision(tmp_path):
    config, data, out, planned = _tiny_pass(tmp_path)
    _rewrite_first_decision(data / "decisions_full.jsonl", lambda r: r.update(contact=not r["contact"]))
    problems = pipeline.check_outputs(data, out, planned, 7, "standard")
    assert any("FULL" in p for p in problems)


def test_gate_rejects_an_altered_score(tmp_path):
    config, data, out, planned = _tiny_pass(tmp_path)
    _rewrite_first_decision(
        data / "decisions_appearance_distance.jsonl",
        lambda r: r.update(env_score=(r["env_score"] or 0.0) + 1e-6),
    )
    assert pipeline.check_outputs(data, out, planned, 7, "standard") == []
    problems = pipeline.spot_check(config, data, 7, k=planned)
    assert any("APPEARANCE_DISTANCE" in p for p in problems)


def test_gate_rejects_unpinned_outputs_at_the_pinned_seed(tmp_path):
    config, data, out, planned = _tiny_pass(tmp_path)
    problems = pipeline.check_outputs(data, out, planned, pipeline.PINNED_SEED, "standard")
    assert any("pinned" in p for p in problems)
