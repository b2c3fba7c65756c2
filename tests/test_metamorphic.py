"""Metamorphic properties of detection on the standard scenario, on the
batch path ``detect`` runs: ``assess_instances``, then ``fuse_instances``
for each tier.

A decision depends on which rows a window holds, not on the order of the
pair, the order of the rows in a trace, where the windows sit on the clock
or the order of the instances. Each property transforms the seed-42 run,
assesses all 240 instances and the middle half of each one's window (so
that a window cuts its traces), and expects each one's assessment, field
for field and bit for bit, and its decision for all three tiers,
unchanged.
(The per-window reference path is held equal to the batch by
``tests/test_batch.py``.)

The whole-run properties drive ``cli.main`` over a generated 12-instance
run: permuting ``instances.jsonl`` permutes the decision lines, a trace file
that no instance names changes nothing, and renaming the devices (file
names, ``src``/``obs``, instances and truth) in a way that keeps each pair's
name order renames the decisions and changes nothing else.
"""

import io
import json
import shutil
import string
import tempfile
from contextlib import redirect_stdout
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensetrace.cli import main
from sensetrace.core import Trace
from sensetrace.evaluation import TierSpec, assess_instances, fuse_instances, tier_gates

SHIFT_S = 900.0


def identity(instances):
    return list(range(len(instances)))


def swap_pair(traces, instances, rng):
    return traces, [(pair[::-1], start, end) for pair, start, end in instances], identity(instances)


def shuffle_samples(traces, instances, rng):
    shuffled = {device: trace.take(rng.permutation(len(trace))) for device, trace in traces.items()}
    return shuffled, instances, identity(instances)


def shift_clock(traces, instances, rng):
    shifted = {
        device: Trace(t.t + SHIFT_S, t.kind, t.value, t.mag, t.src, t.obs, t.names) for device, t in traces.items()
    }
    return shifted, [(pair, start + SHIFT_S, end + SHIFT_S) for pair, start, end in instances], identity(instances)


def permute_instances(traces, instances, rng):
    order = rng.permutation(len(instances)).tolist()
    return traces, [instances[i] for i in order], order


def detected(traces, instances, cfg):
    """Each instance's assessment, as the ``repr`` of its fields, and its
    decision for every tier."""
    assessments = assess_instances(traces, instances, cfg)
    decisions = {
        tier: [r.decision for r in fuse_instances(instances, assessments, cfg, tier_gates(tier))] for tier in TierSpec
    }
    return [
        (tuple(map(repr, astuple(a))), {tier: decisions[tier][i] for tier in TierSpec})
        for i, a in enumerate(assessments)
    ]


@pytest.mark.parametrize("transform", [swap_pair, shuffle_samples, shift_clock, permute_instances])
def test_decision_unchanged(standard_data, standard_scenario_obj, transform):
    cfg = standard_scenario_obj.fusion
    instances = [(label.pair, label.start, label.end) for label in standard_data.labels]
    # and the middle half of each window, which cuts each device's trace
    instances += [(pair, start + (end - start) / 4, end - (end - start) / 4) for pair, start, end in instances]
    want = detected(standard_data.traces, instances, cfg)
    traces, changed, order = transform(standard_data.traces, instances, np.random.default_rng(17))
    got = detected(traces, changed, cfg)
    assert got == [want[i] for i in order]


TIERS = [tier.value for tier in TierSpec]
REPORTS = ("cdf.csv", "magnetic_buckets.csv")


def run_outputs(run, config):
    """The decision lines of every tier and the report files of ``run``."""
    lines = {}
    with redirect_stdout(io.StringIO()):
        for tier in TIERS:
            assert main(["detect", "--data", str(run), "--config", str(config), "--tier", tier]) == 0
            lines[tier] = (run / f"decisions_{tier.lower()}.jsonl").read_text().splitlines()
        assert main(["report", "--data", str(run), "--decisions", "decisions_full.jsonl"]) == 0
    return lines, [(run / name).read_bytes() for name in REPORTS]


def copy_inputs(run, to):
    """The generated files of ``run`` (no decision, cache or report) in ``to``."""
    to.mkdir()
    shutil.copytree(run / "traces", to / "traces")
    for name in ("instances.jsonl", "truth.jsonl", "meta.json"):
        shutil.copy(run / name, to / name)
    return to


def renamed_run(run, to, rename):
    """``run``'s inputs with every device renamed by ``rename``: the trace
    file names, their ``src`` and ``obs``, and the instance and truth pairs."""
    copy_inputs(run, to)
    for name in ("instances.jsonl", "truth.jsonl"):
        records = [json.loads(line) for line in (to / name).read_text().splitlines()]
        for record in records:
            record["pair"] = sorted(map(rename, record["pair"]))
        (to / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    for path in sorted((to / "traces").glob("*.jsonl")):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            row["src"] = rename(row["src"])
            row["obs"] = row["obs"] and rename(row["obs"])
        path.unlink()
        (to / "traces" / f"{rename(path.stem)}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    return to


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.permutations(range(12)))
def test_permuted_instances_permute_the_decisions(small_run, order):
    config, run = small_run
    with tempfile.TemporaryDirectory() as tmp:
        want, _ = run_outputs(copy_inputs(run, Path(tmp) / "want"), config)
        got_run = copy_inputs(run, Path(tmp) / "got")
        lines = (got_run / "instances.jsonl").read_text().splitlines(keepends=True)
        assert len(lines) == len(order)
        (got_run / "instances.jsonl").write_text("".join(lines[i] for i in order))
        got, _ = run_outputs(got_run, config)
    assert got == {tier: [want[tier][i] for i in order] for tier in TIERS}


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.text(string.ascii_lowercase + string.digits, min_size=1, max_size=8), st.integers(0, 23))
def test_an_unnamed_trace_file_changes_nothing(small_run, name, source):
    config, run = small_run
    traces = sorted((run / "traces").glob("*.jsonl"))
    with tempfile.TemporaryDirectory() as tmp:
        want = run_outputs(copy_inputs(run, Path(tmp) / "want"), config)
        got_run = copy_inputs(run, Path(tmp) / "got")
        # No device of the run has a name that starts with x.
        (got_run / "traces" / f"x{name}.jsonl").write_bytes(traces[source].read_bytes())
        assert run_outputs(got_run, config) == want


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.lists(st.text(string.ascii_lowercase + string.digits, min_size=1, max_size=6), min_size=24, max_size=24, unique=True))
def test_an_order_keeping_rename_renames_the_decisions(small_run, names):
    # The i-th device in sorted order takes the i-th new name in sorted
    # order, so each pair keeps its name order.
    config, run = small_run
    devices = sorted(path.stem for path in (run / "traces").glob("*.jsonl"))
    rename = dict(zip(devices, sorted(names))).__getitem__
    with tempfile.TemporaryDirectory() as tmp:
        want, want_reports = run_outputs(copy_inputs(run, Path(tmp) / "want"), config)
        got, got_reports = run_outputs(renamed_run(run, Path(tmp) / "got", rename), config)
    assert got_reports == want_reports
    for tier in TIERS:
        renamed = [json.loads(line) for line in want[tier]]
        for record in renamed:
            record["pair"] = [rename(device) for device in record["pair"]]
        assert [json.loads(line) for line in got[tier]] == renamed


@pytest.mark.xfail(
    strict=True,
    reason="a rename that reverses each pair's name order changes decisions: ties are likely broken by pair "
    "position (in _gather's sort and _mean_distances' first-at-equal-gap rule)",
)
def test_an_order_reversing_rename_renames_the_decisions(small_run):
    config, run = small_run

    def rename(device):  # i000a -> z000, i000b -> c000
        return ("z" if device.endswith("a") else "c") + device[1:-1]

    with tempfile.TemporaryDirectory() as tmp:
        want, _ = run_outputs(copy_inputs(run, Path(tmp) / "want"), config)
        got, _ = run_outputs(renamed_run(run, Path(tmp) / "got", rename), config)
    for tier in TIERS:
        renamed = [json.loads(line) for line in want[tier]]
        for record in renamed:
            record["pair"] = sorted(rename(device) for device in record["pair"])
        assert [json.loads(line) for line in got[tier]] == renamed
