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
"""

from dataclasses import astuple

import numpy as np
import pytest

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
