"""Metamorphic properties of the detector on the standard scenario.

A decision depends on which samples a window holds, not on the order of the
pair, the order the samples arrive in, or where the window sits on the clock.
Each property re-decides a seeded subset of the 240 instances for all three
tiers and expects the same ``ContactDecision``.
"""

import dataclasses
import random

import pytest

from sensetrace.core import make_window
from sensetrace.evaluation import TierSpec, tier_gates
from sensetrace.fusion import build_evidence, decide

SUBSET = 40
SHIFT_S = 900.0


def pooled(traces, pair):
    a, b = pair
    return list(traces[a]) + list(traces[b])


def swap_pair(traces, pair, start, rng):
    swapped = pair[::-1]
    return pooled(traces, swapped), swapped, start


def shuffle_samples(traces, pair, start, rng):
    samples = pooled(traces, pair)
    rng.shuffle(samples)
    return samples, pair, start


def shift_clock(traces, pair, start, rng):
    samples = [dataclasses.replace(s, timestamp=s.timestamp + SHIFT_S) for s in pooled(traces, pair)]
    return samples, pair, start + SHIFT_S


def decisions(samples, pair, start, length, cfg):
    evidence = build_evidence(make_window(samples, pair, start, length), cfg)
    return {tier: decide(evidence, cfg, tier_gates(tier)) for tier in TierSpec}


@pytest.mark.parametrize("transform", [swap_pair, shuffle_samples, shift_clock])
def test_decision_unchanged(standard_data, standard_scenario_obj, transform):
    cfg = standard_scenario_obj.fusion
    rng = random.Random(17)
    for label in rng.sample(standard_data.labels, SUBSET):
        length = label.end - label.start
        want = decisions(pooled(standard_data.traces, label.pair), label.pair, label.start, length, cfg)
        samples, pair, start = transform(standard_data.traces, label.pair, label.start, rng)
        assert decisions(samples, pair, start, length, cfg) == want, label
