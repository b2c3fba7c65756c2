"""Evaluation: confusion tallies, the accuracy metric, staged-system tiers,
distance-error CDFs and the magnetic separation report.

A false positive here means the system registered a contact although the
phones were more than 1 metre apart; accuracy is (TP+TN)/(TP+TN+FP+FN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .core import GroundTruthLabel, SensorKind, SensorSample, make_window
from .envmatch import magnitude
from .errors import EvaluationError
from .fusion import (
    DecisionRecord,
    FusionConfig,
    StageGates,
    build_evidence,
    decide,
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def as_dict(self) -> dict[str, int]:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


class TierSpec(Enum):
    """Staged system mechanics, each enabling a superset of the previous
    tier's gates: BLE-only appearance, then distance, then environment."""

    APPEARANCE_ONLY = "APPEARANCE_ONLY"
    APPEARANCE_DISTANCE = "APPEARANCE_DISTANCE"
    FULL = "FULL"


def tier_gates(tier: TierSpec) -> StageGates:
    """Map a tier to pipeline gates. The BLE-only tier drops the microphone
    entirely (chirp votes belong to the sound stage); later gates count as
    passed when disabled."""
    if tier is TierSpec.APPEARANCE_ONLY:
        return StageGates(use_chirp_votes=False, gate_distance=False, gate_environment=False)
    if tier is TierSpec.APPEARANCE_DISTANCE:
        return StageGates(use_chirp_votes=True, gate_distance=True, gate_environment=False)
    return StageGates(use_chirp_votes=True, gate_distance=True, gate_environment=True)


def _unique(what: str, items: Iterable[tuple]) -> dict:
    out = {}
    for key, value in items:
        if key in out:
            raise EvaluationError(f"duplicate {what} key {key}")
        out[key] = value
    return out


def confusion(
    decisions: Iterable[DecisionRecord],
    truth: Iterable[GroundTruthLabel],
) -> ConfusionCounts:
    """Standard 2x2 tally of decision.contact against label.is_contact.

    Both inputs must be keyed by exactly the same (pair, window) set, each
    key once.
    """
    decided = _unique("decision", ((rec.key, rec.decision.contact) for rec in decisions))
    labelled = _unique("truth", (((lb.pair, lb.start, lb.end), lb.is_contact) for lb in truth))
    if set(decided) != set(labelled):
        missing = set(labelled) - set(decided)
        extra = set(decided) - set(labelled)
        raise EvaluationError(
            f"decision/truth key mismatch: {len(missing)} missing, {len(extra)} extra"
        )
    tp = fp = tn = fn = 0
    for key, got in decided.items():
        want = labelled[key]
        if got and want:
            tp += 1
        elif got and not want:
            fp += 1
        elif not got and not want:
            tn += 1
        else:
            fn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def accuracy(c: ConfusionCounts) -> float:
    """(TP + TN) / (TP + TN + FP + FN)."""
    if c.total == 0:
        raise EvaluationError("cannot compute accuracy of zero instances")
    return (c.tp + c.tn) / c.total


def detect_instances(
    traces: Mapping[str, Sequence[SensorSample]],
    instances: Iterable[tuple[tuple[str, str], float, float]],
    cfg: FusionConfig,
    gates: StageGates = StageGates(),
) -> list[DecisionRecord]:
    """Run the pipeline for each (pair, window start, window end) instance."""
    records = []
    for pair, start, end in instances:
        a, b = pair
        pool = list(traces.get(a, ())) + list(traces.get(b, ()))
        window = make_window(pool, pair, start, end - start)
        decision = decide(build_evidence(window, cfg), cfg, gates)
        records.append(DecisionRecord(pair=window.pair, start=start, end=end, decision=decision))
    return records


def run_tier(
    traces: Mapping[str, Sequence[SensorSample]],
    truth: Sequence[GroundTruthLabel],
    tier: TierSpec,
    cfg: FusionConfig,
) -> tuple[list[DecisionRecord], ConfusionCounts]:
    """Evaluate one system tier over every labelled instance."""
    instances = [(label.pair, label.start, label.end) for label in truth]
    records = detect_instances(traces, instances, cfg, tier_gates(tier))
    return records, confusion(records, truth)


def distance_error_cdf(
    estimated: Sequence[float],
    true: Sequence[float],
) -> list[tuple[float, float]]:
    """Empirical CDF of absolute distance errors: (error, P(err <= error))
    points, one per distinct error value, ending at 1.0."""
    if len(estimated) != len(true):
        raise EvaluationError(
            f"estimated and true lists differ in length ({len(estimated)} vs {len(true)})"
        )
    if not estimated:
        raise EvaluationError("cannot build a CDF from zero estimates")
    errors = sorted(abs(e - t) for e, t in zip(estimated, true))
    n = len(errors)
    points = []
    for i, err in enumerate(errors):
        if i + 1 < n and errors[i + 1] == err:
            continue  # keep only the last occurrence of a repeated value
        points.append((err, (i + 1) / n))
    return points


# Distance bands of the sample-distribution table.
DEFAULT_REPORT_BUCKETS = ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 30.0))


@dataclass(frozen=True)
class BucketStat:
    d_lo: float
    d_hi: float
    count: int
    mean: Optional[float]
    std: Optional[float]


def magnetic_separation_report(
    items: Iterable[tuple[float, Sequence[float], Sequence[float]]],
    buckets: Sequence[tuple[float, float]] = DEFAULT_REPORT_BUCKETS,
) -> list[BucketStat]:
    """Per-distance-band statistics of the Euclidean distance between the two
    phones' magnetic magnitude sequences (truncated to the shorter length).

    ``items`` yields (true distance, magnitudes of phone A, magnitudes of B).
    Empty buckets are reported with no statistics rather than failing.
    """
    values: dict[int, list[float]] = {i: [] for i in range(len(buckets))}
    for true_distance, seq_a, seq_b in items:
        n = min(len(seq_a), len(seq_b))
        if n == 0:
            raise EvaluationError("magnetic sequences must be non-empty")
        dist = math.sqrt(sum((seq_a[i] - seq_b[i]) ** 2 for i in range(n)))
        for bi, (lo, hi) in enumerate(buckets):
            if lo <= true_distance < hi or (hi == buckets[-1][1] and true_distance == hi):
                values[bi].append(dist)
                break
    stats = []
    for bi, (lo, hi) in enumerate(buckets):
        vals = values[bi]
        if not vals:
            stats.append(BucketStat(lo, hi, 0, None, None))
            continue
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        stats.append(BucketStat(lo, hi, len(vals), mean, math.sqrt(var)))
    return stats


def magnitude_sequences(
    traces: Mapping[str, Sequence[SensorSample]],
    device: str,
) -> list[float]:
    """Time-ordered magnetic magnitudes recorded by one device."""
    rows = [
        s for s in traces.get(device, ()) if s.kind is SensorKind.MAGNETOMETER
    ]
    rows.sort(key=lambda s: s.timestamp)
    return [magnitude(*s.value) for s in rows]
