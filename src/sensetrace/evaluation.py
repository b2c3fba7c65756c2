"""Evaluation: detection over a run's instances, confusion tallies, the
accuracy metric, staged-system tiers, distance-error CDFs and the magnetic
separation report.

Detection assesses each instance's window once (``assess_instances``) and
fuses each tier's decisions from the assessments (``fuse_instances``);
``write_assessment_cache`` keeps a run's assessments so that
``read_assessment_cache`` can stand in for assessing its windows again.

A false positive here means the system registered a contact although the
phones were more than 1 metre apart; accuracy is (TP+TN)/(TP+TN+FP+FN).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import core, envmatch, fusion, ranging
from .core import (
    GroundTruthLabel,
    SensorKind,
    SensorSample,
    Trace,
    as_trace,
    atomic_write,
    canonical_pair,
    make_window,
)
from .errors import EvaluationError
from .fusion import (
    Assessment,
    DecisionRecord,
    FusionConfig,
    StageGates,
    assess,
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


def matched(
    decisions: Iterable[DecisionRecord],
    truth: Iterable[GroundTruthLabel],
) -> list[tuple[DecisionRecord, GroundTruthLabel]]:
    """Each decision with the label of its (pair, window), in decision order.

    Both inputs must be keyed by exactly the same (pair, window) set, each
    key once.
    """
    decided = _unique("decision", ((rec.key, rec) for rec in decisions))
    labelled = _unique("truth", (((lb.pair, lb.start, lb.end), lb) for lb in truth))
    if set(decided) != set(labelled):
        missing = set(labelled) - set(decided)
        extra = set(decided) - set(labelled)
        raise EvaluationError(
            f"decision/truth key mismatch: {len(missing)} missing, {len(extra)} extra"
        )
    return [(rec, labelled[key]) for key, rec in decided.items()]


def confusion(
    decisions: Iterable[DecisionRecord],
    truth: Iterable[GroundTruthLabel],
) -> ConfusionCounts:
    """Standard 2x2 tally of decision.contact against label.is_contact, over
    the ``matched`` decisions and labels."""
    tp = fp = tn = fn = 0
    for rec, label in matched(decisions, truth):
        got, want = rec.decision.contact, label.is_contact
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


Traces = Mapping[str, Union[Trace, Sequence[SensorSample]]]


Instance = tuple[tuple[str, str], float, float]


def assess_instances(traces: Traces, instances: Iterable[Instance], cfg: FusionConfig) -> Iterator[Assessment]:
    """The assessment of each (pair, window start, window end) instance, in
    order, each made from its window's evidence when it is asked for."""
    for pair, start, end in instances:
        a, b = pair
        pool = as_trace(traces.get(a, ())) + as_trace(traces.get(b, ()))
        window = make_window(pool, pair, start, end - start)
        yield assess(build_evidence(window, cfg), cfg)


def fuse_instances(
    instances: Iterable[Instance],
    assessments: Iterable[Assessment],
    cfg: FusionConfig,
    gates: StageGates = StageGates(),
) -> list[DecisionRecord]:
    """Each instance's decision under ``gates``, fused from its assessment.

    ``assessments`` holds one assessment per instance, in order, and is read
    in step with ``instances``, so a lazy one assesses each window just
    before its decision.
    """
    return [
        DecisionRecord(pair=canonical_pair(pair), start=start, end=end, decision=decide(assessment, cfg, gates))
        for (pair, start, end), assessment in zip(instances, assessments, strict=True)
    ]


def detect_instances(
    traces: Traces,
    instances: Iterable[Instance],
    cfg: FusionConfig,
    gates: StageGates = StageGates(),
) -> list[DecisionRecord]:
    """Run the pipeline for each (pair, window start, window end) instance."""
    instances = list(instances)
    return fuse_instances(instances, assess_instances(traces, instances, cfg), cfg, gates)


# --- assessment cache ----------------------------------------------------------

# The file, beside a run's ``traces/``, that holds the assessment of each of
# its instances.
ASSESSMENT_CACHE = "assessments.json"
ASSESSMENT_CACHE_FORMAT = {"format": "sensetrace assessments", "version": 1}
_OPTIONAL_STR, _OPTIONAL_FLOAT = (str, type(None)), (float, type(None))
# The type of each field of a stored record, in ``Assessment`` field order;
# ``env_sensor`` is stored as its ``SensorKind`` value.
_RECORD_TYPES = (
    (bool,), (bool,), _OPTIONAL_STR, _OPTIONAL_FLOAT, _OPTIONAL_STR,
    _OPTIONAL_FLOAT, _OPTIONAL_STR, (bool,), _OPTIONAL_STR,
)


def detector_digest() -> str:
    """SHA-256 over the source of every module an assessment depends on, so
    that an edited detector never takes another's stored assessments."""
    h = hashlib.sha256()
    for source in (core.__file__, ranging.__file__, envmatch.__file__, fusion.__file__, __file__):
        h.update(Path(source).read_bytes())
    return h.hexdigest()


def _record(a: Assessment) -> list:
    values = [getattr(a, f.name) for f in fields(Assessment)]
    return [v.value if isinstance(v, SensorKind) else v for v in values]


def _assessment(record: list) -> Assessment:
    if not (type(record) is list and len(record) == len(_RECORD_TYPES)):
        raise ValueError("not an assessment record")
    if not all(type(v) in types for v, types in zip(record, _RECORD_TYPES)):
        raise ValueError("assessment field of the wrong type")
    values = dict(zip((f.name for f in fields(Assessment)), record))
    sensor = values["env_sensor"]
    return Assessment(**{**values, "env_sensor": None if sensor is None else SensorKind(sensor)})


def write_assessment_cache(path: Union[str, Path], key: dict, assessments: Sequence[Assessment]) -> None:
    """Write ``assessments``, one per instance in order, under ``key`` (a
    JSON object naming everything they were made from) as one JSON object.
    Floats are written as ``float.__repr__`` gives them, so they read back
    bit-exactly, and nothing in the file varies between equal runs."""
    payload = {**ASSESSMENT_CACHE_FORMAT, "key": key, "records": [_record(a) for a in assessments]}
    atomic_write(path, json.dumps(payload, separators=(",", ":")))


def read_assessment_cache(path: Union[str, Path], key: dict, count: int) -> Optional[list[Assessment]]:
    """The ``count`` assessments stored at ``path`` under exactly ``key``.

    An absent, unreadable, truncated or garbage file, another format
    version, another key, or records of another count, shape or type give
    None: the caller assesses the windows again.
    """
    try:
        payload = json.loads(Path(path).read_bytes())
        if not (
            isinstance(payload, dict)
            and all(payload.get(k) == v for k, v in ASSESSMENT_CACHE_FORMAT.items())
            and payload.get("key") == key
            and type(payload.get("records")) is list
            and len(payload["records"]) == count
        ):
            return None
        return [_assessment(record) for record in payload["records"]]
    except (OSError, ValueError, RecursionError):
        return None


def run_tier(
    traces: Traces,
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


def magnitude_sequences(traces: Traces, device: str) -> list[float]:
    """Time-ordered magnetic magnitudes recorded by one device."""
    trace = as_trace(traces.get(device, ()))
    rows = trace.rows(SensorKind.MAGNETOMETER)
    return trace.magnitudes(rows[np.argsort(trace.t[rows], kind="stable")])
