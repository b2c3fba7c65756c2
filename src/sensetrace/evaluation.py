"""Evaluation: detection over a run's instances, confusion tallies, the
accuracy metric, staged-system tiers, distance-error CDFs and the magnetic
separation report.

Detection assesses each instance's window once (``assess_instances``), into
the five stage measurements of a ``fusion.Assessment``, and fuses each
tier's decisions from the assessments (``fuse_instances``), where
``fusion.decide`` turns the measurements into the tier's verdicts;
``write_assessment_cache`` keeps a run's assessments so that
``read_assessment_cache`` can stand in for assessing its windows again.
``assess_instances`` assesses every window of a run as one batch
(``fusion.assess_windows``), a bounded number of rows at a time, equal to
cutting each window with ``make_window`` and assessing it with
``fusion.assess(build_evidence(...))``: the tests' per-window reference.

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
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import core, envmatch, fusion, ranging
from .core import (
    _NO_ROWS,
    KIND_CODES,
    GroundTruthLabel,
    SensorKind,
    Trace,
    atomic_write,
    canonical_pair,
    make_window,  # not called here, but perfbench/pipeline.py wraps evaluation.make_window
)
from .errors import EmptyWindow, EvaluationError
from .fusion import (
    Assessment,
    DecisionRecord,
    FusionConfig,
    StageGates,
    WindowRows,
    assess_windows,
    build_evidence,  # not called here, but perfbench/pipeline.py wraps evaluation.build_evidence
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


Traces = Mapping[str, Trace]


Instance = tuple[tuple[str, str], float, float]


# Rows and BLE slots taken into one batch of windows: enough for each array
# operation to cost little per window, few enough that a batch's arrays
# stay small beside the traces.
_BATCH_ROWS = 1 << 12
_MAG = KIND_CODES[SensorKind.MAGNETOMETER]
# The trace of a device that ``traces`` lacks: no rows.
_NO_TRACE = Trace(*_NO_ROWS, names=())


class _Window(NamedTuple):
    pair: tuple[str, str]  # as given: pair[0]'s rows come first in make_window's pool
    key: tuple[str, str]  # canonical
    start: float
    end: float  # start + (end - start), as make_window computes it
    slots: int  # BLE scans per device, as build_evidence counts them


def assess_instances(traces: Traces, instances: Iterable[Instance], cfg: FusionConfig) -> list[Assessment]:
    """The assessment of each (pair, window start, window end) instance, in
    order, equal field for field to ``assess(build_evidence(make_window(...)))``
    of its window, made for every window at once (``fusion.assess_windows``).
    A device that ``traces`` lacks has no rows. The first window that
    ``make_window`` rejects raises its error, the first empty one
    ``EmptyWindow``."""
    windows, fault = [], None
    for pair, start, end in instances:
        try:  # make_window's checks, raised after the windows before
            key = canonical_pair(pair)
            if end - start <= 0:
                raise ValueError("window length must be positive")
        except ValueError as exc:
            fault = exc
            break
        end = start + (end - start)
        windows.append(_Window(tuple(pair), key, start, end, max(1, int(round((end - start) / cfg.ble_scan_period)))))
    assessments = assess_windows(_window_batches(traces, windows), cfg)
    if fault is not None:
        raise fault
    return assessments


def _window_batches(traces: Traces, windows: list[_Window]) -> Iterator[WindowRows]:
    """The rows of each of ``windows``, as ``make_window`` cuts them from
    the traces of its pair, a batch of about ``_BATCH_ROWS`` rows and BLE
    slots at a time.

    A window's rows in one trace are found with one ``searchsorted`` on the
    trace's times; they are a slice of its columns when the trace is in
    time order. ``_gather`` joins a batch's slices. Each device's trace is
    taken from ``traces`` once, at its first window, and let go after its
    last, so that a lazy ``traces`` need hold none longer."""
    last = {device: number for number, window in enumerate(windows) for device in window.pair}
    ordered: dict[str, tuple[Trace, Optional[np.ndarray], np.ndarray]] = {}
    pieces, batch, size = [], [], 0
    for number, window in enumerate(windows):
        for device in window.pair:
            if device not in ordered:
                trace = traces.get(device, _NO_TRACE)
                t = trace.t
                order = None if not (t[1:] < t[:-1]).any() else np.argsort(t, kind="stable")  # as Trace.between
                ordered[device] = (trace, order, t if order is None else t[order])
            trace, order, times = ordered[device]
            first, stop = times.searchsorted((window.start, window.end)).tolist()
            rows = slice(first, stop) if order is None else order[first:stop]
            pieces.append((trace, rows, stop - first, trace.code(window.key[0]), trace.code(window.key[1])))
            size += stop - first
            if last[device] == number:
                del ordered[device]
        batch.append(window)
        size += 2 * window.slots
        if size >= _BATCH_ROWS or number == len(windows) - 1:
            yield _gather(batch, pieces)
            pieces, batch, size = [], [], 0


def _gather(windows: list[_Window], pieces: list) -> WindowRows:
    """The ``WindowRows`` of ``windows`` from their pieces, two per window
    (pair[0]'s first): a trace, the window's rows in it in time order and
    their count, and the codes of the canonical pair in the trace's names.

    The rows are kept when they belong to the pair and put in
    ``make_window``'s order, (time, kind, src, obs) with ties in input
    order, by one ``lexsort``."""
    t, kind, value, mag, src, obs = (
        np.concatenate([getattr(piece[0], c)[piece[1]] for piece in pieces])
        for c in ("t", "kind", "value", "mag", "src", "obs")
    )
    counts = [piece[2] for piece in pieces]
    a, b = (np.repeat([piece[i] for piece in pieces], counts) for i in (3, 4))
    src_b, obs_b, no_obs = src == b, obs == b, obs == -1
    keep = np.flatnonzero((src_b | (src == a)) & (obs_b | (obs == a) | no_obs))
    # int16 suits lexsort's radix sort; a batch holds at most _BATCH_ROWS / 2
    # windows, since each adds two BLE slots or more.
    window = np.repeat(np.arange(len(windows), dtype=np.int16), np.add.reduceat(counts, range(0, len(counts), 2)))
    window = window[keep]
    empty = np.flatnonzero(np.bincount(window, minlength=len(windows)) == 0)
    if empty.size:
        first = windows[empty[0]]
        raise EmptyWindow(f"no samples for pair {first.key} in [{first.start}, {first.end})")
    t, kind = t[keep], kind[keep]
    src, obs = src_b[keep].astype(np.int8), obs_b[keep].astype(np.int8) - no_obs[keep]
    by = np.lexsort((kind * 6 + src * 3 + obs + 1, t, window))  # (kind, src, obs) as one small key
    rows, kind = keep[by], kind[by]
    value = value[rows]
    is_mag = np.flatnonzero(kind == _MAG)
    x, y, z = mag[rows[is_mag]].T
    value[is_mag] = np.sqrt(x * x + y * y + z * z)
    return WindowRows(
        window[by], t[by], kind, value, src[by], obs[by],
        np.array([w.start for w in windows], dtype=float), np.array([w.slots for w in windows], dtype=np.int64),
    )


def fuse_instances(
    instances: Iterable[Instance],
    assessments: Iterable[Assessment],
    cfg: FusionConfig,
    gates: StageGates = StageGates(),
) -> list[DecisionRecord]:
    """Each instance's decision under ``gates``, fused from its assessment.

    ``assessments`` holds one assessment per instance, in order; a count
    that differs raises ValueError.
    """
    return [
        DecisionRecord(pair=canonical_pair(pair), start=start, end=end, decision=decide(assessment, cfg, gates))
        for (pair, start, end), assessment in zip(instances, assessments, strict=True)
    ]


# --- assessment cache ----------------------------------------------------------

# The file, beside a run's ``traces/``, that holds the assessment of each of
# its instances.
ASSESSMENT_CACHE = "assessments.json"
ASSESSMENT_CACHE_FORMAT = {"format": "sensetrace assessments", "version": 2}
_OPTIONAL_BOOL, _OPTIONAL_FLOAT = (bool, type(None)), (float, type(None))
# The type of each field of a stored record, in ``Assessment`` field order;
# ``env_sensor`` is stored as its ``SensorKind`` value.
_RECORD_TYPES = (_OPTIONAL_BOOL, _OPTIONAL_BOOL, _OPTIONAL_FLOAT, (str, type(None)), _OPTIONAL_FLOAT)


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


def _records_sha256(records: list) -> str:
    """The SHA-256 of ``records`` as compact JSON: the same for records
    that read back equal, whatever spacing their file has."""
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode("utf-8")).hexdigest()


def write_assessment_cache(path: Union[str, Path], key: dict, assessments: Sequence[Assessment]) -> None:
    """Write ``assessments``, one per instance in order, under ``key`` (a
    JSON object naming everything they were made from) as one JSON object,
    with the ``_records_sha256`` of the records. Floats are written as
    ``float.__repr__`` gives them, so they read back bit-exactly, and
    nothing in the file varies between equal runs."""
    records = [_record(a) for a in assessments]
    payload = {**ASSESSMENT_CACHE_FORMAT, "key": key, "records_sha256": _records_sha256(records), "records": records}
    atomic_write(path, json.dumps(payload, separators=(",", ":")))


def read_assessment_cache(path: Union[str, Path], key: dict, count: int) -> Optional[list[Assessment]]:
    """The ``count`` assessments stored at ``path`` under exactly ``key``.

    An absent, unreadable, truncated or garbage file, another format
    version, another key, records that do not match their stored SHA-256,
    or records of another count, shape or type give None: the caller
    assesses the windows again.
    """
    try:
        payload = json.loads(Path(path).read_bytes())
        if not (
            isinstance(payload, dict)
            and all(payload.get(k) == v for k, v in ASSESSMENT_CACHE_FORMAT.items())
            and payload.get("key") == key
            and type(payload.get("records")) is list
            and len(payload["records"]) == count
            and payload.get("records_sha256") == _records_sha256(payload["records"])
        ):
            return None
        return [_assessment(record) for record in payload["records"]]
    except (OSError, ValueError, RecursionError):
        return None


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
    trace = traces.get(device, _NO_TRACE)
    rows = trace.rows(SensorKind.MAGNETOMETER)
    return trace.magnitudes(rows[np.argsort(trace.t[rows], kind="stable")])
