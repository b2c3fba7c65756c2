"""Shared domain vocabulary: samples, traces, device identity, windows, decisions.

All types are immutable value records and safe to share between workers.
Trace files are JSON-lines, one sample per line, with fields
``t``, ``kind``, ``value``, ``src``, ``obs`` (nullable); floats round-trip
bit-exactly through the default JSON float formatting. Every file the
package writes goes through ``atomic_write`` and every JSON-lines file it
reads through ``read_jsonl``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar, Union

from .errors import EmptyWindow, SenseTraceError

T = TypeVar("T")

# WHO guidance: a contact is two people within 1 metre for the window duration.
CONTACT_DISTANCE_M = 1.0


class SensorKind(Enum):
    BLE_RSS = "BLE_RSS"
    WIFI_RSS = "WIFI_RSS"
    SOUND_AMPLITUDE = "SOUND_AMPLITUDE"
    AMBIENT_NOISE = "AMBIENT_NOISE"
    BAROMETER = "BAROMETER"
    MAGNETOMETER = "MAGNETOMETER"
    PROXIMITY = "PROXIMITY"


class ProximityState(Enum):
    NEAR = "NEAR"
    FAR = "FAR"

    @classmethod
    def from_value(cls, value: float) -> "ProximityState":
        """Binary near/far from the stored proximity sample (1.0 = near)."""
        return cls.NEAR if value >= 0.5 else cls.FAR


Vector3 = tuple[float, float, float]
SampleValue = Union[float, Vector3]


@dataclass(frozen=True)
class SensorSample:
    """One timestamped reading from one sensor kind on one device.

    ``src`` is the recording device; ``obs`` is set only for peer-directed
    readings (BLE/WiFi RSS, heard chirps) and names the observed device.
    """

    timestamp: float
    kind: SensorKind
    value: SampleValue
    src: str
    obs: Optional[str] = None

    def __post_init__(self) -> None:
        if not (self.timestamp >= 0.0 and math.isfinite(self.timestamp)):
            raise ValueError(f"timestamp must be finite and >= 0, got {self.timestamp}")
        if self.kind is SensorKind.MAGNETOMETER:
            if not (isinstance(self.value, tuple) and len(self.value) == 3):
                raise ValueError("magnetometer samples carry exactly 3 components")
            if not all(math.isfinite(c) for c in self.value):
                raise ValueError("magnetometer components must be finite")
        else:
            if not isinstance(self.value, (int, float)) or not math.isfinite(self.value):
                raise ValueError(f"{self.kind.name} value must be a finite scalar")
            if self.kind in (SensorKind.BLE_RSS, SensorKind.WIFI_RSS) and not -120.0 <= self.value <= 0.0:
                raise ValueError(f"RSS must lie in [-120, 0] dBm, got {self.value}")
            if self.kind is SensorKind.BAROMETER and not 300.0 <= self.value <= 1100.0:
                raise ValueError(f"barometer must lie in [300, 1100] hPa, got {self.value}")
        if self.obs is not None and self.obs == self.src:
            raise ValueError("a device cannot observe itself")


@dataclass(frozen=True)
class DeviceId:
    """Device identity: a permanent id (simulator-internal) plus the current
    rotating temporary id and its epoch counter."""

    permanent_id: str
    temp_id: str
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.temp_id == self.permanent_id:
            raise ValueError("temp_id must never equal permanent_id")
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")


@dataclass(frozen=True)
class ContactWindow:
    """Pair-relevant samples for one device pair over [start, end)."""

    pair: tuple[str, str]
    start: float
    end: float
    samples: tuple[SensorSample, ...]

    def __post_init__(self) -> None:
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError("pair must name two distinct devices")
        if not self.end > self.start:
            raise ValueError("window end must exceed start")
        for s in self.samples:
            if not self.start <= s.timestamp < self.end:
                raise ValueError(f"sample at t={s.timestamp} outside [{self.start}, {self.end})")

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ContactDecision:
    """The three fusion outputs plus the final verdict for a pair over a window.

    A stage without evidence leaves its metric as None; that always forces
    ``contact=False`` and records why in ``degraded_reason``.
    """

    appearance: bool
    mean_distance: Optional[float]
    env_score: Optional[float]
    env_sensor_used: Optional[SensorKind]
    contact: bool
    degraded_reason: Optional[str] = None


@dataclass(frozen=True)
class GroundTruthLabel:
    """True geometry for a (pair, window): straight-line distance discounting
    obstacles, and whether that sustains a contact (<= 1 m)."""

    pair: tuple[str, str]
    start: float
    end: float
    true_distance: float
    is_contact: bool

    def __post_init__(self) -> None:
        if self.is_contact != (self.true_distance <= CONTACT_DISTANCE_M):
            raise ValueError("is_contact must equal (true_distance <= 1 m)")


def canonical_pair(pair: Sequence[str]) -> tuple[str, str]:
    a, b = pair
    if a == b:
        raise ValueError("pair must name two distinct devices")
    return (a, b) if a < b else (b, a)


def _relevant_to_pair(sample: SensorSample, pair: tuple[str, str]) -> bool:
    if sample.obs is None:
        return sample.src in pair
    return {sample.src, sample.obs} == set(pair)


def make_window(
    samples: Iterable[SensorSample],
    pair: Sequence[str],
    start: float,
    length: float,
) -> ContactWindow:
    """Extract the pair-relevant samples in [start, start + length).

    Peer-directed samples must have both endpoints in the pair; ambient
    samples must originate from one of the pair's devices. Raises
    EmptyWindow when nothing relevant falls inside the interval.
    """
    if length <= 0:
        raise ValueError("window length must be positive")
    key = canonical_pair(pair)
    end = start + length
    picked = [
        s
        for s in samples
        if start <= s.timestamp < end and _relevant_to_pair(s, key)
    ]
    if not picked:
        raise EmptyWindow(f"no samples for pair {key} in [{start}, {end})")
    picked.sort(key=lambda s: (s.timestamp, s.kind.value, s.src, s.obs or ""))
    return ContactWindow(pair=key, start=start, end=end, samples=tuple(picked))


# --- record files ------------------------------------------------------------


def atomic_write(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, so readers see either the old file or the whole new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_jsonl(path: Union[str, Path], parse: Callable[[Any], T]) -> list[T]:
    """``parse`` applied to every non-blank line's JSON value, in file order.

    A line that is not UTF-8 JSON, or that ``parse`` rejects with a
    ValueError, KeyError, TypeError or IndexError, raises SenseTraceError
    whose message starts with ``path:line``.
    """
    out = []
    with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 names its line
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line.decode("utf-8"))))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                raise SenseTraceError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
    return out


def sample_to_json(sample: SensorSample) -> str:
    value = list(sample.value) if isinstance(sample.value, tuple) else sample.value
    record = {
        "t": sample.timestamp,
        "kind": sample.kind.value,
        "value": value,
        "src": sample.src,
        "obs": sample.obs,
    }
    return json.dumps(record, separators=(",", ":"))


def sample_from_record(record: dict) -> SensorSample:
    value = record["value"]
    if isinstance(value, list):
        value = tuple(float(c) for c in value)
    return SensorSample(
        timestamp=record["t"],
        kind=SensorKind(record["kind"]),
        value=value,
        src=record["src"],
        obs=record.get("obs"),
    )


def label_to_json(label: GroundTruthLabel) -> str:
    record = {
        "pair": list(label.pair),
        "window": [label.start, label.end],
        "true_distance_m": label.true_distance,
        "is_contact": label.is_contact,
    }
    return json.dumps(record, separators=(",", ":"))


def label_from_record(record: dict) -> GroundTruthLabel:
    start, end = record["window"]
    return GroundTruthLabel(
        pair=canonical_pair(record["pair"]),
        start=start,
        end=end,
        true_distance=record["true_distance_m"],
        is_contact=record["is_contact"],
    )


def write_trace(path: Union[str, Path], samples: Iterable[SensorSample]) -> None:
    atomic_write(path, "".join(sample_to_json(s) + "\n" for s in samples))


def read_trace(path: Union[str, Path]) -> list[SensorSample]:
    return read_jsonl(path, sample_from_record)
