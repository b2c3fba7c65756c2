"""Shared domain vocabulary: samples, traces, device identity, windows, decisions.

Trace files are JSON-lines, one sample per line, with fields
``t``, ``kind``, ``value``, ``src``, ``obs`` (nullable); floats round-trip
bit-exactly through the default JSON float formatting. A columnar
``Trace`` carries the samples from the simulator to the file
(``write_trace``) and from the file to the window (``read_trace``);
``Trace.check`` applies the sample contract to its columns, and
``SensorSample`` is its row type. ``write_trace_cache`` keeps a run's
decoded columns, keyed by each trace file's SHA-256, so that
``read_trace_cache`` can stand in for decoding an unchanged file. Every
file the package writes goes through ``atomic_write`` and every other
JSON-lines file it reads through ``read_jsonl``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import tempfile
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

import numpy as np

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
            if isinstance(self.value, bool) or not isinstance(self.value, (int, float)) or not math.isfinite(self.value):
                raise ValueError(f"{self.kind.name} value must be a finite number, got {self.value!r}")
            if self.kind in (SensorKind.BLE_RSS, SensorKind.WIFI_RSS) and not -120.0 <= self.value <= 0.0:
                raise ValueError(f"RSS must lie in [-120, 0] dBm, got {self.value}")
            if self.kind is SensorKind.BAROMETER and not 300.0 <= self.value <= 1100.0:
                raise ValueError(f"barometer must lie in [300, 1100] hPa, got {self.value}")
        if not (isinstance(self.src, str) and self.src):
            raise ValueError(f"src must name a device, got {self.src!r}")
        if self.obs is not None:
            if not (isinstance(self.obs, str) and self.obs):
                raise ValueError(f"obs must name a device or be null, got {self.obs!r}")
            if self.obs == self.src:
                raise ValueError("a device cannot observe itself")


# Kinds in order of their names: a kind code sorts as ``kind.value`` does.
KINDS = tuple(sorted(SensorKind, key=lambda k: k.value))
KIND_CODES = {k: i for i, k in enumerate(KINDS)}
_CODE_OF_NAME = {k.value: i for i, k in enumerate(KINDS)}
_MAG = KIND_CODES[SensorKind.MAGNETOMETER]
_NUMBERS = {int, float}


class Trace:
    """Samples as columns, one row per sample, in input order.

    ``t``, ``value`` (NaN on magnetometer rows) and ``mag`` (n x 3, NaN on
    the other rows) are float64; ``kind`` is an index into ``KINDS``;
    ``src`` and ``obs`` index the sorted ``names`` (``obs`` -1 for none), so
    every code sorts as the string it stands for. Rows hold only what
    ``SensorSample`` accepts; iterating yields them as ``SensorSample``.
    """

    __slots__ = ("t", "kind", "value", "mag", "src", "obs", "names", "_by_time")

    def __init__(self, t, kind, value, mag, src, obs, names: tuple[str, ...]) -> None:
        self.t, self.kind, self.value, self.mag = t, kind, value, mag
        self.src, self.obs, self.names = src, obs, names
        self._by_time: Optional[tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def _build(cls, t, kinds, scalars, vectors, src, obs) -> "Trace":
        """Columns from per-row lists, except that ``vectors`` holds the
        values of the magnetometer rows and ``scalars`` those of the others."""
        n = len(kinds)
        kind = np.array(kinds, dtype=np.int8)
        is_mag = kind == _MAG
        value = np.full(n, math.nan)
        value[~is_mag] = scalars
        mag = np.full((n, 3), math.nan)
        mag[is_mag] = np.array(vectors, dtype=float).reshape(-1, 3)
        names = sorted(set(src).union(obs).difference([None]))
        index = {None: -1, **{name: i for i, name in enumerate(names)}}
        return cls(
            np.array(t, dtype=float),
            kind,
            value,
            mag,
            np.fromiter(map(index.__getitem__, src), dtype=np.int32, count=n),
            np.fromiter(map(index.__getitem__, obs), dtype=np.int32, count=n),
            tuple(names),
        )

    @classmethod
    def from_samples(cls, samples: Iterable[SensorSample]) -> "Trace":
        samples = list(samples)
        return cls._build(
            [s.timestamp for s in samples],
            [KIND_CODES[s.kind] for s in samples],
            [s.value for s in samples if s.kind is not SensorKind.MAGNETOMETER],
            [s.value for s in samples if s.kind is SensorKind.MAGNETOMETER],
            [s.src for s in samples],
            [s.obs for s in samples],
        )

    def __len__(self) -> int:
        return len(self.t)

    def _row(self, t, kind, value, mag, src, obs) -> SensorSample:
        kind = KINDS[kind]
        return SensorSample(
            t,
            kind,
            tuple(mag) if kind is SensorKind.MAGNETOMETER else value,
            self.names[src],
            self.names[obs] if obs >= 0 else None,
        )

    def __iter__(self) -> Iterator[SensorSample]:
        columns = (self.t, self.kind, self.value, self.mag, self.src, self.obs)
        for row in zip(*(c.tolist() for c in columns)):
            yield self._row(*row)

    def __getitem__(self, i: int) -> SensorSample:
        return self._row(*(c[i].tolist() for c in (self.t, self.kind, self.value, self.mag, self.src, self.obs)))

    def _labels(self, codes: np.ndarray) -> np.ndarray:
        return np.array([*self.names, None], dtype=object)[codes]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self.t, other.t)
            and np.array_equal(self.kind, other.kind)
            and np.array_equal(self.value, other.value, equal_nan=True)
            and np.array_equal(self.mag, other.mag, equal_nan=True)
            and np.array_equal(self._labels(self.src), other._labels(other.src))
            and np.array_equal(self._labels(self.obs), other._labels(other.obs))
        )

    __hash__ = None  # type: ignore[assignment]

    def _recode(self, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """``src`` and ``obs`` as indices into ``names``, a superset of ours."""
        if names == self.names:
            return self.src, self.obs
        lut = np.array([bisect_left(names, n) for n in self.names] + [-1], dtype=np.int32)
        return lut[self.src], lut[self.obs]

    def __add__(self, other: "Trace") -> "Trace":
        """The rows of ``self`` followed by those of ``other``."""
        if not isinstance(other, Trace):
            return NotImplemented
        names = tuple(sorted({*self.names, *other.names}))
        (src_a, obs_a), (src_b, obs_b) = self._recode(names), other._recode(names)
        return Trace(
            np.concatenate([self.t, other.t]),
            np.concatenate([self.kind, other.kind]),
            np.concatenate([self.value, other.value]),
            np.concatenate([self.mag, other.mag]),
            np.concatenate([src_a, src_b]),
            np.concatenate([obs_a, obs_b]),
            names,
        )

    def take(self, rows: np.ndarray) -> "Trace":
        return Trace(
            self.t[rows], self.kind[rows], self.value[rows], self.mag[rows],
            self.src[rows], self.obs[rows], self.names,
        )

    def code(self, name: str) -> int:
        """The index of device ``name`` in ``names``; -2 (matching no row) if absent."""
        i = bisect_left(self.names, name)
        return i if i < len(self.names) and self.names[i] == name else -2

    def rows(self, kind: SensorKind, src: Optional[str] = None, obs: Optional[str] = None) -> np.ndarray:
        """Indices, in row order, of the ``kind`` rows recorded by ``src``
        and observing ``obs`` (None: any device)."""
        mask = self.kind == KIND_CODES[kind]
        if src is not None:
            mask &= self.src == self.code(src)
        if obs is not None:
            mask &= self.obs == self.code(obs)
        return np.flatnonzero(mask)

    def between(self, start: float, end: float) -> np.ndarray:
        """Indices, in row order, of the rows with ``start <= t < end``."""
        if self._by_time is None:
            order = np.argsort(self.t, kind="stable")
            self._by_time = order, self.t[order]
        order, times = self._by_time
        lo, hi = np.searchsorted(times, (start, end))
        return np.sort(order[lo:hi])

    def check(self) -> Optional[tuple[int, str]]:
        """The first row that breaks the sample contract and why, or None.

        The rules and their messages are those of ``SensorSample``, taken in
        its order, so a row reports the rule ``SensorSample`` would raise.
        """
        t, kind, value = self.t, self.kind, self.value
        is_mag = kind == _MAG
        rss = (kind == KIND_CODES[SensorKind.BLE_RSS]) | (kind == KIND_CODES[SensorKind.WIFI_RSS])
        baro = kind == KIND_CODES[SensorKind.BAROMETER]
        rules = [  # NaN fails every comparison, so only the finiteness rules see it
            (~((t >= 0.0) & (t < math.inf)), lambda i: f"timestamp must be finite and >= 0, got {t[i]}"),
            (is_mag & ~np.isfinite(self.mag).all(axis=1), lambda i: "magnetometer components must be finite"),
            (~(is_mag | np.isfinite(value)),
             lambda i: f"{KINDS[kind[i]].name} value must be a finite number, got {value[i]!r}"),
            (rss & ((value < -120.0) | (value > 0.0)), lambda i: f"RSS must lie in [-120, 0] dBm, got {value[i]}"),
            (baro & ((value < 300.0) | (value > 1100.0)),
             lambda i: f"barometer must lie in [300, 1100] hPa, got {value[i]}"),
        ]
        if not all(isinstance(n, str) and n for n in self.names):  # else no row breaks a name rule
            unnamed = np.array([not (isinstance(n, str) and n) for n in self.names] + [False])
            rules += [
                (unnamed[self.src], lambda i: f"src must name a device, got {self.names[self.src[i]]!r}"),
                (unnamed[self.obs], lambda i: f"obs must name a device or be null, got {self.names[self.obs[i]]!r}"),
            ]
        rules.append((self.obs == self.src, lambda i: "a device cannot observe itself"))
        firsts = [int(np.argmax(bad)) if bad.any() else len(self) for bad, _ in rules]
        row = min(firsts)
        if row == len(self):
            return None
        t, value = t.tolist(), value.tolist()  # messages print Python floats
        return row, rules[firsts.index(row)][1](row)

    def magnitudes(self, rows: np.ndarray) -> list[float]:
        """Magnetic magnitude of each of ``rows``, computed as
        ``envmatch.magnitude`` does."""
        x, y, z = self.mag[rows].T
        return np.sqrt(x * x + y * y + z * z).tolist()


def as_trace(samples: Union[Trace, Iterable[SensorSample]]) -> Trace:
    return samples if isinstance(samples, Trace) else Trace.from_samples(samples)


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
    """Pair-relevant samples for one device pair over [start, end).

    ``samples`` is a ``Trace``; any other iterable of samples is converted.
    """

    pair: tuple[str, str]
    start: float
    end: float
    samples: Trace

    def __post_init__(self) -> None:
        if len(self.pair) != 2 or self.pair[0] == self.pair[1]:
            raise ValueError("pair must name two distinct devices")
        if not self.end > self.start:
            raise ValueError("window end must exceed start")
        object.__setattr__(self, "samples", as_trace(self.samples))
        t = self.samples.t
        outside = np.flatnonzero((t < self.start) | (t >= self.end))
        if outside.size:
            raise ValueError(f"sample at t={float(t[outside[0]])} outside [{self.start}, {self.end})")

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


def make_window(
    samples: Union[Trace, Iterable[SensorSample]],
    pair: Sequence[str],
    start: float,
    length: float,
) -> ContactWindow:
    """Extract the pair-relevant samples in [start, start + length), ordered
    by (time, kind, src, obs), ties in input order.

    Peer-directed samples must have both endpoints in the pair; ambient
    samples must originate from one of the pair's devices. Raises
    EmptyWindow when nothing relevant falls inside the interval.
    """
    if length <= 0:
        raise ValueError("window length must be positive")
    key = canonical_pair(pair)
    end = start + length
    trace = as_trace(samples)
    rows = trace.between(start, end)
    a, b = trace.code(key[0]), trace.code(key[1])
    src, obs = trace.src[rows], trace.obs[rows]
    rows = rows[((src == a) | (src == b)) & ((obs == -1) | (obs == a) | (obs == b))]
    if not rows.size:
        raise EmptyWindow(f"no samples for pair {key} in [{start}, {end})")
    rows = rows[np.lexsort((trace.obs[rows], trace.src[rows], trace.kind[rows], trace.t[rows]))]
    return ContactWindow(pair=key, start=start, end=end, samples=trace.take(rows))


# --- record files ------------------------------------------------------------


def atomic_write(path: Union[str, Path], data: Union[str, bytes, Iterable[bytes]]) -> None:
    """Write ``data`` (text as UTF-8, bytes, or chunks of bytes written as
    they come) to ``path`` through a temporary file in the same directory,
    so readers see either the old file or the whole new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = [data] if isinstance(data, bytes) else data
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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


_KIND_JSON = tuple(json.dumps(k.value) for k in KINDS)


def write_trace(path: Union[str, Path], samples: Union[Trace, Iterable[SensorSample]]) -> str:
    """One JSON line per row, encoded from the columns: floats as
    ``float.__repr__`` writes them (so an integral value reads ``5.0``) and
    names as ``json.dumps`` does, the bytes ``json.dumps`` gives for the
    record with ``separators=(",", ":")``. Returns the SHA-256 of the file."""
    trace = as_trace(samples)
    names = [json.dumps(n) for n in trace.names] + ["null"]  # obs -1 is null
    values = list(map(repr, trace.value.tolist()))
    mag_rows = np.flatnonzero(trace.kind == _MAG)
    for i, (x, y, z) in zip(mag_rows.tolist(), trace.mag[mag_rows].tolist()):
        values[i] = f"[{x!r},{y!r},{z!r}]"
    columns = (trace.t.tolist(), trace.kind.tolist(), values, trace.src.tolist(), trace.obs.tolist())
    data = "".join(
        f'{{"t":{t!r},"kind":{_KIND_JSON[k]},"value":{v},"src":{names[s]},"obs":{names[o]}}}\n'
        for t, k, v, s, o in zip(*columns)
    ).encode("utf-8")
    atomic_write(path, data)
    return hashlib.sha256(data).hexdigest()


# Two records on one line of a trace file.
_MERGED_RECORDS = re.compile(rb"\}\s*,\s*\{")
_FIELDS = itemgetter("t", "kind", "value", "src")


def _decode_trace(data: bytes) -> Optional[Trace]:
    """The trace in ``data``, decoded with one ``json.loads`` over all its
    lines joined into one array, or None if any line is not exactly one
    record whose fields have the types ``SensorSample`` takes as they stand.
    The values are left to ``Trace.check``.

    Joining can only hide a bad line by moving a record boundary: a record
    split over two lines then decodes as one, so the count falls short
    unless another line holds two records, which ``_MERGED_RECORDS`` finds.
    Blank lines and values needing a cast are left to the per-line reader.
    """
    body = data[:-1] if data.endswith(b"\n") else data
    if _MERGED_RECORDS.search(body):
        return None
    try:
        records = json.loads("[" + body.replace(b"\n", b",").decode("utf-8") + "]")
        if len(records) != body.count(b"\n") + 1:
            return None
        t, kinds, values, src = zip(*map(_FIELDS, records))
        obs = [r.get("obs") for r in records]
        kinds = list(map(_CODE_OF_NAME.__getitem__, kinds))
    except (ValueError, KeyError, TypeError):
        return None
    vectors = list(compress(values, map(_MAG.__eq__, kinds)))
    scalars = list(compress(values, map(_MAG.__ne__, kinds)))
    if not (
        set(map(type, t)) <= _NUMBERS
        and set(map(type, scalars)) <= _NUMBERS
        and set(map(type, vectors)) <= {list}
        and set(map(len, vectors)) <= {3}
        and set(map(type, chain.from_iterable(vectors))) <= _NUMBERS
        and set(map(type, src)) == {str}
        and set(map(type, obs)) <= {str, type(None)}
    ):
        return None
    try:
        return Trace._build(t, kinds, scalars, vectors, src, obs)
    except OverflowError:
        return None


def read_trace(path: Union[str, Path]) -> Trace:
    """The samples of one trace file as a ``Trace``.

    A file that the one-pass decoder does not take as it stands is read
    line by line instead; either way a bad line fails with ``path:line``.
    """
    trace = _decode_trace(Path(path).read_bytes())
    if trace is None:
        return Trace.from_samples(read_jsonl(path, sample_from_record))
    bad = trace.check()
    if bad is not None:  # one record per line, so row i is line i + 1
        row, reason = bad
        raise SenseTraceError(f"{path}:{row + 1}: ValueError: {reason}")
    return trace


# --- column cache --------------------------------------------------------------

# The file, beside a run's ``traces/``, that holds the decoded columns of its
# trace files.
TRACE_CACHE = "trace_columns.npy"
TRACE_CACHE_FORMAT = {"format": "sensetrace trace columns", "version": 1}
# Each stored column: its ``Trace`` attribute, its dtype and the shape of a row.
_CACHE_COLUMNS = (
    ("t", "<f8", ()), ("kind", "|i1", ()), ("value", "<f8", ()),
    ("mag", "<f8", (3,)), ("src", "<i4", ()), ("obs", "<i4", ()),
)


def _npy_header(dtype: str, shape: tuple[int, ...]) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": dtype, "fortran_order": False, "shape": shape})
    return buf.getvalue()


def write_trace_cache(path: Union[str, Path], files: Sequence[tuple[str, str, Trace]]) -> None:
    """Write the column cache of ``files``, each a trace file's name, the
    SHA-256 of its bytes and its ``Trace``.

    The cache is a run of ``.npy`` arrays: a UTF-8 JSON header as uint8
    (``TRACE_CACHE_FORMAT`` plus ``files``, one ``[name, sha256, rows,
    names]`` per file), then one array per column holding the rows of every
    file in order. Each column is streamed a trace at a time, and no array
    has a timestamp, so equal traces give equal bytes.
    """
    header = json.dumps(
        {**TRACE_CACHE_FORMAT, "files": [(name, digest, len(trace), trace.names) for name, digest, trace in files]},
        separators=(",", ":"),
    ).encode("utf-8")
    rows = sum(len(trace) for _, _, trace in files)

    def chunks() -> Iterator[bytes]:
        yield _npy_header("|u1", (len(header),)) + header
        for column, dtype, shape in _CACHE_COLUMNS:
            yield _npy_header(dtype, (rows, *shape))
            for _, _, trace in files:
                yield getattr(trace, column).astype(dtype, copy=False).tobytes()

    atomic_write(path, chunks())


def _read_rows(fh, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    """The next ``shape`` array of ``dtype`` in ``fh``, as an array that owns
    its data (an array that lent its buffer to ``readinto`` keeps about 60
    bytes more for as long as it lives)."""
    size = dtype.itemsize * math.prod(shape)
    data = fh.read(size)
    if len(data) != size:
        raise EOFError("column cache ends early")
    return np.frombuffer(data, dtype).reshape(shape).copy()


def _intact(traces: Sequence[Trace]) -> bool:
    """Whether each trace's names are sorted device names, each of its codes
    names a kind or one of its devices, and every row keeps the sample
    contract. The rows of all ``traces`` are checked at once."""
    for names in (trace.names for trace in traces):
        if not (all(isinstance(name, str) and name for name in names) and list(names) == sorted(set(names))):
            return False
    rows = Trace(*(np.concatenate([getattr(trace, c) for trace in traces]) for c, _, _ in _CACHE_COLUMNS), names=())
    n = np.repeat([len(trace.names) for trace in traces], [len(trace) for trace in traces])
    return (
        bool(((rows.kind >= 0) & (rows.kind < len(KINDS))).all())
        and bool(((rows.src >= 0) & (rows.src < n) & (rows.obs >= -1) & (rows.obs < n)).all())
        and rows.check() is None  # no name rule applies: ``rows`` has no names
    )


# Traces checked at once when a cache is read: enough rows for a column-wide
# check to cost little per trace, few enough that the joined columns stay
# small beside the traces themselves.
_CHECK_BATCH = 16


def read_trace_cache(path: Union[str, Path]) -> dict[str, tuple[str, Trace]]:
    """The traces in the column cache at ``path``, as file name -> (SHA-256
    of the file they were decoded from, ``Trace``).

    An absent, unreadable or truncated cache, another format version or a
    column of another dtype or length gives ``{}``; a trace that is not
    ``_intact`` is left out. Either way the caller decodes those files.
    Nothing is loaded with pickle. Each trace's columns are read into
    arrays of their own, as decoding allocates them: whole-run columns
    would be fresh allocations on top of the memory the decoder reuses.
    The traces are checked ``_CHECK_BATCH`` at a time, and one at a time
    only in a batch that holds a bad row.
    """
    try:
        with open(path, "rb") as fh:
            header = json.loads(np.lib.format.read_array(fh, allow_pickle=False).tobytes())
            if not (isinstance(header, dict) and all(header.get(k) == v for k, v in TRACE_CACHE_FORMAT.items())):
                return {}
            files = [(name, digest, n, tuple(names)) for name, digest, n, names in header["files"]]
            if not all(isinstance(name, str) and type(n) is int and n >= 0 for name, _, n, _ in files):
                return {}
            rows = sum(n for _, _, n, _ in files)
            columns = []
            for _, descr, shape in _CACHE_COLUMNS:
                dtype = np.dtype(descr)
                np.lib.format.read_magic(fh)
                if np.lib.format.read_array_header_1_0(fh) != ((rows, *shape), False, dtype):
                    return {}
                columns.append([_read_rows(fh, dtype, (n, *shape)) for _, _, n, _ in files])
    except (OSError, EOFError, ValueError, KeyError, TypeError):
        return {}
    entries = [
        (name, (digest, Trace(*trace_columns, names=names)))
        for (name, digest, _, names), *trace_columns in zip(files, *columns)
    ]
    intact = {}
    for i in range(0, len(entries), _CHECK_BATCH):
        batch = entries[i : i + _CHECK_BATCH]
        if not _intact([trace for _, (_, trace) in batch]):
            batch = [(name, entry) for name, entry in batch if _intact([entry[1]])]
        intact.update(batch)
    return intact
