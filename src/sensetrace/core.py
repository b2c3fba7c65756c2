"""Shared domain vocabulary: samples, traces, windows, decisions.

Trace files are JSON-lines, one sample per line, with fields
``t``, ``kind``, ``value``, ``src``, ``obs`` (nullable); floats round-trip
bit-exactly through the default JSON float formatting. A columnar
``Trace`` carries the samples from the simulator to the file
(``encode_trace`` gives its bytes, ``write_trace`` writes them) and from
the file to the window (``read_trace``); its column builder holds the
sample contract's type rules and ``Trace.check`` its value rules.
``SensorSample`` is a bare row type. ``write_trace_cache`` keeps a run's
decoded columns, a trace at a time and keyed by each trace file's SHA-256,
so that ``read_cached_traces`` can stand in for decoding an unchanged file,
loading only the traces asked for. Every file the package writes goes
through ``atomic_write`` (or ``_atomic_file``), except the trace files:
``generate`` hands each one's ``encode_trace`` bytes to a writer process
that puts them in a fresh directory, which it swaps in for ``traces/``
whole. Every JSON-lines file other than a trace is read through
``read_jsonl``, and every record of a run file, a trace row too, must have
exactly its type's keys (``exact_fields``).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import tempfile
import zlib
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

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
    """A phone's posture, stored as a proximity sample: 1.0 near (stowed), 0.0 far."""

    NEAR = "NEAR"
    FAR = "FAR"


@dataclass(frozen=True)
class SensorSample:
    """One timestamped reading from one sensor kind on one device, as a
    bare row: ``Trace`` checks rows. ``src`` is the recording device;
    ``obs`` names the observed device on exactly the peer-directed readings
    (BLE/WiFi RSS, heard chirps)."""

    timestamp: float
    kind: SensorKind
    value: Union[float, tuple[float, float, float]]
    src: str
    obs: Optional[str] = None


# Kinds in order of their names: a kind code sorts as ``kind.value`` does.
KINDS = tuple(sorted(SensorKind, key=lambda k: k.value))
KIND_CODES = {k: i for i, k in enumerate(KINDS)}
_CODE_OF_NAME = {k.value: i for i, k in enumerate(KINDS)}
_MAG = KIND_CODES[SensorKind.MAGNETOMETER]
# Whether each kind code is a peer-directed reading, one that names ``obs``.
_PEER = np.array([k in (SensorKind.BLE_RSS, SensorKind.WIFI_RSS, SensorKind.SOUND_AMPLITUDE) for k in KINDS])
_NUMBERS = {int, float}


# The messages of the rules that a type (``_type_fault``) and a value
# (``Trace.check``) can both break.
_TIME_FAULT = "timestamp must be finite and >= 0, got {!r}".format
_VALUE_FAULT = "{} value must be a finite number, got {!r}".format
_MAG_FAULT = "magnetometer components must be finite"


def _number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _type_fault(t: Any, kind: int, value: Any, src: Any, obs: Any) -> Optional[str]:
    """Why one row breaks a type rule of the sample contract, or None."""
    if not _number(t):
        return _TIME_FAULT(t)
    if kind == _MAG:
        if not (isinstance(value, (list, tuple)) and len(value) == 3):
            return "magnetometer samples carry exactly 3 components"
        if not all(map(_number, value)):
            return _MAG_FAULT
    elif not _number(value):
        return _VALUE_FAULT(KINDS[kind].name, value)
    if not (isinstance(src, str) and src):
        return f"src must name a device, got {src!r}"
    if not (obs is None or isinstance(obs, str) and obs):
        return f"obs must name a device or be null, got {obs!r}"
    return None


# The columns (``t``, ``kind``, ``value``, ``mag``, ``src``, ``obs``) of a
# trace with no rows, shared by every such trace; read-only, so that no
# trace can write into another's.
_NO_ROWS = (
    np.empty(0), np.empty(0, np.int8), np.empty(0), np.empty((0, 3)), np.empty(0, np.int32), np.empty(0, np.int32),
)
for _column in _NO_ROWS:
    _column.setflags(write=False)


class Trace:
    """Samples as columns, one row per sample, in input order.

    ``t``, ``value`` (NaN on magnetometer rows) and ``mag`` (n x 3, NaN on
    the other rows) are float64; ``kind`` is an index into ``KINDS``;
    ``src`` and ``obs`` index the sorted ``names`` (``obs`` -1 for none), so
    every code sorts as the string it stands for. Iterating yields the rows
    as ``SensorSample``. Rows come through ``_build``, or from arrays
    (simulator, column cache) that pass ``check``.
    """

    __slots__ = ("t", "kind", "value", "mag", "src", "obs", "names")

    def __init__(self, t, kind, value, mag, src, obs, names: tuple[str, ...]) -> None:
        self.t, self.kind, self.value, self.mag = t, kind, value, mag
        self.src, self.obs, self.names = src, obs, names

    @classmethod
    def _build(cls, t, kinds, values, src, obs) -> Union["Trace", tuple[int, str]]:
        """The one column builder: the rows given field by field (``kinds``
        as codes), or the first row that breaks the sample contract and why:
        a type rule (``_type_fault``), or a value rule (``check``) on a row
        before the first that breaks a type rule. No rows cost a constant:
        the columns are the shared, read-only ``_NO_ROWS``."""
        if not len(kinds):
            return cls(*_NO_ROWS, names=())
        vectors = list(compress(values, map(_MAG.__eq__, kinds)))
        scalars = list(compress(values, map(_MAG.__ne__, kinds)))
        if not (
            set(map(type, vectors)) <= {list, tuple}
            and set(map(len, vectors)) <= {3}
            and set(map(type, chain(t, scalars, chain.from_iterable(vectors)))) <= _NUMBERS
            and set(map(type, src)) <= {str}
            and set(map(type, obs)) <= {str, type(None)}
            and "" not in src
            and "" not in obs
        ):  # row by row, where a subclass such as numpy's float64 passes
            faults = map(_type_fault, t, kinds, values, src, obs)
            fault = next(((row, reason) for row, reason in enumerate(faults) if reason), None)
            if fault is not None:
                row = fault[0]
                before = cls._build(t[:row], kinds[:row], values[:row], src[:row], obs[:row])
                return before if isinstance(before, tuple) else fault
        n = len(kinds)
        kind = np.array(kinds, dtype=np.int8)
        mag = np.full((n, 3), math.nan)
        if vectors:
            is_mag = kind == _MAG
            mag[is_mag] = vectors
            value = np.full(n, math.nan)
            value[~is_mag] = scalars
        else:
            value = np.array(scalars, dtype=float)
        names = sorted(set(src).union(obs).difference([None]))
        index = {None: -1, **{name: i for i, name in enumerate(names)}}
        src, obs = (np.fromiter(map(index.__getitem__, c), dtype=np.int32, count=n) for c in (src, obs))
        trace = cls(np.array(t, dtype=float), kind, value, mag, src, obs, tuple(names))
        bad = trace.check()
        return trace if bad is None else bad

    @classmethod
    def from_samples(cls, samples: Iterable[SensorSample]) -> "Trace":
        """``samples`` as a trace; a row that breaks the sample contract raises ValueError."""
        rows = [(s.timestamp, KIND_CODES[s.kind], s.value, s.src, s.obs) for s in samples]
        trace = cls._build(*(list(zip(*rows)) or [()] * 5))
        if isinstance(trace, tuple):
            raise ValueError(trace[1])
        return trace

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
        order = np.argsort(self.t, kind="stable")
        lo, hi = np.searchsorted(self.t[order], (start, end))
        return np.sort(order[lo:hi])

    def check(self) -> Optional[tuple[int, str]]:
        """The first row that breaks a value rule of the sample contract and
        why, or None; a row that breaks several reports the first listed."""
        if not len(self):
            return None
        t, kind, value = self.t, self.kind, self.value
        is_mag = kind == _MAG
        rss = (kind == KIND_CODES[SensorKind.BLE_RSS]) | (kind == KIND_CODES[SensorKind.WIFI_RSS])
        baro = kind == KIND_CODES[SensorKind.BAROMETER]
        peer = _PEER[kind]
        rules = [  # NaN fails every comparison, so only the finiteness rules see it
            (~((t >= 0.0) & (t < math.inf)), lambda i: _TIME_FAULT(t[i])),
            (is_mag & ~np.isfinite(self.mag).all(axis=1), lambda i: _MAG_FAULT),
            (~(is_mag | np.isfinite(value)), lambda i: _VALUE_FAULT(KINDS[kind[i]].name, value[i])),
            (rss & ((value < -120.0) | (value > 0.0)), lambda i: f"RSS must lie in [-120, 0] dBm, got {value[i]}"),
            (baro & ((value < 300.0) | (value > 1100.0)),
             lambda i: f"barometer must lie in [300, 1100] hPa, got {value[i]}"),
            (self.obs == self.src, lambda i: "a device cannot observe itself"),
            (peer != (self.obs >= 0),
             lambda i: f"{KINDS[kind[i]].name} samples {'must' if peer[i] else 'cannot'} name an observed device"),
        ]
        firsts = [int(np.argmax(bad)) if bad.any() else len(self) for bad, _ in rules]
        row = min(firsts)
        if row == len(self):
            return None
        t, value = t.tolist(), value.tolist()  # messages print Python floats
        return row, rules[firsts.index(row)][1](row)

    def magnitudes(self, rows: np.ndarray) -> list[float]:
        """Magnetic magnitude of each of ``rows``: the square root of the
        sum of the squared components, independent of the phone's orientation."""
        x, y, z = self.mag[rows].T
        return np.sqrt(x * x + y * y + z * z).tolist()


def as_trace(samples: Union[Trace, Iterable[SensorSample]]) -> Trace:
    return samples if isinstance(samples, Trace) else Trace.from_samples(samples)


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
        if not t.size:
            return
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


def window_bounds(window: Sequence[Any]) -> tuple[float, float]:
    """A record's ``window``: two finite numbers, the end after the start."""
    start, end = window
    for bound in (start, end):
        # math.isfinite raises OverflowError on an int beyond any float.
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not math.isfinite(bound):
            raise ValueError(f"window bounds must be finite numbers, got {bound!r}")
    if not end > start:
        raise ValueError("window end must exceed start")
    return start, end


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


@contextmanager
def _atomic_file(path: Union[str, Path]) -> Iterator[BinaryIO]:
    """A binary file open for writing at a temporary path in ``path``'s
    directory, moved to ``path`` when the block ends and removed if it
    raises, so readers see either the old file or the whole new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: Union[str, Path], text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through ``_atomic_file``."""
    with _atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def read_jsonl(path: Union[str, Path], parse: Callable[[Any], T]) -> list[T]:
    """``parse`` applied to every non-blank line's JSON value, in file order.

    A line that is not UTF-8 JSON, or that ``parse`` rejects with a
    ValueError, KeyError, TypeError, IndexError or OverflowError, raises
    SenseTraceError whose message starts with ``path:line``.
    """
    out = []
    with open(path, "rb") as fh:  # decoded per line, so bad UTF-8 names its line
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line.decode("utf-8"))))
            except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
                raise SenseTraceError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
    return out


def exact_fields(record: Any, keys: Sequence[str]) -> tuple:
    """The values of ``keys`` in ``record``, a JSON object with exactly
    those keys; one it lacks raises KeyError and one beyond them ValueError,
    naming the key, and a record that is not an object TypeError."""
    values = tuple(record[key] for key in keys)
    if len(record) != len(keys):
        raise ValueError(f"unknown key {next(key for key in record if key not in keys)!r}")
    return values


# The keys of a truth line, in the order ``label_to_json`` writes them.
_LABEL_KEYS = ("pair", "window", "true_distance_m", "is_contact")


def label_to_json(label: GroundTruthLabel) -> str:
    values = (list(label.pair), [label.start, label.end], label.true_distance, label.is_contact)
    return json.dumps(dict(zip(_LABEL_KEYS, values)), separators=(",", ":"))


def label_from_record(record: dict) -> GroundTruthLabel:
    pair, window, true_distance, is_contact = exact_fields(record, _LABEL_KEYS)
    start, end = window_bounds(window)
    return GroundTruthLabel(canonical_pair(pair), start, end, true_distance, is_contact)


_KIND_JSON = tuple(json.dumps(k.value) for k in KINDS)
# A record's text from the end of its time to the start of its value, by kind code.
_KIND_PIECE = tuple(f',"kind":{kind},"value":' for kind in _KIND_JSON)
_NEXT_RECORD = '{"t":'


def encode_trace(samples: Union[Trace, Iterable[SensorSample]]) -> bytes:
    """The trace file's bytes: one JSON line per row, encoded from the
    columns, floats as ``float.__repr__`` writes them (so an integral value
    reads ``5.0``) and names as ``json.dumps`` does, the bytes ``json.dumps``
    gives for the record with ``separators=(",", ":")``.

    A line is four pieces: the time, the kind's piece (``_KIND_PIECE``),
    the value and the (src, obs) piece that ends the record and opens the
    next. Only the times and values are formatted row by row, and a
    magnetometer row formats its three components and no scalar value.
    """
    trace = as_trace(samples)
    names = [json.dumps(n) for n in trace.names] + ["null"]  # obs -1 is null
    ends = [f',"src":{src},"obs":{obs}}}\n{_NEXT_RECORD}' for src in names for obs in names]
    is_mag = trace.kind == _MAG
    values = np.empty(len(trace), dtype=object)
    values[~is_mag] = np.array(list(map(repr, trace.value[~is_mag].tolist())), dtype=object)
    values[is_mag] = np.array([f"[{x!r},{y!r},{z!r}]" for x, y, z in trace.mag[is_mag].tolist()], dtype=object)
    pieces = [""] * (4 * len(trace))
    pieces[0::4] = map(repr, trace.t.tolist())
    pieces[1::4] = map(_KIND_PIECE.__getitem__, trace.kind.tolist())
    pieces[2::4] = values.tolist()
    pieces[3::4] = map(ends.__getitem__, (trace.src * len(names) + trace.obs % len(names)).tolist())
    return (_NEXT_RECORD + "".join(pieces))[: -len(_NEXT_RECORD)].encode("utf-8")


def write_trace(path: Union[str, Path], samples: Union[Trace, Iterable[SensorSample]]) -> str:
    """Write ``encode_trace(samples)`` to ``path`` and return its SHA-256.
    The file is written in place, not through ``atomic_write``."""
    data = encode_trace(samples)
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


# Two records on one line of a trace file.
_MERGED_RECORDS = re.compile(rb"\}\s*,\s*\{")
# The keys of a trace-file record, in the order a line writes them.
_ROW_KEYS = ("t", "kind", "value", "src", "obs")
_ROW = itemgetter(*_ROW_KEYS)


def _from_records(records: list) -> Union[Trace, tuple[int, str]]:
    """``Trace._build`` of decoded trace-file records; one that is not an
    object with exactly the ``_ROW_KEYS`` (``exact_fields``), ``kind`` a
    ``SensorKind``, raises."""
    t, kinds, values, src, obs = zip(*map(_ROW, records)) if records else ((),) * 5
    if set(map(len, records)) - {len(_ROW_KEYS)}:  # each has every key: one has another key too
        for record in records:
            exact_fields(record, _ROW_KEYS)
    codes = list(map(_CODE_OF_NAME.get, kinds))
    if None in codes:
        SensorKind(kinds[codes.index(None)])  # raises, naming the kind
    return Trace._build(t, codes, values, src, obs)


def _from_lines(path: Union[str, Path], lines: list[bytes]) -> Union[Trace, tuple[int, str]]:
    """``_from_records`` of the non-blank ``lines``, each decoded alone first
    so that the first bad one raises SenseTraceError naming ``path:line``."""
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line.decode("utf-8")))
            bad = _from_records(records[-1:])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise SenseTraceError(f"{path}:{lineno}: {type(exc).__name__}: {exc}") from exc
        if isinstance(bad, tuple):
            raise SenseTraceError(f"{path}:{lineno}: ValueError: {bad[1]}")
    return _from_records(records)


def _first_repeat(keys: Sequence[np.ndarray]) -> Optional[tuple[int, int]]:
    """The first row, in row order, whose ``keys`` (columns, the most
    significant last, as ``np.lexsort`` takes them) equal an earlier row's,
    and that earlier row; or None.

    Rows already in key order, as generated traces are, are compared with
    their neighbours; others are sorted first."""

    def steps(order: Optional[np.ndarray]) -> np.ndarray:
        # Per pair of neighbours: the sign of the most significant key that
        # differs (keys come least significant first; each overrides where it differs).
        sign = np.zeros(max(len(keys[0]) - 1, 0), dtype=np.int8)
        for key in keys:
            key = key if order is None else key[order]
            step = (key[1:] > key[:-1]).view(np.int8) - (key[1:] < key[:-1]).view(np.int8)
            np.copyto(sign, step, where=step != 0)
        return sign

    order, sign = None, steps(None)
    if (sign < 0).any():
        order = np.lexsort(keys)  # stable: equal rows keep their row order
        sign = steps(order)
    same = np.flatnonzero(sign == 0)
    if not same.size:
        return None
    if order is None:
        return int(same[0]) + 1, int(same[0])
    # The first repeat has one earlier equal row: its neighbour in the order.
    first = int(order[same + 1].argmin())
    return int(order[same[first] + 1]), int(order[same[first]])


def read_trace(path: Union[str, Path]) -> Trace:
    """The samples of one trace file, one record per non-blank line, decoded
    with one ``json.loads`` over the lines joined into one array; a bad row
    fails naming ``path:line``, and so does a row that repeats an earlier
    one's time, kind, ``src`` and ``obs``. Joining can only hide a bad line
    by moving a record boundary: a record split over two lines decodes as
    one, so the count falls short unless another line holds two records,
    which ``_MERGED_RECORDS`` finds. Then ``_from_lines`` names the bad
    line."""
    data = Path(path).read_bytes()
    lines = data.split(b"\n")
    body = list(compress(lines, map(bytes.strip, lines)))  # the non-blank lines
    try:
        records = json.loads("[" + b",".join(body).decode("utf-8") + "]")
        if len(records) != len(body) or _MERGED_RECORDS.search(data):
            raise ValueError("not one record per line")
        trace = _from_records(records)
    except (ValueError, KeyError, TypeError, OverflowError):
        trace = _from_lines(path, lines)
    repeat = None if isinstance(trace, tuple) else _first_repeat((trace.obs, trace.src, trace.kind, trace.t))
    if isinstance(trace, tuple) or repeat is not None:
        lineno = [n for n, line in enumerate(lines, 1) if line.strip()]  # row i is the i-th non-blank line
        row, reason = trace if repeat is None else (repeat[0], f"repeats line {lineno[repeat[1]]}")
        raise SenseTraceError(f"{path}:{lineno[row]}: ValueError: {reason}")
    return trace


# --- column cache --------------------------------------------------------------

# The file, beside a run's ``traces/``, that holds the decoded columns of its
# trace files.
TRACE_CACHE = "trace_columns.npy"
TRACE_CACHE_FORMAT = {"format": "sensetrace trace columns", "version": 3}
# Each stored column: its ``Trace`` attribute, its dtype and the shape of a row.
_CACHE_COLUMNS = (
    ("t", "<f8", ()), ("kind", "|i1", ()), ("value", "<f8", ()),
    ("mag", "<f8", (3,)), ("src", "<i4", ()), ("obs", "<i4", ()),
)
_ROW_BYTES = sum(np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in _CACHE_COLUMNS)


def _npy_header(dtype: str, shape: tuple[int, ...]) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": dtype, "fortran_order": False, "shape": shape})
    return buf.getvalue()


# A cache ends with a ``.npy`` array of one little-endian uint64, the offset
# of its index: these bytes, then that number.
_TRAILER = _npy_header("<u8", (1,))


@dataclass(frozen=True, slots=True)
class CachedTrace:
    """One trace file's entry in the column cache: the file's name and the
    SHA-256 of its bytes, the trace's row count, device names and
    ``_checksum``, and the offset of its record in the cache. Its ``len``
    is its row count."""

    name: str
    sha256: str
    rows: int
    names: tuple[str, ...]
    crc32: int
    offset: int

    def __len__(self) -> int:
        return self.rows


def _checksum(trace: Trace) -> int:
    """The CRC-32 of ``trace``'s device names and of its columns' bytes as
    the cache stores them, in ``_CACHE_COLUMNS`` order."""
    crc = zlib.crc32(repr(tuple(trace.names)).encode("utf-8"))
    for column, dtype, _ in _CACHE_COLUMNS:
        crc = zlib.crc32(np.ascontiguousarray(getattr(trace, column), dtype), crc)
    return crc


@contextmanager
def write_trace_cache(path: Union[str, Path]) -> Iterator[Callable[[str, str, Trace], CachedTrace]]:
    """The column cache at ``path``, written through ``_atomic_file`` a trace
    at a time: the block is given a function that takes a trace file's
    name, the SHA-256 of its bytes and its ``Trace``, appends the trace's
    record and returns its ``CachedTrace``.

    A record is the trace's columns, one after another in ``_CACHE_COLUMNS``
    order. After the last record come the index, UTF-8 JSON lines
    (``TRACE_CACHE_FORMAT``, then one ``[name, sha256, rows, names, crc32,
    offset]`` per record, in record order), and the trailer that gives the
    index's offset. Nothing in the file has a timestamp, so equal traces
    added in equal order give equal bytes.
    """
    entries: list[CachedTrace] = []
    with _atomic_file(path) as fh:

        def add(name: str, sha256: str, trace: Trace) -> CachedTrace:
            entries.append(CachedTrace(name, sha256, len(trace), trace.names, _checksum(trace), fh.tell()))
            for column, dtype, _ in _CACHE_COLUMNS:
                fh.write(np.ascontiguousarray(getattr(trace, column), dtype))
            return entries[-1]

        yield add
        at = fh.tell()
        fh.write(json.dumps(TRACE_CACHE_FORMAT, separators=(",", ":")).encode("utf-8") + b"\n")
        for e in entries:  # a line at a time, so that no whole-index text is made
            line = json.dumps([e.name, e.sha256, e.rows, e.names, e.crc32, e.offset], separators=(",", ":"))
            fh.write(line.encode("utf-8") + b"\n")
        fh.write(_TRAILER + at.to_bytes(8, "little"))


def read_trace_cache(path: Union[str, Path]) -> dict[str, CachedTrace]:
    """The index of the column cache at ``path``: each trace file's name ->
    its ``CachedTrace``. ``read_cached_traces`` loads the traces.

    An absent, unreadable, truncated or garbage cache, another format
    version, or an entry whose record does not lie before the index gives
    ``{}``: the caller decodes every file. Only the index is read.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(-len(_TRAILER) - 8, os.SEEK_END)
            end = fh.tell()
            trailer = fh.read()
            at = int.from_bytes(trailer[len(_TRAILER) :], "little")
            if trailer[: len(_TRAILER)] != _TRAILER or at > end:
                return {}
            fh.seek(at)
            lines = fh.read(end - at).split(b"\n")
        if lines.pop() != b"" or json.loads(lines[0]) != TRACE_CACHE_FORMAT:
            return {}
        entries = [CachedTrace(name, digest, n, tuple(names), crc, offset)
                   for name, digest, n, names, crc, offset in map(json.loads, lines[1:])]
    except (OSError, ValueError, TypeError, IndexError, RecursionError):
        return {}
    if not all(
        isinstance(e.name, str) and type(e.rows) is type(e.offset) is int
        and e.rows >= 0 and 0 <= e.offset <= at - e.rows * _ROW_BYTES
        for e in entries
    ):
        return {}
    return {e.name: e for e in entries}


# Rows checked together when a cache is read: enough for a column-wide
# check to cost little per row, few enough that the joined columns and the
# check's masks stay small beside the traces themselves.
_CHECK_ROWS = 1 << 12


def _intact(traces: Sequence[Trace]) -> bool:
    """Whether each trace's names are sorted device names, each of its codes
    names a kind or one of its devices, every row keeps the sample contract
    and none repeats another row of its trace (``read_trace``'s rules). The
    rows are checked in one pass, the columns of up to ``_CHECK_ROWS`` rows
    of consecutive traces at a time."""
    for names in (trace.names for trace in traces):
        if not (all(isinstance(name, str) and name for name in names) and list(names) == sorted(set(names))):
            return False
    ends = np.cumsum([len(trace) for trace in traces]).tolist()
    lo = 0
    while lo < len(traces):
        hi = max(lo + 1, bisect_left(ends, (ends[lo - 1] if lo else 0) + _CHECK_ROWS + 1))
        group = traces[lo:hi]
        rows = Trace(*(np.concatenate([getattr(trace, c) for trace in group]) for c, _, _ in _CACHE_COLUMNS), names=())
        sizes = [len(trace) for trace in group]
        n = np.repeat(np.array([len(trace.names) for trace in group], dtype=np.int32), sizes)
        part = np.repeat(np.arange(len(group), dtype=np.int32), sizes)
        if not (
            bool(((rows.kind >= 0) & (rows.kind < len(KINDS))).all())
            and bool(((rows.src >= 0) & (rows.src < n) & (rows.obs >= -1) & (rows.obs < n)).all())
            and rows.check() is None  # ``rows`` has no names: ``check`` reads only codes
            and _first_repeat((rows.obs, rows.src, rows.kind, rows.t, part)) is None
        ):
            return False
        lo = hi
    return True


def read_cached_traces(path: Union[str, Path], entries: Sequence[CachedTrace]) -> list[Optional[Trace]]:
    """The ``Trace`` of each of ``entries`` (``read_trace_cache``'s index of
    the cache at ``path``), in order; None for one whose record cannot be
    read, does not match its stored checksum or is not ``_intact``: the
    caller decodes that file.

    Each trace's columns are read straight into arrays of its own
    (``readinto``), as decoding allocates them: one buffer for many traces
    would be fresh memory on top of what earlier work freed. The traces are
    checked together, and one at a time only when that fails.
    """
    traces: list[Optional[Trace]] = []
    try:
        with open(path, "rb") as fh:
            for entry in entries:
                fh.seek(entry.offset)
                columns = [np.empty((entry.rows, *shape), dtype) for _, dtype, shape in _CACHE_COLUMNS]
                read = sum(fh.readinto(column.view(np.uint8)) for column in columns)
                trace = Trace(*columns, names=entry.names)
                traces.append(trace if read == entry.rows * _ROW_BYTES and _checksum(trace) == entry.crc32 else None)
    except OSError:
        pass
    traces += [None] * (len(entries) - len(traces))
    if not _intact([trace for trace in traces if trace is not None]):
        traces = [trace if trace is not None and _intact([trace]) else None for trace in traces]
    return traces
