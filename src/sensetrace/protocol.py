"""Registration, temporary-ID rotation, local contact logs and infection
reporting over an in-process, ordered, loss-free message exchange.

Two reporting modes exist. Centralized: a positive reporter uploads their
contact list and the server notifies every logged peer. Decentralized: the
reporter publishes only their own temporary ids, and each phone looks the
ids of its local log up in the set of ids a report published (one
membership test per logged id). The decentralized server never holds a
contact list, and the centralized one holds lists only from positive
reporters; both properties are assertable on ServerState. Given a report
time, either mode leaves out what ended before the lookback.

The public list (``PublishedIds``) holds each id as its 8 raw bytes and
its epoch as an 8-byte unsigned int, about 16 bytes an id in all. It takes
ids through ``extend``, only of the form ``derive_temp_id`` writes (``t``
and 16 lowercase hex digits), and is read by iteration and ``len``.

Temporary ids are derived by a keyless hash of (permanent id, epoch). That
is a simulation stand-in: real deployments use cryptographic schedules,
which are out of scope here. The centralized server resolves a report's
ids by comparing raw 8-byte keys, hashing each registered permanent id
once for all the epochs it tries.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional

from .core import ContactDecision, ContactWindow
from .errors import ModeError, NoContact, NotDue

DEFAULT_ROTATION_PERIOD_S = 900.0
DEFAULT_LOOKBACK_S = 14 * 86400.0


class ReportMode(Enum):
    CENTRALIZED = "CENTRALIZED"
    DECENTRALIZED = "DECENTRALIZED"


class ExposureStatus(Enum):
    NONE = "NONE"
    NOTIFIED = "NOTIFIED"


# A temporary id is the first 8 bytes of the SHA-256 of
# "<permanent id>|<epoch digits>", written as "t" and 16 lowercase hex
# digits. The three helpers below split that hash so that a server trying
# many epochs of one device hashes the "<permanent id>|" prefix once and
# copies the state for each epoch.
def _id_prefix(permanent_id: str):
    return hashlib.sha256(f"{permanent_id}|".encode("utf-8"))


def _epoch_digits(epoch: int) -> bytes:
    return f"{epoch}".encode("utf-8")


def _id_key(prefix, epoch_digits: bytes) -> bytes:
    """The 8 raw bytes of the id; ``prefix`` (an ``_id_prefix`` state, or
    a copy of one) is consumed."""
    prefix.update(epoch_digits)
    return prefix.digest()[:8]


def derive_temp_id(permanent_id: str, epoch: int) -> str:
    """Deterministic per-epoch pseudonym, never equal to the permanent id."""
    return "t" + _id_key(_id_prefix(permanent_id), _epoch_digits(epoch)).hex()


def _parse_temp_id(temp_id: object) -> Optional[bytes]:
    """The 8 raw bytes of a temporary id of the form ``derive_temp_id``
    writes (``t`` and 16 lowercase hex digits), or None for anything else,
    which no derived id equals."""
    if not (isinstance(temp_id, str) and len(temp_id) == 17 and temp_id[0] == "t"):
        return None
    digits = temp_id[1:]
    try:
        raw = bytes.fromhex(digits)
    except ValueError:
        return None
    # fromhex also takes uppercase digits and skips whitespace.
    return raw if raw.hex() == digits else None


@dataclass(frozen=True, slots=True)
class ContactLogEntry:
    """What a device persists about a registered contact: the peer's current
    temporary id and the window metadata. No raw sensor data, no permanent id."""

    peer_temp_id: str
    window_start: float
    window_end: float
    mean_distance: Optional[float]


@dataclass(frozen=True, slots=True)
class PublishedId:
    temp_id: str
    epoch: int


def _pack(items: list[PublishedId]) -> Optional[tuple[bytes, list[int]]]:
    """The raw id bytes and the epochs of ``items``, or None unless every id
    is ``t`` and 16 lowercase hex digits and every epoch an int (not a bool)
    in [0, 2**64). Checked over the whole batch: one ``bytes.fromhex`` over
    the joined digits, which must give them back unchanged."""
    ids = [p.temp_id for p in items]
    epochs = [p.epoch for p in items]
    if not (set(map(type, ids)) <= {str} and set(map(len, ids)) <= {17}):
        return None
    if not set(map(type, epochs)) <= {int}:
        return None
    if epochs and not (0 <= min(epochs) and max(epochs) < 2**64):
        return None
    joined = "".join(ids)
    digits = joined.replace("t", "")
    # A "t" opens every id and appears nowhere else.
    if joined[::17] != "t" * len(ids) or len(digits) != 16 * len(ids):
        return None
    try:
        raw = bytes.fromhex(digits)
    except ValueError:
        return None
    return (raw, epochs) if raw.hex() == digits else None


@dataclass(slots=True, repr=False)
class PublishedIds:
    """The public list of positive ids, compact: each id's 8 raw bytes (the
    16 hex digits after its ``t``) in one ``bytearray`` and each epoch in one
    ``array('Q')``, about 16 bytes an id against about 150 for a list of
    ``PublishedId``s. Ids go in through ``extend`` and come out by iteration,
    which rebuilds ``PublishedId``s. Two ``PublishedIds`` are equal when they
    hold the same ids and epochs in order; the class is unhashable."""

    _raw: bytearray = field(default_factory=bytearray, init=False)
    _epochs: array = field(default_factory=lambda: array("Q"), init=False)

    def extend(self, items: Iterable[PublishedId]) -> None:
        """Append ``items`` in one step. Each id must be ``t`` and 16
        lowercase hex digits and each epoch an int (not a bool) in
        [0, 2**64); otherwise ``ValueError`` names the first bad item and
        nothing is appended."""
        items = list(items)
        packed = _pack(items)
        if packed is None:
            bad = next(p for p in items if _pack([p]) is None)
            raise ValueError(
                f"not a publishable id: {bad!r} (want 't' and 16 lowercase hex digits, epoch in [0, 2**64))"
            )
        raw, epochs = packed
        self._raw += raw
        self._epochs.extend(epochs)

    def __len__(self) -> int:
        return len(self._epochs)

    def __iter__(self) -> Iterator[PublishedId]:
        return (PublishedId("t" + self._raw[8 * i : 8 * i + 8].hex(), e) for i, e in enumerate(self._epochs))


@dataclass(slots=True)
class DeviceState:
    """One participating phone: its permanent id and current epoch (``temp_id``
    derives the temporary id from both on each read; none is stored), its
    local contact log and whether it has been told of an exposure.

    ``last_rotation`` is the current epoch's start time. The rotation history
    is kept as runs: (first epoch, start time) of each run of on-time
    rotations, an epoch inside a run starting exactly one rotation period
    after its predecessor. It costs one entry at construction and one per
    late rotation, none per on-time one."""

    permanent_id: str
    epoch: int = 0
    contact_log: list[ContactLogEntry] = field(default_factory=list)
    exposure_status: ExposureStatus = ExposureStatus.NONE
    last_rotation: float = 0.0
    runs: list[tuple[int, float]] = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.epoch, int) or isinstance(self.epoch, bool):
            raise TypeError(f"epoch must be an int, got {self.epoch!r}")
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")
        if not math.isfinite(self.last_rotation):
            raise ValueError(f"last_rotation must be finite, got {self.last_rotation}")
        self.runs = [(self.epoch, self.last_rotation)]

    @property
    def temp_id(self) -> str:
        return derive_temp_id(self.permanent_id, self.epoch)


@dataclass
class ServerState:
    """The coordination server. What it may store depends on its mode.

    ``published_positive_ids``, the decentralized public list, is a
    ``PublishedIds`` that starts empty; it is not a constructor argument.
    ``lookback_s`` must be >= 0 (``inf`` looks back forever); NaN or a
    negative lookback raises ``ValueError``."""

    mode: ReportMode
    registered: set[str] = field(default_factory=set)
    notifications_sent: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    published_positive_ids: PublishedIds = field(default_factory=PublishedIds, init=False)
    uploaded_contact_lists: dict[str, list[ContactLogEntry]] = field(default_factory=dict)
    lookback_s: float = DEFAULT_LOOKBACK_S
    _counter: int = 0

    def __post_init__(self) -> None:
        if not self.lookback_s >= 0:
            raise ValueError(f"lookback_s must be >= 0, got {self.lookback_s}")

    def contact_entries_held(self) -> int:
        """Privacy probe: how many contact-log entries the server stores."""
        return sum(len(v) for v in self.uploaded_contact_lists.values())


def register_device(server: ServerState, device: Optional[DeviceState] = None) -> DeviceState:
    """Register a device (minting one when none is given, under the next
    ``devNNNNN`` id not already registered). Re-registration is idempotent
    and returns the same state."""
    if device is None:
        while (permanent := f"dev{server._counter:05d}") in server.registered:
            server._counter += 1
        server._counter += 1
        device = DeviceState(permanent)
    server.registered.add(device.permanent_id)
    return device


def rotate_id(device: DeviceState, now: float) -> DeviceState:
    """Advance to the next epoch once the rotation period has elapsed: O(1)
    bookkeeping, as ``temp_id`` derives the new temporary id when read.
    An on-time rotation (exactly one period after the last) allocates
    nothing; a late one opens a new run in ``device.runs``, so the device
    keeps its own past ids resolvable for exposure matching. A non-finite
    ``now`` raises ``ValueError`` and an early one ``NotDue``; either leaves
    the device unchanged."""
    due = device.last_rotation + DEFAULT_ROTATION_PERIOD_S
    if now != due:
        if not math.isfinite(now):
            raise ValueError(f"rotation time must be finite, got {now}")
        if now < due:
            raise NotDue(f"rotation at t={now} before {due}")
        device.runs.append((device.epoch + 1, now))
    device.epoch += 1
    device.last_rotation = now
    return device


def exchange_ids(
    a: DeviceState,
    b: DeviceState,
    decision: ContactDecision,
    window: ContactWindow,
) -> tuple[DeviceState, DeviceState]:
    """After a positive decision, both phones log each other's current
    temporary id with the window metadata."""
    if not decision.contact:
        raise NoContact("id exchange requires a positive contact decision")
    a.contact_log.append(ContactLogEntry(b.temp_id, window.start, window.end, decision.mean_distance))
    b.contact_log.append(ContactLogEntry(a.temp_id, window.start, window.end, decision.mean_distance))
    return a, b


def _resolve_temp_ids(server: ServerState, wanted: Iterable[str], max_epoch: int = 256) -> dict[str, str]:
    """Server-side epoch registry: map each wanted temporary id back to its
    device. Possible because registration reveals permanent ids to the server.

    One pass over the sorted registered devices x epochs 0..max_epoch-1,
    stopping once every wanted id is found; each id maps to its first match
    in that order. Ids with no match are absent from the result. The wanted
    ids are compared as their 8 raw bytes, and each device's permanent id
    is hashed once, its state copied for each epoch.
    """
    missing = {key: temp_id for temp_id in set(wanted) if (key := _parse_temp_id(temp_id)) is not None}
    found: dict[str, str] = {}
    if not missing:
        return found
    epochs = [_epoch_digits(epoch) for epoch in range(max_epoch)]
    for permanent in sorted(server.registered):
        prefix = _id_prefix(permanent)
        for digits in epochs:
            temp_id = missing.pop(_id_key(prefix.copy(), digits), None)
            if temp_id is not None:
                found[temp_id] = permanent
                if not missing:
                    return found
    return found


def report_positive_centralized(
    device: DeviceState,
    server: ServerState,
    now: Optional[float] = None,
) -> set[str]:
    """Upload the reporter's contact list; the server notifies each logged
    peer once. The reporter's identity is revealed to the server only, and
    notifications carry no reporter identity.

    ``now=None`` uploads every entry. Otherwise an entry whose window ended
    before ``now - server.lookback_s`` is neither uploaded nor notified, and
    a non-finite ``now`` raises ``ValueError``."""
    if server.mode is not ReportMode.CENTRALIZED:
        raise ModeError("centralized report sent to a non-centralized server")
    if now is not None and not math.isfinite(now):
        raise ValueError(f"report time must be finite, got {now}")
    if now is None:
        entries = list(device.contact_log)
    else:
        entries = [e for e in device.contact_log if e.window_end >= now - server.lookback_s]
    server.uploaded_contact_lists[device.permanent_id] = entries

    notified: set[str] = set()
    resolved = _resolve_temp_ids(server, (entry.peer_temp_id for entry in entries))
    for entry in entries:
        peer = resolved.get(entry.peer_temp_id)
        if peer is None:
            continue
        notified.add(peer)
        server.notifications_sent.setdefault(peer, []).append(
            (entry.window_start, entry.window_end)
        )
    return notified


def report_positive_decentralized(
    device: DeviceState,
    server: ServerState,
    now: Optional[float] = None,
) -> frozenset[str]:
    """Publish the reporter's own temporary ids (all epochs within the
    infectious lookback) to the anonymous public list, which takes them
    with their epochs in one step; returns the published ids as a
    ``frozenset``, the argument ``check_exposure`` takes.

    ``now=None`` publishes every epoch; a non-finite ``now`` raises
    ``ValueError``. Each epoch's end is rebuilt from ``device.runs`` with the
    float addition ``rotate_id`` compared against, so it equals the ``now``
    that started the next epoch bit for bit."""
    if server.mode is not ReportMode.DECENTRALIZED:
        raise ModeError("decentralized report sent to a non-decentralized server")
    if now is not None and not math.isfinite(now):
        raise ValueError(f"report time must be finite, got {now}")
    delta: list[PublishedId] = []
    runs = device.runs
    for k, (first, start) in enumerate(runs):
        # Inside a run each epoch is active until the next one starts, one
        # period later; the run's last epoch until the next run starts, and
        # the current epoch until now.
        stop, run_end = runs[k + 1] if k + 1 < len(runs) else (device.epoch + 1, now)
        for epoch in range(first, stop):
            until = start + DEFAULT_ROTATION_PERIOD_S if epoch + 1 < stop else run_end
            start = until
            # An epoch matters if it was still active inside the lookback.
            if now is not None and until < now - server.lookback_s:
                continue
            delta.append(PublishedId(derive_temp_id(device.permanent_id, epoch), epoch))
    server.published_positive_ids.extend(delta)
    return frozenset(p.temp_id for p in delta)


def check_exposure(device: DeviceState, published: frozenset[str]) -> bool:
    """True when any id of ``published`` (a set of temporary ids, as
    ``report_positive_decentralized`` returns) appears in this device's log:
    one membership test per logged id. Anything but a ``set`` or
    ``frozenset`` raises ``TypeError``."""
    if not isinstance(published, (set, frozenset)):
        raise TypeError(f"published ids must be a set of temporary ids, got {type(published).__name__}")
    exposed = any(entry.peer_temp_id in published for entry in device.contact_log)
    if exposed:
        device.exposure_status = ExposureStatus.NOTIFIED
    return exposed


def notify_devices(notified_ids: Iterable[str], devices: dict[str, DeviceState]) -> None:
    """Deliver centralized notifications to the affected device states."""
    for permanent in notified_ids:
        if permanent in devices:
            devices[permanent].exposure_status = ExposureStatus.NOTIFIED
