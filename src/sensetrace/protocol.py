"""Registration, clock-epoch temporary ids, local contact logs and infection
reporting over an in-process, ordered, loss-free message exchange.

Two reporting modes exist. Centralized: a positive reporter uploads their
contact list and the server notifies every logged peer. Decentralized: the
reporter publishes their day keys, and each phone looks the ids of its
local log up in the set of ids those keys yield (one membership test per
logged id). The decentralized server never holds a contact list or a
device secret, and the centralized one holds lists only from positive
reporters; these properties are assertable on ServerState. Given a report
time, either mode leaves out what ended before the lookback.

Epochs come from a shared clock, as in Exposure Notification and DP-3T:
epoch ``e`` runs from ``e * period`` to ``(e + 1) * period``, the period
being ``DEFAULT_ROTATION_PERIOD_S``, and day ``e // EPOCHS_PER_DAY`` holds
it. A device stores no epoch: the ids two phones exchange are those of the
clock epoch in which their contact window starts.

Ids come from daily keys, as in Exposure Notification: a device's random
secret gives one key a day (``day_key``) and each key that day's ids
(``derive_temp_id``), so no id can be tied to its device without the
secret or the key. The centralized server learns each secret at
registration, to resolve a report's ids; the decentralized one never
does. A key yields every id of its day, so publishing the current day's
key also gives away the ids the reporter will use for the rest of it.

Each id costs one SHA-256 call over its day key, ``|`` and its epoch's
digits. ``derive_temp_id`` makes that call itself, and so does the
centralized server for each id it derives; a phone expanding a published
key hashes ``key|`` once and copies that state for each epoch of the day.

A log entry keeps the epoch its peer's id was derived from, so the
centralized server derives one id per registered device for each epoch a
report logs, and scans no epoch range. It keeps day keys in a table,
checked against the registry before each use, that holds every day within
the lookback of the newest day it holds, so a report over days it holds
derives no key. The table takes 16 bytes per device per day held: 3 days
while the 256-epoch bound (``_RESOLVED_EPOCHS``) stands, 15 once it is
lifted (0.24 MB at 1k devices). The uploaded epoch tells that server
nothing the uploaded window times do not: it is the clock epoch of the
window's start.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, starmap
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .core import ContactDecision, ContactWindow
from .errors import ModeError, NoContact

DEFAULT_ROTATION_PERIOD_S = 900.0
DEFAULT_LOOKBACK_S = 14 * 86400.0
EPOCHS_PER_DAY = 96
SECRET_BYTES = 16
# A centralized report resolves ids logged at epochs 0 to 255 only, short of
# the 1,344 epochs of the default lookback. ROADMAP item 2 lifts this bound;
# the protocol benchmark counts each miss from epoch 256 on, so lifting it
# is a change to the benchmark (item 1).
_RESOLVED_EPOCHS = 256


class ReportMode(Enum):
    CENTRALIZED = "CENTRALIZED"
    DECENTRALIZED = "DECENTRALIZED"


class ExposureStatus(Enum):
    NONE = "NONE"
    NOTIFIED = "NOTIFIED"


def day_key(secret: bytes, day: int) -> bytes:
    """The first 16 bytes of SHA-256 over ``secret``, ``|`` and the digits
    of ``day``: what a report publishes in place of the day's ids."""
    return hashlib.sha256(secret + f"|{day}".encode("utf-8")).digest()[:16]


def derive_temp_id(secret: bytes, epoch: int) -> str:
    """The temporary id at ``epoch`` of the device holding ``secret``: ``t``
    and the first 8 bytes, in hex, of SHA-256 over the key of the epoch's
    day, ``|`` and the digits of ``epoch``."""
    return "t" + hashlib.sha256(day_key(secret, epoch // EPOCHS_PER_DAY) + b"|%d" % epoch).digest()[:8].hex()


def _day_ids(key: bytes, first: int, last: int) -> list[str]:
    """The ids that the day key ``key`` yields for epochs ``first`` to
    ``last``, as a phone expands a downloaded key: the ``key|`` state is
    hashed once and copied for each epoch."""
    prefix = hashlib.sha256(key + b"|")
    ids = []
    for epoch in range(first, last + 1):
        state = prefix.copy()
        state.update(b"%d" % epoch)
        ids.append("t" + state.digest()[:8].hex())
    return ids


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
    """What a device persists about a registered contact: the peer's
    temporary id, the window's clock epoch that id was derived from, and the
    window metadata. No raw sensor data, no permanent id."""

    peer_temp_id: str
    peer_epoch: int
    window_start: float
    window_end: float
    mean_distance: Optional[float]


@dataclass(slots=True)
class DeviceState:
    """One participating phone: its permanent id (a non-empty ``str``), its
    local contact log, whether it has been told of an exposure, and its
    secret, ``SECRET_BYTES`` random bytes unless given. It stores no epoch
    and no temporary id: an exchange derives the id of its window's epoch."""

    permanent_id: str
    contact_log: list[ContactLogEntry] = field(default_factory=list)
    exposure_status: ExposureStatus = ExposureStatus.NONE
    secret: bytes = field(default_factory=lambda: secrets.token_bytes(SECRET_BYTES), repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.permanent_id, str):
            raise TypeError(f"permanent_id must be a str, got {self.permanent_id!r}")
        if not self.permanent_id:
            raise ValueError("permanent_id must not be empty")
        if type(self.secret) is not bytes:
            raise TypeError(f"secret must be bytes, got {type(self.secret).__name__}")
        if len(self.secret) != SECRET_BYTES:
            raise ValueError(f"secret must be {SECRET_BYTES} bytes, got {len(self.secret)}")


@dataclass
class ServerState:
    """The coordination server. What it may store depends on its mode:
    only a centralized one fills ``device_secrets`` (permanent id ->
    secret), and only a decentralized one ``published_positive_ids``, the
    public list of ``(day key, first epoch, last epoch)`` records.

    ``registered``, ``device_secrets``, the public list and ``_counter`` are
    not constructor arguments. ``lookback_s`` must be >= 0 (``inf`` looks
    back forever); NaN or a negative lookback raises ``ValueError``."""

    mode: ReportMode
    registered: set[str] = field(default_factory=set, init=False)
    device_secrets: dict[str, bytes] = field(default_factory=dict, init=False, repr=False)
    notifications_sent: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    published_positive_ids: list[tuple[bytes, int, int]] = field(default_factory=list, init=False)
    uploaded_contact_lists: dict[str, list[ContactLogEntry]] = field(default_factory=dict)
    lookback_s: float = DEFAULT_LOOKBACK_S
    _counter: int = field(default=0, init=False)
    # The day-key table of centralized reports (``_resolve_temp_ids``): a
    # copy of ``device_secrets`` and its sorted ids, and for each day within
    # the lookback of the newest one held the keys of those devices in that
    # order, 16 bytes each.
    _key_registry: tuple[dict[str, bytes], tuple[str, ...]] = field(
        default_factory=lambda: ({}, ()), init=False, repr=False, compare=False
    )
    _day_keys: dict[int, bytes] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ReportMode):
            raise TypeError(f"mode must be a ReportMode, got {self.mode!r}")
        if not self.lookback_s >= 0:
            raise ValueError(f"lookback_s must be >= 0, got {self.lookback_s}")

    def contact_entries_held(self) -> int:
        """Privacy probe: how many contact-log entries the server stores."""
        return sum(len(v) for v in self.uploaded_contact_lists.values())


def register_device(server: ServerState, device: Optional[DeviceState] = None) -> DeviceState:
    """Register a device (minting one when none is given, under the next
    ``devNNNNN`` id not already registered). A centralized server keeps the
    device's secret. Re-registration is idempotent and returns the same
    state; re-registering an id under another secret with a centralized
    server raises ``ValueError`` and changes nothing."""
    if device is None:
        while (permanent := f"dev{server._counter:05d}") in server.registered:
            server._counter += 1
        server._counter += 1
        device = DeviceState(permanent)
    if server.mode is ReportMode.CENTRALIZED:
        if server.device_secrets.setdefault(device.permanent_id, device.secret) != device.secret:
            raise ValueError(f"{device.permanent_id!r} is registered under another secret")
    server.registered.add(device.permanent_id)
    return device


def rotate_id(device: DeviceState, now: float) -> DeviceState:
    """Returns ``device`` unchanged: a device stores no epoch, so there is
    nothing to rotate. A non-finite ``now`` raises ``ValueError``. It stays
    only because perfbench's protocol workload calls it for every device at
    every epoch; ROADMAP item 1's protocol part deletes it with that call."""
    if not math.isfinite(now):
        raise ValueError(f"rotation time must be finite, got {now}")
    return device


def exchange_ids(
    a: DeviceState,
    b: DeviceState,
    decision: ContactDecision,
    window: ContactWindow,
) -> tuple[DeviceState, DeviceState]:
    """After a positive decision, each phone logs the other's temporary id
    at the clock epoch of the window's start, ``floor(window.start /
    period)``, with that epoch and the window metadata. The window must
    name ``a`` and ``b``, two distinct devices, and start at or after time
    0; otherwise ``ValueError``, and neither log changes."""
    if not decision.contact:
        raise NoContact("id exchange requires a positive contact decision")
    # A window's pair names two distinct devices, so this also refuses a is b.
    if {a.permanent_id, b.permanent_id} != set(window.pair):
        raise ValueError(f"window of {window.pair} does not pair {a.permanent_id!r} with {b.permanent_id!r}")
    start, end, distance = window.start, window.end, decision.mean_distance
    if not start >= 0:
        raise ValueError(f"window starts at t={start}, before the clock's epoch 0")
    epoch = math.floor(start / DEFAULT_ROTATION_PERIOD_S)
    a.contact_log.append(ContactLogEntry(derive_temp_id(b.secret, epoch), epoch, start, end, distance))
    b.contact_log.append(ContactLogEntry(derive_temp_id(a.secret, epoch), epoch, start, end, distance))
    return a, b


def _resolve_temp_ids(server: ServerState, entries: Sequence[ContactLogEntry]) -> list[Optional[str]]:
    """Server-side epoch registry: the device each entry's temporary id
    resolves to at its logged epoch, or None. Possible because registration
    reveals secrets to the server.

    An entry is looked up only when its ``peer_epoch`` is an ``int`` (not a
    ``bool``) from 0 to ``_RESOLVED_EPOCHS - 1`` and its id is ``t`` and 16
    lowercase hex digits, compared as its 8 raw bytes; any other entry
    matches nothing. For each distinct logged epoch, one id is derived per
    registered device, one SHA-256 over its key of the epoch's day, ``|``
    and the epoch's digits, in sorted device order, and the first match
    wins.

    The day keys come from the server's table. It is verified, not
    trusted: when ``device_secrets`` differs from the copy the table was
    derived from (a registration, or a secret replaced by hand), the table
    is rebuilt. A report derives each registered device's key for a logged
    day the table does not hold. The table then keeps the days, held or
    logged, that lie within ``server.lookback_s`` of the newest of them, so
    a report over fewer days drops none that a later one needs, and the
    table never holds more than ``ceil(lookback_s / 86400) + 1`` days.
    """
    keys: list[Optional[tuple[bytes, bytes]]] = []
    days: dict[int, dict[bytes, set[bytes]]] = {}  # logged day -> "|" and the epoch's digits -> raw ids
    for entry in entries:
        epoch, raw = entry.peer_epoch, _parse_temp_id(entry.peer_temp_id)
        key = None
        if type(epoch) is int and 0 <= epoch < _RESOLVED_EPOCHS and raw is not None:
            key = (b"|%d" % epoch, raw)
            days.setdefault(epoch // EPOCHS_PER_DAY, {}).setdefault(key[0], set()).add(raw)
        keys.append(key)
    registry, order = server._key_registry
    held = server._day_keys
    if registry != server.device_secrets:
        registry = dict(server.device_secrets)
        order = tuple(sorted(registry))
        server._key_registry, held = (registry, order), {}
    table = {day: held.get(day) or b"".join(day_key(registry[permanent], day) for permanent in order) for day in days}
    kept = {**held, **table}
    oldest = max(kept, default=0) - server.lookback_s / (EPOCHS_PER_DAY * DEFAULT_ROTATION_PERIOD_S)
    server._day_keys = {day: day_keys for day, day_keys in kept.items() if day >= oldest}
    sha256 = hashlib.sha256
    found: dict[tuple[bytes, bytes], str] = {}
    for day, epochs in days.items():
        joined = table[day]
        device_keys = [joined[k : k + 16] for k in range(0, len(joined), 16)]
        for suffix, raws in epochs.items():
            ids = [sha256(device_key + suffix).digest()[:8] for device_key in device_keys]
            for raw in raws.intersection(ids):
                found[suffix, raw] = order[ids.index(raw)]  # the first match in sorted order
    return [found.get(key) for key in keys]  # a None key is never found


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
    for entry, peer in zip(entries, _resolve_temp_ids(server, entries)):
        if peer is None:
            continue
        notified.add(peer)
        server.notifications_sent.setdefault(peer, []).append(
            (entry.window_start, entry.window_end)
        )
    return notified


def report_positive_decentralized(device: DeviceState, server: ServerState, now: float) -> frozenset[str]:
    """Publish the reporter's day keys to the anonymous public list, one
    ``(day key, first epoch, last epoch)`` record a day; returns the ids
    they yield, expanded as a phone would, as the ``frozenset`` that
    ``check_exposure`` takes.

    The epochs run from the first that ends at or after ``now -
    server.lookback_s`` (the current epoch ends at ``now``), never below
    epoch 0, to the clock epoch of ``now``, ``floor(now / period)``. A
    ``now`` that is not finite, or is before time 0, raises ``ValueError``
    and publishes nothing."""
    if server.mode is not ReportMode.DECENTRALIZED:
        raise ModeError("decentralized report sent to a non-decentralized server")
    if not (math.isfinite(now) and now >= 0):
        raise ValueError(f"report time must be finite and at or after time 0, got {now}")
    last = math.floor(now / DEFAULT_ROTATION_PERIOD_S)
    # Epoch e ends at (e + 1) * period, so the first to end at or after the
    # cut is ceil(cut / period) - 1. The quotient is rounded, but it rounds
    # to an integer n only when cut == n * period exactly (below 2**53 /
    # period epochs), so its ceiling is the exact one; and it is at most
    # now / period, so that epoch is at most ``last``.
    cut = now - server.lookback_s
    first = math.ceil(cut / DEFAULT_ROTATION_PERIOD_S) - 1 if cut > 0 else 0
    records = [
        (day_key(device.secret, day), max(first, day * EPOCHS_PER_DAY), min(last, (day + 1) * EPOCHS_PER_DAY - 1))
        for day in range(first // EPOCHS_PER_DAY, last // EPOCHS_PER_DAY + 1)
    ]
    server.published_positive_ids.extend(records)
    return frozenset(chain.from_iterable(starmap(_day_ids, records)))


_peer_temp_id = attrgetter("peer_temp_id")


def check_exposure(device: DeviceState, published: frozenset[str]) -> bool:
    """True when any id of ``published`` (a set of temporary ids, as
    ``report_positive_decentralized`` returns) appears in this device's log:
    one set-disjointness test over the logged ids, a membership test each
    until one matches. Anything but a ``set`` or ``frozenset`` raises
    ``TypeError``."""
    if not isinstance(published, (set, frozenset)):
        raise TypeError(f"published ids must be a set of temporary ids, got {type(published).__name__}")
    exposed = not published.isdisjoint(map(_peer_temp_id, device.contact_log))
    if exposed:
        device.exposure_status = ExposureStatus.NOTIFIED
    return exposed


def notify_devices(notified_ids: Iterable[str], devices: dict[str, DeviceState]) -> None:
    """Deliver centralized notifications to the affected device states."""
    for permanent in notified_ids:
        if permanent in devices:
            devices[permanent].exposure_status = ExposureStatus.NOTIFIED
