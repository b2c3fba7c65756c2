"""Registration, temporary-ID rotation, local contact logs and infection
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
it. A device keeps only its current epoch, so a phone that rotates late
skips the epochs it slept through; its report still publishes them.

Ids come from daily keys, as in Exposure Notification: a device's random
secret gives one key a day (``day_key``) and each key that day's ids
(``derive_temp_id``), so no id can be tied to its device without the
secret or the key. The centralized server learns each secret at
registration, to resolve a report's ids; the decentralized one never
does. A key yields every id of its day, so publishing the current day's
key also gives away the ids the reporter will use for the rest of it.

A log entry keeps the epoch its peer's id was derived from, so the
centralized server derives one id per registered device for each epoch a
report logs, and scans no epoch range. It keeps the day keys of the last
report's days in a table, checked against the registry before each use,
so a report over the same days derives no key. The uploaded epoch tells that
server nothing the uploaded window times do not: a phone that rotates on
time logs the clock epoch of the window, and the epoch of any id the
server resolves is the one its secret yields the id at, which a scan of
every epoch finds as well. Only epochs 0 to 255 are resolved: the
protocol benchmark counts each miss from epoch 256 on, so lifting the
bound is a change to the benchmark (ROADMAP items 1 and 2).
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .core import ContactDecision, ContactWindow
from .errors import ModeError, NoContact, NotDue

DEFAULT_ROTATION_PERIOD_S = 900.0
DEFAULT_LOOKBACK_S = 14 * 86400.0
EPOCHS_PER_DAY = 96
SECRET_BYTES = 16


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


# An id hashes its day key, "|" and its epoch's digits. The two helpers
# below split that hash so that whoever derives many epochs of one day
# hashes the "<key>|" prefix once and copies the state for each epoch.
def _id_prefix(key: bytes):
    return hashlib.sha256(key + b"|")


def _id_key(prefix, epoch_digits: bytes) -> bytes:
    """The 8 raw bytes of the id; ``prefix`` (an ``_id_prefix`` state, or
    a copy of one) is consumed."""
    prefix.update(epoch_digits)
    return prefix.digest()[:8]


def derive_temp_id(secret: bytes, epoch: int) -> str:
    """The temporary id at ``epoch`` of the device holding ``secret``: ``t``
    and the first 8 bytes, in hex, of SHA-256 over the key of the epoch's
    day, ``|`` and the digits of ``epoch``."""
    return "t" + _id_key(_id_prefix(day_key(secret, epoch // EPOCHS_PER_DAY)), f"{epoch}".encode()).hex()


def _day_ids(key: bytes, first: int, last: int) -> list[str]:
    """The ids that the day key ``key`` yields for epochs ``first`` to
    ``last``, as a phone expands a downloaded key."""
    prefix = _id_prefix(key)
    return ["t" + _id_key(prefix.copy(), f"{e}".encode()).hex() for e in range(first, last + 1)]


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
    temporary id, the peer's epoch that id was derived from, and the window
    metadata. No raw sensor data, no permanent id."""

    peer_temp_id: str
    peer_epoch: int
    window_start: float
    window_end: float
    mean_distance: Optional[float]


@dataclass(slots=True)
class DeviceState:
    """One participating phone: its permanent id (a non-empty ``str``), its
    current clock epoch, its local contact log, whether it has been told of
    an exposure, and its secret, ``SECRET_BYTES`` random bytes unless given.
    ``temp_id`` derives the temporary id on each read; none is stored."""

    permanent_id: str
    epoch: int = 0
    contact_log: list[ContactLogEntry] = field(default_factory=list)
    exposure_status: ExposureStatus = ExposureStatus.NONE
    secret: bytes = field(default_factory=lambda: secrets.token_bytes(SECRET_BYTES), repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.permanent_id, str):
            raise TypeError(f"permanent_id must be a str, got {self.permanent_id!r}")
        if not self.permanent_id:
            raise ValueError("permanent_id must not be empty")
        if not isinstance(self.epoch, int) or isinstance(self.epoch, bool):
            raise TypeError(f"epoch must be an int, got {self.epoch!r}")
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0")
        if type(self.secret) is not bytes:
            raise TypeError(f"secret must be bytes, got {type(self.secret).__name__}")
        if len(self.secret) != SECRET_BYTES:
            raise ValueError(f"secret must be {SECRET_BYTES} bytes, got {len(self.secret)}")

    @property
    def temp_id(self) -> str:
        return derive_temp_id(self.secret, self.epoch)


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
    # copy of ``device_secrets`` and its sorted ids, and for each day of the
    # last report the keys of those devices in that order, 16 bytes each.
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
    """Move the device to the clock epoch of ``now``, ``floor(now /
    period)``; ``temp_id`` derives the new id when read. A non-finite
    ``now`` raises ``ValueError``, and one whose epoch is not after the
    device's ``NotDue``; either leaves the device unchanged. (The epoch
    could be read off the clock at each exchange; this call stays because
    perfbench's protocol workload rotates every device through it.)"""
    try:
        epoch = math.floor(now / DEFAULT_ROTATION_PERIOD_S)
    except (ValueError, OverflowError):
        raise ValueError(f"rotation time must be finite, got {now}") from None
    if epoch <= device.epoch:
        raise NotDue(f"rotation at t={now} is in epoch {epoch}, not after epoch {device.epoch}")
    device.epoch = epoch
    return device


def exchange_ids(
    a: DeviceState,
    b: DeviceState,
    decision: ContactDecision,
    window: ContactWindow,
) -> tuple[DeviceState, DeviceState]:
    """After a positive decision, both phones log each other's current
    temporary id and epoch with the window metadata. The window must name
    ``a`` and ``b``, two distinct devices; otherwise ``ValueError``, and
    neither log changes."""
    if not decision.contact:
        raise NoContact("id exchange requires a positive contact decision")
    # A window's pair names two distinct devices, so this also refuses a is b.
    if {a.permanent_id, b.permanent_id} != set(window.pair):
        raise ValueError(f"window of {window.pair} does not pair {a.permanent_id!r} with {b.permanent_id!r}")
    a.contact_log.append(ContactLogEntry(b.temp_id, b.epoch, window.start, window.end, decision.mean_distance))
    b.contact_log.append(ContactLogEntry(a.temp_id, a.epoch, window.start, window.end, decision.mean_distance))
    return a, b


def _resolve_temp_ids(
    server: ServerState, entries: Sequence[ContactLogEntry], max_epoch: int = 256
) -> list[Optional[str]]:
    """Server-side epoch registry: the device each entry's temporary id
    resolves to at its logged epoch, or None. Possible because registration
    reveals secrets to the server.

    An entry is looked up only when its ``peer_epoch`` is an ``int`` (not a
    ``bool``) from 0 to ``max_epoch - 1`` and its id is ``t`` and 16
    lowercase hex digits, compared as its 8 raw bytes; any other entry
    matches nothing. For each distinct logged epoch, one id is derived per
    registered device from its key of the epoch's day, in sorted device
    order, and the first match wins.

    The day keys come from the server's table, which holds the keys of the
    last report's days. It is verified, not trusted: when
    ``device_secrets`` differs from the copy the table was derived from
    (a registration, or a secret replaced by hand), the table is rebuilt.
    It then keeps only this report's days, deriving each registered
    device's key for a day it does not hold.
    """
    keys: list[Optional[tuple[bytes, bytes]]] = []
    days: dict[int, dict[bytes, set[bytes]]] = {}  # logged day -> epoch digits -> raw ids
    for entry in entries:
        epoch, raw = entry.peer_epoch, _parse_temp_id(entry.peer_temp_id)
        key = None
        if type(epoch) is int and 0 <= epoch < max_epoch and raw is not None:
            key = (f"{epoch}".encode(), raw)
            days.setdefault(epoch // EPOCHS_PER_DAY, {}).setdefault(key[0], set()).add(raw)
        keys.append(key)
    registry, order = server._key_registry
    held = server._day_keys
    if registry != server.device_secrets:
        registry = dict(server.device_secrets)
        order = tuple(sorted(registry))
        server._key_registry, held = (registry, order), {}
    server._day_keys = table = {
        day: held.get(day) or b"".join(day_key(registry[permanent], day) for permanent in order) for day in days
    }
    found: dict[tuple[bytes, bytes], str] = {}
    for day, epochs in days.items():
        day_keys = table[day]
        for digits, raws in epochs.items():
            ids = [_id_key(_id_prefix(day_keys[k : k + 16]), digits) for k in range(0, len(day_keys), 16)]
            for raw in raws.intersection(ids):
                found[digits, raw] = order[ids.index(raw)]  # the first match in sorted order
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


def report_positive_decentralized(
    device: DeviceState,
    server: ServerState,
    now: Optional[float] = None,
) -> frozenset[str]:
    """Publish the reporter's day keys to the anonymous public list, one
    ``(day key, first epoch, last epoch)`` record a day; returns the ids
    they yield, expanded as a phone would, as the ``frozenset`` that
    ``check_exposure`` takes.

    The epochs run from the first that ends at or after ``now -
    server.lookback_s`` (the current epoch ends at ``now``), never below
    epoch 0, to the device's current epoch; ``now=None`` publishes from
    epoch 0. A non-finite ``now``, or one whose clock epoch is before the
    device's, raises ``ValueError`` and publishes nothing."""
    if server.mode is not ReportMode.DECENTRALIZED:
        raise ModeError("decentralized report sent to a non-decentralized server")
    first = 0
    if now is not None:
        if not math.isfinite(now):
            raise ValueError(f"report time must be finite, got {now}")
        if math.floor(now / DEFAULT_ROTATION_PERIOD_S) < device.epoch:
            raise ValueError(f"report time {now} is before the start of the device's epoch {device.epoch}")
        # Epoch e ends at (e + 1) * period, so the first to end at or after
        # the cut is ceil(cut / period) - 1. The quotient is rounded, but it
        # rounds to an integer n only when cut == n * period exactly (below
        # 2**53 / period epochs), so its ceiling is the exact one.
        cut = now - server.lookback_s
        first = min(math.ceil(cut / DEFAULT_ROTATION_PERIOD_S) - 1, device.epoch) if cut > 0 else 0
    records = [
        (
            day_key(device.secret, day),
            max(first, day * EPOCHS_PER_DAY),
            min(device.epoch, (day + 1) * EPOCHS_PER_DAY - 1),
        )
        for day in range(first // EPOCHS_PER_DAY, device.epoch // EPOCHS_PER_DAY + 1)
    ]
    server.published_positive_ids.extend(records)
    return frozenset(temp_id for record in records for temp_id in _day_ids(*record))


def check_exposure(device: DeviceState, published: frozenset[str]) -> bool:
    """True when any id of ``published`` (a set of temporary ids, as
    ``report_positive_decentralized`` returns) appears in this device's log:
    one set-disjointness test over the logged ids, a membership test each
    until one matches. Anything but a ``set`` or ``frozenset`` raises
    ``TypeError``."""
    if not isinstance(published, (set, frozenset)):
        raise TypeError(f"published ids must be a set of temporary ids, got {type(published).__name__}")
    exposed = not published.isdisjoint(map(attrgetter("peer_temp_id"), device.contact_log))
    if exposed:
        device.exposure_status = ExposureStatus.NOTIFIED
    return exposed


def notify_devices(notified_ids: Iterable[str], devices: dict[str, DeviceState]) -> None:
    """Deliver centralized notifications to the affected device states."""
    for permanent in notified_ids:
        if permanent in devices:
            devices[permanent].exposure_status = ExposureStatus.NOTIFIED
