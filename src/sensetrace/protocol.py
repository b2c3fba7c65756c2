"""Registration, temporary-ID rotation, local contact logs and infection
reporting over an in-process, ordered, loss-free message exchange.

Two reporting modes exist. Centralized: a positive reporter uploads their
contact list and the server notifies every logged peer. Decentralized: the
reporter publishes only their own temporary ids and everyone checks the
public list against their local log. The decentralized server never holds a
contact list, and the centralized one holds lists only from positive
reporters; both properties are assertable on ServerState.

Temporary ids are derived by a keyless hash of (permanent id, epoch). That
is a simulation stand-in: real deployments use cryptographic schedules,
which are out of scope here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Union

from .core import ContactDecision, ContactWindow, DeviceId, atomic_write
from .errors import ModeError, NoContact, NotDue
from .fusion import ContactLogEntry, register_contact

DEFAULT_ROTATION_PERIOD_S = 900.0
DEFAULT_LOOKBACK_S = 14 * 86400.0


class ReportMode(Enum):
    CENTRALIZED = "CENTRALIZED"
    DECENTRALIZED = "DECENTRALIZED"


class ExposureStatus(Enum):
    NONE = "NONE"
    NOTIFIED = "NOTIFIED"


def derive_temp_id(permanent_id: str, epoch: int) -> str:
    """Deterministic per-epoch pseudonym, never equal to the permanent id."""
    digest = hashlib.sha256(f"{permanent_id}|{epoch}".encode("utf-8")).hexdigest()[:16]
    return f"t{digest}"


@dataclass(frozen=True)
class PublishedId:
    temp_id: str
    epoch: int


class EventLog:
    """Append-only protocol event record for audit replay."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def record(self, event: str, **fields) -> None:
        self.events.append({"event": event, **fields})

    def write_jsonl(self, path: Union[str, Path]) -> None:
        atomic_write(path, "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in self.events))


@dataclass
class DeviceState:
    """One participating phone: its rotating identity, its local contact log
    and whether it has been told of an exposure."""

    identity: DeviceId
    contact_log: list[ContactLogEntry] = field(default_factory=list)
    exposure_status: ExposureStatus = ExposureStatus.NONE
    rotation_period: float = DEFAULT_ROTATION_PERIOD_S
    last_rotation: float = 0.0
    epoch_times: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.epoch_times.setdefault(self.identity.epoch, self.last_rotation)

    @property
    def permanent_id(self) -> str:
        return self.identity.permanent_id

    def temp_id_history(self) -> dict[int, str]:
        """All temp ids this device has used, resolvable only by itself."""
        return {e: derive_temp_id(self.permanent_id, e) for e in self.epoch_times}


@dataclass
class ServerState:
    """The coordination server. What it may store depends on its mode."""

    mode: ReportMode
    registered: set[str] = field(default_factory=set)
    notifications_sent: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    published_positive_ids: list[PublishedId] = field(default_factory=list)
    uploaded_contact_lists: dict[str, list[ContactLogEntry]] = field(default_factory=dict)
    lookback_s: float = DEFAULT_LOOKBACK_S
    _counter: int = 0

    def contact_entries_held(self) -> int:
        """Privacy probe: how many contact-log entries the server stores."""
        return sum(len(v) for v in self.uploaded_contact_lists.values())


def register_device(
    server: ServerState,
    device: Optional[DeviceState] = None,
    events: Optional[EventLog] = None,
) -> DeviceState:
    """Register a device (minting one when none is given). Re-registration
    is idempotent and returns the same state."""
    if device is None:
        permanent = f"dev{server._counter:05d}"
        server._counter += 1
        device = DeviceState(
            identity=DeviceId(permanent, derive_temp_id(permanent, 0), epoch=0)
        )
    already = device.permanent_id in server.registered
    server.registered.add(device.permanent_id)
    if events and not already:
        events.record("register", device=device.permanent_id)
    return device


def rotate_id(device: DeviceState, now: float, events: Optional[EventLog] = None) -> DeviceState:
    """Advance to a fresh temporary id once the rotation period has elapsed.

    The device keeps its own past ids resolvable for exposure matching.
    """
    if now < device.last_rotation + device.rotation_period:
        raise NotDue(
            f"rotation at t={now} before {device.last_rotation + device.rotation_period}"
        )
    new_epoch = device.identity.epoch + 1
    device.identity = DeviceId(
        device.permanent_id, derive_temp_id(device.permanent_id, new_epoch), new_epoch
    )
    device.last_rotation = now
    device.epoch_times[new_epoch] = now
    if events:
        events.record("rotate", device=device.permanent_id, epoch=new_epoch, t=now)
    return device


def exchange_ids(
    a: DeviceState,
    b: DeviceState,
    decision: ContactDecision,
    window: ContactWindow,
    events: Optional[EventLog] = None,
) -> tuple[DeviceState, DeviceState]:
    """After a positive decision, both phones log each other's current
    temporary id with the window metadata."""
    if not decision.contact:
        raise NoContact("id exchange requires a positive contact decision")
    register_contact(decision, b.identity, window, a.contact_log)
    register_contact(decision, a.identity, window, b.contact_log)
    if events:
        events.record(
            "exchange",
            devices=[a.permanent_id, b.permanent_id],
            window=[window.start, window.end],
        )
    return a, b


def _resolve_temp_id(server: ServerState, temp_id: str, max_epoch: int = 256) -> Optional[str]:
    """Server-side epoch registry: map a temporary id back to its device.
    Possible because registration reveals permanent ids to the server."""
    for permanent in sorted(server.registered):
        for epoch in range(max_epoch):
            if derive_temp_id(permanent, epoch) == temp_id:
                return permanent
    return None


def report_positive_centralized(
    device: DeviceState,
    server: ServerState,
    events: Optional[EventLog] = None,
) -> set[str]:
    """Upload the reporter's contact list; the server notifies each logged
    peer once. The reporter's identity is revealed to the server only, and
    notifications carry no reporter identity."""
    if server.mode is not ReportMode.CENTRALIZED:
        raise ModeError("centralized report sent to a non-centralized server")
    server.uploaded_contact_lists[device.permanent_id] = list(device.contact_log)
    if events:
        events.record("report_centralized", device=device.permanent_id, entries=len(device.contact_log))

    notified: set[str] = set()
    for entry in device.contact_log:
        peer = _resolve_temp_id(server, entry.peer_temp_id)
        if peer is None:
            continue
        notified.add(peer)
        server.notifications_sent.setdefault(peer, []).append(
            (entry.window_start, entry.window_end)
        )
        if events:
            events.record("notify", device=peer, window=[entry.window_start, entry.window_end])
    return notified


def report_positive_decentralized(
    device: DeviceState,
    server: ServerState,
    now: Optional[float] = None,
    events: Optional[EventLog] = None,
) -> list[PublishedId]:
    """Publish the reporter's own temporary ids (all epochs within the
    infectious lookback) to the anonymous public list; returns the delta."""
    if server.mode is not ReportMode.DECENTRALIZED:
        raise ModeError("decentralized report sent to a non-decentralized server")
    delta: list[PublishedId] = []
    for epoch in sorted(device.epoch_times):
        if now is not None:
            # An epoch matters if it was still active inside the lookback.
            active_until = device.epoch_times.get(epoch + 1, now)
            if active_until < now - server.lookback_s:
                continue
        delta.append(PublishedId(derive_temp_id(device.permanent_id, epoch), epoch))
    server.published_positive_ids.extend(delta)
    if events:
        events.record("report_decentralized", device=device.permanent_id, published=len(delta))
    return delta


def check_exposure(
    device: DeviceState,
    published: Iterable[PublishedId],
    events: Optional[EventLog] = None,
) -> bool:
    """True when any published positive id appears in this device's log."""
    logged = {entry.peer_temp_id for entry in device.contact_log}
    exposed = any(p.temp_id in logged for p in published)
    if exposed:
        device.exposure_status = ExposureStatus.NOTIFIED
    if events:
        events.record("check", device=device.permanent_id, exposed=exposed)
    return exposed


def notify_devices(notified_ids: Iterable[str], devices: dict[str, DeviceState]) -> None:
    """Deliver centralized notifications to the affected device states."""
    for permanent in notified_ids:
        if permanent in devices:
            devices[permanent].exposure_status = ExposureStatus.NOTIFIED
