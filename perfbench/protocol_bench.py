"""Protocol workload: temporary-id reporting at 1,000 devices.

Set-up registers every device with one centralized and one decentralized
server and plays a 14-day history (the default lookback) at the default
900 s rotation: every device rotates at each epoch, and each day every
device logs exactly one contact, with a partner from a fresh random perfect
matching, at a random epoch of that day. The benchmark keeps its own ledger
of who met whom, which is what every report is checked against.

The timed phase is a run of positive reports, one reporter after another.
Each reporter reports centrally (upload, then ``notify_devices``) and
decentrally (publish, then every device's ``check_exposure``); ``e2e_s`` is
the median time of one reporter's two reports, corrected for host speed
(``hostspeed``).
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from sensetrace.core import ContactDecision, ContactWindow, SensorKind
from sensetrace.protocol import (
    DEFAULT_LOOKBACK_S,
    DEFAULT_ROTATION_PERIOD_S,
    DeviceState,
    ExposureStatus,
    ReportMode,
    ServerState,
    check_exposure,
    exchange_ids,
    notify_devices,
    register_device,
    report_positive_centralized,
    report_positive_decentralized,
    rotate_id,
)

from hostspeed import SpeedClock, hash_probe
from tracing import NullTracer, Tracer

DEVICES = 1000
EPOCHS_PER_DAY = round(86400.0 / DEFAULT_ROTATION_PERIOD_S)
EPOCHS = round(DEFAULT_LOOKBACK_S / DEFAULT_ROTATION_PERIOD_S)  # 1,344 rotations
MIN_REPORTERS = 3
SETUP_REPEATS = 3
# The centralized server tries epochs 0..255 only (ROADMAP open item 4), so
# a centralized entry logged at a later epoch is the one miss this gate
# tolerates; it is counted, never hidden.
RESOLVED_EPOCHS = 256
LAYERS = ("protocol.",)

POSITIVE = ContactDecision(
    appearance=True, mean_distance=0.5, env_score=0.0,
    env_sensor_used=SensorKind.BAROMETER, contact=True,
)


@dataclass
class World:
    central: ServerState
    decentral: ServerState
    devices: list[DeviceState]
    by_id: dict[str, DeviceState]
    # Per device, in logging order: (peer permanent id, epoch) of each contact.
    ledger: dict[str, list[tuple[str, int]]]
    now: float


@dataclass
class Tally:
    """Times and accounting of the reports made so far."""

    # Wall seconds per reporter (probes excluded), and their sum corrected
    # for host speed.
    central_s: list[float] = field(default_factory=list)
    decentral_s: list[float] = field(default_factory=list)
    report_ref_s: list[float] = field(default_factory=list)
    # Per reporting mode: notifications the ledger expects, and those missed.
    expected: Counter = field(default_factory=Counter)
    missed: Counter = field(default_factory=Counter)
    entries: int = 0
    unresolved: int = 0
    published: int = 0
    reporters: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.central_s) + len(self.decentral_s)


def daily_matchings(seed: int, devices: int, days: int) -> dict[int, list[tuple[int, int]]]:
    """Contacts by epoch: one random perfect matching per day, each pair
    meeting at a random epoch of that day."""
    rng = random.Random(seed)
    by_epoch: dict[int, list[tuple[int, int]]] = {}
    for day in range(days):
        order = rng.sample(range(devices), devices)
        for i, j in zip(order[0::2], order[1::2]):
            epoch = day * EPOCHS_PER_DAY + rng.randrange(EPOCHS_PER_DAY)
            by_epoch.setdefault(epoch, []).append((i, j))
    return by_epoch


def build_world(devices: int, epochs: int, contacts: dict[int, list[tuple[int, int]]], tracer=NullTracer()) -> World:
    """Register ``devices``, rotate them all ``epochs`` times, and exchange
    ids for each contact at its epoch."""
    central = ServerState(ReportMode.CENTRALIZED)
    decentral = ServerState(ReportMode.DECENTRALIZED)
    states = []
    with tracer.span("protocol.register"):
        for _ in range(devices):
            device = register_device(central)
            register_device(decentral, device)
            states.append(device)
    ledger: dict[str, list[tuple[str, int]]] = {d.permanent_id: [] for d in states}
    period = DEFAULT_ROTATION_PERIOD_S
    for epoch in range(epochs + 1):
        now = epoch * period
        if epoch:
            with tracer.span("protocol.rotate"):
                for device in states:
                    rotate_id(device, now)
        for i, j in contacts.get(epoch, ()):
            a, b = states[i], states[j]
            window = ContactWindow((a.permanent_id, b.permanent_id), now, now + period, ())
            with tracer.span("protocol.exchange"):
                exchange_ids(a, b, POSITIVE, window)
            ledger[a.permanent_id].append((b.permanent_id, epoch))
            ledger[b.permanent_id].append((a.permanent_id, epoch))
    return World(central, decentral, states, {d.permanent_id: d for d in states}, ledger, epochs * period)


def _reset_exposure(world: World) -> None:
    for device in world.devices:
        device.exposure_status = ExposureStatus.NONE


def _centralized(world: World, reporter: DeviceState, tracer) -> set[str]:
    with tracer.span("protocol.report_centralized"):
        notified = report_positive_centralized(reporter, world.central)
    with tracer.span("protocol.notify"):
        notify_devices(notified, world.by_id)
    return notified


def _decentralized(world: World, reporter: DeviceState, tracer) -> tuple[list, set[str]]:
    with tracer.span("protocol.publish"):
        delta = report_positive_decentralized(reporter, world.decentral, now=world.now)
    with tracer.span("protocol.check_exposure"):
        exposed = {d.permanent_id for d in world.devices if check_exposure(d, delta)}
    return delta, exposed


def report_positive(world: World, reporter: DeviceState, tally: Tally, clock: SpeedClock, tracer=NullTracer()) -> None:
    """Report ``reporter`` in both modes, timing each mode; every expected
    notification is accounted against the ledger outside the timed intervals."""
    rid = reporter.permanent_id
    tally.reporters.append(rid)
    entries = world.ledger[rid]
    expected = {peer for peer, _ in entries}

    _reset_exposure(world)
    before = {p: len(world.central.notifications_sent.get(p, ())) for p in expected}
    notified, wall, central_ref = clock.measure(_centralized, world, reporter, tracer)
    tally.central_s.append(wall)
    tally.entries += len(reporter.contact_log)
    if len(reporter.contact_log) != len(entries):
        tally.problems.append(f"{rid} logged {len(reporter.contact_log)} contacts, ledger has {len(entries)}")
    added = {p: world.central.notifications_sent.get(p, [])[before[p]:] for p in expected}
    for peer, epoch in entries:
        window = (epoch * DEFAULT_ROTATION_PERIOD_S, (epoch + 1) * DEFAULT_ROTATION_PERIOD_S)
        if window in added[peer]:
            added[peer].remove(window)
        else:
            tally.unresolved += 1
            if epoch < RESOLVED_EPOCHS:
                tally.problems.append(f"centralized entry of {rid} at epoch {epoch} not delivered")
    if notified - expected:
        tally.problems.append(f"centralized report of {rid} notified {sorted(notified - expected)}")
    delivered = {p for p in notified if world.by_id[p].exposure_status is ExposureStatus.NOTIFIED}
    tally.expected["centralized"] += len(expected)
    tally.missed["centralized"] += len(expected - delivered)

    _reset_exposure(world)
    (delta, exposed), wall, decentral_ref = clock.measure(_decentralized, world, reporter, tracer)
    tally.decentral_s.append(wall)
    tally.report_ref_s.append(central_ref + decentral_ref)
    tally.published += len(delta)
    if exposed != expected:
        tally.problems.append(
            f"decentralized report of {rid}: {len(expected - exposed)} missed, "
            f"{len(exposed - expected)} exposed without contact"
        )
    tally.expected["decentralized"] += len(expected)
    tally.missed["decentralized"] += len(expected - exposed)


def privacy_problems(world: World, reporters: set[str]) -> list[str]:
    """The invariants ServerState documents: the decentralized server holds
    no contact entry, the centralized one holds lists only from reporters."""
    problems = []
    if world.decentral.contact_entries_held() != 0:
        problems.append("decentralized server holds contact entries")
    if not set(world.central.uploaded_contact_lists) <= reporters:
        problems.append("centralized server holds a list from a non-reporter")
    return problems


def layer_metrics(tracer: Tracer, traced: Tally, devices: int, epochs: int) -> dict[str, float]:
    st = tracer.self_times()
    return {
        "protocol.register_s": st["protocol.register"],
        "protocol.rotate_us": st["protocol.rotate"] / (devices * epochs) * 1e6,
        "protocol.exchange_us": st["protocol.exchange"] / len(tracer.durations("protocol.exchange")) * 1e6,
        "protocol.resolve_ms_per_entry": sum(tracer.durations("protocol.report_centralized")) / traced.entries * 1e3,
        "protocol.entries_uploaded": traced.entries,
        "protocol.entries_unresolved": traced.unresolved,
        "protocol.publish_ms": statistics.median(tracer.durations("protocol.publish")) * 1e3,
        "protocol.check_exposure_ms": statistics.median(tracer.durations("protocol.check_exposure")) * 1e3,
        "protocol.published_ids": traced.published,
        "protocol.central_notify_s_p50": statistics.median(traced.central_s),
        "protocol.decentral_notify_s_p50": statistics.median(traced.decentral_s),
        "protocol.expected_notifications": sum(traced.expected.values()),
        "protocol.missed_notifications": sum(traced.missed.values()),
    }


def run(seed: int, seconds: float, trace: bool, devices: int = DEVICES, epochs: int = EPOCHS):
    """Run the protocol workload; returns (values, attempted, failed, details,
    problems). A report call that raises ends the run, so ``failed`` is 0.

    Untraced: the history is built SETUP_REPEATS times (``setup_s`` is their
    median), then reporters report one after another, at least
    MIN_REPORTERS of them, until ``seconds`` have passed. Traced: one traced
    build, the untraced reports, then the first MIN_REPORTERS reporters
    again, traced; the tracer is returned in ``details["tracer"]``.
    """
    contacts = daily_matchings(seed, devices, -(-epochs // EPOCHS_PER_DAY))
    tracer = Tracer(run_id=f"protocol-seed{seed}") if trace else NullTracer()
    # A traced run probes only between units, so no probe lands in a span.
    clock = SpeedClock(hash_probe, inside=not trace)
    setup_s = []
    world = None
    for _ in range(1 if trace else SETUP_REPEATS):
        world = None  # free the previous history before building the next
        world, _, corrected = clock.measure(build_world, devices, epochs, contacts, tracer)
        setup_s.append(corrected)

    order = random.Random(seed).sample(world.devices, len(world.devices))
    tally = Tally()
    started = time.perf_counter()
    while order and (len(tally.reporters) < MIN_REPORTERS or time.perf_counter() - started < seconds):
        report_positive(world, order.pop(0), tally, clock)

    values = {"e2e_s": statistics.median(tally.report_ref_s), "setup_s": statistics.median(setup_s)}
    details = {
        "devices": devices,
        "rotations": epochs,
        "exchanges": sum(len(v) for v in contacts.values()),
        "reporters": len(tally.reporters),
        "report_wall_s": [c + d for c, d in zip(tally.central_s, tally.decentral_s)],
        "central_notify_s_p50": statistics.median(tally.central_s),
        "decentral_notify_s_p50": statistics.median(tally.decentral_s),
        "missed_notifications": {m: f"{tally.missed[m]}/{n}" for m, n in sorted(tally.expected.items())},
        "probe_s_median": statistics.median(clock.samples),
    }
    attempted = tally.attempted
    problems = list(tally.problems)

    if trace:
        traced = Tally()
        for rid in tally.reporters[:MIN_REPORTERS]:
            report_positive(world, world.by_id[rid], traced, clock, tracer)
        attempted += traced.attempted
        problems += traced.problems
        details["untraced"] = values
        values = layer_metrics(tracer, traced, devices, epochs)
        values["trace.overhead_s"] = (
            statistics.median(traced.report_ref_s) - statistics.median(tally.report_ref_s[:MIN_REPORTERS])
        )
        values["trace.spans"] = len(tracer.spans)
        details["tracer"] = tracer

    problems += privacy_problems(world, set(tally.reporters))
    return values, attempted, 0, details, problems
