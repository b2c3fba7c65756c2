import copy
import dataclasses
import gc
import hashlib
import math
import random
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensetrace import protocol
from sensetrace.core import ContactDecision, ContactWindow, SensorKind, SensorSample
from sensetrace.errors import ModeError, NoContact, NotDue
from sensetrace.protocol import (
    ContactLogEntry,
    DeviceState,
    ExposureStatus,
    PublishedId,
    PublishedIds,
    ReportMode,
    ServerState,
    check_exposure,
    derive_temp_id,
    exchange_ids,
    notify_devices,
    register_device,
    report_positive_centralized,
    report_positive_decentralized,
    rotate_id,
)

from .oracles import (
    EagerDevice,
    eager_report_decentralized,
    eager_rotate,
    exposed_by_scan,
    hexdigest_temp_id,
    report_centralized_per_entry,
    resolve_temp_id,
    temp_id_history,
)


def positive_decision():
    return ContactDecision(True, 0.7, 0.02, SensorKind.BAROMETER, True)


def window(start=0.0, pair=("x", "y")):
    s = SensorSample(start, SensorKind.BLE_RSS, -60.0, src=pair[0], obs=pair[1])
    return ContactWindow(tuple(sorted(pair)), start, start + 900.0, (s,))


def contact(a, b, start=0.0):
    exchange_ids(a, b, positive_decision(), window(start))


class TestRegisterDevice:
    def test_fresh_device_epoch_zero_empty_log(self):
        server = ServerState(ReportMode.CENTRALIZED)
        d = register_device(server)
        assert d.epoch == 0
        assert d.contact_log == []
        assert d.permanent_id in server.registered
        assert d.temp_id != d.permanent_id

    def test_reregistration_idempotent(self):
        server = ServerState(ReportMode.CENTRALIZED)
        d = register_device(server)
        before = set(server.registered)
        d2 = register_device(server, d)
        assert d2 is d
        assert server.registered == before

    def test_n_registrations(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        devices = [register_device(server) for _ in range(7)]
        assert len(server.registered) == 7
        assert len({d.permanent_id for d in devices}) == 7

    def test_minting_skips_registered_ids(self):
        server = ServerState(ReportMode.CENTRALIZED)
        for given in ("dev00000", "dev00002"):
            register_device(server, DeviceState(given))
        minted = [register_device(server).permanent_id for _ in range(3)]
        assert minted == ["dev00001", "dev00003", "dev00004"]
        assert len(server.registered) == 5


class TestRotateId:
    def test_rotation_at_period(self):
        server = ServerState(ReportMode.CENTRALIZED)
        d = register_device(server)
        rotate_id(d, 900.0)
        assert d.epoch == 1

    def test_temp_ids_pairwise_distinct(self):
        server = ServerState(ReportMode.CENTRALIZED)
        d = register_device(server)
        ids = {d.temp_id}
        rotate_id(d, 900.0)
        ids.add(d.temp_id)
        rotate_id(d, 1800.0)
        ids.add(d.temp_id)
        assert len(ids) == 3

    def test_early_rotation_rejected(self):
        server = ServerState(ReportMode.CENTRALIZED)
        d = register_device(server)
        with pytest.raises(NotDue):
            rotate_id(d, 100.0)

    def test_exchange_after_rotation_records_new_id(self):
        # Scripted two-device replay: the peer logs the rotated id only.
        server = ServerState(ReportMode.CENTRALIZED)
        a = register_device(server)
        b = register_device(server)
        old = b.temp_id
        rotate_id(b, 900.0)
        contact(a, b, start=900.0)
        assert a.contact_log[0].peer_temp_id == b.temp_id
        assert a.contact_log[0].peer_temp_id != old

    def test_old_ids_resolvable_by_owner(self):
        server = ServerState(ReportMode.CENTRALIZED)
        d = register_device(server)
        rotate_id(d, 900.0)
        history = temp_id_history(d)
        assert set(history) == {0, 1}
        assert history[0] == derive_temp_id(d.permanent_id, 0)

    def test_device_first_seen_at_a_later_epoch(self):
        # The history and the published epochs match those of an
        # {epoch: start time} table kept beside the device.
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=2000.0)
        d = register_device(server, DeviceState("p5", epoch=5))
        starts = {5: 0.0}
        for k in range(1, 6):
            rotate_id(d, k * 900.0)
            starts[5 + k] = k * 900.0
        history = temp_id_history(d)
        assert list(history) == list(starts)
        assert all(history[e] == derive_temp_id("p5", e) for e in starts)

        now = 6000.0
        expected = [e for e in sorted(starts) if starts.get(e + 1, now) >= now - server.lookback_s]
        report_positive_decentralized(d, server, now=now)
        published = list(server.published_positive_ids)
        assert [p.epoch for p in published] == expected == [9, 10]
        assert [p.temp_id for p in published] == [history[e] for e in expected]


class TestIdDerivedOnRead:
    def test_rotation_derives_no_id_and_a_read_derives_one(self, monkeypatch):
        d = register_device(ServerState(ReportMode.CENTRALIZED))
        derived = []

        def counting(permanent, epoch):
            derived.append((permanent, epoch))
            return derive_temp_id(permanent, epoch)

        monkeypatch.setattr(protocol, "derive_temp_id", counting)
        for k in range(1, 1001):
            rotate_id(d, k * 900.0)
        assert derived == []
        assert d.temp_id == derive_temp_id(d.permanent_id, 1000)
        assert derived == [(d.permanent_id, 1000)]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            DeviceState("p", epoch=-1)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
    def test_epoch_that_is_not_an_int_rejected(self, bad):
        # A bool would derive its id from "p|True" but publish epoch 1's id;
        # a float would fail only at report time.
        with pytest.raises(TypeError, match="epoch must be an int"):
            DeviceState("p", epoch=bad)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.text(max_size=8), st.integers(0, 2**70))
    def test_derivation_matches_hexdigest_reference(self, permanent, epoch):
        assert derive_temp_id(permanent, epoch) == hexdigest_temp_id(permanent, epoch)

    @staticmethod
    def twin_session(seed, mode):
        """One random session played on ``DeviceState``s with the library and
        on ``EagerDevice``s with the reference, checking every identity read
        on the way. Time jumps by up to 300 epochs; each device catches up on
        its rotations, each at its due time, or not; some start past epoch 0
        and the last is never registered. Reports go to the ``mode`` server."""
        rng = random.Random(seed)
        lookback = rng.choice((2000.0, 40 * 900.0, protocol.DEFAULT_LOOKBACK_S))
        server, ref_server = ServerState(mode, lookback_s=lookback), ServerState(mode, lookback_s=lookback)
        firsts = [rng.choice((0, 0, 5, 300)) for _ in range(rng.randint(3, 6))]
        devices = [DeviceState(f"p{k}", epoch=e) for k, e in enumerate(firsts)]
        refs = [EagerDevice.fresh(f"p{k}", e) for k, e in enumerate(firsts)]
        for d, r in zip(devices[:-1], refs[:-1]):
            register_device(server, d)
            register_device(ref_server, r)
        now = 0.0
        for _ in range(rng.randint(5, 15)):
            now += rng.choice((0.0, 900.0, 900.0, 40 * 900.0, 300 * 900.0))
            for d, r in zip(devices, refs):
                if rng.random() < 0.8:
                    while (due_at := d.last_rotation + 900.0) <= now:
                        rotate_id(d, due_at)
                        eager_rotate(r, due_at)
            k = rng.randrange(len(devices))
            due = devices[k].last_rotation + 900.0 <= now
            if due:
                rotate_id(devices[k], now)
                eager_rotate(refs[k], now)
            else:
                with pytest.raises(NotDue):
                    rotate_id(devices[k], now)
                with pytest.raises(NotDue):
                    eager_rotate(refs[k], now)
            for _ in range(rng.randint(0, 3)):
                i, j = rng.sample(range(len(devices)), 2)
                exchange_ids(devices[i], devices[j], positive_decision(), window(now))
                exchange_ids(refs[i], refs[j], positive_decision(), window(now))
            if rng.random() < 0.4:
                k = rng.randrange(len(devices) - 1)
                if mode is ReportMode.CENTRALIZED:
                    notified = report_positive_centralized(devices[k], server)
                    assert notified == report_centralized_per_entry(refs[k], ref_server)
                    notify_devices(notified, {d.permanent_id: d for d in devices})
                    notify_devices(notified, {r.permanent_id: r for r in refs})
                else:
                    delta = report_positive_decentralized(devices[k], server, now)
                    ref_delta = eager_report_decentralized(refs[k], ref_server, now)
                    assert delta == ref_delta
                    assert server.published_positive_ids == ref_server.published_positive_ids
                    for d, r in zip(devices, refs):
                        assert check_exposure(d, delta) == check_exposure(r, ref_delta)
            assert [(d.epoch, d.last_rotation, d.temp_id) for d in devices] == [
                (r.epoch, r.last_rotation, r.temp_id) for r in refs
            ]
        return (server, devices), (ref_server, refs)

    def test_matches_eager_reference(self):
        published = notified = 0
        for seed in range(30):
            for mode in ReportMode:
                (server, devices), (ref_server, refs) = self.twin_session(seed, mode)
                assert [d.contact_log for d in devices] == [r.contact_log for r in refs]
                assert [d.exposure_status for d in devices] == [r.exposure_status for r in refs]
                assert server.registered == ref_server.registered
                assert server.notifications_sent == ref_server.notifications_sent
                assert server.uploaded_contact_lists == ref_server.uploaded_contact_lists
                assert server.published_positive_ids == ref_server.published_positive_ids
                published += len(server.published_positive_ids)
                notified += len(server.notifications_sent)
        # The sessions did publish ids and deliver notifications.
        assert published > 0 and notified > 0

    @staticmethod
    def lookback_to(now, t):
        """A lookback whose cutoff ``now - lookback`` is exactly ``t``, or
        None when no float near ``now - t`` gives it."""
        lookback = now - t
        for _ in range(8):
            if now - lookback == t:
                return lookback
            lookback = math.nextafter(lookback, math.inf if now - lookback > t else -math.inf)
        return None

    def test_off_grid_times_match_eager_reference(self):
        # Start times off the 900 s grid, on-time rotations whose starts
        # accumulate rounding (from 1/3 and pi, repeated addition of 900.0
        # drifts from start + k * 900.0 within a few epochs), late jumps,
        # catch-up at each due time and repeated rotation at one time. Every
        # report delta equals the eager reference's, for lookbacks that cut
        # exactly at epoch ends (inside a run and at a run boundary) and
        # just beside them.
        exact_cuts = cut_sizes = 0
        for seed in range(20):
            rng = random.Random(seed)
            first, start = rng.choice((0, 7)), rng.choice((0.1, 1e9 + 0.3, 1 / 3, math.pi))
            d = DeviceState("p", epoch=first, last_rotation=start)
            r = EagerDevice.fresh("p", first, start)
            now = start
            for _ in range(rng.randint(10, 25)):
                step = rng.choice(("on_time", "on_time", "jump", "catch_up", "repeat"))
                if step == "on_time":
                    for _ in range(rng.randint(1, 40)):
                        now = d.last_rotation + 900.0
                        rotate_id(d, now)
                        eager_rotate(r, now)
                elif step == "jump":
                    now += rng.choice((900.1, 3 * 900.0 + 0.7, 40 * 900.0 + 0.25))
                    rotate_id(d, now)
                    eager_rotate(r, now)
                elif step == "catch_up":
                    now += rng.choice((2.5, 10.0, 40.0)) * 900.0
                    while d.last_rotation + 900.0 <= now:
                        rotate_id(d, d.last_rotation + 900.0)
                        eager_rotate(r, r.last_rotation + 900.0)
                else:
                    now = d.last_rotation + 900.0 + rng.choice((0.0, 0.3))
                    for _ in range(3):
                        if d.last_rotation + 900.0 <= now:
                            rotate_id(d, now)
                            eager_rotate(r, now)
                        else:
                            with pytest.raises(NotDue):
                                rotate_id(d, now)
                            with pytest.raises(NotDue):
                                eager_rotate(r, now)
                assert (d.epoch, d.last_rotation, d.temp_id) == (r.epoch, r.last_rotation, r.temp_id)
            # Report some time after the last rotation.
            now = d.last_rotation + rng.choice((0.0, 450.5))
            # Cut at every run's start and at a sample of other epochs' ends.
            epochs = sorted(r.used)
            run_starts = [e for e in epochs[1:] if r.used[e][1] != r.used[e - 1][1] + 900.0]
            sizes = set()
            for e in set(run_starts + rng.sample(epochs, min(25, len(epochs)))):
                t = r.used[e][1]
                for cut in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf), t + 0.05):
                    lookback = self.lookback_to(now, cut)
                    if lookback is None or lookback < 0:
                        continue
                    exact_cuts += 1
                    server = ServerState(ReportMode.DECENTRALIZED, lookback_s=lookback)
                    ref_server = ServerState(ReportMode.DECENTRALIZED, lookback_s=lookback)
                    delta = report_positive_decentralized(d, server, now)
                    assert delta == eager_report_decentralized(r, ref_server, now)
                    assert server.published_positive_ids == ref_server.published_positive_ids
                    sizes.add(len(server.published_positive_ids))
            cut_sizes += len(sizes)
            server = ServerState(ReportMode.DECENTRALIZED)
            report_positive_decentralized(d, server, None)
            assert list(server.published_positive_ids) == [
                protocol.PublishedId(r.used[e][0], e) for e in sorted(r.used)
            ]
        # The lookbacks did cut exactly at epoch ends, and at many places.
        assert exact_cuts > 1000 and cut_sizes > 200


class TestRotationRuns:
    def test_on_time_rotations_leave_one_run(self):
        d = DeviceState("p")
        for k in range(1, 1345):
            rotate_id(d, k * 900.0)
        assert d.epoch == 1344
        assert d.runs == [(0, 0.0)]

    def test_late_rotation_adds_one_run(self):
        d = DeviceState("p", last_rotation=0.5)
        rotate_id(d, 900.5)
        rotate_id(d, 2000.0)
        assert d.runs == [(0, 0.5), (2, 2000.0)]
        rotate_id(d, 2900.0)
        assert d.runs == [(0, 0.5), (2, 2000.0)]
        rotate_id(d, 3800.25)
        assert d.runs == [(0, 0.5), (2, 2000.0), (4, 3800.25)]

    def test_first_epoch_of_a_later_device(self):
        d = DeviceState("p", epoch=5)
        assert d.runs[0][0] == 5
        assert d.runs == [(5, 0.0)]
        rotate_id(d, 900.0)
        rotate_id(d, 5000.0)
        assert d.runs[0][0] == 5

    def test_runs_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            DeviceState("p", runs=[(0, 0.0)])

    def test_records_are_slotted(self):
        d = DeviceState("p")
        exchange_ids(d, DeviceState("q"), positive_decision(), window())
        for record in (d, d.contact_log[0]):
            assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            d.note = "ad hoc"


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rotation_rejected_and_device_unchanged(self, bad):
        d = DeviceState("p")
        rotate_id(d, 900.0)
        rotate_id(d, 2000.0)
        before = (d.epoch, d.last_rotation, list(d.runs))
        with pytest.raises(ValueError):
            rotate_id(d, bad)
        assert (d.epoch, d.last_rotation, d.runs) == before
        # The rejected time left the schedule as it was.
        with pytest.raises(NotDue):
            rotate_id(d, 2001.0)
        rotate_id(d, 2900.0)
        assert (d.epoch, d.runs) == (3, [(0, 0.0), (2, 2000.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_eager_reference_rejects_alike(self, bad):
        r = EagerDevice.fresh("p")
        with pytest.raises(ValueError):
            eager_rotate(r, bad)
        assert (r.epoch, r.last_rotation, list(r.used)) == (0, 0.0, [0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_construction_rejected(self, bad):
        with pytest.raises(ValueError):
            DeviceState("p", last_rotation=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_decentralized_report_rejected(self, bad):
        server = ServerState(ReportMode.DECENTRALIZED)
        d = register_device(server)
        rotate_id(d, 900.0)
        with pytest.raises(ValueError):
            report_positive_decentralized(d, server, now=bad)
        assert len(server.published_positive_ids) == 0
        assert (d.epoch, d.last_rotation, d.runs) == (1, 900.0, [(0, 0.0)])

    def test_no_time_publishes_every_epoch(self):
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=1.0)
        d = register_device(server)
        rotate_id(d, 900.0)
        rotate_id(d, 5000.0)
        report_positive_decentralized(d, server, now=None)
        assert [p.epoch for p in server.published_positive_ids] == [0, 1, 2]


class TestExchangeIds:
    def test_valid_contact_grows_both_logs(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        assert len(a.contact_log) == 1
        assert len(b.contact_log) == 1
        assert a.contact_log[0].peer_temp_id == b.temp_id
        assert b.contact_log[0].peer_temp_id == a.temp_id

    def test_positive_decision_gives_each_device_one_entry(self):
        # Each side logs the peer's current temporary id, the window bounds
        # and the decision's mean distance: no permanent id, no samples.
        a, b = DeviceState("pa", epoch=3), DeviceState("pb", epoch=9)
        exchange_ids(a, b, positive_decision(), window(1800.0))
        assert a.contact_log == [ContactLogEntry(derive_temp_id("pb", 9), 1800.0, 2700.0, 0.7)]
        assert b.contact_log == [ContactLogEntry(derive_temp_id("pa", 3), 1800.0, 2700.0, 0.7)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.contact_log[0].peer_temp_id = "pb"

    def test_entry_after_the_peer_rotated(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        rotate_id(b, 900.0)
        contact(a, b, start=900.0)
        assert a.contact_log == [
            ContactLogEntry(derive_temp_id(b.permanent_id, 0), 0.0, 900.0, 0.7),
            ContactLogEntry(derive_temp_id(b.permanent_id, 1), 900.0, 1800.0, 0.7),
        ]
        # a did not rotate: b logged a's epoch-0 id both times.
        assert [e.peer_temp_id for e in b.contact_log] == [derive_temp_id(a.permanent_id, 0)] * 2

    def test_two_windows_two_entries(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        contact(a, b, start=900.0)
        for log in (a.contact_log, b.contact_log):
            assert [(e.window_start, e.window_end) for e in log] == [(0.0, 900.0), (900.0, 1800.0)]

    def test_rejected_contact_changes_nothing(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        negative = ContactDecision(True, 2.0, 0.02, SensorKind.BAROMETER, False)
        with pytest.raises(NoContact):
            exchange_ids(a, b, negative, window())
        assert a.contact_log == [] and b.contact_log == []

    def test_three_sequential_contacts_chronological(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        for k in range(3):
            contact(a, b, start=k * 900.0)
        assert len(a.contact_log) == 3
        starts = [e.window_start for e in a.contact_log]
        assert starts == sorted(starts)

    def test_logs_never_contain_permanent_ids(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        rotate_id(b, 900.0)
        contact(a, b, start=900.0)
        for entry in a.contact_log + b.contact_log:
            assert entry.peer_temp_id not in (a.permanent_id, b.permanent_id)


class TestCentralizedReport:
    def test_two_distinct_peers_two_notifications(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b, c = (register_device(server) for _ in range(3))
        contact(a, b)
        contact(a, c, start=900.0)
        notified = report_positive_centralized(a, server)
        assert notified == {b.permanent_id, c.permanent_id}

    def test_empty_log_no_notifications(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a = register_device(server)
        assert report_positive_centralized(a, server) == set()

    def test_peer_in_three_windows_notified_once(self):
        # Deduplication checked against a naive set oracle over the raw log.
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        for k in range(3):
            contact(a, b, start=k * 900.0)
        notified = report_positive_centralized(a, server)
        naive = set()
        for entry in a.contact_log:
            naive.add(b.permanent_id if entry.peer_temp_id in temp_id_history(b).values() else None)
        naive.discard(None)
        assert notified == naive == {b.permanent_id}
        # All three windows still land in the notification record.
        assert len(server.notifications_sent[b.permanent_id]) == 3

    def test_resolves_rotated_ids(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        rotate_id(b, 900.0)
        rotate_id(b, 1800.0)
        contact(a, b, start=1800.0)
        assert report_positive_centralized(a, server) == {b.permanent_id}

    def test_wrong_mode_rejected(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        a = register_device(server)
        with pytest.raises(ModeError):
            report_positive_centralized(a, server)

    @staticmethod
    def random_session(seed):
        """A few registered devices and one never registered, rotating at
        random (past epoch 256 in most sessions); the first device logs
        contacts with the others, some repeatedly."""
        rng = random.Random(seed)
        server = ServerState(ReportMode.CENTRALIZED)
        devices = [register_device(server) for _ in range(rng.randint(2, 4))]
        stranger = DeviceState("stranger")
        reporter, peers = devices[0], devices[1:] + [stranger]
        for step in range(rng.randint(4, 12)):
            for d in devices + [stranger]:
                for _ in range(rng.choice((0, 1, 40, 90))):
                    rotate_id(d, d.last_rotation + 900.0)
            for _ in range(rng.randint(0, 3)):
                contact(reporter, rng.choice(peers), start=step * 900.0)
        return server, reporter

    def test_matches_per_entry_resolution(self):
        unresolved = set()
        for seed in range(30):
            server, reporter = self.random_session(seed)
            expected_server = copy.deepcopy(server)
            notified = report_positive_centralized(reporter, server)
            expected = report_centralized_per_entry(reporter, expected_server)
            assert notified == expected
            assert server.notifications_sent == expected_server.notifications_sent
            assert server.uploaded_contact_lists == expected_server.uploaded_contact_lists
            notified_windows = sum(len(v) for v in server.notifications_sent.values())
            if notified_windows < len(reporter.contact_log):
                unresolved.add(seed)
        # Unresolvable ids (a stranger's, or from epoch 256 on) did occur.
        assert len(unresolved) >= 10

    def test_one_registry_pass_per_report(self, monkeypatch):
        # The strangers' ids never resolve, so the pass covers the whole
        # registry: each registered device's prefix is hashed once, and each
        # of its 256 epochs copies that state once.
        server = ServerState(ReportMode.CENTRALIZED)
        reporter, peer = register_device(server), register_device(server)
        strangers = [DeviceState(f"s{k}") for k in range(3)]
        for k, stranger in enumerate(strangers):
            contact(reporter, stranger, start=k * 900.0)
        contact(reporter, peer, start=2700.0)
        prefixes, copies = [], []

        class Counting:
            def __init__(self, h):
                self.h = h

            def copy(self):
                copies.append(1)
                return Counting(self.h.copy())

            def update(self, data):
                self.h.update(data)

            def digest(self):
                return self.h.digest()

        def sha256(data):
            prefixes.append(data)
            return Counting(hashlib.sha256(data))

        monkeypatch.setattr(protocol, "hashlib", types.SimpleNamespace(sha256=sha256))
        assert report_positive_centralized(reporter, server) == {peer.permanent_id}
        assert sorted(prefixes) == [f"{p}|".encode() for p in sorted(server.registered)]
        assert len(copies) == len(server.registered) * 256

    MALFORMED = {
        "as derived": lambda t: t,
        "uppercase hex": lambda t: "t" + t[1:].upper(),
        "uppercase t": lambda t: "T" + t[1:],
        "no t": lambda t: t[1:],
        "no t, 17 characters": lambda t: t[1:] + "0",
        "16 characters": lambda t: t[:16],
        "18 characters": lambda t: t + "0",
        "non-hex digit": lambda t: t[:9] + "g" + t[10:],
        "spaces between bytes": lambda t: t[:3] + " " + t[3:9] + " " + t[9:15],
    }

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(st.integers(0, 3), st.integers(250, 300)),
                st.sampled_from(sorted(MALFORMED)),
            ),
            max_size=8,
        ),
        st.integers(0, 3),
    )
    def test_batch_resolution_matches_per_id_resolution(self, registry, draws, repeats):
        # Ids of registered devices and of a stranger, from epochs below and
        # above the 256-epoch bound, some malformed and some repeated: each
        # maps to the device the per-id search finds, or is absent.
        server = ServerState(ReportMode.CENTRALIZED, registered=set(registry))
        owners = registry + ["stranger"]
        wanted = [self.MALFORMED[kind](hexdigest_temp_id(owners[k % len(owners)], e)) for k, e, kind in draws]
        wanted += wanted[:repeats]
        expected = {w: peer for w in wanted if (peer := resolve_temp_id(server, w)) is not None}
        assert protocol._resolve_temp_ids(server, wanted) == expected

    @staticmethod
    def two_contacts(lookback_s):
        """``a`` met ``b`` in [0, 900] and ``c`` in [1800, 2700]."""
        server = ServerState(ReportMode.CENTRALIZED, lookback_s=lookback_s)
        a, b, c = (register_device(server) for _ in range(3))
        contact(a, b)
        contact(a, c, start=1800.0)
        return server, a, b, c

    def test_entry_ending_exactly_at_the_cutoff_is_reported(self):
        server, a, b, c = self.two_contacts(1000.0)
        expected_server = copy.deepcopy(server)
        now = 1900.0
        assert now - server.lookback_s == a.contact_log[0].window_end
        assert report_positive_centralized(a, server, now=now) == {b.permanent_id, c.permanent_id}
        assert report_centralized_per_entry(a, expected_server, now=now) == {b.permanent_id, c.permanent_id}
        assert server.uploaded_contact_lists == {a.permanent_id: a.contact_log}
        assert expected_server.uploaded_contact_lists == server.uploaded_contact_lists
        assert server.notifications_sent == expected_server.notifications_sent

    def test_entry_ending_just_before_the_cutoff_is_left_out(self):
        server, a, b, c = self.two_contacts(1000.0)
        expected_server = copy.deepcopy(server)
        now = math.nextafter(1900.0, math.inf)
        assert now - server.lookback_s > a.contact_log[0].window_end
        assert report_positive_centralized(a, server, now=now) == {c.permanent_id}
        assert report_centralized_per_entry(a, expected_server, now=now) == {c.permanent_id}
        # Neither uploaded nor notified.
        assert server.uploaded_contact_lists == expected_server.uploaded_contact_lists == {
            a.permanent_id: a.contact_log[1:]
        }
        assert server.notifications_sent == expected_server.notifications_sent == {
            c.permanent_id: [(1800.0, 2700.0)]
        }

    def test_no_report_time_reports_every_entry(self):
        server, a, b, c = self.two_contacts(1.0)
        assert report_positive_centralized(a, server) == {b.permanent_id, c.permanent_id}
        assert server.uploaded_contact_lists == {a.permanent_id: a.contact_log}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_report_time_rejected(self, bad):
        server, a, b, c = self.two_contacts(1000.0)
        with pytest.raises(ValueError):
            report_positive_centralized(a, server, now=bad)
        assert server.uploaded_contact_lists == {} and server.notifications_sent == {}

    def test_report_time_matches_per_entry_resolution(self):
        cut = 0
        for seed in range(30):
            server, reporter = self.random_session(seed)
            rng = random.Random(seed)
            server.lookback_s = rng.choice((900.0, 2000.0, 4500.0))
            now = rng.choice((2700.0, 5400.0, 8100.0, 10800.0))
            expected_server = copy.deepcopy(server)
            notified = report_positive_centralized(reporter, server, now=now)
            assert notified == report_centralized_per_entry(reporter, expected_server, now=now)
            assert server.notifications_sent == expected_server.notifications_sent
            assert server.uploaded_contact_lists == expected_server.uploaded_contact_lists
            kept = len(server.uploaded_contact_lists[reporter.permanent_id])
            cut += 0 < kept < len(reporter.contact_log)
        # The lookback did cut logs, keeping some entries and leaving out others.
        assert cut >= 10

    def test_notify_devices_flips_status(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        notified = report_positive_centralized(a, server)
        devices = {d.permanent_id: d for d in (a, b)}
        notify_devices(notified, devices)
        assert b.exposure_status is ExposureStatus.NOTIFIED
        assert a.exposure_status is ExposureStatus.NONE


class TestDecentralizedReport:
    def test_reported_peer_in_log_is_exposed(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        published = report_positive_decentralized(b, server)
        assert published == {b.temp_id}
        assert check_exposure(a, published) is True
        assert a.exposure_status is ExposureStatus.NOTIFIED

    def test_no_overlap_not_exposed(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b, c = (register_device(server) for _ in range(3))
        contact(a, b)
        assert check_exposure(a, report_positive_decentralized(c, server)) is False

    def test_rotated_out_epoch_still_matches_within_lookback(self):
        # Scripted multi-epoch replay: the contact used b's epoch-0 id, b
        # rotates twice, then reports; the published list includes the old
        # epoch and the match still fires.
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        rotate_id(b, 900.0)
        rotate_id(b, 1800.0)
        published = report_positive_decentralized(b, server, now=2700.0)
        assert {p.epoch for p in server.published_positive_ids} == {0, 1, 2}
        assert check_exposure(a, published) is True

    def test_lookback_excludes_ancient_epochs(self):
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=1000.0)
        a, b = register_device(server), register_device(server)
        contact(a, b)  # logs epoch-0 id at t=0
        rotate_id(b, 900.0)
        rotate_id(b, 1800.0)
        # Lookback window is [4000, 5000]: epochs 0 and 1 ended before it.
        published = report_positive_decentralized(b, server, now=5000.0)
        assert {p.epoch for p in server.published_positive_ids} == {2}
        assert check_exposure(a, published) is False

    def test_wrong_mode_rejected(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a = register_device(server)
        with pytest.raises(ModeError):
            report_positive_decentralized(a, server)

    @pytest.mark.parametrize("shape", ["list of ids", "list of PublishedIds", "public list", "tuple", "dict"])
    def test_published_ids_must_be_a_set(self, shape):
        # Any of these would once have matched nothing, silently.
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        published = report_positive_decentralized(b, server)
        given_as = {
            "list of ids": list(published),
            "list of PublishedIds": list(server.published_positive_ids),
            "public list": server.published_positive_ids,
            "tuple": tuple(published),
            "dict": dict.fromkeys(published),
        }[shape]
        with pytest.raises(TypeError, match="must be a set"):
            check_exposure(a, given_as)
        assert a.exposure_status is ExposureStatus.NONE

    POOL = [hexdigest_temp_id("p", k) for k in range(12)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.one_of(st.sampled_from(POOL), st.text(max_size=3)), max_size=10),
        st.lists(st.sampled_from(POOL), max_size=10),
    )
    def test_matches_scan_of_every_published_id(self, logged, ids):
        device = DeviceState("d")
        device.contact_log.extend(ContactLogEntry(peer, 0.0, 900.0, 0.5) for peer in logged)
        published = [PublishedId(i, k) for k, i in enumerate(ids)]
        exposed = exposed_by_scan(device, published)
        assert check_exposure(device, frozenset(ids)) is exposed
        assert (device.exposure_status is ExposureStatus.NOTIFIED) is exposed


class TestLookback:
    @pytest.mark.parametrize("mode", list(ReportMode))
    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf, -5e-324])
    def test_nan_or_negative_lookback_rejected(self, mode, bad):
        # A NaN lookback once made a centralized report notify nobody while
        # the decentralized report of the same contact exposed the peer.
        with pytest.raises(ValueError, match="lookback_s"):
            ServerState(mode, lookback_s=bad)

    @pytest.mark.parametrize("mode", list(ReportMode))
    def test_infinite_lookback_reports_everything(self, mode):
        server = ServerState(mode, lookback_s=math.inf)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        for k in range(1, 4):
            rotate_id(b, k * 900.0)
        now = 1e9
        if mode is ReportMode.CENTRALIZED:
            assert report_positive_centralized(a, server, now=now) == {b.permanent_id}
        else:
            assert check_exposure(a, report_positive_decentralized(b, server, now=now))
            assert [p.epoch for p in server.published_positive_ids] == [0, 1, 2, 3]


class TestPrivacyInvariants:
    def run_random_session(self, seed, mode):
        rng = random.Random(seed)
        server = ServerState(mode)
        devices = [register_device(server) for _ in range(5)]
        now = 0.0
        exchanges = []
        for _ in range(rng.randint(3, 12)):
            action = rng.random()
            if action < 0.5:
                a, b = rng.sample(devices, 2)
                contact(a, b, start=now)
                exchanges.append((a, b))
            elif action < 0.8:
                d = rng.choice(devices)
                try:
                    rotate_id(d, now)
                except NotDue:
                    pass
            now += 900.0
        return server, devices, exchanges, now

    def test_decentralized_server_never_holds_contact_entries(self):
        for seed in range(60):
            server, devices, exchanges, now = self.run_random_session(
                seed, ReportMode.DECENTRALIZED
            )
            if exchanges:
                reporter = exchanges[-1][1]
                report_positive_decentralized(reporter, server, now=now)
            assert server.contact_entries_held() == 0
            assert server.uploaded_contact_lists == {}

    def test_centralized_server_holds_lists_only_from_reporters(self):
        for seed in range(60):
            server, devices, exchanges, now = self.run_random_session(
                seed, ReportMode.CENTRALIZED
            )
            if not exchanges:
                continue
            reporter = exchanges[0][0]
            report_positive_centralized(reporter, server)
            assert set(server.uploaded_contact_lists) == {reporter.permanent_id}

    def test_every_true_contact_with_later_positive_is_surfaced(self):
        for seed in range(40):
            for mode in ReportMode:
                server, devices, exchanges, now = self.run_random_session(seed, mode)
                if not exchanges:
                    continue
                reporter = exchanges[-1][0]
                partners = {
                    b.permanent_id if a is reporter else a.permanent_id
                    for a, b in exchanges
                    if reporter in (a, b)
                }
                if mode is ReportMode.CENTRALIZED:
                    notified = report_positive_centralized(reporter, server)
                    assert partners <= notified
                else:
                    published = report_positive_decentralized(reporter, server, now=now)
                    for d in devices:
                        if d.permanent_id in partners:
                            assert check_exposure(d, published)


class TestModesAgree:
    @staticmethod
    def history(seed):
        """Registered devices that rotate at random and log contacts through
        ``exchange_ids`` with sample-free windows, as the phones do, over at
        most 40 steps: below epoch 256 and well inside the lookback."""
        rng = random.Random(seed)
        central, decentral = ServerState(ReportMode.CENTRALIZED), ServerState(ReportMode.DECENTRALIZED)
        devices = [register_device(decentral, register_device(central)) for _ in range(rng.randint(3, 8))]
        now = 0.0
        for _ in range(rng.randint(1, 40)):
            now += 900.0 * rng.choice((1, 1, 2, 5))
            for d in devices:
                if rng.random() < 0.5:
                    rotate_id(d, now)
            for _ in range(rng.randint(0, 3)):
                a, b = rng.sample(devices, 2)
                pair = (a.permanent_id, b.permanent_id)
                exchange_ids(a, b, positive_decision(), ContactWindow(pair, now, now + 900.0, ()))
        return central, decentral, devices, now

    def test_centralized_notifies_whom_decentralized_exposes(self):
        told = 0
        for seed in range(40):
            central, decentral, devices, now = self.history(seed)
            assert max(d.epoch for d in devices) < 256
            reporter = random.Random(seed).choice(devices)
            notified = report_positive_centralized(reporter, central)
            published = report_positive_decentralized(reporter, decentral, now=now)
            exposed = {d.permanent_id for d in devices if check_exposure(d, published)}
            assert notified == exposed, seed
            told += bool(notified)
        assert told >= 20  # most reporters had contacts to tell


def published(permanent="p", epochs=range(3)):
    return [PublishedId(derive_temp_id(permanent, e), e) for e in epochs]


class TestPublishedIds:
    def test_equals_the_list_of_the_same_ids(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        devices = [register_device(server) for _ in range(3)]
        rotate_id(devices[1], 900.0)
        deltas = [report_positive_decentralized(d, server, now=900.0) for d in devices]
        expected = [PublishedId(derive_temp_id(d.permanent_id, e), e) for d in devices for e in range(d.epoch + 1)]
        assert all(isinstance(delta, frozenset) for delta in deltas)
        assert [set(delta) for delta in deltas] == [
            {derive_temp_id(d.permanent_id, e) for e in range(d.epoch + 1)} for d in devices
        ]
        ids = server.published_positive_ids
        assert isinstance(ids, PublishedIds)
        assert list(ids) == expected and len(ids) == len(expected)
        assert len(PublishedIds()) == 0 and not PublishedIds()
        assert copy.deepcopy(ids) == ids
        # Equality compares ids and epochs with another public list only.
        shifted = PublishedIds()
        shifted.extend(expected[:-1] + [PublishedId(expected[-1].temp_id, expected[-1].epoch + 1)])
        assert shifted != ids and ids != expected
        # Two servers with the same reports are equal, and differ once one
        # server publishes more.
        other = ServerState(ReportMode.DECENTRALIZED, registered=set(server.registered), _counter=server._counter)
        for d in devices:
            report_positive_decentralized(d, other, now=900.0)
        assert other == server
        report_positive_decentralized(devices[0], other, now=900.0)
        assert other != server
        with pytest.raises(TypeError):
            hash(ids)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.text(max_size=6), st.integers(0, 2**63))), st.integers(0, 10))
    def test_round_trip(self, draws, split):
        items = [PublishedId(derive_temp_id(permanent, e), e) for permanent, e in draws]
        ids = PublishedIds()
        ids.extend(items[:split])
        ids.extend(items[split:])
        assert len(ids) == len(items)
        assert list(ids) == items

    GOOD = derive_temp_id("p", 0)
    BAD = {
        "wrong prefix": PublishedId("u" + GOOD[1:], 0),
        "short": PublishedId(GOOD[:-1], 0),
        "long": PublishedId(GOOD + "0", 0),
        "no prefix": PublishedId(GOOD[1:] + "0", 0),
        "t moved": PublishedId(GOOD[1] + "t" + GOOD[2:], 0),
        "uppercase hex": PublishedId("tA" + GOOD[2:], 0),
        "embedded space": PublishedId(GOOD[:8] + " " + GOOD[9:], 0),
        "non-hex digit": PublishedId(GOOD[:8] + "g" + GOOD[9:], 0),
        "second t": PublishedId(GOOD[:8] + "t" + GOOD[9:], 0),
        "negative epoch": PublishedId(GOOD, -1),
        "epoch 2**64": PublishedId(GOOD, 2**64),
        "bool epoch": PublishedId(GOOD, True),
        "float epoch": PublishedId(GOOD, 1.0),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_bad_item_rejected_and_nothing_appended(self, case):
        bad = self.BAD[case]
        ids = PublishedIds()
        ids.extend(published())
        before = list(ids)
        with pytest.raises(ValueError, match="not a publishable id") as err:
            ids.extend(published("q") + [bad, bad] + published("r"))
        assert repr(bad) in str(err.value)
        assert list(ids) == before and len(ids) == 3

    def test_public_list_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            ServerState(ReportMode.DECENTRALIZED, published_positive_ids=[])

    def test_widest_epochs_accepted(self):
        items = [PublishedId(self.GOOD, 0), PublishedId(self.GOOD, 2**64 - 1)]
        ids = PublishedIds()
        ids.extend(items)
        assert list(ids) == items

    def test_retains_at_most_24_bytes_per_published_id(self):
        # Ten devices with a 14-day history (1,344 rotations each) report
        # decentrally. A list of PublishedId objects retains about 149 bytes
        # per id; the packed list about 16.
        server = ServerState(ReportMode.DECENTRALIZED)
        devices = [register_device(server) for _ in range(10)]
        for k in range(1, 1345):
            for d in devices:
                rotate_id(d, k * 900.0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for d in devices:
                report_positive_decentralized(d, server, now=1344 * 900.0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(server.published_positive_ids) == 10 * 1345
        assert retained <= 24 * len(server.published_positive_ids), retained / len(server.published_positive_ids)
