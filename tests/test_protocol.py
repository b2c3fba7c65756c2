import copy
import dataclasses
import gc
import hashlib
import math
import random
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensetrace import protocol
from sensetrace.core import ContactDecision, ContactWindow, SensorKind, SensorSample
from sensetrace.errors import ModeError, NoContact, NotDue
from sensetrace.protocol import (
    ContactLogEntry,
    DeviceState,
    ExposureStatus,
    ReportMode,
    ServerState,
    check_exposure,
    day_key,
    derive_temp_id,
    exchange_ids,
    notify_devices,
    register_device,
    report_positive_centralized,
    report_positive_decentralized,
    rotate_id,
)

from .oracles import (
    ClockDevice,
    clock_epoch,
    clock_report_decentralized,
    clock_rotate,
    expand_public_list,
    exposed_by_scan,
    hexdigest_day_key,
    hexdigest_temp_id,
    report_centralized_per_entry,
    resolve_logged_id,
    resolve_temp_id,
    temp_id_history,
)


def positive_decision():
    return ContactDecision(True, 0.7, 0.02, SensorKind.BAROMETER, True)


def window(a, b, start=0.0):
    """A 900 s window of ``a`` and ``b`` from ``start``, with one BLE sample."""
    s = SensorSample(start, SensorKind.BLE_RSS, -60.0, src=a.permanent_id, obs=b.permanent_id)
    return ContactWindow(tuple(sorted((a.permanent_id, b.permanent_id))), start, start + 900.0, (s,))


def contact(a, b, start=0.0):
    exchange_ids(a, b, positive_decision(), window(a, b, start))


def secret(k):
    """A fixed 16-byte secret, so that a test's ids are fixed too."""
    return hashlib.sha256(f"secret {k}".encode()).digest()[:16]


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

    def test_counter_is_not_a_constructor_argument(self):
        # A counter set at construction once made the server mint dev-0005.
        with pytest.raises(TypeError):
            ServerState(ReportMode.CENTRALIZED, _counter=-5)
        assert register_device(ServerState(ReportMode.CENTRALIZED)).permanent_id == "dev00000"

    @pytest.mark.parametrize("field", ["registered", "device_secrets", "published_positive_ids"])
    def test_registry_and_public_list_are_not_constructor_arguments(self, field):
        # Ids registered at construction would have had no secret to resolve by.
        with pytest.raises(TypeError):
            ServerState(ReportMode.CENTRALIZED, **{field: {}})

    def test_only_a_centralized_server_learns_secrets(self):
        central, decentral = ServerState(ReportMode.CENTRALIZED), ServerState(ReportMode.DECENTRALIZED)
        devices = [register_device(decentral, register_device(central)) for _ in range(3)]
        assert central.device_secrets == {d.permanent_id: d.secret for d in devices}
        assert decentral.device_secrets == {}
        assert central.registered == decentral.registered == {d.permanent_id for d in devices}

    def test_reregistration_under_another_secret_rejected(self):
        central, decentral = ServerState(ReportMode.CENTRALIZED), ServerState(ReportMode.DECENTRALIZED)
        first = DeviceState("p", secret=secret(1))
        for server in (central, decentral):
            register_device(server, first)
            assert register_device(server, DeviceState("p", secret=secret(1))).secret == first.secret
        with pytest.raises(ValueError, match="another secret"):
            register_device(central, DeviceState("p", secret=secret(2)))
        assert central.device_secrets == {"p": secret(1)}
        # The decentralized server holds no secret to compare with.
        register_device(decentral, DeviceState("p", secret=secret(2)))
        assert decentral.registered == {"p"}

    @pytest.mark.parametrize("mode", ["CENTRALIZED", None, 1])
    def test_mode_that_is_not_a_report_mode_rejected(self, mode):
        # ServerState("CENTRALIZED") was once accepted, and each report to it
        # then failed with ModeError.
        with pytest.raises(TypeError, match="mode must be a ReportMode"):
            ServerState(mode)


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
        assert history[0] == derive_temp_id(d.secret, 0)

    def test_device_first_seen_at_a_later_epoch(self):
        # A device that starts at epoch 5 and rotates on the clock publishes
        # the clock epochs inside the lookback; with no report time, every
        # epoch from 0, before it existed too.
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=2000.0)
        d = register_device(server, DeviceState("p5", epoch=5, secret=secret(5)))
        for k in range(6, 11):
            rotate_id(d, k * 900.0)
        assert d.epoch == 10
        # The cut is 7500 s: epoch 7 ended at 7200 s, epoch 8 at 8100 s.
        delta = report_positive_decentralized(d, server, now=9500.0)
        key = hexdigest_day_key(secret(5), 0)
        assert server.published_positive_ids == [(key, 8, 10)]
        assert delta == {derive_temp_id(secret(5), e) for e in (8, 9, 10)}
        assert expand_public_list(server.published_positive_ids) == [temp_id_history(d)[e] for e in (8, 9, 10)]
        report_positive_decentralized(d, server)
        assert server.published_positive_ids[1:] == [(key, 0, 10)]

    def test_late_rotation_skips_epochs(self):
        # A phone asleep from 900 s to 5000 s rotates once, into the clock's
        # epoch 5; its report still publishes an id for epochs 2 to 4.
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        rotate_id(b, 900.0)
        contact(a, b, start=900.0)
        rotate_id(b, 5000.0)
        assert b.epoch == 5 and b.temp_id == derive_temp_id(b.secret, 5)
        published = report_positive_decentralized(b, server, now=5000.0)
        assert server.published_positive_ids == [(day_key(b.secret, 0), 0, 5)]
        assert check_exposure(a, published)


class TestIdDerivedOnRead:
    def test_rotation_derives_no_id_and_a_read_derives_one(self, monkeypatch):
        d = register_device(ServerState(ReportMode.CENTRALIZED))
        derived = []

        def counting(key, epoch):
            derived.append((key, epoch))
            return derive_temp_id(key, epoch)

        monkeypatch.setattr(protocol, "derive_temp_id", counting)
        for k in range(1, 1001):
            rotate_id(d, k * 900.0)
        assert derived == []
        assert d.temp_id == derive_temp_id(d.secret, 1000)
        assert derived == [(d.secret, 1000)]

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            DeviceState("p", epoch=-1)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
    def test_epoch_that_is_not_an_int_rejected(self, bad):
        # A bool would derive its id from "p|True" but publish epoch 1's id;
        # a float would fail only at report time.
        with pytest.raises(TypeError, match="epoch must be an int"):
            DeviceState("p", epoch=bad)

    @pytest.mark.parametrize("bad", [5, None, b"p", ("p",)])
    def test_permanent_id_that_is_not_a_str_rejected(self, bad):
        # DeviceState(5) was once accepted, and a centralized report with it
        # registered then failed sorting the registry of str and int ids.
        with pytest.raises(TypeError, match="permanent_id must be a str"):
            DeviceState(bad)

    def test_empty_permanent_id_rejected(self):
        with pytest.raises(ValueError, match="permanent_id must not be empty"):
            DeviceState("")

    @pytest.mark.parametrize("bad", [bytearray(16), "x" * 16, None, list(range(16))])
    def test_secret_that_is_not_bytes_rejected(self, bad):
        with pytest.raises(TypeError, match="secret must be bytes"):
            DeviceState("p", secret=bad)

    @pytest.mark.parametrize("size", [0, 15, 17, 32])
    def test_secret_of_another_length_rejected(self, size):
        with pytest.raises(ValueError, match="secret must be 16 bytes"):
            DeviceState("p", secret=bytes(size))

    def test_secret_is_random_and_out_of_the_repr(self):
        a, b = DeviceState("p"), DeviceState("p")
        assert len(a.secret) == 16 and a.secret != b.secret and a.temp_id != b.temp_id
        assert a.secret.hex() not in repr(a) and "secret" not in repr(a)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.binary(min_size=16, max_size=16), st.integers(0, 2**70))
    def test_derivation_matches_hexdigest_reference(self, key, epoch):
        assert day_key(key, epoch // 96) == hexdigest_day_key(key, epoch // 96)
        assert derive_temp_id(key, epoch) == hexdigest_temp_id(key, epoch)

    @staticmethod
    def twin_session(seed, mode):
        """One random session played on ``DeviceState``s with the library and
        on ``ClockDevice``s with the reference, checking every identity read
        on the way. Time moves on by up to 300 epochs, on and off the 900 s
        grid, or not at all; each device rotates to the clock's epoch, or
        sleeps. Some start past epoch 0, ahead of the clock, and report only
        once it has caught up; the last is never registered. Reports go to
        the ``mode`` server."""
        rng = random.Random(seed)
        lookback = rng.choice((2000.0, 40 * 900.0, protocol.DEFAULT_LOOKBACK_S))
        server, ref_server = ServerState(mode, lookback_s=lookback), ServerState(mode, lookback_s=lookback)
        firsts = [rng.choice((0, 0, 5, 300)) for _ in range(rng.randint(3, 6))]
        devices = [DeviceState(f"p{k}", epoch=e, secret=secret(k)) for k, e in enumerate(firsts)]
        refs = [ClockDevice(f"p{k}", e, secret=secret(k)) for k, e in enumerate(firsts)]
        for d, r in zip(devices[:-1], refs[:-1]):
            register_device(server, d)
            register_device(ref_server, r)
        now = 0.0
        for _ in range(rng.randint(5, 15)):
            now += rng.choice((0.0, 450.5, 900.0, 900.0, 40 * 900.0, 300 * 900.0))
            for d, r in zip(devices, refs):
                if rng.random() < 0.2:
                    continue
                if clock_epoch(now) > r.epoch:
                    rotate_id(d, now)
                    clock_rotate(r, now)
                else:
                    with pytest.raises(NotDue):
                        rotate_id(d, now)
                    with pytest.raises(NotDue):
                        clock_rotate(r, now)
            for _ in range(rng.randint(0, 3)):
                i, j = rng.sample(range(len(devices)), 2)
                exchange_ids(devices[i], devices[j], positive_decision(), window(devices[i], devices[j], now))
                exchange_ids(refs[i], refs[j], positive_decision(), window(refs[i], refs[j], now))
            if rng.random() < 0.4:
                k = rng.randrange(len(devices) - 1)
                if mode is ReportMode.CENTRALIZED:
                    notified = report_positive_centralized(devices[k], server)
                    assert notified == report_centralized_per_entry(refs[k], ref_server)
                    notify_devices(notified, {d.permanent_id: d for d in devices})
                    notify_devices(notified, {r.permanent_id: r for r in refs})
                elif clock_epoch(now) < refs[k].epoch:
                    with pytest.raises(ValueError):
                        report_positive_decentralized(devices[k], server, now)
                    with pytest.raises(ValueError):
                        clock_report_decentralized(refs[k], ref_server, now)
                else:
                    delta = report_positive_decentralized(devices[k], server, now)
                    ref_delta = clock_report_decentralized(refs[k], ref_server, now)
                    assert delta == ref_delta
                    assert server.published_positive_ids == ref_server.published_positive_ids
                    for d, r in zip(devices, refs):
                        assert check_exposure(d, delta) == check_exposure(r, ref_delta)
            assert [(d.epoch, d.temp_id) for d in devices] == [(r.epoch, r.temp_id) for r in refs]
        return (server, devices), (ref_server, refs)

    def test_matches_clock_reference(self):
        published = notified = 0
        for seed in range(30):
            for mode in ReportMode:
                (server, devices), (ref_server, refs) = self.twin_session(seed, mode)
                assert [d.contact_log for d in devices] == [r.contact_log for r in refs]
                assert [d.exposure_status for d in devices] == [r.exposure_status for r in refs]
                assert server.registered == ref_server.registered
                assert server.device_secrets == ref_server.device_secrets
                assert server.notifications_sent == ref_server.notifications_sent
                assert server.uploaded_contact_lists == ref_server.uploaded_contact_lists
                assert server.published_positive_ids == ref_server.published_positive_ids
                published += len(expand_public_list(server.published_positive_ids))
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

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.sampled_from((0.0, 1 / 3, math.pi)),
        st.lists(
            st.tuples(st.sampled_from((0, 1, 1, 2, 3, 40)), st.sampled_from((0.0, 0.0, 0.25, 450.5))),
            min_size=1,
            max_size=8,
        ),
    )
    def test_off_grid_times_match_clock_reference(self, offset, steps):
        # Rotation times from an offset of 0, 1/3 or pi: on-time steps of one
        # period, whose sum drifts from offset + k * 900.0 by rounding, late
        # jumps of several, off-grid extras and repeated times (a step of 0).
        # After each, the device is in the clock's epoch of that time, and
        # every report agrees with the clock reference, for lookbacks that
        # cut exactly at an epoch's end and one ulp to either side.
        d = DeviceState("p", secret=secret(0))
        t = offset
        for periods, extra in steps:
            t += periods * 900.0 + extra
            if clock_epoch(t) > d.epoch:
                rotate_id(d, t)
            else:
                with pytest.raises(NotDue):
                    rotate_id(d, t)
            assert d.epoch == math.floor(t / 900.0) == clock_epoch(t)
            assert d.temp_id == hexdigest_temp_id(secret(0), d.epoch)
            cuts = 0
            for e in {0, d.epoch // 2, d.epoch - 2, d.epoch - 1} - {-2, -1}:
                end = (e + 1) * 900.0
                for cut in (end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)):
                    lookback = self.lookback_to(t, cut)
                    if lookback is None or lookback < 0:
                        continue
                    cuts += 1
                    server = ServerState(ReportMode.DECENTRALIZED, lookback_s=lookback)
                    ref_server = ServerState(ReportMode.DECENTRALIZED, lookback_s=lookback)
                    delta = report_positive_decentralized(d, server, t)
                    assert delta == clock_report_decentralized(d, ref_server, t)
                    assert server.published_positive_ids == ref_server.published_positive_ids
            # The lookbacks did cut at the end of the epoch before the current one.
            assert cuts or d.epoch == 0
        server, ref_server = ServerState(ReportMode.DECENTRALIZED), ServerState(ReportMode.DECENTRALIZED)
        assert report_positive_decentralized(d, server) == clock_report_decentralized(d, ref_server, None)
        assert server.published_positive_ids == ref_server.published_positive_ids


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rotation_rejected_and_device_unchanged(self, bad):
        d = DeviceState("p")
        rotate_id(d, 900.0)
        rotate_id(d, 2000.0)
        with pytest.raises(ValueError):
            rotate_id(d, bad)
        assert d.epoch == 2
        # The rejected time left the device in its epoch.
        with pytest.raises(NotDue):
            rotate_id(d, 2001.0)
        rotate_id(d, 2900.0)
        assert d.epoch == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_clock_reference_rejects_alike(self, bad):
        r = ClockDevice("p")
        with pytest.raises(ValueError):
            clock_rotate(r, bad)
        assert r.epoch == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_construction_rejected(self, bad):
        # A device holds no time, and its epoch must be an int.
        with pytest.raises(TypeError, match="epoch must be an int"):
            DeviceState("p", epoch=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_decentralized_report_rejected(self, bad):
        server = ServerState(ReportMode.DECENTRALIZED)
        d = register_device(server)
        rotate_id(d, 900.0)
        with pytest.raises(ValueError):
            report_positive_decentralized(d, server, now=bad)
        assert len(server.published_positive_ids) == 0
        assert d.epoch == 1

    def test_no_time_publishes_every_epoch(self):
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=1.0)
        d = register_device(server)
        rotate_id(d, 900.0)
        rotate_id(d, 5000.0)
        report_positive_decentralized(d, server, now=None)
        assert server.published_positive_ids == [(day_key(d.secret, 0), 0, 5)]


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
        # Each side logs the peer's current temporary id and epoch, the
        # window bounds and the decision's mean distance: no permanent id,
        # no samples.
        a, b = DeviceState("pa", epoch=3), DeviceState("pb", epoch=9)
        exchange_ids(a, b, positive_decision(), window(a, b, 1800.0))
        assert a.contact_log == [ContactLogEntry(derive_temp_id(b.secret, 9), 9, 1800.0, 2700.0, 0.7)]
        assert b.contact_log == [ContactLogEntry(derive_temp_id(a.secret, 3), 3, 1800.0, 2700.0, 0.7)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.contact_log[0].peer_temp_id = "pb"

    def test_entry_after_the_peer_rotated(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        rotate_id(b, 900.0)
        contact(a, b, start=900.0)
        contact(a, b, start=1800.0)
        # Each entry holds b's epoch at the exchange, from which its id was
        # derived: epoch 1 in the window of clock epoch 2, as b did not
        # rotate again.
        assert a.contact_log == [
            ContactLogEntry(derive_temp_id(b.secret, 0), 0, 0.0, 900.0, 0.7),
            ContactLogEntry(derive_temp_id(b.secret, 1), 1, 900.0, 1800.0, 0.7),
            ContactLogEntry(derive_temp_id(b.secret, 1), 1, 1800.0, 2700.0, 0.7),
        ]
        # a did not rotate: b logged a's epoch-0 id each time.
        assert [(e.peer_temp_id, e.peer_epoch) for e in b.contact_log] == [(derive_temp_id(a.secret, 0), 0)] * 3

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
            exchange_ids(a, b, negative, window(a, b))
        assert a.contact_log == [] and b.contact_log == []

    def test_window_of_other_devices_rejected(self):
        # Such a window once put the third device's id into the first's log.
        server = ServerState(ReportMode.CENTRALIZED)
        a, b, c = (register_device(server) for _ in range(3))
        for x, y, w in ((a, b, window(a, c)), (a, b, window(c, b)), (a, a, window(a, b)), (b, c, window(a, b))):
            with pytest.raises(ValueError, match="does not pair"):
                exchange_ids(x, y, positive_decision(), w)
        assert a.contact_log == b.contact_log == c.contact_log == []

    def test_device_paired_with_itself_rejected(self):
        # Once logged its own id; two states of one permanent id alike. (A
        # window cannot pair a device with itself.)
        a, b = DeviceState("pa"), DeviceState("pb")
        for other in (a, DeviceState("pa")):
            with pytest.raises(ValueError, match="does not pair"):
                exchange_ids(a, other, positive_decision(), window(a, b))
        assert a.contact_log == []

    def test_records_are_slotted(self):
        d, q = DeviceState("p"), DeviceState("q")
        exchange_ids(d, q, positive_decision(), window(d, q))
        for record in (d, d.contact_log[0]):
            assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            d.note = "ad hoc"

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
                    rotate_id(d, (d.epoch + 1) * 900.0)
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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 31), st.integers(0, 3), st.floats(0.0, 899.0)),
            min_size=1,
            max_size=10,
        ),
    )
    def test_same_notifications_as_the_full_scan(self, registered, meetings):
        # Honest histories on the shared clock. At each meeting, in clock
        # epoch 0 to 300, the devices whose bit is set in ``rotating``
        # rotate to it and the others stay late, skipping epochs when the
        # clock jumps; the reporter then meets a registered device or the
        # stranger. Entries logged below epoch 256 resolve as a scan of
        # every epoch resolves them, and those logged from 256 on as it
        # does not.
        server = ServerState(ReportMode.CENTRALIZED)
        devices = [register_device(server, DeviceState(f"d{k}", secret=secret(k))) for k in range(registered)]
        devices.append(DeviceState("stranger", secret=secret("stranger")))
        reporter, peers = devices[0], devices[1:]
        for epoch, rotating, peer, offset in sorted(meetings):
            now = epoch * 900.0 + offset
            for k, d in enumerate(devices):
                if rotating >> k & 1 and d.epoch < epoch:
                    rotate_id(d, now)
            contact(reporter, peers[peer % len(peers)], start=now)
        expected_server = copy.deepcopy(server)
        assert report_positive_centralized(reporter, server) == report_centralized_per_entry(reporter, expected_server)
        assert server.notifications_sent == expected_server.notifications_sent
        assert server.uploaded_contact_lists == expected_server.uploaded_contact_lists

    def test_one_day_key_per_logged_day_and_one_id_per_logged_epoch(self, monkeypatch):
        # For each registered device, each distinct logged day below the
        # 256-epoch bound has its key and its id prefix hashed once, and
        # each distinct logged epoch below it copies its day's prefix state
        # once. Entries from epoch 256 on hash nothing.
        server = ServerState(ReportMode.CENTRALIZED)
        reporter, peer = register_device(server), register_device(server)
        register_device(server)  # met by no one
        strangers = [DeviceState(f"s{k}") for k in range(4)]
        met = [(peer, 5), (strangers[0], 5), (strangers[1], 7), (strangers[2], 100), (peer, 300), (strangers[3], 1000)]
        for device, epoch in met:
            if device.epoch < epoch:
                rotate_id(device, epoch * 900.0)
            contact(reporter, device, start=epoch * 900.0)
        beyond = DeviceState("beyond", contact_log=reporter.contact_log[4:])
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

        hashed = [
            data
            for s in server.device_secrets.values()
            for day in (0, 1)
            for data in (s + f"|{day}".encode(), day_key(s, day) + b"|")
        ]
        monkeypatch.setattr(protocol, "hashlib", types.SimpleNamespace(sha256=sha256))
        assert report_positive_centralized(reporter, server) == {peer.permanent_id}
        assert sorted(prefixes) == sorted(hashed)
        assert len(copies) == len(server.registered) * 3  # epochs 5, 7 and 100
        prefixes.clear()
        copies.clear()
        assert report_positive_centralized(beyond, server) == set()
        assert prefixes == copies == []

    def test_an_id_of_two_devices_resolves_to_the_first_in_sorted_order(self):
        # Devices registered under one secret yield the same ids, which is
        # the only way two devices share an id short of a hash collision.
        server = ServerState(ReportMode.CENTRALIZED)
        for permanent in ("b", "a", "c"):
            register_device(server, DeviceState(permanent, secret=secret(0)))
        temp_id = hexdigest_temp_id(secret(0), 7)
        entries = [ContactLogEntry(temp_id, 7, 0.0, 900.0, 0.5)]
        assert protocol._resolve_temp_ids(server, entries) == [resolve_logged_id(server, temp_id, 7)] == ["a"]

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

    # Logged epochs that match nothing. Each entry logged under one holds the
    # id of the epoch it would stand for if taken loosely: True and 1.0 for
    # epoch 1, and the others for themselves. The explicit example logs the
    # epoch-1 id under epoch 1 as well, where True == 1 could share its
    # lookup.
    BAD_EPOCHS = (True, 1.0, -1, 256, 10**6)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3, unique=True),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(st.integers(0, 3), st.integers(250, 300)),
                st.sampled_from(sorted(MALFORMED)),
                st.sampled_from((None,) + BAD_EPOCHS),
            ),
            max_size=8,
        ),
        st.integers(0, 3),
    )
    @example(["a"], [(0, 1, "as derived", None)] + [(0, 1, "as derived", bad) for bad in BAD_EPOCHS], 0)
    def test_batch_resolution_matches_per_id_resolution(self, registry, draws, repeats):
        # Ids of registered devices and of a stranger, from epochs below and
        # above the 256-epoch bound, some malformed, some logged under a bad
        # epoch (None draws the id's own epoch) and some repeated: each maps
        # to the device the per-id search at its logged epoch finds, or to
        # None, and nothing raises.
        server = ServerState(ReportMode.CENTRALIZED)
        for k, permanent in enumerate(registry):
            register_device(server, DeviceState(permanent, secret=secret(k)))
        owners = [secret(k) for k in range(len(registry))] + [secret("stranger")]
        entries, honest = [], []
        for k, e, kind, bad in draws:
            logged = e if bad is None else bad
            temp_id = self.MALFORMED[kind](hexdigest_temp_id(owners[k % len(owners)], int(logged)))
            entries.append(ContactLogEntry(temp_id, logged, 0.0, 900.0, 0.5))
            honest.append(bad is None)
        entries += entries[:repeats]
        honest += honest[:repeats]
        expected = [resolve_logged_id(server, e.peer_temp_id, e.peer_epoch) for e in entries]
        assert protocol._resolve_temp_ids(server, entries) == expected
        for entry, peer, is_honest in zip(entries, expected, honest):
            # At its own epoch an id resolves as the scan of every epoch
            # resolves it; under a bad epoch it resolves to nothing.
            assert peer == (resolve_temp_id(server, entry.peer_temp_id) if is_honest else None)

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
        assert server.published_positive_ids == [(day_key(b.secret, 0), 0, 2)]
        assert check_exposure(a, published) is True

    def test_lookback_excludes_ancient_epochs(self):
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=1000.0)
        a, b = register_device(server), register_device(server)
        contact(a, b)  # logs epoch-0 id at t=0
        rotate_id(b, 900.0)
        rotate_id(b, 1800.0)
        # Lookback window is [4000, 5000]: epochs 0 and 1 ended before it.
        published = report_positive_decentralized(b, server, now=5000.0)
        assert server.published_positive_ids == [(day_key(b.secret, 0), 2, 2)]
        assert check_exposure(a, published) is False

    def test_report_before_the_device_epoch_rejected(self):
        # Epoch 1 starts at 900 s, so a report at 0 s once published an id
        # that had not yet been used; every later time is in or after it.
        server = ServerState(ReportMode.DECENTRALIZED)
        d = register_device(server)
        rotate_id(d, 900.0)
        for now in (0.0, 899.9, math.nextafter(900.0, 0.0), -1.0):
            with pytest.raises(ValueError, match="before"):
                report_positive_decentralized(d, server, now=now)
        assert len(server.published_positive_ids) == 0
        report_positive_decentralized(d, server, now=900.0)
        assert server.published_positive_ids == [(day_key(d.secret, 0), 0, 1)]

    def test_wrong_mode_rejected(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a = register_device(server)
        with pytest.raises(ModeError):
            report_positive_decentralized(a, server)

    @pytest.mark.parametrize("shape", ["list of ids", "public list", "tuple", "dict"])
    def test_published_ids_must_be_a_set(self, shape):
        # Any of these would once have matched nothing, silently.
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        published = report_positive_decentralized(b, server)
        given_as = {
            "list of ids": list(published),
            "public list": server.published_positive_ids,
            "tuple": tuple(published),
            "dict": dict.fromkeys(published),
        }[shape]
        with pytest.raises(TypeError, match="must be a set"):
            check_exposure(a, given_as)
        assert a.exposure_status is ExposureStatus.NONE

    POOL = [hexdigest_temp_id(secret(0), e) for e in (0, 5, 95, 96, 97, 200, 300)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.one_of(st.sampled_from(POOL), st.text(max_size=3)), max_size=10),
        st.integers(0, 300),
        st.integers(0, 320),
        st.sampled_from((900.0, 50 * 900.0, 200 * 900.0)),
    )
    def test_matches_scan_of_every_published_id(self, logged, epoch, later, lookback):
        # A reporter with a fixed secret at ``epoch`` reports at the start
        # of epoch ``epoch + later``: a device is exposed exactly when a scan
        # of every id its day keys yield finds one of its logged ids.
        reporter = DeviceState("r", epoch=epoch, secret=secret(0))
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=lookback)
        published = report_positive_decentralized(reporter, server, now=(epoch + later) * 900.0)
        assert set(expand_public_list(server.published_positive_ids)) == published
        device = DeviceState("d")
        device.contact_log.extend(ContactLogEntry(peer, 0, 0.0, 900.0, 0.5) for peer in logged)
        exposed = exposed_by_scan(device, server.published_positive_ids)
        assert check_exposure(device, published) is exposed
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
            assert server.published_positive_ids == [(day_key(b.secret, 0), 0, 3)]


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


class TestPublicList:
    def test_one_record_per_day(self):
        # A reporter at epoch 1344 with the 14-day lookback publishes the
        # keys of days 0 to 14, the last holding epoch 1344 only; a shorter
        # lookback cuts the first day's record inside its day.
        server = ServerState(ReportMode.DECENTRALIZED)
        d = register_device(server, DeviceState("p", epoch=1344, secret=secret(0)))
        delta = report_positive_decentralized(d, server, now=1344 * 900.0)
        assert server.published_positive_ids == [
            (day_key(d.secret, day), 96 * day, min(96 * day + 95, 1344)) for day in range(15)
        ]
        assert len(delta) == 1345 and delta == set(temp_id_history(d).values())
        # Epoch 1243 ends at the cut, 1244 * 900 s, so it is published.
        server.lookback_s = 100 * 900.0
        report_positive_decentralized(d, server, now=1344 * 900.0)
        assert server.published_positive_ids[15:] == [
            (day_key(d.secret, 12), 1243, 1247),
            (day_key(d.secret, 13), 1248, 1343),
            (day_key(d.secret, 14), 1344, 1344),
        ]

    def test_published_records_match_the_clock_reference(self):
        # Reports at every epoch of days 0-2, with lookbacks that cut inside
        # a day, at a day's end and not at all.
        for epoch in range(0, 3 * 96, 7):
            for lookback in (900.0, 95 * 900.0, 96 * 900.0, 130 * 900.0, math.inf):
                for now in (epoch * 900.0, epoch * 900.0 + 450.0):
                    d = DeviceState("p", epoch=epoch, secret=secret(epoch))
                    server = ServerState(ReportMode.DECENTRALIZED, lookback_s=lookback)
                    ref_server = ServerState(ReportMode.DECENTRALIZED, lookback_s=lookback)
                    delta = report_positive_decentralized(d, server, now)
                    assert delta == clock_report_decentralized(d, ref_server, now)
                    assert server.published_positive_ids == ref_server.published_positive_ids

    def test_decentralized_server_cannot_link_the_list(self):
        # A keyless id, the hash of "<permanent id>|<epoch>", once let the
        # decentralized server, which keeps the registered ids, map every
        # published id back to its reporter. It holds no secret, and no
        # published id is such a hash.
        server = ServerState(ReportMode.DECENTRALIZED)
        devices = [register_device(server) for _ in range(20)]
        for k in range(1, 301):
            for d in devices:
                rotate_id(d, k * 900.0)
        published = set()
        for d in devices[::4]:
            published |= report_positive_decentralized(d, server, now=300 * 900.0)
        assert server.device_secrets == {}
        assert set(expand_public_list(server.published_positive_ids)) == published and len(published) == 5 * 301
        keyless = {
            "t" + hashlib.sha256(f"{p}|{e}".encode()).hexdigest()[:16] for p in server.registered for e in range(301)
        }
        assert not published & keyless

    def test_retains_one_small_record_per_day(self):
        # Ten devices with a 14-day history report decentrally: 15 records
        # each, where the 1,345 ids a report yields once took about 16 bytes
        # each, packed.
        server = ServerState(ReportMode.DECENTRALIZED)
        devices = [register_device(server, DeviceState(f"p{k}", epoch=1344)) for k in range(10)]
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
        assert len(server.published_positive_ids) == 10 * 15
        assert retained <= 256 * len(server.published_positive_ids), retained / len(server.published_positive_ids)
