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
from sensetrace.errors import ModeError, NoContact
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
    clock_exchange,
    clock_report_decentralized,
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
        # A device stores no epoch and no id; its id at epoch 0 is not its
        # permanent id.
        server = ServerState(ReportMode.CENTRALIZED)
        d = register_device(server)
        assert d.contact_log == []
        assert d.permanent_id in server.registered
        assert derive_temp_id(d.secret, 0) != d.permanent_id
        assert not hasattr(d, "epoch") and not hasattr(d, "temp_id")

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
    """``rotate_id`` is a bare time check: the epoch an exchange logs is the
    clock epoch of its window, whatever was rotated."""

    def test_rotation_at_period(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        before = copy.deepcopy(b)
        assert rotate_id(b, 900.0) is b and b == before
        contact(a, b, start=900.0)
        assert a.contact_log[0].peer_epoch == 1

    def test_temp_ids_pairwise_distinct(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        for k in range(3):
            contact(a, b, start=k * 900.0)
        assert len({e.peer_temp_id for e in a.contact_log}) == 3

    def test_exchange_after_rotation_records_new_id(self):
        # Scripted two-device replay: once the clock has moved to epoch 1,
        # the peer logs the epoch-1 id only.
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        contact(a, b, start=900.0)
        assert [e.peer_temp_id for e in a.contact_log] == [derive_temp_id(b.secret, e) for e in (0, 1)]

    def test_old_ids_resolvable_by_owner(self):
        server = ServerState(ReportMode.CENTRALIZED)
        d = register_device(server)
        history = temp_id_history(d, 900.0)
        assert set(history) == {0, 1}
        assert history[0] == derive_temp_id(d.secret, 0)

    def test_device_first_seen_at_a_later_epoch(self):
        # A device first seen in epoch 5 publishes the clock epochs inside
        # the lookback; with no bound on the lookback, every epoch from 0,
        # before it existed too.
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=2000.0)
        d = register_device(server, DeviceState("p5", secret=secret(5)))
        contact(d, register_device(server), start=5 * 900.0)
        # The cut is 7500 s: epoch 7 ended at 7200 s, epoch 8 at 8100 s.
        delta = report_positive_decentralized(d, server, now=9500.0)
        key = hexdigest_day_key(secret(5), 0)
        assert server.published_positive_ids == [(key, 8, 10)]
        assert delta == {derive_temp_id(secret(5), e) for e in (8, 9, 10)}
        assert expand_public_list(server.published_positive_ids) == [temp_id_history(d, 9500.0)[e] for e in (8, 9, 10)]
        server.lookback_s = math.inf
        report_positive_decentralized(d, server, now=9500.0)
        assert server.published_positive_ids[1:] == [(key, 0, 10)]


class TestIdDerivedOnRead:
    def test_rotation_derives_no_id_and_a_read_derives_one(self, monkeypatch):
        # Rotations derive nothing; an exchange derives each side's id once,
        # at the clock epoch of the window's start.
        a, b = DeviceState("pa"), DeviceState("pb")
        derived = []

        def counting(key, epoch):
            derived.append((key, epoch))
            return derive_temp_id(key, epoch)

        monkeypatch.setattr(protocol, "derive_temp_id", counting)
        for k in range(1, 1001):
            rotate_id(a, k * 900.0)
        assert derived == []
        exchange_ids(a, b, positive_decision(), window(a, b, 1000 * 900.0))
        assert sorted(derived) == sorted([(a.secret, 1000), (b.secret, 1000)])

    def test_negative_epoch_rejected(self):
        # A window that starts before time 0 is in a negative clock epoch: it
        # is refused, by the library and the clock reference alike, and
        # neither log changes. Time 0 itself, as -0.0 too, is epoch 0.
        a, b = DeviceState("pa"), DeviceState("pb")
        ra, rb = ClockDevice("pa"), ClockDevice("pb")
        for start in (-900.0, -1.0, math.nextafter(0.0, -math.inf), -math.inf):
            w = ContactWindow(("pa", "pb"), start, max(start + 900.0, 0.0), ())
            with pytest.raises(ValueError, match="before"):
                exchange_ids(a, b, positive_decision(), w)
            with pytest.raises(ValueError):
                clock_exchange(ra, rb, positive_decision(), w)
        assert a.contact_log == b.contact_log == ra.contact_log == rb.contact_log == []
        for start in (-0.0, 0.0):
            exchange_ids(a, b, positive_decision(), ContactWindow(("pa", "pb"), start, 900.0, ()))
        assert [e.peer_epoch for e in a.contact_log + b.contact_log] == [0] * 4

    @pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
    def test_epoch_that_is_not_an_int_rejected(self, bad):
        # A device takes no epoch at all, of any type: the ids it exchanges
        # come from the window's clock epoch.
        with pytest.raises(TypeError, match="epoch"):
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
        assert len(a.secret) == 16 and a.secret != b.secret
        assert derive_temp_id(a.secret, 0) != derive_temp_id(b.secret, 0)
        assert a.secret.hex() not in repr(a) and "secret" not in repr(a)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.binary(min_size=16, max_size=16), st.integers(0, 2**70))
    def test_derivation_matches_hexdigest_reference(self, key, epoch):
        assert day_key(key, epoch // 96) == hexdigest_day_key(key, epoch // 96)
        assert derive_temp_id(key, epoch) == hexdigest_temp_id(key, epoch)

    @staticmethod
    def twin_session(seed, mode):
        """One random session played on ``DeviceState``s with the library and
        on ``ClockDevice``s with the reference, checking every log on the
        way. Time moves on by up to 300 epochs, on and off the 900 s grid,
        or not at all; the last device is never registered. Reports go to
        the ``mode`` server."""
        rng = random.Random(seed)
        lookback = rng.choice((2000.0, 40 * 900.0, protocol.DEFAULT_LOOKBACK_S))
        server, ref_server = ServerState(mode, lookback_s=lookback), ServerState(mode, lookback_s=lookback)
        count = rng.randint(3, 6)
        devices = [DeviceState(f"p{k}", secret=secret(k)) for k in range(count)]
        refs = [ClockDevice(f"p{k}", secret=secret(k)) for k in range(count)]
        for d, r in zip(devices[:-1], refs[:-1]):
            register_device(server, d)
            register_device(ref_server, r)
        now = 0.0
        for _ in range(rng.randint(5, 15)):
            now += rng.choice((0.0, 450.5, 900.0, 900.0, 40 * 900.0, 300 * 900.0))
            for _ in range(rng.randint(0, 3)):
                i, j = rng.sample(range(count), 2)
                exchange_ids(devices[i], devices[j], positive_decision(), window(devices[i], devices[j], now))
                clock_exchange(refs[i], refs[j], positive_decision(), window(refs[i], refs[j], now))
            if rng.random() < 0.4:
                k = rng.randrange(count - 1)
                if mode is ReportMode.CENTRALIZED:
                    notified = report_positive_centralized(devices[k], server)
                    assert notified == report_centralized_per_entry(refs[k], ref_server)
                    notify_devices(notified, {d.permanent_id: d for d in devices})
                    notify_devices(notified, {r.permanent_id: r for r in refs})
                else:
                    delta = report_positive_decentralized(devices[k], server, now)
                    ref_delta = clock_report_decentralized(refs[k], ref_server, now)
                    assert delta == ref_delta
                    assert server.published_positive_ids == ref_server.published_positive_ids
                    for d, r in zip(devices, refs):
                        assert check_exposure(d, delta) == check_exposure(r, ref_delta)
            assert [d.contact_log for d in devices] == [r.contact_log for r in refs]
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
        # Contact times from an offset of 0, 1/3 or pi: steps of one period,
        # whose sum drifts from offset + k * 900.0 by rounding, jumps of
        # several, off-grid extras and repeated times (a step of 0). Each
        # exchange logs the clock epoch of its window's start, and every
        # report at that time agrees with the clock reference, for lookbacks
        # that cut exactly at an epoch's end and one ulp to either side.
        d, q = DeviceState("p", secret=secret(0)), ClockDevice("q")
        t = offset
        for periods, extra in steps:
            t += periods * 900.0 + extra
            exchange_ids(d, q, positive_decision(), window(d, q, t))
            entry = q.contact_log[-1]
            epoch = entry.peer_epoch
            assert epoch == math.floor(t / 900.0) == clock_epoch(t)
            assert entry.peer_temp_id == hexdigest_temp_id(secret(0), epoch)
            cuts = 0
            for e in {0, epoch // 2, epoch - 2, epoch - 1} - {-2, -1}:
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
            assert cuts or epoch == 0
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=math.inf)
        ref_server = ServerState(ReportMode.DECENTRALIZED, lookback_s=math.inf)
        assert report_positive_decentralized(d, server, t) == clock_report_decentralized(d, ref_server, t)
        assert server.published_positive_ids == ref_server.published_positive_ids


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rotation_rejected_and_device_unchanged(self, bad):
        d = DeviceState("p")
        before = copy.deepcopy(d)
        with pytest.raises(ValueError, match="finite"):
            rotate_id(d, bad)
        assert d == before

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_clock_reference_rejects_alike(self, bad):
        with pytest.raises(ValueError):
            clock_epoch(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_construction_rejected(self, bad):
        # A device holds no time: the one time an exchange reads is its
        # window's start, and a window at a non-finite time is refused, by
        # ContactWindow or by exchange_ids, with neither log changed.
        a, b = DeviceState("pa"), DeviceState("pb")
        with pytest.raises(ValueError):
            exchange_ids(a, b, positive_decision(), ContactWindow(("pa", "pb"), bad, 900.0, ()))
        assert a.contact_log == b.contact_log == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_decentralized_report_rejected(self, bad):
        server = ServerState(ReportMode.DECENTRALIZED)
        d = register_device(server)
        with pytest.raises(ValueError):
            report_positive_decentralized(d, server, now=bad)
        assert len(server.published_positive_ids) == 0

    def test_decentralized_report_needs_a_time(self):
        # A report without a time once published every epoch from 0 to the
        # device's stored one; there is no stored epoch to publish up to.
        server = ServerState(ReportMode.DECENTRALIZED)
        d = register_device(server)
        with pytest.raises(TypeError):
            report_positive_decentralized(d, server)
        assert len(server.published_positive_ids) == 0


class TestWindowClock:
    """The epoch of an exchange is the clock epoch of its window's start."""

    def test_never_rotated_device_logs_the_window_epoch(self):
        # Neither device is ever rotated; the window starts in epoch 200.
        server = ServerState(ReportMode.DECENTRALIZED)
        a = register_device(server, DeviceState("pa", secret=secret(0)))
        b = register_device(server, DeviceState("pb", secret=secret(1)))
        contact(a, b, start=200 * 900.0)
        assert a.contact_log == [ContactLogEntry(derive_temp_id(secret(1), 200), 200, 180000.0, 180900.0, 0.7)]
        assert b.contact_log == [ContactLogEntry(derive_temp_id(secret(0), 200), 200, 180000.0, 180900.0, 0.7)]
        assert check_exposure(a, report_positive_decentralized(b, server, now=200 * 900.0))

    @staticmethod
    def play(meetings, shift_s):
        """Five devices registered with a server of each mode, meeting as
        ``meetings`` says, each meeting ``shift_s`` later than its epoch and
        offset; then device 0 reports in both modes, at the end of epoch 60
        shifted alike. Returns each device's logged epochs, the centralized
        report's notified ids and the ids the decentralized one exposes."""
        central, decentral = ServerState(ReportMode.CENTRALIZED), ServerState(ReportMode.DECENTRALIZED)
        devices = [
            register_device(decentral, register_device(central, DeviceState(f"d{k}", secret=secret(k))))
            for k in range(5)
        ]
        for i, j, epoch, offset in sorted(meetings, key=lambda m: (m[2], m[3])):
            a, b = devices[i], devices[(i + 1 + j) % 5]
            start = epoch * 900.0 + offset + shift_s
            pair = (a.permanent_id, b.permanent_id)
            exchange_ids(a, b, positive_decision(), ContactWindow(pair, start, start + 900.0, ()))
        now = 61 * 900.0 + shift_s
        notified = report_positive_centralized(devices[0], central, now)
        published = report_positive_decentralized(devices[0], decentral, now)
        exposed = {d.permanent_id for d in devices if check_exposure(d, published)}
        return [[e.peer_epoch for e in d.contact_log] for d in devices], notified, exposed

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 60), st.floats(0.0, 899.0)),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 2),
    )
    def test_whole_day_shift_shifts_every_logged_epoch(self, meetings, days):
        # Shifting every window and the report time by whole days shifts each
        # logged epoch by 96 a day and leaves whom either mode tells as it
        # was. Every epoch stays below 256, which a centralized report
        # resolves.
        epochs, notified, exposed = self.play(meetings, 0.0)
        shifted, shifted_notified, shifted_exposed = self.play(meetings, days * 86400.0)
        assert shifted == [[e + 96 * days for e in log] for log in epochs]
        assert max(max(log, default=0) for log in shifted) < 256
        assert shifted_notified == notified == exposed == shifted_exposed


class TestExchangeIds:
    def test_valid_contact_grows_both_logs(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        assert len(a.contact_log) == 1
        assert len(b.contact_log) == 1
        assert a.contact_log[0].peer_temp_id == derive_temp_id(b.secret, 0)
        assert b.contact_log[0].peer_temp_id == derive_temp_id(a.secret, 0)

    def test_positive_decision_gives_each_device_one_entry(self):
        # Each side logs the peer's temporary id at the window's clock epoch,
        # that epoch, the window bounds and the decision's mean distance: no
        # permanent id, no samples.
        a, b = DeviceState("pa"), DeviceState("pb")
        exchange_ids(a, b, positive_decision(), window(a, b, 1800.0))
        assert a.contact_log == [ContactLogEntry(derive_temp_id(b.secret, 2), 2, 1800.0, 2700.0, 0.7)]
        assert b.contact_log == [ContactLogEntry(derive_temp_id(a.secret, 2), 2, 1800.0, 2700.0, 0.7)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.contact_log[0].peer_temp_id = "pb"

    def test_entry_after_the_peer_rotated(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        rotate_id(b, 900.0)
        contact(a, b, start=900.0)
        contact(a, b, start=1800.0)
        # Each entry holds the clock epoch of its window, from which its id
        # was derived, whether the peer rotated (b, once) or not (a).
        assert a.contact_log == [
            ContactLogEntry(derive_temp_id(b.secret, 0), 0, 0.0, 900.0, 0.7),
            ContactLogEntry(derive_temp_id(b.secret, 1), 1, 900.0, 1800.0, 0.7),
            ContactLogEntry(derive_temp_id(b.secret, 2), 2, 1800.0, 2700.0, 0.7),
        ]
        expected = [(derive_temp_id(a.secret, e), e) for e in range(3)]
        assert [(e.peer_temp_id, e.peer_epoch) for e in b.contact_log] == expected

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
            naive.add(b.permanent_id if entry.peer_temp_id in temp_id_history(b, 2700.0).values() else None)
        naive.discard(None)
        assert notified == naive == {b.permanent_id}
        # All three windows still land in the notification record.
        assert len(server.notifications_sent[b.permanent_id]) == 3

    def test_resolves_rotated_ids(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b, start=1800.0)
        assert report_positive_centralized(a, server) == {b.permanent_id}

    def test_wrong_mode_rejected(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        a = register_device(server)
        with pytest.raises(ModeError):
            report_positive_centralized(a, server)

    @staticmethod
    def random_session(seed):
        """A few registered devices and one never registered; the first
        device logs contacts with the others, some repeatedly, one epoch
        after another."""
        rng = random.Random(seed)
        server = ServerState(ReportMode.CENTRALIZED)
        devices = [register_device(server) for _ in range(rng.randint(2, 4))]
        stranger = DeviceState("stranger")
        reporter, peers = devices[0], devices[1:] + [stranger]
        for step in range(rng.randint(4, 12)):
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
        # Unresolvable ids (a stranger's) did occur.
        assert len(unresolved) >= 10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 3), st.floats(0.0, 899.0)),
            min_size=1,
            max_size=10,
        ),
    )
    def test_same_notifications_as_the_full_scan(self, registered, meetings):
        # Honest histories on the shared clock. At each meeting, in clock
        # epoch 0 to 300, the reporter meets a registered device or the
        # stranger. Entries logged below epoch 256 resolve as a scan of
        # every epoch resolves them, and those logged from 256 on as it
        # does not.
        server = ServerState(ReportMode.CENTRALIZED)
        devices = [register_device(server, DeviceState(f"d{k}", secret=secret(k))) for k in range(registered)]
        devices.append(DeviceState("stranger", secret=secret("stranger")))
        reporter, peers = devices[0], devices[1:]
        for epoch, peer, offset in sorted(meetings):
            contact(reporter, peers[peer % len(peers)], start=epoch * 900.0 + offset)
        expected_server = copy.deepcopy(server)
        assert report_positive_centralized(reporter, server) == report_centralized_per_entry(reporter, expected_server)
        assert server.notifications_sent == expected_server.notifications_sent
        assert server.uploaded_contact_lists == expected_server.uploaded_contact_lists

    def test_one_day_key_per_logged_day_and_one_id_per_logged_epoch(self, monkeypatch):
        # A cold report derives each registered device's key once for each
        # distinct logged day below the 256-epoch bound, and one id per
        # device for each distinct logged epoch below it. A second report
        # over the same days derives the ids only. Entries from epoch 256 on
        # hash nothing. Each id is one hash over the key, "|" and the
        # epoch's digits, with no update and no copied state (Counting has
        # no copy).
        server = ServerState(ReportMode.CENTRALIZED)
        reporter, peer = register_device(server), register_device(server)
        register_device(server)  # met by no one
        strangers = [DeviceState(f"s{k}") for k in range(4)]
        met = [(peer, 5), (strangers[0], 5), (strangers[1], 7), (strangers[2], 100), (peer, 300), (strangers[3], 1000)]
        for device, epoch in met:
            contact(reporter, device, start=epoch * 900.0)
        beyond = DeviceState("beyond", contact_log=reporter.contact_log[4:])
        hashed = []  # per hash object: the data it was made from, then each update

        class Counting:
            def __init__(self, data):
                self.h = hashlib.sha256(data)
                self.data = [data]
                hashed.append(self.data)

            def update(self, data):
                self.data.append(data)
                self.h.update(data)

            def digest(self):
                return self.h.digest()

        registry = server.device_secrets.values()
        day_keys = [[s + f"|{day}".encode()] for s in registry for day in (0, 1)]
        ids = [[day_key(s, e // 96) + f"|{e}".encode()] for s in registry for e in (5, 7, 100)]
        monkeypatch.setattr(protocol, "hashlib", types.SimpleNamespace(sha256=Counting))
        assert report_positive_centralized(reporter, server) == {peer.permanent_id}
        assert sorted(hashed) == sorted(day_keys + ids)
        hashed.clear()
        assert report_positive_centralized(reporter, server) == {peer.permanent_id}
        assert sorted(hashed) == sorted(ids)
        hashed.clear()
        assert report_positive_centralized(beyond, server) == set()
        assert hashed == []

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: ids logged from epoch 256 on are not resolved; "
        "the bound stays until the protocol benchmark stops counting those misses",
    )
    def test_contact_at_epoch_280_is_notified(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b, start=280 * 900.0)
        assert a.contact_log[0].peer_epoch == 280
        assert report_positive_centralized(a, server) == {b.permanent_id}

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


class TestDayKeyTable:
    """The centralized server's table of day keys, kept between reports."""

    # Every pair of six devices meets once, in days 0 to 2 (epochs below 256).
    MEETINGS = [(i, j, (37 * i + 53 * j) % 250) for i in range(6) for j in range(i + 1, 6)]

    @classmethod
    def six_devices(cls):
        devices = [DeviceState(f"d{k}", secret=secret(k)) for k in range(6)]
        for i, j, epoch in sorted(cls.MEETINGS, key=lambda m: m[2]):
            contact(devices[i], devices[j], start=epoch * 900.0)
        return devices

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("register", "reregister", "swap")),
                st.integers(0, 5),
                st.integers(0, 6),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_reports_match_the_oracle_across_registry_changes(self, steps):
        # Between reports, a device registers, a registered one registers
        # again, or one's secret is replaced by hand (by another device's,
        # or by a new one when the draw is 6). Each report notifies whom the
        # per-entry scan of the registry at that moment notifies, so no key
        # the table holds outlives the registry it came from.
        devices = self.six_devices()
        server = ServerState(ReportMode.CENTRALIZED)
        for d in devices[:3]:
            register_device(server, d)
        for kind, k, other, reporter in [("none", 0, 0, 0)] + steps:
            permanent = devices[k].permanent_id
            if kind == "register" and permanent not in server.registered:
                register_device(server, devices[k])
            elif kind == "reregister" and permanent in server.registered:
                register_device(server, DeviceState(permanent, secret=server.device_secrets[permanent]))
            elif kind == "swap" and permanent in server.registered:
                server.device_secrets[permanent] = secret(other if other < 6 else "new")
            expected_server = copy.deepcopy(server)
            notified = report_positive_centralized(devices[reporter], server)
            assert notified == report_centralized_per_entry(devices[reporter], expected_server)
            assert server.notifications_sent == expected_server.notifications_sent

    def test_keeps_the_days_within_the_lookback_of_the_newest_day(self):
        # With a one-day lookback the table keeps the newest day it holds
        # or logs and the day before. A report over an older day derives
        # that day's keys for itself and leaves the table as it was.
        server = ServerState(ReportMode.CENTRALIZED, lookback_s=86400.0)
        devices = [register_device(server, DeviceState(f"d{k}", secret=secret(k))) for k in range(3)]
        a, b, c = devices
        for epoch, peer in ((5, b), (100, c), (200, b)):
            contact(a, peer, start=epoch * 900.0)
        report_positive_centralized(DeviceState("r1", contact_log=a.contact_log[:2]), server)
        assert sorted(server._day_keys) == [0, 1]
        report_positive_centralized(DeviceState("r2", contact_log=a.contact_log[2:]), server)
        assert sorted(server._day_keys) == [1, 2]
        assert server._day_keys[2] == b"".join(day_key(secret(k), 2) for k in range(3))
        assert report_positive_centralized(DeviceState("r3", contact_log=a.contact_log[:1]), server) == {"d1"}
        assert sorted(server._day_keys) == [1, 2]
        server.lookback_s = protocol.DEFAULT_LOOKBACK_S
        report_positive_centralized(DeviceState("r4", contact_log=a.contact_log[:1]), server)
        assert sorted(server._day_keys) == [0, 1, 2]

    def test_reports_over_held_days_derive_no_day_key(self, monkeypatch):
        # Days {0, 1, 2}, then {0, 1}, then {0, 1, 2}: only the first report
        # derives day keys, one per registered device and day.
        server = ServerState(ReportMode.CENTRALIZED)
        devices = [register_device(server, DeviceState(f"d{k}", secret=secret(k))) for k in range(3)]
        a = devices[0]
        for epoch in (5, 100, 200):
            contact(a, devices[1], start=epoch * 900.0)
        hashed = []

        def counting(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(protocol, "hashlib", types.SimpleNamespace(sha256=counting))
        secrets = {secret(k) for k in range(3)}
        derived = []
        for log in (a.contact_log, a.contact_log[:2], a.contact_log):
            hashed.clear()
            assert report_positive_centralized(DeviceState("r", contact_log=log), server) == {"d1"}
            derived.append(sorted(data for data in hashed if data[:16] in secrets))
        assert derived == [sorted(s + f"|{day}".encode() for s in secrets for day in (0, 1, 2)), [], []]
        assert sorted(server._day_keys) == [0, 1, 2]

    def test_table_is_out_of_the_repr_and_the_comparison(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a, b = (register_device(server, DeviceState(f"d{k}", secret=secret(k))) for k in range(2))
        contact(a, b)
        cold = copy.deepcopy(server)
        assert report_positive_centralized(a, server) == report_centralized_per_entry(a, cold) == {"d1"}
        assert server._day_keys and not cold._day_keys
        assert server == cold
        text = repr(server)
        for s in (secret(0), secret(1)):
            for hidden in (s, day_key(s, 0)):
                assert repr(hidden) not in text and hidden.hex() not in text
        assert "_day_keys" not in text and "_key_registry" not in text

    def test_decentralized_server_never_fills_the_table(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        assert check_exposure(a, report_positive_decentralized(b, server, now=0.0))
        with pytest.raises(ModeError):
            report_positive_centralized(a, server)
        assert server._day_keys == {} and server._key_registry == ({}, ())


class TestDecentralizedReport:
    def test_reported_peer_in_log_is_exposed(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        published = report_positive_decentralized(b, server, now=0.0)
        assert published == {derive_temp_id(b.secret, 0)}
        assert check_exposure(a, published) is True
        assert a.exposure_status is ExposureStatus.NOTIFIED

    def test_no_overlap_not_exposed(self):
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b, c = (register_device(server) for _ in range(3))
        contact(a, b)
        assert check_exposure(a, report_positive_decentralized(c, server, now=0.0)) is False

    def test_rotated_out_epoch_still_matches_within_lookback(self):
        # Scripted multi-epoch replay: the contact used b's epoch-0 id, and b
        # reports three epochs later; the published list includes the old
        # epoch and the match still fires.
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        published = report_positive_decentralized(b, server, now=2700.0)
        assert server.published_positive_ids == [(day_key(b.secret, 0), 0, 3)]
        assert check_exposure(a, published) is True

    def test_lookback_excludes_ancient_epochs(self):
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=1000.0)
        a, b = register_device(server), register_device(server)
        contact(a, b)  # logs epoch-0 id at t=0
        # Lookback window is [4000, 5000]: epochs 0 to 3 ended before it.
        published = report_positive_decentralized(b, server, now=5000.0)
        assert server.published_positive_ids == [(day_key(b.secret, 0), 4, 5)]
        assert check_exposure(a, published) is False

    def test_report_before_time_zero_rejected(self):
        # The clock's epochs start at time 0, so a report before it has no
        # epoch to publish; time 0 publishes epoch 0.
        server = ServerState(ReportMode.DECENTRALIZED)
        d = register_device(server)
        for now in (-900.0, -1.0, math.nextafter(0.0, -math.inf)):
            with pytest.raises(ValueError, match="time 0"):
                report_positive_decentralized(d, server, now=now)
        assert len(server.published_positive_ids) == 0
        report_positive_decentralized(d, server, now=0.0)
        assert server.published_positive_ids == [(day_key(d.secret, 0), 0, 0)]

    def test_wrong_mode_rejected(self):
        server = ServerState(ReportMode.CENTRALIZED)
        a = register_device(server)
        with pytest.raises(ModeError):
            report_positive_decentralized(a, server, now=0.0)

    @pytest.mark.parametrize("shape", ["list of ids", "public list", "tuple", "dict"])
    def test_published_ids_must_be_a_set(self, shape):
        # Any of these would once have matched nothing, silently.
        server = ServerState(ReportMode.DECENTRALIZED)
        a, b = register_device(server), register_device(server)
        contact(a, b)
        published = report_positive_decentralized(b, server, now=0.0)
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
        st.integers(0, 620),
        st.sampled_from((900.0, 50 * 900.0, 200 * 900.0)),
    )
    def test_matches_scan_of_every_published_id(self, logged, epoch, lookback):
        # A reporter with a fixed secret reports at the start of ``epoch``:
        # a device is exposed exactly when a scan of every id its day keys
        # yield finds one of its logged ids.
        reporter = DeviceState("r", secret=secret(0))
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=lookback)
        published = report_positive_decentralized(reporter, server, now=epoch * 900.0)
        assert set(expand_public_list(server.published_positive_ids)) == published
        device = DeviceState("d")
        device.contact_log.extend(ContactLogEntry(peer, 0, 0.0, 900.0, 0.5) for peer in logged)
        exposed = exposed_by_scan(device, server.published_positive_ids)
        assert check_exposure(device, published) is exposed
        assert (device.exposure_status is ExposureStatus.NOTIFIED) is exposed

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.binary(min_size=16, max_size=16), st.integers(0, 9999 - 200), st.integers(0, 200))
    @example(secret(1), 95, 2)
    @example(secret(1), 96, 0)
    @example(secret(1), 0, 12)
    @example(secret(1), 9, 1)
    @example(secret(1), 99, 1)
    @example(secret(1), 999, 1)
    @example(secret(1), 9999 - 200, 200)
    def test_published_ids_are_the_oracle_ids_of_the_published_epochs(self, key, first, span):
        # The reporter reports in epoch ``first + span`` and looks back to
        # ``first``: the ids it returns are the hex-digest ids of exactly
        # those epochs, across day boundaries and 1- to 4-digit epochs.
        last = first + span
        server = ServerState(ReportMode.DECENTRALIZED, lookback_s=span * 900.0)
        reporter = DeviceState("r", secret=key)
        published = report_positive_decentralized(reporter, server, now=last * 900.0 + 450)
        epochs = [e for _, lo, hi in server.published_positive_ids for e in range(lo, hi + 1)]
        assert epochs == list(range(first, last + 1))
        assert published == {hexdigest_temp_id(key, e) for e in epochs}


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
        if mode is ReportMode.CENTRALIZED:
            assert report_positive_centralized(a, server, now=1e9) == {b.permanent_id}
        else:
            # Twice the default lookback: epochs 0 to 2,688, in days 0 to 28.
            now = 2 * protocol.DEFAULT_LOOKBACK_S
            assert check_exposure(a, report_positive_decentralized(b, server, now=now))
            assert server.published_positive_ids == [
                (day_key(b.secret, day), 96 * day, min(96 * day + 95, 2688)) for day in range(29)
            ]


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
        """Registered devices that log contacts through ``exchange_ids`` with
        sample-free windows, as the phones do, over at most 40 steps: below
        epoch 256 and well inside the lookback."""
        rng = random.Random(seed)
        central, decentral = ServerState(ReportMode.CENTRALIZED), ServerState(ReportMode.DECENTRALIZED)
        devices = [register_device(decentral, register_device(central)) for _ in range(rng.randint(3, 8))]
        now = 0.0
        for _ in range(rng.randint(1, 40)):
            now += 900.0 * rng.choice((1, 1, 2, 5))
            for _ in range(rng.randint(0, 3)):
                a, b = rng.sample(devices, 2)
                pair = (a.permanent_id, b.permanent_id)
                exchange_ids(a, b, positive_decision(), ContactWindow(pair, now, now + 900.0, ()))
        return central, decentral, devices, now

    def test_centralized_notifies_whom_decentralized_exposes(self):
        told = 0
        for seed in range(40):
            central, decentral, devices, now = self.history(seed)
            assert clock_epoch(now) < 256
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
        d = register_device(server, DeviceState("p", secret=secret(0)))
        delta = report_positive_decentralized(d, server, now=1344 * 900.0)
        assert server.published_positive_ids == [
            (day_key(d.secret, day), 96 * day, min(96 * day + 95, 1344)) for day in range(15)
        ]
        assert len(delta) == 1345 and delta == set(temp_id_history(d, 1344 * 900.0).values())
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
                    d = DeviceState("p", secret=secret(epoch))
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
        devices = [register_device(server, DeviceState(f"p{k}")) for k in range(10)]
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
