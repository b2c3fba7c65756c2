import json
import random

import pytest

from sensetrace.core import (
    ContactDecision,
    ContactWindow,
    DeviceId,
    ProximityState,
    SensorKind,
    SensorSample,
    make_window,
)
from sensetrace.errors import InsufficientEvidence, NoContact
from sensetrace.fusion import (
    ContactLogEntry,
    DecisionRecord,
    FusionConfig,
    StageEvidence,
    StageGates,
    build_evidence,
    decide,
    decision_from_record,
    decision_to_json,
    noise_gate,
    register_contact,
    stage_appearance,
    stage_distance,
    stage_environment,
)
from sensetrace.ranging import DistanceEstimate

CFG = FusionConfig()


def evidence(
    ble_seen=(True,) * 6 + (False,) * 4,
    attempts=(),
    noise=(),
    heard=(),
    wifi=(),
    sound=(),
    env=None,
    prox=None,
):
    if env is None:
        env = {
            "a": {SensorKind.BAROMETER: (1012.4,) * 5, SensorKind.MAGNETOMETER: (50.0,) * 5},
            "b": {SensorKind.BAROMETER: (1012.4,) * 5, SensorKind.MAGNETOMETER: (50.0,) * 5},
        }
    if prox is None:
        prox = {"a": ProximityState.FAR, "b": ProximityState.FAR}
    return StageEvidence(
        ble_seen=tuple(ble_seen),
        attempt_times=tuple(attempts),
        noise_db=tuple(noise),
        chirp_heard=tuple(heard),
        wifi_distances=tuple(wifi),
        sound_distances=tuple(sound),
        env_sequences=env,
        prox_states=prox,
    )


def wifi_est(values, t0=0.0, step=30.0):
    return tuple(
        DistanceEstimate(v, SensorKind.WIFI_RSS, t0 + i * step) for i, v in enumerate(values)
    )


def sound_est(values, t0=0.0, step=30.0):
    return tuple(
        DistanceEstimate(v, SensorKind.SOUND_AMPLITUDE, t0 + i * step) for i, v in enumerate(values)
    )


class TestNoiseGate:
    def test_quiet_passes(self):
        assert noise_gate(15.0, CFG) is True

    def test_loud_skips_sound(self):
        assert noise_gate(35.0, CFG) is False

    def test_boundary_inclusive(self):
        assert noise_gate(20.0, CFG) is True


class TestStageAppearance:
    def test_six_of_ten_is_a_match(self):
        ev = evidence(ble_seen=(True,) * 6 + (False,) * 4)
        assert stage_appearance(ev, CFG) is True

    def test_five_of_ten_is_not_strictly_over_half(self):
        ev = evidence(ble_seen=(True,) * 5 + (False,) * 5)
        assert stage_appearance(ev, CFG) is False

    def test_zero_positives(self):
        ev = evidence(ble_seen=(False,) * 10)
        assert stage_appearance(ev, CFG) is False

    def test_no_attempts_is_insufficient(self):
        ev = evidence(ble_seen=())
        with pytest.raises(InsufficientEvidence):
            stage_appearance(ev, CFG)

    def test_quiet_unheard_chirps_vote_against(self):
        # 6/10 BLE alone passes; 10 quiet unheard chirps dilute it to 6/20.
        ev = evidence(
            ble_seen=(True,) * 6 + (False,) * 4,
            attempts=tuple(float(i) for i in range(10)),
            noise=(10.0,) * 10,
            heard=(False,) * 10,
        )
        assert stage_appearance(ev, CFG) is False

    def test_loud_chirp_attempts_do_not_vote(self):
        ev = evidence(
            ble_seen=(True,) * 6 + (False,) * 4,
            attempts=tuple(float(i) for i in range(10)),
            noise=(35.0,) * 10,
            heard=(False,) * 10,
        )
        assert stage_appearance(ev, CFG) is True

    def test_chirp_hearings_add_positive_votes(self):
        ev = evidence(
            ble_seen=(True,) * 5 + (False,) * 5,
            attempts=(0.0, 30.0),
            noise=(10.0, 10.0),
            heard=(True, True),
        )
        # 7 positives of 12 votes.
        assert stage_appearance(ev, CFG) is True

    def test_chirps_alone_cannot_establish_appearance(self):
        # BLE kick-starts the pipeline: without any BLE sighting the answer
        # stays negative no matter how many chirps were heard.
        ev = evidence(
            ble_seen=(False,) * 2,
            attempts=tuple(float(i) for i in range(10)),
            noise=(10.0,) * 10,
            heard=(True,) * 10,
        )
        assert stage_appearance(ev, CFG) is False

    def test_ble_only_mode_ignores_chirps(self):
        ev = evidence(
            ble_seen=(True,) * 6 + (False,) * 4,
            attempts=tuple(float(i) for i in range(10)),
            noise=(10.0,) * 10,
            heard=(False,) * 10,
        )
        assert stage_appearance(ev, CFG, use_chirp_votes=False) is True


class TestStageDistance:
    def test_wifi_only(self):
        ev = evidence(wifi=wifi_est([2.0, 2.0, 2.0]))
        assert stage_distance(ev, CFG) == pytest.approx(2.0)

    def test_wifi_and_sound_every_step(self):
        ev = evidence(
            wifi=wifi_est([2.0, 2.0, 2.0]),
            sound=sound_est([1.0, 1.0, 1.0]),
            attempts=(0.0, 30.0, 60.0),
            noise=(10.0, 10.0, 10.0),
            heard=(True, True, True),
        )
        assert stage_distance(ev, CFG) == pytest.approx(1.5)

    def test_gated_out_sound_ignored(self):
        ev = evidence(
            wifi=wifi_est([2.0, 2.0]),
            sound=sound_est([1.0, 1.0]),
            attempts=(0.0, 30.0),
            noise=(35.0, 35.0),  # too loud: sound untrusted
            heard=(True, True),
        )
        assert stage_distance(ev, CFG) == pytest.approx(2.0)

    def test_no_wifi_is_insufficient(self):
        with pytest.raises(InsufficientEvidence):
            stage_distance(evidence(), CFG)

    def test_mixed_availability_matches_scripted_oracle(self):
        rng = random.Random(21)
        times = [i * 30.0 for i in range(30)]
        wifi = tuple(
            DistanceEstimate(rng.uniform(0.5, 6.0), SensorKind.WIFI_RSS, t) for t in times
        )
        attempts, noises, heards, sounds = [], [], [], []
        for t in times:
            attempts.append(t)
            noises.append(rng.choice([10.0, 35.0]))
            heard = rng.random() < 0.6
            heards.append(heard)
            if heard:
                sounds.append(DistanceEstimate(rng.uniform(0.5, 4.0), SensorKind.SOUND_AMPLITUDE, t))
        ev = evidence(
            wifi=wifi,
            sound=tuple(sounds),
            attempts=tuple(attempts),
            noise=tuple(noises),
            heard=tuple(heards),
        )

        # Naive reference: replay the rule step by step.
        usable = {
            s.timestamp: s.metres
            for s in sounds
            if any(
                abs(s.timestamp - t) <= 1e-6 and n <= CFG.noise_gate_db and h
                for t, n, h in zip(attempts, noises, heards)
            )
        }
        per_step = []
        for w in wifi:
            near = [ts for ts in usable if abs(ts - w.timestamp) < CFG.distance_pair_tolerance]
            if near:
                ts = min(near, key=lambda x: abs(x - w.timestamp))
                per_step.append((w.metres + usable[ts]) / 2.0)
            else:
                per_step.append(w.metres)
        expected = sum(per_step) / len(per_step)

        assert stage_distance(ev, CFG) == pytest.approx(expected, rel=1e-12)


class TestStageEnvironment:
    def test_identical_pressure_open_space(self):
        score, sensor, ok = stage_environment(evidence(), CFG)
        assert (score, sensor, ok) == (0.0, SensorKind.BAROMETER, True)

    def test_pocketed_magnetic_thirty_apart(self):
        env = {
            "a": {SensorKind.BAROMETER: (1012.4,) * 5, SensorKind.MAGNETOMETER: (40.0,) * 5},
            "b": {SensorKind.BAROMETER: (1012.4,) * 5, SensorKind.MAGNETOMETER: (70.0,) * 5},
        }
        prox = {"a": ProximityState.NEAR, "b": ProximityState.FAR}
        score, sensor, ok = stage_environment(evidence(env=env, prox=prox), CFG)
        assert sensor is SensorKind.MAGNETOMETER
        assert score == pytest.approx(30.0)
        assert ok is False

    def test_adjacent_floor_pressure_gap(self):
        env = {
            "a": {SensorKind.BAROMETER: (1012.40,) * 5, SensorKind.MAGNETOMETER: (50.0,) * 5},
            "b": {SensorKind.BAROMETER: (1012.83,) * 5, SensorKind.MAGNETOMETER: (50.0,) * 5},
        }
        score, sensor, ok = stage_environment(evidence(env=env), CFG)
        assert sensor is SensorKind.BAROMETER
        assert score == pytest.approx(0.43)
        assert ok is False

    def test_missing_sequence_is_insufficient(self):
        env = {
            "a": {SensorKind.BAROMETER: (), SensorKind.MAGNETOMETER: ()},
            "b": {SensorKind.BAROMETER: (1012.4,), SensorKind.MAGNETOMETER: (50.0,)},
        }
        with pytest.raises(InsufficientEvidence):
            stage_environment(evidence(env=env), CFG)


class TestDecide:
    def good_evidence(self):
        return evidence(
            ble_seen=(True,) * 8 + (False,) * 2,
            wifi=wifi_est([0.8, 0.8, 0.8]),
        )

    def test_all_gates_pass(self):
        d = decide(self.good_evidence(), CFG)
        assert d.contact is True
        assert d.appearance is True
        assert d.mean_distance == pytest.approx(0.8)
        assert d.env_score == 0.0
        assert d.degraded_reason is None

    def test_different_floor_pressure_blocks_contact(self):
        env = {
            "a": {SensorKind.BAROMETER: (1012.40,) * 5, SensorKind.MAGNETOMETER: (50.0,) * 5},
            "b": {SensorKind.BAROMETER: (1012.83,) * 5, SensorKind.MAGNETOMETER: (50.0,) * 5},
        }
        ev = evidence(
            ble_seen=(True,) * 8 + (False,) * 2,
            wifi=wifi_est([0.8, 0.8, 0.8]),
            env=env,
        )
        d = decide(ev, CFG)
        assert d.appearance is True
        assert d.mean_distance == pytest.approx(0.8)
        assert d.contact is False

    def test_appearance_false_forces_no_contact(self):
        ev = evidence(ble_seen=(False,) * 10, wifi=wifi_est([0.5, 0.5]))
        d = decide(ev, CFG)
        assert d.contact is False
        # All metrics still computed and reported.
        assert d.mean_distance is not None
        assert d.env_score is not None

    def test_missing_stage_degrades_and_blocks(self):
        ev = evidence(ble_seen=(True,) * 10, wifi=())
        d = decide(ev, CFG)
        assert d.contact is False
        assert d.mean_distance is None
        assert "distance" in d.degraded_reason

    def test_deterministic(self):
        ev = self.good_evidence()
        assert decide(ev, CFG) == decide(ev, CFG)

    def test_contact_rederivable_from_fields(self):
        # The verdict is a pure function of the three reported metrics.
        rng = random.Random(9)
        for _ in range(100):
            n_pos = rng.randint(0, 10)
            ev = evidence(
                ble_seen=(True,) * n_pos + (False,) * (10 - n_pos),
                wifi=wifi_est([rng.uniform(0.3, 3.0) for _ in range(4)]),
                env={
                    "a": {
                        SensorKind.BAROMETER: (1012.4,) * 4,
                        SensorKind.MAGNETOMETER: (rng.uniform(30, 90),) * 4,
                    },
                    "b": {
                        SensorKind.BAROMETER: (rng.uniform(1012.2, 1012.9),) * 4,
                        SensorKind.MAGNETOMETER: (rng.uniform(30, 90),) * 4,
                    },
                },
                prox={
                    "a": rng.choice([ProximityState.NEAR, ProximityState.FAR]),
                    "b": rng.choice([ProximityState.NEAR, ProximityState.FAR]),
                },
            )
            d = decide(ev, CFG)
            threshold = CFG.env_thresholds.for_sensor(d.env_sensor_used)
            rederived = (
                d.appearance
                and d.mean_distance <= CFG.contact_radius
                and d.env_score <= threshold
            )
            assert d.contact == rederived

    def test_monotone_gating(self):
        # Making any single stage's evidence strictly worse never flips a
        # negative verdict to positive.
        base = evidence(
            ble_seen=(True,) * 6 + (False,) * 4,
            wifi=wifi_est([0.9, 1.1, 1.0]),
            env={
                "a": {SensorKind.BAROMETER: (1012.40,) * 4, SensorKind.MAGNETOMETER: (50.0,) * 4},
                "b": {SensorKind.BAROMETER: (1012.52,) * 4, SensorKind.MAGNETOMETER: (50.0,) * 4},
            },
        )
        before = decide(base, CFG).contact

        worse_ble = evidence(
            ble_seen=(True,) * 5 + (False,) * 5,
            wifi=base.wifi_distances,
            env=dict(base.env_sequences),
        )
        worse_wifi = evidence(
            ble_seen=base.ble_seen,
            wifi=tuple(DistanceEstimate(e.metres + 1.0, e.source, e.timestamp) for e in base.wifi_distances),
            env=dict(base.env_sequences),
        )
        worse_env = evidence(
            ble_seen=base.ble_seen,
            wifi=base.wifi_distances,
            env={
                "a": dict(base.env_sequences["a"]),
                "b": {
                    SensorKind.BAROMETER: tuple(v + 0.3 for v in base.env_sequences["b"][SensorKind.BAROMETER]),
                    SensorKind.MAGNETOMETER: base.env_sequences["b"][SensorKind.MAGNETOMETER],
                },
            },
        )
        for worse in (worse_ble, worse_wifi, worse_env):
            after = decide(worse, CFG).contact
            assert not (after and not before)

    def test_disabled_gates_count_as_passed(self):
        ev = evidence(
            ble_seen=(True,) * 8 + (False,) * 2,
            wifi=wifi_est([5.0, 5.0]),  # clearly beyond the radius
        )
        full = decide(ev, CFG)
        appearance_only = decide(
            ev, CFG, StageGates(use_chirp_votes=False, gate_distance=False, gate_environment=False)
        )
        assert full.contact is False
        assert appearance_only.contact is True


class TestRegisterContact:
    def window(self):
        s = SensorSample(0.0, SensorKind.BLE_RSS, -60.0, src="a", obs="b")
        return ContactWindow(("a", "b"), 0.0, 900.0, (s,))

    def positive(self):
        return ContactDecision(True, 0.8, 0.02, SensorKind.BAROMETER, True)

    def negative(self):
        return ContactDecision(True, 2.4, 0.02, SensorKind.BAROMETER, False)

    def test_positive_decision_appends_one_entry(self):
        log = []
        peer = DeviceId("devB", "tmpB9", 9)
        entry = register_contact(self.positive(), peer, self.window(), log)
        assert log == [entry]
        assert entry.peer_temp_id == "tmpB9"
        assert entry.mean_distance == 0.8

    def test_negative_decision_rejected_log_unchanged(self):
        log = []
        with pytest.raises(NoContact):
            register_contact(self.negative(), DeviceId("devB", "t0"), self.window(), log)
        assert log == []

    def test_two_windows_two_entries(self):
        # Replay two positive windows of the same pair: per-window entries.
        log = []
        peer = DeviceId("devB", "tmpB0", 0)
        s1 = SensorSample(10.0, SensorKind.BLE_RSS, -60.0, src="a", obs="b")
        s2 = SensorSample(910.0, SensorKind.BLE_RSS, -60.0, src="a", obs="b")
        w1 = make_window([s1, s2], ("a", "b"), 0.0, 900.0)
        w2 = make_window([s1, s2], ("a", "b"), 900.0, 900.0)
        register_contact(self.positive(), peer, w1, log)
        register_contact(self.positive(), peer, w2, log)
        assert len(log) == 2
        assert {(e.window_start, e.window_end) for e in log} == {(0.0, 900.0), (900.0, 1800.0)}


class TestBuildEvidence:
    def make_trace(self):
        samples = []
        for k in range(30):
            t = k * 30.0
            samples.append(SensorSample(t, SensorKind.BLE_RSS, -62.0, src="a", obs="b"))
            if k % 2 == 0:
                samples.append(SensorSample(t, SensorKind.BLE_RSS, -64.0, src="b", obs="a"))
            samples.append(SensorSample(t, SensorKind.WIFI_RSS, -65.0, src="a", obs="b"))
            samples.append(SensorSample(t, SensorKind.AMBIENT_NOISE, 11.0, src="a"))
            samples.append(SensorSample(t, SensorKind.AMBIENT_NOISE, 11.0, src="b"))
            samples.append(SensorSample(t, SensorKind.SOUND_AMPLITUDE, 14.0, src="a", obs="b"))
            samples.append(SensorSample(t, SensorKind.BAROMETER, 1012.4, src="a"))
            samples.append(SensorSample(t, SensorKind.BAROMETER, 1012.4, src="b"))
            samples.append(SensorSample(t, SensorKind.MAGNETOMETER, (30.0, 40.0, 0.0), src="a"))
            samples.append(SensorSample(t, SensorKind.MAGNETOMETER, (0.0, 0.0, 50.0), src="b"))
            samples.append(SensorSample(t, SensorKind.PROXIMITY, 0.0, src="a"))
            samples.append(SensorSample(t, SensorKind.PROXIMITY, 1.0, src="b"))
        return samples

    def test_evidence_shapes(self):
        window = make_window(self.make_trace(), ("a", "b"), 0.0, 900.0)
        ev = build_evidence(window, CFG)
        assert len(ev.ble_seen) == 60  # 30 slots per device, both directions
        assert sum(ev.ble_seen) == 45
        assert len(ev.attempt_times) == len(ev.noise_db) == len(ev.chirp_heard) == 60
        assert sum(ev.chirp_heard) == 30  # only a heard b
        assert len(ev.wifi_distances) == 30
        assert len(ev.sound_distances) == 30
        assert ev.prox_states == {"a": ProximityState.FAR, "b": ProximityState.NEAR}
        # Magnitudes are orientation-free: both devices read 50 uT.
        assert ev.env_sequences["a"][SensorKind.MAGNETOMETER] == (50.0,) * 30
        assert ev.env_sequences["b"][SensorKind.MAGNETOMETER] == (50.0,) * 30

    def test_missing_proximity_defaults_to_open(self):
        samples = [
            SensorSample(0.0, SensorKind.BLE_RSS, -62.0, src="a", obs="b"),
            SensorSample(0.0, SensorKind.BAROMETER, 1012.4, src="a"),
            SensorSample(0.0, SensorKind.BAROMETER, 1012.4, src="b"),
        ]
        window = make_window(samples, ("a", "b"), 0.0, 900.0)
        ev = build_evidence(window, CFG)
        assert ev.prox_states == {"a": ProximityState.FAR, "b": ProximityState.FAR}


class TestDecisionJson:
    def test_roundtrip(self):
        rec = DecisionRecord(
            pair=("a", "b"),
            start=0.0,
            end=900.0,
            decision=ContactDecision(True, 0.82, 0.03, SensorKind.BAROMETER, True),
        )
        assert decision_from_record(json.loads(decision_to_json(rec))) == rec

    def test_degraded_roundtrip(self):
        rec = DecisionRecord(
            pair=("a", "b"),
            start=0.0,
            end=900.0,
            decision=ContactDecision(False, None, None, None, False, "distance: no WiFi"),
        )
        back = decision_from_record(json.loads(decision_to_json(rec)))
        assert back == rec
        assert back.decision.degraded_reason == "distance: no WiFi"
