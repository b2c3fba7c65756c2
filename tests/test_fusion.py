import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensetrace.core import (
    ContactDecision,
    ProximityState,
    SensorKind,
    SensorSample,
    Trace,
    make_window,
)
from sensetrace.evaluation import assess_instances, fuse_instances
from sensetrace.fusion import (
    PAIR_TOLERANCE_S,
    Assessment,
    DecisionRecord,
    FusionConfig,
    StageEvidence,
    TierSpec,
    assess,
    build_evidence,
    decide,
    decision_from_record,
    decision_to_json,
    noise_gate,
    stage_appearance,
    stage_distance,
    stage_environment,
)
from sensetrace.ranging import sound_distance

from .oracles import gated_decide

CFG = FusionConfig()


def evidence(
    ble_seen=(True,) * 6 + (False,) * 4,
    chirps=(),
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
        chirps=tuple(chirps),
        wifi_distances=tuple(wifi),
        sound_distances=tuple(sound),
        env_sequences=env,
        prox_states=prox,
    )


def timed(values, step=30.0):
    """(time, value) pairs, one every ``step`` seconds from t = 0."""
    return tuple((i * step, v) for i, v in enumerate(values))


class TestFusionConfig:
    @pytest.mark.parametrize("exponent", [0.0, -1.0, float("inf"), float("nan")])
    def test_sound_exponent_must_be_positive_and_finite(self, exponent):
        with pytest.raises(ValueError, match="sound_exponent"):
            FusionConfig(sound_exponent=exponent)


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
        ev = evidence(ble_seen=(), chirps=[(0.0, 10.0, True)])
        assert stage_appearance(ev, CFG) is None
        assert stage_appearance(ev, CFG, use_chirp_votes=False) is None

    def test_quiet_unheard_chirps_vote_against(self):
        # 6/10 BLE alone passes; 10 quiet unheard chirps dilute it to 6/20.
        ev = evidence(
            ble_seen=(True,) * 6 + (False,) * 4,
            chirps=[(float(i), 10.0, False) for i in range(10)],
        )
        assert stage_appearance(ev, CFG) is False

    def test_loud_chirp_attempts_do_not_vote(self):
        ev = evidence(
            ble_seen=(True,) * 6 + (False,) * 4,
            chirps=[(float(i), 35.0, False) for i in range(10)],
        )
        assert stage_appearance(ev, CFG) is True

    def test_chirp_hearings_add_positive_votes(self):
        ev = evidence(
            ble_seen=(True,) * 5 + (False,) * 5,
            chirps=[(0.0, 10.0, True), (30.0, 10.0, True)],
        )
        # 7 positives of 12 votes.
        assert stage_appearance(ev, CFG) is True

    def test_chirps_alone_cannot_establish_appearance(self):
        # BLE kick-starts the pipeline: without any BLE sighting the answer
        # stays negative no matter how many chirps were heard.
        ev = evidence(
            ble_seen=(False,) * 2,
            chirps=[(float(i), 10.0, True) for i in range(10)],
        )
        assert stage_appearance(ev, CFG) is False

    def test_ble_only_mode_ignores_chirps(self):
        ev = evidence(
            ble_seen=(True,) * 6 + (False,) * 4,
            chirps=[(float(i), 10.0, False) for i in range(10)],
        )
        assert stage_appearance(ev, CFG, use_chirp_votes=False) is True


class TestStageDistance:
    def test_wifi_only(self):
        ev = evidence(wifi=timed([2.0, 2.0, 2.0]))
        assert stage_distance(ev, CFG) == pytest.approx(2.0)

    def test_wifi_and_sound_every_step(self):
        ev = evidence(
            wifi=timed([2.0, 2.0, 2.0]),
            sound=timed([1.0, 1.0, 1.0]),
            chirps=[(0.0, 10.0, True), (30.0, 10.0, True), (60.0, 10.0, True)],
        )
        assert stage_distance(ev, CFG) == pytest.approx(1.5)

    def test_gated_out_sound_ignored(self):
        ev = evidence(
            wifi=timed([2.0, 2.0]),
            sound=timed([1.0, 1.0]),
            chirps=[(0.0, 35.0, True), (30.0, 35.0, True)],  # too loud: sound untrusted
        )
        assert stage_distance(ev, CFG) == pytest.approx(2.0)

    def test_no_wifi_is_insufficient(self):
        assert stage_distance(evidence(sound=timed([1.0])), CFG) is None

    def test_mixed_availability_matches_scripted_oracle(self):
        rng = random.Random(21)
        times = [i * 30.0 for i in range(30)]
        wifi = tuple((t, rng.uniform(0.5, 6.0)) for t in times)
        chirps, sounds = [], []
        for t in times:
            noise = rng.choice([10.0, 35.0])
            heard = rng.random() < 0.6
            chirps.append((t, noise, heard))
            if heard:
                sounds.append((t, rng.uniform(0.5, 4.0)))
        ev = evidence(wifi=wifi, sound=tuple(sounds), chirps=chirps)

        # Naive reference: replay the rule step by step.
        usable = {
            ts: metres
            for ts, metres in sounds
            if any(abs(ts - t) <= 1e-6 and n <= CFG.noise_gate_db and h for t, n, h in chirps)
        }
        per_step = []
        for tw, metres in wifi:
            near = [ts for ts in usable if abs(ts - tw) < PAIR_TOLERANCE_S]
            if near:
                ts = min(near, key=lambda x: abs(x - tw))
                per_step.append((metres + usable[ts]) / 2.0)
            else:
                per_step.append(metres)
        expected = sum(per_step) / len(per_step)

        assert stage_distance(ev, CFG) == pytest.approx(expected, rel=1e-12)

    def test_equals_the_scan_over_all_pairs_with_ties(self):
        # Times on a 5 s grid: equal gaps on both sides, two devices'
        # estimates at one instant, and chirp checks off the sound times.
        def scan(ev):
            ok = [t for t, noise, heard in ev.chirps if heard and noise_gate(noise, CFG)]
            sound = [s for s in ev.sound_distances if any(abs(s[0] - t) <= 1e-6 for t in ok)]
            combined = []
            for t, metres in ev.wifi_distances:
                near = [s for s in sound if abs(s[0] - t) < PAIR_TOLERANCE_S]
                if near:
                    metres = (metres + min(near, key=lambda s: abs(s[0] - t))[1]) / 2.0
                combined.append(metres)
            return sum(combined) / len(combined)

        rng = random.Random(8)
        for _ in range(200):
            grid = [i * 5.0 for i in range(40)]
            chirps = sorted((t, rng.choice([10.0, 35.0]), rng.random() < 0.7) for t in rng.sample(grid, 20))
            sound = sorted(
                (t, rng.uniform(0.5, 4.0)) for t in rng.sample(grid, 15) for _ in range(rng.choice([1, 2]))
            )
            wifi = tuple((t, rng.uniform(0.5, 6.0)) for t in sorted(rng.sample(grid, 10)))
            ev = evidence(wifi=wifi, sound=sound, chirps=chirps)
            assert stage_distance(ev, CFG) == scan(ev)


class TestStageEnvironment:
    def test_identical_pressure_open_space(self):
        assert stage_environment(evidence()) == (SensorKind.BAROMETER, 0.0)

    def test_pocketed_magnetic_thirty_apart(self):
        env = {
            "a": {SensorKind.BAROMETER: (1012.4,) * 5, SensorKind.MAGNETOMETER: (40.0,) * 5},
            "b": {SensorKind.BAROMETER: (1012.4,) * 5, SensorKind.MAGNETOMETER: (70.0,) * 5},
        }
        prox = {"a": ProximityState.NEAR, "b": ProximityState.FAR}
        sensor, score = stage_environment(evidence(env=env, prox=prox))
        assert sensor is SensorKind.MAGNETOMETER
        assert score == pytest.approx(30.0)

    def test_adjacent_floor_pressure_gap(self):
        env = {
            "a": {SensorKind.BAROMETER: (1012.40,) * 5, SensorKind.MAGNETOMETER: (50.0,) * 5},
            "b": {SensorKind.BAROMETER: (1012.83,) * 5, SensorKind.MAGNETOMETER: (50.0,) * 5},
        }
        sensor, score = stage_environment(evidence(env=env))
        assert sensor is SensorKind.BAROMETER
        assert score == pytest.approx(0.43)

    def test_missing_sequence_is_insufficient(self):
        env = {
            "a": {SensorKind.BAROMETER: (), SensorKind.MAGNETOMETER: ()},
            "b": {SensorKind.BAROMETER: (1012.4,), SensorKind.MAGNETOMETER: (50.0,)},
        }
        assert stage_environment(evidence(env=env)) == (SensorKind.BAROMETER, None)
        assert stage_environment(evidence(prox={"b": ProximityState.FAR})) == (None, None)


class TestDecide:
    def good_evidence(self):
        return evidence(
            ble_seen=(True,) * 8 + (False,) * 2,
            wifi=timed([0.8, 0.8, 0.8]),
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
            wifi=timed([0.8, 0.8, 0.8]),
            env=env,
        )
        d = decide(ev, CFG)
        assert d.appearance is True
        assert d.mean_distance == pytest.approx(0.8)
        assert d.contact is False

    def test_appearance_false_forces_no_contact(self):
        ev = evidence(ble_seen=(False,) * 10, wifi=timed([0.5, 0.5]))
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
                wifi=timed([rng.uniform(0.3, 3.0) for _ in range(4)]),
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
            wifi=timed([0.9, 1.1, 1.0]),
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
            wifi=tuple((t, metres + 1.0) for t, metres in base.wifi_distances),
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
            wifi=timed([5.0, 5.0]),  # clearly beyond the radius
        )
        full = decide(ev, CFG)
        appearance_only = decide(ev, CFG, TierSpec.APPEARANCE_ONLY)
        assert full.contact is False
        assert appearance_only.contact is True

    @pytest.mark.parametrize("tier", ["FULL", None, 2])
    def test_a_tier_that_is_no_tier_spec_is_rejected(self, tier):
        # "FULL" would otherwise pass the distance gate and skip the environment's.
        with pytest.raises(TypeError, match="tier must be a TierSpec"):
            decide(evidence(), CFG, tier)


# Times on a 5 s grid, so that chirps, sound and WiFi estimates often share
# an instant or fall within PAIR_TOLERANCE_S of each other.
grid_times = st.integers(min_value=0, max_value=60).map(lambda k: k * 5.0)
metres = st.floats(min_value=0.05, max_value=3.0)
# Readings a few tenths apart, either side of the 0.15 hPa and 20 uT thresholds.
env_values = st.lists(st.sampled_from([1012.4, 1012.45, 1012.6, 1013.0, 1040.0]), max_size=5).map(tuple)


@st.composite
def any_evidence(draw):
    """Stage evidence with any stage possibly missing: no BLE scan, no WiFi
    estimate, no proximity state or no environment sequence."""
    # Both devices in most draws, so that every stage often has evidence.
    some_devices = st.sampled_from(("ab", "ab", "ab", "a", "b", ""))
    devices = draw(some_devices)
    return StageEvidence(
        ble_seen=tuple(draw(st.lists(st.booleans(), max_size=12))),
        chirps=tuple(draw(st.lists(st.tuples(grid_times, st.floats(0.0, 40.0), st.booleans()), max_size=8))),
        wifi_distances=tuple(sorted(draw(st.lists(st.tuples(grid_times, metres), max_size=6)))),
        sound_distances=tuple(sorted(draw(st.lists(st.tuples(grid_times, metres), max_size=6)))),
        env_sequences={
            dev: {SensorKind.BAROMETER: draw(env_values), SensorKind.MAGNETOMETER: draw(env_values)}
            for dev in devices
        },
        prox_states={dev: draw(st.sampled_from(ProximityState)) for dev in draw(some_devices)},
    )


class TestAssess:
    @settings(max_examples=300, deadline=None)
    @given(any_evidence())
    def test_fusing_the_assessment_is_deciding_the_tier(self, ev):
        assessment = assess(ev, CFG)
        for tier in TierSpec:
            want = gated_decide(ev, CFG, tier)
            assert decide(ev, CFG, tier) == want
            assert decide(assessment, CFG, tier) == want

    def test_every_stage_is_assessed_once_for_every_gate(self):
        ev = evidence(
            ble_seen=(True,) * 5 + (False,) * 5,
            chirps=[(0.0, 10.0, True), (30.0, 10.0, True)],
            wifi=timed([0.8, 0.8]),
            prox={"a": ProximityState.FAR},
        )
        assert assess(ev, CFG) == Assessment(
            appearance_ble=False,
            appearance_chirps=True,
            mean_distance=0.8,
            env_sensor=None,
            env_score=None,
        )


APPEARANCE_ONLY, APPEARANCE_DISTANCE, FULL = TierSpec
NO_BLE = "appearance: no BLE scan attempts in window"
NO_WIFI = "distance: no WiFi distance estimates in window"
NO_PROXIMITY = "environment: proximity state missing for one or both devices"
# Each evidence gap: its evidence, the tiers whose decision names it, and the reason.
GAPS = {
    "no BLE attempt": (evidence(ble_seen=(), wifi=timed([0.8])), set(TierSpec), NO_BLE),
    "no WiFi": (evidence(), {APPEARANCE_DISTANCE, FULL}, NO_WIFI),
    "no proximity state": (evidence(wifi=timed([0.8]), prox={"b": ProximityState.FAR}), {FULL}, NO_PROXIMITY),
    "no sensor sequence": (
        evidence(wifi=timed([0.8]), env={"a": {SensorKind.BAROMETER: (1012.4,)}, "b": {}}),
        {FULL},
        "environment: missing BAROMETER sequence for pair",
    ),
}


class TestDegradedReason:
    """Each evidence gap's reason at every tier, written out: hand-built
    evidence, the per-window reference and the batch all decide as
    ``gated_decide``, which words the reasons itself."""

    @pytest.mark.parametrize("tier", list(TierSpec), ids=lambda tier: tier.name)
    @pytest.mark.parametrize("gap", sorted(GAPS))
    def test_hand_built_evidence(self, gap, tier):
        ev, tiers, reason = GAPS[gap]
        got = decide(ev, CFG, tier)
        assert got == decide(assess(ev, CFG), CFG, tier) == gated_decide(ev, CFG, tier)
        assert got.degraded_reason == (reason if tier in tiers else None)
        assert not (got.contact and tier in tiers)

    def test_exact_decisions(self):
        assert decide(GAPS["no BLE attempt"][0], CFG, FULL) == ContactDecision(
            appearance=False, mean_distance=0.8, env_score=0.0, env_sensor_used=SensorKind.BAROMETER,
            contact=False, degraded_reason=NO_BLE,
        )
        # The sensor is chosen, but without its score no sensor is reported.
        assert decide(GAPS["no sensor sequence"][0], CFG, FULL) == ContactDecision(
            appearance=True, mean_distance=0.8, env_score=None, env_sensor_used=None,
            contact=False, degraded_reason="environment: missing BAROMETER sequence for pair",
        )
        every_gap = evidence(ble_seen=(), prox={})
        assert decide(every_gap, CFG, FULL).degraded_reason == f"{NO_BLE}; {NO_WIFI}; {NO_PROXIMITY}"
        appearance_only = decide(every_gap, CFG, APPEARANCE_ONLY)
        assert appearance_only == ContactDecision(False, None, None, None, False, NO_BLE)

    @staticmethod
    def traces(wifi=True, b_sensor=True, pocketed=False):
        """A pair side by side for a whole window: BLE both ways, WiFi if
        ``wifi``, and the environment sensor the proximity states choose
        (the magnetometer when ``a`` is ``pocketed``, else the barometer) on
        ``a``, and on ``b`` if ``b_sensor``."""
        rows = {"a": [], "b": []}
        sensor, value = (SensorKind.MAGNETOMETER, (0.0, 0.0, 50.0)) if pocketed else (SensorKind.BAROMETER, 1012.4)
        for t in (k * 30.0 for k in range(30)):
            for device, peer in (("a", "b"), ("b", "a")):
                rows[device].append(SensorSample(t, SensorKind.BLE_RSS, -60.0, src=device, obs=peer))
                if device == "a" or b_sensor:
                    rows[device].append(SensorSample(t, sensor, value, src=device))
            if wifi:
                rows["a"].append(SensorSample(t, SensorKind.WIFI_RSS, -59.0, src="a", obs="b"))
            rows["a"].append(SensorSample(t, SensorKind.PROXIMITY, 1.0 if pocketed else 0.0, src="a"))
        return {device: Trace.from_samples(r) for device, r in rows.items()}

    @pytest.mark.parametrize(
        "kwargs, tiers, reason",
        [
            ({"wifi": False}, {APPEARANCE_DISTANCE, FULL}, NO_WIFI),
            ({"b_sensor": False}, {FULL}, "environment: missing BAROMETER sequence for pair"),
            ({"b_sensor": False, "pocketed": True}, {FULL}, "environment: missing MAGNETOMETER sequence for pair"),
        ],
        ids=["no WiFi", "no barometer sequence", "no magnetometer sequence"],
    )
    def test_batch_and_reference(self, kwargs, tiers, reason):
        # Traces leave only these gaps: every window has BLE slots, and a
        # device without proximity samples counts as in the open.
        traces = self.traces(**kwargs)
        instances = [(("a", "b"), 0.0, 900.0)]
        assessments = assess_instances(traces, instances, CFG)
        ev = build_evidence(make_window(traces["a"] + traces["b"], ("a", "b"), 0.0, 900.0), CFG)
        for tier in TierSpec:
            [record] = fuse_instances(instances, assessments, CFG, tier)
            assert record.decision == decide(ev, CFG, tier) == gated_decide(ev, CFG, tier)
            assert record.decision.degraded_reason == (reason if tier in tiers else None)


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
        assert len(ev.chirps) == 60
        assert sum(heard for _, _, heard in ev.chirps) == 30  # only a heard b
        assert len(ev.wifi_distances) == 30
        assert len(ev.sound_distances) == 30
        assert ev.prox_states == {"a": ProximityState.FAR, "b": ProximityState.NEAR}
        # Magnitudes are orientation-free: both devices read 50 uT.
        assert ev.env_sequences["a"][SensorKind.MAGNETOMETER] == (50.0,) * 30
        assert ev.env_sequences["b"][SensorKind.MAGNETOMETER] == (50.0,) * 30

    def test_ble_hit_on_a_slot_edge_counts_for_the_slot_it_opens(self):
        start, period = 0.1, CFG.ble_scan_period
        edges = [start + k * period for k in range(30)]
        hits = [edges[0], edges[7], edges[29], math.nextafter(edges[12], 0.0)]
        samples = [SensorSample(t, SensorKind.BLE_RSS, -60.0, src="a", obs="b") for t in hits]
        ev = build_evidence(make_window(samples, ("a", "b"), start, 900.0), CFG)
        # The rule written out: a slot [lo, lo + period) is seen if a hit lies in it.
        want = [any(lo <= t < lo + period for t in hits) for lo in edges]
        assert list(ev.ble_seen[:30]) == want
        assert [k for k, seen in enumerate(want) if seen] == [0, 7, 11, 29]
        assert not any(ev.ble_seen[30:])

    def sound_window(self, sound_times, wifi_time):
        """Quiet chirp checks on both devices, a chirp heard by each device
        at each of ``sound_times``, and one WiFi scan at ``wifi_time``."""
        samples = [SensorSample(wifi_time, SensorKind.WIFI_RSS, -62.0, src="a", obs="b")]
        for t in sound_times:
            for dev, peer, level in (("b", "a", 8.0), ("a", "b", 14.0)):
                samples.append(SensorSample(t, SensorKind.AMBIENT_NOISE, 11.0, src=dev))
                samples.append(SensorSample(t, SensorKind.SOUND_AMPLITUDE, level, src=dev, obs=peer))
        return build_evidence(make_window(samples, ("a", "b"), 0.0, 900.0), CFG)

    def test_sound_estimates_at_one_instant_from_both_devices(self):
        ev = self.sound_window([100.0], 100.0)
        assert [heard for _, _, heard in ev.chirps] == [True, True]
        # Window order puts device a's estimate first; it wins the equal gap.
        (t_a, from_a), (t_b, from_b) = ev.sound_distances
        assert t_a == t_b == 100.0 and from_a != from_b
        assert from_a == sound_distance(14.0, CFG.chirp, CFG.sound_exponent)
        wifi = ev.wifi_distances[0][1]
        assert stage_distance(ev, CFG) == (wifi + from_a) / 2.0

    def test_equal_gaps_either_side_go_to_the_earlier_sound(self):
        ev = self.sound_window([90.0, 110.0], 100.0)
        wifi = ev.wifi_distances[0][1]
        earliest = ev.sound_distances[0]
        assert earliest[0] == 90.0
        assert stage_distance(ev, CFG) == (wifi + earliest[1]) / 2.0

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
