"""Staged fusion pipeline for one device pair over one window.

Stage 1 scans for the peer over BLE (majority vote), stage 2 gates sound by
ambient noise and listens for chirps, stage 3 averages WiFi and sound
distances, stage 4 compares the shared environment. All three output metrics
are always computed and reported; a stage without evidence degrades its
metric to unknown and forces a negative verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .core import (
    ContactDecision,
    ContactWindow,
    DeviceId,
    ProximityState,
    SensorKind,
    canonical_pair,
)
from .envmatch import EnvThresholds, env_similar, magnitude, select_env_sensor
from .errors import InsufficientEvidence, NoContact
from .ranging import (
    ChirpSpec,
    DistanceEstimate,
    PathLossParams,
    aggregate_window_distance,
    combine_distances,
    distance_from_rss,
    sound_distance,
)


@dataclass(frozen=True)
class FusionConfig:
    """Pipeline configuration: cadences, gates, thresholds and the detector's
    calibration of the ranging models."""

    contact_radius: float = 1.0
    window_length: float = 900.0
    ble_scan_period: float = 30.0
    wifi_scan_cap: int = 4  # scans per 120 s (platform restriction)
    noise_gate_db: float = 20.0  # default = chirp amplitude
    appearance_quorum: float = 0.5  # strict majority
    env_thresholds: EnvThresholds = field(default_factory=EnvThresholds)
    radio_params: PathLossParams = field(default_factory=PathLossParams)
    sound_params: PathLossParams = field(default_factory=PathLossParams)
    chirp: ChirpSpec = field(default_factory=ChirpSpec)
    distance_pair_tolerance: float = 15.0  # max |t_wifi - t_sound| to average

    def __post_init__(self) -> None:
        if self.contact_radius <= 0:
            raise ValueError("contact_radius must be positive")
        if not 0 < self.appearance_quorum <= 1:
            raise ValueError("appearance_quorum must lie in (0, 1]")
        if self.wifi_scan_cap < 1:
            raise ValueError("wifi_scan_cap must be >= 1")
        if self.ble_scan_period <= 0 or self.window_length <= 0:
            raise ValueError("periods must be positive")

    @property
    def wifi_scan_period(self) -> float:
        return 120.0 / self.wifi_scan_cap


@dataclass(frozen=True)
class StageGates:
    """Which parts of the pipeline participate in the verdict; disabled gates
    count as passed. Used to reproduce the staged system comparisons."""

    use_chirp_votes: bool = True
    gate_distance: bool = True
    gate_environment: bool = True


FULL_GATES = StageGates()


@dataclass(frozen=True)
class StageEvidence:
    """Window evidence for one pair, grouped by pipeline stage.

    ``ble_seen`` holds one boolean per scheduled BLE scan (both directions);
    ``attempt_times``, ``noise_db`` and ``chirp_heard`` are parallel lists,
    one entry per chirp attempt; the environment sequences are keyed by
    device then sensor kind. Proximity states are the per-device window
    majority.
    """

    ble_seen: tuple[bool, ...]
    attempt_times: tuple[float, ...]
    noise_db: tuple[float, ...]
    chirp_heard: tuple[bool, ...]
    wifi_distances: tuple[DistanceEstimate, ...]
    sound_distances: tuple[DistanceEstimate, ...]
    env_sequences: Mapping[str, Mapping[SensorKind, tuple[float, ...]]]
    prox_states: Mapping[str, ProximityState]

    def __post_init__(self) -> None:
        if not (len(self.attempt_times) == len(self.noise_db) == len(self.chirp_heard)):
            raise ValueError("chirp attempt lists must be parallel")


def noise_gate(noise_db: float, cfg: FusionConfig) -> bool:
    """True when the ambient noise leaves the chirp audible (<= gate)."""
    if not math.isfinite(noise_db):
        raise ValueError(f"noise level must be finite, got {noise_db}")
    return noise_db <= cfg.noise_gate_db


def stage_appearance(
    evidence: StageEvidence,
    cfg: FusionConfig,
    use_chirp_votes: bool = True,
) -> bool:
    """Majority vote over appearance evidence.

    Every BLE scan is a vote; chirp attempts vote too when the noise gate
    permitted them (an unheard chirp in a quiet environment argues against
    proximity, since sound does not cross walls easily). At least one actual
    BLE sighting is required: BLE is what kick-starts the rest.
    """
    if not evidence.ble_seen:
        raise InsufficientEvidence("no BLE scan attempts in window")
    votes = len(evidence.ble_seen)
    positives = sum(evidence.ble_seen)
    if use_chirp_votes:
        for noise, heard in zip(evidence.noise_db, evidence.chirp_heard):
            if noise_gate(noise, cfg):
                votes += 1
                positives += heard
    return any(evidence.ble_seen) and positives > cfg.appearance_quorum * votes


def _usable_sound(evidence: StageEvidence, cfg: FusionConfig) -> list[DistanceEstimate]:
    """Sound estimates at attempts where the gate passed and the chirp was heard."""
    ok_times = [
        t
        for t, noise, heard in zip(evidence.attempt_times, evidence.noise_db, evidence.chirp_heard)
        if heard and noise_gate(noise, cfg)
    ]
    return [
        e
        for e in evidence.sound_distances
        if any(abs(e.timestamp - t) <= 1e-6 for t in ok_times)
    ]


def stage_distance(evidence: StageEvidence, cfg: FusionConfig) -> float:
    """Mean pairwise-combined distance over the window.

    Each WiFi estimate is averaged with the nearest usable sound estimate
    (within the pairing tolerance); where none exists the WiFi estimate
    stands alone.
    """
    if not evidence.wifi_distances:
        raise InsufficientEvidence("no WiFi distance estimates in window")
    sound = _usable_sound(evidence, cfg)
    combined = []
    for w in evidence.wifi_distances:
        nearest = None
        for s in sound:
            if abs(s.timestamp - w.timestamp) < cfg.distance_pair_tolerance:
                if nearest is None or abs(s.timestamp - w.timestamp) < abs(nearest.timestamp - w.timestamp):
                    nearest = s
        metres = combine_distances(w.metres, nearest.metres if nearest else None)
        combined.append(DistanceEstimate(metres, w.source, w.timestamp))
    return aggregate_window_distance(combined)


def stage_environment(
    evidence: StageEvidence,
    cfg: FusionConfig,
) -> tuple[float, SensorKind, bool]:
    """Pick the environment sensor from the pair's proximity states and
    compare the matching sequences; returns (score, sensor, similar)."""
    devices = sorted(evidence.prox_states)
    if len(devices) != 2:
        raise InsufficientEvidence("proximity state missing for one or both devices")
    a, b = devices
    sensor = select_env_sensor(evidence.prox_states[a], evidence.prox_states[b])
    seq_a = evidence.env_sequences.get(a, {}).get(sensor, ())
    seq_b = evidence.env_sequences.get(b, {}).get(sensor, ())
    if not seq_a or not seq_b:
        raise InsufficientEvidence(f"missing {sensor.value} sequence for pair")
    score, similar = env_similar(seq_a, seq_b, sensor, cfg.env_thresholds)
    return score, sensor, similar


def decide(
    evidence: StageEvidence,
    cfg: FusionConfig,
    gates: StageGates = FULL_GATES,
) -> ContactDecision:
    """Run all three stages (no short-circuiting) and fuse the verdict.

    contact = appearance AND distance <= radius AND environment similar,
    with disabled gates counting as passed. A stage left unknown by missing
    evidence forces contact=False when its gate is active.
    """
    reasons = []

    try:
        appearance = stage_appearance(evidence, cfg, gates.use_chirp_votes)
    except InsufficientEvidence as exc:
        appearance = False
        reasons.append(f"appearance: {exc}")

    mean_distance: Optional[float]
    try:
        mean_distance = stage_distance(evidence, cfg)
    except InsufficientEvidence as exc:
        mean_distance = None
        if gates.gate_distance:
            reasons.append(f"distance: {exc}")

    env_score: Optional[float]
    env_sensor: Optional[SensorKind]
    try:
        env_score, env_sensor, env_ok = stage_environment(evidence, cfg)
    except InsufficientEvidence as exc:
        env_score, env_sensor, env_ok = None, None, False
        if gates.gate_environment:
            reasons.append(f"environment: {exc}")

    distance_pass = mean_distance is not None and mean_distance <= cfg.contact_radius
    contact = (
        appearance
        and (distance_pass if gates.gate_distance else True)
        and (env_ok if gates.gate_environment else True)
    )
    return ContactDecision(
        appearance=appearance,
        mean_distance=mean_distance,
        env_score=env_score,
        env_sensor_used=env_sensor,
        contact=contact,
        degraded_reason="; ".join(reasons) if reasons else None,
    )


# --- contact log ------------------------------------------------------------


@dataclass(frozen=True)
class ContactLogEntry:
    """What a device persists about a registered contact: the peer's current
    temporary id and the window metadata. No raw sensor data, no permanent id."""

    peer_temp_id: str
    window_start: float
    window_end: float
    mean_distance: Optional[float]


def register_contact(
    decision: ContactDecision,
    peer: DeviceId,
    window: ContactWindow,
    log: list[ContactLogEntry],
) -> ContactLogEntry:
    """Append one log entry for a positive decision; rejects negatives."""
    if not decision.contact:
        raise NoContact("cannot register a non-contact decision")
    entry = ContactLogEntry(
        peer_temp_id=peer.temp_id,
        window_start=window.start,
        window_end=window.end,
        mean_distance=decision.mean_distance,
    )
    log.append(entry)
    return entry


# --- evidence extraction and decision records -------------------------------


def build_evidence(window: ContactWindow, cfg: FusionConfig) -> StageEvidence:
    """Assemble stage evidence from a window's raw samples.

    BLE attempts are reconstructed from the scan cadence (a miss leaves no
    sample); chirp attempts are anchored to the ambient-noise checks each
    device records. A device with no proximity samples is assumed in the
    open (FAR).
    """
    a, b = window.pair
    by_kind: dict[SensorKind, list] = {k: [] for k in SensorKind}
    for s in window.samples:
        by_kind[s.kind].append(s)

    # One BLE attempt per device per scan period; positive if a sighting
    # of the peer landed in that slot.
    ble_seen: list[bool] = []
    n_slots = max(1, int(round(window.length / cfg.ble_scan_period)))
    for dev, peer in ((a, b), (b, a)):
        hits = [s.timestamp for s in by_kind[SensorKind.BLE_RSS] if s.src == dev and s.obs == peer]
        for k in range(n_slots):
            lo = window.start + k * cfg.ble_scan_period
            hi = lo + cfg.ble_scan_period
            ble_seen.append(any(lo <= t < hi for t in hits))

    # Chirp attempts: each ambient-noise check is one listening attempt.
    attempt_times: list[float] = []
    noise_db: list[float] = []
    chirp_heard: list[bool] = []
    heard_times: dict[str, list[float]] = {a: [], b: []}
    for s in by_kind[SensorKind.SOUND_AMPLITUDE]:
        heard_times.setdefault(s.src, []).append(s.timestamp)
    for s in sorted(by_kind[SensorKind.AMBIENT_NOISE], key=lambda x: (x.timestamp, x.src)):
        attempt_times.append(s.timestamp)
        noise_db.append(float(s.value))
        heard = any(abs(t - s.timestamp) <= 1e-6 for t in heard_times.get(s.src, ()))
        chirp_heard.append(heard)

    wifi = [
        DistanceEstimate(distance_from_rss(float(s.value), cfg.radio_params), SensorKind.WIFI_RSS, s.timestamp)
        for s in by_kind[SensorKind.WIFI_RSS]
    ]
    # A chirp received above the nominal emission level (hotter speaker than
    # assumed) is treated as at-reference-distance rather than rejected.
    sound = [
        DistanceEstimate(
            sound_distance(min(float(s.value), cfg.chirp.amplitude), cfg.chirp, cfg.sound_params),
            SensorKind.SOUND_AMPLITUDE,
            s.timestamp,
        )
        for s in by_kind[SensorKind.SOUND_AMPLITUDE]
    ]

    env: dict[str, dict[SensorKind, tuple[float, ...]]] = {a: {}, b: {}}
    for dev in (a, b):
        env[dev][SensorKind.BAROMETER] = tuple(
            float(s.value) for s in by_kind[SensorKind.BAROMETER] if s.src == dev
        )
        env[dev][SensorKind.MAGNETOMETER] = tuple(
            magnitude(*s.value) for s in by_kind[SensorKind.MAGNETOMETER] if s.src == dev
        )

    prox: dict[str, ProximityState] = {}
    for dev in (a, b):
        states = [
            ProximityState.from_value(float(s.value))
            for s in by_kind[SensorKind.PROXIMITY]
            if s.src == dev
        ]
        if states:
            near = sum(1 for st in states if st is ProximityState.NEAR)
            prox[dev] = ProximityState.NEAR if near > len(states) / 2 else ProximityState.FAR
        else:
            prox[dev] = ProximityState.FAR

    return StageEvidence(
        ble_seen=tuple(ble_seen),
        attempt_times=tuple(attempt_times),
        noise_db=tuple(noise_db),
        chirp_heard=tuple(chirp_heard),
        wifi_distances=tuple(wifi),
        sound_distances=tuple(sound),
        env_sequences=env,
        prox_states=prox,
    )


@dataclass(frozen=True)
class DecisionRecord:
    """A decision keyed by its (pair, window) instance."""

    pair: tuple[str, str]
    start: float
    end: float
    decision: ContactDecision

    @property
    def key(self) -> tuple[tuple[str, str], float, float]:
        return (self.pair, self.start, self.end)


def decision_to_json(record: DecisionRecord) -> str:
    d = record.decision
    payload = {
        "pair": list(record.pair),
        "window": [record.start, record.end],
        "appearance": d.appearance,
        "mean_distance_m": d.mean_distance,
        "env_score": d.env_score,
        "env_sensor": d.env_sensor_used.value if d.env_sensor_used else None,
        "contact": d.contact,
        "degraded_reason": d.degraded_reason,
    }
    return json.dumps(payload, separators=(",", ":"))


def decision_from_record(p: dict) -> DecisionRecord:
    sensor = p.get("env_sensor")
    decision = ContactDecision(
        appearance=p["appearance"],
        mean_distance=p["mean_distance_m"],
        env_score=p["env_score"],
        env_sensor_used=SensorKind(sensor) if sensor else None,
        contact=p["contact"],
        degraded_reason=p.get("degraded_reason"),
    )
    start, end = p["window"]
    return DecisionRecord(pair=canonical_pair(p["pair"]), start=start, end=end, decision=decision)
