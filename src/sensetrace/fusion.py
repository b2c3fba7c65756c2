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
from .ranging import ChirpSpec, PathLossParams, distance_from_rss, sound_distance

# A WiFi estimate is averaged only with a sound estimate closer in time than this.
PAIR_TOLERANCE_S = 15.0
# Timestamps this close name the same chirp attempt.
SAME_INSTANT_S = 1e-6


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
    sound_exponent: float = 2.0
    chirp: ChirpSpec = field(default_factory=ChirpSpec)

    def __post_init__(self) -> None:
        if self.contact_radius <= 0:
            raise ValueError("contact_radius must be positive")
        if not 0 < self.appearance_quorum <= 1:
            raise ValueError("appearance_quorum must lie in (0, 1]")
        if self.wifi_scan_cap < 1:
            raise ValueError("wifi_scan_cap must be >= 1")
        if self.ble_scan_period <= 0 or self.window_length <= 0:
            raise ValueError("periods must be positive")
        if not (self.sound_exponent > 0 and math.isfinite(self.sound_exponent)):
            raise ValueError(f"sound_exponent must be > 0, got {self.sound_exponent}")

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
    ``chirps`` one ``(time, noise_db, heard)`` triple per chirp attempt;
    ``wifi_distances`` and ``sound_distances`` one ``(time, metres)`` pair
    per estimate, in time order. The environment sequences are keyed by
    device then sensor kind. Proximity states are the per-device window
    majority.
    """

    ble_seen: tuple[bool, ...]
    chirps: tuple[tuple[float, float, bool], ...]
    wifi_distances: tuple[tuple[float, float], ...]
    sound_distances: tuple[tuple[float, float], ...]
    env_sequences: Mapping[str, Mapping[SensorKind, tuple[float, ...]]]
    prox_states: Mapping[str, ProximityState]


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
        for _, noise, heard in evidence.chirps:
            if noise_gate(noise, cfg):
                votes += 1
                positives += heard
    return any(evidence.ble_seen) and positives > cfg.appearance_quorum * votes


def stage_distance(evidence: StageEvidence, cfg: FusionConfig) -> float:
    """Mean pairwise-combined distance over the window.

    A sound estimate is usable when a heard chirp attempt that passed the
    noise gate shares its time. Each WiFi estimate is averaged with the
    nearest usable sound estimate within ``PAIR_TOLERANCE_S`` (the earlier
    one on an equal gap); where none exists the WiFi estimate stands alone.
    """
    if not evidence.wifi_distances:
        raise InsufficientEvidence("no WiFi distance estimates in window")
    ok_times = [t for t, noise, heard in evidence.chirps if heard and noise_gate(noise, cfg)]
    sound = [
        (ts, metres)
        for ts, metres in evidence.sound_distances
        if any(abs(ts - t) <= SAME_INSTANT_S for t in ok_times)
    ]
    combined = []
    for t, metres in evidence.wifi_distances:
        near = [s for s in sound if abs(s[0] - t) < PAIR_TOLERANCE_S]
        if near:
            metres = (metres + min(near, key=lambda s: abs(s[0] - t))[1]) / 2.0
        combined.append(metres)
    return sum(combined) / len(combined)


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
    heard_times: dict[str, list[float]] = {a: [], b: []}
    for s in by_kind[SensorKind.SOUND_AMPLITUDE]:
        heard_times.setdefault(s.src, []).append(s.timestamp)
    chirps = tuple(
        (
            s.timestamp,
            float(s.value),
            any(abs(t - s.timestamp) <= SAME_INSTANT_S for t in heard_times.get(s.src, ())),
        )
        for s in sorted(by_kind[SensorKind.AMBIENT_NOISE], key=lambda x: (x.timestamp, x.src))
    )

    wifi = tuple(
        (s.timestamp, distance_from_rss(float(s.value), cfg.radio_params))
        for s in by_kind[SensorKind.WIFI_RSS]
    )
    # A chirp received above the nominal emission level (hotter speaker than
    # assumed) is treated as at-reference-distance rather than rejected.
    sound = tuple(
        (s.timestamp, sound_distance(min(float(s.value), cfg.chirp.amplitude), cfg.chirp, cfg.sound_exponent))
        for s in by_kind[SensorKind.SOUND_AMPLITUDE]
    )

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
        chirps=chirps,
        wifi_distances=wifi,
        sound_distances=sound,
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
