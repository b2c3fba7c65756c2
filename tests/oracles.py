"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own algorithms, and hold the scalar
rules the library applies to whole columns (``magnitude``, ``local_cost``,
``proximity_state``): the DTW oracle
enumerates every monotone warping path instead of filling a DP matrix, the
sample oracle checks one sample at a time with scalar rules instead of
whole columns, the trace oracle simulates one sample at a time with the
scalar signal models instead of one instance at a time in columns, and the
decision oracle runs the stages of one tier alone instead of
fusing one assessment made for every tier, the centralized-report
oracle resolves each logged temporary id by its own search of the registry
over every epoch below the bound (or, in ``resolve_logged_id``, at its
logged epoch) instead of one pass per logged epoch for the whole log, with
each id derived whole from
hex digests of its day key and itself (``hexdigest_temp_id``) instead of
from raw bytes and a hash state shared across a day's epochs, the exposure
oracle expands every published day key and scans its ids instead of
looking the device's log up in a set, and the clock device
reads its epoch off the clock in exact rational arithmetic and publishes by
testing every epoch from 0 against the lookback and grouping the epochs
kept by day, instead of dividing floats and computing the first epoch and
each day's bounds.

The per-reading signal models (``simulate_rss``, ``simulate_sound``,
``simulate_barometer``, ``simulate_magnetometer``) compose the simulator's
level and reading rules for one draw at a time, and ``assess_window`` and
``run_tier`` drive the detector one instance at a time: no command runs
them, so they live here, beside the trace oracle that calls them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional, Sequence

import numpy as np

from sensetrace.core import (
    CONTACT_DISTANCE_M,
    ContactDecision,
    GroundTruthLabel,
    ProximityState,
    SensorKind,
    SensorSample,
    as_trace,
    make_window,
)
from sensetrace.errors import NotDue, ScenarioError
from sensetrace.protocol import (
    DEFAULT_ROTATION_PERIOD_S,
    ContactLogEntry,
    DeviceState,
    ExposureStatus,
    ServerState,
)
from sensetrace.evaluation import (
    ConfusionCounts,
    assess_instances,
    confusion,
    fuse_instances,
)
from sensetrace.fusion import (
    Assessment,
    DecisionRecord,
    FusionConfig,
    StageEvidence,
    TierSpec,
    assess,
    build_evidence,
    stage_appearance,
    stage_distance,
    stage_environment,
)
from sensetrace.ranging import ChirpSpec, PathLossParams
from sensetrace.simulator import INDOOR, DevicePlacement, PropagationNoise, Scenario, Testbed, place_instances
from sensetrace.simulator.signals import (
    _require_placed,
    barometer_level,
    link,
    magnetometer_reading,
    rss_level,
    rss_reading,
    rss_sigma,
    sound_gated,
    sound_heard,
    sound_level,
)


def magnitude(mx: float, my: float, mz: float) -> float:
    """Total scalar magnitude of a 3-axis magnetic reading, one reading at a
    time: the reference for ``Trace.magnitudes``."""
    for c in (mx, my, mz):
        if not math.isfinite(c):
            raise ValueError(f"magnetometer component must be finite, got {c}")
    return math.sqrt(mx * mx + my * my + mz * mz)


def local_cost(a: float, b: float) -> float:
    """Squared difference between two scalar measures: the cell cost
    ``dtw_score`` inlines."""
    d = a - b
    return d * d


def proximity_state(value: float) -> ProximityState:
    """Binary near/far from one stored proximity sample (1.0 = near): the
    rule ``build_evidence`` applies to a device's proximity column."""
    return ProximityState.NEAR if value >= 0.5 else ProximityState.FAR


def brute_force_dtw(a: Sequence[float], b: Sequence[float]) -> float:
    """Normalized DTW score by exhaustive enumeration of warping paths.

    Enumerates every monotone path from (0, 0) to (N-1, M-1) and picks the
    minimum of (total squared cost, path length): among minimum-cost paths
    the shortest wins (the same policy the implementation documents).
    Returns min_cost / len(chosen path). Only usable for tiny products N*M.
    """
    n, m = len(a), len(b)
    best = (float("inf"), 0)

    def walk(i: int, j: int, cost: float, length: int) -> None:
        nonlocal best
        cost += (a[i] - b[j]) ** 2
        length += 1
        if i == n - 1 and j == m - 1:
            best = min(best, (cost, length))
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost, length)
        if i + 1 < n:
            walk(i + 1, j, cost, length)
        if j + 1 < m:
            walk(i, j + 1, cost, length)

    walk(0, 0, 0.0, 0)
    cost, length = best
    return cost / length


PEER_KINDS = (SensorKind.BLE_RSS, SensorKind.WIFI_RSS, SensorKind.SOUND_AMPLITUDE)


def _number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def sample_fault(s: SensorSample) -> Optional[str]:
    """Why one sample breaks the sample contract, or None.

    The rules on each field's type come first, then those on its value;
    a sample that breaks several reports the first.
    """
    if not _number(s.timestamp):
        return f"timestamp must be finite and >= 0, got {s.timestamp!r}"
    if s.kind is SensorKind.MAGNETOMETER:
        if not (isinstance(s.value, (list, tuple)) and len(s.value) == 3):
            return "magnetometer samples carry exactly 3 components"
        if not all(_number(c) for c in s.value):
            return "magnetometer components must be finite"
    elif not _number(s.value):
        return f"{s.kind.name} value must be a finite number, got {s.value!r}"
    if not (isinstance(s.src, str) and s.src):
        return f"src must name a device, got {s.src!r}"
    if not (s.obs is None or isinstance(s.obs, str) and s.obs):
        return f"obs must name a device or be null, got {s.obs!r}"
    t = float(s.timestamp)
    if not (math.isfinite(t) and t >= 0.0):
        return f"timestamp must be finite and >= 0, got {t!r}"
    if s.kind is SensorKind.MAGNETOMETER:
        if not all(math.isfinite(c) for c in s.value):
            return "magnetometer components must be finite"
    else:
        value = float(s.value)
        if not math.isfinite(value):
            return f"{s.kind.name} value must be a finite number, got {value!r}"
        if s.kind in (SensorKind.BLE_RSS, SensorKind.WIFI_RSS) and not -120.0 <= value <= 0.0:
            return f"RSS must lie in [-120, 0] dBm, got {value}"
        if s.kind is SensorKind.BAROMETER and not 300.0 <= value <= 1100.0:
            return f"barometer must lie in [300, 1100] hPa, got {value}"
    if s.obs == s.src:
        return "a device cannot observe itself"
    peer = s.kind in PEER_KINDS
    if peer != (s.obs is not None):
        return f"{s.kind.name} samples {'must' if peer else 'cannot'} name an observed device"
    return None


def checked(sample: SensorSample) -> SensorSample:
    """``sample``, or ValueError with the reason it breaks the sample contract."""
    fault = sample_fault(sample)
    if fault is not None:
        raise ValueError(fault)
    return sample


def sample_from_record(record: dict) -> SensorSample:
    """One trace-file record as a checked sample: the per-line reference
    for ``read_trace``."""
    value = record["value"]
    return checked(
        SensorSample(
            record["t"],
            SensorKind(record["kind"]),
            tuple(value) if isinstance(value, list) else value,
            record["src"],
            record["obs"],
        )
    )


def simulate_rss(
    tx: DevicePlacement,
    rx: DevicePlacement,
    kind: SensorKind,
    testbed: Testbed,
    noise: PropagationNoise,
    params: PathLossParams,
    rng: np.random.Generator,
    tx_offset_db: float = 0.0,
    path_bias_db: float = 0.0,
) -> Optional[float]:
    """One BLE or WiFi scan observation of ``tx`` by ``rx``; None if missed.

    ``tx_offset_db`` models the transmitter's calibration error and
    ``path_bias_db`` the persistent multipath gain of this static pair.
    """
    sigma = rss_sigma(kind, noise)
    rss = rss_level(link(tx, rx, testbed), kind, noise, params, tx_offset_db, path_bias_db)
    rss += rng.normal(0.0, sigma) if sigma > 0 else 0.0
    seen, reading = rss_reading(rss, noise)
    return float(reading) if seen else None


def simulate_sound(
    tx: DevicePlacement,
    rx: DevicePlacement,
    chirp: ChirpSpec,
    testbed: Testbed,
    noise: PropagationNoise,
    rng: np.random.Generator,
    exponent: float = 2.0,
    tx_level_db: float = 0.0,
) -> Optional[float]:
    """Received amplitude of a chirp from ``tx`` at ``rx``; None when unheard.

    Hard absent beyond the maximum range or across two or more floors; also
    absent whenever the receiver's ambient noise exceeds the arriving level.
    """
    path = link(tx, rx, testbed)
    if sound_gated(path, noise):
        return None
    received = sound_level(path, chirp, exponent, tx_level_db)
    if noise.sound_sigma_db > 0:
        received += rng.normal(0.0, noise.sound_sigma_db)
    return received if sound_heard(received, testbed.ambient_noise_at(rx.x, rx.y)) else None


def simulate_barometer(
    device: DevicePlacement,
    testbed: Testbed,
    rng: np.random.Generator,
) -> float:
    """Air pressure at the device: base minus the per-floor gap, plus the
    outdoor offset, a pocket bias when stowed, and sensor noise."""
    _require_placed(testbed, device)
    value = barometer_level(device, testbed)
    if testbed.pressure.sigma_hpa > 0:
        value += rng.normal(0.0, testbed.pressure.sigma_hpa)
    return value


def simulate_magnetometer(
    device: DevicePlacement,
    testbed: Testbed,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """A 3-axis magnetic reading whose magnitude tracks the local field mean;
    the direction is uniform (the phone's orientation is arbitrary), drawn
    once as three normals. An all-zero draw gives NaN components, which the
    sample contract rejects."""
    _require_placed(testbed, device)
    mean = testbed.magnetic_mean_at(device.x, device.y, device.floor)
    sigma = testbed.magnetic.sensor_sigma_ut
    mag = mean + (rng.normal(0.0, sigma) if sigma > 0 else 0.0)

    direction = rng.normal(size=3)
    v = magnetometer_reading(mag, direction, float(np.linalg.norm(direction)))
    return (float(v[0]), float(v[1]), float(v[2]))


def repeated_sample(samples: Sequence[SensorSample]) -> Optional[tuple[int, int]]:
    """The first sample that repeats an earlier one's (time, kind, src,
    obs), and that earlier one, by index; or None. The reference for the
    rule ``read_trace`` holds a trace file to, one sample at a time."""
    seen: dict[tuple, int] = {}
    for i, s in enumerate(samples):
        key = (float(s.timestamp), s.kind, s.src, s.obs)
        if key in seen:
            return i, seen[key]
        seen[key] = i
    return None


def _slot_times(length: float, period: float) -> list[float]:
    n = int(math.floor((length - 1e-9) / period)) + 1
    return [k * period for k in range(n)]


def sequential_traces(scenario: Scenario) -> tuple[dict[str, list[SensorSample]], list[GroundTruthLabel]]:
    """Per-device traces and labels, one sample and one draw at a time.

    Every sample is checked as it is drawn, so the first one that breaks
    the sample contract raises, naming its instance; each device's samples
    are then sorted by (time, kind, observed device).
    """
    rng = np.random.default_rng(scenario.seed)
    tb = scenario.testbed
    cfg = scenario.fusion
    noise = scenario.noise
    length = cfg.window_length

    instances = place_instances(scenario, rng)
    traces: dict[str, list[SensorSample]] = {}
    labels: list[GroundTruthLabel] = []

    ble_slots = _slot_times(length, cfg.ble_scan_period)
    wifi_slots = _slot_times(length, cfg.wifi_scan_period)
    sound_slots = _slot_times(length, scenario.sound_period)
    env_slots = _slot_times(length, scenario.env_period)

    for inst in instances:
        try:
            a, b = inst.a, inst.b
            tx_offset = {
                a.device_id: float(rng.normal(0.0, noise.tx_power_sigma_db)) if noise.tx_power_sigma_db > 0 else 0.0,
                b.device_id: float(rng.normal(0.0, noise.tx_power_sigma_db)) if noise.tx_power_sigma_db > 0 else 0.0,
            }
            snd_offset = {
                a.device_id: float(rng.normal(0.0, noise.sound_level_sigma_db)) if noise.sound_level_sigma_db > 0 else 0.0,
                b.device_id: float(rng.normal(0.0, noise.sound_level_sigma_db)) if noise.sound_level_sigma_db > 0 else 0.0,
            }
            # Reciprocal multipath gain of this static pair, one draw per band.
            mp_sigma = (
                noise.multipath_sigma_indoor_db
                if inst.environment == INDOOR
                else noise.multipath_sigma_outdoor_db
            )
            path_bias = {
                SensorKind.BLE_RSS: float(rng.normal(0.0, mp_sigma)) if mp_sigma > 0 else 0.0,
                SensorKind.WIFI_RSS: float(rng.normal(0.0, mp_sigma)) if mp_sigma > 0 else 0.0,
            }
            samples: dict[str, list[SensorSample]] = {a.device_id: [], b.device_id: []}

            for kind, slots in ((SensorKind.BLE_RSS, ble_slots), (SensorKind.WIFI_RSS, wifi_slots)):
                for t in slots:
                    for rx, tx in ((a, b), (b, a)):
                        rss = simulate_rss(
                            tx, rx, kind, tb, noise, cfg.radio_params, rng,
                            tx_offset_db=tx_offset[tx.device_id],
                            path_bias_db=path_bias[kind],
                        )
                        if rss is not None:
                            samples[rx.device_id].append(
                                checked(SensorSample(t, kind, rss, src=rx.device_id, obs=tx.device_id))
                            )

            for t in sound_slots:
                for rx, tx in ((a, b), (b, a)):
                    ambient = tb.ambient_noise_at(rx.x, rx.y)
                    if noise.ambient_sigma_db > 0:
                        ambient += float(rng.normal(0.0, noise.ambient_sigma_db))
                    samples[rx.device_id].append(
                        checked(SensorSample(t, SensorKind.AMBIENT_NOISE, ambient, src=rx.device_id))
                    )
                    heard = simulate_sound(
                        tx, rx, cfg.chirp, tb, noise, rng,
                        exponent=cfg.sound_exponent,
                        tx_level_db=snd_offset[tx.device_id],
                    )
                    if heard is not None:
                        samples[rx.device_id].append(
                            checked(SensorSample(t, SensorKind.SOUND_AMPLITUDE, heard, src=rx.device_id, obs=tx.device_id))
                        )

            for t in env_slots:
                for dev in (a, b):
                    samples[dev.device_id].append(
                        checked(SensorSample(t, SensorKind.BAROMETER, simulate_barometer(dev, tb, rng), src=dev.device_id))
                    )
                    samples[dev.device_id].append(
                        checked(SensorSample(
                            t, SensorKind.MAGNETOMETER, simulate_magnetometer(dev, tb, rng), src=dev.device_id
                        ))
                    )
                    samples[dev.device_id].append(
                        checked(SensorSample(
                            t,
                            SensorKind.PROXIMITY,
                            1.0 if dev.posture is ProximityState.NEAR else 0.0,
                            src=dev.device_id,
                        ))
                    )

            for dev_id, recs in samples.items():
                recs.sort(key=lambda s: (s.timestamp, s.kind.value, s.obs or ""))
                traces[dev_id] = recs

            d = tb.true_distance(a, b)
            labels.append(
                GroundTruthLabel(
                    pair=inst.pair,
                    start=0.0,
                    end=length,
                    true_distance=d,
                    is_contact=d <= CONTACT_DISTANCE_M,
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"instance {inst.index} {inst.pair}: {exc}") from exc

    return traces, labels


def assess_window(traces, pair: tuple[str, str], start: float, end: float, cfg: FusionConfig) -> Assessment:
    """One instance's assessment from its own window of the traces of its
    pair (each a ``Trace`` or a list of samples; a device ``traces`` lacks
    has none): the per-window reference that ``assess_instances`` equals."""
    a, b = pair
    pool = as_trace(traces.get(a, ())) + as_trace(traces.get(b, ()))
    return assess(build_evidence(make_window(pool, pair, start, end - start), cfg), cfg)


def run_tier(
    traces,
    truth: Sequence[GroundTruthLabel],
    tier: TierSpec,
    cfg: FusionConfig,
) -> tuple[list[DecisionRecord], ConfusionCounts]:
    """One system tier over every labelled instance, through the batch path
    ``detect`` runs: the decisions and their confusion counts."""
    instances = [(label.pair, label.start, label.end) for label in truth]
    records = fuse_instances(instances, assess_instances(traces, instances, cfg), cfg, tier)
    return records, confusion(records, truth)


def gated_decide(evidence: StageEvidence, cfg: FusionConfig, tier: TierSpec) -> ContactDecision:
    """The decision of one ``TierSpec``, from the stages run for that tier
    alone: the sound stage (chirp votes and the distance gate) from
    APPEARANCE_DISTANCE on and the environment gate in FULL, the
    environment threshold tested here, and the reason for each stage
    without evidence, in words of its own, kept only when the tier gates
    on that stage."""
    use_sound = tier in (TierSpec.APPEARANCE_DISTANCE, TierSpec.FULL)
    gate_environment = tier == TierSpec.FULL
    reasons = []
    appearance = stage_appearance(evidence, cfg, use_sound)
    if appearance is None:
        appearance = False
        reasons.append("appearance: no BLE scan attempts in window")
    mean_distance = stage_distance(evidence, cfg)
    if mean_distance is None and use_sound:
        reasons.append("distance: no WiFi distance estimates in window")
    env_sensor, env_score = stage_environment(evidence)
    if env_score is None and gate_environment:
        if env_sensor is None:
            reasons.append("environment: proximity state missing for one or both devices")
        else:
            reasons.append(f"environment: missing {env_sensor.value} sequence for pair")
    contact = appearance
    if use_sound:
        contact = contact and mean_distance is not None and mean_distance <= cfg.contact_radius
    if gate_environment:
        contact = contact and env_score is not None and env_score <= cfg.env_thresholds.for_sensor(env_sensor)
    return ContactDecision(
        appearance=appearance,
        mean_distance=mean_distance,
        env_score=env_score,
        env_sensor_used=None if env_score is None else env_sensor,
        contact=contact,
        degraded_reason="; ".join(reasons) if reasons else None,
    )


def hexdigest_day_key(secret: bytes, day: int) -> bytes:
    """A device's key for ``day``, written out: the first 32 hex digits of
    the SHA-256 of the secret, ``|`` and the day's digits."""
    return bytes.fromhex(hashlib.sha256(secret + b"|" + str(day).encode("ascii")).hexdigest()[:32])


def hexdigest_temp_id(secret: bytes, epoch: int) -> str:
    """A device's temporary id at ``epoch``, written out: ``t`` and the
    first 16 hex digits of the SHA-256 of the key of the epoch's day, ``|``
    and the epoch's digits."""
    key = hexdigest_day_key(secret, epoch // 96)
    return "t" + hashlib.sha256(key + b"|" + str(epoch).encode("ascii")).hexdigest()[:16]


def resolve_temp_id(server: ServerState, temp_id: str, max_epoch: int = 256) -> Optional[str]:
    """The first registered device (in sorted order) whose id at some epoch
    below ``max_epoch`` is ``temp_id``, searched afresh for this one id
    from the secrets the server learnt at registration."""
    for permanent in sorted(server.registered):
        for epoch in range(max_epoch):
            if hexdigest_temp_id(server.device_secrets[permanent], epoch) == temp_id:
                return permanent
    return None


def resolve_logged_id(server: ServerState, temp_id: str, epoch: object, max_epoch: int = 256) -> Optional[str]:
    """The first registered device (in sorted order) whose id at the logged
    ``epoch`` is ``temp_id``: ``resolve_temp_id`` limited to that one epoch.
    An epoch that is not an ``int`` (a ``bool`` is not one here), or not
    below ``max_epoch``, or negative, matches nothing."""
    if type(epoch) is not int or not 0 <= epoch < max_epoch:
        return None
    for permanent in sorted(server.registered):
        if hexdigest_temp_id(server.device_secrets[permanent], epoch) == temp_id:
            return permanent
    return None


def report_centralized_per_entry(device: DeviceState, server: ServerState, now: Optional[float] = None) -> set[str]:
    """``report_positive_centralized`` with every log entry resolved on its
    own by ``resolve_temp_id``: the same upload and notifications. Given
    ``now``, an entry whose window ended before the lookback is skipped."""
    kept = []
    for entry in device.contact_log:
        if now is None or not entry.window_end < now - server.lookback_s:
            kept.append(entry)
    server.uploaded_contact_lists[device.permanent_id] = kept
    notified: set[str] = set()
    for entry in kept:
        peer = resolve_temp_id(server, entry.peer_temp_id)
        if peer is None:
            continue
        notified.add(peer)
        server.notifications_sent.setdefault(peer, []).append((entry.window_start, entry.window_end))
    return notified


def clock_epoch(t: float) -> int:
    """The clock epoch at time ``t``: the number of whole rotation periods
    from time 0 to ``t``, in exact arithmetic. A non-finite ``t`` raises
    ``ValueError``."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return math.floor(Fraction(t) / Fraction(DEFAULT_ROTATION_PERIOD_S))


def temp_id_history(device) -> dict[int, str]:
    """Every temporary id ``device`` can have used, by epoch: one for each
    clock epoch up to its current one, which only the holder of its secret
    can resolve."""
    return {e: hexdigest_temp_id(device.secret, e) for e in range(device.epoch + 1)}


@dataclass
class ClockDevice:
    """The reference for ``DeviceState``: its temporary id is written out
    from hex digests at each read, and its secret is all zeros unless
    given. It has every attribute
    ``register_device``, ``exchange_ids``, ``check_exposure`` and
    ``notify_devices`` read, so those run on it unchanged."""

    permanent_id: str
    epoch: int = 0
    contact_log: list[ContactLogEntry] = field(default_factory=list)
    exposure_status: ExposureStatus = ExposureStatus.NONE
    secret: bytes = bytes(16)

    @property
    def temp_id(self) -> str:
        return hexdigest_temp_id(self.secret, self.epoch)


def clock_rotate(device: ClockDevice, now: float) -> None:
    """``rotate_id`` for a ``ClockDevice``: move to the clock epoch of
    ``now`` if it is later than the device's, else ``NotDue``."""
    epoch = clock_epoch(now)
    if epoch <= device.epoch:
        raise NotDue(f"rotation at t={now} too early")
    device.epoch = epoch


def clock_report_decentralized(device, server: ServerState, now: Optional[float]) -> frozenset[str]:
    """``report_positive_decentralized`` written out: every epoch from 0 to
    the device's current one whose end, ``(e + 1) * period`` exactly or
    ``now`` for the current epoch, is not before ``now - lookback``; every
    epoch when ``now`` is None. The epochs kept are grouped by day, and
    each day's key is published with the first and last of them. A ``now``
    in an epoch before the device's raises ``ValueError``."""
    if now is not None and clock_epoch(now) < device.epoch:
        raise ValueError(f"report time {now} is before epoch {device.epoch}")
    period = Fraction(DEFAULT_ROTATION_PERIOD_S)
    kept: dict[int, list[int]] = {}
    for e in range(device.epoch + 1):
        if now is None or e == device.epoch or (e + 1) * period >= now - server.lookback_s:
            kept.setdefault(e // 96, []).append(e)
    server.published_positive_ids.extend(
        (hexdigest_day_key(device.secret, day), epochs[0], epochs[-1]) for day, epochs in sorted(kept.items())
    )
    return frozenset(hexdigest_temp_id(device.secret, e) for epochs in kept.values() for e in epochs)


def expand_public_list(published: Sequence[tuple[bytes, int, int]]) -> list[str]:
    """Every id that the ``(day key, first epoch, last epoch)`` records of a
    public list yield, in order, each derived whole from its hex digest."""
    return [
        "t" + hashlib.sha256(key + b"|" + str(epoch).encode("ascii")).hexdigest()[:16]
        for key, first, last in published
        for epoch in range(first, last + 1)
    ]


def exposed_by_scan(device: DeviceState, published: Sequence[tuple[bytes, int, int]]) -> bool:
    """``check_exposure`` against a public list of day-key records, without
    setting the status: whether any id the records yield, scanned one by
    one, appears in the device's log."""
    logged = {entry.peer_temp_id for entry in device.contact_log}
    return any(temp_id in logged for temp_id in expand_public_list(published))
