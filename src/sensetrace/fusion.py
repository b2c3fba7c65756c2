"""Staged fusion pipeline for one device pair over one window.

Stage 1 scans for the peer over BLE (majority vote), stage 2 gates sound by
ambient noise and listens for chirps, stage 3 averages WiFi and sound
distances, stage 4 scores the shared environment. Each stage measures and
nothing more; a stage without evidence leaves its measurement None.

``assess`` runs every stage once per window, for every gate setting at
once, into an ``Assessment`` of five measurements. ``decide`` alone judges
them: it fuses an assessment into the verdict of one ``StageGates``, tests
the environment score against its sensor's threshold and says why a gated
stage had no evidence, so the tiers of one window share a single
assessment.

``build_evidence`` and the ``stage_*`` functions take one window; they are
the reference. ``assess_windows``, which detection uses, assesses a whole
run's windows with array operations and gives equal assessments, bit for
bit. ``decision_to_json`` and ``decision_from_record`` write and read a
decision record; what a positive decision leads to, the id exchange and its
contact log, belongs to ``protocol``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (
    KIND_CODES,
    ContactDecision,
    ContactWindow,
    ProximityState,
    SensorKind,
    canonical_pair,
    window_bounds,
)
from . import envmatch  # dtw_score is looked up there, where perfbench wraps it
from .envmatch import EnvThresholds, dtw_scores, select_env_sensor
from .ranging import (
    ChirpSpec,
    PathLossParams,
    distance_from_rss,
    distances_from_rss,
    sound_distance,
    sound_distances,
)

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
        for name in ("ble_scan_period", "window_length"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
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
) -> Optional[bool]:
    """Majority vote over appearance evidence; None without a BLE scan
    attempt.

    Every BLE scan is a vote; chirp attempts vote too when the noise gate
    permitted them (an unheard chirp in a quiet environment argues against
    proximity, since sound does not cross walls easily). At least one actual
    BLE sighting is required: BLE is what kick-starts the rest.
    """
    if not evidence.ble_seen:
        return None
    votes = len(evidence.ble_seen)
    positives = sum(evidence.ble_seen)
    if use_chirp_votes:
        for _, noise, heard in evidence.chirps:
            if noise_gate(noise, cfg):
                votes += 1
                positives += heard
    return any(evidence.ble_seen) and positives > cfg.appearance_quorum * votes


def _near_any(times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each of ``x``, whether a time of the sorted ``times`` is within
    SAME_INSTANT_S of it.

    Float subtraction is monotone, so the two neighbours of each decide.
    """
    if not times.size:
        return np.zeros(x.shape, dtype=bool)
    i = np.searchsorted(times, x)
    left = times[np.maximum(i - 1, 0)]
    right = times[np.minimum(i, times.size - 1)]
    return (np.abs(left - x) <= SAME_INSTANT_S) | (np.abs(right - x) <= SAME_INSTANT_S)


def _nearest(times: Sequence[float], t: float) -> Optional[int]:
    """Index of the time in the sorted ``times`` nearest ``t`` and closer
    than PAIR_TOLERANCE_S, the first one on an equal gap; None if none is."""
    i = bisect_left(times, t)
    best, gap = (i, times[i] - t) if i < len(times) else (None, math.inf)
    if i > 0 and abs(times[i - 1] - t) <= gap:
        best, gap = i - 1, abs(times[i - 1] - t)
        while best > 0 and abs(times[best - 1] - t) == gap:
            best -= 1
    return best if gap < PAIR_TOLERANCE_S else None


def stage_distance(evidence: StageEvidence, cfg: FusionConfig) -> Optional[float]:
    """Mean pairwise-combined distance over the window; None without a
    WiFi estimate.

    A sound estimate is usable when a heard chirp attempt that passed the
    noise gate shares its time. Each WiFi estimate is averaged with the
    nearest usable sound estimate within ``PAIR_TOLERANCE_S`` (the earlier
    one on an equal gap); where none exists the WiFi estimate stands alone.
    """
    if not evidence.wifi_distances:
        return None
    ok_times = np.sort([t for t, noise, heard in evidence.chirps if heard and noise_gate(noise, cfg)])
    sound = sorted(evidence.sound_distances, key=itemgetter(0))
    usable = _near_any(ok_times, np.array([ts for ts, _ in sound], dtype=float))
    sound = [s for s, ok in zip(sound, usable.tolist()) if ok]
    sound_times = [ts for ts, _ in sound]
    combined = []
    for t, metres in evidence.wifi_distances:
        j = _nearest(sound_times, t)
        if j is not None:
            metres = (metres + sound[j][1]) / 2.0
        combined.append(metres)
    return sum(combined) / len(combined)


def stage_environment(evidence: StageEvidence) -> tuple[Optional[SensorKind], Optional[float]]:
    """The environment sensor that the pair's proximity states pick, and
    the square root of the DTW score of the matching sequences, which puts
    it back in the sensor's unit (hPa or uT). The sensor is None when a
    device has no proximity state; the score is None without both
    sequences."""
    devices = sorted(evidence.prox_states)
    if len(devices) != 2:
        return None, None
    a, b = devices
    sensor = select_env_sensor(evidence.prox_states[a], evidence.prox_states[b])
    seq_a = evidence.env_sequences.get(a, {}).get(sensor, ())
    seq_b = evidence.env_sequences.get(b, {}).get(sensor, ())
    if not seq_a or not seq_b:
        return sensor, None
    return sensor, math.sqrt(envmatch.dtw_score(seq_a, seq_b))


@dataclass(frozen=True)
class Assessment:
    """Every stage's measurement for one window, before any gate: all that
    ``decide`` needs to fuse the verdict under any ``StageGates``.

    ``appearance_ble`` is the appearance vote over BLE scans alone and
    ``appearance_chirps`` the vote with chirp attempts added. A stage
    without evidence leaves its measurement None, as its ``stage_*``
    function returns it.
    """

    appearance_ble: Optional[bool]
    appearance_chirps: Optional[bool]
    mean_distance: Optional[float]
    env_sensor: Optional[SensorKind]
    env_score: Optional[float]


def assess(evidence: StageEvidence, cfg: FusionConfig) -> Assessment:
    """Run every stage once over ``evidence`` (appearance both with and
    without chirp votes), with no short-circuiting and no gate."""
    return Assessment(
        stage_appearance(evidence, cfg, False),
        stage_appearance(evidence, cfg, True),
        stage_distance(evidence, cfg),
        *stage_environment(evidence),
    )


def decide(
    evidence: Union[StageEvidence, Assessment],
    cfg: FusionConfig,
    gates: StageGates = FULL_GATES,
) -> ContactDecision:
    """Fuse the verdict from the window's ``Assessment``, made here first
    when ``evidence`` is the window's ``StageEvidence``.

    contact = appearance AND distance <= radius AND environment score <=
    the sensor's threshold, with disabled gates counting as passed. A stage
    left unknown by missing evidence forces contact=False when its gate is
    active, and the decision says why. The sensor is reported only with
    its score.
    """
    a = evidence if isinstance(evidence, Assessment) else assess(evidence, cfg)
    sensor, score = a.env_sensor, a.env_score
    reasons = []
    if a.appearance_ble is None:
        reasons.append("appearance: no BLE scan attempts in window")
    if gates.gate_distance and a.mean_distance is None:
        reasons.append("distance: no WiFi distance estimates in window")
    if gates.gate_environment and score is None:
        reasons.append(
            "environment: proximity state missing for one or both devices"
            if sensor is None
            else f"environment: missing {sensor.value} sequence for pair"
        )
    appearance = bool(a.appearance_chirps if gates.use_chirp_votes else a.appearance_ble)  # None votes no
    distance_pass = a.mean_distance is not None and a.mean_distance <= cfg.contact_radius
    env_pass = score is not None and score <= cfg.env_thresholds.for_sensor(sensor)
    contact = (
        appearance
        and (distance_pass if gates.gate_distance else True)
        and (env_pass if gates.gate_environment else True)
    )
    return ContactDecision(
        appearance=appearance,
        mean_distance=a.mean_distance,
        env_score=score,
        env_sensor_used=None if score is None else sensor,
        contact=contact,
        degraded_reason="; ".join(reasons) if reasons else None,
    )


# --- evidence extraction and decision records -------------------------------


def build_evidence(window: ContactWindow, cfg: FusionConfig) -> StageEvidence:
    """Assemble stage evidence from a window's sample columns.

    BLE attempts are reconstructed from the scan cadence (a miss leaves no
    sample); chirp attempts are anchored to the ambient-noise checks each
    device records. A device with no proximity samples is assumed in the
    open (FAR).
    """
    a, b = window.pair
    w = window.samples
    t, value = w.t, w.value

    # One BLE attempt per device per scan period; positive if a sighting
    # of the peer landed in that slot.
    ble_seen: list[bool] = []
    n_slots = max(1, int(round(window.length / cfg.ble_scan_period)))
    lo = window.start + np.arange(n_slots) * cfg.ble_scan_period
    hi = lo + cfg.ble_scan_period
    for dev, peer in ((a, b), (b, a)):
        hits = np.sort(t[w.rows(SensorKind.BLE_RSS, dev, peer)])
        ble_seen += (np.searchsorted(hits, lo) < np.searchsorted(hits, hi)).tolist()

    # Chirp attempts: each ambient-noise check is one listening attempt,
    # heard if the same device recorded a chirp at that instant.
    noise = w.rows(SensorKind.AMBIENT_NOISE)
    noise = noise[np.lexsort((w.src[noise], t[noise]))]
    heard = np.zeros(noise.size, dtype=bool)
    for code in np.unique(w.src[noise]):
        mine = w.src[noise] == code
        chirp_times = np.sort(t[w.rows(SensorKind.SOUND_AMPLITUDE, w.names[code])])
        heard[mine] = _near_any(chirp_times, t[noise[mine]])
    chirps = tuple(zip(t[noise].tolist(), value[noise].tolist(), heard.tolist()))

    wifi_rows = w.rows(SensorKind.WIFI_RSS)
    wifi = tuple(
        (ts, distance_from_rss(v, cfg.radio_params))
        for ts, v in zip(t[wifi_rows].tolist(), value[wifi_rows].tolist())
    )
    # A chirp received above the nominal emission level (hotter speaker than
    # assumed) is treated as at-reference-distance rather than rejected.
    sound_rows = w.rows(SensorKind.SOUND_AMPLITUDE)
    sound = tuple(
        (ts, sound_distance(min(v, cfg.chirp.amplitude), cfg.chirp, cfg.sound_exponent))
        for ts, v in zip(t[sound_rows].tolist(), value[sound_rows].tolist())
    )

    env: dict[str, dict[SensorKind, tuple[float, ...]]] = {}
    prox: dict[str, ProximityState] = {}
    for dev in (a, b):
        env[dev] = {
            SensorKind.BAROMETER: tuple(value[w.rows(SensorKind.BAROMETER, dev)].tolist()),
            SensorKind.MAGNETOMETER: tuple(w.magnitudes(w.rows(SensorKind.MAGNETOMETER, dev))),
        }
        states = value[w.rows(SensorKind.PROXIMITY, dev)]
        near = int(np.count_nonzero(states >= 0.5))  # a sample of 1.0 is near, 0.0 far
        prox[dev] = ProximityState.NEAR if near > states.size / 2 else ProximityState.FAR

    return StageEvidence(
        ble_seen=tuple(ble_seen),
        chirps=chirps,
        wifi_distances=wifi,
        sound_distances=sound,
        env_sequences=env,
        prox_states=prox,
    )


# --- every window of a run at once ------------------------------------------

_BLE, _WIFI, _SOUND, _NOISE, _BARO, _MAG, _PROX = (
    KIND_CODES[kind]
    for kind in (
        SensorKind.BLE_RSS, SensorKind.WIFI_RSS, SensorKind.SOUND_AMPLITUDE, SensorKind.AMBIENT_NOISE,
        SensorKind.BAROMETER, SensorKind.MAGNETOMETER, SensorKind.PROXIMITY,
    )
)


class WindowRows(NamedTuple):
    """The rows of a batch of windows: each window's rows in ``make_window``
    order, the windows in turn. ``window`` numbers each row's window from 0;
    ``value`` holds the magnitude on magnetometer rows; ``src`` and ``obs``
    give a device's place in the window's canonical pair (``obs`` -1 for
    none). ``start`` and ``slots`` hold each window's start and its number
    of BLE scans per device."""

    window: np.ndarray
    t: np.ndarray
    kind: np.ndarray
    value: np.ndarray
    src: np.ndarray
    obs: np.ndarray
    start: np.ndarray
    slots: np.ndarray


def _keys(group: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each (group, time) as a complex number: numpy sorts and searches
    complex numbers by real part, then imaginary part."""
    keys = np.empty(t.size, dtype=complex)
    keys.real, keys.imag = group, t
    return keys


def _near_keys(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each of the keys ``x``, whether one of the sorted ``keys`` has
    its group and a time within SAME_INSTANT_S of its time: ``_near_any``
    within each group."""
    near = np.zeros(x.shape, dtype=bool)
    if keys.size:
        i = np.searchsorted(keys, x)
        for side in (keys[np.maximum(i - 1, 0)], keys[np.minimum(i, keys.size - 1)]):
            near |= (side.real == x.real) & (np.abs(side.imag - x.imag) <= SAME_INSTANT_S)
    return near


def _appearance(rows: WindowRows, noise: np.ndarray, gated: np.ndarray, heard: np.ndarray, cfg: FusionConfig):
    """``stage_appearance`` of each window, without and with chirp votes.

    Slot k of a window's device is [start + k * period, that + period), as
    ``build_evidence`` computes it; a sighting is tried in the slot its
    time falls in and in both neighbours, since float rounding can move it
    by one."""
    n, period = rows.start.size, cfg.ble_scan_period
    first = np.zeros(n + 1, dtype=np.int64)  # window w's slots: first[w]..first[w + 1], device a's first
    np.cumsum(2 * rows.slots, out=first[1:])
    ble = np.flatnonzero((rows.kind == _BLE) & (rows.obs == 1 - rows.src))
    w, t = rows.window[ble], rows.t[ble]
    start, slots = rows.start[w], rows.slots[w]
    base = first[w] + rows.src[ble] * slots
    seen = np.zeros(first[-1], dtype=bool)
    nearest = np.floor((t - start) / period)
    for k in (nearest - 1.0, nearest, nearest + 1.0):
        k = np.clip(k, 0, slots - 1)
        lo = start + k * period
        seen[(base + k.astype(np.int64))[(lo <= t) & (t < lo + period)]] = True
    cumulative = np.concatenate(([0], np.cumsum(seen)))
    positives = cumulative[first[1:]] - cumulative[first[:-1]]
    votes = 2 * rows.slots
    chirp_votes = np.bincount(rows.window[noise[gated]], minlength=n)
    chirp_positives = np.bincount(rows.window[noise[gated & heard]], minlength=n)
    q = cfg.appearance_quorum
    return (
        (positives > 0) & (positives > q * votes),
        (positives > 0) & (positives + chirp_positives > q * (votes + chirp_votes)),
    )


def _mean_distances(
    rows: WindowRows, noise: np.ndarray, gated: np.ndarray, heard: np.ndarray, cfg: FusionConfig
) -> list[Optional[float]]:
    """``stage_distance`` of each window, None where it has no WiFi
    estimate: the same pairing (``_nearest``'s tie rule) and the same float
    operations, each mean a left-to-right ``sum``."""
    n, w, t = rows.start.size, rows.window, rows.t
    wifi = np.flatnonzero(rows.kind == _WIFI)
    ww, wt = w[wifi], t[wifi]
    metres = distances_from_rss(rows.value[wifi], cfg.radio_params)
    sound = np.flatnonzero(rows.kind == _SOUND)
    ok = noise[gated & heard]  # in window order, so their keys are sorted
    usable = sound[_near_keys(_keys(w[ok], t[ok]), _keys(w[sound], t[sound]))]
    if usable.size:
        last = usable.size - 1
        times = t[usable]
        sound_m = sound_distances(np.minimum(rows.value[usable], cfg.chirp.amplitude), cfg.chirp, cfg.sound_exponent)
        i = np.searchsorted(_keys(w[usable], times), _keys(ww, wt))  # bisect_left within each window
        bounds = np.searchsorted(w[usable], np.arange(n + 1))
        lo, hi = bounds[ww], bounds[ww + 1]
        gap = np.where(i < hi, times[np.minimum(i, last)] - wt, math.inf)
        before = np.maximum(i - 1, 0)
        left_gap = np.abs(times[before] - wt)
        walk = (i > lo) & (left_gap <= gap)
        best, gap = np.where(walk, before, i), np.where(walk, left_gap, gap)
        while walk.any():  # back to the first usable sound at an equal gap
            before = np.maximum(best - 1, 0)
            walk &= (best > lo) & (np.abs(times[before] - wt) == gap)
            best = np.where(walk, before, best)
        paired = gap < PAIR_TOLERANCE_S
        metres = np.where(paired, (metres + sound_m[np.minimum(best, last)]) / 2.0, metres)
    edges = np.searchsorted(ww, np.arange(n + 1)).tolist()
    values = metres.tolist()
    return [sum(values[a:b]) / (b - a) if b > a else None for a, b in zip(edges, edges[1:])]


def _environment(rows: WindowRows) -> tuple[np.ndarray, dict[tuple[int, int], tuple[np.ndarray, ...]]]:
    """Whether each window matches on the barometer (else the
    magnetometer), and the windows that have both sequences grouped by
    shape: (len a, len b) -> (window numbers, a sequences, b sequences)."""
    n, w, kind, src = rows.start.size, rows.window, rows.kind, rows.src
    prox = kind == _PROX
    pair_place = 2 * w + src
    states = np.bincount(pair_place[prox], minlength=2 * n)
    near = np.bincount(pair_place[prox & (rows.value >= 0.5)], minlength=2 * n) > states / 2
    barometer = ~(near[0::2] | near[1::2])
    chosen = kind == np.where(barometer, _BARO, _MAG)[w]
    sequences = []
    for place in (0, 1):
        at = np.flatnonzero(chosen & (src == place))
        values = rows.value[at]
        lengths = np.bincount(w[at], minlength=n)
        sequences.append((values, lengths, np.concatenate(([0], np.cumsum(lengths)[:-1]))))
    (va, la, fa), (vb, lb, fb) = sequences
    both = np.flatnonzero((la > 0) & (lb > 0))
    groups = {}
    for m, k in set(zip(la[both].tolist(), lb[both].tolist())):
        ids = both[(la[both] == m) & (lb[both] == k)]
        groups[m, k] = (ids, va[fa[ids][:, None] + np.arange(m)], vb[fb[ids][:, None] + np.arange(k)])
    return barometer, groups


def assess_windows(batches: Iterable[WindowRows], cfg: FusionConfig) -> list[Assessment]:
    """``assess(build_evidence(window, cfg), cfg)`` of each window of
    ``batches``, in order, equal field for field: every stage runs as array
    operations over a batch's rows, and the environment stage scores every
    window of the run with one ``dtw_scores`` per sequence shape."""
    appearance, means, barometer, shapes = [], [], [], defaultdict(list)
    count = 0
    for rows in batches:
        noise = np.flatnonzero(rows.kind == _NOISE)
        sound = np.flatnonzero(rows.kind == _SOUND)
        place = 2 * rows.window + rows.src
        heard = _near_keys(np.sort(_keys(place[sound], rows.t[sound])), _keys(place[noise], rows.t[noise]))
        gated = rows.value[noise] <= cfg.noise_gate_db
        appearance += zip(*(votes.tolist() for votes in _appearance(rows, noise, gated, heard, cfg)))
        means += _mean_distances(rows, noise, gated, heard, cfg)
        chosen, groups = _environment(rows)
        barometer += chosen.tolist()
        for shape, (ids, a, b) in groups.items():
            shapes[shape].append((ids + count, a, b))
        count += rows.start.size
    scores: list[Optional[float]] = [None] * count
    for parts in shapes.values():
        ids, a, b = (np.concatenate(column) for column in zip(*parts))
        for i, score in zip(ids.tolist(), np.sqrt(dtw_scores(a, b)).tolist()):
            scores[i] = score
    return [
        Assessment(ble, chirps, mean, SensorKind.BAROMETER if baro else SensorKind.MAGNETOMETER, score)
        for (ble, chirps), mean, baro, score in zip(appearance, means, barometer, scores)
    ]


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
    """The decision of a JSON object whose ``appearance`` and ``contact`` are
    bools, ``mean_distance_m`` and ``env_score`` null or finite non-bool
    numbers, ``env_sensor`` null or a ``SensorKind`` value and
    ``degraded_reason`` null or a string; else ValueError or TypeError."""
    if not isinstance(p, dict):
        raise TypeError(f"a decision must be a JSON object, got {type(p).__name__}")
    for key in ("appearance", "contact"):
        if not isinstance(p[key], bool):
            raise TypeError(f"{key} must be true or false, got {p[key]!r}")
    for key in ("mean_distance_m", "env_score"):  # math.isfinite raises OverflowError on a huge int
        if p[key] is not None and (type(p[key]) not in (int, float) or not math.isfinite(p[key])):
            raise ValueError(f"{key} must be null or a finite number, got {p[key]!r}")
    sensor, reason = p.get("env_sensor"), p.get("degraded_reason")
    if not (reason is None or isinstance(reason, str)):
        raise TypeError(f"degraded_reason must be null or a string, got {reason!r}")
    decision = ContactDecision(
        appearance=p["appearance"],
        mean_distance=p["mean_distance_m"],
        env_score=p["env_score"],
        env_sensor_used=None if sensor is None else SensorKind(sensor),
        contact=p["contact"],
        degraded_reason=reason,
    )
    start, end = window_bounds(p["window"])
    return DecisionRecord(pair=canonical_pair(p["pair"]), start=start, end=end, decision=decision)
