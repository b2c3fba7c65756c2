"""Scenario assembly and deterministic trace generation.

A scenario plans a set of paired-device test instances over a testbed,
following the sample-distribution buckets (heavier sampling inside 3 m,
a long tail out to 30 m). Every instance gets its own device pair, a
window starting at t=0, and static placements; the seed fully determines
placements, postures, per-device calibration offsets and sample noise, so
identical seeds yield bit-identical traces.

The simulator writes columns. Each instance's geometry is fixed, so it is
computed once per direction of the pair and alone decides how many normals
the instance draws; they are drawn with one call, in the order a
sample-by-sample generator would draw them, and turned into both devices'
traces as ``Trace`` columns by the signal models of ``signals``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core import (
    CONTACT_DISTANCE_M,
    KIND_CODES,
    GroundTruthLabel,
    ProximityState,
    SensorKind,
    Trace,
)
from ..errors import ScenarioError
from ..fusion import FusionConfig
from . import signals  # MIN_DIRECTION_NORM is read at call time
from .signals import (
    PropagationNoise,
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
from .testbed import INDOOR, OUTDOOR, DevicePlacement, Region, Testbed


@dataclass(frozen=True)
class BucketSpec:
    """How many instances to draw in one true-distance band."""

    d_lo: float
    d_hi: float
    indoor: int = 0
    outdoor: int = 0
    cross_floor_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.d_lo < self.d_hi:
            raise ScenarioError(f"bad distance band [{self.d_lo}, {self.d_hi}]")
        if self.indoor < 0 or self.outdoor < 0:
            raise ScenarioError("bucket counts must be >= 0")


# Table-style default: 60 within 1 m, 60 in 1-2 m, 40 in 2-3 m, 80 in 3-30 m.
DEFAULT_BUCKETS = (
    BucketSpec(0.0, 1.0, indoor=40, outdoor=20),
    BucketSpec(1.0, 2.0, indoor=40, outdoor=20),
    BucketSpec(2.0, 3.0, indoor=20, outdoor=20),
    BucketSpec(3.0, 30.0, indoor=20, outdoor=60, cross_floor_fraction=0.4),
)


@dataclass(frozen=True)
class PlacedInstance:
    index: int
    a: DevicePlacement
    b: DevicePlacement
    environment: str

    @property
    def pair(self) -> tuple[str, str]:
        return (self.a.device_id, self.b.device_id)


@dataclass(frozen=True)
class Scenario:
    testbed: Testbed
    fusion: FusionConfig = field(default_factory=FusionConfig)
    noise: PropagationNoise = field(default_factory=PropagationNoise)
    buckets: tuple[BucketSpec, ...] = DEFAULT_BUCKETS
    pocket_probability: float = 0.5
    sound_period: float = 30.0
    env_period: float = 30.0
    seed: int = 42
    explicit_instances: Optional[tuple[tuple[DevicePlacement, DevicePlacement], ...]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.pocket_probability <= 1:
            raise ScenarioError("pocket_probability must lie in [0, 1]")
        for name in ("sound_period", "env_period"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ScenarioError(f"{name} must be finite and > 0, got {value}")
        if self.seed < 0:
            raise ScenarioError("seed must be a non-negative integer")


@dataclass(frozen=True)
class GeneratedData:
    """Everything one generation run produces."""

    traces: dict[str, Trace]
    labels: list[GroundTruthLabel]
    instances: list[PlacedInstance]
    window: tuple[float, float]
    seed: int


def _pick_region(regions: Sequence[Region], rng: np.random.Generator) -> Region:
    areas = np.array([(r.x_max - r.x_min) * (r.y_max - r.y_min) for r in regions])
    idx = int(rng.choice(len(regions), p=areas / areas.sum()))
    return regions[idx]


def _place_pair(
    scenario: Scenario,
    bucket: BucketSpec,
    environment: str,
    index: int,
    rng: np.random.Generator,
) -> PlacedInstance:
    """Draw one instance: a true distance inside the bucket and a feasible
    geometry for it. Retries until both endpoints land in a region."""
    tb = scenario.testbed
    regions = tb.regions_named(environment)
    if not regions:
        raise ScenarioError(f"testbed has no {environment} region")
    # Two phones cannot physically overlap; keep a small minimum separation.
    d_lo = max(bucket.d_lo, 0.25)
    ceiling = tb.ceiling_height_m

    for _ in range(500):
        d = float(rng.uniform(d_lo, bucket.d_hi))
        region = _pick_region(regions, rng)
        ax = float(rng.uniform(region.x_min, region.x_max))
        ay = float(rng.uniform(region.y_min, region.y_max))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))

        floor_b = 0
        horizontal = d
        if (
            environment == INDOOR
            and tb.floors > 1
            and bucket.cross_floor_fraction > 0
            and d > ceiling + 0.3
            and float(rng.uniform()) < bucket.cross_floor_fraction
        ):
            floor_b = 1
            horizontal = math.sqrt(d * d - ceiling * ceiling)

        bx = ax + horizontal * math.cos(theta)
        by = ay + horizontal * math.sin(theta)
        # The peer may land in any region of the same environment class
        # (e.g. an adjacent room), never across the class boundary.
        try:
            if tb.environment_at(bx, by) != environment:
                continue
        except ScenarioError:
            continue

        posture_a = ProximityState.NEAR if rng.uniform() < scenario.pocket_probability else ProximityState.FAR
        posture_b = ProximityState.NEAR if rng.uniform() < scenario.pocket_probability else ProximityState.FAR
        a = DevicePlacement(f"i{index:03d}a", ax, ay, 0, posture_a)
        b = DevicePlacement(f"i{index:03d}b", bx, by, floor_b, posture_b)
        return PlacedInstance(index, a, b, environment)

    raise ScenarioError(
        f"could not place a {environment} pair at {bucket.d_lo}-{bucket.d_hi} m "
        f"after 500 attempts; testbed too small?"
    )


def place_instances(scenario: Scenario, rng: np.random.Generator) -> list[PlacedInstance]:
    if scenario.explicit_instances is not None:
        out = []
        for i, (a, b) in enumerate(scenario.explicit_instances):
            scenario.testbed.check_placement(a)
            scenario.testbed.check_placement(b)
            out.append(PlacedInstance(i, a, b, scenario.testbed.environment_at(a.x, a.y)))
        return out
    placed = []
    index = 0
    for bucket in scenario.buckets:
        for environment, count in ((INDOOR, bucket.indoor), (OUTDOOR, bucket.outdoor)):
            for _ in range(count):
                placed.append(_place_pair(scenario, bucket, environment, index, rng))
                index += 1
    return placed


def _slot_times(length: float, period: float) -> np.ndarray:
    n = int(math.floor((length - 1e-9) / period)) + 1
    return np.arange(n) * period


def _noise(sigma: float, z: np.ndarray):
    """``z`` standard normals as ``rng.normal(0.0, sigma)`` draws: the same
    float operations, so the same values."""
    return 0.0 + sigma * z


def _instance_trace(
    inst: PlacedInstance, scenario: Scenario, slots: dict[SensorKind, np.ndarray], rng: np.random.Generator
) -> Trace:
    """The samples of both devices of one instance, as columns in the order
    a per-sample generator visits them: BLE then WiFi scans, each slot in
    both directions; per sound slot and direction the receiver's ambient
    level and the chirp, if heard; per environment slot and device the
    barometer, magnetometer and proximity readings.

    The geometry is fixed for the instance, so it alone decides how many
    normals the instance draws, and they are drawn at once in that order.
    A magnetometer direction shorter than ``MIN_DIRECTION_NORM`` takes the
    next three normals instead, moving every later draw along by three.
    """
    tb, cfg, noise = scenario.testbed, scenario.fusion, scenario.noise
    a, b = inst.a, inst.b
    ids = (a.device_id, b.device_id)
    names = tuple(sorted(set(ids)))
    code = [names.index(i) for i in ids]
    # Direction i: device i (a, then b) receives from the other one.
    src = np.array(code)
    obs = src[::-1]
    paths = (link(b, a, tb), link(a, b, tb))
    ambient = np.array([tb.ambient_noise_at(d.x, d.y) for d in (a, b)])

    sigma_tx, sigma_level = noise.tx_power_sigma_db, noise.sound_level_sigma_db
    sigma_mp = noise.multipath_sigma_indoor_db if inst.environment == INDOOR else noise.multipath_sigma_outdoor_db
    sigma_amb, sigma_snd = noise.ambient_sigma_db, noise.sound_sigma_db
    sigma_hpa, sigma_ut = tb.pressure.sigma_hpa, tb.magnetic.sensor_sigma_ut
    radio = (SensorKind.BLE_RSS, SensorKind.WIFI_RSS)
    sigma_rss = [rss_sigma(kind, noise) for kind in radio]
    chirp_draws = [int(not sound_gated(p, noise) and sigma_snd > 0) for p in paths]
    per_sound_slot = 2 * (sigma_amb > 0) + sum(chirp_draws)
    per_reading = (sigma_hpa > 0) + (sigma_ut > 0) + 3
    n_env = 2 * len(slots[SensorKind.BAROMETER])
    z = rng.standard_normal(
        2 * ((sigma_tx > 0) + (sigma_level > 0) + (sigma_mp > 0))
        + sum(2 * len(slots[kind]) * (sigma > 0) for kind, sigma in zip(radio, sigma_rss))
        + len(slots[SensorKind.SOUND_AMPLITUDE]) * per_sound_slot
        + n_env * per_reading
    )
    used = 0

    def draws(k: int) -> np.ndarray:
        nonlocal used
        used += k
        return z[used - k:used]

    def pair_noise(sigma: float) -> list[float]:
        return _noise(sigma, draws(2)).tolist() if sigma > 0 else [0.0, 0.0]

    # Keyed by device id, so two devices of one id share the later draw.
    tx_offset = dict(zip(ids, pair_noise(sigma_tx)))
    tx_level = dict(zip(ids, pair_noise(sigma_level)))
    path_bias = pair_noise(sigma_mp)

    blocks = []  # (t, kind, value, mag, src, obs, keep) per block, slots first

    for kind, sigma, bias in zip(radio, sigma_rss, path_bias):
        t = slots[kind]
        level = np.array([
            rss_level(p, kind, noise, cfg.radio_params, tx_offset[ids[1 - i]], bias) for i, p in enumerate(paths)
        ])
        rss = level + (_noise(sigma, draws(2 * len(t)).reshape(-1, 2)) if sigma > 0 else 0.0)
        seen, value = rss_reading(np.broadcast_to(rss, (len(t), 2)), noise)
        blocks.append((t[:, None], KIND_CODES[kind], value, math.nan, src, obs, seen))

    # Per sound slot and direction: the ambient level, then the chirp.
    t = slots[SensorKind.SOUND_AMPLITUDE]
    z_sound = draws(len(t) * per_sound_slot).reshape(len(t), per_sound_slot)
    col = 0
    values, heard = np.empty((len(t), 2, 2)), np.ones((len(t), 2, 2), dtype=bool)
    for i, p in enumerate(paths):
        values[:, i, 0] = ambient[i]
        if sigma_amb > 0:
            values[:, i, 0] += _noise(sigma_amb, z_sound[:, col])
            col += 1
        if sound_gated(p, noise):
            heard[:, i, 1] = False
            continue
        received = np.full(len(t), sound_level(p, cfg.chirp, cfg.sound_exponent, tx_level[ids[1 - i]]))
        if chirp_draws[i]:
            received += _noise(sigma_snd, z_sound[:, col])
            col += 1
        values[:, i, 1] = received
        heard[:, i, 1] = sound_heard(received, ambient[i])
    sound_codes = [KIND_CODES[SensorKind.AMBIENT_NOISE], KIND_CODES[SensorKind.SOUND_AMPLITUDE]]
    blocks.append((
        t[:, None, None], np.array(sound_codes), values, math.nan,
        src[:, None], np.stack([np.full(2, -1), obs], axis=1), heard,
    ))

    # Per environment slot and device: barometer, magnetometer, proximity.
    t = slots[SensorKind.BAROMETER]
    device = np.arange(n_env) % 2
    retries = np.zeros(n_env, dtype=int)
    while True:
        first = used + per_reading * np.arange(n_env) + 3 * (np.cumsum(retries) - retries)
        direction_at = first + per_reading - 3 + 3 * retries
        shortfall = int(direction_at[-1]) + 3 - len(z)
        if shortfall > 0:
            z = np.concatenate([z, rng.standard_normal(shortfall)])
        direction = z[direction_at[:, None] + np.arange(3)]
        # matmul's 1x3 @ 3x1 product is the dot product np.linalg.norm takes.
        norm = np.sqrt(np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0])
        short = np.flatnonzero(norm < signals.MIN_DIRECTION_NORM)
        if not short.size:
            break
        retries[short[0]] += 1
    baro = np.array([barometer_level(d, tb) for d in (a, b)])[device]
    if sigma_hpa > 0:
        baro = baro + _noise(sigma_hpa, z[first])
    mean = np.array([tb.magnetic_mean_at(d.x, d.y, d.floor) for d in (a, b)])[device]
    mag = mean + (_noise(sigma_ut, z[first + (sigma_hpa > 0)]) if sigma_ut > 0 else 0.0)
    prox = np.array([1.0 if d.posture is ProximityState.NEAR else 0.0 for d in (a, b)])[device]
    env_codes = [KIND_CODES[k] for k in (SensorKind.BAROMETER, SensorKind.MAGNETOMETER, SensorKind.PROXIMITY)]
    values = np.stack([baro, np.full(n_env, math.nan), prox], axis=1)
    vectors = np.full((n_env, 3, 3), math.nan)
    vectors[:, 1] = magnetometer_reading(mag, direction, norm)
    blocks.append((
        t[:, None, None], np.array(env_codes), values.reshape(-1, 2, 3), vectors.reshape(-1, 2, 3, 3),
        src[:, None], -1, True,
    ))

    # Each block's columns broadcast to the shape of its values; the kept
    # rows, flattened in C order, are the rows in the order they were drawn.
    parts = [[] for _ in range(6)]
    for block in blocks:
        shape = np.shape(block[2])
        keep = np.broadcast_to(block[6], shape)
        for part, column, dims in zip(parts, block, (shape, shape, shape, (*shape, 3), shape, shape)):
            part.append(np.broadcast_to(column, dims)[keep])
    t, kind, value, vectors, src, obs = map(np.concatenate, parts)
    return Trace(t, kind.astype(np.int8), value, vectors, src.astype(np.int32), obs.astype(np.int32), names)


def generate_traces(scenario: Scenario) -> GeneratedData:
    """Produce per-device sample traces plus ground truth for every instance.

    All randomness flows from one seeded generator in a fixed order, so a
    given (scenario, seed) is bit-reproducible. A sample that breaks the
    sample contract (``Trace.check``) raises ScenarioError naming its
    instance.
    """
    rng = np.random.default_rng(scenario.seed)
    tb = scenario.testbed
    cfg = scenario.fusion
    length = cfg.window_length

    instances = place_instances(scenario, rng)
    traces: dict[str, Trace] = {}
    labels: list[GroundTruthLabel] = []
    slots = {  # sound slots also time the ambient level, barometer slots every environment sensor
        SensorKind.BLE_RSS: _slot_times(length, cfg.ble_scan_period),
        SensorKind.WIFI_RSS: _slot_times(length, cfg.wifi_scan_period),
        SensorKind.SOUND_AMPLITUDE: _slot_times(length, scenario.sound_period),
        SensorKind.BAROMETER: _slot_times(length, scenario.env_period),
    }

    for inst in instances:
        try:
            trace = _instance_trace(inst, scenario, slots, rng)
            bad = trace.check()
            if bad is not None:
                raise ValueError(bad[1])
            # Each device's rows by (time, kind, observed device), none first.
            for device in dict.fromkeys((inst.a.device_id, inst.b.device_id)):
                rows = np.flatnonzero(trace.src == trace.code(device))
                rows = rows[np.lexsort((trace.obs[rows], trace.kind[rows], trace.t[rows]))]
                traces[device] = trace.take(rows)

            d = tb.true_distance(inst.a, inst.b)
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

    return GeneratedData(
        traces=traces,
        labels=labels,
        instances=instances,
        window=(0.0, length),
        seed=scenario.seed,
    )
