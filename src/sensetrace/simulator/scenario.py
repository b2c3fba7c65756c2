"""Scenario assembly and deterministic trace generation.

A scenario plans a set of paired-device test instances over a testbed,
following the sample-distribution buckets (heavier sampling inside 3 m,
a long tail out to 30 m). Every instance gets its own device pair, a
window starting at t=0, and static placements; the seed fully determines
placements, postures, per-device calibration offsets and sample noise, so
identical seeds yield bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core import (
    CONTACT_DISTANCE_M,
    GroundTruthLabel,
    ProximityState,
    SensorKind,
    SensorSample,
)
from ..errors import ScenarioError
from ..fusion import FusionConfig
from .signals import (
    PropagationNoise,
    simulate_barometer,
    simulate_magnetometer,
    simulate_rss,
    simulate_sound,
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
        if self.sound_period <= 0 or self.env_period <= 0:
            raise ScenarioError("sample periods must be positive")
        if self.seed < 0:
            raise ScenarioError("seed must be a non-negative integer")


@dataclass(frozen=True)
class GeneratedData:
    """Everything one generation run produces."""

    traces: dict[str, list[SensorSample]]
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


def _slot_times(length: float, period: float) -> list[float]:
    n = int(math.floor((length - 1e-9) / period)) + 1
    return [k * period for k in range(n)]


def generate_traces(scenario: Scenario) -> GeneratedData:
    """Produce per-device sample traces plus ground truth for every instance.

    All randomness flows from one seeded generator in a fixed order, so a
    given (scenario, seed) is bit-reproducible.
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
                                SensorSample(t, kind, rss, src=rx.device_id, obs=tx.device_id)
                            )

            for t in sound_slots:
                for rx, tx in ((a, b), (b, a)):
                    ambient = tb.ambient_noise_at(rx.x, rx.y)
                    if noise.ambient_sigma_db > 0:
                        ambient += float(rng.normal(0.0, noise.ambient_sigma_db))
                    samples[rx.device_id].append(
                        SensorSample(t, SensorKind.AMBIENT_NOISE, ambient, src=rx.device_id)
                    )
                    heard = simulate_sound(
                        tx, rx, cfg.chirp, tb, noise, rng,
                        exponent=cfg.sound_exponent,
                        tx_level_db=snd_offset[tx.device_id],
                    )
                    if heard is not None:
                        samples[rx.device_id].append(
                            SensorSample(t, SensorKind.SOUND_AMPLITUDE, heard, src=rx.device_id, obs=tx.device_id)
                        )

            for t in env_slots:
                for dev in (a, b):
                    samples[dev.device_id].append(
                        SensorSample(t, SensorKind.BAROMETER, simulate_barometer(dev, tb, rng), src=dev.device_id)
                    )
                    samples[dev.device_id].append(
                        SensorSample(
                            t, SensorKind.MAGNETOMETER, simulate_magnetometer(dev, tb, rng), src=dev.device_id
                        )
                    )
                    samples[dev.device_id].append(
                        SensorSample(
                            t,
                            SensorKind.PROXIMITY,
                            1.0 if dev.posture is ProximityState.NEAR else 0.0,
                            src=dev.device_id,
                        )
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

    return GeneratedData(
        traces=traces,
        labels=labels,
        instances=instances,
        window=(0.0, length),
        seed=scenario.seed,
    )
