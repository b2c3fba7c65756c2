"""Scenario assembly and deterministic trace generation.

A scenario plans a set of paired-device test instances over a testbed,
following the sample-distribution buckets (heavier sampling inside 3 m,
a long tail out to 30 m). Every instance gets its own device pair, a
window starting at t=0, and static placements; the seed fully determines
placements, postures, per-device calibration offsets and sample noise, so
identical seeds yield bit-identical traces.

The simulator writes columns, a batch of instances at a time. Each
instance's geometry is fixed, so it is computed once per direction of the
pair and alone decides how many normals the instance draws; a batch draws
all of its instances' normals with one call, in the order a
sample-by-sample generator would draw them, turns them into rows with the
signal models of ``signals``, checks the rows at once and splits them into
each device's ``Trace`` with one sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

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
            raise ScenarioError(f"bucket counts must be >= 0, got indoor={self.indoor}, outdoor={self.outdoor}")


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
    buckets: tuple[BucketSpec, ...] = ()
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
        if self.explicit_instances is None:
            planned = sum(bucket.indoor + bucket.outdoor for bucket in self.buckets)
        else:
            planned = len(self.explicit_instances)
        if not planned:
            raise ScenarioError("the scenario plans no instances: instances.buckets needs a count > 0")


@dataclass(frozen=True)
class GeneratedData:
    """Everything one generation run produces: each device's trace, or what
    ``generate_traces``' ``write`` returned for it, by device, in the order
    they were simulated; the labels and the placed instances."""

    traces: dict[str, Any]
    labels: list[GroundTruthLabel]
    instances: list[PlacedInstance]


def _weighted_regions(tb: Testbed, environment: str) -> tuple[list[Region], np.ndarray]:
    """The regions of ``environment``, each with its share of their area."""
    regions = tb.regions_named(environment)
    if not regions:
        raise ScenarioError(f"testbed has no {environment} region")
    areas = np.array([(r.x_max - r.x_min) * (r.y_max - r.y_min) for r in regions])
    return regions, areas / areas.sum()


def _place_pair(
    scenario: Scenario,
    bucket: BucketSpec,
    environment: str,
    weighted: tuple[list[Region], np.ndarray],
    index: int,
    rng: np.random.Generator,
) -> PlacedInstance:
    """Draw one instance: a true distance inside the bucket and a feasible
    geometry for it. Retries until both endpoints land in a region."""
    tb = scenario.testbed
    regions, p = weighted
    # Two phones cannot physically overlap; keep a small minimum separation.
    d_lo = max(bucket.d_lo, 0.25)
    ceiling = tb.ceiling_height_m

    for _ in range(500):
        d = float(rng.uniform(d_lo, bucket.d_hi))
        region = regions[int(rng.choice(len(regions), p=p))]
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
        out, placed_in = [], {}
        for i, (a, b) in enumerate(scenario.explicit_instances):
            scenario.testbed.check_placement(a)
            scenario.testbed.check_placement(b)
            # A device records one trace, so it can take part in one instance only.
            for d in (a, b):
                if d.device_id in placed_in:
                    raise ScenarioError(
                        f"instance {i} {(a.device_id, b.device_id)}: device {d.device_id!r} "
                        f"is already placed in instance {placed_in[d.device_id]}"
                    )
                placed_in[d.device_id] = i
            out.append(PlacedInstance(i, a, b, scenario.testbed.environment_at(a.x, a.y)))
        return out
    placed = []
    index = 0
    weighted = {}
    for bucket in scenario.buckets:
        for environment, count in ((INDOOR, bucket.indoor), (OUTDOOR, bucket.outdoor)):
            if count and environment not in weighted:
                weighted[environment] = _weighted_regions(scenario.testbed, environment)
            for _ in range(count):
                placed.append(_place_pair(scenario, bucket, environment, weighted[environment], index, rng))
                index += 1
    return placed


def _slot_times(length: float, period: float) -> np.ndarray:
    n = int(math.floor((length - 1e-9) / period)) + 1
    return np.arange(n) * period


def _noise(sigma, z: np.ndarray):
    """``z`` standard normals as ``rng.normal(0.0, sigma)`` draws: the same
    float operations, so the same values."""
    return 0.0 + sigma * z


_RADIO = (SensorKind.BLE_RSS, SensorKind.WIFI_RSS)
_ENV = (SensorKind.BAROMETER, SensorKind.MAGNETOMETER, SensorKind.PROXIMITY)
# Template rows per batch: enough instances for whole-batch numpy calls to
# cost little per instance, few enough that a batch's temporary columns fit
# the memory a process's earlier work freed (at 1 << 13, a second run of the
# standard scenario in one process peaked 0.3 MB higher).
_BATCH_ROWS = 1 << 12


def _row_template(slots: dict[SensorKind, np.ndarray]) -> tuple[np.ndarray, ...]:
    """The rows one instance may record, in the order a per-sample
    generator visits them: BLE then WiFi scans, each slot in both
    directions; per sound slot and direction the receiver's ambient level
    and the chirp; per environment slot and device the barometer,
    magnetometer and proximity readings. Returns the columns ``t``,
    ``kind``, ``rec`` (the recording device: 0 for a, 1 for b) and ``seen``
    (the observed device, -1 for none). Direction 0 is a receiving from b."""
    code = KIND_CODES
    blocks = [(slots[kind], [code[kind]] * 2, [0, 1], [1, 0]) for kind in _RADIO]
    amb, snd = code[SensorKind.AMBIENT_NOISE], code[SensorKind.SOUND_AMPLITUDE]
    blocks.append((slots[SensorKind.SOUND_AMPLITUDE], [amb, snd, amb, snd], [0, 0, 1, 1], [-1, 1, -1, 0]))
    blocks.append((slots[SensorKind.BAROMETER], [code[k] for k in _ENV] * 2, [0, 0, 0, 1, 1, 1], [-1] * 6))
    columns = [[] for _ in range(4)]
    for t, *per_slot in blocks:
        columns[0].append(np.repeat(t, len(per_slot[0])))
        for column, values in zip(columns[1:], per_slot):
            column.append(np.tile(values, len(t)))
    return tuple(map(np.concatenate, columns))


def _batch_traces(
    batch: Sequence[PlacedInstance],
    scenario: Scenario,
    slots: dict[SensorKind, np.ndarray],
    template: tuple[np.ndarray, ...],
    rng: np.random.Generator,
) -> dict[str, Trace]:
    """Simulate the instances of ``batch``: one ``Trace`` per device, by
    name, holding its rows by (time, kind, observed device), none first.

    Each instance's geometry is fixed, so it alone decides how many normals
    the instance draws; the batch draws them with one call, in the order a
    per-sample generator would, and turns them into rows laid out by
    ``template``. The first row, in draw order, that breaks the sample
    contract raises ScenarioError naming its instance.
    """
    tb, cfg, noise = scenario.testbed, scenario.fusion, scenario.noise
    sigma_tx, sigma_level = noise.tx_power_sigma_db, noise.sound_level_sigma_db
    sigma_amb, sigma_snd = noise.ambient_sigma_db, noise.sound_sigma_db
    sigma_hpa, sigma_ut = tb.pressure.sigma_hpa, tb.magnetic.sensor_sigma_ut
    sigma_rss = [rss_sigma(kind, noise) for kind in _RADIO]

    # The fixed geometry of each instance: direction i (a, then b) is device
    # i receiving from the other one; device codes index the pair's sorted
    # names. Per device: ambient noise, pressure, magnetic mean, proximity.
    names, codes, paths, levels, sigma_mp = [], [], [], [], []
    for inst in batch:
        try:
            ids = (inst.a.device_id, inst.b.device_id)
            names.append(tuple(sorted(ids)))
            codes.append([names[-1].index(i) for i in ids])
            paths.append((link(inst.b, inst.a, tb), link(inst.a, inst.b, tb)))
            levels.append([
                (
                    tb.ambient_noise_at(d.x, d.y),
                    barometer_level(d, tb),
                    tb.magnetic_mean_at(d.x, d.y, d.floor),
                    1.0 if d.posture is ProximityState.NEAR else 0.0,
                )
                for d in (inst.a, inst.b)
            ])
            indoor = inst.environment == INDOOR
            sigma_mp.append(noise.multipath_sigma_indoor_db if indoor else noise.multipath_sigma_outdoor_db)
        except ValueError as exc:
            raise ScenarioError(f"instance {inst.index} {inst.pair}: {exc}") from exc
    n = len(batch)
    codes, sigma_mp = np.array(codes), np.array(sigma_mp)
    ambient, baro, mag_mean, prox = np.moveaxis(np.array(levels), 2, 0)  # each instance x device
    gated = np.array([[sound_gated(p, noise) for p in pair] for pair in paths]).reshape(n, 2)
    chirp = ~gated & (sigma_snd > 0)  # directions that draw chirp noise

    # Normals per instance: the pair's calibration and multipath draws, the
    # scans, the sound slots, then the environment readings.
    n_sound = len(slots[SensorKind.SOUND_AMPLITUDE])
    n_env = 2 * len(slots[SensorKind.BAROMETER])
    per_sound_slot = 2 * (sigma_amb > 0) + chirp.sum(axis=1)
    per_reading = (sigma_hpa > 0) + (sigma_ut > 0) + 3
    head = 2 * (sigma_tx > 0) + 2 * (sigma_level > 0) + 2 * (sigma_mp > 0)
    scans = sum(2 * len(slots[kind]) * (sigma > 0) for kind, sigma in zip(_RADIO, sigma_rss))
    before_env = head + scans + n_sound * per_sound_slot
    count = before_env + n_env * per_reading
    start = np.cumsum(count) - count
    z = rng.standard_normal(int(count.sum()))

    # Each environment reading's first normal; its direction is its last three.
    first = ((start + before_env)[:, None] + per_reading * np.arange(n_env)).ravel()
    direction = z[(first + per_reading - 3)[:, None] + np.arange(3)]
    # matmul's 1x3 @ 3x1 product is the dot product np.linalg.norm takes.
    norm = np.sqrt(np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0])

    def pair_noise(sigma, at: np.ndarray) -> tuple[list, np.ndarray]:
        """Two draws per instance whose ``sigma`` is > 0, else zeros; and
        where each instance's next draw is."""
        drawn = np.broadcast_to(sigma > 0, (n,))
        out = np.zeros((n, 2))
        out[drawn] = _noise(np.broadcast_to(sigma, (n,))[drawn, None], z[at[drawn, None] + np.arange(2)])
        return out.tolist(), at + 2 * drawn

    tx_offset, at = pair_noise(sigma_tx, start)
    tx_level, at = pair_noise(sigma_level, at)
    path_bias, at = pair_noise(sigma_mp, at)
    # The levels before scan and chirp noise, instance by instance.
    rss_levels = np.empty((n, 2, 2))  # instance, direction, kind
    chirp_levels = np.full((n, 2), math.nan)
    for j in range(n):
        for i, p in enumerate(paths[j]):
            rss_levels[j, i] = [
                rss_level(p, kind, noise, cfg.radio_params, tx_offset[j][1 - i], bias)
                for kind, bias in zip(_RADIO, path_bias[j])
            ]
            if not gated[j, i]:
                chirp_levels[j, i] = sound_level(p, cfg.chirp, cfg.sound_exponent, tx_level[j][1 - i])

    values, keep = [], []
    for k, (kind, sigma) in enumerate(zip(_RADIO, sigma_rss)):
        draws = 2 * len(slots[kind]) * (sigma > 0)
        noisy = _noise(sigma, z[at[:, None] + np.arange(draws)]).reshape(n, -1, 2) if sigma > 0 else 0.0
        at = at + draws
        seen, value = rss_reading(rss_levels[:, None, :, k] + noisy, noise)
        shape = (n, len(slots[kind]), 2)
        values.append(np.broadcast_to(value, shape))
        keep.append(np.broadcast_to(seen, shape))

    # Per sound slot and direction: the ambient level, then the chirp.
    slot_at = at[:, None] + per_sound_slot[:, None] * np.arange(n_sound)
    sound, heard = np.empty((n, n_sound, 2, 2)), np.ones((n, n_sound, 2, 2), dtype=bool)
    col = np.zeros(n, dtype=int)
    for i in (0, 1):
        sound[:, :, i, 0] = ambient[:, i, None]
        if sigma_amb > 0:
            sound[:, :, i, 0] += _noise(sigma_amb, z[slot_at + col[:, None]])
            col = col + 1
        received = np.repeat(chirp_levels[:, i, None], n_sound, axis=1)
        drawn = chirp[:, i]
        received[drawn] += _noise(sigma_snd, z[slot_at[drawn] + col[drawn, None]])
        col = col + drawn
        sound[:, :, i, 1] = received
        heard[:, :, i, 1] = ~gated[:, i, None] & sound_heard(received, ambient[:, i, None])
    values.append(sound)
    keep.append(heard)

    # Per environment slot and device: barometer, magnetometer, proximity.
    reading = np.arange(n * n_env)
    owner = (np.repeat(np.arange(n), n_env), reading % 2)  # (instance, device) of each reading
    pressure = baro[owner]
    if sigma_hpa > 0:
        pressure = pressure + _noise(sigma_hpa, z[first])
    strength = mag_mean[owner] + (_noise(sigma_ut, z[first + (sigma_hpa > 0)]) if sigma_ut > 0 else 0.0)
    values.append(np.stack([pressure, np.full(len(reading), math.nan), prox[owner]], axis=1))
    keep.append(np.ones((n, 3 * n_env), dtype=bool))

    # The batch's kept rows, instance by instance in draw order.
    t, kind, rec, seen = template
    keep = np.concatenate([k.reshape(n, -1) for k in keep], axis=1)
    instance = np.broadcast_to(np.arange(n)[:, None], keep.shape)[keep]
    value = np.concatenate([v.reshape(n, -1) for v in values], axis=1)[keep]
    kind = np.broadcast_to(kind, keep.shape)[keep].astype(np.int8)
    src = codes[:, rec][keep].astype(np.int32)
    obs = np.where(seen >= 0, codes[:, np.maximum(seen, 0)], -1)[keep].astype(np.int32)
    mag = np.full((len(value), 3), math.nan)
    mag[kind == KIND_CODES[SensorKind.MAGNETOMETER]] = magnetometer_reading(strength, direction, norm)
    rows = Trace(np.broadcast_to(t, keep.shape)[keep], kind, value, mag, src, obs, names=())
    bad = rows.check()
    if bad is not None:
        inst = batch[instance[bad[0]]]
        raise ScenarioError(f"instance {inst.index} {inst.pair}: {bad[1]}")

    # One sort groups the rows by instance and device, each group by (time,
    # kind, observed device); ties keep draw order. Each trace gets columns of
    # its own, as decoding gives them, not views that would keep the batch alive.
    group = 2 * instance + src
    order = np.lexsort((obs, kind, rows.t, group))
    bounds = np.searchsorted(group[order], np.arange(2 * n + 1)).tolist()
    columns = (rows.t, rows.kind, rows.value, rows.mag, rows.src, rows.obs)
    traces = {}
    for j in range(n):
        for code, device in enumerate(names[j]):
            g = 2 * j + code
            own = order[bounds[g] : bounds[g + 1]]
            traces[device] = Trace(*(column[own] for column in columns), names[j])
    return traces


def _keep(device: str, trace: Trace) -> Trace:
    return trace


def generate_traces(scenario: Scenario, write: Callable[[str, Trace], Any] = _keep) -> GeneratedData:
    """Produce per-device sample traces plus ground truth for every instance.

    All randomness flows from one seeded generator in a fixed order, so a
    given (scenario, seed) is bit-reproducible. Instances are simulated in
    batches of about ``_BATCH_ROWS`` rows (``_batch_traces``). Each batch's
    traces go to ``write(device, trace)`` as soon as the batch is done, and
    ``GeneratedData.traces`` keeps what it returns: the trace itself by
    default, so a caller that writes each trace out holds one batch at a
    time. A sample that breaks the sample contract (``Trace.check``) raises
    ScenarioError naming its instance.
    """
    rng = np.random.default_rng(scenario.seed)
    tb = scenario.testbed
    length = scenario.fusion.window_length

    instances = place_instances(scenario, rng)
    traces = {}
    slots = {  # sound slots also time the ambient level, barometer slots every environment sensor
        SensorKind.BLE_RSS: _slot_times(length, scenario.fusion.ble_scan_period),
        SensorKind.WIFI_RSS: _slot_times(length, scenario.fusion.wifi_scan_period),
        SensorKind.SOUND_AMPLITUDE: _slot_times(length, scenario.sound_period),
        SensorKind.BAROMETER: _slot_times(length, scenario.env_period),
    }
    template = _row_template(slots)
    size = max(1, _BATCH_ROWS // len(template[0]))
    for i in range(0, len(instances), size):
        for device, trace in _batch_traces(instances[i : i + size], scenario, slots, template, rng).items():
            traces[device] = write(device, trace)

    labels = []
    for inst in instances:
        d = tb.true_distance(inst.a, inst.b)
        labels.append(
            GroundTruthLabel(pair=inst.pair, start=0.0, end=length, true_distance=d, is_contact=d <= CONTACT_DISTANCE_M)
        )
    return GeneratedData(traces=traces, labels=labels, instances=instances)
