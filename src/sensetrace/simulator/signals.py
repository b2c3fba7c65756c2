"""Sensor signal models.

Radio observations follow the shared path-loss forward model minus wall and
floor losses plus kind-specific Gaussian noise; an observation below the
detection floor is absent, which makes the detection rate decline with
distance. Sound follows the same form against the chirp's reference
amplitude but is hard-cut beyond its maximum range or across two or more
floors, and masked whenever the receiver's ambient noise drowns it.

Each model is split into a deterministic level (``rss_level``,
``sound_level``, ``barometer_level``) and the rule that turns a noisy level
into a reading (``rss_reading``, ``sound_heard``, ``magnetometer_reading``).
The simulator applies them to all the readings of a batch of instances at
once; the tests' one-reading-at-a-time reference (``tests/oracles.py``)
composes the same models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..core import ProximityState, SensorKind
from ..errors import ScenarioError
from ..ranging import MIN_DISTANCE_M, ChirpSpec, PathLossParams, rss_from_distance
from .testbed import INDOOR, DevicePlacement, Testbed, require_sigmas


@dataclass(frozen=True)
class PropagationNoise:
    """Noise magnitudes and loss terms for the synthetic signal models.

    Defaults are tuned to reproduce the observed orderings (BLE varies far
    more than WiFi, which varies more than sound), not published constants.
    """

    ble_hop_sigma_db: float = 6.0
    wifi_sigma_db: float = 2.0
    sound_sigma_db: float = 0.5
    floor_loss_ble_db: float = 12.0
    sound_max_range_m: float = 15.0
    sound_max_floors: int = 1  # >= 2 floors apart: never heard
    detection_floor_dbm: float = -95.0
    tx_power_sigma_db: float = 6.5  # per-device radio calibration spread
    sound_level_sigma_db: float = 2.5  # per-device speaker/mic spread
    ambient_sigma_db: float = 0.3
    # Static pairs keep a fixed reflection geometry, so multipath shows up
    # as a persistent per-path bias, far stronger indoors than in the open.
    multipath_sigma_indoor_db: float = 9.0
    multipath_sigma_outdoor_db: float = 1.5

    def __post_init__(self) -> None:
        require_sigmas(self, *(f.name for f in fields(self) if "sigma" in f.name))
        if not self.ble_hop_sigma_db >= self.wifi_sigma_db >= self.sound_sigma_db >= 0:
            raise ValueError("noise sigmas must satisfy BLE >= WiFi >= sound >= 0")
        if not (self.sound_max_range_m > 0 and math.isfinite(self.sound_max_range_m)):
            raise ScenarioError(f"sound_max_range_m must be finite and > 0, got {self.sound_max_range_m}")


def _require_placed(testbed: Testbed, *placements: DevicePlacement) -> None:
    for p in placements:
        try:
            testbed.check_placement(p)
        except ScenarioError as exc:
            raise ScenarioError(f"device {p.device_id} is not validly placed: {exc}") from exc


@dataclass(frozen=True)
class Link:
    """The fixed geometry of the path from a transmitter to a receiver."""

    distance: float  # straight-line metres, at least MIN_DISTANCE_M
    wall_loss_db: float  # of the walls crossed going from tx to rx
    floors_apart: int


def link(tx: DevicePlacement, rx: DevicePlacement, testbed: Testbed) -> Link:
    """The geometry from ``tx`` to ``rx``, both checked to be placed.

    The direction matters: a path through a wall endpoint may cross the
    wall one way and not the other (see ``testbed._segments_intersect``).
    """
    _require_placed(testbed, tx, rx)
    return Link(
        max(testbed.true_distance(tx, rx), MIN_DISTANCE_M),
        sum(w.loss_db for w in testbed.walls_crossed(tx, rx)),
        abs(tx.floor - rx.floor),
    )


def rss_sigma(kind: SensorKind, noise: PropagationNoise) -> float:
    if kind is SensorKind.BLE_RSS:
        return noise.ble_hop_sigma_db
    if kind is SensorKind.WIFI_RSS:
        return noise.wifi_sigma_db
    raise ValueError(f"RSS noise is defined for BLE/WiFi, not {kind}")


def rss_level(
    path: Link,
    kind: SensorKind,
    noise: PropagationNoise,
    params: PathLossParams,
    tx_offset_db: float = 0.0,
    path_bias_db: float = 0.0,
) -> float:
    """Received power before scan noise: path loss, then walls, then (BLE
    only) the floor slabs."""
    rss = rss_from_distance(path.distance, params) + tx_offset_db + path_bias_db
    rss -= path.wall_loss_db
    if kind is SensorKind.BLE_RSS:
        rss -= noise.floor_loss_ble_db * path.floors_apart
    return rss


def rss_reading(rss, noise: PropagationNoise):
    """(seen, reading) of a noisy level, a float or an array: missed below
    the detection floor, saturating at 0 dBm."""
    return np.logical_not(rss < noise.detection_floor_dbm), np.where(0.0 < rss, 0.0, rss)


def sound_gated(path: Link, noise: PropagationNoise) -> bool:
    """True when no chirp crosses the path: too many floors or too far."""
    return path.floors_apart > noise.sound_max_floors or path.distance > noise.sound_max_range_m


def sound_level(path: Link, chirp: ChirpSpec, exponent: float, tx_level_db: float = 0.0) -> float:
    """Arriving chirp level before noise."""
    received = chirp.amplitude + tx_level_db - 10.0 * exponent * math.log10(path.distance)
    received -= path.wall_loss_db
    return received


def sound_heard(received, ambient_db):
    """Whether a chirp (a float or an array) is heard: unless the receiver's
    ambient noise drowns it."""
    return np.logical_not(ambient_db >= received)


def barometer_level(device: DevicePlacement, testbed: Testbed) -> float:
    """Air pressure at the device before sensor noise."""
    pm = testbed.pressure
    value = pm.base_hpa - device.floor * pm.floor_gap_hpa
    if testbed.environment_at(device.x, device.y) != INDOOR:
        value += pm.outdoor_offset_hpa
    if device.posture is ProximityState.NEAR:
        value += pm.pocket_bias_hpa
    return value


def magnetometer_reading(magnitude, direction: np.ndarray, norm) -> np.ndarray:
    """``direction`` (3 components in the last axis) scaled to ``magnitude``,
    floored at 0.1 uT; ``norm`` is the length of ``direction``."""
    magnitude = np.where(0.1 > magnitude, 0.1, magnitude)
    return direction * np.expand_dims(magnitude / norm, -1)
