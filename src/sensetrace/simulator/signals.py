"""Per-sample sensor models.

Radio observations follow the shared path-loss forward model minus wall and
floor losses plus kind-specific Gaussian noise; an observation below the
detection floor is absent, which makes the detection rate decline with
distance. Sound follows the same form against the chirp's reference
amplitude but is hard-cut beyond its maximum range or across two or more
floors, and masked whenever the receiver's ambient noise drowns it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import ProximityState, SensorKind
from ..errors import ScenarioError
from ..ranging import MIN_DISTANCE_M, ChirpSpec, PathLossParams, rss_from_distance
from .testbed import INDOOR, DevicePlacement, Testbed


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
        if not self.ble_hop_sigma_db >= self.wifi_sigma_db >= self.sound_sigma_db >= 0:
            raise ValueError("noise sigmas must satisfy BLE >= WiFi >= sound >= 0")
        if self.sound_max_range_m <= 0:
            raise ValueError("sound range must be positive")


def _require_placed(testbed: Testbed, *placements: DevicePlacement) -> None:
    for p in placements:
        try:
            testbed.check_placement(p)
        except ScenarioError as exc:
            raise ScenarioError(f"device {p.device_id} is not validly placed: {exc}") from exc


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
    if kind not in (SensorKind.BLE_RSS, SensorKind.WIFI_RSS):
        raise ValueError(f"simulate_rss handles BLE/WiFi, not {kind}")
    _require_placed(testbed, tx, rx)

    d = max(testbed.true_distance(tx, rx), MIN_DISTANCE_M)
    rss = rss_from_distance(d, params) + tx_offset_db + path_bias_db
    rss -= sum(w.loss_db for w in testbed.walls_crossed(tx, rx))
    floors_apart = abs(tx.floor - rx.floor)
    if kind is SensorKind.BLE_RSS:
        rss -= noise.floor_loss_ble_db * floors_apart
        sigma = noise.ble_hop_sigma_db
    else:
        sigma = noise.wifi_sigma_db
    rss += rng.normal(0.0, sigma) if sigma > 0 else 0.0

    if rss < noise.detection_floor_dbm:
        return None
    return min(rss, 0.0)


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
    _require_placed(testbed, tx, rx)
    floors_apart = abs(tx.floor - rx.floor)
    if floors_apart > noise.sound_max_floors:
        return None
    d = max(testbed.true_distance(tx, rx), MIN_DISTANCE_M)
    if d > noise.sound_max_range_m:
        return None

    received = chirp.amplitude + tx_level_db - 10.0 * exponent * math.log10(d)
    received -= sum(w.loss_db for w in testbed.walls_crossed(tx, rx))
    if noise.sound_sigma_db > 0:
        received += rng.normal(0.0, noise.sound_sigma_db)

    ambient = testbed.ambient_noise_at(rx.x, rx.y)
    if ambient >= received:
        return None
    return received


def simulate_barometer(
    device: DevicePlacement,
    testbed: Testbed,
    rng: np.random.Generator,
) -> float:
    """Air pressure at the device: base minus the per-floor gap, plus the
    outdoor offset, a pocket bias when stowed, and sensor noise."""
    _require_placed(testbed, device)
    pm = testbed.pressure
    value = pm.base_hpa - device.floor * pm.floor_gap_hpa
    if testbed.environment_at(device.x, device.y) != INDOOR:
        value += pm.outdoor_offset_hpa
    if device.posture is ProximityState.NEAR:
        value += pm.pocket_bias_hpa
    if pm.sigma_hpa > 0:
        value += rng.normal(0.0, pm.sigma_hpa)
    return value


def simulate_magnetometer(
    device: DevicePlacement,
    testbed: Testbed,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """A 3-axis magnetic reading whose magnitude tracks the local field mean;
    the direction is uniform (the phone's orientation is arbitrary)."""
    _require_placed(testbed, device)
    mean = testbed.magnetic_mean_at(device.x, device.y, device.floor)
    sigma = testbed.magnetic.sensor_sigma_ut
    mag = mean + (rng.normal(0.0, sigma) if sigma > 0 else 0.0)
    mag = max(mag, 0.1)

    direction = rng.normal(size=3)
    norm = float(np.linalg.norm(direction))
    while norm < 1e-12:
        direction = rng.normal(size=3)
        norm = float(np.linalg.norm(direction))
    v = direction * (mag / norm)
    return (float(v[0]), float(v[1]), float(v[2]))
