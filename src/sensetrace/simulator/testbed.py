"""Testbed geometry and ambient fields.

A testbed is a set of rectangular regions (indoor or outdoor) on one or more
floors, interior wall segments that attenuate radio and sound, a vertical
air-pressure model and a procedurally generated magnetic-magnitude field.

The magnetic field is smooth value noise on a coarse lattice, scaled by the
region's anomaly amplitude and boosted near configured appliance hotspots;
indoor magnitudes may reach ~120 uT while outdoor ones stay below ~67 uT.
Field values depend only on (testbed seed, position), never on query order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
import numpy as np

from ..core import ProximityState
from ..errors import ScenarioError

INDOOR = "indoor"
OUTDOOR = "outdoor"


def require_sigmas(model: object, *names: str) -> None:
    """Raise ScenarioError naming the first of ``model``'s fields ``names``
    that is not a finite standard deviation (>= 0)."""
    for name in names:
        value = getattr(model, name)
        if not (value >= 0 and math.isfinite(value)):
            raise ScenarioError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class Wall:
    """Interior wall segment on one floor; crossing it costs loss_db."""

    x1: float
    y1: float
    x2: float
    y2: float
    loss_db: float = 8.0
    floor: int = 0


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangular area with an environment class and a typical
    ambient noise level."""

    name: str
    environment: str
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    ambient_noise_db: float = 12.0

    def __post_init__(self) -> None:
        if self.environment not in (INDOOR, OUTDOOR):
            raise ScenarioError(f"unknown environment class {self.environment!r}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ScenarioError(f"region {self.name} has empty extent")

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True)
class PressureModel:
    """Vertical pressure structure: sea-level-ish base, a fixed gap per floor,
    a small indoor/outdoor offset and per-reading noise."""

    base_hpa: float = 1012.4
    floor_gap_hpa: float = 0.43
    sigma_hpa: float = 0.13 / 3.0  # observed per-floor spread ~0.13
    outdoor_offset_hpa: float = 0.19
    pocket_bias_hpa: float = 0.03

    def __post_init__(self) -> None:
        require_sigmas(self, "sigma_hpa")


@dataclass(frozen=True)
class Hotspot:
    """Appliance-like magnetic disturbance with a Gaussian footprint."""

    x: float
    y: float
    peak_ut: float
    radius_m: float
    floor: int = 0


@dataclass(frozen=True)
class MagneticFieldModel:
    """Procedural magnetic-magnitude field parameters."""

    cell_size_m: float = 0.5
    lattice_spacing_m: float = 4.5
    sensor_sigma_ut: float = 1.5
    indoor_base_ut: float = 48.0
    indoor_anomaly_ut: float = 44.0
    indoor_max_ut: float = 120.0
    outdoor_base_ut: float = 45.0
    outdoor_anomaly_ut: float = 8.5
    outdoor_max_ut: float = 67.0
    hotspots: tuple[Hotspot, ...] = ()

    def __post_init__(self) -> None:
        require_sigmas(self, "sensor_sigma_ut")


@dataclass(frozen=True)
class DevicePlacement:
    """Where a device sits for the duration of an instance."""

    device_id: str
    x: float
    y: float
    floor: int = 0
    posture: ProximityState = ProximityState.FAR  # NEAR = pocketed

    def __post_init__(self) -> None:
        if not (isinstance(self.device_id, str) and self.device_id):
            raise ScenarioError(f"device_id must name a device, got {self.device_id!r}")


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """Proper segment intersection via orientation tests."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@lru_cache(maxsize=65536)
def _lattice_noise(seed: int, ix: int, iy: int, floor: int) -> float:
    """Deterministic standard-normal lattice value, independent of query order."""
    key = (seed & 0xFFFFFFFFFFFFFFFF, floor, ix & 0xFFFFFFFF, iy & 0xFFFFFFFF)
    rng = np.random.default_rng(key)
    return float(rng.standard_normal())


@dataclass(frozen=True)
class Testbed:
    regions: tuple[Region, ...]
    walls: tuple[Wall, ...] = ()
    floors: int = 1
    ceiling_height_m: float = 3.0
    pressure: PressureModel = field(default_factory=PressureModel)
    magnetic: MagneticFieldModel = field(default_factory=MagneticFieldModel)
    field_seed: int = 0

    def __post_init__(self) -> None:
        if not self.regions:
            raise ScenarioError("testbed needs at least one region")
        if self.floors < 1:
            raise ScenarioError(f"floors must be >= 1, got {self.floors}")
        if not (self.ceiling_height_m > 0 and math.isfinite(self.ceiling_height_m)):
            raise ScenarioError(f"ceiling_height_m must be finite and > 0, got {self.ceiling_height_m}")

    def region_at(self, x: float, y: float) -> Region:
        for r in self.regions:
            if r.contains(x, y):
                return r
        raise ScenarioError(f"position ({x}, {y}) is outside every region")

    def environment_at(self, x: float, y: float) -> str:
        return self.region_at(x, y).environment

    def ambient_noise_at(self, x: float, y: float) -> float:
        return self.region_at(x, y).ambient_noise_db

    def regions_named(self, environment: str) -> list[Region]:
        return [r for r in self.regions if r.environment == environment]

    def true_distance(self, a: DevicePlacement, b: DevicePlacement) -> float:
        """3D straight-line distance, discounting walls and furniture."""
        dz = (a.floor - b.floor) * self.ceiling_height_m
        return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + dz * dz)

    def walls_crossed(self, a: DevicePlacement, b: DevicePlacement) -> list[Wall]:
        """Walls intersected by the horizontal path; only meaningful on one
        floor (cross-floor paths are dominated by slab attenuation)."""
        if a.floor != b.floor:
            return []
        p1, p2 = (a.x, a.y), (b.x, b.y)
        return [
            w
            for w in self.walls
            if w.floor == a.floor and _segments_intersect(p1, p2, (w.x1, w.y1), (w.x2, w.y2))
        ]

    def magnetic_mean_at(self, x: float, y: float, floor: int = 0) -> float:
        """Mean magnetic magnitude of the grid cell containing (x, y).

        Devices inside the same cell observe the same mean. The value is
        smooth value noise over a coarse lattice plus hotspot bumps, clipped
        to the region's plausible range.
        """
        m = self.magnetic
        # Quantize to the cell centre so co-located devices agree exactly.
        cx = (math.floor(x / m.cell_size_m) + 0.5) * m.cell_size_m
        cy = (math.floor(y / m.cell_size_m) + 0.5) * m.cell_size_m

        gx, gy = cx / m.lattice_spacing_m, cy / m.lattice_spacing_m
        ix, iy = math.floor(gx), math.floor(gy)
        fx, fy = gx - ix, gy - iy
        n00 = _lattice_noise(self.field_seed, ix, iy, floor)
        n10 = _lattice_noise(self.field_seed, ix + 1, iy, floor)
        n01 = _lattice_noise(self.field_seed, ix, iy + 1, floor)
        n11 = _lattice_noise(self.field_seed, ix + 1, iy + 1, floor)
        noise = (
            n00 * (1 - fx) * (1 - fy)
            + n10 * fx * (1 - fy)
            + n01 * (1 - fx) * fy
            + n11 * fx * fy
        )

        region = self.region_at(x, y)
        if region.environment == INDOOR:
            base, anomaly, cap = m.indoor_base_ut, m.indoor_anomaly_ut, m.indoor_max_ut
        else:
            base, anomaly, cap = m.outdoor_base_ut, m.outdoor_anomaly_ut, m.outdoor_max_ut

        value = base + anomaly * noise
        for h in m.hotspots:
            if h.floor != floor:
                continue
            r2 = (cx - h.x) ** 2 + (cy - h.y) ** 2
            value += h.peak_ut * math.exp(-r2 / (2.0 * h.radius_m**2))
        return float(min(max(value, 3.0), cap))

    def check_placement(self, p: DevicePlacement) -> None:
        if not 0 <= p.floor < self.floors:
            raise ScenarioError(f"floor {p.floor} outside testbed (0..{self.floors - 1})")
        self.region_at(p.x, p.y)
