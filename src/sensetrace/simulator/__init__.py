"""Synthetic testbeds: geometry, per-sensor signal models and deterministic
trace generation."""

from .config import (
    config_hash,
    load_scenario,
    scenario_from_dict,
    write_config,
)
from .scenario import (
    BucketSpec,
    GeneratedData,
    PlacedInstance,
    Scenario,
    generate_traces,
    place_instances,
)
from .signals import PropagationNoise
from .testbed import (
    INDOOR,
    OUTDOOR,
    DevicePlacement,
    Hotspot,
    MagneticFieldModel,
    PressureModel,
    Region,
    Testbed,
    Wall,
)

__all__ = [
    "BucketSpec",
    "DevicePlacement",
    "GeneratedData",
    "Hotspot",
    "INDOOR",
    "MagneticFieldModel",
    "OUTDOOR",
    "PlacedInstance",
    "PressureModel",
    "PropagationNoise",
    "Region",
    "Scenario",
    "Testbed",
    "Wall",
    "config_hash",
    "generate_traces",
    "load_scenario",
    "place_instances",
    "scenario_from_dict",
    "write_config",
]
