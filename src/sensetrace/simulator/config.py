"""Scenario configuration: a human-readable YAML mapping covering testbed
geometry, propagation and noise parameters, cadences and the seed.

The full schema is documented in the project README; `default_scenario_dict`
is the reference configuration that reproduces the standard 240-instance
sample distribution over an office-plus-parking-garage testbed.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path
from typing import Any, Optional, Union

import yaml

from ..core import atomic_write
from ..envmatch import EnvThresholds
from ..errors import ScenarioError
from ..fusion import FusionConfig
from ..ranging import ChirpSpec, PathLossParams
from .scenario import BucketSpec, Scenario
from .signals import PropagationNoise
from .testbed import Hotspot, MagneticFieldModel, PressureModel, Region, Testbed, Wall


def default_scenario_dict() -> dict:
    """Reference scenario: a five-room office plus an open-air parking
    garage, sampled per the standard distance-bucket distribution."""
    return {
        "seed": 42,
        "window": {"length_s": 900.0},
        "fusion": {
            "contact_radius_m": 1.0,
            "appearance_quorum": 0.5,
            "noise_gate_db": 20.0,
            "ble_scan_period_s": 30.0,
            "wifi_scan_cap_per_120s": 4,
        },
        "cadence": {"sound_period_s": 30.0, "env_period_s": 30.0},
        "radio": {"power_at_1m_dbm": -59.0, "exponent": 2.0},
        "sound": {
            "exponent": 2.0,
            "chirp": {"frequency_hz": 4000.0, "amplitude_db": 20.0, "duration_ms": 50.0},
        },
        "thresholds": {"pressure_hpa": 0.15, "magnetic_ut": 20.0},
        "noise": {
            "ble_hop_sigma_db": 6.0,
            "wifi_sigma_db": 2.0,
            "sound_sigma_db": 0.5,
            "wall_loss_db": 8.0,
            "floor_loss_ble_db": 12.0,
            "sound_max_range_m": 15.0,
            "sound_max_floors": 1,
            "detection_floor_dbm": -95.0,
            "tx_power_sigma_db": 6.5,
            "sound_level_sigma_db": 2.5,
            "ambient_sigma_db": 0.3,
            "multipath_sigma_indoor_db": 9.0,
            "multipath_sigma_outdoor_db": 1.5,
        },
        "testbed": {
            "floors": 2,
            "ceiling_height_m": 3.0,
            "field_seed": 7,
            "pressure": {
                "base_hpa": 1012.4,
                "floor_gap_hpa": 0.43,
                "sigma_hpa": 0.13 / 3.0,
                "outdoor_offset_hpa": 0.19,
                "pocket_bias_hpa": 0.03,
            },
            "magnetic": {
                "cell_size_m": 0.5,
                "lattice_spacing_m": 4.5,
                "sensor_sigma_ut": 1.5,
                "indoor": {"base_ut": 48.0, "anomaly_ut": 44.0, "max_ut": 120.0},
                "outdoor": {"base_ut": 45.0, "anomaly_ut": 8.5, "max_ut": 67.0},
                "hotspots": [
                    {"x": 3.0, "y": 12.0, "peak_ut": 30.0, "radius_m": 2.5, "floor": 0},
                    {"x": 17.0, "y": 3.0, "peak_ut": 35.0, "radius_m": 2.5, "floor": 0},
                    {"x": 10.0, "y": 4.0, "peak_ut": 30.0, "radius_m": 2.5, "floor": 0},
                    {"x": 7.5, "y": 11.0, "peak_ut": 28.0, "radius_m": 2.0, "floor": 0},
                    {"x": 5.0, "y": 5.0, "peak_ut": 32.0, "radius_m": 2.5, "floor": 1},
                    {"x": 16.0, "y": 11.0, "peak_ut": 35.0, "radius_m": 2.5, "floor": 1},
                    {"x": 45.0, "y": 15.0, "peak_ut": 10.0, "radius_m": 3.0, "floor": 0},
                ],
            },
            "regions": [
                {
                    "name": "office_west",
                    "environment": "indoor",
                    "x": [0.0, 11.0],
                    "y": [0.0, 15.0],
                    "ambient_noise_db": 10.0,
                },
                {
                    # The appliance-heavy rooms: too loud for 20 dB chirps.
                    "name": "office_east",
                    "environment": "indoor",
                    "x": [11.0, 20.0],
                    "y": [0.0, 15.0],
                    "ambient_noise_db": 30.0,
                },
                {
                    "name": "garage",
                    "environment": "outdoor",
                    "x": [30.0, 70.0],
                    "y": [0.0, 30.0],
                    "ambient_noise_db": 8.0,
                },
            ],
            "walls": [
                {"from": [7.0, 0.0], "to": [7.0, 6.0]},
                {"from": [7.0, 8.0], "to": [7.0, 15.0]},
                {"from": [13.0, 0.0], "to": [13.0, 7.0]},
                {"from": [13.0, 9.0], "to": [13.0, 15.0]},
                {"from": [0.0, 8.0], "to": [5.0, 8.0]},
                {"from": [15.0, 7.0], "to": [20.0, 7.0]},
            ],
        },
        "instances": {
            "pocket_probability": 0.5,
            "buckets": [
                {"range_m": [0.0, 1.0], "indoor": 40, "outdoor": 20},
                {"range_m": [1.0, 2.0], "indoor": 40, "outdoor": 20},
                {"range_m": [2.0, 3.0], "indoor": 20, "outdoor": 20},
                {"range_m": [3.0, 30.0], "indoor": 20, "outdoor": 60, "cross_floor_fraction": 0.4},
            ],
        },
    }


def _get(mapping: dict, key: str, context: str) -> Any:
    try:
        return mapping[key]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"missing {context}.{key} in scenario config") from exc


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from a plain mapping; raises ScenarioError on any
    missing or malformed section."""
    try:
        tb_raw = _get(raw, "testbed", "config")

        regions = tuple(
            Region(
                name=_get(r, "name", "region"),
                environment=_get(r, "environment", "region"),
                x_min=float(r["x"][0]),
                x_max=float(r["x"][1]),
                y_min=float(r["y"][0]),
                y_max=float(r["y"][1]),
                ambient_noise_db=float(r.get("ambient_noise_db", 12.0)),
            )
            for r in _get(tb_raw, "regions", "testbed")
        )
        wall_default = float(raw.get("noise", {}).get("wall_loss_db", 8.0))
        walls = tuple(
            Wall(
                x1=float(w["from"][0]),
                y1=float(w["from"][1]),
                x2=float(w["to"][0]),
                y2=float(w["to"][1]),
                loss_db=float(w.get("loss_db", wall_default)),
                floor=int(w.get("floor", 0)),
            )
            for w in tb_raw.get("walls", [])
        )
        pr = tb_raw.get("pressure", {})
        pressure = PressureModel(
            base_hpa=float(pr.get("base_hpa", 1012.4)),
            floor_gap_hpa=float(pr.get("floor_gap_hpa", 0.43)),
            sigma_hpa=float(pr.get("sigma_hpa", 0.13 / 3.0)),
            outdoor_offset_hpa=float(pr.get("outdoor_offset_hpa", 0.19)),
            pocket_bias_hpa=float(pr.get("pocket_bias_hpa", 0.03)),
        )
        mg = tb_raw.get("magnetic", {})
        indoor = mg.get("indoor", {})
        outdoor = mg.get("outdoor", {})
        magnetic = MagneticFieldModel(
            cell_size_m=float(mg.get("cell_size_m", 0.5)),
            lattice_spacing_m=float(mg.get("lattice_spacing_m", 4.5)),
            sensor_sigma_ut=float(mg.get("sensor_sigma_ut", 1.5)),
            indoor_base_ut=float(indoor.get("base_ut", 48.0)),
            indoor_anomaly_ut=float(indoor.get("anomaly_ut", 44.0)),
            indoor_max_ut=float(indoor.get("max_ut", 120.0)),
            outdoor_base_ut=float(outdoor.get("base_ut", 45.0)),
            outdoor_anomaly_ut=float(outdoor.get("anomaly_ut", 8.5)),
            outdoor_max_ut=float(outdoor.get("max_ut", 67.0)),
            hotspots=tuple(
                Hotspot(
                    x=float(h["x"]),
                    y=float(h["y"]),
                    peak_ut=float(h["peak_ut"]),
                    radius_m=float(h["radius_m"]),
                    floor=int(h.get("floor", 0)),
                )
                for h in mg.get("hotspots", [])
            ),
        )
        testbed = Testbed(
            regions=regions,
            walls=walls,
            floors=int(tb_raw.get("floors", 1)),
            ceiling_height_m=float(tb_raw.get("ceiling_height_m", 3.0)),
            pressure=pressure,
            magnetic=magnetic,
            field_seed=int(tb_raw.get("field_seed", 0)),
        )

        radio = raw.get("radio", {})
        radio_params = PathLossParams(
            power_at_1m=float(radio.get("power_at_1m_dbm", -59.0)),
            exponent=float(radio.get("exponent", 2.0)),
        )
        sound = raw.get("sound", {})
        chirp_raw = sound.get("chirp", {})
        chirp = ChirpSpec(
            frequency=float(chirp_raw.get("frequency_hz", 4000.0)),
            amplitude=float(chirp_raw.get("amplitude_db", 20.0)),
            duration_ms=float(chirp_raw.get("duration_ms", 50.0)),
        )
        thr = raw.get("thresholds", {})
        env_thresholds = EnvThresholds(
            pressure_hpa=float(thr.get("pressure_hpa", 0.15)),
            magnetic_ut=float(thr.get("magnetic_ut", 20.0)),
        )
        fz = raw.get("fusion", {})
        window = raw.get("window", {})
        fusion = FusionConfig(
            contact_radius=float(fz.get("contact_radius_m", 1.0)),
            window_length=float(window.get("length_s", 900.0)),
            ble_scan_period=float(fz.get("ble_scan_period_s", 30.0)),
            wifi_scan_cap=int(fz.get("wifi_scan_cap_per_120s", 4)),
            noise_gate_db=float(fz.get("noise_gate_db", 20.0)),
            appearance_quorum=float(fz.get("appearance_quorum", 0.5)),
            env_thresholds=env_thresholds,
            radio_params=radio_params,
            sound_params=PathLossParams(exponent=float(sound.get("exponent", 2.0))),
            chirp=chirp,
        )

        nz = raw.get("noise", {})
        noise = PropagationNoise(
            ble_hop_sigma_db=float(nz.get("ble_hop_sigma_db", 6.0)),
            wifi_sigma_db=float(nz.get("wifi_sigma_db", 2.0)),
            sound_sigma_db=float(nz.get("sound_sigma_db", 0.5)),
            wall_loss_db=float(nz.get("wall_loss_db", 8.0)),
            floor_loss_ble_db=float(nz.get("floor_loss_ble_db", 12.0)),
            sound_max_range_m=float(nz.get("sound_max_range_m", 15.0)),
            sound_max_floors=int(nz.get("sound_max_floors", 1)),
            detection_floor_dbm=float(nz.get("detection_floor_dbm", -95.0)),
            tx_power_sigma_db=float(nz.get("tx_power_sigma_db", 6.5)),
            sound_level_sigma_db=float(nz.get("sound_level_sigma_db", 2.5)),
            ambient_sigma_db=float(nz.get("ambient_sigma_db", 0.3)),
            multipath_sigma_indoor_db=float(nz.get("multipath_sigma_indoor_db", 9.0)),
            multipath_sigma_outdoor_db=float(nz.get("multipath_sigma_outdoor_db", 1.5)),
        )

        inst = raw.get("instances", {})
        buckets = tuple(
            BucketSpec(
                d_lo=float(bkt["range_m"][0]),
                d_hi=float(bkt["range_m"][1]),
                indoor=int(bkt.get("indoor", 0)),
                outdoor=int(bkt.get("outdoor", 0)),
                cross_floor_fraction=float(bkt.get("cross_floor_fraction", 0.0)),
            )
            for bkt in _get(inst, "buckets", "instances")
        )
        cadence = raw.get("cadence", {})
        return Scenario(
            testbed=testbed,
            fusion=fusion,
            noise=noise,
            buckets=buckets,
            pocket_probability=float(inst.get("pocket_probability", 0.5)),
            sound_period=float(cadence.get("sound_period_s", 30.0)),
            env_period=float(cadence.get("env_period_s", 30.0)),
            sound_exponent=float(sound.get("exponent", 2.0)),
            seed=int(raw.get("seed", 42)),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario config: {exc}") from exc


def load_scenario(path: Union[str, Path], seed: Optional[int] = None) -> tuple[Scenario, dict]:
    """Read a YAML scenario file; optionally override its seed. Returns the
    scenario plus the (possibly overridden) raw dict for hashing."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"unparseable scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario file {path} does not contain a mapping")
    if seed is not None:
        raw = copy.deepcopy(raw)
        raw["seed"] = int(seed)
    return scenario_from_dict(raw), raw


def standard_scenario(seed: int = 42) -> Scenario:
    raw = default_scenario_dict()
    raw["seed"] = seed
    return scenario_from_dict(raw)


def config_hash(raw: dict) -> str:
    """Stable digest of a scenario mapping, for embedding in reports."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_config(path: Union[str, Path], raw: dict) -> None:
    atomic_write(path, yaml.safe_dump(raw, sort_keys=False))
