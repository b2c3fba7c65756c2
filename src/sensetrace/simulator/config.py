"""Scenario configuration: a human-readable YAML mapping covering testbed
geometry, propagation and noise parameters, cadences and the seed.

The full schema is documented in the project README. Each section sets the
fields of one dataclass: a key names its field (or is the field's spelling
in ``KEYS``) and is cast to the field's type, an absent key keeps the field
default, and an unknown key is an error naming its dotted path.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
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
from .testbed import INDOOR, OUTDOOR, Hotspot, MagneticFieldModel, PressureModel, Region, Testbed, Wall

# YAML spelling of the fields whose key is not their name.
KEYS = {
    "contact_radius": "contact_radius_m",
    "ble_scan_period": "ble_scan_period_s",
    "wifi_scan_cap": "wifi_scan_cap_per_120s",
    "window_length": "length_s",
    "power_at_1m": "power_at_1m_dbm",
    "amplitude": "amplitude_db",
    "sound_period": "sound_period_s",
    "env_period": "env_period_s",
    "sound_exponent": "exponent",
}
# Keys that hold a two-number list, and the two fields each one sets.
PAIRS = {
    Region: {"x": ("x_min", "x_max"), "y": ("y_min", "y_max")},
    Wall: {"from": ("x1", "y1"), "to": ("x2", "y2")},
    BucketSpec: {"range_m": ("d_lo", "d_hi")},
}
SECTIONS = ("window", "fusion", "cadence", "radio", "sound", "thresholds", "noise", "testbed", "instances")


@functools.cache
def _scalar_types(cls: type) -> dict[str, type]:
    """The float, int and str fields of dataclass ``cls``, by name."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if hints[f.name] in (float, int, str)}


def _cast(cast: type, value: Any, where: str) -> Any:
    """``value`` as a field of type ``cast``: a str field takes it as text,
    a float field any number, an int field an integral one. A bool is not a
    number."""
    if cast is str:
        return str(value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and not (cast is int and isinstance(value, float) and not value.is_integer()):
        try:
            return cast(value)
        except OverflowError:
            pass
    raise ScenarioError(f"{where} must be {cast.__name__}, got {value!r}")


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path or 'scenario config'} must be a mapping")
    return value


def _child(section: dict, path: str, key: str, kind: type = dict, required: bool = False) -> Any:
    """The mapping (or list) under ``key``; an absent one is empty unless required."""
    path = f"{path}.{key}" if path else key
    if required and key not in section:
        raise ScenarioError(f"missing {path} in scenario config")
    value = section.get(key, kind())
    if not isinstance(value, kind):
        raise ScenarioError(f"{path} must be a {'mapping' if kind is dict else 'list'}")
    return value


def _items(section: dict, path: str, key: str, required: bool = False) -> list[tuple[dict, str]]:
    """Each mapping of the list under ``key``, with its dotted path."""
    items = _child(section, path, key, list, required)
    return [(_mapping(item, f"{path}.{key}[{i}]"), f"{path}.{key}[{i}]") for i, item in enumerate(items)]


def _fields(section: Any, path: str, cls: type, keys=None, prefix: str = "", nested=()) -> dict:
    """Keyword arguments for ``cls`` from one section, which may set the
    fields in ``keys`` (default: every float, int or str field) starting with
    ``prefix``, each spelled without it or as in ``KEYS``. Keys in ``nested``
    are left to the caller."""
    types = _scalar_types(cls)
    names = {KEYS.get(n, n[len(prefix):]): n for n in (types if keys is None else keys) if n.startswith(prefix)}
    kwargs = {}
    for key, value in _mapping(section, path).items():
        where = f"{path}.{key}" if path else key
        if key in nested:
            continue
        if key not in names:
            raise ScenarioError(f"unknown key {where} in scenario config")
        kwargs[names[key]] = _cast(types[names[key]], value, where)
    return kwargs


def _build(cls: type, section: Any, path: str, nested=(), **given: Any) -> Any:
    """``cls`` from one section (its ``PAIRS`` included) plus the fields the
    caller derived itself; a missing field without a default is an error
    naming its key."""
    pairs = PAIRS.get(cls, {})
    for key, (lo, hi) in pairs.items():
        if key not in section:
            raise ScenarioError(f"missing {path}.{key} in scenario config")
        try:
            given[lo], given[hi] = (_cast(float, v, f"{path}.{key}") for v in section[key])
        except (TypeError, ValueError, ScenarioError) as exc:
            raise ScenarioError(f"{path}.{key} must be a pair of numbers, got {section[key]!r}") from exc
    keys = [name for name in _scalar_types(cls) if name not in given]
    kwargs = {**_fields(section, path, cls, keys, nested=(*nested, *pairs)), **given}
    for f in dataclasses.fields(cls):
        if f.name not in kwargs and f.default is f.default_factory is dataclasses.MISSING:
            raise ScenarioError(f"missing {path}.{KEYS.get(f.name, f.name)} in scenario config")
    return cls(**kwargs)


def _testbed(tb: dict, noise: dict) -> Testbed:
    mg, at = _child(tb, "testbed", "magnetic"), "testbed.magnetic"
    magnetic = MagneticFieldModel(
        **_fields(
            mg, at, MagneticFieldModel, ("cell_size_m", "lattice_spacing_m", "sensor_sigma_ut"),
            nested=(INDOOR, OUTDOOR, "hotspots"),
        ),
        **_fields(_child(mg, at, INDOOR), f"{at}.{INDOOR}", MagneticFieldModel, prefix=f"{INDOOR}_"),
        **_fields(_child(mg, at, OUTDOOR), f"{at}.{OUTDOOR}", MagneticFieldModel, prefix=f"{OUTDOOR}_"),
        hotspots=tuple(_build(Hotspot, h, p) for h, p in _items(mg, at, "hotspots")),
    )
    # noise.wall_loss_db is the loss of every wall that sets no loss_db.
    wall_default = {}
    if "wall_loss_db" in noise:
        wall_default["loss_db"] = _cast(float, noise["wall_loss_db"], "noise.wall_loss_db")
    return _build(
        Testbed, tb, "testbed", ("pressure", "magnetic", "regions", "walls"),
        regions=tuple(_build(Region, r, p) for r, p in _items(tb, "testbed", "regions", required=True)),
        walls=tuple(_build(Wall, {**wall_default, **w}, p) for w, p in _items(tb, "testbed", "walls")),
        pressure=_build(PressureModel, _child(tb, "testbed", "pressure"), "testbed.pressure"),
        magnetic=magnetic,
    )


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from a plain mapping; raises ScenarioError naming the
    key of any unknown, missing or malformed entry."""
    try:
        seed = _fields(raw, "", Scenario, ("seed",), nested=SECTIONS)
        sound, noise, instances = (_child(raw, "", key) for key in ("sound", "noise", "instances"))
        fusion_keys = ("contact_radius", "ble_scan_period", "wifi_scan_cap", "noise_gate_db", "appearance_quorum")
        fusion = FusionConfig(
            **_fields(_child(raw, "", "window"), "window", FusionConfig, ("window_length",)),
            **_fields(_child(raw, "", "fusion"), "fusion", FusionConfig, fusion_keys),
            **_fields(sound, "sound", FusionConfig, ("sound_exponent",), nested=("chirp",)),
            env_thresholds=_build(EnvThresholds, _child(raw, "", "thresholds"), "thresholds"),
            radio_params=_build(PathLossParams, _child(raw, "", "radio"), "radio"),
            chirp=_build(ChirpSpec, _child(sound, "sound", "chirp"), "sound.chirp"),
        )
        return Scenario(
            testbed=_testbed(_child(raw, "", "testbed", required=True), noise),
            fusion=fusion,
            noise=_build(PropagationNoise, noise, "noise", ("wall_loss_db",)),
            buckets=tuple(_build(BucketSpec, b, p) for b, p in _items(instances, "instances", "buckets", True)),
            **seed,
            **_fields(_child(raw, "", "cadence"), "cadence", Scenario, ("sound_period", "env_period")),
            **_fields(instances, "instances", Scenario, ("pocket_probability",), nested=("buckets",)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario config: {exc}") from exc


def load_scenario(path: Union[str, Path], seed: Optional[int] = None) -> tuple[Scenario, dict]:
    """Read a YAML scenario file; optionally override its seed. Returns the
    scenario plus the raw dict, with the seed the scenario runs with, for
    hashing."""
    with open(path, encoding="utf-8") as fh:
        try:
            # libyaml's safe loader where PyYAML has it: the dict of ``yaml.safe_load``, faster.
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ScenarioError(f"unparseable scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario file {path} does not contain a mapping")
    if seed is not None:
        raw = {**raw, "seed": seed}
    scenario = scenario_from_dict(raw)
    return scenario, {**raw, "seed": scenario.seed}


def config_hash(raw: dict) -> str:
    """Stable digest of a scenario mapping, for embedding in reports."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_config(path: Union[str, Path], raw: dict) -> None:
    # libyaml's safe emitter where PyYAML has it: the text of ``yaml.safe_dump``, faster.
    atomic_write(path, yaml.dump(raw, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False))
