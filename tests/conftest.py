from pathlib import Path

import pytest
import yaml

from sensetrace.simulator import generate_traces, load_scenario

STANDARD = Path(__file__).resolve().parent.parent / "configs" / "standard.yaml"
STANDARD_SEED = 42


def standard_raw():
    return yaml.safe_load(STANDARD.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def standard_scenario_obj():
    return load_scenario(STANDARD, seed=STANDARD_SEED)[0]


@pytest.fixture(scope="session")
def standard_data(standard_scenario_obj):
    """One generation of the standard 240-instance scenario, shared across
    the suite (generation is deterministic, so sharing is safe)."""
    return generate_traces(standard_scenario_obj)
