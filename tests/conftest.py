import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest
import yaml

from sensetrace.cli import main
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


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """A generated run of the standard scenario cut to 12 instances with
    300 s windows, with its FULL decisions, and its config file. Tests copy
    the run before they change it."""
    raw = standard_raw()
    raw["window"] = {"length_s": 300.0}
    raw["instances"]["buckets"] = [
        {"range_m": [0.0, 1.0], "indoor": 2, "outdoor": 2},
        {"range_m": [1.0, 2.0], "indoor": 2, "outdoor": 1},
        {"range_m": [3.0, 10.0], "indoor": 2, "outdoor": 3},
    ]
    root = tmp_path_factory.mktemp("small_run")
    config, out = root / "scenario.yaml", root / "run"
    config.write_text(yaml.safe_dump(raw, sort_keys=False))
    with redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["detect", "--data", str(out), "--config", str(config), "--tier", "FULL"]) == 0
    return config, out
