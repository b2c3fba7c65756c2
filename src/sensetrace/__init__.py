"""Multi-sensor smartphone contact tracing: ranging, environment matching,
staged fusion, ID-exchange protocols and a deterministic simulator."""

from .core import (
    CONTACT_DISTANCE_M,
    ContactDecision,
    ContactWindow,
    GroundTruthLabel,
    ProximityState,
    SensorKind,
    SensorSample,
    Trace,
    make_window,
    read_trace,
    write_trace,
)
from .envmatch import EnvThresholds, dtw_score, select_env_sensor
from .errors import (
    EmptySequence,
    EmptyWindow,
    EvaluationError,
    InvalidDistance,
    InvalidMeasure,
    ModeError,
    NoContact,
    ScenarioError,
    SenseTraceError,
)
from .evaluation import ConfusionCounts, accuracy, confusion
from .fusion import (
    Assessment,
    FusionConfig,
    StageEvidence,
    TierSpec,
    assess,
    build_evidence,
    decide,
    noise_gate,
    stage_appearance,
    stage_distance,
    stage_environment,
)
from .ranging import ChirpSpec, PathLossParams, distance_from_rss, rss_from_distance, sound_distance

__version__ = "0.1.0"
