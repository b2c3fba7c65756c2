"""Ambient-environment matching via DTW over magnetic magnitude and air
pressure sequences.

Sequences may have different lengths (sensor rates differ between phones);
DTW aligns them with squared local cost in one forward pass over two rows,
the accumulated cost is normalized by the cell count of the shortest optimal
warping path, and the square root of that score is compared against a
threshold in the sensor's natural unit (hPa or uT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import ProximityState, SensorKind
from .errors import EmptySequence

ScalarSequence = Sequence[float]


@dataclass(frozen=True)
class EnvThresholds:
    """Similarity thresholds: 0.15 hPa for pressure, 20 uT for magnetism."""

    pressure_hpa: float = 0.15
    magnetic_ut: float = 20.0

    def __post_init__(self) -> None:
        if not (self.pressure_hpa > 0 and self.magnetic_ut > 0):
            raise ValueError("thresholds must be positive")

    def for_sensor(self, sensor: SensorKind) -> float:
        if sensor is SensorKind.BAROMETER:
            return self.pressure_hpa
        if sensor is SensorKind.MAGNETOMETER:
            return self.magnetic_ut
        raise ValueError(f"no environment threshold for {sensor}")


def _validate(seq: ScalarSequence, name: str) -> None:
    if len(seq) == 0:
        raise EmptySequence(f"{name} sequence is empty")
    for v in seq:
        if not math.isfinite(v):
            raise ValueError(f"{name} sequence contains non-finite value {v}")


def dtw_score(a: ScalarSequence, b: ScalarSequence) -> float:
    """Normalized DTW score between two scalar sequences.

    Accumulates ``w(i,j) = cost(i,j) + min(w(i-1,j), w(i-1,j-1), w(i,j-1))``
    row by row (first row and column accumulate along their only direction)
    and divides the terminal cost by the cell count of the optimal warping
    path. Each cell also counts the cells of its path: on equal cost the
    predecessor with fewer cells wins, so the count is that of the shortest
    optimal path and the score is symmetric in ``a`` and ``b``. Only the
    previous and the current row of costs and counts are kept.
    """
    _validate(a, "first")
    _validate(b, "second")
    inf, no_path = math.inf, len(a) + len(b)  # no_path: more cells than any path
    # Row -1: only the virtual origin before (0, 0) is reachable.
    prev_cost, prev_cells = [0.0] + [inf] * len(b), [0] * (len(b) + 1)
    for ai in a:
        cost, cells = [inf], [0]  # column -1 is unreachable
        for j, bj in enumerate(b, 1):
            up, diag, left = prev_cost[j], prev_cost[j - 1], cost[j - 1]
            best = up if up < diag else diag
            if left < best:
                best = left
            n = no_path
            if up == best:
                n = prev_cells[j]
            if diag == best and prev_cells[j - 1] < n:
                n = prev_cells[j - 1]
            if left == best and cells[j - 1] < n:
                n = cells[j - 1]
            d = ai - bj  # the cell's cost is the squared difference
            cost.append(d * d + best)
            cells.append(n + 1)
        prev_cost, prev_cells = cost, cells
    return prev_cost[-1] / prev_cells[-1]


def env_similar(
    a: ScalarSequence,
    b: ScalarSequence,
    sensor: SensorKind,
    thresholds: EnvThresholds,
) -> tuple[float, bool]:
    """Compare two ambient sequences; returns (score, similar).

    The score is the square root of the normalized DTW score, which puts it
    back in the sensor's natural unit so the published thresholds apply.
    """
    score = math.sqrt(dtw_score(a, b))
    return score, score <= thresholds.for_sensor(sensor)


def select_env_sensor(prox_a: ProximityState, prox_b: ProximityState) -> SensorKind:
    """Barometer when both phones sit in open space; magnetometer otherwise
    (a pocketed phone distorts its own air-pressure reading)."""
    if prox_a is ProximityState.FAR and prox_b is ProximityState.FAR:
        return SensorKind.BAROMETER
    return SensorKind.MAGNETOMETER
