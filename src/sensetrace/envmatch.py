"""Ambient-environment matching via DTW over magnetic magnitude and air
pressure sequences.

Sequences may have different lengths (sensor rates differ between phones);
DTW aligns them with squared local cost in one forward pass over two rows,
the accumulated cost is normalized by the cell count of the shortest optimal
warping path. The square root of that score is in the sensor's natural
unit, where ``EnvThresholds`` holds each sensor's threshold (hPa or uT).

``dtw_score`` scores one pair of sequences and is the reference;
``dtw_scores``, which detection uses, runs the same recurrence for a batch
of equal-shape pairs at once and gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


# Diagonal places (pairs x (m + 1)) scored together: enough for each array
# operation to cost little per pair, few enough that the diagonals stay
# small beside the sequences.
_DTW_PLACES = 1 << 12


def dtw_scores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``dtw_score`` of each row of ``a`` (k x m) with the same row of ``b``
    (k x n), bit for bit, for all k pairs at once, one anti-diagonal at a
    time: the same float operations and the same fewest-cells tie rule. The
    first pair with a non-finite value raises the ValueError ``dtw_score``
    would. Pairs are scored
    ``_DTW_PLACES`` diagonal places at a time.

    Cell (i, j) lies on diagonal i + j, at place i + 1 of the diagonal's
    (m + 1) x k arrays of costs and cell counts; place 0 is row -1. The
    cells above and to the left lie on the diagonal before, the cell
    up-left two before, each as a slice. The three diagonals in use take
    turns in one array. Places off the matrix hold cost inf and count 0, as
    ``dtw_score``'s row -1 and column -1 do.
    """
    k, m = a.shape
    n = b.shape[1]
    pairs = max(1, _DTW_PLACES // (m + 1))
    if k > pairs:
        return np.concatenate([dtw_scores(a[i : i + pairs], b[i : i + pairs]) for i in range(0, k, pairs)])
    bad = np.flatnonzero(~(np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)))
    if bad.size:
        for name, seq in (("first", a[bad[0]]), ("second", b[bad[0]])):
            for v in seq.tolist():
                if not math.isfinite(v):
                    raise ValueError(f"{name} sequence contains non-finite value {v}")
    a, b_back = np.ascontiguousarray(a.T), np.ascontiguousarray(b[:, ::-1].T)  # b_back[n - 1 - j] is b[j]
    no_path = m + n
    costs = np.full((3, m + 1, k), math.inf)
    counts = np.zeros((3, m + 1, k), dtype=np.int64)
    costs[0, 0] = 0.0  # diagonal -2 holds the virtual origin before (0, 0)
    for d in range(m + n - 1):
        lo, hi = max(0, d - n + 1), min(m, d + 1)  # the rows i of diagonal d
        back1, back2, now = (d + 1) % 3, d % 3, (d + 2) % 3
        up, diag, left = costs[back1, lo:hi], costs[back2, lo:hi], costs[back1, lo + 1 : hi + 1]
        best = np.minimum(np.minimum(up, diag), left)
        count = np.where(up == best, counts[back1, lo:hi], no_path)
        np.minimum(count, np.where(diag == best, counts[back2, lo:hi], no_path), out=count)
        np.minimum(count, np.where(left == best, counts[back1, lo + 1 : hi + 1], no_path), out=count)
        step = a[lo:hi] - b_back[n - 1 - d + lo : n - 1 - d + hi]
        with np.errstate(over="ignore"):  # a cost may reach inf, as it may in dtw_score
            np.add(step * step, best, out=costs[now, lo + 1 : hi + 1])
        np.add(count, 1, out=counts[now, lo + 1 : hi + 1])
        costs[now, 0] = math.inf  # row -1, where diagonal -2's origin was
    last = (m + n) % 3
    return costs[last, m] / counts[last, m]


def select_env_sensor(prox_a: ProximityState, prox_b: ProximityState) -> SensorKind:
    """Barometer when both phones sit in open space; magnetometer otherwise
    (a pocketed phone distorts its own air-pressure reading)."""
    if prox_a is ProximityState.FAR and prox_b is ProximityState.FAR:
        return SensorKind.BAROMETER
    return SensorKind.MAGNETOMETER
