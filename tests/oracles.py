"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own algorithms: the DTW oracle
enumerates every monotone warping path instead of filling a DP matrix.
"""

from __future__ import annotations

from typing import Sequence


def brute_force_dtw(a: Sequence[float], b: Sequence[float]) -> float:
    """Normalized DTW score by exhaustive enumeration of warping paths.

    Enumerates every monotone path from (0, 0) to (N-1, M-1) and picks the
    minimum of (total squared cost, path length): among minimum-cost paths
    the shortest wins (the same policy the implementation documents).
    Returns min_cost / len(chosen path). Only usable for tiny products N*M.
    """
    n, m = len(a), len(b)
    best = (float("inf"), 0)

    def walk(i: int, j: int, cost: float, length: int) -> None:
        nonlocal best
        cost += (a[i] - b[j]) ** 2
        length += 1
        if i == n - 1 and j == m - 1:
            best = min(best, (cost, length))
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost, length)
        if i + 1 < n:
            walk(i + 1, j, cost, length)
        if j + 1 < m:
            walk(i, j + 1, cost, length)

    walk(0, 0, 0.0, 0)
    cost, length = best
    return cost / length
