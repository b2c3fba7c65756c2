"""RSS and sound-amplitude ranging.

Radio ranging uses the free-space path-loss form
``d = 10^((power_at_1m - rss) / (10 * n))`` and its algebraic inverse.
Sound ranging applies the same form with the chirp's emission amplitude as
the 1-metre reference and a medium-specific exponent. ``distance_from_rss``
and ``sound_distance`` convert one reading; ``distances_from_rss`` and
``sound_distances``, which detection uses, convert arrays of them to the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistance, InvalidMeasure

# Converted estimates are clamped to keep downstream statistics bounded.
MIN_DISTANCE_M = 0.01
MAX_DISTANCE_M = 1000.0
# How far a heard chirp may exceed the emission amplitude and still count.
SOUND_TOLERANCE_DB = 1.0


@dataclass(frozen=True)
class PathLossParams:
    """Calibration of the path-loss model: reference power at 1 m (dBm) and
    the propagation exponent (2 = free space)."""

    power_at_1m: float = -59.0
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if not (self.exponent > 0 and math.isfinite(self.exponent)):
            raise ValueError(f"exponent must be > 0, got {self.exponent}")
        if not -100.0 <= self.power_at_1m <= 0.0:
            raise ValueError(f"power_at_1m must lie in [-100, 0] dBm, got {self.power_at_1m}")


@dataclass(frozen=True)
class ChirpSpec:
    """Audible chirp used for peer sensing, emitted at ~20 dB.

    The amplitude doubles as the 1-metre reference level for sound ranging.
    """

    amplitude: float = 20.0

    def __post_init__(self) -> None:
        if not 15.0 <= self.amplitude <= 25.0:
            raise ValueError(f"chirp amplitude must lie within 20 +/- 5 dB, got {self.amplitude}")


def _clamp(metres: float) -> float:
    return min(max(metres, MIN_DISTANCE_M), MAX_DISTANCE_M)


def distance_from_rss(rss: float, params: PathLossParams) -> float:
    """Estimated distance in metres for a received signal strength in dBm."""
    if not math.isfinite(rss):
        raise InvalidMeasure(f"RSS must be finite, got {rss}")
    return _clamp(10.0 ** ((params.power_at_1m - rss) / (10.0 * params.exponent)))


def rss_from_distance(d: float, params: PathLossParams) -> float:
    """Exact inverse of distance_from_rss (within the clamp range)."""
    if not math.isfinite(d) or d <= 0:
        raise InvalidDistance(f"distance must be finite and > 0, got {d}")
    return params.power_at_1m - 10.0 * params.exponent * math.log10(d)


def sound_distance(received_amp: float, chirp: ChirpSpec, exponent: float) -> float:
    """Distance from a heard chirp's amplitude in dB; the 1-metre reference
    is the chirp's emission amplitude."""
    if not math.isfinite(received_amp):
        raise InvalidMeasure(f"received amplitude must be finite, got {received_amp}")
    if received_amp > chirp.amplitude + SOUND_TOLERANCE_DB:
        raise InvalidMeasure(
            f"received {received_amp} dB exceeds emitted {chirp.amplitude} dB beyond tolerance"
        )
    return _clamp(10.0 ** ((chirp.amplitude - received_amp) / (10.0 * exponent)))


def _distances(exponents: np.ndarray) -> np.ndarray:
    """``_clamp(10.0 ** x)`` of each exponent. The power is Python's float
    pow: ``np.power`` differs from it in the last bit on some exponents."""
    return np.clip(np.array([10.0 ** x for x in exponents.tolist()], dtype=float), MIN_DISTANCE_M, MAX_DISTANCE_M)


def distances_from_rss(rss: np.ndarray, params: PathLossParams) -> np.ndarray:
    """``distance_from_rss`` of each of the finite ``rss``, bit for bit."""
    return _distances((params.power_at_1m - rss) / (10.0 * params.exponent))


def sound_distances(received_amp: np.ndarray, chirp: ChirpSpec, exponent: float) -> np.ndarray:
    """``sound_distance`` of each of the finite ``received_amp``, none of
    them above the chirp's amplitude, bit for bit."""
    return _distances((chirp.amplitude - received_amp) / (10.0 * exponent))
