"""Estimation utilities: means with normal CIs and KS distances."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EstimateCI", "mean_ci", "ks_distance"]

Z95 = 1.96  # normal-approximation 95% half-width multiplier


@dataclass(frozen=True, slots=True)
class EstimateCI:
    """Monte Carlo point estimate with a 95% normal-approximation CI."""

    mean: float
    half_width: float
    count: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "EstimateCI") -> bool:
        return max(self.low, other.low) <= min(self.high, other.high)


def mean_ci(samples) -> EstimateCI:
    """Sample mean with 1.96 s/sqrt(count) half-width.

    Values are sorted before pairwise summation, so the result is exactly
    invariant under permutation of the inputs.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    count = xs.size
    if count < 2:
        raise ValueError(f"need at least 2 samples for a CI, got {count}")
    mean = float(np.sum(xs)) / count
    variance = float(np.sum((xs - mean) ** 2)) / (count - 1)
    half_width = Z95 * math.sqrt(variance / count)
    return EstimateCI(mean=mean, half_width=half_width, count=int(count))


def ks_distance(samples, cdf) -> float:
    """sup |empirical - cdf| over the sample points, both one-sided gaps."""
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    if m < 1:
        raise ValueError("need at least one sample")
    f = np.asarray([cdf(x) for x in xs], dtype=float)
    steps = np.arange(1, m + 1) / m
    d_plus = float(np.max(steps - f))
    d_minus = float(np.max(f - (steps - 1.0 / m)))
    return max(d_plus, d_minus, 0.0)
