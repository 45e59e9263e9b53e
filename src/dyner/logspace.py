"""Log-domain arithmetic for nonnegative reals that overflow double precision."""

import math
import sys
from dataclasses import dataclass

__all__ = ["LogNonNegative", "ZERO", "ONE", "log_add"]

_NEG_INF = float("-inf")
_LINEAR_MAX_LOG = math.log(sys.float_info.max)  # ~709.78


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b); exact when either operand is -inf (an exact zero)."""
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


@dataclass(frozen=True, slots=True, order=True)
class LogNonNegative:
    """Nonnegative quantity stored as log(magnitude); -inf encodes exact zero.

    Sums go through log-sum-exp (max + log1p(exp(-gap))) and products add
    logs, so quantities like e^5000 never round-trip through linear scale.
    """

    log_value: float

    @classmethod
    def from_linear(cls, x: float) -> "LogNonNegative":
        if math.isnan(x) or x < 0.0:
            raise ValueError(f"magnitude must be nonnegative, got {x!r}")
        if x == 0.0:
            return cls(_NEG_INF)
        return cls(math.log(x))

    @property
    def value(self) -> float:
        """Linear-scale magnitude; inf when too large for a double."""
        if self.log_value > _LINEAR_MAX_LOG:
            return math.inf
        return math.exp(self.log_value)

    @property
    def is_representable(self) -> bool:
        return self.log_value <= _LINEAR_MAX_LOG

    def __add__(self, other: "LogNonNegative") -> "LogNonNegative":
        return LogNonNegative(log_add(self.log_value, other.log_value))

    def __mul__(self, other: "LogNonNegative") -> "LogNonNegative":
        if _NEG_INF in (self.log_value, other.log_value):
            return ZERO
        return LogNonNegative(self.log_value + other.log_value)


ZERO = LogNonNegative(_NEG_INF)
ONE = LogNonNegative(0.0)
