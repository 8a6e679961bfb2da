"""Overflow-safe exponentials, fixed float formatting, and a reproducible PRNG.

Quantities of the form ``c + e**x`` overflow float64 once ``x`` exceeds
roughly 709.  Everything above ``EXP_OVERFLOW`` is carried in log domain
instead, summed with ``math.fsum``.  A row whose bound shares lambda_1's
exponential is judged against 1e-9 * e**lambda_1, far above its tails:
Paley(17)'s T2_lower and T4_ng_lower print equality on exact slacks of
-0.7457 and -1.4914 (ROADMAP item 3).
"""

from __future__ import annotations

import math
from typing import Sequence

# exponent above which e**x is treated as unrepresentable (log-domain kicks in)
EXP_OVERFLOW = 700.0


def safe_exp(x: float) -> float:
    """e**x, returning inf instead of raising once x leaves float range."""
    if x > EXP_OVERFLOW:
        return math.inf
    return math.exp(x)


def log_sum_exp(values: Sequence[float]) -> float:
    """log(sum(e**v for v in values)) without overflow (max-shift trick)."""
    if not values:
        raise ValueError("log_sum_exp of empty sequence")
    hi = max(values)
    if math.isinf(hi):
        return hi
    return hi + math.log(math.fsum([math.exp(v - hi) for v in values]))


def fmt15(x: float) -> str:
    """Fixed serialization: 15 significant digits, round-half-even."""
    if x != x:
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    s = format(x, ".15g")
    # normalize "-0" so identical values serialize identically
    return "0" if s == "-0" else s


class SplitMix64:
    """Seedable 64-bit generator with the splitmix update.

    state += 0x9E3779B97F4A7C15
    z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31

    Documented so random-graph fixtures reproduce bit-for-bit anywhere.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1): top 53 bits over 2**53."""
        return (self.next_u64() >> 11) * (2.0 ** -53)
