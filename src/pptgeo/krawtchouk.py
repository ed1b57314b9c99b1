"""Exact combinatorics behind the decomposable-cone bounds.

Everything here is integer arithmetic (math.comb, so arbitrary precision);
results are independent of evaluation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class KrawtchoukSolution:
    """A pair (k, l) with k + l = m + n - 2 where the alternating binomial
    sum of order m vanishes."""

    k: int
    l: int
    m: int
    n: int

    def __post_init__(self):
        if self.k + self.l != self.m + self.n - 2:
            raise ValueError("k + l must equal m + n - 2")
        if krawtchouk_sum(self.k, self.l, self.m) != 0:
            raise ValueError("(k, l) does not zero the alternating sum")


def krawtchouk_sum(k: int, l: int, m: int) -> int:
    """sum over r + s = m - 1, r, s >= 0 of (-1)^r C(k, r) C(l, s), exactly."""
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    if m < 1:
        raise ValueError("m must be at least 1")
    return sum(
        (-1) ** r * math.comb(k, r) * math.comb(l, m - 1 - r) for r in range(m)
    )


def solve(m: int, n: int) -> list[KrawtchoukSolution]:
    """All (k, l) with k + l = m + n - 2 and vanishing sum, lexicographic."""
    if m < 2 or n < 2:
        raise ValueError("m and n must be at least 2")
    total = m + n - 2
    return [
        KrawtchoukSolution(k, total - k, m, n)
        for k in range(total + 1)
        if krawtchouk_sum(k, total - k, m) == 0
    ]


def nu_lower_bound_D(m: int, n: int) -> int:
    """Lower bound on the minimal number of extreme decomposable maps whose
    combination reaches an interior point: m + n - 2 in general, improving to
    m + n - 1 when the Diophantine condition has no solution."""
    return m + n - 2 if solve(m, n) else m + n - 1


def nu_summary(m: int, n: int) -> dict:
    """Structured report of the known interior-combination numbers.

    S = mn always holds.  T and P equal 2 only in the 3x3 case (the only
    proved instance); elsewhere they are reported as unknown (None).  D is
    exact for m = 2, where it equals the lower bound (n + 1 for odd n, n for
    even n), and for (3, 3); otherwise only the lower bound is known.
    """
    if m < 2 or n < 2:
        raise ValueError("m and n must be at least 2")
    lower = nu_lower_bound_D(m, n)
    if m == 2:
        d_value, d_status = lower, "exact"
    elif (m, n) == (3, 3):
        d_value, d_status = 4, "exact"
    else:
        d_value, d_status = None, "bound"
    return {
        "m": m,
        "n": n,
        "S": m * n,
        "T": 2 if (m, n) == (3, 3) else None,
        "P": 2 if (m, n) == (3, 3) else None,
        "D": {"value": d_value, "lower_bound": lower, "status": d_status},
    }
