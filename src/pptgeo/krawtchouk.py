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

    S = mn always holds.  At 2x2, 2x3 and 3x2 every PPT state is separable
    (M., P. & R. Horodecki, Phys. Lett. A 223, 1, 1996), so T = S = mn, and
    every positive map is decomposable (Størmer, Acta Math. 110, 233, 1963;
    Woronowicz, Rep. Math. Phys. 10, 165, 1976), so P = D.  At 3x3, T and P
    are 2; elsewhere they are reported as unknown (None).  D is exact when m
    or n is 2, where it equals the lower bound (k + 1 for the other dimension
    k odd, k for k even), and for (3, 3); otherwise only the lower bound is
    known.  Swapping the tensor factors maps D(M_m, M_n) onto D(M_n, M_m),
    and the alternating sum of order m vanishes at (k, l) exactly when that
    of order n does, so the report is symmetric in (m, n) apart from its "m"
    and "n" entries.
    """
    if m < 2 or n < 2:
        raise ValueError("m and n must be at least 2")
    lower = nu_lower_bound_D(m, n)
    if min(m, n) == 2:
        d_value, d_status = lower, "exact"
    elif (m, n) == (3, 3):
        d_value, d_status = 4, "exact"
    else:
        d_value, d_status = None, "bound"
    if m * n <= 6:  # 2x2, 2x3 and 3x2
        t_value, p_value = m * n, d_value
    elif (m, n) == (3, 3):
        t_value = p_value = 2
    else:
        t_value = p_value = None
    return {
        "m": m,
        "n": n,
        "S": m * n,
        "T": t_value,
        "P": p_value,
        "D": {"value": d_value, "lower_bound": lower, "status": d_status},
    }
