"""Exact values of the distinct partition function q(n).

q(n) counts partitions of n into strictly decreasing positive parts
(generating function prod_{k>=1} (1+x^k)); q(9) = 8.  Everything here is
exact big-integer arithmetic.

``load_or_build`` is the one production builder: Gauss's theta
recurrence, O(n_max^{3/2}) big-integer additions.  The other
constructions are independent oracles that the tests compare it with:

* ``compute_q_table`` -- the reference 0/1-knapsack DP: for k = 1..n_max
  update values[n] += values[n-k] with n descending, so each part is
  used at most once.
* ``compute_q_table_odd_parts`` -- Euler's identity: partitions into odd
  parts, a complete-knapsack DP.
* ``q_enumerate`` -- deliberately naive explicit recursion over strictly
  decreasing parts, no memoization, capped at n <= 60.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

__all__ = [
    "QTable",
    "load_or_build",
    "compute_q_table",
    "compute_q_table_odd_parts",
    "q_enumerate",
    "check_log_concavity",
    "check_turan3",
]

ENUMERATION_LIMIT = 60


@dataclass(frozen=True)
class QTable:
    """Exact q(0..n_max); immutable and safe to share across threads."""

    n_max: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.n_max + 1:
            raise ValueError("table length does not match n_max")

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"q({n}) outside table 0..{self.n_max}")
        return self.values[n]

    def window(self, n: int, count: int) -> tuple[int, ...]:
        if n < 0 or n + count - 1 > self.n_max:
            raise IndexError(f"window [{n}, {n + count - 1}] outside table 0..{self.n_max}")
        return self.values[n : n + count]


def load_or_build(n_max: int) -> QTable:
    """Build q(0..n_max) by Gauss's theta recurrence; always builds.

    Gauss's identity prod(1+x^k) * sum_{k in Z} (-1)^k x^{k^2} =
    prod(1-x^k), with Euler's pentagonal theorem for the right-hand
    side, gives q(n) = e(n) - 2 sum_{k>=1} (-1)^k q(n-k^2), where
    e(n) = (-1)^j if n = j(3j-1)/2 for some integer j and 0 otherwise
    (Andrews, The Theory of Partitions, ch. 1-2).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = [0] * (n_max + 1)  # starts as e(n)
    j = 0
    while j * (3 * j - 1) // 2 <= n_max:
        for p in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):  # j and -j
            if p <= n_max:
                values[p] = (-1) ** j
        j += 1
    for n in range(1, n_max + 1):
        r = isqrt(n)
        odd = sum(values[n - k * k] for k in range(1, r + 1, 2))
        even = sum(values[n - k * k] for k in range(2, r + 1, 2))
        values[n] += 2 * (odd - even)
    return QTable(n_max, tuple(values))


def compute_q_table(n_max: int) -> QTable:
    """Reference DP over parts k = 1..n_max.

    The descending inner loop is what guarantees each part contributes
    at most once; ascending would count multiplicities.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = [0] * (n_max + 1)
    values[0] = 1
    for k in range(1, n_max + 1):
        for n in range(n_max, k - 1, -1):
            values[n] += values[n - k]
    return QTable(n_max, tuple(values))


def compute_q_table_odd_parts(n_max: int) -> QTable:
    """q(n) via Euler's identity: partitions into odd parts (repeats
    allowed), i.e. a complete-knapsack DP over odd k with n ascending."""
    values = [0] * (n_max + 1)
    values[0] = 1
    for k in range(1, n_max + 1, 2):
        for n in range(k, n_max + 1):
            values[n] += values[n - k]
    return QTable(n_max, tuple(values))


def q_enumerate(n: int) -> int:
    """Count strictly decreasing part sequences summing to n by explicit
    recursion.  Independent of the DP; exponential, so n <= 60."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"q_enumerate supports 0 <= n <= {ENUMERATION_LIMIT}, got {n}")

    def count(remaining: int, max_part: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(remaining, max_part), 0, -1):
            total += count(remaining - part, part - 1)
        return total

    return count(n, n)


def check_log_concavity(table: QTable, lo: int, hi: int) -> list[int]:
    """All n in [lo, hi] where q(n)^2 <= q(n-1) q(n+1) (exact).

    Empty result means q is strictly log-concave on the range.
    """
    if lo < 1 or hi + 1 > table.n_max:
        raise ValueError(f"range [{lo}, {hi}] needs table indices {lo - 1}..{hi + 1}")
    v = table.values
    return [n for n in range(lo, hi + 1) if v[n] * v[n] <= v[n - 1] * v[n + 1]]


def check_turan3(table: QTable, lo: int, hi: int) -> list[int]:
    """All n in [lo, hi] violating the strict third-order Turan
    inequality 4(q_n^2-q_{n-1}q_{n+1})(q_{n+1}^2-q_n q_{n+2}) >
    (q_n q_{n+1} - q_{n-1} q_{n+2})^2."""
    if lo < 1 or hi + 2 > table.n_max:
        raise ValueError(f"range [{lo}, {hi}] needs table indices {lo - 1}..{hi + 2}")
    v = table.values
    out = []
    for n in range(lo, hi + 1):
        lhs = 4 * (v[n] ** 2 - v[n - 1] * v[n + 1]) * (v[n + 1] ** 2 - v[n] * v[n + 2])
        rhs = (v[n] * v[n + 1] - v[n - 1] * v[n + 2]) ** 2
        if not lhs > rhs:
            out.append(n)
    return out
