"""Exact values of the distinct partition function q(n).

q(n) counts partitions of n into strictly decreasing positive parts
(generating function prod_{k>=1} (1+x^k)); q(9) = 8.  Everything here is
exact big-integer arithmetic.

``load_or_build`` is the one builder: Gauss's theta recurrence,
O(n_max^{3/2}) big-integer additions, BLOCK indices at a time (the far
terms of a block read only final values, so they are summed as slices,
in C).  ``q_enumerate`` is an independent
oracle that ``qtable --check-enumeration`` compares it with: deliberately
naive explicit recursion over strictly decreasing parts, no memoization,
capped at n <= 60.  The other oracles live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

__all__ = ["QTable", "load_or_build", "q_enumerate"]

ENUMERATION_LIMIT = 60

BLOCK = 64  # indices per block of the recurrence
_NEAR = tuple(k * k for k in range(1, isqrt(BLOCK - 1) + 1))  # k^2 < BLOCK, read per index
_NEAR_ODD, _NEAR_EVEN = _NEAR[::2], _NEAR[1::2]


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
    (Andrews, The Theory of Partitions, ch. 1-2).  In a block [start,
    start + m), m <= BLOCK, a far term (k^2 >= BLOCK) reads n - k^2 < start,
    already final: each far k is the slice from start - k^2 (zeros below 0),
    summed per column by parity of k; near terms go index by index.  Only
    the order of the exact additions changes, so the table does not.
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
    for start in range(0, n_max + 1, BLOCK):
        m = min(BLOCK, n_max + 1 - start)
        far = ([[0] * m], [[0] * m])  # slices by parity of k, a zero column first
        for k in range(len(_NEAR) + 1, isqrt(start + m - 1) + 1):
            lo = start - k * k
            far[k % 2].append(values[lo : lo + m] if lo >= 0 else [0] * -lo + values[: lo + m])
        for n, odd, even in zip(range(start, start + m), map(sum, zip(*far[1])), map(sum, zip(*far[0]))):
            odd += sum([values[n - sq] for sq in _NEAR_ODD if sq <= n])
            even += sum([values[n - sq] for sq in _NEAR_EVEN if sq <= n])
            values[n] += 2 * (odd - even)
    return QTable(n_max, tuple(values))


def q_enumerate(n: int) -> int:
    """Count strictly decreasing part sequences summing to n by explicit
    recursion.  Independent of the recurrence; exponential, so n <= 60."""
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
