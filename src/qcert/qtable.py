"""Exact values of the distinct partition function q(n).

q(n) counts partitions of n into strictly decreasing positive parts
(generating function prod_{k>=1} (1+x^k)); q(9) = 8.  Everything here is
exact big-integer arithmetic.

``load_or_build`` is the one builder: Gauss's theta recurrence,
O(n_max^{3/2}) big-integer additions, BLOCK indices at a time (the far
terms of a block read only final values, so they are summed as slices,
in C; the seven near terms are one signed expression per index).  The
independent oracles it is tested against (the knapsack DP, Euler's odd
parts, explicit enumeration) live with the tests.
"""

from __future__ import annotations

from math import isqrt

__all__ = ["QTable", "load_or_build"]

BLOCK = 64  # indices per block of the recurrence
_NEAR = tuple(k * k for k in range(1, isqrt(BLOCK - 1) + 1))  # k^2 < BLOCK: 1, 4, .., 49, written out per index


def _read_only(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name}")


class QTable:
    """Exact q(0..n_max); immutable and safe to share across threads."""

    def __init__(self, n_max: int, values: tuple[int, ...]):
        if len(values) != n_max + 1:
            raise ValueError("table length does not match n_max")
        vars(self).update(n_max=n_max, values=values)

    __setattr__ = __delattr__ = _read_only

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
    summed per column by parity of k.  The seven near terms (k^2 <= 49) are
    one signed expression per index, on a list padded with 49 zeros below
    q(0), so that every n - k^2 is an index.  Only the order of the exact
    additions changes, so the table does not.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    pad = _NEAR[-1]
    v = [0] * (pad + n_max + 1)  # v[pad + n] starts as e(n); zeros below n = 0
    j = 0
    while j * (3 * j - 1) // 2 <= n_max:
        for p in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):  # j and -j
            if p <= n_max:
                v[pad + p] = (-1) ** j
        j += 1
    for start in range(pad, pad + n_max + 1, BLOCK):
        m = min(BLOCK, pad + n_max + 1 - start)
        far = ([[0] * m], [[0] * m])  # slices by parity of k, a zero column first
        for k in range(len(_NEAR) + 1, isqrt(start - pad + m - 1) + 1):
            lo = start - k * k
            far[k % 2].append(v[lo : lo + m] if lo >= 0 else [0] * -lo + v[: lo + m])
        for n, odd, even in zip(range(start, start + m), map(sum, zip(*far[1])), map(sum, zip(*far[0]))):
            v[n] += 2 * (odd - even + v[n - 1] - v[n - 4] + v[n - 9] - v[n - 16] + v[n - 25] - v[n - 36] + v[n - 49])
    del v[:pad]
    return QTable(n_max, tuple(v))
