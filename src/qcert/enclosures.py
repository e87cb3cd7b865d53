"""Certified enclosures of pi, exp, log and cosh.

Every function here returns an Interval guaranteed to contain the exact
image of its input interval.  The recipes are deliberately simple so the
remainder bounds are provable by inspection:

* pi        -- Machin's formula 16*atan(1/5) - 4*atan(1/239) with exact
               rational partial sums; alternating-series tails bracket.
* exp       -- halve the argument k times until |r| < 1/2 (exact dyadic
               shifts), Taylor sum with factorial tail, square k times.
* log       -- the inverse of exp, checked: Newton's iteration on exp
               guesses log d, and the prec-bit cell [g, h] around the
               guess is returned only when exp's brackets give
               exp(g) <= d <= exp(h), so it is the tightest bracket;
               otherwise the guess is widened (Ziv's strategy).
* cosh      -- (exp(x) + exp(-x))/2 on certified exponentials.

The exp series is summed on plain integers at a fixed scale 2^-w: a
floor chain of the terms gives the lower bound and a ceiling chain the
upper one, the tail is an integer comparison, and the squarings that
undo the halvings round the pair outward to the working width.  That raw
bracket is rounded outward to prec bits once, at the end.

All point kernels take an exact Dyadic and return an Interval.  Every
function takes interval arguments through ``_monotone``, the dispatch of
``Interval.sqrt``, which evaluates a point argument once: exp and log
are increasing, and cosh, even, is increasing on |x|.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .intervals import (
    DomainError,
    Dyadic,
    Interval,
    check_precision,
    _monotone,
)

__all__ = [
    "enclose_pi",
    "enclose_exp",
    "enclose_log",
    "enclose_cosh",
]


def _atan_inv_bounds(x: int, bits: int) -> tuple[Fraction, Fraction]:
    """Exact rational bracket of arctan(1/x) via the alternating series.

    Stops once the first omitted term is below 2**-(bits+4); for an
    alternating series with decreasing terms that term bounds the tail.
    """
    target = Fraction(1, 1 << (bits + 4))
    s = Fraction(0)
    k = 0
    xx = x * x
    power = x  # x**(2k+1)
    while True:
        term = Fraction(1, (2 * k + 1) * power)
        if term <= target:
            # partial sum s brackets arctan within [s - term, s + term]
            return s - term, s + term
        s += term if k % 2 == 0 else -term
        power *= xx
        k += 1


@lru_cache(maxsize=None)
def enclose_pi(prec: int) -> Interval:
    """Interval containing pi, width <= 2**(4-prec)."""
    check_precision(prec)
    lo5, hi5 = _atan_inv_bounds(5, prec)
    lo239, hi239 = _atan_inv_bounds(239, prec)
    return Interval(
        Dyadic.from_fraction(16 * lo5 - 4 * hi239, prec, up=False),
        Dyadic.from_fraction(16 * hi5 - 4 * lo239, prec, up=True),
    )


def _exp_raw(d: Dyadic, prec: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo 2^e <= exp(d) <= hi 2^e for an exact dyadic d, at
    the working scale, finer than prec bits (exact for d = 0)."""
    if d.is_zero:
        return 1, 1, 0
    # k halvings give r = d / 2^k = +-m / 2^sh with |r| < 1/2; each later
    # squaring doubles the relative error, so work with k extra guard bits
    k = max(0, d.exp + d.man.bit_length() + 1)
    wp = prec + k + 12
    m, sh, neg = abs(d.man), k - d.exp, d.man < 0
    # Taylor sum at scale 2^-wp: a_j <= |r|^j / j! <= b_j by a floor and a
    # ceiling chain, terms stopped at the first J with 2^(wp+1) < 2^J (J+1)!
    lo = hi = a = b = 1 << wp
    limit, bound, j = 1 << (wp + 1), 1, 0
    while bound <= limit:
        j += 1
        bound *= 2 * (j + 1)
        a = (a * m >> sh) // j
        b = -((-(b * m) >> sh) // j)
        if neg and j & 1:
            lo -= b
            hi -= a
        else:
            lo += a
            hi += b
    # the remainder after term J is below 2 (1/2)^(J+1) / (J+1)! < 2^-(wp+1),
    # one unit; for r < 0 the terms alternate and shrink, so it has the
    # sign of term J + 1 and moves only one endpoint
    if neg and not j & 1:
        lo -= 1
    else:
        hi += 1
    # k squarings of [lo, hi] * 2^e, each rounded outward to wp bits of lo
    e = -wp
    for _ in range(k):
        lo *= lo
        hi *= hi
        e *= 2
        n = lo.bit_length() - wp
        if n > 0:
            lo >>= n
            hi = -(-hi >> n)
            e += n
    return lo, hi, e


def _exp_point(d: Dyadic, prec: int) -> Interval:
    """Enclosure of exp(d) for an exact dyadic d."""
    lo, hi, e = _exp_raw(d, prec)
    return Interval(Dyadic(lo, e).round(prec, up=False), Dyadic(hi, e).round(prec, up=True))


def enclose_exp(x: Interval, prec: int) -> Interval:
    check_precision(prec)
    return _monotone(_exp_point, x, prec)


def _log_point(d: Dyadic, prec: int) -> Interval:
    """The prec-bit cell [g, h] that holds log d: a guess l 2^-v from
    Newton's iteration l <- l + d e^-l - 1, proved by exp(g) <= d <= exp(h).
    The widening ends: for d != 1, log d is not a dyadic, so it lies inside
    its cell, and a wide enough guess and exp prove that cell."""
    if d.sign <= 0:
        raise DomainError("log domain requires positive argument")
    if d == Dyadic(1):
        return Interval.point(0)
    # Newton's l <- l + d e^-l - 1 at the scale 2^-v, from an untrusted start:
    # (n - 1/2) log 2 for 2^(n-1) <= d < 2^n, with log 2 to 64 bits
    v, l = 16, (2 * (d.man.bit_length() + d.exp) - 1) * 0xB17217F7D1CF79AC >> 49
    while True:
        lo, _, e = _exp_raw(Dyadic(-l, -v), v)
        s = d.exp + e + v
        c = (d.man * lo << s if s >= 0 else d.man * lo >> -s) - (1 << v)
        l += c
        if abs(c) >> (v // 2 + 2):  # l was off by more than about 2^-(v/2): step again
            continue
        # l is now good to a few units: with prec + 9 bits it names a cell [g, h],
        # which exp proves or refuses
        short = prec + 9 - abs(l).bit_length()
        if short <= 0:
            x = Dyadic(l, -v)
            g, h = x.round(prec, up=False), x.round(prec, up=True)
            _, hi, e = _exp_raw(g, v)
            lo, _, f = _exp_raw(h, v)
            if not Dyadic(hi, e) > d and not d > Dyadic(lo, f):
                return Interval(g, h)
        # widen (Ziv): by the bits l lacks, or twice as wide after a refusal
        grow = min(v, short) if short > 0 else v
        l <<= grow
        v += grow


def enclose_log(x: Interval, prec: int) -> Interval:
    check_precision(prec)
    if x.lo.sign <= 0:
        raise DomainError(f"log domain requires lo > 0, got {x}")
    return _monotone(_log_point, x, prec)


def _cosh_point(d: Dyadic, prec: int) -> Interval:
    """Enclosure of cosh(d) = (e^d + 1/e^d)/2, at prec + 8 bits then rounded."""
    e = _exp_point(d, prec + 8)
    v = e.add(Interval.point(1).div(e, prec + 8), prec + 8).scale(-1)
    return Interval(v.lo.round(prec, up=False), v.hi.round(prec, up=True))


def enclose_cosh(x: Interval, prec: int) -> Interval:
    check_precision(prec)
    # cosh is even: increasing on |x| = [max(lo, -hi, 0), max(-lo, hi)]
    return _monotone(_cosh_point, Interval(max(x.lo, -x.hi, Dyadic(0)), max(-x.lo, x.hi)), prec)
