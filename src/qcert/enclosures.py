"""Certified enclosures of pi, exp, log and cosh.

Every function here returns an Interval guaranteed to contain the exact
image of its input interval.  The recipes are deliberately simple so the
remainder bounds are provable by inspection:

* pi        -- Machin's formula 16*atan(1/5) - 4*atan(1/239) with exact
               rational partial sums; alternating-series tails bracket.
* exp       -- halve the argument k times until |r| < 1/2 (exact dyadic
               shifts), Taylor sum with factorial tail, square k times.
* log       -- reduce to [1,2) by exact powers of two (to [1/2, 1) for
               an argument there), atanh series in u = (m-1)/(m+1),
               |u| <= 1/3, with a geometric tail; log 2 itself is
               2*atanh(1/3).
* cosh      -- (exp(x) + exp(-x))/2 on certified exponentials.

The exp and log series are summed on plain integers at a fixed
scale 2^-w: a floor chain of the terms gives the lower bound and a
ceiling chain the upper one, the tails are integer comparisons, and the
result is rounded outward to prec bits once, at the end.  The squarings
that undo exp's halvings round the pair outward to the working width.

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


def _exp_point(d: Dyadic, prec: int) -> Interval:
    """Enclosure of exp(d) for an exact dyadic d."""
    if d.is_zero:
        return Interval.point(1)
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
    return Interval(Dyadic(lo, e).round(prec, up=False), Dyadic(hi, e).round(prec, up=True))


def enclose_exp(x: Interval, prec: int) -> Interval:
    check_precision(prec)
    return _monotone(_exp_point, x, prec)


def _atanh_series(ulo: int, uhi: int, w: int) -> tuple[int, int]:
    """Bounds at scale 2^-w of 2*atanh(u) = 2 sum_j u^(2j+1)/(2j+1) for
    ulo * 2^-w <= u <= uhi * 2^-w, 0 <= u <= 1/3, by a floor and a ceiling
    chain of the powers."""
    lo, hi = ulo, uhi
    slo, shi = ulo * ulo >> w, -(-(uhi * uhi) >> w)
    plo, phi = ulo, uhi  # bounds of u^(2j+1)
    j = 0
    while phi > 1:
        j += 1
        plo = plo * slo >> w
        phi = -(-(phi * shi) >> w)
        lo += plo // (2 * j + 1)
        hi -= -phi // (2 * j + 1)
    # the terms after j sum to at most u^(2j+3) / ((2j+3)(1-u^2)) <= u^(2j+1),
    # at most phi <= 1 unit
    return 2 * lo, 2 * (hi + phi)


@lru_cache(maxsize=None)
def _log2_bounds(w: int) -> tuple[int, int]:
    """Bounds at scale 2^-w of log 2 = 2*atanh(1/3)."""
    third = (1 << w) // 3
    return _atanh_series(third, third + 1, w)


def _log_point(d: Dyadic, prec: int) -> Interval:
    if d.sign <= 0:
        raise DomainError("log domain requires positive argument")
    # d = m * 2^shift with m = man / 2^t in [1, 2), u = (m-1)/(m+1) <= 1/3;
    # d in [1/2, 1) is m = d, shift = 0 and u in [-1/3, 0), so that nothing
    # cancels just below 1
    t = d.man.bit_length() - 1
    shift = d.exp + t
    if shift == -1:
        t, shift = t + 1, 0
    w = prec + 24
    num = d.man - (1 << t)
    if not shift:  # log d is about 2u: keep the bits of u below 2^-w
        w += max(0, t - abs(num).bit_length())
    q, r = divmod(abs(num) << w, d.man + (1 << t))
    lo, hi = _atanh_series(q, q + (r > 0), w)
    if num < 0:  # atanh is odd
        lo, hi = -hi, -lo
    if shift:
        l2lo, l2hi = _log2_bounds(w)
        if shift < 0:
            l2lo, l2hi = l2hi, l2lo
        lo += shift * l2lo
        hi += shift * l2hi
    return Interval(Dyadic(lo, -w).round(prec, up=False), Dyadic(hi, -w).round(prec, up=True))


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
