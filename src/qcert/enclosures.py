"""Certified enclosures of pi, exp, log, cosh, sinh and the modified
Bessel function I1.

Every function here returns an Interval guaranteed to contain the exact
image of its input interval.  The recipes are deliberately simple so the
remainder bounds are provable by inspection:

* pi        -- Machin's formula 16*atan(1/5) - 4*atan(1/239) with exact
               rational partial sums; alternating-series tails bracket.
* exp       -- halve the argument k times until |r| <= 1/2 (exact dyadic
               shifts), Taylor sum with factorial tail, square k times.
* log       -- reduce to [1,2) by exact powers of two, atanh series in
               u = (m-1)/(m+1) <= 1/3 with a geometric tail; log 2 itself
               is 2*atanh(1/3).
* cosh/sinh -- (exp(x) +- exp(-x))/2 on certified exponentials.
* I1        -- all-positive ascending series with a geometric tail bound
               once the term ratio drops below 1/2.

All point kernels take an exact Dyadic and return an Interval; interval
arguments are handled by monotone endpoint dispatch (every function here
is monotone on the domain we admit, except cosh which is even).
"""

from __future__ import annotations

from fractions import Fraction

from .intervals import (
    DomainError,
    Dyadic,
    Interval,
    resolve_precision,
)

__all__ = [
    "enclose_pi",
    "enclose_exp",
    "enclose_log",
    "enclose_cosh",
    "enclose_sinh",
    "enclose_bessel_i1",
]

_PI_CACHE: dict[int, Interval] = {}
_LOG2_CACHE: dict[int, Interval] = {}


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


def enclose_pi(prec: int | None = None) -> Interval:
    """Interval containing pi, width <= 2**(4-prec)."""
    prec = resolve_precision(prec)
    cached = _PI_CACHE.get(prec)
    if cached is None:
        lo5, hi5 = _atan_inv_bounds(5, prec)
        lo239, hi239 = _atan_inv_bounds(239, prec)
        cached = Interval(
            Dyadic.from_fraction(16 * lo5 - 4 * hi239, prec, up=False),
            Dyadic.from_fraction(16 * hi5 - 4 * lo239, prec, up=True),
        )
        _PI_CACHE[prec] = cached
    return cached


def _exp_point(d: Dyadic, prec: int) -> Interval:
    """Enclosure of exp(d) for an exact dyadic d."""
    if d.is_zero:
        return Interval.point(1)
    # halvings so that |r| <= 1/2; each later squaring doubles the
    # relative error, so work with k extra guard bits
    k = max(0, d.exp + d.man.bit_length() + 1)
    wp = prec + k + 12
    r = Interval.point(d.scale(-k))
    # Taylor sum sum_{j<=J} r^j/j!; |r|<=1/2 gives tail <= 2*|r|^(J+1)/(J+1)!
    term = Interval.point(1)
    total = Interval.point(1)
    j = 0
    tail_num = Fraction(1)  # (1/2)^(J+1)/(J+1)! running bound
    while True:
        j += 1
        term = term.mul(r, wp).div(Interval.point(j), wp)
        total = total.add(term, wp)
        tail_num = tail_num / (2 * (j + 1))
        if 2 * tail_num < Fraction(1, 1 << wp):
            break
    tail = Dyadic.from_fraction(2 * tail_num, wp, up=True)
    total = total.add(Interval(-tail, tail), wp)
    for _ in range(k):
        total = total.mul(total, wp)
    return Interval(total.lo.round(prec, up=False), total.hi.round(prec, up=True))


def enclose_exp(x: Interval, prec: int | None = None) -> Interval:
    prec = resolve_precision(prec)
    return Interval(_exp_point(x.lo, prec).lo, _exp_point(x.hi, prec).hi)


def _log2_bounds(prec: int) -> Interval:
    cached = _LOG2_CACHE.get(prec)
    if cached is None:
        cached = _atanh_series(Interval.from_fraction(Fraction(1, 3), prec + 8), prec)
        _LOG2_CACHE[prec] = cached
    return cached


def _atanh_series(u: Interval, prec: int) -> Interval:
    """Enclosure of 2*atanh(u) for 0 <= u <= 1/3."""
    wp = prec + 12
    usq = u.mul(u, wp)
    power = u  # u^(2j+1)
    total = u
    j = 0
    while True:
        j += 1
        power = power.mul(usq, wp)
        # tail after the previous term is <= u^(2j+1)/((2j+1)(1-u^2));
        # with u <= 1/3 the factor 1/((2j+1)(1-u^2)) is below 2
        bound = power.hi
        if bound.sign <= 0 or bound.exp + bound.man.bit_length() < -wp:
            tail_hi = abs(bound).round(prec, up=True).scale(1)
            total = total.add(Interval(Dyadic(0), tail_hi), wp)
            break
        total = total.add(power.div(Interval.point(2 * j + 1), wp), wp)
    total = total.scale(1)  # the leading factor 2
    return Interval(total.lo.round(prec, up=False), total.hi.round(prec, up=True))


def _log_point(d: Dyadic, prec: int) -> Interval:
    if d.sign <= 0:
        raise DomainError("log domain requires positive argument")
    wp = prec + 12
    # normalize to m in [1, 2)
    shift = d.exp + d.man.bit_length() - 1
    m = Interval.point(d.scale(-shift))
    u = m.sub(Interval.point(1), wp).div(m.add(Interval.point(1), wp), wp)
    result = _atanh_series(u, wp)
    if shift:
        result = result.add(_log2_bounds(wp).mul(Interval.point(shift), wp), wp)
    return Interval(result.lo.round(prec, up=False), result.hi.round(prec, up=True))


def enclose_log(x: Interval, prec: int | None = None) -> Interval:
    prec = resolve_precision(prec)
    if x.lo.sign <= 0:
        raise DomainError(f"log domain requires lo > 0, got {x}")
    return Interval(_log_point(x.lo, prec).lo, _log_point(x.hi, prec).hi)


def enclose_cosh(x: Interval, prec: int | None = None) -> Interval:
    prec = resolve_precision(prec)

    def cosh_point(d: Dyadic) -> Interval:
        e = _exp_point(d, prec + 8)
        return e.add(Interval.point(1).div(e, prec + 8), prec + 8).scale(-1)

    a, b = x.lo, x.hi
    if a.sign >= 0:
        lo_iv, hi_iv = cosh_point(a), cosh_point(b)
    elif b.sign <= 0:
        lo_iv, hi_iv = cosh_point(b), cosh_point(a)
    else:  # straddles 0: minimum is cosh(0) = 1
        lo_iv = Interval.point(1)
        hi_iv = Interval.hull(cosh_point(a), cosh_point(b))
    return Interval(lo_iv.lo.round(prec, up=False), hi_iv.hi.round(prec, up=True))


def enclose_sinh(x: Interval, prec: int | None = None) -> Interval:
    prec = resolve_precision(prec)

    def sinh_point(d: Dyadic) -> Interval:
        e = _exp_point(d, prec + 8)
        return e.sub(Interval.point(1).div(e, prec + 8), prec + 8).scale(-1)

    return Interval(sinh_point(x.lo).lo.round(prec, up=False), sinh_point(x.hi).hi.round(prec, up=True))


def _bessel_i1_point(d: Dyadic, prec: int) -> Interval:
    """Enclosure of I1(d) = sum_k (d/2)^(2k+1) / (k! (k+1)!), d >= 0."""
    if d.is_zero:
        return Interval.point(0)
    wp = prec + 16
    half = Interval.point(d.scale(-1))
    half_sq = half.mul(half, wp)
    term = half  # k = 0 term
    total = half
    k = 0
    while True:
        k += 1
        term = term.mul(half_sq, wp).div(Interval.point(k * (k + 1)), wp)
        total = total.add(term, wp)
        # geometric tail once ratio (d/2)^2/((k+1)(k+2)) < 1/2
        num = half_sq.hi
        if num.cmp_fraction(Fraction((k + 1) * (k + 2), 2)) < 0:
            ratio_hi = num.to_fraction() / ((k + 1) * (k + 2))
            t = term.hi.to_fraction()
            tail = t * ratio_hi / (1 - ratio_hi)
            if tail < total.lo.to_fraction() / (1 << wp) or tail < Fraction(1, 1 << wp):
                total = total.add(
                    Interval(Dyadic(0), Dyadic.from_fraction(tail, wp, up=True)), wp
                )
                break
    return Interval(total.lo.round(prec, up=False), total.hi.round(prec, up=True))


def enclose_bessel_i1(x: Interval, prec: int | None = None) -> Interval:
    """I1 on [lo, hi] with lo >= 0; the series is increasing there."""
    prec = resolve_precision(prec)
    if x.lo.sign < 0:
        raise DomainError(f"bessel_i1 domain requires lo >= 0, got {x}")
    return Interval(_bessel_i1_point(x.lo, prec).lo, _bessel_i1_point(x.hi, prec).hi)
