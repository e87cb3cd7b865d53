"""Exact expansion coefficients for the shifted distinct partition
function.

For a fixed shift s >= 0 write sigma = (24s+1)/24 and x = n**(-1/2).
The asymptotic form of q(n+s) factors as

    q(n+s) = e^{pi sqrt(n/3)} / (4*3^{1/4} n^{3/4})
             * exp(pi sqrt(n/3)(sqrt(1+sigma/n)-1))     # exponential factor
             * (1+sigma/n)^{-3/4}                       # binomial factor
             * (Bessel polynomial factor in 1/x)

and each factor has an explicit expansion in x whose coefficients are
exact elements of Q[pi^±1, sqrt3].  This module computes every family:

* ``exp_factor_coeff(k, s)``    -- exponential factor, degree k
* ``binom_factor_coeff(k, s)``  -- binomial factor (rational; odd k vanish)
* ``exp_binom_coeff(k, s)``     -- their product (Cauchy convolution)
* ``bessel_factor_coeff(k, s)`` -- Bessel factor, carries negative pi powers
* ``expansion_coeff(k, s)``     -- full product; degree-0 value is 1

plus the Bessel asymptotic-series numbers ``bessel_asym_coeff`` (1, 3/8,
-15/128, 105/1024, ...).  The exponential factor's triple sum is
collapsed by an alternating half-integer binomial sum identity, which
the tests check by brute force.

The shift enters only through powers of 24s+1 = 24 sigma.  So the
exponential and Bessel factors are each an s-free shape, memoized per k
(per term: its ring key, a rational, and the powers of 24s+1, 24 and 72),
and a value per (k, s) with one Fraction per term, in the shape's order
(``RingElem.eval_iv`` sums terms in key order, so the order fixes every
enclosure).  All five families are memoized per (k, s); a ring element
is stored in its cleared integer form, which the two sums read directly.
All five reject k < 0 or s < 0 and return exact values; nothing here
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .ring import RingElem, sum_of_products

__all__ = [
    "rising_factorial",
    "gen_binomial",
    "bessel_asym_coeff",
    "shift_sigma",
    "exp_factor_coeff",
    "binom_factor_coeff",
    "exp_binom_coeff",
    "bessel_factor_coeff",
    "expansion_coeff",
    "COEFF_FAMILIES",
]


def rising_factorial(x: Fraction | int, m: int) -> Fraction:
    """Pochhammer (x)_m = x (x+1) ... (x+m-1); empty product is 1."""
    if m < 0:
        raise ValueError("rising_factorial needs m >= 0")
    out = Fraction(1)
    x = Fraction(x)
    for i in range(m):
        out *= x + i
    return out


def gen_binomial(x: Fraction | int, m: int) -> Fraction:
    """Generalized binomial coefficient C(x, m) = x(x-1)...(x-m+1)/m!."""
    if m < 0:
        raise ValueError("gen_binomial needs m >= 0")
    out = Fraction(1)
    x = Fraction(x)
    for i in range(m):
        out *= x - i
    return out / factorial(m)


@lru_cache(maxsize=None)
def bessel_asym_coeff(m: int) -> Fraction:
    """m-th coefficient of the I1 large-argument series:
    C(1/2, m) (3/2)_m / 2^m = 1, 3/8, -15/128, 105/1024, ..."""
    if m < 0:
        raise ValueError("bessel_asym_coeff needs m >= 0")
    return gen_binomial(Fraction(1, 2), m) * rising_factorial(Fraction(3, 2), m) / (1 << m)


def shift_sigma(s: int) -> Fraction:
    """sigma = (24s+1)/24 for a shift s >= 0."""
    if s < 0:
        raise ValueError("shift must be nonnegative")
    return Fraction(24 * s + 1, 24)


def _check(k: int, s: int) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")
    if s < 0:
        raise ValueError("shift must be nonnegative")


def _from_shape(shape: tuple, s: int) -> RingElem:
    """The shape's value at shift s: term (key, r, a, b, c) is
    r (24s+1)^a / (24^b 72^c), one Fraction per term, in shape order
    (RingElem drops the zero ones)."""
    t = 24 * s + 1
    return RingElem({key: Fraction(r.numerator * t**a, r.denominator * 24**b * 72**c)
                     for key, r, a, b, c in shape})


@lru_cache(maxsize=None)
def _exp_shape(k: int) -> tuple:
    """s-free terms of exp_factor_coeff(k, .), with sigma = (24s+1)/24 and
    (pi sqrt(sigma/3))^2 = pi^2 (24s+1)/72 split off as powers."""
    if k == 0:
        return (((0, 0), Fraction(1), 0, 0, 0),)
    half = k // 2
    if k % 2 == 0:
        pref = rising_factorial(Fraction(1, 2) - half, half + 1) / half
        return tuple(((2 * l, 0), pref * rising_factorial(Fraction(-half), l)
                      / (factorial(half + l) * factorial(2 * l - 1)), half + l, half, l)
                     for l in range(1, half + 1))
    pref = rising_factorial(Fraction(1, 2) - half, half + 1)
    # the odd-degree prefactor pi/sqrt3 = (1/3) pi sqrt3
    return tuple(((1 + 2 * l, 1), pref * rising_factorial(Fraction(-half), l)
                  / (3 * factorial(l + half + 1) * factorial(2 * l)), half + 1 + l, half + 1, l)
                 for l in range(half + 1))


@lru_cache(maxsize=None)
def exp_factor_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of exp(pi sqrt(n/3)(sqrt(1+sigma/n)-1)) in
    x = n^{-1/2}.  Even degrees carry pi^{2l}; odd degrees one extra
    pi/sqrt3."""
    _check(k, s)
    return _from_shape(_exp_shape(k), s)


@lru_cache(maxsize=None)
def _binom_34(h: int) -> Fraction:
    """C(-3/4, h), shared by every shift."""
    return gen_binomial(Fraction(-3, 4), h)


@lru_cache(maxsize=None)
def binom_factor_coeff(k: int, s: int) -> Fraction:
    """Degree-k coefficient of (1+sigma/n)^{-3/4}: sigma^{k/2} C(-3/4, k/2)
    for even k, zero for odd k."""
    _check(k, s)
    if k % 2:
        return Fraction(0)
    return shift_sigma(s) ** (k // 2) * _binom_34(k // 2)


@lru_cache(maxsize=None)
def exp_binom_coeff(k: int, s: int) -> RingElem:
    """Convolution of the exponential and binomial factor coefficients:
    each binomial coefficient is a rational weight on the cleared terms
    of one exponential coefficient, summed in integers over one common
    denominator."""
    _check(k, s)
    parts = [(exp_factor_coeff(l, s), c) for l in range(k + 1) if (c := binom_factor_coeff(k - l, s))]
    den = lcm(*(e.den * c.denominator for e, c in parts))
    acc: dict[int, int] = {}
    get = acc.get
    for e, c in parts:
        w = c.numerator * (den // (e.den * c.denominator))
        for key, m in e.ints.items():
            acc[key] = get(key, 0) + m * w
    return RingElem.from_cleared(den, acc)


@lru_cache(maxsize=None)
def _bessel_shape(k: int) -> tuple:
    """s-free terms of bessel_factor_coeff(k, .): sigma^(l-j) is
    (24s+1)^(l-j) / 24^(l-j)."""
    l, odd = divmod(k, 2)
    if odd:
        # -(sqrt3/pi)^(2j+1) = -3^j sqrt3 pi^(-(2j+1))
        return tuple(((-(2 * j + 1), 1), -gen_binomial(Fraction(-(2 * j + 1), 2), l - j)
                      * bessel_asym_coeff(2 * j + 1) * 3**j, l - j, l - j, 0) for j in range(l + 1))
    # (sqrt3/pi)^(2j) = 3^j pi^(-2j)
    return tuple(((-2 * j, 0), gen_binomial(Fraction(-j), l - j) * bessel_asym_coeff(2 * j) * 3**j,
                  l - j, l - j, 0) for j in range(l + 1))


@lru_cache(maxsize=None)
def bessel_factor_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of the Bessel polynomial factor.

    Even k=2l:  sum_{j<=l} C(-j, l-j)   a_{2j}   (sqrt3/pi)^{2j}   sigma^{l-j}
    Odd  k=2l+1: -sum_{j<=l} C(-(2j+1)/2, l-j) a_{2j+1} (sqrt3/pi)^{2j+1} sigma^{l-j}
    where a_m is bessel_asym_coeff(m).  Negative pi powers appear here.
    """
    _check(k, s)
    return _from_shape(_bessel_shape(k), s)


@lru_cache(maxsize=None)
def expansion_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of the full expansion of
    4 * 3^{1/4} n^{3/4} e^{-pi sqrt(n/3)} q(n+s) in x = n^{-1/2}."""
    _check(k, s)
    return sum_of_products([(exp_binom_coeff(l, s), bessel_factor_coeff(k - l, s)) for l in range(k + 1)])


COEFF_FAMILIES = {
    "exp": exp_factor_coeff,
    "binom": binom_factor_coeff,
    "expbinom": exp_binom_coeff,
    "bessel": bessel_factor_coeff,
    "full": expansion_coeff,
}
