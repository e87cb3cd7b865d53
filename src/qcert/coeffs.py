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

The shift enters rigidly.  Put t = 24s+1, u = x sqrt(t), p = pi sqrt(t).
Then sigma/n = u^2/24 and pi sqrt(n/3) = p/(sqrt3 u): the exponential factor
is exp(p/(sqrt3 u) (sqrt(1+u^2/24) - 1)), the binomial factor
(1+u^2/24)^{-3/4}, and the Bessel factor a series in 1/(pi sqrt((n+sigma)/3))
= sqrt3 u/(p sqrt(1+u^2/24)), each with s-free coefficients in u and p.  A
term c p^i sqrt3^j u^k is c pi^i sqrt3^j x^k t^((k+i)/2), and products add
k and i, so every family at shift s is its s = 0 value with the term on key
4i+j times the integer t^((k+i)/2) (``_at_shift`` checks k+i even, i >= -k).
Only s = 0 is built, each factor's term from the previous one by its ratio.
All five families are memoized per (k, s), reject k < 0 or s < 0 and return
exact values; the two sums read each element's cleared integer form, and
nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

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
    p, q = Fraction(x).as_integer_ratio()
    num = 1
    for i in range(m):
        num *= p + i * q
    return Fraction(num, q**m)


def gen_binomial(x: Fraction | int, m: int) -> Fraction:
    """Generalized binomial coefficient C(x, m) = x(x-1)...(x-m+1)/m!."""
    if m < 0:
        raise ValueError("gen_binomial needs m >= 0")
    return rising_factorial(Fraction(x) - m + 1, m) / factorial(m)


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
    if k < 0 or s < 0:
        raise ValueError(f"need k >= 0 and a nonnegative shift, got k={k}, s={s}")


def _at_shift(e: RingElem, k: int, s: int) -> RingElem:
    """The degree-k element e of shift 0 at shift s: the term on key 4i+j
    times t^((k+i)/2), t = 24s+1 (see the module docstring), normalised
    once.  Raises ArithmeticError on a term with k+i odd or i < -k."""
    t = 24 * s + 1
    ints = {}
    for key, v in e.ints.items():
        i = key >> 2
        if (k + i) % 2 or i < -k:
            raise ArithmeticError(f"pi^{i} in a degree-{k} coefficient is not homogeneous in 24s+1")
        ints[key] = v * t ** ((k + i) // 2)
    return RingElem.from_cleared(e.den, ints)


@lru_cache(maxsize=None)
def exp_factor_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of exp(pi sqrt(n/3)(sqrt(1+sigma/n)-1)) in
    x = n^{-1/2}.  Even degrees carry pi^{2l}; odd degrees one extra
    pi/sqrt3 = (1/3) pi sqrt3."""
    _check(k, s)
    if s:
        return _at_shift(exp_factor_coeff(k, 0), k, s)
    half, odd = divmod(k, 2)
    # at shift 0, term l on pi^(2l+odd) sqrt3^odd is (1/2-half)_{half+1} (-half)_l
    # / (24^half 72^(l+odd) (half+l+odd)! (2l-1+odd)!), also over half if k is even
    c = (2 * odd - 1) * rising_factorial(Fraction(1, 2) - half, half + 1) / (72 * 24**half * factorial(half + 1))
    terms = {} if k else {(0, 0): 1}
    for l in range(1 - odd, half + 1):
        terms[(2 * l + odd, odd)] = c
        c *= Fraction(l - half, 72 * (half + l + 1 + odd) * (2 * l + odd) * (2 * l + 1 + odd))
    return RingElem(terms)


@lru_cache(maxsize=None)
def binom_factor_coeff(k: int, s: int) -> Fraction:
    """Degree-k coefficient of (1+sigma/n)^{-3/4}: sigma^{k/2} C(-3/4, k/2)
    for even k, zero for odd k."""
    _check(k, s)
    if k % 2:
        return Fraction(0)
    return shift_sigma(s) ** (k // 2) * gen_binomial(Fraction(-3, 4), k // 2)


@lru_cache(maxsize=None)
def exp_binom_coeff(k: int, s: int) -> RingElem:
    """Convolution of the exponential and binomial factor coefficients:
    each exponential coefficient times its rational binomial weight,
    summed by ``sum_of_products``."""
    _check(k, s)
    if s:
        return _at_shift(exp_binom_coeff(k, 0), k, s)
    return sum_of_products([(exp_factor_coeff(l, 0), RingElem.from_rational(c))
                            for l in range(k + 1) if (c := binom_factor_coeff(k - l, 0))])


@lru_cache(maxsize=None)
def bessel_factor_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of the Bessel polynomial factor.

    Even k=2l:  sum_{j<=l} C(-j, l-j)   a_{2j}   (sqrt3/pi)^{2j}   sigma^{l-j}
    Odd  k=2l+1: -sum_{j<=l} C(-(2j+1)/2, l-j) a_{2j+1} (sqrt3/pi)^{2j+1} sigma^{l-j}
    where a_m is bessel_asym_coeff(m).  Negative pi powers appear here.
    """
    _check(k, s)
    if s:
        return _at_shift(bessel_factor_coeff(k, 0), k, s)
    if k == 0:
        return RingElem.from_rational(1)
    half, odd = divmod(k, 2)
    # term j on pi^-(2j+odd) sqrt3^odd is d a_{2j+odd}, d = -+C(-(2j+odd)/2, l-j) 3^j 24^(j-l);
    # C(x-1, m-1) = C(x, m) m/x gives the next d, and the even j = 0 term is 0 for l > 0
    first = 1 - odd
    d = (-1) ** odd * gen_binomial(Fraction(odd - 2, 2), half - first) * 3**first / 24 ** (half - first)
    terms = {}
    for j in range(first, half + 1):
        terms[(-(2 * j + odd), odd)] = d * bessel_asym_coeff(2 * j + odd)
        d *= Fraction(-144 * (half - j), 2 * j + odd)
    return RingElem(terms)


@lru_cache(maxsize=None)
def expansion_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of the full expansion of
    4 * 3^{1/4} n^{3/4} e^{-pi sqrt(n/3)} q(n+s) in x = n^{-1/2}."""
    _check(k, s)
    if s:
        return _at_shift(expansion_coeff(k, 0), k, s)
    return sum_of_products([(exp_binom_coeff(l, 0), bessel_factor_coeff(k - l, 0)) for l in range(k + 1)])


COEFF_FAMILIES = {
    "exp": exp_factor_coeff,
    "binom": binom_factor_coeff,
    "expbinom": exp_binom_coeff,
    "bessel": bessel_factor_coeff,
    "full": expansion_coeff,
}
