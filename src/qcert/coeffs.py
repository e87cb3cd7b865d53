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

All functions are memoized per (k, s) and return exact values; nothing
here touches floating point.
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


@lru_cache(maxsize=None)
def exp_factor_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of exp(pi sqrt(n/3)(sqrt(1+sigma/n)-1)) in
    x = n^{-1/2}.  Even degrees carry pi^{2l}; odd degrees one extra
    pi/sqrt3."""
    if k < 0:
        raise ValueError("k must be >= 0")
    sigma = shift_sigma(s)
    sigma72 = Fraction(24 * s + 1, 72)  # (pi sqrt(sigma/3))^2 = pi^2 * this
    if k == 0:
        return RingElem.from_rational(1)
    if k % 2 == 0:
        half = k // 2
        pref = sigma**half * rising_factorial(Fraction(1, 2) - half, half + 1) / half
        terms = {}
        for l in range(1, half + 1):
            c = (
                pref
                * rising_factorial(Fraction(-half), l)
                / factorial(half + l)
                * sigma72**l
                / factorial(2 * l - 1)
            )
            if c:
                terms[(2 * l, 0)] = terms.get((2 * l, 0), Fraction(0)) + c
        return RingElem(terms)
    half = (k - 1) // 2
    pref = sigma ** (half + 1) * rising_factorial(Fraction(1, 2) - half, half + 1)
    terms = {}
    for l in range(0, half + 1):
        c = (
            pref
            * rising_factorial(Fraction(-half), l)
            / factorial(l + half + 1)
            * sigma72**l
            / factorial(2 * l)
        )
        # the odd-degree prefactor pi/sqrt3 = (1/3) pi sqrt3
        if c:
            key = (1 + 2 * l, 1)
            terms[key] = terms.get(key, Fraction(0)) + c / 3
    return RingElem(terms)


@lru_cache(maxsize=None)
def binom_factor_coeff(k: int, s: int) -> Fraction:
    """Degree-k coefficient of (1+sigma/n)^{-3/4}: sigma^{k/2} C(-3/4, k/2)
    for even k, zero for odd k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k % 2:
        return Fraction(0)
    return shift_sigma(s) ** (k // 2) * gen_binomial(Fraction(-3, 4), k // 2)


@lru_cache(maxsize=None)
def exp_binom_coeff(k: int, s: int) -> RingElem:
    """Convolution of the exponential and binomial factor coefficients."""
    return sum_of_products((exp_factor_coeff(l, s), RingElem.from_rational(c))
                           for l in range(k + 1) if (c := binom_factor_coeff(k - l, s)))


@lru_cache(maxsize=None)
def bessel_factor_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of the Bessel polynomial factor.

    Even k=2l:  sum_{j<=l} C(-j, l-j)   a_{2j}   (sqrt3/pi)^{2j}   sigma^{l-j}
    Odd  k=2l+1: -sum_{j<=l} C(-(2j+1)/2, l-j) a_{2j+1} (sqrt3/pi)^{2j+1} sigma^{l-j}
    where a_m is bessel_asym_coeff(m).  Negative pi powers appear here.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    sigma = shift_sigma(s)
    terms: dict[tuple[int, int], Fraction] = {}
    if k % 2 == 0:
        l = k // 2
        for j in range(l + 1):
            c = gen_binomial(Fraction(-j), l - j) * bessel_asym_coeff(2 * j) * sigma ** (l - j)
            if c:
                # (sqrt3/pi)^(2j) = 3^j pi^(-2j)
                key = (-2 * j, 0)
                terms[key] = terms.get(key, Fraction(0)) + c * 3**j
    else:
        l = (k - 1) // 2
        for j in range(l + 1):
            c = (
                gen_binomial(Fraction(-(2 * j + 1), 2), l - j)
                * bessel_asym_coeff(2 * j + 1)
                * sigma ** (l - j)
            )
            if c:
                # -(sqrt3/pi)^(2j+1) = -3^j sqrt3 pi^(-(2j+1))
                key = (-(2 * j + 1), 1)
                terms[key] = terms.get(key, Fraction(0)) - c * 3**j
    return RingElem(terms)


@lru_cache(maxsize=None)
def expansion_coeff(k: int, s: int) -> RingElem:
    """Degree-k coefficient of the full expansion of
    4 * 3^{1/4} n^{3/4} e^{-pi sqrt(n/3)} q(n+s) in x = n^{-1/2}."""
    return sum_of_products((exp_binom_coeff(l, s), bessel_factor_coeff(k - l, s))
                           for l in range(k + 1))


COEFF_FAMILIES = {
    "exp": exp_factor_coeff,
    "binom": binom_factor_coeff,
    "expbinom": exp_binom_coeff,
    "bessel": bessel_factor_coeff,
    "full": expansion_coeff,
}
