"""Certified error budgets and two-sided envelopes for q(n+s).

For each truncation order N >= 1 and shift s >= 0 there is an explicit
floor n_min(N, s) and a constant er_total such that for all n >= n_min

    prefactor(n) * L(x) <= q(n+s) <= prefactor(n) * U(x),
    x = n^{-1/2},  prefactor(n) = e^{pi sqrt(n/3)} / (4*3^{1/4} n^{3/4}),

where L/U are the degree-N expansion polynomial minus/plus er_total *
x^{N+1}.  This module computes every ingredient as a certified upper
enclosure: the Bessel-series tail constant, the exponential/binomial
factor tails, their combinations, and the final budget, plus the floor
itself.

Every bound is *one-sided by design*: budgets are used only as error
radii, so we keep certified upper endpoints (a bigger radius is sound,
a smaller one is not).  The floor takes the upper endpoint of its
enclosure before the ceiling, which can only make it more conservative;
the acceptance bounds (5019 for N=14, 18502 for N=24) cap the allowed
slack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .coeffs import bessel_asym_coeff, expansion_coeff, shift_sigma
from .enclosures import enclose_cosh, enclose_exp, enclose_log, enclose_pi
from .intervals import DEFAULT_PRECISION, Dyadic, Interval, horner
from .ring import RingElem

__all__ = [
    "decay_threshold",
    "n_min",
    "window_max",
    "ErrorBudget",
    "error_budget",
    "prefactor",
    "BoundPoly",
    "bound_poly",
    "bound_value",
    "x_of",
]


def _half_power(base: Fraction, twice_exp: int, prec: int) -> Interval:
    """base**(twice_exp/2) for base >= 0, exact integer part, sqrt rest."""
    out = Interval.from_fraction(base ** (twice_exp // 2), prec)
    if twice_exp % 2:
        out = out.mul(Interval.from_fraction(base, prec).sqrt(prec), prec)
    return out


@lru_cache(maxsize=None)
def decay_threshold(m: int, prec: int = DEFAULT_PRECISION) -> Interval:
    """Threshold x0(m) with exp(-2x/3) < x^-m for x >= x0(m):
    1 for m = 1, else 4m log m - 3m log log m.  Cached: every shift's
    floor asks for the same one."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return Interval.point(1)
    log_m = enclose_log(Interval.point(m), prec)
    log_log_m = enclose_log(log_m, prec)
    return (
        log_m.mul(Interval.point(4 * m), prec)
        .sub(log_log_m.mul(Interval.point(3 * m), prec), prec)
    )


@lru_cache(maxsize=None)
def n_min(N: int, s: int, prec: int = DEFAULT_PRECISION) -> int:
    """Validity floor for the order-N, shift-s expansion: the largest of
    206, the ceiling of the upper enclosure of ((72/pi^2) T^2 - 1)/24
    with T = decay_threshold(N+2), and ceil(2(24s+1)/3).

    Taking the upper endpoint before the ceiling can only raise the
    floor, which keeps every downstream claim (stated for n >= floor)
    sound."""
    if N < 1 or s < 0:
        raise ValueError("need N >= 1 and s >= 0")
    t = decay_threshold(N + 2, prec)
    pi_sq = enclose_pi(prec).pow_int(2, prec)
    branch = (
        t.pow_int(2, prec)
        .mul(Interval.point(72), prec)
        .div(pi_sq, prec)
        .sub(Interval.point(1), prec)
        .div(Interval.point(24), prec)
    )
    hi = branch.hi.to_fraction()
    decay_branch = math.ceil(hi)
    shift_branch = math.ceil(Fraction(2 * (24 * s + 1), 3))
    return max(206, decay_branch, shift_branch)


def window_max(N: int, shifts: tuple[int, ...], prec: int = DEFAULT_PRECISION) -> int:
    """Largest validity floor over a set of shifts."""
    return max(n_min(N, s, prec) for s in shifts)


def _read_only(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name}")


class ErrorBudget:
    """Certified upper bounds for every truncation constant at (N, s).

    Fields are dyadic upper endpoints; er_total is the radius of the
    degree-(N+1) error term of L/U.
    """

    def __init__(self, N: int, s: int, er_i1_asym: Dyadic, er_exp: Dyadic, er_binom: Dyadic,
                 er_exp_binom: Dyadic, er_bessel_shift: Dyadic, er_bessel: Dyadic, growth_const: Dyadic,
                 er_total: Dyadic):
        vars(self).update(
            N=N,
            s=s,
            er_i1_asym=er_i1_asym,            # I1 large-argument series remainder constant
            er_exp=er_exp,                    # exponential-factor tail
            er_binom=er_binom,                # binomial-factor tail
            er_exp_binom=er_exp_binom,        # tail of the product of those two factors
            er_bessel_shift=er_bessel_shift,  # tail of the shifted Bessel polynomial factor
            er_bessel=er_bessel,              # Bessel factor combined with series remainder
            growth_const=growth_const,        # the coefficient-growth envelope constant
            er_total=er_total,                # final two-sided radius
        )

    __setattr__ = __delattr__ = _read_only


@lru_cache(maxsize=None)
def _log_int(k: int, prec: int) -> Interval:
    """Enclosure of log k, shared by the budgets of every shift."""
    return enclose_log(Interval.point(k), prec)


@lru_cache(maxsize=None)
def _cosh_term(s: int, prec: int) -> Interval:
    """Enclosure of cosh(pi sqrt((24s+1)/72)), shared by every order's
    budget at shift s."""
    arg = Interval.from_fraction(Fraction(24 * s + 1, 72), prec).sqrt(prec)
    return enclose_cosh(enclose_pi(prec).mul(arg, prec), prec)


@lru_cache(maxsize=None)
def _budget_parts(N: int, s: int, prec: int) -> dict[str, Interval]:
    """Interval values of every budget constant (upper endpoints are the
    published budget; full intervals kept for composition).  Each tail
    constant C claims |f(x) - sum_{k<=N} c_k x^k| <= C x^{N+1} for n >=
    n_min(N, s), x = n^{-1/2}, so C >= |c_{N+1}|: er_exp, er_binom,
    er_exp_binom, er_bessel and er_total for the exp, binom, expbinom,
    bessel and full families of ``coeffs`` (f is q(n+s)/prefactor(n) for
    full, sqrt(2 pi nu) e^{-nu} I1(nu), nu = pi sqrt((n+sigma)/3), for
    bessel).  er_i1_asym, er_bessel_shift and growth_const enter these."""
    if N < 1 or s < 0:
        raise ValueError("need N >= 1 and s >= 0")

    # every operation rounds at prec; add and mul group left to right
    def add(*terms: Interval) -> Interval:
        return reduce(lambda a, b: a.add(b, prec), terms)

    def mul(*factors: Interval) -> Interval:
        return reduce(lambda a, b: a.mul(b, prec), factors)

    def div(a: Interval, b: Interval) -> Interval:
        return a.div(b, prec)

    def iv(value: Fraction | int) -> Interval:
        return Interval.from_fraction(value, prec)

    pi = enclose_pi(prec)
    sqrt3 = iv(3).sqrt(prec)
    sigma = shift_sigma(s)
    sigma_iv = iv(sigma)
    root_sigma = sigma_iv.sqrt(prec)
    two4s1 = 24 * s + 1
    root_pi_s = mul(pi, iv(two4s1)).sqrt(prec)  # sqrt(pi (24s+1))
    cosh_term = _cosh_term(s, prec)
    pi_over_2sqrt3 = div(pi, sqrt3.scale(1))
    a_n = iv(abs(bessel_asym_coeff(N)))
    a_n1 = iv(abs(bessel_asym_coeff(N + 1)))
    log_n1 = _log_int(N + 1, prec)
    one, four_thirds = iv(1), iv(Fraction(4, 3))
    n_3_2 = _half_power(Fraction(N), 3, prec)  # N^(3/2)
    sigma_n1 = _half_power(sigma, N + 1, prec)  # sigma^((N+1)/2)
    sigma_n2 = _half_power(sigma, N + 2, prec)  # sigma^((N+2)/2)

    # I1 asymptotic remainder constant
    er_i1 = mul(
        div(_half_power(Fraction(3), N + 1, prec), pi.pow_int(N + 1, prec)),
        add(
            div(add(one, div(iv(9), log_n1), iv(Fraction(9, N + 2))), mul(iv(2), pi).sqrt(prec)),
            div(add(iv(2).sqrt(prec), div(one, iv(Fraction(2 * N + 5, 2)).sqrt(prec))), log_n1),
        ),
        a_n1,
    )

    # exponential-factor tail
    er_exp = mul(
        div(mul(four_thirds, div(mul(iv(2), pi), iv(3)).sqrt(prec)), n_3_2), sigma_n2, cosh_term
    )

    # binomial-factor tail
    er_binom = mul(four_thirds, sigma_n1)

    # product tail
    er_exp_binom = add(
        mul(add(mul(n_3_2, four_thirds), one), er_exp),
        mul(pi_over_2sqrt3, sigma_n2),
        mul(er_binom, add(one, mul(pi_over_2sqrt3, sigma_iv), mul(div(root_pi_s, iv(72)), cosh_term))),
    )

    # shifted Bessel polynomial tail
    a_n4 = a_n.scale(2)
    er_bessel_shift = add(
        mul(div(a_n4, iv(3)), add(sigma_iv, div(iv(3), pi.pow_int(2, prec))).pow_int(N // 2 + 1, prec)),
        mul(
            div(a_n4, mul(sqrt3, pi)),
            add(root_sigma, div(sqrt3, pi)).pow_int(2 * ((N - 1) // 2) + 2, prec),
        ),
    )

    # combined Bessel tail
    er_bessel = add(
        mul(div(sqrt3, pi).pow_int(N + 1, prec), a_n).scale(3),
        mul(
            add(one, div(iv(3), mul(pi, iv(2 * two4s1).sqrt(prec))).pow_int(N + 1, prec).scale(2)),
            add(er_bessel_shift, er_i1),
        ),
    )

    # growth envelope constant
    growth = add(one, mul(pi_over_2sqrt3, root_sigma), mul(div(root_pi_s, iv(12)), cosh_term))

    floor = n_min(N, s, prec)
    er_total = add(
        mul(
            a_n,
            add(
                mul(div(mul(pi, iv(1 << (N - 1))), sqrt3), root_sigma),
                mul(growth, iv(1 + Fraction(1 << (N + 1), 3))),
            ),
            sigma_n1,
        ),
        mul(add(one, mul(pi_over_2sqrt3, sigma_iv), div(growth, iv(12))), er_bessel),
        mul(a_n.scale(1), er_exp_binom),
        div(mul(er_exp_binom, er_bessel), _half_power(Fraction(floor), N + 1, prec)),
    )

    return {
        "er_i1_asym": er_i1,
        "er_exp": er_exp,
        "er_binom": er_binom,
        "er_exp_binom": er_exp_binom,
        "er_bessel_shift": er_bessel_shift,
        "er_bessel": er_bessel,
        "growth_const": growth,
        "er_total": er_total,
    }


def error_budget(N: int, s: int, prec: int = DEFAULT_PRECISION) -> ErrorBudget:
    parts = _budget_parts(N, s, prec)
    return ErrorBudget(N=N, s=s, **{k: v.hi for k, v in parts.items()})


# -- L/U envelopes -----------------------------------------------------------


def _root4(m: int, prec: int) -> Interval:
    """[r, r + 1] 2^-k around m^{1/4}, m >= 1: r = isqrt(isqrt(m 2^{4k})) is
    the floor of (m 2^{4k})^{1/4}, k chosen for about prec + 2 bits."""
    k = max(0, prec + 2 - m.bit_length() // 4)
    r = math.isqrt(math.isqrt(m << 4 * k))
    return Interval(Dyadic(r, -k), Dyadic(r + 1, -k))


@lru_cache(maxsize=8192)
def prefactor(n: int, prec: int = DEFAULT_PRECISION) -> Interval:
    """e^{pi sqrt(n/3)} / (4 * 3^{1/4} * n^{3/4}) = e^{pi sqrt(3n)/3} / (4 (3n^3)^{1/4})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # the exponent's absolute width is the result's relative width: bitlen(3n)/2 + 2 guard bits
    # keep it near 2^-prec as the exponent grows like sqrt(n)
    wp = prec + (3 * n).bit_length() // 2 + 2
    exponent = enclose_pi(wp).mul(Interval.point(3 * n).sqrt(wp), wp).div(Interval.point(3), wp)
    return enclose_exp(exponent, prec).div(_root4(3 * n**3, prec).scale(2), prec)


class BoundPoly:
    """One side of the envelope: sum of exact ring coefficients for
    degrees 0..N plus a signed error radius at degree N+1, valid for
    0 < x <= x_max (i.e. n >= floor).  coeff_pairs encloses each
    coefficient by ``RingElem.fixed``: integers at scale 2^-(prec + 16)."""

    def __init__(self, s: int, N: int, side: int, coeffs: tuple[RingElem, ...],
                 coeff_pairs: tuple[tuple[int, int], ...], err: Dyadic, x_max: Dyadic, floor: int, prec: int):
        vars(self).update(
            s=s,
            N=N,
            side=side,  # +1 for the upper envelope U, -1 for the lower envelope L
            coeffs=coeffs,
            coeff_pairs=coeff_pairs,
            err=err,  # certified upper bound of the radius (always positive)
            x_max=x_max,
            floor=floor,
            prec=prec,
        )

    __setattr__ = __delattr__ = _read_only

    @cached_property
    def _fixed(self) -> tuple[tuple[int, int], ...]:
        signed = Interval.point(self.err if self.side > 0 else -self.err)
        return self.coeff_pairs + (signed.fixed(self.prec),)

    def eval_iv(self, x: Interval) -> Interval:
        """Interval enclosure of this exact polynomial at x >= 0 (Horner).

        The degree-(N+1) coefficient is the point +-err: this evaluates
        the specific envelope polynomial, which is what the sandwich
        guarantee is stated for.  (The positivity certifier instead
        treats the error coefficient as a box containing the exact
        radius; that happens there, not here.)
        """
        return horner(self._fixed, x, self.prec)


@lru_cache(maxsize=None)
def _coeff_pair(k: int, s: int, prec: int) -> tuple[int, int]:
    """expansion_coeff(k, s).fixed(prec), read by both sides and every order."""
    return expansion_coeff(k, s).fixed(prec)


@lru_cache(maxsize=None)
def bound_poly(s: int, N: int, side: int, prec: int = DEFAULT_PRECISION) -> BoundPoly:
    """The side (+1 upper, -1 lower) envelope of order N at shift s."""
    if side not in (1, -1):
        raise ValueError("side must be +1 (upper) or -1 (lower)")
    coeffs = tuple(expansion_coeff(m, s) for m in range(N + 1))
    budget = error_budget(N, s, prec)
    floor = n_min(N, s, prec)
    x_max = x_of(floor, prec).hi
    return BoundPoly(
        s=s,
        N=N,
        side=side,
        coeffs=coeffs,
        coeff_pairs=tuple(_coeff_pair(m, s, prec) for m in range(N + 1)),
        err=budget.er_total,
        x_max=x_max,
        floor=floor,
        prec=prec,
    )


@lru_cache(maxsize=8192)
def x_of(n: int, prec: int = DEFAULT_PRECISION) -> Interval:
    """Enclosure of n**(-1/2); its upper end bounds m**(-1/2) for every m >= n."""
    return Interval.point(1).div(Interval.point(n).sqrt(prec), prec)


def bound_value(n: int, s: int, N: int, side: int, prec: int = DEFAULT_PRECISION) -> Interval:
    """Certified enclosure of prefactor(n) * (L or U)(n^{-1/2}).

    The sandwich statement is: upper envelope's *lower* endpoint above
    q(n+s), lower envelope's *upper* endpoint below it.
    """
    poly = bound_poly(s, N, side, prec)
    if n < poly.floor:
        raise ValueError(f"n={n} below the validity floor {poly.floor} for (N={N}, s={s})")
    return prefactor(n, prec).mul(poly.eval_iv(x_of(n, prec)), prec)
