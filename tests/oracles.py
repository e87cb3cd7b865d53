"""Independent oracles that the tests compare the production code with.

Nothing in ``qcert`` calls these; they live here so that the trust path
(``src/qcert``) holds only what a verification run executes.

* ``compute_q_table`` -- the reference 0/1-knapsack DP: for k = 1..n_max
  update values[n] += values[n-k] with n descending, so each part is
  used at most once.
* ``compute_q_table_odd_parts`` -- Euler's identity: partitions into odd
  parts, a complete-knapsack DP.
* ``q_enumerate`` -- explicit recursion over strictly decreasing parts,
  no memoization, so exponential and capped at n <= ENUMERATION_LIMIT.
* ``check_log_concavity`` / ``check_turan3`` -- exact scans of the
  classical Turan-type inequalities for q(n).
* ``alt_half_binomial_sum`` / ``alt_half_binomial_sum_closed`` -- the
  alternating half-integer binomial sum identity behind the exponential
  factor's coefficients, by brute force and in closed form.
* ``exp_factor_closed`` / ``binom_factor_closed`` /
  ``bessel_factor_closed`` -- the coefficient families as closed forms
  rebuilt for every (k, s), which ``qcert.coeffs`` (built at s = 0 and
  rescaled to every other shift) must match term for term and in key
  order.
* ``enclose_sinh`` -- certified sinh, for the exponential-factor bound.
* ``bessel_arg`` / ``bessel_main_term`` / ``check_main_term_sandwich`` /
  ``SandwichResult`` with ``enclose_bessel_i1`` and its point kernel
  ``_bessel_i1_point`` -- the main-term (Bessel) sandwich of criterion C7
  and the certified I1 it needs; nothing in ``qcert`` uses them.
* ``exp_bracket`` -- an exact ``Fraction`` bracket of exp(x): a Taylor
  partial sum and a Lagrange remainder, for the kernels' near-grid checks
  and the check that log's ends are log d rounded down and up.
* ``exp_point_loop`` / ``atanh_series_loop`` / ``log_point_loop`` /
  ``bessel_i1_point_loop`` -- the exp, log and I1 point kernels as
  Taylor loops over ``Interval`` objects, rounding at every step, whose
  enclosures the integer kernels of ``qcert.enclosures`` must equal or
  lie inside.
* ``invariant_a`` / ``invariant_b`` / ``invariant_i`` / ``laguerre`` --
  the quartic invariants and the order-m Laguerre expression, written
  out directly rather than through the statement trees of ``THEOREMS``.
* ``convolve_termwise`` / ``mul_termwise`` -- the convolution of
  ``HybridPoly.mul`` as a loop of ``Interval.mul`` then ``Interval.add``,
  one term at a time: at a width where nothing rounds it is the exact
  product that ``HybridPoly.mul`` rounds outward once, and at the working
  precision it rounds at every term, so its enclosure on the grid
  2^-(prec + 16) may not be narrower than the product's.
* ``interval_horner`` -- Horner's rule as a loop of ``Interval.mul`` then
  ``Interval.add``, the reference for the fixed-point ``horner``.
* ``ring_eval_iv_loop`` -- a ring element's enclosure as a loop of
  Interval operations at prec bits, which ``RingElem.fixed`` may not be
  wider than on its grid.
* ``theorem_predicate`` -- the exact truth of a statement at one n.
* ``node_values`` / ``node_exact`` -- a statement node's exact lists
  (A, B) at m indices by recursion over the tree, the reference for the
  scans' compiled program, and its value at one index.
* ``positive_untruncated`` -- the companion sign A + B t > 0 from the exact
  squares against a c^2 bracket from ``pi_bracket``, with no bracket of A
  and B: the reference for the scans' ``_positive``.
* ``tight_expansion`` -- the disproof expansion: the statement expanded
  with every error radius entered as its thin two-sided enclosure, not
  as the box, so a certified negative value refutes the inequality.
* ``ring_parts`` -- every exact ring part of a ``HybridPoly``, computed
  now, for the pins.
* ``ring_sum`` -- the sum of w e over (w, e) pairs of ring elements with
  rational weights, on their ``terms`` in Fractions: the reference for
  ``sum_of_products`` and every sum the ring accumulates, which never
  leaves its cleared integers.
* ``pair_interval`` / ``production_pairs`` -- a fixed-point pair at
  2^-(prec + 16) as an Interval, and a ``HybridPoly``'s pairs as exact
  Fractions.
* ``pi_bracket`` / ``ring_bracket`` -- a bracket of pi from mpmath, not
  from ``enclose_pi``, and from it a Fraction bracket of a ring element.
* ``replay`` / ``Replayed`` -- the rational replay: an expansion, its
  disproof twin or a side lemma rebuilt in exact Fraction intervals from
  the leaf enclosures and radii, checked at every node to lie inside
  production's pairs.
* ``contains_interval`` / ``contains`` / ``width`` / ``mag`` /
  ``budget_fields`` -- interval and budget queries that only the tests ask,
  on exact ``Fraction`` ends where they compute.
* ``replace`` -- a copy of a qcert record with some fields changed, its
  fields being its constructor's parameters.
"""

from __future__ import annotations

import inspect
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt
from operator import add, mul

from qcert.bounds import ErrorBudget, _budget_parts, bound_poly, decay_threshold
from qcert.certify import INEQUALITIES, THEOREMS, Companion, HybridPoly, IneqPoly, Mul, Q, _Expansion, exact_verify
from qcert.coeffs import bessel_asym_coeff, gen_binomial, rising_factorial, shift_sigma
from qcert.enclosures import _exp_point, enclose_pi
from qcert.intervals import DEFAULT_PRECISION, GUARD, DomainError, Dyadic, Interval, check_precision
from qcert.qtable import QTable
from qcert.ring import RingElem


# -- q-table constructions and scans ---------------------------------------


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


ENUMERATION_LIMIT = 60


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


# -- the half-integer binomial sum identity --------------------------------


def alt_half_binomial_sum(r: int, m: int) -> Fraction:
    """Brute-force sum_{s=0}^{r} (-1)^s C(r, s) C(s/2, m)."""
    if r < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    total = Fraction(0)
    for s in range(r + 1):
        term = comb(r, s) * gen_binomial(Fraction(s, 2), m)
        total += term if s % 2 == 0 else -term
    return total


def alt_half_binomial_sum_closed(r: int, m: int) -> Fraction:
    """Closed form of the alternating sum, valid for r < 2m (and r=m=0):
    (-1)^m r 2^r / (m 2^{2m}) C(2m-r-1, m-r)."""
    if r < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if r == 0 and m == 0:
        return Fraction(1)
    if r >= 2 * m:
        raise ValueError(f"closed form requires r < 2m, got r={r}, m={m}")
    if m < r:  # C(2m-r-1, m-r) vanishes for negative lower index
        return Fraction(0)
    value = Fraction(r * (1 << r), m * (1 << (2 * m))) * comb(2 * m - r - 1, m - r)
    return -value if m % 2 else value


# -- coefficient families as closed forms per (k, s) ------------------------


def exp_factor_closed(k: int, s: int) -> RingElem:
    """Degree-k coefficient of exp(pi sqrt(n/3)(sqrt(1+sigma/n)-1))."""
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


def binom_factor_closed(k: int, s: int) -> Fraction:
    """Degree-k coefficient of (1+sigma/n)^{-3/4}."""
    if k % 2:
        return Fraction(0)
    return shift_sigma(s) ** (k // 2) * gen_binomial(Fraction(-3, 4), k // 2)


def bessel_factor_closed(k: int, s: int) -> RingElem:
    """Degree-k coefficient of the Bessel polynomial factor."""
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


# -- certified sinh --------------------------------------------------------


def enclose_sinh(x: Interval, prec: int) -> Interval:
    def sinh_point(d: Dyadic) -> Interval:
        e = _exp_point(d, prec + 8)
        return e.sub(Interval.point(1).div(e, prec + 8), prec + 8).scale(-1)

    return Interval(sinh_point(x.lo).lo.round(prec, up=False), sinh_point(x.hi).hi.round(prec, up=True))


# -- the main-term sandwich (criterion C7) -----------------------------------


def _bessel_i1_point(d: Dyadic, prec: int) -> Interval:
    """Enclosure of I1(d) = sum_k (d/2)^(2k+1) / (k! (k+1)!), d >= 0."""
    if d.is_zero:
        return Interval.point(0)
    wp = prec + 16
    # units of 2^-f in which the first term d/2 = man 2^(exp-1) has wp bits
    man = d.man
    n = wp - man.bit_length()
    f = n + 1 - d.exp
    a, b = (man << n, man << n) if n >= 0 else (man >> -n, -(-man >> -n))
    # (d/2)^2 = sq / 2^sh exactly, sh >= 0
    sq, sh = man * man, 2 - 2 * d.exp
    if sh < 0:
        sq, sh = sq << -sh, 0
    lo, hi = a, b
    k = 0
    while True:
        k += 1
        a = (a * sq >> sh) // (k * (k + 1))
        b = -((-(b * sq) >> sh) // (k * (k + 1)))
        lo += a
        hi += b
        # once the term ratio rho = (d/2)^2 / ((k+1)(k+2)) is below 1/2 the
        # rest is at most b rho / (1 - rho) = b sq / den; stop when that is
        # below 2^-wp of the lower sum
        den = ((k + 1) * (k + 2) << sh) - sq
        if den > sq and (b * sq) << wp < lo * den:
            hi -= -(b * sq) // den
            break
    return Interval(Dyadic(lo, -f).round(prec, up=False), Dyadic(hi, -f).round(prec, up=True))


def enclose_bessel_i1(x: Interval, prec: int) -> Interval:
    """I1 on [lo, hi] with lo >= 0; the series is increasing there."""
    check_precision(prec)
    if x.lo.sign < 0:
        raise DomainError(f"bessel_i1 domain requires lo >= 0, got {x}")
    lo = _bessel_i1_point(x.lo, prec)
    return lo if x.lo == x.hi else Interval(lo.lo, _bessel_i1_point(x.hi, prec).hi)


def bessel_arg(n: int, prec: int = DEFAULT_PRECISION) -> Interval:
    """nu(n) = pi sqrt(24n+1) / (6 sqrt2) = pi sqrt(2(24n+1)) / 12."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (
        enclose_pi(prec)
        .mul(Interval.point(2 * (24 * n + 1)).sqrt(prec), prec)
        .div(Interval.point(12), prec)
    )


def bessel_main_term(n: int, prec: int = DEFAULT_PRECISION) -> Interval:
    """M(n) = sqrt2 pi^2 / (12 nu) * I1(nu)."""
    nu = bessel_arg(n, prec)
    pi = enclose_pi(prec)
    return (
        Interval.point(2)
        .sqrt(prec)
        .mul(pi.pow_int(2, prec), prec)
        .div(nu.mul(Interval.point(12), prec), prec)
        .mul(enclose_bessel_i1(nu, prec), prec)
    )


class SandwichResult(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    OUT_OF_REGIME = "out-of-regime"


MAX_PRECISION = 1536  # ceiling for the sandwich's precision doublings


def check_main_term_sandwich(table, n: int, m: int, prec: int = DEFAULT_PRECISION) -> SandwichResult:
    """Certified check of M(n)(1 - 4/nu^m) <= q(n) <= M(n)(1 + 4/nu^m),
    valid only when nu(n) >= max(26, decay_threshold(m+1)).

    The regime precondition is itself checked with certified enclosures;
    if it cannot be decided the precision doubles, up to MAX_PRECISION,
    and a certified failure of the precondition reports OUT_OF_REGIME
    (distinct from a sandwich failure).
    """
    q_n = table[n]
    p = prec
    while True:
        nu = bessel_arg(n, p)
        thr = decay_threshold(m + 1, p)
        (nu_lo, nu_hi), (thr_lo, thr_hi) = nu.to_fractions(), thr.to_fractions()
        in_regime = nu_lo >= 26 and nu_lo >= thr_hi
        out_regime = nu_hi < 26 or nu_hi < thr_lo
        if not in_regime and not out_regime and p < MAX_PRECISION:
            p *= 2
            continue
        if not in_regime:
            return SandwichResult.OUT_OF_REGIME
        main = bessel_main_term(n, p)
        radius = Interval.point(4).div(nu.pow_int(m, p), p)
        lower = main.mul(Interval.point(1).sub(radius, p), p)
        upper = main.mul(Interval.point(1).add(radius, p), p)
        # conservative side: certified bracket must clear exact q(n)
        if lower.hi.to_fraction() <= q_n <= upper.lo.to_fraction():
            return SandwichResult.HOLDS
        if p < MAX_PRECISION:
            p *= 2
            continue
        return SandwichResult.FAILS


# -- the special-function kernels as loops over Intervals ------------------


def _round_rel(f: Fraction, bits: int, up: bool) -> Fraction:
    """f > 0 rounded down (or up) to a bits-bit mantissa."""
    e = f.numerator.bit_length() - f.denominator.bit_length() - bits
    q, r = divmod(f.numerator << max(0, -e), f.denominator << max(0, e))
    return Fraction(q + (up and r > 0)) * Fraction(2) ** e


def exp_bracket(x: Fraction, bits: int = 256) -> tuple[Fraction, Fraction]:
    """Fractions lo <= exp(x) <= hi, about 2^-bits apart relatively: x is
    halved s times to |r| <= 1/2, e^|r| lies between a Taylor partial sum
    and that sum plus twice its first omitted term (the remainder is at
    most that term times e^|r| < 2), the terms floored for the lower sum
    and ceiled for the upper one at 2^-w, inverted for x < 0, then squared
    s times, each square rounded outward to w = bits + s + 16 bits."""
    s = (abs(x.numerator) // x.denominator).bit_length() + 1
    r, w = abs(x) / 2**s, bits + s + 16
    p, q = r.numerator, r.denominator
    lo = hi = 0
    a = b = 1 << w  # a <= 2^w r^j / j! <= b
    j = 0
    while b > 1:
        lo, hi = lo + a, hi + b
        j += 1
        a, b = a * p // (q * j), -(-b * p // (q * j))
    lo, hi = Fraction(lo, 1 << w), Fraction(hi + 2 * b, 1 << w)
    if x < 0:
        lo, hi = 1 / hi, 1 / lo
    for _ in range(s):
        lo, hi = _round_rel(lo * lo, w, False), _round_rel(hi * hi, w, True)
    return lo, hi


def exp_point_loop(d: Dyadic, prec: int) -> Interval:
    """Enclosure of exp(d) for an exact dyadic d: k halvings, a Taylor
    sum of Interval terms at wp = prec + k + 12 bits, k squarings."""
    if d.is_zero:
        return Interval.point(1)
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


def atanh_series_loop(u: Interval, prec: int) -> Interval:
    """Enclosure of 2*atanh(u) for 0 <= u <= 1/3, summed at prec + 12 bits."""
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
            tail_hi = (-bound if bound.sign < 0 else bound).round(prec, up=True).scale(1)
            total = total.add(Interval(Dyadic(0), tail_hi), wp)
            break
        total = total.add(power.div(Interval.point(2 * j + 1), wp), wp)
    total = total.scale(1)  # the leading factor 2
    return Interval(total.lo.round(prec, up=False), total.hi.round(prec, up=True))


@lru_cache(maxsize=None)
def _log2_loop(prec: int) -> Interval:
    return atanh_series_loop(Interval.from_fraction(Fraction(1, 3), prec + 8), prec)


def log_point_loop(d: Dyadic, prec: int) -> Interval:
    """Enclosure of log(d), d > 0: m = d / 2^shift in [1, 2),
    2 atanh((m-1)/(m+1)) + shift * 2 atanh(1/3), in Intervals."""
    wp = prec + 12
    shift = d.exp + d.man.bit_length() - 1
    m = Interval.point(d.scale(-shift))
    u = m.sub(Interval.point(1), wp).div(m.add(Interval.point(1), wp), wp)
    result = atanh_series_loop(u, wp)
    if shift:
        result = result.add(_log2_loop(wp).mul(Interval.point(shift), wp), wp)
    return Interval(result.lo.round(prec, up=False), result.hi.round(prec, up=True))


def bessel_i1_point_loop(d: Dyadic, prec: int) -> Interval:
    """Enclosure of I1(d) = sum_k (d/2)^(2k+1) / (k! (k+1)!), d >= 0, in
    Intervals at prec + 16 bits with a geometric tail."""
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
        if num.to_fraction() < Fraction((k + 1) * (k + 2), 2):
            ratio_hi = num.to_fraction() / ((k + 1) * (k + 2))
            t = term.hi.to_fraction()
            tail = t * ratio_hi / (1 - ratio_hi)
            if tail < total.lo.to_fraction() / (1 << wp) or tail < Fraction(1, 1 << wp):
                total = total.add(
                    Interval(Dyadic(0), Dyadic.from_fraction(tail, wp, up=True)), wp
                )
                break
    return Interval(total.lo.round(prec, up=False), total.hi.round(prec, up=True))


# -- exact functionals -----------------------------------------------------


def invariant_a(a0: int, a1: int, a2: int, a3: int, a4: int) -> int:
    """Quartic binary form invariant A = a0 a4 - 4 a1 a3 + 3 a2^2."""
    return a0 * a4 - 4 * a1 * a3 + 3 * a2 * a2


def invariant_b(a0: int, a1: int, a2: int, a3: int, a4: int) -> int:
    """Quartic invariant B = -a0 a2 a4 + a2^3 + a0 a3^2 + a1^2 a4 - 2 a1 a2 a3."""
    return -a0 * a2 * a4 + a2**3 + a0 * a3**2 + a1**2 * a4 - 2 * a1 * a2 * a3


def invariant_i(a0: int, a1: int, a2: int, a3: int, a4: int) -> int:
    """I = A^3 - 27 B^2."""
    return invariant_a(a0, a1, a2, a3, a4) ** 3 - 27 * invariant_b(a0, a1, a2, a3, a4) ** 2


def laguerre(m: int, table: QTable, n: int) -> Fraction:
    """Order-m Laguerre expression on the q sequence:
    (1/2) sum_{k=0}^{2m} (-1)^{k+m} C(2m, k) q(n+k) q(n+2m-k)."""
    if n < 0 or n + 2 * m > table.n_max:
        raise IndexError(f"laguerre({m}) at n={n} needs table up to {n + 2 * m}")
    total = 0
    for k in range(2 * m + 1):
        term = comb(2 * m, k) * table[n + k] * table[n + 2 * m - k]
        total += term if (k + m) % 2 == 0 else -term
    return Fraction(total, 2)


def theorem_predicate(theorem_id: str, table: QTable, n: int) -> bool:
    """Exact truth of the statement at n (statement coordinates): a length-1 exact_verify at n0 = n - shift."""
    n0 = n - THEOREMS[theorem_id].shift
    return not exact_verify(theorem_id, table, n0, n0)


def node_values(node, q, m: int) -> tuple[list[int], list[int] | None]:
    """Lists A, B of a statement node at m indices, q the table from its first n0,
    by recursion over the tree with no sharing: the reference for the scans'
    compiled program.  B None stands for all zeros."""
    def prod(xs, ys):
        return None if xs is None or ys is None else list(map(mul, xs, ys))

    def axpy(acc, w, xs):
        xs = xs if xs is None or w == 1 else [w * x for x in xs]
        return xs if acc is None else acc if xs is None else list(map(add, acc, xs))

    if isinstance(node, Q):
        return q[node.s : node.s + m], None
    if isinstance(node, Companion):
        a, _ = node_values(node.children[0], q, m)
        return a, a
    if isinstance(node, Mul):
        (a1, b1), (a2, b2) = (node_values(c, q, m) for c in node.children)
        return prod(a1, a2), axpy(prod(a1, b2), 1, prod(b1, a2))
    a = b = None
    for w, t in node.terms:
        ta, tb = node_values(t, q, m)
        a, b = axpy(a, w, ta), axpy(b, w, tb)
    return a, b


def node_exact(node, q) -> tuple[int, int]:
    """(A, B) of a statement node at one index, q the table from its first n0:
    the m = 1 case of node_values."""
    a, b = node_values(node, q, 1)
    return a[0], 0 if b is None else b[0]


# -- the disproof expansion --------------------------------------------------


class _TightExpansion(_Expansion):
    """A leaf q(n0 + s) expands to its L or U envelope with the radius
    entered as er_total's two-sided enclosure, negated for L, in place of
    the box [-err, 0] or [0, err]; the rest of the tree expands as in
    production."""

    def leaf(self, s: int, side: int) -> HybridPoly:
        poly = HybridPoly.from_envelope(s, self.N, side, self.prec)
        r = _budget_parts(self.N, s, self.prec)["er_total"]
        poly.errs = {self.N + 1: (r if side > 0 else Interval(-r.hi, -r.lo)).fixed(self.prec)}
        return poly


@lru_cache(maxsize=None)
def tight_expansion(ineq_id: str, prec: int) -> IneqPoly:
    """The statement of ineq_id expanded with thin two-sided radii and no
    side lemmas: a certified negative value at x refutes the inequality's
    polynomial there (the C5 note).  Memoised per (ineq_id, prec);
    ``tight_expansion.__wrapped__`` expands afresh."""
    spec = THEOREMS[INEQUALITIES[ineq_id]]
    ex = _TightExpansion(spec, prec)
    return IneqPoly(ex(spec.statement, 1), ex.x0, ex.window)


def ring_parts(poly: HybridPoly) -> list[RingElem]:
    """Every exact part of poly's prefix, computed now; a ring part given
    whole, exact at every degree, up to its length."""
    ring = poly.ring
    return [ring[d] for d in range(min(ring.n, len(ring.pairs)))]


def ring_sum(terms) -> RingElem:
    """The sum of w e over the (w, e) pairs, w rational: each (i, j) of the
    elements' ``terms`` summed in Fractions, returned as a new element."""
    total: dict[tuple[int, int], Fraction] = {}
    for w, e in terms:
        for k, c in e.terms.items():
            total[k] = total.get(k, 0) + w * c
    return RingElem(total)


# -- the termwise interval convolution ------------------------------------


def convolve_termwise(acc: dict[int, Interval], xs, ys, prec: int) -> None:
    """acc[i + j] = acc[i + j].add(x.mul(y)) over (i, x) in xs, (j, y) in ys,
    xs the outer loop; an absent degree takes its first product as it is."""
    ys = list(ys)
    for i, x in xs:
        for j, y in ys:
            term = x.mul(y, prec)
            cur = acc.get(i + j)
            acc[i + j] = term if cur is None else cur.add(term, prec)


def pair_interval(pair: tuple[int, int], prec: int) -> Interval:
    """The Interval of an integer pair at scale 2^-(prec + 16)."""
    w = prec + GUARD
    return Interval(Dyadic(pair[0], -w), Dyadic(pair[1], -w))


def mul_termwise(a, b, prec: int) -> tuple[list[Interval], dict[int, Interval]]:
    """The ring enclosures and error boxes of the HybridPoly product a b,
    one Interval.mul and Interval.add at prec bits per term, in the order
    of the expansion: ring x box, box x ring, box x box, then ring x ring.
    The operands' pairs enter as Intervals."""
    def ivs(pairs):
        return [(d, pair_interval(p, a.prec)) for d, p in pairs]

    errs: dict[int, Interval] = {}
    convolve_termwise(errs, ivs(b.errs.items()), ivs(a.ring.not_point_zero()), prec)
    convolve_termwise(errs, ivs(a.errs.items()), ivs(b.ring.not_point_zero()), prec)
    convolve_termwise(errs, ivs(a.errs.items()), ivs(b.errs.items()), prec)
    ring = dict.fromkeys(range(len(a.ring_pairs) + len(b.ring_pairs) - 1), Interval.point(0))
    convolve_termwise(ring, ivs(a.ring.nonzero()), ivs(b.ring.nonzero()), prec)
    return list(ring.values()), errs


# -- Horner and ring evaluation as loops over Intervals ---------------------


def interval_horner(coeffs, x: Interval, prec: int) -> Interval:
    """Enclosure of sum_k coeffs[k] * x**k by interval Horner."""
    acc = Interval.point(0)
    for c in reversed(coeffs):
        acc = acc.mul(x, prec).add(c, prec)
    return acc


def ring_eval_iv_loop(e: RingElem, prec: int) -> Interval:
    """Enclosure of e's value: per term in dict order, Interval.from_fraction(c)
    times pi^i, times sqrt3 if j, added to the running sum, every operation
    rounded to prec bits; pi^i is the chain pi^(i-1) * pi (or pi^-(i-1) *
    (1/pi))."""
    if not e.terms:
        return Interval.point(0)
    pi = enclose_pi(prec)
    inv, sqrt3 = Interval.point(1).div(pi, prec), Interval.point(3).sqrt(prec)
    pows = {0: Interval.point(1)}
    for i in range(1, max(e.terms)[0] + 1):
        pows[i] = pows[i - 1].mul(pi, prec)
    for i in range(1, -min(e.terms)[0] + 1):
        pows[-i] = pows[1 - i].mul(inv, prec)
    total = Interval.point(0)
    for (i, j), c in e.terms.items():
        term = Interval.from_fraction(c, prec).mul(pows[i], prec)
        if j:
            term = term.mul(sqrt3, prec)
        total = total.add(term, prec)
    return total


# -- queries only the tests ask ---------------------------------------------


def contains_interval(outer: Interval, inner: Interval) -> bool:
    (a, b), (c, d) = outer.to_fractions(), inner.to_fractions()
    return a <= c and d <= b


def contains(x: Interval, value: Fraction | int) -> bool:
    """Whether the rational value lies in x."""
    lo, hi = x.to_fractions()
    return lo <= value <= hi


def width(x: Interval) -> Fraction:
    """hi - lo, exactly."""
    lo, hi = x.to_fractions()
    return hi - lo


def mag(x: Interval) -> Dyadic:
    """max |t| over the interval: the larger of -lo and hi."""
    return max(-x.lo, x.hi)


def _fields(record) -> dict[str, object]:
    """A qcert record's fields by name: its constructor's parameters, in order."""
    return {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}


def budget_fields(budget: ErrorBudget) -> dict[str, Dyadic]:
    """Every bound of an ErrorBudget by name (all fields but N and s)."""
    return {name: value for name, value in _fields(budget).items() if name not in ("N", "s")}


def replace(record, **changes):
    """A new record of record's type, with the given fields changed and the rest copied."""
    return type(record)(**{**_fields(record), **changes})


# -- the rational replay of the expansion -----------------------------------


@lru_cache(maxsize=None)
def pi_bracket(bits: int) -> tuple[Fraction, Fraction]:
    """Fractions lo < pi < hi one unit of mpmath's correctly rounded
    bits-bit pi apart on either side: a bracket that does not come from
    enclose_pi."""
    import mpmath as mp

    with mp.workprec(bits):
        man, exp = mp.mpf(mp.pi).man_exp
    pi, unit = Fraction(man) * Fraction(2) ** exp, Fraction(2) ** exp
    return pi - unit, pi + unit


def positive_untruncated(a: int, b: int, n: int, comp: Companion) -> bool:
    """A + B t > 0 at index n, t = r pi^i sqrt3^j n^{-a/2}: opposite signs compare
    B^2 c^2 with A^2 n^a, c^2 = r^2 3^j pi^{2i} from pi_bracket at doubling bits, and
    exactly when i = 0, where a tie is A + B t = 0, not positive."""
    if a * b >= 0:
        return a + b > 0
    k, lhs, rhs, bits = comp.r**2 * 3**comp.j, b * b, a * a * n**comp.a, 64
    while True:
        lo, hi = (k * pi ** (2 * comp.i) for pi in pi_bracket(bits)) if comp.i else (k, k)
        if lhs * lo > rhs:
            return b > 0
        if lhs * hi < rhs:
            return a > 0
        if lo == hi:
            return False
        bits *= 2


@lru_cache(maxsize=None)
def _pi_power_bracket(i: int, bits: int) -> tuple[Fraction, Fraction]:
    """pi^i bracketed by the ends of pi_bracket(bits), for i of either sign."""
    lo_pi, hi_pi = pi_bracket(bits)
    return (lo_pi**i, hi_pi**i) if i >= 0 else (hi_pi**i, lo_pi**i)


@lru_cache(maxsize=None)
def ring_bracket(e: RingElem, bits: int) -> tuple[Fraction, Fraction]:
    """A Fraction bracket of e's value, on the grid 2^-bits: each term's
    pi^i from pi_bracket(bits) (each power tabled once per bits), sqrt3
    from an integer square root, every product taken at its lower or upper
    end by the signs and floored or ceiled to the grid."""
    r = isqrt(3 << (2 * bits))
    roots = {0: (Fraction(1), Fraction(1)), 1: (Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits))}
    lo = hi = 0
    for (i, j), c in e.terms.items():
        a, b = _pi_power_bracket(i, bits)
        a, b = a * roots[j][0], b * roots[j][1]
        a, b = (a, b) if c > 0 else (b, a)
        lo += (c.numerator * a.numerator << bits) // (c.denominator * a.denominator)
        hi -= (-c.numerator * b.numerator << bits) // (c.denominator * b.denominator)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


_ZERO2 = (Fraction(0), Fraction(0))


def _iv_mul(x, y):
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(products), max(products)


def _iv_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def production_pairs(poly: HybridPoly) -> tuple[list, dict]:
    """poly's ring enclosures and error boxes as exact (lo, hi) Fractions."""
    unit = 1 << (poly.prec + GUARD)

    def fractions(pair):
        return Fraction(pair[0], unit), Fraction(pair[1], unit)

    return list(map(fractions, poly.ring_pairs)), {d: fractions(e) for d, e in poly.errs.items()}


class Replayed:
    """A production HybridPoly and the same polynomial rebuilt in exact
    Fraction intervals from the leaves up, with no rounding: ring[d] and
    errs[d] are (lo, hi) pairs.  Symbolic ring zeros are skipped in ring
    products where production skips them (its zero test, which the
    tests check against the exact parts)."""

    def __init__(self, poly: HybridPoly, ring: list, errs: dict):
        self.poly, self.ring, self.errs = poly, ring, errs
        self.check()

    def check(self) -> None:
        """Every production pair contains its rational counterpart."""
        ring, errs = production_pairs(self.poly)
        assert len(ring) == len(self.ring)
        for (a, b), (c, d) in zip(ring, self.ring):
            assert a <= c and d <= b
        for k in errs.keys() | self.errs.keys():
            (a, b), (c, d) = errs.get(k, _ZERO2), self.errs.get(k, _ZERO2)
            assert a <= c and d <= b, k

    def mul(self, other: "Replayed") -> "Replayed":
        poly = self.poly.mul(other.poly)
        ring = [_ZERO2] * (len(self.ring) + len(other.ring) - 1)
        rhs = [(j, y) for j, y in enumerate(other.ring) if not other.poly.ring.is_zero(j)]
        for i, x in enumerate(self.ring):
            if not self.poly.ring.is_zero(i):
                for j, y in rhs:
                    ring[i + j] = _iv_add(ring[i + j], _iv_mul(x, y))
        errs: dict = {}
        for boxes, terms in ((other.errs, self.ring), (self.errs, other.ring), (self.errs, other.errs)):
            terms = terms.items() if isinstance(terms, dict) else enumerate(terms)
            terms = list(terms)
            for j, e in boxes.items():
                for i, x in terms:
                    errs[i + j] = _iv_add(errs.get(i + j, _ZERO2), _iv_mul(x, e))
        return Replayed(poly, ring, errs)

    @staticmethod
    def weighted_sum(terms: list[tuple[int, "Replayed"]]) -> "Replayed":
        """The sum of w r over the (w, r) terms: each term's pairs times the
        point interval [w, w], added up degree by degree."""
        ring, errs = [_ZERO2] * max(len(r.ring) for _, r in terms), {}
        for w, r in terms:
            for d, x in enumerate(r.ring):
                ring[d] = _iv_add(ring[d], _iv_mul((w, w), x))
            for k, e in r.errs.items():
                errs[k] = _iv_add(errs.get(k, _ZERO2), _iv_mul((w, w), e))
        return Replayed(HybridPoly.weighted_sum([(w, r.poly) for w, r in terms]), ring, errs)

    def keep(self, key) -> "Replayed":
        """The production polynomial on the ring part it keeps for key, checked again."""
        return Replayed(self.poly.keep(key), self.ring, self.errs)


def _leaf_ring(poly: HybridPoly, elems, bits: int) -> list:
    """The leaf's ring enclosures as Fractions, each checked to contain a
    2^-bits bracket of its exact value."""
    ring, _ = production_pairs(poly)
    for (a, b), e in zip(ring, elems):
        lo, hi = ring_bracket(e, bits)
        assert a <= lo and hi <= b, e
    return ring


class _Replay(_Expansion):
    """The expansion of a statement, production and rational side by
    side.  A leaf's rational form takes the production ring enclosures
    (each checked against ring_bracket) and builds its own radius: the
    box [0, err] for U and [-err, 0] for L, or for the disproof expansion
    er_total's enclosure, negated for L.  A companion factor is built
    from its own monomials."""

    def __init__(self, spec, prec: int, tight: bool):
        super().__init__(spec, prec)
        self.tight, self.bits = tight, 3 * prec + 64

    def leaf(self, s: int, side: int) -> Replayed:
        bound = bound_poly(s, self.N, side, self.prec)
        if self.tight:
            poly = _TightExpansion.leaf(self, s, side)
            r = _budget_parts(self.N, s, self.prec)["er_total"].to_fractions()
            err = r if side > 0 else (-r[1], -r[0])
        else:
            poly = super().leaf(s, side)
            e = bound.err.to_fraction()
            err = (Fraction(0), e) if side > 0 else (-e, Fraction(0))
        ring = _leaf_ring(poly, bound.coeffs + (RingElem(),), self.bits)
        return Replayed(poly, ring, {self.N + 1: err})

    def factor(self, comp: Companion, pol: int) -> Replayed:
        monomials = {0: RingElem.from_rational(1), comp.a: comp.coeff}
        if comp.slack:
            monomials[comp.a + 1] = RingElem.from_rational(-comp.slack)
        elems = [monomials.get(d, RingElem()) for d in range(max(monomials) + 1)]
        poly = super().factor(comp, pol)
        return Replayed(poly, _leaf_ring(poly, elems, self.bits), {})


def replay(ineq_id: str, prec: int, tight: bool) -> dict[str, Replayed]:
    """The statement of ineq_id ("" in the result) and the lower envelope
    of every operand its products need (the side lemmas, by name), each
    rebuilt in rationals beside production and checked at every node.
    The box replay's statement is build_ineq's, the tight one's
    tight_expansion's."""
    spec = THEOREMS[INEQUALITIES[ineq_id]]
    ex = _Replay(spec, prec, tight)
    out = {"": ex(spec.statement, 1)}
    for name, op in list(ex.operands.items()):
        out[name] = ex(op, 1)
    return out
