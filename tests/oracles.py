"""Independent oracles that the tests compare the production code with.

Nothing in ``qcert`` calls these; they live here so that the trust path
(``src/qcert``) holds only what a verification run executes.

* ``compute_q_table`` -- the reference 0/1-knapsack DP: for k = 1..n_max
  update values[n] += values[n-k] with n descending, so each part is
  used at most once.
* ``compute_q_table_odd_parts`` -- Euler's identity: partitions into odd
  parts, a complete-knapsack DP.
* ``check_log_concavity`` / ``check_turan3`` -- exact scans of the
  classical Turan-type inequalities for q(n).
* ``alt_half_binomial_sum`` / ``alt_half_binomial_sum_closed`` -- the
  alternating half-integer binomial sum identity behind the exponential
  factor's coefficients, by brute force and in closed form.
* ``exp_factor_closed`` / ``binom_factor_closed`` /
  ``bessel_factor_closed`` -- the coefficient families as closed forms
  rebuilt for every (k, s), which the s-free shapes of ``qcert.coeffs``
  must match term for term and in key order.
* ``enclose_sinh`` -- certified sinh, for the exponential-factor bound.
* ``invariant_a`` / ``invariant_b`` / ``invariant_i`` / ``laguerre`` --
  the quartic invariants and the order-m Laguerre expression, written
  out directly rather than through the statement trees of ``THEOREMS``.
* ``convolve_termwise`` / ``mul_termwise`` -- the interval convolution
  of ``HybridPoly.mul`` as a loop of ``Interval.mul`` then
  ``Interval.add``, one term at a time, which ``convolve_into`` must
  match bit for bit.
* ``contains_interval`` / ``mag`` / ``budget_fields`` -- interval and
  budget queries that only the tests ask.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from math import comb, factorial

from qcert.bounds import ErrorBudget
from qcert.coeffs import bessel_asym_coeff, gen_binomial, rising_factorial, shift_sigma
from qcert.enclosures import _exp_point
from qcert.intervals import Dyadic, Interval, resolve_precision
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


def enclose_sinh(x: Interval, prec: int | None = None) -> Interval:
    prec = resolve_precision(prec)

    def sinh_point(d: Dyadic) -> Interval:
        e = _exp_point(d, prec + 8)
        return e.sub(Interval.point(1).div(e, prec + 8), prec + 8).scale(-1)

    return Interval(sinh_point(x.lo).lo.round(prec, up=False), sinh_point(x.hi).hi.round(prec, up=True))


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


def mul_termwise(a, b) -> tuple[list[Interval], dict[int, Interval]]:
    """The ring enclosures and error boxes of the HybridPoly product a b,
    one Interval.mul and Interval.add per term, in the order of the
    expansion: ring x box, box x ring, box x box, then ring x ring."""
    p = a.prec
    errs: dict[int, Interval] = {}

    def bump(d: int, term: Interval):
        cur = errs.get(d)
        errs[d] = term if cur is None else cur.add(term, p)

    for j, e in b.errs.items():
        for i, x in enumerate(a.ring_ivs):
            if not (x.lo.is_zero and x.hi.is_zero):
                bump(i + j, x.mul(e, p))
    for i, e in a.errs.items():
        for j, y in enumerate(b.ring_ivs):
            if not (y.lo.is_zero and y.hi.is_zero):
                bump(i + j, e.mul(y, p))
    for i, e1 in a.errs.items():
        for j, e2 in b.errs.items():
            bump(i + j, e1.mul(e2, p))
    ivs = [Interval.point(0) for _ in range(len(a.ring_ivs) + len(b.ring_ivs) - 1)]
    rhs = b._nonzero()
    for i, x in a._nonzero():
        for j, y in rhs:
            ivs[i + j] = ivs[i + j].add(x.mul(y, p), p)
    return ivs, errs


# -- queries only the tests ask ---------------------------------------------


def contains_interval(outer: Interval, inner: Interval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def mag(x: Interval) -> Dyadic:
    """max |t| over the interval."""
    return max(abs(x.lo), abs(x.hi))


def budget_fields(budget: ErrorBudget) -> dict[str, Dyadic]:
    """Every bound of an ErrorBudget by name (all fields but N and s)."""
    return {f.name: getattr(budget, f.name) for f in fields(budget) if f.name not in ("N", "s")}
