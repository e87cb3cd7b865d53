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
* ``exp_bracket`` -- an exact ``Fraction`` bracket of exp(x): a Taylor
  partial sum and a Lagrange remainder, for the kernels' near-grid checks.
* ``exp_point_loop`` / ``atanh_series_loop`` / ``log_point_loop`` /
  ``bessel_i1_point_loop`` -- the exp, log and I1 point kernels as
  Taylor loops over ``Interval`` objects, rounding at every step, whose
  enclosures the integer kernels of ``qcert.enclosures`` must equal or
  lie inside.
* ``invariant_a`` / ``invariant_b`` / ``invariant_i`` / ``laguerre`` --
  the quartic invariants and the order-m Laguerre expression, written
  out directly rather than through the statement trees of ``THEOREMS``.
* ``convolve_termwise`` / ``mul_termwise`` -- the interval convolution
  of ``HybridPoly.mul`` as a loop of ``Interval.mul`` then
  ``Interval.add``, one term at a time, which ``convolve_into`` must
  match bit for bit.
* ``interval_horner`` -- Horner's rule as a loop of ``Interval.mul`` then
  ``Interval.add``, the reference for the fixed-point ``horner``.
* ``ring_eval_iv_loop`` -- ``RingElem.eval_iv`` as a loop of Interval
  operations, which the raw-endpoint ``eval_iv`` must match bit for bit.
* ``theorem_predicate`` -- the exact truth of a statement at one n.
* ``node_exact`` -- a statement node's exact value (A, B) at one index.
* ``tight_expansion`` -- the disproof expansion: the statement expanded
  with every error radius entered as its thin two-sided enclosure, not
  as the box, so a certified negative value refutes the inequality.
* ``ring_parts`` -- every exact ring part of a ``HybridPoly``, computed
  now, for the pins.
* ``contains_interval`` / ``mag`` / ``budget_fields`` -- interval and
  budget queries that only the tests ask.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from qcert.bounds import ErrorBudget, _budget_parts
from qcert.certify import INEQUALITIES, THEOREMS, HybridPoly, IneqPoly, Q, _Expansion, exact_verify
from qcert.coeffs import bessel_asym_coeff, gen_binomial, rising_factorial, shift_sigma
from qcert.enclosures import _exp_point, enclose_pi
from qcert.intervals import Dyadic, Interval
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


def enclose_sinh(x: Interval, prec: int) -> Interval:
    def sinh_point(d: Dyadic) -> Interval:
        e = _exp_point(d, prec + 8)
        return e.sub(Interval.point(1).div(e, prec + 8), prec + 8).scale(-1)

    return Interval(sinh_point(x.lo).lo.round(prec, up=False), sinh_point(x.hi).hi.round(prec, up=True))


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
    most that term times e^|r| < 2), inverted for x < 0, then squared s
    times, each square rounded outward to bits + s + 16 bits."""
    s = (abs(x.numerator) // x.denominator).bit_length() + 1
    r, w = abs(x) / 2**s, bits + s + 16
    total, term, j = Fraction(0), Fraction(1), 0
    while term > Fraction(1, 1 << w):
        total += term
        j += 1
        term = term * r / j
    lo, hi = total, total + 2 * term
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
            tail_hi = abs(bound).round(prec, up=True).scale(1)
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
    """Exact truth of the statement at n (statement coordinates): a length-1 exact_verify."""
    return not exact_verify(theorem_id, table, n, n, shifted=False)


def node_exact(node, q) -> tuple[int, int]:
    """(A, B) of a statement node at one index, q the table from its first n0:
    the m = 1 case of node.values."""
    a, b = node.values(q, 1)
    return a[0], 0 if b is None else b[0]


# -- the disproof expansion --------------------------------------------------


class _TightExpansion(_Expansion):
    """A leaf q(n0 + s) expands to its L or U envelope with the radius
    entered as er_total's two-sided enclosure, negated for L, in place of
    the box [-err, 0] or [0, err]; the rest of the tree expands as in
    production."""

    def __call__(self, node, pol: int) -> HybridPoly:
        if not isinstance(node, Q):
            return super().__call__(node, pol)
        poly = HybridPoly.from_envelope(node.s, self.N, -pol, self.prec)
        r = _budget_parts(self.N, node.s, self.prec)["er_total"]
        poly.errs = {self.N + 1: r if pol < 0 else Interval(-r.hi, -r.lo)}  # U at pol < 0
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
    """Every exact part of poly's prefix, computed now."""
    return [poly._exact[d] for d in range(poly._exact.n)]


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


# -- Horner and ring evaluation as loops over Intervals ---------------------


def interval_horner(coeffs, x: Interval, prec: int) -> Interval:
    """Enclosure of sum_k coeffs[k] * x**k by interval Horner."""
    acc = Interval.point(0)
    for c in reversed(coeffs):
        acc = acc.mul(x, prec).add(c, prec)
    return acc


def ring_eval_iv_loop(e: RingElem, prec: int) -> Interval:
    """Enclosure of e's value: per term in dict order, Interval.from_fraction(c)
    times pi^i, times sqrt3 if j, added to the running sum; pi^i is the
    chain pi^(i-1) * pi (or pi^-(i-1) * (1/pi)) that the ring's table uses."""
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
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def mag(x: Interval) -> Dyadic:
    """max |t| over the interval."""
    return max(abs(x.lo), abs(x.hi))


def budget_fields(budget: ErrorBudget) -> dict[str, Dyadic]:
    """Every bound of an ErrorBudget by name (all fields but N and s)."""
    return {f.name: getattr(budget, f.name) for f in fields(budget) if f.name not in ("N", "s")}
