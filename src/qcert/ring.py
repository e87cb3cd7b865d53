"""Exact arithmetic in the ring Q[pi, 1/pi, sqrt(3)].

Every coefficient of the asymptotic expansion lives here: an element is
a finite sum  sum_{i,j} c_{i,j} * pi^i * sqrt3^j  with exact rational
c_{i,j}, integer i (negative powers allowed) and j in {0, 1}.  pi is
treated as a transcendental indeterminate (no relations); sqrt3 folds by
sqrt3*sqrt3 -> 3.  Exact zero is the empty term map, which makes "is
this coefficient symbolically zero?" decidable -- the positivity
certifier relies on that to strip vanishing leading coefficients.

An element is stored once, cleared: (1/den) * ints, ints a map from the
packed key 4*i + j (private to this module) to a nonzero integer, in
lowest terms (gcd(den, *ints) = 1, so den is the lcm of the reduced
denominators).  A product term's key is the sum of its factors' keys, so
multiplication is an integer convolution over one common denominator;
with hundreds of terms per operand this is roughly an order of magnitude
faster than Fraction products and is exactly equal.  ``from_cleared`` is
the one normalising path: it folds the sqrt3^2 keys (j = 2) into 3, drops
every key that sums to zero and divides by one gcd.  The weighted
``sum_of_products`` serves each exact part of a ``certify.HybridPoly``
product, computed only when a zero test needs it.  ``terms`` is the
{(i, j): Fraction} view, built on demand.

``fixed`` encloses an element's value by an integer pair at scale 2^-w,
w = prec + 16, the scale of every polynomial coefficient: the exact sum
of v * [P_lo, P_hi] over its terms, [P_lo, P_hi] a bracket of pi^i
sqrt3^j at the finer scale 2^-(w + 64) taken at the end v's sign picks,
divided by den and floored (lower end) or ceiled (upper end) once.  The
brackets are tabled per precision, each from one enclosure of pi by one
floor and one ceiling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .enclosures import enclose_pi
from .intervals import GUARD, Dyadic, Interval, check_precision

__all__ = ["RingElem", "convolve_terms", "sum_of_products"]


class RingElem:
    """Immutable element of Q[pi^±1, sqrt3]."""

    __slots__ = ("den", "ints")

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            if j not in (0, 1):
                raise ValueError(f"sqrt3 exponent must be 0 or 1, got {j}")
            if c := Fraction(c):
                clean[4 * i + j] = c
        # reduced denominators' lcm: the cleared form is in lowest terms
        self.den = lcm(*(c.denominator for c in clean.values()))
        self.ints = {k: c.numerator * (self.den // c.denominator) for k, c in clean.items()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(c: Fraction | int) -> "RingElem":
        return RingElem({(0, 0): Fraction(c)})

    @staticmethod
    def monomial(i: int, j: int, c: Fraction | int) -> "RingElem":
        return RingElem({(i, j): Fraction(c)})

    @staticmethod
    def from_cleared(den: int, ints: dict[int, int]) -> "RingElem":
        """The element (1/den) * ints, den > 0, with sqrt3^2 folded into 3
        at the position of its first key, zero keys dropped and the whole
        divided by gcd(den, *ints)."""
        folded: dict[int, int] = {}
        for k, v in ints.items():
            if k & 2:
                k, v = k - 2, 3 * v
            folded[k] = folded.get(k, 0) + v
        ints = {k: v for k, v in folded.items() if v}
        g = gcd(den, *ints.values())
        e = RingElem.__new__(RingElem)
        e.den, e.ints = den // g, ints if g == 1 else {k: v // g for k, v in ints.items()}
        return e

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "RingElem") -> "RingElem":
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        acc = {k: v * ma for k, v in self.ints.items()}
        get = acc.get
        for k, v in other.ints.items():
            acc[k] = get(k, 0) + v * mb
        return RingElem.from_cleared(den, acc)

    def __mul__(self, other: "RingElem") -> "RingElem":
        if not self.ints or not other.ints:
            return ZERO_ELEM
        return sum_of_products([(self, other)])

    def scale(self, c: Fraction | int) -> "RingElem":
        c = Fraction(c)
        if not c:
            return ZERO_ELEM
        return RingElem.from_cleared(self.den * c.denominator, {k: v * c.numerator for k, v in self.ints.items()})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """{(i, j): c_{i,j}}, nonzero c only, in the insertion order of ints (not sorted)."""
        return {(k >> 2, k & 1): Fraction(v, self.den) for k, v in self.ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingElem) and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, frozenset(self.ints.items())))

    def as_string(self) -> str:
        """Exact human/machine-readable form: `p/q pi^i sqrt3^j + ...`."""
        if not self.ints:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            piece = f"{c.numerator}" if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            if i:
                piece += f" pi^{i}"
            if j:
                piece += " sqrt3"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"RingElem<{self.as_string()}>"

    def fixed(self, prec: int) -> tuple[int, int]:
        """(lo, hi), integers at scale 2^-w, w = prec + 16, with lo 2^-w <=
        the exact value <= hi 2^-w (see the module docstring)."""
        check_precision(prec)
        lo = hi = 0
        for k, v in self.ints.items():
            a, b = _power(k, prec)
            if v > 0:
                lo, hi = lo + v * a, hi + v * b
            else:
                lo, hi = lo + v * b, hi + v * a
        den = self.den << _FINE
        return lo // den, -(-hi // den)

    def eval_iv(self, prec: int) -> Interval:
        """Interval containing the exact real value: the pair of ``fixed``."""
        lo, hi = self.fixed(prec)
        w = prec + GUARD
        return Interval(Dyadic(lo, -w), Dyadic(hi, -w))


def convolve_terms(acc: dict[int, int], a: dict[int, int], b: dict[int, int], w: int = 1) -> dict:
    """Add w times the product of packed integer term maps a and b into acc."""
    get = acc.get
    for k1, m1 in a.items():
        m1 *= w
        for k2, m2 in b.items():
            acc[k1 + k2] = get(k1 + k2, 0) + m1 * m2
    return acc


def sum_of_products(pairs, weights=None) -> RingElem:
    """The sum of w * a * b over the (a, b) pairs (any iterable), w from
    weights (default all 1), accumulated in integers over one common
    denominator and normalised once."""
    pairs = list(pairs)
    den = lcm(*(a.den * b.den for a, b in pairs))
    acc: dict[int, int] = {}
    for (a, b), w in zip(pairs, weights or [1] * len(pairs)):
        convolve_terms(acc, a.ints, b.ints, w * (den // (a.den * b.den)))
    return RingElem.from_cleared(den, acc)


_FINE = 64  # the power brackets' scale is 2^-(prec + 16 + _FINE)
_POWERS: dict[int, dict[int, tuple[int, int]]] = {}


def _power(k: int, prec: int) -> tuple[int, int]:
    """Integers P_lo <= pi^i sqrt3^j 2^W <= P_hi, k = 4i + j and W = prec +
    16 + _FINE: the floor and the ceiling of the exact powers of one
    enclosure [a, b] of pi at W + _FINE bits, a^i and b^i (swapped for
    i < 0), times sqrt3 by an integer square root.  Tabled per precision."""
    table = _POWERS.setdefault(prec, {})
    if k not in table:
        W = prec + GUARD + _FINE
        pi = enclose_pi(W + _FINE)
        (ln, ld), (hn, hd) = ((f ** (k >> 2)).as_integer_ratio() for f in pi.to_fractions())
        if k < 0:
            (ln, ld), (hn, hd) = (hn, hd), (ln, ld)
        if k & 1:  # sqrt(3 t^2 4^W) = sqrt3 t 2^W
            table[k] = isqrt(3 * ln * ln << 2 * W) // ld, isqrt(3 * hn * hn << 2 * W) // hd + 1
        else:
            table[k] = (ln << W) // ld, -((-hn << W) // hd)
    return table[k]


ZERO_ELEM = RingElem()
