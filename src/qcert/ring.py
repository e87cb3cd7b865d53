"""Exact arithmetic in the ring Q[pi, 1/pi, sqrt(3)].

Every coefficient of the asymptotic expansion lives here: an element is
a finite sum  sum_{i,j} c_{i,j} * pi^i * sqrt3^j  with exact rational
c_{i,j}, integer i (negative powers allowed) and j in {0, 1}.  pi is
treated as a transcendental indeterminate (no relations); sqrt3 folds by
sqrt3*sqrt3 -> 3.  Exact zero is the empty term map, which makes "is
this coefficient symbolically zero?" decidable -- the positivity
certifier relies on that to strip vanishing leading coefficients.

Multiplication clears denominators first (one lcm per operand, integer
convolution, one rational normalization per output key); with hundreds
of terms per operand this is roughly an order of magnitude faster than
naive Fraction products and is exactly equal.  Cleared terms are keyed
by the packed integer 4*i + j (private to this module), so a product
term's key is the sum of its factors' keys; ``from_cleared`` folds the
sqrt3^2 keys (j = 2) into 3 and drops every key that sums to zero.  The
weighted ``sum_of_products`` serves each exact part of a
``certify.HybridPoly`` product, computed only when a zero test needs it;
``sum_of_cleared`` takes cleared forms, which is all the coefficient sums
keep.  pi^i and sqrt3 enclosures are tabled per precision, as raw
(lo_man, lo_exp, hi_man, hi_exp) endpoints, and ``eval_iv`` sums its
terms on raw endpoints, building one Interval at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .enclosures import enclose_pi
from .intervals import Dyadic, Interval, _fraction_raw, _mul_raw, _sum_raw, check_precision

__all__ = ["RingElem", "convolve_terms", "sum_of_cleared", "sum_of_products"]


class RingElem:
    """Immutable element of Q[pi^±1, sqrt3]."""

    __slots__ = ("terms", "_den_cache")

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if j not in (0, 1):
                    raise ValueError(f"sqrt3 exponent must be 0 or 1, got {j}")
                c = Fraction(c)
                if c:
                    clean[(i, j)] = c
        self.terms = clean
        self._den_cache: tuple[int, dict] | None = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(c: Fraction | int) -> "RingElem":
        return RingElem({(0, 0): Fraction(c)})

    @staticmethod
    def monomial(i: int, j: int, c: Fraction | int) -> "RingElem":
        return RingElem({(i, j): Fraction(c)})

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "RingElem") -> "RingElem":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, _F0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _wrap(out)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __neg__(self) -> "RingElem":
        return _wrap({k: -c for k, c in self.terms.items()})

    def cleared(self) -> tuple[int, dict[int, int]]:
        """(common denominator D, integer terms of D*self on packed keys)."""
        if self._den_cache is None:
            den = 1
            for c in self.terms.values():
                den = lcm(den, c.denominator)
            ints = {4 * i + j: c.numerator * (den // c.denominator)
                    for (i, j), c in self.terms.items()}
            self._den_cache = (den, ints)
        return self._den_cache

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.terms or not other.terms:
            return ZERO_ELEM
        return sum_of_products([(self, other)])

    __rmul__ = __mul__

    @staticmethod
    def from_cleared(den: int, ints: dict[int, int]) -> "RingElem":
        """The element (1/den) * ints, one normalised Fraction per nonzero
        key, with sqrt3^2 folded into 3 at the position of its first key."""
        folded: dict[int, int] = {}
        for k, v in ints.items():
            if k & 2:
                k, v = k - 2, 3 * v
            folded[k] = folded.get(k, 0) + v
        return _wrap({(k >> 2, k & 3): Fraction(v, den) for k, v in folded.items() if v})

    def scale(self, c: Fraction | int) -> "RingElem":
        c = Fraction(c)
        if not c:
            return ZERO_ELEM
        return _wrap({k: v * c for k, v in self.terms.items()})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingElem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def as_string(self) -> str:
        """Exact human/machine-readable form: `p/q pi^i sqrt3^j + ...`."""
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            piece = f"{c.numerator}" if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            if i:
                piece += f" pi^{i}"
            if j:
                piece += " sqrt3"
            parts.append(piece)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"RingElem<{self.as_string()}>"

    def eval_iv(self, prec: int) -> Interval:
        """Interval containing the exact real value of this element.

        Term by term in dict order: c's directed conversion (as in
        Interval.from_fraction), times pi^i, times sqrt3 if j, added to the
        running sum.  These are Interval.mul's and Interval.add's roundings,
        made on raw endpoints; directed rounding depends only on the value,
        so the result equals that loop of Interval operations bit for bit.
        """
        check_precision(prec)
        if not self.terms:
            return Interval.point(0)
        pows, sqrt3 = _pi_powers(prec, min(self.terms)[0], max(self.terms)[0])
        lm = le = hm = he = 0
        for (i, j), c in self.terms.items():
            num, den = c.numerator, c.denominator
            if den == 1:  # an integer enters exactly
                am, ae, bm, be = num, 0, num, 0
            else:
                am, ae = _fraction_raw(num, den, prec, False)
                bm, be = _fraction_raw(num, den, prec, True)
            am, ae, bm, be = _mul_raw(am, ae, bm, be, *pows[i], prec)
            if j:
                am, ae, bm, be = _mul_raw(am, ae, bm, be, *sqrt3, prec)
            lm, le = _sum_raw(lm, le, am, ae, prec, False)
            hm, he = _sum_raw(hm, he, bm, be, prec, True)
        return Interval(Dyadic(lm, le), Dyadic(hm, he))


def convolve_terms(acc: dict[int, int], a: dict[int, int], b: dict[int, int], w: int = 1) -> dict:
    """Add w times the product of packed integer term maps a and b into acc."""
    get = acc.get
    for k1, m1 in a.items():
        m1 *= w
        for k2, m2 in b.items():
            acc[k1 + k2] = get(k1 + k2, 0) + m1 * m2
    return acc


def sum_of_products(pairs, weights=None) -> RingElem:
    """The sum of w * a * b over the (a, b) pairs, w from weights (default
    all 1), accumulated in integers over one common denominator and
    normalised once."""
    return sum_of_cleared([(a.cleared(), b.cleared()) for a, b in pairs], weights)


def sum_of_cleared(parts, weights=None) -> RingElem:
    """sum_of_products over pairs of cleared forms (RingElem.cleared())."""
    den = lcm(*(d1 * d2 for (d1, _), (d2, _) in parts))
    acc: dict[int, int] = {}
    for ((d1, a), (d2, b)), w in zip(parts, weights or [1] * len(parts)):
        convolve_terms(acc, a, b, w * (den // (d1 * d2)))
    return RingElem.from_cleared(den, acc)


_PI_POWERS: dict[int, tuple[dict[int, tuple], tuple, tuple, tuple]] = {}


def _ends(iv: Interval) -> tuple[int, int, int, int]:
    return iv.lo.man, iv.lo.exp, iv.hi.man, iv.hi.exp


def _pi_powers(prec: int, imin: int, imax: int) -> tuple[dict[int, tuple], tuple]:
    """(enclosures of pi^i for i in imin..imax, sqrt3) as raw endpoints, from
    one table per precision.  pi^i is always pi^(i-1) * pi and pi^-i is
    pi^-(i-1) * (1/pi), rounded as Interval.mul rounds, so every entry is
    the same whichever element asked for it first."""
    if prec not in _PI_POWERS:
        pi = enclose_pi(prec)
        _PI_POWERS[prec] = ({0: (1, 0, 1, 0)}, _ends(pi), _ends(Interval.point(1).div(pi, prec)),
                            _ends(Interval.point(3).sqrt(prec)))
    pows, pi, inv, sqrt3 = _PI_POWERS[prec]
    for i in range(1, imax + 1):
        if i not in pows:
            pows[i] = _mul_raw(*pows[i - 1], *pi, prec)
    for i in range(1, -imin + 1):
        if -i not in pows:
            pows[-i] = _mul_raw(*pows[1 - i], *inv, prec)
    return pows, sqrt3


def _wrap(terms: dict) -> RingElem:
    e = RingElem.__new__(RingElem)
    e.terms = terms
    e._den_cache = None
    return e


_F0 = Fraction(0)
ZERO_ELEM = RingElem()
