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
naive Fraction products and is exactly equal.  The integer convolution
is ``convolve_terms``; polynomial products over this ring
(``certify.HybridPoly.mul``) call it too, accumulating every output
degree over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .enclosures import enclose_pi
from .intervals import Interval, resolve_precision

__all__ = ["RingElem", "convolve_terms"]


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

    def cleared(self) -> tuple[int, dict[tuple[int, int], int]]:
        """(common denominator D, integer terms of D*self)."""
        if self._den_cache is None:
            den = 1
            for c in self.terms.values():
                den = lcm(den, c.denominator)
            ints = {k: c.numerator * (den // c.denominator) for k, c in self.terms.items()}
            self._den_cache = (den, ints)
        return self._den_cache

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.terms or not other.terms:
            return ZERO_ELEM
        d1, a = self.cleared()
        d2, b = other.cleared()
        return RingElem.from_cleared(d1 * d2, convolve_terms({}, a, b))

    __rmul__ = __mul__

    @staticmethod
    def from_cleared(den: int, ints: dict[tuple[int, int], int]) -> "RingElem":
        """The element (1/den) * ints, one normalised Fraction per nonzero key."""
        return _wrap({k: Fraction(v, den) for k, v in ints.items() if v})

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

    def eval_iv(self, prec: int | None = None) -> Interval:
        """Interval containing the exact real value of this element."""
        prec = resolve_precision(prec)
        if not self.terms:
            return Interval.point(0)
        pi = enclose_pi(prec)
        imin = min(i for i, _ in self.terms)
        imax = max(i for i, _ in self.terms)
        pi_pows: dict[int, Interval] = {0: Interval.point(1)}
        for i in range(1, imax + 1):
            pi_pows[i] = pi_pows[i - 1].mul(pi, prec)
        if imin < 0:
            inv = Interval.point(1).div(pi, prec)
            for i in range(1, -imin + 1):
                pi_pows[-i] = pi_pows[-(i - 1)].mul(inv, prec)
        sqrt3 = Interval.point(3).sqrt(prec)
        total = Interval.point(0)
        for (i, j), c in self.terms.items():
            term = Interval.from_fraction(c, prec).mul(pi_pows[i], prec)
            if j:
                term = term.mul(sqrt3, prec)
            total = total.add(term, prec)
        return total


def convolve_terms(acc: dict, a: dict, b: dict) -> dict:
    """Add the product of integer term maps a and b into acc (sqrt3*sqrt3 -> 3)."""
    for (i1, j1), m1 in a.items():
        for (i2, j2), m2 in b.items():
            j = j1 + j2
            v = m1 * m2
            if j == 2:
                v *= 3
                j = 0
            key = (i1 + i2, j)
            if key in acc:
                acc[key] += v
            else:
                acc[key] = v
    return acc


def _wrap(terms: dict) -> RingElem:
    e = RingElem.__new__(RingElem)
    e.terms = terms
    e._den_cache = None
    return e


_F0 = Fraction(0)
ZERO_ELEM = RingElem()
