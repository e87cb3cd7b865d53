"""Machine verification of the eight inequality theorems.

Each theorem about q(n) (quartic-invariant positivity, double Turan,
order-3 Laguerre, and their companions) is stated once, as an expression
tree over q(n+k) (THEOREMS), and verified in two regimes that meet with
no gap:

* certified regime: the tree, rewritten through the L/U envelopes in the
  variable x = n^{-1/2}, becomes a polynomial with exact ring
  coefficients plus interval corrections from the error radii.  Its
  positivity on (0, x0] is proved by stripping symbolically-zero
  leading coefficients (exact ring zero test) and adaptive interval
  bisection -- never by floating point, and "inconclusive" is never
  reported as proved.  Side lemmas from the same tree prove the factors
  of every product positive; companion slacks are checked in rationals.
* exact regime: below the certified crossover the same tree is evaluated
  value-by-value with big integers; a companion factor involving pi and
  square roots is decided by comparing integers against a rational
  bracket of its squared constant, which never ties.

The certified crossover n_star is searched upward from the envelope
validity window and is capped by the seam recorded for each theorem
(one past the end of the exact range); verification fails loudly if the
two regimes do not meet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from .bounds import bound_poly, window_max, x_of
from .enclosures import enclose_pi
from .intervals import Dyadic, Interval, horner
from .qtable import QTable
from .ring import RingElem

__all__ = [
    "invariant_a",
    "invariant_b",
    "invariant_i",
    "laguerre",
    "Q",
    "Sum",
    "Mul",
    "Sq",
    "Companion",
    "TheoremSpec",
    "THEOREMS",
    "INEQUALITIES",
    "IneqPoly",
    "expand_statement",
    "build_ineq",
    "Certificate",
    "certify_positive",
    "certify_inequality",
    "find_crossover",
    "exact_verify",
    "sharpness_scan",
    "VerificationReport",
    "verify_theorem",
    "theorem_predicate",
]

DEFAULT_PREC = 192
MAX_PREC = 1536
DEFAULT_MAX_DEPTH = 60


# -- exact functionals -------------------------------------------------------


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


# -- theorem statements ---------------------------------------------------------

# Each theorem is written once, as an expression tree over the leaves
# q(n0 + s), n0 = n - shift.  Exactly, a tree evaluates to integers A, B
# with the statement's value A + B t, t = r pi^i sqrt3^j n^{-a/2} the
# companion term (B = 0 without one).  As an envelope it expands to a
# hybrid polynomial in x = n0^{-1/2}: a leaf becomes L(s) at positive
# polarity and U(s) at negative polarity, and a negative weight flips the
# polarity.  Sums fold left and products evaluate in the order written,
# which fixes every rounding of the expansion.


def _paren(node, pol: int) -> str:
    text = node.show(pol)
    return f"({text})" if isinstance(node, Sum) else text


class Q:
    """Leaf q(n0 + s)."""

    children = ()

    def __init__(self, s: int):
        self.s = s

    def exact(self, q):
        return q[self.s], 0

    def envelope(self, pol: int, ex: "_Expansion") -> "HybridPoly":
        return HybridPoly.from_envelope(self.s, ex.N, -pol, ex.prec, ex.tight)

    def show(self, pol: int) -> str:
        return f"{'L' if pol > 0 else 'U'}{self.s}"


class Sum:
    """Integer-weighted terms, left-folded in the order written."""

    def __init__(self, *terms: tuple[int, object]):
        self.terms = terms
        self.children = tuple(t for _, t in terms)

    def exact(self, q):
        a = b = 0
        for w, t in self.terms:
            ta, tb = t.exact(q)
            a += w * ta
            b += w * tb
        return a, b

    def envelope(self, pol: int, ex: "_Expansion") -> "HybridPoly":
        total = None
        for w, t in self.terms:
            p = ex(t, pol if w > 0 else -pol)
            p = p if w == 1 else p.neg() if w == -1 else p.scale_int(w)
            total = p if total is None else total.add(p)
        return total

    def show(self, pol: int) -> str:
        parts = []
        for w, t in self.terms:
            coef = "" if abs(w) == 1 else f"{abs(w)} "
            parts.append(("- " if w < 0 else "+ ") + coef + _paren(t, pol if w > 0 else -pol))
        return " ".join(parts).removeprefix("+ ")


class Mul:
    """Binary product, evaluated as written."""

    def __init__(self, a, b):
        self.children = (a, b)

    def exact(self, q):
        a1, b1 = self.children[0].exact(q)
        a2, b2 = self.children[1].exact(q)
        return a1 * a2, a1 * b2 + b1 * a2

    def envelope(self, pol: int, ex: "_Expansion") -> "HybridPoly":
        return ex(self.children[0], pol).mul(ex(self.children[1], pol))

    def show(self, pol: int) -> str:
        return " ".join(_paren(c, pol) for c in self.children)


class Sq(Mul):
    """Square: the product of a term with itself."""

    def __init__(self, x):
        super().__init__(x, x)

    def envelope(self, pol: int, ex: "_Expansion") -> "HybridPoly":
        x = ex(self.children[0], pol)
        return x.mul(x)

    def show(self, pol: int) -> str:
        return f"{_paren(self.children[0], pol)}^2"


class Companion:
    """body (1 + t), t = r pi^i sqrt3^j n^{-a/2} in statement coordinates.

    In the envelope variable n = n0 + shift, so t = c x^a (1 + shift x^2)^{-a/2}
    with c = r pi^i sqrt3^j.  Bernoulli's inequality (1 + y)^{-a/2} >= 1 - (a/2) y
    bounds t below by c x^a - slack x^{a+1} on (0, x0] whenever
    slack >= c (a/2) shift x0, which the expansion checks in rationals.
    """

    def __init__(self, body, r: Fraction, i: int, j: int, a: int, slack: Fraction = Fraction(0)):
        self.children = (body,)
        self.r, self.i, self.j, self.a, self.slack = Fraction(r), i, j, a, Fraction(slack)
        self.coeff = RingElem.monomial(i, j, r)

    def exact(self, q):
        a, _ = self.children[0].exact(q)
        return a, a

    def envelope(self, pol: int, ex: "_Expansion") -> "HybridPoly":
        if pol < 0:
            raise ValueError("a companion factor is bounded from below only")
        c_hi = self.coeff.eval_iv(ex.prec).hi.to_fraction()
        need = c_hi * self.a * ex.shift * ex.x0.to_fraction() / 2
        if self.slack < need:
            raise ValueError(f"companion slack {self.slack} below c (a/2) shift x0 = {float(need):.4g}")
        factor = {0: RingElem.from_rational(1), self.a: self.coeff}
        if self.slack:
            factor[self.a + 1] = RingElem.from_rational(-self.slack)
        return HybridPoly.from_ring_monomials(factor, ex.prec).mul(ex(self.children[0], pol))

    def show(self, pol: int) -> str:
        slack = f" - {self.slack} x^{self.a + 1}" if self.slack else ""
        return f"(1 + {self.coeff.as_string()} x^{self.a}{slack}) {_paren(self.children[0], pol)}"


def _nodes(node):
    yield node
    for c in node.children:
        yield from _nodes(c)


def _turan(k: int) -> Sum:
    """q(n0+k)^2 - q(n0+k-1) q(n0+k+1)."""
    return Sum((1, Sq(Q(k))), (-1, Mul(Q(k - 1), Q(k + 1))))


@dataclass(frozen=True)
class TheoremSpec:
    id: str
    label: str               # e.g. "1.2" -- used only in reports
    threshold: int           # stated bound: the statement holds for n >= threshold
    shift: int               # reindex used by the certified form (n -> n+shift)
    N: int                   # truncation order of the envelopes
    statement: object        # expression tree: the statement is "value > 0"
    ineq_id: str
    exact_range: tuple[int, int]  # recorded finite range, in shifted coordinates
    scan_floor: int          # smallest n (statement coordinates) where the predicate is defined

    def __post_init__(self):  # a t^2 term would not fit the exact value A + B t
        if sum(isinstance(n, Companion) for n in _nodes(self.statement)) > 1:
            raise ValueError(f"{self.id}: at most one companion, and none under a square")

    @property
    def seam(self) -> int:
        """One past the recorded exact range: cap for the certified crossover."""
        return self.exact_range[1] + 1

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        """Envelope shifts: the leaves of the statement."""
        return tuple(sorted({n.s for n in _nodes(self.statement) if isinstance(n, Q)}))

    @cached_property
    def companion(self) -> Companion | None:
        return next((n for n in _nodes(self.statement) if isinstance(n, Companion)), None)


THEOREMS: dict[str, TheoremSpec] = {
    t.id: t
    for t in [
        # A(q(n-1), ..., q(n+3)) > 0
        TheoremSpec("A", "1.2", 230, 1, 14,
                    Sum((1, Mul(Q(0), Q(4))), (3, Sq(Q(2))), (-4, Mul(Q(1), Q(3)))),
                    "ineq1", (229, 5018), 1),
        # 4 (1 + pi^2/(32 n^3)) q(n) q(n+2) > q(n-1) q(n+3) + 3 q(n+1)^2
        TheoremSpec("A-companion", "1.3", 279, 1, 14,
                    Sum((4, Companion(Mul(Q(1), Q(3)), Fraction(1, 32), 2, 0, 6, slack=1)),
                        (-1, Mul(Q(0), Q(4))), (-3, Sq(Q(2)))),
                    "ineq2", (278, 5884), 1),
        # B(q(n-1), ..., q(n+3)) > 0
        TheoremSpec("B", "1.4", 272, 1, 24,
                    Sum((1, Mul(Sq(Q(2)), Q(2))), (1, Mul(Q(0), Sq(Q(3)))), (1, Mul(Sq(Q(1)), Q(4))),
                        (-1, Mul(Mul(Q(0), Q(2)), Q(4))), (-2, Mul(Mul(Q(1), Q(2)), Q(3)))),
                    "ineq3", (271, 18501), 1),
        # (1 + pi^3/(288 sqrt3 n^{9/2})) (2 q(n)q(n+1)q(n+2) + q(n-1)q(n+1)q(n+3))
        #   > q(n+1)^3 + q(n-1)q(n+2)^2 + q(n)^2 q(n+3);  pi^3/(288 sqrt3) = pi^3 sqrt3/864
        TheoremSpec("B-companion", "1.5", 309, 1, 24,
                    Sum((1, Companion(Sum((1, Mul(Mul(Q(0), Q(2)), Q(4))), (2, Mul(Mul(Q(1), Q(2)), Q(3)))),
                                      Fraction(1, 864), 3, 1, 9, slack=Fraction(1, 4))),
                        (-1, Mul(Sq(Q(2)), Q(2))), (-1, Mul(Q(0), Sq(Q(3)))), (-1, Mul(Sq(Q(1)), Q(4)))),
                    "ineq4", (308, 18501), 1),
        # T(n)^2 > T(n-1) T(n+1), T(n) = q(n)^2 - q(n-1) q(n+1)
        TheoremSpec("double-turan", "1.6", 273, 2, 14,
                    Sum((1, Sq(_turan(2))), (-1, Mul(_turan(1), _turan(3)))),
                    "ineq5", (271, 5018), 2),
        # T(n)^2 < T(n-1) T(n+1) (1 + pi/(2 sqrt3 n^{3/2}));  pi/(2 sqrt3) = pi sqrt3/6
        TheoremSpec("double-turan-companion", "1.7", 346, 2, 14,
                    Sum((1, Mul(Companion(_turan(1), Fraction(1, 6), 1, 1, 3, slack=1), _turan(3))),
                        (-1, Sq(_turan(2)))),
                    "ineq6", (344, 7055), 2),
        # 10 q(n+3)^2 + 6 q(n+1) q(n+5) > 15 q(n+2) q(n+4) + q(n) q(n+6)
        TheoremSpec("laguerre3", "1.8", 651, 0, 24,
                    Sum((10, Sq(Q(3))), (6, Mul(Q(1), Q(5))), (-15, Mul(Q(2), Q(4))), (-1, Mul(Q(0), Q(6)))),
                    "ineq-L3", (651, 18501), 0),
        # 10 q(n+3)^2 + 6 q(n+1) q(n+5) < (15 q(n+2) q(n+4) + q(n) q(n+6))
        #   (1 + 5 pi^3/(256 sqrt3 n^{9/2}));  5 pi^3/(256 sqrt3) = 5 pi^3 sqrt3/768
        TheoremSpec("laguerre3-companion", "1.9", 715, 0, 24,
                    Sum((1, Companion(Sum((15, Mul(Q(2), Q(4))), (1, Mul(Q(0), Q(6)))), Fraction(5, 768), 3, 1, 9)),
                        (-10, Sq(Q(3))), (-6, Mul(Q(1), Q(5)))),
                    "ineq-c-L3", (715, 18501), 1),
    ]
}

INEQUALITIES: dict[str, str] = {t.ineq_id: t.id for t in THEOREMS.values()}


# -- the exact predicate: integer sign decisions ---------------------------------


@lru_cache(maxsize=None)
def _c2_bracket(comp: Companion, prec: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of c^2 = r^2 3^j pi^{2i}: only pi^{2i} needs an enclosure."""
    k = comp.r * comp.r * 3**comp.j
    return tuple(k * f for f in enclose_pi(prec).pow_int(2 * comp.i, prec).to_fractions())


def theorem_predicate(theorem_id: str, table: QTable, n: int, prec: int = DEFAULT_PREC) -> bool:
    """Exact truth of the theorem's statement at index n (statement
    coordinates), decided in integers.  The statement's value is A + B t
    with t > 0; when A and B have opposite signs, |B| t against |A| is
    decided by B^2 c^2 against A^2 n^a with a rational bracket of c^2,
    refined only on a tie, which an irrational c^2 never gives."""
    spec = THEOREMS[theorem_id]
    a, b = spec.statement.exact(table.window(n - spec.shift, spec.shifts[-1] + 1))
    if a >= 0 and b >= 0:
        return a > 0 or b > 0
    if a <= 0 and b <= 0:
        return False
    comp = spec.companion
    bb, rhs = b * b, a * a * n**comp.a
    while True:
        lo, hi = _c2_bracket(comp, prec)
        if bb * lo.numerator > rhs * lo.denominator:
            return b > 0
        if bb * hi.numerator < rhs * hi.denominator:
            return a > 0
        if lo == hi:  # c^2 rational: A + B t = 0
            return False
        prec *= 2


# -- hybrid polynomials (ring part + interval corrections) --------------------


class HybridPoly:
    """Polynomial in x whose coefficient k is ring_parts[k] + err(k),
    err a (possibly zero) interval correction.  Contains the exact
    shifted inequality polynomial whenever the corrections contain the
    exact error radii.  Products keep the exact ring_parts only up to
    their first error box, the furthest the certifier strips symbolic
    zeros; ring_ivs encloses the ring part at every degree."""

    __slots__ = ("ring_parts", "ring_ivs", "errs", "prec")

    def __init__(
        self,
        ring_parts: list[RingElem],
        errs: dict[int, Interval],
        prec: int,
        ring_ivs: list[Interval] | None = None,
    ):
        self.ring_parts = ring_parts
        self.errs = {d: e for d, e in errs.items() if not (e.lo.is_zero and e.hi.is_zero)}
        self.prec = prec
        self.ring_ivs = ring_ivs or [r.eval_iv(prec) for r in ring_parts]

    @property
    def degree(self) -> int:
        return len(self.ring_ivs) - 1

    def _exact_len(self, n: int) -> int:
        """Length of the exact prefix, as seen from a result of length n."""
        k = len(self.ring_parts)
        return k if k < len(self.ring_ivs) else n

    def _nonzero(self) -> list[tuple[int, RingElem | None, Interval]]:
        """(degree, exact part or None, enclosure) where the ring part may be nonzero."""
        k = len(self.ring_parts)
        return [(d, self.ring_parts[d] if d < k else None, iv) for d, iv in enumerate(self.ring_ivs)
                if not (self.ring_parts[d].is_zero if d < k else iv.lo.is_zero and iv.hi.is_zero)]

    @staticmethod
    def from_envelope(s: int, N: int, side: int, prec: int, tight: bool = False) -> "HybridPoly":
        """tight=False (certification): the radius enters as the box
        [0, upper], which contains the exact radius, so positivity of
        the family implies the exact inequality.  tight=True
        (disproof): the radius enters as its thin two-sided enclosure,
        so a certified negative value refutes the exact inequality."""
        poly = bound_poly(s, N, side, prec)
        if tight:
            from .bounds import error_total_interval

            radius = error_total_interval(N, s, prec)
            err_box = radius if side > 0 else radius.neg()
        else:
            err_box = (
                Interval(Dyadic(0), poly.err) if side > 0 else Interval(-poly.err, Dyadic(0))
            )
        ring_parts = list(poly.coeffs) + [RingElem()]
        errs = {N + 1: err_box}
        ring_ivs = list(poly.coeff_ivs) + [Interval.point(0)]
        return HybridPoly(ring_parts, errs, prec, ring_ivs)

    @staticmethod
    def from_ring_monomials(monomials: dict[int, RingElem], prec: int) -> "HybridPoly":
        top = max(monomials)
        ring_parts = [monomials.get(d, RingElem()) for d in range(top + 1)]
        return HybridPoly(ring_parts, {}, prec)

    def mul(self, other: "HybridPoly") -> "HybridPoly":
        p = self.prec
        n_out = len(self.ring_ivs) + len(other.ring_ivs) - 1
        errs_out: dict[int, Interval] = {}

        def bump(d: int, iv: Interval):
            cur = errs_out.get(d)
            errs_out[d] = iv if cur is None else cur.add(iv, p)

        for j, e in other.errs.items():
            for i, aiv in enumerate(self.ring_ivs):
                if not (aiv.lo.is_zero and aiv.hi.is_zero):
                    bump(i + j, aiv.mul(e, p))
        for i, e in self.errs.items():
            for j, biv in enumerate(other.ring_ivs):
                if not (biv.lo.is_zero and biv.hi.is_zero):
                    bump(i + j, e.mul(biv, p))
        for i, e1 in self.errs.items():
            for j, e2 in other.errs.items():
                bump(i + j, e1.mul(e2, p))
        first_box = min(errs_out, default=n_out)
        exact = min(self._exact_len(n_out), other._exact_len(n_out), first_box + 1)
        ring_out = [RingElem() for _ in range(exact)]
        ivs_out = [Interval.point(0) for _ in range(n_out)]
        rhs = other._nonzero()
        for i, a, aiv in self._nonzero():
            for j, b, biv in rhs:
                if i + j < exact:
                    ring_out[i + j] = ring_out[i + j] + a * b
                # interval convolution: contains the exact ring product,
                # far cheaper than re-evaluating the huge product elements
                ivs_out[i + j] = ivs_out[i + j].add(aiv.mul(biv, p), p)
        return HybridPoly(ring_out, errs_out, p, ivs_out)

    def add(self, other: "HybridPoly") -> "HybridPoly":
        p = self.prec
        n = max(len(self.ring_ivs), len(other.ring_ivs))
        exact = min(self._exact_len(n), other._exact_len(n))
        ring_out = []
        ivs_out = []
        for d in range(n):
            if d < exact:
                a = self.ring_parts[d] if d < len(self.ring_parts) else RingElem()
                b = other.ring_parts[d] if d < len(other.ring_parts) else RingElem()
                ring_out.append(a + b)
            aiv = self.ring_ivs[d] if d < len(self.ring_ivs) else Interval.point(0)
            biv = other.ring_ivs[d] if d < len(other.ring_ivs) else Interval.point(0)
            ivs_out.append(aiv.add(biv, p))
        errs_out = dict(self.errs)
        for d, e in other.errs.items():
            cur = errs_out.get(d)
            errs_out[d] = e if cur is None else cur.add(e, p)
        return HybridPoly(ring_out, errs_out, p, ivs_out)

    def neg(self) -> "HybridPoly":
        return HybridPoly(
            [-r for r in self.ring_parts],
            {d: e.neg() for d, e in self.errs.items()},
            self.prec,
            [iv.neg() for iv in self.ring_ivs],
        )

    def scale_int(self, c: int) -> "HybridPoly":
        ci = Interval.point(c)
        return HybridPoly(
            [r.scale(c) for r in self.ring_parts],
            {d: e.mul(ci, self.prec) for d, e in self.errs.items()},
            self.prec,
            [iv.mul(ci, self.prec) for iv in self.ring_ivs],
        )

    def coeff_intervals(self) -> list[Interval]:
        """Per-degree enclosure: ring value plus correction box."""
        out = list(self.ring_ivs)
        for d, e in self.errs.items():
            out[d] = out[d].add(e, self.prec)
        return out


# -- inequality construction ---------------------------------------------------


@dataclass(frozen=True)
class IneqPoly:
    ineq_id: str
    theorem_id: str
    N: int
    prec: int
    poly: HybridPoly
    x0: Dyadic          # validity radius: round-up of window^{-1/2}
    window: int         # largest envelope floor among the shifts involved
    side_lemma: Certificate | None = None  # the first side lemma not proved, if any

    def eval_iv(self, x: Interval) -> Interval:
        return horner(self.poly.coeff_intervals(), x, self.prec)


class _Expansion:
    """One expansion of a statement, collecting the operands whose
    positivity the products need and the lower envelopes already built
    for them."""

    def __init__(self, spec: TheoremSpec, prec: int, tight: bool):
        self.N, self.shift, self.prec, self.tight = spec.N, spec.shift, prec, tight
        self.window = window_max(spec.N, spec.shifts, prec)
        self.x0 = _x_upper(self.window, prec)
        self.operands: dict[str, object] = {}
        self.lower: dict[str, HybridPoly] = {}

    def __call__(self, node, pol: int) -> HybridPoly:
        if isinstance(node, (Mul, Companion)):
            for c in node.children:
                if not isinstance(c, Mul):  # a product is positive when its factors are
                    self.operands.setdefault(c.show(1), c)
        poly = node.envelope(pol, self)
        if pol > 0 and node.show(1) in self.operands:
            self.lower[node.show(1)] = poly
        return poly

    def side_lemma(self) -> Certificate | None:
        """The first failed side lemma, if any.  A product of bounds bounds
        the product only when the factors are nonnegative, so each operand
        needs its lower envelope proved positive on (0, x0(window)], which
        covers every trial n_star >= window."""
        for name, op in list(self.operands.items()):
            poly = self.lower.get(name) or self(op, 1)
            lemma = IneqPoly(name, "", self.N, self.prec, poly, self.x0, self.window)
            cert = certify_positive(lemma, self.x0)
            if not cert.proved:
                cert.reason = f"side lemma {name} not proved: {cert.reason}"
                return cert
        return None


def expand_statement(spec: TheoremSpec, prec: int = DEFAULT_PREC, tight: bool = False) -> IneqPoly:
    """Expand the theorem's statement into a single hybrid polynomial.

    L and U envelopes enter with the exact ring coefficients; every
    error radius enters as a one-sided box so the expansion contains the
    exact polynomial for the true radii (tight=True uses thin two-sided
    radii instead, and proves no side lemmas; see HybridPoly.from_envelope).
    """
    ex = _Expansion(spec, prec, tight)
    poly = ex(spec.statement, 1)
    lemma = None if tight else ex.side_lemma()
    return IneqPoly(spec.ineq_id, spec.id, spec.N, prec, poly, ex.x0, ex.window, lemma)


@lru_cache(maxsize=None)
def build_ineq(ineq_id: str, prec: int = DEFAULT_PREC, tight: bool = False) -> IneqPoly:
    """expand_statement for the theorem of an inequality id, cached."""
    if ineq_id not in INEQUALITIES:
        raise ValueError(f"unknown inequality id: {ineq_id!r}")
    return expand_statement(THEOREMS[INEQUALITIES[ineq_id]], prec, tight)


def _x_upper(n: int, prec: int) -> Dyadic:
    """Dyadic upper bound of n^{-1/2} (covers every integer >= n)."""
    return x_of(n, prec).hi


# -- positivity certification --------------------------------------------------


@dataclass
class Certificate:
    status: str                       # "proved" or "inconclusive"
    x_star: Dyadic
    n_star: int
    leading_zero_degree: int
    subdivision_count: int
    max_depth_hit: bool
    prec: int
    reason: str = ""
    negative_witness: tuple[float, float] | None = None
    reduced_coeffs: list[Interval] = field(default_factory=list, repr=False)
    # rounding may be all that keeps the sign undecided: worth a higher precision
    rounding_limited: bool = False

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    def to_json_dict(self) -> dict:
        out = {
            "status": self.status,
            "x_star": float(self.x_star),
            "n_star": self.n_star,
            "leading_zero_degree": self.leading_zero_degree,
            "subdivisions": self.subdivision_count,
            "max_depth_hit": self.max_depth_hit,
            "precision_bits": self.prec,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.negative_witness:
            out["negative_witness_x"] = list(self.negative_witness)
        return out


def certify_positive(
    ineq: IneqPoly,
    x0: Dyadic,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Certificate:
    """Prove the hybrid polynomial strictly positive on (0, x0].

    Strategy: (i) strip leading coefficients that are symbolic ring
    zeros with no correction box; (ii) require the next coefficient
    to be certifiably positive; (iii) adaptive bisection of [0, x0]
    with interval Horner on the reduced polynomial, splitting an
    undecided box only while both its endpoints are certifiably positive
    (no box around a point does better than the point).  A certified
    negative value is an honest counterexample for the whole coefficient
    family; a point value that is not positive ends the trial, flagged
    rounding_limited unless the correction boxes alone explain it.
    Exhausted depth is inconclusive, never proved.
    """
    if x0 > ineq.x0:
        raise ValueError(f"x0={float(x0)} beyond validity radius {float(ineq.x0)}")
    prec = ineq.prec
    poly = ineq.poly
    n_star = _n_of_x(x0)
    coeffs = poly.coeff_intervals()
    d = 0
    while d < len(coeffs) and d not in poly.errs:
        if d >= len(poly.ring_parts):
            raise ArithmeticError(f"symbolic zeros run past the exact prefix at x^{d}")
        if not poly.ring_parts[d].is_zero:
            break
        d += 1
    base = Certificate(
        status="inconclusive",
        x_star=x0,
        n_star=n_star,
        leading_zero_degree=d,
        subdivision_count=0,
        max_depth_hit=False,
        prec=prec,
    )
    if ineq.side_lemma is not None:
        base.reason = ineq.side_lemma.reason
        base.rounding_limited = ineq.side_lemma.rounding_limited
        return base
    if d >= len(coeffs):
        base.reason = "polynomial is identically zero"
        return base
    reduced = coeffs[d:]
    base.reduced_coeffs = reduced
    box_widths = [
        Interval.point(poly.errs[k].width if k in poly.errs else Dyadic(0))
        for k in range(d, len(coeffs))
    ]

    def hidden_by_rounding(x: Dyadic, value: Interval) -> bool:
        # The family's values at x fill a subinterval of `value` as wide
        # as the boxes make it, so its lowest member is <= value.hi - width.
        return value.hi > horner(box_widths, Interval.point(x), prec).lo

    if not reduced[0].is_positive:
        base.reason = f"constant term after stripping x^{d} is not certifiably positive"
        base.rounding_limited = hidden_by_rounding(Dyadic(0), reduced[0])
        return base

    stack: list[tuple[Dyadic, Dyadic, int]] = [(Dyadic(0), x0, 0)]
    subdivisions = 0
    while stack:
        a, b, depth = stack.pop()
        value = horner(reduced, Interval(a, b), prec)
        if value.is_positive:
            continue
        base.subdivision_count = subdivisions
        if value.is_negative:
            base.reason = "certified negative leaf"
            base.negative_witness = (float(a), float(b))
            return base
        for x in (a, b):
            point = horner(reduced, Interval.point(x), prec)
            if point.is_positive:
                continue
            if point.is_negative:
                base.reason = "certified negative leaf"
                base.negative_witness = (float(x), float(x))
                return base
            base.rounding_limited = hidden_by_rounding(x, point)
            verdict = "rounding hides the sign" if base.rounding_limited else "boxed family not positive"
            base.reason = f"{verdict} at x={float(x)}"
            return base
        if depth >= max_depth:
            base.reason = f"sign undecided at depth {max_depth} on [{float(a)}, {float(b)}]"
            base.max_depth_hit = True
            base.rounding_limited = True
            return base
        mid = (a + b).scale(-1)
        subdivisions += 1
        stack.append((a, mid, depth + 1))
        stack.append((mid, b, depth + 1))
    base.status = "proved"
    base.subdivision_count = subdivisions
    return base


def _n_of_x(x: Dyadic) -> int:
    """Smallest integer n with n^{-1/2} <= x, i.e. ceil(x^-2)."""
    f = x.to_fraction()
    inv_sq = Fraction(f.denominator**2, f.numerator**2)
    return -(-inv_sq.numerator // inv_sq.denominator)


def certify_inequality(
    ineq_id: str,
    n_star: int | None = None,
    prec: int = DEFAULT_PREC,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_prec: int = MAX_PREC,
) -> Certificate:
    """Certify positivity for all n >= n_star (default: the envelope
    validity window), doubling the precision only while rounding may be
    what keeps the result inconclusive (Certificate.rounding_limited)."""
    p = prec
    while True:
        ineq = build_ineq(ineq_id, p)
        target = ineq.window if n_star is None else n_star
        if target < ineq.window:
            raise ValueError(
                f"n_star={target} below envelope validity window {ineq.window}"
            )
        x0 = ineq.x0 if target == ineq.window else _x_upper(target, p)
        cert = certify_positive(ineq, x0, max_depth)
        cert.n_star = max(cert.n_star, target)
        if cert.proved or not cert.rounding_limited or p >= max_prec:
            return cert
        p *= 2


def find_crossover(
    theorem_id: str,
    prec: int = DEFAULT_PREC,
    max_depth: int = DEFAULT_MAX_DEPTH,
    sharpen: bool = True,
) -> tuple[int, Certificate]:
    """Smallest certifiable crossover n_star for the theorem's
    inequality, searched upward from the envelope validity window and
    capped by the theorem's seam.

    Certifying below the window is meaningless (the envelopes are not
    valid there), so the window is the best possible answer; when the
    polynomial is provably negative at the window, the search walks
    geometrically toward the seam and then bisects down to the smallest
    n_star this certifier can prove.
    """
    spec = THEOREMS[theorem_id]
    window = window_max(spec.N, spec.shifts, prec)
    if window > spec.seam:
        raise ValueError(
            f"envelope validity window {window} of {theorem_id} at {prec} bits "
            f"lies above its seam {spec.seam}"
        )
    cert = certify_inequality(spec.ineq_id, window, prec, max_depth)
    if cert.proved:
        return window, cert
    cap = spec.seam
    bad = window
    good = None
    trial = window
    while good is None:
        trial = min(4 * trial, cap)
        cert_try = certify_inequality(spec.ineq_id, trial, prec, max_depth)
        if cert_try.proved:
            good, good_cert = trial, cert_try
        else:
            bad = trial
            if trial >= cap:
                cert_try.reason = (
                    f"not certifiable even at the seam {cap}: " + cert_try.reason
                )
                return cap, cert_try
    if sharpen:
        while good - bad > 1:
            mid = (good + bad) // 2
            cert_try = certify_inequality(spec.ineq_id, mid, prec, max_depth)
            if cert_try.proved:
                good, good_cert = mid, cert_try
            else:
                bad = mid
    return good, good_cert


# -- exact verification ----------------------------------------------------------


def exact_verify(
    theorem_id: str,
    table: QTable,
    lo: int,
    hi: int,
    prec: int = DEFAULT_PREC,
    shifted: bool = True,
) -> list[int]:
    """Exact check of the theorem's statement over a contiguous range.

    lo/hi are in shifted coordinates when `shifted` (matching the
    certified polynomial); returned violations are in statement
    coordinates.
    """
    spec = THEOREMS[theorem_id]
    offset = spec.shift if shifted else 0
    violations = []
    for n in range(lo + offset, hi + offset + 1):
        if not theorem_predicate(theorem_id, table, n, prec):
            violations.append(n)
    return violations


def sharpness_scan(theorem_id: str, table: QTable, prec: int = DEFAULT_PREC) -> list[int]:
    """All violations of the statement strictly below its threshold."""
    spec = THEOREMS[theorem_id]
    return exact_verify(theorem_id, table, spec.scan_floor, spec.threshold - 1, prec, shifted=False)


# -- full verification -------------------------------------------------------------


@dataclass
class VerificationReport:
    theorem: str
    label: str
    threshold: int
    shift: int
    n_star: int
    exact_range: tuple[int, int]          # shifted coordinates, as certified
    exact_violations: list[int]           # statement coordinates
    sharpness_witness: int | None
    status: str                            # pass / fail / inconclusive
    precision_bits: int
    subdivisions: int
    certificate: Certificate
    seconds: float
    holds_from: int | None = None          # when violations exist: verified fresh start

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "theorem": self.theorem,
            "label": self.label,
            "threshold": self.threshold,
            "shift": self.shift,
            "n_star": self.n_star,
            "exact_range": list(self.exact_range),
            "exact_violations": self.exact_violations,
            "sharpness_witness": self.sharpness_witness,
            "status": self.status,
            "precision_bits": self.precision_bits,
            "subdivisions": self.subdivisions,
            "certificate": self.certificate.to_json_dict(),
        }
        if self.holds_from is not None:
            out["holds_from"] = self.holds_from
        if include_timing:
            out["seconds"] = round(self.seconds, 3)
        return out


def verify_theorem(
    theorem_id: str,
    table: QTable,
    prec: int = DEFAULT_PREC,
    max_depth: int = DEFAULT_MAX_DEPTH,
    sharpness: bool = True,
    sharpen_crossover: bool = True,
    threshold_override: int | None = None,
) -> VerificationReport:
    """End-to-end verification: certified crossover, exact range up to
    it with no gap, and the sharpness scan below the threshold.

    threshold_override replaces the stated threshold in the exact range
    and the sharpness scan (used to verify documented errata); the
    certified regime is unaffected.
    """
    spec = THEOREMS[theorem_id]
    threshold = spec.threshold if threshold_override is None else threshold_override
    t0 = time.perf_counter()
    if table.n_max < spec.seam + spec.shift + 6:
        raise ValueError(
            f"table covers 0..{table.n_max}, need {spec.seam + spec.shift + 6} for {theorem_id}"
        )
    n_star, cert = find_crossover(theorem_id, prec, max_depth, sharpen=sharpen_crossover)
    exact_lo = threshold - spec.shift
    exact_hi = n_star - 1
    violations = exact_verify(theorem_id, table, exact_lo, exact_hi, prec)
    witness = None
    if sharpness:
        below = exact_verify(theorem_id, table, spec.scan_floor, threshold - 1, prec, shifted=False)
        witness = max(below) if below else None
    if not cert.proved:
        status = "inconclusive" if cert.negative_witness is None else "fail"
    else:
        status = "pass" if not violations else "fail"
    holds_from = None
    if violations:
        holds_from = max(violations) + 1
    return VerificationReport(
        theorem=theorem_id,
        label=spec.label,
        threshold=threshold,
        shift=spec.shift,
        n_star=n_star,
        exact_range=(exact_lo, exact_hi),
        exact_violations=violations,
        sharpness_witness=witness,
        status=status,
        precision_bits=cert.prec,
        subdivisions=cert.subdivision_count,
        certificate=cert,
        seconds=time.perf_counter() - t0,
        holds_from=holds_from,
    )
