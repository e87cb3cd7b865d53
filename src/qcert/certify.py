"""Machine verification of the eight inequality theorems.

Each theorem about q(n) (quartic-invariant positivity, double Turan,
order-3 Laguerre, and their companions) is stated once, as an expression
tree over q(n+k) (THEOREMS), and verified in two regimes that meet with
no gap:

* certified regime: the tree, rewritten through the L/U envelopes in the
  variable x = n^{-1/2}, becomes a polynomial with exact ring
  coefficients plus interval corrections from the error radii.  Its
  positivity on (0, x0] is proved by stripping symbolically-zero
  leading coefficients (exact ring zero test) and one interval
  evaluation over all of [0, x0] -- never by floating point, and
  "inconclusive" is never reported as proved.  Side lemmas from the
  same tree prove the factors of every product positive; companion
  slacks are checked in rationals.
* exact regime: below the certified crossover the same tree, compiled once to
  a block program, is evaluated in big integers over blocks of indices; a
  companion factor with pi and square roots is decided in integers against a
  rational bracket of c^2, never tied.

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
from itertools import zip_longest
from operator import add, mul, sub

from .bounds import bound_poly, window_max, x_of
from .enclosures import enclose_pi
from .intervals import DEFAULT_PRECISION, GUARD, Dyadic, Interval, convolve, horner, round_out
from .qtable import QTable
from .ring import ZERO_ELEM, RingElem, sum_of_products

__all__ = [
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
]

BLOCK = 128  # indices per exact-scan block: 512 gained no reliable time for 0.6 MB more peak RSS
_C2_BITS = 32  # the scans' first c^2 bracket: every scanned index has |B^2 c^2 - A^2 n^a| >= 2^-8.6 A^2 n^a


# -- theorem statements ---------------------------------------------------------

# Each theorem is written once, as an expression tree over the leaves
# q(n0 + s), n0 = n - shift.  Exactly, its program (_program) gives lists A, B
# at m indices from the table q at the first n0: the statement's value is
# A + B t, t = r pi^i sqrt3^j n^{-a/2} the companion term (B None without
# one).  As an envelope it expands to a hybrid polynomial in x = n0^{-1/2}: a
# leaf becomes L(s) at positive polarity and U(s) at negative polarity, and a
# negative weight flips the polarity.  Sums fold left and products evaluate
# in the order written, which fixes every rounding of the expansion.


def _paren(node, pol: int) -> str:
    text = node.show(pol)
    return f"({text})" if isinstance(node, Sum) else text


class Q:
    """Leaf q(n0 + s)."""

    children = ()

    def __init__(self, s: int):
        self.s = s

    def envelope(self, pol: int, ex: "_Expansion") -> "HybridPoly":
        return HybridPoly.from_envelope(self.s, ex.N, -pol, ex.prec)

    def show(self, pol: int) -> str:
        return f"{'L' if pol > 0 else 'U'}{self.s}"


class Sum:
    """Integer-weighted terms, left-folded in the order written."""

    def __init__(self, *terms: tuple[int, object]):
        self.terms = terms
        self.children = tuple(t for _, t in terms)

    def envelope(self, pol: int, ex: "_Expansion") -> "HybridPoly":
        total = None
        for w, t in self.terms:
            p = ex(t, pol if w > 0 else -pol)
            p = p if w == 1 else p.scale_int(w)
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
    seam: int                # cap for the certified crossover: one past the recorded exact range

    def __post_init__(self):  # a t^2 term would not fit the exact value A + B t
        if sum(isinstance(n, Companion) for n in _nodes(self.statement)) > 1:
            raise ValueError(f"{self.id}: at most one companion, and none under a square")

    @property
    def scan_floor(self) -> int:
        """Smallest n (statement coordinates) where the statement is defined: a
        leaf reads q(n - shift), a companion term n^(-a/2)."""
        return max(self.shift, 1 if self.companion else 0)

    @property
    def table_n_max(self) -> int:
        """Smallest table size verify_theorem accepts for this theorem."""
        return self.seam + self.shift + 6

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
                    "ineq1", 5019),
        # 4 (1 + pi^2/(32 n^3)) q(n) q(n+2) > q(n-1) q(n+3) + 3 q(n+1)^2
        TheoremSpec("A-companion", "1.3", 279, 1, 14,
                    Sum((4, Companion(Mul(Q(1), Q(3)), Fraction(1, 32), 2, 0, 6, slack=1)),
                        (-1, Mul(Q(0), Q(4))), (-3, Sq(Q(2)))),
                    "ineq2", 5885),
        # B(q(n-1), ..., q(n+3)) > 0
        TheoremSpec("B", "1.4", 272, 1, 24,
                    Sum((1, Mul(Sq(Q(2)), Q(2))), (1, Mul(Q(0), Sq(Q(3)))), (1, Mul(Sq(Q(1)), Q(4))),
                        (-1, Mul(Mul(Q(0), Q(2)), Q(4))), (-2, Mul(Mul(Q(1), Q(2)), Q(3)))),
                    "ineq3", 18502),
        # (1 + pi^3/(288 sqrt3 n^{9/2})) (2 q(n)q(n+1)q(n+2) + q(n-1)q(n+1)q(n+3))
        #   > q(n+1)^3 + q(n-1)q(n+2)^2 + q(n)^2 q(n+3);  pi^3/(288 sqrt3) = pi^3 sqrt3/864
        TheoremSpec("B-companion", "1.5", 309, 1, 24,
                    Sum((1, Companion(Sum((1, Mul(Mul(Q(0), Q(2)), Q(4))), (2, Mul(Mul(Q(1), Q(2)), Q(3)))),
                                      Fraction(1, 864), 3, 1, 9, slack=Fraction(1, 4))),
                        (-1, Mul(Sq(Q(2)), Q(2))), (-1, Mul(Q(0), Sq(Q(3)))), (-1, Mul(Sq(Q(1)), Q(4)))),
                    "ineq4", 18502),
        # T(n)^2 > T(n-1) T(n+1), T(n) = q(n)^2 - q(n-1) q(n+1)
        TheoremSpec("double-turan", "1.6", 273, 2, 14,
                    Sum((1, Sq(_turan(2))), (-1, Mul(_turan(1), _turan(3)))),
                    "ineq5", 5019),
        # T(n)^2 < T(n-1) T(n+1) (1 + pi/(2 sqrt3 n^{3/2}));  pi/(2 sqrt3) = pi sqrt3/6
        TheoremSpec("double-turan-companion", "1.7", 346, 2, 14,
                    Sum((1, Mul(Companion(_turan(1), Fraction(1, 6), 1, 1, 3, slack=1), _turan(3))),
                        (-1, Sq(_turan(2)))),
                    "ineq6", 7056),
        # 10 q(n+3)^2 + 6 q(n+1) q(n+5) > 15 q(n+2) q(n+4) + q(n) q(n+6)
        TheoremSpec("laguerre3", "1.8", 651, 0, 24,
                    Sum((10, Sq(Q(3))), (6, Mul(Q(1), Q(5))), (-15, Mul(Q(2), Q(4))), (-1, Mul(Q(0), Q(6)))),
                    "ineq-L3", 18502),
        # 10 q(n+3)^2 + 6 q(n+1) q(n+5) < (15 q(n+2) q(n+4) + q(n) q(n+6))
        #   (1 + 5 pi^3/(256 sqrt3 n^{9/2}));  5 pi^3/(256 sqrt3) = 5 pi^3 sqrt3/768
        TheoremSpec("laguerre3-companion", "1.9", 715, 0, 24,
                    Sum((1, Companion(Sum((15, Mul(Q(2), Q(4))), (1, Mul(Q(0), Q(6)))), Fraction(5, 768), 3, 1, 9)),
                        (-10, Sq(Q(3))), (-6, Mul(Q(1), Q(5)))),
                    "ineq-c-L3", 18502),
    ]
}

INEQUALITIES: dict[str, str] = {t.ineq_id: t.id for t in THEOREMS.values()}


# -- the exact predicate: one block program, integer sign decisions --------------


@lru_cache(maxsize=None)
def _program(statement) -> tuple[list, tuple, tuple | None]:
    """The statement as a straight-line program over one block, register 0 the
    table q: each step (op, args, drops) folds its operands (w, register, start)
    by op into the next register, as far as they all reach, then drops the
    registers it read last.  A subterm is keyed with its leaves moved down by its
    lowest, s, so its shifted repeats are one step that readers take at start s.
    Returns the steps and the (register, start) of A and of B (None: B = 0)."""
    reg = {}  # step (op, args) -> its register, each after the steps it reads

    def term(op, parts):  # parts (w, (register, s)); a sum of one unit part is that part
        if op is add and [w for w, _ in parts] in ([], [1]):
            return parts[0][1] if parts else None
        s = min(o for _, (_, o) in parts)
        return reg.setdefault((op, tuple((w, x, o - s) for w, (x, o) in parts)), len(reg) + 1), s

    def split(x):  # (A, B) of node x
        if isinstance(x, Q):
            return (0, x.s), None
        if isinstance(x, Companion):
            return (split(x.children[0])[0],) * 2
        if isinstance(x, Sum):
            ab = [(w, split(c)) for w, c in x.terms]
            return term(add, [(w, a) for w, (a, _) in ab]), term(add, [(w, b) for w, (_, b) in ab if b])
        (a1, b1), (a2, b2) = map(split, x.children)  # B = b1 a2 + a1 b2, A's own step when b1 is a1
        return term(mul, [(1, a1), (1, a2)]), term(add, [(1, term(mul, [(1, u), (1, v)]))
                                                         for u, v in ((b1, a2), (a1, b2)) if u and v])

    refs, steps = split(statement), list(reg)
    last, keep = {x: i for i, (_, args) in enumerate(steps) for _, x, _ in args}, {r[0] for r in refs if r}
    return [st + ([x for x, j in last.items() if j == i and x not in keep],) for i, st in enumerate(steps)], *refs


def _run(program, q: list[int], m: int) -> tuple[list[int], list[int] | None]:
    """Lists A and B of the statement at m indices, q the table from the first n0."""
    steps, a, b = program
    regs = [q]
    for op, ((w, x, i), *rest), drops in steps:
        acc = regs[x][i:] if w == 1 else [w * v for v in regs[x][i:]]
        for w, y, j in rest:  # products have unit weights; a sum subtracts at weight -1
            ys = regs[y][j:]
            acc = (list(map(op, acc, ys)) if w == 1 else list(map(sub, acc, ys)) if w == -1 else
                   [u + w * v for u, v in zip(acc, ys)])
        regs.append(acc)
        for x in drops:
            regs[x] = None
    return tuple(r and regs[r[0]][r[1] : r[1] + m] for r in (a, b))


@lru_cache(maxsize=None)
def _c2_bracket(comp: Companion, prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Rational bracket of c^2 = r^2 3^j pi^{2i} as integer ratios: only pi^{2i} needs an enclosure."""
    k = comp.r * comp.r * 3**comp.j
    pi_2i = enclose_pi(prec).pow_int(2 * comp.i, prec)
    return tuple((k * f).as_integer_ratio() for f in pi_2i.to_fractions())


def _positive(a: int, b: int, n: int, comp: Companion, c2) -> bool:
    """A + B t > 0 at index n, t > 0; opposite signs compare B^2 c^2 with A^2 n^a, c2 being
    _c2_bracket(comp, _C2_BITS).  First on brackets: with s = bitlen|A| - 64 > 0, |A| lies in
    [ah, ah + 1) 2^s and |B| in [bh, bh + 1) 2^s.  Only when they leave it open are the exact
    squares compared, c2 refined by doubling the bits only while it does not decide."""
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:  # same signs; A = B = 0 is not positive
        return a + b > 0
    na, ((lo_p, lo_q), (hi_p, hi_q)) = n**comp.a, c2
    if (s := abs(a).bit_length() - 64) > 0:
        ah, bh = abs(a) >> s, abs(b) >> s
        if bh * bh * lo_p > (ah + 1) ** 2 * na * lo_q:  # B t > |A|
            return b > 0
        if (bh + 1) ** 2 * hi_p < ah * ah * na * hi_q:  # B t < |A|
            return a > 0
    bb, rhs, prec = b * b, a * a * na, _C2_BITS
    while True:
        if bb * lo_p > rhs * lo_q:
            return b > 0
        if bb * hi_p < rhs * hi_q:
            return a > 0
        if (lo_p, lo_q) == (hi_p, hi_q):  # c^2 rational: A + B t = 0
            return False
        prec *= 2
        (lo_p, lo_q), (hi_p, hi_q) = _c2_bracket(comp, prec)


# -- hybrid polynomials (ring part + interval corrections) --------------------


class _Exact(dict):
    """The exact ring parts of a HybridPoly below degree n: part d is
    computed by rule(d) on first request and kept.  A rule reads other
    stores only, never interval data.  A shared store is kept in _RING_PARTS."""

    __slots__ = ("n", "rule", "shared")

    def __init__(self, n: int, rule, parts=(), shared: bool = False):
        super().__init__(parts)
        self.n, self.rule, self.shared = n, rule, shared

    def __missing__(self, d: int) -> RingElem:
        if not 0 <= d < self.n:
            raise IndexError(f"x^{d} outside the exact prefix 0..{self.n - 1}")
        part = self[d] = self.rule(d)
        return part


# Every shared ring part (exact store, enclosures) built in this process: a leaf's per
# (s, N, prec), a product of two shared stores' per (their ids, first box degree, prec).
_RING_PARTS: dict[tuple, tuple[_Exact, list[tuple[int, int]]]] = {}


def _product_part(k: int, a: _Exact, b: _Exact) -> RingElem:
    """Degree k of a b over one common denominator; a square (b is a)
    pairs each term once, weight 2 off the diagonal.  Operand parts at or
    above n count as zero: the product's length keeps reads of a
    truncated prefix below its n."""
    square = a is b
    top = min(k // 2 + 1 if square else k + 1, a.n)
    lhs = [i for i in range(max(0, k - b.n + 1), top) if not a[i].is_zero]
    return sum_of_products([(a[i], b[k - i]) for i in lhs], [2 if square and 2 * i != k else 1 for i in lhs])


class HybridPoly:
    """Polynomial in x whose coefficient k is ring part k + err(k),
    err a (possibly zero) interval correction.  Contains the exact
    shifted inequality polynomial whenever the corrections contain the
    exact error radii.  ring_pairs encloses the ring part at every degree
    and errs holds the corrections, all integer pairs at 2^-(prec + 16).
    The exact parts reach a product's first error box, the furthest the
    certifier strips symbolic zeros, and each is computed only when its
    enclosure cannot decide a zero test.  The ring part (exact store and
    ring_pairs) is shared, built once per _RING_PARTS key; errs never is."""

    __slots__ = ("_exact", "ring_pairs", "errs", "prec")

    def __init__(self, ring_parts: list[RingElem] | _Exact, errs: dict[int, tuple[int, int]], prec: int,
                 ring_pairs: list[tuple[int, int]] | None = None):
        if not isinstance(ring_parts, _Exact):  # every part given
            ring_pairs = ring_pairs or [r.fixed(prec) for r in ring_parts]
            ring_parts = _Exact(len(ring_parts), None, enumerate(ring_parts))
        self._exact, self.ring_pairs, self.prec = ring_parts, ring_pairs, prec
        self.errs = {d: e for d, e in errs.items() if e != (0, 0)}

    @property
    def degree(self) -> int:
        return len(self.ring_pairs) - 1

    def _exact_len(self, n: int) -> int:
        """Length of the exact prefix, as seen from a result of length n."""
        k = self._exact.n
        return k if k < len(self.ring_pairs) else n

    def _is_zero(self, d: int) -> bool:
        """Whether ring part d is zero (False past the exact prefix).  A ring
        element is zero iff its value is, so an enclosure excluding 0 proves
        nonzero and (0, 0) zero; only one straddling 0 reads the part."""
        lo, hi = self.ring_pairs[d]
        if lo > 0 or hi < 0:
            return False
        if lo == hi == 0:
            return True
        return d < self._exact.n and self._exact[d].is_zero

    def _not_point_zero(self) -> list[tuple[int, tuple[int, int]]]:
        """(degree, enclosure) where the enclosure is not (0, 0)."""
        return [(d, p) for d, p in enumerate(self.ring_pairs) if p != (0, 0)]

    def _nonzero(self) -> list[tuple[int, tuple[int, int]]]:
        """(degree, enclosure) where the ring part may be nonzero."""
        return [(d, p) for d, p in enumerate(self.ring_pairs) if not self._is_zero(d)]

    @staticmethod
    def from_envelope(s: int, N: int, side: int, prec: int) -> "HybridPoly":
        """The side (+1 upper, -1 lower) envelope, its radius entered as the
        box [0, err] or [-err, 0]: the box contains the exact radius, so
        positivity of the family implies the exact inequality."""
        poly = bound_poly(s, N, side, prec)
        err_box = Interval(Dyadic(0), poly.err) if side > 0 else Interval(-poly.err, Dyadic(0))
        key = s, N, prec
        if key not in _RING_PARTS:  # the sides differ only in the box: one ring part for both
            _RING_PARTS[key] = (_Exact(N + 2, None, enumerate(poly.coeffs + (ZERO_ELEM,)), True),
                                list(poly.coeff_pairs) + [(0, 0)])
        exact, ring_pairs = _RING_PARTS[key]
        return HybridPoly(exact, {N + 1: err_box.fixed(prec)}, prec, ring_pairs)

    @staticmethod
    def from_ring_monomials(monomials: dict[int, RingElem], prec: int) -> "HybridPoly":
        return HybridPoly([monomials.get(d, ZERO_ELEM) for d in range(max(monomials) + 1)], {}, prec)

    def mul(self, other: "HybridPoly") -> "HybridPoly":
        p, w = self.prec, self.prec + GUARD
        n_out = len(self.ring_pairs) + len(other.ring_pairs) - 1
        # error boxes: ring x box, box x ring and box x box, summed exactly
        lo, hi = [0] * n_out, [0] * n_out
        convolve(lo, hi, other.errs.items(), self._not_point_zero())
        convolve(lo, hi, self.errs.items(), other._not_point_zero())
        convolve(lo, hi, self.errs.items(), other.errs.items())
        errs_out = {d: e for d, e in enumerate(round_out(lo, hi, w)) if lo[d] or hi[d]}
        first_box = min(errs_out, default=n_out)
        # the ring part depends on the operands' and the first box alone, so
        # both polarities of a subterm share one; the enclosures' convolution
        # contains the exact ring product, far cheaper than evaluating it
        a, b = self._exact, other._exact
        key = id(a), id(b), first_box, p
        if (part := _RING_PARTS.get(key)) is None:
            lo, hi = [0] * n_out, [0] * n_out
            convolve(lo, hi, self._nonzero(), other._nonzero())
            # exact parts up to the first error box, each convolved on demand;
            # the rule holds both operand stores, so the ids in key stay theirs
            exact = _Exact(min(self._exact_len(n_out), other._exact_len(n_out), first_box + 1),
                           lambda k: _product_part(k, a, b), (), a.shared and b.shared)
            part = exact, round_out(lo, hi, w)
            if exact.shared:  # sums, scalings and companion factors are built per call
                _RING_PARTS[key] = part
        exact, pairs_out = part
        return HybridPoly(exact, errs_out, p, pairs_out)

    def add(self, other: "HybridPoly") -> "HybridPoly":
        n = max(len(self.ring_pairs), len(other.ring_pairs))
        a, b = self._exact, other._exact
        exact = _Exact(min(self._exact_len(n), other._exact_len(n)),
                       lambda d: (a[d] if d < a.n else ZERO_ELEM) + (b[d] if d < b.n else ZERO_ELEM))
        pairs_out = [(x + u, y + v) for (x, y), (u, v) in
                     zip_longest(self.ring_pairs, other.ring_pairs, fillvalue=(0, 0))]
        errs_out = dict(self.errs)
        for d, (u, v) in other.errs.items():
            x, y = errs_out.get(d, (0, 0))
            errs_out[d] = x + u, y + v
        return HybridPoly(exact, errs_out, self.prec, pairs_out)

    def scale_int(self, c: int) -> "HybridPoly":
        def scaled(pair):
            lo, hi = c * pair[0], c * pair[1]
            return (lo, hi) if c >= 0 else (hi, lo)

        a = self._exact
        return HybridPoly(_Exact(a.n, lambda d: a[d].scale(c)), {d: scaled(e) for d, e in self.errs.items()},
                          self.prec, list(map(scaled, self.ring_pairs)))

    def coeff_pairs(self) -> list[tuple[int, int]]:
        """Per-degree enclosure: ring value plus correction box."""
        out = list(self.ring_pairs)
        for d, (u, v) in self.errs.items():
            x, y = out[d]
            out[d] = x + u, y + v
        return out


# -- inequality construction ---------------------------------------------------


@dataclass(frozen=True)
class IneqPoly:
    poly: HybridPoly
    x0: Dyadic          # validity radius: round-up of window^{-1/2}
    window: int         # largest envelope floor among the shifts involved
    side_lemma: Certificate | None = None  # the first side lemma not proved, if any

    @cached_property
    def fixed(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """horner's coefficients (ring part plus box) and the boxes' widths:
        read once per expansion, not once per certifier trial."""
        poly = self.poly
        widths = [(hi - lo, hi - lo) for lo, hi in (poly.errs.get(k, (0, 0)) for k in range(len(poly.ring_pairs)))]
        return poly.coeff_pairs(), widths


class _Expansion:
    """One expansion of a statement, collecting the operands whose
    positivity the products need and the lower envelopes already built
    for them."""

    def __init__(self, spec: TheoremSpec, prec: int):
        self.N, self.shift, self.prec = spec.N, spec.shift, prec
        self.window = window_max(spec.N, spec.shifts, prec)
        self.x0 = x_of(self.window, prec).hi
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
            cert = certify_positive(IneqPoly(poly, self.x0, self.window), self.x0)
            if not cert.proved:
                cert.reason = f"side lemma {name} not proved: {cert.reason}"
                return cert
        return None


def expand_statement(spec: TheoremSpec, prec: int = DEFAULT_PRECISION) -> IneqPoly:
    """Expand the theorem's statement into a single hybrid polynomial.

    L and U envelopes enter with the exact ring coefficients; every
    error radius enters as a one-sided box so the expansion contains the
    exact polynomial for the true radii (see HybridPoly.from_envelope).
    """
    ex = _Expansion(spec, prec)
    poly = ex(spec.statement, 1)
    return IneqPoly(poly, ex.x0, ex.window, ex.side_lemma())


def _ineq_spec(ineq_id: str) -> TheoremSpec:
    if ineq_id not in INEQUALITIES:
        raise ValueError(f"unknown inequality id: {ineq_id!r}")
    return THEOREMS[INEQUALITIES[ineq_id]]


def build_ineq(ineq_id: str, prec: int = DEFAULT_PRECISION) -> IneqPoly:
    """expand_statement for the theorem of an inequality id, cached once per
    (ineq_id, prec) however the arguments are passed."""
    return _built(ineq_id, prec)


@lru_cache(maxsize=None)
def _built(ineq_id: str, prec: int) -> IneqPoly:
    return expand_statement(_ineq_spec(ineq_id), prec)


build_ineq.cache_clear = _built.cache_clear


# -- positivity certification --------------------------------------------------


@dataclass
class Certificate:
    status: str                       # "proved" or "inconclusive"
    x_star: Dyadic
    n_star: int
    leading_zero_degree: int
    prec: int
    reason: str = ""
    negative_witness: tuple[float, float] | None = None
    reduced_coeffs: list[tuple[int, int]] = field(default_factory=list, repr=False)
    subdivision_count = 0  # one range check, no bisection: kept for the report format

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
            "max_depth_hit": False,
            "precision_bits": self.prec,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.negative_witness:
            out["negative_witness_x"] = list(self.negative_witness)
        return out


def certify_positive(ineq: IneqPoly, x0: Dyadic) -> Certificate:
    """Prove the hybrid polynomial strictly positive on (0, x0].

    Strategy: (i) strip leading coefficients that are symbolic ring
    zeros with no correction box; (ii) require the next coefficient
    to be certifiably positive; (iii) one interval Horner of the reduced
    polynomial over all of [0, x0].  When that range is not positive,
    the end x0 is evaluated as a point (the end 0 is the constant term of
    (ii)): a certified negative value is an honest counterexample for
    the whole coefficient family; a value that is not positive is
    "boxed family not positive" when the correction boxes, sized at this
    precision, alone explain it, and "rounding hides the sign" otherwise.
    With both ends positive the trial is inconclusive, never proved.
    """
    if x0.sign <= 0:
        raise ValueError(f"x0 must be > 0 (the interval is (0, x0]), got {float(x0)}")
    if x0 > ineq.x0:
        raise ValueError(f"x0={float(x0)} beyond validity radius {float(ineq.x0)}")
    poly = ineq.poly
    prec = poly.prec
    fixed, widths = ineq.fixed
    d = 0
    while d < len(fixed) and d not in poly.errs:
        if d >= poly._exact.n:
            raise ArithmeticError(f"symbolic zeros run past the exact prefix at x^{d}")
        if not poly._is_zero(d):
            break
        d += 1
    base = Certificate(status="inconclusive", x_star=x0, n_star=_n_of_x(x0), leading_zero_degree=d, prec=prec)
    if ineq.side_lemma is not None:
        base.reason = ineq.side_lemma.reason
        return base
    if d >= len(fixed):
        base.reason = "polynomial is identically zero"
        return base
    fixed = base.reduced_coeffs = fixed[d:]
    if fixed[0][0] <= 0:
        base.reason = f"constant term after stripping x^{d} is not certifiably positive"
        return base
    if horner(fixed, Interval(Dyadic(0), x0), prec).is_positive:
        base.status = "proved"
        return base
    point = horner(fixed, Interval.point(x0), prec)
    if point.is_negative:
        base.reason = f"certified negative at x={float(x0)}"
        base.negative_witness = (float(x0), float(x0))
    elif not point.is_positive:
        # The family's values at x0 fill a subinterval of `point` as wide
        # as the boxes make it, so its lowest member is <= point.hi - width.
        hidden = point.hi > horner(widths[d:], Interval.point(x0), prec).lo
        base.reason = f"{'rounding hides the sign' if hidden else 'boxed family not positive'} at x={float(x0)}"
    else:
        base.reason = f"range enclosure not positive on (0, {float(x0)}] though both ends are"
    return base


def _n_of_x(x: Dyadic) -> int:
    """Smallest integer n with n^{-1/2} <= x, i.e. ceil(x^-2)."""
    f = x.to_fraction()
    inv_sq = Fraction(f.denominator**2, f.numerator**2)
    return -(-inv_sq.numerator // inv_sq.denominator)


def certify_inequality(
    ineq_id: str,
    n_star: int | None = None,
    prec: int = DEFAULT_PRECISION,
) -> Certificate:
    """Certify positivity for all n >= n_star (default: the envelope
    validity window) at precision prec.  n_star is checked against the
    window before anything is expanded."""
    spec = _ineq_spec(ineq_id)
    window = window_max(spec.N, spec.shifts, prec)
    target = window if n_star is None else n_star
    if target < window:
        raise ValueError(f"n_star={target} below envelope validity window {window}")
    cert = certify_positive(build_ineq(ineq_id, prec), x_of(target, prec).hi)
    cert.n_star = max(cert.n_star, target)
    return cert


def find_crossover(theorem_id: str, prec: int = DEFAULT_PRECISION) -> tuple[int, Certificate]:
    """Smallest certifiable crossover n_star for the theorem's
    inequality, searched upward from the envelope validity window and
    capped by the theorem's seam.

    Certifying below the window is meaningless (the envelopes are not
    valid there), so the window is the best possible answer.  When it
    fails, the seam is tried next; if the seam is certified, the search
    bisects between the two down to the smallest n_star this certifier
    can prove, and if it is not, the seam is returned with that failure.
    """
    spec = THEOREMS[theorem_id]
    window = window_max(spec.N, spec.shifts, prec)
    if window > spec.seam:
        raise ValueError(
            f"envelope validity window {window} of {theorem_id} at {prec} bits "
            f"lies above its seam {spec.seam}"
        )
    cert = certify_inequality(spec.ineq_id, window, prec)
    if cert.proved:
        return window, cert
    bad, good = window, spec.seam
    good_cert = certify_inequality(spec.ineq_id, good, prec)
    if not good_cert.proved:
        good_cert.reason = f"not certifiable even at the seam {good}: " + good_cert.reason
        return good, good_cert
    while good - bad > 1:
        mid = (good + bad) // 2
        cert_try = certify_inequality(spec.ineq_id, mid, prec)
        if cert_try.proved:
            good, good_cert = mid, cert_try
        else:
            bad = mid
    return good, good_cert


# -- exact verification ----------------------------------------------------------


def exact_verify(theorem_id: str, table: QTable, lo: int, hi: int, *, shifted: bool = True) -> list[int]:
    """Indices n in lo..hi where the theorem's statement fails, decided
    exactly in integers: the statement's program (_program, shifted repeats
    of a subterm computed once) runs BLOCK indices at a time, and a companion
    sign is decided on 64-bit brackets of A and B before the exact squares.

    lo/hi are in shifted coordinates (those of the certified polynomial)
    unless shifted=False; returned violations are in statement
    coordinates.
    """
    spec = THEOREMS[theorem_id]
    start, count = lo + (spec.shift if shifted else 0), hi - lo + 1
    if count <= 0:
        return []
    n0, width, comp = start - spec.shift, spec.shifts[-1], spec.companion
    for n in (n0, n0 + count - 1):  # the first and last windows: reads outside the table raise here
        table.window(n, width + 1)
    c2, program = comp and _c2_bracket(comp, _C2_BITS), _program(spec.statement)  # read once per scan
    found = []
    for i in range(0, count, BLOCK):
        m = min(BLOCK, count - i)
        a, b = _run(program, table.values[n0 + i : n0 + i + m + width], m)
        ns = range(start + i, start + i + m)
        if b is None:  # no companion: B = 0
            found += [n for n, x in zip(ns, a, strict=True) if x <= 0]
        else:
            found += [n for n, x, y in zip(ns, a, b, strict=True) if not _positive(x, y, n, comp, c2)]
    return found


def sharpness_scan(theorem_id: str, table: QTable) -> list[int]:
    """All violations of the statement strictly below its stated threshold."""
    spec = THEOREMS[theorem_id]
    return exact_verify(theorem_id, table, spec.scan_floor, spec.threshold - 1, shifted=False)


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
            "subdivisions": self.certificate.subdivision_count,
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
    prec: int = DEFAULT_PRECISION,
    threshold_override: int | None = None,
) -> VerificationReport:
    """End-to-end verification: certified crossover, exact range up to
    it with no gap, and the sharpness scan below the threshold.

    Both exact parts come from one scan in statement coordinates, split
    at the threshold: the violations at or above it are the exact
    range's, the largest one below it is the sharpness witness.
    threshold_override replaces the stated threshold in that split
    (used to verify documented errata; ValueError below scan_floor or
    when the scan would read past the table, before any search); the
    certified regime is unaffected.
    """
    spec = THEOREMS[theorem_id]
    threshold = spec.threshold if threshold_override is None else threshold_override
    t0 = time.perf_counter()
    if threshold < spec.scan_floor:
        raise ValueError(f"threshold {threshold} below the scan floor {spec.scan_floor} of {theorem_id}")
    if table.n_max < spec.table_n_max:
        raise ValueError(f"table covers 0..{table.n_max}, need {spec.table_n_max} for {theorem_id}")
    top = max(threshold - 1, spec.seam - 1 + spec.shift) - spec.shift + spec.shifts[-1]  # n_star <= seam
    if top > table.n_max:
        raise ValueError(f"threshold {threshold} of {theorem_id} scans q({top}), past the table 0..{table.n_max}")
    n_star, cert = find_crossover(theorem_id, prec)
    exact_lo = threshold - spec.shift
    exact_hi = n_star - 1
    found = exact_verify(theorem_id, table, spec.scan_floor, max(threshold - 1, exact_hi + spec.shift),
                         shifted=False)
    violations = [n for n in found if n >= threshold]
    witness = max((n for n in found if n < threshold), default=None)
    if not cert.proved:
        status = "inconclusive" if cert.negative_witness is None else "fail"
    else:
        status = "pass" if not violations else "fail"
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
        certificate=cert,
        seconds=time.perf_counter() - t0,
        holds_from=max(violations) + 1 if violations else None,
    )
