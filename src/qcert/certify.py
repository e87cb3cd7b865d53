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
* exact regime: below the certified crossover the same tree, written out once as
  one generated comprehension per block, runs over blocks of indices on the table's
  top bits under one integer error bound, exactly only where that bound leaves a
  sign open; a companion sign is decided by one exact rule at the box's least corner,
  never tied.

The certified crossover n_star is searched upward from the envelope
validity window and is capped by the seam recorded for each theorem
(one past the end of the exact range); verification fails loudly if the
two regimes do not meet.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf, isqrt

from .bounds import bound_poly, window_max, x_of
from .intervals import DEFAULT_PRECISION, GUARD, Dyadic, Interval, convolve, horner, round_out
from .qtable import QTable, _read_only
from .ring import ZERO_ELEM, RingElem, sum_of_products

__all__ = [
    "Q", "Sum", "Mul", "Sq", "Companion", "TheoremSpec", "THEOREMS", "INEQUALITIES",
    "IneqPoly", "expand_statement", "build_ineq", "Certificate", "certify_positive", "certify_inequality",
    "find_crossover", "exact_verify", "sharpness_scan", "VerificationReport", "verify_theorem",
]

BLOCK = 128  # indices per exact-scan block: 512 gained no reliable time for 0.6 MB more peak RSS
_C2_BITS = 32  # the scans' first c^2 bracket: every scanned index has |B^2 c^2 - A^2 n^a| >= 2^-8.6 A^2 n^a
_SCAN_BITS = 96  # each scan block runs on its table slice's top 96 bits first (_truncation)


# -- theorem statements ---------------------------------------------------------

# Each theorem is written once, as an expression tree over the leaves
# q(n0 + s), n0 = n - shift.  Exactly, its kernel (_source) gives A and B at the
# indices of a block of the table q from the first n0: the statement's value is
# A + B t, t = r pi^i sqrt3^j n^{-a/2} the companion term (B None without
# one).  As an envelope _Expansion walks it to a hybrid polynomial in x = n0^{-1/2}:
# a leaf becomes L(s) at positive polarity and U(s) at negative polarity, a
# negative weight flips the polarity, and a node is expanded once per polarity.
# A sum is exact and products evaluate in the order written, which fixes every
# rounding of the expansion.  Nodes are frozen values, equal when their structure
# is: a subterm written twice, in one theorem or in two, is one node.


def _paren(node, pol: int) -> str:
    text = node.show(pol)
    return f"({text})" if isinstance(node, Sum) else text


class _Node:
    """Base of the statement nodes: each __init__ sets its fields once, with their
    tuple (the key) that equality and hashing read, the hash computed once."""

    def _set(self, key: tuple, **fields) -> None:
        vars(self).update(fields, _key=key, _hash=hash(key))

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        return type(other) is type(self) and self._key == other._key

    def __hash__(self):
        return self._hash


class Q(_Node):
    """Leaf q(n0 + s)."""

    children = ()

    def __init__(self, s: int):
        if s < 0:  # a kernel slice q[s:s+m] would read from the end of the block
            raise ValueError(f"a leaf q(n0 + s) needs s >= 0, got {s}")
        self._set((s,), s=s)

    def show(self, pol: int) -> str:
        return f"{'L' if pol > 0 else 'U'}{self.s}"


class Sum(_Node):
    """Integer-weighted terms, summed exactly in one step."""

    children = property(lambda self: tuple(t for _, t in self.terms))

    def __init__(self, *terms: tuple[int, object]):
        if not terms:  # no degree for the scans' error bound, no term for weighted_sum
            raise ValueError("a Sum needs at least one term")
        if bad := [w for w, _ in terms if not isinstance(w, int)]:  # the kernels compute in integers
            raise ValueError(f"a Sum weight must be an int, got {bad[0]!r}")
        self._set((terms,), terms=terms)

    def show(self, pol: int) -> str:
        parts = []
        for w, t in self.terms:
            coef = "" if abs(w) == 1 else f"{abs(w)} "
            parts.append(("- " if w < 0 else "+ ") + coef + _paren(t, pol if w > 0 else -pol))
        return " ".join(parts).removeprefix("+ ")


class Mul(_Node):
    """Binary product, evaluated as written; a square is the product of two equal terms."""

    children = property(lambda self: (self.a, self.b))

    def __init__(self, a, b):
        self._set((a, b), a=a, b=b)

    def show(self, pol: int) -> str:
        return f"{_paren(self.a, pol)}^2" if self.a == self.b else f"{_paren(self.a, pol)} {_paren(self.b, pol)}"


def Sq(x) -> Mul:
    """Square: the product of x with itself, which one expansion builds once."""
    return Mul(x, x)


class Companion(_Node):
    """body (1 + t), t = r pi^i sqrt3^j n^{-a/2} in statement coordinates.

    In the envelope variable n = n0 + shift, so t = c x^a (1 + shift x^2)^{-a/2}
    with c = r pi^i sqrt3^j.  Bernoulli's inequality (1 + y)^{-a/2} >= 1 - (a/2) y
    bounds t below by c x^a - slack x^{a+1} on (0, x0] whenever
    slack >= c (a/2) shift x0, which the expansion checks in rationals.
    F = 1 + c x^a - slack x^{a+1} times body's lower envelope bounds (1 + t) body
    below only if c > 0 (r > 0, checked here) and F > 0 on (0, x0] (slack x0^{a+1}
    < 1, checked in the expansion).  coeff is c, derived from r, i and j: not
    part of the key.
    """

    children = property(lambda self: (self.body,))

    def __init__(self, body, r: Fraction, i: int, j: int, a: int, slack: Fraction = Fraction(0)):
        if r <= 0:
            raise ValueError(f"a companion term r pi^i sqrt3^j n^(-a/2) needs r > 0, got {r}")
        if a < 0:
            raise ValueError(f"a companion term r pi^i sqrt3^j n^(-a/2) needs a >= 0, got {a}")
        self._set((body, r, i, j, a, slack), body=body, r=r, i=i, j=j, a=a, slack=slack,
                  coeff=RingElem.monomial(i, j, r))

    def show(self, pol: int) -> str:
        slack = f" - {self.slack} x^{self.a + 1}" if self.slack else ""
        return f"(1 + {self.coeff.as_string()} x^{self.a}{slack}) {_paren(self.body, pol)}"


def _nodes(node):
    yield node
    for c in node.children:
        yield from _nodes(c)


def _weight_degree(node) -> tuple[int, int | None]:
    """(W, d): W bounds the sum of |coefficient| over the node's monomials (leaf 1, sum sum_i |w_i| W_i,
    product W_1 W_2, companion its body's); d is their degree, None when a sum mixes degrees."""
    if isinstance(node, (Q, Companion)):
        return _weight_degree(node.children[0]) if node.children else (1, 1)
    if isinstance(node, Sum):
        wd = [(abs(w) * W, d) for w, (W, d) in ((w, _weight_degree(t)) for w, t in node.terms)]
        return sum(W for W, _ in wd), wd[0][1] if len({d for _, d in wd}) == 1 else None
    (w1, d1), (w2, d2) = map(_weight_degree, node.children)
    return w1 * w2, d1 and d2 and d1 + d2


def _turan(k: int) -> Sum:
    """q(n0+k)^2 - q(n0+k-1) q(n0+k+1)."""
    return Sum((1, Sq(Q(k))), (-1, Mul(Q(k - 1), Q(k + 1))))


class TheoremSpec:
    def __init__(self, id: str, label: str, threshold: int, shift: int, N: int, statement, ineq_id: str,
                 seam: int):
        if sum(isinstance(n, Companion) for n in _nodes(statement)) > 1:  # a t^2 term would not fit A + B t
            raise ValueError(f"{id}: at most one companion, and none under a square")
        if _weight_degree(statement)[1] is None:  # the scans' error bound needs one degree
            raise ValueError(f"{id}: the statement is not homogeneous")
        vars(self).update(
            id=id,
            label=label,          # e.g. "1.2" -- used only in reports
            threshold=threshold,  # stated bound: the statement holds for n >= threshold
            shift=shift,          # reindex used by the certified form (n -> n+shift)
            N=N,                  # truncation order of the envelopes
            statement=statement,  # expression tree: the statement is "value > 0"
            ineq_id=ineq_id,
            seam=seam,            # cap for the certified crossover: one past the recorded exact range
        )

    __setattr__ = __delattr__ = _read_only

    @property
    def scan_floor(self) -> int:
        """Smallest n (statement coordinates) where the statement is defined: a
        leaf reads q(n - shift), a companion term n^(-a/2)."""
        return max(self.shift, 1 if self.companion else 0)

    @property
    def table_n_max(self) -> int:
        """Top index verify_theorem reads at the stated threshold: the widest
        leaf at the exact range's top n - shift = seam - 1 (n_star <= seam)."""
        return self.seam - 1 + self.shifts[-1]

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


# -- the exact predicate: one generated kernel per statement, integer sign decisions --


def _shape(node, d: int):
    """node with its leaves moved down by d, its companion's coefficient left out (a kernel reads A and B)."""
    if isinstance(node, Q):
        return node.s - d
    if isinstance(node, Sum):
        return tuple((w, _shape(t, d)) for w, t in node.terms)
    return type(node), *(_shape(c, d) for c in node.children)


def _low(node) -> int:
    return min(n.s for n in _nodes(node) if isinstance(n, Q))


def _text(terms: list, lead: bool = False) -> str:
    """(weight, factor) terms as source, 'x + 2*y - z'; with lead each term carries its sign, ' - z'."""
    out = "".join(f" + {w}*{f}" for w, f in terms).replace("+ -", "- ").replace(" 1*", " ")
    return out if lead else out[3:] if out[1] == "+" else "-" + out[3:]


def _source(statement) -> str:
    """The statement's scan kernel as source: kernel(q, m, E, T), q the table or its top bits from the
    block's first n0, returns the open entries (k, a, b) of m indices, a and b the values of A and B (b None
    without a companion): a <= E, or with one not both b > E and a 2^128 + b T > K = E (2^128 + T).  A subterm
    read at two or more positions (of its lowest leaf) is one register list over the positions its readers
    take; all else is inlined in one comprehension, where B is bound once and read again in A."""
    todo, regs = {None: (statement, {(_low(statement), 0)})}, {}
    while todo:  # larger subterms first: a subterm's readers are all known when it is reached
        key = max(todo, key=lambda s: len(list(_nodes(todo[s][0]))))
        node, uses = todo.pop(key)  # uses: (position, extra length past m) of each reader
        if node.children and len({p for p, _ in uses}) > 1:  # holds no companion: a statement has one at most
            start = min(p for p, _ in uses)
            uses = {(start, max(p + x for p, x in uses) - start)}
            regs[key] = (f"r{len(regs)}", start, node, *uses)
        for c in node.children:
            todo.setdefault(_shape(c, _low(c)), (c, set()))[1].update((p - _low(node) + _low(c), x) for p, x in uses)

    def unit(node, d: int, extra: int) -> tuple[list, list, str, str]:  # (B, R), A = B + R; targets, operands
        reads = {}  # each slice read, over m + extra positions with q(s) at s + d -> its loop variable

        def mul(xs, ys):  # one term, a sum of several in parentheses
            if not xs or not ys:
                return []
            (u, f), (v, g) = (x[0] if len(x) == 1 else (1, f"({_text(x)})") for x in (xs, ys))
            return [(u * v, f"{f}*{g}")]

        def split(x, d):
            reg = x is not node and regs.get(_shape(x, _low(x)))
            if reg or isinstance(x, Q):
                src, at = reg[:2] if reg else ("q", 0)
                at = _low(x) + d - at
                return [], [(1, reads.setdefault(f"{src}[{at}:{at + extra}+m]", f"v{len(reads)}"))]
            if isinstance(x, Companion):
                return sum(split(x.body, d), []), []
            if isinstance(x, Sum):
                parts = [(w, split(t, d)) for w, t in x.terms]
                return tuple([(w * u, f) for w, p in parts for u, f in p[i]] for i in (0, 1))
            (b1, r1), (b2, r2) = split(x.a, d), split(x.b, d)  # B drops the t^2 term b1 b2
            return mul(b1, b2 + r2) + mul(b1 + r1, b2), mul(r1, r2) + [(-w, f) for w, f in mul(b1, b2)]

        b, r = split(node, d)
        return b, r, f"({', '.join(reads.values())},)", f"zip({', '.join(reads)})"

    out = "def kernel(q, m, E, T):\n"
    for name, start, node, (_, extra) in reversed(regs.values()):  # each after the registers it reads
        _, r, vs, zs = unit(node, start - _low(node), extra)
        out += f"    {name} = [{_text(r)} for {vs} in {zs}]\n"
    b, r, vs, zs = unit(statement, 0, 0)
    test = f"not ((x := (y := {_text(b)}){_text(r, True)}) << 128) + y*T > K or y <= E" if b else \
        f"(x := {_text(r)}) <= E"
    return out + "    K = E * ((1 << 128) + T)\n" * bool(b) + \
        f"    return [(k, x, {'y' if b else 'None'}) for k, {vs} in enumerate({zs}) if {test}]\n"


@lru_cache(maxsize=None)
def _kernel(statement):
    """The statement's kernel (_source), compiled once."""
    exec(compile(_source(statement), "<scan kernel>", "exec"), scope := {})
    return scope["kernel"]


@lru_cache(maxsize=None)
def _c2_bracket(comp: Companion, prec: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Bracket of c^2 = r^2 3^j pi^{2i} as integer ratios (p, q): the ring's pair of pi^{2i} at 2^-w,
    w = prec + 16 (RingElem.fixed), times the rational r^2 3^j; for i = 0 the pair is (2^w, 2^w)."""
    k, pair = comp.r * comp.r * 3**comp.j, RingElem.monomial(2 * comp.i, 0, 1).fixed(prec)
    return tuple((k.numerator * v, k.denominator << prec + GUARD) for v in pair)


def _positive(a: int, b: int, n: int, comp: Companion, c2) -> bool:
    """A + B t > 0 at index n, t > 0, decided exactly: opposite signs compare B^2 c^2 with A^2 n^a,
    c2 = _c2_bracket(comp, _C2_BITS) refined by doubling the bits only while it does not decide."""
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:  # same signs; A = B = 0 is not positive
        return a + b > 0
    ((lo_p, lo_q), (hi_p, hi_q)), bb, rhs, prec = c2, b * b, a * a * n**comp.a, _C2_BITS
    while True:
        if bb * lo_p > rhs * lo_q:
            return b > 0
        if bb * hi_p < rhs * hi_q:
            return a > 0
        if (lo_p, lo_q) == (hi_p, hi_q):  # c^2 rational: A + B t = 0
            return False
        prec *= 2
        (lo_p, lo_q), (hi_p, hi_q) = _c2_bracket(comp, prec)


def _truncation(q: list[int], weight: int, degree: int) -> tuple[int, int]:
    """(e, E): a block's kernel runs on h = q >> e, e = max(0, bitlen(max |q|) - _SCAN_BITS), max |q| and
    Q = max |h| from q's least and greatest (a shift keeps order).  Each q is (h + delta) 2^e, 0 <= delta < 1,
    so a degree-d monomial moves by at most (Q + 1)^d - Q^d, and A and B (whose monomials are some of A's) lie
    in [a - E, a + E] and [b - E, b + E] times 2^(d e), a and b the kernel's values on h,
    E = W ((Q + 1)^d - Q^d), (W, d) = _weight_degree; h = q, E = 0 when e = 0."""
    lo, hi = min(q), max(q)
    e = max(0, max(hi, -lo).bit_length() - _SCAN_BITS)
    top = max(hi >> e, -(lo >> e))
    return e, e and weight * ((top + 1) ** degree - top**degree)


def _t_bound(comp: Companion, c2, ns: range) -> int:
    """T <= 2^128 t(n) at every n of ns: t = c n^(-a/2) falls as n grows, and c^2 >= c2's lower end."""
    return isqrt((c2[0][0] << 256) // (c2[0][1] * ns[-1] ** comp.a))


# -- hybrid polynomials (ring part + interval corrections) --------------------


class _Ring(dict):
    """A node's ring part: its exact parts below degree n, each given or computed by rule(d) on first
    request and kept for the node's several readers, and their enclosures pairs, integer pairs at
    2^-(prec + 16), made on first read when given as a function.  A rule reads other ring parts only,
    never interval data.  A ring part given whole is exact at every degree (n is infinite): past its
    given parts every part is zero, as its boxes are kept apart."""

    __slots__ = ("n", "rule", "_pairs")

    def __init__(self, n: float, rule, pairs, parts=()):
        super().__init__(parts)
        self.n, self.rule, self._pairs = n, rule, pairs

    @staticmethod
    def given_whole(parts, pairs) -> "_Ring":
        """The ring part with parts (degree, part), every other part zero, and enclosures pairs."""
        return _Ring(inf, None, pairs, parts)

    def __missing__(self, d: int) -> RingElem:
        if not 0 <= d < self.n:
            raise IndexError(f"x^{d} outside the exact prefix 0..{self.n - 1}")
        if self.rule is None:  # given whole
            return ZERO_ELEM
        part = self[d] = self.rule(d)
        return part

    @property
    def pairs(self) -> list[tuple[int, int]]:
        if callable(self._pairs):
            self._pairs = self._pairs()
        return self._pairs

    def is_zero(self, d: int) -> bool:
        """Whether part d is zero (False past the exact prefix).  A ring
        element is zero iff its value is, so an enclosure excluding 0 proves
        nonzero and (0, 0) zero; only one straddling 0 reads the part."""
        lo, hi = self.pairs[d]
        if lo > 0 or hi < 0:
            return False
        if lo == hi == 0:
            return True
        return d < self.n and self[d].is_zero

    def not_point_zero(self) -> list[tuple[int, tuple[int, int]]]:
        """(degree, enclosure) where the enclosure is not (0, 0)."""
        return [(d, p) for d, p in enumerate(self.pairs) if p != (0, 0)]

    def nonzero(self) -> list[tuple[int, tuple[int, int]]]:
        """(degree, enclosure) where the part may be nonzero."""
        return [(d, p) for d, p in enumerate(self.pairs) if not self.is_zero(d)]


# The ring part of every node expanded in this process, per (node, N, prec).
_RINGS: dict[tuple, _Ring] = {}


def _product_part(k: int, a: _Ring, b: _Ring) -> RingElem:
    """Degree k of a b over one common denominator; a square (b is a)
    pairs each term once, weight 2 off the diagonal."""
    square = a is b
    lhs = [i for i in range(k // 2 + 1 if square else k + 1) if not a[i].is_zero]
    return sum_of_products([(a[i], b[k - i]) for i in lhs], [2 if square and 2 * i != k else 1 for i in lhs])


class HybridPoly:
    """Polynomial in x whose coefficient k is ring part k + err(k),
    err a (possibly zero) interval correction: one ring part (_Ring) and
    the boxes errs, integer pairs at 2^-(prec + 16).  Contains the exact
    shifted inequality polynomial whenever the corrections contain the
    exact error radii.  A product's exact parts reach its first error box,
    the furthest the certifier strips symbolic zeros, and each is computed
    only when its enclosure cannot decide a zero test.  The one mul or
    weighted_sum that builds a node's polynomial makes its ring part, and
    keep holds it once per node; a leaf's and a companion factor's are
    given whole.  An expansion builds errs per call."""

    __slots__ = ("ring", "errs", "prec")

    def __init__(self, ring: _Ring, errs: dict[int, tuple[int, int]], prec: int):
        self.ring, self.prec = ring, prec
        self.errs = {d: e for d, e in errs.items() if e != (0, 0)}

    ring_pairs = property(lambda self: self.ring.pairs)

    def keep(self, key) -> "HybridPoly":
        """This polynomial on the ring part kept for key, (node, N, prec): the ring part of the
        first one built, at either polarity or in an earlier expansion, kept as it is, so the
        parts any reader computes stay.  A node's ring part does not depend on its polarity: leaf
        boxes sit at degree N + 1 at both, and every box contains 0 and has positive width, so no
        sum of boxes cancels to (0, 0); the first box degree, and with it the exact prefix length,
        follows from the structure alone.  A prefix too long or too short would not be unsound
        either: extra parts are still exact, and stripping past a short prefix raises
        ArithmeticError."""
        return HybridPoly(_RINGS.setdefault(key, self.ring), self.errs, self.prec)

    @staticmethod
    def from_envelope(s: int, N: int, side: int, prec: int) -> "HybridPoly":
        """The side (+1 upper, -1 lower) envelope, its radius entered as the
        box [0, err] or [-err, 0]: the box contains the exact radius, so
        positivity of the family implies the exact inequality."""
        poly = bound_poly(s, N, side, prec)
        err_box = Interval(Dyadic(0), poly.err) if side > 0 else Interval(-poly.err, Dyadic(0))
        ring = _Ring.given_whole(enumerate(poly.coeffs), poly.coeff_pairs + ((0, 0),))
        return HybridPoly(ring, {N + 1: err_box.fixed(prec)}, prec)

    @staticmethod
    def from_ring_monomials(monomials: dict[int, RingElem], prec: int) -> "HybridPoly":
        pairs = [(0, 0)] * (max(monomials) + 1)
        for d, r in monomials.items():
            pairs[d] = r.fixed(prec)
        return HybridPoly(_Ring.given_whole(monomials, pairs), {}, prec)

    def mul(self, other: "HybridPoly") -> "HybridPoly":
        a, b = self.ring, other.ring
        n_out, w = len(a.pairs) + len(b.pairs) - 1, self.prec + GUARD
        # error boxes: ring x box, box x ring and box x box, summed exactly
        lo, hi = [0] * n_out, [0] * n_out
        convolve(lo, hi, other.errs.items(), a.not_point_zero())
        convolve(lo, hi, self.errs.items(), b.not_point_zero())
        convolve(lo, hi, self.errs.items(), other.errs.items())
        errs_out = {d: e for d, e in enumerate(round_out(lo, hi, w)) if lo[d] or hi[d]}

        def pairs():  # contains the exact ring product, far cheaper than evaluating it
            lo, hi = [0] * n_out, [0] * n_out
            convolve(lo, hi, a.nonzero(), b.nonzero())
            return round_out(lo, hi, w)

        # exact parts up to the first error box, each convolved on demand
        ring = _Ring(min(a.n, b.n, min(errs_out, default=inf) + 1), lambda k: _product_part(k, a, b), pairs)
        return HybridPoly(ring, errs_out, self.prec)

    @staticmethod
    def weighted_sum(terms: list[tuple[int, "HybridPoly"]]) -> "HybridPoly":
        """The sum of w p over the (w, p) terms, all exact: each ring pair and box is convolve's
        one-term case with the point weight (w, w), summed in integers, and exact part d one
        sum_of_products of the terms' parts paired with their weights, below the shortest of
        their exact prefixes."""
        n = max(len(p.ring_pairs) for _, p in terms)
        lo, hi, err_lo, err_hi = [0] * n, [0] * n, [0] * n, [0] * n
        for w, p in terms:
            convolve(lo, hi, [(0, (w, w))], enumerate(p.ring_pairs))
            convolve(err_lo, err_hi, [(0, (w, w))], p.errs.items())
        rings = [(RingElem.from_rational(w), p.ring) for w, p in terms]
        ring = _Ring(min(r.n for _, r in rings), lambda d: sum_of_products((w, r[d]) for w, r in rings),
                     list(zip(lo, hi)))
        return HybridPoly(ring, dict(enumerate(zip(err_lo, err_hi))), terms[0][1].prec)

    def coeff_pairs(self) -> list[tuple[int, int]]:
        """Per-degree enclosure: ring value plus correction box."""
        out = list(self.ring_pairs)
        for d, (u, v) in self.errs.items():
            x, y = out[d]
            out[d] = x + u, y + v
        return out


# -- inequality construction ---------------------------------------------------


class IneqPoly:
    def __init__(self, poly: HybridPoly, x0: Dyadic, window: int, side_lemma: Certificate | None = None):
        vars(self).update(
            poly=poly,
            x0=x0,                  # validity radius: round-up of window^{-1/2}
            window=window,          # largest envelope floor among the shifts involved
            side_lemma=side_lemma,  # the first side lemma not proved, if any
        )

    __setattr__ = __delattr__ = _read_only

    @cached_property
    def fixed(self) -> list[tuple[int, int]]:
        """horner's coefficients (ring part plus box): read once per
        expansion, not once per certifier trial."""
        return self.poly.coeff_pairs()


class _Expansion:
    """One expansion of a statement: the walker over its tree, with each node's
    polynomial kept per (node, polarity), on the node's one ring part per
    (node, N, prec), and the operands whose positivity the products need.
    The leaves and companion factors come from two hooks."""

    def __init__(self, spec: TheoremSpec, prec: int):
        self.N, self.shift, self.prec = spec.N, spec.shift, prec
        self.window = window_max(spec.N, spec.shifts, prec)
        self.x0 = x_of(self.window, prec).hi
        self.operands: dict[str, object] = {}
        self.memo: dict[tuple[object, int], HybridPoly] = {}

    def __call__(self, node, pol: int) -> HybridPoly:
        """The node's lower (pol > 0) or upper (pol < 0) envelope polynomial."""
        key = node, pol
        if key in self.memo:  # a square's factors, a side lemma's operand at pol > 0
            return self.memo[key]
        if isinstance(node, Q):
            poly = self.leaf(node.s, -pol)
        elif isinstance(node, Sum):  # the terms' own type sums them: an oracle's leaves bring its sum
            terms = [(w, self(t, pol if w > 0 else -pol)) for w, t in node.terms]
            poly = type(terms[0][1]).weighted_sum(terms)
        else:
            for c in node.children:
                if not isinstance(c, Mul):  # a product is positive when its factors are
                    self.operands.setdefault(c.show(1), c)
            if isinstance(node, Companion):
                poly = self.factor(node, pol).mul(self(node.body, pol))
            else:
                poly = self(node.a, pol).mul(self(node.b, pol))
        self.memo[key] = poly = poly.keep((node, self.N, self.prec))
        return poly

    def leaf(self, s: int, side: int) -> HybridPoly:
        return HybridPoly.from_envelope(s, self.N, side, self.prec)

    def factor(self, comp: Companion, pol: int) -> HybridPoly:
        """1 + c x^a - slack x^(a+1), a lower bound of 1 + t on (0, x0] that is positive there."""
        if pol < 0:
            raise ValueError("a companion factor is bounded from below only")
        if not comp.a:  # 1 + c x^0 would take the place of the constant 1
            raise ValueError("a companion factor needs a >= 1, got a = 0")
        slack, c_hi, x0 = comp.slack, comp.coeff.eval_iv(self.prec).hi.to_fraction(), self.x0.to_fraction()
        need = c_hi * comp.a * self.shift * x0 / 2
        if slack < need:
            raise ValueError(f"companion slack {slack} below c (a/2) shift x0 = {float(need):.4g}")
        if slack * x0 ** (comp.a + 1) >= 1:
            raise ValueError(f"companion slack {slack} times x0^{comp.a + 1} is not below 1")
        monomials = {0: RingElem.from_rational(1), comp.a: comp.coeff}
        if slack:
            monomials[comp.a + 1] = RingElem.from_rational(-slack)
        return HybridPoly.from_ring_monomials(monomials, self.prec)

    def side_lemma(self) -> Certificate | None:
        """The first failed side lemma, if any.  A product of bounds bounds
        the product only when the factors are nonnegative, so each operand
        needs its lower envelope proved positive on (0, x0(window)], which
        covers every trial n_star >= window."""
        for name, op in list(self.operands.items()):
            cert = certify_positive(IneqPoly(self(op, 1), self.x0, self.window), self.x0)
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


class Certificate:
    subdivision_count = 0  # one range check, no bisection: kept for the report format

    def __init__(self, status: str, x_star: Dyadic, n_star: int, leading_zero_degree: int, prec: int,
                 reason: str = "", negative_witness: tuple[float, float] | None = None):
        vars(self).update(status=status,  # "proved" or "inconclusive"
                          x_star=x_star, n_star=n_star, leading_zero_degree=leading_zero_degree, prec=prec,
                          reason=reason, negative_witness=negative_witness)

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
    fixed = ineq.fixed
    d = 0
    while d < len(fixed) and d not in poly.errs:
        if d >= poly.ring.n:
            raise ArithmeticError(f"symbolic zeros run past the exact prefix at x^{d}")
        if not poly.ring.is_zero(d):
            break
        d += 1
    base = Certificate(status="inconclusive", x_star=x0, n_star=_n_of_x(x0), leading_zero_degree=d, prec=prec)
    if ineq.side_lemma is not None:
        base.reason = ineq.side_lemma.reason
        return base
    if d >= len(fixed):
        base.reason = "polynomial is identically zero"
        return base
    fixed = fixed[d:]
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
        widths = [(hi - lo, hi - lo) for lo, hi in (poly.errs.get(k, (0, 0)) for k in range(d, len(poly.ring_pairs)))]
        hidden = point.hi > horner(widths, Interval.point(x0), prec).lo
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


def exact_verify(theorem_id: str, table: QTable, lo: int, hi: int) -> list[int]:
    """Statement indices n = n0 + shift, n0 in lo..hi (the certified polynomial's index), where the
    theorem's statement fails, decided exactly in integers.  A nonempty range starting below
    n0 = scan_floor - shift, where the statement is undefined, is a ValueError; reads past the table
    are an IndexError.  The statement's kernel runs BLOCK indices at a time on the table slice's top
    bits (_truncation): an index is positive when a > E, or with a companion when A + B t's least on
    the box, at its corner (a - E, b - E) as t > 0, is positive by the block's bound of t (_t_bound)
    if b > E, or else by _positive.  Only a truncated block's open indices are decided again, on
    exact values."""
    spec = THEOREMS[theorem_id]
    start, count = lo + spec.shift, hi - lo + 1
    if count <= 0:
        return []
    if start < spec.scan_floor:
        raise ValueError(f"{theorem_id}: n0 = {lo} is n = {start}, below the scan floor {spec.scan_floor}")
    width, comp = spec.shifts[-1], spec.companion
    table.window(hi, width + 1)  # the last window (lo >= 0 above): a read past the table raises here
    (weight, degree), kernel, found = _weight_degree(spec.statement), _kernel(spec.statement), []
    c2 = comp and _c2_bracket(comp, _C2_BITS)  # read once per scan
    for i in range(0, count, BLOCK):
        m = min(BLOCK, count - i)
        q, ns = table.values[lo + i : lo + i + m + width], range(start + i, start + i + m)
        (e, err), t = _truncation(q, weight, degree), comp and _t_bound(comp, c2, ns)
        left = [k for k, x, y in kernel([v >> e for v in q] if e else q, m, err, t)
                if not (comp and _positive(x - err, y - err, ns[k], comp, c2))]
        if left and err:  # E > 0: the open indices' exact values decide
            left = [k for k, x, y in kernel(q, m, 0, t)
                    if k in left and not (comp and _positive(x, y, ns[k], comp, c2))]
        found += [ns[k] for k in left]
    return found


def sharpness_scan(theorem_id: str, table: QTable) -> list[int]:
    """All violations of the statement strictly below its stated threshold."""
    spec = THEOREMS[theorem_id]
    return exact_verify(theorem_id, table, spec.scan_floor - spec.shift, spec.threshold - 1 - spec.shift)


# -- full verification -------------------------------------------------------------


class VerificationReport:
    def __init__(self, theorem: str, label: str, threshold: int, shift: int, n_star: int,
                 exact_range: tuple[int, int], exact_violations: list[int], sharpness_witness: int | None,
                 status: str, precision_bits: int, certificate: Certificate, seconds: float,
                 holds_from: int | None = None):
        self.theorem = theorem
        self.label = label
        self.threshold = threshold
        self.shift = shift
        self.n_star = n_star
        self.exact_range = exact_range              # shifted coordinates, as certified
        self.exact_violations = exact_violations    # statement coordinates
        self.sharpness_witness = sharpness_witness
        self.status = status                        # pass / fail / inconclusive
        self.precision_bits = precision_bits
        self.certificate = certificate
        self.seconds = seconds
        self.holds_from = holds_from                # when violations exist: verified fresh start

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

    Both exact parts come from one scan up from the scan floor, split
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
    top = max(threshold - 1 - spec.shift + spec.shifts[-1], spec.table_n_max)  # n_star <= seam
    if top > table.n_max:
        raise ValueError(f"threshold {threshold} of {theorem_id} scans q({top}), past the table 0..{table.n_max}")
    n_star, cert = find_crossover(theorem_id, prec)
    exact_lo = threshold - spec.shift
    exact_hi = n_star - 1
    found = exact_verify(theorem_id, table, spec.scan_floor - spec.shift, max(exact_lo - 1, exact_hi))
    violations = [n for n in found if n >= threshold]
    witness = max((n for n in found if n < threshold), default=None)
    if not cert.proved:
        status = "inconclusive" if cert.negative_witness is None else "fail"
    else:
        status = "pass" if not violations else "fail"
    return VerificationReport(
        theorem=theorem_id, label=spec.label, threshold=threshold, shift=spec.shift, n_star=n_star,
        exact_range=(exact_lo, exact_hi), exact_violations=violations, sharpness_witness=witness,
        status=status, precision_bits=cert.prec, certificate=cert, seconds=time.perf_counter() - t0,
        holds_from=max(violations) + 1 if violations else None,
    )
