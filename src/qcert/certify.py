"""Machine verification of the eight inequality theorems.

Each theorem about q(n) (quartic-invariant positivity, double Turan,
order-3 Laguerre, and their companions) is verified in two regimes that
meet with no gap:

* certified regime: the inequality, rewritten through the L/U envelopes
  in the variable x = n^{-1/2}, becomes a polynomial with exact ring
  coefficients plus interval corrections from the error radii.  Its
  positivity on (0, x0] is proved by stripping symbolically-zero
  leading coefficients (exact ring zero test) and adaptive interval
  bisection -- never by floating point, and "inconclusive" is never
  reported as proved.
* exact regime: below the certified crossover the theorem's literal
  statement is checked value-by-value with big integers; companion
  factors involving pi and square roots are decided by interval
  refinement (they can never be exactly zero, so refinement
  terminates).

The certified crossover n_star is searched upward from the envelope
validity window and is capped by the seam recorded for each theorem
(one past the end of the exact range); verification fails loudly if the
two regimes do not meet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

from .bounds import bound_poly, window_max, x_of
from .enclosures import enclose_pi
from .intervals import Dyadic, Interval, horner
from .qtable import QTable
from .ring import RingElem, ring_eval

__all__ = [
    "invariant_a",
    "invariant_b",
    "invariant_i",
    "laguerre",
    "TheoremSpec",
    "THEOREMS",
    "INEQUALITIES",
    "IneqPoly",
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


# -- sign decisions with interval refinement ---------------------------------


def _decide_sign(make_iv, prec: int = DEFAULT_PREC, max_prec: int = MAX_PREC) -> int:
    """Sign of a nonzero real given by certified enclosures at any
    precision.  Doubles precision until the enclosure clears zero."""
    p = prec
    while True:
        iv = make_iv(p)
        if iv.is_positive:
            return 1
        if iv.is_negative:
            return -1
        if p >= max_prec:
            raise ArithmeticError("sign undecided at maximum precision")
        p *= 2


def _pi_pow(k: int, prec: int) -> Interval:
    return enclose_pi(prec).pow_int(k, prec)


def _sqrt3(prec: int) -> Interval:
    return Interval.point(3).sqrt(prec)


# -- theorem table ------------------------------------------------------------

# The shifted certified inequality for each theorem is a signed
# combination of products of lower (L) / upper (U) envelopes at shifts
# s, optionally multiplied by a companion factor that is an exact
# polynomial in x (ring-element coefficients at fixed degrees).


@dataclass(frozen=True)
class TheoremSpec:
    id: str
    label: str               # e.g. "1.2" -- used only in reports
    threshold: int           # stated bound: the statement holds for n >= threshold
    shift: int               # reindex used by the certified form (n -> n+shift)
    N: int                   # truncation order of the envelopes
    shifts: tuple[int, ...]  # envelope shifts appearing in the inequality
    ineq_id: str
    crossover_paper: int     # the quantifier-elimination cutoff reported alongside
    exact_range: tuple[int, int]  # recorded finite range, in shifted coordinates
    scan_floor: int          # smallest n (statement coordinates) where the predicate is defined

    @property
    def seam(self) -> int:
        """One past the recorded exact range: cap for the certified crossover."""
        return self.exact_range[1] + 1


THEOREMS: dict[str, TheoremSpec] = {
    t.id: t
    for t in [
        TheoremSpec("A", "1.2", 230, 1, 14, (0, 1, 2, 3, 4), "ineq1", 2469, (229, 5018), 1),
        TheoremSpec("A-companion", "1.3", 279, 1, 14, (0, 1, 2, 3, 4), "ineq2", 5885, (278, 5884), 1),
        TheoremSpec("B", "1.4", 272, 1, 24, (0, 1, 2, 3, 4), "ineq3", 9800, (271, 18501), 1),
        TheoremSpec("B-companion", "1.5", 309, 1, 24, (0, 1, 2, 3, 4), "ineq4", 18225, (308, 18501), 1),
        TheoremSpec("double-turan", "1.6", 273, 2, 14, (0, 1, 2, 3, 4), "ineq5", 3153, (271, 5018), 2),
        TheoremSpec("double-turan-companion", "1.7", 346, 2, 14, (0, 1, 2, 3, 4), "ineq6", 7056, (344, 7055), 2),
        TheoremSpec("laguerre3", "1.8", 651, 0, 24, (0, 1, 2, 3, 4, 5, 6), "ineq-L3", 12884, (651, 18501), 0),
        TheoremSpec("laguerre3-companion", "1.9", 715, 0, 24, (0, 1, 2, 3, 4, 5, 6), "ineq-c-L3", 17880, (715, 18501), 1),
    ]
}

INEQUALITIES: dict[str, str] = {t.ineq_id: t.id for t in THEOREMS.values()}


# -- exact predicates in statement coordinates --------------------------------


def _pred_a(table: QTable, n: int, prec: int) -> bool:
    return invariant_a(*table.window(n - 1, 5)) > 0


def _pred_a_companion(table: QTable, n: int, prec: int) -> bool:
    # 4 (1 + pi^2/(32 n^3)) q(n) q(n+2) > q(n-1) q(n+3) + 3 q(n+1)^2
    qm1, q0, q1, q2, q3 = table.window(n - 1, 5)
    p_term = q0 * q2
    base = 4 * p_term - (qm1 * q3 + 3 * q1**2)

    def iv(p):
        return _pi_pow(2, p).mul(
            Interval.from_fraction(Fraction(p_term, 8 * n**3), p), p
        ) + base

    return _decide_sign(iv, prec) > 0


def _pred_b(table: QTable, n: int, prec: int) -> bool:
    return invariant_b(*table.window(n - 1, 5)) > 0


def _pred_b_companion(table: QTable, n: int, prec: int) -> bool:
    # (1 + pi^3/(288 sqrt3 n^{9/2})) (2 q(n)q(n+1)q(n+2) + q(n-1)q(n+1)q(n+3))
    #   > q(n+1)^3 + q(n-1)q(n+2)^2 + q(n)^2 q(n+3)
    qm1, q0, q1, q2, q3 = table.window(n - 1, 5)
    pos = 2 * q0 * q1 * q2 + qm1 * q1 * q3
    base = pos - (q1**3 + qm1 * q2**2 + q0**2 * q3)

    def iv(p):
        # pi^3/(288 sqrt3 n^{9/2}) = pi^3 sqrt3 / (864 n^4 sqrt(n))
        factor = (
            _pi_pow(3, p)
            .mul(_sqrt3(p), p)
            .div(Interval.point(n).sqrt(p).mul(Interval.point(864 * n**4), p), p)
        )
        return factor.mul(Interval.from_fraction(pos, p), p) + base

    return _decide_sign(iv, prec) > 0


def _turan_gaps(table: QTable, n: int) -> tuple[int, int, int]:
    """Second-order Turan expressions at n, n-1 and n+1."""
    qm2, qm1, q0, q1, q2 = table.window(n - 2, 5)
    return q0**2 - qm1 * q1, qm1**2 - qm2 * q0, q1**2 - q0 * q2


def _pred_double_turan(table: QTable, n: int, prec: int) -> bool:
    gap, left, right = _turan_gaps(table, n)
    return gap * gap > left * right


def _pred_double_turan_companion(table: QTable, n: int, prec: int) -> bool:
    # gap^2 < left * right * (1 + pi/(2 sqrt3 n^{3/2}))
    gap, left, right = _turan_gaps(table, n)
    base = left * right - gap * gap

    def iv(p):
        # pi/(2 sqrt3 n^{3/2}) = pi sqrt3/(6 n sqrt n)
        factor = (
            _pi_pow(1, p)
            .mul(_sqrt3(p), p)
            .div(Interval.point(n).sqrt(p).mul(Interval.point(6 * n), p), p)
        )
        return factor.mul(Interval.from_fraction(left * right, p), p) + base

    return _decide_sign(iv, prec) > 0


def _pred_laguerre3(table: QTable, n: int, prec: int) -> bool:
    q0, q1, q2, q3, q4, q5, q6 = table.window(n, 7)
    return 10 * q3**2 + 6 * q1 * q5 > 15 * q2 * q4 + q0 * q6


def _pred_laguerre3_companion(table: QTable, n: int, prec: int) -> bool:
    # 10 q(n+3)^2 + 6 q(n+1) q(n+5)
    #   < (15 q(n+2) q(n+4) + q(n) q(n+6)) (1 + 5 pi^3/(256 sqrt3 n^{9/2}))
    q0, q1, q2, q3, q4, q5, q6 = table.window(n, 7)
    pos = 15 * q2 * q4 + q0 * q6
    base = pos - (10 * q3**2 + 6 * q1 * q5)

    def iv(p):
        # 5 pi^3/(256 sqrt3 n^{9/2}) = 5 pi^3 sqrt3/(768 n^4 sqrt n)
        factor = (
            _pi_pow(3, p)
            .mul(_sqrt3(p).mul(Interval.point(5), p), p)
            .div(Interval.point(n).sqrt(p).mul(Interval.point(768 * n**4), p), p)
        )
        return factor.mul(Interval.from_fraction(pos, p), p) + base

    return _decide_sign(iv, prec) > 0


_PREDICATES = {
    "A": _pred_a,
    "A-companion": _pred_a_companion,
    "B": _pred_b,
    "B-companion": _pred_b_companion,
    "double-turan": _pred_double_turan,
    "double-turan-companion": _pred_double_turan_companion,
    "laguerre3": _pred_laguerre3,
    "laguerre3-companion": _pred_laguerre3_companion,
}


def theorem_predicate(theorem_id: str, table: QTable, n: int, prec: int = DEFAULT_PREC) -> bool:
    """Exact truth of the theorem's statement at index n (statement
    coordinates).  Companion factors are decided by certified interval
    refinement, so the answer is never a rounding artifact."""
    return _PREDICATES[theorem_id](table, n, prec)


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
        self.ring_ivs = ring_ivs or [ring_eval(r, prec) for r in ring_parts]

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

    def eval_iv(self, x: Interval) -> Interval:
        return horner(self.poly.coeff_intervals(), x, self.prec)


def _companion_factor(monomials: dict[int, tuple[int, int, Fraction]], prec: int) -> HybridPoly:
    """Factor 1 + sum of ring monomials c*pi^i*sqrt3^j at given degrees."""
    table: dict[int, RingElem] = {0: RingElem.from_rational(1)}
    for deg, (i, j, c) in monomials.items():
        table[deg] = RingElem.monomial(i, j, c)
    return HybridPoly.from_ring_monomials(table, prec)


@lru_cache(maxsize=None)
def build_ineq(ineq_id: str, prec: int = DEFAULT_PREC, tight: bool = False) -> IneqPoly:
    """Expand the shifted inequality into a single hybrid polynomial.

    L and U envelopes enter with the exact ring coefficients; every
    error radius enters as a one-sided box so the expansion contains the
    exact polynomial for the true radii (tight=True uses thin two-sided
    radii instead; see HybridPoly.from_envelope).
    """
    theorem_id = INEQUALITIES[ineq_id]
    spec = THEOREMS[theorem_id]
    N = spec.N

    def L(s):
        return HybridPoly.from_envelope(s, N, -1, prec, tight)

    def U(s):
        return HybridPoly.from_envelope(s, N, +1, prec, tight)

    if ineq_id == "ineq1":
        # L0 L4 + 3 L2^2 - 4 U1 U3
        poly = L(0).mul(L(4)).add(L(2).mul(L(2)).scale_int(3)).add(U(1).mul(U(3)).scale_int(-4))
    elif ineq_id == "ineq2":
        # 4 (1 + pi^2/32 x^6 - x^7) L1 L3 - U0 U4 - 3 U2^2
        factor = _companion_factor(
            {6: (2, 0, Fraction(1, 32)), 7: (0, 0, Fraction(-1))}, prec
        )
        poly = (
            factor.mul(L(1).mul(L(3))).scale_int(4)
            .add(U(0).mul(U(4)).neg())
            .add(U(2).mul(U(2)).scale_int(-3))
        )
    elif ineq_id == "ineq3":
        # L2^3 + L0 L3^2 + L1^2 L4 - U0 U2 U4 - 2 U1 U2 U3
        l2 = L(2)
        poly = (
            l2.mul(l2).mul(l2)
            .add(L(0).mul(L(3).mul(L(3))))
            .add(L(1).mul(L(1)).mul(L(4)))
            .add(U(0).mul(U(2)).mul(U(4)).neg())
            .add(U(1).mul(U(2)).mul(U(3)).scale_int(-2))
        )
    elif ineq_id == "ineq4":
        # (1 + pi^3/(288 sqrt3) x^9 - x^10/4)(L0 L2 L4 + 2 L1 L2 L3)
        #   - U2^3 - U0 U3^2 - U1^2 U4
        # pi^3/(288 sqrt3) = (1/864) pi^3 sqrt3
        factor = _companion_factor(
            {9: (3, 1, Fraction(1, 864)), 10: (0, 0, Fraction(-1, 4))}, prec
        )
        l2 = L(2)
        body = L(0).mul(l2).mul(L(4)).add(L(1).mul(l2).mul(L(3)).scale_int(2))
        u2 = U(2)
        poly = (
            factor.mul(body)
            .add(u2.mul(u2).mul(u2).neg())
            .add(U(0).mul(U(3).mul(U(3))).neg())
            .add(U(1).mul(U(1)).mul(U(4)).neg())
        )
    elif ineq_id == "ineq5":
        # (L2^2 - U1 U3)^2 - (U1^2 - L0 L2)(U3^2 - L2 L4)
        l2 = L(2)
        u1, u3 = U(1), U(3)
        first = l2.mul(l2).add(u1.mul(u3).neg())
        second = u1.mul(u1).add(L(0).mul(l2).neg())
        third = u3.mul(u3).add(l2.mul(L(4)).neg())
        poly = first.mul(first).add(second.mul(third).neg())
    elif ineq_id == "ineq6":
        # (1 + pi/(2 sqrt3) x^3 - x^4)(L1^2 - U0 U2)(L3^2 - U2 U4)
        #   - (U2^2 - L1 L3)^2
        # pi/(2 sqrt3) = (1/6) pi sqrt3
        factor = _companion_factor(
            {3: (1, 1, Fraction(1, 6)), 4: (0, 0, Fraction(-1))}, prec
        )
        l1, l3, u2 = L(1), L(3), U(2)
        first = l1.mul(l1).add(U(0).mul(u2).neg())
        second = l3.mul(l3).add(u2.mul(U(4)).neg())
        cross = u2.mul(u2).add(l1.mul(l3).neg())
        poly = factor.mul(first).mul(second).add(cross.mul(cross).neg())
    elif ineq_id == "ineq-L3":
        # 10 L3^2 + 6 L1 L5 - 15 U2 U4 - U0 U6
        poly = (
            L(3).mul(L(3)).scale_int(10)
            .add(L(1).mul(L(5)).scale_int(6))
            .add(U(2).mul(U(4)).scale_int(-15))
            .add(U(0).mul(U(6)).neg())
        )
    elif ineq_id == "ineq-c-L3":
        # (1 + 5 pi^3/(256 sqrt3) x^9)(15 L2 L4 + L0 L6) - 10 U3^2 - 6 U1 U5
        # 5 pi^3/(256 sqrt3) = (5/768) pi^3 sqrt3
        factor = _companion_factor({9: (3, 1, Fraction(5, 768))}, prec)
        body = L(2).mul(L(4)).scale_int(15).add(L(0).mul(L(6)))
        poly = (
            factor.mul(body)
            .add(U(3).mul(U(3)).scale_int(-10))
            .add(U(1).mul(U(5)).scale_int(-6))
        )
    else:
        raise ValueError(f"unknown inequality id: {ineq_id!r}")

    window = window_max(N, spec.shifts, prec)
    x0 = _x_upper(window, prec)
    return IneqPoly(
        ineq_id=ineq_id,
        theorem_id=theorem_id,
        N=N,
        prec=prec,
        poly=poly,
        x0=x0,
        window=window,
    )


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
    return [
        n
        for n in range(spec.scan_floor, spec.threshold)
        if not theorem_predicate(theorem_id, table, n, prec)
    ]


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
        below = [
            n
            for n in range(spec.scan_floor, threshold)
            if not theorem_predicate(theorem_id, table, n, prec)
        ]
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
