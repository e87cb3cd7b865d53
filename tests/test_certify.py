"""The certification engine: exact functionals, positivity certificates,
crossover search, and agreement between the certified and exact regimes.
"""

import hashlib
import random
from fractions import Fraction
from functools import reduce
from math import comb, inf

import mpmath as mp
import pytest

from oracles import (
    invariant_a,
    invariant_b,
    invariant_i,
    laguerre,
    mul_termwise,
    node_exact,
    node_values,
    pair_interval,
    pi_bracket,
    positive_untruncated,
    production_pairs,
    replace,
    replay,
    ring_parts,
    ring_sum,
    theorem_predicate,
    tight_expansion,
)
from qcert.bounds import bound_poly, bound_value, x_of
from qcert.certify import (
    INEQUALITIES,
    THEOREMS,
    Companion,
    IneqPoly,
    Mul,
    Q,
    Sq,
    Sum,
    TheoremSpec,
    build_ineq,
    certify_inequality,
    certify_positive,
    exact_verify,
    expand_statement,
    find_crossover,
    sharpness_scan,
    verify_theorem,
)
import qcert.certify as certify_module
from qcert.cli import ERRATA_THRESHOLDS
from qcert.certify import HybridPoly
from qcert.enclosures import enclose_pi
from qcert.intervals import Dyadic, Interval, horner
from qcert.qtable import QTable
from qcert.ring import RingElem

F = Fraction

# Frozen from exact scans (statement coordinates): the largest index
# below each stated threshold where the statement fails.
SHARPNESS_WITNESSES = {
    "A": 229,
    "A-companion": 278,
    "B": 271,
    "B-companion": 308,
    "double-turan": 272,
    "double-turan-companion": 345,
    "laguerre3": 650,
    "laguerre3-companion": 714,
}

# Frozen: degree of the first symbolically nonzero coefficient of each
# expanded inequality polynomial.
LEADING_DEGREES = {
    "ineq1": 6, "ineq2": 7, "ineq3": 9, "ineq4": 10,
    "ineq5": 9, "ineq6": 10, "ineq-L3": 9, "ineq-c-L3": 10,
}

# Frozen at 192 bits from the fixed-point expansion (every coefficient an
# integer pair at 2^-208), after checking that none of its final pairs is
# wider than the floating expansion's before it: (ineq_id, tight) -> (SHA-256
# of the coefficient pairs, leading zero degree, degree), the box expansion
# build_ineq for tight False, the oracle tight_expansion for tight True.
POLY_PINS = {
    ("ineq-L3", False): ("ff5ac97e2be81dc589233061ca9c41ce4a8bc52cf057e9967a2f98f733cdea2a", 9, 50),
    ("ineq-L3", True): ("606010031a406e261c715f2b771e38ecdbb9345d8e2e760ad313780f6d6c83fc", 9, 50),
    ("ineq-c-L3", False): ("802e1a5b1fd079995542173996bf0aef2ec8a6441a6a758313160c3dd79f5808", 10, 59),
    ("ineq-c-L3", True): ("687ccb8eec7899ade89aa58333263a906ac78ca234e1812a30d24ff68f49a4ac", 10, 59),
    ("ineq1", False): ("7983cff563fbc2fe71c232f8a565db0d0e07eca9d0e62eb97af97f88ffdcc699", 6, 30),
    ("ineq1", True): ("6b23b177369a0e24c37718ccf561fb6de76b28fa3dffb6869dec05b63fe19812", 6, 30),
    ("ineq2", False): ("8d69224f54f92e45487e3b1d5909c2646ef2ccaab5558505b5386a9352e33b1e", 7, 37),
    ("ineq2", True): ("68dd55a5e8d9a76617124286d18894821d3bc5367027321f863e9b8dd2e2262c", 7, 37),
    ("ineq3", False): ("cc9e43483bae665d30bbc78fc89137abe2e032842e538301819e71753eb9b6ab", 9, 75),
    ("ineq3", True): ("9b54dc60e6df3fae89349083968845de58dd28a814594b6903998158ed386d74", 9, 75),
    ("ineq4", False): ("e8fe06fdf02953fc10f4005137f80e99f5885797154cb17b689b8198d44e218f", 10, 85),
    ("ineq4", True): ("478b9f11802e013541ece6624a9cd4869c928d5f34f4aaeffcfe049e37aa53f6", 10, 85),
    ("ineq5", False): ("a133b9dc807ab11d5577aee55ec86bd5649c3d0d750e9e5ece1c057fe37f9967", 9, 60),
    ("ineq5", True): ("a0dcfcf66cc28c3f0d6bbe21864f935804f7179c9ca37128c3bcbffb928ff4db", 9, 60),
    ("ineq6", False): ("dfc3e9feef68d4f6004e17307e223f9c7f2c47f947ea632e4a01d979eda3f3ca", 10, 64),
    ("ineq6", True): ("72bdd0af07210cd81e46ccca815cc6debd11b93bd2a17903937ff266bcab8b93", 10, 64),
}

# Frozen at 192 bits from the expansion that added exact ring products
# term by term: ineq_id -> SHA-256 of the exact prefix,
# "|".join(r.as_string() for r in ring_parts(poly)), the same whether
# the radius enters as a box or tight.
RING_PINS = {
    "ineq-L3": "b3262ddabe0ebb0e17432d47a359d078c874774495af6538f8cfe74916ab523f",
    "ineq-c-L3": "9b1d5539c4d33889492c1964941da9d735a91238c63413891ed2f2615a44d148",
    "ineq1": "8bdfe9ee112620827c0aa8f1e45f60e281d6da0d8e2b3ced7a36fe48b2975dd6",
    "ineq2": "7c58333c69740cb2ad8d69f61b1341d77af23c1898e6c86cc5e44ed36f107251",
    "ineq3": "b6071276593cd906b5bd91230e111e5e9a62e2646cdadb991cb677762bdb4884",
    "ineq4": "d077d37eb90cf9af89ce11a0bed128b71f54dbdf577dee77a8c34b55d5604097",
    "ineq5": "6089157d897f1a5c5faf3c7d63c4948d44889b2a8662db61fa9e05c9ccc73791",
    "ineq6": "1121bd5348b27d4c58153e3bfa18c61457e06330fd959ba53963c070a3e13f12",
}


def _pin(ineq: IneqPoly) -> tuple[str, int, int]:
    """The POLY_PINS value of an expansion."""
    digest = hashlib.sha256()
    for lo, hi in ineq.poly.coeff_pairs():
        digest.update(f"{lo} {hi};".encode())
    return digest.hexdigest(), certify_positive(ineq, ineq.x0).leading_zero_degree, len(ineq.poly.ring_pairs) - 1


def _expansion(key, fresh=False):
    """The expansion a POLY_PINS key names at 192 bits; fresh skips the caches."""
    ineq_id, tight = key
    if tight:
        return (tight_expansion.__wrapped__ if fresh else tight_expansion)(ineq_id, 192)
    if fresh:
        return expand_statement(THEOREMS[INEQUALITIES[ineq_id]], 192)
    return build_ineq(ineq_id, 192)


class TestInvariants:
    def test_unit_tuples(self):
        assert invariant_a(1, 1, 1, 1, 1) == 0
        assert invariant_b(1, 1, 1, 1, 1) == 0
        assert invariant_i(1, 1, 1, 1, 1) == 0

    def test_positive_at_thresholds(self, table20k):
        assert invariant_a(*table20k.window(229, 5)) > 0
        assert invariant_b(*table20k.window(271, 5)) > 0

    def test_violation_below(self, table20k):
        assert invariant_a(*table20k.window(228, 5)) <= 0
        assert invariant_b(*table20k.window(270, 5)) <= 0


class TestLaguerre:
    def test_order_zero(self, table2k):
        assert laguerre(0, table2k, 17) == F(table2k[17] ** 2, 2)

    def test_order_one_is_log_concavity_gap(self, table2k):
        q = table2k.values
        for n in range(0, 500):
            assert laguerre(1, table2k, n) == q[n + 1] ** 2 - q[n] * q[n + 2], n

    def test_order_two_equals_invariant(self, table2k):
        for n in range(0, 1001):
            assert laguerre(2, table2k, n) == invariant_a(*table2k.window(n, 5)), n

    def test_order_three_quadratic_form(self, table2k):
        q = table2k.values
        for n in range(0, 1001):
            expected = (
                10 * q[n + 3] ** 2
                + 6 * q[n + 1] * q[n + 5]
                - 15 * q[n + 2] * q[n + 4]
                - q[n] * q[n + 6]
            )
            assert laguerre(3, table2k, n) == expected, n

    def test_index_overflow(self, table2k):
        with pytest.raises(IndexError):
            laguerre(3, table2k, 1996)


def _toy_ineq(monomials: dict[int, RingElem], x0: Fraction, prec: int = 192) -> IneqPoly:
    poly = HybridPoly.from_ring_monomials(monomials, prec)
    x0_d = Dyadic.from_fraction(x0, prec, up=True)
    return IneqPoly(poly=poly, x0=x0_d, window=1)


def _companion_sum_and_swapped() -> tuple[Sum, Sum]:
    """A sum with a companion and the same sum with its terms swapped: equal values,
    different nodes, so Mul(x, y) takes the general product and Sq(x) the square."""
    terms = (1, Companion(Mul(Q(1), Q(3)), F(1, 6), 1, 1, 3)), (-2, Sq(Q(2)))
    return Sum(*terms), Sum(*terms[::-1])


def _gap(k: int) -> Sum:
    """q(n0+k)^2 - q(n0+k-1) q(n0+k+1)."""
    return Sum((1, Sq(Q(k))), (-1, Mul(Q(k - 1), Q(k + 1))))


def _kernel_values(node, q, m):
    """Lists A, B of a statement node at m indices from its scan kernel, which leaves every index open at
    E = inf, in order (B None without a companion)."""
    ks, a, b = zip(*certify_module._kernel(node)(q, m, inf, 0))
    assert ks == tuple(range(m))
    return list(a), None if b[0] is None else list(b)


def _oracle_values(node, q, m):
    """oracles.node_values with A and B as lists (a leaf's is a slice of q)."""
    return tuple(None if v is None else list(v) for v in node_values(node, q, m))


class TestStatements:
    def test_exact_values_match_functionals(self, table2k):
        for n in range(0, 1001):
            w = table2k.window(n, 7)
            assert node_exact(THEOREMS["A"].statement, w) == (invariant_a(*w[:5]), 0), n
            assert node_exact(THEOREMS["B"].statement, w) == (invariant_b(*w[:5]), 0), n
            assert node_exact(THEOREMS["laguerre3"].statement, w) == (laguerre(3, table2k, n), 0), n

    def test_square_values_match_product(self, table2k):
        # a square is one term read twice; its value is the product of two terms
        # of equal value (y is x with its terms swapped, so not equal to x)
        x, y = _companion_sum_and_swapped()
        assert x != y
        q = table2k.values[100:140]
        assert _kernel_values(Sq(x), q, 36) == _kernel_values(Mul(x, y), q, 36)
        assert node_exact(Sq(x), q) == node_exact(Mul(x, y), q)

    def test_zero_value_is_not_positive(self):
        # A = B = 0: the statement "value > 0" is false, decided without refinement
        zeros = QTable(40, (0,) * 41)
        for tid in THEOREMS:
            assert not theorem_predicate(tid, zeros, 20), tid

    def test_companion_slack_checked(self):
        # ineq6 needs slack >= c (a/2) shift x0 = 0.0384 on (0, 5019^{-1/2}]
        spec = THEOREMS["double-turan-companion"]

        def with_slack(slack):
            companion = Companion(_gap(1), F(1, 6), 1, 1, 3, slack=slack)
            return replace(spec, statement=Sum((1, Mul(companion, _gap(3))), (-1, Sq(_gap(2)))))

        assert expand_statement(with_slack(F(1, 25))).side_lemma is None
        with pytest.raises(ValueError, match="companion slack 1/100 below"):
            expand_statement(with_slack(F(1, 100)))

    def test_companion_factor_kept_positive(self):
        # F = 1 + c x^3 - slack x^4 > 0 on (0, x0] needs slack x0^4 < 1; x0 is
        # the upper end of 5019^(-1/2), so slack = 5019^2 puts F(x0) at or below 0
        spec = THEOREMS["double-turan-companion"]
        companion = Companion(_gap(1), F(1, 6), 1, 1, 3, slack=5019**2)
        toy = replace(spec, statement=Sum((1, Mul(companion, _gap(3))), (-1, Sq(_gap(2)))))
        with pytest.raises(ValueError, match="times x0\\^4 is not below 1"):
            expand_statement(toy)

    @pytest.mark.parametrize("r", [F(0), F(-1, 6)])
    def test_companion_term_positive(self, r):
        # (1 + t) with t <= 0 is not bounded below by 1 + c x^a - slack x^(a+1)
        with pytest.raises(ValueError, match="needs r > 0"):
            Companion(_gap(1), r, 1, 1, 3, slack=1)

    def test_negative_operand_blocks_proof(self):
        # (L0 - 2 U1)^2 is positive, but it bounds (q0 - 2 q1)^2 from below
        # only if L0 - 2 U1 >= 0, which is false
        d = Sum((1, Q(0)), (-2, Q(1)))
        spec = TheoremSpec("toy", "0", 0, 0, 14, Mul(d, d), "toy", 1)
        ineq = expand_statement(spec)
        cert = certify_positive(ineq, ineq.x0)
        assert cert.status == "inconclusive" and cert.negative_witness is None
        assert cert.reason.startswith("side lemma L0 - 2 U1 not proved: ")
        assert certify_positive(replace(ineq, side_lemma=None), ineq.x0).proved


class TestExpansionWalker:
    """_Expansion expands each node once per polarity, and a side lemma
    certifies its operand's lower envelope whatever polarity the statement
    met it at."""

    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_side_lemmas_are_lower_envelopes(self, theorem_id, monkeypatch):
        # each polynomial side_lemma certifies, pairs and boxes, is a fresh
        # positive-polarity expansion of its operand
        spec = THEOREMS[theorem_id]
        ex = certify_module._Expansion(spec, 192)
        ex(spec.statement, 1)
        certified = []

        def record(ineq, x0, _certify=certify_positive):
            certified.append(ineq.poly)
            return _certify(ineq, x0)

        monkeypatch.setattr(certify_module, "certify_positive", record)
        assert ex.side_lemma() is None
        assert len(certified) == len(ex.operands) >= 3
        for op, poly in zip(ex.operands.values(), certified, strict=True):
            fresh = certify_module._Expansion(spec, 192)(op, 1)
            assert (poly.ring_pairs, poly.errs) == (fresh.ring_pairs, fresh.errs), op.show(1)

    def test_square_operand_met_at_negative_polarity(self):
        # double-turan-companion meets T(2) under its square at polarity -1
        # only: its side lemma is T(2)'s lower envelope, not the upper one
        spec = THEOREMS["double-turan-companion"]
        t2 = spec.statement.terms[1][1].a
        ex = certify_module._Expansion(spec, 192)
        ex(spec.statement, 1)
        assert (t2, -1) in ex.memo and (t2, 1) not in ex.memo
        assert ex.operands[t2.show(1)] is t2
        assert ex.side_lemma() is None
        lower, upper = ex.memo[t2, 1], ex.memo[t2, -1]
        fresh = certify_module._Expansion(spec, 192)(t2, 1)
        assert (lower.ring_pairs, lower.errs) == (fresh.ring_pairs, fresh.errs)
        assert lower.errs != upper.errs

    def test_square_expands_its_term_once(self, monkeypatch):
        # Mul(x, x) builds x once (one weighted_sum for the sum) and squares it
        # through _product_part's square path, both operands one ring part; two
        # equal leaves are one node, so their product is a square too
        monkeypatch.setattr(certify_module, "_RINGS", {})
        x = Sum((1, Q(0)), (1, Q(2)))
        sums, products, parts = [], [], []

        def weighted_sum(terms, _sum=HybridPoly.weighted_sum):
            sums.append(terms)
            return _sum(terms)

        def mul(self, other, _mul=HybridPoly.mul):
            products.append((self, other))
            return _mul(self, other)

        def product_part(k, a, b, _part=certify_module._product_part):
            parts.append(a is b)
            return _part(k, a, b)

        monkeypatch.setattr(HybridPoly, "weighted_sum", staticmethod(weighted_sum))
        monkeypatch.setattr(HybridPoly, "mul", mul)
        monkeypatch.setattr(certify_module, "_product_part", product_part)
        square = certify_module._Expansion(THEOREMS["A"], 192)(Mul(x, x), 1)
        assert len(sums) == 1 and len(products) == 1
        (a, b), = products
        assert a is b and a.ring is b.ring
        assert [square.ring[k] for k in range(square.ring.n)] and parts and all(parts)
        assert Mul(x, x).show(1) == "(L0 + L2)^2" and Mul(Q(2), Q(2)).show(1) == "L2^2"
        assert Mul(Q(2), Q(2)) == Sq(Q(2)) and Mul(Q(2), Q(3)).show(1) == "L2 L3"


class TestCertifyPositive:
    def test_x_squared(self):
        ineq = _toy_ineq({2: RingElem.from_rational(1)}, F(1))
        cert = certify_positive(ineq, ineq.x0)
        assert cert.proved and cert.leading_zero_degree == 2

    def test_sign_change_detected(self):
        # x - x^2 is negative on (1, 2]
        ineq = _toy_ineq(
            {1: RingElem.from_rational(1), 2: RingElem.from_rational(-1)}, F(2)
        )
        cert = certify_positive(ineq, ineq.x0)
        assert not cert.proved
        assert cert.negative_witness is not None

    def test_negative_witness_in_json(self):
        # x - x^2 is -2 at x0 = 2: the report carries the witness
        ineq = _toy_ineq({1: RingElem.from_rational(1), 2: RingElem.from_rational(-1)}, F(2))
        out = certify_positive(ineq, ineq.x0).to_json_dict()
        assert out["status"] == "inconclusive" and out["negative_witness_x"] == [2.0, 2.0]
        assert out["reason"] == "certified negative at x=2.0"

    def test_positive_on_smaller_radius(self):
        # the same polynomial is certifiable on (0, 1/2]
        ineq = _toy_ineq(
            {1: RingElem.from_rational(1), 2: RingElem.from_rational(-1)}, F(1, 2)
        )
        cert = certify_positive(ineq, ineq.x0)
        assert cert.proved

    def test_identically_zero(self):
        ineq = _toy_ineq({3: RingElem()}, F(1))
        cert = certify_positive(ineq, ineq.x0)
        assert not cert.proved and "identically zero" in cert.reason

    @pytest.mark.parametrize("degree, value", [(0, -2), (2, -1)])
    def test_negative_constant(self, degree, value):
        # -x^2 has its two symbolic zeros stripped first: -1 is its constant term
        ineq = _toy_ineq({degree: RingElem.from_rational(value)}, F(1))
        cert = certify_positive(ineq, ineq.x0)
        assert not cert.proved and cert.leading_zero_degree == degree
        assert cert.reason == f"constant term after stripping x^{degree} is not certifiably positive"

    def test_boxed_family_stops_without_escalating(self):
        # ineq2 is negative near its window for the whole boxed family:
        # the trial stops at a point, at the starting precision
        cert = certify_inequality("ineq2")
        assert cert.status == "inconclusive" and cert.prec == 192
        assert cert.reason.startswith("boxed family not positive at x=")
        assert cert.negative_witness is None

    def test_boxed_verdict_holds_at_its_precision(self):
        # the radii and x0 of the boxes are computed at the working
        # precision: at 16 bits A-companion's trial at 5847 stops as boxed
        # and the search returns 5848; at 32 bits the same trial proves
        low = certify_inequality("ineq2", 5847, 16)
        assert low.reason.startswith("boxed family not positive at x=") and low.prec == 16
        assert find_crossover("A-companion", 16)[0] == 5848
        assert certify_inequality("ineq2", 5847, 32).proved
        assert find_crossover("A-companion", 32)[0] == 5847

    def test_rounding_hides_sign(self):
        # 1 - (1 - 2^-300) x is 2^-300 at x = 1: invisible at 192 bits
        c1 = RingElem.from_rational(F(1, 2**300) - 1)
        monomials = {0: RingElem.from_rational(1), 1: c1}
        cert = certify_positive(_toy_ineq(monomials, F(1)), Dyadic(1))
        assert not cert.proved and cert.prec == 192
        assert cert.reason.startswith("rounding hides the sign at x=")
        assert certify_positive(_toy_ineq(monomials, F(1), 384), Dyadic(1)).proved

    def test_stripping_past_exact_prefix_raises(self):
        # exact part kept for x^0 only, nothing known about x^1
        poly = HybridPoly(certify_module._Ring(1, None, [(0, 0), (1, 1)], {0: RingElem()}), {}, 192)
        ineq = IneqPoly(poly, Dyadic(1), 1)
        with pytest.raises(ArithmeticError):
            certify_positive(ineq, Dyadic(1))

    def test_range_not_positive_though_both_ends_are(self):
        # 1 - 2x + 2x^2 >= 1/2 on (0, 1], and both ends are 1, but one
        # interval Horner over [0, 1] does not prove it positive: with no
        # bisection the trial is inconclusive, with no witness
        monomials = {0: RingElem.from_rational(1), 1: RingElem.from_rational(-2), 2: RingElem.from_rational(2)}
        cert = certify_positive(_toy_ineq(monomials, F(1)), Dyadic(1))
        assert cert.status == "inconclusive" and cert.negative_witness is None
        assert cert.reason == "range enclosure not positive on (0, 1.0] though both ends are"

    def test_nonpositive_x0_rejected(self):
        # (0, x0] is empty for x0 <= 0: a usage error, not a division by zero
        ineq = build_ineq("ineq1")
        for x0 in (Dyadic(0), Dyadic(-1)):
            with pytest.raises(ValueError, match="x0 must be > 0"):
                certify_positive(ineq, x0)

    def test_tight_ring_cancellation(self):
        # (pi sqrt3)(pi^-1 sqrt3) - 3 + x^2: symbolic zero at degree 0
        c0 = ring_sum([(1, RingElem({(1, 1): F(1)}) * RingElem({(-1, 1): F(1)})), (-3, RingElem.from_rational(1))])
        ineq = _toy_ineq({0: c0, 2: RingElem.from_rational(1)}, F(1))
        cert = certify_positive(ineq, ineq.x0)
        assert cert.proved and cert.leading_zero_degree == 2


class TestIneqBuild:
    @pytest.mark.parametrize("ineq_id", sorted(INEQUALITIES))
    def test_leading_structure(self, ineq_id):
        ineq = build_ineq(ineq_id)
        parts = ring_parts(ineq.poly)
        d = LEADING_DEGREES[ineq_id]
        for k in range(d):
            assert parts[k].is_zero, (ineq_id, k)
            assert k not in ineq.poly.errs
        lead = parts[d]
        assert not lead.is_zero
        assert lead.eval_iv(192).is_positive, ineq_id

    def test_known_leading_coefficients(self):
        # the invariant-A cancellation leaves exactly pi^2/8 at degree 6
        assert ring_parts(build_ineq("ineq1").poly)[6].terms == {(2, 0): F(1, 8)}
        # the double-Turan cancellation leaves pi^3 sqrt3/288 at degree 9
        assert ring_parts(build_ineq("ineq5").poly)[9].terms == {(3, 1): F(1, 288)}

    def test_error_boxes_start_high(self):
        ineq = build_ineq("ineq1")
        assert min(ineq.poly.errs) == 15  # N+1 for N=14

    def test_degree_bound(self):
        # triple products of degree-(N+1) envelopes
        ineq = build_ineq("ineq3")
        assert len(ineq.poly.ring_pairs) - 1 <= 3 * 25

    def test_window(self):
        assert build_ineq("ineq1").window == 5019
        assert build_ineq("ineq-L3").window == 18502

    def test_one_cache_entry_per_expansion(self):
        # defaults, positional and keyword arguments name one expansion
        ineq = build_ineq("ineq1")
        assert build_ineq("ineq1", 192) is ineq
        assert build_ineq("ineq1", prec=192) is ineq
        with pytest.raises(TypeError):
            build_ineq("ineq1", 192, False)


class TestPolynomialPins:
    @pytest.mark.pin
    @pytest.mark.parametrize("key", sorted(POLY_PINS))
    def test_expansion_unchanged(self, key):
        assert _pin(_expansion(key)) == POLY_PINS[key]

    @pytest.mark.pin
    @pytest.mark.parametrize("key", sorted(POLY_PINS))
    def test_exact_prefix_unchanged(self, key):
        text = "|".join(r.as_string() for r in ring_parts(_expansion(key).poly))
        assert hashlib.sha256(text.encode()).hexdigest() == RING_PINS[key[0]]

    @pytest.mark.parametrize("ineq_id", sorted(INEQUALITIES))
    def test_tight_expansion_nests_inside_box(self, ineq_id):
        # each thin radius lies inside its box, so every coefficient of the
        # disproof expansion lies inside the production one's: equal below
        # the first box, and not equal everywhere above it
        box, tight = build_ineq(ineq_id, 192).poly, tight_expansion(ineq_id, 192).poly
        assert sorted(tight.errs) == sorted(box.errs)
        assert tight.ring.n == box.ring.n
        outer, inner = box.coeff_pairs(), tight.coeff_pairs()
        assert len(outer) == len(inner)
        same = [o == i for o, i in zip(outer, inner)]
        assert all(o[0] <= i[0] and i[1] <= o[1] for o, i in zip(outer, inner)), ineq_id
        assert all(same[:min(box.errs)]) and not all(same), ineq_id

    def test_mul_matches_termwise_ring_products(self):
        # the cleared-denominator convolution equals sum a*b over RingElems,
        # also when an operand is itself a truncated product
        p, q, r = (HybridPoly.from_envelope(s, 14, side, 192) for s, side in
                   [(0, -1), (3, +1), (1, -1)])
        pq = p.mul(q)
        for lhs, rhs in [(p, q), (pq, r)]:
            out, a, b = (ring_parts(x) for x in (lhs.mul(rhs), lhs, rhs))
            assert len(out) > 10
            for k, got in enumerate(out):
                want = ring_sum((1, a[i] * b[k - i]) for i in range(k + 1) if k - i < len(b))
                assert got == want, k


    def test_square_pairs_each_term_once(self):
        # x.mul(x) pairs each exact term once; a copy of x takes the
        # ordered path, and every field must agree bit for bit
        def copy(x):
            return HybridPoly(certify_module._Ring(x.ring.n, x.ring.rule, list(x.ring_pairs), enumerate(ring_parts(x))),
                              dict(x.errs), x.prec)

        def fields(x):
            return ([list(r.terms.items()) for r in ring_parts(x)],
                    x.ring_pairs, x.errs)

        envelope = HybridPoly.from_envelope(1, 24, -1, 192)
        truncated = HybridPoly.from_envelope(0, 14, -1, 192).mul(
            HybridPoly.from_envelope(3, 14, +1, 192))
        for x in (envelope, truncated):
            square = x.mul(x)
            assert len(ring_parts(square)) > 10
            assert fields(square) == fields(x.mul(copy(x)))

    @pytest.mark.parametrize("key", sorted(POLY_PINS))
    def test_mul_matches_termwise_intervals(self, key, monkeypatch):
        # every product of the expansion, side lemmas included, against the
        # loop of Interval.mul then Interval.add on its operands: each ring
        # enclosure and error box contains the loop at a width where nothing
        # rounds (the exact product), and lies inside the loop at 192 bits
        # rounded out to the grid 2^-208, so it is never the wider one
        def between(pair, exact, loose):
            lo, hi = pair_interval(pair, 192).to_fractions()
            a, b = exact.to_fractions()
            grid = loose.fixed(192)
            return lo <= a and b <= hi and grid[0] <= pair[0] and pair[1] <= grid[1]

        products = []

        def checked(self, other, _mul=HybridPoly.mul):
            out = _mul(self, other)
            (exact, exact_errs), (loose, loose_errs) = (mul_termwise(self, other, p) for p in (4096, 192))
            assert all(map(between, out.ring_pairs, exact, loose))
            assert sorted(out.errs) == sorted(d for d, e in exact_errs.items() if not (e.lo.is_zero and e.hi.is_zero))
            assert all(between(e, exact_errs[d], loose_errs[d]) for d, e in out.errs.items())
            products.append(out)
            return out

        monkeypatch.setattr(HybridPoly, "mul", checked)
        _expansion(key, fresh=True)
        assert len(products) >= 2 and any(len(p.errs) > 1 for p in products)


class TestRationalReplay:
    """Every expansion rebuilt in exact Fraction intervals from the leaf
    enclosures and radii, with no rounding: each production enclosure, at
    every node, contains its rational counterpart."""

    @pytest.mark.parametrize("key", sorted(POLY_PINS))
    def test_production_contains_replay(self, key):
        # the statement (checked against the expansion that production
        # caches) and every side lemma's lower envelope
        ineq_id, tight = key
        out = replay(ineq_id, 192, tight)
        assert production_pairs(out[""].poly) == production_pairs(_expansion(key).poly)
        assert len(out) >= 6 and all(len(r.ring) > 15 for r in out.values())


class TestSharedRingParts:
    """Each node's ring part is built once per (node, N, prec) and shared by
    both polarities and by every expansion that meets the node; every box
    and every companion factor is built per call."""

    def test_ring_parts_kept_per_order_and_precision(self, monkeypatch):
        # one cache serves the leaves q(n0 + 0..4) at orders 14 and 24 and at 192
        # and 64 bits: every node of each expansion, replayed in rationals,
        # contains its exact counterpart on the ring part it is given
        monkeypatch.setattr(certify_module, "_RINGS", {})
        for ineq_id, prec in [("ineq1", 192), ("ineq-L3", 192), ("ineq1", 64)]:
            assert len(replay(ineq_id, prec, False)) >= 3
        assert {key[1:] for key in certify_module._RINGS} == {(14, 192), (24, 192), (14, 64)}

    def test_leaf_sides_share_one_ring_part(self, monkeypatch):
        monkeypatch.setattr(certify_module, "_RINGS", {})
        ex = certify_module._Expansion(THEOREMS["A"], 192)
        upper, lower = ex(Q(2), -1), ex(Q(2), 1)  # a leaf is U at polarity -1, L at +1
        assert upper is not lower and upper.errs is not lower.errs
        assert upper.ring is lower.ring
        err_u, err_l = (bound_poly(2, 14, side, 192).err for side in (1, -1))
        assert list(upper.errs.items()) == [(15, Interval(Dyadic(0), err_u).fixed(192))]
        assert list(lower.errs.items()) == [(15, Interval(-err_l, Dyadic(0)).fixed(192))]
        assert certify_module._Expansion(THEOREMS["B"], 192)(Q(2), -1).ring is not upper.ring
        assert certify_module._Expansion(THEOREMS["A"], 64)(Q(2), -1).ring is not upper.ring

    def test_companion_reuses_the_theorems_products(self, monkeypatch):
        # ineq4 negates ineq3's five cubic products: after ineq3, its only new
        # product is the companion's, whose factor has no box; each product is
        # still multiplied per call, for its boxes
        monkeypatch.setattr(certify_module, "_RINGS", {})
        expand_statement(THEOREMS["B"], 192)
        built = dict(certify_module._RINGS)
        made = []

        def record(self, other, _mul=HybridPoly.mul):
            made.append(self)
            return _mul(self, other)

        monkeypatch.setattr(HybridPoly, "mul", record)
        spec = THEOREMS["B-companion"]
        ex = certify_module._Expansion(spec, 192)
        ex(spec.statement, 1)
        assert ex.side_lemma() is None
        assert len(made) == 11 and [bool(lhs.errs) for lhs in made].count(False) == 1
        new = sorted(type(node).__name__ for node, *_ in certify_module._RINGS.keys() - built.keys())
        assert new == ["Companion", "Sum", "Sum"]  # the companion, its body and the statement
        products = [(node, poly) for (node, _), poly in ex.memo.items() if isinstance(node, (Mul, Companion))]
        assert len(products) == 11
        assert [poly.ring is built.get((node, 24, 192)) for node, poly in products] == \
            [isinstance(node, Mul) for node, _ in products]

    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_repeated_expansion_adds_no_ring_part(self, theorem_id):
        # every node's ring part is kept once: a later expansion of the same
        # statement adds none, and its polynomial sits on the kept ring part
        first = expand_statement(THEOREMS[theorem_id], 192).poly.ring
        count = len(certify_module._RINGS)
        for _ in range(2):
            assert expand_statement(THEOREMS[theorem_id], 192).poly.ring is first
            assert len(certify_module._RINGS) == count

    def test_companion_factor_per_call(self, monkeypatch):
        # each expansion builds its own factor, from the companion's own
        # slack, and keeps none; the product is kept per companion node, and a
        # companion with another slack is another node
        spec = THEOREMS["A-companion"]
        comp = spec.companion
        other = Companion(comp.body, comp.r, comp.i, comp.j, comp.a, comp.slack + 1)
        factors = []

        def record(self, other, _mul=HybridPoly.mul):
            factors.append(self.ring)  # the factor is the last left operand
            return _mul(self, other)

        monkeypatch.setattr(HybridPoly, "mul", record)
        certify_module._Expansion(spec, 192)(comp, 1)
        count = len(certify_module._RINGS)
        stores = []
        for node in (comp, other):
            certify_module._Expansion(spec, 192)(node, 1)
            stores.append(factors[-1])
        assert len(certify_module._RINGS) == count + 1 and other != comp
        kept = list(certify_module._RINGS.values())
        assert not any(x is y for x in stores for y in kept) and stores[0] is not stores[1]
        assert [x[comp.a + 1] for x in stores] == [RingElem.from_rational(-comp.slack),
                                                    RingElem.from_rational(-comp.slack - 1)]

    def test_turan_gaps_share_one_ring_part(self, monkeypatch):
        # double-turan meets T(1) and T(3) at both polarities, and T(2) under its
        # square; double-turan-companion meets T(2)^2 again at polarity -1: each
        # T(k) has one ring part across both expansions, and T(2)^2 is convolved
        # once, each degree once on the square path
        monkeypatch.setattr(certify_module, "_RINGS", {})
        squares = []

        def product_part(k, a, b, _part=certify_module._product_part):
            if a is b:
                squares.append((a, k))
            return _part(k, a, b)

        monkeypatch.setattr(certify_module, "_product_part", product_part)
        walkers = []
        for theorem_id in ("double-turan", "double-turan-companion"):
            ex = certify_module._Expansion(THEOREMS[theorem_id], 192)
            cert = certify_positive(IneqPoly(ex(THEOREMS[theorem_id].statement, 1), ex.x0, ex.window), ex.x0)
            assert cert.proved or theorem_id.endswith("companion")
            assert ex.side_lemma() is None
            walkers.append(ex)
        for k in (1, 2, 3):
            met = [(pol, poly.ring) for ex in walkers for (node, pol), poly in ex.memo.items() if node == _gap(k)]
            assert {pol for pol, _ in met} == {1, -1}, k
            assert all(ring is certify_module._RINGS[_gap(k), 14, 192] for _, ring in met), k
        t2 = certify_module._RINGS[_gap(2), 14, 192]
        degrees = [k for a, k in squares if a is t2]
        assert degrees and len(degrees) == len(set(degrees))

    def test_results_independent_of_theorem_order(self, monkeypatch):
        def run(order):
            monkeypatch.setattr(certify_module, "_RINGS", {})
            build_ineq.cache_clear()
            out = {}
            for theorem_id in order:
                n_star, cert = find_crossover(theorem_id)
                ineq = build_ineq(THEOREMS[theorem_id].ineq_id)
                out[theorem_id] = n_star, cert.to_json_dict(), _pin(ineq), ineq.side_lemma
            return out

        order = sorted(THEOREMS)
        try:
            assert run(order) == run(order[::-1])
        finally:
            build_ineq.cache_clear()

    @pytest.mark.pin
    def test_tight_expansion_first_leaves_production_unchanged(self, monkeypatch):
        # the oracle replaces its leaves' boxes; the ring parts it shares
        # with production carry no box
        monkeypatch.setattr(certify_module, "_RINGS", {})
        for ineq_id in sorted(INEQUALITIES):
            tight_expansion.__wrapped__(ineq_id, 192)
        for ineq_id in sorted(INEQUALITIES):
            assert _pin(_expansion((ineq_id, False), fresh=True)) == POLY_PINS[(ineq_id, False)]


class TestLazyExactParts:
    """The exact ring parts are computed only where a zero test needs them,
    and the enclosure shortcut of that test never disagrees with them."""

    @pytest.mark.parametrize("key", sorted(POLY_PINS))
    def test_zero_test_matches_exact_parts(self, key, monkeypatch):
        # every polynomial that mul and weighted_sum produce while expanding,
        # side lemmas included, at every degree of its exact prefix: one per
        # non-leaf (node, polarity) the walker builds
        made, walkers = [], []

        def record(op):
            def recorded(*args):
                made.append(op(*args))
                return made[-1]
            return recorded

        def init(self, *args, _init=certify_module._Expansion.__init__):
            walkers.append(self)
            _init(self, *args)

        monkeypatch.setattr(HybridPoly, "mul", record(HybridPoly.mul))
        monkeypatch.setattr(HybridPoly, "weighted_sum", staticmethod(record(HybridPoly.weighted_sum)))
        monkeypatch.setattr(certify_module._Expansion, "__init__", init)
        _expansion(key, fresh=True)
        (ex,) = walkers
        assert len(made) == sum(not isinstance(node, Q) for node, _ in ex.memo)
        for poly in made:
            parts = ring_parts(poly)
            assert [poly.ring.is_zero(d) for d in range(len(parts))] == [r.is_zero for r in parts]

    def test_weighted_sum_matches_termwise_loops(self):
        # weights 1, -1, 3, -4 over three leaves and a product truncated at its
        # first box: pairs and boxes are the integer sums of w times each pair,
        # exact parts the ring sums of w times each part its term's prefix holds
        ex = certify_module._Expansion(THEOREMS["A"], 192)
        terms = [(1, ex(Q(0), 1)), (-1, ex(Q(2), -1)), (3, ex(Mul(Q(1), Q(3)), 1)), (-4, ex(Q(4), 1))]
        got = HybridPoly.weighted_sum(terms)
        n = max(len(p.ring_pairs) for _, p in terms)
        lo, hi, boxes = [0] * n, [0] * n, {}
        for w, p in terms:
            for d, (a, b) in enumerate(p.ring_pairs):
                lo[d], hi[d] = lo[d] + min(w * a, w * b), hi[d] + max(w * a, w * b)
            for d, (a, b) in p.errs.items():
                x, y = boxes.get(d, (0, 0))
                boxes[d] = x + min(w * a, w * b), y + max(w * a, w * b)
        assert got.ring_pairs == list(zip(lo, hi)) and got.errs == boxes
        product = terms[2][1]
        assert product.errs and product.ring.n == min(product.errs) + 1 < n
        assert got.ring.n == product.ring.n
        for d in range(got.ring.n):
            assert got.ring[d] == ring_sum((w, p.ring[d]) for w, p in terms if d < p.ring.n), d
        assert any(not got.ring[d].is_zero for d in range(got.ring.n))

    # Hand-made terms: every pair sign (c >= 0, d <= 0, straddling 0, (0, 0)) at some degree,
    # pairs of different lengths, and each box at a degree where no other term has one.
    WEIGHTED_TERMS = [
        ([(2, 5), (-7, -3), (-4, 6), (0, 0)], {3: (-2, 0)}),
        ([(0, 0), (3, 3), (-9, 1)], {1: (0, 4)}),
        ([(-5, -5), (0, 8), (0, 0), (1, 2), (-6, -1)], {0: (-3, 5), 4: (-1, 0)}),
        ([(-1, 4)], {}),
        ([(6, 9), (-2, 0), (-8, -8), (0, 0), (4, 7), (-3, 3)], {5: (0, 2)}),
    ]

    @pytest.mark.parametrize("turn", range(5))
    def test_weighted_sum_of_hand_made_terms(self, turn):
        # the weights -3, -1, 0, 1, 2, turned so each term takes each weight once over the
        # cases: pairs and boxes are the termwise sums of min and max of w times the ends,
        # and exact part d the Fraction sum of w times the terms' parts (the pair's midpoint
        # plus a pi^(d-1) sqrt3 term: the sum reads no part's pair)
        weights, prec = [-3, -1, 0, 1, 2][turn:] + [-3, -1, 0, 1, 2][:turn], 16
        w_scale, terms = 2 ** (prec + 16), []
        for w, (pairs, errs) in zip(weights, self.WEIGHTED_TERMS):
            parts = {d: RingElem({(0, 0): F(a + b, 2 * w_scale), (d - 1, 1): F(1, d + 3)})
                     for d, (a, b) in enumerate(pairs)}
            terms.append((w, HybridPoly(certify_module._Ring.given_whole(parts, pairs), errs, prec)))
        got = HybridPoly.weighted_sum(terms)
        n = max(len(pairs) for pairs, _ in self.WEIGHTED_TERMS)
        lo, hi, boxes = [0] * n, [0] * n, {}
        for w, p in terms:
            for d, (a, b) in enumerate(p.ring_pairs):
                lo[d], hi[d] = lo[d] + min(w * a, w * b), hi[d] + max(w * a, w * b)
            for d, (a, b) in p.errs.items():
                x, y = boxes.get(d, (0, 0))
                boxes[d] = x + min(w * a, w * b), y + max(w * a, w * b)
        assert got.ring_pairs == list(zip(lo, hi))
        assert got.errs == {d: e for d, e in boxes.items() if e != (0, 0)} and got.prec == prec
        for d in range(n):
            assert got.ring[d] == ring_sum((w, p.ring[d]) for w, p in terms), d

    @pytest.mark.parametrize("part, lo, hi, zero", [
        (RingElem(), 0, 0, True),                        # [0, 0]: zero, no exact part read
        (RingElem(), -1, 1, True),                       # straddles 0: the exact part decides
        (RingElem.from_rational(F(1, 2)), -1, 1, False),
        (RingElem(), 0, 1, True),                        # touches 0 at one endpoint
        (RingElem(), -1, 0, True),
        (RingElem.from_rational(F(1, 2)), 0, 1, False),
        (RingElem.from_rational(F(-1, 2)), -1, 0, False),
        (RingElem.from_rational(3), 2, 4, False),        # excludes 0: nonzero
    ], ids=["point-zero", "straddle-zero", "straddle-nonzero", "touch-lo-zero", "touch-hi-zero",
            "touch-lo-nonzero", "touch-hi-nonzero", "excludes-zero"])
    def test_zero_test_cases(self, part, lo, hi, zero):
        assert certify_module._Ring.given_whole({0: part}, [(lo, hi)]).is_zero(0) is zero

    def test_enclosure_decides_without_exact_part(self):
        # no part is read when the enclosure decides; past the exact
        # prefix a straddling enclosure may hold a nonzero part
        ring = certify_module._Ring(2, lambda d: pytest.fail(f"part {d} read"), [(0, 0), (1, 1), (-1, 1)])
        assert ring.is_zero(0) and not ring.is_zero(1) and not ring.is_zero(2)
        assert not ring

    def test_only_leading_parts_computed(self, monkeypatch):
        # certifying reads no exact part above the first nonzero degree
        monkeypatch.setattr(certify_module, "_RINGS", {})
        certified = []
        certify = certify_module.certify_positive
        monkeypatch.setattr(certify_module, "certify_positive",
                            lambda ineq, *args: certified.append(ineq) or certify(ineq, *args))
        build_ineq.cache_clear()
        for ineq_id, lead in LEADING_DEGREES.items():
            cert = certify_inequality(ineq_id)
            assert cert.leading_zero_degree == lead and cert.prec == 192
            computed = certified[-1].poly.ring  # the last one certified is the statement's
            assert computed and max(computed) <= lead, ineq_id
        build_ineq.cache_clear()


class TestCrossovers:
    def test_window_certified_ids(self):
        # six of the eight certify at the envelope validity window
        for ineq_id, window in [
            ("ineq1", 5019), ("ineq5", 5019),
            ("ineq3", 18502), ("ineq4", 18502),
            ("ineq-L3", 18502), ("ineq-c-L3", 18502),
        ]:
            n_star, cert = find_crossover(INEQUALITIES[ineq_id])
            assert cert.proved and n_star == window, ineq_id

    def test_companion_crossovers(self):
        # the companion polynomials are genuinely negative at the window;
        # the search must land between the true crossover and the seam
        n2, cert2 = find_crossover("A-companion")
        assert cert2.proved and 5845 <= n2 <= THEOREMS["A-companion"].seam
        n6, cert6 = find_crossover("double-turan-companion")
        assert cert6.proved and 6929 <= n6 <= THEOREMS["double-turan-companion"].seam

    def test_companion_not_certifiable_at_window(self):
        cert = certify_inequality("ineq2")
        assert not cert.proved

    def test_proves_at_24_bits_without_escalating(self, monkeypatch):
        # with every coefficient an integer pair at 2^-(prec + 16), A-companion's
        # n_star = 5847 proves at 24 bits (when every product rounded to 24
        # bits, rounding left it open and 48 bits proved it); a trial that
        # rounding leaves open comes back at the precision asked for, after
        # one certifier call: no precision is raised
        cert = certify_inequality("ineq2", 5847, 24)
        assert cert.proved and cert.prec == 24
        certify, calls = certify_module.certify_positive, []

        def hidden(ineq, x0):
            calls.append(ineq.poly.prec)
            cert = certify(ineq, x0)
            cert.status, cert.reason = "inconclusive", f"rounding hides the sign at x={float(x0)}"
            return cert

        monkeypatch.setattr(certify_module, "certify_positive", hidden)
        cert = certify_inequality("ineq2", 5847, 24)
        assert not cert.proved and cert.prec == 24 and calls == [24]

    @pytest.mark.parametrize("tid, trials", [
        ("A-companion",
         [5019, 5885, 5452, 5668, 5776, 5830, 5857, 5843, 5850, 5846, 5848, 5847]),
        ("double-turan-companion",
         [5019, 7056, 6037, 6546, 6801, 6928, 6992, 6960, 6944, 6936, 6932, 6934, 6933]),
    ])
    def test_companion_search_trials(self, monkeypatch, tid, trials):
        # the window, then the seam, then bisection between them
        seen = []
        certify = certify_module.certify_inequality

        def record(ineq_id, n_star, *args):
            seen.append(n_star)
            return certify(ineq_id, n_star, *args)

        monkeypatch.setattr(certify_module, "certify_inequality", record)
        assert find_crossover(tid)[0] == trials[-1]
        assert seen == trials

    def test_n_star_checked_before_expansion(self, monkeypatch):
        def no_expansion(*args):
            raise AssertionError("expanded before the window check")

        monkeypatch.setattr(certify_module, "build_ineq", no_expansion)
        with pytest.raises(ValueError, match="n_star=100 below envelope validity window 18502"):
            certify_inequality("ineq3", n_star=100)
        with pytest.raises(ValueError, match="unknown inequality id: 'ineq9'"):
            certify_inequality("ineq9")

    @pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
    def test_certificate_checks_in_rationals(self, theorem_id):
        # independent of horner and the bisection, in exact Fractions: (a) for
        # x in [0, x_star] every family member is at least sum lo_k x^k, which
        # is positive there when all its Bernstein coefficients on [0, x_star]
        # are; (b) every stripped degree is an exact ring zero with no box
        n_star, cert = find_crossover(theorem_id)
        assert cert.proved
        ineq = build_ineq(THEOREMS[theorem_id].ineq_id)
        poly, reduced = ineq.poly, ineq.fixed[cert.leading_zero_degree:]
        x0, unit = cert.x_star.to_fraction(), 1 << (cert.prec + 16)
        lo = [F(a, unit) * x0**k for k, (a, _) in enumerate(reduced)]
        n = len(lo) - 1
        bernstein = [sum(F(comb(i, k), comb(n, k)) * lo[k] for k in range(i + 1)) for i in range(n + 1)]
        assert all(b > 0 for b in bernstein)
        assert len(reduced) == len(poly.ring_pairs) - cert.leading_zero_degree
        for d in range(cert.leading_zero_degree):
            assert poly.ring[d].is_zero and d not in poly.errs

    def test_soundness_random_points(self):
        # proved certificate: reduced polynomial positive at random x
        rng = random.Random(44)
        n_star, cert = find_crossover("A")
        ineq = build_ineq("ineq1")
        for _ in range(100):
            fx = F(rng.randint(1, 10**6), 10**6) * cert.x_star.to_fraction()
            x = Interval.from_fraction(fx, 192)
            acc = Interval.point(0)
            for c in reversed(ineq.fixed[cert.leading_zero_degree:]):
                acc = acc.mul(x, 192).add(pair_interval(c, 192), 192)
            assert acc.is_positive


class TestExactRegime:
    def test_exact_verify_clean_stretch(self, table20k):
        assert exact_verify("A", table20k, 229, 1200) == []
        assert exact_verify("laguerre3", table20k, 651, 1200) == []

    def test_exact_verify_finds_known_violation(self, table20k):
        # the companion double-Turan statement fails exactly at 348
        assert exact_verify("double-turan-companion", table20k, 344, 400) == [348]

    def test_reads_outside_table_raise(self, table2k):
        # n = 0 and n = 1 need q(-2) and q(-1): below the scan floor 2 the statement is
        # undefined, and a negative index must not wrap to the table's end
        with pytest.raises(ValueError, match="below the scan floor 2"):
            exact_verify("double-turan", table2k, -2, 3)
        with pytest.raises(ValueError, match="below the scan floor 2"):
            theorem_predicate("double-turan", table2k, 1)
        with pytest.raises(IndexError):  # n0 = n_max - 3 reads q(n_max + 1)
            theorem_predicate("double-turan", table2k, table2k.n_max - 1)
        with pytest.raises(IndexError):
            table2k[-1]

    def test_sharpness_witnesses(self, table20k):
        for tid, witness in SHARPNESS_WITNESSES.items():
            below = sharpness_scan(tid, table20k)
            assert below, tid
            assert max(below) == witness, tid

    def test_agreement_of_regimes(self, table20k):
        # certified regime never contradicts exact arithmetic
        rng = random.Random(99)
        for tid in THEOREMS:
            n_star, cert = find_crossover(tid)
            assert cert.proved
            spec = THEOREMS[tid]
            for _ in range(50):
                n = rng.randint(n_star + spec.shift, 20000 - 6)
                assert theorem_predicate(tid, table20k, n), (tid, n)


# -- independent oracle: the companion statements decided by interval refinement


def _decide_sign(make_iv, prec: int = 192, max_prec: int = 1536) -> int:
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


def _oracle_a_companion(table, n: int) -> bool:
    # 4 (1 + pi^2/(32 n^3)) q(n) q(n+2) > q(n-1) q(n+3) + 3 q(n+1)^2
    qm1, q0, q1, q2, q3 = table.window(n - 1, 5)
    p_term = q0 * q2
    base = 4 * p_term - (qm1 * q3 + 3 * q1**2)

    def iv(p):
        return _pi_pow(2, p).mul(Interval.from_fraction(F(p_term, 8 * n**3), p), p).add(Interval.point(base), p)

    return _decide_sign(iv) > 0


def _oracle_b_companion(table, n: int) -> bool:
    # (1 + pi^3/(288 sqrt3 n^{9/2})) (2 q(n)q(n+1)q(n+2) + q(n-1)q(n+1)q(n+3))
    #   > q(n+1)^3 + q(n-1)q(n+2)^2 + q(n)^2 q(n+3)
    qm1, q0, q1, q2, q3 = table.window(n - 1, 5)
    pos = 2 * q0 * q1 * q2 + qm1 * q1 * q3
    base = pos - (q1**3 + qm1 * q2**2 + q0**2 * q3)

    def iv(p):
        factor = (
            _pi_pow(3, p)
            .mul(_sqrt3(p), p)
            .div(Interval.point(n).sqrt(p).mul(Interval.point(864 * n**4), p), p)
        )
        return factor.mul(Interval.from_fraction(pos, p), p).add(Interval.point(base), p)

    return _decide_sign(iv) > 0


def _oracle_double_turan_companion(table, n: int) -> bool:
    # gap^2 < left * right * (1 + pi/(2 sqrt3 n^{3/2}))
    qm2, qm1, q0, q1, q2 = table.window(n - 2, 5)
    gap, left, right = q0**2 - qm1 * q1, qm1**2 - qm2 * q0, q1**2 - q0 * q2
    base = left * right - gap * gap

    def iv(p):
        factor = (
            _pi_pow(1, p)
            .mul(_sqrt3(p), p)
            .div(Interval.point(n).sqrt(p).mul(Interval.point(6 * n), p), p)
        )
        return factor.mul(Interval.from_fraction(left * right, p), p).add(Interval.point(base), p)

    return _decide_sign(iv) > 0


def _oracle_laguerre3_companion(table, n: int) -> bool:
    # 10 q(n+3)^2 + 6 q(n+1) q(n+5)
    #   < (15 q(n+2) q(n+4) + q(n) q(n+6)) (1 + 5 pi^3/(256 sqrt3 n^{9/2}))
    q0, q1, q2, q3, q4, q5, q6 = table.window(n, 7)
    pos = 15 * q2 * q4 + q0 * q6
    base = pos - (10 * q3**2 + 6 * q1 * q5)

    def iv(p):
        factor = (
            _pi_pow(3, p)
            .mul(_sqrt3(p).mul(Interval.point(5), p), p)
            .div(Interval.point(n).sqrt(p).mul(Interval.point(768 * n**4), p), p)
        )
        return factor.mul(Interval.from_fraction(pos, p), p).add(Interval.point(base), p)

    return _decide_sign(iv) > 0


COMPANION_ORACLES = {
    "A-companion": _oracle_a_companion,
    "B-companion": _oracle_b_companion,
    "double-turan-companion": _oracle_double_turan_companion,
    "laguerre3-companion": _oracle_laguerre3_companion,
}


@pytest.mark.parametrize("tid", sorted(COMPANION_ORACLES))
def test_integer_decision_matches_refinement(tid, table20k):
    oracle = COMPANION_ORACLES[tid]
    for n in range(THEOREMS[tid].scan_floor, 2001):
        assert theorem_predicate(tid, table20k, n) == oracle(table20k, n), (tid, n)


@pytest.mark.parametrize("tid", sorted(COMPANION_ORACLES))
def test_companion_decision_refines_close_calls(tid):
    # A + B t with |A + B t| < 1 and B t about 10^30: the 32-bit c^2 bracket
    # cannot decide, so the decision must come from the doubled brackets
    comp = THEOREMS[tid].companion
    c2 = certify_module._c2_bracket(comp, certify_module._C2_BITS)
    n = 1009
    with mp.workprec(1000):
        t = mp.mpf(comp.r.numerator) / comp.r.denominator * mp.pi**comp.i * mp.sqrt(3)**comp.j \
            * mp.mpf(n) ** (-mp.mpf(comp.a) / 2)
        b = int(mp.ceil(mp.mpf(10) ** 30 / t))
        bt = int(mp.floor(b * t))
        for a, b_ in [(-bt, b), (-bt - 1, b), (bt, -b), (bt + 1, -b)]:
            truth = a + b_ * t > 0
            assert certify_module._positive(a, b_, n, comp, c2) == truth, (tid, a, b_)


# independent oracles for the statements without a companion: the value itself
PLAIN_ORACLES = {
    "A": lambda table, n: invariant_a(*table.window(n - 1, 5)),
    "B": lambda table, n: invariant_b(*table.window(n - 1, 5)),
    "laguerre3": lambda table, n: laguerre(3, table, n),
}


@pytest.mark.parametrize("tid", sorted(COMPANION_ORACLES) + sorted(PLAIN_ORACLES))
def test_block_scan_matches_oracles(tid, table20k):
    floor = THEOREMS[tid].scan_floor
    if tid in COMPANION_ORACLES:
        expected = [n for n in range(floor, 2001) if not COMPANION_ORACLES[tid](table20k, n)]
    else:
        expected = [n for n in range(floor, 2001) if PLAIN_ORACLES[tid](table20k, n) <= 0]
    assert expected  # every statement fails somewhere below 2001
    shift = THEOREMS[tid].shift
    assert exact_verify(tid, table20k, floor - shift, 2000 - shift) == expected


BLOCK = certify_module.BLOCK


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_block_edges_match_single_indices(tid, table20k):
    # ranges from 220 = 348 - BLOCK: the length BLOCK + 1 range ends at 348,
    # the first index of its second block, and 2 BLOCK + 1 straddles it
    lo, shift = 348 - BLOCK, THEOREMS[tid].shift
    for length in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        hi = lo + length - 1
        expected = [n for n in range(lo, hi + 1) if not theorem_predicate(tid, table20k, n)]
        assert exact_verify(tid, table20k, lo - shift, hi - shift) == expected, (tid, length)
    if tid == "double-turan-companion":
        assert 348 in exact_verify(tid, table20k, lo - shift, lo + BLOCK - shift)


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_scan_reading_past_table_raises(tid, table2k):
    spec = THEOREMS[tid]
    top = table2k.n_max - spec.shifts[-1]  # the last n0 that reads only q(<= n_max)
    ns = range(top - 2 * BLOCK + spec.shift, top + spec.shift + 1)
    assert exact_verify(tid, table2k, top - 2 * BLOCK, top) == [n for n in ns if not theorem_predicate(tid, table2k, n)]
    with pytest.raises(IndexError):
        exact_verify(tid, table2k, top - 2 * BLOCK, top + 1)


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_scan_below_floor_raises(tid, table2k):
    # one index below scan_floor the statement is undefined: a leaf reads q(n0 < 0), or the
    # companion n^(-a/2) at n = 0 (laguerre3-companion, shift 0, at n0 = 0 inside the table).
    # A range starting there is refused; the empty range and the range from the floor are not
    spec = THEOREMS[tid]
    lo = spec.scan_floor - spec.shift - 1
    with pytest.raises(ValueError, match=f"n = {spec.scan_floor - 1}, below the scan floor {spec.scan_floor}"):
        exact_verify(tid, table2k, lo, lo + BLOCK)
    assert exact_verify(tid, table2k, lo, lo - 1) == []
    assert exact_verify(tid, table2k, lo + 1, lo + BLOCK) == \
        [n for n in range(spec.scan_floor, spec.scan_floor + BLOCK) if not theorem_predicate(tid, table2k, n)]


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_zero_table_fails_everywhere(tid):
    # A = B = 0 at every index: every index is reported
    spec = THEOREMS[tid]
    zeros = QTable(40, (0,) * 41)
    top = zeros.n_max + spec.shift - spec.shifts[-1]
    assert exact_verify(tid, zeros, spec.scan_floor - spec.shift, top - spec.shift) == \
        list(range(spec.scan_floor, top + 1))


def test_scan_floor_derived_from_statement():
    # max(shift, 1 with a companion): the values the table recorded by hand
    # before the floor was derived
    recorded = {"A": 1, "A-companion": 1, "B": 1, "B-companion": 1, "double-turan": 2,
                "double-turan-companion": 2, "laguerre3": 0, "laguerre3-companion": 1}
    assert {tid: spec.scan_floor for tid, spec in THEOREMS.items()} == recorded


# -- the scan kernels against the recursive oracle -------------------------------


def _toy_statements() -> dict[str, object]:
    """The toy statements of this file, and trees the theorems do not have: a
    leaf alone, a lowest leaf above 0, a companion alone or weighted -1, and a
    companion under a square (B = 2 A B there)."""
    x, y = _companion_sum_and_swapped()
    d = Sum((1, Q(0)), (-2, Q(1)))
    slack = Companion(_gap(1), F(1, 6), 1, 1, 3, slack=F(1, 25))
    return {
        "square-of-companion-sum": Sq(x),
        "product-of-companion-sum": Mul(x, y),
        "double-turan-slack": Sum((1, Mul(slack, _gap(3))), (-1, Sq(_gap(2)))),
        "negative-operand": Mul(d, d),
        "leaf": Q(3),
        "lowest-leaf-2": Sum((5, Q(4)), (-1, Mul(Q(2), Q(5)))),
        "companion-alone": Companion(Mul(Q(2), Q(3)), F(1), 0, 0, 2),
        "companion-weight-minus-one": Sum((-1, Companion(Sum((1, Q(0)), (1, Q(2))), F(1, 2), 0, 0, 0)),
                                          (3, Sq(Q(1)))),
    }


STATEMENTS = {**{tid: spec.statement for tid, spec in THEOREMS.items()}, **_toy_statements()}


def _width(node) -> int:
    return max(n.s for n in certify_module._nodes(node) if isinstance(n, Q))


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_kernel_matches_recursive_oracle(name, table2k):
    # exactly in (A, B), B None included, at the block lengths the scans and
    # their edges use, on random leaves (0, -1, 1-bit and signed wide values)
    # and on windows of the real table
    node, rng = STATEMENTS[name], random.Random(name)
    width = _width(node)
    pool = [0, 1, -1, 2, -2, 3]
    for m in (1, 2, BLOCK - 1, BLOCK, BLOCK + width):
        vectors = [[rng.choice(pool) for _ in range(m + width)],
                   [rng.getrandbits(1) for _ in range(m + width)],
                   [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((1, 64, 700))) for _ in range(m + width)],
                   table2k.values[1000 : 1000 + m + width], table2k.values[2001 - m - width :]]
        for q in vectors:
            assert _kernel_values(node, q, m) == _oracle_values(node, q, m), (name, m)


_WEIGHTS = (-5, -3, -2, -1, 1, 2, 3, 4)


def _moved(node, d: int):
    """node, which has no companion, with its leaves moved up by d."""
    if isinstance(node, Q):
        return Q(node.s + d)
    if isinstance(node, Sum):
        return Sum(*((w, _moved(t, d)) for w, t in node.terms))
    return Mul(_moved(node.a, d), _moved(node.b, d))


def _random_companion(rng: random.Random, body) -> Companion:
    return Companion(body, F(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(0, 3), rng.randint(0, 1),
                     rng.randint(0, 9))


def _random_tree(rng: random.Random, degree: int, companion: bool = False, depth: int = 0):
    """A random homogeneous tree of the degree: leaves at shifts 0-6, sums of small integer weights,
    products and squares, and with companion exactly one Companion, never under a square."""
    if companion and rng.random() < 0.3:
        return _random_companion(rng, _random_tree(rng, degree, False, depth + 1))
    if depth <= 3 and rng.random() < 0.5:  # one to three terms, one with the companion, some shifted repeats
        n = rng.randint(1, 3)
        at = rng.randrange(n) if companion else -1
        terms = []
        for i in range(n):
            term = _random_tree(rng, degree, i == at, depth + 1)
            if terms and at not in (i, i - 1) and rng.random() < 0.7:
                term = _moved(terms[-1][1], rng.randint(-certify_module._low(terms[-1][1]), 6 - _width(terms[-1][1])))
            terms.append((rng.choice(_WEIGHTS), term))
        return Sum(*terms)
    if degree == 1:
        leaf = Q(rng.randint(0, 6))
        return _random_companion(rng, leaf) if companion else leaf
    if degree % 2 == 0 and not companion and rng.random() < 0.3:
        return Sq(_random_tree(rng, degree // 2, False, depth + 1))
    k, left = rng.randint(1, degree - 1), rng.random() < 0.5
    return Mul(_random_tree(rng, k, companion and left, depth + 1),
               _random_tree(rng, degree - k, companion and not left, depth + 1))


@pytest.mark.parametrize("seed", range(8))
def test_generated_kernels_match_oracles(seed):
    # random trees against the recursive oracle: every value at the block lengths the scans use,
    # and on exact values (E = 0) and within a bound E > 0 the open entries are the fused rule's,
    # which leaves open every index oracles.positive_untruncated finds not positive
    rng = random.Random(seed)
    for tree in [_random_tree(rng, rng.randint(1, 4), companion) for companion in (False, True) * 4]:
        width, comp = _width(tree), next((n for n in certify_module._nodes(tree) if isinstance(n, Companion)), None)
        assert certify_module._weight_degree(tree)[1] is not None
        for m in (1, BLOCK - 1, BLOCK, BLOCK + width):
            q = [rng.choice((-1, 1, 1)) * rng.getrandbits(rng.choice((1, 8, 64, 200))) for _ in range(m + width)]
            values = _oracle_values(tree, q, m)
            assert _kernel_values(tree, q, m) == values, tree.show(1)
            ns = range(1000, 1000 + m)
            t = comp and certify_module._t_bound(comp, certify_module._c2_bracket(comp, certify_module._C2_BITS), ns)
            for err in (0, rng.getrandbits(rng.choice((1, 8, 64, 200)))):
                entries = certify_module._kernel(tree)(q, m, err, t)
                a, b = values[0], values[1] or [None] * m
                assert entries == [(k, a[k], b[k]) for k in range(m) if (
                    a[k] <= err if comp is None else not (b[k] > err and ((a[k] - err) << 128) + (b[k] - err) * t > 0))]
                if err == 0:
                    shut = set(range(m)) - {k for k, _, _ in entries}
                    assert all(a[k] > 0 if comp is None else positive_untruncated(a[k], b[k], ns[k], comp)
                               for k in shut)


def test_registers_are_the_shifted_repeats():
    # a subterm read at two or more offsets is one register list over the positions its readers
    # take: q^2 of B and B-companion, read at q(1)..q(3), and T of both double-Turan statements,
    # read at T(1)..T(3); every other term is inlined, each kernel is one comprehension per block
    square = "r0 = [v0*v0 for (v0,) in zip(q[1:3+m])]"
    gap = "r0 = [v0*v0 - v1*v2 for (v0, v1, v2,) in zip(q[1:3+m], q[0:2+m], q[2:4+m])]"
    expected = {"B": [square], "B-companion": [square], "double-turan": [gap], "double-turan-companion": [gap]}
    for tid, spec in THEOREMS.items():
        lines = certify_module._source(spec.statement).splitlines()
        assert [ln.strip() for ln in lines if ln.startswith("    r") and " = [" in ln] == expected.get(tid, []), tid
        assert sum("for " in ln for ln in lines) == 1 + len(expected.get(tid, [])), tid


def test_companion_term_bound_once():
    # B is computed once per index and read again as A's companion term: q1 q3 scaled by 4 once
    source = certify_module._source(THEOREMS["A-companion"].statement)
    assert "(x := (y := 4*v0*v1) - v2*v3 - 3*v4*v4)" in source and source.count(" 4*") == 1



# -- the companion sign on brackets against the untruncated rule --------------

# c^2 rational, so c2 is exact and a bracket can decide within one unit of
# 2^s: t = 1/2, t = sqrt3 and t = 5/n
RATIONAL_COMPANIONS = (Companion(Q(0), F(1, 2), 0, 0, 0), Companion(Q(0), F(1), 0, 1, 0),
                       Companion(Q(0), F(5), 0, 0, 2))


def _t(comp, n: int):
    return mp.mpf(comp.r.numerator) / comp.r.denominator * mp.pi**comp.i * mp.sqrt(3) ** comp.j \
        * mp.mpf(n) ** (-mp.mpf(comp.a) / 2)


def _near_ties(comp, n: int, s: int) -> list[tuple[int, int]]:
    """(A, B) of opposite signs, |A| of 64 + s bits at either end of its unit
    2^s, |B| within two of |A|/t and at either end of the units 2^s next to it."""
    out = []
    with mp.workprec(2000):
        t = _t(comp, n)
        for ah in (2**63, 2**63 + 12345, 3 << 62 | 777, 2**64 - 1):
            for abs_a in {ah << s, (ah << s) + (1 << s) - 1}:
                b0 = int(mp.floor(abs_a / t))
                near = {b0 + d for d in range(-2, 3)}
                near |= {((b0 >> s) + d << s) + e for d in (-1, 0, 1) for e in (0, (1 << s) - 1)}
                out += [(x, y) for abs_b in near for x, y in ((abs_a, -abs_b), (-abs_a, abs_b))]
    return out


@pytest.mark.parametrize("s", [0, 1, 2, 7, 100])
def test_bracket_matches_untruncated_rule_near_ties(s):
    # |A| of 64 bits (s = 0, the exact rule only) and 65 and more (the
    # brackets first), A + B t within one unit of 2^s of zero on each side
    n = 1009
    for comp in RATIONAL_COMPANIONS + tuple(THEOREMS[tid].companion for tid in sorted(COMPANION_ORACLES)):
        c2 = certify_module._c2_bracket(comp, certify_module._C2_BITS)
        cases = _near_ties(comp, n, s)
        with mp.workprec(2000):
            values = [a + b * _t(comp, n) for a, b in cases]
        assert any(0 < v < 2**s for v in values) and any(-(2**s) < v < 0 for v in values), comp.r
        for a, b in cases:
            assert certify_module._positive(a, b, n, comp, c2) == positive_untruncated(a, b, n, comp), (a, b)


def test_bracket_edge_cases():
    # A = 0, B = 0, same signs, and A + B t = 0 with c^2 rational: not positive
    n = 1009
    for comp in RATIONAL_COMPANIONS + (THEOREMS["B-companion"].companion,):
        c2 = certify_module._c2_bracket(comp, certify_module._C2_BITS)
        cases = [(0, 0), (0, 5), (0, -5), (5, 0), (-5, 0), (3, 4), (-3, -4), (2**100, 2**90), (-(2**100), -3)]
        for a, b in cases:
            assert certify_module._positive(a, b, n, comp, c2) == positive_untruncated(a, b, n, comp), (a, b)
    half, sqrt3, five_over_n = RATIONAL_COMPANIONS
    ties = [(half, 2**100 + 6, -(2**101) - 12), (half, -(2**70) - 1, 2**71 + 2), (half, 7, -14),
            (five_over_n, 5 * 2**90, -(n * 2**90)), (five_over_n, -5 * (2**64 + 3), n * (2**64 + 3))]
    for comp, a, b in ties:
        c2 = certify_module._c2_bracket(comp, certify_module._C2_BITS)
        assert not certify_module._positive(a, b, n, comp, c2), (a, b)
        assert not positive_untruncated(a, b, n, comp)
    c2 = certify_module._c2_bracket(sqrt3, certify_module._C2_BITS)
    assert F(*c2[0]) == F(*c2[1]) == 3


# -- the scans on truncated operands against exact values ------------------------


def _scan_blocks(spec, table, lo, hi):
    """(statement indices, table slice) per block of statement indices lo..hi, as exact_verify cuts
    n0 = lo - shift .. hi - shift."""
    n0, width = lo - spec.shift, spec.shifts[-1]
    for i in range(0, hi - lo + 1, BLOCK):
        m = min(BLOCK, hi - lo + 1 - i)
        yield range(lo + i, lo + i + m), table.values[n0 + i : n0 + i + m + width]


def _brackets_hold(node, q, m) -> tuple[int, int]:
    """Assert that the kernel's a and b on the truncated slice lie within E of the exact
    A and B over 2^(d e); returns (e, E)."""
    weight, degree = certify_module._weight_degree(node)
    e, err = certify_module._truncation(q, weight, degree)
    for xs, exact in zip(_kernel_values(node, [v >> e for v in q], m), node_values(node, q, m)):
        if exact is not None:
            for x, v in zip(xs, exact, strict=True):
                assert (x - err) << degree * e <= v <= (x + err) << degree * e, (x, v, e, err)
    return e, err


def _exact_range_top(tid) -> int:
    return find_crossover(tid)[0] - 1 + THEOREMS[tid].shift


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_scan_brackets_contain_exact_values(tid, table20k):
    # every index from the scan floor to the exact range's top, n_star - 1 + shift
    spec = THEOREMS[tid]
    truncated = sum(_brackets_hold(spec.statement, q, len(ns))[0] > 0
                    for ns, q in _scan_blocks(spec, table20k, spec.scan_floor, _exact_range_top(tid)))
    assert truncated  # q passes 2^96 near n = 1350


def _scannable(node) -> bool:
    try:
        TheoremSpec("toy", "0", 1, 0, 14, node, "none", 2)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(n for n, node in STATEMENTS.items() if _scannable(node)))
def test_brackets_hold_on_adversarial_operands(name):
    # operands whose dropped bits are all ones (delta next to 1) move a monomial of
    # positive weights by nearly (Q + 1)^d - Q^d; random wide, signed and narrow ones too
    node, rng = STATEMENTS[name], random.Random(name)
    width = _width(node)
    for m in (1, BLOCK):
        size = m + width
        vectors = [[2**300 - 1] * size,
                   [(rng.getrandbits(96) | 1 << 95) << 204 | (1 << 204) - 1 for _ in range(size)],
                   [rng.choice((-1, 1)) * rng.getrandbits(rng.choice((97, 300, 700))) for _ in range(size)],
                   [rng.getrandbits(90) for _ in range(size)]]
        for q in vectors:
            _brackets_hold(node, q, m)


@pytest.mark.parametrize("tid", sorted(COMPANION_ORACLES))
def test_block_t_bound_below_t(tid):
    # T 2^-128 <= t(n) = r pi^i sqrt3^j n^(-a/2) at every n of every block, in rationals:
    # T^2 n^a <= 2^256 r^2 3^j pi^(2i) with pi from below, and T^2 within 2^-24 of that at the block's top
    spec = THEOREMS[tid]
    comp = spec.companion
    c2 = certify_module._c2_bracket(comp, certify_module._C2_BITS)
    c2_low, top = comp.r**2 * 3**comp.j * pi_bracket(128)[0] ** (2 * comp.i), _exact_range_top(tid)
    for first in range(spec.scan_floor, top + 1, BLOCK):
        ns = range(first, min(first + BLOCK, top + 1))
        t = certify_module._t_bound(comp, c2, ns)
        assert all(t * t * n**comp.a <= c2_low * 2**256 for n in ns), (tid, ns)
        assert t * t * ns[-1] ** comp.a > c2_low * 2**256 * (1 - F(1, 2**24)), (tid, ns)


def test_spec_refuses_inhomogeneous_statement():
    with pytest.raises(ValueError, match="not homogeneous"):
        TheoremSpec("mixed", "0", 10, 0, 14, Sum((1, Q(0)), (-1, Mul(Q(0), Q(1)))), "none", 20)
    degrees = {tid: certify_module._weight_degree(spec.statement)[1] for tid, spec in THEOREMS.items()}
    assert degrees == {"A": 2, "A-companion": 2, "B": 3, "B-companion": 3, "double-turan": 4,
                       "double-turan-companion": 4, "laguerre3": 2, "laguerre3-companion": 2}


ZERO = Sum((1, Mul(Q(0), Q(2))), (-1, Mul(Q(2), Q(0))))


def _kernel_runs(monkeypatch) -> list:
    """The q of every kernel run from here on, truncated or exact, in order."""
    runs, kernel = [], certify_module._kernel
    monkeypatch.setattr(certify_module, "_kernel", lambda statement: lambda q, *args: runs.append(q) or
                        kernel(statement)(q, *args))
    return runs


@pytest.mark.parametrize("statement", [ZERO, Companion(ZERO, F(1, 6), 1, 1, 3)], ids=["plain", "companion"])
def test_open_blocks_rerun_exactly(statement, table20k, monkeypatch):
    # A = B = 0 at every index: the brackets [-E, E] decide nothing, so each block, its
    # q above 2^96, runs its kernel twice, truncated and then exact, and every index fails
    spec = TheoremSpec("zero", "0", 1, 0, 14, statement, "none", 2)
    monkeypatch.setitem(certify_module.THEOREMS, spec.id, spec)
    runs = _kernel_runs(monkeypatch)
    lo, hi = 2000, 2000 + 2 * BLOCK
    assert exact_verify("zero", table20k, lo, hi) == list(range(lo, hi + 1))
    assert len(runs) == 6 and runs[1::2] == [q for _, q in _scan_blocks(spec, table20k, lo, hi)]


@pytest.mark.parametrize("sign", [1, -1], ids=["corner-a-negative", "corner-b-negative"])
def test_corner_refines_c2_without_rerun(sign, monkeypatch):
    # q(n + 1) (1 + t) > q(n), t = pi sqrt3 / (6 n^(3/2)), on one block whose q has e = 300 and
    # top bits h chosen from the top index down: each corner (a - E, b - E) = (h1 - h0 - 2, h1 - 2)
    # has (a - E) + (b - E) t in (0, 1), with a - E < 0 < b - E (q > 0) or b - E < 0 < a - E (q < 0).
    # The 32-bit c^2 bracket decides no corner; _positive refines it at the corner, so the block
    # runs once, truncated, and its verdicts are the untruncated rule's
    comp = Companion(Q(1), F(1, 6), 1, 1, 3)
    spec = TheoremSpec("corner", "0", 1, 0, 14, Sum((1, comp), (-1, Q(0))), "none", 2)
    monkeypatch.setitem(certify_module.THEOREMS, spec.id, spec)
    lo, hi, rng = 1000, 1000 + BLOCK - 1, random.Random(sign)
    h = {hi + 1: sign * (3 << 94)}
    with mp.workprec(2000):
        for n in range(hi, lo - 1, -1):
            bt = abs(h[n + 1] - 2) * _t(comp, n)  # |b - E| t
            h[n] = h[n + 1] - 2 + (int(mp.floor(bt)) if sign > 0 else -int(mp.ceil(bt)))
    values = [0] * lo + [(h[n] << 300) + rng.getrandbits(300) for n in range(lo, hi + 2)]
    q = values[lo:]
    e, err = certify_module._truncation(q, 2, 1)
    a, b = _kernel_values(spec.statement, [v >> e for v in q], BLOCK)
    assert (e, err) == (300, 2)
    c2 = (lo_p, lo_q), (hi_p, hi_q) = certify_module._c2_bracket(comp, certify_module._C2_BITS)
    t = certify_module._t_bound(comp, c2, range(lo, hi + 1))
    for n, x, y in zip(range(lo, hi + 1), a, b, strict=True):
        x, y = x - err, y - err
        assert x * y < 0 and (y < 0 or (x << 128) + y * t <= 0), n
        assert y * y * lo_p <= x * x * n**3 * lo_q and y * y * hi_p >= x * x * n**3 * hi_q, n
    runs = _kernel_runs(monkeypatch)
    exact = {n: node_exact(spec.statement, values[n : n + 2]) for n in range(lo, hi + 1)}
    assert exact_verify(spec.id, QTable(hi + 1, tuple(values)), lo, hi) == \
        [n for n, (a, b) in exact.items() if not positive_untruncated(a, b, n, comp)] == []
    assert runs == [[v >> 300 for v in q]]


def test_companion_near_margin_decides_like_exact_rule(monkeypatch):
    # value q(n) ((1 + 1/n) q(n) - q(n + 1)) = q(n) (n + 1) D(n), q(n) = n M(n), D(n) = M(n) - M(n + 1):
    # D(n) puts the value over 2^(2e) at 0 and +-1, and within one unit of s E (1 + 1/n) for
    # s = +-1, +-2, E the block's own bound (iterated until the table reproduces it)
    comp = Companion(Sq(Q(0)), F(1), 0, 0, 2)  # t = 1/n: c^2 = 1, so a tie is exact
    spec = TheoremSpec("near-margin", "0", 1, 0, 14, Sum((1, comp), (-1, Mul(Q(0), Q(1)))), "none", 2)
    monkeypatch.setitem(certify_module.THEOREMS, spec.id, spec)
    lo, hi = 1000, 1000 + 2 * BLOCK
    targets = [(s, j) for s in (1, -1, 2, -2) for j in (-1, 0, 1)] + [(0, 0), (0, 1), (0, -1)]
    bounds, previous = {}, None
    while bounds != previous:
        previous, big, values = bounds, 2**400, [0] * lo
        for n in range(lo, hi + 2):
            values.append(n * big)
            if n <= hi:
                e, err = bounds.get(n - lo - (n - lo) % BLOCK, (0, 0))
                s, j = targets[n % len(targets)]
                big -= round(F(s * err * (n + 1) + j * n, n) * 2 ** (2 * e) / (values[n] * (n + 1)))
        bounds = {ns[0] - lo: certify_module._truncation(q, 2, 2) for ns, q in
                  _scan_blocks(spec, QTable(hi + 1, tuple(values)), lo, hi)}
    table = QTable(hi + 1, tuple(values))
    exact = {n: node_exact(spec.statement, values[n : n + 2]) for n in range(lo, hi + 1)}
    assert exact_verify(spec.id, table, lo, hi) == \
        [n for n, (a, b) in exact.items() if not positive_untruncated(a, b, n, comp)]
    # the margin is met: positives decided on the brackets and positives left to the exact rule
    decided = {}
    for ns, q in _scan_blocks(spec, table, lo, hi):
        e, err = certify_module._truncation(q, 2, 2)
        a, b = _kernel_values(spec.statement, [v >> e for v in q], len(ns))
        decided.update((n, (x - err) * n + y - err > 0) for n, x, y in zip(ns, a, b))
    positive = [n for n, (a, b) in exact.items() if a * n + b > 0]
    assert {decided[n] for n in positive} == {True, False}
    assert any(a * n + b == 0 for n, (a, b) in exact.items())


def _ineq_sign_via_bounds(theorem_id: str, n: int) -> int:
    """Evaluate the inequality combination through bound_value (with
    prefactors); returns a certified sign or 0 if undecided."""
    spec = THEOREMS[theorem_id]
    N = spec.N
    prec = 192
    L = {s: bound_value(n, s, N, -1, prec) for s in spec.shifts}
    U = {s: bound_value(n, s, N, +1, prec) for s in spec.shifts}
    pt = Interval.point

    def mul(*factors: Interval) -> Interval:  # left to right, as a * b * c
        return reduce(lambda a, b: a.mul(b, prec), factors)

    if theorem_id == "A":
        value = mul(L[0], L[4]).add(mul(pt(3), L[2], L[2]), prec).sub(mul(pt(4), U[1], U[3]), prec)
    elif theorem_id == "A-companion":
        x = pt(1).div(pt(n).sqrt(prec), prec)
        pi_sq = enclose_pi(prec).pow_int(2, prec)
        factor = (
            pt(1)
            .add(mul(pi_sq, x.pow_int(6, prec)).div(pt(32), prec), prec)
            .sub(x.pow_int(7, prec), prec)
        )
        value = (
            mul(pt(4), factor, L[1], L[3])
            .sub(mul(U[0], U[4]), prec)
            .sub(mul(pt(3), U[2], U[2]), prec)
        )
    elif theorem_id == "double-turan":
        value = mul(L[2], L[2]).sub(mul(U[1], U[3]), prec).pow_int(2, prec).sub(
            mul(
                mul(U[1], U[1]).sub(mul(L[0], L[2]), prec),
                mul(U[3], U[3]).sub(mul(L[2], L[4]), prec),
            ),
            prec,
        )
    elif theorem_id == "laguerre3":
        value = (
            mul(pt(10), L[3], L[3])
            .add(mul(pt(6), L[1], L[5]), prec)
            .sub(mul(pt(15), U[2], U[4]), prec)
            .sub(mul(U[0], U[6]), prec)
        )
    else:
        raise NotImplementedError(theorem_id)
    if value.is_positive:
        return 1
    if value.is_negative:
        return -1
    return 0


class TestHomogeneity:
    @pytest.mark.parametrize("tid", ["A", "double-turan", "laguerre3", "A-companion"])
    def test_prefactor_cancellation(self, tid):
        # the prefactor-inclusive route and the prefactor-free expanded
        # polynomial must agree in sign wherever both are decided
        spec = THEOREMS[tid]
        ineq = build_ineq(spec.ineq_id)
        rng = random.Random(tid)
        checked = 0
        for _ in range(20):
            n = rng.randint(ineq.window, 20000)
            via_bounds = _ineq_sign_via_bounds(tid, n)
            poly_iv = horner(ineq.fixed, x_of(n, 192), 192)
            via_poly = 1 if poly_iv.is_positive else (-1 if poly_iv.is_negative else 0)
            if via_bounds and via_poly:
                assert via_bounds == via_poly, (tid, n)
                checked += 1
        assert checked >= 10, tid


class TestVerifyTheorem:
    def test_pass_with_report_fields(self, table20k):
        rep = verify_theorem("A", table20k)
        assert rep.status == "pass"
        assert rep.n_star == 5019
        assert rep.exact_range == (229, 5018)
        assert rep.exact_violations == []
        assert rep.sharpness_witness == 229
        assert rep.certificate.proved
        d = rep.to_json_dict(include_timing=False)
        assert "seconds" not in d and d["theorem"] == "A"

    def test_companion_double_turan_finds_erratum(self, table20k):
        rep = verify_theorem("double-turan-companion", table20k)
        assert rep.status == "fail"
        assert rep.exact_violations == [348]
        assert rep.holds_from == 349

    def test_threshold_override(self, table20k):
        rep = verify_theorem("double-turan-companion", table20k, threshold_override=349)
        assert rep.status == "pass"
        assert rep.exact_violations == []
        assert rep.sharpness_witness == 348

    def test_threshold_at_a_violation(self, table20k):
        # the violation at 348 lies at the threshold itself: it belongs to the
        # stated range, not to the sharpness scan, whose witness is the largest
        # violation below 348
        rep = verify_theorem("double-turan-companion", table20k, threshold_override=348)
        assert rep.exact_violations == [348] and rep.status == "fail"
        assert rep.holds_from == 349 and rep.sharpness_witness == 345

    @pytest.mark.parametrize("tid, threshold", [(tid, None) for tid in sorted(THEOREMS)]
                             + sorted(ERRATA_THRESHOLDS.items()))
    def test_scan_meets_the_certificate(self, tid, threshold, table20k, monkeypatch):
        # the certificate covers shifted n0 >= n_star, i.e. statement n >= n_star +
        # shift; the scans cover every statement n from the threshold up to there
        spec, ranges = THEOREMS[tid], []

        def record(theorem_id, table, lo, hi):
            ranges.append(range(lo + spec.shift, hi + spec.shift + 1))
            return exact_verify(theorem_id, table, lo, hi)

        monkeypatch.setattr(certify_module, "exact_verify", record)
        rep = verify_theorem(tid, table20k, threshold_override=threshold)
        scanned = {n for r in ranges for n in r}
        assert ranges and set(range(rep.threshold, rep.n_star + spec.shift)) <= scanned
        x_star = rep.certificate.x_star.to_fraction()
        assert rep.certificate.proved and x_star * x_star * rep.n_star >= 1  # x_star >= n_star^(-1/2)

    def test_unproved_at_the_seam_reads_inconclusive(self, table20k, monkeypatch):
        # with its seam below the crossover 5847, A-companion is certified
        # nowhere: the search returns the seam with the failed certificate, and
        # the report is inconclusive, never pass, though the scan finds nothing
        monkeypatch.setitem(THEOREMS, "A-companion", replace(THEOREMS["A-companion"], seam=5100))
        n_star, cert = find_crossover("A-companion")
        assert n_star == 5100 and cert.status == "inconclusive" and cert.negative_witness is None
        assert cert.reason.startswith("not certifiable even at the seam 5100: boxed family not positive at x=")
        rep = verify_theorem("A-companion", QTable(5110, table20k.values[:5111]))
        assert rep.status == "inconclusive" and rep.exact_violations == []
        assert rep.n_star == 5100 and rep.exact_range == (278, 5099)

    def test_negative_witness_reads_fail(self, table20k, monkeypatch):
        # a certificate with a certified negative value refutes the family: the
        # report fails, though the scan finds no violation
        n_star, cert = find_crossover("A")
        x = float(cert.x_star)
        refuted = replace(cert, status="inconclusive", reason=f"certified negative at x={x}", negative_witness=(x, x))
        monkeypatch.setattr(certify_module, "find_crossover", lambda theorem_id, prec=192: (n_star, refuted))
        rep = verify_theorem("A", table20k)
        assert rep.status == "fail" and rep.exact_violations == [] and rep.certificate is refuted

    def test_threshold_above_crossover(self, table20k):
        # the exact range is empty; the scan below the threshold still runs
        rep = verify_theorem("A", table20k, threshold_override=6000)
        assert rep.status == "pass"
        assert rep.exact_range == (5999, 5018)
        assert rep.exact_violations == []
        assert rep.sharpness_witness == 229

    def test_threshold_below_scan_floor_rejected_before_search(self, table20k, monkeypatch):
        def no_search(*args):
            raise AssertionError("crossover searched before the threshold check")

        monkeypatch.setattr(certify_module, "find_crossover", no_search)
        with pytest.raises(ValueError, match="threshold 0 below the scan floor 2 of double-turan"):
            verify_theorem("double-turan", table20k, threshold_override=0)

    def test_threshold_scan_past_table_rejected_before_search(self, table20k, monkeypatch):
        # B reads q(n0 + 4) at the scan's top n0 = threshold - 2: 19998 fits the table to 20000
        class Searched(Exception):
            pass

        def no_search(*args):
            raise Searched

        monkeypatch.setattr(certify_module, "find_crossover", no_search)
        with pytest.raises(ValueError, match=r"threshold 19999 of B scans q\(20001\), past the table 0..20000"):
            verify_theorem("B", table20k, threshold_override=19999)
        with pytest.raises(Searched):
            verify_theorem("B", table20k, threshold_override=19998)

    def test_table_too_small(self, table2k):
        with pytest.raises(ValueError):
            verify_theorem("A", table2k)

    @pytest.mark.parametrize("tid", sorted(THEOREMS))
    def test_table_n_max_is_the_top_read(self, tid, table20k, monkeypatch):
        # a table to table_n_max reaches the search; one index short is refused before it
        class Searched(Exception):
            pass

        def no_search(*args):
            raise Searched

        monkeypatch.setattr(certify_module, "find_crossover", no_search)
        top = THEOREMS[tid].table_n_max
        with pytest.raises(ValueError, match=rf"scans q\({top}\), past the table 0..{top - 1}"):
            verify_theorem(tid, QTable(top - 1, table20k.values[:top]))
        with pytest.raises(Searched):
            verify_theorem(tid, QTable(top, table20k.values[: top + 1]))
