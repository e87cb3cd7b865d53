"""The certification engine: exact functionals, positivity certificates,
crossover search, and agreement between the certified and exact regimes.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qcert.bounds import bound_value
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
    invariant_a,
    invariant_b,
    invariant_i,
    laguerre,
    sharpness_scan,
    theorem_predicate,
    verify_theorem,
)
from qcert.certify import HybridPoly
from qcert.enclosures import enclose_pi
from qcert.intervals import Dyadic, Interval
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

# Frozen at 192 bits from the expansion that kept exact ring products
# at every degree: (ineq_id, tight) -> (SHA-256 of the coefficient
# enclosures' endpoints as fractions, leading zero degree, degree).
POLY_PINS = {
    ("ineq-L3", False): ("1dabf039c3b20a0373c3817bf65d90c191602b484e1b2d09fd703c8e8f36f772", 9, 50),
    ("ineq-L3", True): ("a422e93518a910f30b525149d3b3242538e88b80c069f57751e7f312df16ba0f", 9, 50),
    ("ineq-c-L3", False): ("59aef76a50e224db21f916f1067caf33286689a52b8c2dbea668991d60096e13", 10, 59),
    ("ineq-c-L3", True): ("46ae7cfcdb1905bea0e522ae738c1e8d4fd1fad4052579a6c12818624f893809", 10, 59),
    ("ineq1", False): ("b68c3893d6072b63716e9c0a1c71109f7e3e8851d6923982d9ede85afc1a72b4", 6, 30),
    ("ineq1", True): ("7571139c105ccd2f673e01668a68915bda8d0739774371699868158f88c88fc5", 6, 30),
    ("ineq2", False): ("7e3403703531f054e2893f439ecb7ea47022c09f4ecc365fddb645b3189ba3ca", 7, 37),
    ("ineq2", True): ("3c146ac472f74343de5d57152fd5527b8a0e997cd5d3b287c89017f5745b742e", 7, 37),
    ("ineq3", False): ("ee8591b02907815173714642bd98ceb23a8382d7b954ff372a66f539eb81dabd", 9, 75),
    ("ineq3", True): ("4c2f203b76384c59342c669db840d3ff05c50eb97adbcdd09ae038352b5e172f", 9, 75),
    ("ineq4", False): ("2590961351703c5336d43b3f47b2b5a035a37068971ad5dae88f0aa1c79c13c9", 10, 85),
    ("ineq4", True): ("943c2b88af381df2b45eef93acdf95d8bb4e3c38e93fd3b4c9eec65c6488392d", 10, 85),
    ("ineq5", False): ("8de0ad2fd079230ca772c43f2ec814dcf45b7f2b42a9306b12b72ccf3fed8bf8", 9, 60),
    ("ineq5", True): ("d87340bedb08799b323a969ea3f069c9917896af3e28cb33bed782b515ffcd42", 9, 60),
    ("ineq6", False): ("bbde4596e432220358f60dc83f80dc0ab93c3b9c1f15f30571e01a0d2f6b424d", 10, 64),
    ("ineq6", True): ("78746591ac2882e69ef761aa212430ba0e1c83f45a73cd24cf3eeb6e93419928", 10, 64),
}


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
    return IneqPoly(
        ineq_id="toy", theorem_id="toy", N=len(monomials), prec=prec,
        poly=poly, x0=x0_d, window=1,
    )


def _gap(k: int) -> Sum:
    """q(n0+k)^2 - q(n0+k-1) q(n0+k+1)."""
    return Sum((1, Sq(Q(k))), (-1, Mul(Q(k - 1), Q(k + 1))))


class TestStatements:
    def test_exact_values_match_functionals(self, table2k):
        for n in range(0, 1001):
            w = table2k.window(n, 7)
            assert THEOREMS["A"].statement.exact(w) == (invariant_a(*w[:5]), 0), n
            assert THEOREMS["B"].statement.exact(w) == (invariant_b(*w[:5]), 0), n
            assert THEOREMS["laguerre3"].statement.exact(w) == (laguerre(3, table2k, n), 0), n

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

    def test_negative_operand_blocks_proof(self):
        # (L0 - 2 U1)^2 is positive, but it bounds (q0 - 2 q1)^2 from below
        # only if L0 - 2 U1 >= 0, which is false
        d = Sum((1, Q(0)), (-2, Q(1)))
        spec = TheoremSpec("toy", "0", 0, 0, 14, Mul(d, d), "toy", (0, 0), 0)
        ineq = expand_statement(spec)
        cert = certify_positive(ineq, ineq.x0)
        assert cert.status == "inconclusive" and cert.negative_witness is None
        assert cert.reason.startswith("side lemma L0 - 2 U1 not proved: ")
        assert certify_positive(replace(ineq, side_lemma=None), ineq.x0).proved


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

    def test_negative_constant(self):
        ineq = _toy_ineq({0: RingElem.from_rational(-2)}, F(1))
        cert = certify_positive(ineq, ineq.x0)
        assert not cert.proved

    def test_boxed_family_stops_without_escalating(self):
        # ineq2 is negative near its window for the whole boxed family:
        # the trial stops at a point, at the starting precision
        cert = certify_inequality("ineq2")
        assert cert.status == "inconclusive" and cert.prec == 192
        assert cert.reason.startswith("boxed family not positive at x=")
        assert cert.negative_witness is None and not cert.rounding_limited

    def test_rounding_hides_sign(self):
        # 1 - (1 - 2^-300) x is 2^-300 at x = 1: invisible at 192 bits
        c1 = RingElem.from_rational(F(1, 2**300) - 1)
        monomials = {0: RingElem.from_rational(1), 1: c1}
        cert = certify_positive(_toy_ineq(monomials, F(1)), Dyadic(1))
        assert not cert.proved and cert.rounding_limited
        assert cert.reason.startswith("rounding hides the sign at x=")
        assert certify_positive(_toy_ineq(monomials, F(1), 384), Dyadic(1)).proved

    def test_stripping_past_exact_prefix_raises(self):
        # exact part kept for x^0 only, nothing known about x^1
        poly = HybridPoly([RingElem()], {}, 192, [Interval.point(0), Interval.point(1)])
        ineq = IneqPoly("toy", "toy", 1, 192, poly, Dyadic(1), 1)
        with pytest.raises(ArithmeticError):
            certify_positive(ineq, Dyadic(1))

    def test_tight_ring_cancellation(self):
        # (pi sqrt3)(pi^-1 sqrt3) - 3 + x^2: symbolic zero at degree 0
        c0 = RingElem({(1, 1): F(1)}) * RingElem({(-1, 1): F(1)}) + RingElem.from_rational(-3)
        ineq = _toy_ineq({0: c0, 2: RingElem.from_rational(1)}, F(1))
        cert = certify_positive(ineq, ineq.x0)
        assert cert.proved and cert.leading_zero_degree == 2


class TestIneqBuild:
    @pytest.mark.parametrize("ineq_id", sorted(INEQUALITIES))
    def test_leading_structure(self, ineq_id):
        ineq = build_ineq(ineq_id)
        d = LEADING_DEGREES[ineq_id]
        for k in range(d):
            assert ineq.poly.ring_parts[k].is_zero, (ineq_id, k)
            assert k not in ineq.poly.errs
        lead = ineq.poly.ring_parts[d]
        assert not lead.is_zero
        assert lead.eval_iv(192).is_positive, ineq_id

    def test_known_leading_coefficients(self):
        # the invariant-A cancellation leaves exactly pi^2/8 at degree 6
        assert build_ineq("ineq1").poly.ring_parts[6].terms == {(2, 0): F(1, 8)}
        # the double-Turan cancellation leaves pi^3 sqrt3/288 at degree 9
        assert build_ineq("ineq5").poly.ring_parts[9].terms == {(3, 1): F(1, 288)}

    def test_error_boxes_start_high(self):
        ineq = build_ineq("ineq1")
        assert min(ineq.poly.errs) == 15  # N+1 for N=14

    def test_degree_bound(self):
        # triple products of degree-(N+1) envelopes
        ineq = build_ineq("ineq3")
        assert ineq.poly.degree <= 3 * 25

    def test_window(self):
        assert build_ineq("ineq1").window == 5019
        assert build_ineq("ineq-L3").window == 18502


class TestPolynomialPins:
    @pytest.mark.parametrize("key", sorted(POLY_PINS))
    def test_expansion_unchanged(self, key):
        ineq_id, tight = key
        ineq = build_ineq(ineq_id, 192, tight)
        digest = hashlib.sha256()
        for iv in ineq.poly.coeff_intervals():
            lo, hi = iv.to_fractions()
            digest.update(f"{lo} {hi};".encode())
        lead = certify_positive(ineq, ineq.x0).leading_zero_degree
        assert (digest.hexdigest(), lead, ineq.poly.degree) == POLY_PINS[key]


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
        cert = certify_inequality("ineq2", max_prec=384)
        assert not cert.proved

    def test_soundness_random_points(self):
        # proved certificate: reduced polynomial positive at random x
        rng = random.Random(44)
        n_star, cert = find_crossover("A")
        ineq = build_ineq("ineq1")
        for _ in range(100):
            fx = F(rng.randint(1, 10**6), 10**6) * cert.x_star.to_fraction()
            x = Interval.from_fraction(fx, 192)
            acc = Interval.point(0)
            for c in reversed(cert.reduced_coeffs):
                acc = acc.mul(x, 192).add(c, 192)
            assert acc.is_positive


class TestExactRegime:
    def test_exact_verify_clean_stretch(self, table20k):
        assert exact_verify("A", table20k, 229, 1200) == []
        assert exact_verify("laguerre3", table20k, 651, 1200) == []

    def test_exact_verify_finds_known_violation(self, table20k):
        # the companion double-Turan statement fails exactly at 348
        assert exact_verify("double-turan-companion", table20k, 344, 400) == [348]

    def test_reads_outside_table_raise(self, table2k):
        # n = 0 and n = 1 need q(-2) and q(-1), which must not wrap to the table's end
        with pytest.raises(IndexError):
            exact_verify("double-turan", table2k, -2, 3)
        with pytest.raises(IndexError):
            theorem_predicate("double-turan", table2k, 1)
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
        return _pi_pow(2, p).mul(Interval.from_fraction(F(p_term, 8 * n**3), p), p) + base

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
        return factor.mul(Interval.from_fraction(pos, p), p) + base

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
        return factor.mul(Interval.from_fraction(left * right, p), p) + base

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
        return factor.mul(Interval.from_fraction(pos, p), p) + base

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


def _ineq_sign_via_bounds(theorem_id: str, n: int) -> int:
    """Evaluate the inequality combination through bound_value (with
    prefactors); returns a certified sign or 0 if undecided."""
    spec = THEOREMS[theorem_id]
    N = spec.N
    L = {s: bound_value(n, s, N, -1) for s in spec.shifts}
    U = {s: bound_value(n, s, N, +1) for s in spec.shifts}
    from qcert.enclosures import enclose_pi
    from qcert.intervals import workprec

    with workprec(192):
        pi = enclose_pi()
        sqrt3 = Interval.point(3).sqrt()
        x = Interval.point(1) / Interval.point(n).sqrt()
        if theorem_id == "A":
            value = L[0] * L[4] + 3 * L[2] * L[2] - 4 * U[1] * U[3]
        elif theorem_id == "A-companion":
            factor = 1 + pi.pow_int(2) * x.pow_int(6) / 32 - x.pow_int(7)
            value = 4 * factor * L[1] * L[3] - U[0] * U[4] - 3 * U[2] * U[2]
        elif theorem_id == "double-turan":
            value = (L[2] * L[2] - U[1] * U[3]).pow_int(2) - (
                U[1] * U[1] - L[0] * L[2]
            ) * (U[3] * U[3] - L[2] * L[4])
        elif theorem_id == "laguerre3":
            value = 10 * L[3] * L[3] + 6 * L[1] * L[5] - 15 * U[2] * U[4] - U[0] * U[6]
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
            from qcert.bounds import x_of

            poly_iv = ineq.eval_iv(x_of(n, 192))
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

    def test_table_too_small(self, table2k):
        with pytest.raises(ValueError):
            verify_theorem("A", table2k)
