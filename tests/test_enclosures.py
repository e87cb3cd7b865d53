"""Special-function enclosures against an independent oracle (mpmath at
a much higher working precision)."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from oracles import contains_interval, enclose_sinh
from qcert.enclosures import (
    enclose_bessel_i1,
    enclose_cosh,
    enclose_exp,
    enclose_log,
    enclose_pi,
)
from qcert.intervals import DomainError, Dyadic, Interval

mp.mp.prec = 300


def contains_ref(interval: Interval, ref: mp.mpf) -> bool:
    lo, hi = interval.to_fractions()
    return mp.mpf(lo.numerator) / lo.denominator <= ref <= mp.mpf(hi.numerator) / hi.denominator


def pt(x) -> Interval:
    return Interval.from_fraction(Fraction(x), 300)


class TestPi:
    def test_contains_pi_at_53(self):
        iv = enclose_pi(53)
        assert contains_ref(iv, mp.pi)
        assert iv.width.to_fraction() <= Fraction(1, 2**49)

    def test_small_precision(self):
        iv = enclose_pi(16)
        assert contains_ref(iv, mp.pi)
        assert iv.lo.cmp_fraction(Fraction(3140, 1000)) <= 0 or iv.lo.cmp_fraction(3) >= 0
        assert iv.lo.cmp_fraction(3) > 0 and iv.hi.cmp_fraction(4) < 0

    def test_width_contract(self):
        for prec in (16, 53, 128, 192, 600):
            iv = enclose_pi(prec)
            assert iv.width.to_fraction() <= Fraction(2 ** max(0, 4 - prec + 60), 2**60)


class TestElementary:
    def test_exp_zero(self):
        iv = enclose_exp(Interval.point(0), 192)
        assert iv.contains(1) and iv.width.to_fraction() <= Fraction(1, 2**180)

    def test_cosh_zero(self):
        assert enclose_cosh(Interval.point(0), 128).contains(1)

    def test_log_of_e(self):
        # independent high-precision e, squeezed to a thin interval
        e_lo = Fraction(int(mp.floor(mp.e * 2**200)), 2**200)
        e_hi = e_lo + Fraction(1, 2**200)
        iv = enclose_log(
            Interval(
                Dyadic.from_fraction(e_lo, 250, up=False),
                Dyadic.from_fraction(e_hi, 250, up=True),
            ),
            192,
        )
        assert contains_ref(iv, mp.mpf(1))
        assert iv.width.to_fraction() < Fraction(1, 2**180)

    @pytest.mark.parametrize(
        "fn,ref",
        [
            (enclose_exp, mp.exp),
            (enclose_cosh, mp.cosh),
            (enclose_sinh, mp.sinh),
        ],
    )
    def test_against_oracle(self, fn, ref):
        rng = random.Random(5)
        for _ in range(40):
            a = Fraction(rng.randint(-4000, 4000), rng.randint(1, 300))
            iv = fn(pt(a), 160)
            assert contains_ref(iv, ref(mp.mpf(a.numerator) / a.denominator)), a

    def test_log_against_oracle(self):
        rng = random.Random(6)
        for _ in range(40):
            a = Fraction(rng.randint(1, 10**8), rng.randint(1, 10**4))
            iv = enclose_log(pt(a), 160)
            assert contains_ref(iv, mp.log(mp.mpf(a.numerator) / a.denominator)), a

    def test_log_domain(self):
        with pytest.raises(DomainError):
            enclose_log(Interval.point(0), 64)

    def test_interval_argument_containment(self):
        rng = random.Random(7)
        for _ in range(25):
            a = Fraction(rng.randint(-300, 300), rng.randint(1, 50))
            b = a + Fraction(rng.randint(0, 200), 97)
            box = Interval(
                Dyadic.from_fraction(a, 200, up=False),
                Dyadic.from_fraction(b, 200, up=True),
            )
            out = enclose_cosh(box, 120)
            for t in (a, b, (a + b) / 2):
                assert contains_ref(out, mp.cosh(mp.mpf(t.numerator) / t.denominator))


class TestBesselI1:
    def test_zero(self):
        assert enclose_bessel_i1(Interval.point(0), 64).contains(0)

    def test_value_at_one(self):
        # frozen from a 200-bit partial-sum-plus-tail computation
        iv = enclose_bessel_i1(Interval.point(1), 128)
        assert contains_ref(iv, mp.besseli(1, 1))
        lo, hi = iv.to_fractions()
        assert Fraction(5651, 10**4) < lo < hi < Fraction(5652, 10**4)

    def test_relative_width_at_26(self):
        iv = enclose_bessel_i1(Interval.point(26), 128)
        assert contains_ref(iv, mp.besseli(1, 26))
        assert iv.width.to_fraction() / iv.lo.to_fraction() <= Fraction(1, 2**40)

    def test_oracle_range(self):
        rng = random.Random(8)
        for _ in range(15):
            a = Fraction(rng.randint(0, 2600), 10)
            iv = enclose_bessel_i1(pt(a), 140)
            assert contains_ref(iv, mp.besseli(1, mp.mpf(a.numerator) / a.denominator)), a

    def test_domain(self):
        with pytest.raises(DomainError):
            enclose_bessel_i1(Interval(Dyadic(-1), Dyadic(1)), 64)


class TestRefinementAndSubdivision:
    @pytest.mark.parametrize("fn", [enclose_exp, enclose_cosh, enclose_bessel_i1])
    def test_monotone_refinement(self, fn):
        rng = random.Random(9)
        for _ in range(20):
            a = Fraction(rng.randint(0, 500), rng.randint(1, 20))
            coarse = fn(pt(a), 64)
            fine = fn(pt(a), 256)
            assert contains_interval(coarse, fine), (fn, a)

    @pytest.mark.parametrize("fn", [enclose_exp, enclose_cosh, enclose_bessel_i1])
    def test_subdivision_consistency(self, fn):
        # f([a,b]) must cover f([a,m]) and f([m,b]) endpoint-wise
        rng = random.Random(10)
        for _ in range(100):
            a = Fraction(rng.randint(0, 900), rng.randint(1, 30))
            b = a + Fraction(rng.randint(1, 300), 61)
            m = (a + b) / 2
            da = Dyadic.from_fraction(a, 220, up=False)
            db = Dyadic.from_fraction(b, 220, up=True)
            dm = Dyadic.from_fraction(m, 220, up=False)
            whole = fn(Interval(da, db), 100)
            left = fn(Interval(da, dm), 100)
            right = fn(Interval(dm, db), 100)
            assert whole.lo <= left.lo and right.hi <= whole.hi
            assert whole.lo <= right.lo and left.hi <= whole.hi
