"""Exact ring Q[pi^±1, sqrt3]: algebra laws and certified evaluation."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from qcert.ring import RingElem

mp.mp.prec = 300


def rand_elem(rng, span=4):
    return RingElem(
        {
            (rng.randint(-span, span), rng.randint(0, 1)): Fraction(
                rng.randint(-99, 99), rng.randint(1, 99)
            )
            for _ in range(rng.randint(0, 5))
        }
    )


def ref_value(e: RingElem) -> mp.mpf:
    return sum(
        mp.mpf(c.numerator) / c.denominator * mp.pi**i * mp.sqrt(3) ** j
        for (i, j), c in e.terms.items()
    )


def test_sqrt3_folds():
    s = RingElem.monomial(0, 1, 1)
    assert (s * s).terms == {(0, 0): Fraction(3)}
    assert (s * s * s).terms == {(0, 1): Fraction(3)}


def test_pi_powers_cancel():
    p = RingElem.monomial(3, 0, Fraction(1, 2))
    q = RingElem.monomial(-3, 0, 4)
    assert (p * q).terms == {(0, 0): Fraction(2)}


def test_zero_detection():
    a = RingElem({(1, 1): Fraction(2, 3)})
    b = RingElem({(1, 1): Fraction(-2, 3)})
    assert (a + b).is_zero
    assert not a.is_zero
    assert RingElem().is_zero


def test_invalid_sqrt3_exponent():
    with pytest.raises(ValueError):
        RingElem({(0, 2): Fraction(1)})


def test_distributivity_randomized():
    rng = random.Random(31415)
    for _ in range(1000):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert ((a + b) * c).terms == (a * c + b * c).terms


def test_mul_commutes_and_associates():
    rng = random.Random(27)
    for _ in range(200):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert (a * b).terms == (b * a).terms
        assert ((a * b) * c).terms == (a * (b * c)).terms


def test_scale():
    a = RingElem({(2, 1): Fraction(3, 7)})
    assert a.scale(Fraction(7, 3)).terms == {(2, 1): Fraction(1)}
    assert a.scale(0).is_zero


def test_eval_contains_reference():
    rng = random.Random(161803)
    for _ in range(150):
        e = rand_elem(rng)
        iv = e.eval_iv(192)
        lo, hi = iv.to_fractions()
        ref = ref_value(e)
        assert mp.mpf(lo.numerator) / lo.denominator <= ref
        assert ref <= mp.mpf(hi.numerator) / hi.denominator


def test_eval_pi_sqrt3():
    iv = RingElem({(1, 1): Fraction(1)}).eval_iv(192)
    lo, hi = iv.to_fractions()
    assert Fraction("5.441398") < lo < hi < Fraction("5.441399")


def test_eval_exact_rational():
    e = RingElem.from_rational(Fraction(22, 7))
    iv = e.eval_iv(64)
    assert iv.contains(Fraction(22, 7))


def test_symbolic_zero_vs_numeric():
    # pi*sqrt3 * pi^-1*sqrt3 - 3 is exactly zero in the ring
    e = RingElem({(1, 1): Fraction(1)}) * RingElem({(-1, 1): Fraction(1)})
    e = e + RingElem.from_rational(-3)
    assert e.is_zero
    assert e.eval_iv(64).contains(0)


def test_as_string_round_readable():
    e = RingElem({(1, 1): Fraction(1, 144), (-1, 1): Fraction(-3, 8)})
    s = e.as_string()
    assert "pi^1 sqrt3" in s and "pi^-1 sqrt3" in s and "-3/8" in s
    assert RingElem().as_string() == "0"
