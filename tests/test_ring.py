"""Exact ring Q[pi^±1, sqrt3]: algebra laws and certified evaluation."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import mpmath as mp
import pytest

import qcert.ring as ring_module
from oracles import contains, pi_bracket, ring_bracket, ring_eval_iv_loop, ring_parts, ring_sum
from qcert.certify import INEQUALITIES, build_ineq
from qcert.coeffs import expansion_coeff
from qcert.enclosures import enclose_pi
from qcert.intervals import Interval
from qcert.ring import RingElem, convolve_terms, sum_of_products

ONE = RingElem.from_rational(1)


@pytest.fixture(autouse=True)
def _mp_prec():
    """mpmath's references at 300 bits, set around each test, not at import."""
    with mp.workprec(300):
        yield


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
    assert sum_of_products([(a, ONE), (b, ONE)]).is_zero
    assert not a.is_zero
    assert RingElem().is_zero


def test_invalid_sqrt3_exponent():
    with pytest.raises(ValueError):
        RingElem({(0, 2): Fraction(1)})


def test_repr_shows_the_exact_form():
    e = RingElem({(0, 0): Fraction(1, 2), (-1, 1): Fraction(-3)})
    assert repr(e) == "RingElem<-3 pi^-1 sqrt3 + 1/2>" and repr(RingElem()) == "RingElem<0>"


def test_distributivity_randomized():
    rng = random.Random(31415)
    for _ in range(1000):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        lhs = ring_sum([(1, a), (1, b)]) * c
        assert lhs.terms == sum_of_products([(a, c), (b, c)]).terms == ring_sum([(1, a * c), (1, b * c)]).terms


def test_mul_commutes_and_associates():
    rng = random.Random(27)
    for _ in range(200):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert (a * b).terms == (b * a).terms
        assert ((a * b) * c).terms == (a * (b * c)).terms


def test_rational_weight():
    # a rational weight is a factor of its own: the product renormalises, and weight 0 is zero
    a = RingElem({(2, 1): Fraction(3, 7)})
    assert sum_of_products([(a, RingElem.from_rational(Fraction(7, 3)))]).terms == {(2, 1): Fraction(1)}
    assert sum_of_products([(a, RingElem.from_rational(0))]).is_zero


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
    assert contains(iv, Fraction(22, 7))


def test_symbolic_zero_vs_numeric():
    # pi*sqrt3 * pi^-1*sqrt3 - 3 is exactly zero in the ring
    e = sum_of_products([(RingElem({(1, 1): Fraction(1)}), RingElem({(-1, 1): Fraction(1)})),
                         (RingElem.from_rational(-3), ONE)])
    assert e.is_zero
    assert contains(e.eval_iv(64), 0)


def test_as_string_round_readable():
    e = RingElem({(1, 1): Fraction(1, 144), (-1, 1): Fraction(-3, 8)})
    s = e.as_string()
    assert "pi^1 sqrt3" in s and "pi^-1 sqrt3" in s and "-3/8" in s
    assert RingElem().as_string() == "0"


def naive_product(a: RingElem, b: RingElem) -> dict:
    """Term-by-term Fraction product with sqrt3*sqrt3 -> 3."""
    out: dict = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            key, c = (i1 + i2, j1 + j2), c1 * c2
            if key[1] == 2:
                key, c = (key[0], 0), 3 * c
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("span", [2, 25])
def test_mul_matches_naive_fraction_products(span):
    # pi powers in -span..span with both sqrt3 parities; span 2 makes
    # keys collide and cancel, span 25 spreads them out
    rng = random.Random(4 * span + 1)
    for _ in range(400):
        a, b = rand_elem(rng, span), rand_elem(rng, span)
        assert (a * b).terms == naive_product(a, b)


def test_conjugate_product_is_rational():
    # (1 + sqrt3)(1 - sqrt3) = -2, with no sqrt3 key left
    p = RingElem({(0, 0): Fraction(1), (0, 1): Fraction(1)})
    q = RingElem({(0, 0): Fraction(1), (0, 1): Fraction(-1)})
    assert (p * q).terms == {(0, 0): Fraction(-2)}


def test_deferred_sqrt3_fold_cancels_rational_part():
    # 1*3 + sqrt3*(-sqrt3) accumulated into one map: each accumulated
    # integer is nonzero, and only the fold in from_cleared cancels them
    one, three = RingElem.from_rational(1), RingElem.from_rational(3)
    root, neg_root = RingElem.monomial(0, 1, 1), RingElem.monomial(0, 1, -1)
    acc: dict = {}
    for x, y in [(one, three), (root, neg_root)]:
        convolve_terms(acc, x.ints, y.ints)
    assert all(acc.values())
    e = RingElem.from_cleared(1, acc)
    assert e.is_zero and e.terms == {}


def chain_eval(e: RingElem, prec: int) -> Interval:
    """eval_iv with a fresh chain of pi powers for every term."""
    pi = enclose_pi(prec)
    inv = Interval.point(1).div(pi, prec)
    total = Interval.point(0)
    for (i, j), c in e.terms.items():
        power = Interval.point(1)
        for _ in range(abs(i)):
            power = power.mul(pi if i > 0 else inv, prec)
        term = Interval.from_fraction(c, prec).mul(power, prec)
        if j:
            term = term.mul(Interval.point(3).sqrt(prec), prec)
        total = total.add(term, prec)
    return total


def test_pi_table_independent_of_evaluation_order():
    # high and low pi powers evaluated in either order give the same pairs,
    # each inside a fresh chain's enclosure rounded out to the grid
    elems = [RingElem({(25, 1): Fraction(3, 7), (1, 0): Fraction(1)}),
             RingElem({(-25, 0): Fraction(-5, 11)}),
             RingElem({(2, 0): Fraction(1, 3), (-1, 1): Fraction(2)})]
    for prec in (64, 192):
        runs = []
        for order in (elems, elems[::-1]):
            ring_module._power.cache_clear()
            got = {id(e): e.fixed(prec) for e in order}
            runs.append([got[id(e)] for e in elems])
        assert runs[0] == runs[1]
        for (lo, hi), e in zip(runs[0], elems):
            grid = chain_eval(e, prec).fixed(prec)
            assert grid[0] <= lo < hi <= grid[1], e


@pytest.mark.parametrize("prec", [16, 24, 192])
def test_power_brackets_floor_and_ceiling(prec):
    # every pi^i sqrt3^j bracket of the table, |i| <= 30, contains a
    # bracket of the value far narrower than a unit of its scale, and is
    # at most two units wide
    scale = prec + 16 + 64
    lo_pi, hi_pi = pi_bracket(3 * scale)
    r = isqrt(3 << (6 * scale))
    roots = [(1, 1), (Fraction(r, 1 << 3 * scale), Fraction(r + 1, 1 << 3 * scale))]
    for i in range(-30, 31):
        for j in (0, 1):
            a, b = (lo_pi**i, hi_pi**i) if i >= 0 else (hi_pi**i, lo_pi**i)
            a, b = a * roots[j][0] * 2**scale, b * roots[j][1] * 2**scale
            got = ring_module._power(4 * i + j, prec)
            assert got[0] <= a and b <= got[1] and got[1] - got[0] <= 2, (i, j)


def _contains_value(e: RingElem, prec: int) -> bool:
    """eval_iv's enclosure contains a Fraction bracket of e's value far
    narrower than its own width, and on the grid 2^-(prec + 16) it lies
    inside the enclosure of a loop of Interval operations at prec bits."""
    lo, hi = e.eval_iv(prec).to_fractions()
    want = ring_bracket(e, 2 * prec + 192)
    grid, pair = ring_eval_iv_loop(e, prec).fixed(prec), e.fixed(prec)
    return lo <= want[0] and want[1] <= hi and grid[0] <= pair[0] and pair[1] <= grid[1]


@pytest.mark.parametrize("prec", [24, 64, 192, 1536])
def test_eval_iv_matches_interval_loop_on_production_coefficients(prec):
    # every expansion coefficient of the theorems (orders to 24, shifts
    # to 6) encloses its value, never wider than the Interval loop
    elems = [expansion_coeff(m, s) for m in range(25) for s in range(7)]
    assert len(elems) == 175
    for e in elems:
        assert _contains_value(e, prec), e


@pytest.mark.parametrize("prec", [16, 24, 64, 192])
def test_eval_iv_matches_interval_loop_on_random_elements(prec):
    # integer, dyadic and other coefficients, negative pi powers, the
    # zero element, and coefficients wider than prec
    rng = random.Random(f"ring-eval-{prec}")
    for _ in range(300):
        e = RingElem({(rng.randint(-6, 6), rng.randint(0, 1)): Fraction(
            rng.randint(-2**70, 2**70), rng.choice((1, 2**rng.randint(1, 90), rng.randint(1, 10**30))))
            for _ in range(rng.randint(0, 6))})
        e = ring_sum([(1, e), (-1 if rng.random() < 0.1 else 0, e)])
        assert _contains_value(e, prec), e


def _random_elems():
    rng = random.Random(2718)
    return [rand_elem(rng, span) for span in (2, 25) for _ in range(300)]


CANONICAL_SETS = {
    "random": _random_elems,
    "coefficients": lambda: [expansion_coeff(k, s) for k in range(25) for s in range(7)],
    "expansions": lambda: [r for i in sorted(INEQUALITIES) for r in ring_parts(build_ineq(i, 192).poly)],
}


@pytest.mark.parametrize("name", sorted(CANONICAL_SETS))
def test_one_canonical_form(name):
    # an element is its cleared form in lowest terms, so equal values have
    # equal (den, ints): __eq__ and __hash__ read nothing else
    assert RingElem.__slots__ == ("den", "ints")
    elems = CANONICAL_SETS[name]()
    assert len(elems) > 150 and any(not e.is_zero for e in elems)
    rng = random.Random(name)
    for e in elems:
        assert type(e.den) is int and all(type(v) is int and v for v in e.ints.values())
        assert gcd(e.den, *e.ints.values()) == 1
        assert e.den == lcm(*(c.denominator for c in e.terms.values()))
        again = RingElem(e.terms)
        assert again == e and list(again.ints) == list(e.ints)
        b = rand_elem(rng)
        seven_thirds, three_sevenths = RingElem.from_rational(Fraction(7, 3)), RingElem.from_rational(Fraction(3, 7))
        for same in (sum_of_products([(e, ONE), (b, ONE), (b, ONE)], [1, 1, -1]),
                     sum_of_products([(sum_of_products([(e, seven_thirds)]), three_sevenths)]),
                     sum_of_products([(sum_of_products([(e, ONE)], [-1]), ONE)], [-1]), e * ONE, ring_sum([(1, e)])):
            assert same == e and hash(same) == hash(e)
