"""Dyadic/interval substrate: the containment contract is everything."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import contains, contains_interval, convolve_termwise, width
from qcert.intervals import (
    DomainError,
    Dyadic,
    Interval,
    _div_raw,
    convolve,
    horner,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)


def iv(fr, prec=192):
    return Interval.from_fraction(Fraction(fr), prec)


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(12, 3)  # 12*8 = 96 = 3*2^5
        assert (d.man, d.exp) == (3, 5)
        assert (Dyadic(0, 17).man, Dyadic(0, 17).exp) == (0, 0)

    def test_round_trip_fraction(self):
        d = Dyadic(-7, -4)
        assert d.to_fraction() == Fraction(-7, 16)

    @given(st.integers(-10**18, 10**18), st.integers(-80, 80))
    def test_directed_rounding_brackets(self, man, exp):
        d = Dyadic(man, exp)
        lo = d.round(24, up=False)
        hi = d.round(24, up=True)
        assert lo.to_fraction() <= d.to_fraction() <= hi.to_fraction()
        assert lo.man.bit_length() <= 24 and hi.man.bit_length() <= 25

    def test_comparisons(self):
        # == and > are the only comparisons
        assert Dyadic(1) > Dyadic(1, -1)
        assert Dyadic(1, -10) > Dyadic(-3, 5)
        assert Dyadic(1, -100) > Dyadic(0)
        assert Dyadic(5, 2) == Dyadic(20, 0)

    def test_decimal_carry_past_the_digits(self):
        # 9999999999 rounded up to 3 figures carries into the next power of 10
        assert Dyadic(9999999999).decimal(3, up=True) == "1e+10"
        assert Dyadic(9999999999).decimal(3, up=False) == "9.99e+9"

    def test_float_of_wide_and_huge_values(self):
        # a mantissa too wide for a float is rounded down to 53 bits first;
        # a value past the float range is an infinity of its sign
        assert float(Dyadic((1 << 1100) + 1, -1100)) == 1.0
        assert float(Dyadic(-((1 << 1100) - 1), -1100)) == -1.0
        assert float(Dyadic(1, 1100)) == float("inf") and float(Dyadic(-3, 1100)) == float("-inf")

    def test_repr(self):
        assert repr(Dyadic(12, 3)) == "Dyadic(3, 5)"
        assert repr(Interval(Dyadic(1, -1), Dyadic(3))) == "Interval[0.5, 3.0]"

    @given(st.integers(-10**12, 10**12), st.integers(-40, 40), st.integers(2, 30))
    def test_decimal_directed(self, man, exp, digits):
        d = Dyadic(man, exp)
        if d.is_zero:
            assert d.decimal(digits) == "0"
            return
        lo = Fraction(d.decimal(digits, up=False))
        hi = Fraction(d.decimal(digits, up=True))
        assert lo <= d.to_fraction() <= hi


class TestIntervalArithmetic:
    def test_trivial_examples(self):
        a = Interval(Dyadic(1), Dyadic(2))
        b = Interval(Dyadic(3), Dyadic(4))
        s = a.add(b, 192)
        assert s.lo == Dyadic(4) and s.hi == Dyadic(6)
        m = Interval(Dyadic(-1), Dyadic(1)).mul(Interval(Dyadic(-1), Dyadic(1)), 192)
        assert contains(m, -1) and contains(m, 1)

    def test_third_width(self):
        q = Interval.point(1).div(Interval.point(3), 53)
        assert contains(q, Fraction(1, 3))
        assert width(q) <= Fraction(1, 2**50)

    def test_div_by_zero_interval(self):
        with pytest.raises(DomainError):
            Interval.point(1).div(Interval(Dyadic(-1), Dyadic(1)), 64)

    @pytest.mark.parametrize("lo, hi", [(-3, -2), (-1, 0), (0, 0), (0, 1)])
    def test_div_needs_positive_divisor(self, lo, hi):
        with pytest.raises(DomainError, match="division needs a positive divisor"):
            Interval.point(1).div(Interval(Dyadic(lo), Dyadic(hi)), 64)

    def test_pow_straddle_even(self):
        # square-and-multiply encloses every power; an even power of a
        # straddling interval is only wider than [0, 9]
        p = Interval(Dyadic(-2), Dyadic(3)).pow_int(2, 192)
        assert contains(p, 9) and contains(p, 4) and contains(p, 0)
        assert contains(Interval(Dyadic(-2), Dyadic(3)).pow_int(3, 192), -8)

    def test_pow_zero_is_one(self):
        p = Interval(Dyadic(-2), Dyadic(3)).pow_int(0, 192)
        assert p.to_fractions() == (1, 1)

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError, match="pow_int needs k >= 0, got -3"):
            Interval.point(2).pow_int(-3, 192)

    def test_sqrt_exact_square(self):
        s = Interval.point(4).sqrt(192)
        assert contains(s, 2) and width(s) == 0

    @pytest.mark.parametrize("prec", [16, 24, 53, 192])
    @pytest.mark.parametrize("point", [True, False], ids=["point", "range"])
    @given(data=st.data())
    def test_sqrt_ends_square_around_the_argument(self, prec, point, data):
        # lo^2 <= x.lo and x.hi <= hi^2, exactly in rationals: mantissas up
        # to 300 bits, odd and even exponents, points and ranges
        dyadic = st.builds(Dyadic, st.integers(0, 2**300 - 1), st.integers(-300, 60))
        a = data.draw(dyadic)
        a, b = (a, a) if point else sorted((a, data.draw(dyadic)), key=Dyadic.to_fraction)
        lo, hi = Interval(a, b).sqrt(prec).to_fractions()
        assert lo * lo <= a.to_fraction() and b.to_fraction() <= hi * hi

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            Interval(Dyadic(-1), Dyadic(1)).sqrt(64)

    def test_zero_precision_rejected(self):
        # 0 bits is an error, not a request for the default precision
        with pytest.raises(ValueError):
            Interval.from_fraction(Fraction(1, 3), 0)
        with pytest.raises(ValueError):
            iv(Fraction(1, 3)).mul(iv(Fraction(1, 7)), 0)

    @pytest.mark.parametrize("prec", [64, 192])
    @pytest.mark.parametrize("signs", [(s, t) for s in "+-0" for t in "+-0"])
    @given(data=st.data())
    def test_mul_is_rounded_min_max_of_endpoint_products(self, prec, signs, data):
        # each of Moore's nine sign cases ('+' lo >= 0, '-' hi <= 0,
        # '0' lo < 0 < hi), zero endpoints and point intervals included:
        # the endpoints are the directed roundings of the exact min and max
        def draw(sign):
            mag = st.builds(Dyadic, st.integers(0, 2**260), st.integers(-300, 40))
            if sign == "0":
                pos = mag.filter(lambda d: not d.is_zero)
                return Interval(-data.draw(pos), data.draw(pos))
            lo = data.draw(mag)
            lo, hi = sorted((lo, data.draw(st.one_of(st.just(lo), mag))), key=Dyadic.to_fraction)
            return Interval(lo, hi) if sign == "+" else Interval(-hi, -lo)

        a, b = draw(signs[0]), draw(signs[1])
        products = [x.to_fraction() * y.to_fraction() for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        m = a.mul(b, prec)
        assert m.lo == Dyadic.from_fraction(min(products), prec, up=False)
        assert m.hi == Dyadic.from_fraction(max(products), prec, up=True)

    @pytest.mark.parametrize("prec", [16, 64, 192])
    @pytest.mark.parametrize("signs", [(s, t) for s in "+-0" for t in "+p"])
    @given(data=st.data())
    def test_div_holds_endpoint_quotients_inside_eight_quotient_hull(self, prec, signs, data):
        # numerators of each sign case ('0' straddles 0), positive divisors
        # ('+' a range, 'p' a point), point numerators and mantissas of
        # different bit lengths: the two directed quotients hold every exact
        # endpoint quotient and lie inside the hull of all eight directed
        # endpoint quotients
        mag = st.builds(Dyadic, st.integers(0, 2**260), st.integers(-300, 40))
        pos = mag.filter(lambda d: not d.is_zero)

        def draw(sign, ends):
            if sign == "0":
                return Interval(-data.draw(pos), data.draw(pos))
            lo = data.draw(ends)
            if sign == "p":
                return Interval(lo, lo)
            lo, hi = sorted((lo, data.draw(st.one_of(st.just(lo), ends))), key=Dyadic.to_fraction)
            return Interval(lo, hi) if sign == "+" else Interval(-hi, -lo)

        a, b = draw(signs[0], mag), draw(signs[1], pos)
        ends = [(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        hull = [Dyadic(*_div_raw(x.man, x.exp, y.man, y.exp, prec, up)).to_fraction()
                for x, y in ends for up in (False, True)]
        q = a.div(b, prec)
        assert all(contains(q, x.to_fraction() / y.to_fraction()) for x, y in ends)
        assert min(hull) <= q.lo.to_fraction() and q.hi.to_fraction() <= max(hull)

    @pytest.mark.parametrize("prec", [64, 192])
    @given(data=st.data())
    def test_add_sub_are_rounded_exact_endpoint_sums(self, prec, data):
        # zero endpoints and exponents far apart included: each endpoint
        # is the directed rounding of the exact sum or difference
        def odd(bits, rng, negative):  # bits + 1 significant bits
            m = rng.getrandbits(bits) | (1 << bits) | 1
            return -m if negative else m

        mantissa = st.one_of(st.just(0), st.builds(odd, st.integers(1, 260), st.randoms(), st.booleans()))
        dyadic = st.builds(Dyadic, mantissa, st.integers(-600, 300))

        def draw():
            x, y = data.draw(dyadic), data.draw(dyadic)
            return Interval(min(x, y), max(x, y))

        a, b = draw(), draw()
        (alo, ahi), (blo, bhi) = a.to_fractions(), b.to_fractions()
        s, d = a.add(b, prec), a.sub(b, prec)
        assert s.lo == Dyadic.from_fraction(alo + blo, prec, up=False)
        assert s.hi == Dyadic.from_fraction(ahi + bhi, prec, up=True)
        assert d.lo == Dyadic.from_fraction(alo - bhi, prec, up=False)
        assert d.hi == Dyadic.from_fraction(ahi - blo, prec, up=True)

    def test_containment_randomized(self):
        # 1000 random rational pairs: the exact result is inside, for
        # every operation at several precisions
        rng = random.Random(20240817)
        for _ in range(1000):
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            prec = rng.choice((24, 53, 192))
            ia, ib = iv(a, prec), iv(b, prec)
            assert contains(ia.add(ib, prec), a + b)
            assert contains(ia.sub(ib, prec), a - b)
            assert contains(ia.mul(ib, prec), a * b)
            if b != 0:  # a positive divisor: |b|
                assert contains(ia.div(iv(abs(b), prec), prec), a / abs(b))
            assert contains(ia.pow_int(3, prec), a**3)

    def test_monotone_refinement(self):
        # widening precision never widens any enclosure
        rng = random.Random(99)
        for _ in range(200):
            a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            b = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**6))
            lo_p = iv(a, 64).mul(iv(b, 64), 64)
            hi_p = iv(a, 256).mul(iv(b, 256), 256)
            assert contains_interval(lo_p, hi_p)

    @given(rationals)
    def test_contains(self, a):
        assert contains(iv(a), a)


class TestConvolveInto:
    """The exact multiply-accumulate kernel ``convolve`` against the
    termwise loop of Interval.mul then Interval.add at a width where
    nothing rounds: every per-degree sum of lower and of upper ends is the
    loop's, exactly."""

    @staticmethod
    def draw(rng, bits, sign):
        # '+' lo >= 0, '-' hi <= 0, '0' lo < 0 < hi, 'z' (0, 0); integers
        # up to bits wide
        def mag():
            return rng.getrandbits(rng.randint(1, bits)) | 1

        if sign == "z":
            return 0, 0
        if sign == "0":
            return -mag(), mag()
        lo = 0 if rng.random() < 0.25 else mag()  # a zero end
        hi = lo if rng.random() < 0.25 else lo + mag()  # a point
        return (lo, hi) if sign == "+" else (-hi, -lo)

    def terms(self, rng, bits):
        # one pair of every sign, in a random order, and up to two more
        signs = rng.sample("+-0z", 4) + rng.choices("+-0z", k=rng.randint(0, 2))
        degrees = rng.sample(range(9), len(signs))
        return [(d, self.draw(rng, bits, sign)) for d, sign in zip(degrees, signs)]

    @pytest.mark.parametrize("prec", [16, 53, 192, 1536])
    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_matches_termwise(self, prec, rng):
        # every pair of signs meets in each call: Moore's nine sign cases,
        # (0, 0) and zero ends; the second call adds into degrees that the
        # first has filled
        lo, hi, ref = [0] * 17, [0] * 17, {}

        def ivs(terms):
            return [(d, Interval(Dyadic(a), Dyadic(b))) for d, (a, b) in terms]

        for _ in range(2):
            xs, ys = self.terms(rng, prec), self.terms(rng, prec)
            convolve(lo, hi, xs, ys)
            convolve_termwise(ref, ivs(xs), ivs(ys), 2 * prec + 64)
        for d in range(17):
            want = ref[d].to_fractions() if d in ref else (0, 0)
            assert (lo[d], hi[d]) == want, d

    def test_empty_operand_adds_nothing(self):
        lo, hi = [0], [0]
        convolve(lo, hi, [(0, (1, 2))], [])
        convolve(lo, hi, [], [(0, (1, 2))])
        assert lo == hi == [0]


class TestHorner:
    """The fixed-point Horner against exact rational evaluation.  At 16-24
    bits, with every value below 2^-16, the integer bracket at scale
    2^-(prec + 16) has fewer than prec bits, so the final rounding leaves
    it as it is and a loss of one unit anywhere in the chain shows."""

    @staticmethod
    def fraction(rng, prec):
        # m 2^-(prec + 16 + r), m < 2^(prec - 12): below 2^-22, on the
        # scale's grid for r <= 0 and with bits below it for r > 0
        return Fraction(rng.getrandbits(prec - 12) | 1, 1 << (prec + 16 + rng.randrange(-6, 9)))

    def family(self, rng, prec, signs):
        # '+' lo > 0, '-' hi < 0, '0' lo < 0 < hi, 'p' a point of either sign
        out = []
        for sign in signs:
            a, b = self.fraction(rng, prec), self.fraction(rng, prec)
            if sign == "p":
                a = b = rng.choice((-1, 1)) * a
            elif sign == "0":
                a = -a
            elif sign == "-":
                a, b = -(a + b), -a
            else:
                b = a + b
            out.append((a, b))
        return out

    @staticmethod
    def box(rng, prec, point):
        # 0 <= a <= b <= 1 with bits below the scale 2^-(prec + 16)
        a = Fraction(rng.getrandbits(prec + 20), 1 << (prec + 21 + rng.randrange(0, 4)))
        return (a, a) if point else (a, a + Fraction(rng.getrandbits(prec + 20), 1 << (prec + 21)))

    @staticmethod
    def run(family, box, prec):
        ivs = [Interval(Dyadic.from_fraction(lo, 400, False), Dyadic.from_fraction(hi, 400, True))
               for lo, hi in family]
        assert [iv.to_fractions() for iv in ivs] == family  # entered exactly
        x = Interval(Dyadic.from_fraction(box[0], 400, False), Dyadic.from_fraction(box[1], 400, True))
        got = horner([iv.fixed(prec) for iv in ivs], x, prec)
        assert all(abs(end) < Fraction(1, 2**16) for end in got.to_fractions())  # not rounded
        return got

    @staticmethod
    def members(rng, family, box):
        # the lowest and highest members (all lower or all upper endpoints)
        # and a random one, at both ends of the box and inside it
        a, b = box
        xs = [a, b] + [a + (b - a) * Fraction(rng.randint(0, 64), 64) for _ in range(3)]
        picks = [[lo for lo, _ in family], [hi for _, hi in family],
                 [rng.choice(pair) for pair in family]]
        return [sum(c * x**k for k, c in enumerate(cs)) for cs in picks for x in xs]

    @pytest.mark.parametrize("prec", [16, 20, 24])
    @pytest.mark.parametrize("signs", ["+", "-", "0", "+-", "-+0", "0p-+", "pppp"])
    @pytest.mark.parametrize("point", [False, True], ids=["box", "point"])
    def test_contains_exact_members(self, prec, signs, point):
        # the coefficient signs drive the accumulator through each sign
        # case of both ends: lo >= 0, lo < 0, hi >= 0 and hi < 0
        rng = random.Random(f"horner-{prec}-{signs}-{point}")
        for _ in range(60):
            family = self.family(rng, prec, [rng.choice(signs) for _ in range(rng.randint(1, 7))])
            box = self.box(rng, prec, point)
            got = self.run(family, box, prec)
            for v in self.members(rng, family, box):
                assert contains(got, v), (prec, family, box, v)

    @pytest.mark.parametrize("prec", [16, 24])
    def test_zero_and_box_from_zero(self, prec):
        rng = random.Random(f"horner-zero-{prec}")
        for _ in range(60):
            family = self.family(rng, prec, [rng.choice("+-0p") for _ in range(rng.randint(1, 7))])
            at_zero = self.run(family, (Fraction(0), Fraction(0)), prec)
            assert contains(at_zero, family[0][0]) and contains(at_zero, family[0][1])
            box = (Fraction(0), self.box(rng, prec, True)[1])
            got = self.run(family, box, prec)
            for v in self.members(rng, family, box):
                assert contains(got, v)

    def test_on_grid_values_are_exact(self):
        # coefficients and x on the scale's grid with exact products: the
        # bracket is the exact value
        coeffs = [Interval.point(Dyadic(3, -5)), Interval(Dyadic(-1, -2), Dyadic(1, -3))]
        got = horner([c.fixed(24) for c in coeffs], Interval(Dyadic(1, -1), Dyadic(1)), 24)
        assert got.to_fractions() == (Fraction(3, 32) - Fraction(1, 4), Fraction(3, 32) + Fraction(1, 8))

    def test_negative_x_rejected(self):
        coeffs = [Interval.point(1).fixed(24)] * 2
        for x in (Interval.point(Dyadic(-1, -60)), Interval(Dyadic(-1), Dyadic(1))):
            with pytest.raises(ValueError, match="x >= 0"):
                horner(coeffs, x, 24)

    def test_to_fixed_brackets(self):
        # floor below, ceiling above, exact on the grid
        ivs = [Interval(Dyadic(-3, -45), Dyadic(5, -45)), Interval.point(Dyadic(7, -40)),
               Interval.point(Dyadic(-1, 3))]
        assert [iv.fixed(24) for iv in ivs] == [(-1, 1), (7, 7), (-(1 << 43), -(1 << 43))]
