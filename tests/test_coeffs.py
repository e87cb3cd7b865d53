"""Expansion coefficients: frozen exact values, the combinatorial
identity, and interval consistency of each truncated series with its
certified tail constant."""

from fractions import Fraction

import pytest

from qcert.bounds import error_budget
from qcert.coeffs import (
    alt_half_binomial_sum,
    alt_half_binomial_sum_closed,
    bessel_asym_coeff,
    bessel_factor_coeff,
    binom_factor_coeff,
    exp_binom_coeff,
    exp_factor_coeff,
    expansion_coeff,
    gen_binomial,
    rising_factorial,
    shift_sigma,
)
from qcert.enclosures import enclose_exp, enclose_pi
from qcert.intervals import Interval, workprec
from qcert.ring import RingElem

F = Fraction


class TestBasics:
    def test_rising_factorial(self):
        assert rising_factorial(F(3, 2), 1) == F(3, 2)
        assert rising_factorial(F(7, 5), 0) == 1
        assert rising_factorial(F(1, 2) - 2, 3) == F(3, 8)  # (-3/2)(-1/2)(1/2)

    def test_gen_binomial(self):
        assert gen_binomial(F(1, 2), 1) == F(1, 2)
        assert gen_binomial(F(-3, 4), 1) == F(-3, 4)
        assert gen_binomial(F(1, 2), 2) == F(-1, 8)

    def test_bessel_asym_values(self):
        assert [bessel_asym_coeff(m) for m in range(4)] == [
            F(1),
            F(3, 8),
            F(-15, 128),
            F(105, 1024),
        ]

    def test_bessel_asym_matches_i1_at_large_argument(self):
        # sqrt(2 pi x)/e^x I1(x) ~ sum (-1)^m a_m x^-m; the sign/reading
        # of the coefficients is pinned by agreement with I1 itself
        import mpmath as mp

        mp.mp.prec = 300
        x = mp.mpf(120)
        lhs = mp.sqrt(2 * mp.pi * x) / mp.e**x * mp.besseli(1, x)
        series = sum(
            (-1) ** m * mp.mpf(bessel_asym_coeff(m).numerator)
            / bessel_asym_coeff(m).denominator / x**m
            for m in range(8)
        )
        assert abs(lhs - series) < mp.mpf(10) ** -14


class TestAlternatingSumIdentity:
    def test_base_case(self):
        assert alt_half_binomial_sum(0, 0) == 1
        assert alt_half_binomial_sum_closed(0, 0) == 1

    def test_single(self):
        assert alt_half_binomial_sum_closed(1, 1) == F(-1, 2)
        assert alt_half_binomial_sum(1, 1) == F(-1, 2)

    def test_brute_matches_closed_full_range(self):
        # exact equality for every 0 <= r < 2m <= 40
        for m in range(1, 21):
            for r in range(2 * m):
                assert alt_half_binomial_sum(r, m) == alt_half_binomial_sum_closed(r, m), (r, m)

    def test_precondition(self):
        with pytest.raises(ValueError):
            alt_half_binomial_sum_closed(4, 2)


class TestCoefficientFamilies:
    def test_exp_factor_low(self):
        assert exp_factor_coeff(0, 3).terms == {(0, 0): F(1)}
        # degree 1 at shift 0: pi/(48 sqrt3) = (1/144) pi sqrt3
        assert exp_factor_coeff(1, 0).terms == {(1, 1): F(1, 144)}

    def test_exp_factor_bound(self):
        # |coefficient(2k, s)| <= sqrt(pi/3) sigma^{k+1/2}/(2 k^{3/2})
        #                          * sinh(pi sqrt((24s+1)/72)), here k = 1
        from qcert.enclosures import enclose_sinh

        for s in (0, 2, 5):
            sigma = shift_sigma(s)
            with workprec(192):
                value = exp_factor_coeff(2, s).eval_iv().mag().to_fraction()
                pi = enclose_pi()
                bound = (
                    (pi / 3).sqrt()
                    * Interval.from_fraction(sigma)
                    * Interval.from_fraction(sigma).sqrt()
                    * enclose_sinh(pi * Interval.from_fraction(F(24 * s + 1, 72)).sqrt())
                ).scale(-1)
            assert value <= bound.hi.to_fraction(), s

    def test_binom_factor(self):
        assert binom_factor_coeff(0, 4) == 1
        assert binom_factor_coeff(1, 0) == 0
        assert binom_factor_coeff(2, 0) == F(-1, 32)

    def test_exp_binom_convolution(self):
        assert exp_binom_coeff(0, 2).terms == {(0, 0): F(1)}
        assert exp_binom_coeff(1, 3).terms == exp_factor_coeff(1, 3).terms
        expected = exp_factor_coeff(2, 0) + RingElem.from_rational(F(-1, 32))
        assert exp_binom_coeff(2, 0).terms == expected.terms

    def test_bessel_factor(self):
        assert bessel_factor_coeff(0, 1).terms == {(0, 0): F(1)}
        assert bessel_factor_coeff(1, 9).terms == {(-1, 1): F(-3, 8)}
        assert bessel_factor_coeff(2, 0).terms == {(-2, 0): F(-45, 128)}

    def test_expansion_low(self):
        assert expansion_coeff(0, 6).terms == {(0, 0): F(1)}
        expected = exp_binom_coeff(1, 0) + bessel_factor_coeff(1, 0)
        assert expansion_coeff(1, 0).terms == expected.terms

    def test_expansion_degree1_value(self):
        # frozen: value of the degree-1 coefficient at shift 0
        iv = expansion_coeff(1, 0).eval_iv(192)
        assert iv.lo.cmp_fraction(F(-16897, 100000)) > 0
        assert iv.hi.cmp_fraction(F(-16895, 100000)) < 0


def _power_3_4(iv: Interval, prec: int) -> Interval:
    """x^{3/4} for x > 0 as sqrt(sqrt(x^3))."""
    return iv.pow_int(3, prec).sqrt(prec).sqrt(prec)


@pytest.mark.parametrize("s", [0, 2, 4])
@pytest.mark.parametrize("N", [6, 14])
@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
class TestSeriesConsistency:
    """Truncation error of each factor's series is within its certified
    tail constant, checked on outer interval bounds."""

    def test_exp_factor(self, s, N, n):
        prec = 224
        sigma = shift_sigma(s)
        with workprec(prec):
            pi = enclose_pi(prec)
            root_n3 = Interval.from_fraction(F(n, 3)).sqrt()
            shifted = (1 + Interval.from_fraction(F(sigma) / n)).sqrt() - 1
            lhs = enclose_exp(pi * root_n3 * shifted, prec)
            x = Interval.point(1) / Interval.point(n).sqrt()
            series = Interval.point(0)
            for k in reversed(range(N + 1)):
                series = series * x + exp_factor_coeff(k, s).eval_iv(prec)
            err = (lhs - series).mag()
            allowance = Interval(error_budget(N, s, prec).er_exp, error_budget(N, s, prec).er_exp)
            rhs = (allowance * x.pow_int(N + 1)).lo
        assert err <= rhs or err.to_fraction() <= rhs.to_fraction()

    def test_binom_factor(self, s, N, n):
        prec = 224
        sigma = shift_sigma(s)
        with workprec(prec):
            base = 1 + Interval.from_fraction(F(sigma) / n)
            lhs = Interval.point(1) / _power_3_4(base, prec)
            x = Interval.point(1) / Interval.point(n).sqrt()
            series = Interval.point(0)
            for k in reversed(range(N + 1)):
                series = series * x + Interval.from_fraction(binom_factor_coeff(k, s))
            err = (lhs - series).mag()
            b = error_budget(N, s, prec).er_binom
            rhs = (Interval(b, b) * x.pow_int(N + 1)).lo
        assert err.to_fraction() <= rhs.to_fraction()


def test_memo_concurrent_reads_consistent():
    # the per-(k, s) memo tables must serve concurrent readers the same
    # exact values
    import threading

    results = []

    def worker():
        results.append([expansion_coeff(k, 3).terms for k in range(12)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_full_product_consistency(table20k):
    """Strongest end-to-end check of the expansion: the normalized exact
    count sits inside the degree-N series within the total budget."""
    from qcert.bounds import bound_value, n_min

    for (n, s, N) in [(6000, 0, 14), (12000, 3, 14), (18600, 6, 24), (210, 0, 1)]:
        assert n >= n_min(N, s)
        q = table20k[n + s]
        lower = bound_value(n, s, N, -1)
        upper = bound_value(n, s, N, +1)
        assert lower.hi.cmp_fraction(q) <= 0 <= upper.lo.cmp_fraction(q), (n, s, N)
