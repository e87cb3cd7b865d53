"""Expansion coefficients: frozen exact values, the combinatorial
identity, and interval consistency of each truncated series with its
certified tail constant."""

from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest

from oracles import (
    alt_half_binomial_sum,
    alt_half_binomial_sum_closed,
    bessel_factor_closed,
    binom_factor_closed,
    exp_factor_closed,
    mag,
)
from qcert.bounds import error_budget, n_min
from qcert.certify import THEOREMS
from qcert.coeffs import (
    COEFF_FAMILIES,
    _at_shift,
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
from qcert.intervals import Interval
from qcert.ring import RingElem, sum_of_products

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
        with mp.workprec(300):
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
        from oracles import enclose_sinh

        prec = 192
        for s in (0, 2, 5):
            sigma = Interval.from_fraction(shift_sigma(s), prec)
            value = mag(exp_factor_coeff(2, s).eval_iv(prec)).to_fraction()
            pi = enclose_pi(prec)
            sinh_arg = pi.mul(Interval.from_fraction(F(24 * s + 1, 72), prec).sqrt(prec), prec)
            bound = (
                pi.div(Interval.point(3), prec).sqrt(prec)
                .mul(sigma, prec)
                .mul(sigma.sqrt(prec), prec)
                .mul(enclose_sinh(sinh_arg, prec), prec)
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
        assert iv.lo.to_fraction() > F(-16897, 100000)
        assert iv.hi.to_fraction() < F(-16895, 100000)


@lru_cache(maxsize=None)
def _closed(family: str, k: int, s: int):
    """The family at (k, s) from the closed forms, convolved as the
    production families convolve."""
    if family == "exp":
        return exp_factor_closed(k, s)
    if family == "binom":
        return binom_factor_closed(k, s)
    if family == "bessel":
        return bessel_factor_closed(k, s)
    if family == "expbinom":
        return sum_of_products((_closed("exp", l, s), RingElem.from_rational(c))
                               for l in range(k + 1) if (c := _closed("binom", k - l, s)))
    return sum_of_products((_closed("expbinom", l, s), _closed("bessel", k - l, s))
                           for l in range(k + 1))


@pytest.mark.parametrize("family", sorted(COEFF_FAMILIES))
class TestShapes:
    def test_matches_closed_form(self, family):
        # equal terms in the same key order: the key-order check pins the
        # canonical form of each element, not its enclosure (RingElem.fixed
        # is one exact integer sum, whatever the order)
        fn = COEFF_FAMILIES[family]
        for s in range(13):
            for k in range(41):
                got, want = fn(k, s), _closed(family, k, s)
                if family == "binom":
                    assert got == want, (k, s)
                else:
                    assert got.terms == want.terms, (k, s)
                    assert list(got.terms) == list(want.terms), (k, s)

    def test_shift_zero_terms_are_homogeneous(self, family):
        # the precondition of the rescale: every term pi^i of a degree-k
        # coefficient at s = 0 has k + i even and -k <= i <= k (a nonzero
        # binomial coefficient is one term on pi^0)
        for k in range(41):
            c = COEFF_FAMILIES[family](k, 0)
            for i, _ in c.terms if isinstance(c, RingElem) else [(0, 0)] * (c != 0):
                assert (k + i) % 2 == 0 and -k <= i <= k, (k, i)

    def test_negative_index_or_shift_rejected(self, family):
        fn = COEFF_FAMILIES[family]
        for k in (0, 1, 2):
            with pytest.raises(ValueError):
                fn(k, -1)
        with pytest.raises(ValueError):
            fn(-1, 0)


def test_rescale_rejects_inhomogeneous_terms():
    # pi^1 in degree 2 (k + i odd), pi^-4 in degree 2 (i < -k)
    for i in (1, -4):
        with pytest.raises(ArithmeticError):
            _at_shift(RingElem.from_rational(1) + RingElem.monomial(i, 0, 1), 2, 1)
    # a homogeneous element: pi^0 takes t^1 and pi^-2 takes t^0, t = 25
    got = _at_shift(RingElem({(0, 0): F(1, 5), (-2, 1): F(7)}), 2, 1)
    assert list(got.terms.items()) == [((0, 0), F(5)), ((-2, 1), F(7))]


# -- every coefficient against the function it expands --------------------------

EXPANDED_DEGREES = 30  # k <= 30, at every shift s <= 9


def _expanded_functions(x, s: int) -> dict:
    """Each family's function of x = n^(-1/2) at shift s (``bounds._budget_parts``
    names them), in mpmath at its working precision: the exponential factor (its
    exponent pi sqrt(n/3) (sqrt(1 + sigma/n) - 1) written without the
    cancellation), the binomial factor, their product, the Bessel factor
    sqrt(2 pi nu) e^-nu I1(nu) with nu = pi sqrt((n + sigma)/3), and for the full
    expansion the main term M(n + s) = sqrt2 pi^2/(12 nu) I1(nu) over prefactor(n)."""
    sigma, n = mp.mpf(24 * s + 1) / 24, 1 / (x * x)
    u = sigma * x * x
    exp_factor = mp.exp(mp.pi * sigma * x / (mp.sqrt(3) * (mp.sqrt(1 + u) + 1)))
    binom_factor = (1 + u) ** (mp.mpf(-3) / 4)
    nu = mp.pi * mp.sqrt((n + sigma) / 3)
    i1 = mp.besseli(1, nu)
    prefactor = mp.exp(mp.pi * mp.sqrt(n / 3)) / (4 * mp.mpf(3) ** (mp.mpf(1) / 4) * n ** (mp.mpf(3) / 4))
    return {
        "exp": exp_factor,
        "binom": binom_factor,
        "expbinom": exp_factor * binom_factor,
        "bessel": mp.sqrt(2 * mp.pi * nu) * mp.exp(-nu) * i1,
        "full": mp.sqrt(2) * mp.pi**2 / (12 * nu) * i1 / prefactor,
    }


@lru_cache(maxsize=None)
def _unit(i: int, j: int, w: int) -> int:
    """floor(pi^i sqrt3^j 2^w), from mpmath at w + 64 bits."""
    with mp.workprec(w + 64):
        return int(mp.floor(mp.ldexp(mp.pi**i * mp.sqrt(3) ** j, w)))


def _mp_value(c, w: int):
    """A coefficient's value in mpmath, within (|r| + 1) 2^-w per term r pi^i sqrt3^j."""
    if isinstance(c, Fraction):
        return mp.mpf(c.numerator) / c.denominator
    return mp.ldexp(sum(r.numerator * _unit(i, j, w) // r.denominator for (i, j), r in c.terms.items()), -w)


@pytest.mark.parametrize("lg", [50, 100])
def test_coefficients_expand_their_functions(lg):
    # peel the coefficients off f at x = 2^-lg: r_k = (f - sum_{i<k} c_i x^i) / x^k
    # is c_k plus the rest of the series, whose first term is the next nonzero
    # c_j x^(j-k) (j - k <= 2; the binomial factor's odd degrees vanish).  The
    # terms after it are smaller again by about |c_(j+1)/c_j| x, so r_k - c_k must
    # be the next term to within half of it: a slip in c_k shows at relative size
    # x, and at the second point it must shrink by the factor 2^(-50 (j - k)).
    # Precision: x^-k scales f's rounding up by 2^(lg k), and the coefficients
    # lie in [2^-90, 2^61], so lg (top + 4) + 256 bits keep the rounding more than
    # 2^100 below every tolerance; the units carry 128 bits more for the r.
    top = EXPANDED_DEGREES
    prec = lg * (top + 4) + 256
    with mp.workprec(prec):
        x = mp.ldexp(1, -lg)
        for s in range(10):
            for family, f in _expanded_functions(x, s).items():
                c = [_mp_value(COEFF_FAMILIES[family](k, s), prec + 128) for k in range(top + 3)]
                rest = f
                for k in range(top + 1):
                    j = next(i for i in range(k + 1, top + 3) if c[i])
                    following = c[j] * x ** (j - k)
                    residual = rest / x**k - c[k]
                    assert abs(residual - following) <= abs(following) / 2, (family, s, k)
                    rest -= c[k] * x**k


# -- every tail constant against its function at finite n ------------------------

TAIL_FIELDS = {"exp": "er_exp", "binom": "er_binom", "expbinom": "er_exp_binom",
               "bessel": "er_bessel", "full": "er_total"}


def _worst_tail_ratios(s: int, top_n: int, functions, families: tuple[str, ...]) -> dict[str, float]:
    """For each family f of functions(n, x)[family], the largest |f(x) - sum_{k<=N} c_k x^k|
    / (C x^(N+1)) over 1 <= N <= 30 and n from n_min(N, s) to top_n, x = n^(-1/2),
    with C the family's field of error_budget(N, s): on every floor, on n = 2^8,
    2^24, ..., 2^200 as far as top_n, and on top_n.  Precision: with x >= 2^-lg,
    C x^31 >= 2^-(31 lg + 90) (every C is above 2^-90), so 31 lg + 192 bits keep
    the rounding of f and of the sum 2^100 below it."""
    top, w = EXPANDED_DEGREES, 32 * 100 + 384
    floors = {N: n_min(N, s) for N in range(1, top + 1)}
    with mp.workprec(w):
        c = {f: [_mp_value(COEFF_FAMILIES[f](k, s), w) for k in range(top + 1)] for f in families}
        bound = {f: {N: _mp_value(getattr(error_budget(N, s, 192), TAIL_FIELDS[f]).to_fraction(), w)
                     for N in floors} for f in families}
    grid = sorted(n for n in {*floors.values(), *(2**e for e in range(8, 201, 16)), top_n} if n <= top_n)
    worst = dict.fromkeys(families, 0.0)
    for n in grid:
        lg = (n.bit_length() + 1) // 2
        with mp.workprec((top + 1) * lg + 192):
            x = 1 / mp.sqrt(n)
            f = functions(n, x)
            for family in families:
                rest, xk = f[family], mp.mpf(1)
                for N in range(top + 1):
                    rest -= c[family][N] * xk
                    xk *= x
                    if N and n >= floors[N]:
                        worst[family] = max(worst[family], float(abs(rest) / (bound[family][N] * xk)))
    return worst


@pytest.mark.parametrize("s", range(10))
def test_tail_constants_bound_their_functions(s):
    # |f(x) - P_N(x)| <= C x^(N+1) for n >= n_min(N, s), the claim each tail constant
    # makes, from the floors to n = 2^200, N <= 30.  Worst ratios over s <= 9:
    # er_exp 0.613 at (N, s, n) = (30, 0, 31967), er_binom 9/16 at N = 1 (its limit
    # as x -> 0, reached from n = 2^56 on), er_exp_binom 0.284 at (1, 0, 206) and
    # er_bessel 0.134 at (2, 2, 206)
    worst = _worst_tail_ratios(s, 2**200, lambda n, x: _expanded_functions(x, s),
                               ("exp", "binom", "expbinom", "bessel"))
    assert all(r <= 1 for r in worst.values()), worst


@pytest.mark.parametrize("s", range(10))
def test_total_tail_bounds_q(s, table20k):
    # er_total claims |q(n + s)/prefactor(n) - P_N(x)| <= er_total x^(N+1), checked
    # where the table holds q(n + s) exactly: n + s <= 20000, so N <= 24.  Worst
    # ratio over s <= 9: er_total 0.0927 at (N, s, n) = (9, 0, 1786)
    def functions(n, x):
        m = mp.mpf(n)
        prefactor = mp.exp(mp.pi * mp.sqrt(m / 3)) / (4 * mp.mpf(3) ** (mp.mpf(1) / 4) * m ** (mp.mpf(3) / 4))
        return {"full": table20k[n + s] / prefactor}

    worst = _worst_tail_ratios(s, 20000 - s, functions, ("full",))
    assert worst["full"] <= 1, worst


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
        one = Interval.point(1)
        pi = enclose_pi(prec)
        root_n3 = Interval.from_fraction(F(n, 3), prec).sqrt(prec)
        shifted = Interval.from_fraction(F(sigma) / n, prec).add(one, prec).sqrt(prec).sub(one, prec)
        lhs = enclose_exp(pi.mul(root_n3, prec).mul(shifted, prec), prec)
        x = one.div(Interval.point(n).sqrt(prec), prec)
        series = Interval.point(0)
        for k in reversed(range(N + 1)):
            series = series.mul(x, prec).add(exp_factor_coeff(k, s).eval_iv(prec), prec)
        err = mag(lhs.sub(series, prec))
        allowance = Interval(error_budget(N, s, prec).er_exp, error_budget(N, s, prec).er_exp)
        rhs = allowance.mul(x.pow_int(N + 1, prec), prec).lo
        assert err.to_fraction() <= rhs.to_fraction()

    def test_binom_factor(self, s, N, n):
        prec = 224
        sigma = shift_sigma(s)
        one = Interval.point(1)
        base = Interval.from_fraction(F(sigma) / n, prec).add(one, prec)
        lhs = one.div(_power_3_4(base, prec), prec)
        x = one.div(Interval.point(n).sqrt(prec), prec)
        series = Interval.point(0)
        for k in reversed(range(N + 1)):
            series = series.mul(x, prec).add(Interval.from_fraction(binom_factor_coeff(k, s), prec), prec)
        err = mag(lhs.sub(series, prec))
        b = error_budget(N, s, prec).er_binom
        rhs = Interval(b, b).mul(x.pow_int(N + 1, prec), prec).lo
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
        assert lower.hi.to_fraction() <= q <= upper.lo.to_fraction(), (n, s, N)


def test_coefficient_sums_match_ring_sums():
    # the integer Cauchy sums equal the RingElem sums they replaced, with
    # the same enclosures, for every (k, s) the theorems use
    pairs = sorted({(t.N, s) for t in THEOREMS.values() for s in t.shifts})
    for N, s in pairs:
        for k in range(N + 1):
            eb, full = RingElem(), RingElem()
            for l in range(k + 1):
                c = binom_factor_coeff(k - l, s)
                if c:
                    eb = eb + exp_factor_coeff(l, s).scale(c)
                full = full + exp_binom_coeff(l, s) * bessel_factor_coeff(k - l, s)
            for got, want in [(exp_binom_coeff(k, s), eb), (expansion_coeff(k, s), full)]:
                assert got == want, (k, s)
                g, w = got.eval_iv(192), want.eval_iv(192)
                assert (g.lo, g.hi) == (w.lo, w.hi), (k, s)
