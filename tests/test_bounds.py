"""Error budgets, validity windows, the main-term sandwich, and the
two-sided envelopes.

The dominance tests rebuild every budget formula in mpmath at 200+ bits
as an independent straight-line reference; our certified upper bounds
must sit at or above those values.
"""

import hashlib
import random
from fractions import Fraction

import mpmath as mp
import pytest

from oracles import (
    SandwichResult,
    bessel_arg,
    bessel_main_term,
    budget_fields,
    check_main_term_sandwich,
    contains,
    mag,
)
from qcert.bounds import (
    _budget_parts,
    _root4,
    bound_poly,
    bound_value,
    decay_threshold,
    error_budget,
    n_min,
    prefactor,
    window_max,
    x_of,
)
from qcert.certify import THEOREMS
from qcert.coeffs import COEFF_FAMILIES, bessel_asym_coeff
from qcert.ring import RingElem


@pytest.fixture(autouse=True)
def _mp_prec():
    """mpmath's references at 260 bits, set around each test, not at import."""
    with mp.workprec(260):
        yield


F = Fraction


def as_mpf(fr: Fraction) -> mp.mpf:
    return mp.mpf(fr.numerator) / fr.denominator


class TestDecayThreshold:
    def test_m1_exact(self):
        iv = decay_threshold(1)
        assert iv.lo.to_fraction() == 1 and iv.hi.to_fraction() == 1

    def test_m2(self):
        # 8 log2 - 6 log log 2, with log log 2 < 0 the value exceeds 8 log 2
        iv = decay_threshold(2)
        ref = 8 * mp.log(2) - 6 * mp.log(mp.log(2))
        lo, hi = iv.to_fractions()
        assert as_mpf(lo) <= ref <= as_mpf(hi)
        assert iv.lo.to_fraction() > 8 * Fraction(693147, 10**6)

    def test_m16(self):
        iv = decay_threshold(16)
        ref = 64 * mp.log(16) - 48 * mp.log(mp.log(16))
        lo, hi = iv.to_fractions()
        assert as_mpf(lo) <= ref <= as_mpf(hi)
        # 128.496...: pinning the value that reproduces the stated windows
        assert F(128, 1) < lo < hi < F(129, 1)


class TestValidityFloor:
    def test_small_order(self):
        assert n_min(1, 0) == 206

    def test_window_maxima(self):
        assert window_max(14, (0, 1, 2, 3, 4)) == 5019
        assert window_max(24, (0, 1, 2, 3, 4, 5, 6)) == 18502

    def test_shift_branch(self):
        # for large s the ceil(2(24s+1)/3) branch dominates at low N
        assert n_min(1, 40) == -(-2 * (24 * 40 + 1) // 3)

    def test_floor_invariants(self):
        for N in (1, 6, 14, 24):
            for s in range(7):
                floor = n_min(N, s)
                assert floor >= 206
                assert floor >= -(-2 * (24 * s + 1) // 3)


def _reference_budget(N: int, s: int) -> dict[str, mp.mpf]:
    """Independent mpmath implementation of every budget formula."""
    pi = mp.pi
    sq3 = mp.sqrt(3)
    sigma = mp.mpf(24 * s + 1) / 24
    cosh_term = mp.cosh(pi * mp.sqrt(mp.mpf(24 * s + 1) / 72))
    a_n = abs(as_mpf(bessel_asym_coeff(N)))
    a_n1 = abs(as_mpf(bessel_asym_coeff(N + 1)))
    er_i1 = (
        mp.mpf(3) ** (mp.mpf(N + 1) / 2)
        / pi ** (N + 1)
        * (
            (1 + 9 / mp.log(N + 1) + mp.mpf(9) / (N + 2)) / mp.sqrt(2 * pi)
            + (mp.sqrt(2) + (N + mp.mpf(5) / 2) ** mp.mpf(-0.5)) / mp.log(N + 1)
        )
        * a_n1
    )
    er_exp = (
        mp.mpf(4) / 3 * mp.sqrt(2 * pi / 3) * N ** mp.mpf(-1.5)
        * sigma ** (mp.mpf(N + 2) / 2) * cosh_term
    )
    er_binom = mp.mpf(4) / 3 * sigma ** (mp.mpf(N + 1) / 2)
    er_exp_binom = (
        (mp.mpf(4) / 3 * N ** mp.mpf(1.5) + 1) * er_exp
        + pi / (2 * sq3) * sigma ** (mp.mpf(N + 2) / 2)
        + er_binom * (1 + pi / (2 * sq3) * sigma + mp.sqrt(pi * (24 * s + 1)) / 72 * cosh_term)
    )
    er_b_shift = (
        4 * a_n / 3 * (sigma + 3 / pi**2) ** (N // 2 + 1)
        + 4 * a_n / (sq3 * pi) * (mp.sqrt(sigma) + sq3 / pi) ** (2 * ((N - 1) // 2) + 2)
    )
    er_bessel = (
        8 * (sq3 / pi) ** (N + 1) * a_n
        + (1 + 4 * (3 / (pi * mp.sqrt(2 * mp.mpf(24 * s + 1)))) ** (N + 1))
        * (er_b_shift + er_i1)
    )
    growth = 1 + pi / (2 * sq3) * mp.sqrt(sigma) + mp.sqrt(pi * (24 * s + 1)) / 12 * cosh_term
    floor = n_min(N, s)
    er_total = (
        a_n
        * (pi * mp.mpf(2) ** (N - 1) / sq3 * mp.sqrt(sigma) + growth * (1 + mp.mpf(2) ** (N + 1) / 3))
        * sigma ** (mp.mpf(N + 1) / 2)
        + (1 + pi / (2 * sq3) * sigma + growth / 12) * er_bessel
        + 2 * a_n * er_exp_binom
        + er_exp_binom * er_bessel / floor ** (mp.mpf(N + 1) / 2)
    )
    return {
        "er_i1_asym": er_i1,
        "er_exp": er_exp,
        "er_binom": er_binom,
        "er_exp_binom": er_exp_binom,
        "er_bessel_shift": er_b_shift,
        "er_bessel": er_bessel,
        "growth_const": growth,
        "er_total": er_total,
    }


# sha256 of every _budget_parts endpoint at the theorems' (N, s), per precision
BUDGET_PINS = {
    64: "fe0548e2b442272aac10507e1e5eb519272491eb63318bd8424b3ae93a9b0392",
    192: "37620e933eb530e74c78365954e5ffe1f741e6d0417b44fa165c34f30ebde1f4",
    256: "e03ab66cc2ebfa925d49df3116dca0521cdc3930e47ac0853dc53d20d36d1db9",
}


class TestBudgets:
    @pytest.mark.parametrize("N", [1, 6, 14, 24])
    @pytest.mark.parametrize("s", [0, 3, 6])
    def test_dominates_reference(self, N, s):
        budget = error_budget(N, s)
        ref = _reference_budget(N, s)
        for name, dy in budget_fields(budget).items():
            ours = as_mpf(dy.to_fraction())
            assert ours >= ref[name] * (1 - mp.mpf(2) ** -100), (N, s, name)
            # and not wildly conservative
            assert ours <= ref[name] * (1 + mp.mpf(2) ** -100), (N, s, name)

    @pytest.mark.pin
    @pytest.mark.parametrize("prec", sorted(BUDGET_PINS))
    def test_budget_parts_unchanged(self, prec):
        # every budget interval, both endpoints bit for bit, at each (N, s)
        # the theorems use; a change that moves an endpoint re-pins and says why.
        # Pins off the default precision catch an operation that ignores prec.
        digest = hashlib.sha256()
        for N, s in sorted({(spec.N, s) for spec in THEOREMS.values() for s in spec.shifts}):
            for name, v in _budget_parts(N, s, prec).items():
                digest.update(f"{N} {s} {name} {v.lo.man} {v.lo.exp} {v.hi.man} {v.hi.exp};".encode())
        assert digest.hexdigest() == BUDGET_PINS[prec]

    @pytest.mark.parametrize("field, family", [
        ("er_exp", "exp"), ("er_binom", "binom"), ("er_exp_binom", "expbinom"),
        ("er_bessel", "bessel"), ("er_total", "full"),
    ])
    def test_tail_constant_covers_first_omitted_coefficient(self, field, family):
        # the constant bounds |f(x) - sum_{k<=N} c_k x^k| / x^(N+1) down to
        # x = 0, where that tends to |c_{N+1}| of its own family.  Worst
        # ratios: er_exp 0.613 at (30, 0), er_binom 9/16 at N = 1,
        # er_exp_binom 0.283 at (1, 0), er_bessel 0.132 at (2, 2) and
        # er_total 0.091 at (2, 1)
        for N in range(1, 31):
            for s in range(10):
                c = COEFF_FAMILIES[family](N + 1, s)
                size = abs(c) if not isinstance(c, RingElem) else mag(c.eval_iv(192)).to_fraction()
                assert size <= getattr(error_budget(N, s, 192), field).to_fraction(), (N, s)

    def test_all_positive(self):
        budget = error_budget(14, 0)
        for name, dy in budget_fields(budget).items():
            assert dy.sign > 0, name

    def test_exp_tail_monotone_small_shift(self):
        # at s=0 the exponential tail constant decreases in N throughout
        values = [error_budget(N, 0).er_exp.to_fraction() for N in range(1, 31)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_binom_tail_closed_form(self):
        b = error_budget(9, 2)
        sigma = F(49, 24)
        # exactly (4/3) sigma^5 (integer half-exponent), rounded up
        assert abs(b.er_binom.to_fraction() - F(4, 3) * sigma**5) <= F(1, 2**150)


class TestMainTermSandwich:
    def test_bessel_arg_zero(self):
        iv = bessel_arg(0)
        ref = mp.pi / (6 * mp.sqrt(2))
        lo, hi = iv.to_fractions()
        assert as_mpf(lo) <= ref <= as_mpf(hi)

    def test_bessel_arg_206(self):
        assert bessel_arg(206).lo.to_fraction() >= 26

    def test_main_term_positive_finite(self):
        iv = bessel_main_term(1000)
        assert iv.lo.sign > 0
        nu = mp.pi * mp.sqrt(24 * 1000 + 1) / (6 * mp.sqrt(2))
        ref = mp.sqrt(2) * mp.pi**2 / (12 * nu) * mp.besseli(1, nu)
        lo, hi = iv.to_fractions()
        assert as_mpf(lo) <= ref <= as_mpf(hi)

    @pytest.mark.parametrize("n,m", [(500, 2), (2000, 3), (206, 2), (250, 3)])
    def test_holds(self, table20k, n, m):
        assert check_main_term_sandwich(table20k, n, m) == SandwichResult.HOLDS

    def test_out_of_regime(self, table20k):
        assert check_main_term_sandwich(table20k, 10, 2) == SandwichResult.OUT_OF_REGIME

    def test_regime_spread(self, table20k):
        rng = random.Random(12)
        for m in (2, 3):
            for _ in range(10):
                n = rng.randint(206, 20000 - 1)
                assert check_main_term_sandwich(table20k, n, m) == SandwichResult.HOLDS, (n, m)


class TestEnvelopes:
    def test_poly_unit_constant(self):
        for (s, N) in [(0, 14), (4, 14), (6, 24), (0, 1)]:
            poly = bound_poly(s, N, +1)
            assert poly.coeffs[0].terms == {(0, 0): F(1)}
            assert poly.err.sign > 0
            low = bound_poly(s, N, -1)
            assert low.err == poly.err

    def test_x_max_covers_floor(self):
        poly = bound_poly(0, 14, +1)
        # x_max is an upper bound of floor^{-1/2}
        assert (poly.x_max.to_fraction() ** 2) * poly.floor >= 1

    def test_lower_below_upper(self):
        for n in (5019, 7000, 12345):
            lo = bound_value(n, 2, 14, -1)
            hi = bound_value(n, 2, 14, +1)
            assert lo.hi < hi.lo

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            bound_value(100, 0, 14, -1)

    def test_two_eval_paths_agree(self):
        # value route (bound_value) vs polynomial route (eval at x)
        from qcert.bounds import x_of

        n, s, N = 6000, 0, 14
        lo_poly = bound_poly(s, N, -1)
        direct = prefactor(n).mul(lo_poly.eval_iv(x_of(n)), 192)
        via = bound_value(n, s, N, -1)
        (d_lo, d_hi), (v_lo, v_hi) = direct.to_fractions(), via.to_fractions()
        assert d_lo <= v_hi and v_lo <= d_hi  # overlapping enclosures

    def test_sandwich_sampled(self, table20k):
        rng = random.Random(2718)
        for N in (1, 6, 14, 24):
            for s in range(7):
                floor = n_min(N, s)
                for _ in range(4):
                    n = rng.randint(floor, 20000 - s)
                    v = table20k[n + s]
                    assert bound_value(n, s, N, -1).hi.to_fraction() <= v, (N, s, n)
                    assert bound_value(n, s, N, +1).lo.to_fraction() >= v, (N, s, n)

    @pytest.mark.pin
    def test_envelopes_unchanged(self):
        # every bound_poly pair, both sides, at each (N, s) the theorems use,
        # pinned from the fixed-point enclosures after checking that none is
        # wider than the floating ones before them
        digest = hashlib.sha256()
        count = 0
        for N, s in sorted({(spec.N, s) for spec in THEOREMS.values() for s in spec.shifts}):
            for side in (-1, 1):
                poly = bound_poly(s, N, side, 192)
                count += 1
                digest.update(f"{N} {s} {side} ".encode())
                for lo, hi in poly.coeff_pairs:
                    digest.update(f"{lo} {hi} ".encode())
                digest.update(
                    f"{poly.err.man} {poly.err.exp} {poly.x_max.man} {poly.x_max.exp} {poly.floor};".encode()
                )
        assert count == 24
        assert digest.hexdigest() == "e38f8d538971d598bff34145cf42dfb0c3ef8af89be7205d4b8b2f7eed555932"

    def test_coefficient_enclosures_shared(self):
        # both sides and order 14 have the order-24 envelope's enclosures
        for N, s in sorted({(spec.N, s) for spec in THEOREMS.values() for s in spec.shifts}):
            shared = bound_poly(s, 24, 1, 192).coeff_pairs
            for side in (-1, 1):
                pairs = bound_poly(s, N, side, 192).coeff_pairs
                assert len(pairs) == N + 1
                assert pairs == shared[:N + 1], (N, s, side)

    def test_eval_iv_contains_exact_members(self):
        # the fixed-point Horner on every envelope the theorems use, at the
        # floor and at 20000 - s: the family's lowest and highest members,
        # exact rationals, at both ends of the enclosure of n^(-1/2)
        for N, s in sorted({(spec.N, s) for spec in THEOREMS.values() for s in spec.shifts}):
            for side in (-1, 1):
                poly = bound_poly(s, N, side, 192)
                signed = poly.err if side > 0 else -poly.err
                unit = 1 << (192 + 16)
                ivs = [(F(lo, unit), F(hi, unit)) for lo, hi in poly.coeff_pairs] + [(signed.to_fraction(),) * 2]
                for n in (poly.floor, 20000 - s):
                    x = x_of(n, 192)
                    got = poly.eval_iv(x)
                    for end in (0, 1):
                        for t in x.to_fractions():
                            value = sum(c[end] * t**k for k, c in enumerate(ivs))
                            assert contains(got, value), (N, s, side, n)

    @pytest.mark.parametrize("prec", [24, 64, 192])
    def test_prefactor_contains_reference(self, prec):
        # exp of pi sqrt(3n)/3 over the root bracket of 3 n^3, both outward
        ns = list(range(1, 400)) + list(range(400, 20001, 97))
        with mp.workprec(2 * prec + 64):
            for n in ns:
                ref = mp.e ** (mp.pi * mp.sqrt(mp.mpf(n) / 3)) / (4 * mp.mpf(3) ** 0.25 * mp.mpf(n) ** 0.75)
                lo, hi = prefactor(n, prec).to_fractions()
                assert as_mpf(lo) <= ref <= as_mpf(hi), (n, prec)

    @pytest.mark.parametrize("prec", [16, 24, 192])
    def test_root4_brackets_the_fourth_root(self, prec):
        # [r, r + 1] 2^-k holds (3 n^3)^{1/4} exactly: r^4 <= 3 n^3 2^{4k} < (r + 1)^4,
        # with perfect fourth powers (3 n^3 = 3^4 at n = 3) among them
        for n in list(range(1, 400)) + list(range(400, 20001, 97)) + [3**5, 10**10]:
            lo, hi = _root4(3 * n**3, prec).to_fractions()
            assert lo**4 <= 3 * n**3 < hi**4, (n, prec)
            assert (hi - lo) / lo <= F(1, 2**prec), (n, prec)

    def test_prefactor_wide_exponent(self):
        # at 16 bits and n = 10^10 the exponent's radius is 4
        n, prec = 10**10, 16
        lo, hi = prefactor(n, prec).to_fractions()
        with mp.workprec(256):
            ref = mp.e ** (mp.pi * mp.sqrt(mp.mpf(n) / 3)) / (4 * mp.mpf(3) ** 0.25 * mp.mpf(n) ** 0.75)
            assert as_mpf(lo) <= ref <= as_mpf(hi)

    def test_prefactor_value(self):
        iv = prefactor(6000)
        ref = mp.e ** (mp.pi * mp.sqrt(mp.mpf(6000) / 3)) / (4 * 3 ** mp.mpf(0.25) * 6000 ** mp.mpf(0.75))
        lo, hi = iv.to_fractions()
        assert as_mpf(lo) <= ref <= as_mpf(hi)

    def test_prefactor_relative_width_does_not_grow_with_n(self):
        # the exponent pi sqrt(3n)/3, taken at bitlen(3n)/2 + 2 guard bits, is as wide as
        # the result is relatively: at 192 bits both stay under 2^-188 however large n
        for n in (1, 206, 20000, 10**10):
            lo, hi = prefactor(n, 192).to_fractions()
            assert (hi - lo) / lo <= F(1, 2**188), n
