"""Special-function enclosures against an independent oracle (mpmath at
a much higher working precision)."""

import importlib
import random
from fractions import Fraction

import mpmath as mp
import pytest

from oracles import (
    bessel_arg,
    bessel_i1_point_loop,
    contains,
    contains_interval,
    enclose_bessel_i1,
    enclose_sinh,
    exp_bracket,
    exp_point_loop,
    log_point_loop,
    width,
)
from qcert.enclosures import (
    _atanh_series,
    enclose_cosh,
    enclose_exp,
    enclose_log,
    enclose_pi,
)
from qcert.intervals import DomainError, Dyadic, Interval


@pytest.fixture(autouse=True)
def _mp_prec():
    """mpmath's references at 300 bits, set around each test, not at import."""
    with mp.workprec(300):
        yield


def contains_ref(interval: Interval, ref: mp.mpf) -> bool:
    lo, hi = interval.to_fractions()
    return mp.mpf(lo.numerator) / lo.denominator <= ref <= mp.mpf(hi.numerator) / hi.denominator


def pt(x) -> Interval:
    return Interval.from_fraction(Fraction(x), 300)


class TestPi:
    def test_contains_pi_at_53(self):
        iv = enclose_pi(53)
        assert contains_ref(iv, mp.pi)
        assert width(iv) <= Fraction(1, 2**49)

    def test_small_precision(self):
        iv = enclose_pi(16)
        assert contains_ref(iv, mp.pi)
        assert iv.lo.to_fraction() <= Fraction(3140, 1000) or iv.lo.to_fraction() >= 3
        assert iv.lo.to_fraction() > 3 and iv.hi.to_fraction() < 4

    def test_width_contract(self):
        for prec in (16, 53, 128, 192, 600):
            iv = enclose_pi(prec)
            assert width(iv) <= Fraction(2 ** max(0, 4 - prec + 60), 2**60)


class TestElementary:
    def test_exp_zero(self):
        iv = enclose_exp(Interval.point(0), 192)
        assert contains(iv, 1) and width(iv) <= Fraction(1, 2**180)

    def test_cosh_zero(self):
        assert contains(enclose_cosh(Interval.point(0), 128), 1)

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
        assert width(iv) < Fraction(1, 2**180)

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

    def test_cosh_even_on_every_interval(self):
        # cosh on x <= 0 is cosh on -x, end for end; on x straddling 0 its
        # lower end is cosh(0) = 1 and its upper end cosh at the wider end
        rng = random.Random(11)
        for _ in range(25):
            a = Fraction(rng.randint(1, 300), rng.randint(1, 50))
            b = a + Fraction(rng.randint(0, 200), 97)
            box = Interval(Dyadic.from_fraction(a, 200, up=False), Dyadic.from_fraction(b, 200, up=True))
            pos, neg = enclose_cosh(box, 120), enclose_cosh(Interval(-box.hi, -box.lo), 120)
            assert (neg.lo, neg.hi) == (pos.lo, pos.hi), (a, b)
            for lo, hi in ((-box.hi, box.lo), (-box.lo, box.hi)):
                out = enclose_cosh(Interval(lo, hi), 120)
                assert out.lo == Dyadic(1) and out.hi == pos.hi, (a, b)


class TestBesselI1:
    def test_zero(self):
        assert contains(enclose_bessel_i1(Interval.point(0), 64), 0)

    def test_value_at_one(self):
        # frozen from a 200-bit partial-sum-plus-tail computation
        iv = enclose_bessel_i1(Interval.point(1), 128)
        assert contains_ref(iv, mp.besseli(1, 1))
        lo, hi = iv.to_fractions()
        assert Fraction(5651, 10**4) < lo < hi < Fraction(5652, 10**4)

    def test_relative_width_at_26(self):
        iv = enclose_bessel_i1(Interval.point(26), 128)
        assert contains_ref(iv, mp.besseli(1, 26))
        assert width(iv) / iv.lo.to_fraction() <= Fraction(1, 2**40)

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
            assert contains_interval(whole, left) and contains_interval(whole, right)


# -- the integer kernels against mpmath and the Interval-loop oracles ---------

# 200 arguments per kernel; the Interval-loop oracles take 20-50 ms a call
# at 1536 bits, so that precision gets the fewest
KERNEL_ARGS = {64: 90, 192: 90, 1536: 20}


def _dyadic(rng: random.Random, top: int, sign: int = 1) -> Dyadic:
    """A dyadic with |d| < 2**top and a mantissa of 1 to 200 bits."""
    bits = rng.choice((1, 8, 53, 120, 200))
    man = rng.getrandbits(bits) | (1 << (bits - 1))
    return Dyadic(sign * man, top - bits - rng.randrange(0, 4))


def _exp_args(rng: random.Random, prec: int, count: int) -> list[Dyadic]:
    # endpoints of pi sqrt(n/3), prefactor's exponent, at n = 20000
    arg = enclose_pi(prec).mul(Interval.from_fraction(Fraction(20000, 3), prec).sqrt(prec), prec)
    args = [Dyadic(0), arg.lo, arg.hi, -arg.lo, -arg.hi]
    while len(args) < count:
        sign = rng.choice((-1, 1))
        kind = len(args) % 4
        if kind == 0:  # tiny: |d| < 2^-100
            args.append(_dyadic(rng, -rng.randrange(100, 140), sign))
        elif kind == 1:  # |d| < 1
            args.append(_dyadic(rng, rng.randrange(-20, 1), sign))
        else:  # up to the largest exponent the envelopes use, about 256.5
            args.append(_dyadic(rng, rng.randrange(1, 9), sign))
    return args


def _log_args(rng: random.Random, prec: int, count: int) -> list[Dyadic]:
    args = [Dyadic(1), Dyadic(2), Dyadic(3), Dyadic(1, -1)]
    while len(args) < count:
        kind = len(args) % 4
        if kind == 0:  # tiny: d < 2^-100
            args.append(_dyadic(rng, -rng.randrange(100, 140)))
        elif kind == 1:  # 1 + e with |e| < 2^-100
            e = _dyadic(rng, -rng.randrange(100, 140), rng.choice((-1, 1)))
            args.append(Dyadic((1 << -e.exp) + e.man, e.exp))
        else:
            args.append(_dyadic(rng, rng.randrange(-20, 64)))
    return args


def _bessel_args(rng: random.Random, prec: int, count: int) -> list[Dyadic]:
    nu = bessel_arg(20000, prec)  # the largest argument of the main-term sandwich
    args = [Dyadic(0), nu.lo, nu.hi]
    while len(args) < count:
        kind = len(args) % 4
        if kind == 0:  # tiny: d < 2^-100
            args.append(_dyadic(rng, -rng.randrange(100, 140)))
        elif kind == 1:
            args.append(_dyadic(rng, rng.randrange(-20, 2)))
        else:  # up to nu(20000), about 256.5
            args.append(_dyadic(rng, rng.randrange(2, 9)))
    return args


KERNELS = {
    "exp": (enclose_exp, exp_point_loop, mp.exp, _exp_args),
    "log": (enclose_log, log_point_loop, mp.log, _log_args),
    "bessel_i1": (enclose_bessel_i1, bessel_i1_point_loop, lambda t: mp.besseli(1, t), _bessel_args),
}


@pytest.mark.parametrize("prec", sorted(KERNEL_ARGS))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_contains_reference_and_within_oracle(name, prec):
    # seeded dyadic arguments; the reference is mpmath at 2 prec + 64 bits
    # (more if the argument is wider, so that it enters exactly), and the
    # Interval-loop oracle's enclosure must equal or contain the kernel's
    fn, oracle, ref, make_args = KERNELS[name]
    args = make_args(random.Random(f"{name}-{prec}"), prec, KERNEL_ARGS[prec])
    for d in args:
        iv = fn(Interval.point(d), prec)
        with mp.workprec(max(2 * prec + 64, d.man.bit_length())):
            value = ref(mp.mpf(d.man) * mp.mpf(2) ** d.exp)
            assert contains_ref(iv, value), (name, prec, d)
        assert contains_interval(oracle(d, prec), iv), (name, prec, d)


@pytest.mark.parametrize("fn, kernel", [
    (enclose_exp, "_exp_point"),
    (enclose_log, "_log_point"),
    (enclose_cosh, "_cosh_point"),
    (enclose_bessel_i1, "_bessel_i1_point"),
])
def test_point_argument_evaluated_once(monkeypatch, fn, kernel):
    module = importlib.import_module(fn.__module__)  # qcert.enclosures, or oracles for I1
    point = getattr(module, kernel)
    calls = []

    def counted(d, prec):
        calls.append(d)
        return point(d, prec)

    monkeypatch.setattr(module, kernel, counted)
    d, e = Dyadic(5, -1), Dyadic(11, -2)
    iv = fn(Interval.point(d), 192)
    assert calls == [d]
    assert (iv.lo, iv.hi) == (point(d, 192).lo, point(d, 192).hi)
    calls.clear()
    iv = fn(Interval(d, e), 192)
    assert calls == [d, e]
    assert (iv.lo, iv.hi) == (point(d, 192).lo, point(e, 192).hi)


@pytest.mark.parametrize("prec", [24, 64, 192])
def test_log_just_below_one_keeps_relative_accuracy(prec):
    # log(1 - 2^-k) is about -2^-k: in [1/2, 1) the atanh argument is
    # negative, and nothing cancels against log 2
    for k in (1, 2, 3, 20, 60, 110, 300):
        d = Dyadic((1 << k) - 1, -k)
        iv = enclose_log(Interval.point(d), prec)
        with mp.workprec(2 * prec + 2 * k + 64):
            assert contains_ref(iv, mp.log(1 - mp.mpf(2) ** -k)), (prec, k)
        assert iv.hi.sign < 0
        assert width(iv) <= abs(iv.hi.to_fraction()) / 2 ** (prec - 3), (prec, k)


# -- values next to a grid point -----------------------------------------------
# A kernel that loses a unit at its working scale 2^-(prec+12) or finer can
# round onto the wrong side of a prec-bit grid point only when the value lies
# that close to one, which seeded inputs almost never do.  These arguments are
# placed there by a seeded search in mpmath; the checks are exact, against
# Fraction brackets of exp (a log enclosure [a, b] contains log d iff
# exp(a) <= d <= exp(b)).

NEAR_GRID_PRECS = range(16, 25)


def _grid_point(v: mp.mpf, prec: int) -> Fraction:
    """The prec-bit dyadic nearest to v."""
    e = int(mp.floor(mp.log(abs(v), 2))) - prec + 1
    return Fraction(int(mp.nint(v / mp.mpf(2) ** e))) * Fraction(2) ** e


def _mpf(f: Fraction) -> mp.mpf:
    return mp.mpf(f.numerator) / f.denominator


def _near_grid_exp_args(prec: int) -> list[tuple[Dyadic, bool]]:
    """(d, above): exp(d) just above (or below) a grid point g near e^x, x
    from three ranges of each sign, |exp(d) - g| < 2^-(prec+60) g."""
    rng, bits, out = random.Random(f"exp-grid-{prec}"), prec + 70, []
    with mp.workprec(600):
        for lo, hi in ((0.05, 0.45), (2, 9), (40, 250)):
            for sign in (1, -1):
                scaled = mp.log(_mpf(_grid_point(mp.exp(sign * rng.uniform(lo, hi)), prec))) * 2**bits
                out += [(Dyadic(int(mp.ceil(scaled)), -bits), True),
                        (Dyadic(int(mp.floor(scaled)), -bits), False)]
    return out


def _near_grid_log_args(prec: int) -> list[tuple[Dyadic, Fraction, bool]]:
    """(d, g, above): log d just above (or below) a grid point g near log y,
    y below 1/2, in [1/2, 1), in (1, 2) and above 2."""
    rng, out = random.Random(f"log-grid-{prec}"), []
    with mp.workprec(600):
        for lo, hi in ((1e-6, 0.3), (0.55, 0.95), (1.1, 1.9), (3, 1e6)):
            g = _grid_point(mp.log(rng.uniform(lo, hi)), prec)
            v = mp.exp(_mpf(g))
            e = int(mp.floor(mp.log(v, 2))) - prec - 100
            out += [(Dyadic(int(mp.ceil(v / mp.mpf(2) ** e)), e), g, True),
                    (Dyadic(int(mp.floor(v / mp.mpf(2) ** e)), e), g, False)]
    return out


@pytest.mark.parametrize("prec", NEAR_GRID_PRECS)
def test_exp_next_to_grid_point(prec):
    for d, above in _near_grid_exp_args(prec):
        lo, hi = exp_bracket(d.to_fraction())
        g = _grid_point(_mpf(lo), prec)
        assert (g < lo) if above else (hi < g), (prec, d)
        assert abs(hi - g) < g / 2 ** (prec + 12), (prec, d)  # within a working unit
        a, b = enclose_exp(Interval.point(d), prec).to_fractions()
        assert a <= lo and hi <= b, (prec, d)


@pytest.mark.parametrize("prec", NEAR_GRID_PRECS)
def test_log_next_to_grid_point(prec):
    for d, g, above in _near_grid_log_args(prec):
        x, near = d.to_fraction(), abs(g) / 2 ** (prec + 12)
        g_lo, g_hi = exp_bracket(g)
        assert (g_hi < x) if above else (x < g_lo), (prec, d)  # log d on the chosen side of g
        assert exp_bracket(g - near)[1] < x < exp_bracket(g + near)[0], (prec, d)
        a, b = enclose_log(Interval.point(d), prec).to_fractions()
        assert exp_bracket(a)[1] <= x <= exp_bracket(b)[0], (prec, d)


# -- the atanh series on raw integer bounds ---------------------------------------


def _atanh2_bracket(u: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Exact bounds of 2 atanh(u), 0 <= u < 1: twice a partial sum of
    u^(2j+1)/(2j+1), and that plus twice its tail bound u^(2J+1)/((2J+1)(1 - u^2)),
    summed until the tail is below 2^-bits."""
    total, power, j = Fraction(0), u, 0
    while (tail := power / ((2 * j + 1) * (1 - u * u))) >= Fraction(1, 2**bits):
        total += power / (2 * j + 1)
        power, j = power * u * u, j + 1
    return 2 * total, 2 * (total + tail)


@pytest.mark.parametrize("w", [16, 24, 32, 40])
def test_atanh_series_contains_exact_bracket(w):
    # [lo, hi] 2^-w holds 2 atanh on [ulo, uhi] 2^-w, checked in Fractions: at
    # u = 1 unit the series has no term after u, so hi rests on the tail alone
    # (2 atanh(2^-w) 2^w is above 2); log 2's (third, third + 1) and seeded
    # intervals up to u = 1/3
    third, rng = (1 << w) // 3, random.Random(w)
    cases = [(0, 0), (1, 1), (1, 2), (2, 2), (3, 5), (third - 1, third), (third, third + 1)]
    for _ in range(40):
        ulo = rng.randrange(third)
        cases.append((ulo, min(third, ulo + rng.choice((0, 1, rng.randrange(1 << (w // 2)))))))
    for ulo, uhi in cases:
        lo, hi = _atanh_series(ulo, uhi, w)
        assert Fraction(lo, 1 << w) <= _atanh2_bracket(Fraction(ulo, 1 << w), 3 * w)[0], (w, ulo, uhi)
        assert Fraction(hi, 1 << w) >= _atanh2_bracket(Fraction(uhi, 1 << w), 3 * w)[1], (w, ulo, uhi)
