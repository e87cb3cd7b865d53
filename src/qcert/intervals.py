"""Dyadic numbers and outward-rounded interval arithmetic.

This is the certified-arithmetic substrate for the whole package.  A
``Dyadic`` is an exact number m * 2**e with arbitrary-precision integer
mantissa; an ``Interval`` is a pair of dyadics [lo, hi].  Every interval
operation returns an interval that *contains* the exact set image of its
inputs (outward rounding), which is the single correctness contract here.
Nothing is correctly rounded; endpoints are only guaranteed to bracket.

Precision is the working mantissa width in bits, and every operation
that rounds takes it as a required argument: ``x.mul(y, prec)``.  There
is no default and no hidden state, so no rounding can happen at a width
its caller did not name.  Neither type has binary arithmetic operators: a
``Dyadic`` only negates, scales by a power of 2 and compares (== and >),
and every sum or product of endpoints is formed on raw mantissas.

Mantissas are plain Python ints, so there is no overflow and no hidden
rounding anywhere except the explicit directed roundings below.  An
interval endpoint is rounded once, straight from the raw sum or product
mantissa, and canonicalised once.  Each rule is written once:
``Interval.mul`` is ``convolve``'s one-term case, ``sub`` is ``add`` of
the reflected operand, and sqrt, exp, log and cosh share one dispatch
(``_monotone``).

Polynomials are carried in fixed point: a coefficient is an integer pair
(lo, hi) at the scale 2^-w, w = prec + 16 (``Interval.fixed`` converts
one interval, its lower end floored and its upper end ceiled).
``convolve`` is their multiply-accumulate kernel: it adds the exact
endpoint products at scale 2^-2w into per-degree integer sums, and
``round_out`` rounds each sum outward once (Kulisch's exact
accumulation).  ``horner`` evaluates such a polynomial at x >= 0 on the
same integers: a floor chain for the lower end and a ceiling chain for
the upper end, rounded outward to prec bits once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = [
    "DEFAULT_PRECISION",
    "MIN_PRECISION",
    "Dyadic",
    "Interval",
    "DomainError",
    "check_precision",
    "GUARD",
    "convolve",
    "horner",
    "round_out",
]

MIN_PRECISION = 16
DEFAULT_PRECISION = 192
GUARD = 16  # the fixed-point scale of polynomial coefficients is 2^-(prec + GUARD)


class DomainError(ValueError):
    """Raised when an operation's input leaves its mathematical domain
    (division by an interval that is not positive, sqrt/log of negatives)."""


def check_precision(prec: int) -> None:
    """Reject a precision below MIN_PRECISION bits (0 is an error, not
    a request for some default)."""
    if prec < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {prec}")


def _round_mantissa(man: int, exp: int, prec: int, up: bool) -> tuple[int, int]:
    """Directed rounding of man*2**exp to at most prec mantissa bits.

    Rounds toward +inf when up is true, toward -inf otherwise, so the
    result brackets the exact value from the requested side.
    """
    excess = man.bit_length() - prec
    if excess <= 0:
        return man, exp
    q, r = divmod(man, 1 << excess)  # floor division: man = q*2**excess + r
    if up and r:
        q += 1
    return q, exp + excess


def _canonical(man: int, exp: int) -> tuple[int, int]:
    if man == 0:
        return 0, 0
    shift = (man & -man).bit_length() - 1  # count trailing zero bits
    return man >> shift, exp + shift


def _rounded(man: int, exp: int, prec: int, up: bool) -> "Dyadic":
    """man*2**exp rounded to prec bits toward +inf (up) or -inf, as a
    canonical Dyadic.  man need not be canonical: t trailing zeros
    change neither the quotient nor the remainder test of the rounding,
    so the raw mantissa is rounded first and stripped once."""
    d = Dyadic.__new__(Dyadic)
    d.man, d.exp = _canonical(*_round_mantissa(man, exp, prec, up))
    return d


def _sum_raw(pm: int, pe: int, qm: int, qe: int, prec: int, up: bool) -> tuple[int, int]:
    """pm*2**pe + qm*2**qe rounded to prec bits, from the raw aligned sum,
    as a raw (man, exp) pair."""
    if pm and qm:
        e = pe if pe < qe else qe
        pm, pe = (pm << (pe - e)) + (qm << (qe - e)), e
    elif not pm:
        pm, pe = qm, qe
    return _round_mantissa(pm, pe, prec, up)


def _fraction_raw(num: int, den: int, prec: int, up: bool) -> tuple[int, int]:
    """num/den (den > 0) rounded to prec bits toward +inf (up) or -inf, as
    a raw (man, exp) pair; a dyadic den is exact unless num is too wide."""
    dbits = den.bit_length()
    if den == 1 << (dbits - 1):
        return _round_mantissa(num, 1 - dbits, prec, up)
    return _div_raw(num, 0, den, 0, prec, up)


class Dyadic:
    """Exact dyadic rational m * 2**e, canonical (m odd, or m = e = 0)."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        man, exp = _canonical(man, exp)
        self.man = man
        self.exp = exp

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(value: Fraction | int, prec: int, up: bool) -> "Dyadic":
        """Directed conversion of an exact rational to <= prec bits."""
        return Dyadic(*_fraction_raw(value.numerator, value.denominator, prec, up))

    # -- negation, scaling and directed rounding ----------------------

    def __neg__(self) -> "Dyadic":
        d = Dyadic.__new__(Dyadic)
        d.man, d.exp = -self.man, self.exp
        return d

    def scale(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k."""
        if self.man == 0:
            return self
        d = Dyadic.__new__(Dyadic)
        d.man, d.exp = self.man, self.exp + k
        return d

    def round(self, prec: int, up: bool) -> "Dyadic":
        return _rounded(self.man, self.exp, prec, up)

    # -- comparisons (exact) ------------------------------------------

    def _cmp(self, other: "Dyadic") -> int:
        if self.man == 0 or other.man == 0 or (self.man > 0) != (other.man > 0):
            a, b = self.man, other.man
            return (a > b) - (a < b) if (a == 0 or b == 0) else (1 if a > b else -1)
        e = min(self.exp, other.exp)
        a = self.man << (self.exp - e)
        b = other.man << (other.exp - e)
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dyadic) and self.man == other.man and self.exp == other.exp

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    # -- conversions ---------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def __float__(self) -> float:
        try:
            return self.man * 2.0 ** self.exp
        except OverflowError:
            m, e = _round_mantissa(self.man, self.exp, 53, up=False)
            try:
                return m * 2.0 ** e
            except OverflowError:
                return float("inf") if m > 0 else float("-inf")

    def __repr__(self) -> str:
        return f"Dyadic({self.man}, {self.exp})"

    def __str__(self) -> str:
        return f"{float(self):.17g}"

    def decimal(self, digits: int = 24, up: bool = False) -> str:
        """Decimal string with `digits` significant figures, rounded in
        the requested direction (so printed bounds stay bounds)."""
        if self.man == 0:
            return "0"
        f = self.to_fraction()
        neg = f < 0
        if neg:
            f = -f
        # exact order of magnitude: e10 = floor(log10 f)
        e10 = len(str(f.numerator)) - len(str(f.denominator))
        if f < Fraction(10) ** e10:
            e10 -= 1
        scaled = f / Fraction(10) ** (e10 - digits + 1)  # in [10^(d-1), 10^d)
        q, r = divmod(scaled.numerator, scaled.denominator)
        if r and (up != neg):
            q += 1
        if q >= 10**digits:  # 9.99... rounded up a magnitude
            q //= 10
            e10 += 1
        text = str(q).rstrip("0") or "0"
        mantissa = text[0] + ("." + text[1:] if len(text) > 1 else "")
        return f"{'-' if neg else ''}{mantissa}e{e10:+d}"

    @property
    def is_zero(self) -> bool:
        return self.man == 0

    @property
    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)


def _div_raw(ma: int, ea: int, mb: int, eb: int, prec: int, up: bool) -> tuple[int, int]:
    """Directed rounding of (ma*2**ea)/(mb*2**eb) toward +inf (up) or -inf,
    as a raw (man, exp) pair, the quotient carrying prec + 2 bits; mb > 0."""
    # scale numerator so the integer quotient carries prec+2 significant bits
    shift = prec + 2 - (ma.bit_length() - mb.bit_length())
    if shift >= 0:
        num, den = ma << shift, mb
    else:
        num, den = ma, mb << -shift
    q, r = divmod(num, den)
    if up and r:
        q += 1
    return q, ea - eb - shift


def _sqrt_point(d: Dyadic, prec: int) -> "Interval":
    """Enclosure of sqrt(d), d >= 0, at ~prec bits from one integer root."""
    man, exp = d.man, d.exp
    if exp & 1:
        man, exp = man << 1, exp - 1
    # isqrt(man << 2j) has about (bitlen + 2j)/2 bits; aim for prec+2
    j = max(0, prec + 2 - (man.bit_length() + 1) // 2)
    man <<= 2 * j
    r = isqrt(man)
    half = exp // 2 - j
    return Interval(_rounded(r, half, prec, up=False), _rounded(r + (r * r < man), half, prec, up=True))


def _monotone(point, x: "Interval", prec: int) -> "Interval":
    """Enclosure of a nondecreasing f on x from its kernel point(d, prec):
    f(x.lo)'s lower end and f(x.hi)'s upper end, a point x run once."""
    lo = point(x.lo, prec)
    return lo if x.lo == x.hi else Interval(lo.lo, point(x.hi, prec).hi)


def _aligned(x: "Interval") -> tuple[int, int, int]:
    """(a, b, e) with x = [a, b] * 2^e: both ends on the smaller exponent."""
    lo, hi = x.lo, x.hi
    e = lo.exp if lo.exp < hi.exp else hi.exp
    return lo.man << (lo.exp - e), hi.man << (hi.exp - e), e


def convolve(lo: list[int], hi: list[int], xs, ys) -> None:
    """lo[i + j] += and hi[i + j] += the exact lower and upper end of x * y,
    for (i, x) in xs and (j, y) in ys, each x and y an integer pair (a, b)
    with a <= b.  Nothing is rounded: for pairs at scale 2^-w the sums are
    exact at 2^-2w.  Moore's sign cases are written here only, inline on
    plain integers: this is the inner loop of every product, and
    ``Interval.mul`` calls it with one term on each side.  A point weight
    (w, w) is its one-term case too: ``certify.HybridPoly.weighted_sum``
    scales each term's pairs by it, exact for integer w."""
    ys = list(ys)
    for i, (a, b) in xs:
        for j, (c, d) in ys:
            if a >= 0:
                if c >= 0:
                    p, q = a * c, b * d
                elif d <= 0:
                    p, q = b * c, a * d
                else:
                    p, q = b * c, b * d
            elif b <= 0:
                if c >= 0:
                    p, q = a * d, b * c
                elif d <= 0:
                    p, q = b * d, a * c
                else:
                    p, q = a * d, a * c
            elif c >= 0:
                p, q = a * d, b * d
            elif d <= 0:
                p, q = b * c, a * c
            else:
                p, q = min(a * d, b * c), max(a * c, b * d)
            lo[i + j] += p
            hi[i + j] += q


def round_out(lo: list[int], hi: list[int], w: int) -> list[tuple[int, int]]:
    """Exact sums at scale 2^-2w as pairs at scale 2^-w, lo floored and hi
    ceiled: the one rounding of a ``convolve`` accumulation."""
    return [(a >> w, -(-b >> w)) for a, b in zip(lo, hi)]


class Interval:
    """Closed interval [lo, hi] with dyadic endpoints, lo <= hi.

    Every method that rounds takes its precision as a required argument;
    there are no arithmetic operators.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo > hi:
            raise ValueError(f"invalid interval endpoints: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors --------------------------------------------------

    @staticmethod
    def point(value: Dyadic | int) -> "Interval":
        d = value if isinstance(value, Dyadic) else Dyadic(value)
        return Interval(d, d)

    @staticmethod
    def from_fraction(value: Fraction | int, prec: int) -> "Interval":
        check_precision(prec)
        if isinstance(value, int) or value.denominator == 1:
            return Interval.point(int(value))
        return Interval(
            Dyadic.from_fraction(value, prec, up=False),
            Dyadic.from_fraction(value, prec, up=True),
        )

    # -- arithmetic -----------------------------------------------------

    def add(self, other: "Interval", prec: int) -> "Interval":
        check_precision(prec)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        return Interval(
            Dyadic(*_sum_raw(a.man, a.exp, c.man, c.exp, prec, up=False)),
            Dyadic(*_sum_raw(b.man, b.exp, d.man, d.exp, prec, up=True)),
        )

    def sub(self, other: "Interval", prec: int) -> "Interval":
        return self.add(Interval(-other.hi, -other.lo), prec)

    def mul(self, other: "Interval", prec: int) -> "Interval":
        """``convolve``'s one-term case on the aligned ends, rounded outward."""
        check_precision(prec)
        (a, b, e), (c, d, f) = _aligned(self), _aligned(other)
        lo, hi = [0], [0]
        convolve(lo, hi, [(0, (a, b))], [(0, (c, d))])
        return Interval(_rounded(lo[0], e + f, prec, up=False), _rounded(hi[0], e + f, prec, up=True))

    def div(self, other: "Interval", prec: int) -> "Interval":
        check_precision(prec)
        if other.lo.sign <= 0:
            raise DomainError(f"division needs a positive divisor, got {other}")
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        # for y > 0, x/y rises with x, and with y where x < 0: the sign of
        # each end of the numerator picks its divisor
        lo_den = d if a.sign >= 0 else c
        hi_den = c if b.sign >= 0 else d
        return Interval(Dyadic(*_div_raw(a.man, a.exp, lo_den.man, lo_den.exp, prec, False)),
                        Dyadic(*_div_raw(b.man, b.exp, hi_den.man, hi_den.exp, prec, True)))

    def pow_int(self, k: int, prec: int) -> "Interval":
        """Power k >= 0 by square-and-multiply: it encloses x^k for every x in self."""
        check_precision(prec)
        if k < 0:
            raise ValueError(f"pow_int needs k >= 0, got {k}")
        result = Interval.point(1)
        base = self
        e = k
        while e:  # square-and-multiply keeps the op count at O(log k)
            if e & 1:
                result = result.mul(base, prec)
            e >>= 1
            if e:
                base = base.mul(base, prec)
        return result

    def sqrt(self, prec: int) -> "Interval":
        check_precision(prec)
        if self.lo.sign < 0:
            raise DomainError(f"sqrt of interval with negative endpoint: {self}")
        return _monotone(_sqrt_point, self, prec)

    def scale(self, k: int) -> "Interval":
        """Exact multiplication by 2**k."""
        return Interval(self.lo.scale(k), self.hi.scale(k))

    # -- queries ---------------------------------------------------------

    @property
    def is_positive(self) -> bool:
        """Certified strictly positive."""
        return self.lo.sign > 0

    @property
    def is_negative(self) -> bool:
        """Certified strictly negative."""
        return self.hi.sign < 0

    def fixed(self, prec: int) -> tuple[int, int]:
        """(lo, hi), integers at scale 2^-w, w = prec + 16, with lo floored
        and hi ceiled: lo 2^-w <= self.lo and self.hi <= hi 2^-w."""
        w = prec + GUARD
        (lm, le), (hm, he) = (self.lo.man, self.lo.exp + w), (self.hi.man, self.hi.exp + w)
        return lm << le if le >= 0 else lm >> -le, hm << he if he >= 0 else -(-hm >> -he)

    def to_fractions(self) -> tuple[Fraction, Fraction]:
        return self.lo.to_fraction(), self.hi.to_fraction()

    def __repr__(self) -> str:
        return f"Interval[{float(self.lo)!r}, {float(self.hi)!r}]"


def horner(coeffs: list[tuple[int, int]], x: Interval, prec: int) -> Interval:
    """Enclosure of sum_k c_k * x**k for every c_k in coeffs[k] (integer
    pairs at scale 2^-w, w = prec + 16) and every x in [x.lo, x.hi], x.lo >= 0.

    The accumulator [lo, hi] stays on integers at scale 2^-w.  As x >= 0,
    the lower end's product takes x.lo if lo >= 0 and x.hi otherwise, the
    upper end's x.hi if hi >= 0 and x.lo otherwise; each product is floored
    (lower) or ceiled (upper) back to scale 2^-w, exact in x, and the sum
    rounded outward to prec bits once at the end.
    """
    check_precision(prec)
    am, bm, e = _aligned(x)  # x = [am, bm] * 2^e
    if am < 0:
        raise ValueError(f"horner needs x >= 0, got x.lo = {x.lo}")
    if e > 0:
        am, bm, e = am << e, bm << e, 0
    s = -e
    lo = hi = 0
    for cl, ch in reversed(coeffs):
        lo = (lo * (am if lo >= 0 else bm) >> s) + cl
        hi = -(-hi * (bm if hi >= 0 else am) >> s) + ch
    w = prec + GUARD
    return Interval(_rounded(lo, -w, prec, up=False), _rounded(hi, -w, prec, up=True))
