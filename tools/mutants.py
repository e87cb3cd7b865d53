"""Run one-line soundness mutants of the trust path against the tier-1 suite.

Each mutant replaces one piece of text, which must occur exactly once, in
one file of the tree with an unsound variant.  For each mutant the tool
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a fresh temporary
directory (never inside the repository), applies the mutant there and runs
tier-1 with ``-x`` twice at most: first without the digest pins (tests
marked ``pin``), then, only if that passes, the pins alone.  It prints
``killed (containment)`` with the first failing test of the first run,
``killed (pin only)`` with the first failing pin, or ``survived``.  A pin
fails on any change, sound or not, so a pin-only kill says that no test
checks what the mutated line computes.  The exit status is 0 only if every
mutant was killed.

    python tools/mutants.py              # every mutant, one at a time
    python tools/mutants.py -j 2 horner  # mutants whose name contains "horner"

A killed mutant costs seconds to a minute; a survivor costs a full tier-1
run.  A PR that touches ``intervals``, ``enclosures``, ``ring``, ``bounds``
or the certifier adds its own mutants here and reports the output.

SIGINT or SIGTERM stops the run: the queued mutants are cancelled, the
running pytest processes (each in its own session, with any children) are
terminated, and their temporary trees are removed before the tool exits
with 128 + the signal's number.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    why: str  # why the mutated code is unsound


# Retired with the code they mutated, when polynomials moved from floating
# (man, exp) endpoints to integer pairs at 2^-(prec + 16):
# convolve-product-upper-floored (convolve_into's per-product rounding: a
# product is now exact and rounded once, see round-out-*),
# mul-raw-upper-rounded-down (_mul_raw is gone; Interval.mul keeps _rounded),
# and ring-sum-upper-rounded-down, ring-sum-lower-rounded-up,
# ring-coefficient-upper-rounded-down, ring-coefficient-lower-rounded-up
# (the raw rounding chain of RingElem.eval_iv; see ring-fixed-lower-ceiled
# and pi-power-bracket-rounded-inward).
# Retired with bounds._exp_thin, prefactor's second exp rule, when prefactor
# moved to enclose_exp and one integer root of 3 n^3: exp-thin-without-widening
# (exp at the midpoint alone) and exp-thin-without-second-order (e^r <= 1 + r);
# see prefactor-root-upper-without-unit.
# Retired with _positive's 64-bit brackets of A and B, when the scans moved their
# brackets to truncated operands under one error bound (see scan-*):
# bracket-a-without-unit ((ah + 1)^2 taken as ah^2), bracket-b-without-unit
# ((bh + 1)^2 hi_p taken as bh^2 hi_p) and bracket-upper-test-on-lower-c2 (B t < |A|
# tested against the lower end of c^2).

MUTANTS = [
    # -- interval arithmetic ------------------------------------------------
    Mutant("sqrt-upper-rounded-down", "src/qcert/intervals.py",
           "_rounded(r + (r * r < man), half, prec, up=True)",
           "_rounded(r + (r * r < man), half, prec, up=False)",
           "the upper end of a square root may fall below the root"),
    Mutant("sqrt-lower-rounded-up", "src/qcert/intervals.py",
           "_rounded(r, half, prec, up=False)",
           "_rounded(r, half, prec, up=True)",
           "the lower end of a square root may rise above the root"),
    Mutant("sqrt-upper-without-ceiling", "src/qcert/intervals.py",
           "r + (r * r < man)",
           "r",
           "the floor of a root that is not exact lies below it"),
    Mutant("monotone-point-shortcut-on-range", "src/qcert/intervals.py",
           "return lo if x.lo == x.hi else",
           "return lo if True else",
           "a range takes f(x.lo) for both ends, so its upper end misses f(x.hi)"),
    Mutant("interval-mul-upper-rounded-down", "src/qcert/intervals.py",
           "_rounded(hi[0], e + f, prec, up=True)",
           "_rounded(hi[0], e + f, prec, up=False)",
           "the upper end of a product may fall below the largest endpoint product"),
    Mutant("interval-ends-not-aligned", "src/qcert/intervals.py",
           "return lo.man << (lo.exp - e), hi.man << (hi.exp - e), e",
           "return lo.man, hi.man, e",
           "the ends are read on the smaller exponent without their shift: the values change"),
    Mutant("sub-reflection-drops-other-lo", "src/qcert/intervals.py",
           "Interval(-other.hi, -other.lo)",
           "Interval(-other.hi, -other.hi)",
           "the upper end is x.hi - other.hi, below x.hi - other.lo when other is wide"),
    Mutant("div-without-ceiling", "src/qcert/intervals.py",
           "    if up and r:\n        q += 1\n    return q, ea - eb - shift",
           "    return q, ea - eb - shift",
           "an upward quotient is truncated, below the exact quotient"),
    Mutant("div-accepts-negative-divisor", "src/qcert/intervals.py",
           "if other.lo.sign <= 0:",
           "if other.lo.sign == 0:",
           "each end's divisor is picked for y > 0: for y < 0 the ends are not the least and greatest quotients"),
    Mutant("pow-int-drops-top-bit", "src/qcert/intervals.py",
           "while e:  # square-and-multiply",
           "while e > 1:  # square-and-multiply",
           "the top bit of k is never multiplied in: x^2 reads 1 and x^3 reads x"),
    Mutant("div-lower-end-divides-by-c", "src/qcert/intervals.py",
           "lo_den = d if a.sign >= 0 else c",
           "lo_den = c",
           "for x >= 0 and 0 < c < d, x/c is above x/d: the lower end rises above the least quotient"),
    # -- fixed-point polynomial kernels ---------------------------------------
    Mutant("round-out-lower-ceiled", "src/qcert/intervals.py",
           "return [(a >> w, -(-b >> w))",
           "return [(-(-a >> w), -(-b >> w))",
           "a coefficient's lower end is rounded up, above the exact sum"),
    Mutant("round-out-upper-floored", "src/qcert/intervals.py",
           "return [(a >> w, -(-b >> w))",
           "return [(a >> w, b >> w)",
           "a coefficient's upper end is rounded down, below the exact sum"),
    Mutant("convolve-sign-case-products-swapped", "src/qcert/intervals.py",
           "p, q = a * c, b * d",
           "p, q = b * d, a * c",
           "for x, y >= 0 the lower end takes the largest product and the upper the smallest"),
    Mutant("weighted-sum-negative-ends-not-swapped", "src/qcert/certify.py",
           "else (x + w * hi, y + w * lo)",
           "else (x + w * lo, y + w * hi)",
           "scaled by w < 0 the lower end w lo is the larger one: the pair no longer encloses"),
    Mutant("weighted-sum-part-ignores-weight", "src/qcert/certify.py",
           "r[d].scale(w) for w, r in rings",
           "r[d] for w, r in rings",
           "a sum's exact part adds its terms' parts unweighted: 3 q2^2 - 4 q1 q3 is not q2^2 + q1 q3"),
    Mutant("pi-power-bracket-rounded-inward", "src/qcert/ring.py",
           "isqrt(3 * hn * hn << 2 * W) // hd + 1",
           "isqrt(3 * hn * hn << 2 * W) // hd",
           "pi^i sqrt3's upper bracket is floored, below the irrational value"),
    Mutant("ring-fixed-lower-ceiled", "src/qcert/ring.py",
           "return lo // den, -(-hi // den)",
           "return -(-lo // den), -(-hi // den)",
           "an element's lower end is rounded up, above its value"),
    # -- fixed-point Horner -------------------------------------------------
    Mutant("horner-lower-ceiled", "src/qcert/intervals.py",
           "lo = (lo * (am if lo >= 0 else bm) >> s) + cl",
           "lo = -(-lo * (am if lo >= 0 else bm) >> s) + cl",
           "the lower chain rounds up, above the exact value"),
    Mutant("horner-lower-takes-x-lo-when-negative", "src/qcert/intervals.py",
           "(am if lo >= 0 else bm)",
           "(am if lo >= 0 else am)",
           "a negative lower accumulator times x.lo is not the minimum over x"),
    Mutant("horner-upper-floored", "src/qcert/intervals.py",
           "hi = -(-hi * (bm if hi >= 0 else am) >> s) + ch",
           "hi = (hi * (bm if hi >= 0 else am) >> s) + ch",
           "the upper chain rounds down, below the exact value"),
    Mutant("horner-upper-takes-x-hi-when-negative", "src/qcert/intervals.py",
           "(bm if hi >= 0 else am)",
           "(bm if hi >= 0 else bm)",
           "a negative upper accumulator times x.hi is not the maximum over x"),
    Mutant("interval-fixed-upper-floored", "src/qcert/intervals.py",
           "hm << he if he >= 0 else -(-hm >> -he)",
           "hm << he if he >= 0 else hm >> -he",
           "an interval's upper end on the grid may fall below the interval"),
    Mutant("horner-final-upper-rounded-down", "src/qcert/intervals.py",
           "_rounded(hi, -w, prec, up=True))",
           "_rounded(hi, -w, prec, up=False))",
           "the result's upper end may fall below the fixed-point bound"),
    Mutant("horner-accepts-negative-x", "src/qcert/intervals.py",
           "    if am < 0:\n        raise ValueError(f\"horner needs",
           "    if False:\n        raise ValueError(f\"horner needs",
           "the endpoint choice by sign assumes x >= 0"),
    # -- enclosures -----------------------------------------------------------
    Mutant("pi-without-tail", "src/qcert/enclosures.py",
           "return s - term, s + term",
           "return s, s",
           "a partial sum of the arctan series does not bracket it"),
    Mutant("i1-without-tail", "tests/oracles.py",
           "            hi -= -(b * sq) // den\n            break",
           "            break",
           "the upper sum leaves out the positive tail of I1's series"),
    Mutant("exp-without-remainder-unit", "src/qcert/enclosures.py",
           "    else:\n        hi += 1\n    # k squarings",
           "    else:\n        pass\n    # k squarings",
           "the upper end leaves out the Taylor remainder"),
    Mutant("exp-squaring-upper-floored", "src/qcert/enclosures.py",
           "            hi = -(-hi >> n)\n            e += n",
           "            hi >>= n\n            e += n",
           "each squaring may lose a unit from the upper end"),
    Mutant("atanh-without-tail", "src/qcert/enclosures.py",
           "return 2 * lo, 2 * (hi + phi)",
           "return 2 * lo, 2 * hi",
           "the upper sum leaves out the series tail"),
    Mutant("log-u-ceiling-dropped", "src/qcert/enclosures.py",
           "_atanh_series(q, q + (r > 0), w)",
           "_atanh_series(q, q, w)",
           "u's upper bound may fall below u"),
    Mutant("cosh-reflection-drops-negative-end", "src/qcert/enclosures.py",
           "max(-x.lo, x.hi)",
           "x.hi",
           "for x.lo < -x.hi, cosh is largest at x.lo: |x|'s upper end is -x.lo, not x.hi"),
    Mutant("log-near-one-route-off", "src/qcert/enclosures.py",
           "    if shift == -1:\n        t, shift = t + 1, 0",
           "    if False:\n        t, shift = t + 1, 0",
           "log d just below 1 cancels against log 2 and loses its relative accuracy"),
    # -- ring form ------------------------------------------------------------
    Mutant("ring-sqrt3-square-not-folded", "src/qcert/ring.py",
           "            if k & 2:\n                k, v = k - 2, 3 * v\n",
           "",
           "a sqrt3^2 key stays unfolded and is read as sqrt3^0: the term loses its factor 3"),
    Mutant("ring-add-keeps-positive-sums", "src/qcert/ring.py",
           "acc[k] = get(k, 0) + v * mb",
           "acc[k] = max(get(k, 0) + v * mb, 0)",
           "a negative sum is dropped as zero, so the element is not a + b"),
    Mutant("ring-gcd-not-applied-to-den", "src/qcert/ring.py",
           "e.den, e.ints = den // g, ",
           "e.den, e.ints = den, ",
           "the terms are divided by the gcd but the denominator is not: the value shrinks by it"),
    Mutant("ring-eval-sqrt3-bit-from-k-and-2", "src/qcert/ring.py",
           "        if k & 1:  # sqrt(3 t^2 4^W)",
           "        if k & 2:  # sqrt(3 t^2 4^W)",
           "a sqrt3 term is enclosed without its factor sqrt3"),
    Mutant("expbinom-weight-without-binomial-denominator", "src/qcert/coeffs.py",
           "RingElem.from_rational(c)",
           "RingElem.from_rational(c.numerator)",
           "each binomial weight is taken times its denominator, so the convolution is not the product"),
    # -- one rescale per shift --------------------------------------------------
    Mutant("rescale-t-without-one", "src/qcert/coeffs.py",
           "t = 24 * s + 1",
           "t = 24 * s",
           "the shift's terms are scaled by powers of 24s, not of 24s+1 = 24 sigma"),
    Mutant("rescale-exponent-k-minus-i", "src/qcert/coeffs.py",
           "t ** ((k + i) // 2)",
           "t ** ((k - i) // 2)",
           "the term pi^i of degree k carries t^((k+i)/2): pi^i comes from (pi sqrt t)^i"),
    Mutant("rescale-high-degrees-t-plus-two", "src/qcert/coeffs.py",
           "    t = 24 * s + 1\n    ints = {}",
           "    t = 24 * s + 1 + (k >= 15)\n    ints = {}",
           "degrees >= 15 at s >= 1 are scaled by powers of 24s+2: past the table's reach, "
           "where no comparison of q with its envelope sees them"),
    Mutant("exp-term-ratio-without-72", "src/qcert/coeffs.py",
           "c *= Fraction(l - half, 72 * (half",
           "c *= Fraction(l - half, (half",
           "each further exponential term takes another factor (pi^2/72)"),
    Mutant("bessel-term-ratio-without-24", "src/qcert/coeffs.py",
           "d *= Fraction(-144 * (half - j)",
           "d *= Fraction(-6 * (half - j)",
           "each further Bessel term takes one sigma^-1 = 24 and one 3 from (sqrt3/pi)^2"),
    Mutant("coeff-pairs-shared-across-shifts", "src/qcert/bounds.py",
           "_coeff_pair(m, s, prec)",
           "_coeff_pair(m, 0, prec)",
           "every shift's envelope reads shift 0's coefficient enclosures"),
    # -- error budgets -----------------------------------------------------------
    Mutant("er-exp-two-thirds", "src/qcert/bounds.py",
           "mul(four_thirds, div(mul(iv(2), pi), iv(3)).sqrt(prec))",
           "mul(iv(Fraction(2, 3)), div(mul(iv(2), pi), iv(3)).sqrt(prec))",
           "the exponential tail constant is half the paper's"),
    Mutant("er-exp-without-four-thirds", "src/qcert/bounds.py",
           "mul(four_thirds, div(mul(iv(2), pi), iv(3)).sqrt(prec))",
           "div(mul(iv(2), pi), iv(3)).sqrt(prec)",
           "the exponential tail constant loses its factor 4/3"),
    Mutant("er-exp-binom-term-dropped", "src/qcert/bounds.py",
           "        mul(pi_over_2sqrt3, sigma_n2),\n",
           "",
           "the product tail leaves out its term (pi/(2 sqrt3)) sigma^((N+2)/2)"),
    # -- envelopes ------------------------------------------------------------
    Mutant("prefactor-root-upper-without-unit", "src/qcert/bounds.py",
           "Dyadic(r + 1, -k)",
           "Dyadic(r, -k)",
           "r is the floor of the fourth root: [r, r] misses it unless 3 n^3 2^(4k) is a fourth power"),
    # -- expansion and certifier ------------------------------------------
    Mutant("lower-box-on-upper-side", "src/qcert/certify.py",
           "else Interval(-poly.err, Dyadic(0))",
           "else Interval(Dyadic(0), poly.err)",
           "the lower envelope's box [0, err] lies above L's radius, so L is not a lower bound"),
    Mutant("upper-box-on-lower-side", "src/qcert/certify.py",
           "err_box = Interval(Dyadic(0), poly.err) if side > 0",
           "err_box = Interval(-poly.err, Dyadic(0)) if side > 0",
           "the upper envelope's box [-err, 0] lies below U's radius, so U is not an upper bound"),
    # -- ring parts per node -------------------------------------------------
    Mutant("leaf-ring-part-keyed-without-N", "src/qcert/certify.py",
           "poly.keep((node, self.N, self.prec))",
           "poly.keep((node, self.prec))",
           "an order-14 node hands its ring part to the order-24 node, or the reverse"),
    Mutant("ring-part-keyed-without-prec", "src/qcert/certify.py",
           "poly.keep((node, self.N, self.prec))",
           "poly.keep((node, self.N))",
           "a node expanded at one precision reads the ring enclosures of another, on another grid"),
    Mutant("product-ring-part-keyed-on-one-operand", "src/qcert/certify.py",
           "self._set((a, b), a=a, b=b)",
           "self._set((a,), a=a, b=b)",
           "products with the first operand in common are one node and share the first one's ring part"),
    Mutant("node-key-drops-companion-slack", "src/qcert/certify.py",
           "self._set((body, r, i, j, a, slack),",
           "self._set((body, r, i, j, a),",
           "companions that differ only in slack are one node: the second reads the first one's product, "
           "built with the other slack term"),
    Mutant("box-shared-between-sides", "src/qcert/certify.py",
           "return HybridPoly(_RINGS.setdefault(key, self.ring), self.errs, self.prec)",
           "return HybridPoly(_RINGS.setdefault(key, self.ring), _RINGS.setdefault((key, 0), self.errs), self.prec)",
           "the box is kept with the ring part, so L is built with U's box [0, err] when U came first"),
    Mutant("expansion-memo-key-without-polarity", "src/qcert/certify.py",
           "key = node, pol",
           "key = node",
           "a side lemma reads its operand's upper envelope when the statement met it at negative polarity"),
    Mutant("side-lemmas-skipped", "src/qcert/certify.py",
           "return IneqPoly(poly, ex.x0, ex.window, ex.side_lemma())",
           "return IneqPoly(poly, ex.x0, ex.window, None)",
           "a product of bounds bounds the product only for nonnegative factors"),
    Mutant("companion-slack-unchecked", "src/qcert/certify.py",
           "if slack < need:",
           "if False:",
           "a slack below c (a/2) shift x0 does not bound the shifted companion factor"),
    Mutant("companion-factor-sign-unchecked", "src/qcert/certify.py",
           "if slack * x0 ** (comp.a + 1) >= 1:",
           "if False:",
           "a factor 1 + c x^a - slack x^(a+1) below 0 near x0 does not bound (1 + t) body from below"),
    Mutant("straddling-enclosure-taken-as-zero", "src/qcert/certify.py",
           "return d < self.n and self[d].is_zero",
           "return True",
           "a nonzero leading part is stripped as a symbolic zero"),
    Mutant("certifier-range-read-from-upper-end", "src/qcert/certify.py",
           "Interval(Dyadic(0), x0), prec).is_positive",
           "Interval(Dyadic(0), x0), prec).hi.sign > 0",
           "a range with a positive upper end may hold negative values: it is not a proof"),
    Mutant("certifier-range-at-zero-only", "src/qcert/certify.py",
           "horner(fixed, Interval(Dyadic(0), x0), prec)",
           "horner(fixed, Interval(Dyadic(0), Dyadic(0)), prec)",
           "the value at x = 0 says nothing about the rest of (0, x0]"),
    Mutant("certifier-x0-end-not-evaluated", "src/qcert/certify.py",
           "point = horner(fixed, Interval.point(x0), prec)",
           "point = Interval.point(1)",
           "a negative or undecided value at x0 is never seen: a failing trial reads as undecided"),
    Mutant("certifier-negative-witness-dropped", "src/qcert/certify.py",
           "        base.negative_witness = (float(x0), float(x0))\n",
           "",
           "a certified negative value leaves no witness, so a failing theorem reads inconclusive"),
    Mutant("c2-refinement-skipped", "src/qcert/certify.py",
           "        prec *= 2\n        (lo_p, lo_q), (hi_p, hi_q) = _c2_bracket(comp, prec)",
           "        return a > 0",
           "a comparison the 32-bit c^2 bracket leaves open is settled by A's sign alone"),
    # -- the seam between the certificate and the scans ----------------------
    Mutant("seam-scan-stops-shift-short", "src/qcert/certify.py",
           "max(threshold - 1, exact_hi + spec.shift)",
           "max(threshold - 1, exact_hi)",
           "statement n = n_star .. n_star + shift - 1 is neither scanned nor certified"),
    Mutant("violations-skip-threshold", "src/qcert/certify.py",
           "if n >= threshold]",
           "if n > threshold]",
           "a violation at the threshold itself is dropped, and the theorem reads pass"),
    Mutant("witness-at-or-above-threshold", "src/qcert/certify.py",
           "if n < threshold), default=None)",
           "if n <= threshold), default=None)",
           "a violation at the threshold is reported as the sharpness witness"),
    Mutant("unproved-certificate-reads-pass", "src/qcert/certify.py",
           'status = "inconclusive" if cert.negative_witness is None else "fail"',
           'status = "pass" if cert.negative_witness is None else "fail"',
           "a certificate that proves nothing leaves n >= n_star unchecked: the theorem is not verified"),
    # -- exact scans on truncated operands -----------------------------------
    Mutant("scan-bound-first-order-only", "src/qcert/certify.py",
           "weight * ((top + 1) ** degree - top**degree)",
           "weight * degree * top ** (degree - 1)",
           "a monomial moves by up to (Q + 1)^d - Q^d: the first-order term misses the rest when delta is near 1"),
    Mutant("scan-weight-signed", "src/qcert/certify.py",
           "wd = [(abs(w) * W, d)",
           "wd = [(w * W, d)",
           "signed weights cancel (A and B have weight 0), so the bound no longer covers every monomial"),
    Mutant("scan-t-bound-at-block-start", "src/qcert/certify.py",
           "ns[-1] ** comp.a",
           "ns[0] ** comp.a",
           "t falls as n grows: t at the block's first n lies above t at every later n of the block"),
    Mutant("scan-open-indices-not-rerun", "src/qcert/certify.py",
           "if left and err:",
           "if False:",
           "a truncated block's open indices are reported as violations without their exact values"),
    Mutant("scan-corner-at-upper-end", "src/qcert/certify.py",
           "_positive(x - err, y - err, ns[k], comp, c2)",
           "_positive(x + err, y + err, ns[k], comp, c2)",
           "A + B t is least on the box at (a - E, b - E): the upper corner overstates the value"),
    Mutant("program-operand-offset-off-by-one", "src/qcert/certify.py",
           "split(x.a, d), split(x.b, d)",
           "split(x.a, d), split(x.b, d + 1)",
           "a product reads its second operand one index late: it pairs values of different n"),
    Mutant("exact-scan-accepts-zero", "src/qcert/certify.py",
           "kernel([v >> e for v in q] if e else q, m, err, t)",
           "kernel([v >> e for v in q] if e else q, m, err - 1, t)",
           "at a = E the bracket's lower end is 0, so A may be 0, and the statement is 'value > 0'"),
    Mutant("exact-rule-accepts-zero", "src/qcert/certify.py",
           "kernel(q, m, 0, t)",
           "kernel(q, m, -1, t)",
           "the statement is 'value > 0': a zero value is a violation"),
    # The generator's own: its companion test y <= E as y < E has no mutant, as it is
    # equivalent (at b = E the fused test reads a > E, a positive corner (a - E, 0)).
    Mutant("kernel-register-read-at-offset-0", "src/qcert/certify.py",
           'src, at = reg[:2] if reg else ("q", 0)',
           'src, at = (reg[0], _low(x) + d) if reg else ("q", 0)',
           "every reader of a register takes its first m values: T(1), T(2), T(3) all read as T(1)"),
    Mutant("kernel-open-test-strict", "src/qcert/certify.py",
           'f"(x := {_text(r)}) <= E"',
           'f"(x := {_text(r)}) < E"',
           "a fused a <= E as a < E accepts a = E, where A may be 0, and a = 0 on exact values"),
    Mutant("scan-floor-without-companion", "src/qcert/certify.py",
           "return max(self.shift, 1 if self.companion else 0)",
           "return self.shift",
           "laguerre3-companion's scans start at n = 0, where its term n^(-9/2) is undefined"),
    # -- the exact q-table ----------------------------------------------------
    Mutant("qtable-near-term-sign-flipped", "src/qcert/qtable.py",
           "- v[n - 36]",
           "+ v[n - 36]",
           "q(n - 36) enters Gauss's recurrence with the sign of an odd k: every q(n) from n = 36 on is wrong"),
    # -- the command line -----------------------------------------------------
    Mutant("reproduce-all-last-theorem-wins", "src/qcert/cli.py",
           "worst = max(worst, STATUS_EXIT[report.status])",
           "worst = STATUS_EXIT[report.status]",
           "a failing theorem followed by a passing one exits 0: the suite reports what it did not prove"),
    Mutant("reproduce-all-summary-pass-unless-fail", "src/qcert/cli.py",
           '"pass" if worst == EXIT_PASS else "fail"',
           '"pass" if worst != EXIT_FAIL else "fail"',
           "an inconclusive theorem leaves the summary reading pass: inconclusive reported as proved"),
    Mutant("reproduce-all-inconclusive-exits-0", "src/qcert/cli.py",
           "worst = max(worst, STATUS_EXIT[report.status])",
           "worst = max(worst, STATUS_EXIT[report.status] % 2)",
           "an inconclusive theorem counts as a pass in the exit status"),
    Mutant("cli-rejected-request-escapes", "src/qcert/cli.py",
           "except ValueError as exc:",
           "except ArithmeticError as exc:",
           "a request the library rejects ends in a traceback, not exit 64 with its message"),
    # -- test oracles ---------------------------------------------------------
    Mutant("tight-lower-radius-not-negated", "tests/oracles.py",
           "(r if side > 0 else Interval(-r.hi, -r.lo)).fixed(self.prec)}",
           "r.fixed(self.prec)}",
           "L's radius enters with the wrong sign, so the disproof polynomial is not L's"),
]


class Interrupted(Exception):
    """SIGINT or SIGTERM, raised in the main thread."""

    def __init__(self, signum: int):
        self.signum = signum


def _interrupt(signum, frame):
    raise Interrupted(signum)


class Children:
    """The running pytest processes, each in its own session; after stop() no more start."""

    def __init__(self):
        self.running: set[subprocess.Popen] = set()
        self.lock = threading.Lock()
        self.stopped = False

    def run(self, args: list[str], cwd: str, env: dict) -> tuple[int, str, str] | None:
        """(exit code, stdout, stderr) of one run, or None once stopped."""
        with self.lock:
            if self.stopped:
                return None
            proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, start_new_session=True)
            self.running.add(proc)
        try:
            out, err = proc.communicate()
        finally:
            with self.lock:
                self.running.discard(proc)
        return proc.returncode, out, err

    def stop(self) -> None:
        """Start no process from now on, and terminate the running ones with their children."""
        with self.lock:
            self.stopped = True
            for proc in self.running:
                try:
                    os.killpg(proc.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass


def run(mutant: Mutant, children: Children) -> tuple[str, str]:
    """(verdict, detail) for one mutant, run in its own temporary tree: the
    tests without the pins first, the pins only if those pass."""
    with tempfile.TemporaryDirectory(prefix="qcert-mutant-") as tmp:
        for name in TREE:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(src, dst)
        target = Path(tmp) / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"old text found {text.count(mutant.old)} times in {mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        for marks, verdict in (("not pin", "killed (containment)"), ("pin", "killed (pin only)")):
            result = children.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-m", marks],
                                  tmp, env)
            if result is None:
                return "stopped", ""
            code, out, err = result
            lines = out.splitlines()
            if code == 0:
                continue
            first = next((ln.split()[1] for ln in lines if ln.startswith(("FAILED ", "ERROR "))), None)
            if code == 1 and first:
                return verdict, first
            return "error", f"pytest exit {code}: {lines[-1] if lines else err[-200:]}"
    return "survived", lines[-1] if lines else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only mutants whose name contains one of these")
    parser.add_argument("-j", "--jobs", type=int, default=1, help="mutants run at once (default 1)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or any(n in m.name for n in args.names)]
    if not chosen or args.jobs < 1:
        parser.error("no mutant selected" if not chosen else "--jobs must be >= 1")
    width = max(len(m.name) for m in chosen)
    verdicts = []
    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    pool, children = ThreadPoolExecutor(args.jobs), Children()
    try:
        for m, (verdict, detail) in zip(chosen, pool.map(partial(run, children=children), chosen)):
            verdicts.append(verdict)
            print(f"{m.name:<{width}}  {verdict:<20}  {detail}", flush=True)
    except Interrupted as stop:
        pool.shutdown(wait=False, cancel_futures=True)
        children.stop()
        pool.shutdown()  # the running mutants remove their trees
        print(f"stopped by signal {stop.signum} after {len(verdicts)} of {len(chosen)} mutants", file=sys.stderr)
        return 128 + stop.signum
    pool.shutdown()
    killed = sum(v.startswith("killed") for v in verdicts)
    print(f"{killed} killed ({verdicts.count('killed (pin only)')} by a pin only), "
          f"{verdicts.count('survived')} survived, {len(verdicts) - killed - verdicts.count('survived')} other "
          f"of {len(verdicts)} mutants")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
