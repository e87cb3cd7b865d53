"""Input checks and read-only records: each check refuses its input with its
own message, and no record takes an assignment or a deletion."""

import inspect
from fractions import Fraction as F

import pytest

import qcert.certify as certify_module
from qcert.bounds import bound_poly, decay_threshold, error_budget, n_min, prefactor
from qcert.certify import THEOREMS, Companion, Q, Sum, build_ineq, certify_positive
from qcert.coeffs import bessel_asym_coeff, gen_binomial, rising_factorial, shift_sigma
from qcert.enclosures import _log_point
from qcert.intervals import DomainError, Dyadic, Interval
from qcert.qtable import QTable, load_or_build


def _past_the_radius():
    ineq = build_ineq("ineq1")
    return certify_positive(ineq, ineq.x0.scale(1))


def _factor_at_negative_polarity():
    expansion = certify_module._Expansion(THEOREMS["A-companion"], 192)
    return expansion.factor(Companion(Q(0), F(1), 0, 0, 1), -1)


def _factor_without_power():
    expansion = certify_module._Expansion(THEOREMS["A-companion"], 192)
    return expansion.factor(Companion(Q(0), F(1), 0, 0, 0), 1)


CHECKS = {
    "interval-lo-above-hi": (lambda: Interval(Dyadic(1), Dyadic(0)), ValueError,
                             r"invalid interval endpoints: \[1, 0\]"),
    "certify-past-radius": (_past_the_radius, ValueError, r"x0=.* beyond validity radius "),
    "factor-negative-polarity": (_factor_at_negative_polarity, ValueError,
                                 "a companion factor is bounded from below only"),
    "factor-exponent-0": (_factor_without_power, ValueError, "a companion factor needs a >= 1, got a = 0"),
    "leaf-negative-shift": (lambda: Q(-1), ValueError, r"a leaf q\(n0 \+ s\) needs s >= 0, got -1"),
    "sum-no-terms": (lambda: Sum(), ValueError, "a Sum needs at least one term"),
    "sum-weight-not-int": (lambda: Sum((F(1, 2), Q(0)), (-1, Q(1))), ValueError,
                           r"a Sum weight must be an int, got Fraction\(1, 2\)"),
    "companion-negative-exponent": (lambda: Companion(Q(0), F(1), 0, 0, -1), ValueError,
                                    r"a companion term r pi\^i sqrt3\^j n\^\(-a/2\) needs a >= 0, got -1"),
    "ring-past-prefix": (lambda: certify_module._Ring(2, None, ())[2], IndexError,
                         r"x\^2 outside the exact prefix 0\.\.1"),
    "decay-threshold-0": (lambda: decay_threshold(0), ValueError, "m must be >= 1"),
    "n-min-0": (lambda: n_min(0, 0), ValueError, "need N >= 1 and s >= 0"),
    "prefactor-0": (lambda: prefactor(0), ValueError, "n must be >= 1"),
    "bound-poly-side-0": (lambda: bound_poly(0, 14, 0), ValueError, r"side must be \+1 \(upper\) or -1 \(lower\)"),
    "rising-factorial-m-1": (lambda: rising_factorial(1, -1), ValueError, "rising_factorial needs m >= 0"),
    "gen-binomial-m-1": (lambda: gen_binomial(1, -1), ValueError, "gen_binomial needs m >= 0"),
    "bessel-asym-coeff-m-1": (lambda: bessel_asym_coeff(-1), ValueError, "bessel_asym_coeff needs m >= 0"),
    "shift-sigma-1": (lambda: shift_sigma(-1), ValueError, "shift must be nonnegative"),
    "load-or-build-1": (lambda: load_or_build(-1), ValueError, "n_max must be >= 0"),
    "qtable-length": (lambda: QTable(2, (1, 1)), ValueError, "table length does not match n_max"),
    "log-point-0": (lambda: _log_point(Dyadic(0), 64), DomainError, "log domain requires positive argument"),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS)
def test_input_check_refuses(call, error, message):
    with pytest.raises(error, match=message):
        call()


RECORDS = {
    "QTable": lambda: QTable(2, (1, 1, 1)),
    "TheoremSpec": lambda: THEOREMS["A"],
    "IneqPoly": lambda: build_ineq("ineq1"),
    "ErrorBudget": lambda: error_budget(14, 0),
    "BoundPoly": lambda: bound_poly(0, 14, 1),
    "Q": lambda: Q(2),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
def test_record_read_only(make):
    # assigning or deleting a field raises, and the field keeps its value
    record = make()
    field = next(iter(inspect.signature(type(record)).parameters))
    value = getattr(record, field)
    message = f"{type(record).__name__} is read-only: cannot set or delete {field}"
    with pytest.raises(AttributeError, match=message):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=message):
        delattr(record, field)
    assert getattr(record, field) is value
