"""The trust path holds one definition per quantity and no test oracle:
names that only tests call live in tests/oracles.py, and removed dead
code and duplicates do not come back under any ``qcert`` module.  The
enclosure kernels, the fixed-point Horner, the ring evaluation, the exact
scans' kernel generator, the kernels it writes and their companion sign use no
floating point, and nothing in ``qcert`` imports mpmath."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import qcert
import qcert.certify as certify_module
from qcert.bounds import ErrorBudget
from qcert.certify import (
    Certificate,
    Companion,
    HybridPoly,
    IneqPoly,
    Mul,
    Q,
    Sq,
    Sum,
    THEOREMS,
    build_ineq,
    certify_inequality,
    certify_positive,
    exact_verify,
    expand_statement,
    find_crossover,
    sharpness_scan,
    verify_theorem,
)
from qcert.enclosures import enclose_cosh, enclose_exp, enclose_log, enclose_pi
from qcert.intervals import Dyadic, Interval, horner
from qcert.ring import RingElem

# Test oracles: defined in tests/oracles.py only.
ORACLES = (
    "compute_q_table",
    "compute_q_table_odd_parts",
    "q_enumerate",
    "check_log_concavity",
    "check_turan3",
    "alt_half_binomial_sum",
    "alt_half_binomial_sum_closed",
    "enclose_sinh",
    "exp_point_loop",
    "atanh_series_loop",
    "log_point_loop",
    "bessel_i1_point_loop",
    "interval_horner",
    "ring_eval_iv_loop",
    "theorem_predicate",
    "node_values",
    "node_exact",
    "positive_untruncated",
    "tight_expansion",
    "ring_parts",
    "ring_sum",
    "invariant_a",
    "invariant_b",
    "invariant_i",
    "laguerre",
    # the main-term sandwich: only criterion C7 and its tests use it
    "bessel_arg",
    "bessel_main_term",
    "SandwichResult",
    "check_main_term_sandwich",
    "_bessel_i1_point",
    "enclose_bessel_i1",
)

# Dead code, second definitions of n^(-1/2) and of the precision
# defaults (x_of and DEFAULT_PRECISION are the ones; MAX_PRECISION, the
# ceiling of the main-term sandwich's doublings, lives in tests/oracles.py), and
# the per-thread default precision with the operator coercion that read it,
# and the disproof radius, which only the tight_expansion oracle needs, and
# the sums over a second, cleared copy of each ring element.
REMOVED = ("eval_coeff", "ONE_ELEM", "ZERO_D", "DEFAULT_PREC", "MAX_PREC",
           "_x_upper", "_div_up_invsqrt",
           "workprec", "get_precision", "resolve_precision", "_coerce",
           "error_total_interval",
           "sum_of_cleared", "_cleared",
           # floating (man, exp) polynomial arithmetic, replaced by integer pairs at 2^-w
           "to_fixed", "to_intervals", "convolve_into", "_coeff_iv", "_mul_raw", "_pi_powers",
           # per-term shift powers: a family at shift s is one rescale of its s = 0 value
           "_from_shape", "_exp_shape", "_bessel_shape",
           # the certifier makes one range check per trial: no bisection depth,
           # no precision escalation
           "DEFAULT_MAX_DEPTH", "MAX_PRECISION",
           # second copies of a rule: Moore's sign cases live in convolve, a
           # quotient is _div_raw, a square root one point kernel per end
           "_moore", "_less", "_div_dir", "_sqrt_dir",
           # the recursive exact evaluator's list helpers: the scans run one compiled
           # program, and the recursion is the oracles.node_values reference
           "_prod", "_axpy",
           # the CLI's self-checks of constants that criteria C1 and C4 assert
           "PAPER_CONSTANTS", "_paper_check",
           # a second exp rule and a nested root: prefactor takes enclose_exp and
           # one integer root of 3 n^3
           "_exp_thin", "_root4_3",
           # the store that kept no part, and the store apart from its enclosures:
           # a node's exact parts and enclosures are one ring part, certify._Ring
           "_Parts", "_Exact",
           # Interval.from_fraction under another name: it takes an int or a Fraction
           "_iv",
           # the register machine of the scans: each statement is one generated kernel
           # (certify._source), with one comprehension per block
           "_program", "_run", "_run_truncated",
           # the zero of pow_int's floor for even powers of a straddling interval
           "ZERO",
           # hand-made memo dicts: every function memo is functools.lru_cache
           "_PI_CACHE", "_LOG2_CACHE", "_POWERS",
           # log's own series and its log 2: log is Newton's iteration on exp, checked by exp
           "_atanh_series", "_log2_bounds")

REMOVED_METHODS = (
    (Interval, "midpoint"),
    (RingElem, "rational_part"),
    (RingElem, "pi_power"),  # RingElem.monomial(i, 0, c)
    (RingElem, "sqrt3"),     # RingElem.monomial(0, 1, c)
    (HybridPoly, "neg"),     # HybridPoly.weighted_sum at weight -1
    (HybridPoly, "_cleared_prefix"),  # exact parts are convolved per degree, on demand
    # queries only tests ask: oracles.budget_fields, contains_interval, mag
    (ErrorBudget, "all_fields"),
    (Interval, "contains_interval"),
    (Interval, "mag"),
    # operators that rounded at a hidden precision; the named methods take prec
    (Interval, "__add__"),
    (Interval, "__radd__"),
    (Interval, "__sub__"),
    (Interval, "__rsub__"),
    (Interval, "__mul__"),
    (Interval, "__rmul__"),
    (Interval, "__truediv__"),
    (Interval, "__rtruediv__"),
    (Interval, "__pow__"),
    # only the tests read these: oracles.ring_parts, and horner on IneqPoly.fixed
    (HybridPoly, "ring_parts"),
    (IneqPoly, "eval_iv"),
    # no caller left once the thin radius moved to the tight_expansion oracle
    (Interval, "neg"),
    (Interval, "__neg__"),
    # only the tests read a node's value at one index: oracles.node_exact
    (Sum, "exact"),
    # an element is stored once, as (den, ints); terms is a view of it
    (RingElem, "cleared"),
    (RingElem, "_den_cache"),
    # coefficients and error boxes are integer pairs at 2^-w, not Intervals
    (HybridPoly, "ring_ivs"),
    (HybridPoly, "coeff_intervals"),
    # the per-node exact values: the scans run one generated kernel per
    # statement (certify._source), the recursion is oracles.node_values
    (Q, "values"),
    (Sum, "values"),
    (Mul, "values"),
    (Sq, "values"),
    (Companion, "values"),
    # cosh's straddle branch took it; cosh goes through _monotone on |x|
    (Interval, "hull"),
    # the expansion is one walker, certify._Expansion, with two hooks (leaf, factor)
    (Q, "envelope"),
    (Sum, "envelope"),
    (Mul, "envelope"),
    (Companion, "envelope"),
    # read only by tests: len(ring_pairs) - 1, and IneqPoly.fixed past the stripped degrees
    (HybridPoly, "degree"),
    (Certificate, "reduced_coeffs"),
    # a sum is one n-ary HybridPoly.weighted_sum, not a fold of add and scale_int
    (HybridPoly, "add"),
    (HybridPoly, "scale_int"),
    # a HybridPoly is one ring part (certify._Ring) plus its boxes: the ring part holds
    # the store, the enclosures and the zero tests, and one given whole is exact at
    # every degree, so no prefix is read "as seen from a result of length n"
    (HybridPoly, "_exact"),
    (HybridPoly, "_pairs"),
    (HybridPoly, "_exact_len"),
    (HybridPoly, "_is_zero"),
    (HybridPoly, "_nonzero"),
    (HybridPoly, "_not_point_zero"),
    # members only tests called: oracles.contains and width, Fraction comparisons
    # and RingElem.scale(-1); Dyadic negates, scales and compares only
    (Interval, "contains"),
    (Interval, "width"),
    (Dyadic, "__add__"),
    (Dyadic, "__sub__"),
    (Dyadic, "__mul__"),
    (Dyadic, "cmp_fraction"),
    (RingElem, "__sub__"),
    (RingElem, "__neg__"),
    # members only tests reached: pow_int's floor read |x|, and nothing multiplies
    # a ring element by a scalar with *
    (Dyadic, "__abs__"),
    (RingElem, "__rmul__"),
    # the pairwise ring sum and scalar multiple: a weighted sum is one
    # sum_of_products, each part paired with its weight as a ring element
    (RingElem, "__add__"),
    (RingElem, "scale"),
)

# Dyadic compares with == and > only (Interval.__init__, certify_positive, max in
# enclose_cosh); <, <= and >= and the hash were for tests, which compare to_fraction()
DYADIC_REMOVED_COMPARISONS = ("__lt__", "__le__", "__ge__")

# Every operation that rounds takes its precision from the caller.
PRECISION_REQUIRED = (
    Interval.from_fraction,
    Interval.add,
    Interval.sub,
    Interval.mul,
    Interval.div,
    Interval.pow_int,
    Interval.sqrt,
    enclose_pi,
    enclose_exp,
    enclose_log,
    enclose_cosh,
    oracles.enclose_bessel_i1,
    RingElem.eval_iv,
    RingElem.fixed,
    Interval.fixed,
    horner,
)

# Knobs that change no result: the exact regime's integer decision does
# not depend on a precision, no certifier trial raises its precision (the
# sandwich oracle's ceiling is oracles.MAX_PRECISION), and one range check
# per trial has no bisection depth.
# Production expands with one radius rule, the box; the thin-radius
# disproof expansion is the tight_expansion oracle.
REMOVED_PARAMETERS = (
    (exact_verify, "prec"),
    (sharpness_scan, "prec"),
    (certify_inequality, "max_prec"),
    (oracles.check_main_term_sandwich, "max_prec"),
    (build_ineq, "tight"),
    (expand_statement, "tight"),
    (HybridPoly.from_envelope, "tight"),
    (certify_positive, "max_depth"),
    (certify_inequality, "max_depth"),
    (find_crossover, "max_depth"),
    (verify_theorem, "max_depth"),
    # a scan that skips the indices below the threshold: verify_theorem
    # always reports the sharpness witness
    (verify_theorem, "sharpness"),
    # a second index convention: exact_verify reads lo and hi as n0 = n - shift only
    (exact_verify, "shifted"),
)


def _modules():
    yield qcert
    for info in pkgutil.iter_modules(qcert.__path__):
        yield importlib.import_module(f"qcert.{info.name}")


@pytest.mark.parametrize("name", ORACLES + REMOVED)
def test_name_not_in_qcert(name):
    exposing = [m.__name__ for m in _modules() if hasattr(m, name)]
    assert exposing == [], f"{name} is exposed by {exposing}"


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_lives_in_tests(name):
    assert callable(getattr(oracles, name))


@pytest.mark.parametrize("cls, name", REMOVED_METHODS)
def test_method_removed(cls, name):
    assert not hasattr(cls, name) and name not in inspect.signature(cls).parameters  # nor a field


@pytest.mark.parametrize("name", DYADIC_REMOVED_COMPARISONS)
def test_dyadic_comparison_removed(name):
    assert name not in vars(Dyadic)


def test_dyadic_unhashable():
    assert vars(Dyadic)["__hash__"] is None


@pytest.mark.parametrize("cls", [oracles._TightExpansion, oracles._Replay], ids=lambda c: c.__name__)
def test_oracle_expansions_override_only_the_hooks(cls):
    # the walker is production's: an oracle swaps leaves and companion factors only
    assert {name for name in vars(cls) if not name.startswith("__")} <= {"leaf", "factor"}
    assert "__call__" not in vars(cls)


def test_no_sharpen_knobs():
    assert "sharpen" not in inspect.signature(find_crossover).parameters
    assert "sharpen_crossover" not in inspect.signature(verify_theorem).parameters


@pytest.mark.parametrize("fn, name", REMOVED_PARAMETERS)
def test_parameter_removed(fn, name):
    assert name not in inspect.signature(fn).parameters


@pytest.mark.parametrize("fn", PRECISION_REQUIRED, ids=lambda fn: fn.__qualname__)
def test_precision_has_no_default(fn):
    assert inspect.signature(fn).parameters["prec"].default is inspect.Parameter.empty


def test_ineq_poly_fields():
    # the id, theorem, N and precision are known to the caller or to poly
    assert tuple(inspect.signature(IneqPoly).parameters) == ("poly", "x0", "window", "side_lemma")


# math names that are exact on integers; any other math function is floating point
EXACT_MATH = {"isqrt", "gcd", "lcm", "factorial", "comb"}
SOURCES = sorted(Path(qcert.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float(...)")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: / (a float on two ints)")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr not in EXACT_MATH:
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {a.name}"
                      for a in node.names if a.name not in EXACT_MATH]
    return found


def _function(path: Path, qualname: str) -> ast.AST:
    node = _tree(path)
    for name in qualname.split("."):
        node = next(n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def test_enclosures_use_no_floating_point():
    assert _float_uses(_tree(Path(qcert.__file__).parent / "enclosures.py")) == []


@pytest.mark.parametrize("module, qualname", [
    ("intervals.py", "horner"),
    ("intervals.py", "Interval.fixed"),
    ("intervals.py", "_fraction_raw"),
    ("intervals.py", "convolve"),
    ("intervals.py", "_sum_raw"),
    ("intervals.py", "Interval.mul"),
    ("intervals.py", "_aligned"),
    ("intervals.py", "_sqrt_point"),
    ("intervals.py", "_monotone"),
    ("ring.py", "RingElem.eval_iv"),
    ("ring.py", "RingElem.fixed"),
    ("ring.py", "_power"),
    ("certify.py", "_source"),
    ("certify.py", "_positive"),
])
def test_evaluation_kernels_use_no_floating_point(module, qualname):
    assert _float_uses(_function(Path(qcert.__file__).parent / module, qualname)) == []


# the names a generated kernel may read besides its own: the table, the block length,
# the bound, the block's bound of t and the two builtins of its loop
KERNEL_NAMES = {"q", "m", "E", "T", "enumerate", "zip"}


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_generated_kernels_are_integer_only(tid):
    # no float literal, no true division, and no name but its arguments, registers, loop
    # variables, K, enumerate and zip: each kernel is exact integer arithmetic on q
    tree = ast.parse(certify_module._source(THEOREMS[tid].statement))
    assert _float_uses(tree) == []
    (kernel,) = tree.body
    assert [a.arg for a in kernel.args.args] == ["q", "m", "E", "T"]
    assert not any(isinstance(n, ast.Div) for n in ast.walk(tree))
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
    bound = {n.id for n in names if isinstance(n.ctx, ast.Store)}
    assert all(re.fullmatch(r"r\d+|v\d+|[kxyK]", name) for name in bound), bound
    assert {n.id for n in names} <= KERNEL_NAMES | bound


def test_generated_kernels_deterministic():
    # each theorem's kernel source is the same text under two hash seeds and two theorem orders
    src = str(Path(qcert.__file__).resolve().parents[1])
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); from qcert.certify import THEOREMS, _source; "
            "ids = sorted(THEOREMS)[::int(sys.argv[2])]; "
            "print(json.dumps({t: _source(THEOREMS[t].statement) for t in ids}, sort_keys=True))")
    runs = {subprocess.run([sys.executable, "-c", code, src, order], capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
            for seed in ("0", "1") for order in ("1", "-1")}
    assert len(runs) == 1 and runs.pop().count("def kernel") == len(THEOREMS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_mpmath_import(path):
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "mpmath" not in imported
