"""Acceptance suite: every criterion exercised at its stated tolerance,
one summary line per criterion (printed in the terminal summary).

Two sub-clauses of criterion 5 are machine-provably unattainable and are
kept as strict xfails with the disproof asserted alongside:

* the certified polynomials behind the A-companion and double-Turan
  companion theorems are *certifiably negative* at n = 5019 (their true
  integer crossovers are 5845 and 6929), so no sound certifier can reach
  n_star <= 5019 there; the recorded per-theorem seams (5885 / 7056) are
  the consistent caps, and both theorems verify end-to-end under them;
* the companion double-Turan statement itself is false at n = 348
  (exact arithmetic), so its finite scan cannot have zero failures; it
  holds everywhere else in the recorded range, and from 349 on.
"""

import random
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE_LINES
from oracles import (
    SandwichResult,
    alt_half_binomial_sum,
    alt_half_binomial_sum_closed,
    check_log_concavity,
    check_main_term_sandwich,
    check_turan3,
    compute_q_table_odd_parts,
    invariant_a,
    laguerre,
    q_enumerate,
    tight_expansion,
)
from qcert.bounds import (
    bound_value,
    n_min,
    window_max,
    x_of,
)
from qcert.intervals import horner
from qcert.certify import (
    THEOREMS,
    sharpness_scan,
    verify_theorem,
)

F = Fraction


def record(line: str):
    ACCEPTANCE_LINES.append(line)


# Per-theorem crossover caps from the recorded finite ranges (seam =
# one past the exact range); the flat 5019/18502 grouping is asserted
# separately as the strict-xfail literal reading.
NSTAR_CAPS = {
    "A": 5019,
    "A-companion": 5885,
    "B": 18502,
    "B-companion": 18502,
    "double-turan": 5019,
    "double-turan-companion": 7056,
    "laguerre3": 18502,
    "laguerre3-companion": 18502,
}

SHARPNESS_WITNESSES = {
    "A": 229,
    "A-companion": 278,
    "B": 271,
    "B-companion": 308,
    "double-turan": 272,
    "double-turan-companion": 345,
    "laguerre3": 650,
    "laguerre3-companion": 714,
}


@pytest.fixture(scope="module")
def reports(table20k):
    """All eight end-to-end verifications, shared across criterion tests."""
    return {tid: verify_theorem(tid, table20k) for tid in sorted(THEOREMS)}


# -- criterion 1: exact values -------------------------------------------------


def test_c1_exact_values(table2k):
    assert table2k[9] == 8
    for n in range(61):
        assert table2k[n] == q_enumerate(n), n
    odd = compute_q_table_odd_parts(2000)
    assert odd.values == table2k.values
    record("C1 PASS  q(9)=8; q(0..60) matches enumeration; distinct-parts DP == odd-parts DP for n <= 2000")


# -- criterion 2: classical inequalities ---------------------------------------


def test_c2_classical_inequalities(table20k):
    lc = check_log_concavity(table20k, 33, 10**4)
    t3 = check_turan3(table20k, 121, 10**4)
    assert lc == [] and t3 == []
    lc_below = check_log_concavity(table20k, 1, 32)
    t3_below = check_turan3(table20k, 1, 120)
    assert lc_below and max(lc_below) == 32
    assert t3_below and max(t3_below) == 120
    record(
        "C2 PASS  log-concave on [33,10^4] (last violation 32); third-order Turan on [121,10^4] (last violation 120)"
    )


# -- criterion 3: envelope sandwich ---------------------------------------------


def test_c3_envelope_sandwich(table20k):
    rng = random.Random(8128)
    failures = []
    checked = 0
    for N in (1, 6, 14, 24):
        for s in range(7):
            floor = n_min(N, s)
            for _ in range(200):
                n = rng.randint(floor, 20000 - s)
                v = table20k[n + s]
                ok = (
                    bound_value(n, s, N, -1).hi.to_fraction() <= v
                    and bound_value(n, s, N, +1).lo.to_fraction() >= v
                )
                checked += 1
                if not ok:
                    failures.append((N, s, n))
    assert not failures, failures[:5]
    record(f"C3 PASS  certified sandwich held at all {checked} sampled (N, s, n) points")


def test_c3_envelope_sandwich_exhaustive(table20k):
    """Every n from the floor to 20000 - s at each of the (N, s) pairs the
    theorems use.  n is the outer loop, so that prefactor(n) and x_of(n)
    are computed once each.  The smallest margins (U - q)/(U - L) and
    (q - L)/(U - L) per pair are reported, not gated: they show how much
    of the envelope's width an error in a budget could use up unseen."""
    pairs = sorted({(spec.N, s) for spec in THEOREMS.values() for s in spec.shifts})
    floors = {pair: n_min(*pair) for pair in pairs}
    margins = {pair: [1.0, 1.0] for pair in pairs}
    failures = []
    checked = 0
    for n in range(min(floors.values()), 20001):
        for N, s in pairs:
            if not floors[N, s] <= n <= 20000 - s:
                continue
            q = table20k[n + s]
            lower, upper = bound_value(n, s, N, -1).hi.to_fraction(), bound_value(n, s, N, +1).lo.to_fraction()
            checked += 1
            if not lower <= q <= upper:
                failures.append((N, s, n))
                continue
            m = margins[N, s]
            w = float(upper - lower)
            m[0] = min(m[0], float(upper - q) / w)
            m[1] = min(m[1], float(q - lower) / w)
    assert not failures, failures[:5]
    assert checked == 85372
    shown = ", ".join(f"({N},{s}) {a:.6f}/{b:.6f}" for (N, s), (a, b) in margins.items())
    record(f"C3 PASS  certified sandwich held at every one of {checked} (N, s, n) points, n from the floor "
           f"to 20000 - s; smallest margins (U-q)/(U-L) / (q-L)/(U-L): {shown}")


# -- criterion 4: window maxima --------------------------------------------------


def test_c4_window_maxima():
    w14 = window_max(14, (0, 1, 2, 3, 4))
    w24 = window_max(24, (0, 1, 2, 3, 4, 5, 6))
    assert w14 <= 5019 and w24 <= 18502
    record(f"C4 PASS  computed windows: max n(14,s)={w14} <= 5019, max n(24,s)={w24} <= 18502")


# -- criterion 5: theorem reproductions -------------------------------------------


def test_c5_eight_reproductions(reports):
    lines = []
    for tid, rep in reports.items():
        assert rep.certificate.proved, tid
        assert rep.n_star <= NSTAR_CAPS[tid], (tid, rep.n_star)
        assert rep.exact_range == (rep.threshold - rep.shift, rep.n_star - 1), tid
        if tid == "double-turan-companion":
            # documented erratum: the statement is false exactly at 348
            assert rep.exact_violations == [348]
            assert rep.holds_from == 349
            lines.append(f"{tid}: n_star={rep.n_star}, stated range fails only at 348 (holds from 349)")
        else:
            assert rep.status == "pass", tid
            assert rep.exact_violations == [], tid
            lines.append(f"{tid}: n_star={rep.n_star}, exact {rep.exact_range[0]}..{rep.exact_range[1]} clean")
    record("C5 PASS* eight reproductions (caps per recorded seams; see C5 xfail notes): " + "; ".join(lines))


def test_c5_runtime_budget(reports):
    total = sum(rep.seconds for rep in reports.values())
    assert total <= 30 * 60, f"verification took {total:.0f}s"
    record(f"C5 PASS  total verification time {total:.0f}s (budget 1800s) at 192-bit working precision")


def test_c5_companion_bound_disproof():
    """The flat n_star <= 5019 cap is refuted, not just unmet: with thin
    two-sided radii the exact inequality polynomials are certifiably
    negative at n = 5019."""
    for ineq_id in ("ineq2", "ineq6"):
        tight = tight_expansion(ineq_id, 192)
        assert horner(tight.fixed, x_of(5019, 192), 192).is_negative, ineq_id
    record(
        "C5 NOTE  literal 'n_star <= 5019' for the two N=14 companions is disproved: "
        "their exact polynomials are certifiably negative at n=5019 (crossovers 5845/6929)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="spec-defect (verified): ineq2 is certifiably negative at n=5019; "
    "the recorded seam for A-companion is 5885 and its own cutoff 5885 > 5019",
)
def test_c5_literal_nstar_cap_a_companion(reports):
    assert reports["A-companion"].n_star <= 5019


@pytest.mark.xfail(
    strict=True,
    reason="spec-defect (verified): ineq6 is certifiably negative at n=5019; "
    "the recorded seam for double-turan-companion is 7056",
)
def test_c5_literal_nstar_cap_dt_companion(reports):
    assert reports["double-turan-companion"].n_star <= 5019


@pytest.mark.xfail(
    strict=True,
    reason="paper erratum (verified by exact arithmetic): the companion "
    "double-Turan statement fails at n=348, so a zero-failure scan from "
    "the stated threshold 346 is impossible",
)
def test_c5_literal_zero_failures_dt_companion(reports):
    assert reports["double-turan-companion"].exact_violations == []


# -- criterion 6: sharpness --------------------------------------------------------


def test_c6_sharpness(reports, table20k):
    for tid, rep in reports.items():
        assert rep.sharpness_witness == SHARPNESS_WITNESSES[tid], tid
        # the witness really is a violation and really is below threshold
        assert rep.sharpness_witness < THEOREMS[tid].threshold
        below = sharpness_scan(tid, table20k)
        assert below and max(below) == SHARPNESS_WITNESSES[tid]
    record(
        "C6 PASS  sharpness witnesses match frozen fixtures: "
        + ", ".join(f"{tid}={w}" for tid, w in SHARPNESS_WITNESSES.items())
    )


# -- criterion 7: main-term sandwich -------------------------------------------------


def test_c7_main_term_sandwich(table20k):
    rng = random.Random(1729)
    count = 0
    for m in (2, 3):
        samples = {206, 500, 2000, 19990}
        while len(samples) < 20:
            samples.add(rng.randint(206, 19990))
        for n in sorted(samples):
            assert check_main_term_sandwich(table20k, n, m) == SandwichResult.HOLDS, (n, m)
            count += 1
    record(f"C7 PASS  main-term sandwich held at {count} certified in-regime points (m in {{2,3}})")


# -- criterion 8: combinatorial identity ---------------------------------------------


def test_c8_alternating_sum_identity():
    checked = 0
    for m in range(0, 21):
        for r in range(0, max(1, 2 * m)):
            if r == m == 0 or r < 2 * m:
                assert alt_half_binomial_sum(r, m) == alt_half_binomial_sum_closed(r, m)
                checked += 1
    record(f"C8 PASS  brute-force sum equals closed form at all {checked} pairs with r < 2m <= 40")


# -- criterion 9: Laguerre consistency --------------------------------------------------


def test_c9_laguerre_consistency(table2k):
    q = table2k.values
    for n in range(0, 1001):
        assert laguerre(2, table2k, n) == invariant_a(*table2k.window(n, 5))
        expected = (
            10 * q[n + 3] ** 2
            + 6 * q[n + 1] * q[n + 5]
            - 15 * q[n + 2] * q[n + 4]
            - q[n] * q[n + 6]
        )
        assert laguerre(3, table2k, n) == expected
    record("C9 PASS  order-2 Laguerre == invariant A and order-3 == the stated quadratic form for n <= 1000")
