"""Exact q(n): construction equivalences, oracles, scans."""

import hashlib

import pytest

from oracles import (
    check_log_concavity,
    check_turan3,
    compute_q_table,
    compute_q_table_odd_parts,
    q_enumerate,
)
from qcert.qtable import BLOCK, load_or_build

# SHA-256 of the comma-joined decimal q(0..20000) as built by the packed
# limb DP that the theta recurrence replaced
TABLE_20K_SHA256 = "a4e10c27ef082dc343674cfb9c76c32bfaeff7919bcf4f6b511802335ba436ef"

# q(0..9), with q(9) = 8 as the canonical anchor
FIRST_TEN = (1, 1, 1, 2, 2, 3, 4, 5, 6, 8)

# violations of strict log-concavity below the fixture threshold 33,
# frozen from an exact scan
LOG_CONCAVITY_VIOLATIONS = [1, 2, 4, 8, 11, 13, 14, 16, 17, 19, 20, 23, 26, 29, 32]


def test_first_values():
    t = compute_q_table(9)
    assert t.values == FIRST_TEN
    assert t[9] == 8 and t[0] == 1


def test_enumeration_examples():
    assert q_enumerate(0) == 1
    assert q_enumerate(9) == 8
    assert q_enumerate(5) == 3  # (5), (4,1), (3,2)
    assert q_enumerate(12) == 15


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        q_enumerate(61)
    with pytest.raises(ValueError):
        q_enumerate(-1)


def test_dp_matches_enumeration_to_60():
    t = compute_q_table(60)
    for n in range(61):
        assert t[n] == q_enumerate(n), n


def test_load_or_build_matches_reference(table2k):
    assert load_or_build(2000).values == table2k.values


def test_blocked_builder_matches_dp_to_200():
    # the length-1 block at n_max = BLOCK, partial blocks and the first
    # three block edges (BLOCK = 64)
    for n_max in range(201):
        assert load_or_build(n_max).values == compute_q_table(n_max).values, n_max


@pytest.mark.parametrize("n_max", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 7064, 18509])
def test_blocked_builder_is_prefix_of_full_table(n_max, table20k):
    assert load_or_build(n_max).values == table20k.values[: n_max + 1]


def test_full_table_matches_packed_builder(table20k):
    digest = hashlib.sha256(",".join(map(str, table20k.values)).encode()).hexdigest()
    assert digest == TABLE_20K_SHA256


def test_odd_parts_identity(table2k):
    # Euler: distinct parts and odd parts are equinumerous
    odd = compute_q_table_odd_parts(2000)
    assert odd.values == table2k.values


def test_monotonicity(table2k):
    v = table2k.values
    assert all(v[n + 1] >= v[n] for n in range(2000))
    assert all(v[n + 1] > v[n] for n in range(4, 2000))


def test_log_concavity_scan(table2k):
    viol = check_log_concavity(table2k, 1, 1500)
    assert [n for n in viol if n < 33] == LOG_CONCAVITY_VIOLATIONS
    assert all(n < 33 for n in viol)
    assert check_log_concavity(table2k, 33, 33) == []


def test_turan3_scan(table2k):
    viol = check_turan3(table2k, 1, 1500)
    assert max(viol) == 120
    assert 94 not in viol and 97 not in viol  # holes below the threshold
    assert check_turan3(table2k, 121, 121) == []
    assert check_turan3(table2k, 121, 1500) == []


def test_scan_range_errors(table2k):
    with pytest.raises(ValueError):
        check_log_concavity(table2k, 0, 10)
    with pytest.raises(ValueError):
        check_turan3(table2k, 1, 2000)


def test_window_accessor(table2k):
    assert table2k.window(5, 5) == (3, 4, 5, 6, 8)
    with pytest.raises(IndexError):
        table2k.window(1999, 5)
