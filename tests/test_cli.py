"""CLI contract: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcert.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQtable:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "--n-max", "64", "qtable", "--n", "9")
        assert code == EXIT_PASS
        assert json.loads(out) == {"9": "8"}
        code, out, _ = run(capsys, "--n-max", "64", "qtable", "--n", "0")
        assert code == EXIT_PASS and json.loads(out) == {"0": "1"}

    def test_range_text(self, capsys):
        code, out, _ = run(capsys, "--n-max", "64", "qtable", "--range", "0..9",
                           "--format", "text")
        assert code == EXIT_PASS
        assert out.strip() == "1,1,1,2,2,3,4,5,6,8"

    def test_requires_exactly_one_selector(self, capsys):
        code, _, err = run(capsys, "--n-max", "64", "qtable")
        assert code == EXIT_USAGE and "exactly one" in err

    def test_n_max_too_small(self, capsys):
        code, _, err = run(capsys, "--n-max", "5", "qtable", "--n", "9")
        assert code == EXIT_USAGE and "--n-max" in err


class TestCoeffs:
    def test_full_family(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--family", "full", "--index", "0", "--s", "3")
        assert code == EXIT_PASS
        assert out.strip() == "full[0,3] = 1"

    def test_rational_family(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--family", "binom", "--index", "2", "--s", "0")
        assert code == EXIT_PASS
        assert out.strip() == "binom[2,0] = -1/32"

    def test_ring_expression(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--family", "bessel", "--index", "1", "--s", "0")
        assert code == EXIT_PASS
        assert "-3/8 pi^-1 sqrt3" in out

    def test_negative_index_usage_error(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--family", "full", "--index", "-1")
        assert code == EXIT_USAGE

    def test_unknown_family_usage_error(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--family", "nope", "--index", "0")
        assert code == EXIT_USAGE


class TestBounds:
    def test_row(self, capsys, table20k):
        code, out, _ = run(capsys, "bounds", "--n", "6000", "--s", "0", "--N", "14",
                           "--format", "csv")
        assert code == EXIT_PASS
        lines = out.strip().splitlines()
        assert lines[0] == "n,s,N,q_exact,lower,upper"
        n, s, order, q_exact, lower, upper = lines[1].split(",")
        assert (n, s, order) == ("6000", "0", "14")
        assert q_exact == str(table20k[6000])

    def test_below_floor(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "100", "--s", "0", "--N", "14")
        assert code == EXIT_USAGE and "floor" in err


class TestVerifyAndCertify:
    def test_certify_json(self, capsys):
        code, out, _ = run(capsys, "certify", "ineq1")
        assert code == EXIT_PASS
        blob = json.loads(out)
        assert blob["status"] == "proved"
        assert blob["n_star"] == 5019
        assert blob["theorem"] == "A"

    def test_unknown_ineq(self, capsys):
        code, _, _ = run(capsys, "certify", "ineq99")
        assert code == EXIT_USAGE

    def test_certify_inconclusive_exit(self, capsys):
        # ineq2 cannot be certified at its validity window (the exact
        # polynomial is negative there): distinct exit code 2
        code, out, _ = run(capsys, "certify", "ineq2")
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["status"] == "inconclusive"

    def test_certify_below_window_usage_error(self, capsys):
        code, out, err = run(capsys, "certify", "ineq1", "--n-star", "100")
        assert code == EXIT_USAGE and out == ""
        assert "error: n_star=100 below envelope validity window 5019" in err

    def test_max_depth_flag_removed(self, capsys):
        # the certifier makes one range check per trial: no depth to limit
        code, out, _ = run(capsys, "--max-depth", "5", "certify", "ineq2")
        assert code == EXIT_USAGE and out == ""
        code, out, err = run(capsys, "certify", "ineq2", "--max-depth", "5")
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --max-depth 5" in err

    def test_verify_json_and_determinism(self, capsys, table20k):
        code1, out1, _ = run(capsys, "--no-timing", "verify", "A")
        code2, out2, _ = run(capsys, "--no-timing", "verify", "A")
        assert code1 == code2 == EXIT_PASS
        assert out1 == out2  # byte-identical without timing
        blob = json.loads(out1)
        for key in ("theorem", "threshold", "shift", "n_star", "exact_range",
                    "sharpness_witness", "status", "precision_bits",
                    "subdivisions", "certificate"):
            assert key in blob
        assert "seconds" not in blob

    def test_verify_double_turan_threshold(self, capsys, table20k):
        code, out, _ = run(capsys, "--no-timing", "verify", "double-turan")
        assert code == EXIT_PASS
        blob = json.loads(out)
        assert blob["threshold"] == 273 and blob["shift"] == 2

    def test_verify_erratum_exit_code(self, capsys, table20k):
        code, out, _ = run(capsys, "--no-timing", "verify", "double-turan-companion")
        assert code == EXIT_FAIL
        blob = json.loads(out)
        assert blob["exact_violations"] == [348]
        assert blob["holds_from"] == 349

    def test_verify_window_above_seam_usage_error(self, capsys):
        # at 16 bits the N = 24 window is 18505, past the seam 18502
        code, out, err = run(capsys, "--precision", "16", "--n-max", "18509",
                             "verify", "laguerre3")
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: envelope validity window 18505 of laguerre3 at 16 bits "
                       "lies above its seam 18502\n")

    def test_unknown_theorem(self, capsys):
        code, _, _ = run(capsys, "verify", "theorem-x")
        assert code == EXIT_USAGE


# sha256 of the stdout of `qcert --no-timing reproduce-all --with-errata`:
# the JSON of all eight reports, which fixes the program's behaviour
REPRODUCE_ALL_SHA256 = "d505f7b5e463646c415576ee588ddaa0325fe7725de648d8765ad864ec31f3ce"


class TestReproduceAll:
    @pytest.mark.pin
    def test_behaviour_fixture(self):
        # the whole command in a fresh interpreter, as a user runs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "qcert.cli", "--no-timing", "reproduce-all", "--with-errata"],
                             capture_output=True, env=env, check=True)
        assert hashlib.sha256(run.stdout).hexdigest() == REPRODUCE_ALL_SHA256

    def test_subset_pass(self, capsys, table20k):
        code, out, err = run(capsys, "--no-timing", "reproduce-all",
                             "--theorems", "A", "double-turan")
        assert code == EXIT_PASS
        blob = json.loads(out)
        assert blob["status"] == "pass"
        assert set(blob["theorems"]) == {"A", "double-turan"}
        assert "PASS" in err

    def test_duplicate_ids_verified_once(self, capsys):
        code, out, err = run(capsys, "--no-timing", "--n-max", "7064", "reproduce-all",
                             "--theorems", "A", "A")
        assert code == EXIT_PASS
        assert list(json.loads(out)["theorems"]) == ["A"]
        assert len(err.splitlines()) == 1 and err.startswith("PASS         A:")

    def test_as_stated_fails_on_erratum(self, capsys, table20k):
        code, out, _ = run(capsys, "--no-timing", "reproduce-all",
                           "--theorems", "double-turan-companion")
        assert code == EXIT_FAIL
        blob = json.loads(out)
        assert blob["theorems"]["double-turan-companion"]["exact_violations"] == [348]

    def test_with_errata_passes(self, capsys, table20k):
        code, out, _ = run(capsys, "--no-timing", "reproduce-all",
                           "--theorems", "double-turan-companion", "--with-errata")
        assert code == EXIT_PASS
        blob = json.loads(out)
        assert blob["theorems"]["double-turan-companion"]["threshold"] == 349

    def test_window_above_seam_usage_error(self, capsys):
        code, out, err = run(capsys, "--precision", "16", "--n-max", "18509",
                             "reproduce-all", "--theorems", "laguerre3")
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: envelope validity window 18505 of laguerre3 at 16 bits "
                       "lies above its seam 18502\n")

    def test_unknown_id(self, capsys):
        code, _, _ = run(capsys, "reproduce-all", "--theorems", "bogus")
        assert code == EXIT_USAGE

    def test_empty_theorem_list_usage_error(self, capsys):
        # an empty --theorems is a mistake, not a request for all eight
        code, out, err = run(capsys, "--no-timing", "reproduce-all", "--theorems")
        assert code == EXIT_USAGE and out == ""
        assert "--theorems" in err


@pytest.mark.parametrize("flag, command", [
    ("--paper-check", ("reproduce-all", "--theorems", "A")),
    ("--check-enumeration", ("qtable", "--n", "9")),
    ("--skip-sharpness", ("verify", "A")),
])
def test_self_check_flags_removed(capsys, flag, command):
    # the CLI runs no self-checks and no test-only knob: the enumeration
    # oracle, q(9) and the window maxima are checked by tests (C1, C4), and
    # verify always runs the sharpness scan
    for argv in ((flag, *command), (*command, flag)):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"unrecognized arguments: {flag}" in err


def test_precision_floor(capsys):
    code, _, err = run(capsys, "--precision", "8", "qtable", "--n", "1")
    assert code == EXIT_USAGE and "precision" in err
