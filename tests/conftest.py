import pytest

from oracles import compute_q_table
from qcert.qtable import load_or_build

# The top of the envelope checks (C3 and the sandwich tests read q(n + s) up to
# n + s = 20000); the largest table_n_max of a theorem is 18507.
FULL_TABLE_SIZE = 20000

# One line per acceptance criterion, printed in the terminal summary.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def table2k():
    """Reference-DP table for tests that exercise the plain algorithm."""
    return compute_q_table(2000)


@pytest.fixture(scope="session")
def table20k():
    """Full table for verification runs, built once per session."""
    return load_or_build(FULL_TABLE_SIZE)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
