"""Every soundness mutant in tools/mutants.py still names text of the
tree: its old text occurs exactly once in its file, so an edit that moves
the text fails here and not only in the tool's minutes-long run.  Each
mutant has its own name and changes its text.  The tool's temporary
trees hold no tools/, so there the module is skipped (otherwise each
mutant would be reported killed by this test)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"
if not TOOL.exists():
    pytest.skip("tools/mutants.py is not in this tree", allow_module_level=True)

_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


def test_names_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_new_text_differs(mutant):
    assert mutant.new != mutant.old
