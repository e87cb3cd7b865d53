"""Every production invocation of tools/linemap.py is a command the CLI
parses, so a change to the command line cannot leave the line map's
production run stale.  The mutant tool's temporary trees hold no tools/,
so there the module is skipped."""

import importlib.util
from pathlib import Path

import pytest

from qcert.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "linemap.py"
if not TOOL.exists():
    pytest.skip("tools/linemap.py is not in this tree", allow_module_level=True)

_spec = importlib.util.spec_from_file_location("linemap", TOOL)
linemap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linemap)


@pytest.mark.parametrize("argv", linemap.INVOCATIONS, ids=" ".join)
def test_invocation_parses(argv):
    args = _build_parser().parse_args(argv)
    assert callable(args.run)
