"""tools/sloc.py: code lines per module, comments, blank lines and docstrings left out."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

# 15 lines, of which 6 are code: the import, both lines of x's string,
# the one-line class (its docstring does not count), the def and the return
MODULE = '''"""Module
docstring."""
import os  # a comment on a code line

# a comment line
x = """a
b"""


class A: """A one-line docstring."""


def f():
    """A docstring."""
    return 1
'''


def test_code_lines_leave_out_comments_blank_lines_and_docstrings():
    assert sloc.code_lines(MODULE.encode()) == 6


def test_the_tool_prints_code_and_raw_lines_per_module_then_the_total(tmp_path):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\ny = 1\n', encoding="utf-8")
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"     6     15 {tmp_path / 'a.py'}",
        f"     1      2 {tmp_path / 'pkg' / 'b.py'}",
        "     7     17 total",
    ]
