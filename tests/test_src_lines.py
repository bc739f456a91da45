"""``tools/src_lines.py``, the code-line count of ``src/qschur``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "src_lines.py"

#: Code lines ``src/qschur`` may hold: the ceiling ROADMAP.md sets under
#: its design-quality aim (item 6), which later features must fit under.
CEILING = 962

SAMPLE = '''"""A module docstring,
over two lines."""

# a comment


def f(a, b):
    """A function docstring."""
    total = (a +  # a trailing comment
             b)
    return total


TEXT = """a string that is
not a docstring"""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_sample():
    """Docstrings, comments and blank lines are not code; every line of a
    statement over several lines is, and so is a string that opens no body:
    ``def``, both lines of ``total``, ``return`` and both of ``TEXT``."""
    assert _tool().code_lines(SAMPLE) == 6


def test_src_qschur_within_the_ceiling(capsys):
    """The per-file counts add up to the printed total, which is at most
    :data:`CEILING`."""
    assert _tool().main(["src_lines.py", str(ROOT / "src" / "qschur")]) == 0
    *files, last = capsys.readouterr().out.splitlines()
    name, total = last.split()
    assert name == "total" and len(files) == len(list(ROOT.glob("src/qschur/*.py")))
    assert int(total) == sum(int(line.split()[1]) for line in files) <= CEILING
