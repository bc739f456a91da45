"""Run the docstring examples embedded in the library modules and the README."""

from __future__ import annotations

import doctest
from pathlib import Path

import qschur.series

README = Path(__file__).resolve().parents[1] / "README.md"


def test_series_doctests():
    result = doctest.testmod(qschur.series)
    assert result.failed == 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
