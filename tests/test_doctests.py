"""Run the docstring examples embedded in the library modules and the README,
and the README's command-line transcript."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

import qschur.packed
import qschur.series
from qschur.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_series_doctests():
    result = doctest.testmod(qschur.series)
    assert result.failed == 0


def test_packed_doctests():
    result = doctest.testmod(qschur.packed)
    assert result.attempted > 0 and result.failed == 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_readme_command_transcript(capsys):
    """Each ``$ qschur ...`` line prints, through ``cli.main``, exactly the
    non-blank lines that follow it, up to the next command or fence."""
    transcript = re.findall(
        r"^\$ qschur (.*)\n((?:(?!\$ |```).+\n)*)", README.read_text(), re.MULTILINE
    )
    assert transcript
    for command, expected in transcript:
        main(shlex.split(command))
        assert capsys.readouterr().out == expected, command
