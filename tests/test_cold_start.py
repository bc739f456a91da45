"""Start-up cost guard: the CLI's import path stays free of heavy modules.

``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``); together they cost a cold ``qschur`` process about as much
time as a small ``verify`` job computes.  The check runs in a fresh
interpreter, since this test process has loaded both already.
"""

from __future__ import annotations

import subprocess
import sys

HEAVY = ("dataclasses", "inspect")


def test_cli_import_loads_no_heavy_module():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import qschur.cli, sys; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
