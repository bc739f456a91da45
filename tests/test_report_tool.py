"""``tools/report.py``, the report-only timings of CI, at small sizes."""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

from qschur import identities

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "report.py"


def _report():
    spec = importlib.util.spec_from_file_location("report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_lines_at_small_sizes(fresh_tables):
    """Both report lines name every call and read they time, with the radices
    ``decompose`` compares at."""
    report = _report()
    line = report.packed_products(40, (5, 9), ((10, 3), (12, 20)), 2)
    assert ", D and E built to 40, min of 2: wronskian(5) " in line
    assert "wronskian(9) " in line and line.endswith(" ms")
    assert "decompose(10, 3) at slots " in line and "decompose(12, 20) at slots " in line
    line = report.reads_below_top(60, (50, 20))
    assert ", D built to 60: read at 50 " in line and "; read at 20 " in line
    assert line.endswith(" MB")


def test_verify_sides_at_small_sizes(fresh_tables, fresh_products):
    """The layer line names the sum side, both products through the top of
    the largest shift and the combine, and leaves both products built."""
    line = _report().verify_sides(3, (20,), 2)
    assert ", verify at m = 0..3, min of 2: order 20: sum side " in line
    assert " ms, P1 through q^23 " in line and " ms, P2 through q^23 " in line
    assert " ms, combine " in line and line.endswith(" ms")
    assert all(len(identities._products[r]) == 24 for r in (1, 2))


def test_peak_of_one_small_command(monkeypatch):
    """``peak`` runs one command in a child process and reports its exit
    code, wall time and a nonzero peak RSS of its own."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    monkeypatch.setenv("PYTHONPATH", f"{src}{os.pathsep}{path}" if path else src)
    line = _report().peak(["schur-poly", "--kind", "D", "--index", "3"])
    assert line.startswith("schur-poly --kind D --index 3: exit 0, ")
    assert " s wall, peak RSS " in line and line.endswith(" MB")
    assert float(line.split()[-2]) > 0
