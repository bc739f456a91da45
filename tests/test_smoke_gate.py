"""``tools/smoke_gate.py``, the benchmark smoke gate of CI."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "smoke_gate.py"

PASSING = json.dumps({"workload": "verify-cold", "correct": True, "failed": 0})
FAILING = json.dumps({"workload": "verify-cold", "correct": True, "failed": 2})
WRONG = json.dumps({"workload": "verify-cold", "correct": False, "failed": 0})
MALFORMED = '{"workload": "verify-cold", "correct": tr'

# Stands in for perfbench/run.py: prints a summary line, then the line its
# workload names, and exits with the code the workload names.
FAKE_RUNNER = """
import sys
lines = {"pass": %r, "fail": %r, "wrong": %r, "malformed": %r, "crash": %r}
workload = sys.argv[sys.argv.index("--workload") + 1]
print(workload, "seed=" + sys.argv[sys.argv.index("--seed") + 1])
print(lines[workload])
sys.exit(3 if workload == "crash" else 0)
""" % (PASSING, FAILING, WRONG, MALFORMED, PASSING)


def _gate():
    spec = importlib.util.spec_from_file_location("smoke_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_of_each_kind_of_last_line():
    """A passing result passes; a failed job, a wrong result, a malformed or
    missing last line, and JSON that is no result each fail, with a reason."""
    verdict = _gate().verdict
    assert verdict(f"verify-cold seed=1: 40 jobs\n{PASSING}\n") is None
    assert verdict(f"summary\n{FAILING}") == "correct=True, failed=2"
    assert verdict(WRONG) == "correct=False, failed=0"
    for output in (MALFORMED, f"{PASSING}\nsummary", "", "[1, 2]", '{"correct": true}'):
        assert verdict(output) == "the last line is not a JSON result", output


@pytest.mark.parametrize(
    "workloads, code, named",
    [
        (["pass"], 0, []),
        (["pass", "pass"], 0, []),
        (["pass", "fail", "wrong"], 1, ["fail", "wrong"]),
        (["malformed", "pass"], 1, ["malformed"]),
        (["crash"], 1, ["crash"]),
    ],
)
def test_gate_runs_every_workload(workloads, code, named, tmp_path, capsys):
    """Every workload runs with the seed and seconds given and its output is
    echoed; the gate exits 1 when any run failed, naming each failed one,
    and a run that exits nonzero fails whatever it printed."""
    gate = _gate()
    gate.RUNNER = tmp_path / "run.py"
    gate.RUNNER.write_text(FAKE_RUNNER)
    assert gate.main(["--seed", "7", "--seconds", "3", *workloads]) == code
    out, err = capsys.readouterr()
    assert out.splitlines()[::2] == [f"{w} seed=7" for w in workloads]
    assert [line.split(":")[0] for line in err.splitlines()] == named
