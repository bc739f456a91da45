"""Run benchmark workloads briefly and fail unless every run passed.

Each workload runs once as ``perfbench/run.py --workload W --seed S
--seconds T`` with its output echoed.  A run passes when it exits 0 and its
last line is a JSON result whose ``correct`` is true and whose ``failed``
is not above 0.  Stdlib only.

Usage: ``python3 tools/smoke_gate.py --seed S --seconds T WORKLOAD...``
exits 0 when every workload passed, else 1 after naming each one that did
not and why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def verdict(output: str) -> str | None:
    """None when the last line of a run's ``output`` is a passing result,
    else why it is not one."""
    try:
        result = json.loads(output.splitlines()[-1])
        correct, failed = result["correct"], result["failed"]
        passed = correct is True and not failed > 0
    except (IndexError, ValueError, TypeError, KeyError):
        return "the last line is not a JSON result"
    return None if passed else f"correct={correct}, failed={failed}"


def run(workload: str, seed: int, seconds: float) -> str | None:
    """Run one workload, echo its output, and return its :func:`verdict`,
    or the exit code it ended with if that was not 0."""
    argv = [sys.executable, str(RUNNER), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    print(done.stdout, end="", flush=True)
    return f"exit {done.returncode}" if done.returncode else verdict(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fail unless every workload passed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args(argv)
    failures = 0
    for workload in args.workloads:
        if why := run(workload, args.seed, args.seconds):
            print(f"{workload}: {why}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
