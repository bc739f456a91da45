"""Long-lived library process for the products-warm workload.

Usage: ``python perfbench/warm.py [SPANS_PATH]``

Set-up imports qschur and builds ``D`` and ``E`` up to
``jobs.WARM_TABLE_INDEX``, then prints ``{"ready": true}``.  After that each
line on stdin is one job, ``{"kind": "wronskian", "m": 60}`` or
``{"kind": "decompose", "n": 100, "m": 25}``, answered by one line on stdout
with the seconds the library call took, its result, and the seconds that
``reference.calibrate`` took just before it in this process.  End of input
ends the process.  With ``SPANS_PATH`` the span wrappers are installed before
set-up (set-up spans carry job -1) and the spans are written there at exit.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import reference


def _answer(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def run_job(qschur, request: dict) -> dict:
    """Run one job; the reply carries only what the parent needs to check it."""
    calibration = reference.calibrate()
    if request["kind"] == "wronskian":
        start = perf_counter()
        poly = qschur.wronskian(request["m"])
        seconds = perf_counter() - start
        result = {"min_exp": poly.min_exp, "coeffs": [str(c) for c in poly.coeffs]}
    elif request["kind"] == "decompose":
        start = perf_counter()
        report = qschur.decompose(request["n"], request["m"])
        seconds = perf_counter() - start
        result = {"label": report.label, "params": dict(report.params),
                  "passed": report.passed}
    else:
        raise ValueError(f"unknown job kind {request['kind']!r}")
    return {"seconds": seconds, "calibration": calibration, "result": result}


def serve(spans_path: str | None, table_index: int) -> None:
    recorder = None
    if spans_path is not None:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    import qschur

    qschur.schur_D(table_index)
    qschur.schur_E(table_index)
    _answer({"ready": True})
    try:
        for line in sys.stdin:
            request = json.loads(line)
            if recorder is not None:
                recorder.job = request["job"]
            try:
                reply = run_job(qschur, request)
            except Exception as exc:  # a failed job is reported, not fatal
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            _answer(reply)
    finally:
        if recorder is not None:
            recorder.write(spans_path)


if __name__ == "__main__":
    from jobs import WARM_TABLE_INDEX

    serve(sys.argv[1] if len(sys.argv) > 1 else None, WARM_TABLE_INDEX)
