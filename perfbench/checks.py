"""Independent output checks, one per job kind.

Each check returns None when the output is right and a one-line reason when
it is not.  None of them calls qschur: they rest on facts the benchmark
derives itself (Fibonacci sums, the degree recurrence, the closed form of the
Wronskian) and on the CLI's documented output format.
"""

from __future__ import annotations

import json
from math import comb

from jobs import Job, finite_degree, schur_degree


def fibonacci(k: int) -> int:
    """``F_k`` with ``F_1 = F_2 = 1``."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def check_cold(job: Job, exit_code: int, stdout: str, stderr: str) -> str | None:
    """Check one fresh-interpreter CLI job by its exit code and output."""
    if exit_code != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit code {exit_code}: {tail[0]}"
    try:
        if job.kind == "verify":
            return _check_verify(job, stdout)
        if job.kind == "schur-poly":
            return _check_schur_poly(job, stdout)
        if job.kind == "determinant":
            return _check_determinant(job, stdout, stderr)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return f"unknown job kind {job.kind}"


def _check_verify(job: Job, stdout: str) -> str | None:
    order = job.arg("order")
    want = "".join(
        f"gis m={m} order={order}: pass\n" for m in range(job.arg("m_max") + 1)
    )
    if stdout != want:
        return "verify output is not one pass line per shift"
    return None


def _check_polynomial(doc: dict, label: str, degree: int, fib_index: int) -> str | None:
    """A Schur-family polynomial: label, window, no negative coefficient, sum."""
    if doc["label"] != label:
        return f"label {doc['label']!r} != {label!r}"
    if doc["min_exp"] != 0 or doc["order"] != degree:
        return f"window {doc['min_exp']}..{doc['order']} != 0..{degree}"
    coeffs = [int(c) for c in doc["coeffs"]]
    if len(coeffs) != degree + 1:
        return f"{len(coeffs)} coefficients for degree {degree}"
    if coeffs[0] <= 0 or coeffs[-1] <= 0 or min(coeffs) < 0:
        return "a coefficient is negative or an end coefficient is not positive"
    if sum(coeffs) != fibonacci(fib_index):
        return f"coefficient sum is not F_{fib_index}"
    return None


def _check_schur_poly(job: Job, stdout: str) -> str | None:
    kind, index = job.arg("kind"), job.arg("index")
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} output lines, want 1"
    # D_K sums to F_{K+2} and E_K to F_{K+1}: both obey the Fibonacci recursion at q = 1.
    fib_index = index + 2 if kind == "D" else index + 1
    return _check_polynomial(
        json.loads(lines[0]), f"{kind}_{index}", schur_degree(kind, index), fib_index
    )


#: Largest n for which ``determinant --check`` runs the cofactor oracle.
ORACLE_MAX_N = 14


def _check_determinant(job: Job, stdout: str, stderr: str) -> str | None:
    n, m = job.arg("n"), job.arg("m")
    lines = stdout.splitlines()
    want_lines = 3 if n <= ORACLE_MAX_N else 2
    if len(lines) != want_lines:
        return f"{len(lines)} output lines, want {want_lines}"
    bad = _check_polynomial(
        json.loads(lines[0]), f"Schur_{n}(m={m})", finite_degree(n, m), n + 2
    )
    if bad:
        return bad
    reports = [json.loads(line) for line in lines[1:]]
    labels = ["oracle", "decomposition"] if n <= ORACLE_MAX_N else ["decomposition"]
    for report, label in zip(reports, labels):
        want = {"label": label, "params": {"n": n, "m": m}, "status": "pass"}
        if report != want:
            return f"{label} report is {report}"
    if n > ORACLE_MAX_N and "oracle skipped" not in stderr:
        return "no notice that the cofactor oracle was skipped"
    return None


def check_wronskian(job: Job, min_exp: int, coeffs: list[str]) -> str | None:
    """``wronskian(m)`` must be exactly ``(-1)^m q^C(m+1, 2)``."""
    m = job.arg("m")
    want = (comb(m + 1, 2), [str(-1 if m % 2 else 1)])
    if (min_exp, coeffs) != want:
        return f"wronskian({m}) is not (-1)^{m} q^{want[0]}"
    return None


def check_decompose(job: Job, report: dict) -> str | None:
    """``decompose(n, m)`` must report a pass for exactly its arguments."""
    want = {
        "label": "decomposition",
        "params": {"n": job.arg("n"), "m": job.arg("m")},
        "passed": True,
    }
    if report != want:
        return f"decompose report is {report}"
    return None
