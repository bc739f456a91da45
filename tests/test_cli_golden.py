"""Golden CLI output: commands in fresh processes, pinned by digest.

Each command's exit code and the SHA-256 of its stdout and of its stderr
were recorded from an earlier implementation: the first four from the
one-point packed products that preceded the two-point ones, the rest from
the CLI that rendered each polynomial and series whole before writing it
in chunks.  Any change to what the CLI prints, or how it exits, fails
here.  A digest records the bytes, not the text, so a mismatch says only
that the output changed: rerun the command to see how.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    (
        "determinant --n 150 --m 8 --check --format json",
        0,
        "e0702aa9b383e759fdb2248492eab538a33de25658b3d63effe1ec8c3fd51be7",
        "413e1f10547cd2e1e91a79d57e5761078a49765f6ef78cb46f0ed98fcc3dfd8d",
    ),
    (
        "determinant --n 12 --m 3 --check",
        0,
        "1351c716e05cd322026d24bdd44d63ddb8cf6e6098bf3c6188dcbba3f498914d",
        EMPTY,
    ),
    (
        "schur-poly --kind E --index 210 --format json",
        0,
        "e0ef3678e3d35aa6fa1a8e485812d08a2684db00ee7b2872b90917c69fcc260e",
        EMPTY,
    ),
    (
        "verify --m-max 14 --order 160 --format json",
        0,
        "ea639203c86c2dd2e102f4cfa05bce54ee323d979e1201f94dfa5a6dd92869af",
        EMPTY,
    ),
    (
        "schur-poly --kind D --index 400 --format json",
        0,
        "972894c68a40a2a63233b5b18719dfa796cb27710a242387d8b905bf0d151ec6",
        EMPTY,
    ),
    (
        "determinant --n 300 --m 8 --check --format json",
        0,
        "550b942df7eafc21b05c923c9c45e3a868b4c3ee44fe9a755fa8c1a243b6e4b4",
        "eb7fcdc7b9262cbbb7491faef5e3be2762f9204c68cba0c319cf137313aa7187",
    ),
    (
        "schur-poly --kind D --index 210",
        0,
        "9d2b0b32f1e9e5cce0ce4436b4237b255d6efe1ecdb833ea0b0b8813c9af7727",
        EMPTY,
    ),
    (
        "determinant --n 150 --m 8 --check",
        0,
        "be973bbfc8d4338af53bc090bb89a002590d9b0bb962312a55bb47da44852728",
        "413e1f10547cd2e1e91a79d57e5761078a49765f6ef78cb46f0ed98fcc3dfd8d",
    ),
    (
        "product --which rr1 --order 3000",
        0,
        "1b6fe8a2899ac7feccb0b1ac5cd33a054863db257599a0e8b6ceb75ca6f86811",
        EMPTY,
    ),
    (
        "product --which rr1 --order 3000 --format json",
        0,
        "148b107a34ba873f949331cebe8ec3143f6b34fd77bc2c5bdb0ea93aeb7dfdab",
        EMPTY,
    ),
]


@pytest.mark.parametrize(
    "command, code, stdout_sha, stderr_sha", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_output_matches_golden_digest(command, code, stdout_sha, stderr_sha):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "qschur", *command.split()],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == stdout_sha
    assert hashlib.sha256(proc.stderr).hexdigest() == stderr_sha
