"""Command-line interface tests, run in-process except one module smoke test."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from qschur import schur
from qschur.cli import canonical_json, main
from qschur.determinant import schur_finite


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_refused_fast(*argv: str) -> None:
    """A fresh ``qschur`` process exits 2 within a second, stdout empty."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qschur", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "bytes" in proc.stderr
    assert elapsed < 1.0


class TestVerifyCommand:
    def test_classical_range_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--m-min", "0", "--m-max", "1", "--order", "50"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "gis m=0 order=50: pass",
            "gis m=1 order=50: pass",
        ]

    def test_negative_order_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--m-min", "0", "--m-max", "0", "--order", "-1"
        )
        assert code == 2
        assert out == ""
        assert "order" in err

    def test_m_range_validation(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--m-min", "4", "--m-max", "2")
        assert code == 2
        assert "m-min" in err
        code, _, err = run_cli(capsys, "verify", "--m-min", "-1")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--m-min", "3", "--m-max", "3", "--order", "100",
            "--format", "json",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj == {
            "label": "gis",
            "params": {"m": 3, "order": 100},
            "status": "pass",
        }


class TestSchurPolyCommand:
    def test_initial_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "schur-poly", "--kind", "D", "--index", "1")
        assert code == 0
        assert out.strip() == "1 + q"

    def test_backward_extension(self, capsys):
        code, out, _ = run_cli(capsys, "schur-poly", "--kind", "E", "--index", "-1")
        assert code == 0
        assert out.strip() == "0"

    def test_two_recursion_steps(self, capsys):
        code, out, _ = run_cli(capsys, "schur-poly", "--kind", "D", "--index", "3")
        assert code == 0
        assert out.strip() == "1 + q + q^2 + q^3 + q^4"

    def test_index_below_extension(self, capsys):
        code, _, err = run_cli(capsys, "schur-poly", "--kind", "D", "--index", "-3")
        assert code == 2
        assert "index" in err

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "schur-poly", "--kind", "E", "--index", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "label": "E_2",
            "min_exp": 0,
            "order": 2,
            "coeffs": ["1", "0", "1"],
        }


    def test_over_budget_index_refused_fast(self):
        """A fresh process refuses from the size estimate, before building."""
        _assert_refused_fast("schur-poly", "--kind", "D", "--index", "100000")


class TestVerifyRefusal:
    def test_over_budget_shift_refused_fast(self):
        """A fresh process refuses m = 1000 (it needs ``D_998``) from the
        table size estimate, before any series is built."""
        _assert_refused_fast(
            "verify", "--m-min", "1000", "--m-max", "1000", "--order", "10"
        )

    def test_over_budget_order_refused_fast(self):
        """A fresh process refuses order 3 * 10^6 at m = 0 from the size bound
        on the product's coefficient list, before building any series."""
        _assert_refused_fast("verify", "--m-max", "0", "--order", "3000000")

    def test_refusal_prints_no_report_of_smaller_shifts(self, capsys, fresh_tables):
        code, out, err = run_cli(
            capsys, "verify", "--m-min", "0", "--m-max", "439", "--order", "5"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "index 437" in err


class TestProductCommand:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "product", "--which", "rr1", "--order", "7")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 8
        coeffs = [int(row.split()[-1]) for row in rows]
        assert coeffs == [1, 1, 1, 1, 2, 2, 3, 3]
        assert rows[0].startswith("q^0")

    def test_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "product", "--which", "rr2", "--order", "0")
        assert code == 0
        assert out.strip().split() == ["q^0", "1"]

    def test_json_document_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "product", "--which", "rr2", "--order", "6", "--format", "json"
        )
        assert code == 0
        line = out.strip()
        obj = json.loads(line)
        assert obj == {
            "label": "rr2",
            "min_exp": 0,
            "order": 6,
            "coeffs": ["1", "0", "1", "1", "1", "1", "2"],
        }
        assert canonical_json(obj) == line

    def test_negative_order_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "product", "--which", "rr1", "--order", "-2")
        assert code == 2
        assert "order" in err

    def test_over_budget_order_refused_fast(self):
        """A fresh process refuses order 10^7 from the size bound on the
        coefficient list, before building any coefficient."""
        _assert_refused_fast("product", "--which", "rr1", "--order", "10000000")


class TestDeterminantCommand:
    def test_smallest_determinants(self, capsys):
        code, out, _ = run_cli(capsys, "determinant", "--n", "1", "--m", "3")
        assert code == 0
        assert out.strip() == "1 + q^4"
        code, out, _ = run_cli(capsys, "determinant", "--n", "0", "--m", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_check_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "determinant", "--n", "6", "--m", "2", "--check"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == str(schur_finite(6, 2))
        assert lines[0].startswith("1 + q^3 + q^4")
        assert lines[1] == "oracle: pass, decompose: pass"
        assert err == ""

    def test_check_above_oracle_cap_skips_oracle(self, capsys):
        code, out, err = run_cli(
            capsys, "determinant", "--n", "15", "--m", "0", "--check"
        )
        assert code == 0
        assert "oracle: skipped, decompose: pass" in out
        assert "skipped" in err

    def test_check_json_reports(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "determinant", "--n", "4", "--m", "1", "--check", "--format", "json",
        )
        assert code == 0
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(objs) == 3
        assert objs[0]["label"] == "Schur_4(m=1)"
        assert objs[1] == {
            "label": "oracle",
            "params": {"n": 4, "m": 1},
            "status": "pass",
        }
        assert objs[2] == {
            "label": "decomposition",
            "params": {"n": 4, "m": 1},
            "status": "pass",
        }

    def test_check_at_small_shifts_evaluates_at_one_pair(
        self, capsys, fresh_tables, monkeypatch
    ):
        """``--check`` at ``m <= 8`` compares the decomposition at the one
        pair ``+-2^(8h)`` of :func:`schur._half_width`, over the benchmark's
        ``determinant`` sizes."""
        calls = []
        cross = schur._packed_cross

        def spy(*args):
            calls.append(args[-1])
            return cross(*args)

        monkeypatch.setattr(schur, "_packed_cross", spy)
        for m in range(9):
            for n in (100, 125, 150):
                calls.clear()
                code, out, _ = run_cli(
                    capsys, "determinant", "--n", str(n), "--m", str(m), "--check"
                )
                assert code == 0 and out.endswith("decompose: pass\n"), (n, m)
                d, e = schur._table(0, 1), schur._table(1, 0)
                reads = ((e, m - 2), (d, n + m), (d, m - 2), (e, n + m))
                bound = schur._table(0, 1, m)._sum(n)
                h = schur._half_width(*(schur._read(*r) for r in reads), bound)
                assert calls == [h], (n, m)

    def test_one_shot_commands_read_each_table_at_its_top(
        self, capsys, fresh_tables, monkeypatch
    ):
        """On fresh tables, ``determinant --check`` at ``m = 0..8`` and
        ``schur-poly`` read every table at its top: no walk goes down more
        than half the checkpoint spacing, and no table keeps a checkpoint."""
        walks = []
        walk = schur.RecurrenceTable._walk

        def spy(self, a, b, j, k, w):
            walks.append((j, k))
            return walk(self, a, b, j, k, w)

        monkeypatch.setattr(schur.RecurrenceTable, "_walk", spy)
        commands = [
            ("determinant", "--n", "120", "--m", str(m), "--check") for m in range(9)
        ]
        commands += [("schur-poly", "--kind", kind, "--index", "160") for kind in "DE"]
        for command in commands:
            fresh_tables()
            walks.clear()
            code, _out, _err = run_cli(capsys, *command, "--format", "json")
            assert code == 0, command
            down = [j - k for j, k in walks if k < j]
            assert max(down, default=0) <= schur.CHECKPOINT_SPACING // 2, command
            assert not any(t._checkpoints for t in schur._tables.values()), command

    def test_negative_arguments_rejected(self, capsys):
        assert run_cli(capsys, "determinant", "--n", "-1", "--m", "0")[0] == 2
        assert run_cli(capsys, "determinant", "--n", "0", "--m", "-1")[0] == 2


    def test_over_budget_refused_with_empty_stdout(self, capsys, fresh_tables):
        code, out, err = run_cli(capsys, "determinant", "--n", "100000", "--m", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        # Schur_10 itself is small; the decomposition needs D_2010 and E_2010.
        code, out, err = run_cli(
            capsys, "determinant", "--n", "10", "--m", "2000", "--check"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestParserBehavior:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schur-poly", "--kind", "D"])
        assert exc.value.code == 2

    def test_bad_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["product", "--which", "rr3", "--order", "4"])
        assert exc.value.code == 2


class TestJsonDeterminism:
    def test_reports_roundtrip_byte_identical(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--m-min", "0", "--m-max", "2", "--order", "40",
            "--format", "json",
        )
        assert code == 0
        for line in out.strip().splitlines():
            assert canonical_json(json.loads(line)) == line

    def test_repeated_runs_identical(self, capsys):
        args = ("product", "--which", "rr1", "--order", "15", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qschur", "verify", "--m-max", "1", "--order", "30"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "gis m=0 order=30: pass",
        "gis m=1 order=30: pass",
    ]
