"""Command-line interface tests, run in-process except one module smoke test."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import schur
from qschur.cli import canonical_json, main
from qschur.determinant import schur_finite


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_rejected(capsys, *argv: str) -> tuple[int, str, str]:
    """``run_cli`` for a request the parser rejects: ``main`` exits through
    ``SystemExit``, whose code is returned."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


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
        code, out, err = run_rejected(
            capsys, "verify", "--m-min", "0", "--m-max", "0", "--order", "-1"
        )
        assert code == 2
        assert out == ""
        assert "argument --order: must be >= 0" in err

    def test_m_range_validation(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--m-min", "4", "--m-max", "2")
        assert (code, out) == (2, "")
        assert "m-min" in err
        code, out, err = run_rejected(capsys, "verify", "--m-min", "-1")
        assert (code, out) == (2, "")
        assert "argument --m-min: must be >= 0" in err

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
        code, out, err = run_rejected(
            capsys, "schur-poly", "--kind", "D", "--index", "-3"
        )
        assert (code, out) == (2, "")
        assert "argument --index: must be >= -2" in err

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
        code, out, err = run_rejected(
            capsys, "product", "--which", "rr1", "--order", "-2"
        )
        assert (code, out) == (2, "")
        assert "argument --order: must be >= 0" in err

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
        pair ``+-2^(4w)`` of :func:`schur._pair_width`, over the benchmark's
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
                d, e = schur._table("D"), schur._table("E")
                reads = ((e, m - 2), (d, n + m), (d, m - 2), (e, n + m))
                bound = schur._table("D", m)._sum(n)
                w = schur._pair_width(*(schur._read(*r) for r in reads), bound)
                assert calls == [w], (n, m)

    def test_one_shot_commands_read_each_table_at_its_top(
        self, capsys, fresh_tables, monkeypatch
    ):
        """On fresh tables, ``determinant --check`` at ``m = 0..8``,
        ``schur-poly`` and multi-shift ``verify`` read every table at its top:
        every walk starts at the table's top before it, and no table keeps a
        checkpoint."""
        walks = []
        walk = schur.RecurrenceTable._walk

        def spy(self, a, b, j, k, w):
            walks.append((self._top, j))
            return walk(self, a, b, j, k, w)

        monkeypatch.setattr(schur.RecurrenceTable, "_walk", spy)
        commands = [
            ("determinant", "--n", "120", "--m", str(m), "--check") for m in range(9)
        ]
        commands += [("schur-poly", "--kind", kind, "--index", "160") for kind in "DE"]
        commands += [
            ("verify", "--m-min", "0", "--m-max", "30", "--order", "40"),
            ("verify", "--m-min", "100", "--m-max", "103", "--order", "10"),
        ]
        for command in commands:
            fresh_tables()
            walks.clear()
            code, _out, _err = run_cli(capsys, *command, "--format", "json")
            assert code == 0, command
            assert walks and all(top == j for top, j in walks), command
            assert not any(t._checkpoints for t in schur._tables.values()), command

    def test_negative_arguments_rejected(self, capsys):
        code, out, err = run_rejected(capsys, "determinant", "--n", "-1", "--m", "0")
        assert (code, out) == (2, "")
        assert "argument --n: must be >= 0" in err
        code, out, err = run_rejected(capsys, "determinant", "--n", "0", "--m", "-1")
        assert (code, out) == (2, "")
        assert "argument --m: must be >= 0" in err


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


def _reader_closed(argv: list[str], after: int | None) -> tuple[int, str]:
    """``(exit code, stderr)`` of a fresh ``qschur`` process whose stdout's
    reader closes the pipe after ``after`` bytes, as ``| head -c after``
    does, or before the process starts when ``after`` is None."""
    command = [sys.executable, "-m", "qschur", *argv]
    if after is None:
        read, write = os.pipe()
        os.close(read)
        proc = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, timeout=60)
        os.close(write)
        return proc.returncode, proc.stderr.decode()
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert len(proc.stdout.read(after)) == after
        proc.stdout.close()
        err = proc.stderr.read().decode()
        return proc.wait(timeout=60), err


class TestClosedPipe:
    """A reader that closes stdout early gets exit 141 and no traceback,
    whichever write or flush meets the closed pipe; exit 1 would read as a
    mismatch."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["schur-poly", "--kind", "D", "--index", "300"],
            ["product", "--which", "rr1", "--order", "30000"],
            ["determinant", "--n", "300", "--m", "8", "--check"],
        ],
        ids=["schur-poly", "product", "determinant"],
    )
    def test_reader_closed_mid_output(self, argv, fmt):
        code, err = _reader_closed([*argv, "--format", fmt], 10)
        assert (code, err) == (141, "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_reader_closed_before_the_write(self, fmt):
        argv = ["verify", "--m-max", "2", "--order", "5", "--format", fmt]
        assert _reader_closed(argv, None) == (141, "")

    def test_codes_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "exit codes: 0 all checks passed, 1 a mathematical mismatch" in help_text
        assert "141 stdout closed early" in help_text


#: Each command's options: an integer option's ``(low, high, over)``, where
#: ``low..high`` is accepted and small, so an example takes milliseconds, and
#: ``over`` is refused for size; a choice option's choices; ``None`` for a
#: flag.
_GRAMMAR = {
    "verify": {
        "--m-min": (0, 4, 1000),
        "--m-max": (0, 6, 1000),
        "--order": (0, 40, 10**7),
    },
    "schur-poly": {"--kind": ["D", "E"], "--index": (-2, 40, 10**5)},
    "product": {"--which": ["rr1", "rr2"], "--order": (0, 60, 10**7)},
    "determinant": {"--n": (0, 20, 10**5), "--m": (0, 8, 10**9), "--check": None},
}

#: What an option gets: mostly a valid value, else one way to be wrong.
_KINDS = ["valid"] * 3 + ["absent", "below", "non-integer", "huge", "over budget"]


@st.composite
def _argv(draw, command: str) -> list[str]:
    """A command line for ``command`` from :data:`_GRAMMAR` and
    :data:`_KINDS`, then an output format, a bad one or none."""
    argv = [command]
    for option, values in _GRAMMAR[command].items():
        kind = draw(st.sampled_from(_KINDS))
        if kind == "absent":
            continue
        if values is None:
            argv.append(option)
        elif isinstance(values, list):
            wrong = kind == "non-integer"
            argv += [option, "F" if wrong else draw(st.sampled_from(values))]
        else:
            low, high, over = values
            value = {
                "valid": st.integers(low, high).map(str),
                "below": st.integers(low - 3, low - 1).map(str),
                "non-integer": st.sampled_from(["x", "1.5", "", "0x10", "1e3"]),
                "huge": st.sampled_from([str(10**20), str(-(10**20))]),
                "over budget": st.just(str(over)),
            }[kind]
            argv += [option, draw(value)]
    formats = [[], ["--format", "json"], ["--format", "text"], ["--format", "xml"]]
    return argv + draw(st.sampled_from(formats))


@pytest.mark.parametrize("command", sorted(_GRAMMAR))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_command_line_keeps_the_exit_code_contract(command, data):
    """Exit 0, 1 or 2, with no traceback, and stdout empty unless the code is
    0 or 1, for valid, negative, non-integer, huge and over-budget values.
    In process, an exception that escapes ``main`` fails the example, as its
    traceback would in a fresh process."""
    argv = data.draw(_argv(command))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert code in (0, 1) or out.getvalue() == "", argv


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
