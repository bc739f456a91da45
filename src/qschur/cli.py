"""Command-line interface: computation and verification with text/JSON output.

Exit codes: 0 all checks passed, 1 at least one mathematical mismatch, 2
usage error or a request refused for size, 141 (128 + SIGPIPE, as a shell
reports it) when the reader closes stdout before all of it is written; an
interrupt keeps Python's default.  Results go to stdout; diagnostics and
usage errors go to stderr.  JSON output is one object per line with a fixed
key order, so parsing and re-serializing reproduces the bytes exactly.  A
polynomial or series is written :data:`CHUNK_DIGITS` coefficients at a
time, a table entry's read straight from its packed digits, and the bytes
are those of rendering it whole.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import packed
from .determinant import (
    DIRECT_ORACLE_MAX_N,
    decompose,
    schur_finite,
    schur_finite_direct,
)
from .identities import _refuse_gis, rr_product_first, rr_product_second, verify_gis
from .reports import VerificationReport, compare_polys
from .schur import RecurrenceTable, TooLargeError, _check_budget, _table
from .series import _sum_notation

DEFAULT_VERIFY_ORDER = 200
DEFAULT_M_MIN = 0
DEFAULT_M_MAX = 10

#: Coefficients rendered at a time: output is written in pieces of at most
#: this many coefficients, so a polynomial or series is never held as text.
CHUNK_DIGITS = 2048


def canonical_json(obj: dict) -> str:
    """Single-line JSON with a stable key order; round-trips byte-identically."""
    return json.dumps(obj, separators=(",", ":"))


def _document(
    label: str, min_exp: int, order: int, chunks: Iterable[Sequence[int]]
) -> Iterator[str]:
    """:func:`canonical_json` of ``{"label", "min_exp", "order", "coeffs"}``, a
    coefficient window in non-empty ``chunks`` with each coefficient as a
    decimal string, in pieces: the head, then one piece per chunk."""
    head = {"label": label, "min_exp": min_exp, "order": order, "coeffs": []}
    yield canonical_json(head)[:-2]  # up to the opening bracket of "coeffs"
    sep = '"'
    for chunk in chunks:
        yield sep + '","'.join(map(str, chunk)) + '"'
        sep = ',"'
    yield "]}"


def _table_rows(
    min_exp: int, order: int, chunks: Iterable[Sequence[int]]
) -> Iterator[str]:
    """Aligned exponent/coefficient rows of a window, ascending exponents, one
    piece per non-empty chunk; the widest label is at an end of the window."""
    width = max(len(f"q^{min_exp}"), len(f"q^{order}"))
    sep = ""
    for chunk in chunks:
        rows = (f"{f'q^{e}':<{width}}  {c}" for e, c in enumerate(chunk, min_exp))
        yield sep + "\n".join(rows)
        min_exp += len(chunk)
        sep = "\n"


def _slices(coeffs: Sequence[int]) -> Iterator[Sequence[int]]:
    """``coeffs`` in chunks of :data:`CHUNK_DIGITS`."""
    size = CHUNK_DIGITS
    return (coeffs[i : i + size] for i in range(0, len(coeffs), size))


def _streamable(table: RecurrenceTable, k: int) -> tuple[int, int]:
    """:meth:`~qschur.schur.RecurrenceTable.packed` of ``k``, once what
    :func:`_entry_pieces` decodes of it at a time is known to fit the budget
    (:func:`packed.chunks_bytes`); raises :class:`TooLargeError` over budget,
    the table's or, before anything is unpacked, the streamed entry's."""
    value, w = table.packed(k)
    size = packed.chunks_bytes(value, w, table._sum(k), CHUNK_DIGITS)
    _check_budget(size, f"unpacking entry {k} of a recurrence table")
    return value, w


def _entry_pieces(label: str, entry: tuple[int, int], fmt: str) -> Iterator[str]:
    """Output pieces for a recurrence-table entry ``(value, w)``, its digits
    decoded a chunk at a time.  The digits of an entry are nonnegative and
    its constant term is 1 unless it is zero, so its window is ``q^0``
    through its top digit."""
    value, w = entry
    count = packed.digits(value, w)
    chunks = packed.decode_chunks(value, count, w, CHUNK_DIGITS)
    if fmt == "json":
        return _document(label, 0, count - 1, chunks)
    return _sum_notation(0, chunks)


def _write(pieces: Iterable[str]) -> None:
    """Write the pieces of one output line to stdout as they come."""
    sys.stdout.writelines(pieces)
    sys.stdout.write("\n")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit_report(report: VerificationReport, fmt: str) -> None:
    print(canonical_json(report.to_json_obj()) if fmt == "json" else report.to_text())


def cmd_verify(args: argparse.Namespace) -> int:
    if args.m_min > args.m_max:
        return _usage_error("--m-min must not exceed --m-max")
    _refuse_gis(args.m_max, args.order)  # covers every shift up to --m-max
    reports = [verify_gis(m, args.order) for m in range(args.m_min, args.m_max + 1)]
    for report in reports:
        _emit_report(report, args.format)
    return 0 if all(report.passed for report in reports) else 1


def cmd_schur_poly(args: argparse.Namespace) -> int:
    entry = _streamable(_table(args.kind), args.index)
    _write(_entry_pieces(f"{args.kind}_{args.index}", entry, args.format))
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    product = rr_product_first if args.which == "rr1" else rr_product_second
    series = product(args.order)
    chunks = _slices(series.coeffs)
    if args.format == "json":
        _write(_document(args.which, series.min_exp, series.order, chunks))
    else:
        _write(_table_rows(series.min_exp, series.order, chunks))
    return 0


def cmd_determinant(args: argparse.Namespace) -> int:
    # Every result is computed before the first write (see main).
    n, m, fmt = args.n, args.m, args.format
    entry = _streamable(_table("D", m), n)  # Schur_n, as schur_finite
    reports = [decompose(n, m)] if args.check else []
    oracle = args.check and n <= DIRECT_ORACLE_MAX_N
    if oracle:
        poly, direct = schur_finite(n, m), schur_finite_direct(n, m)
        reports.insert(0, compare_polys("oracle", {"n": n, "m": m}, poly, direct))
    _write(_entry_pieces(f"Schur_{n}(m={m})", entry, fmt))
    if args.check and not oracle:
        skipped = f"n={n} > {DIRECT_ORACLE_MAX_N}"
        print(f"notice: direct cofactor oracle skipped for {skipped}", file=sys.stderr)
    if fmt == "json":
        for report in reports:
            _emit_report(report, fmt)
    elif args.check:
        status = reports[0].status if oracle else "skipped"
        print(f"oracle: {status}, decompose: {reports[-1].status}")
    return 0 if all(report.passed for report in reports) else 1


def _int_ge(low: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer ``>= low``.  A value below it is a
    usage error that names the option; a non-integer still reads ``invalid
    int value``."""

    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description=(
            "Exact q-series toolkit: Schur polynomials, the Schur determinant, "
            "and coefficient-exact verification of the Garrett-Ismail-Stanton "
            "generalization of the Rogers-Ramanujan identities."
        ),
        epilog="exit codes: 0 all checks passed, 1 a mathematical mismatch, 2 a "
        "usage error or a request refused for size, 141 stdout closed early",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    natural = _int_ge(0)

    p_verify = sub.add_parser(
        "verify", help="verify the identity over a range of shifts m"
    )
    p_verify.add_argument("--m-min", type=natural, default=DEFAULT_M_MIN)
    p_verify.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
    p_verify.add_argument(
        "--order", type=natural, default=DEFAULT_VERIFY_ORDER, help="truncation order"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_poly = sub.add_parser("schur-poly", help="print a Schur polynomial")
    p_poly.add_argument("--kind", choices=("D", "E"), required=True)
    p_poly.add_argument("--index", type=_int_ge(-2), required=True, help="index >= -2")
    p_poly.set_defaults(func=cmd_schur_poly)

    p_product = sub.add_parser(
        "product", help="print a truncated Rogers-Ramanujan product"
    )
    p_product.add_argument("--which", choices=("rr1", "rr2"), required=True)
    p_product.add_argument("--order", type=natural, required=True)
    p_product.set_defaults(func=cmd_product)

    p_det = sub.add_parser("determinant", help="print a finite Schur determinant")
    p_det.add_argument("--n", type=natural, required=True, help="matrix size minus one")
    p_det.add_argument("--m", type=natural, required=True, help="superdiagonal shift")
    check = "also run the cofactor oracle and the decomposition check"
    p_det.add_argument("--check", action="store_true", help=check)
    p_det.set_defaults(func=cmd_determinant)

    for p in (p_verify, p_poly, p_product, p_det):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parser checks every option's range (:func:`_int_ge`) and exits 2
    itself, with its usage line, before any command runs.  Every command
    computes all its results before it prints any of them, so
    a request refused for size (:class:`TooLargeError`) leaves stdout empty;
    it is reported here, once for all commands, as a usage error on stderr
    with exit 2.  A reader that closes stdout early (``BrokenPipeError``,
    from a write or from the flush here) is also caught once: stdout is
    pointed at the null device, so the flush at exit cannot raise again,
    and the exit is 141 with no traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        print(end="", flush=True)  # flushes stdout, unless it was never open
    except TooLargeError as exc:
        return _usage_error(str(exc))
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
