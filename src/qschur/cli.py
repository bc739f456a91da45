"""Command-line interface: computation and verification with text/JSON output.

Exit codes: 0 all checks passed, 1 at least one mathematical mismatch,
2 usage error.  Results go to stdout; diagnostics and usage errors go to
stderr.  JSON output is one object per line with a fixed key order, so
parsing and re-serializing reproduces the bytes exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

from .determinant import (
    DIRECT_ORACLE_MAX_N,
    decompose,
    schur_finite,
    schur_finite_direct,
)
from .identities import rr_product_first, rr_product_second, verify_gis
from .reports import VerificationReport, compare_polys
from .schur import TooLargeError, schur_D, schur_E
from .series import LaurentPoly, QSeries

DEFAULT_VERIFY_ORDER = 200
DEFAULT_M_MIN = 0
DEFAULT_M_MAX = 10


def canonical_json(obj: dict) -> str:
    """Single-line JSON with a stable key order; round-trips byte-identically."""
    return json.dumps(obj, separators=(",", ":"))


def series_document(label: str, min_exp: int, order: int, coeffs) -> dict:
    """JSON document for a coefficient window; coefficients as decimal strings."""
    return {
        "label": label,
        "min_exp": min_exp,
        "order": order,
        "coeffs": [str(c) for c in coeffs],
    }


def poly_document(label: str, p: LaurentPoly) -> dict:
    return series_document(label, p.min_exp, p.degree, p.coeffs)


def qseries_document(label: str, s: QSeries) -> dict:
    return series_document(label, s.min_exp, s.order, s.coeffs)


def format_series_table(s: QSeries) -> str:
    """Aligned exponent/coefficient table, ascending exponents."""
    labels = [f"q^{e}" for e in range(s.min_exp, s.order + 1)]
    width = max(map(len, labels), default=0)
    return "\n".join(f"{lbl:<{width}}  {c}" for lbl, c in zip(labels, s.coeffs))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit_report(report: VerificationReport, fmt: str) -> None:
    if fmt == "json":
        print(canonical_json(report.to_json_obj()))
    else:
        print(report.to_text())


def cmd_verify(args: argparse.Namespace) -> int:
    if args.order < 0:
        return _usage_error("--order must be >= 0")
    if args.m_min < 0:
        return _usage_error("--m-min must be >= 0")
    if args.m_min > args.m_max:
        return _usage_error("--m-min must not exceed --m-max")
    # Descending m, so a shift refused for size is refused before any work.
    # Reports print ascending.
    reports = {
        m: verify_gis(m, args.order) for m in range(args.m_max, args.m_min - 1, -1)
    }
    any_failed = False
    for m in range(args.m_min, args.m_max + 1):
        _emit_report(reports[m], args.format)
        any_failed = any_failed or not reports[m].passed
    return 1 if any_failed else 0


def cmd_schur_poly(args: argparse.Namespace) -> int:
    if args.index < -2:
        return _usage_error("--index must be >= -2")
    poly = (schur_D if args.kind == "D" else schur_E)(args.index)
    if args.format == "json":
        print(canonical_json(poly_document(f"{args.kind}_{args.index}", poly)))
    else:
        print(poly)
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    if args.order < 0:
        return _usage_error("--order must be >= 0")
    series = (
        rr_product_first(args.order)
        if args.which == "rr1"
        else rr_product_second(args.order)
    )
    if args.format == "json":
        print(canonical_json(qseries_document(args.which, series)))
    else:
        print(format_series_table(series))
    return 0


def cmd_determinant(args: argparse.Namespace) -> int:
    if args.n < 0:
        return _usage_error("--n must be >= 0")
    if args.m < 0:
        return _usage_error("--m must be >= 0")
    # The decomposition reads the deepest tables, so it runs before anything
    # is printed.
    poly = schur_finite(args.n, args.m)
    decomposition = decompose(args.n, args.m) if args.check else None
    label = f"Schur_{args.n}(m={args.m})"
    if args.format == "json":
        print(canonical_json(poly_document(label, poly)))
    else:
        print(poly)
    if not args.check:
        return 0

    checks: list[VerificationReport] = []
    oracle_status = "skipped"
    if args.n <= DIRECT_ORACLE_MAX_N:
        direct = schur_finite_direct(args.n, args.m)
        oracle = compare_polys("oracle", {"n": args.n, "m": args.m}, poly, direct)
        checks.append(oracle)
        oracle_status = oracle.status
    else:
        print(
            f"notice: direct cofactor oracle skipped for n={args.n} > "
            f"{DIRECT_ORACLE_MAX_N}",
            file=sys.stderr,
        )
    checks.append(decomposition)

    if args.format == "json":
        for report in checks:
            print(canonical_json(report.to_json_obj()))
    else:
        print(f"oracle: {oracle_status}, decompose: {decomposition.status}")
    return 1 if any(not r.passed for r in checks) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description=(
            "Exact q-series toolkit: Schur polynomials, the Schur determinant, "
            "and coefficient-exact verification of the Garrett-Ismail-Stanton "
            "generalization of the Rogers-Ramanujan identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p_verify = sub.add_parser(
        "verify", help="verify the identity over a range of shifts m"
    )
    p_verify.add_argument("--m-min", type=int, default=DEFAULT_M_MIN)
    p_verify.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
    p_verify.add_argument(
        "--order", type=int, default=DEFAULT_VERIFY_ORDER, help="truncation order"
    )
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_poly = sub.add_parser("schur-poly", help="print a Schur polynomial")
    p_poly.add_argument("--kind", choices=("D", "E"), required=True)
    p_poly.add_argument("--index", type=int, required=True, help="index >= -2")
    add_format(p_poly)
    p_poly.set_defaults(func=cmd_schur_poly)

    p_product = sub.add_parser(
        "product", help="print a truncated Rogers-Ramanujan product"
    )
    p_product.add_argument("--which", choices=("rr1", "rr2"), required=True)
    p_product.add_argument("--order", type=int, required=True)
    add_format(p_product)
    p_product.set_defaults(func=cmd_product)

    p_det = sub.add_parser("determinant", help="print a finite Schur determinant")
    p_det.add_argument("--n", type=int, required=True, help="matrix size minus one")
    p_det.add_argument("--m", type=int, required=True, help="superdiagonal shift")
    p_det.add_argument(
        "--check",
        action="store_true",
        help="also run the cofactor oracle and the decomposition check",
    )
    add_format(p_det)
    p_det.set_defaults(func=cmd_determinant)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Every command computes all its results before it prints any of them, so
    a request refused for size (:class:`TooLargeError`) leaves stdout empty;
    it is reported here, once for all commands, as a usage error on stderr
    with exit 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
