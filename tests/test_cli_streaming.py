"""The CLI's chunked writers against the whole-value renderers they replaced.

Each writer is compared byte for byte with an oracle from
``tests/oracles.py`` that renders the whole value at once, at chunk sizes
that split small inputs many ways: coefficient lists of either sign, at and
around multiples of the chunk size, with zeros at either end, in balanced
digits of 1 to 3 bytes.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from collections.abc import Iterator
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import cli, packed, schur
from qschur.cli import canonical_json, main
from qschur.determinant import schur_finite
from qschur.identities import rr_product_first
from qschur.schur import schur_D, schur_E
from qschur.series import LaurentPoly, QSeries, _sum_notation

from .oracles import (
    format_series_table,
    poly_document,
    qseries_document,
    series_document,
)

SIZES = [1, 2, 7]


@st.composite
def windows(draw, size: int) -> tuple[int, int, list[int]]:
    """``(w, min_exp, coeffs)``: a length at or next to a multiple of
    ``size``, coefficients that fit balanced ``w``-byte digits, often zero."""
    w = draw(st.integers(1, 3))
    half = 1 << (8 * w - 1)
    length = max(0, size * draw(st.integers(0, 4)) + draw(st.integers(-1, 1)))
    coeff = st.one_of(st.just(0), st.integers(1 - half, half - 1))
    coeffs = draw(st.lists(coeff, min_size=length, max_size=length))
    return w, draw(st.integers(-12, 12)), coeffs


@contextmanager
def chunk_size(size: int) -> Iterator[None]:
    """:data:`cli.CHUNK_DIGITS` set to ``size``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CHUNK_DIGITS", size)
        yield


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=100)
@given(data=st.data())
def test_chunk_reader_is_decode(size, data):
    """A signed value read at :func:`packed.decode`'s length gives its digits,
    and a nonnegative entry read at :func:`packed.digits` gives its
    coefficients, up to its top nonzero one, ``size`` at a time."""
    w, _, coeffs = data.draw(windows(size))
    value = packed.pack(coeffs, w)
    entry = LaurentPoly(0, [abs(c) for c in coeffs]).coeffs
    entry_value = packed.pack(entry, w)
    for v, length, whole in (
        (value, packed._length(value, w), packed.decode(value, w)),
        (entry_value, packed.digits(entry_value, w), list(entry)),
    ):
        chunks = list(packed.decode_chunks(v, length, w, size))
        assert [d for chunk in chunks for d in chunk] == whole
        assert all(len(chunk) == size for chunk in chunks[:-1])
        assert (chunks == []) if length == 0 else (0 < len(chunks[-1]) <= size)


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=100)
@given(data=st.data())
def test_json_writer_is_canonical_json_of_the_document(size, data):
    """A window written from slices of its list, and a polynomial written
    from its packed digits, read to its length."""
    w, min_exp, coeffs = data.draw(windows(size))
    order = min_exp + len(coeffs) - 1
    with chunk_size(size):
        window = "".join(cli._document("s", min_exp, order, cli._slices(coeffs)))
    assert window == canonical_json(series_document("s", min_exp, order, coeffs))
    p = LaurentPoly(min_exp, coeffs)
    value = packed.pack(p.coeffs, w)
    chunks = packed.decode_chunks(value, len(p.coeffs), w, size)
    poly = "".join(cli._document("p", p.min_exp, p.degree, chunks))
    assert poly == canonical_json(poly_document("p", p))


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=100)
@given(data=st.data())
def test_sum_notation_is_str(size, data):
    """Every decoded digit is read, borrow digit and zeros at either end
    included, and only the nonzero ones are written."""
    w, min_exp, coeffs = data.draw(windows(size))
    value = packed.pack(coeffs, w)
    chunks = packed.decode_chunks(value, packed._length(value, w), w, size)
    text = "".join(_sum_notation(min_exp, chunks))
    assert text == str(LaurentPoly(min_exp, coeffs))


@pytest.mark.parametrize("size", SIZES)
@settings(max_examples=100)
@given(data=st.data())
def test_series_writers_are_the_oracles(size, data):
    """The ``q^e`` table and the JSON document of a series, the zero series
    and negative exponents included."""
    _, min_exp, coeffs = data.draw(windows(size))
    s = QSeries(min_exp + len(coeffs) - 1, min_exp, coeffs)
    with chunk_size(size):
        rows = "".join(cli._table_rows(s.min_exp, s.order, cli._slices(s.coeffs)))
        doc = "".join(cli._document("r", s.min_exp, s.order, cli._slices(s.coeffs)))
    assert rows == format_series_table(s)
    assert doc == canonical_json(qseries_document("r", s))


def _run(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "kind, index, text, coeffs",
    [
        ("D", -2, "0", []),
        ("D", -1, "1", ["1"]),
        ("D", 0, "1", ["1"]),
        ("E", -2, "1", ["1"]),
        ("E", -1, "0", []),
        ("E", 0, "1", ["1"]),
    ],
)
def test_extended_indices(kind, index, text, coeffs, capsys):
    """The zero polynomial is the window ``0..-1``, with no coefficient."""
    label, poly = f"{kind}_{index}", (schur_D if kind == "D" else schur_E)(index)
    doc = {"label": label, "min_exp": 0, "order": len(coeffs) - 1, "coeffs": coeffs}
    assert poly_document(label, poly) == doc and str(poly) == text
    args = ("schur-poly", "--kind", kind, "--index", str(index))
    assert _run(capsys, *args) == text + "\n"
    assert _run(capsys, *args, "--format", "json") == canonical_json(doc) + "\n"


@pytest.mark.parametrize("size", SIZES)
def test_commands_match_the_oracles(size, capsys, monkeypatch):
    """``schur-poly``, ``determinant`` and ``product`` in both formats, over
    windows of 1 to a few hundred coefficients."""
    monkeypatch.setattr(cli, "CHUNK_DIGITS", size)
    for kind, poly_of in (("D", schur_D), ("E", schur_E)):
        for k in range(-2, 30):
            poly = poly_of(k)
            args = ("schur-poly", "--kind", kind, "--index", str(k))
            assert _run(capsys, *args) == f"{poly}\n"
            json_line = canonical_json(poly_document(f"{kind}_{k}", poly))
            assert _run(capsys, *args, "--format", "json") == json_line + "\n"
    for n in range(0, 13, 3):
        for m in (0, 3):
            poly = schur_finite(n, m)
            args = ("determinant", "--n", str(n), "--m", str(m))
            assert _run(capsys, *args) == f"{poly}\n"
            json_line = canonical_json(poly_document(f"Schur_{n}(m={m})", poly))
            assert _run(capsys, *args, "--format", "json") == json_line + "\n"
    for order in (0, 1, 6, 7, 8, 13, 14, 15):
        s = rr_product_first(order)
        args = ("product", "--which", "rr1", "--order", str(order))
        assert _run(capsys, *args) == format_series_table(s) + "\n"
        json_line = canonical_json(qseries_document("rr1", s))
        assert _run(capsys, *args, "--format", "json") == json_line + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rendering_holds_a_bounded_multiple_of_the_packed_entry(
    fmt, fresh_tables, monkeypatch
):
    """``determinant --n 1 --m 10^6`` writes ``1 + q^(m+1)``, in JSON ``10^6
    + 2`` coefficients (about 4 MB), to a sink that discards them.  Its
    traced peak, build included, is three times the packed entry, at 1 byte
    a digit (its coefficients sum to 2), plus a bound independent
    of ``m``: the entry, its biased fields and one transient of the bias add
    while they are made.  Decoding the entry whole takes about 69 bytes a
    coefficient, 69 times the entry."""
    m = 10**6
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["determinant", "--n", "1", "--m", str(m), "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    entry = sys.getsizeof(schur._table("D", m).packed(1)[0])
    assert peak <= 3 * entry + (1 << 20)
