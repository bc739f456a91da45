"""Packed digits: a coefficient list held as one big integer.

Coefficient ``i`` is the ``i``-th ``w``-byte digit, so a list ``c`` packs to
``sum(c_i * 2^(8 w i))``.  Balanced digits lie strictly inside
``+-2^(8w-1)``, so a negative coefficient borrows from the digit above it;
:func:`pack` and :func:`unpack` convert with one bias, ``2^(8w-1)`` in every
digit, which turns each digit into an unsigned field.  Unsigned digits, the
nonnegative coefficients of a recurrence-table entry, are also copied as
bytes: repacked to another width, or cut into byte planes for evaluation at
``+-2^(4s)``, whose square is ``s`` whole bytes.

This module is the package's only copy of the format, and is internal.

>>> value = pack([3, -1, 2], 1)
>>> value == 3 - 2**8 + 2 * 2**16
True
>>> unpack(value, 3, 1)
[3, -1, 2]
>>> decode(value, 1)
[3, -1, 2, 0]
>>> list(decode_chunks(value, 3, 1, 2))
[[3, -1], [2]]
"""

import re
from collections.abc import Iterator, Sequence
from itertools import repeat
from operator import add, sub

__all__: list[str] = []


def width(total: int) -> int:
    """Bytes per balanced digit for coefficients of magnitude at most ``total``:
    a sign bit more."""
    return (total.bit_length() + 8) // 8


def digits(value: int, w: int) -> int:
    """Digits of a nonnegative packed value whose top digit is not zero."""
    return -(-value.bit_length() // (8 * w))


def _bias(n: int, w: int) -> int:
    """``2^(8w-1)`` in each of ``n`` digits of ``w`` bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def pack(coeffs: Sequence[int], w: int) -> int:
    """``sum(c_i * 2^(8 w i))``, every ``|c_i| < half = 2^(8w-1)``."""
    half = 1 << (8 * w - 1)
    biased = b"".join(
        map(int.to_bytes, map(add, coeffs, repeat(half)), repeat(w), repeat("little"))
    )
    return int.from_bytes(biased, "little") - _bias(len(coeffs), w)


def unpack(value: int, length: int, w: int) -> list[int]:
    """The ``length`` balanced ``w``-byte digits of ``value``; undoes
    :func:`pack`.  A ``value`` with a nonzero digit above them raises
    :class:`OverflowError`."""
    return _split(_fields(value, length, w), w)


def _fields(value: int, length: int, w: int) -> bytes:
    """The ``length`` digits of ``value`` as unsigned ``w``-byte fields.

    Adding the bias to every digit leaves each as ``coefficient +
    2^(8w-1)``, with no carry between them.
    """
    return (value + _bias(length, w)).to_bytes(length * w, "little")


def _split(fields: bytes | memoryview, w: int) -> list[int]:
    """The balanced digits held in :func:`_fields`' unsigned fields."""
    split = re.findall(b".{%d}" % w, fields, re.DOTALL)  # the w-byte digits
    return list(
        map(sub, map(int.from_bytes, split, repeat("little")), repeat(1 << (8 * w - 1)))
    )


def _length(value: int, w: int) -> int:
    """Digits :func:`decode` gives: one more than the magnitude's, since a top
    digit may borrow."""
    return digits(abs(value), w) + 1


def decode(value: int, w: int) -> list[int]:
    """Every balanced ``w``-byte digit of ``value`` (:func:`_length`)."""
    return unpack(value, _length(value, w), w)


def decode_chunks(value: int, length: int, w: int, size: int) -> Iterator[list[int]]:
    """:func:`unpack` of ``value``, ``size`` digits at a time: its fields are
    made once, and each chunk is split from a view of them, so no more than
    one chunk of digits is held at once."""
    fields = memoryview(_fields(value, length, w))
    step = size * w
    return (_split(fields[i : i + step], w) for i in range(0, len(fields), step))


def decode_bytes(value: int, w: int, top: int) -> int:
    """A bound on the bytes :func:`decode` of ``value`` holds at its peak,
    from integers alone, for nonnegative digits none above ``top``, as a
    recurrence-table entry's are.

    :func:`unpack` holds, for each of its ``n`` digits: a byte of ``value``
    and of the biased fields for each of the ``w``; one ``w``-byte ``bytes``
    object of the split (33 bytes of header, and CPython's allocator rounds
    a small object up to 16 bytes); a slot of the split list and of the
    result list (8 bytes, and a list grown by appending over-allocates by
    about an eighth); and the coefficient, free when it is a cached small
    int (``0 <= c <= 256``) and otherwise at most ``28 + 4 ceil(b / 30)``
    bytes for ``b`` bits, rounded up.  Less is held at the other steps: at
    most ``5 w`` bytes per digit while biasing, before the split, and ``24 +
    w`` and the coefficient while a :class:`~qschur.series.LaurentPoly` is
    made from the list.
    """
    return _length(value, w) * _digit_bytes(w, top)


def _digit_bytes(w: int, top: int) -> int:
    """The bytes :func:`decode_bytes` counts for each digit."""
    big = 0 if top <= 256 else 44 + -(-2 * top.bit_length() // 15)
    return 66 + 3 * w + big


def chunks_bytes(value: int, w: int, top: int, size: int) -> int:
    """A bound on the bytes :func:`decode_chunks` of ``value``, ``size``
    digits at a time, holds at its peak, for digits as :func:`decode_bytes`
    takes them.

    For each of the ``n`` digits (:func:`_length`) it holds ``w`` bytes of
    ``value`` and, while its fields are made, of two of: the bias, the
    biased value, the fields.  An integer of ``b`` bits takes at most ``28
    + 4 ceil(b / 30)`` bytes, so the three take under ``4 w`` bytes a digit
    and three headers.  After, it holds ``value``, the fields and one chunk,
    whose digits :func:`decode_bytes` counts.  The generator, its views and
    the split's pattern and match state take under 4 KiB.  The caller's
    rendering of a chunk comes on top.
    """
    n = _length(value, w)
    return 4 * w * n + min(size, n) * _digit_bytes(w, top) + 4096


def to_bytes(value: int, w: int) -> bytes:
    """A packed entry's nonnegative ``w``-byte digits as little-endian bytes."""
    return value.to_bytes(digits(value, w) * w, "little")


def rewidth(value: int, w: int, to: int) -> int:
    """A packed entry repacked at ``to`` bytes per digit: its low ``min(w,
    to)`` byte planes (:func:`_planes`) written into ``to``-byte slots
    (:func:`_evaluate`).  Narrowing keeps the low ``to`` bytes of each digit,
    so every digit must fit them."""
    if w == to:
        return value
    return _evaluate(_planes(value, w, 1, min(w, to))[0], to)


def cut(value: int, w: int, bound: int) -> tuple[list[bytes], list[bytes]]:
    """The byte planes ``(even, odd)`` of a packed entry's nonnegative
    ``w``-byte digits, none above ``bound``: ``even[j]`` holds byte ``j`` of
    every even-indexed digit in order, for ``j < ceil(bits(bound) / 8) <=
    w``, and ``odd`` likewise.  :func:`to_bytes` of the entry is dropped once
    they exist; :func:`at_two_points` evaluates them at any radix."""
    return _planes(value, w, 2, -(-bound.bit_length() // 8))


def _planes(value: int, w: int, parts: int, size: int) -> tuple[list[bytes], ...]:
    """For each ``r < parts``, the low ``size`` byte planes of the digits
    whose index is ``r`` modulo ``parts``, cut from :func:`to_bytes` of a
    packed entry with one strided read each."""
    src, step = to_bytes(value, w), parts * w
    return tuple([src[r + j :: step] for j in range(size)] for r in range(0, step, w))


def at_two_points(planes: tuple[list[bytes], list[bytes]], s: int) -> tuple[int, int]:
    """``(A(Y), A(-Y))`` for ``Y = 2^(4s)``, so ``Y^2 = 2^(8s)`` for any ``s
    >= 1``, from :func:`cut` of ``A``: ``E +- Y O``, ``E`` and ``O`` the even
    and odd digits evaluated at ``Y^2`` (:func:`_evaluate`)."""
    even, odd = (_evaluate(half, s) for half in planes)
    odd <<= 4 * s
    return even + odd, even - odd


def _evaluate(planes: list[bytes], slot: int) -> int:
    """The digits whose byte planes are ``planes`` (:func:`_planes`)
    evaluated at ``2^(8 slot)``.

    The ``size`` planes fall into ``L = ceil(size / slot)`` groups of
    ``slot``.  Group ``r`` of every digit, written into ``slot``-byte slots,
    is one integer, and the value is the sum of the ``L`` of them shifted by
    ``8 slot r`` bits.  At ``slot >= size`` that is the digits packed at
    ``slot`` bytes.
    """
    value = 0
    for r in reversed(range(0, len(planes), slot)):
        out = bytearray(len(planes[0]) * slot)
        for j, plane in enumerate(planes[r : r + slot]):
            out[j::slot] = plane
        value = (value << 8 * slot) + int.from_bytes(out, "little")
    return value


def from_two_points(plus: int, minus: int, s: int) -> list[int]:
    """The coefficients of ``P`` with ``plus = P(Y)`` and ``minus = P(-Y)``,
    ``Y = 2^(4s)``, every one inside the balanced ``s``-byte range: the even
    and odd halves, the digits of ``P`` at ``Y^2 = 2^(8s)``, decoded and
    interleaved."""
    even = decode((plus + minus) >> 1, s)
    odd = decode((plus - minus) >> (4 * s + 1), s)
    coeffs = [0] * (2 * max(len(even), len(odd)))
    coeffs[: 2 * len(even) : 2], coeffs[1 : 2 * len(odd) : 2] = even, odd
    return coeffs
