"""Packed digits: a coefficient list held as one big integer.

Coefficient ``i`` is the ``i``-th ``w``-byte digit, so a list ``c`` packs to
``sum(c_i * 2^(8 w i))``.  Balanced digits lie strictly inside
``+-2^(8w-1)``, so a negative coefficient borrows from the digit above it;
:func:`pack` and :func:`unpack` convert with one bias, ``2^(8w-1)`` in every
digit, which turns each digit into an unsigned field.  Unsigned digits, the
nonnegative coefficients of a recurrence-table entry, are also copied as
bytes: repacked to another width, or split for evaluation at ``+-2^(8h)``.

This module is the package's only copy of the format, and is internal.

>>> value = pack([3, -1, 2], 1)
>>> value == 3 - 2**8 + 2 * 2**16
True
>>> unpack(value, 3, 1)
[3, -1, 2]
>>> decode(value, 1)
[3, -1, 2, 0]
"""

import re
from collections.abc import Sequence
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
    """The low ``length`` balanced ``w``-byte digits of ``value``; undoes :func:`pack`.

    Adding the bias to the low ``length`` digits and masking off the rest
    leaves each digit as ``coefficient + 2^(8w-1)``, with no carry between
    them, whatever digits ``value`` has above them.
    """
    size = length * w
    fields = ((value + _bias(length, w)) & ((1 << (8 * size)) - 1)).to_bytes(
        size, "little"
    )
    split = re.findall(b".{%d}" % w, fields, re.DOTALL)  # the w-byte digits
    return list(
        map(sub, map(int.from_bytes, split, repeat("little")), repeat(1 << (8 * w - 1)))
    )


def decode(value: int, w: int) -> list[int]:
    """Every balanced ``w``-byte digit of ``value``: one digit more than the
    magnitude's, since a top digit may borrow."""
    return unpack(value, digits(abs(value), w) + 1, w)


def to_bytes(value: int, w: int) -> bytes:
    """A packed entry's nonnegative ``w``-byte digits as little-endian bytes."""
    return value.to_bytes(digits(value, w) * w, "little")


def restride(src: bytes, w: int, to: int, step: int = 1) -> list[int]:
    """The ``w``-byte digits of :func:`to_bytes` cut into ``step`` packed
    values at ``to`` bytes per digit by a strided byte copy: the ``r``-th
    holds digits ``r, r + step, r + 2 step, ...``.  Narrowing keeps the low
    ``to`` bytes of each digit, so every digit must fit them."""
    n = len(src) // w
    parts = []
    for r in range(step):
        out = bytearray(len(range(r, n, step)) * to)
        for i in range(min(w, to)):
            out[i::to] = src[r * w + i :: step * w]
        parts.append(int.from_bytes(out, "little"))
    return parts


def rewidth(value: int, w: int, to: int) -> int:
    """A packed entry repacked at ``to`` bytes per digit (:func:`restride`)."""
    return value if w == to else restride(to_bytes(value, w), w, to)[0]


def at_two_points(src: bytes, w: int, bound: int, h: int) -> tuple[int, int]:
    """``(A(X), A(-X))`` for ``X = 2^(8h)`` from ``A``'s :func:`to_bytes` at
    ``w`` bytes, no digit above ``bound``: ``E +- X O``, ``E`` and ``O`` the
    even and odd digits evaluated at ``X^2``.

    A digit takes ``size = width(bound)`` bytes.  When ``2h >= size``, ``E``
    and ``O`` are the even and odd digits copied to ``2h`` bytes each.  At a
    narrower ``2h`` the digits overlap, so ``E`` is the sum over ``r < L =
    ceil(size / 2h)`` of the even digits ``i = r mod L`` at ``2hL`` bytes,
    shifted by ``16 h r`` bits, and ``O`` likewise.  One strided byte copy at
    step ``2L`` gives all ``2L`` of them.
    """
    step = -(-width(bound) // (2 * h))
    parts = restride(src, w, 2 * h * step, 2 * step)
    even, odd = parts[-2:]
    for r in range(step - 2, -1, -1):
        even = (even << 16 * h) + parts[2 * r]
        odd = (odd << 16 * h) + parts[2 * r + 1]
    odd <<= 8 * h
    return even + odd, even - odd


def from_two_points(plus: int, minus: int, h: int) -> list[int]:
    """The coefficients of ``P`` with ``plus = P(X)`` and ``minus = P(-X)``,
    ``X = 2^(8h)``, every one inside the balanced ``2h``-byte range: the
    even and odd halves decoded and interleaved."""
    even = decode((plus + minus) >> 1, 2 * h)
    odd = decode((plus - minus) >> (8 * h + 1), 2 * h)
    coeffs = [0] * (2 * max(len(even), len(odd)))
    coeffs[: 2 * len(even) : 2], coeffs[1 : 2 * len(odd) : 2] = even, odd
    return coeffs
