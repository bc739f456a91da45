"""Slow reference computations used to check the library's fast paths.

The partition counters enumerate integer partitions recursively; no series
arithmetic is involved, so their values are independent of the code under
test.  :func:`recurrence_entries` runs the three-term recurrence in plain
:class:`LaurentPoly` arithmetic, with none of the packed tables.
:func:`poly_shifted` and :func:`poly_pow` build polynomials from the
library's addition and multiplication alone.  :func:`prefix_sum_product`
builds a Rogers-Ramanujan product factor by factor in one coefficient list,
divided in place by each ``1 - q^k``, with no pentagonal recurrence.
:func:`sum_side_by_terms` builds the sum side term by term into an
accumulator, with no Horner steps.  :func:`partition_numbers` runs Euler's
pentagonal recurrence for ``p(k)``, the bound under the Rogers-Ramanujan
products' coefficients.
:func:`casoratian_gis_rhs` assembles the product side of the identity from
the Casoratian form, with no ``lambda`` or ``mu``.  :func:`series_sum` and
:func:`series_product` add and multiply truncated series term by term, with
no coefficient windows.  :func:`series_inverse` inverts a series by solving
the convolution triangularly; it is the oracle for the library's one
division, ``divide_one_minus_qk``, a stride-``k`` prefix sum over a
coefficient list in place, and refuses a series whose lowest coefficient
is not a unit with :class:`NotInvertibleError`.
:func:`poly_document`, :func:`qseries_document` and
:func:`format_series_table` render a whole value at once, as the CLI once
did; they are the byte oracles of its chunked writers.
:func:`at_two_points` evaluates a packed table entry at ``+-2^(4s)`` by a
strided byte copy of its whole digits at every radix (:func:`restride`); it
is the oracle of the byte-plane evaluation in :mod:`qschur.packed`.
:func:`schoolbook` convolves two coefficient lists by one pass per term,
with no big-integer packing; it is the oracle of the library's multiply.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb
from operator import add

from qschur import packed
from qschur.identities import rr_product_first, rr_product_second
from qschur.schur import schur_D, schur_E
from qschur.series import ONE, LaurentPoly, QSeries, divide_one_minus_qk, monomial


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


def schoolbook(a: list[int], b: list[int]) -> list[int]:
    """The convolution of two non-empty coefficient lists: one slice-wise
    pass over ``b`` per nonzero entry of ``a``."""
    out = [0] * (len(a) + len(b) - 1)
    n = len(b)
    for i, ca in enumerate(a):
        if ca:
            out[i : i + n] = [u + ca * v for u, v in zip(out[i : i + n], b)]
    return out


def poly_shifted(p: LaurentPoly, k: int) -> LaurentPoly:
    """``q^k p``: every exponent moved by ``k``."""
    return LaurentPoly(p.min_exp + k, p.coeffs) if p.coeffs else p


def poly_pow(p: LaurentPoly, n: int) -> LaurentPoly:
    """``p^n`` for ``n >= 0`` by repeated squaring."""
    if n < 0:
        raise ValueError("negative powers of a general Laurent polynomial")
    result = ONE
    while n:
        if n & 1:
            result = result * p
        n >>= 1
        if n:
            p = p * p
    return result


def recurrence_entries(
    x0: LaurentPoly, x1: LaurentPoly, shift: int, n: int
) -> list[LaurentPoly]:
    """``X_0 .. X_n`` of ``X_k = X_{k-1} + q^(k+shift) X_{k-2}`` from ``X_0, X_1``."""
    entries = [x0, x1]
    for k in range(2, n + 1):
        entries.append(entries[k - 1] + poly_shifted(entries[k - 2], k + shift))
    return entries[: n + 1]


def prefix_sum_product(residues: set[int], order: int) -> QSeries:
    """Product of ``1/(1 - q^k)`` over ``k <= order`` with ``k % 5`` in
    ``residues``: one O(order) prefix sum per factor, O(order^2) in all."""
    coeffs = [1] + [0] * order
    for k in range(1, order + 1):
        if k % 5 in residues:
            divide_one_minus_qk(coeffs, k)
    return QSeries(order, 0, coeffs)


def sum_side_by_terms(m: int, order: int) -> QSeries:
    """``sum_n q^(n^2+mn) / (q;q)_n`` through ``q^order``, one term at a time:
    one list holds ``1/(q;q)_n``, cut to the window ``a_n`` needs and divided
    in place by ``1 - q^n``, and each term is added into an accumulator."""
    total = [0] * (order + 1)
    poch_inv = [1] + [0] * order  # 1/(q;q)_n through q^(order - low)
    n = 0
    while (low := n * n + m * n) <= order:
        if n:
            del poch_inv[order - low + 1 :]
            divide_one_minus_qk(poch_inv, n)
        total[low:] = map(add, total[low:], poch_inv)
        n += 1
    return QSeries(order, 0, total)


def casoratian_gis_rhs(m: int, order: int) -> QSeries:
    """``(-1)^m q^(-C(m, 2)) (E_{m-2} P1 - D_{m-2} P2)`` through ``order``: both
    products through ``order + C(m, 2)``, their difference shifted down."""
    shift = comb(m, 2)
    first = rr_product_first(order + shift) * schur_E(m - 2)
    second = rr_product_second(order + shift) * schur_D(m - 2)
    sign = -1 if m % 2 else 1
    return ((first - second) * monomial(sign, -shift)).truncated(order)


class NotInvertibleError(ArithmeticError):
    """Series inversion requires the lowest known coefficient to be +1 or -1."""


def series_inverse(a: QSeries) -> QSeries:
    """Multiplicative inverse of a series whose lowest coefficient is a unit.

    Writes ``a = u q^s (1 + higher terms)`` with ``u = +-1`` and solves the
    convolution triangularly.  The result has ``min_exp = -s`` and
    ``order = a.order - 2 s``, so ``a * inverse(a) == 1`` up to their common
    product order.
    """
    if a.is_zero():
        raise NotInvertibleError("the zero series has no inverse")
    unit = a.coeffs[0]
    if unit not in (1, -1):
        raise NotInvertibleError(
            f"lowest coefficient {unit} at q^{a.min_exp} is not a unit"
        )
    s = a.min_exp
    rel = a.coeffs  # relative coefficients, rel[0] = unit
    n = len(rel)  # a.order - s + 1 slots
    inv = [0] * n
    inv[0] = unit
    for k in range(1, n):
        acc = 0
        for j in range(1, k + 1):
            c = rel[j]
            if c:
                acc += c * inv[k - j]
        inv[k] = -unit * acc
    return QSeries(a.order - 2 * s, -s, inv)


def _terms(x: LaurentPoly | QSeries) -> dict[int, int]:
    """The known nonzero terms of ``x``, coefficient by exponent."""
    return {x.min_exp + i: c for i, c in enumerate(x.coeffs) if c}


def _series_from_terms(terms: dict[int, int], order: int) -> QSeries:
    """The series with these exact terms through ``q^order``; its ``min_exp``
    is the lowest exponent with a nonzero term, or ``order + 1``."""
    low = min((e for e, c in terms.items() if c and e <= order), default=order + 1)
    return QSeries(order, low, [terms.get(e, 0) for e in range(low, order + 1)])


def series_sum(a: QSeries, b: QSeries) -> QSeries:
    """``a + b`` term by term, known through the lower of the two orders."""
    terms: Counter[int] = Counter(_terms(a))
    terms.update(_terms(b))
    return _series_from_terms(terms, min(a.order, b.order))


def series_product(a: QSeries, b: QSeries | LaurentPoly | int) -> QSeries:
    """``a * b`` from every pair of terms.  The result is known through
    ``a.order`` for an integer ``b``, ``a.order + b.min_exp`` for a polynomial
    and ``min(a.order + b.min_exp, b.order + a.min_exp)`` for a series."""
    if isinstance(b, int):
        order, b = a.order, LaurentPoly(0, (b,))
    elif isinstance(b, LaurentPoly):
        order = a.order + b.min_exp
    else:
        order = min(a.order + b.min_exp, b.order + a.min_exp)
    terms: Counter[int] = Counter()
    for i, x in _terms(a).items():
        for j, y in _terms(b).items():
            terms[i + j] += x * y
    return _series_from_terms(terms, order)


@lru_cache(maxsize=None)
def partitions_max_part(n: int, k: int) -> int:
    """Number of partitions of ``n`` into parts each at most ``k``."""
    if n == 0:
        return 1
    if n < 0 or k <= 0:
        return 0
    return partitions_max_part(n - k, k) + partitions_max_part(n, k - 1)


def partition_numbers(n: int) -> list[int]:
    """``p(0), ..., p(n - 1)``, the partition numbers, by Euler's pentagonal
    recurrence ``p(k) = sum_{j >= 1} (-1)^(j+1) (p(k - j(3j-1)/2) + p(k -
    j(3j+1)/2))``, with ``p`` zero at negative arguments."""
    p = [1]
    for k in range(1, n):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
        p.append(total)
    return p[:n]


@lru_cache(maxsize=None)
def partitions_residue_parts(n: int, max_part: int, residues: frozenset[int]) -> int:
    """Partitions of ``n`` into parts ``<= max_part`` with part % 5 in ``residues``."""
    if n == 0:
        return 1
    if n < 0 or max_part <= 0:
        return 0
    without = partitions_residue_parts(n, max_part - 1, residues)
    if max_part % 5 in residues:
        return without + partitions_residue_parts(n - max_part, max_part, residues)
    return without


def rr_coefficients(residues: set[int], up_to: int) -> list[int]:
    """Coefficients of the product over (1-q^k)^-1, k % 5 in ``residues``."""
    frozen = frozenset(residues)
    return [partitions_residue_parts(n, n, frozen) for n in range(up_to + 1)]


def sum_side_coefficients(m: int, up_to: int) -> list[int]:
    """Coefficients of sum over n of q^(n^2+mn)/(q;q)_n, by partition counting.

    The coefficient of q^N in q^(n^2+mn)/(q;q)_n counts partitions of
    N - n^2 - mn into parts at most n.
    """
    out = []
    for big_n in range(up_to + 1):
        total = 0
        n = 0
        while n * n + m * n <= big_n:
            total += partitions_max_part(big_n - n * n - m * n, n)
            n += 1
        out.append(total)
    return out


def restride(src: bytes, w: int, to: int, step: int) -> list[int]:
    """The ``w``-byte digits of :func:`packed.to_bytes` cut into ``step``
    packed values at ``to`` bytes per digit by a strided byte copy: the
    ``r``-th holds digits ``r, r + step, r + 2 step, ...``.  Narrowing keeps
    the low ``to`` bytes of each digit, so every digit must fit them."""
    n = len(src) // w
    parts = []
    for r in range(step):
        out = bytearray(len(range(r, n, step)) * to)
        for i in range(min(w, to)):
            out[i::to] = src[r * w + i :: step * w]
        parts.append(int.from_bytes(out, "little"))
    return parts


def at_two_points(src: bytes, w: int, bound: int, s: int) -> tuple[int, int]:
    """``(A(Y), A(-Y))`` for ``Y = 2^(4s)`` from ``A``'s
    :func:`packed.to_bytes` at ``w`` bytes, no digit above ``bound``: ``E +-
    Y O``, ``E`` and ``O`` the even and odd digits evaluated at ``Y^2 =
    2^(8s)``.

    A digit takes ``size = width(bound)`` bytes.  When ``s >= size``, ``E``
    and ``O`` are the even and odd digits copied to ``s`` bytes each.  At a
    narrower ``s`` the digits overlap, so ``E`` is the sum over ``r < L =
    ceil(size / s)`` of the even digits ``i = r mod L`` at ``sL`` bytes,
    shifted by ``8 s r`` bits, and ``O`` likewise.  One strided byte copy at
    step ``2L`` gives all ``2L`` of them.
    """
    step = -(-packed.width(bound) // s)
    parts = restride(src, w, s * step, 2 * step)
    even, odd = parts[-2:]
    for r in range(step - 2, -1, -1):
        even = (even << 8 * s) + parts[2 * r]
        odd = (odd << 8 * s) + parts[2 * r + 1]
    odd <<= 4 * s
    return even + odd, even - odd
