"""Exact arithmetic for Laurent polynomials and truncated Laurent series in q.

Coefficients are plain Python integers, so all arithmetic is exact with
unbounded magnitude.  Two value types are provided:

* :class:`LaurentPoly` -- a finite Laurent polynomial, stored densely as a
  lowest exponent plus a coefficient tuple.  An exact ring element.
* :class:`QSeries` -- a Laurent series truncated at an inclusive ``order``:
  every coefficient of ``q^e`` with ``e <= order`` is exact, coefficients
  above ``order`` are unknown.

Both types are immutable and safe to share across threads.  They are
records (``_Record``, which the reports of :mod:`qschur.reports` share) on
one private base, which writes ``is_zero``, negation, subtraction and
``repr`` once for both.  A series is cut at an order in one place: every
sum, product and :meth:`QSeries.truncated` is :func:`poly_to_series` of the
exact polynomial of the known terms.  Every product of two polynomials
is one multiply: a one-term factor scales the other, and any other pair is
multiplied as two big integers by Kronecker substitution, in the digit
format of :mod:`qschur.packed`.  The formal variable q is never evaluated
at a number; it exists only through exponents.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate
from operator import add

from . import packed

__all__ = [
    "ONE",
    "Q",
    "LaurentPoly",
    "OrderTooHighError",
    "QSeries",
    "monomial",
    "poly_first_mismatch",
    "poly_to_series",
    "series_first_mismatch",
]


class OrderTooHighError(ValueError):
    """A comparison was requested beyond the known truncation order."""


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The whole product of two non-empty coefficient lists, as a plain convolution.

    A one-term operand (a monomial's coefficient) scales the other, one
    multiply per coefficient.  Every other product goes through
    :func:`_kronecker`.
    """
    if len(a) == 1 or len(b) == 1:
        scale, other = (a[0], b) if len(a) == 1 else (b[0], a)
        return [scale * c for c in other]
    return _kronecker(a, b)


def _kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution by Kronecker substitution with balanced ``w``-byte digits.

    Each operand is evaluated at ``2^(8w)`` as one big integer, the two are
    multiplied once, and the product's digits are read back with the codec
    of :mod:`qschur.packed`.  A product coefficient is a sum of at most
    ``min(len(a), len(b))`` terms, each below ``2^(bits(a) + bits(b))`` in
    magnitude, and :func:`packed.width` sizes ``w`` for that bound.  A zero
    coefficient takes its digit like any other, so the cost follows the
    operands' lengths, not their nonzero counts.
    """
    w = packed.width(min(len(a), len(b)) << (_max_bits(a) + _max_bits(b)))
    return packed.unpack(packed.pack(a, w) * packed.pack(b, w), len(a) + len(b) - 1, w)


def _max_bits(coeffs: Sequence[int]) -> int:
    return max(max(coeffs), -min(coeffs)).bit_length()


class _Record:
    """Base of the immutable value types: the fields are the ``__slots__``.

    A subclass lists its fields in ``__slots__``, takes them positionally in
    that order, and sets them in ``__init__`` with one :meth:`_set` call.
    Instances are equal only to instances of the same class with equal
    fields, hash their fields, refuse assignment and deletion, pickle and
    copy by calling the class on their fields, and print as
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        """Set every field, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class _Coefficients(_Record):
    """Base of :class:`LaurentPoly` and :class:`QSeries`, whose last field is
    the coefficient tuple ``coeffs``: the operations the two write alike.

    Negation rebuilds the class with every coefficient negated.  Subtraction
    adds the negation of an ``int`` or of either type, so it takes exactly
    what ``+`` takes.  ``repr`` is ``Name('<str>')``.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (all known terms vanish)."""
        return not self.coeffs

    def __neg__(self) -> _Coefficients:
        return self.__class__(*self._values()[:-1], tuple(-c for c in self.coeffs))

    def __sub__(self, other: int | _Coefficients) -> _Coefficients:
        if not isinstance(other, (int, _Coefficients)):
            return NotImplemented
        return self + (-other)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}('{self}')"


class LaurentPoly(_Coefficients):
    """A Laurent polynomial over the integers.

    ``coeffs[i]`` is the coefficient of ``q^(min_exp + i)``.  Instances are
    normalized on construction: a nonzero polynomial has nonzero first and
    last coefficients, and the zero polynomial is ``(0, ())``.

    >>> LaurentPoly(0, (1, 1))
    LaurentPoly('1 + q')
    >>> LaurentPoly(-1, (0, 0, 3))
    LaurentPoly('3q')
    >>> LaurentPoly(2, (0,))
    LaurentPoly('0')
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs: Sequence[int] = ()):
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        self._set(min_exp + lo if lo < hi else 0, tuple(coeffs[lo:hi]))

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Highest exponent with a nonzero coefficient (-1 + min_exp if zero)."""
        return self.min_exp + len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        """The exact coefficient of ``q^exponent``."""
        i = exponent - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    # -- ring operations --------------------------------------------------

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low, high = (self, other) if self.min_exp <= other.min_exp else (other, self)
        out = list(low.coeffs)
        start = high.min_exp - low.min_exp
        end = start + len(high.coeffs)
        out.extend([0] * (end - len(out)))
        out[start:end] = map(add, out[start:end], high.coeffs)
        return LaurentPoly(low.min_exp, out)

    __radd__ = __add__

    def __rsub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly()
        out = _convolve(self.coeffs, other.coeffs)
        return LaurentPoly(self.min_exp + other.min_exp, out)

    __rmul__ = __mul__

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return "".join(_sum_notation(self.min_exp, (self.coeffs,)))


def _sum_notation(min_exp: int, chunks: Iterable[Sequence[int]]) -> Iterator[str]:
    """Sum notation, ascending exponents, for the coefficients of ``q^min_exp``
    upward read from ``chunks``: one string per chunk, which joined read
    ``1 + q + 2q^2`` or ``q^-1 - q``, then ``0`` if every coefficient was zero."""
    first = True
    for chunk in chunks:
        parts: list[str] = []
        for e, c in enumerate(chunk, min_exp):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if first:
                parts.append(body if c > 0 else f"-{body}")
                first = False
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        min_exp += len(chunk)
        yield "".join(parts)
    if first:
        yield "0"


#: The formal variable q as a polynomial, for building expressions in code.
Q = LaurentPoly(1, (1,))

#: The constant polynomial 1.
ONE = LaurentPoly(0, (1,))


def monomial(c: int, k: int) -> LaurentPoly:
    """The monomial ``c * q^k`` (the zero polynomial when ``c == 0``)."""
    return LaurentPoly(k, (c,))


def _first_mismatch(
    a: LaurentPoly | QSeries, b: LaurentPoly | QSeries, up_to: int
) -> tuple[int, int, int] | None:
    """Smallest ``e <= up_to`` where the coefficients differ, with both of them.

    The cuts at ``q^up_to`` are normalized, so when they start apart the
    lower start is the first difference.  When they start together, halving
    their aligned coefficient tuples with ``==`` finds the first index ``lo``
    where they differ or the shorter one ends; the first difference is the
    lowest term of the two tails from ``lo``, which is ``lo`` itself unless
    one cut is a prefix of the other, and then the lowest term of the longer
    one's tail."""
    a, b = _through(a, up_to), _through(b, up_to)
    if a == b:
        return None
    lo, hi = 0, max(len(a.coeffs), len(b.coeffs))
    while a.min_exp == b.min_exp and hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if a.coeffs[lo:mid] == b.coeffs[lo:mid] else (lo, mid)
    tails = [LaurentPoly(p.min_exp + lo, p.coeffs[lo:]) for p in (a, b)]
    e = min(t.min_exp for t in tails if t.coeffs)
    return (e, a.coefficient(e), b.coefficient(e))


def poly_first_mismatch(
    a: LaurentPoly, b: LaurentPoly
) -> tuple[int, int, int] | None:
    """Smallest exponent where two polynomials differ, with both coefficients."""
    return _first_mismatch(a, b, max(a.degree, b.degree))


class QSeries(_Coefficients):
    """A Laurent series truncated at an inclusive order.

    ``coeffs`` covers exponents ``min_exp .. order``; exponents below
    ``min_exp`` are exactly zero and exponents above ``order`` are unknown.
    Normalization strips leading zeros (raising ``min_exp``), so a nonzero
    series has ``coeffs[0] != 0``; the zero series has ``min_exp == order + 1``
    and an empty tuple.

    Every sum and product is the exact :class:`LaurentPoly` result of the
    known coefficients, cut at the highest order where it is still exact: the
    lower order for a sum, ``order + p.min_exp`` for a product with a
    polynomial ``p`` (an integer is the constant polynomial), which is known
    at every order, and ``min(order + b.min_exp, b.order + min_exp)`` for a
    product with a series ``b``.  ``*`` is the one product for all three.
    """

    __slots__ = ("order", "min_exp", "coeffs")

    def __init__(self, order: int, min_exp: int, coeffs: Sequence[int] = ()):
        if len(coeffs) != order - min_exp + 1:
            raise ValueError(
                f"coefficient window mismatch: {len(coeffs)} entries for "
                f"exponents {min_exp}..{order}"
            )
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        self._set(order, min_exp + lo, tuple(coeffs[lo:]))

    @classmethod
    def zero(cls, order: int) -> QSeries:
        """The zero series, known exactly up to ``order``."""
        return cls(order, order + 1, ())

    @classmethod
    def one(cls, order: int) -> QSeries:
        """The constant series 1, known exactly up to ``order``."""
        return poly_to_series(ONE, order)

    # -- queries ----------------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        """The coefficient of ``q^exponent``; requires ``exponent <= order``."""
        if exponent > self.order:
            raise OrderTooHighError(
                f"coefficient of q^{exponent} unknown beyond order {self.order}"
            )
        i = exponent - self.min_exp
        return self.coeffs[i] if i >= 0 else 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return poly_to_series(_through(self, order) + _through(other, order), order)

    def __mul__(self, other: QSeries | LaurentPoly | int) -> QSeries:
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if isinstance(other, LaurentPoly):
            return _product(self, other, self.order + other.min_exp)
        if not isinstance(other, QSeries):
            return NotImplemented
        # Tightest sound truncation: a term q^(i+j) is exact only when both
        # factor windows cover it, i.e. i <= a.order and j <= b.order.
        return _product(
            self, other, min(self.order + other.min_exp, other.order + self.min_exp)
        )

    __rmul__ = __mul__

    def truncated(self, order: int) -> QSeries:
        """Restrict knowledge to a lower order (never extends): the same cut
        as every sum and product."""
        if order > self.order:
            raise OrderTooHighError(
                f"cannot extend a series of order {self.order} to {order}"
            )
        return poly_to_series(_through(self, order), order)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        terms = "".join(_sum_notation(self.min_exp, (self.coeffs,)))
        tail = f"O(q^{self.order + 1})"
        return tail if self.is_zero() else f"{terms} + {tail}"


def poly_to_series(a: LaurentPoly, order: int) -> QSeries:
    """Truncate an exact polynomial at ``order`` (terms above are discarded)."""
    if a.is_zero() or a.min_exp > order:
        return QSeries.zero(order)
    window = a.coeffs[: order - a.min_exp + 1]
    pad = (order - a.min_exp + 1) - len(window)
    return QSeries(order, a.min_exp, window + (0,) * pad)


def _through(a: LaurentPoly | QSeries, top: int) -> LaurentPoly:
    """The exact polynomial of ``a``'s known coefficients up to ``q^top``."""
    return LaurentPoly(a.min_exp, a.coeffs[: max(0, top - a.min_exp + 1)])


def _product(a: QSeries, b: LaurentPoly | QSeries, order: int) -> QSeries:
    """``a * b`` through ``order``: a term of either factor counts only if the
    other factor's lowest term lifts it no higher than ``order``."""
    return poly_to_series(
        _through(a, order - b.min_exp) * _through(b, order - a.min_exp), order
    )


def divide_one_minus_qk(coeffs: list[int], k: int) -> None:
    """Divide a coefficient window by ``1 - q^k``, k >= 1, in place: a
    stride-k prefix sum, ``c[e] += c[e-k]`` from the bottom up.

    Each coefficient keeps its exponent, and the window its length.
    """
    if k < 1:
        raise ValueError(f"divide_one_minus_qk requires k >= 1, got {k}")
    for r in range(min(k, len(coeffs))):
        coeffs[r::k] = accumulate(coeffs[r::k])


def series_first_mismatch(
    a: QSeries, b: QSeries, up_to: int
) -> tuple[int, int, int] | None:
    """Smallest exponent ``e <= up_to`` where the coefficients differ.

    Returns ``(e, a_coeff, b_coeff)``, or None when the series agree on every
    exponent up to ``up_to``.
    """
    if up_to > min(a.order, b.order):
        raise OrderTooHighError(
            f"comparison up to q^{up_to} exceeds known orders "
            f"({a.order}, {b.order})"
        )
    return _first_mismatch(a, b, up_to)
