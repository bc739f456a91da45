"""Exact arithmetic for Laurent polynomials and truncated Laurent series in q.

Coefficients are plain Python integers, so all arithmetic is exact with
unbounded magnitude.  Two value types are provided:

* :class:`LaurentPoly` -- a finite Laurent polynomial, stored densely as a
  lowest exponent plus a coefficient tuple.  An exact ring element.
* :class:`QSeries` -- a Laurent series truncated at an inclusive ``order``:
  every coefficient of ``q^e`` with ``e <= order`` is exact, coefficients
  above ``order`` are unknown.

Both types are immutable and safe to share across threads.  The formal
variable q is never evaluated at a number; it exists only through exponents.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, repeat
from operator import add

from . import packed

__all__ = [
    "ONE",
    "Q",
    "LaurentPoly",
    "NotInvertibleError",
    "OrderTooHighError",
    "QSeries",
    "monomial",
    "poly_first_mismatch",
    "poly_to_series",
    "series_first_mismatch",
    "series_inverse",
]


class NotInvertibleError(ArithmeticError):
    """Series inversion requires the lowest known coefficient to be +1 or -1."""


class OrderTooHighError(ValueError):
    """A comparison was requested beyond the known truncation order."""


#: Nonzero coefficients the sparser operand of :func:`_convolve` needs before
#: the product goes through Kronecker substitution instead of the schoolbook
#: loop.  Set from the crossover table in ``CHANGES.md``.
KRONECKER_MIN_TERMS = 16


def _nonzero_count(coeffs: Sequence[int]) -> int:
    return len(coeffs) - coeffs.count(0)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The whole product of two non-empty coefficient lists, as a plain convolution.

    Two kernels compute the same exact result.  When the sparser operand has
    fewer than :data:`KRONECKER_MIN_TERMS` nonzero coefficients (monomials,
    short factors) the schoolbook loop runs, costing one slice-wise pass over
    the denser operand per nonzero term.  Otherwise :func:`_kronecker` packs
    both operands into big integers and lets CPython's Karatsuba multiply
    them.  Measured, Kronecker overtakes the loop at about 8 nonzero terms
    for coefficients of up to 100 bits, 12 at 128 bits and 16 to 24 at 256
    bits, whatever the length of the denser operand.  16 is the crossover at
    256 bits, and on 8 to 15 terms of narrower coefficients the loop takes
    at most about twice Kronecker's time.
    """
    na, nb = _nonzero_count(a), _nonzero_count(b)
    if min(na, nb) >= KRONECKER_MIN_TERMS:
        return _kronecker(a, b)
    return _schoolbook(b, a) if na > nb else _schoolbook(a, b)


def _schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution by one slice-wise pass over ``b`` per nonzero entry of ``a``.

    The inner loop is a list comprehension, the fastest pure-Python form; it
    is also the differential oracle for :func:`_kronecker`.
    """
    out = [0] * (len(a) + len(b) - 1)
    n = len(b)
    for i, ca in enumerate(a):
        if ca:
            out[i : i + n] = [u + ca * v for u, v in zip(out[i : i + n], b)]
    return out


def _kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolution by Kronecker substitution with balanced ``w``-byte digits.

    Each operand is evaluated at ``2^(8w)`` as one big integer, the two are
    multiplied once, and the product's digits are read back with the codec
    of :mod:`qschur.packed`.  A product coefficient is a sum of at most
    ``min(len(a), len(b))`` terms, each below ``2^(bits(a) + bits(b))`` in
    magnitude, and :func:`packed.width` sizes ``w`` for that bound.
    """
    w = packed.width(min(len(a), len(b)) << (_max_bits(a) + _max_bits(b)))
    return packed.unpack(packed.pack(a, w) * packed.pack(b, w), len(a) + len(b) - 1, w)


def _max_bits(coeffs: Sequence[int]) -> int:
    return max(max(coeffs), -min(coeffs)).bit_length()


class _Record:
    """Base of the immutable value types: the fields are the ``__slots__``.

    A subclass lists its fields in ``__slots__``, takes them positionally in
    that order, and sets them in ``__init__`` with ``object.__setattr__``.
    Instances are equal only to instances of the same class with equal
    fields, hash their fields, refuse assignment and deletion, pickle and
    copy by calling the class on their fields, and print as
    ``Name(field=value, ...)``.
    """

    __slots__ = ()

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


class LaurentPoly(_Record):
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
        if lo == hi:
            object.__setattr__(self, "min_exp", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "min_exp", min_exp + lo)
            object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            return LaurentPoly(self.min_exp, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly()
        out = _convolve(self.coeffs, other.coeffs)
        return LaurentPoly(self.min_exp + other.min_exp, out)

    __rmul__ = __mul__

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return _format_terms(self.min_exp, self.coeffs)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def _format_terms(min_exp: int, coeffs: Sequence[int]) -> str:
    """Sum notation, ascending exponents: ``1 + q + 2q^2``, ``q^-1 - q``."""
    parts: list[str] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        e = min_exp + i
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


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
    """Smallest ``e <= up_to`` where the coefficients differ, with both of them,
    from one scan of the two coefficient windows aligned at the lower start."""
    lo = min(a.min_exp, b.min_exp)
    aligned = zip(
        range(lo, up_to + 1),
        chain(repeat(0, a.min_exp - lo), a.coeffs, repeat(0)),
        chain(repeat(0, b.min_exp - lo), b.coeffs, repeat(0)),
    )
    for e, ca, cb in aligned:
        if ca != cb:
            return (e, ca, cb)
    return None


def poly_first_mismatch(
    a: LaurentPoly, b: LaurentPoly
) -> tuple[int, int, int] | None:
    """Smallest exponent where two polynomials differ, with both coefficients."""
    return None if a == b else _first_mismatch(a, b, max(a.degree, b.degree))


class QSeries(_Record):
    """A Laurent series truncated at an inclusive order.

    ``coeffs`` covers exponents ``min_exp .. order``; exponents below
    ``min_exp`` are exactly zero and exponents above ``order`` are unknown.
    Normalization strips leading zeros (raising ``min_exp``), so a nonzero
    series has ``coeffs[0] != 0``; the zero series has ``min_exp == order + 1``
    and an empty tuple.

    Every sum and product is the exact :class:`LaurentPoly` result of the
    known coefficients, cut at the highest order where it is still exact: the
    lower order for a sum, ``order + p.min_exp`` for a product with a
    polynomial ``p``.
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
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "min_exp", min_exp + lo)
        object.__setattr__(self, "coeffs", tuple(coeffs[lo:]))

    @classmethod
    def zero(cls, order: int) -> QSeries:
        """The zero series, known exactly up to ``order``."""
        return cls(order, order + 1, ())

    @classmethod
    def one(cls, order: int) -> QSeries:
        """The constant series 1, known exactly up to ``order``."""
        return poly_to_series(ONE, order)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (all known terms vanish)."""
        return not self.coeffs

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

    def __neg__(self) -> QSeries:
        return QSeries(self.order, self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: QSeries) -> QSeries:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: QSeries | LaurentPoly | int) -> QSeries:
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if isinstance(other, LaurentPoly):
            return self.times_poly(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        # Tightest sound truncation: a term q^(i+j) is exact only when both
        # factor windows cover it, i.e. i <= a.order and j <= b.order.
        return _product(
            self, other, min(self.order + other.min_exp, other.order + self.min_exp)
        )

    __rmul__ = __mul__

    def times_poly(self, p: LaurentPoly) -> QSeries:
        """Multiply by an exact polynomial.

        Unlike series-series multiplication, ``p`` is known at every order, so
        the result is exact up to ``order + p.min_exp``.
        """
        return _product(self, p, self.order + p.min_exp)

    def truncated(self, order: int) -> QSeries:
        """Restrict knowledge to a lower order (never extends)."""
        if order > self.order:
            raise OrderTooHighError(
                f"cannot extend a series of order {self.order} to {order}"
            )
        if order == self.order:
            return self
        keep = order - self.min_exp + 1
        if keep <= 0:
            return QSeries.zero(order)
        return QSeries(order, self.min_exp, self.coeffs[:keep])

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        terms = _format_terms(self.min_exp, self.coeffs)
        tail = f"O(q^{self.order + 1})"
        return tail if self.is_zero() else f"{terms} + {tail}"

    def __repr__(self) -> str:
        return f"QSeries('{self}')"


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


def divide_one_minus_qk(a: QSeries, k: int) -> QSeries:
    """Exact quotient a / (1 - q^k), k >= 1: a stride-k prefix sum.

    One O(N) pass of ``out[e] += out[e-k]``; ``a``'s window and order are kept.
    """
    if k < 1:
        raise ValueError(f"divide_one_minus_qk requires k >= 1, got {k}")
    out = list(a.coeffs)
    for i in range(k, len(out)):
        out[i] += out[i - k]
    return QSeries(a.order, a.min_exp, out)


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
