"""The two Schur polynomial families and their decomposition coefficients.

Both families satisfy the three-term recursion ``X_m = X_{m-1} + q^m X_{m-2}``
and differ only in their initial values:

* ``D_0 = 1``, ``D_1 = 1 + q``
* ``E_0 = 1``, ``E_1 = 1``

Running the recursion backward, ``X_{m-2} = (X_m - X_{m-1}) q^{-m}``, forces
``D_{-1} = 1, D_{-2} = 0`` and ``E_{-1} = 0, E_{-2} = 1``; indices down to -2
are supported everywhere.  The Casoratian of the two solutions,
``D_{m-1} E_m - D_m E_{m-1}``, collapses to the signed monomial
``(-1)^m q^(binomial(m+1, 2))``, which is what makes the closed forms for the
decomposition coefficients ``lambda`` and ``mu`` possible.
"""

from __future__ import annotations

import enum
import threading
from math import comb

from . import packed
from .series import LaurentPoly, monomial

__all__ = [
    "TooLargeError",
    "SchurKind",
    "schur_polynomial",
    "schur_D",
    "schur_E",
    "wronskian",
    "lambda_coeff",
    "mu_coeff",
]


class SchurKind(enum.Enum):
    """Which of the two initial-value choices a Schur polynomial uses."""

    D = "D"
    E = "E"


class TooLargeError(ValueError):
    """A request past a fixed size bound: a recurrence table or a
    Rogers-Ramanujan product's coefficient list over
    :data:`TABLE_BUDGET_BYTES`, or the direct determinant oracle past its cap."""


#: Bytes of packed entries one recurrence table may hold.  A request whose
#: table would need more is refused with :class:`TooLargeError` before any
#: entry is built; ``D_400`` needs about 189 MB, ``D_1000`` about 7.3 GB.
TABLE_BUDGET_BYTES = 1 << 28


def _check_budget(size: int, what: str) -> None:
    """Refuse ``what``, which needs ``size`` bytes, over the budget with
    :class:`TooLargeError`."""
    if size > TABLE_BUDGET_BYTES:
        raise TooLargeError(f"{what} needs more than {TABLE_BUDGET_BYTES} bytes")


#: A read that walks down keeps the packed pair ``(X_{j-1}, X_j)`` at every
#: ``j`` divisible by this that it passes, so once the checkpoints around an
#: entry are held, a read rebuilds it in at most half this many steps.
CHECKPOINT_SPACING = 16

#: Recurrence tables kept at once, ``D`` and ``E`` included; the least
#: recently read goes.
TABLES_MAX = 8


class RecurrenceTable:
    """``X_k = X_{k-1} + q^(k+shift) X_{k-2}`` from constants ``X_{-2}, X_{-1}``.

    Each entry is built as one big integer, its coefficients packed as the
    ``w``-byte digits of :mod:`qschur.packed`, so a step is one shift and
    one add on integers: ``b + (a << 8*w*(k+shift))``.  No coefficient is
    negative, so none exceeds the coefficient sum ``S_k``, which follows the
    same recurrence at ``q = 1``; ``w`` for every entry through a target
    index is therefore known before the build.

    A build walks the frontier pair ``(X_{top-1}, X_top)`` up and keeps
    nothing else; the frontier is repacked when a request needs a wider
    ``w``.  A table read only at its top therefore holds that one pair.
    Below the top, the checkpoints ``(X_{j-1}, X_j, w)`` at multiples ``j``
    of :data:`CHECKPOINT_SPACING` are a cache that reads fill.  A read walks
    from the nearest pair held: up from the checkpoint at or below it, or
    down from the lowest checkpoint above it or from the frontier.  Walking
    down, it keeps each checkpoint it passes, and walks on to the checkpoint
    at or below it when that one is not held yet.  Each kept pair is
    repacked to the width of its own segment, :meth:`_width_through`, which
    covers every entry up to the next checkpoint.

    A step down undoes a step up: ``X_{i-2} = (X_i - X_{i-1}) q^-(i+shift)``.
    It is exact at the pair's width.  Both entries fit it, so the packed
    difference is the packed ``q^(i+shift) X_{i-2}``, whose digits below
    ``i + shift`` are all zero, and the shift right drops only those.

    Builds, the choice of the starting pair and the keeping of checkpoints
    run under one lock, and the first pair kept at a ``j`` stays; walks,
    repacks and unpacks run outside it.
    """

    def __init__(self, x_minus2: int, x_minus1: int, shift: int = 0):
        self._initial = (x_minus2, x_minus1)
        self._shift = shift
        self._w = 1
        self._top = -1
        self._frontier = self._initial  # (X_{top-1}, X_top), packed at _w
        self._checkpoints: dict[int, tuple[int, int, int]] = {}  # j: (X_{j-1}, X_j, w)
        self._lock = threading.Lock()

    def packed(self, k: int) -> tuple[int, int]:
        """``(value, w)``: ``X_k`` packed as the ``w``-byte digits of ``value``,
        for ``k >= -2``; raises :class:`TooLargeError` over budget."""
        if k < -2:
            raise IndexError(f"Schur polynomial index must be >= -2, got {k}")
        if k < 0:
            return self._initial[k + 2], 1
        low = k - k % CHECKPOINT_SPACING  # the checkpoint at or below k
        with self._lock:
            if k > self._top:
                self._extend(k)
            held = self._checkpoints
            j = min((i for i in held if i > k), default=self._top)
            a, b, w = held[j] if j in held else (*self._frontier, self._w)
            if low in held and k - low <= j - k:
                (a, b, w), j = held[low], low
            bottom = k if low in held else low
        if j <= k:
            return self._walk(a, b, j, k, w)[1], w
        return self._walk_down(a, b, j, k, bottom, w)

    def entry(self, k: int) -> LaurentPoly:
        """``X_k`` for ``k >= -2``; raises :class:`TooLargeError` over budget."""
        return LaurentPoly(0, packed.decode(*self.packed(k)))

    def _sum(self, k: int) -> int:
        """``S_k = X_k(1)``, which bounds every coefficient of ``X_k``: the sum
        recurrence ``S_k = S_{k-1} + S_{k-2}`` from the initial constants."""
        s2, s1 = self._initial
        for _ in range(k + 2):
            s2, s1 = s1, s1 + s2
        return s2

    def footprint(self, n: int) -> int:
        """``sum(len_k) * w`` over ``k = -2..n``: bytes of the entries packed
        at the width ``n`` needs, a bound on the packed values the table holds.

        Computed from integer recurrences alone.  Nothing cancels, so the
        digit count is ``len_k = max(len_{k-1}, k + shift + len_{k-2})`` (0
        for a zero entry), and ``S_k = S_{k-1} + S_{k-2}``.  Once the entries
        so far exceed :data:`TABLE_BUDGET_BYTES` at their own width the scan
        stops and returns that count, which is above the budget too.
        """
        (s2, s1), shift = self._initial, self._shift
        l2, l1 = int(s2 > 0), int(s1 > 0)  # a constant has one digit, zero none
        total = l2 + l1
        for k in range(n + 1):
            s2, s1 = s1, s1 + s2
            l2, l1 = l1, max(l1, k + shift + l2 if l2 else 0)
            total += l1
            if total * packed.width(s1) > TABLE_BUDGET_BYTES:
                break
        return total * packed.width(s1)

    def _width_through(self, n: int) -> int:
        """``w`` for every entry up to the checkpoint after ``n``."""
        top = n - n % CHECKPOINT_SPACING + CHECKPOINT_SPACING - 1
        return packed.width(self._sum(top))

    def _walk(self, a: int, b: int, j: int, k: int, w: int) -> tuple[int, int]:
        """Step the pair ``(X_{j-1}, X_j)``, packed at ``w``, up or down to
        ``(X_{k-1}, X_k)``."""
        bits, shift = 8 * w, self._shift
        for i in range(j + 1, k + 1):
            a, b = b, b + (a << bits * (i + shift))
        for i in range(j, k, -1):
            a, b = (b - a) >> bits * (i + shift), a
        return a, b

    def _walk_down(
        self, a: int, b: int, j: int, k: int, bottom: int, w: int
    ) -> tuple[int, int]:
        """``(value, w)`` of ``X_k``, walked down from the pair ``(X_{j-1},
        X_j)`` packed at ``w`` and on to ``bottom <= k``.  The pair at every
        checkpoint below ``j`` and at or above ``bottom`` is repacked to its
        segment's width, the walk goes on from it, and it is kept unless a
        pair is held there already."""
        spacing, kept = CHECKPOINT_SPACING, []
        stops = range(j - 1 - (j - 1) % spacing, bottom - 1, -spacing)
        for stop in sorted({k, *stops}, reverse=True):
            a, b = self._walk(a, b, j, stop, w)
            j = stop
            if stop % spacing == 0:
                to = self._width_through(stop)
                a, b, w = packed.rewidth(a, w, to), packed.rewidth(b, w, to), to
                kept.append((stop, (a, b, w)))
            if stop == k:
                value = b, w
        with self._lock:
            for i, pair in kept:
                if i not in self._checkpoints:
                    self._checkpoints[i] = pair
        return value

    def _extend(self, n: int) -> None:
        """Repack the frontier at the width every entry through ``n`` needs
        (:func:`packed.rewidth` keeps it when that is its width) and walk it
        up to ``n``; caller holds the lock."""
        _check_budget(self.footprint(n), f"a recurrence table through index {n}")
        w = self._width_through(n)
        a, b = (packed.rewidth(x, self._w, w) for x in self._frontier)
        self._frontier = self._walk(a, b, self._top, n, w)
        self._w = w
        self._top = n


_tables: dict[tuple[int, int, int], RecurrenceTable] = {}  # in order of last use
_tables_lock = threading.Lock()


def _table(x_minus2: int, x_minus1: int, shift: int = 0) -> RecurrenceTable:
    """The table with these constants and shift, now the most recently used of
    at most :data:`TABLES_MAX`.

    ``D`` is ``(0, 1, 0)``, ``E`` is ``(1, 0, 0)`` and ``Schur_n`` for shift
    ``m`` is ``(0, 1, m)``, so ``Schur_n`` at ``m = 0`` is ``D``'s table.
    """
    key = (x_minus2, x_minus1, shift)
    with _tables_lock:
        table = _tables.pop(key, None) or RecurrenceTable(*key)
        _tables[key] = table
        if len(_tables) > TABLES_MAX:
            del _tables[next(iter(_tables))]
    return table


_INITIAL = {SchurKind.D: (0, 1), SchurKind.E: (1, 0)}  # X_{-2}, X_{-1}


def schur_polynomial(kind: SchurKind, m: int) -> LaurentPoly:
    """The Schur polynomial of the given family at index ``m >= -2``."""
    return _table(*_INITIAL[kind]).entry(m)


def schur_D(m: int) -> LaurentPoly:
    """``D_m``: recursion ``D_m = D_{m-1} + q^m D_{m-2}`` from ``D_0=1, D_1=1+q``."""
    return schur_polynomial(SchurKind.D, m)


def schur_E(m: int) -> LaurentPoly:
    """``E_m``: same recursion from ``E_0 = E_1 = 1``."""
    return schur_polynomial(SchurKind.E, m)


#: Limbs (30-bit digits) below which CPython multiplies integers by the
#: schoolbook method; above, by Karatsuba's.
KARATSUBA_CUTOFF = 70

#: Time of the strided byte copies that evaluate an entry at one radix, per
#: byte of its packed digits and of its digit size, in limb multiplies.
#: Measured with CPython 3.11 on x86-64: 2 to 3.
COPY_COST = 2.5

#: A table entry as :func:`_read` returns it.
_Entry = tuple[bytes, int, int]


def _read(table: RecurrenceTable, k: int) -> _Entry:
    """``(src, w, S_k)``: entry ``k``'s ``w``-byte digits as the bytes of
    :func:`packed.to_bytes`, none of which exceeds the coefficient sum
    ``S_k``."""
    value, w = table.packed(k)
    return packed.to_bytes(value, w), w, table._sum(k)


def _half_width(a: _Entry, b: _Entry, c: _Entry, d: _Entry, bound: int = 0) -> int:
    """``h = ceil(w / 2)`` for entries ``A, B, C, D`` (:func:`_read`): ``w``
    bytes hold every coefficient of ``A B - C D`` and ``bound`` with a sign
    bit, so ``2h`` bytes hold them as balanced digits.

    No coefficient of an entry is negative, so every coefficient of ``A B``
    lies in ``0..S(A) S(B)``, and of the difference within ``max(S(A) S(B),
    S(C) S(D))`` in magnitude.
    """
    return (packed.width(max(a[2] * b[2], c[2] * d[2], bound)) + 1) // 2


def _packed_cross(
    a: _Entry, b: _Entry, c: _Entry, d: _Entry, h: int
) -> tuple[int, int]:
    """``A B - C D`` for entries ``A, B, C, D`` (:func:`_read`), evaluated at
    ``X = 2^(8h)`` and at ``-X``: ``(plus, minus)``.

    This is Harvey's two-point Kronecker substitution: each operand is
    evaluated at both points by :func:`packed.at_two_points`, and four
    multiplies at half the one-point width give both values (a product with
    a zero factor is skipped).  At ``h`` from :func:`_half_width` the even and odd
    coefficients of the result are the balanced ``2h``-byte digits of
    ``(plus + minus) / 2`` and ``(plus - minus) / (2X)``.
    """
    plus = minus = 0
    for sign, x, y in ((1, a, b), (-1, c, d)):
        if x[0] and y[0]:
            (xp, xm), (yp, ym) = (packed.at_two_points(*v, h) for v in (x, y))
            plus, minus = plus + sign * xp * yp, minus + sign * xm * ym
    return plus, minus


def _radices(a: _Entry, b: _Entry, c: _Entry, d: _Entry, s: _Entry) -> list[int]:
    """Distinct byte widths ``t`` at which ``A B - C D`` and ``S`` are compared
    in :func:`_decomposition`, each at ``+-2^(8t)``, for entries ``A, B, C,
    D, S`` (:func:`_read`).

    They cover ``M = max(S(A) S(B), S(C) S(D)) + S(S)``, the bound on every
    coefficient of the difference: ``prod (2^(16t) - 1) > M``.  Candidates
    are the pair ``h`` of :func:`_half_width`, which covers ``M`` since
    ``2^(16h) - 1 >= 2^(8w) - 1 > 2 max(S(A) S(B), S(C) S(D), S(S))``, and
    for each ``k >= 2`` the ``k`` most nearly equal distinct ``t >= 1`` that
    sum to ``need = ceil((bits(M) + 1) / 16)``, which cover ``M`` since
    ``prod (2^(16t) - 1) > 2^(16 need - 1) >= 2^bits(M)`` (``prod (1 -
    2^(-16t)) > 1/2``).  The cheapest by :func:`_cost` is taken.
    """
    bound = max(a[2] * b[2], c[2] * d[2]) + s[2]
    need = (bound.bit_length() + 16) // 16
    candidates = [[_half_width(a, b, c, d, s[2])]]
    for k in range(2, need + 1):
        low, extra = divmod(need - k * (k - 1) // 2, k)
        if low < 1:
            break
        candidates.append([low + i + (i >= k - extra) for i in range(k)])
    sizes = [(len(src) // w, w, packed.width(top)) for src, w, top in (a, b, c, d, s)]
    return min(candidates, key=lambda radices: sum(_cost(t, sizes) for t in radices))


def _cost(t: int, sizes: list[tuple[int, int, int]]) -> float:
    """Estimated time of :func:`_decomposition`'s check at radix ``t``, in
    limb multiplies, from each entry's digit count ``n``, width ``w`` and
    digit size: every entry is copied (:data:`COPY_COST` per byte of ``n (w
    + size)``), and both products are multiplied at both points, an operand
    ``A(2^(8t))`` holding about ``n t + size`` bytes.  CPython multiplies
    ``x <= y`` limbs in about ``x y`` steps up to :data:`KARATSUBA_CUTOFF`,
    and in about ``y x^0.585 70^0.415`` above it (``0.585 = log2(3) - 1``).
    """
    total = COPY_COST * sum(n * (w + size) for n, w, size in sizes)
    limbs = [(n * t + size) * 8 / 30 for n, _, size in sizes]
    for i in (0, 2):
        if sizes[i][0] and sizes[i + 1][0]:
            x, y = sorted(limbs[i : i + 2])
            total += 2 * y * min(x, KARATSUBA_CUTOFF) ** 0.415 * x ** 0.585
    return total


def wronskian(m: int) -> LaurentPoly:
    """``D_{m-1} E_m - D_m E_{m-1}``, computed from the packed table entries.

    Never uses the closed form ``(-1)^m q^(binomial(m+1, 2))``; verifying that
    the two agree is left to the test suite.  Each table is read in
    ascending order, so a table first read here is read at its top.
    """
    if m < 0:
        raise IndexError(f"wronskian requires m >= 0, got {m}")
    d, e = _table(0, 1), _table(1, 0)
    d_low, d_m = _read(d, m - 1), _read(d, m)
    e_low, e_m = _read(e, m - 1), _read(e, m)
    cross = [d_low, e_m, d_m, e_low]
    h = _half_width(*cross)
    return LaurentPoly(0, packed.from_two_points(*_packed_cross(*cross, h), h))


def _decomposition(n: int, m: int) -> LaurentPoly | None:
    """``lambda(m) D_{n+m} + mu(m) E_{n+m}``, or ``None`` when it equals
    ``Schur_n`` for shift ``m``.

    By the closed forms the sum is ``(-1)^m q^(-binomial(m, 2))`` times
    ``E_{m-2} D_{n+m} - D_{m-2} E_{n+m}``, so the check is that ``f``, that
    difference minus ``(-1)^m q^binomial(m, 2) Schur_n``, is zero.  Both are
    evaluated at ``+-Y`` for ``Y = 2^(8t)`` and each ``t`` of
    :func:`_radices`, which cover ``M``, a bound on every coefficient of
    ``f``: ``prod (Y^2 - 1) > M``.

    The check is exact.  If ``f`` vanishes at every ``+-Y``, then ``f =
    prod (q^2 - Y^2) k`` over the integers, since the factors are monic at
    distinct points.  Dividing ``f = (q^2 - Y^2) g`` out from the lowest
    coefficient up, ``g_i = (g_{i-2} - f_i) / Y^2``, keeps every ``|g_i|`` at
    most ``M / (Y^2 - 1)``: ``(M / (Y^2 - 1) + M) / Y^2`` is that bound.  So
    after all the factors ``|k_i| <= M / prod (Y^2 - 1) < 1``, ``k = 0`` and
    ``f = 0``.

    ``E_{m-2}`` and ``D_{m-2}`` are read before ``D_{n+m}`` and ``E_{n+m}``,
    so tables first read here are read at their tops and keep no checkpoint.
    :func:`_read` converts each entry to bytes once for every radix.  Only on a
    mismatch is the sum unpacked, from its values at the pair of
    :func:`_half_width`.
    """
    schur_n, d, e = _table(0, 1, m), _table(0, 1), _table(1, 0)
    e_low, d_low = _read(e, m - 2), _read(d, m - 2)
    cross = [e_low, _read(d, n + m), d_low, _read(e, n + m)]
    lhs = _read(schur_n, n)
    radices = _radices(*cross, lhs)
    shift, sign = comb(m, 2), -1 if m % 2 else 1
    flip = (-1) ** shift  # (-Y)^shift = flip Y^shift
    for t in radices:
        plus, minus = _packed_cross(*cross, t)
        lhs_plus, lhs_minus = packed.at_two_points(*lhs, t)
        up = 8 * t * shift
        if plus != sign * lhs_plus << up or minus != flip * sign * lhs_minus << up:
            break
    else:
        return None
    h = _half_width(*cross, lhs[2])
    plus, minus = _packed_cross(*cross, h)
    return LaurentPoly(-shift, packed.from_two_points(sign * plus, sign * minus, h))


def lambda_coeff(m: int) -> LaurentPoly:
    """Coefficient of ``D_{n+m}`` in the finite-determinant decomposition.

    Closed form ``(-1)^m q^(-binomial(m, 2)) E_{m-2}``.
    """
    if m < 0:
        raise IndexError(f"lambda_coeff requires m >= 0, got {m}")
    sign = -1 if m % 2 else 1
    return monomial(sign, -comb(m, 2)) * schur_E(m - 2)


def mu_coeff(m: int) -> LaurentPoly:
    """Coefficient of ``E_{n+m}`` in the finite-determinant decomposition.

    Closed form ``(-1)^(m+1) q^(-binomial(m, 2)) D_{m-2}``.
    """
    if m < 0:
        raise IndexError(f"mu_coeff requires m >= 0, got {m}")
    sign = 1 if m % 2 else -1
    return monomial(sign, -comb(m, 2)) * schur_D(m - 2)
