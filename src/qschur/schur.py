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

import threading
from math import isqrt

from . import packed
from .series import LaurentPoly, monomial

__all__ = [
    "TooLargeError",
    "schur_D",
    "schur_E",
    "wronskian",
    "lambda_coeff",
    "mu_coeff",
]


class TooLargeError(ValueError):
    """A request past a fixed size bound: a recurrence table, the unpacking
    of one of its entries or a Rogers-Ramanujan product's coefficient list
    over :data:`TABLE_BUDGET_BYTES`, or the direct determinant oracle past
    its cap."""


#: Bytes of packed entries a build of one recurrence table may touch, its
#: :meth:`RecurrenceTable.footprint`.  A request whose build would touch more
#: is refused with :class:`TooLargeError` before any entry is built; the
#: build through ``D_400`` touches about 189 MB, through ``D_1000`` about
#: 7.3 GB, though a table read at its top holds only two entries.
#: Unpacking one entry is refused over it too, before it starts: ``Schur_1``
#: at shift ``m`` unpacks to ``m + 3`` coefficients at about 69 bytes each,
#: about 69 times its packed bytes, one byte a digit, while the CLI's
#: streamed write of it is held to 4 bytes a digit and one chunk
#: (:func:`packed.chunks_bytes`).
TABLE_BUDGET_BYTES = 1 << 28


def _check_budget(size: int, what: str) -> None:
    """Refuse ``what``, which needs ``size`` bytes, over the budget with
    :class:`TooLargeError`."""
    if size > TABLE_BUDGET_BYTES:
        raise TooLargeError(f"{what} needs more than {TABLE_BUDGET_BYTES} bytes")


#: A read below a table's top walks up from the checkpoint at or below it and
#: keeps the packed pair ``(X_{j-1}, X_j)`` at every ``j`` divisible by this
#: that it passes, so once that checkpoint is held, a read rebuilds an entry
#: in fewer than this many steps.
CHECKPOINT_SPACING = 16

#: Recurrence tables kept at once, ``D`` and ``E`` included; the least
#: recently read goes.
TABLES_MAX = 8

#: Guards every recurrence table, the table registry and the Rogers-Ramanujan
#: products of :mod:`qschur.identities`; held for the whole of each read or
#: extension of them.
_lock = threading.Lock()


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
    of :data:`CHECKPOINT_SPACING` are a cache that reads fill.  A read
    walks up from the highest checkpoint held at or below it, or from the
    constants ``(X_{-2}, X_{-1})``, and keeps each checkpoint it passes,
    repacked to the width of its own segment, :meth:`_width_through`,
    which covers every entry up to the next checkpoint.  Every repack
    widens.

    The step onto the checkpoint at ``j`` runs at the width of the segment
    below it, ``_width_through(j - CHECKPOINT_SPACING)``, which covers
    ``S_{j-1}``.  It is exact there: :func:`packed.width` keeps a spare bit,
    and ``S_j <= 2 S_{j-1}`` for ``j >= 1``, so ``S_j`` still fits.  At ``j =
    0`` it runs at the constants' one byte, which holds ``S_0``.

    Each read holds :data:`_lock` from its build to the end of its walk;
    unpacking runs outside it.
    """

    def __init__(self, x_minus2: int, x_minus1: int, shift: int = 0):
        self._initial = (x_minus2, x_minus1)
        self._shift = shift
        self._w = 1
        self._top = -1
        self._frontier = self._initial  # (X_{top-1}, X_top), packed at _w
        self._checkpoints: dict[int, tuple[int, int, int]] = {}  # j: (X_{j-1}, X_j, w)

    def packed(self, k: int) -> tuple[int, int]:
        """``(value, w)``: ``X_k`` packed as the ``w``-byte digits of ``value``,
        for ``k >= -2``; raises :class:`TooLargeError` over budget."""
        if k < -2:
            raise IndexError(f"Schur polynomial index must be >= -2, got {k}")
        if k < 0:
            return self._initial[k + 2], 1
        spacing = CHECKPOINT_SPACING
        with _lock:
            if k > self._top:
                self._extend(k)
            if k == self._top:
                return self._frontier[1], self._w
            held = self._checkpoints
            j = max((i for i in held if i <= k), default=-1)
            a, b, w = held.get(j, (*self._initial, 1))
            for stop in range((j // spacing + 1) * spacing, k + 1, spacing):
                a, b = self._walk(a, b, j, stop, w)
                to = self._width_through(stop)
                a, b, w = packed.rewidth(a, w, to), packed.rewidth(b, w, to), to
                held[stop], j = (a, b, w), stop
            return self._walk(a, b, j, k, w)[1], w

    def entry(self, k: int) -> LaurentPoly:
        """``X_k`` for ``k >= -2``; raises :class:`TooLargeError` over budget,
        the table's or, before anything is unpacked, the decoded entry's
        (:func:`packed.decode_bytes`)."""
        value, w = self.packed(k)
        size = packed.decode_bytes(value, w, self._sum(k))
        _check_budget(size, f"unpacking entry {k} of a recurrence table")
        return LaurentPoly(0, packed.decode(value, w))

    def _sum(self, k: int) -> int:
        """``S_k = X_k(1)``, which bounds every coefficient of ``X_k``: the sum
        recurrence ``S_k = S_{k-1} + S_{k-2}`` from the initial constants."""
        s2, s1 = self._initial
        for _ in range(k + 2):
            s2, s1 = s1, s1 + s2
        return s2

    def footprint(self, n: int) -> int:
        """``sum(len_k) * w`` over ``k = -2..n``: bytes of the entries packed
        at the width ``n`` needs, which a build through ``n`` touches; a table
        read at its top holds only the two entries of its frontier.

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
        """Step the pair ``(X_{j-1}, X_j)``, packed at ``w``, up to ``(X_{k-1},
        X_k)``."""
        bits, shift = 8 * w, self._shift
        for i in range(j + 1, k + 1):
            a, b = b, b + (a << bits * (i + shift))
        return a, b

    def _check(self, n: int) -> None:
        """Refuse a build through ``n`` whose :meth:`footprint` is over the
        budget with :class:`TooLargeError`, before any entry is built."""
        _check_budget(self.footprint(n), f"a recurrence table through index {n}")

    def _extend(self, n: int) -> None:
        """Repack the frontier at the width every entry through ``n`` needs
        (:func:`packed.rewidth` keeps it when that is its width) and walk it
        up to ``n``, once :meth:`_check` admits it; caller holds
        :data:`_lock`."""
        self._check(n)
        w = packed.width(self._sum(n))
        a, b = (packed.rewidth(x, self._w, w) for x in self._frontier)
        self._frontier = self._walk(a, b, self._top, n, w)
        self._w = w
        self._top = n


#: Each family's constants ``(X_{-2}, X_{-1})``: ``D`` and ``E`` at shift 0,
#: and ``Schur_n`` for shift ``m`` is ``D`` at shift ``m``.
_FAMILIES = {"D": (0, 1), "E": (1, 0)}

_tables: dict[tuple[str, int], RecurrenceTable] = {}  # in order of last use


def _table(family: str, shift: int = 0) -> RecurrenceTable:
    """The table of ``family`` (:data:`_FAMILIES`) at ``shift``, now the most
    recently used of at most :data:`TABLES_MAX`."""
    key = (family, shift)
    with _lock:
        table = _tables.pop(key, None) or RecurrenceTable(*_FAMILIES[family], shift)
        _tables[key] = table
        if len(_tables) > TABLES_MAX:
            del _tables[next(iter(_tables))]
    return table


def schur_D(m: int) -> LaurentPoly:
    """``D_m`` for ``m >= -2``: recursion ``D_m = D_{m-1} + q^m D_{m-2}`` from
    ``D_0=1, D_1=1+q``."""
    return _table("D").entry(m)


def schur_E(m: int) -> LaurentPoly:
    """``E_m`` for ``m >= -2``: same recursion from ``E_0 = E_1 = 1``."""
    return _table("E").entry(m)


#: Limbs (30-bit digits) at or below which CPython multiplies integers by the
#: schoolbook method, and above which by Karatsuba's: its own constant, 70 on
#: CPython 3.10 to 3.13.  :func:`_radices` takes the one pair below it.
KARATSUBA_CUTOFF = 70

#: A table entry as :func:`_read` returns it.
_Entry = tuple[tuple[list[bytes], list[bytes]], int, int]


def _read(table: RecurrenceTable, k: int) -> _Entry:
    """``(planes, n, S_k)``: entry ``k``'s ``n`` digits cut into byte planes
    (:func:`packed.cut`), none of which exceeds the coefficient sum ``S_k``.
    The cut runs outside :data:`_lock`."""
    value, w = table.packed(k)
    bound = table._sum(k)
    return packed.cut(value, w, bound), packed.digits(value, w), bound


def _pair_width(a: _Entry, b: _Entry, c: _Entry, d: _Entry, bound: int = 0) -> int:
    """``w``, the bytes that hold every coefficient of ``A B - C D`` and
    ``bound`` as balanced digits, for entries ``A, B, C, D`` (:func:`_read`).

    No coefficient of an entry is negative, so every coefficient of ``A B``
    lies in ``0..S(A) S(B)``, and of the difference within ``max(S(A) S(B),
    S(C) S(D))`` in magnitude.
    """
    return packed.width(max(a[2] * b[2], c[2] * d[2], bound))


def _packed_cross(
    a: _Entry, b: _Entry, c: _Entry, d: _Entry, s: int
) -> tuple[int, int]:
    """``A B - C D`` for entries ``A, B, C, D`` (:func:`_read`), evaluated at
    ``Y = 2^(4s)`` and at ``-Y``: ``(plus, minus)``.

    This is Harvey's two-point Kronecker substitution: each operand's planes
    are evaluated at both points by :func:`packed.at_two_points`, and four
    multiplies at half the one-point width give both values.  At ``s`` from
    :func:`_pair_width` the even and odd coefficients of the result are the
    balanced ``s``-byte digits of ``(plus + minus) / 2`` and ``(plus -
    minus) / (2Y)``.
    """
    (ap, am), (bp, bm), (cp, cm), (dp, dm) = (
        packed.at_two_points(x[0], s) for x in (a, b, c, d)
    )
    return ap * bp - cp * dp, am * bm - cm * dm


def _radices(a: _Entry, b: _Entry, c: _Entry, d: _Entry, lhs: _Entry) -> list[int]:
    """Distinct byte sizes ``s`` of ``Y^2`` at which ``A B - C D`` and ``S``
    are compared in :func:`_decomposition`, each at ``+-Y = +-2^(4s)``, for
    entries ``A, B, C, D`` and ``S = lhs`` (:func:`_read`).

    They cover ``M = max(S(A) S(B), S(C) S(D)) + S(S)``, the bound on every
    coefficient of the difference: ``prod (2^(8s) - 1) > M``.  While ``A =
    E_{m-2}`` at the pair ``w`` of :func:`_pair_width` is below
    :data:`KARATSUBA_CUTOFF` limbs, the multiplies are schoolbook and cheap
    next to the writes each further radix makes, so ``w`` alone is taken; it
    covers ``M`` since ``2^(8w) - 1 > 2 max(S(A) S(B), S(C) S(D), S(S))``.
    Otherwise the largest ``k`` with ``k (k + 1) / 2 <= need = ceil((bits(M)
    + 1) / 8)`` is taken, split into the ``k`` most nearly equal distinct
    ``s >= 1`` that sum to ``need``; they cover ``M`` since ``prod (2^(8s) -
    1) > 2^(8 need - 1) >= 2^bits(M)`` (``prod (1 - 2^(-8s)) > 1/2``).
    """
    w = _pair_width(a, b, c, d, lhs[2])
    if a[1] * w * 4 < KARATSUBA_CUTOFF * 30:
        return [w]
    need = packed.width(max(a[2] * b[2], c[2] * d[2]) + lhs[2])
    k = (isqrt(8 * need + 1) - 1) // 2
    low, extra = divmod(need - k * (k - 1) // 2, k)
    return [low + i + (i >= k - extra) for i in range(k)]


def wronskian(m: int) -> LaurentPoly:
    """``D_{m-1} E_m - D_m E_{m-1}``, computed from the packed table entries.

    Never uses the closed form ``(-1)^m q^(binomial(m+1, 2))``; verifying that
    the two agree is left to the test suite.  Each table is read in
    ascending order, so a table first read here is read at its top.
    """
    if m < 0:
        raise IndexError(f"wronskian requires m >= 0, got {m}")
    d, e = _table("D"), _table("E")
    d_low, d_m = _read(d, m - 1), _read(d, m)
    e_low, e_m = _read(e, m - 1), _read(e, m)
    cross = [d_low, e_m, d_m, e_low]
    w = _pair_width(*cross)
    return LaurentPoly(0, packed.from_two_points(*_packed_cross(*cross, w), w))


def _decomposition(n: int, m: int) -> bool:
    """Whether ``lambda(m) D_{n+m} + mu(m) E_{n+m}`` equals ``Schur_n`` for
    shift ``m``, decided on the packed table entries.

    By the closed forms the sum is ``(-1)^m q^(-binomial(m, 2))``
    (:func:`_factor`) times ``E_{m-2} D_{n+m} - D_{m-2} E_{n+m}``, so the
    check is that ``f``, that difference minus ``(-1)^m q^binomial(m, 2)
    Schur_n``, is zero.  Both are evaluated at ``+-Y`` for ``Y = 2^(4s)``
    and each ``s`` of :func:`_radices`, which cover ``M``, a bound on every
    coefficient of ``f``: ``prod (Y^2 - 1) > M``.

    The check is exact.  If ``f`` vanishes at every ``+-Y``, then ``f =
    prod (q^2 - Y^2) k`` over the integers, since the factors are monic at
    distinct points: the ``s`` are distinct, and every ``Y >= 16``.
    Dividing ``f = (q^2 - Y^2) g`` out from the lowest coefficient up, ``g_i
    = (g_{i-2} - f_i) / Y^2``, keeps every ``|g_i|`` at most ``M / (Y^2 -
    1)``: ``(M / (Y^2 - 1) + M) / Y^2`` is that bound.  So
    after all the factors ``|k_i| <= M / prod (Y^2 - 1) < 1``, ``k = 0`` and
    ``f = 0``.

    ``E_{m-2}`` and ``D_{m-2}`` are read before ``D_{n+m}`` and ``E_{n+m}``,
    so tables first read here are read at their tops and keep no checkpoint.
    :func:`_read` cuts each entry into byte planes once for every radix.
    Nothing is unpacked, on a pass or a mismatch: the report of a mismatch is
    built by :func:`~qschur.determinant.decompose` in :class:`LaurentPoly`
    arithmetic, which shares no code with this check.
    """
    sign, shift = _factor(m, "_decomposition")
    schur_n, d, e = _table("D", m), _table("D"), _table("E")
    e_low, d_low = _read(e, m - 2), _read(d, m - 2)
    cross = [e_low, _read(d, n + m), d_low, _read(e, n + m)]
    lhs = _read(schur_n, n)
    radices = _radices(*cross, lhs)
    flip = (-1) ** shift  # (-Y)^shift = flip Y^shift
    for s in radices:
        plus, minus = _packed_cross(*cross, s)
        lhs_plus, lhs_minus = packed.at_two_points(lhs[0], s)
        up = 4 * s * shift
        if plus != sign * lhs_plus << up or minus != flip * sign * lhs_minus << up:
            return False
    return True


def _factor(m: int, caller: str) -> tuple[int, int]:
    """``((-1)^m, binomial(m, 2))``, the sign and the exponent of the factor
    ``(-1)^m q^(-binomial(m, 2))`` that ``lambda(m)`` and ``-mu(m)`` share;
    raises :class:`IndexError`, naming ``caller``, for ``m < 0``."""
    if m < 0:
        raise IndexError(f"{caller} requires m >= 0, got {m}")
    return -1 if m % 2 else 1, m * (m - 1) // 2


def lambda_coeff(m: int) -> LaurentPoly:
    """Coefficient of ``D_{n+m}`` in the finite-determinant decomposition.

    Closed form ``(-1)^m q^(-binomial(m, 2)) E_{m-2}``.
    """
    sign, shift = _factor(m, "lambda_coeff")
    return monomial(sign, -shift) * schur_E(m - 2)


def mu_coeff(m: int) -> LaurentPoly:
    """Coefficient of ``E_{n+m}`` in the finite-determinant decomposition.

    Closed form ``(-1)^(m+1) q^(-binomial(m, 2)) D_{m-2}``.
    """
    sign, shift = _factor(m, "mu_coeff")
    return monomial(-sign, -shift) * schur_D(m - 2)
