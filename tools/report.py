"""Report-only wall time and peak RSS of one-shot commands, timings of the
packed products, of reads below a table's top and of ``verify``'s layers.

Each function returns one line: what was run or built and what was
measured.  Nothing is gated.  Stdlib only; ``qschur`` must be importable
(``PYTHONPATH=src``), in this process and in the commands it starts.

Usage: ``PYTHONPATH=src python tools/report.py`` prints, at the sizes the CI
report step uses, one line for each of :data:`COMMANDS`; then ``D`` and
``E`` built to 200, ``wronskian(49)`` and ``wronskian(70)``, ``decompose``
at ``(110, 20)``, ``(100, 30)`` and ``(140, 40)``, min of 7 calls each; then
``D`` built to 436 and read at 433 and 218; then the layers of ``verify``
at m = 0..20, orders 1000 and 2000, min of 7 calls each.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Sequence
from platform import python_version
from time import perf_counter
from timeit import repeat

from qschur import identities, schur
from qschur.determinant import decompose, schur_x1_series
from qschur.identities import gis_rhs, rr_product_first, rr_product_second
from qschur.schur import RecurrenceTable, schur_D, schur_E, wronskian


#: The ``qschur`` commands :func:`peak` measures, one fresh process each.
COMMANDS = [
    "schur-poly --kind D --index 210 --format json",
    "schur-poly --kind D --index 400 --format json",
    "determinant --n 300 --m 8 --check --format json",
    "determinant --n 140 --m 40 --check --format json",
    "determinant --n 1 --m 3700000 --format json",
    "product --which rr1 --order 30000 --format json",
    "verify --m-max 20 --order 200",
    "verify --m-max 20 --order 1000",
    "verify --m-max 20 --order 2000",
    "verify --m-min 150 --m-max 150 --order 10",
    "verify --m-min 100 --m-max 110 --order 10",
]


def peak(args: Sequence[str]) -> str:
    """Exit code, wall time and peak RSS of ``python -m qschur *args`` in a
    child process, its stdout discarded.  The peak is the child's own, from
    the rusage :func:`os.wait4` returns for it."""
    argv = [sys.executable, "-m", "qschur", *args]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    return f"{' '.join(args)}: exit {code}, {wall:.2f} s wall, peak RSS {mb:.1f} MB"


def _slots(n: int, m: int) -> str:
    """The radices ``decompose(n, m)`` compares at, comma-separated."""
    d, e, s = schur._table("D"), schur._table("E"), schur._table("D", m)
    reads = ((e, m - 2), (d, n + m), (d, m - 2), (e, n + m), (s, n))
    return ",".join(map(str, schur._radices(*(schur._read(*r) for r in reads))))


def packed_products(
    built: int, shifts: Iterable[int], shapes: Iterable[tuple[int, int]], calls: int
) -> str:
    """Min of ``calls`` timings of ``wronskian(m)`` for each of ``shifts`` and
    of ``decompose(n, m)`` for each of ``shapes``, with ``D`` and ``E``
    built to ``built`` first."""
    schur_D(built)
    schur_E(built)
    timed = {f"wronskian({m})": lambda m=m: wronskian(m) for m in shifts}
    for n, m in shapes:
        timed[f"decompose({n}, {m}) at slots {_slots(n, m)}"] = (
            lambda n=n, m=m: decompose(n, m)
        )
    times = (
        f"{name} {min(repeat(call, number=1, repeat=calls)) * 1e3:.2f} ms"
        for name, call in timed.items()
    )
    return (
        f"Python {python_version()}, D and E built to {built}, min of {calls}: "
        + ", ".join(times)
    )


def reads_below_top(top: int, reads: Iterable[int]) -> str:
    """The time of each read of a fresh ``D`` table built to ``top``, in
    order, and the checkpoints it holds after each."""
    table = RecurrenceTable(*schur._FAMILIES["D"])
    table.packed(top)
    parts = []
    for k in reads:
        start = perf_counter()
        table.packed(k)
        ms = (perf_counter() - start) * 1e3
        held = table._checkpoints
        pairs = [(a, b) for a, b, _w in held.values()]
        size = sum((x.bit_length() + 7) // 8 for pair in pairs for x in pair)
        parts.append(
            f"read at {k} {ms:.1f} ms, then {len(held)} checkpoints hold "
            f"{size / 1e6:.2f} MB"
        )
    return f"Python {python_version()}, D built to {top}: " + "; ".join(parts)


def verify_sides(m_max: int, orders: Iterable[int], calls: int) -> str:
    """Min of ``calls`` timings of each layer of ``verify`` over the shifts
    ``0 .. m_max`` at each of ``orders``: the sum side
    (``schur_x1_series``), each Rogers-Ramanujan product through the top
    the largest shift needs, its list emptied before each call, and the
    combine (``gis_rhs`` once the products are built)."""
    shifts = range(m_max + 1)
    parts = []
    for order in orders:
        top = identities._refuse_gis(m_max, order)
        lists = identities._products
        layers = (
            ("sum side", lambda: [schur_x1_series(m, order) for m in shifts], "pass"),
            (f"P1 through q^{top}", lambda: rr_product_first(top), lists[1].clear),
            (f"P2 through q^{top}", lambda: rr_product_second(top), lists[2].clear),
            ("combine", lambda: [gis_rhs(m, order) for m in shifts], "pass"),
        )
        times = (
            f"{name} {min(repeat(call, setup, number=1, repeat=calls)) * 1e3:.2f} ms"
            for name, call, setup in layers
        )
        parts.append(f"order {order}: " + ", ".join(times))
    return (
        f"Python {python_version()}, verify at m = 0..{m_max}, min of {calls}: "
        + "; ".join(parts)
    )


def main() -> int:
    for command in COMMANDS:
        print(peak(command.split()), flush=True)
    print(packed_products(200, (49, 70), ((110, 20), (100, 30), (140, 40)), 7))
    print(reads_below_top(436, (433, 218)))
    print(verify_sides(20, (1000, 2000), 7))
    return 0


if __name__ == "__main__":
    sys.exit(main())
