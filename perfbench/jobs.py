"""Seeded job sequences for the three benchmark workloads.

Every workload is a closed loop with one client, so a job list is all a run
needs.  The list is a pure function of the workload name and the seed.  It is
made of rounds.  A round splits each parameter's range into a few equal
slices and holds one job for every combination of slices, and the seed
orders the round.  Where a job's value falls inside its slice follows a
van der Corput sequence over the rounds, one base per parameter, shifted by
an offset the seed draws for each slice.  So the first r rounds of any seed fill every
slice evenly, every run of a given length sees nearly the same mix of job
costs, and job costs spread continuously instead of sitting on a few levels.
The first round pins its largest jobs to the top of each range, so every run
reaches the same peak memory.  Later rounds pin nothing: a fixed top job in
every round would put one cost level in the tail, and the tail (the
11th-slowest job) would jump onto or off it as a run's job count crossed ten
rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``kind`` names the CLI command or library call."""

    kind: str
    args: tuple[tuple[str, int | str], ...]

    def arg(self, name: str):
        return dict(self.args)[name]

    def describe(self) -> str:
        return self.kind + " " + " ".join(f"{k}={v}" for k, v in self.args)


Range = tuple[int, int, int]  # lo, hi, number of slices


def van_der_corput(index: int, base: int) -> float:
    """The ``index``-th point of the van der Corput sequence in ``base``."""
    point, scale = 0.0, 1.0
    while index:
        index, digit = divmod(index, base)
        scale /= base
        point += digit * scale
    return point


@dataclass
class Round:
    """Where a round's values fall inside their slices.

    ``place(i, k)`` is a position in [0, 1) for slice ``k`` of the i-th
    parameter of the workload; ``pin`` marks the first round.
    """

    place: Callable[[int, int], float]
    pin: bool

    def draw(self, param: int, span: Range, k: int, top: bool = False) -> int:
        """An integer from slice ``k`` of ``lo..hi`` cut into equal slices; with
        ``top`` in the first round, ``hi`` itself."""
        lo, hi, count = span
        if top and self.pin:
            return hi
        return lo + int((hi - lo + 1) / count * (k + self.place(param, k)))

    def slices(self, param: int, span: Range) -> list[int]:
        """One integer from each slice of a range; first round: the top is ``hi``."""
        count = span[2]
        return [self.draw(param, span, k, k == count - 1) for k in range(count)]

    def grid(self, first: Range, second: Range) -> list[tuple[int, int]]:
        """One pair for every combination of a slice of parameters 0 and 1;
        first round: the pair of top slices is the two ``hi``."""
        top = (first[2] - 1, second[2] - 1)
        return [(self.draw(0, first, i, (i, j) == top),
                 self.draw(1, second, j, (i, j) == top))
                for i in range(first[2]) for j in range(second[2])]


def _verify_round(r: Round) -> list[Job]:
    # Shifts m = 0..M at order N: division by 1 - q^k dominates.
    pairs = r.grid((10, 14, 3), (120, 160, 3))
    return [Job("verify", (("m_max", M), ("order", N))) for M, N in pairs]


def _tables_round(r: Round) -> list[Job]:
    # Deep recurrence tables and LaurentPoly addition; no division at all.
    jobs = [
        Job("schur-poly", (("kind", kind), ("index", K)))
        for kind in "DE"
        for K in r.slices(2, (160, 210, 3))
    ]
    pairs = r.grid((100, 150, 3), (0, 8, 2))
    jobs += [Job("determinant", (("n", n), ("m", m))) for n, m in pairs]
    return jobs


#: Largest Schur index any products-warm job reads; set-up builds this far.
WARM_TABLE_INDEX = 200


def _products_round(r: Round) -> list[Job]:
    # Large LaurentPoly x LaurentPoly products over tables built in set-up.
    # Every index stays at or below WARM_TABLE_INDEX: n + m <= 180, m <= 70.
    # decompose keeps one Schur_n table per shift m for the life of the
    # process, so m takes three fixed values, and the first round pins n to
    # the top for each: those tables are built in the first round and only
    # read after, and memory does not grow with run time.
    jobs = [Job("wronskian", (("m", m),)) for m in r.slices(0, (40, 70, 4))]
    jobs += [Job("decompose", (("n", r.draw(1, (60, 140, 3), k, k == 2)), ("m", m)))
             for k in range(3) for m in (20, 30, 40)]
    return jobs


#: A round's parameters each follow the van der Corput sequence in their own base.
BASES = (2, 3, 5)
#: No range is cut into more slices than this.
MAX_SLICES = 4

ROUNDS = {
    "verify-cold": _verify_round,
    "tables-cold": _tables_round,
    "products-warm": _products_round,
}

#: Workloads whose jobs each run in a fresh interpreter.
COLD = frozenset({"verify-cold", "tables-cold"})


def placement(rng: random.Random) -> Callable[[int, int, int], float]:
    """``place(index, param, k)``: where round ``index`` puts its value inside
    slice ``k`` of parameter ``param``, with an offset per slice from ``rng``."""
    shifts = [[rng.random() for _k in range(MAX_SLICES)] for _ in BASES]

    def place(index: int, param: int, k: int) -> float:
        return (van_der_corput(index, BASES[param]) + shifts[param][k]) % 1.0

    return place


def job_stream(workload: str, seed: int) -> Iterator[Job]:
    """The endless job sequence of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    make_round: Callable[[Round], list[Job]] = ROUNDS[workload]
    place = placement(rng)
    index = 0
    while True:
        jobs = make_round(Round(partial(place, index), pin=index == 0))
        rng.shuffle(jobs)
        yield from jobs
        index += 1


def cli_args(job: Job) -> list[str]:
    """The ``qschur`` command line of a cold job."""
    if job.kind == "verify":
        return ["verify", "--m-min", "0", "--m-max", str(job.arg("m_max")),
                "--order", str(job.arg("order"))]
    if job.kind == "schur-poly":
        return ["schur-poly", "--kind", job.arg("kind"), "--index",
                str(job.arg("index")), "--format", "json"]
    if job.kind == "determinant":
        return ["determinant", "--n", str(job.arg("n")), "--m", str(job.arg("m")),
                "--check", "--format", "json"]
    raise ValueError(f"{job.kind} is not a CLI job")


def schur_degree(kind: str, index: int) -> int:
    """Degree of ``D_index`` or ``E_index``, from the degree recurrence alone.

    All coefficients are nonnegative, so nothing cancels and
    ``deg X_k = max(deg X_{k-1}, k + deg X_{k-2})``.
    """
    prev, cur = (0, 1) if kind == "D" else (0, 0)  # X_0, X_1
    if index == 0:
        return prev
    for k in range(2, index + 1):
        prev, cur = cur, max(cur, k + prev)
    return cur


def finite_degree(n: int, m: int) -> int:
    """Degree of ``Schur_n`` for shift ``m``, by the same argument."""
    prev, cur = 0, 1 + m  # Schur_0, Schur_1
    if n == 0:
        return prev
    for k in range(2, n + 1):
        prev, cur = cur, max(cur, k + m + prev)
    return cur


def terms(job: Job) -> int:
    """Exact coefficients a passing job checks; the numerator of terms_per_s.

    verify: (order + 1) per shift m.  schur-poly, determinant, decompose: the
    length of the output polynomial.  wronskian: the lengths of its two
    products ``D_{m-1} E_m`` and ``D_m E_{m-1}``.
    """
    if job.kind == "verify":
        return (job.arg("order") + 1) * (job.arg("m_max") + 1)
    if job.kind == "schur-poly":
        return schur_degree(job.arg("kind"), job.arg("index")) + 1
    if job.kind in ("determinant", "decompose"):
        return finite_degree(job.arg("n"), job.arg("m")) + 1
    if job.kind == "wronskian":
        m = job.arg("m")
        return (schur_degree("D", m - 1) + schur_degree("E", m) + 1) + (
            schur_degree("D", m) + schur_degree("E", m - 1) + 1
        )
    raise ValueError(f"unknown job kind {job.kind}")
