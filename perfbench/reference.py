"""The reference work: a fixed amount of work that does not touch qschur.

Usage: ``python perfbench/reference.py``

It multiplies two fixed polynomials of wide integer coefficients by the
schoolbook method, in pure Python, and prints nothing.  ``run.py`` times it
from spawn to reap, as it times a cold job, at evenly spaced points of every
untraced run; the products-warm process times ``calibrate`` in process just
before each job.  Their means measure how fast the machine was during that
run, and the timing metrics are scaled by them (see ``perfbench/README.md``).
The work is fixed here, so a change to qschur cannot change it.
"""

from time import perf_counter

LENGTH = 400
#: Coefficients per factor of the in-process calibration.
CALIBRATION_LENGTH = 300


def convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def factors(length: int) -> tuple[list[int], list[int]]:
    return ([3**k % (1 << 200) + k for k in range(length)],
            [5**k % (1 << 150) + 1 for k in range(length)])


def calibrate() -> float:
    """Seconds one in-process product of CALIBRATION_LENGTH terms takes."""
    a, b = factors(CALIBRATION_LENGTH)
    start = perf_counter()
    convolve(a, b)
    return perf_counter() - start


def main() -> None:
    convolve(*factors(LENGTH))


if __name__ == "__main__":
    main()
