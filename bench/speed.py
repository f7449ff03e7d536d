"""Host speed reference, so that times taken minutes apart compare.

The shared 2-vCPU host this benchmark was tuned on changes speed by
itself: a fixed pure-Python loop runs 25-40% slower for minutes at a
time, and a set of ten runs often straddles such a change.  Medians
inside one run cannot remove that (see README.md, "Steadiness").

So every time the benchmark reports is measured next to a fixed
reference loop and scaled by ``NOMINAL_S / reference time``: it is the
time the work would have taken with the host at the speed it had when
``NOMINAL_S`` was measured.  The loop uses only the standard library and
does the kind of work lsakit does (``Fraction`` arithmetic and dicts
keyed by small tuples), so a change to lsakit never changes it.  The raw
wall times are printed beside the scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About the median of `sample()` on the machine the baseline was recorded on
# (2 vCPUs, Python 3.11.7); it sets the scale of every reported time.
NOMINAL_S = 0.12


def _reference_loop(n: int = 40000):
    acc = Fraction(0)
    table = {}
    for i in range(n):
        key = (i % 7, i % 5, i % 3)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 11 + 1, i % 13 + 1)
    return acc, len(table)


def sample() -> float:
    """Wall time of one run of the reference loop, in seconds."""
    start = perf_counter()
    _reference_loop()
    return perf_counter() - start


def scale(*reference_s: float) -> float:
    """Factor from measured time to nominal-speed time, given the
    reference samples taken around the measurement."""
    return NOMINAL_S * len(reference_s) / sum(reference_s)
