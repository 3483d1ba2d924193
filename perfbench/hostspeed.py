"""The host-speed probe: a fixed computation timed next to every request.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed loop of Fraction additions can take half as long again for tens
of seconds at a time, longer than one run. A wall-clock time measured in
such a phase says more about the host than about halfmatch. So the
benchmark times the reference below before and after every request and
every set-up, and reports each duration at the reference speed: the
measured seconds times ``REFERENCE_S`` divided by the mean of the two
probes (``summary.speed_scale``). The reference is pure Python and does
the two kinds of work halfmatch does, exact-rational arithmetic and
churning dicts and lists of small tuples; it touches no halfmatch code,
so a change to the program moves the reported times and a change of the
host's speed does not. The arithmetic alone tracks the host less well:
when the host is busy, halfmatch slows more than big-integer arithmetic
does, about as much as the dict and list churn does.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from operator import itemgetter
from time import perf_counter

#: about the fastest time of one reference run on the machine the first
#: baseline was recorded on (2 cores, Python 3.11.7), so that reported
#: times read as seconds on that machine when it is quiet
REFERENCE_S = 0.0154

#: reference runs per probe
PROBE_RUNS = 2


def reference() -> Fraction:
    """The fixed computation: the harmonic sum H(2999) as a Fraction, then
    twice 12,000 tuples bucketed in a dict of lists and each list sorted."""
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i)
    for _ in range(2):
        buckets: dict[int, list[tuple[int, int]]] = {}
        for i in range(12000):
            buckets.setdefault(i % 997, []).append((i, i * 7 % 13))
        for bucket in buckets.values():
            bucket.sort(key=itemgetter(1))
    return total


def probe(runs: int = PROBE_RUNS) -> float:
    """Mean seconds of one reference run now. The cyclic collector is off
    meanwhile, so the size of the program's heap does not leak in."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(runs):
            reference()
        return (perf_counter() - start) / runs
    finally:
        if enabled:
            gc.enable()
