"""The host's speed, timed with a fixed piece of pure Python.

The host this benchmark was set up on runs pure Python up to 1.8 times
faster or slower from one minute to the next, in phases that last from
seconds to minutes, and process CPU time drifts with wall time.  A run's
median job latency follows whichever phase the run fell into.  So a
short, fixed search written here without adsem, `reference()`, is timed
before every job and after the last, and each job's time is scaled by
`NOMINAL_S / t`, where `t` is the mean of the SIDE reference times before
the job and the SIDE after it.  A scaled time is the time the job would
take on a host on which the reference takes `NOMINAL_S`.  A change to
adsem does not change the reference, so it shows in scaled times in full.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the reference's time in this host's usual phase (2-vCPU Xeon
# virtual machine, Python 3.11.7).
NOMINAL_S = 0.0015
SIDE = 3

_DIGITS, _BASE, _STATES = 7, 4, 60


def reference() -> int:
    """Breadth-first search over counters of _DIGITS digits in base
    _BASE, one digit stepped at a time, deduplicated by a frozenset key:
    the allocation and hashing a token-game search does, in miniature."""
    frontier = [(0,) * _DIGITS]
    seen = {}
    i = 0
    while i < len(frontier) and i < _STATES:
        state = frontier[i]
        i += 1
        for d in range(_DIGITS):
            succ = state[:d] + ((state[d] + 1) % _BASE,) + state[d + 1:]
            key = frozenset((k, v) for k, v in enumerate(succ) if v)
            if key not in seen:
                seen[key] = [str(v) for v in succ]
                frontier.append(succ)
    return len(seen)


EXPECTED = reference()


def time_reference(times: int = 1) -> float:
    """Mean time of `times` runs of the reference."""
    total = 0.0
    for _ in range(times):
        t0 = perf_counter()
        found = reference()
        total += perf_counter() - t0
        if found != EXPECTED:
            raise RuntimeError(f"reference search found {found} states, expected {EXPECTED}")
    return total / times


def scales(ref_s: list[float]) -> list[float]:
    """Per job, NOMINAL_S over the mean of the SIDE reference times before
    it and the SIDE after it.  `ref_s[k]` was timed just before job k, and
    the list ends with one more, timed after the last job."""
    return [NOMINAL_S / statistics.mean(ref_s[max(0, k - SIDE + 1):k + SIDE + 1])
            for k in range(len(ref_s) - 1)]
