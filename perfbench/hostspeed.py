"""Fixed reference work, timed between sessions, to cancel host speed.

On a shared host the same session runs up to twice as fast at one time as
at another, in phases that last minutes, so raw wall times of runs made
minutes apart spread far more than any change worth catching. The
reference work below is the benchmark's own and never changes with the
program. A run times it before and after every session and set-up and
scales each one to a host on which the reference takes ``REFERENCE_S``:
``scaled = raw * REFERENCE_S / reference``. A program that gets faster by
a share gets faster by the same share on the scaled clock.

The work mirrors what dominates a session: scans over a large tuple of
small objects for one key (``extract_case``), struct packing of their
strings (the wire encoding), and sorts with a tuple key, one of a whole
tuple and a series over a growing list (the segment planner). The objects
are built once, outside the timed work: allocating them reacts to a busy
host far more than a session does. The work runs with the cyclic
collector off, so its time does not depend on how much the program happens
to keep alive.
"""

from __future__ import annotations

import gc
import random
import struct
from functools import lru_cache
from time import perf_counter
from typing import List, Tuple

# Seconds the reference work takes on a quiet 2-core host (Python 3.11).
REFERENCE_S = 0.1


class _Event:
    __slots__ = ("iid", "activity", "timestamp", "org")

    def __init__(self, iid: str, activity: str, timestamp: int, org: str) -> None:
        self.iid, self.activity, self.timestamp, self.org = iid, activity, timestamp, org


def _pack(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def _sort_key(ev: _Event):
    return (ev.timestamp, ev.org, ev.iid)


@lru_cache(maxsize=1)
def _events(n_events: int = 12_000) -> Tuple[_Event, ...]:
    rng = random.Random(7)
    return tuple(
        _Event("case-%04d" % rng.randrange(1000), "act-%02d" % rng.randrange(30), rng.randrange(10**9), "org%d" % rng.randrange(3))
        for _ in range(n_events)
    )


def reference_work(n_scans: int = 150, n_merges: int = 200, merge_size: int = 15) -> int:
    events = _events()
    found = 0
    for k in range(n_scans):
        iid = "case-%04d" % k
        found += len(tuple(ev for ev in events if ev.iid == iid))
    out = bytearray()
    for ev in events:
        out += _pack(ev.iid) + _pack(ev.activity) + struct.pack(">q", ev.timestamp) + _pack(ev.org)
    ordered = sorted(events, key=_sort_key)
    growing: List[_Event] = []
    for start in range(0, n_merges * merge_size, merge_size):
        growing.extend(events[start : start + merge_size])
        growing.sort(key=_sort_key)
    return found + len(out) + len(ordered) + len(growing)


class HostClock:
    """Reference timings taken in order; span ``i`` lies between samples ``i`` and ``i + 1``."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> float:
        """Time the reference work once and keep the sample."""
        _events()  # built once, outside the timed work
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            reference_work()
            took = perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        self.samples.append(took)
        return took

    def around_last(self) -> float:
        """Mean of the last two samples: the reference time around the last span."""
        return (self.samples[-2] + self.samples[-1]) / 2
