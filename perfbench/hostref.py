"""A fixed reference computation that measures how fast the host is now.

The benchmark's host is a shared virtual machine whose speed drifts by
30-50% over minutes, longer than one run, as neighbours come and go.
A run therefore times this reference after every op and after every
set-up, and scales its times by :func:`scale`: the end-to-end metrics
read as seconds on a host where the reference takes ``NOMINAL_S``.
Slow and fast host phases slow or speed the reference and the program
alike, so they cancel in the ratio, while a change to the program
moves only the program's side.

The reference never imports the program.  It mixes the two kinds of
work the program does: an interpreted set-associative LRU cache
simulation over Python objects (about two thirds of its time), and a
numpy sort over a few megabytes.  That mix followed the program's
speed across host phases more closely than either part alone or a mix
with less interpreted work.  Its inputs are fixed, so every run does
the same work.

A single busy process gains more from a quiet host phase than two
busy processes do.  A workload whose ops keep two CPUs busy therefore
runs the reference in two processes at once and takes their mean time.
"""

from __future__ import annotations

import multiprocessing
import statistics
from time import perf_counter
from typing import List

import numpy as np

#: Reference time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4),
#: in seconds.  Only the scale of the reported numbers depends on it.
NOMINAL_S = 0.10


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


def _inputs():
    rng = np.random.default_rng(20011)
    hot = rng.integers(0, 1 << 12, size=60_000)
    cold = rng.integers(0, 1 << 17, size=60_000)
    addresses = np.where(rng.random(60_000) < 0.7, hot, cold).tolist()
    return addresses, rng.integers(0, 1 << 20, size=400_000)


def _timed_work(inputs) -> float:
    addresses, keys = inputs
    start = perf_counter()
    sets = [[] for _ in range(1024)]
    hits = 0
    for address in addresses:
        ways = sets[address & 1023]
        tag = address >> 10
        for i, line in enumerate(ways):
            if line.tag == tag:
                hits += 1
                ways.insert(0, ways.pop(i))
                break
        else:
            ways.insert(0, _Line(tag))
            if len(ways) > 8:
                ways.pop()
    np.sort(keys)
    np.unique(keys & 4095)
    return perf_counter() - start


def _helper(conn) -> None:
    inputs = _inputs()
    while conn.recv():
        conn.send(_timed_work(inputs))


class Reference:
    """The reference computation, run at once in ``processes`` processes
    (the number of CPUs the workload's ops keep busy)."""

    def __init__(self, processes: int = 1) -> None:
        self._inputs = _inputs()
        context = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(processes - 1):
            conn, child = context.Pipe()
            helper = context.Process(target=_helper, args=(child,), daemon=True)
            helper.start()
            self._helpers.append((helper, conn))

    def measure(self) -> float:
        """One reference time: the mean over the processes."""
        for _, conn in self._helpers:
            conn.send(True)
        times = [_timed_work(self._inputs)]
        times += [conn.recv() for _, conn in self._helpers]
        return statistics.mean(times)

    def close(self) -> None:
        """Stop the helper processes and wait for them."""
        for helper, conn in self._helpers:
            conn.send(False)
            helper.join()
        self._helpers = []


def scale(times: List[float]) -> float:
    """Factor that turns host seconds into nominal seconds."""
    return NOMINAL_S / statistics.median(times)
